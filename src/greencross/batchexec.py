"""Pair-major batched execution of quadrature tasks.

Work is described block by block, in buffers laid out by the caller, one
per kernel. A block is a row-major region of the buffer of each kernel it
takes, given by its place there (offset, row stride, rows, columns), and
one product of tasks: every element of a row table paired with every
element of a column table. A table lists elements, each carrying the local
slots its values scatter to (-1: unused), and one table serves every block
that names it, so a caller builds it once per distinct index list. Tables
come joined, (elements, slots, start) with table t at rows
start[t]:start[t + 1], and the slot arrays' widths are those of the
evaluator's values, the same in every call. ``enqueue_blocks`` records any
number of blocks in one call, as a few arrays; ``enqueue_many`` is its
one-block case, one table per side, the block given as a 2-D view into the
first buffer. A Galerkin executor (made with ``mirror``) splits every
block into its upper half, the pairs whose column element is >= the row
element, and its strict lower half, recorded transposed (tables and
place transposed, each kernel read through its mirror, the kernel whose
value at (s, t), transposed, is its own at (t, s): to rounding for
disjoint, vertex and identical pairs, to quadrature accuracy for edge
pairs). Results never depend on that, since every unordered pair is
evaluated once, as (smaller element, larger element). Nothing is evaluated
before ``finalize``, which sorts the row entries of all halves (the
entries of their row tables) by element and walks them in ascending
order, window by window:

1. a window holds whole row elements (all the halves that list them), so
   every unordered pair of the build lives in exactly one window; it
   closes once its tasks reach ``_WINDOW``, so the memory in flight is
   bounded, independent of the build's size, the capacity and the number
   of workers; the window's tasks are expanded from its row entries and
   their halves' column tables, and nothing larger is ever expanded;
2. the window's tasks are reduced to distinct pairs, sorted by (row
   element, column element), so a pair shared by several blocks, or by
   (t, s) and (s, t), is classified and evaluated once, for every
   evaluator kernel its halves read;
3. the pairs of unknown singularity case are classified in one call (a
   block may carry the known case of all its pairs instead: an admissible
   block holds only disjoint pairs; a pair known in one block takes that
   case in all of them);
4. the pairs are stable-sorted by case and needed kernels and evaluated in
   ``capacity``-sized batches, every batch one rule and one set of kernels
   with no branching inside, the singular cases first, over a pool of
   ``threads`` workers that lives only for the call to ``finalize``; the
   pair arrays they read and the values they write sit in buffers kept
   from window to window;
5. while the workers evaluate, the main thread maps every used (row slot,
   column slot) of every task and kernel of its half to its flat target
   in that kernel's buffer and to its pair's value, in task order: the
   used (task, column slot) segments, then each one's used row slots, so
   no (task, row slot, column slot) array is built and an unused slot
   takes no entry. One ``np.add.at`` per buffer then scatters the window.

The executor knows no geometry: an evaluator returns its values in the
slots of the element tables (see :class:`BatchExecutor`), and any local
order it integrates in (the vertex order a singular rule needs) is its
own to undo.

Order contract: a block entry sums its contributions in task order, the
order the window expands its tasks: by ascending row element of the half,
then half, in the order the blocks were recorded, all upper halves first,
then position in the column table (ascending element, in a Galerkin
executor), then column slot b (the column element's own slot in its
table), then row slot a. Recording blocks in one call or one call each
gives the same sums. Windows split only between row elements, so every
entry is bitwise independent of the capacity, the number of workers and
the window size, and of which other blocks (of any kernel) the build
holds; a block equals the same rows and columns of any larger block.
The evaluator must likewise produce per-pair values independent of how
pairs are batched and of the other kernels asked for; the ones in the
assembly module cut each batch into chunks of a fixed number of
quadrature points, a function of the rule alone, and compute each pair's
value from its own data only.

An executor whose ``finalize`` failed (an evaluator raised) refuses
further work: the enqueue methods and ``finalize`` raise StateError, and
the buffer holds incomplete sums.  An executor holds no resource between
calls (its worker pool lives inside ``finalize``), so it needs no closing.
"""

import os
import time
from collections import deque, namedtuple
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import ConfigError, StateError

DEFAULT_CAPACITY = 4096

# tasks that close a window; a window always holds at least one whole row
# element. Smaller windows cost the linear basis time (more small singular
# batches, more waits on the slowest worker); 2^17 keeps the peak RSS of the
# L4 constant build near 100 MiB (117 MiB at 2^18).
_WINDOW = 1 << 17

# scatter target row of an unused row slot: plus any column the target is
# negative, so the slot pair is dropped
_UNUSED = -(1 << 61)


# the recorded tasks: row entries (index into the row tables, half, offset
# and count of its columns) sorted by element; per half its known case,
# and per kernel its offset (-1: not taken), strides and evaluator kernel
_Layout = namedtuple("_Layout", "ent half coff ncol rows rs cols cs case "
                                "offset stride cstride kernel span")


def _tables(tables):
    """Joined element tables (elements, slots, start) as int64 arrays,
    checked: slots (len(elements), width), start rising from 0 to
    len(elements)."""
    elems, slots, start = (np.asarray(a, dtype=np.int64) for a in tables)
    if (slots.ndim != 2 or slots.shape[:1] != elems.shape
            or not slots.shape[1] or start.ndim != 1 or start[0] != 0
            or start[-1] != len(elems) or np.any(np.diff(start) < 0)):
        raise ConfigError("element tables are (elements, slots of shape "
                          "(elements, width), start)")
    return elems, slots, start


def _top(slots, start):
    """Largest slot of each table; -1 for an empty one."""
    top = np.full(len(start) - 1, -1, dtype=np.int64)
    full = np.flatnonzero(np.diff(start))
    if len(full):
        top[full] = np.maximum.reduceat(slots.max(axis=1), start[full])
    return top


def _join(tables, ids):
    """The tables of several enqueue calls as one set, and each call's
    table ids in it."""
    first = np.cumsum([0] + [len(start) - 1 for _, _, start in tables])
    base = np.cumsum([0] + [len(e) for e, _, _ in tables])
    start = np.concatenate([s[:-1] + b for (_, _, s), b in zip(tables, base)]
                           + [base[-1:]])
    return (np.concatenate([e for e, _, _ in tables]),
            np.concatenate([s for _, s, _ in tables]), start,
            np.concatenate([i + f for i, f in zip(ids, first)]))


class _Scratch:
    """Buffers kept from window to window: ``scratch(name, n, dtype)`` is
    the first n entries of the named buffer, grown to 1.5 n when short."""

    def __init__(self):
        self._bufs = {}

    def __call__(self, name, n, dtype=np.int64):
        buf = self._bufs.get(name)
        if buf is None or len(buf) < n:
            buf = self._bufs[name] = np.empty(n + n // 2, dtype=dtype)
        return buf[:n]


def _windows(elems, cost):
    """(start, stop) ranges of the sorted row entries, cut between
    elements once the summed cost (tasks) reaches _WINDOW, or after one
    element if that alone costs more."""
    cum = np.cumsum(cost, dtype=np.int64)
    bounds = np.r_[np.flatnonzero(np.r_[True, elems[1:] != elems[:-1]]),
                   len(elems)]
    out = []
    start = 0
    while start < len(elems):
        reach = (cum[start - 1] if start else 0) + _WINDOW
        i = np.searchsorted(bounds, np.searchsorted(cum, reach, "right"),
                            "right") - 1
        if bounds[i] <= start:
            i += 1
        out.append((start, bounds[i]))
        start = bounds[i]
    return out


class BatchExecutor:
    """Pair-major, case-sorted task batching with a deterministic scatter.

    classify(rows, cols) returns the case of each listed pair;
    evaluator(case, rows, cols, kernels) returns the listed kernels' values
    for pairs all of that case, shape (npairs, len(kernels), row_width,
    col_width), value [i, k, a, b] for slot a of element rows[i] and slot
    b of element cols[i], as their tables list them. ``out`` is the
    C-contiguous float64 buffer the values are added into, or a sequence
    of such buffers, one per kernel: a block takes one kernel or several,
    and is a 2-D region of the buffer of each. Slot arrays give the target
    position inside the block for each local index, -1 marking an unused
    slot. Buffer k reads evaluator kernel k, and a lower half evaluator
    kernel mirror[k] (equal widths; None: no lower halves, as for
    collocation).
    """

    def __init__(self, classify, evaluator, out, num_cases=4,
                 capacity=DEFAULT_CAPACITY, threads=None, mirror=None):
        if capacity < 1:
            raise ConfigError("capacity must be >= 1")
        if threads is None:
            threads = os.cpu_count() or 1
        if threads < 1:
            raise ConfigError("threads must be >= 1")
        outs = [out] if isinstance(out, np.ndarray) else list(out)
        if not outs or any(o.dtype != np.float64 or not o.flags.c_contiguous
                           for o in outs):
            raise ConfigError("the buffer must be C-contiguous float64")
        self.capacity = capacity
        self.threads = threads
        self._classify = classify
        self._evaluator = evaluator
        self._outs = [o.reshape(-1) for o in outs]
        self.kernels = len(outs)
        if mirror is not None and (len(mirror) != len(outs) or min(mirror) < 0
                                   or len(set(mirror)) < len(mirror)):
            raise ConfigError("one distinct mirror kernel per buffer")
        self._mirror = mirror
        self._evals = max([len(outs)] + [m + 1 for m in mirror or ()])
        self._widths = None  # (row, column) slot widths, from the first call
        self._num_cases = num_cases
        self._records = []
        self._open = True
        self._failed = False
        self._stats = [{"tasks": 0, "batches": 0, "wall_s": 0.0}
                       for _ in range(num_cases)]

    def _place(self, target):
        """Flat offset and row stride of the view ``target`` in the first
        kernel's buffer."""
        out = self._outs[0]
        size = out.itemsize
        if target.shape[1] > 1 and target.strides[1] != size:
            raise ConfigError("target columns are not unit-stride")
        offset = (target.ctypes.data - out.ctypes.data) // size
        stride = target.strides[0] // size
        return offset, stride

    def enqueue_blocks(self, rows, cols, row_ids, col_ids, places, cases):
        """Record one product of tasks per block.

        rows and cols are element tables joined back to back, (elements,
        slots, start): table t lists elements[start[t]:start[t + 1]], and
        slots has one row per element, the element's target rows (columns)
        in a block, -1 marking an unused slot; its width is the row
        (column) width of every call. Block k pairs every element of row
        table row_ids[k] with every element of column table col_ids[k].
        places[k] = (offset, row stride, rows, columns) locates the block
        in the buffer, one place per kernel with several, offset -1 for a
        kernel it does not take; cases[k] is the singularity case of all
        its pairs, or -1 to classify each pair; a known case skips
        classification.
        """
        if not self._open:
            raise StateError("enqueue after finalize")
        rows, cols = _tables(rows), _tables(cols)
        widths = (rows[1].shape[1], cols[1].shape[1])
        if self._widths not in (None, widths) or (
                self._mirror is not None and widths[0] != widths[1]):
            raise ConfigError("slot widths %r, but %r in earlier calls, or "
                              "unequal with a mirror" % (widths, self._widths))
        row_ids = np.asarray(row_ids, dtype=np.int64).reshape(-1)
        col_ids = np.asarray(col_ids, dtype=np.int64).reshape(-1)
        places = np.asarray(places, dtype=np.int64).reshape(
            -1, self.kernels, 4)
        cases = np.asarray(cases, dtype=np.int64).reshape(-1)
        if not len(row_ids) == len(col_ids) == len(places) == len(cases):
            raise ConfigError("one row table, column table, place and case "
                              "per block")
        for ids, (_, _, start) in ((row_ids, rows), (col_ids, cols)):
            if np.any((ids < 0) | (ids >= len(start) - 1)):
                raise ConfigError("table id outside the %d tables of the call"
                                  % (len(start) - 1))
        bad = (cases < -1) | (cases >= self._num_cases)
        if bad.any():
            raise ConfigError("unknown case %r" % (cases[bad][0],))
        offset, stride, nrows, ncols = np.moveaxis(places, 2, 0)
        taken = offset != -1
        if not taken.any(axis=1).all():
            raise ConfigError("a block takes no kernel")
        if np.any(taken & ((_top(*rows[1:])[row_ids, None] >= nrows)
                           | (_top(*cols[1:])[col_ids, None] >= ncols))):
            raise ConfigError("slot outside the block's shape")
        last = offset + (nrows - 1) * stride + ncols - 1
        size = np.array([o.size for o in self._outs])
        if np.any(taken & (nrows > 0) & (ncols > 0)
                  & ((offset < 0) | (stride < 0) | (last >= size))):
            raise ConfigError("block is not inside the executor's buffer")
        self._widths = widths
        keep = ((np.diff(rows[2])[row_ids] > 0)
                & (np.diff(cols[2])[col_ids] > 0))
        if keep.any():
            self._records.append((rows, cols, row_ids[keep], col_ids[keep],
                                  places[keep, :, :2], cases[keep]))

    def enqueue_many(self, rows, cols, target, row_slots, col_slots,
                     case=None):
        """Record the len(rows) x len(cols) tasks (rows[i], cols[j]).

        The one-block case of :meth:`enqueue_blocks`, over one row and one
        column table: ``target`` is the block, a 2-D view into the buffer
        of the first kernel. row_slots (len(rows), row_width) and col_slots
        (len(cols), col_width) hold each element's target rows and columns
        in it. ``case``, when given, is the singularity case of every pair.
        """
        if not self._open:
            raise StateError("enqueue after finalize")
        places = np.full((self.kernels, 4), -1)
        places[0] = self._place(target) + target.shape
        self.enqueue_blocks((rows, row_slots, [0, len(rows)]),
                            (cols, col_slots, [0, len(cols)]), [0], [0],
                            [places], [-1 if case is None else case])

    def finalize(self):
        """Evaluate the recorded tasks and add their values into the buffer.

        Idempotent; a second call is a no-op. If an evaluator raised, the
        buffer is incomplete and every later call raises StateError.
        """
        if self._failed:
            raise StateError("executor failed in finalize; its buffer is "
                             "incomplete")
        if self._open:
            self._open = False
            try:
                self._run()
            except BaseException:
                self._failed = True
                raise
            finally:
                self._records = []

    def _run(self):
        if not self._records:
            return
        layout = self._layout()
        scratch = _Scratch()
        with ThreadPoolExecutor(max_workers=self.threads) as pool:
            for start, stop in _windows(layout.rows[layout.ent], layout.ncol):
                self._run_window(pool, layout, start, stop, scratch)

    def _layout(self):
        """The recorded blocks as a _Layout of halves; its temporaries die
        with the call, before the first window."""
        rows, cols, row_ids, col_ids, places, case = zip(*self._records)
        self._records = []  # the joined copies below replace them
        offset, stride = np.moveaxis(np.concatenate(places), 2, 0)
        stride = np.where(offset >= 0, stride, 0)  # a kernel not taken
        case, cstride = np.concatenate(case), np.ones_like(stride)
        kernel = np.broadcast_to(np.arange(self.kernels), offset.shape)
        if self._mirror is None:
            relems, rslots, rstart, row_ids = _join(rows, row_ids)
            celems, cslots, cstart, col_ids = _join(cols, col_ids)
            halves = [(row_ids, col_ids, None)]
        else:
            # one set of tables, each sorted by element, for both halves:
            # the lower halves follow the upper ones, sides swapped
            relems, rslots, rstart, ids = _join(rows + cols, row_ids + col_ids)
            span = relems.max() + 1
            key = np.repeat(np.arange(len(rstart) - 1) * span,
                            np.diff(rstart)) + relems
            order = np.argsort(key, kind="stable")
            key, relems, rslots = key[order], relems[order], rslots[order]
            celems, cslots, cstart = relems, rslots, rstart
            n = len(case)
            halves = [(ids[:n], ids[n:], 0), (ids[n:], ids[:n], 1)]
            case, offset = np.r_[case, case], np.r_[offset, offset]
            stride, cstride = np.r_[stride, cstride], np.r_[cstride, stride]
            kernel = np.r_[kernel, np.broadcast_to(self._mirror, kernel.shape)]
        # row entries, sorted by element: each element of a half's row
        # table that has columns at or above it, with those; made by chunks
        # and kept as int32, as the largest memory before the windows
        parts = []
        for h, (rids, cids, above) in enumerate(halves):
            nrow = np.diff(rstart)[rids]
            if above is not None:
                top = celems[cstart[cids + 1] - 1]
                nrow = np.searchsorted(key, rids * span + top + 1 - above) \
                    - rstart[rids]
            for recs in np.array_split(np.arange(len(rids)),
                                       1 + nrow.sum() // _WINDOW):
                n = nrow[recs]
                half = np.repeat(recs, n)
                ent = np.arange(len(half)) + np.repeat(
                    rstart[rids[recs]] - (np.cumsum(n) - n), n)
                coff = (cstart[cids][half] if above is None else
                        np.searchsorted(key, (cids * span + above)[half]
                                        + relems[ent]))
                parts.append([a.astype(np.int32) for a in (
                    ent, half + h * len(rids), coff,
                    cstart[cids + 1][half] - coff)])
        order = np.argsort(relems[np.concatenate([p[0] for p in parts])],
                           kind="stable")
        rows = [np.concatenate([p.pop(0) for p in parts])[order]
                for _ in range(4)]
        return _Layout(*rows, relems, rslots, celems, cslots, case, offset,
                       stride, cstride, kernel, celems.max() + 1)

    def _run_window(self, pool, lay, start, stop, buf):
        (rw, cw), nk, ne = self._widths, self.kernels, self._evals
        ent, half = lay.ent[start:stop], lay.half[start:stop]
        length = lay.ncol[start:stop]
        first = np.cumsum(length) - length
        n = int(first[-1] + length[-1])
        run = np.repeat(np.arange(stop - start), length)  # task -> row entry
        col = lay.coff[start:stop][run] + (np.arange(n) - first[run])
        # the window's distinct pairs, sorted by key, split back into the
        # arrays the workers read; a case known in any task holds
        key, pair = np.unique(lay.rows[ent][run] * lay.span + lay.cols[col],
                              return_inverse=True)
        rows, cols = np.divmod(key, lay.span, out=(buf("rows", len(key)),
                                                   buf("cols", len(key))))
        case = buf("case", len(key))
        case.fill(-1)
        known = np.flatnonzero((lay.case[half] >= 0)[run])
        case[pair[known]] = lay.case[half][run[known]]
        # the evaluator kernels each pair is needed for, as a bit mask
        need = 1
        if ne > 1:
            need = np.zeros(len(rows), dtype=np.int64)
            reads = ((lay.offset[half] >= 0) << lay.kernel[half]).sum(axis=1)
            np.bitwise_or.at(need, pair, np.repeat(reads, length))
        unknown = np.flatnonzero(case < 0)
        if len(unknown):
            case[unknown] = self._classify(rows[unknown], cols[unknown])
        values = self._evaluate(
            pool, case, need, rows, cols,
            buf("values", len(rows) * ne * rw * cw, np.float64))

        # scatter map, built while the workers evaluate: the used segments
        # seg = task * cw + b in task order, with their target columns c,
        # and per kernel the target rows of each one's row slots a in that
        # kernel's buffer (an unused slot, or a kernel the half does not
        # take, far below zero)
        c = np.take(lay.cs, col, axis=0).reshape(-1)
        seg = np.flatnonzero(c >= 0)
        c = c[seg]
        task = seg // cw
        entry = run[task]
        rs = np.take(lay.rs, ent, axis=0)
        scatter = []
        for k in range(nk):
            offset, stride, cstride, kernel = (
                a[half, k] for a in (lay.offset, lay.stride, lay.cstride,
                                     lay.kernel))
            tgt = np.take(np.where((rs >= 0) & (offset >= 0)[:, None],
                                   offset[:, None] + rs * stride[:, None],
                                   _UNUSED), entry, axis=0)
            tgt += (np.take(cstride, entry) * c)[:, None]
            keep = (tgt >= 0).reshape(-1)
            tgt = np.compress(keep, tgt)
            # the value of the half's evaluator kernel for the task's pair
            src = np.take(kernel * (rw * cw), entry)
            src += pair[task] * (ne * rw * cw) + seg - task * cw
            src = np.compress(keep, src[:, None] + np.arange(rw) * cw)
            scatter.append((tgt, src))
        vals = values().reshape(-1)
        for out, (tgt, src) in zip(self._outs, scatter):
            np.add.at(out, tgt, vals[src])

    def _evaluate(self, pool, case, need, rows, cols, values):
        """Start evaluating the listed pairs, by case and needed kernels in
        capacity-sized batches, into ``values`` (one row of kernels *
        row_width * col_width per pair; a kernel a pair is not needed for
        is left unset); returns a function that waits for and returns the
        values.
        """
        (rw, cw), nk = self._widths, self._evals
        sets = (1 << nk) - 1  # kernel sets, by bit mask
        key = case if nk == 1 else case * sets + need - 1
        by_key = np.argsort(key, kind="stable")
        bounds = np.searchsorted(key[by_key],
                                 np.arange(self._num_cases * sets + 1))
        batches = deque()
        # singular cases first: their pairs cost the most, so the cheap
        # disjoint batches even out the workers at the end of the window
        for c in reversed(range(self._num_cases)):
            self._stats[c]["tasks"] += int(bounds[(c + 1) * sets]
                                           - bounds[c * sets])
            for mask in range(1, sets + 1):
                s, e = bounds[c * sets + mask - 1], bounds[c * sets + mask]
                kernels = [k for k in range(nk) if mask >> k & 1]
                batches += [(c, kernels, by_key[b:min(e, b + self.capacity)])
                            for b in range(s, e, self.capacity)]
        # batches write disjoint rows
        values = values.reshape(len(rows), nk, rw, cw)

        def work():
            # each worker pulls batches until none is left
            walls = []
            while True:
                try:
                    c, kernels, idx = batches.popleft()
                except IndexError:
                    return walls
                t0 = time.perf_counter()
                try:
                    got = np.reshape(
                        self._evaluator(c, rows[idx], cols[idx], kernels),
                        (len(idx), len(kernels), rw, cw))
                    if len(kernels) == nk:
                        values[idx] = got
                    else:
                        values[idx[:, None], kernels] = got
                except BaseException:
                    batches.clear()  # the other workers stop soon
                    raise
                walls.append((c, time.perf_counter() - t0))

        futures = [pool.submit(work) for _ in range(self.threads)]

        def wait():
            for fut in futures:
                for c, dt in fut.result():
                    self._stats[c]["batches"] += 1
                    self._stats[c]["wall_s"] += dt
            return values

        return wait

    def stats(self):
        """Per-case evaluated pairs ("tasks"), batches and evaluator wall."""
        return [dict(st, case=c) for c, st in enumerate(self._stats)]
