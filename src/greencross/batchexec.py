"""Pair-major batched execution of quadrature tasks.

Work is described block by block, in a buffer laid out by the caller.
``enqueue_many`` names a block as a 2-D row-major view into it and records
one product of tasks for it: every element of a row list paired with every
element of a column list, each element carrying the local slots its values
scatter to. Nothing is evaluated before ``finalize``, which sorts the
recorded row elements of all blocks and walks them in ascending order,
window by window:

1. a window holds whole row elements (all the records that list them), so
   every (row, col) element pair of the build lives in exactly one window;
   it closes once its tasks reach ``_WINDOW``, so the memory in flight is
   bounded, independent of the build's size, the capacity and the number
   of workers;
2. the window's tasks are reduced to distinct pairs, so a pair shared by
   several blocks is classified and evaluated once (skipped when both
   widths are 1, as for the constant basis, where a pair is one entry of
   one block);
3. the pairs of unknown singularity case are classified in one call (a
   record may carry the known case of all its pairs instead: an admissible
   block holds only disjoint pairs; a pair known in one record takes that
   case in all of them);
4. the pairs are stable-sorted by case and evaluated in ``capacity``-sized
   batches, every batch one rule with no branching inside, the singular
   cases first, over a pool of ``threads`` workers that lives only for the
   call to ``finalize``;
5. while the workers evaluate, the main thread maps every contribution of
   the window's tasks to its flat target in the buffer and to its pair's
   value; one ``np.add.at`` then scatters the window.

Order contract: a block entry sums its contributions by ascending row
element, then enqueue call, then canonical column slot b, then position in
the column list, then canonical row slot a. Windows split only between row
elements, so every entry is bitwise independent of the capacity, the number
of workers and the window size, and of which other blocks the build holds.
The evaluator must likewise produce per-pair values independent of how
pairs are batched; the ones in the assembly module cut each batch into
chunks of a fixed number of quadrature points, a function of the rule
alone, and compute each pair's value from its own data only.

An executor whose ``finalize`` failed (an evaluator raised), or that was
closed before finalizing, refuses further work: ``enqueue_many`` and
``finalize`` raise StateError, and the buffer holds incomplete sums.
"""

import os
import time
from collections import deque, namedtuple
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import ConfigError, StateError
from .quadrature import PERMS3

DEFAULT_CAPACITY = 4096

# tasks that close a window; a window always holds at least one whole row
# element. Smaller windows cost the linear basis time (more small singular
# batches, more waits on the slowest worker); 2^17 keeps the peak RSS of the
# L4 constant build near 100 MiB (117 MiB at 2^18).
_WINDOW = 1 << 17

# scatter target of an unused slot: a target plus one or two of these is
# negative, and the sum cannot overflow
_UNUSED = -(1 << 61)


# the recorded tasks of a build: row entries (element, record, slots) sorted
# by element; per record its column entries' offset and count, known case,
# target offset in the buffer and target row stride
_Layout = namedtuple("_Layout", "rows rec rs cols cs coff ncol case offset "
                                "stride span")


def _windows(elems, cost):
    """(start, stop) ranges of the sorted row entries, cut between
    elements once the summed cost (tasks) reaches _WINDOW, or after one
    element if that alone costs more."""
    cum = np.cumsum(cost)
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

    classify(rows, cols) -> (case, row_perm, col_perm) arrays routes each
    pair to its case; evaluator(case, rows, cols, row_perm, col_perm)
    returns values of shape (npairs, row_width, col_width) laid out in the
    canonical (permuted) local order. ``out`` is the C-contiguous float64
    buffer the values are added into; blocks are 2-D views into it. Slot
    arrays give the target position inside the block for each local index,
    -1 marking an unused slot.
    """

    def __init__(self, classify, evaluator, out, num_cases=4,
                 row_width=1, col_width=1,
                 permute_rows=False, permute_cols=False,
                 capacity=DEFAULT_CAPACITY, threads=None):
        if capacity < 1:
            raise ConfigError("capacity must be >= 1")
        if threads is None:
            threads = os.cpu_count() or 1
        if threads < 1:
            raise ConfigError("threads must be >= 1")
        if out.dtype != np.float64 or not out.flags.c_contiguous:
            raise ConfigError("the buffer must be C-contiguous float64")
        self.capacity = capacity
        self.threads = threads
        self.row_width = row_width
        self.col_width = col_width
        self._classify = classify
        self._evaluator = evaluator
        self._out = out.reshape(-1)
        self._permute_rows = permute_rows
        self._permute_cols = permute_cols
        self._dedupe = row_width * col_width > 1
        self._num_cases = num_cases
        self._records = []
        self._open = True
        self._failed = False
        self._stats = [{"tasks": 0, "batches": 0, "wall_s": 0.0}
                       for _ in range(num_cases)]

    def _place(self, target):
        """Flat offset and row stride of the view ``target`` in the buffer."""
        size = self._out.itemsize
        if target.shape[1] > 1 and target.strides[1] != size:
            raise ConfigError("target columns are not unit-stride")
        offset = (target.ctypes.data - self._out.ctypes.data) // size
        stride = target.strides[0] // size
        last = offset + (target.shape[0] - 1) * stride + target.shape[1] - 1
        if target.size and not (offset >= 0 and stride >= 0
                                and last < self._out.size):
            raise ConfigError("target is not a view into the executor's "
                              "buffer")
        return offset, stride

    def enqueue_many(self, rows, cols, target, row_slots, col_slots,
                     case=None):
        """Record the len(rows) x len(cols) tasks (rows[i], cols[j]).

        ``target`` is the block, a 2-D view into the buffer. row_slots
        (len(rows), row_width) and col_slots (len(cols), col_width) hold
        each element's target rows and columns in it. ``case``, when given,
        is the singularity case of every pair: classification is skipped
        and the pairs keep their local order (identity permutations).
        """
        if not self._open:
            raise StateError("enqueue after finalize or close")
        if case is not None and not 0 <= case < self._num_cases:
            raise ConfigError("unknown case %r" % (case,))
        rows = np.asarray(rows, dtype=np.int64).reshape(-1)
        cols = np.asarray(cols, dtype=np.int64).reshape(-1)
        rs = np.asarray(row_slots, dtype=np.int64).reshape(len(rows),
                                                           self.row_width)
        cs = np.asarray(col_slots, dtype=np.int64).reshape(len(cols),
                                                           self.col_width)
        offset, stride = self._place(target)
        nrows, ncols = target.shape
        if (rs.size and rs.max() >= nrows) or (cs.size and cs.max() >= ncols):
            raise ConfigError("slot outside the target's shape %r"
                              % (target.shape,))
        if len(rows) and len(cols):
            self._records.append((offset, stride,
                                  -1 if case is None else int(case),
                                  rows, rs, cols, cs))

    def finalize(self):
        """Evaluate the recorded tasks and add their values into the buffer.

        Idempotent; a second call is a no-op. If an evaluator raised or the
        executor was closed first, the buffer is incomplete and this and
        every later call raise StateError.
        """
        if self._failed:
            raise StateError("executor failed or was closed before "
                             "finalize; its buffer is incomplete")
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
        offset, stride, case, rows, rs, cols, cs = zip(*self._records)
        self._records = []  # the concatenated copies below replace them
        nrow = np.array([len(r) for r in rows])
        ncol = np.array([len(c) for c in cols])
        rec = np.repeat(np.arange(len(nrow)), nrow)
        rows, rs = np.concatenate(rows), np.concatenate(rs)
        order = np.argsort(rows, kind="stable")
        rows, rec, rs = rows[order], rec[order], rs[order]
        cols, cs = np.concatenate(cols), np.concatenate(cs)
        layout = _Layout(rows, rec, rs, cols, cs,
                         np.cumsum(ncol) - ncol, ncol, np.array(case),
                         np.array(offset), np.array(stride), cols.max() + 1)
        with ThreadPoolExecutor(max_workers=self.threads) as pool:
            for start, stop in _windows(rows, ncol[rec]):
                self._run_window(pool, self._out, layout, start, stop)

    def _run_window(self, pool, buf, lay, start, stop):
        rec = lay.rec[start:stop]
        length = lay.ncol[rec]
        first = np.cumsum(length) - length
        n = int(first[-1] + length[-1])
        run = np.repeat(np.arange(stop - start), length)
        pos = np.arange(n) - first[run]  # position in the record's columns
        col = lay.coff[rec][run] + pos
        rec = rec[run]
        rows, cols = lay.rows[start:stop][run], lay.cols[col]
        case = lay.case[rec]
        if self._dedupe:
            _, pick, pair = np.unique(rows * lay.span + cols,
                                      return_index=True, return_inverse=True)
            known = case >= 0
            case, rows, cols = case[pick], rows[pick], cols[pick]
            case[pair[known]] = lay.case[rec[known]]
        else:
            pair = np.arange(n)
        px = np.zeros(len(rows), dtype=np.int64)
        py = np.zeros(len(rows), dtype=np.int64)
        unknown = np.flatnonzero(case < 0)
        if len(unknown):
            case[unknown], px[unknown], py[unknown] = self._classify(
                rows[unknown], cols[unknown])
        values = self._evaluate(pool, case, rows, cols, px, py)

        # scatter map, built while the workers evaluate: flat target and
        # flat value index per contribution, slots in canonical order
        rs, cs = lay.rs[start:stop][run], lay.cs[col]
        moved = np.flatnonzero((px | py)[pair])
        if self._permute_rows and len(moved):
            rs[moved] = np.take_along_axis(rs[moved], PERMS3[px[pair[moved]]],
                                           axis=1)
        if self._permute_cols and len(moved):
            cs[moved] = np.take_along_axis(cs[moved], PERMS3[py[pair[moved]]],
                                           axis=1)
        # an unused slot sends the sum of both parts below zero
        rowt = np.where(rs >= 0, lay.offset[rec][:, None]
                        + rs * lay.stride[rec][:, None], _UNUSED)
        cs = np.where(cs >= 0, cs, _UNUSED)
        rw, cw = self.row_width, self.col_width
        src = pair[:, None] * (rw * cw) + np.arange(rw) * cw
        # within a record, column slot b before column position
        at = (rw * cw * first[run] + rw * pos)[:, None] + np.arange(rw)
        step = (rw * length[run])[:, None]
        tgt = np.empty(n * rw * cw, dtype=np.int64)
        out = np.empty(n * rw * cw, dtype=np.int64)
        for b in range(cw):
            tgt[at + b * step] = rowt + cs[:, b:b + 1]
            out[at + b * step] = src + b
        keep = tgt >= 0
        np.add.at(buf, tgt[keep], values().reshape(-1)[out[keep]])

    def _evaluate(self, pool, case, rows, cols, px, py):
        """Start evaluating the listed pairs, by case in capacity-sized
        batches; returns a function that waits for and returns the values.
        """
        by_case = np.argsort(case, kind="stable")
        bounds = np.searchsorted(case[by_case], np.arange(self._num_cases + 1))
        batches = deque()
        # singular cases first: their pairs cost the most, so the cheap
        # disjoint batches even out the workers at the end of the window
        for c in reversed(range(self._num_cases)):
            s, e = bounds[c], bounds[c + 1]
            self._stats[c]["tasks"] += int(e - s)
            batches += [(c, by_case[b:min(e, b + self.capacity)])
                        for b in range(s, e, self.capacity)]
        # batches write disjoint rows
        values = np.empty((len(rows), self.row_width, self.col_width))

        def work():
            # each worker pulls batches until none is left
            walls = []
            while True:
                try:
                    c, idx = batches.popleft()
                except IndexError:
                    return walls
                t0 = time.perf_counter()
                try:
                    values[idx] = np.reshape(
                        self._evaluator(c, rows[idx], cols[idx], px[idx],
                                        py[idx]),
                        (len(idx), self.row_width, self.col_width))
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

    def close(self):
        """Mark the executor closed; safe to call more than once.

        Closing an executor that was not finalized drops its recorded tasks
        and leaves its buffer incomplete (finalize raises StateError).
        """
        if self._open:
            self._open = False
            self._failed = True
            self._records = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def stats(self):
        """Per-case evaluated pairs ("tasks"), batches and evaluator wall."""
        return [dict(st, case=c) for c, st in enumerate(self._stats)]
