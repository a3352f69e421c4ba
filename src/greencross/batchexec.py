"""Batched execution of quadrature tasks.

Pair-quadrature work is enqueued as tiny tasks: row/col element indices plus
scatter targets. ``enqueue_many`` only checks and records its arrays. Once
the recorded tasks reach ``_WINDOW``, and once more in ``finalize``, the
window is flushed:

1. the tasks of unknown singularity case are classified in one call (a
   caller that knows the case of a whole enqueue passes it instead: an
   admissible block holds only disjoint pairs);
2. the tasks are stable-sorted by case;
3. each case is evaluated in ``capacity``-sized batches, every batch one rule
   with no branching inside, over a pool of ``threads`` workers that lives
   only for the flush;
4. the values are scatter-added into the registered blocks, per block and
   per local slot pair (a, b), in enqueue order.

Windows end at enqueue calls and their cuts depend only on the stream of
calls, so every block is bitwise independent of the capacity and the number
of workers; a block enqueued in one call sums each entry in (a, b, enqueue)
order. The evaluator must likewise produce per-task values independent of
how tasks are batched; the ones in the assembly module cut each batch into
chunks of a fixed number of quadrature points, a function of the rule
alone, and compute each task's value from its own data only.

An evaluator error surfaces from the call that flushed its window, so from
``enqueue_many`` as well as from ``finalize``; no worker outlives a flush.
An executor whose flush failed, or that was closed before finalizing,
refuses further work and its incomplete blocks: ``enqueue_many`` and
``finalize`` raise StateError.
"""

import os
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import ConfigError, StateError
from .quadrature import PERMS3

DEFAULT_CAPACITY = 4096

# recorded tasks that trigger a flush: bounds the memory a build holds in
# flight, independent of capacity and threads
_WINDOW = 1 << 18


class BatchExecutor:
    """Windowed, case-sorted task batching with a deterministic scatter.

    classify(rows, cols) -> (case, row_perm, col_perm) arrays routes each
    task to its case; evaluator(case, rows, cols, row_perm, col_perm)
    returns values of shape (ntasks, row_width, col_width) laid out in the
    canonical (permuted) local order. Slot arrays give the target position
    inside the block for each canonical local index, -1 marking an unused
    slot.
    """

    def __init__(self, classify, evaluator, num_cases=4,
                 row_width=1, col_width=1,
                 permute_rows=False, permute_cols=False,
                 capacity=DEFAULT_CAPACITY, threads=None):
        if capacity < 1:
            raise ConfigError("capacity must be >= 1")
        if threads is None:
            threads = os.cpu_count() or 1
        if threads < 1:
            raise ConfigError("threads must be >= 1")
        self.capacity = capacity
        self.threads = threads
        self.row_width = row_width
        self.col_width = col_width
        self._classify = classify
        self._evaluator = evaluator
        self._permute_rows = permute_rows
        self._permute_cols = permute_cols
        self._num_cases = num_cases
        self._blocks = []
        self._pending = []
        self._npending = 0
        self._open = True
        self._failed = False
        self._stats = [{"tasks": 0, "batches": 0, "wall_s": 0.0}
                       for _ in range(num_cases)]

    def register_block(self, nrows, ncols):
        """Allocate a zeroed target block; returns its id."""
        self._blocks.append(np.zeros((nrows, ncols)))
        return len(self._blocks) - 1

    def enqueue_many(self, rows, cols, block, row_slots, col_slots,
                     case=None):
        """Record len(rows) tasks sharing nothing but shapes.

        block may be a scalar id or a per-task array; slot arrays have shape
        (ntasks, row_width) and (ntasks, col_width). ``case``, when given, is
        the singularity case of every task: classification is skipped and
        the tasks keep their local order (identity permutations). Flushes
        the window once it is full.
        """
        if not self._open:
            raise StateError("enqueue after finalize or close")
        if case is not None and not 0 <= case < self._num_cases:
            raise ConfigError("unknown case %r" % (case,))
        rows = np.asarray(rows, dtype=np.int64)
        n = len(rows)
        if n == 0:
            return
        self._pending.append((
            rows, np.asarray(cols, dtype=np.int64),
            np.broadcast_to(np.asarray(block, dtype=np.int64), (n,)),
            np.asarray(row_slots, dtype=np.int64).reshape(n, self.row_width),
            np.asarray(col_slots, dtype=np.int64).reshape(n, self.col_width),
            np.full(n, -1 if case is None else case, dtype=np.int64)))
        self._npending += n
        if self._npending >= _WINDOW:
            self._flush()

    def _flush(self):
        """Classify, sort, evaluate and scatter the recorded tasks."""
        pending, self._pending, self._npending = self._pending, [], 0
        if not pending:
            return
        try:
            self._run_window(*(np.concatenate(col) for col in zip(*pending)))
        except BaseException:
            self._open = False
            self._failed = True
            raise

    def _run_window(self, rows, cols, block, rs, cs, case):
        n = len(rows)
        px = np.zeros(n, dtype=np.int64)
        py = np.zeros(n, dtype=np.int64)
        unknown = np.flatnonzero(case < 0)
        if len(unknown):
            case[unknown], px[unknown], py[unknown] = self._classify(
                rows[unknown], cols[unknown])
            if self._permute_rows:
                rs[unknown] = np.take_along_axis(rs[unknown],
                                                 PERMS3[px[unknown]], axis=1)
            if self._permute_cols:
                cs[unknown] = np.take_along_axis(cs[unknown],
                                                 PERMS3[py[unknown]], axis=1)

        by_case = np.argsort(case, kind="stable")
        rows, cols = rows[by_case], cols[by_case]
        px, py = px[by_case], py[by_case]
        bounds = np.searchsorted(case[by_case], np.arange(self._num_cases + 1))
        batches = []
        for c in range(self._num_cases):
            s, e = bounds[c], bounds[c + 1]
            self._stats[c]["tasks"] += int(e - s)
            batches += [(c, b, min(e, b + self.capacity))
                        for b in range(s, e, self.capacity)]
        # values in enqueue order; batches write disjoint rows
        values = np.empty((n, self.row_width, self.col_width))

        def evaluate(batch):
            c, s, e = batch
            t0 = time.perf_counter()
            values[by_case[s:e]] = np.reshape(
                self._evaluator(c, rows[s:e], cols[s:e], px[s:e], py[s:e]),
                (e - s, self.row_width, self.col_width))
            return c, time.perf_counter() - t0

        with ThreadPoolExecutor(max_workers=self.threads) as pool:
            for c, dt in pool.map(evaluate, batches):
                self._stats[c]["batches"] += 1
                self._stats[c]["wall_s"] += dt

        by_block = np.argsort(block, kind="stable")
        block = block[by_block]
        rs, cs, values = rs[by_block], cs[by_block], values[by_block]
        cuts = np.flatnonzero(block[1:] != block[:-1]) + 1
        for s, e in zip(np.r_[0, cuts], np.r_[cuts, n]):
            mat = self._blocks[block[s]]
            for a in range(self.row_width):
                for b in range(self.col_width):
                    ra, cb = rs[s:e, a], cs[s:e, b]
                    ok = (ra >= 0) & (cb >= 0)
                    np.add.at(mat, (ra[ok], cb[ok]), values[s:e, a, b][ok])

    def finalize(self):
        """Flush the last window and return the list of target blocks.

        Idempotent; a second call is a no-op returning the same blocks. If
        a flush failed (an evaluator raised) or the executor was closed
        first, the blocks are incomplete and this and every later call
        raise StateError instead.
        """
        if self._failed:
            raise StateError("executor failed or was closed before "
                             "finalize; its blocks are incomplete")
        if self._open:
            self._flush()
            self._open = False
        return self._blocks

    def close(self):
        """Mark the executor closed; safe to call more than once.

        Closing an executor that was not finalized drops its recorded tasks
        and makes its blocks unavailable (finalize raises StateError).
        """
        if self._open:
            self._open = False
            self._failed = True
            self._pending, self._npending = [], 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def stats(self):
        """Per-case task/batch counts and evaluator wall time."""
        return [dict(st, case=c) for c, st in enumerate(self._stats)]
