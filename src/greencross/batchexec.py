"""Batched execution of quadrature tasks.

Pair-quadrature work is enqueued as tiny tasks (row/col element indices plus
scatter targets) into one list per singularity case, so every flushed batch
runs a single rule with no branching inside. The case comes from the
classifier, or from the caller when it knows it for a whole enqueue (an
admissible block holds only disjoint pairs). A list that reaches capacity is
sealed and handed to a worker pool while the producer keeps enqueueing.

Scatter-adds are applied at finalize time in a fixed order (block id, then
enqueue order), which makes every assembled matrix bitwise independent of
the list capacity, the number of workers, and flush timing. The evaluator
must likewise produce per-task values independent of how tasks are batched;
the ones in the assembly module cut each batch into chunks of a fixed number
of quadrature points, a function of the rule alone, and compute each task's
value from its own data only.

The worker pool is released by ``close`` (or by leaving a ``with`` block),
on error paths too. An executor whose finalize failed, or that was closed
before finalizing, refuses to hand out its incomplete blocks.
"""

import os
import threading
import time
from collections import namedtuple
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import ConfigError, StateError
from .quadrature import PERMS3

DEFAULT_CAPACITY = 4096

QuadTask = namedtuple("QuadTask", "row col block row_slots col_slots")

# batch columns: seq, row, col, px, py, block, row_slots, col_slots
_NCOLS = 8


class TaskList:
    """Pending tasks of one singularity case, sealed in capacity-sized runs."""

    __slots__ = ("case", "capacity", "chunks", "count")

    def __init__(self, case, capacity):
        self.case = case
        self.capacity = capacity
        self.chunks = []
        self.count = 0

    def push(self, chunk):
        """Append a column chunk; returns the list of sealed batches."""
        sealed = []
        n = len(chunk[0])
        pos = 0
        while pos < n:
            take = min(n - pos, self.capacity - self.count)
            self.chunks.append(tuple(a[pos:pos + take] for a in chunk))
            self.count += take
            pos += take
            if self.count == self.capacity:
                sealed.append(self.seal())
        return sealed

    def seal(self):
        batch = tuple(np.concatenate([c[i] for c in self.chunks])
                      for i in range(_NCOLS))
        self.chunks = []
        self.count = 0
        return batch


class BatchExecutor:
    """Capacity-sealed task batching with a deterministic reduction.

    classify(rows, cols) -> (case, row_perm, col_perm) arrays routes each
    task to its list; evaluator(case, rows, cols, row_perm, col_perm) returns
    values of shape (ntasks, row_width, col_width) laid out in the canonical
    (permuted) local order. Slot arrays give the target position inside the
    block for each canonical local index, -1 marking an unused slot.
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
        self.row_width = row_width
        self.col_width = col_width
        self._classify = classify
        self._evaluator = evaluator
        self._permute_rows = permute_rows
        self._permute_cols = permute_cols
        self._lists = [TaskList(c, capacity) for c in range(num_cases)]
        self._blocks = []
        self._futures = []
        self._lock = threading.Lock()
        self._seq = 0
        self._open = True
        self._failed = False
        self._pool = ThreadPoolExecutor(max_workers=threads)
        self._stats = [{"tasks": 0, "batches": 0, "wall_s": 0.0}
                       for _ in range(num_cases)]

    def register_block(self, nrows, ncols):
        """Allocate a zeroed target block; returns its id."""
        self._blocks.append(np.zeros((nrows, ncols)))
        return len(self._blocks) - 1

    def enqueue(self, task):
        rs = np.asarray(task.row_slots, dtype=np.int64).reshape(1, self.row_width)
        cs = np.asarray(task.col_slots, dtype=np.int64).reshape(1, self.col_width)
        self.enqueue_many(np.array([task.row]), np.array([task.col]),
                          task.block, rs, cs)

    def enqueue_many(self, rows, cols, block, row_slots, col_slots,
                     case=None):
        """Vectorized enqueue of len(rows) tasks sharing nothing but shapes.

        block may be a scalar id or a per-task array; slot arrays have shape
        (ntasks, row_width) and (ntasks, col_width). ``case``, when given, is
        the singularity case of every task: classification is skipped and
        the tasks keep their local order (identity permutations).
        """
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        n = len(rows)
        if n == 0:
            return
        block = np.broadcast_to(np.asarray(block, dtype=np.int64), (n,))
        row_slots = np.asarray(row_slots, dtype=np.int64).reshape(n, self.row_width)
        col_slots = np.asarray(col_slots, dtype=np.int64).reshape(n, self.col_width)
        if case is None:
            cases, px, py = self._classify(rows, cols)
            if self._permute_rows:
                row_slots = np.take_along_axis(row_slots, PERMS3[px], axis=1)
            if self._permute_cols:
                col_slots = np.take_along_axis(col_slots, PERMS3[py], axis=1)
            groups = [(int(c), cases == c) for c in np.unique(cases)]
        else:
            if not 0 <= case < len(self._lists):
                raise ConfigError("unknown case %r" % (case,))
            px = py = np.zeros(n, dtype=np.int64)
            groups = [(int(case), slice(None))]
        sealed = []
        with self._lock:
            if not self._open:
                raise StateError("enqueue after finalize or close")
            seq = np.arange(self._seq, self._seq + n, dtype=np.int64)
            self._seq += n
            for c, m in groups:
                chunk = (seq[m], rows[m], cols[m], px[m], py[m],
                         block[m], row_slots[m], col_slots[m])
                self._stats[c]["tasks"] += len(chunk[0])
                sealed.extend((c, b) for b in self._lists[c].push(chunk))
        for c, batch in sealed:
            self._submit(c, batch)

    def _submit(self, case, batch):
        self._stats[case]["batches"] += 1
        self._futures.append(self._pool.submit(self._run, case, batch))

    def _run(self, case, batch):
        t0 = time.perf_counter()
        seq, rows, cols, px, py, block, rs, cs = batch
        values = self._evaluator(case, rows, cols, px, py)
        values = np.asarray(values, dtype=np.float64).reshape(
            len(rows), self.row_width, self.col_width)
        with self._lock:
            self._stats[case]["wall_s"] += time.perf_counter() - t0
        return seq, block, rs, cs, values

    def finalize(self):
        """Flush all lists, wait for workers, scatter in deterministic order.

        Returns the list of target blocks and releases the worker pool.
        Idempotent; a second call is a no-op returning the same blocks. If
        finalize fails (an evaluator raised) or the executor was closed
        first, the blocks are incomplete and this and every later call
        raise StateError instead.
        """
        with self._lock:
            if self._failed:
                raise StateError("executor failed or was closed before "
                                 "finalize; its blocks are incomplete")
            if not self._open:
                return self._blocks
            self._open = False
            tails = [(tl.case, tl.seal()) for tl in self._lists if tl.count]
        try:
            for c, batch in tails:
                self._submit(int(c), batch)
            results = [f.result() for f in self._futures]
            self._scatter(results)
        except BaseException:
            self._failed = True
            raise
        finally:
            self._futures = []
            self.close()
        return self._blocks

    def _scatter(self, results):
        if not results:
            return
        seq = np.concatenate([r[0] for r in results])
        block = np.concatenate([r[1] for r in results])
        rs = np.concatenate([r[2] for r in results])
        cs = np.concatenate([r[3] for r in results])
        values = np.concatenate([r[4] for r in results])
        order = np.lexsort((seq, block))
        block = block[order]
        rs = rs[order]
        cs = cs[order]
        values = values[order]
        bounds = np.searchsorted(block, np.arange(len(self._blocks) + 1))
        for bid in range(len(self._blocks)):
            s, e = bounds[bid], bounds[bid + 1]
            if s == e:
                continue
            mat = self._blocks[bid]
            for a in range(self.row_width):
                for b in range(self.col_width):
                    ra = rs[s:e, a]
                    cb = cs[s:e, b]
                    ok = (ra >= 0) & (cb >= 0)
                    if ok.any():
                        np.add.at(mat, (ra[ok], cb[ok]), values[s:e, a, b][ok])

    def close(self):
        """Release the worker pool; pending batches are cancelled.

        Safe to call more than once. Closing an executor that was not
        finalized makes its blocks unavailable (finalize raises StateError).
        """
        with self._lock:
            if self._open:
                self._open = False
                self._failed = True
        self._pool.shutdown(wait=True, cancel_futures=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def stats(self):
        """Per-case task/batch counts and evaluator wall time."""
        return [dict(st, case=c) for c, st in enumerate(self._stats)]
