import sys
import threading

import numpy as np
import pytest

from greencross import batchexec
from greencross.batchexec import BatchExecutor
from greencross.errors import ConfigError, StateError


def _classify_all_zero(rows, cols):
    return np.zeros(len(rows), dtype=np.int64)


def _classify_parity(rows, cols):
    return (rows + cols) % 2


def _eval_pairfn(case, rows, cols, kernels=None):
    # deterministic per-task value, independent of batch composition
    return np.sin(1.3 * rows + 0.7 * cols + case)[:, None, None]


def _make(out, classify=_classify_all_zero, **kw):
    return BatchExecutor(classify, _eval_pairfn, out, **kw)


def _fill_block(ex, block):
    """Every (i, j) of the view ``block`` as one product of tasks."""
    i, j = np.arange(block.shape[0]), np.arange(block.shape[1])
    ex.enqueue_many(i, j, block, i[:, None], j[:, None])


def test_capacity_seals_batches():
    out = np.zeros((50, 50))
    ex = _make(out, capacity=1000, threads=1)
    _fill_block(ex, out)
    ex.finalize()
    st = ex.stats()[0]
    assert st["tasks"] == 2500
    assert st["batches"] == 3  # 1000 + 1000 + tail of 500
    assert st["wall_s"] > 0.0
    assert ex.stats()[1]["tasks"] == 0


def test_single_task_single_batch():
    out = np.zeros((1, 1))
    ex = _make(out, capacity=1000, threads=1)
    ex.enqueue_many([3], [4], out, [[0]], [[0]])
    assert ex.finalize() is None
    assert out[0, 0] == np.sin(1.3 * 3 + 0.7 * 4)
    assert ex.stats()[0]["batches"] == 1


def test_batches_are_case_homogeneous():
    out = np.zeros((8, 8))
    ex = _make(out, classify=_classify_parity, capacity=10, threads=1)
    _fill_block(ex, out)
    ex.finalize()
    st = ex.stats()
    assert st[0]["tasks"] == 32 and st[1]["tasks"] == 32
    # 32 tasks at capacity 10: 3 sealed + tail, per case
    assert st[0]["batches"] == 4 and st[1]["batches"] == 4
    assert [s["case"] for s in st] == [0, 1, 2, 3]


def test_scatter_exactly_once():
    out = np.zeros((13, 9))
    ex = _make(out, capacity=17, threads=2)
    _fill_block(ex, out)
    ex.finalize()
    expected = np.sin(1.3 * np.arange(13)[:, None] + 0.7 * np.arange(9)[None, :])
    assert np.array_equal(out, expected)


def test_blocks_side_by_side_in_a_block_row():
    """Column slices of one row-major matrix: each view's row stride is the
    matrix width, and no entry outside the two views is written."""
    buf = np.zeros(4 + 13 * 14)
    row = buf[2:-2].reshape(13, 14)
    left, right = row[:, :9], row[:, 10:]
    ex = _make(buf, capacity=17, threads=2)
    _fill_block(ex, left)
    _fill_block(ex, right)
    ex.finalize()
    i = np.arange(13)[:, None]
    assert np.array_equal(left, np.sin(1.3 * i + 0.7 * np.arange(9)))
    assert np.array_equal(right, np.sin(1.3 * i + 0.7 * np.arange(4)))
    assert np.all(row[:, 9] == 0.0)
    assert np.all(buf[:2] == 0.0) and np.all(buf[-2:] == 0.0)


def test_negative_slots_are_masked():
    out = np.zeros((2, 2))
    ex = _make(out, capacity=4, threads=1)
    ex.enqueue_many([2], [3], out, [[0]], [[0]])
    ex.enqueue_many([1], [1], out, [[-1]], [[1]])  # dropped: no row target
    ex.finalize()
    assert out[0, 0] == np.sin(1.3 * 2 + 0.7 * 3)
    assert np.all(out.ravel()[1:] == 0.0)


def test_enqueue_after_finalize_raises():
    out = np.zeros((1, 1))
    ex = _make(out)
    ex.finalize()
    with pytest.raises(StateError):
        ex.enqueue_many([0], [0], out, [[0]], [[0]])


def test_finalize_idempotent_and_empty():
    out = np.zeros((3, 3))
    ex = _make(out)
    assert ex.finalize() is None
    assert np.all(out == 0.0)
    assert ex.finalize() is None
    assert np.all(out == 0.0)
    assert all(s["tasks"] == 0 and s["batches"] == 0 for s in ex.stats())
    # a second finalize keeps the blocks of the first
    out = np.zeros((3, 4))
    ex = _make(out, capacity=4, threads=2)
    _fill_block(ex, out)
    ex.finalize()
    first = out.copy()
    assert ex.finalize() is None
    assert np.array_equal(out, first)
    expected = np.sin(1.3 * np.arange(3)[:, None] + 0.7 * np.arange(4)[None, :])
    assert np.array_equal(out, expected)


def test_invalid_configuration():
    with pytest.raises(ConfigError):
        _make(np.zeros(1), capacity=0)
    with pytest.raises(ConfigError):
        _make(np.zeros(1), threads=0)
    with pytest.raises(ConfigError):
        _make(np.zeros((2, 2))[:, :1])  # not contiguous


def _run_stream(capacity, threads, seed=23):
    """Two blocks fed by five products with repeated elements, so entries
    sum several contributions and pairs repeat across records."""
    rng = np.random.default_rng(seed)
    buf = np.zeros(800)
    blocks = buf[:400].reshape(20, 20), buf[400:].reshape(20, 20)
    ex = _make(buf, classify=_classify_parity, capacity=capacity,
               threads=threads)
    for _ in range(5):
        i = rng.integers(0, 20, size=int(rng.integers(1, 15)))
        j = rng.integers(0, 20, size=int(rng.integers(1, 15)))
        bid = int(rng.integers(0, 2))
        ex.enqueue_many(i, j, blocks[bid], i[:, None], j[:, None])
    ex.finalize()
    return blocks


def test_capacity_invariance_bitwise():
    ref = _run_stream(4096, 1)
    for capacity in (1, 7, 10 ** 6):
        got = _run_stream(capacity, 1)
        assert np.array_equal(ref[0], got[0])
        assert np.array_equal(ref[1], got[1])


def test_thread_invariance_bitwise():
    ref = _run_stream(16, 1)
    got = _run_stream(16, 4)
    assert np.array_equal(ref[0], got[0])
    assert np.array_equal(ref[1], got[1])


def test_slot_permutation_routing():
    """Values come in the elements' own slot order: value (a, b) of a
    pair lands at row slot a of its row element and column slot b of its
    column element, whatever permutation of the block the slots are."""
    def evaluator(case, rows, cols, kernels=None):
        a = np.arange(3.0)
        return np.broadcast_to(10.0 * a[:, None] + a, (len(rows), 1, 3, 3))

    out = np.zeros((3, 3))
    ex = BatchExecutor(_classify_all_zero, evaluator, out, capacity=8,
                       threads=1)
    ex.enqueue_many([0], [0], out, [[2, 0, 1]], [[1, 2, 0]])
    ex.finalize()
    a = np.arange(3.0)
    assert np.array_equal(out[np.ix_([2, 0, 1], [1, 2, 0])],
                          10.0 * a[:, None] + a)


def test_entry_sums_in_task_order():
    """An entry sums its contributions in task order, column position
    before column slot: 1, 1e16 and -1e16 from the column elements at
    positions 0-2, through column slots 2, 1 and 0, sum to 0.0 (slot
    first, they would sum to 1.0)."""
    def evaluator(case, rows, cols, kernels=None):
        v = np.array([1.0, 1e16, -1e16])[cols]
        return np.broadcast_to(v[:, None, None, None], (len(rows), 1, 1, 3))

    out = np.zeros((1, 1))
    ex = BatchExecutor(_classify_all_zero, evaluator, out, capacity=2,
                       threads=2)
    ex.enqueue_many([0], [0, 1, 2], out, [[0]],
                    [[-1, -1, 0], [-1, 0, -1], [0, -1, -1]])
    ex.finalize()
    assert out[0, 0] == 0.0


def _eval_raises(case, rows, cols, kernels=None):
    raise RuntimeError("evaluator failure")


def test_failed_finalize_releases_pool_and_refuses_blocks():
    baseline = threading.active_count()
    out = np.zeros((5, 5))
    ex = BatchExecutor(_classify_all_zero, _eval_raises, out, capacity=4,
                       threads=2)
    _fill_block(ex, out)
    with pytest.raises(RuntimeError):
        ex.finalize()
    assert threading.active_count() == baseline
    with pytest.raises(StateError):
        ex.finalize()


def test_known_case_skips_classification():
    def classify(rows, cols):
        raise AssertionError("classified a task of known case")

    out = np.zeros((3, 4))
    ex = BatchExecutor(classify, _eval_pairfn, out, num_cases=4, capacity=5,
                       threads=1)
    i, j = np.arange(3), np.arange(4)
    ex.enqueue_many(i, j, out, i[:, None], j[:, None], case=2)
    ex.finalize()
    expected = np.sin(1.3 * i[:, None] + 0.7 * j[None, :] + 2)
    assert np.array_equal(out, expected)
    st = ex.stats()
    assert st[2]["tasks"] == 12 and st[2]["batches"] == 3
    assert all(s["tasks"] == 0 for c, s in enumerate(st) if c != 2)


def test_known_case_matches_classified():
    """A known case gives the same blocks, bitwise, as classification."""
    def run(case):
        out = np.zeros((9, 6))
        ex = _make(out, capacity=7, threads=2)
        i, j = np.arange(9), np.arange(6)
        ex.enqueue_many(i, j, out, i[:, None], j[:, None], case=case)
        ex.finalize()
        return out

    assert np.array_equal(run(None), run(0))


def test_unknown_case_rejected():
    out = np.zeros((1, 1))
    ex = _make(out, threads=1)
    with pytest.raises(ConfigError):
        ex.enqueue_many([0], [0], out, [[0]], [[0]], case=4)


def _classify_rotating(rows, cols):
    return (rows + cols) % 4


def _eval_slots(case, rows, cols, kernels=None):
    # per-task 3x3 values, a different one in every slot pair
    a = np.arange(3.0)
    return np.sin(1.3 * rows + 0.7 * cols + case)[:, None, None] * (
        1.0 + a[None, :, None] + 0.5 * a[None, None, :])


def _run_blocks(capacity=16, threads=2, seed=31):
    """Eight 6 x 5 blocks of width-3 tasks, each one product of tasks; the
    blocks sit four side by side in each of two block rows."""
    rng = np.random.default_rng(seed)
    buf = np.zeros(2 * 6 * 20)
    mats = buf.reshape(2, 6, 20)
    blocks = [mats[k // 4][:, 5 * (k % 4):5 * (k % 4) + 5] for k in range(8)]
    ex = BatchExecutor(_classify_rotating, _eval_slots, buf,
                       capacity=capacity, threads=threads)
    for k in range(8):
        nr, nc = (int(x) for x in rng.integers(1, 12, size=2))
        rs = rng.integers(-1, 6, size=(nr, 3))
        cs = rng.integers(-1, 5, size=(nc, 3))
        ex.enqueue_many(rng.integers(0, 40, size=nr),
                        rng.integers(0, 40, size=nc), blocks[k], rs, cs,
                        case=0 if k % 3 == 2 else None)
    ex.finalize()
    return blocks, ex.stats()


def test_windows_match_single_window(monkeypatch):
    ref, ref_stats = _run_blocks()
    monkeypatch.setattr(batchexec, "_WINDOW", 60)
    got, stats = _run_blocks()
    for a, b in zip(ref, got):
        assert np.array_equal(a, b)
    assert any(np.any(b != 0.0) for b in got)
    assert [s["tasks"] for s in stats] == [s["tasks"] for s in ref_stats]


def test_block_across_windows_invariant(monkeypatch):
    """Blocks fed by several enqueues that span windows; more workers than
    cores and a short switch interval stress the shared value array."""
    monkeypatch.setattr(batchexec, "_WINDOW", 64)
    ref = _run_stream(4096, 1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for capacity in (1, 7, 10 ** 6):
            for threads in (1, 4):
                got = _run_stream(capacity, threads)
                assert np.array_equal(ref[0], got[0])
                assert np.array_equal(ref[1], got[1])
    finally:
        sys.setswitchinterval(interval)


def test_failed_window_releases_pool_and_refuses(monkeypatch):
    """An evaluator error in a later window ends finalize with the pool
    released; the executor then refuses work and its blocks."""
    monkeypatch.setattr(batchexec, "_WINDOW", 10)

    def evaluator(case, rows, cols, kernels=None):
        if np.any(rows == 3):
            raise RuntimeError("evaluator failure")
        return _eval_pairfn(case, rows, cols)

    baseline = threading.active_count()
    out = np.zeros((5, 5))
    ex = BatchExecutor(_classify_all_zero, evaluator, out, capacity=4,
                       threads=2)
    _fill_block(ex, out)
    with pytest.raises(RuntimeError):
        ex.finalize()
    assert threading.active_count() == baseline
    with pytest.raises(StateError):
        ex.finalize()
    with pytest.raises(StateError):
        ex.enqueue_many([0], [0], out, [[0]], [[0]])


def _eval_pairfn3(case, rows, cols, kernels=None):
    # _eval_pairfn in every slot of a width-3 pair
    return np.broadcast_to(_eval_pairfn(case, rows, cols),
                           (len(rows), 3, 3))


def test_classify_once_per_flush(monkeypatch):
    """One classify call per window, over its distinct pairs of unknown
    case; a pair known in one record takes that case in all of them."""
    monkeypatch.setattr(batchexec, "_WINDOW", 100)
    calls = []

    def classify(rows, cols):
        calls.append(len(rows))
        return _classify_parity(rows, cols)

    out = np.zeros((10, 30))
    ex = BatchExecutor(classify, _eval_pairfn3, out, capacity=8, threads=1)
    i, j = np.arange(10), np.arange(30)
    # slot 0 only, so each pair adds one value to one entry
    rs = np.c_[i, np.full((10, 2), -1)]
    cs = np.c_[j, np.full((30, 2), -1)]
    for _ in range(2):  # the same 300 pairs twice
        ex.enqueue_many(i, j, out, rs, cs)
    ex.enqueue_many([0], j[:5], out, rs[:1], cs[:5], case=1)
    ex.finalize()
    # row element 0 costs 65 tasks, the others 60: one element per window
    assert calls == [25] + [30] * 9
    assert sum(st["tasks"] for st in ex.stats()) == 300
    expected = 2 * np.sin(1.3 * i[:, None] + 0.7 * j[None, :]
                          + (i[:, None] + j[None, :]) % 2)
    expected[0, :5] = 3 * np.sin(0.7 * j[:5] + 1)
    assert np.allclose(out, expected, rtol=1e-14, atol=0)


def test_pairs_shared_by_blocks_evaluated_once():
    """A pair listed by several width-3 blocks is evaluated once and
    scattered to each of them, bitwise as if each block were built alone."""
    def run(parts):
        seen = []

        def evaluator(case, rows, cols, kernels=None):
            seen.extend(zip(rows.tolist(), cols.tolist()))
            return _eval_slots(case, rows, cols)

        # the blocks side by side in one block row
        mat = np.zeros((4, 6 * len(parts)))
        blocks = [mat[:, 6 * k:6 * k + 6] for k in range(len(parts))]
        ex = BatchExecutor(_classify_rotating, evaluator, mat, capacity=5,
                           threads=2)
        rows, cols = np.arange(4), np.arange(6)
        for r, block in zip(parts, blocks):
            slots = np.full((4, 3), -1)
            slots[:, r] = np.arange(4)
            ex.enqueue_many(rows, cols, block, slots,
                            np.arange(18).reshape(6, 3) % 6)
        ex.finalize()
        assert sum(st["tasks"] for st in ex.stats()) == len(seen)
        return blocks, seen

    blocks, seen = run(range(3))
    assert sorted(seen) == [(t, s) for t in range(4) for s in range(6)]
    for r in range(3):
        alone, _ = run([r])
        assert np.array_equal(blocks[r], alone[0])


def test_slots_outside_block_rejected():
    base = np.zeros(18)
    buf = base[6:]
    ex = _make(buf, threads=1)
    block = buf[:6].reshape(2, 3)
    with pytest.raises(ConfigError):
        ex.enqueue_many([0], [0], block, [[2]], [[0]])
    with pytest.raises(ConfigError):
        ex.enqueue_many([0], [0], block, [[0]], [[3]])
    # slots outside the view's shape, though inside the buffer
    with pytest.raises(ConfigError):
        ex.enqueue_many([0], [0], block[:, :2], [[0]], [[2]])
    # a view that is not inside the executor's buffer
    with pytest.raises(ConfigError):
        ex.enqueue_many([0], [0], np.zeros((2, 3)), [[0]], [[0]])
    with pytest.raises(ConfigError):
        ex.enqueue_many([0], [0], base[:6].reshape(2, 3), [[0]], [[0]])
    with pytest.raises(ConfigError):
        ex.enqueue_many([0], [0], base[4:10].reshape(2, 3), [[0]], [[0]])
    # a view whose columns are not unit-stride
    with pytest.raises(ConfigError):
        ex.enqueue_many([0], [0], buf.reshape(2, 6)[:, ::2], [[0]], [[0]])
    with pytest.raises(ConfigError):
        ex.enqueue_many([0], [0], block.T, [[0]], [[0]])
    assert ex.finalize() is None
    assert np.all(base == 0.0)


def _joined(tables):
    """(elements, slots) tables joined as (elements, slots, start)."""
    return (np.concatenate([e for e, _ in tables]),
            np.concatenate([s for _, s in tables]),
            np.cumsum([0] + [len(e) for e, _ in tables]))


@pytest.mark.parametrize("width", [1, 3])
def test_whole_build_enqueue_matches_block_by_block(width):
    """One enqueue_blocks call over shared element tables gives, bitwise,
    the blocks of one enqueue_many call per block."""
    rng = np.random.default_rng(41 + width)
    tables = []
    for _ in range(5):
        size = int(rng.integers(1, 9))
        elems = rng.choice(30, size=size, replace=False)
        if width == 1:
            slots = rng.permutation(size)[:, None]
        else:
            slots = rng.integers(-1, 6, size=(size, 3))
            slots[:, 0] = np.arange(size) % 6
        tables.append((elems, slots))
    # ten 9 x 10 blocks, two block rows of five side by side
    def block(buf, k):
        return buf.reshape(2, 9, 50)[k // 5][:, 10 * (k % 5):][:, :10]

    row_ids = rng.integers(0, 5, size=10)
    col_ids = rng.integers(0, 5, size=10)
    cases = np.where(np.arange(10) % 4 == 3, 0, -1)
    places = [(450 * (k // 5) + 10 * (k % 5), 50, 9, 10) for k in range(10)]

    def make(out):
        if width == 1:
            return BatchExecutor(_classify_parity, _eval_pairfn, out,
                                 capacity=7, threads=2)
        return BatchExecutor(_classify_rotating, _eval_slots, out,
                             capacity=7, threads=2)

    got = np.zeros(900)
    ex = make(got)
    joined = _joined(tables)
    ex.enqueue_blocks(joined, joined, row_ids, col_ids, places, cases)
    ex.finalize()
    ref = np.zeros(900)
    ex = make(ref)
    for k in range(10):
        (r, rs), (c, cs) = tables[row_ids[k]], tables[col_ids[k]]
        ex.enqueue_many(r, c, block(ref, k), rs, cs,
                        None if cases[k] < 0 else cases[k])
    ex.finalize()
    assert np.array_equal(got, ref)
    assert all(np.any(block(got, k) != 0.0) for k in range(10))


def test_slot_widths_fixed_by_first_call():
    """Widths are read off the slot arrays, one pair for every call; a
    call of other widths, or tables not joined, are refused."""
    out = np.zeros((3, 3))
    ex = _make(out, threads=1)
    ex.enqueue_many([0], [0], out, [[0]], [[0]])
    with pytest.raises(ConfigError):
        ex.enqueue_many([1], [1], out, [[0, 1, 2]], [[1]])
    with pytest.raises(ConfigError):
        ex.enqueue_blocks(([1], [[1]], [0, 1]), ([1], [[1, 2, -1]], [0, 1]),
                          [0], [0], [(0, 3, 3, 3)], [-1])
    with pytest.raises(ConfigError):  # start does not end the table
        ex.enqueue_blocks(([1], [[1]], [0, 2]), ([1], [[1]], [0, 1]),
                          [0], [0], [(0, 3, 3, 3)], [-1])
    ex.finalize()
    assert out[0, 0] == np.sin(0.0)
    assert np.all(out.ravel()[1:] == 0.0)


def test_enqueue_blocks_rejects_mismatched_blocks():
    out = np.zeros((2, 2))
    ex = _make(out, threads=1)
    table = ([0, 1], [[0], [1]], [0, 2])
    with pytest.raises(ConfigError):
        ex.enqueue_blocks(table, table, [0, 0], [0], [(0, 2, 2, 2)], [-1])
    with pytest.raises(ConfigError):  # a block past the buffer's end
        ex.enqueue_blocks(table, table, [0], [0], [(1, 2, 2, 2)], [-1])
    with pytest.raises(ConfigError):
        ex.enqueue_blocks(table, table, [0], [0], [(0, 2, 2, 2)], [4])


def test_table_ids_outside_the_call_rejected():
    """A row or column table id outside [0, tables in the call) is refused:
    -1 and -2 do not wrap around to the last tables, and one past the end
    is a ConfigError, not an IndexError."""
    out = np.zeros((2, 2))
    ex = _make(out, threads=1)
    tables = ([0, 1], [[0], [1]], [0, 1, 2])
    for bad in (-1, -2, 2):
        for row_ids, col_ids in (([bad], [0]), ([0], [bad])):
            with pytest.raises(ConfigError):
                ex.enqueue_blocks(tables, tables, row_ids, col_ids,
                                  [(0, 2, 2, 2)], [-1])
    ex.finalize()
    assert np.all(out == 0.0)


def _eval_kernels(case, rows, cols, kernels):
    # kernel k of a pair: a value of its own, per (row, col) only
    k = np.asarray(kernels)[None, :]
    return np.sin(1.3 * rows[:, None] + 0.7 * cols[:, None] + 0.3 * k
                  + case)[:, :, None, None]


def test_blocks_of_two_kernels_share_pair_evaluations():
    """Blocks of two kernels over one set of pairs: each distinct pair is
    evaluated once, for the kernels its blocks take, and each buffer gets,
    bitwise, what a one-kernel executor writes for the same blocks."""
    rng = np.random.default_rng(7)
    tables = [(rng.choice(20, size=6, replace=False),
               rng.permutation(6)[:, None]) for _ in range(3)]
    # block k: tables, and the kernels it takes (bit 0: kernel 0, ...)
    blocks = [(0, 1, 1), (0, 1, 2), (1, 2, 3), (2, 0, 2), (2, 2, 3)]
    calls = []

    def evaluator(case, rows, cols, kernels):
        calls.append((rows * 20 + cols, tuple(kernels)))
        return _eval_kernels(case, rows, cols, kernels)

    def places(k, kernels):
        return [(36 * k, 6, 6, 6) if kernels >> j & 1 else (-1, 0, 0, 0)
                for j in range(2)]

    outs = [np.zeros(36 * len(blocks)), np.zeros(36 * len(blocks))]
    ex = BatchExecutor(_classify_parity, evaluator, outs, capacity=4,
                       threads=2)
    joined = _joined(tables)
    ex.enqueue_blocks(joined, joined, [r for r, _, _ in blocks],
                      [c for _, c, _ in blocks],
                      [places(k, m) for k, (_, _, m) in enumerate(blocks)],
                      [-1] * len(blocks))
    ex.finalize()
    keys = np.concatenate([key for key, _ in calls])
    assert len(keys) == len(np.unique(keys)) == ex.stats()[0]["tasks"] \
        + ex.stats()[1]["tasks"]
    need = {}
    for r, c, m in blocks:
        for t in tables[r][0]:
            for s in tables[c][0]:
                need[t * 20 + s] = need.get(t * 20 + s, 0) | m
    for key, kernels in calls:
        for q in key:
            assert sum(1 << k for k in kernels) == need[int(q)]
    for j, out in enumerate(outs):
        ref = np.zeros_like(out)
        one = BatchExecutor(
            _classify_parity,
            lambda case, rows, cols, kernels: _eval_kernels(
                case, rows, cols, [j]), ref, capacity=3, threads=1)
        for k, (r, c, m) in enumerate(blocks):
            if m >> j & 1:
                one.enqueue_many(tables[r][0], tables[c][0],
                                 ref[36 * k:36 * (k + 1)].reshape(6, 6),
                                 tables[r][1], tables[c][1])
        one.finalize()
        assert np.array_equal(out, ref)
        assert all(np.any(out[36 * k:36 * (k + 1)] != 0.0) == bool(m >> j & 1)
                   for k, (_, _, m) in enumerate(blocks))


def test_kernel_places_validated():
    outs = [np.zeros(4), np.zeros(8)]
    table = ([0, 1], [[0], [1]], [0, 2])
    ex = BatchExecutor(_classify_all_zero, _eval_kernels, outs, threads=1)
    with pytest.raises(ConfigError):  # a block taking no kernel
        ex.enqueue_blocks(table, table, [0], [0],
                          [[(-1, 0, 0, 0), (-1, 0, 0, 0)]], [-1])
    with pytest.raises(ConfigError):  # fits kernel 1's buffer only
        ex.enqueue_blocks(table, table, [0], [0],
                          [[(4, 2, 2, 2), (4, 2, 2, 2)]], [-1])
    ex.enqueue_blocks(table, table, [0], [0],
                      [[(-1, 0, 0, 0), (4, 2, 2, 2)]], [-1])
    ex.enqueue_many([1], [1], outs[0].reshape(2, 2), [[0]], [[0]])
    ex.finalize()
    assert np.count_nonzero(outs[1]) == 4 and np.count_nonzero(outs[0]) == 1


def _eval_codes(case, rows, cols, kernels):
    # kernel e of pair (r, c), slots (a, b), as one exact integer code
    k = np.asarray(kernels)[None, :, None, None]
    a = np.arange(3.0)
    return (1e6 * k + 1e4 * rows[:, None, None, None]
            + 1e2 * cols[:, None, None, None] + 10.0 * a[:, None] + a)


def _mirrored_run(evaluator, capacity=5, threads=2, seed=13):
    """Two buffers of width-3 blocks over shared tables of unsorted
    elements, each block a random product taking one kernel or both, run
    by an executor whose lower halves read buffer 0 through kernel 0 and
    buffer 1 through kernel 2; returns the buffers, the blocks and the
    tables."""
    rng = np.random.default_rng(seed)
    tables = []
    for _ in range(4):
        size = int(rng.integers(2, 9))
        slots = rng.integers(-1, 6, size=(size, 3))
        slots[:, 0] = np.arange(size) % 6
        tables.append((rng.choice(12, size=size, replace=False), slots))
    blocks = [(int(rng.integers(4)), int(rng.integers(4)), m)
              for m in (1, 2, 3, 3, 1, 2, 3)]
    outs = [np.zeros(36 * len(blocks)), np.zeros(36 * len(blocks))]
    ex = BatchExecutor(_classify_rotating, evaluator, outs, capacity=capacity,
                       threads=threads, mirror=[0, 2])
    ex.enqueue_blocks(_joined(tables), _joined(tables),
                      [r for r, _, _ in blocks], [c for _, c, _ in blocks],
                      [[(36 * k, 6, 6, 6) if m >> j & 1 else (-1, 0, 0, 0)
                        for j in range(2)]
                       for k, (_, _, m) in enumerate(blocks)],
                      [-1] * len(blocks))
    ex.finalize()
    return outs, blocks, tables, ex.stats()


def test_lower_halves_read_the_transposed_mirror():
    """A mirrored executor asks the evaluator for pairs (t, s) with t <= s
    only, each unordered pair once for all the kernels its halves read;
    a block entry from (t, s) with t > s is mirror kernel's value of
    (s, t) transposed, from t <= s the buffer's own kernel's value."""
    calls = []

    def evaluator(case, rows, cols, kernels):
        calls.append((rows, cols, tuple(kernels)))
        return _eval_codes(case, rows, cols, kernels)

    outs, blocks, tables, stats = _mirrored_run(evaluator)
    rows = np.concatenate([r for r, _, _ in calls])
    cols = np.concatenate([c for _, c, _ in calls])
    assert np.all(rows <= cols)
    keys = rows * 12 + cols
    assert len(keys) == len(np.unique(keys)) == sum(st["tasks"]
                                                    for st in stats)
    need = {}
    for r, c, m in blocks:
        for t in tables[r][0]:
            for s in tables[c][0]:
                key = min(t, s) * 12 + max(t, s)
                for j in range(2):
                    if m >> j & 1:
                        need[key] = need.get(key, 0) | 1 << (
                            j if t <= s else (0, 2)[j])
    assert sorted(need) == sorted(keys.tolist())
    for r, c, kernels in calls:
        for q in r * 12 + c:
            assert sum(1 << k for k in kernels) == need[int(q)]
    # the reference: each slot pair's code routed by hand; exact integer
    # sums, so any order gives these bits
    refs = [np.zeros_like(out) for out in outs]
    for k, (r, c, m) in enumerate(blocks):
        (te, ts), (se, ss) = tables[r], tables[c]
        for j in range(2):
            if not m >> j & 1:
                continue
            for t, rs in zip(te, ts):
                for s, cs in zip(se, ss):
                    for a in range(3):
                        for b in range(3):
                            if rs[a] < 0 or cs[b] < 0:
                                continue
                            if t <= s:
                                v = _eval_codes(0, np.array([t]),
                                                np.array([s]), [j])[0, 0, a, b]
                            else:
                                v = _eval_codes(0, np.array([s]), np.array(
                                    [t]), [(0, 2)[j]])[0, 0, b, a]
                            refs[j][36 * k + 6 * rs[a] + cs[b]] += v
    for out, ref in zip(outs, refs):
        assert np.array_equal(out, ref)
        assert np.any(out != 0.0)


def test_mirrored_blocks_independent_of_capacity_threads_window(monkeypatch):
    """With values whose sums round, a mirrored executor's blocks are
    bitwise the same for every capacity, thread count and window size."""
    def evaluator(case, rows, cols, kernels):
        return np.sin(_eval_codes(case, rows, cols, kernels) * 1e-3)

    ref, *_ = _mirrored_run(evaluator)
    assert all(np.any(out != 0.0) for out in ref)
    for window in (1 << 17, 3, 40):
        monkeypatch.setattr(batchexec, "_WINDOW", window)
        for capacity in (1, 7, 10 ** 6):
            for threads in (1, 3):
                got, *_ = _mirrored_run(evaluator, capacity, threads)
                assert all(np.array_equal(g, r) for g, r in zip(got, ref))


def test_mirror_validated():
    """One distinct, non-negative mirror kernel per buffer, and equal row
    and column widths."""
    outs = [np.zeros(4), np.zeros(4)]
    for mirror in ([0], [1, 1], [0, -1], [0, 1, 2]):
        with pytest.raises(ConfigError):
            BatchExecutor(_classify_all_zero, _eval_kernels, outs,
                          mirror=mirror)
    ex = BatchExecutor(_classify_all_zero, _eval_kernels, outs, mirror=[1, 0])
    with pytest.raises(ConfigError):
        ex.enqueue_blocks(([0], [[0]], [0, 1]), ([0], [[0, 1, -1]], [0, 1]),
                          [0], [0], [[(0, 2, 2, 2), (-1, 0, 0, 0)]], [-1])
