import threading

import numpy as np
import pytest

from greencross.batchexec import BatchExecutor, QuadTask
from greencross.errors import ConfigError, StateError


def _classify_all_zero(rows, cols):
    z = np.zeros(len(rows), dtype=np.int64)
    return z, z, z


def _classify_parity(rows, cols):
    case = (rows + cols) % 2
    z = np.zeros(len(rows), dtype=np.int64)
    return case, z, z


def _eval_pairfn(case, rows, cols, px, py):
    # deterministic per-task value, independent of batch composition
    return np.sin(1.3 * rows + 0.7 * cols + case)[:, None, None]


def _make(classify=_classify_all_zero, **kw):
    return BatchExecutor(classify, _eval_pairfn, **kw)


def _fill_block(ex, nrows, ncols, order=None):
    bid = ex.register_block(nrows, ncols)
    i, j = np.meshgrid(np.arange(nrows), np.arange(ncols), indexing="ij")
    i, j = i.ravel(), j.ravel()
    if order is not None:
        i, j = i[order], j[order]
    ex.enqueue_many(i, j, bid, i[:, None], j[:, None])
    return bid, i, j


def test_capacity_seals_batches():
    ex = _make(capacity=1000, threads=1)
    bid, i, j = _fill_block(ex, 50, 50)
    ex.finalize()
    st = ex.stats()[0]
    assert st["tasks"] == 2500
    assert st["batches"] == 3  # 1000 + 1000 + tail of 500
    assert st["wall_s"] > 0.0
    assert ex.stats()[1]["tasks"] == 0


def test_single_task_single_batch():
    ex = _make(capacity=1000, threads=1)
    bid = ex.register_block(1, 1)
    ex.enqueue(QuadTask(3, 4, bid, [0], [0]))
    out = ex.finalize()[bid]
    assert out.shape == (1, 1)
    assert out[0, 0] == np.sin(1.3 * 3 + 0.7 * 4)
    assert ex.stats()[0]["batches"] == 1


def test_batches_are_case_homogeneous():
    ex = _make(classify=_classify_parity, capacity=10, threads=1)
    bid, i, j = _fill_block(ex, 8, 8)
    ex.finalize()
    st = ex.stats()
    assert st[0]["tasks"] == 32 and st[1]["tasks"] == 32
    # 32 tasks at capacity 10: 3 sealed + tail, per case
    assert st[0]["batches"] == 4 and st[1]["batches"] == 4
    assert [s["case"] for s in st] == [0, 1, 2, 3]


def test_scatter_exactly_once():
    ex = _make(capacity=17, threads=2)
    bid, i, j = _fill_block(ex, 13, 9)
    out = ex.finalize()[bid]
    expected = np.sin(1.3 * np.arange(13)[:, None] + 0.7 * np.arange(9)[None, :])
    assert np.array_equal(out, expected)


def test_negative_slots_are_masked():
    ex = _make(capacity=4, threads=1)
    bid = ex.register_block(2, 2)
    ex.enqueue(QuadTask(2, 3, bid, [0], [0]))
    ex.enqueue(QuadTask(1, 1, bid, [-1], [1]))  # dropped: no row target
    out = ex.finalize()[bid]
    assert out[0, 0] == np.sin(1.3 * 2 + 0.7 * 3)
    assert np.all(out.ravel()[1:] == 0.0)


def test_enqueue_after_finalize_raises():
    ex = _make()
    bid = ex.register_block(1, 1)
    ex.finalize()
    with pytest.raises(StateError):
        ex.enqueue(QuadTask(0, 0, bid, [0], [0]))


def test_finalize_idempotent_and_empty():
    ex = _make()
    bid = ex.register_block(3, 3)
    first = ex.finalize()
    assert np.all(first[bid] == 0.0)
    assert first is ex.finalize()
    assert all(s["tasks"] == 0 and s["batches"] == 0 for s in ex.stats())


def test_invalid_configuration():
    with pytest.raises(ConfigError):
        _make(capacity=0)
    with pytest.raises(ConfigError):
        _make(threads=0)


def _run_stream(capacity, threads, seed=23):
    rng = np.random.default_rng(seed)
    ex = _make(classify=_classify_parity, capacity=capacity, threads=threads)
    a = ex.register_block(20, 20)
    b = ex.register_block(20, 20)
    for _ in range(5):
        n = int(rng.integers(1, 200))
        i = rng.integers(0, 20, size=n)
        j = rng.integers(0, 20, size=n)
        bid = int(rng.integers(0, 2))
        ex.enqueue_many(i, j, bid, i[:, None], j[:, None])
    out = ex.finalize()
    return out[a].copy(), out[b].copy()


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
    """permute_rows realigns slot targets to the canonical local order."""
    seen = {}

    def classify(rows, cols):
        n = len(rows)
        # rotation id 1: canonical local a comes from original slot (a+1)%3
        return (np.zeros(n, dtype=np.int64), np.full(n, 1, dtype=np.int64),
                np.zeros(n, dtype=np.int64))

    def evaluator(case, rows, cols, px, py):
        return np.arange(10.0, 13.0).reshape(1, 3, 1).repeat(len(rows), 0)

    ex = BatchExecutor(classify, evaluator, row_width=3, col_width=1,
                       permute_rows=True, capacity=8, threads=1)
    bid = ex.register_block(3, 1)
    ex.enqueue(QuadTask(0, 0, bid, [0, 1, 2], [0]))
    out = ex.finalize()[bid]
    # canonical value 10+a lands in original slot PERMS3[1][a] = (1,2,0)[a]
    assert np.array_equal(out[:, 0], [12.0, 10.0, 11.0])


def _eval_raises(case, rows, cols, px, py):
    raise RuntimeError("evaluator failure")


def test_failed_finalize_releases_pool_and_refuses_blocks():
    baseline = threading.active_count()
    ex = BatchExecutor(_classify_all_zero, _eval_raises, capacity=4,
                       threads=2)
    bid, _, _ = _fill_block(ex, 5, 5)
    with pytest.raises(RuntimeError):
        ex.finalize()
    assert threading.active_count() == baseline
    with pytest.raises(StateError):
        ex.finalize()


def test_with_block_closes_pool_on_error():
    baseline = threading.active_count()
    with pytest.raises(ValueError):
        with _make(capacity=4, threads=2) as ex:
            _fill_block(ex, 5, 5)
            raise ValueError("caller failure mid-enqueue")
    assert threading.active_count() == baseline
    with pytest.raises(StateError):
        ex.finalize()
    with pytest.raises(StateError):
        ex.enqueue(QuadTask(0, 0, 0, [0], [0]))


def test_close_after_finalize_keeps_blocks():
    with _make(capacity=4, threads=2) as ex:
        bid, _, _ = _fill_block(ex, 3, 4)
        first = ex.finalize()
    assert ex.finalize() is first
    expected = np.sin(1.3 * np.arange(3)[:, None] + 0.7 * np.arange(4)[None, :])
    assert np.array_equal(first[bid], expected)


def test_known_case_skips_classification():
    def classify(rows, cols):
        raise AssertionError("classified a task of known case")

    ex = BatchExecutor(classify, _eval_pairfn, num_cases=4, capacity=5,
                       threads=1)
    bid = ex.register_block(3, 4)
    i, j = np.meshgrid(np.arange(3), np.arange(4), indexing="ij")
    ex.enqueue_many(i.ravel(), j.ravel(), bid, i.ravel()[:, None],
                    j.ravel()[:, None], case=2)
    out = ex.finalize()[bid]
    expected = np.sin(1.3 * i + 0.7 * j + 2)
    assert np.array_equal(out, expected)
    st = ex.stats()
    assert st[2]["tasks"] == 12 and st[2]["batches"] == 3
    assert all(s["tasks"] == 0 for c, s in enumerate(st) if c != 2)


def test_known_case_matches_classified():
    """A known case gives the same blocks, bitwise, as classification."""
    def run(case):
        ex = _make(capacity=7, threads=2)
        bid = ex.register_block(9, 6)
        i, j = np.meshgrid(np.arange(9), np.arange(6), indexing="ij")
        i, j = i.ravel(), j.ravel()
        ex.enqueue_many(i, j, bid, i[:, None], j[:, None], case=case)
        return ex.finalize()[bid]

    assert np.array_equal(run(None), run(0))


def test_unknown_case_rejected():
    with _make(threads=1) as ex:
        bid = ex.register_block(1, 1)
        with pytest.raises(ConfigError):
            ex.enqueue_many([0], [0], bid, [[0]], [[0]], case=4)
