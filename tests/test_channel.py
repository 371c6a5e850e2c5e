import math
import os

import pytest

import gccodes.channel
from gccodes import EditPlan, GcParams, Success, apply_edits, estimate_pf, gc_decode, sample_plan
from gccodes.sync import SyncConfig, run_sync_trials

from vectors import CODEWORD_A, MSG_A, PARAMS_16, RECEIVED_A


def test_delete_positions():
    assert apply_edits("1010", EditPlan("deletions", (3,))) == "100"
    assert apply_edits("1010", EditPlan("deletions", (1, 4))) == "01"
    assert apply_edits("1010", EditPlan("deletions", ())) == "1010"


def test_deleting_bit_14_reproduces_decode_vector():
    received = apply_edits(CODEWORD_A, EditPlan("deletions", (14,)))
    assert received == RECEIVED_A
    assert gc_decode(received, PARAMS_16) == Success(MSG_A, (0, 0, 0, 1))


def test_insert_positions():
    plan = EditPlan("insertions", (1, 3), ("1", "0"))
    assert apply_edits("1111", plan) == "111011"
    assert apply_edits("00", EditPlan("insertions", (3,), ("1",))) == "001"


def test_insert_then_delete_inverts():
    plan = EditPlan("insertions", (2, 5, 9), ("1", "0", "1"))
    x = "0011001100"
    y = apply_edits(x, plan)
    # inserted bits land at position p_i + i - 1 in the longer string
    back = EditPlan("deletions", tuple(p + i for i, p in enumerate(plan.positions)))
    assert apply_edits(y, back) == x


def test_bounds_checking():
    with pytest.raises(ValueError, match="^deletion positions out of bounds for length 3$"):
        apply_edits("101", EditPlan("deletions", (4,)))
    with pytest.raises(ValueError, match="^insertion positions out of bounds for length 3$"):
        apply_edits("101", EditPlan("insertions", (5,), ("0",)))
    with pytest.raises(ValueError, match="^deletion positions"):
        apply_edits("101", EditPlan("deletions", (0,)))
    with pytest.raises(ValueError):
        EditPlan("deletions", (3, 3))
    with pytest.raises(ValueError):
        EditPlan("insertions", (1, 2), ("0",))


def test_plans_are_checked_where_they_are_built():
    # a deletion plan once carried bits that apply_edits dropped silently
    with pytest.raises(ValueError, match="^deletion positions take no bits$"):
        EditPlan("deletions", (2,), ("1",))
    with pytest.raises(ValueError, match="^deletion positions must be at least 1$"):
        EditPlan("deletions", (0, 2))
    with pytest.raises(ValueError, match="^insertion positions must be at least 1$"):
        EditPlan("insertions", (-1,), ("0",))
    for bad in ("2", "01", "", " "):
        with pytest.raises(ValueError, match="^insertion positions take only the bits"):
            EditPlan("insertions", (1, 3), ("1", bad))
    assert EditPlan("deletions", (1,)).bits == ()
    assert apply_edits("101", EditPlan("insertions", (1, 4), ("0", "1"))) == "01011"


def test_sample_plan_deterministic():
    a = sample_plan(100, 5, "deletions", "whole", seed=42)
    b = sample_plan(100, 5, "deletions", "whole", seed=42)
    assert a == b
    c = sample_plan(100, 5, "deletions", "whole", seed=43)
    assert a != c


def test_sample_plan_empty():
    assert sample_plan(10, 0, "deletions", seed=1).positions == ()


def test_sample_plan_scope():
    for seed in range(50):
        plan = sample_plan(100, 3, "deletions", "systematic", seed, systematic_len=40)
        assert all(1 <= p <= 40 for p in plan.positions)
    with pytest.raises(ValueError):
        sample_plan(100, 3, "deletions", "systematic", 0)
    for bad in (-1, 101):
        with pytest.raises(ValueError, match="systematic_len"):
            sample_plan(100, 1, "deletions", "systematic", 0, systematic_len=bad)


def test_sample_plan_rejects_bad_kind_and_scope():
    with pytest.raises(ValueError, match="kind must be one of"):
        sample_plan(100, 3, "substitutions", seed=1)
    with pytest.raises(ValueError, match="scope must be one of"):
        sample_plan(100, 3, "deletions", "parity", seed=1)


def test_sample_plan_insertions_have_bits():
    plan = sample_plan(50, 4, "insertions", seed=7)
    assert len(plan.bits) == 4
    assert set(plan.bits) <= {"0", "1"}
    assert all(1 <= p <= 51 for p in plan.positions)


def test_position_frequencies_uniform():
    # length 10, one deletion: each position should appear ~1/10 of the time
    samples = 100_000
    counts = [0] * 10
    for seed in range(samples):
        counts[sample_plan(10, 1, "deletions", seed=seed).positions[0] - 1] += 1
    sigma = math.sqrt(0.1 * 0.9 / samples)
    for c in counts:
        assert abs(c / samples - 0.1) < 5 * sigma


def test_run_trials_seeds_in_order():
    run_trials = gccodes.channel.run_trials
    assert run_trials(str, 3, 2, workers=1) == [str((2 << 32) + t) for t in range(3)]
    with pytest.raises(ValueError):
        run_trials(str, 0, 2, workers=1)


def test_pool_is_bounded_by_trials_and_cpus(monkeypatch):
    """A huge --workers value must not size the pool; the stub pool maps in
    this process, so no worker process is started."""
    built = []

    class StubPool:
        def __init__(self, max_workers):
            built.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, it, chunksize=1):
            return map(fn, it)

    monkeypatch.setattr(gccodes.channel.concurrent.futures, "ProcessPoolExecutor", StubPool)
    cpus = os.cpu_count() or 1
    p = GcParams(64, 6, 3, 2)
    est = estimate_pf(p, trials=3, seed=4, workers=10**6)
    assert all(n <= min(3, cpus) for n in built)  # vacuous on one CPU: no pool at all
    built.clear()
    stats = run_sync_trials(2000, 3, trials=2, config=SyncConfig("gc"), seed=4, workers=10**6)
    assert all(n <= min(2, cpus) for n in built)
    serial = estimate_pf(p, trials=3, seed=4, workers=1)
    assert (est.failures, est.wrong_successes, est.no_candidates) == (
        serial.failures,
        serial.wrong_successes,
        serial.no_candidates,
    )
    assert stats == run_sync_trials(2000, 3, trials=2, config=SyncConfig("gc"), seed=4, workers=1)
