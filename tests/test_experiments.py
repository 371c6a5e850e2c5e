import math
import random
from collections import defaultdict

import pytest

from gccodes import (
    GcParams,
    Success,
    estimate_pf,
    gamma_census,
    gc_decode,
    gc_encode,
    sweep,
    theoretical_bound,
)
from gccodes.experiments import estimate_row


def test_bound_small_example():
    # C(4,1) * 2 / 16 for one deletion over four 4-bit blocks
    assert theoretical_bound(GcParams(16, 4, 2, 1)) == pytest.approx(0.5)


def test_bound_large_example():
    b = theoretical_bound(GcParams(1024, 10, 5, 2))
    assert b == pytest.approx(8.0e-5, rel=0.005)
    assert 1e-5 <= b < 1e-4


def test_bound_monotone_in_c():
    values = [theoretical_bound(GcParams(256, 8, c, 2)) for c in range(3, 7)]
    assert values == sorted(values, reverse=True)
    assert all(a > b for a, b in zip(values, values[1:]))


def test_bound_specializes_for_single_deletion():
    # with ell = log2(k) dividing k, the general formula collapses to
    # 2 / (k^(c-2) * log2 k)
    for k, ell in ((16, 4), (256, 8)):
        for c in (2, 3):
            general = theoretical_bound(GcParams(k, ell, c, 1))
            closed = 2 / (k ** (c - 2) * math.log2(k))
            assert general <= closed + 1e-12
            assert general == pytest.approx(closed)


def test_bound_past_float_range():
    # q^(c - delta) = 2^1040 is beyond a float, but the bound 2 / 2^1040 is
    # a subnormal; at 2^1104 it rounds to 0.0
    assert theoretical_bound(GcParams(16, 16, 66, 1)) == 2.0**-1039
    assert theoretical_bound(GcParams(16, 16, 70, 1)) == 0.0


def test_zero_edit_channel_never_fails():
    # an unedited codeword decodes to its message with no edit in any block
    p = GcParams(64, 6, 3, 2)
    rng = random.Random(3)
    for _ in range(50):
        msg = format(rng.getrandbits(p.k), f"0{p.k}b")
        cw = gc_encode(msg, p)
        for mode in ("deletions", "insertions"):
            assert gc_decode(cw, p, mode) == Success(msg, (0,) * p.k_prime)


def test_estimate_is_deterministic():
    p = GcParams(64, 6, 3, 2)
    a = estimate_pf(p, trials=120, seed=9)
    b = estimate_pf(p, trials=120, seed=9)
    assert (a.failures, a.wrong_successes, a.no_candidates) == (
        b.failures,
        b.wrong_successes,
        b.no_candidates,
    )


def test_worker_split_does_not_change_counts():
    p = GcParams(64, 6, 3, 2)
    serial = estimate_pf(p, trials=60, seed=2, workers=1)
    split = estimate_pf(p, trials=60, seed=2, workers=2)
    assert (serial.failures, serial.wrong_successes) == (split.failures, split.wrong_successes)


def test_decoder_never_wrong_in_estimates():
    for scope in ("whole", "systematic"):
        est = estimate_pf(GcParams(64, 6, 3, 2), scope=scope, trials=300, seed=5)
        assert est.wrong_successes == 0
        assert est.no_candidates == 0


def test_estimate_matches_exact_failure_rate():
    # exact P_f at (10, 4, 2, 1) for one systematic deletion: the share of
    # (message, deleted position) pairs whose word has two or more
    # preimages, the messages whose codewords reach it by one deletion
    p = GcParams(10, 4, 2, 1)
    codewords = [gc_encode(format(v, f"0{p.k}b"), p) for v in range(1 << p.k)]
    preimages = defaultdict(set)
    for v, cw in enumerate(codewords):
        for i in range(p.n):
            preimages[cw[:i] + cw[i + 1 :]].add(v)
    counts = [len(preimages[cw[:i] + cw[i + 1 :]]) for cw in codewords for i in range(p.k)]
    assert (sum(m > 1 for m in counts), len(counts)) == (60, 10_240)
    # 10^4 trials expect 58.6 failures with sd 7.6; the seed and the 3-sd
    # window 36..81 are fixed in advance, not fitted to a run
    est = estimate_pf(p, "deletions", "systematic", trials=10_000, seed=3)
    assert 36 <= est.failures <= 81
    assert est.no_candidates == 0 and est.wrong_successes == 0


def test_row_schema():
    est = estimate_pf(GcParams(64, 6, 3, 2), trials=10, seed=1)
    row = estimate_row(est)
    assert tuple(row) == (
        "k", "ell", "c", "delta", "scope", "trials", "failures", "pf_hat",
        "bound", "redundancy", "rate", "seed", "wall_time_ms", "kind",
    )  # the column order README.md documents
    assert row["redundancy"] == 3 * 3 * 6
    assert row["rate"] == pytest.approx(64 / (64 + 54))


def test_sweep_orders_grid_and_shares_trials():
    ests = sweep(64, 2, ell_values=(8, 6), c_values=(4, 3), trials=40, seed=7)
    assert [(e.params.ell, e.params.c) for e in ests] == [(6, 3), (6, 4), (8, 3), (8, 4)]
    assert all(e.seed == 7 and e.trials == 40 for e in ests)
    # same grid point later must reproduce exactly (shared trial seeds)
    again = estimate_pf(GcParams(64, 6, 3, 2), trials=40, seed=7)
    assert again.failures == ests[0].failures


def test_gamma_census_wrong_case_is_two():
    # deleting bit 3 and guessing block 4 admits colliding message pairs,
    # but never more than two preimages per decoded string
    assert gamma_census(16, 4, deletion_position=3, case_index=4) == 2


def test_gamma_census_correct_case_is_one():
    assert gamma_census(16, 4, deletion_position=3, case_index=1) == 1


def test_gamma_census_validation():
    with pytest.raises(ValueError):
        gamma_census(24, 4, 1, 2)  # 2^24 messages is past the exhaustion guard
    with pytest.raises(ValueError):
        gamma_census(16, 4, 17, 1)
    with pytest.raises(ValueError):
        gamma_census(16, 4, 1, 5)
    for ell in (0, -4):
        with pytest.raises(ValueError):
            gamma_census(16, ell)
