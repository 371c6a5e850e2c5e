"""Acceptance suite: one test per exit criterion, each printing a PASS line
with the measured quantities (run with -s to see them live). The Monte
Carlo criteria use the pinned trial counts and tolerance bands; expect a
few minutes of total runtime."""

import itertools
import math
import random

from gccodes import (
    Failure,
    GcParams,
    Success,
    estimate_pf,
    gamma_census,
    gc_decode,
    gc_encode,
    recover_parities_del,
    theoretical_bound,
    vt_correct,
    vt_syndrome,
)
from gccodes.gf import field
from gccodes.mds import SystematicCode
from gccodes.sync import SyncConfig, run_sync_trials, sync_row

from vectors import (
    MSG_A,
    MSG_B,
    MSG_B_OTHER,
    PARAMS_16,
    PARITY_BITS_A,
    PARITY_BITS_B,
    RECEIVED_A,
    RECEIVED_B,
    decode_case,
    decode_erasures,
    enumerate_cases,
)


def _symbols(bits, ell=4):
    return tuple(int(bits[i : i + ell], 2) for i in range(0, len(bits), ell))


def test_criterion_01_worked_encoding_vectors():
    cw_a = gc_encode(MSG_A, PARAMS_16)
    parity_a = "".join(cw_a[16:][i] for i in range(0, 16, 2))
    cw_b = gc_encode(MSG_B, PARAMS_16)
    parity_b = "".join(cw_b[16:][i] for i in range(0, 16, 2))
    assert parity_a == PARITY_BITS_A == "00100111"
    assert _symbols(parity_a) == (2, 7)  # (alpha, alpha^10)
    assert parity_b == PARITY_BITS_B == "00000101"
    assert _symbols(parity_b) == (0, 5)  # (0, alpha^8)
    print("criterion 01 PASS: encoding vectors exact (00100111 / 00000101)")


def test_criterion_02_worked_decoding_vectors():
    assert gc_decode(RECEIVED_A, PARAMS_16) == Success(MSG_A)
    # of the guesses on both splits, only one deletion in block 4 decodes
    parities = _symbols(PARITY_BITS_A)
    _, splits = recover_parities_del(RECEIVED_A, PARAMS_16)
    guesses = {
        (d_s, a): decode_case(region, a, parities, 16, 4)
        for region, d_s in splits
        for a in enumerate_cases(4, d_s)
    }
    assert guesses == {
        (1, (0, 0, 0, 1)): MSG_A,
        (1, (0, 0, 1, 0)): None,
        (1, (0, 1, 0, 0)): None,
        (1, (1, 0, 0, 0)): None,
        (0, (0, 0, 0, 0)): None,
    }
    out_b = gc_decode(RECEIVED_B, PARAMS_16)
    assert isinstance(out_b, Failure)
    assert out_b.candidates == frozenset({MSG_B, MSG_B_OTHER})
    assert {_symbols(c) for c in out_b.candidates} == {
        (13, 8, 4, 1),  # (a^13, a^3, a^2, 1)
        (13, 0, 8, 5),  # (a^13, 0, a^3, a^8)
    }
    print("criterion 02 PASS: unique-case success and two-candidate failure exact")


def test_criterion_03_never_wrong():
    total = wrong = nocand = 0
    lines = []
    for k, delta, scope in itertools.product((64, 256), (1, 2), ("whole", "systematic")):
        p = GcParams(k=k, ell=int(math.log2(k)), c=delta + 1, delta=delta)
        est = estimate_pf(p, "deletions", scope, trials=1250, seed=1000 + k + delta)
        total += est.trials
        wrong += est.wrong_successes
        nocand += est.no_candidates
        lines.append(f"k={k} d={delta} {scope}: pf={est.pf_hat:.2e}")
    assert total == 10000
    assert wrong == 0
    assert nocand == 0
    print(f"criterion 03 PASS: {total} trials, 0 wrong successes, 0 no-candidates "
          f"({'; '.join(lines)})")


def test_criterion_04_table_reproduction():
    main = estimate_pf(GcParams(256, 8, 3, 2), "deletions", "whole", trials=10000, seed=7)
    assert main.wrong_successes == 0 and main.no_candidates == 0
    assert 4e-4 <= main.pf_hat <= 2.6e-3, main.pf_hat
    spot512 = estimate_pf(GcParams(512, 9, 3, 2), "deletions", "whole", trials=10000, seed=8)
    assert spot512.pf_hat <= 1.5e-3, spot512.pf_hat
    spot3 = estimate_pf(GcParams(256, 8, 4, 3), "deletions", "whole", trials=2000, seed=9)
    assert spot3.pf_hat <= 2.5e-3, spot3.pf_hat
    spot4 = estimate_pf(GcParams(256, 8, 5, 4), "deletions", "whole", trials=100, seed=10)
    assert spot4.failures == 0
    print(
        "criterion 04 PASS: pf(256,d2)="
        f"{main.pf_hat:.2e} in [4e-4, 2.6e-3]; pf(512,d2)={spot512.pf_hat:.2e}; "
        f"pf(256,d3)={spot3.pf_hat:.2e}; failures(256,d4)={spot4.failures}"
    )


def test_criterion_05_rate_column():
    table = {
        (256, 2): 0.78, (256, 3): 0.67, (256, 4): 0.56,
        (512, 2): 0.86, (512, 3): 0.78, (512, 4): 0.69,
        (1024, 2): 0.92, (1024, 3): 0.86, (1024, 4): 0.80,
    }
    for (k, delta), expected in table.items():
        p = GcParams(k=k, ell=int(math.log2(k)), c=delta + 1, delta=delta)
        assert round(p.k / p.n, 2) == expected, (k, delta, p.k / p.n)
    print("criterion 05 PASS: all nine rate entries match to two decimals")


def test_criterion_06_bound_consistency():
    p = GcParams(1024, 10, 5, 2)
    bound = theoretical_bound(p)
    assert 1e-5 <= bound < 1e-4
    assert abs(bound - 8.0e-5) < 0.5e-5
    est = estimate_pf(p, "deletions", "whole", trials=10000, seed=11)
    assert est.failures <= 1, est.failures
    assert est.wrong_successes == 0
    for k in (16, 256):
        ell = int(math.log2(k))
        for c in (2, 3):
            general = theoretical_bound(GcParams(k, ell, c, 1))
            assert general <= 2 / (k ** (c - 2) * math.log2(k)) + 1e-12
    print(
        f"criterion 06 PASS: bound={bound:.2e} (order 1e-5), "
        f"failures={est.failures}/10000, single-deletion specialization holds"
    )


def test_criterion_07_preimage_census():
    collide = gamma_census(16, 4, deletion_position=3, case_index=4)
    assert collide == 2  # the colliding pair exists and the cap holds
    others = {
        (3, 2): gamma_census(16, 4, 3, 2),
        (14, 1): gamma_census(16, 4, 14, 1),
    }
    assert all(v <= 2 for v in others.values()), others
    correct = gamma_census(16, 4, deletion_position=3, case_index=1)
    assert correct == 1
    print(
        f"criterion 07 PASS: census (3,4)={collide}, "
        f"{ {k: v for k, v in others.items()} }, correct case={correct}"
    )


def test_criterion_08_case_count_identity():
    for k_prime in range(1, 65):
        for delta in range(1, 5):
            count = sum(1 for _ in enumerate_cases(k_prime, delta))
            assert count == math.comb(k_prime + delta - 1, delta), (k_prime, delta)
    print("criterion 08 PASS: case counts exact for k' <= 64, d <= 4")


def test_criterion_09_mds_erasure_oracle():
    rng = random.Random(21)
    checked = 0
    for ell in (3, 4, 5):
        gf = field(ell)
        for k_prime in range(1, 9):
            for c in range(1, 5):
                if k_prime + c > gf.q:
                    continue
                code = SystematicCode(gf, k_prime, c)
                msg = [rng.randrange(gf.q) for _ in range(k_prime)]
                parities = code.encode(msg)
                for e in range(1, min(c, k_prime) + 1):
                    for pos in itertools.combinations(range(k_prime), e):
                        holey = [None if j in pos else msg[j] for j in range(k_prime)]
                        assert decode_erasures(code, holey, list(parities[:e])) == msg
                        checked += 1
    # brute-force oracle on the tiny instance
    gf = field(3)
    code = SystematicCode(gf, 3, 4)
    for _ in range(20):
        msg = [rng.randrange(8) for _ in range(3)]
        parities = code.encode(msg)
        for e in (1, 2, 3):
            for pos in itertools.combinations(range(3), e):
                matches = [
                    cand
                    for fill in itertools.product(range(8), repeat=e)
                    for cand in [
                        [fill[pos.index(j)] if j in pos else msg[j] for j in range(3)]
                    ]
                    if code.encode(cand)[:e] == parities[:e]
                ]
                assert matches == [msg]
    print(f"criterion 09 PASS: {checked} erasure patterns recovered exactly; "
          "brute-force oracle agrees on the tiny instance")


def test_criterion_10_vt_exhaustive():
    for n in range(1, 15):
        for v in range(1 << n):
            x = format(v, f"0{n}b")
            syn = vt_syndrome(x)
            for p in range(n):
                assert vt_correct(x[:p] + x[p + 1 :], syn) == x
    print("criterion 10 PASS: VT corrects every deletion in every string up to length 14")


def test_criterion_11_insertions_mirror_deletions():
    lines = []
    for delta in (1, 2):
        p = GcParams(64, 6, delta + 1, delta)
        del_est = estimate_pf(p, "deletions", "whole", trials=2000, seed=31 + delta)
        ins_est = estimate_pf(p, "insertions", "whole", trials=2000, seed=31 + delta)
        assert del_est.wrong_successes == 0 and ins_est.wrong_successes == 0
        assert del_est.no_candidates == 0 and ins_est.no_candidates == 0
        assert ins_est.failures <= 10 * max(del_est.failures, 1)
        assert del_est.failures <= 10 * max(ins_est.failures, 1)
        lines.append(
            f"d={delta}: del={del_est.pf_hat:.2e} ins={ins_est.pf_hat:.2e}"
        )
    print(f"criterion 11 PASS: insertion decoding never wrong, rates comparable "
          f"({'; '.join(lines)})")


def test_criterion_12_tradeoff_trends():
    trials = 10000
    base = estimate_pf(GcParams(256, 8, 3, 2), "deletions", "whole", trials, seed=40)
    wide = estimate_pf(GcParams(256, 16, 3, 2), "deletions", "whole", trials, seed=40)
    more = estimate_pf(GcParams(256, 8, 4, 2), "deletions", "whole", trials, seed=40)
    p0 = max(base.pf_hat, 1 / trials)
    sigma = math.sqrt(p0 * (1 - p0) / trials)
    assert wide.pf_hat <= base.pf_hat + 2 * sigma
    assert more.pf_hat <= base.pf_hat + 2 * sigma
    print(
        f"criterion 12 PASS: pf(ell=8,c=3)={base.pf_hat:.2e} >= "
        f"pf(ell=16)={wide.pf_hat:.2e}, pf(c=4)={more.pf_hat:.2e} (2-sigma slack)"
    )


def test_criterion_13_sync_simulator():
    rows = {}
    for d in (25, 50):
        for mode in ("vt", "gc"):
            stats = run_sync_trials(100_000, d, trials=100, config=SyncConfig(mode), seed=50 + d)
            assert all(s.success for s in stats)
            rows[(mode, d)] = sync_row(mode, 100_000, d, stats, 50 + d)
    lines = []
    for d in (25, 50):
        vt, gc = rows[("vt", d)], rows[("gc", d)]
        assert vt["success_rate"] == 1.0 and gc["success_rate"] == 1.0
        assert gc["mean_rounds"] < vt["mean_rounds"]
        assert gc["mean_cost_bits"] < vt["mean_cost_bits"]
        lines.append(
            f"d={d}: rounds {vt['mean_rounds']:.2f}->{gc['mean_rounds']:.2f}, "
            f"cost {vt['mean_cost_bits']:.0f}->{gc['mean_cost_bits']:.0f}"
        )
    print(f"criterion 13 PASS: exact sync in all trials; GC beats VT ({'; '.join(lines)})")
