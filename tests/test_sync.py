import hashlib
import random

import pytest

from gccodes import (
    EditPlan,
    ModelViolation,
    SegmentPair,
    SyncConfig,
    apply_edits,
    anchor_split,
    run_sync,
)
from gccodes.sync import _segment_ell, run_sync_trials, sync_row

from vectors import check_sync_exact, check_sync_pair


def rand_bits(n, seed):
    return format(random.Random(seed).getrandbits(n), f"0{n}b")


def test_identical_files_cost_one_hash():
    fa = rand_bits(1000, 1)
    stats = run_sync(fa, fa, SyncConfig(mode="gc"))
    assert stats.success
    assert stats.rounds == 1
    assert stats.bits_a_to_b == 32
    assert stats.bits_b_to_a == 0
    assert stats.fallback_bits == 0


def test_single_deletion_costs_vt_syndrome():
    fa = rand_bits(1000, 2)
    fb = apply_edits(fa, EditPlan("deletions", (500,)))
    stats = run_sync(fa, fb, SyncConfig(mode="gc"))
    assert stats.success
    assert stats.rounds == 1
    assert stats.bits_a_to_b == 10 + 32  # ceil(log2(1001)) syndrome bits + hash


def test_model_violation():
    with pytest.raises(ModelViolation):
        run_sync("0000", "111", SyncConfig(mode="vt"))


@pytest.mark.parametrize("bad", ["1_1", " 11", "0b1", "+1", "abc"])
def test_non_bit_files_are_rejected(bad):
    for file_a, file_b in ((bad, "1"), ("0101", bad)):
        with pytest.raises(ValueError, match="only '0' and '1'"):
            run_sync(file_a, file_b, SyncConfig(mode="vt"))


def test_non_bit_file_a_holding_file_b_is_rejected():
    # "010" is a subsequence of "0120", so only the bit check stops this pair
    with pytest.raises(ValueError, match="only '0' and '1'"):
        run_sync("0120", "010", SyncConfig(mode="vt"))


def test_config_validation():
    with pytest.raises(ValueError):
        SyncConfig(mode="gc", delta_cap=1)
    with pytest.raises(ValueError):
        SyncConfig(mode="nope")
    for hash_len in (0, -3, 129):  # 0 would make every hash comparison match
        with pytest.raises(ValueError):
            SyncConfig(hash_len=hash_len)
    assert SyncConfig(hash_len=1).hash_len == 1
    assert SyncConfig(hash_len=128).hash_len == 128


def test_first_gc_message_carries_d_plus_one_parities():
    # the root segment's gap d is within delta_cap, so the repair opens the
    # ledger; ell is sized for all 2d + 3 parities ever needed
    fa = rand_bits(600, 11)
    for d in (2, 3):
        fb = apply_edits(fa, EditPlan("deletions", tuple(range(100, 100 + 150 * d, 150))))
        stats = run_sync(fa, fb, SyncConfig(mode="gc", delta_cap=d))
        assert stats.success
        ell = _segment_ell(600, d, 2 * d + 3)
        assert stats.ledger[0] == (1, "a2b", "gc_parities", (d + 1) * ell + 32)


class TestAnchorSplit:
    def test_deletions_left_of_center_give_clean_right_child(self):
        fa = rand_bits(400, 3)
        fb = apply_edits(fa, EditPlan("deletions", (40, 140)))
        pair = SegmentPair(0, 400, 0, 398)
        split = anchor_split(fa, fb, pair, SyncConfig(mode="gc"))
        assert split is not None
        left, right = split
        assert left.d == 2 and right.d == 0
        # children exclude the matched anchor and partition the rest
        assert left.a_lo == 0 and right.a_hi == 400
        assert right.a_lo - left.a_hi == 25

    def test_all_zero_segment_matches_everywhere(self):
        fa = "0" * 300
        fb = fa[:298]
        assert anchor_split(fa, fb, SegmentPair(0, 300, 0, 298), SyncConfig(mode="gc")) is None

    def test_anchor_longer_than_segment(self):
        fa = rand_bits(20, 4)
        fb = apply_edits(fa, EditPlan("deletions", (3, 9)))
        assert anchor_split(fa, fb, SegmentPair(0, 20, 0, 18), SyncConfig(mode="gc")) is None


def _split_by_definition(fa, fb, pair, anchor_len):
    """Every offset in [lo, hi] where B holds the anchor; a split iff one."""
    L = min(anchor_len, pair.a_len)
    h = (pair.a_len - L) // 2
    anchor = fa[pair.a_lo + h : pair.a_lo + h + L]
    lo, hi = max(0, h - pair.d), min(h, pair.b_len - L)
    hits = [o for o in range(lo, hi + 1) if fb[pair.b_lo + o : pair.b_lo + o + L] == anchor]
    if len(hits) != 1:
        return None, lo > hi, L == pair.a_len, len(hits)
    o = pair.b_lo + hits[0]
    left = SegmentPair(pair.a_lo, pair.a_lo + h, pair.b_lo, o)
    right = SegmentPair(pair.a_lo + h + L, pair.a_hi, o + L, pair.b_hi)
    return (left, right), lo > hi, L == pair.a_len, 1


def test_anchor_split_matches_its_definition():
    # random and low-entropy files, segments of every gap up to their
    # length, and anchors from one bit to longer than the segment
    rng = random.Random(15)
    seen = set()
    for trial in range(600):
        kind = rng.choice(["random", "constant", "period2", "period3", "runs"])
        n = rng.randrange(2, 120)
        fa = rand_bits(n, trial) if kind == "random" else _low_entropy_file(kind, n)
        positions = tuple(sorted(rng.sample(range(1, n + 1), rng.randrange(n))))
        fb = apply_edits(fa, EditPlan("deletions", positions))
        a_lo = rng.randrange(n)
        a_hi = rng.randrange(a_lo + 1, n + 1)
        b_lo = rng.randrange(len(fb) + 1)
        b_hi = rng.randrange(b_lo, min(len(fb), b_lo + a_hi - a_lo) + 1)
        pair = SegmentPair(a_lo, a_hi, b_lo, b_hi)
        anchor_len = rng.choice((1, 2, 3, 5, 25))
        expected, lo_past_hi, whole, hits = _split_by_definition(fa, fb, pair, anchor_len)
        assert anchor_split(fa, fb, pair, SyncConfig(anchor_len=anchor_len)) == expected, pair
        seen.update({("lo > hi", lo_past_hi), ("L = a_len", whole), min(hits, 2)})
    assert seen >= {("lo > hi", True), ("L = a_len", True), 0, 1, 2}


def test_segment_ell_bounds():
    assert _segment_ell(1000, 2, 7) == 10
    assert _segment_ell(30, 2, 7) == 5
    assert _segment_ell(2, 2, 7) == 3  # bumped until one block plus parities fit
    assert _segment_ell(10**6, 2, 7) is None  # too many blocks to guess over


def test_segment_ell_caps_the_guess_count():
    # a repair of gap d scans C(k' + d - 1, d) guesses; the budget C(1501, 2)
    # admits k' up to 1,500 at d = 2, 188 at d = 3 and 70 at d = 4
    assert _segment_ell(24_000, 2, 7) == 16  # k' = 1,500
    assert _segment_ell(24_001, 2, 7) is None
    assert _segment_ell(3_008, 3, 9) == 16  # k' = 188
    assert _segment_ell(3_009, 3, 9) is None
    assert _segment_ell(700, 4, 11) == 10  # k' = 70
    assert _segment_ell(701, 4, 11) == 11  # k' = 71 is over, 64 fits
    assert _segment_ell(2_000, 4, 11) is None  # k' = 182 at ell = 11 before


def test_gc_retry_requests_one_parity_at_a_time():
    # 30-bit file with deletions at (4, 30): three parities leave two
    # surviving guesses, the fourth settles it
    fa = "111010001110011010100011000001"
    fb = apply_edits(fa, EditPlan("deletions", (4, 30)))
    stats = run_sync(fa, fb, SyncConfig(mode="gc"))
    assert stats.success
    assert stats.rounds == 2
    kinds = [(kind, bits) for _, _, kind, bits in stats.ledger]
    assert ("gc_parities", 3 * 5 + 32) in kinds
    assert ("gc_parity", 5) in kinds


def test_gc_retry_can_take_two_parities():
    # d = 2: the d + 1 = 3 parities and then a fourth leave two candidates,
    # and only the fifth settles the segment, so retries must reach past
    # d + 2 parities
    stats = run_sync("000110011010001011000101110", "0001101101001011000101110", SyncConfig("gc"))
    assert stats.success
    assert stats.ledger == (
        (1, "a2b", "gc_parities", 47),
        (2, "a2b", "gc_parity", 5),
        (3, "a2b", "gc_parity", 5),
    )


def test_ledger_audits_totals():
    fa = rand_bits(5000, 6)
    fb = apply_edits(fa, EditPlan("deletions", tuple(sorted(random.Random(7).sample(range(1, 5001), 8)))))
    for mode in ("vt", "gc"):
        stats = run_sync(fa, fb, SyncConfig(mode=mode))
        assert stats.success
        a2b = sum(b for _, d, _, b in stats.ledger if d == "a2b")
        b2a = sum(b for _, d, _, b in stats.ledger if d == "b2a")
        assert (a2b, b2a) == (stats.bits_a_to_b, stats.bits_b_to_a)
        raw = sum(b for _, _, kind, b in stats.ledger if kind == "raw")
        assert raw == stats.fallback_bits
        assert max(r for r, _, _, _ in stats.ledger) == stats.rounds


def test_rounds_stay_bounded():
    # every message closes, splits, retries toward c_max, or falls back to
    # raw, so rounds are bounded by the split depth plus small constants
    fa = rand_bits(20000, 8)
    fb = apply_edits(
        fa, EditPlan("deletions", tuple(sorted(random.Random(9).sample(range(1, 20001), 12))))
    )
    for mode in ("vt", "gc"):
        stats = run_sync(fa, fb, SyncConfig(mode=mode))
        assert stats.success
        assert stats.rounds <= 20


def _low_entropy_file(kind, n):
    if kind == "constant":
        return "1" * n
    if kind == "runs":
        rng = random.Random(n)
        out, bit = [], "1"
        while len(out) < n:
            out.extend(bit * rng.randrange(1, 300))
            bit = "0" if bit == "1" else "1"
        return "".join(out[:n])
    unit = "01101"[: int(kind[-1])]  # period2 .. period5
    return (unit * n)[:n]


@pytest.mark.parametrize("mode", ["vt", "gc"])
@pytest.mark.parametrize("d", [2, 3, 7])
@pytest.mark.parametrize(
    "kind", ["constant", "period2", "period3", "period4", "period5", "runs"]
)
def test_low_entropy_files_synchronize_exactly(kind, d, mode):
    # anchors are often ambiguous here, so the raw fallback carries the load
    fa = _low_entropy_file(kind, 3000)
    check_sync_exact(fa, tuple(sorted(random.Random(kind).sample(range(1, 3001), d))), mode)


@pytest.mark.parametrize(
    "mode, totals, ledger_sha256",
    [
        ("vt", (8, 1739, 40, 888), "e63f9f1fba4e53d291adc99e31bdbf5dfe7ede1f116c13d7813c0c716b50b5cc"),
        ("gc", (5, 675, 26, 0), "461051708706e44cc3861f96de248e4c4141cac10f296f4ade88c6c3243f275a"),
    ],
)
def test_golden_ledger(mode, totals, ledger_sha256):
    # pins every message's round, direction, kind and size, in order
    fa = rand_bits(20000, 8)
    fb = apply_edits(
        fa, EditPlan("deletions", tuple(sorted(random.Random(9).sample(range(1, 20001), 12))))
    )
    stats = run_sync(fa, fb, SyncConfig(mode=mode))
    assert stats.success
    assert (stats.rounds, stats.bits_a_to_b, stats.bits_b_to_a, stats.fallback_bits) == totals
    assert hashlib.sha256(repr(stats.ledger).encode()).hexdigest() == ledger_sha256


def test_random_small_files_synchronize_exactly():
    rng = random.Random(10)
    for mode in ("vt", "gc"):
        for trial in range(12):
            n = rng.randrange(500, 3000)
            d = rng.randrange(0, 9)
            fa = format(rng.getrandbits(n), f"0{n}b")
            positions = tuple(sorted(rng.sample(range(1, n + 1), d)))
            fb = apply_edits(fa, EditPlan("deletions", positions))
            stats = run_sync(fa, fb, SyncConfig(mode=mode))
            assert stats.success, (mode, trial, n, d)


def _deletion_results(fa, max_d):
    """Every distinct string left by deleting at most max_d bits of fa."""
    results, level = {fa}, {fa}
    for _ in range(min(max_d, len(fa))):
        level = {x[:i] + x[i + 1 :] for x in level for i in range(len(x))}
        results |= level
    return results


def test_tiny_files_synchronize_exactly_under_every_config():
    # every file of 1-5 bits and a seeded sample of 6-9-bit ones, every
    # distinct result of deleting up to 4 bits, and VT and GC with
    # anchor_len 1-3 (GC: delta_cap 2-3); the GC repairs here have k' <= 3
    # blocks, where the edge cases of _segment_ell and top() live
    rng = random.Random(16)
    files = [format(v, f"0{n}b") for n in range(1, 6) for v in range(1 << n)]
    files += [format(v, f"0{n}b") for n in range(6, 10) for v in rng.sample(range(1 << n), 6)]
    configs = [SyncConfig("vt", anchor_len=a) for a in (1, 2, 3)]
    configs += [SyncConfig("gc", anchor_len=a, delta_cap=cap) for a in (1, 2, 3) for cap in (2, 3)]
    for fa in files:
        for fb in _deletion_results(fa, 4):
            for config in configs:
                check_sync_pair(fa, fb, config)


def test_trials_harness_shares_instances_between_modes():
    vt = run_sync_trials(4000, 5, trials=4, config=SyncConfig("vt"), seed=11)
    gc = run_sync_trials(4000, 5, trials=4, config=SyncConfig("gc"), seed=11)
    assert all(s.success for s in vt + gc)
    row = sync_row("vt", 4000, 5, vt, 11)
    assert row["success_rate"] == 1.0
    assert row["trials"] == 4
    again = run_sync_trials(4000, 5, trials=4, config=SyncConfig("vt"), seed=11)
    assert [s.bits_a_to_b for s in again] == [s.bits_a_to_b for s in vt]


def test_trials_harness_rejects_no_trials():
    with pytest.raises(ValueError):
        run_sync_trials(100, 2, trials=0, config=SyncConfig("gc"))


@pytest.mark.parametrize("mode", ["vt", "gc"])
def test_trials_harness_pool_matches_serial(mode):
    serial = run_sync_trials(4000, 5, trials=4, config=SyncConfig(mode), seed=11, workers=1)
    assert run_sync_trials(4000, 5, trials=4, config=SyncConfig(mode), seed=11, workers=2) == serial


def test_trials_harness_rejects_empty_file():
    with pytest.raises(ValueError):
        run_sync_trials(0, 0, 1, SyncConfig("gc"))


def test_short_hashes_still_decide_which_candidate_commits():
    # with 1- and 2-bit hashes a wrong candidate often passes its check, so
    # four of these runs end inexact; the digest pins every SyncStats, so a
    # change that skipped or reordered a hash comparison would show here
    rng = random.Random(17)
    stats = []
    for _ in range(200):
        n = rng.randrange(40, 400)
        fa = format(rng.getrandbits(n), f"0{n}b")
        positions = tuple(sorted(rng.sample(range(1, n + 1), rng.randrange(1, 9))))
        fb = apply_edits(fa, EditPlan("deletions", positions))
        for mode in ("vt", "gc"):
            for hash_len in (1, 2):
                config = SyncConfig(mode, anchor_len=rng.choice((1, 2, 3)), hash_len=hash_len)
                stats.append(run_sync(fa, fb, config))
    assert [i for i, s in enumerate(stats) if not s.success] == [288, 290, 445, 446]
    assert (
        hashlib.sha256(repr(stats).encode()).hexdigest()
        == "f21e007b9d3e0973bf7abe60bf79420b6a3aebe6259caee5db03431c86a4848e"
    )
