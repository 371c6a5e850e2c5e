import itertools
import math
import random
from collections import defaultdict
from itertools import accumulate
from operator import xor

import pytest

from gccodes import (
    EditPlan,
    Failure,
    GcParams,
    MalformedTail,
    NoCandidate,
    Success,
    apply_edits,
    decode_case,
    decode_with_parities,
    gc_decode,
    gc_encode,
    recover_parities_del,
    recover_parities_ins,
    sample_plan,
    subsequence_check,
)
from gccodes.codec import _block_parities, _prefix_tables, _read_symbols, _rep_decode_ins
from gccodes.gf import field
from gccodes.mds import SystematicCode

from vectors import (
    CODEWORD_A,
    CODEWORD_B,
    MSG_A,
    MSG_B,
    MSG_B_OTHER,
    PARAMS_16,
    PARITY_BITS_A,
    PARITY_BITS_B,
    RECEIVED_A,
    RECEIVED_B,
    TAIL_A,
    check_against_reference,
    check_gc_decode_against_splits,
    delete,
    enumerate_cases,
)


class TestParams:
    def test_derived_quantities(self):
        p = PARAMS_16
        assert (p.k_prime, p.ell_last, p.n) == (4, 4, 32)
        p = GcParams(k=512, ell=9, c=3, delta=2)
        assert (p.k_prime, p.ell_last, p.n) == (57, 8, 593)
        p = GcParams(k=1024, ell=10, c=5, delta=2)
        assert (p.k_prime, p.ell_last, p.n) == (103, 4, 1174)

    def test_redundancy_identity(self):
        for k, ell, c, delta in [(16, 4, 2, 1), (64, 6, 3, 2), (256, 8, 5, 4), (100, 7, 4, 3)]:
            p = GcParams(k, ell, c, delta)
            msg = "01" * (k // 2)
            assert len(gc_encode(msg, p)) - k == c * (delta + 1) * ell

    def test_validation(self):
        with pytest.raises(ValueError):
            GcParams(k=16, ell=4, c=1, delta=1)  # needs c > delta
        with pytest.raises(ValueError):
            GcParams(k=16, ell=4, c=6, delta=5)  # delta > ell
        with pytest.raises(ValueError):
            GcParams(k=256, ell=4, c=2, delta=1)  # 64 + 2 symbols > GF(16)
        with pytest.raises(ValueError):
            GcParams(k=16, ell=17, c=2, delta=1)


class TestEncode:
    def test_worked_codeword(self):
        assert gc_encode(MSG_A, PARAMS_16) == CODEWORD_A
        assert CODEWORD_A.endswith(TAIL_A)

    def test_second_message_parities(self):
        cw = gc_encode(MSG_B, PARAMS_16)
        assert cw == CODEWORD_B
        # parity bits before repetition
        tail = cw[16:]
        assert "".join(tail[i] for i in range(0, 16, 2)) == PARITY_BITS_B

    def test_all_zero(self):
        p = PARAMS_16
        assert gc_encode("0" * 16, p) == "0" * p.n

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            gc_encode("01", PARAMS_16)
        with pytest.raises(ValueError):
            gc_encode("0a11000011010001", PARAMS_16)


def rep_folds(groups, rep):
    """Every groups-bit string, mapped to its rep-fold repetition."""
    strings = ("".join(t) for t in itertools.product("01", repeat=groups))
    return {x: "".join(b * rep for b in x) for x in strings}


class TestParityRecovery:
    def test_tail_first_bit_deleted(self):
        received = MSG_A + TAIL_A[1:]
        bits, splits = recover_parities_del(received, PARAMS_16)
        assert bits == PARITY_BITS_A
        assert splits == [(MSG_A, 0)]  # message ends in 1, tail starts with 0

    def test_undamaged(self):
        bits, splits = recover_parities_del(CODEWORD_A, PARAMS_16)
        assert bits == PARITY_BITS_A
        assert splits == [(MSG_A, 0)]

    def test_systematic_deletion_keeps_boundary_ambiguous(self):
        bits, splits = recover_parities_del(RECEIVED_A, PARAMS_16)
        assert bits == PARITY_BITS_A
        assert [d_s for _, d_s in splits] == [0, 1]
        assert (delete(MSG_A, 14), 1) in splits

    def test_all_zero_received(self):
        p = PARAMS_16
        bits, _ = recover_parities_del("0" * (p.n - 1), p)
        assert bits == "0" * 8

    def test_zero_error_over_all_tail_deletions(self):
        # deleting anywhere in the repetition-coded tail never corrupts the
        # recovered parity values
        rng = random.Random(2)
        for params, dmax in [(PARAMS_16, 1), (GcParams(16, 4, 3, 2), 2)]:
            tail_len = params.c * (params.delta + 1) * params.ell
            for _ in range(6):
                msg = format(rng.getrandbits(16), "016b")
                cw = gc_encode(msg, params)
                truth = "".join(
                    cw[params.k + i] for i in range(0, tail_len, params.delta + 1)
                )
                patterns = [(pos,) for pos in range(params.k + 1, params.n + 1)]
                if dmax == 2:
                    patterns += [
                        (a, b)
                        for a in range(params.k + 1, params.n + 1)
                        for b in range(a + 1, params.n + 1)
                    ]
                for pat in patterns:
                    got, _ = recover_parities_del(
                        apply_edits(cw, EditPlan("deletions", pat)), params
                    )
                    assert got == truth

    def test_insertions_undamaged_matches_deletions(self):
        bits, splits = recover_parities_ins(CODEWORD_A, PARAMS_16)
        assert bits == PARITY_BITS_A
        assert (MSG_A, 0) in splits

    def test_insertion_at_tail_front(self):
        received = MSG_A + "1" + TAIL_A
        bits, splits = recover_parities_ins(received, PARAMS_16)
        assert bits == PARITY_BITS_A
        # the inserted 1 can be blamed on either side of the boundary
        assert [d_s for _, d_s in splits] == [0, 1]

    def test_all_zero_with_inserted_zero(self):
        p = PARAMS_16
        bits, _ = recover_parities_ins("0" * (p.n + 1), p)
        assert bits == "0" * 8

    def test_length_out_of_range(self):
        with pytest.raises(ValueError):
            recover_parities_del(CODEWORD_A[2:], PARAMS_16)
        with pytest.raises(ValueError):
            recover_parities_ins("0" * 34, PARAMS_16)

    def test_insertion_tail_rule_matches_its_definition(self):
        # every remnant of up to 12 bits with 0 <= extra < rep: the greedy
        # pass returns the one s whose rep-fold repetition is a
        # subsequence of the remnant, found by trying all 2^groups strings,
        # and None when no s is
        for rep in (2, 3, 4):
            for groups in range(1, 12 // rep + 1):
                folds = rep_folds(groups, rep)
                for extra in range(min(rep, 13 - groups * rep)):
                    for r in itertools.product("01", repeat=groups * rep + extra):
                        remnant = "".join(r)
                        hits = [x for x, fold in folds.items() if subsequence_check(fold, remnant)]
                        assert len(hits) <= 1, (remnant, rep, hits)
                        want = hits[0] if hits else None
                        assert _rep_decode_ins(remnant, rep, groups) == want, (remnant, rep)

    def test_insertion_splits_are_the_remnants_that_embed(self):
        params = GcParams(8, 3, 3, 2)
        rep, needed = params.delta + 1, params.c * params.ell
        folds = rep_folds(needed, rep)
        rng = random.Random(5)
        rejected = 0
        for _ in range(40):
            cw = gc_encode(format(rng.getrandbits(8), "08b"), params)
            d = rng.randrange(params.delta + 1)
            pos = tuple(sorted(rng.sample(range(1, params.n + 2), d)))
            received = apply_edits(cw, EditPlan("insertions", pos, tuple(rng.choices("01", k=d))))
            want = []
            for d_s in range(d + 1):
                remnant = received[params.k + d_s :]
                want += [(x, d_s) for x, fold in folds.items() if subsequence_check(fold, remnant)]
            rejected += d + 1 - len(want)
            if not want:
                with pytest.raises(MalformedTail):
                    recover_parities_ins(received, params)
                continue
            bits, splits = recover_parities_ins(received, params)
            assert bits == want[0][0]
            assert splits == [(received[: params.k + d_s], d_s) for _, d_s in want]
        assert rejected


class TestEnumerateCases:
    def test_counts(self):
        assert len(list(enumerate_cases(4, 1))) == 4
        assert len(list(enumerate_cases(4, 2))) == 10
        assert list(enumerate_cases(5, 0)) == [(0, 0, 0, 0, 0)]

    def test_lexicographic_order_and_count_identity(self):
        for kp in (1, 2, 3, 5, 8):
            for d in range(5):
                cases = list(enumerate_cases(kp, d))
                assert len(cases) == math.comb(kp + d - 1, d)
                assert cases == sorted(cases)
                assert len(set(cases)) == len(cases)
                assert all(sum(c) == d for c in cases)

    def test_caps(self):
        cases = list(enumerate_cases(4, 2, block_caps=[1, 1, 1, 1]))
        assert len(cases) == 6  # only the two-block distributions survive
        assert all(max(c) <= 1 for c in cases)
        assert list(enumerate_cases(3, 2, block_caps=[2, 2, 1])) == [
            (0, 1, 1),
            (0, 2, 0),
            (1, 0, 1),
            (1, 1, 0),
            (2, 0, 0),
        ]


class TestSubsequence:
    def test_examples(self):
        assert not subsequence_check("000", "0011")
        assert subsequence_check("001", "0001")
        assert subsequence_check("0110", "0110")
        assert subsequence_check("", "01")
        assert not subsequence_check("01", "0")

    def test_matches_deletion_semantics(self):
        rng = random.Random(9)
        for _ in range(300):
            n = rng.randrange(1, 12)
            x = format(rng.getrandbits(n), f"0{n}b")
            d = rng.randrange(0, n + 1)
            y = delete(x, *sorted(rng.sample(range(1, n + 1), d)))
            assert subsequence_check(y, x)

    def test_jumps_are_bounded_by_the_slack(self):
        # each find after the first skips at least one bit of `long` or ends
        # the scan, so a check makes at most slack + 2 of them
        class Counted(str):
            finds = 0

            def find(self, *args):
                Counted.finds += 1
                return super().find(*args)

        rng = random.Random(4)
        x = format(rng.getrandbits(4000), "04000b")
        cases = [
            (x, x, True),  # one run: a single find
            (delete(x, 900, 2000, 3100), x, True),
            ("1" * 1500, "01" * 1000, False),  # the slack runs out after 501 skips
        ]
        for short, long, result in cases:
            Counted.finds = 0
            assert subsequence_check(short, Counted(long)) is result
            assert Counted.finds <= len(long) - len(short) + 2


class TestDecodeCase:
    def setup_method(self):
        self.parities = (2, 7)  # (a, a^10)
        self.region = delete(MSG_A, 14)

    def test_case1_fails_parity(self):
        assert decode_case(self.region, (1, 0, 0, 0), self.parities, 16, 4) is None

    def test_case2_fails_supersequence(self):
        # erasure decodes to 0011, which cannot contain the sub-block 000
        assert decode_case(self.region, (0, 1, 0, 0), self.parities, 16, 4) is None

    def test_case3_fails_both(self):
        assert decode_case(self.region, (0, 0, 1, 0), self.parities, 16, 4) is None

    def test_case4_accepts(self):
        assert decode_case(self.region, (0, 0, 0, 1), self.parities, 16, 4) == MSG_A

    def test_failure_example_cases(self):
        region = delete(MSG_B, 14)
        one = decode_case(region, (1, 0, 0, 0), (0, 5), 16, 4)
        assert one == MSG_B_OTHER
        syms = [int(one[i : i + 4], 2) for i in range(0, 16, 4)]
        assert syms == [13, 8, 4, 1]  # (a^13, a^3, a^2, 1)
        assert decode_case(region, (0, 0, 0, 1), (0, 5), 16, 4) == MSG_B

    def test_validation(self):
        with pytest.raises(ValueError):
            decode_case(self.region, (1, 0, 0), self.parities, 16, 4)
        with pytest.raises(ValueError):
            decode_case(MSG_A, (1, 0, 0, 0), self.parities, 16, 4)
        with pytest.raises(ValueError):
            decode_case("", (), self.parities, 0, 4)  # no blocks
        # a guess that deletes more bits than its block has is impossible, not invalid
        assert decode_case(MSG_A[:11], (5, 0, 0, 0), self.parities, 16, 4) is None


class TestGcDecode:
    def test_successful_decode(self):
        out = gc_decode(RECEIVED_A, PARAMS_16)
        assert out == Success(MSG_A, (0, 0, 0, 1))

    def test_decoding_failure(self):
        out = gc_decode(RECEIVED_B, PARAMS_16)
        assert isinstance(out, Failure)
        assert out.candidates == frozenset({MSG_B, MSG_B_OTHER})

    def test_all_zero_any_deletion(self):
        p = PARAMS_16
        zero = gc_encode("0" * 16, p)
        for pos in range(1, p.n + 1):
            out = gc_decode(delete(zero, pos), p)
            assert out == Success("0" * 16, out.witness)
            assert out.message == "0" * 16

    def test_zero_edit_symmetry(self):
        for mode in ("deletions", "insertions"):
            out = gc_decode(CODEWORD_A, PARAMS_16, mode)
            assert out == Success(MSG_A, (0, 0, 0, 0))

    def test_length_errors(self):
        with pytest.raises(ValueError):
            gc_decode(CODEWORD_A[:-2], PARAMS_16)  # 2 deletions, delta = 1
        with pytest.raises(ValueError):
            gc_decode(CODEWORD_A + "01", PARAMS_16, "insertions")
        with pytest.raises(ValueError):
            gc_decode(CODEWORD_A[:-1], PARAMS_16, "bogus")

    def test_garbage_input_reports_no_candidate(self):
        junk = "01" * 15 + "0"  # length n-1, alternating: no tail split fits
        assert gc_decode(junk, PARAMS_16) == NoCandidate()

    def test_equal_length_edit_pair_leaves_no_candidate(self):
        # one deletion and one insertion in the message keep the length n,
        # so d = 0 and the tail is intact; the one guess, no erasure, fails
        # the parity windows, and the scan finds nothing
        p = GcParams(256, 8, 3, 2)
        msg = format(random.Random(0).getrandbits(256), "0256b")
        cw = gc_encode(msg, p)
        rec = apply_edits(cw, EditPlan("deletions", (40,)))
        rec = apply_edits(rec, EditPlan("insertions", (200,), ("1",)))
        assert len(rec) == p.n and rec != cw
        assert recover_parities_del(rec, p)[1] == [(rec[:256], 0)]
        assert gc_decode(rec, p) == NoCandidate()

    def test_never_wrong_k16_exhaustive_positions(self):
        rng = random.Random(4)
        p = PARAMS_16
        wrong = no_cand = 0
        for _ in range(150):
            msg = format(rng.getrandbits(16), "016b")
            cw = gc_encode(msg, p)
            for pos in range(1, p.n + 1):
                out = gc_decode(delete(cw, pos), p)
                if isinstance(out, Success):
                    assert out.message == msg
                elif isinstance(out, NoCandidate):
                    no_cand += 1
        assert wrong == 0 and no_cand == 0

    def test_never_wrong_two_deletions_randomized(self):
        rng = random.Random(5)
        p = GcParams(k=32, ell=5, c=3, delta=2)
        for t in range(400):
            msg = format(rng.getrandbits(32), "032b")
            cw = gc_encode(msg, p)
            plan = sample_plan(len(cw), rng.choice([0, 1, 2]), "deletions", seed=t)
            out = gc_decode(apply_edits(cw, plan), p)
            assert not isinstance(out, NoCandidate)
            if isinstance(out, Success):
                assert out.message == msg

    def test_never_wrong_insertions_randomized(self):
        rng = random.Random(6)
        p = GcParams(k=32, ell=5, c=3, delta=2)
        for t in range(400):
            msg = format(rng.getrandbits(32), "032b")
            cw = gc_encode(msg, p)
            plan = sample_plan(len(cw), rng.choice([1, 2]), "insertions", seed=t)
            out = gc_decode(apply_edits(cw, plan), p, "insertions")
            assert not isinstance(out, NoCandidate)
            if isinstance(out, Success):
                assert out.message == msg

    def test_single_insertion_exhaustive_positions(self):
        rng = random.Random(7)
        p = PARAMS_16
        for _ in range(40):
            msg = format(rng.getrandbits(16), "016b")
            cw = gc_encode(msg, p)
            for pos in range(1, p.n + 2):
                for bit in "01":
                    rec = cw[: pos - 1] + bit + cw[pos - 1 :]
                    out = gc_decode(rec, p, "insertions")
                    assert not isinstance(out, NoCandidate)
                    if isinstance(out, Success):
                        assert out.message == msg

    def test_insertion_tail_longer_than_recursion_limit(self):
        # 200 parities of 12 bits: 2,400 repetition groups in the tail
        p = GcParams(16, 12, 200, 1)
        msg = "1011001110001011"
        cw = gc_encode(msg, p)
        for pos in (0, 7, 16, 1000, p.n):
            for bit in "01":
                out = gc_decode(cw[:pos] + bit + cw[pos:], p, "insertions")
                assert out == Success(msg, out.witness)


def _within_edits(word, delta, mode):
    """Every distinct word that at most delta deletions (or insertions) make
    from `word`."""
    words = level = {word}
    for _ in range(delta):
        if mode == "deletions":
            level = {w[:i] + w[i + 1 :] for w in level for i in range(len(w))}
        else:
            level = {w[:i] + b + w[i:] for w in level for i in range(len(w) + 1) for b in "01"}
        words = words | level
    return words


@pytest.mark.parametrize("params", [GcParams(8, 3, 3, 2), GcParams(15, 3, 3, 2)])
def test_tiny_code_every_edit_pattern_keeps_the_message(params):
    # exhaustive over edit patterns, sampled over messages; (15, 3, 3, 2)
    # has k' + c = q = 8, the largest code its field allows
    k = params.k
    rng = random.Random(k)
    msgs = ["0" * k, "1" * k] + [format(rng.getrandbits(k), f"0{k}b") for _ in range(8)]
    for msg in msgs:
        cw = gc_encode(msg, params)
        for mode in ("deletions", "insertions"):
            for rec in _within_edits(cw, params.delta, mode):
                out = gc_decode(rec, params, mode)
                if isinstance(out, Success):
                    assert out.message == msg
                else:
                    assert isinstance(out, Failure) and msg in out.candidates


def _candidates(out) -> set:
    if isinstance(out, Success):
        return {out.message}
    return set(out.candidates) if isinstance(out, Failure) else set()


@pytest.mark.parametrize(
    "mode, params, ambiguous",
    [
        ("deletions", GcParams(10, 4, 2, 1), True),
        ("insertions", GcParams(10, 4, 2, 1), True),
        ("deletions", GcParams(8, 3, 3, 2), False),
    ],
    ids=["deletions", "insertions", "deletions-d2"],
)
def test_tiny_code_candidates_are_the_preimages(mode, params, ambiguous):
    # exhaustive over messages and edit patterns: every word within delta
    # edits of a codeword must decode to exactly the messages whose
    # codewords reach it (by |n - |word|| edits), so the decoder is sound
    # and complete; (10, 4, 2, 1) is small and has words with two
    # preimages, and (8, 3, 3, 2) runs the lane pair test on all 13,568
    # words within two deletions, where q = 8 leaves rows whose x < ones
    preimages = defaultdict(set)
    for v in range(1 << params.k):
        msg = format(v, f"0{params.k}b")
        for word in _within_edits(gc_encode(msg, params), params.delta, mode):
            preimages[word].add(msg)
    assert any(len(msgs) > 1 for msgs in preimages.values()) == ambiguous
    for word, msgs in preimages.items():
        assert _candidates(gc_decode(word, params, mode)) == msgs, word


def _check_against_reference(rng, k, ell, c, d, mode, seed):
    msg = format(rng.getrandbits(k), f"0{k}b")
    region = apply_edits(msg, sample_plan(k, d, mode, seed=seed))
    check_against_reference(msg, region, ell, c, mode)


class TestEngineAgainstReference:
    def test_engine_matches_case_by_case_decoder(self):
        # the optimized scanner must agree with the single-guess reference
        # on the full candidate set
        rng = random.Random(12)
        checked = 0
        while checked < 120:
            k = rng.choice([16, 21, 30, 32])
            ell = rng.choice([4, 5])
            c = rng.choice([3, 4])
            kp = -(-k // ell)
            if kp + c > (1 << ell):
                continue
            mode = rng.choice(["deletions", "insertions"])
            d = rng.choice([1, 2, 3])
            if d >= c:
                continue
            _check_against_reference(rng, k, ell, c, d, mode, checked)
            checked += 1

    def test_three_edits_beyond_eight_blocks(self):
        # k' = 10..12 blocks: three-block erasures, solved by the scan from
        # every syndrome and by the reference from the leading three
        rng = random.Random(21)
        for t in range(60):
            k, ell = rng.choice([(48, 5), (60, 5), (60, 6)])
            mode = ("deletions", "insertions")[t % 2]
            _check_against_reference(rng, k, ell, rng.choice([4, 5]), 3, mode, t)

    def test_four_and_five_edits(self):
        # later erased blocks sit past block 0, so the scan's prefix
        # syndromes carry unerased runs between erased blocks
        rng = random.Random(31)
        for t in range(24):
            d = 4 + t % 2
            k, ell = rng.choice([(30, 5), (36, 5), (28, 4)])
            mode = ("deletions", "insertions")[t // 2 % 2]
            _check_against_reference(rng, k, ell, rng.randint(d + 1, 7), d, mode, t)

    def test_more_edits_than_block_bits(self):
        # d > ell: every block's deletion cap matters, not only the last one's
        rng = random.Random(41)
        for t in range(40):
            k, ell, d = rng.choice(
                [(6, 3, 4), (7, 3, 4), (9, 3, 4), (6, 3, 5), (12, 4, 7), (16, 4, 7)]
            )
            mode = ("deletions", "insertions")[t % 2]
            _check_against_reference(rng, k, ell, d + 1, d, mode, t)

    def test_long_repair_segment(self):
        # k' = 200 blocks of GF(2^11) and two deletions, the size of a sync
        # repair: the pair test runs on lanes for up to 199 partner blocks
        k = 200 * 11 - 5  # short last block
        _check_against_reference(random.Random(61), k, 11, 3, 2, "deletions", 61)

    def test_carried_prefix_terms(self):
        # each child of an erased prefix takes its terms from its parent's
        # windows and steps the packed j-side terms by alpha: k' = 32 makes
        # about 30 steps, ell = 16 steps the top bit of each lane,
        # ell_last = 1 at d = 4 keeps block k'-1 out of the lanes for
        # u >= 2 deletions, and d = 5 has two-block prefixes under several
        # parents
        rng = random.Random(81)
        cases = [(256, 8, 4, 3)] * 2 + [(20 * 16 - 3, 16, 4, 3)] * 2
        cases += [(41, 4, 5, 4), (37, 4, 5, 4)] * 2 + [(36, 5, 6, 5), (28, 4, 7, 5)] * 2
        for t, (k, ell, c, d) in enumerate(cases):
            mode = ("deletions", "insertions")[t % 2 if d != 4 else 0]
            _check_against_reference(rng, k, ell, c, d, mode, t)
        # each of the last four blocks of (41, 4, 5, 4) loses a bit: the
        # carry there starts at alpha a_8^2, whose log passes q - 1
        for _ in range(16):
            msg = format(rng.getrandbits(41), "041b")
            region = apply_edits(msg, EditPlan("deletions", (29, 33, 37, 41)))
            check_against_reference(msg, region, 4, 5, "deletions")

    def test_full_width_lanes(self):
        # ell = 16 fills each 16-bit lane, so its top bit is a symbol bit;
        # ell = 15 is the widest field that steps a row with one shift by
        # 15, its carry landing on bit 15
        rng = random.Random(71)
        for ell in (15, 16):
            for t in range(8):
                mode = ("deletions", "insertions")[t % 2]
                _check_against_reference(rng, 40 * ell - t, ell, 3, 2, mode, t)

    def test_single_block(self):
        rng = random.Random(51)
        for t in range(40):
            ell = rng.choice([4, 5, 6])
            k = rng.randint(4, ell)
            d = rng.randint(1, 3)
            mode = ("deletions", "insertions")[t % 2]
            _check_against_reference(rng, k, ell, rng.randint(d + 1, 7), d, mode, t)

    def test_shared_tables_differ_only_where_unread(self):
        # k = 4*ell + 1: the last block holds one bit, fewer than delta, so
        # deletions in the last two blocks make the tables built once on
        # the received word differ from a split's own at T[s][r][k'] and
        # T[s][r][k'-1]; gc_decode must still equal the per-split reference
        params = GcParams(k=17, ell=4, c=4, delta=3)
        kp, ell_last = params.k_prime, params.ell_last
        code = SystematicCode(field(4), kp, params.c)
        rng = random.Random(81)
        differ = set()
        for t in range(60):
            msg = format(rng.getrandbits(17), "017b")
            # 1-indexed bits 13..17 are blocks k'-2 and k'-1; 18 starts the tail
            positions = rng.sample(range(13, 19), 2 + t % 2)
            received = delete(gc_encode(msg, params), *positions)
            check_gc_decode_against_splits(msg, received, params, "deletions")
            _, splits = recover_parities_del(received, params)
            shared = _prefix_tables(received, 17, max(d for _, d in splits), code, True)
            for region, d_s in splits:
                own = _prefix_tables(region, 17, d_s, code, True)
                for s in range(d_s + 1):
                    for a, b in zip(shared[s], own[s]):
                        for i in range(kp + 1):
                            if a[i] != b[i]:
                                assert s < d_s and (i == kp or ell_last + s < d_s)
                                differ.add(i)
        assert differ == {kp - 1, kp}


def _sliced_symbols(bits, off, kp, ell, last):
    """String-slicing block read, the oracle for `_read_symbols`: block i is
    bits[off + i*ell:][:ell] padded on the right, a block starting before
    position 0 is empty, and the last block keeps `last` bits."""
    chunks = [bits[st : st + ell] if st >= 0 else "" for st in range(off, off + kp * ell, ell)]
    chunks[-1] = chunks[-1][:last]
    return tuple(int(ch or "0", 2) << (ell - len(ch)) for ch in chunks)


class TestSymbolReader:
    def test_reads_equal_slicing(self):
        # every ell, offsets -(ell + 2) .. 4 (a shift never exceeds the k
        # message bits), strings empty, shorter than the window, exactly it
        # and longer, full and short last blocks, k' = 1 included
        rng = random.Random(91)
        for ell in range(2, 17):
            for kp in (1, 2, 3, 5, 8, 33):
                width = kp * ell
                for last in sorted({1, rng.randint(1, ell), ell}):
                    k = width - ell + last
                    for n in sorted({0, rng.randint(1, width - 1), width, width + 9}):
                        bits = format(rng.getrandbits(n), f"0{n}b") if n else ""
                        X = int(bits or "0", 2)
                        for off in range(max(-(ell + 2), -k), 5):
                            assert _read_symbols(X, n, off, kp, ell, last) == _sliced_symbols(
                                bits, off, kp, ell, last
                            ), (ell, kp, last, n, off)

    def test_tables_and_parities_equal_slicing(self):
        rng = random.Random(92)
        for t in range(300):
            ell = rng.randint(2, 16)
            kp = rng.randint(1, min(40, (1 << ell) - 2))
            c = rng.randint(1, min(5, (1 << ell) - kp))
            k = kp * ell - rng.randint(0, ell - 1)
            d = rng.randint(0, min(4, k))  # d > ell when ell < 4
            code = SystematicCode(field(ell), kp, c)
            exp, log = code.gf.exp, code.gf.log
            n = rng.randint(0, k + 8) if t % 3 else k + rng.randint(-d, d)
            bits = format(rng.getrandbits(n), f"0{n}b") if n > 0 else ""
            for deletions in (True, False):
                want = []
                for s in range(d + 1):
                    sym = _sliced_symbols(bits, -s if deletions else s, kp, ell, k - (kp - 1) * ell)
                    want.append(
                        [
                            [0, *accumulate((exp[log[x] + col] for x, col in zip(sym, cols)), xor)]
                            for cols in code.logcol
                        ]
                    )
                assert _prefix_tables(bits, k, d, code, deletions) == want, (t, deletions)
            if n > 0:
                kpn = -(-n // ell)
                if kpn + c <= 1 << ell:
                    sym = _sliced_symbols(bits, 0, kpn, ell, n - (kpn - 1) * ell)
                    want = SystematicCode(field(ell), kpn, c).encode(sym)
                    assert _block_parities(bits, ell, c) == want, t


class TestDecodeWithParities:
    def test_round_trip(self):
        rng = random.Random(13)
        k, ell = 60, 6
        kp = 10
        gf = field(ell)
        for d in (0, 1, 2):
            for t in range(30):
                msg = format(rng.getrandbits(k), f"0{k}b")
                syms = [int(msg[i * ell : (i + 1) * ell], 2) for i in range(kp)]
                parities = SystematicCode(gf, kp, d + 2).encode(syms)
                region = apply_edits(msg, sample_plan(k, d, "deletions", seed=t))
                out = decode_with_parities(region, k, ell, parities)
                if isinstance(out, Success):
                    assert out.message == msg
                else:
                    assert isinstance(out, Failure)

    def test_other_messages_parities_leave_no_candidate(self):
        k, ell, kp = 60, 6, 10
        rng = random.Random(1)
        msg, other = (format(rng.getrandbits(k), f"0{k}b") for _ in range(2))
        syms = [int(other[i * ell : (i + 1) * ell], 2) for i in range(kp)]
        parities = SystematicCode(field(ell), kp, 3).encode(syms)
        region = msg[:10] + msg[11:]
        assert decode_with_parities(region, k, ell, parities) == NoCandidate()

    def test_needs_enough_parities(self):
        with pytest.raises(ValueError):
            decode_with_parities("0" * 14, 16, 4, (0, 0))  # d=2 needs > 2
        with pytest.raises(ValueError):
            decode_with_parities("0" * 18, 16, 4, (0, 0, 0))  # longer than k
        with pytest.raises(ValueError):
            decode_with_parities("0" * 30, 32, 4, (99, 5, 7))  # symbol above 2^ell
        with pytest.raises(ValueError):
            decode_with_parities("0" * 30, 32, 4, (1, -5, 7))  # negative symbol
        with pytest.raises(ValueError):
            decode_with_parities("0" * 60, 62, 4, (0, 0, 0))  # k' + 3 = 19 > 16
