import random

import pytest

from gccodes.vt import NoConsistentInsertion, VtSyndrome, _weighted_sum, vt_correct, vt_syndrome


def test_syndrome_examples():
    assert vt_syndrome("1010") == VtSyndrome(4, 4)  # 1 + 3 mod 5
    assert vt_syndrome("0000000") == VtSyndrome(0, 7)
    assert vt_syndrome("1110") == VtSyndrome(1, 4)  # 1+2+3 mod 5


def test_correct_examples():
    assert vt_correct("100", VtSyndrome(4, 4)) == "1010"
    assert vt_correct("000", VtSyndrome(0, 4)) == "0000"


def test_length_mismatch():
    with pytest.raises(ValueError):
        vt_correct("10", VtSyndrome(0, 4))


@pytest.mark.parametrize("y", ["", "0", "1", "0110", "1111111"])
def test_out_of_range_syndrome_is_unreachable(y):
    # the weight rule reaches exactly the a in [0, n], from any y
    n = len(y) + 1
    for a in (-1, n + 1):
        with pytest.raises(NoConsistentInsertion):
            vt_correct(y, VtSyndrome(a, n))
    assert {vt_syndrome(vt_correct(y, VtSyndrome(a, n))).a for a in range(n + 1)} == set(
        range(n + 1)
    )


@pytest.mark.parametrize("bad", ["1_1", " 11", "0b1", "+1", "abc"])
def test_non_bit_strings_are_rejected(bad):
    # int(s, 2) would accept the first four; the syndrome must not
    with pytest.raises(ValueError, match="only '0' and '1'"):
        vt_syndrome(bad)
    with pytest.raises(ValueError, match="only '0' and '1'"):
        vt_correct(bad, VtSyndrome(0, len(bad) + 1))


def test_exhaustive_small_lengths():
    # every string up to length 10 survives every single deletion
    # (the acceptance suite pushes this to length 14)
    for n in range(1, 11):
        for v in range(1 << n):
            x = format(v, f"0{n}b")
            syn = vt_syndrome(x)
            for p in range(n):
                assert vt_correct(x[:p] + x[p + 1 :], syn) == x


def test_all_consistent_reinsertions_agree():
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randrange(2, 30)
        x = format(rng.getrandbits(n), f"0{n}b")
        syn = vt_syndrome(x)
        p = rng.randrange(n)
        y = x[:p] + x[p + 1 :]
        consistent = {
            y[:i] + b + y[i:]
            for i in range(n)
            for b in "01"
            if vt_syndrome(y[:i] + b + y[i:]).a == syn.a
        }
        assert consistent == {x}


def test_long_string_round_trip():
    rng = random.Random(8)
    for _ in range(50):
        n = rng.randrange(500, 4000)
        x = format(rng.getrandbits(n), f"0{n}b")
        p = rng.randrange(n)
        assert vt_correct(x[:p] + x[p + 1 :], vt_syndrome(x)) == x


def _sum_of_positions(x):
    return sum(i for i, b in enumerate(x, 1) if b == "1")


def test_weighted_sum_is_the_sum_of_positions():
    # every string up to 12 bits, then random strings at n = 2^k - 1, 2^k
    # and 2^k + 1, where the span of the cached bit planes changes
    strings = ["", "0", "1"]
    strings += [format(v, f"0{n}b") for n in range(1, 13) for v in range(1 << n)]
    rng = random.Random(12)
    for k in range(1, 18):
        for n in (2**k - 1, 2**k, 2**k + 1):
            strings.append(format(rng.getrandbits(n), f"0{n}b"))
    for x in strings:
        assert _weighted_sum(int(x or "0", 2), len(x)) == _sum_of_positions(x), x


def _reinsertions(y, a):
    """Every string y with one bit inserted whose syndrome is a."""
    n = len(y) + 1
    return {
        y[:i] + b + y[i:]
        for i in range(n)
        for b in "01"
        if _sum_of_positions(y[:i] + b + y[i:]) % (n + 1) == a
    }


def test_correct_at_the_edges_of_the_insertion_rule():
    # s = (a - syndrome(y)) mod (n + 1) picks the rule: s = 0 puts a zero
    # right of every one, s = w left of every one, s = w + 1 puts a one
    # left of every zero and s = n right of every zero
    rng = random.Random(13)
    ys = ["", "0", "1", "0" * 9, "1" * 9, "01" * 5, "1" * 4 + "0" * 5]
    ys += [format(rng.getrandbits(m), f"0{m}b") for m in rng.sample(range(2, 30), 12)]
    for y in ys:
        n, w = len(y) + 1, y.count("1")
        for s in {0, w, w + 1, n}:
            a = (_sum_of_positions(y) + s) % (n + 1)
            assert {vt_correct(y, VtSyndrome(a, n))} == _reinsertions(y, a), (y, s)
    assert vt_correct("000", VtSyndrome(2, 4)) == "0100"  # s = 2 > w: one after a zero
    assert vt_correct("111", VtSyndrome(4, 4)) == "0111"  # s = w = 3: zero left of every one


def test_round_trip_past_the_largest_plane_span():
    n = 2**17 + 1
    x = format(random.Random(14).getrandbits(n), f"0{n}b")
    p = n // 3
    assert vt_correct(x[:p] + x[p + 1 :], vt_syndrome(x)) == x
