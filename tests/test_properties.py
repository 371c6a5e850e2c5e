"""Property tests over drawn code parameters and bit strings.
derandomize=True fixes the examples, so every run of the suite checks the
same cases."""

import random

from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from gccodes import GcParams, apply_edits, gc_encode, sample_plan, subsequence_check, vt_syndrome
from gccodes.codec import MODES

from vectors import (
    MSG_B,
    PARAMS_16,
    RECEIVED_B,
    check_against_reference,
    check_gc_decode_against_splits,
)


@st.composite
def edited_regions(draw):
    """(message, region, ell, c, mode): a k-bit message hit by d <= 5
    edits, with c > d parities and k' + c <= 2^ell."""
    ell = draw(st.integers(2, 16))
    q = 1 << ell
    d = draw(st.integers(0, min(5, q - 2)))
    c = draw(st.integers(d + 1, min(d + 3, q - 1)))
    kp = draw(st.integers(1, min(q - c, 8)))
    k = draw(st.integers((kp - 1) * ell + 1, kp * ell))
    mode = draw(st.sampled_from(MODES))
    assume(d <= k + (mode == "insertions"))  # distinct edit positions
    msg = format(draw(st.integers(0, (1 << k) - 1)), f"0{k}b")
    plan = sample_plan(k, d, mode, seed=draw(st.integers(0, 2**32)))
    return msg, apply_edits(msg, plan), ell, c, mode


@settings(
    derandomize=True,
    database=None,
    max_examples=400,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(edited_regions())
def test_scan_equals_reference_and_keeps_the_message(case):
    check_against_reference(*case)


@st.composite
def received_words(draw):
    """(message, received, params, mode): a GC codeword hit by d <= delta <= 4
    edits, mostly delta, in the message or anywhere, tail included. Short
    last blocks (ell_last < delta) and single-block messages (k' = 1, so
    k <= ell) are drawn often."""
    ell = draw(st.integers(2, 16))
    delta = draw(st.integers(1, min(4, ell)))
    q = 1 << ell
    c = draw(st.integers(delta + 1, min(delta + 3, q - 1)))
    kp = draw(st.integers(1, min(q - c, 12 if delta <= 2 else 6)))
    ell_last = draw(st.one_of(st.integers(1, max(1, delta - 1)), st.integers(1, ell)))
    params = GcParams((kp - 1) * ell + ell_last, ell, c, delta)
    mode = draw(st.sampled_from(MODES))
    msg = format(draw(st.integers(0, (1 << params.k) - 1)), f"0{params.k}b")
    word = gc_encode(msg, params)
    scope = draw(st.sampled_from(["systematic", "whole"]))
    d = min(delta - draw(st.integers(0, delta)), params.k if scope == "systematic" else delta)
    plan = sample_plan(len(word), d, mode, scope, draw(st.integers(0, 2**32)), params.k)
    return msg, apply_edits(word, plan), params, mode


@settings(
    derandomize=True,
    database=None,
    max_examples=1000,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(received_words())
@example((MSG_B, RECEIVED_B, PARAMS_16, "deletions"))  # a decoding failure
def test_gc_decode_equals_per_split_reference(case):
    check_gc_decode_against_splits(*case)


def greedy_subsequence(short, long):
    """The definition: match each symbol of short to the first unused equal
    symbol of long."""
    j = 0
    for b in short:
        while j < len(long) and long[j] != b:
            j += 1
        if j == len(long):
            return False
        j += 1
    return True


@st.composite
def string_pairs(draw):
    """(short, long) over {0,1} or {0,1,2}: short drawn from long by
    deletions (a true subsequence), the same with one symbol changed, a
    random pair, or a short longer than long."""
    alphabet = draw(st.sampled_from(["01", "012"]))
    long = draw(st.text(alphabet, max_size=80))
    kind = draw(st.sampled_from(["deletions", "near", "random", "longer"]))
    if kind == "longer":
        return draw(st.text(alphabet, min_size=len(long) + 1, max_size=len(long) + 4)), long
    if kind == "random":
        return draw(st.text(alphabet, max_size=80)), long
    keep = draw(st.lists(st.booleans(), min_size=len(long), max_size=len(long)))
    short = "".join(b for b, k in zip(long, keep) if k)
    if kind == "near" and short:
        p = draw(st.integers(0, len(short) - 1))
        short = short[:p] + draw(st.sampled_from(alphabet)) + short[p + 1 :]
    return short, long


@settings(derandomize=True, database=None, max_examples=500, deadline=None)
@given(string_pairs())
@example(("", ""))
@example(("", "01"))
@example(("0", ""))
def test_subsequence_check_is_greedy_matching(pair):
    assert subsequence_check(*pair) == greedy_subsequence(*pair)


def test_subsequence_check_long_files():
    # 10^5 bits, 50 deleted zeros; one flipped bit gives B one more 1 than A
    rng = random.Random(50)
    a = format(rng.getrandbits(10**5), "0100000b")
    gone = set(rng.sample([i for i, b in enumerate(a) if b == "0"], 50))
    b = "".join(bit for i, bit in enumerate(a) if i not in gone)
    assert subsequence_check(b, a)
    p = b.index("0", len(b) // 2)
    off = b[:p] + "1" + b[p + 1 :]
    assert not subsequence_check(off, a)
    assert not greedy_subsequence(off, a)


# n = 2^k - 1, 2^k and 2^k + 1 are where a new bit plane of the positions
# starts or the top plane is cut short
PLANE_EDGES = sorted({m for k in range(10) for m in (2**k - 1, 2**k, 2**k + 1)} - {0})


def weighted_sum_syndrome(x):
    return sum(i for i, b in enumerate(x, 1) if b == "1") % (len(x) + 1)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.data())
def test_vt_syndrome_is_the_weighted_sum(data):
    n = data.draw(st.one_of(st.sampled_from(PLANE_EDGES), st.integers(1, 600)))
    x = format(data.draw(st.integers(0, (1 << n) - 1)), f"0{n}b")
    assert vt_syndrome(x).a == weighted_sum_syndrome(x)


def test_vt_syndrome_at_plane_edges():
    rng = random.Random(7)
    for n in PLANE_EDGES:
        for x in ("1" * n, ("10" * n)[:n], ("01" * n)[:n], format(rng.getrandbits(n), f"0{n}b")):
            assert vt_syndrome(x).a == weighted_sum_syndrome(x), (n, x)
