"""Property tests over drawn code parameters and bit strings.
The "tier1" profile of conftest.py derandomizes them, so every run of the
suite checks the same cases."""

import io
import os
import random
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gccodes import (
    GcParams,
    apply_edits,
    gc_encode,
    recover_parities_del,
    recover_parities_ins,
    sample_plan,
    subsequence_check,
    vt_syndrome,
)
from gccodes.cli import main
from gccodes.channel import KINDS
from gccodes.codec import _rep_decode_del, _rep_decode_ins

from vectors import (
    MSG_B,
    PARAMS_16,
    RECEIVED_B,
    check_against_reference,
    check_gc_decode_against_splits,
    check_sync_exact,
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
    mode = draw(st.sampled_from(KINDS))
    assume(d <= k + (mode == "insertions"))  # distinct edit positions
    msg = format(draw(st.integers(0, (1 << k) - 1)), f"0{k}b")
    plan = sample_plan(k, d, mode, seed=draw(st.integers(0, 2**32)))
    return msg, apply_edits(msg, plan), ell, c, mode


@settings(max_examples=400)
@given(edited_regions())
def test_scan_equals_reference_and_keeps_the_message(case):
    check_against_reference(*case)


@st.composite
def received_words(draw, max_ell=16):
    """(message, received, params, mode): a GC codeword hit by d <= delta <= 4
    edits, mostly delta, in the message or anywhere, tail included. Short
    last blocks (ell_last < delta) and single-block messages (k' = 1, so
    k <= ell) are drawn often."""
    ell = draw(st.integers(2, max_ell))
    delta = draw(st.integers(1, min(4, ell)))
    q = 1 << ell
    c = draw(st.integers(delta + 1, min(delta + 3, q - 1)))
    kp = draw(st.integers(1, min(q - c, 12 if delta <= 2 else 6)))
    ell_last = draw(st.one_of(st.integers(1, max(1, delta - 1)), st.integers(1, ell)))
    params = GcParams((kp - 1) * ell + ell_last, ell, c, delta)
    mode = draw(st.sampled_from(KINDS))
    msg = format(draw(st.integers(0, (1 << params.k) - 1)), f"0{params.k}b")
    word = gc_encode(msg, params)
    scope = draw(st.sampled_from(["systematic", "whole"]))
    d = min(delta - draw(st.integers(0, delta)), params.k if scope == "systematic" else delta)
    plan = sample_plan(len(word), d, mode, scope, draw(st.integers(0, 2**32)), params.k)
    return msg, apply_edits(word, plan), params, mode


@settings(max_examples=1000)
@given(received_words())
@example((MSG_B, RECEIVED_B, PARAMS_16, "deletions"))  # a decoding failure
def test_gc_decode_equals_per_split_reference(case):
    check_gc_decode_against_splits(*case)


@settings(max_examples=300)
@given(received_words(max_ell=8))
def test_every_feasible_split_decodes_the_true_parity_bits(case):
    # gc_decode reads the parity bits of the first feasible split only, and
    # checks every split against them (codec._recover_parities)
    msg, received, params, mode = case
    rep = params.delta + 1
    true_bits = gc_encode(msg, params)[params.k :: rep]
    recover = recover_parities_del if mode == "deletions" else recover_parities_ins
    rep_decode = _rep_decode_del if mode == "deletions" else _rep_decode_ins
    parity_bits, splits = recover(received, params)
    assert parity_bits == true_bits
    for prefix, d_s in splits:
        assert rep_decode(received[len(prefix) :], rep, len(true_bits)) == true_bits, d_s


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


@settings(max_examples=500)
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


@settings(max_examples=300)
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


@st.composite
def low_entropy_files(draw):
    """(file, positions): a file of up to four pieces, each constant,
    periodic with period 2-7, or long runs of random length, and d <= 8
    distinct 1-indexed positions to delete from it."""
    pieces = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["constant", "periodic", "runs"]))
        if kind == "runs":
            runs = draw(st.lists(st.integers(1, 400), min_size=1, max_size=12))
            bit = draw(st.sampled_from("01"))
            pieces.append("".join("01"[(int(bit) + t) % 2] * r for t, r in enumerate(runs)))
            continue
        n = draw(st.integers(1, 1500))
        period = 1 if kind == "constant" else draw(st.integers(2, 7))
        unit = draw(st.text("01", min_size=period, max_size=period))
        pieces.append((unit * n)[:n])
    fa = "".join(pieces)
    d = draw(st.integers(0, min(8, len(fa))))
    positions = draw(st.lists(st.integers(1, len(fa)), min_size=d, max_size=d, unique=True))
    return fa, tuple(sorted(positions))


@settings(max_examples=150)
@given(low_entropy_files())
def test_generated_low_entropy_files_synchronize_exactly(case):
    # anchors are often hit or ambiguous here, so the raw fallback and the
    # retries carry much of the load
    for mode in ("vt", "gc"):
        check_sync_exact(*case, mode)


CODE_16 = ["--k", "16", "--ell", "4", "--c", "2", "--delta", "1"]  # PARAMS_16
JUNK = st.sampled_from(["", "x", "1.5", "-3", "0", "7,2"])


@st.composite
def cli_calls(draw):
    """(argv, bit file text): a well-formed call of one command on a small
    code, then up to two breaks: a flag value replaced by junk, a flag
    dropped, a token added or the bit file replaced by drawn text.
    --trials, --workers and --file-bits stay small and --trials is never
    dropped (the default runs thousands of trials), so that no example
    allocates much memory or starts a process."""
    command = draw(st.sampled_from(["encode", "decode", "corrupt", "simulate", "sweep", "sync"]))
    ell = draw(st.integers(2, 5))
    delta = draw(st.integers(1, 2))
    c = draw(st.integers(delta + 1, min(delta + 2, (1 << ell) - 1)))
    params = GcParams(draw(st.integers(1, min(12, ell * ((1 << ell) - c)))), ell, c, delta)
    mode = draw(st.sampled_from(KINDS))
    text = draw(st.text("01", min_size=params.k, max_size=params.k))
    code = {"--k": params.k, "--ell": ell, "--c": c, "--delta": delta}
    fmt = draw(st.sampled_from(["csv", "json"]))
    runs = {"--trials": draw(st.integers(1, 2)), "--format": fmt}
    if command == "encode":
        flags = code
    elif command == "decode":
        word = gc_encode(text, params)
        d = draw(st.integers(0, delta))
        text = apply_edits(word, sample_plan(len(word), d, mode, seed=draw(st.integers(0, 99))))
        flags = {**code, "--mode": mode}
    elif command == "corrupt":
        scope = draw(st.sampled_from(["whole", "systematic"]))
        d = draw(st.integers(0, 3))
        flags = {"--delta": d, "--mode": mode, "--scope": scope, "--k": params.k}
    elif command == "simulate":
        flags = {**code, "--mode": mode, **runs}
    elif command == "sweep":
        grid = st.lists(st.sampled_from("2345"), min_size=1, max_size=2).map(",".join)
        grids = {"--ell-grid": draw(grid), "--c-grid": draw(grid)}
        flags = {"--k": params.k, "--delta": delta, **grids, "--mode": mode, **runs}
    else:
        sync_mode = draw(st.sampled_from(["vt", "gc", "both"]))
        size = {"--file-bits": draw(st.integers(1, 300)), "--d": draw(st.integers(0, 5))}
        flags = {**size, "--mode": sync_mode, **runs}
    flags = {f: str(v) for f, v in flags.items()}
    tokens = []
    for _ in range(draw(st.integers(0, 2))):
        how = draw(st.sampled_from(["junk", "drop", "token", "text", "flip"]))
        flag = draw(st.sampled_from(sorted(flags)))
        if how == "junk":
            flags[flag] = draw(JUNK)
        elif how == "drop" and flag != "--trials":
            del flags[flag]
        elif how == "token":
            tokens.append(draw(st.sampled_from(["--bogus", "extra", "--", "-x"])))
        elif how == "text":
            text = draw(st.text("01\n2a é", max_size=40))
        elif how == "flip" and text:
            pos = draw(st.integers(0, len(text) - 1))
            text = text[:pos] + "10"[text[pos] == "1"] + text[pos + 1 :]
    argv = [command, *(x for f, v in flags.items() for x in (f, v)), *tokens]
    return argv, text


@settings(max_examples=150)
@given(
    cli_calls(),
    st.sampled_from(["file", "file", "missing", "-", None]),
    st.sampled_from([None, None, "file", "dir"]),
)
@example((["decode", *CODE_16], RECEIVED_B), "file", None)  # exit 2
@example((["decode", *CODE_16], "01" * 15 + "0"), "-", None)  # exit 3
@example((["encode", *CODE_16], ""), "file", None)  # an empty bit file
def test_cli_exits_with_a_code_and_never_raises(call, source, target):
    argv, text = [*call[0]], call[1]
    if argv[0] not in ("encode", "decode", "corrupt"):
        source = None  # only these read a bit file
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "bits.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        if source is not None:
            argv += ["--in", {"file": path, "missing": path + ".gone"}.get(source, source)]
        if target is not None:
            argv += ["--out", os.path.join(tmp, "out.txt") if target == "file" else tmp]
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            with mock.patch("sys.stdin", io.StringIO(text)):  # read for "-" and no --in
                code = main(argv)  # an exception here is the traceback the CLI must not end in
    assert code in (0, 1, 2, 3)
