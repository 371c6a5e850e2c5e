"""Shared worked-example vectors and the reference-decoder check used
across the test modules."""

from gccodes import (
    Failure,
    GcParams,
    Success,
    decode_case,
    decode_with_parities,
    enumerate_cases,
    gc_decode,
    recover_parities_del,
    recover_parities_ins,
)
from gccodes.gf import field
from gccodes.mds import SystematicCode

PARAMS_16 = GcParams(k=16, ell=4, c=2, delta=1)

# 16-bit message whose GF(16) symbol form is (a^11, 0, a^13, 1)
MSG_A = "1110000011010001"
PARITY_BITS_A = "00100111"  # MDS parities (a, a^10)
TAIL_A = "0000110000111111"  # parity bits after 2-fold repetition
CODEWORD_A = MSG_A + TAIL_A

# message with symbol form (a^13, 0, a^3, a^8); decoding it after deleting
# bit 14 leaves two surviving guesses, i.e. a reportable failure
MSG_B = "1101000010000101"
PARITY_BITS_B = "00000101"  # MDS parities (0, a^8)
CODEWORD_B = MSG_B + "0000000000110011"
MSG_B_OTHER = "1101100001000001"  # the competing candidate (a^13, a^3, a^2, 1)


def delete(bits: str, *positions: int) -> str:
    """Remove 1-indexed positions."""
    out = []
    drop = set(positions)
    for i, b in enumerate(bits, start=1):
        if i not in drop:
            out.append(b)
    return "".join(out)


RECEIVED_A = delete(CODEWORD_A, 14)  # 14th bit deleted, decodes uniquely
RECEIVED_B = delete(CODEWORD_B, 14)  # 14th bit deleted, decoding failure


def reference_candidates(splits, parities, k: int, ell: int, mode: str) -> dict:
    """{message: smallest accepting assignment} pooled over every
    (region, d) split and every guess of enumerate_cases for it, each
    decoded by decode_case on that split's region."""
    kp = -(-k // ell)
    caps = [ell] * (kp - 1) + [k - (kp - 1) * ell] if mode == "deletions" else None
    expected = {}
    for region, d in splits:
        for a in enumerate_cases(kp, d, caps):
            got = decode_case(region, a, parities, k, ell, mode)
            if got is not None and (got not in expected or a < expected[got]):
                expected[got] = a
    return expected


def assert_outcome(out, expected: dict) -> None:
    """A decoder outcome must report exactly the reference candidates, and
    on Success the reference's witness."""
    if isinstance(out, Success):
        assert expected == {out.message: out.witness}
    elif isinstance(out, Failure):
        assert out.candidates == frozenset(expected)
    else:
        assert expected == {}


def check_against_reference(msg: str, region: str, ell: int, c: int, mode: str) -> None:
    """decode_with_parities on `region`, `msg` hit by edits, must equal
    decode_case run on every guess of enumerate_cases, witness included,
    and the true message must be among the candidates."""
    k = len(msg)
    kp = -(-k // ell)
    syms = [int(msg[i * ell : (i + 1) * ell].ljust(ell, "0"), 2) for i in range(kp)]
    parities = SystematicCode(field(ell), kp, c).encode(syms)
    expected = reference_candidates([(region, abs(len(region) - k))], parities, k, ell, mode)
    assert msg in expected
    assert_outcome(decode_with_parities(region, k, ell, parities, mode), expected)


def check_gc_decode_against_splits(msg: str, received: str, params: GcParams, mode: str) -> None:
    """gc_decode on `received`, a codeword of `msg` hit by at most delta
    edits, must equal decode_case pooled over the splits of
    recover_parities_del/_ins, witness included, and keep the true
    message among its candidates."""
    recover = recover_parities_del if mode == "deletions" else recover_parities_ins
    parity_bits, splits = recover(received, params)
    ell = params.ell
    parities = [int(parity_bits[r * ell : (r + 1) * ell], 2) for r in range(params.c)]
    expected = reference_candidates(splits, parities, params.k, ell, mode)
    assert msg in expected
    assert_outcome(gc_decode(received, params, mode), expected)
