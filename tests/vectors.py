"""Shared worked-example vectors and the reference-decoder check used
across the test modules."""

from gccodes import (
    Failure,
    GcParams,
    Success,
    decode_case,
    decode_with_parities,
    enumerate_cases,
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


def check_against_reference(msg: str, region: str, ell: int, c: int, mode: str) -> None:
    """decode_with_parities on `region`, `msg` hit by edits, must equal
    decode_case run on every guess of enumerate_cases, witness included,
    and the true message must be among the candidates."""
    k = len(msg)
    kp = -(-k // ell)
    d = abs(len(region) - k)
    # decode_case reads only k, ell and k' from its params, so delta = 1
    # keeps them valid when d exceeds ell
    params = GcParams(k, ell, c, 1)
    syms = [int(msg[i * ell : (i + 1) * ell].ljust(ell, "0"), 2) for i in range(kp)]
    parities = SystematicCode(field(ell), kp, c).encode(syms)
    caps = None
    if mode == "deletions":
        caps = [ell] * (kp - 1) + [k - (kp - 1) * ell]
    expected = {}
    for a in enumerate_cases(kp, d, caps):
        got = decode_case(region, a, parities, params, mode)
        if got is not None and (got not in expected or a < expected[got]):
            expected[got] = a
    assert msg in expected
    out = decode_with_parities(region, k, ell, parities, mode)
    if isinstance(out, Success):
        assert expected == {out.message: out.witness}
    elif isinstance(out, Failure):
        assert out.candidates == frozenset(expected)
    else:
        assert expected == {}
