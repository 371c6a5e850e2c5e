"""Shared worked-example vectors, the single-guess reference decoder with
its erasure decoder, the guess enumerator and reference-decoder check, and
the exact-sync check used across the test modules."""

from typing import Iterator, Sequence

from gccodes import (
    EditPlan,
    Failure,
    GcParams,
    Success,
    SyncConfig,
    apply_edits,
    decode_with_parities,
    gc_decode,
    recover_parities_del,
    recover_parities_ins,
    run_sync,
    subsequence_check,
)
from gccodes.channel import KINDS
from gccodes.gf import field
from gccodes.mds import SystematicCode, solve_erasures, systematic_code

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


def decode_erasures(
    code: SystematicCode, symbols: Sequence[int | None], parities: Sequence[int]
) -> list[int]:
    """Fill in erased (None) positions using the first e parity values.

    Exactly e parities must be supplied, e = number of erasures.
    """
    erased = tuple(j for j, s in enumerate(symbols) if s is None)
    e = len(erased)
    if len(parities) != e:
        raise ValueError(f"{e} erasures need exactly the first {e} parities")
    if e > len(code.logcol):
        raise ValueError(f"{e} erasures exceed {len(code.logcol)} parities")
    # parities of the unerased symbols alone; encode checks the length
    known = code.encode([s or 0 for s in symbols])
    rhs = [p ^ k for p, k in zip(parities, known)]
    out = list(symbols)
    for j, x in zip(erased, solve_erasures(code.gf, erased, rhs)):  # type: ignore[arg-type]
        out[j] = x
    return out  # type: ignore[return-value]


def decode_case(
    systematic_region: str,
    assignment: Sequence[int],
    parities: Sequence[int],
    k: int,
    ell: int,
    mode: str = "deletions",
) -> str | None:
    """Reference single-guess decoder for a k-bit message in ell-bit blocks:
    chunk the region per the assignment, erasure-decode the assumed-hit
    blocks with the leading parities, and accept only if the unused
    parities and the per-block checks pass. Returns the candidate message,
    or None when the guess is impossible; the scan is its optimized form."""
    if mode not in KINDS:
        raise ValueError(f"mode must be one of {KINDS}")
    deletions = mode == "deletions"
    code = systematic_code(ell, -(-k // ell), len(parities))  # checks k' + c <= q
    kp = code.k_prime
    if len(assignment) != kp:
        raise ValueError(f"assignment must have {kp} entries")
    if any(v < 0 for v in assignment):
        raise ValueError("assignment entries must be non-negative")
    d = sum(assignment)
    expected = k - d if deletions else k + d
    if len(systematic_region) != expected:
        raise ValueError(f"region must be {expected} bits for this assignment")

    nlens = [ell] * (kp - 1) + [k - (kp - 1) * ell]
    chunks = []
    pos = 0
    for nl, v in zip(nlens, assignment):
        clen = nl - v if deletions else nl + v
        if clen < 0:
            return None  # block cannot lose more bits than it has
        chunks.append(systematic_region[pos : pos + clen])
        pos += clen

    symbols: list[int | None] = []
    for i, (chunk, v) in enumerate(zip(chunks, assignment)):
        if v > 0:
            symbols.append(None)
        else:
            symbols.append(int(chunk, 2) << (ell - len(chunk)) if chunk else 0)
    e = sum(1 for s in symbols if s is None)
    decoded = decode_erasures(code, symbols, list(parities[:e]))

    if code.encode(decoded)[e:] != tuple(parities[e:]):
        return None

    parts = []
    for i, (chunk, v) in enumerate(zip(chunks, assignment)):
        nl = nlens[i]
        if v == 0:
            parts.append(chunk)
            continue
        bits = format(decoded[i], f"0{ell}b")
        content = bits[:nl]
        if nl < ell and "1" in bits[nl:]:
            return None
        if deletions:
            if not subsequence_check(chunk, content):
                return None
        else:
            if not subsequence_check(content, chunk):
                return None
        parts.append(content)
    return "".join(parts)


def enumerate_cases(
    k_prime: int, d: int, block_caps: Sequence[int] | None = None
) -> Iterator[tuple[int, ...]]:
    """All weak compositions of d edits over k_prime blocks, in lexicographic
    order, skipping compositions that exceed a per-block cap."""
    if k_prime < 1:
        raise ValueError("k_prime must be positive")
    if d < 0:
        raise ValueError("edit count must be non-negative")
    counts = [0] * k_prime
    counts[-1] = d
    q = k_prime - 1  # index of the last nonzero entry (d > 0)
    while True:
        if block_caps is None or all(v <= cap for v, cap in zip(counts, block_caps)):
            yield tuple(counts)
        if q == 0 or d == 0:
            return
        v = counts[q]
        counts[q] = 0
        counts[q - 1] += 1
        r = v - 1
        counts[-1] = r
        q = k_prime - 1 if r else q - 1


def reference_candidates(splits, parities, k: int, ell: int, mode: str) -> set[str]:
    """The messages decoded by decode_case, pooled over every (region, d)
    split and every guess of enumerate_cases for it."""
    kp = -(-k // ell)
    caps = [ell] * (kp - 1) + [k - (kp - 1) * ell] if mode == "deletions" else None
    found = {
        decode_case(region, a, parities, k, ell, mode)
        for region, d in splits
        for a in enumerate_cases(kp, d, caps)
    }
    found.discard(None)
    return found


def assert_outcome(out, expected: set[str]) -> None:
    """A decoder outcome must report exactly the reference candidates."""
    if isinstance(out, Success):
        assert expected == {out.message}
    elif isinstance(out, Failure):
        assert out.candidates == expected
    else:
        assert expected == set()


def check_against_reference(msg: str, region: str, ell: int, c: int, mode: str) -> None:
    """decode_with_parities on `region`, `msg` hit by edits, must equal
    decode_case run on every guess of enumerate_cases, and the true
    message must be among the candidates."""
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
    recover_parities_del/_ins, and keep the true message among its
    candidates."""
    recover = recover_parities_del if mode == "deletions" else recover_parities_ins
    parity_bits, splits = recover(received, params)
    ell = params.ell
    parities = [int(parity_bits[r * ell : (r + 1) * ell], 2) for r in range(params.c)]
    expected = reference_candidates(splits, parities, params.k, ell, mode)
    assert msg in expected
    assert_outcome(gc_decode(received, params, mode), expected)


def check_sync_exact(fa: str, positions: tuple[int, ...], mode: str) -> None:
    """check_sync_pair on A less the 1-indexed `positions`."""
    check_sync_pair(fa, apply_edits(fa, EditPlan("deletions", positions)), SyncConfig(mode=mode))


def check_sync_pair(fa: str, fb: str, config: SyncConfig) -> None:
    """run_sync must rebuild file A from file B, and its ledger must add up:
    rounds in order, the per-direction and raw fallback bits equal to the
    totals."""
    stats = run_sync(fa, fb, config)
    where = (fa, fb, config)
    assert stats.success, where
    rounds = [r for r, _, _, _ in stats.ledger]
    assert rounds == sorted(rounds), where
    assert stats.rounds == max(rounds), where
    a2b = sum(b for _, d, _, b in stats.ledger if d == "a2b")
    b2a = sum(b for _, d, _, b in stats.ledger if d == "b2a")
    assert (a2b, b2a) == (stats.bits_a_to_b, stats.bits_b_to_a), where
    assert stats.fallback_bits == sum(b for _, _, kind, b in stats.ledger if kind == "raw"), where
