"""Guess-and-check codec for a constant number of deletions or insertions.

Encoding chunks the k-bit message into blocks of ell bits, maps each block
to a GF(2^ell) symbol, appends c systematic MDS parities, and protects only
the parity bits with a (delta+1)-fold repetition code. Decoding first
recovers the parity bits exactly from the repetition-coded tail, then tries
every way of distributing the missing/extra bits over the message blocks:
a guess survives only if the erasure locator of its assumed-hit blocks
annihilates its residual syndromes (the unused parities check out, tested
before any solve), and only then are the erased blocks solved and checked
for consistency (as a supersequence or subsequence) with the bits actually
received for them. The decoder reports success only when all surviving
guesses agree on one message, so it can fail to decode but never decodes
wrongly. The window test and the solve are both `mds.solve_erasures`.
`decode_case` is the independent single-guess reference: it takes one
guess, erasure-decodes it through `SystematicCode.decode_erasures` (the
same solver, given only the leading parities) and checks the unused
parities afterwards by evaluating them directly.

Bit strings are plain Python str objects over '0'/'1'.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import accumulate
from operator import add, xor
from struct import pack
from typing import Iterator, Sequence

from .gf import field
from .mds import SystematicCode, locator, solve_erasures

MODES = ("deletions", "insertions")


class MalformedTail(ValueError):
    """No split of the received string has a decodable repetition tail."""


@dataclass(frozen=True)
class GcParams:
    """Code parameters: message bits k, chunk bits ell, parity symbols c,
    design edit count delta. Redundancy is exactly c*(delta+1)*ell bits."""

    k: int
    ell: int
    c: int
    delta: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be positive")
        if not 2 <= self.ell <= 16:
            raise ValueError("ell must be in [2, 16] (GF(2^ell) backing)")
        if not self.c > self.delta >= 1:
            raise ValueError("need c > delta >= 1")
        if self.delta > self.ell:
            raise ValueError("delta must not exceed the chunk length ell")
        if self.k_prime + self.c > 1 << self.ell:
            raise ValueError(
                f"k'+c = {self.k_prime + self.c} exceeds field size {1 << self.ell}"
            )

    @property
    def k_prime(self) -> int:
        return -(-self.k // self.ell)

    @property
    def ell_last(self) -> int:
        return self.k - (self.k_prime - 1) * self.ell

    @property
    def n(self) -> int:
        return self.k + self.c * (self.delta + 1) * self.ell


@dataclass(frozen=True)
class Success:
    message: str
    witness: tuple[int, ...]  # one accepted per-block edit assignment


@dataclass(frozen=True)
class Failure:
    candidates: frozenset[str]  # >= 2 distinct decoded strings


@dataclass(frozen=True)
class NoCandidate:
    pass


DecodeOutcome = Success | Failure | NoCandidate


def _check_bits(s: str, what: str = "input") -> None:
    # bytes.translate deletes in one C pass; any other character survives it
    if s.encode("ascii", "replace").translate(None, b"01"):
        raise ValueError(f"{what} must contain only '0' and '1'")


def subsequence_check(short: str, long: str) -> bool:
    """True iff `short` is a subsequence of `long`, matched greedily.

    Each bit of `short` takes the first unused equal bit of `long`. Greedy
    matching skips bits of `long` only at a mismatch, and at most slack =
    len(long) - len(short) of them in all. So the scan alternates two
    C-level steps: `str.find` jumps to the next occurrence of the wanted
    bit, charging the bits it skipped to the slack, and galloping slice
    comparisons (steps 1, 2, 4, ... then halving) take the whole common
    run after it. That is O(e log n) slice operations for e skipped bits.
    The strings may be over any alphabet."""
    n = len(short)
    slack = len(long) - n
    i, j = 0, -1  # short[:i] is matched, its last bit at long[j]
    while i < n:
        k = long.find(short[i], j + 1)
        slack -= k - j - 1
        if k < 0 or slack < 0:
            return False
        i, j, step = i + 1, k, 1
        while i + step <= n and short[i : i + step] == long[j + 1 : j + 1 + step]:
            i, j, step = i + step, j + step, 2 * step
        while step > 1:
            step //= 2
            if i + step <= n and short[i : i + step] == long[j + 1 : j + 1 + step]:
                i, j = i + step, j + step
    return True


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


def gc_encode(message: str, params: GcParams) -> str:
    """Systematic codeword: the message followed by the repetition-coded
    parity bits; |codeword| = params.n."""
    _check_bits(message, "message")
    if len(message) != params.k:
        raise ValueError(f"message must be {params.k} bits, got {len(message)}")
    ell = params.ell
    parity_bits = "".join(format(p, f"0{ell}b") for p in _block_parities(message, ell, params.c))
    tail = "".join(b * (params.delta + 1) for b in parity_bits)
    return message + tail


def _block_parities(bits: str, ell: int, c: int) -> list[int]:
    """The c MDS parity symbols of `bits` read as ell-bit blocks; the short
    last block is padded with zeros on the right for mapping only."""
    chunks = [bits[i : i + ell] for i in range(0, len(bits), ell)]
    symbols = [int(ch, 2) << (ell - len(ch)) for ch in chunks]
    return SystematicCode(field(ell), len(symbols), c).encode(symbols)


_RUNS = re.compile("0+|1+")


def _rep_decode_del(remnant: str, rep: int, needed: int) -> str | None:
    """Decode a (rep)-repetition tail hit by deletions.

    Each maximal run of length L stems from ceil(L/rep) repeated bits as
    long as at most rep-1 deletions occurred, so rounding every run up
    recovers the bit values exactly. Returns None unless the runs account
    for exactly `needed` decoded bits (the split being tried is then
    inconsistent)."""
    out = "".join(r[0] * -(-len(r) // rep) for r in _RUNS.findall(remnant))
    return out if len(out) == needed else None


def _rep_decode_ins(remnant: str, rep: int, groups: int) -> str | None:
    """Decode a (rep)-repetition tail hit by insertions: find the unique
    `groups`-bit string whose rep-fold repetition embeds in the remnant.
    Greedy leftmost matching per group with depth-first backtracking over
    the group bit, '0' first; memoizes dead (position, group) states. The
    search is iterative, since groups can outnumber Python's recursion
    limit."""
    n = len(remnant)
    extra = n - groups * rep
    if extra < 0:
        return None
    dead: set[tuple[int, int]] = set()
    start = [0] * groups  # where the open group g began matching
    tried = [0] * groups  # how many of the bits "01" group g has tried
    g = 0
    while g >= 0:
        t = tried[g]
        if t == 2:
            dead.add((start[g], g))
            g -= 1
            continue
        tried[g] = t + 1
        b = "01"[t]
        j = start[g]
        need = rep
        while j < n and need:
            if remnant[j] == b:
                need -= 1
            j += 1
        if need == 0 and j - (g + 1) * rep <= extra:
            if g + 1 == groups:
                # leftover bits are exactly the remaining insertions
                return "".join("01"[t - 1] for t in tried)
            if (j, g + 1) not in dead:
                g += 1
                start[g] = j
                tried[g] = 0
    return None


def _recover_parities(
    received: str, params: GcParams, mode: str
) -> tuple[str, list[tuple[str, int]]]:
    rep = params.delta + 1
    needed = params.c * params.ell
    k = params.k
    if mode == "deletions":
        d = params.n - len(received)
    else:
        d = len(received) - params.n
    if not 0 <= d <= params.delta:
        raise ValueError(
            f"received length {len(received)} not within {params.delta} edits of n={params.n}"
        )
    parity_bits = None
    splits = []
    for d_s in range(d + 1):
        split = k - d_s if mode == "deletions" else k + d_s
        remnant = received[split:]
        if mode == "deletions":
            bits = _rep_decode_del(remnant, rep, needed)
        else:
            bits = _rep_decode_ins(remnant, rep, needed)
        if bits is None:
            continue
        if parity_bits is None:
            parity_bits = bits
        splits.append((received[:split], d_s))
    if parity_bits is None:
        raise MalformedTail("no split yields a consistent repetition tail")
    return parity_bits, splits


def recover_parities_del(received: str, params: GcParams) -> tuple[str, list[tuple[str, int]]]:
    """Recover the c*ell parity bits from a deletion-hit codeword and list
    every feasible (systematic prefix, d_s) split of the boundary."""
    _check_bits(received)
    return _recover_parities(received, params, "deletions")


def recover_parities_ins(received: str, params: GcParams) -> tuple[str, list[tuple[str, int]]]:
    """Insertion-channel counterpart of recover_parities_del."""
    _check_bits(received)
    return _recover_parities(received, params, "insertions")


def _prefix_tables(region: str, nlens: list[int], d: int, logcol, gf, sign: int):
    """T[s][r][i] = XOR of the parity-r terms of blocks 0..i-1 read at shift
    s, the number of edits assumed before them. Unerased-block symbols
    depend only on (block, shift), so the terms of any unerased run of
    blocks at one shift are one table difference."""
    ell = gf.m
    exp, log = gf.exp, gf.log
    tables = []
    for s in range(d + 1):
        off = sign * s
        # infeasible (block, shift) pairs read junk here; it only ever
        # appears inside both terms of a table difference and cancels
        chunks = [
            region[st : st + ell] if st >= 0 else ""
            for st in range(off, off + len(nlens) * ell, ell)
        ]
        chunks[-1] = chunks[-1][: nlens[-1]]
        logs = [log[int(ch or "0", 2) << (ell - len(ch))] for ch in chunks]
        tables.append(
            [[0, *accumulate(map(exp.__getitem__, map(add, logs, cols)), xor)] for cols in logcol]
        )
    return tables


def _window(lp: list[int], rows: list[list[int]], m: int, gf) -> list[int]:
    """Elementwise sum_t P_t * rows[m + t] for a monic P given by its
    coefficient logs `lp`."""
    exp, log = gf.exp, gf.log
    y = len(lp) - 1
    out = rows[m + y]
    for t in range(y):
        lt = lp[t]
        out = [o ^ exp[lt + log[x]] for o, x in zip(out, rows[m + t])]
    return out


def _scan(
    region: str,
    k: int,
    code: SystematicCode,
    d: int,
    p: Sequence[int],
    deletions: bool,
    found: dict[str, tuple[int, ...]],
) -> None:
    """Try every assignment of d edits to the blocks of this region of a
    k-bit message against the parities p of `code`; record accepted
    messages in `found` keyed by message, value = lexicographically
    smallest accepting assignment.

    A guess erasing blocks i_1 < ... < i_z leaves the residual syndromes
    b_r = p_r + (parity-r terms of the unerased blocks) = sum_t X_t a_t^r,
    a_t = alpha^(i_t). It fits the parities iff its erasure locator
    P(x) = prod_t (x + a_t) annihilates every window,
    sum_t P_t b_(m+t) = 0 for m = 0 .. c-1-z (Forney's erasure test), so no
    guess is solved before it passes. For the last two erased blocks
    i < j, window 0 separates into terms in i and terms in j, built once
    per erased prefix, and each i tests every j > i at once on 16-bit lanes
    of one Python int (SWAR: SIMD within a register).
    """
    gf = code.gf
    exp, log, e16 = gf.exp, gf.log, gf.exp16
    ell = gf.m
    fb = gf.poly ^ gf.q  # alpha^ell as a field element
    kp = code.k_prime
    cn = len(p)
    nlens = [ell] * (kp - 1) + [k - (kp - 1) * ell]
    T = _prefix_tables(region, nlens, d, code.logcol, gf, -1 if deletions else 1)
    Td = T[d]
    # last[s][r][j] = p_r + terms of blocks before j at shift s + terms of
    # the blocks after j at shift d: b_r of a guess whose last erased block
    # is j, as if every block before j were unerased and read at shift s
    last = [
        [[pr ^ td[kp] ^ a ^ b for a, b in zip(ts, td[1:])] for pr, ts, td in zip(p, Ts, Td)]
        for Ts in T[:d]
    ]

    def top(v: int) -> int:
        """Blocks 0 .. top(v)-1 can take v edits: a block cannot lose more
        bits than it has, and only the last block can be shorter than ell."""
        if not deletions or v <= nlens[-1]:
            return kp
        return kp - 1 if v <= ell else 0

    def accept(b: list[int], entries: tuple[tuple[int, int], ...]) -> None:
        """Check every window and solve the erased symbols, then rebuild
        and record."""
        X = solve_erasures(gf, [i for i, _ in entries], b)
        if X is None:
            return
        msg = _rebuild(region, ell, nlens, entries, X, deletions)
        if msg is not None:
            dense = [0] * kp
            for i, v in entries:
                dense[i] = v
            _record(found, msg, tuple(dense))

    if d == 0:
        accept([pr ^ t[kp] for pr, t in zip(p, T[0])], ())
        return

    # one block j takes all d edits: locator x + a_j, window 0 is b_1 = a_j b_0
    b0, b1 = last[0][0], last[0][1]
    for j in range(top(d)):
        if b1[j] == exp[j + log[b0[j]]]:
            accept([row[j] for row in last[0]], ((j, d),))

    # erased-block prefixes, each leaving at least two edits for its final
    # pair: (shift s after it, first free block lo, terms K_r of the
    # unerased blocks before lo, per-block edits)
    work = [(0, 0, [0] * cn, ())]
    while work:
        s, lo, K, entries = work.pop()
        e = d - s
        Ts = T[s]
        if e > 2:
            vmax = min(e - 2, ell) if deletions else e - 2
            for i in range(lo, kp - 2):
                Ki = [kr ^ ts[lo] ^ ts[i] for kr, ts in zip(K, Ts)]
                for v in range(1, vmax + 1):
                    work.append((s + v, i + 1, Ki, entries + ((i, v),)))

        lp = [log[v] for v in locator(gf, [i for i, _ in entries])]  # prefix locator P
        rows = len(lp) + 2  # window 0 of the full locator reads b_0 .. b_(deg P + 2)
        for w in range(1, e):
            u = e - w
            jtop = top(u)
            itop = min(top(w), jtop - 1)
            if itop <= lo:
                continue
            Tw = T[s + w]
            Lw = last[s + w]
            A = [
                [K[r] ^ Ts[r][lo] ^ a ^ b for a, b in zip(Ts[r][lo:itop], Tw[r][lo + 1 :])]
                for r in range(rows)
            ]
            I = range(lo, itop)
            J = range(lo + 1, jtop)
            D0, D1, D2 = (_window(lp, A, m, gf) for m in range(3))
            V0, V1, V2 = (
                _window(lp, [row[lo + 1 : jtop] for row in Lw[:rows]], m, gf) for m in range(3)
            )
            # window 0 of P(x)(x + a_i)(x + a_j) = R_1 + a_j R_0 regroups as
            # C_1(i) + a_j C_0(i) + G(j) + a_i H(j), C_m = D_(m+1) + a_i D_m,
            # H = V_1 + a_j V_0 and G = V_2 + a_j V_1
            LC0 = [log[d1 ^ exp[i + log[d0]]] for i, d0, d1 in zip(I, D0, D1)]
            C1 = [d2 ^ exp[i + log[d1]] for i, d1, d2 in zip(I, D1, D2)]
            LH = [log[v1 ^ exp[j + log[v0]]] for j, v0, v1 in zip(J, V0, V1)]
            G = [v2 ^ exp[j + log[v1]] for j, v1, v2 in zip(J, V1, V2)]
            # 16-bit lane p of these ints is block j = i + 1 + p: Gp packs G(j),
            # Hp a_i H(j) and cp a_j C_0(i). Pair (i, j) passes iff lane p of x
            # is zero, which one carry test finds for every lane at once
            n = jtop - lo - 1
            ones = ((1 << 16 * n) - 1) // 0xFFFF
            Gp = int.from_bytes(pack(f"<{n}H", *G), "little")
            Hp = int.from_bytes(pack(f"<{n}H", *[exp[lo + lh] for lh in LH]), "little")
            for i, lc0, c1 in zip(I, LC0, C1):
                cp = int.from_bytes(e16[2 * (lc0 + i + 1) : 2 * (lc0 + jtop)], "little")
                x = Gp ^ Hp ^ c1 * ones ^ cp
                low = ones * 0x7FFF
                hits = ~((x & low) + low | x) & ones << 15
                while hits:  # lowest lane first
                    j = i + ((hits & -hits).bit_length() >> 4)
                    hits &= hits - 1
                    accept(
                        [
                            K[r] ^ Ts[r][lo] ^ Ts[r][i] ^ Tw[r][i + 1] ^ Lw[r][j]
                            for r in range(cn)
                        ],
                        entries + ((i, w), (j, u)),
                    )
                # drop lane j = i + 1 and step a_i H(j) to a_(i+1) H(j)
                Gp >>= 16
                Hp >>= 16
                ones >>= 16
                t = Hp >> ell - 1 & ones
                Hp = (Hp ^ t << ell - 1) << 1 ^ t * fb


def _rebuild(
    region: str,
    ell: int,
    nlens: list[int],
    entries: Sequence[tuple[int, int]],
    X: list[int],
    deletions: bool,
) -> str | None:
    """Criterion-2 verification plus message assembly for a surviving guess:
    unerased runs are copied from the region, erased blocks are decoded."""
    parts = []
    pos = 0
    nxt = 0  # first block not yet placed
    for (i, v), x in zip(entries, X):
        run = (i - nxt) * ell  # only the last block can be short
        parts.append(region[pos : pos + run])
        pos += run
        nl = nlens[i]
        clen = nl - v if deletions else nl + v
        chunk = region[pos : pos + clen]
        decoded = format(x, f"0{ell}b")
        content = decoded[:nl]
        if nl < ell and "1" in decoded[nl:]:
            return None  # padding bits of the last block must be zero
        if deletions:
            if not subsequence_check(chunk, content):
                return None
        else:
            if not subsequence_check(content, chunk):
                return None
        parts.append(content)
        pos += clen
        nxt = i + 1
    parts.append(region[pos:])
    return "".join(parts)


def _record(found: dict[str, tuple[int, ...]], msg: str, dense: tuple[int, ...]) -> None:
    cur = found.get(msg)
    if cur is None or dense < cur:
        found[msg] = dense


def _outcome(found: dict[str, tuple[int, ...]]) -> DecodeOutcome:
    if not found:
        return NoCandidate()
    if len(found) == 1:
        msg, witness = next(iter(found.items()))
        return Success(msg, witness)
    return Failure(frozenset(found))


def gc_decode(received: str, params: GcParams, mode: str = "deletions") -> DecodeOutcome:
    """Decode a codeword hit by up to delta deletions (or insertions).

    The edit count d is inferred from the length. Candidates are pooled
    over every feasible systematic/parity split and every assignment of
    the d systematic edits; Success needs exactly one distinct survivor.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    _check_bits(received)
    try:
        parity_bits, splits = _recover_parities(received, params, mode)
    except MalformedTail:
        return NoCandidate()
    code = SystematicCode(field(params.ell), params.k_prime, params.c)
    parities = tuple(
        int(parity_bits[r * params.ell : (r + 1) * params.ell], 2) for r in range(params.c)
    )
    found: dict[str, tuple[int, ...]] = {}
    for region, d_s in splits:
        _scan(region, params.k, code, d_s, parities, mode == "deletions", found)
    return _outcome(found)


def decode_with_parities(
    received: str, k: int, ell: int, parities: Sequence[int], mode: str = "deletions"
) -> DecodeOutcome:
    """Decode a bare k-bit region from out-of-band parity symbols (no
    repetition tail; the edit count is k - len(received) for deletions).
    Used when parities travel over a separate reliable channel."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    _check_bits(received)
    d = k - len(received) if mode == "deletions" else len(received) - k
    if d < 0:
        raise ValueError("received length inconsistent with mode")
    if len(parities) <= d:
        raise ValueError("need more than d parity symbols to decode d edits")
    code = SystematicCode(field(ell), -(-k // ell), len(parities))  # checks k' + c <= q
    if any(not 0 <= s < code.gf.q for s in parities):
        raise ValueError(f"parity symbols must lie in [0, {code.gf.q})")
    found: dict[str, tuple[int, ...]] = {}
    _scan(received, k, code, d, parities, mode == "deletions", found)
    return _outcome(found)


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
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    deletions = mode == "deletions"
    code = SystematicCode(field(ell), -(-k // ell), len(parities))  # checks k' + c <= q
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
    decoded = code.decode_erasures(symbols, list(parities[:e]))

    for r in range(e + 1, len(parities) + 1):
        if code.parity(decoded, r) != parities[r - 1]:
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
