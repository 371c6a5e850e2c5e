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
parities afterwards with `SystematicCode.encode`.

The tail rules: after deletions every run is rounded up to whole groups
of delta+1, exact since no run loses delta+1 bits; after insertions one
greedy pass ends each group at the first value seen delta+1 times, exact
since no string embeds more groups and, with at most delta insertions,
at most one string embeds (the repetition code's insertion balls are
disjoint).

Bit strings are plain Python str objects over '0'/'1'.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, count
from operator import add, xor
from struct import pack, unpack
from typing import Sequence

from .channel import KINDS
from .mds import SystematicCode, locator, solve_erasures, systematic_code


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


def _block_parities(bits: str, ell: int, c: int) -> tuple[int, ...]:
    """The c MDS parity symbols of `bits` read as ell-bit blocks; the short
    last block is padded with zeros on the right for mapping only."""
    kp = -(-len(bits) // ell)
    symbols = _read_symbols(int(bits, 2), len(bits), 0, kp, ell, len(bits) - (kp - 1) * ell)
    return systematic_code(ell, kp, c).encode(symbols)


def _tile(pattern: int, width: int, span: int) -> int:
    """`pattern` repeated every `width` bits, by doubling, up to `span` bits."""
    while width < span:
        pattern |= pattern << width
        width *= 2
    return pattern


@lru_cache(maxsize=None)
def _spread_masks(ell: int, lanes: int) -> tuple[tuple[int, int], ...]:
    """(mask, shift) steps that move field j of `lanes` (a power of two)
    packed ell-bit fields to 16-bit lane j. A group of g fields already
    starts at its first lane; the step moves its upper g/2 fields up by
    (g/2)(16 - ell) bits, into bits the group leaves clear."""
    steps = []
    g = lanes
    while g > 1:
        h = g // 2
        steps.append((_tile(((1 << h * ell) - 1) << h * ell, 16 * g, 16 * lanes), h * (16 - ell)))
        g = h
    return tuple(steps)


def _read_symbols(X: int, n: int, off: int, kp: int, ell: int, last: int) -> tuple[int, ...]:
    """Symbols of blocks 0..kp-1 of the n-bit string whose int(bits, 2) is
    X, block i read as int(bits[off + i*ell:][:ell], 2) padded with zeros on
    the right to ell bits; see `_prefix_tables` for the edge rules. The
    window's fields are spread into 16-bit lanes by SWAR bit spreading
    (Hacker's Delight, ch. 7) and unpacked in one call."""
    sh = n - off - kp * ell  # bit of X at the window's low end
    W = X >> sh if sh >= 0 else X << -sh
    lead = -(min(off, 0) // ell)  # blocks that start before position 0
    W &= ((1 << (kp - lead) * ell) - 1) & -(1 << ell - last)
    for mask, step in _spread_masks(ell, 1 << (kp - 1).bit_length()):
        hi = W & mask
        W ^= hi ^ hi << step
    return unpack(f">{kp}H", W.to_bytes(2 * kp, "big"))


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
    """Decode a (rep)-repetition tail hit by insertions: the unique
    `groups`-bit string whose rep-fold repetition embeds in the remnant.

    One greedy pass: a group ends at the first bit where one value has
    occurred rep times since the group began, and that value is its bit.
    (a) Ending each group as early as possible leaves the longest suffix,
    so the pass embeds at least as many groups as any string does.
    (b) The caller guarantees 0 <= len(remnant) - groups*rep <= delta < rep,
    and in that range at most one `groups`-bit string embeds: the
    insertion balls of the repetition code are disjoint (Levenshtein: a
    code that corrects rep-1 deletions corrects rep-1 insertions).
    So when some string embeds, the pass finds exactly `groups` groups
    (one more would need rep more bits) and returns that string, whose
    repetition it has just embedded; otherwise it finds fewer and returns
    None, the same answer as a search over all strings."""
    out = []
    seen = {"0": 0, "1": 0}
    for b in remnant:
        seen[b] += 1
        if seen[b] == rep:
            out.append(b)
            seen["0"] = seen["1"] = 0
    return "".join(out) if len(out) == groups else None


def _recover_parities(
    received: str, params: GcParams, mode: str
) -> tuple[str, list[tuple[str, int]]]:
    deletions = mode == "deletions"
    d = params.n - len(received) if deletions else len(received) - params.n
    if not 0 <= d <= params.delta:
        raise ValueError(
            f"received length {len(received)} not within {params.delta} edits of n={params.n}"
        )
    rep_decode = _rep_decode_del if deletions else _rep_decode_ins
    found = []  # (parity bits, systematic prefix, d_s) of each feasible split
    for d_s in range(d + 1):
        split = params.k - d_s if deletions else params.k + d_s
        bits = rep_decode(received[split:], params.delta + 1, params.c * params.ell)
        if bits is not None:
            found.append((bits, received[:split], d_s))
    if not found:
        raise MalformedTail("no split yields a consistent repetition tail")
    # Within delta edits of a codeword every feasible split decodes the true
    # bits, so found[0][0] serves for all. Deletions: a split that takes tail
    # bits deletes fewer than rep of them in all, which rounding undoes; one
    # that takes message bits adds a group (infeasible) or changes no count.
    # Insertions: of this remnant and the true one, the longer ends with the
    # other, is under rep bits longer than the tail and embeds both rep-folds,
    # which the disjoint insertion balls then make equal.
    return found[0][0], [(prefix, d_s) for _, prefix, d_s in found]


def recover_parities_del(received: str, params: GcParams) -> tuple[str, list[tuple[str, int]]]:
    """Recover the c*ell parity bits from a deletion-hit codeword and list
    every feasible (systematic prefix, d_s) split of the boundary."""
    _check_bits(received)
    return _recover_parities(received, params, "deletions")


def recover_parities_ins(received: str, params: GcParams) -> tuple[str, list[tuple[str, int]]]:
    """Insertion-channel counterpart of recover_parities_del."""
    _check_bits(received)
    return _recover_parities(received, params, "insertions")


def _prefix_tables(bits: str, k: int, d: int, code: SystematicCode, deletions: bool):
    """T[s][r][i] = XOR of the parity-r terms of blocks 0..i-1 read at shift
    s = 0..d, the number of edits assumed before them: block i is read from
    bits[i*ell - s:] for deletions and bits[i*ell + s:] for insertions.
    `_read_symbols` reads each shift from X = int(bits, 2), parsed once: bits
    past the string read as 0, the last block keeps only its first
    k - (k'-1)*ell bits, and every block that starts before position 0
    reads as 0 (several when d > ell, which decode_with_parities allows).
    Unerased-block symbols depend only on (block, shift), so the terms of
    any unerased run of blocks at one shift are one table difference.

    `_decode` builds these once per decode on the whole received string,
    for the largest split d, and each split's `_scan` takes T[:d_s + 1]
    with its own region received[:k - d_s] (deletions) or
    received[:k + d_s] (insertions). An entry differs from the table built
    on the region only where a block read at shift s <= d_s runs past the
    region's end:
    - insertions: block k'-1 ends at k + s <= k + d_s; nothing differs.
    - deletions: block i <= k'-3 ends at (i+1)*ell - s <= k - ell - ell_last
      < k - d_s, as d_s <= delta <= ell. Block k'-2 ends at (k'-1)*ell - s,
      inside iff ell_last + s >= d_s; block k'-1 ends at k - s, inside iff
      s >= d_s. So T[d_s] is exact, and for s < d_s only T[s][r][k'] and,
      when ell_last + s < d_s, T[s][r][k'-1] differ.
    `_scan` uses neither. It reads index k' only of T[d_s] (in `Td` and the
    d = 0 guess); every other read is at an index <= k'-1. A value built
    from an index-(k'-1) read of T[s], s < d_s, serves only guesses whose
    last erased block is k'-1 with s edits before it: `last[s][r][k'-1]`,
    and `Tw[r][i + 1]` at i = k'-2 in the pair loop, which reaches i = k'-2
    only when jtop = k'. Such a guess puts d_s - s edits on block k'-1, and
    `top(d_s - s)` admits block k'-1 only when d_s - s <= ell_last, that
    is, exactly when the entry agrees."""
    gf = code.gf
    ell = gf.m
    exp, log = gf.exp, gf.log
    kp = code.k_prime
    X = int(bits or "0", 2)
    tables = []
    for s in range(d + 1):
        # infeasible (block, shift) pairs read junk here; it only ever
        # appears inside both terms of a table difference and cancels
        symbols = _read_symbols(X, len(bits), -s if deletions else s, kp, ell, k - (kp - 1) * ell)
        logs = list(map(log.__getitem__, symbols))
        T = [[0, *accumulate(symbols, xor)]]  # row r = 1: every column log is 0
        for cols in code.logcol[1:]:
            T.append([0, *accumulate(map(exp.__getitem__, map(add, logs, cols)), xor)])
        tables.append(T)
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
    T: list[list[list[int]]],
    k: int,
    code: SystematicCode,
    p: Sequence[int],
    deletions: bool,
    found: dict[str, tuple[int, ...]],
) -> None:
    """Try every assignment of d = len(T) - 1 edits to the blocks of this
    region of a k-bit message against the parities p of `code`; record
    accepted messages in `found` keyed by message, value =
    lexicographically smallest accepting assignment. T holds the prefix
    tables for shifts 0..d (`_prefix_tables`); `_decode` builds them once
    for all the splits, and the entries that differ from the region's own
    tables are never read here (see `_prefix_tables`).

    A guess erasing blocks i_1 < ... < i_z leaves the residual syndromes
    b_r = p_r + (parity-r terms of the unerased blocks) = sum_t X_t a_t^r,
    a_t = alpha^(i_t). It fits the parities iff its erasure locator
    P(x) = prod_t (x + a_t) annihilates every window,
    sum_t P_t b_(m+t) = 0 for m = 0 .. c-1-z (Forney's erasure test), so no
    guess is solved before it passes. For the last two erased blocks
    i < j, window 0 separates into terms in i and terms in j, and each i
    tests every j > i at once on 16-bit lanes of one Python int (SWAR:
    SIMD within a register).

    Those terms are linear in a_il, where il is the innermost block of a
    non-empty erased prefix. Its locator is P = Pp (x + a_il) for the
    parent prefix's locator Pp, so every window under P is
    R_(m+1) + a_il R_m, where R_m, the window under Pp, depends only on the
    parent and on the shifts of the final pair. Each parent builds its
    R_m once per (shift, w) and visits its children il = lo0, lo0 + 1, ...
    in ascending order. A child then builds only its two lists of i-side
    terms, and steps the packed j-side terms from a_il to a_(il+1) by
    lane-wise multiplications by alpha. The empty prefix has no parent;
    its terms are the windows under P = 1, the rows themselves.
    """
    gf = code.gf
    exp, log, e16 = gf.exp, gf.log, gf.exp16
    ell = gf.m
    poly = gf.poly
    fused = ell < 16  # every lane leaves bit 15 clear
    kp = code.k_prime
    cn = len(p)
    nlens = [ell] * (kp - 1) + [k - (kp - 1) * ell]
    d = len(T) - 1
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
        and record the message with its smallest accepting assignment."""
        X = solve_erasures(gf, [i for i, _ in entries], b)
        if X is None:
            return
        msg = _rebuild(region, ell, nlens, entries, X, deletions)
        if msg is not None:
            dense = [0] * kp
            for i, v in entries:
                dense[i] = v
            if msg not in found or tuple(dense) < found[msg]:
                found[msg] = tuple(dense)

    def lin(R: list[list[int]], x0: int, m: int) -> list[int]:
        """R_(m+1)[x] + a_x R_m[x] for the blocks x = x0, x0 + 1, ..."""
        return [r1 ^ exp[x + log[r0]] for x, r0, r1 in zip(count(x0), R[m], R[m + 1])]

    def terms(lp, Ts, Tw, Lw, lo, itop, jtop, M):
        """([F_m], [E_m]) for m < M: F_m = lin(W, m) on the blocks
        lo <= i < itop and E_m = lin(R, m) on lo < j < jtop, where W_m and
        R_m are the windows, under the locator with coefficient logs lp, of
        A0_r(i) = Ts[r][i] + Tw[r][i + 1] and of Lw[r][j]."""
        rows = len(lp) + M
        A0 = [[a ^ b for a, b in zip(Ts[r][lo:itop], Tw[r][lo + 1 :])] for r in range(rows)]
        V = [row[lo + 1 : jtop] for row in Lw[:rows]]
        W = [_window(lp, A0, m, gf) for m in range(M + 1)]
        R = [_window(lp, V, m, gf) for m in range(M + 1)]
        return [lin(W, lo, m) for m in range(M)], [lin(R, lo + 1, m) for m in range(M)]

    def lanes(values: list[int]) -> int:
        """values[p] in 16-bit lane p of one int"""
        return int.from_bytes(pack(f"<{len(values)}H", *values), "little")

    def times_alpha(X: int, ones: int) -> int:
        """Every lane of X times alpha, for any ell. Lane p's carry t out of
        bit ell - 1 lands on bit ell, or on bit 0 of lane p + 1 at ell = 16;
        t * (poly ^ 1) clears it there and folds in alpha^ell but for its
        constant term, which ^ t adds, so no two lanes' products meet."""
        t = X >> ell - 1 & ones
        return X << 1 ^ t * (poly ^ 1) ^ t

    def pairs(lo, itop, jtop, LC0, C1, Gp, Hp, kap, Ts, Tw, Lw, entries, w, u):
        """Window 0 of every final pair (i, w edits), (j, u edits) after the
        prefix `entries`, lo <= i < itop, i < j < jtop, is
        C_1(i) + a_j C_0(i) + G(j) + a_i H(j). LC0 holds log C_0(i) and C1
        holds C_1(i); 16-bit lane p of Gp is G(j) and of Hp is a_lo H(j) for
        block j = lo + 1 + p. kap[r] is b_r less the terms of i and j."""
        ones = ((1 << 16 * (jtop - lo - 1)) - 1) // 0xFFFF
        hi = ones << 15
        for i, lc0, c1 in zip(range(lo, itop), LC0, C1):
            # lane p of cp is a_j C_0(i) for j = i + 1 + p; pair (i, j)
            # passes iff lane p of x is zero. One borrow test flags every
            # zero lane at once, and also any lane of value 1 directly above
            # a flagged lane (the borrow out of the lane below wraps it);
            # such a pair reaches accept, whose solve_erasures re-tests
            # window 0 (c > z) and rejects it. hi keeps the first row's
            # lanes: when x < ones, x - ones is negative and every lane
            # above this row's top reads as a hit, so the first j >= jtop
            # ends the row
            cp = int.from_bytes(e16[2 * (lc0 + i + 1) : 2 * (lc0 + jtop)], "little")
            x = Gp ^ Hp ^ c1 * ones ^ cp
            hits = (x - ones) & ~x & hi
            while hits:  # lowest lane first
                j = i + ((hits & -hits).bit_length() >> 4)
                if j >= jtop:
                    break
                hits &= hits - 1
                accept(
                    [kap[r] ^ Ts[r][i] ^ Tw[r][i + 1] ^ Lw[r][j] for r in range(cn)],
                    entries + ((i, w), (j, u)),
                )
            # drop lane j = i + 1 and step a_i H(j) to a_(i+1) H(j). Below
            # ell = 16 bit 15 of every lane is clear, so Hp >> 15 does both
            # but leaves each lane's carry on its bit ell; that carry, read
            # as Hp >> 15 + ell, times poly (< 2^16) clears it and folds in
            # alpha^ell
            Gp >>= 16
            ones >>= 16
            if fused:
                Hp = Hp >> 15 ^ (Hp >> 15 + ell & ones) * poly
            else:
                Hp = times_alpha(Hp >> 16, ones)

    if d == 0:
        accept([pr ^ t[kp] for pr, t in zip(p, T[0])], ())
        return

    # one block j takes all d edits: locator x + a_j, window 0 is b_1 = a_j b_0
    b0, b1 = last[0][0], last[0][1]
    for j in range(top(d)):
        if b1[j] == exp[j + log[b0[j]]]:
            accept([row[j] for row in last[0]], ((j, d),))

    # the empty prefix, P = 1: window 0 of (x + a_i)(x + a_j) is
    # b_2 + (a_i + a_j) b_1 + a_i a_j b_0, so C_m = F_m, G = E_1 and H = E_0
    for w in range(1, d):
        u = d - w
        jtop = top(u)
        itop = min(top(w), jtop - 1)
        if itop > 0:
            F, E = terms([0], T[0], T[w], last[w], 0, itop, jtop, 2)
            LC0 = [log[x] for x in F[0]]
            pairs(
                0, itop, jtop, LC0, F[1], lanes(E[1]), lanes(E[0]),
                [0] * cn, T[0], T[w], last[w], (), w, u,
            )

    # non-empty erased prefixes, each leaving at least two edits for its
    # final pair, taken as the children of a parent prefix with more than
    # two edits left: (shift s0 after it, first free block lo0, terms K0_r
    # of the unerased blocks before lo0, per-block edits). Child il adds
    # block il >= lo0 with v edits, and its first free block is il + 1
    parents = [(0, 0, [0] * cn, ())] if d > 2 else []
    while parents:
        s0, lo0, K0, entries0 = parents.pop()
        Ts0 = T[s0]
        lp0 = [log[x] for x in locator(gf, [i for i, _ in entries0])]
        # Kc[r][il - lo0] = K0_r + terms of blocks lo0 .. il-1 at shift s0,
        # child il's K for any v
        Kc = [[kr ^ ts0[lo0] ^ t for t in ts0[lo0 : kp - 2]] for kr, ts0 in zip(K0, Ts0)]
        e0 = d - s0
        vmax = min(e0 - 2, ell) if deletions else e0 - 2
        for v in range(1, vmax + 1):
            s = s0 + v
            e = d - s
            Ts = T[s]
            # kap adds the terms of block il + 1 at shift s
            kap = [[x ^ t for x, t in zip(kc, ts[lo0 + 1 :])] for kc, ts in zip(Kc, Ts)]
            if e > 2:
                for il in range(lo0, kp - 2):
                    parents.append((s, il + 1, [kc[il - lo0] for kc in Kc], entries0 + ((il, v),)))
            # window m of kap under child il's locator Pp (x + a_il) is
            # lam_m = kw_(m+1) + a_il kw_m, with kw_m its window under Pp
            kw = [_window(lp0, kap, m, gf) for m in range(4)]
            lam = [lin(kw, lo0, m) for m in range(3)]
            Llam0 = [log[x] for x in lam[0]]
            Llam1 = [log[x] for x in lam[1]]
            for w in range(1, e):
                u = e - w
                jtop = top(u)
                itop = min(top(w), jtop - 1)
                if itop <= lo0 + 1:
                    continue
                Tw = T[s + w]
                Lw = last[s + w]
                # under Pp (x + a_il), child il has C_0(i) = F_1 + a_il F_0 +
                # lam_1 + a_i lam_0, C_1(i) = F_2 + a_il F_1 + lam_2 + a_i lam_1,
                # G = E_2 + a_il E_1 and a_(il+1) H = alpha (a_il E_1 +
                # a_il^2 E_0), with F and E taken under Pp. X1 carries a_il E_1
                # and Y carries alpha a_il^2 E_0 from il to il + 1
                (F0, F1, F2), (E0, E1, E2) = terms(lp0, Ts, Tw, Lw, lo0 + 1, itop, jtop, 3)
                LF0 = [log[x] for x in F0]
                LF1 = [log[x] for x in F1]
                E2p = lanes(E2)
                X1 = lanes([exp[lo0 + log[x]] for x in E1])
                ly = (2 * lo0 + 1) % (gf.q - 1)  # exp holds two periods only
                Y = lanes([exp[ly + log[x]] for x in E0])
                ones = ((1 << 16 * (jtop - lo0 - 2)) - 1) // 0xFFFF
                for ci, il in enumerate(range(lo0, itop - 1)):
                    lo = il + 1
                    ll0, l1, ll1, l2 = Llam0[ci], lam[1][ci], Llam1[ci], lam[2][ci]
                    I = range(lo, itop)
                    LC0 = [
                        log[f1 ^ exp[il + lf0] ^ l1 ^ exp[i + ll0]]
                        for i, f1, lf0 in zip(I, F1[ci:], LF0[ci:])
                    ]
                    C1 = [
                        f2 ^ exp[il + lf1] ^ l2 ^ exp[i + ll1]
                        for i, f2, lf1 in zip(I, F2[ci:], LF1[ci:])
                    ]
                    nx = times_alpha(X1, ones)  # a_(il+1) E_1
                    pairs(
                        lo, itop, jtop, LC0, C1, (E2p ^ X1) >> 16 * ci, (nx ^ Y) >> 16 * ci,
                        [kr[ci] for kr in kap], Ts, Tw, Lw, entries0 + ((il, v),), w, u,
                    )
                    X1 = nx
                    Y = times_alpha(times_alpha(Y, ones), ones)


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


def _decode(
    bits: str,
    splits: Sequence[tuple[str, int]],
    k: int,
    ell: int,
    parities: Sequence[int],
    deletions: bool,
) -> DecodeOutcome:
    """Pool the candidates of every (region, d_s) split of `bits`: the
    parity symbols must lie in the field, and the prefix tables are built
    once, for the largest d_s (`_prefix_tables`)."""
    code = systematic_code(ell, -(-k // ell), len(parities))  # checks k' + c <= q
    if any(not 0 <= s < code.gf.q for s in parities):
        raise ValueError(f"parity symbols must lie in [0, {code.gf.q})")
    T = _prefix_tables(bits, k, max(d_s for _, d_s in splits), code, deletions)
    found: dict[str, tuple[int, ...]] = {}
    for region, d_s in splits:
        _scan(region, T[: d_s + 1], k, code, parities, deletions, found)
    if not found:
        return NoCandidate()
    if len(found) == 1:
        return Success(*found.popitem())
    return Failure(frozenset(found))


def gc_decode(received: str, params: GcParams, mode: str = "deletions") -> DecodeOutcome:
    """Decode a codeword hit by up to delta deletions (or insertions).

    The edit count d is inferred from the length. Candidates are pooled
    over every feasible systematic/parity split and every assignment of
    the d systematic edits; Success needs exactly one distinct survivor.
    """
    if mode not in KINDS:
        raise ValueError(f"mode must be one of {KINDS}")
    _check_bits(received)
    try:
        parity_bits, splits = _recover_parities(received, params, mode)
    except MalformedTail:
        return NoCandidate()
    ell = params.ell
    parities = tuple(int(parity_bits[r * ell : (r + 1) * ell], 2) for r in range(params.c))
    return _decode(received, splits, params.k, ell, parities, mode == "deletions")


def decode_with_parities(
    received: str, k: int, ell: int, parities: Sequence[int], mode: str = "deletions"
) -> DecodeOutcome:
    """Decode a bare k-bit region from out-of-band parity symbols (no
    repetition tail; the edit count is k - len(received) for deletions).
    Used when parities travel over a separate reliable channel."""
    if mode not in KINDS:
        raise ValueError(f"mode must be one of {KINDS}")
    _check_bits(received)
    d = k - len(received) if mode == "deletions" else len(received) - k
    if d < 0:
        raise ValueError("received length inconsistent with mode")
    if len(parities) <= d:
        raise ValueError("need more than d parity symbols to decode d edits")
    return _decode(received, [(received, d)], k, ell, parities, mode == "deletions")


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
    decoded = code.decode_erasures(symbols, list(parities[:e]))

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
