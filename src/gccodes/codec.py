"""Guess-and-check codec for a constant number of deletions or insertions.

Encoding chunks the k-bit message into blocks of ell bits, maps each block
to a GF(2^ell) symbol, appends c systematic MDS parities, and protects only
the parity bits with a (delta+1)-fold repetition code. Decoding first
recovers the parity bits exactly from the repetition-coded tail, then tries
every way of distributing the missing/extra bits over the message blocks:
each guess erasure-decodes the assumed-hit blocks and survives only if the
unused parities check out and each decoded block is consistent (as a
supersequence or subsequence) with the bits actually received for it. The
decoder reports success only when all surviving guesses agree on one
message, so it can fail to decode but never decodes wrongly.

Bit strings are plain Python str objects over '0'/'1'.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement
from typing import Iterator, Sequence

from .gf import field
from .mds import SystematicCode, erasure_inverse

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
    if s.strip("01"):
        raise ValueError(f"{what} must contain only '0' and '1'")


def subsequence_check(short: str, long: str) -> bool:
    """True iff `short` is a subsequence of `long` (greedy two-pointer scan)."""
    if len(short) > len(long):
        return False
    it = iter(long)
    return all(b in it for b in short)


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
    gf = field(ell)
    symbols = []
    for i in range(params.k_prime):
        chunk = message[i * ell : (i + 1) * ell]
        # the last block is padded with zeros on the right for mapping only
        symbols.append(int(chunk, 2) << (ell - len(chunk)))
    code = SystematicCode(gf, params.k_prime, params.c)
    parity_bits = "".join(gf.to_bits(p) for p in code.encode(symbols))
    tail = "".join(b * (params.delta + 1) for b in parity_bits)
    return message + tail


def _rep_decode_del(remnant: str, rep: int, needed: int) -> str | None:
    """Decode a (rep)-repetition tail hit by deletions.

    Each maximal run of length L stems from ceil(L/rep) repeated bits as
    long as at most rep-1 deletions occurred, so rounding every run up
    recovers the bit values exactly. Returns None unless the runs account
    for exactly `needed` decoded bits (the split being tried is then
    inconsistent)."""
    out = []
    total = 0
    i = 0
    n = len(remnant)
    while i < n:
        b = remnant[i]
        j = i + 1
        while j < n and remnant[j] == b:
            j += 1
        copies = (j - i + rep - 1) // rep
        total += copies
        if total > needed:
            return None
        out.append(b * copies)
        i = j
    return "".join(out) if total == needed else None


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


class _Decoder:
    """Case-scanning engine shared by gc_decode and decode_with_parities.

    Unerased-block symbols depend only on (block, shift) where the shift is
    the number of edits assumed before the block, so per-shift prefix XOR
    tables of parity terms make each guess O(c * z) instead of O(c * k').
    """

    def __init__(self, k: int, ell: int, c: int):
        self.k = k
        self.ell = ell
        self.c = c
        self.kp = -(-k // ell)
        self.ell_last = k - (self.kp - 1) * ell
        self.gf = field(ell)
        self.code = SystematicCode(self.gf, self.kp, c)
        self.starts = [i * ell for i in range(self.kp)]
        self.nlens = [ell] * (self.kp - 1) + [self.ell_last]

    def _tables(self, region: str, d: int, cn: int, sign: int):
        kp, ell = self.kp, self.ell
        starts, nlens = self.starts, self.nlens
        exp, log = self.gf.exp, self.gf.log
        logcol = self.code.logcol
        sym = []
        for s in range(d + 1):
            off = sign * s
            row = []
            for i in range(kp):
                st = starts[i] + off
                if st < 0:
                    row.append(0)
                    continue
                ch = region[st : st + nlens[i]]
                # infeasible (block, shift) pairs produce junk values here;
                # they only ever appear inside both terms of a prefix
                # difference and cancel
                row.append(int(ch, 2) << (ell - len(ch)) if ch else 0)
            sym.append(row)
        tables = []
        for r in range(cn):
            lcr = logcol[r]
            per_shift = []
            for s in range(d + 1):
                symrow = sym[s]
                acc = 0
                pref = [0] * (kp + 1)
                for i in range(kp):
                    v = symrow[i]
                    if v:
                        acc ^= exp[log[v] + lcr[i]]
                    pref[i + 1] = acc
                per_shift.append(pref)
            tables.append(per_shift)
        return tables

    def scan(
        self,
        region: str,
        d: int,
        parities: Sequence[int],
        mode: str,
        found: dict[str, tuple[int, ...]],
    ) -> None:
        """Run every edit assignment for this region; record accepted
        messages in `found` keyed by message, value = lexicographically
        smallest accepting assignment."""
        kp = self.kp
        cn = len(parities)
        sign = -1 if mode == "deletions" else 1
        tables = self._tables(region, d, cn, sign)
        exp, log = self.gf.exp, self.gf.log
        order = self.gf.q - 1
        logcol = self.code.logcol
        nlens = self.nlens
        p = tuple(parities)
        deletions = mode == "deletions"
        if d == 2:
            self._scan_two(region, tables, p, deletions, found)
            return
        # caps only matter when some block is shorter than the edit count
        check_caps = deletions and d > self.ell_last

        for ms in combinations_with_replacement(range(kp), d):
            entries: list[list[int]] = []
            prev = -1
            for b in ms:
                if b == prev:
                    entries[-1][1] += 1
                else:
                    entries.append([b, 1])
                    prev = b
            if check_caps and any(v > nlens[i] for i, v in entries):
                continue  # more deletions than the block has bits
            z = len(entries)

            # per-parity syndrome of the unerased blocks, via shift segments
            U = []
            for r in range(cn):
                tr = tables[r]
                acc = 0
                lo = 0
                s = 0
                for i, v in entries:
                    row = tr[s]
                    acc ^= row[i] ^ row[lo]
                    s += v
                    lo = i + 1
                row = tr[s]
                U.append(acc ^ row[kp] ^ row[lo])

            if z == 0:
                # no erased block: the region must satisfy every parity as is
                if all(U[r] == p[r] for r in range(cn)):
                    _record(found, region, (0,) * kp)
                continue

            if z == 1:
                X = [p[0] ^ U[0]]
            elif z == 2:
                b1 = p[0] ^ U[0]
                b2 = p[1] ^ U[1]
                i0 = entries[0][0]
                i1 = entries[1][0]
                t = b2 ^ (exp[i0 + log[b1]] if b1 else 0)
                den = exp[i0] ^ exp[i1]
                x2 = exp[log[t] + order - log[den]] if t else 0
                X = [b1 ^ x2, x2]
            else:
                inv = erasure_inverse(self.gf, tuple(i for i, _ in entries))
                rhs = [p[r] ^ U[r] for r in range(z)]
                X = []
                for t_row in inv:
                    acc = 0
                    for a, b in zip(t_row, rhs):
                        if a and b:
                            acc ^= exp[log[a] + log[b]]
                    X.append(acc)

            ok = True
            for r in range(z, cn):
                lcr = logcol[r]
                acc = U[r]
                for (i, _), x in zip(entries, X):
                    if x:
                        acc ^= exp[log[x] + lcr[i]]
                if acc != p[r]:
                    ok = False
                    break
            if not ok:
                continue

            msg = self._rebuild(region, entries, X, deletions)
            if msg is not None:
                dense = [0] * kp
                for i, v in entries:
                    dense[i] = v
                _record(found, msg, tuple(dense))

    def _scan_two(self, region, tables, p, deletions, found):
        """d == 2 fast path. For the two-block guesses the unerased syndrome
        separates into U_r(i, j) = f_r(i) ^ g_r(j), so the pair loop runs on
        two precomputed tables instead of per-case segment walks."""
        kp = self.kp
        cn = len(p)
        exp, log = self.gf.exp, self.gf.log
        order = self.gf.q - 1
        logcol = self.code.logcol
        p0, p1 = p[0], p[1]

        # one block takes both edits
        both_cap_ok = not deletions or self.ell_last >= 2  # mid blocks have >= 2 bits
        for i in range(kp):
            if i == kp - 1 and not both_cap_ok:
                continue
            x = p0
            for r in range(cn):
                tr = tables[r]
                u = tr[0][i] ^ tr[2][kp] ^ tr[2][i + 1]
                if r == 0:
                    x ^= u
                else:
                    acc = u ^ (exp[log[x] + logcol[r][i]] if x else 0)
                    if acc != p[r]:
                        break
            else:
                msg = self._rebuild(region, [[i, 2]], [x], deletions)
                if msg is not None:
                    dense = [0] * kp
                    dense[i] = 2
                    _record(found, msg, tuple(dense))

        # two distinct blocks take one edit each
        F = []
        G = []
        for r in range(cn):
            t0, t1, t2 = tables[r]
            tail = t2[kp]
            F.append([t0[i] ^ t1[i + 1] for i in range(kp)])
            G.append([t1[j] ^ t2[j + 1] ^ tail for j in range(kp)])
        f0, g0 = F[0], G[0]
        f1, g1 = F[1], G[1]
        rest = [(F[r], G[r], logcol[r], p[r]) for r in range(2, cn)]
        for i in range(kp - 1):
            f0i = f0[i]
            f1i = f1[i]
            expi = exp[i]
            for j in range(i + 1, kp):
                b1 = p0 ^ f0i ^ g0[j]
                t = p1 ^ f1i ^ g1[j] ^ (exp[i + log[b1]] if b1 else 0)
                x2 = exp[log[t] + order - log[expi ^ exp[j]]] if t else 0
                x1 = b1 ^ x2
                for fr, gr, lcr, pr in rest:
                    acc = fr[i] ^ gr[j]
                    if x1:
                        acc ^= exp[log[x1] + lcr[i]]
                    if x2:
                        acc ^= exp[log[x2] + lcr[j]]
                    if acc != pr:
                        break
                else:
                    msg = self._rebuild(region, [[i, 1], [j, 1]], [x1, x2], deletions)
                    if msg is not None:
                        dense = [0] * kp
                        dense[i] = 1
                        dense[j] = 1
                        _record(found, msg, tuple(dense))

    def _rebuild(
        self, region: str, entries: list[list[int]], X: list[int], deletions: bool
    ) -> str | None:
        """Criterion-2 verification plus message assembly for a surviving guess."""
        ell = self.ell
        nlens = self.nlens
        parts = []
        pos = 0
        t = 0
        for i in range(self.kp):
            nl = nlens[i]
            if t < len(entries) and entries[t][0] == i:
                v = entries[t][1]
                clen = nl - v if deletions else nl + v
                chunk = region[pos : pos + clen]
                decoded = format(X[t], f"0{ell}b")
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
                t += 1
            else:
                parts.append(region[pos : pos + nl])
                pos += nl
        return "".join(parts)


def _record(found: dict[str, tuple[int, ...]], msg: str, dense: tuple[int, ...]) -> None:
    cur = found.get(msg)
    if cur is None or dense < cur:
        found[msg] = dense


@lru_cache(maxsize=64)
def _decoder(k: int, ell: int, c: int) -> _Decoder:
    return _Decoder(k, ell, c)


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
    gf = field(params.ell)
    parities = tuple(
        gf.from_bits(parity_bits[r * params.ell : (r + 1) * params.ell])
        for r in range(params.c)
    )
    dec = _decoder(params.k, params.ell, params.c)
    found: dict[str, tuple[int, ...]] = {}
    for region, d_s in splits:
        dec.scan(region, d_s, parities, mode, found)
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
    q = field(ell).q
    if any(not 0 <= s < q for s in parities):
        raise ValueError(f"parity symbols must lie in [0, {q})")
    if -(-k // ell) + len(parities) > q:
        raise ValueError(f"k' + {len(parities)} parities exceeds field size {q}")
    dec = _decoder(k, ell, len(parities))
    found: dict[str, tuple[int, ...]] = {}
    dec.scan(received, d, tuple(parities), mode, found)
    return _outcome(found)


def decode_case(
    systematic_region: str,
    assignment: Sequence[int],
    parities: Sequence[int],
    params: GcParams,
    mode: str = "deletions",
) -> str | None:
    """Reference single-guess decoder: chunk the region per the assignment,
    erasure-decode the assumed-hit blocks with the leading parities, and
    accept only if the unused parities and the per-block consistency checks
    pass. Returns the candidate message, or None when the guess is
    impossible. gc_decode runs an optimized equivalent of this per case."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    deletions = mode == "deletions"
    kp = params.k_prime
    ell = params.ell
    if len(assignment) != kp:
        raise ValueError(f"assignment must have {kp} entries")
    if any(v < 0 for v in assignment):
        raise ValueError("assignment entries must be non-negative")
    d = sum(assignment)
    expected = params.k - d if deletions else params.k + d
    if len(systematic_region) != expected:
        raise ValueError(f"region must be {expected} bits for this assignment")

    nlens = [ell] * (kp - 1) + [params.ell_last]
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
    code = SystematicCode(field(ell), kp, len(parities))
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
