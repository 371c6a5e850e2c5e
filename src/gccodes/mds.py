"""Systematic (k' + c, k') erasure code over GF(2^ell).

Parity r (1-based) of a message (S_0, ..., S_{k'-1}) is
sum_j S_j * alpha^(j*(r-1)), so the parity columns form a transposed
Vandermonde matrix on the distinct nodes 1, alpha, ..., alpha^(k'-1).
Erasures are only ever solved in systematic positions p_0..p_{e-1} with
the leading parities: sum_s X_s * a_s^r = b_r for r < e, a_s = alpha^(p_s),
a Vandermonde system on distinct nodes. Its inverse has the closed
(Lagrange) form that Bjorck-Pereyra and Forney's erasure evaluation use:
row t holds the coefficients of L_t(x) = prod_{s != t} (x + a_s)/(a_t + a_s),
since sum_r [x^r]L_t * b_r = sum_s X_s * L_t(a_s) = X_t. `erasure_inverse`
builds it afresh per call: only `decode_erasures`, and through it the
reference decoder `decode_case`, uses it. The guess scan in codec.py tests
each guess with the erasure locator first and solves only the survivors,
so it needs no inverse.
"""

from __future__ import annotations

from typing import Sequence

from .gf import GF2m


def erasure_inverse(gf: GF2m, positions: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Inverse of the e x e system formed by parities 1..e at the given
    distinct erased systematic positions: X_t = sum_r inv[t][r] * b_r."""
    nodes = [gf.exp[p] for p in positions]
    rows = []
    for t, a in enumerate(nodes):
        poly = [1]  # coefficients of prod (x + a_s), lowest degree first
        den = 1
        for s, b in enumerate(nodes):
            if s != t:
                poly = [0] + poly
                for i in range(len(poly) - 1):
                    poly[i] ^= gf.mul(b, poly[i + 1])
                den = gf.mul(den, a ^ b)
        scale = gf.inv(den)
        rows.append(tuple(gf.mul(v, scale) for v in poly))
    return tuple(rows)


class SystematicCode:
    def __init__(self, gf: GF2m, k_prime: int, c: int):
        if k_prime < 1 or c < 1:
            raise ValueError("need k_prime >= 1 and c >= 1")
        if k_prime + c > gf.q:
            raise ValueError(f"k_prime + c = {k_prime + c} exceeds field size {gf.q}")
        self.gf = gf
        self.k_prime = k_prime
        self.c = c
        order = gf.q - 1
        # logcol[r-1][j] = log of the column entry alpha^(j*(r-1))
        self.logcol = [[(j * r) % order for j in range(k_prime)] for r in range(c)]

    def parity(self, symbols: Sequence[int], r: int) -> int:
        """Value of parity r in [1, c] for a full symbol sequence."""
        if len(symbols) != self.k_prime:
            raise ValueError(f"expected {self.k_prime} symbols, got {len(symbols)}")
        if not 1 <= r <= self.c:
            raise ValueError(f"parity index {r} out of range [1, {self.c}]")
        exp, log = self.gf.exp, self.gf.log
        logs = self.logcol[r - 1]
        acc = 0
        for s, col in zip(symbols, logs):
            acc ^= exp[log[s] + col]
        return acc

    def encode(self, message: Sequence[int]) -> tuple[int, ...]:
        """All c parities of the message (returned alongside, not replacing it)."""
        return tuple(self.parity(message, r) for r in range(1, self.c + 1))

    def decode_erasures(self, symbols: Sequence[int | None], parities: Sequence[int]) -> list[int]:
        """Fill in erased (None) positions using the first e parity values.

        Exactly e parities must be supplied, e = number of erasures.
        """
        if len(symbols) != self.k_prime:
            raise ValueError(f"expected {self.k_prime} symbols, got {len(symbols)}")
        erased = tuple(j for j, s in enumerate(symbols) if s is None)
        e = len(erased)
        if e == 0:
            return list(symbols)  # type: ignore[arg-type]
        if len(parities) != e:
            raise ValueError(f"{e} erasures need exactly the first {e} parities")
        if e > self.c:
            raise ValueError(f"{e} erasures exceed {self.c} parities")
        known = [s or 0 for s in symbols]
        rhs = [parities[r] ^ self.parity(known, r + 1) for r in range(e)]
        exp, log = self.gf.exp, self.gf.log
        out = list(symbols)
        for t, row in enumerate(erasure_inverse(self.gf, erased)):
            acc = 0
            for a, b in zip(row, rhs):
                acc ^= exp[log[a] + log[b]]
            out[erased[t]] = acc
        return out  # type: ignore[return-value]
