"""Systematic (k' + c, k') erasure code over GF(2^ell), and its one
erasure solver.

Parity r (1-based) of a message (S_0, ..., S_{k'-1}) is
sum_j S_j * alpha^(j*(r-1)), so the parity columns form a transposed
Vandermonde matrix on the distinct nodes 1, alpha, ..., alpha^(k'-1).
Erasures at systematic positions p_0..p_{e-1} leave residual syndromes
b_r = sum_t X_t * a_t^r, a_t = alpha^(p_t), and Forney's erasure decoding
solves them: the locator P(x) = prod_t (x + a_t) annihilates every window,
sum_t P_t b_(m+t) = 0, of syndromes that e erasures explain, and
Q_t = P/(x + a_t) vanishes at every node but a_t, so
X_t = sum_r [x^r]Q_t * b_r / Q_t(a_t). `solve_erasures` is the one
erasure entry point: the guess scan in codec.py hands it every syndrome,
so that it also tests the guess. `SystematicCode.encode` is the one
parity evaluator: it gives all c parities in one pass. `systematic_code`
shares one immutable instance per (m, k', c).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

from .gf import GF2m, field


def locator(gf: GF2m, positions: Sequence[int]) -> list[int]:
    """Coefficients of prod_t (x + alpha^(p_t)), lowest degree first."""
    exp, log = gf.exp, gf.log
    P = [1]
    for p in positions:
        P = [a ^ exp[p + log[b]] for a, b in zip([0] + P, P + [0])]
    return P


def solve_erasures(gf: GF2m, positions: Sequence[int], b: Sequence[int]) -> list[int] | None:
    """Erased values X_t at the distinct positions from the syndromes
    b_r = sum_t X_t alpha^(p_t r), r = 0 .. len(b)-1, or None if the
    syndromes past the first e are not those of these erasures."""
    exp, log = gf.exp, gf.log
    order = gf.q - 1
    P = locator(gf, positions)
    lp = [log[v] for v in P]
    for m in range(len(b) - len(positions)):
        acc = 0
        for lt, x in zip(lp, b[m:]):
            acc ^= exp[lt + log[x]]
        if acc:
            return None
    X = []
    for p in positions:
        # q runs through Q_(e-1) .. Q_0 by synthetic division,
        # Q_(r-1) = P_r + a_t Q_r; num sums Q_r b_r and den is Q(a_t) by
        # Horner's rule
        q = num = den = 0
        for r in range(len(positions), 0, -1):
            q = P[r] ^ exp[p + log[q]]
            num ^= exp[log[q] + log[b[r - 1]]]
            den = exp[p + log[den]] ^ q
        X.append(exp[log[num] + order - log[den]])
    return X


class SystematicCode:
    def __init__(self, gf: GF2m, k_prime: int, c: int):
        if k_prime < 1 or c < 1:
            raise ValueError("need k_prime >= 1 and c >= 1")
        if k_prime + c > gf.q:
            raise ValueError(f"k_prime + c = {k_prime + c} exceeds field size {gf.q}")
        self.gf = gf
        self.k_prime = k_prime
        order = gf.q - 1
        # logcol[r-1][j] = log of the column entry alpha^(j*(r-1)), r = 1..c
        self.logcol = tuple(tuple((j * r) % order for j in range(k_prime)) for r in range(c))

    def encode(self, message: Sequence[int]) -> tuple[int, ...]:
        """All c parities of the message (returned alongside, not replacing it)."""
        if len(message) != self.k_prime:
            raise ValueError(f"expected {self.k_prime} symbols, got {len(message)}")
        exp, log = self.gf.exp, self.gf.log
        logs = [log[s] for s in message]
        out = []
        for cols in self.logcol:
            acc = 0
            for ls, col in zip(logs, cols):
                acc ^= exp[ls + col]
            out.append(acc)
        return tuple(out)


@lru_cache(maxsize=4)
def systematic_code(m: int, k_prime: int, c: int) -> SystematicCode:
    """Shared SystematicCode over field(m), like `gf.field`. A sync repair
    encodes and decodes with the same code, then meets a new k' in the
    next repair, so a few recent codes are all worth keeping."""
    return SystematicCode(field(m), k_prime, c)
