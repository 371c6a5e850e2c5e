"""Varshamov-Tenengolts syndrome and single-deletion correction.

The syndrome of an n-bit string is sum(i * x_i) mod (n+1) over 1-indexed
positions. A string that lost one bit is repaired with Levenshtein's
weight rule; every syndrome-consistent reinsertion yields the same string,
which is what makes the correction zero-error.

The weighted sum comes from bit-plane popcounts of X = int(x, 2), whose bit
p is position n - p: n * popcount(X) - sum over h = 1, 2, 4, ... of
h * popcount(X & plane_h), where plane_h masks the p that have bit h set.
The planes depend only on the power-of-two span that covers n, so each
span's table is built once and cached. The correction parses its string
once and finds the insertion point by counting bits in halving windows,
without building substrings.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .codec import _check_bits, _tile


class NoConsistentInsertion(ValueError):
    """No single-bit reinsertion into y matches the syndrome."""


@dataclass(frozen=True)
class VtSyndrome:
    a: int  # sum(i * x_i) mod (n + 1)
    n: int  # length of the original string


@lru_cache(maxsize=None)
def _planes(span_bits: int) -> tuple[tuple[int, int], ...]:
    """(h, plane_h) for h = 1, 2, 4, ... < 2**span_bits, each plane
    covering the positions p < 2**span_bits."""
    hs = [1 << b for b in range(span_bits)]
    # plane h: the p < 2h that have bit h, repeated every 2h
    return tuple((h, _tile(((1 << h) - 1) << h, 2 * h, 1 << span_bits)) for h in hs)


def _weighted_sum(X: int, n: int) -> int:
    """sum(i * x_i) over the 1-indexed positions of the n-bit string x whose
    int(x, 2) is X (bit p of X is position n - p)."""
    total = n * X.bit_count()
    for h, plane in _planes((n - 1).bit_length()):
        total -= h * (X & plane).bit_count()
    return total


def vt_syndrome(x: str) -> VtSyndrome:
    n = len(x)
    if n < 1:
        raise ValueError("need at least one bit")
    _check_bits(x)
    return VtSyndrome(_weighted_sum(int(x, 2), n) % (n + 1), n)


def vt_correct(y: str, syndrome: VtSyndrome) -> str:
    """Reinsert the single deleted bit into y.

    Let s = (a - syndrome(y)) mod (n+1) and w = weight(y). If s <= w a zero
    was deleted with s ones to its right, so it goes just past the
    (w - s)-th one; otherwise a one was deleted with s - w - 1 zeros to its
    left. Either insertion raises the weighted sum by exactly s, and s <= n
    leaves at least s - w - 1 zeros in y, so every a in [0, n] is reached
    from every y and no other a is. The new bit lands inside a run of equal
    bits, so any index in that run gives the same string.
    """
    n = syndrome.n
    _check_bits(y)
    if len(y) != n - 1:
        raise ValueError(f"expected {n - 1} bits, got {len(y)}")
    if not 0 <= syndrome.a <= n:
        raise NoConsistentInsertion(f"syndrome {syndrome} unreachable from {y!r}")
    Y = int(y or "0", 2)
    s = (syndrome.a - _weighted_sum(Y, n - 1)) % (n + 1)
    w = Y.bit_count()
    bit, other, k = ("0", "1", w - s) if s <= w else ("1", "0", s - w - 1)

    # bisect for the smallest idx with k `other` bits in y[:idx], counting only
    # the window [lo, mid) each step: k is what y[lo:] must still supply
    lo, hi = 0, len(y)
    while lo < hi:
        mid = (lo + hi) // 2
        m = y.count(other, lo, mid)
        if m >= k:
            hi = mid
        else:
            lo, k = mid + 1, k - m - (y[mid] == other)
    return y[:lo] + bit + y[lo:]
