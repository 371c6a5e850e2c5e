"""Varshamov-Tenengolts syndrome and single-deletion correction.

The syndrome of an n-bit string is sum(i * x_i) mod (n+1) over 1-indexed
positions. A string that lost one bit is repaired with Levenshtein's
weight rule; every syndrome-consistent reinsertion yields the same string,
which is what makes the correction zero-error.

The weighted sum comes from bit-plane popcounts of X = int(x, 2), whose bit
p is position n - p: n * popcount(X) - sum over h = 1, 2, 4, ... of
h * popcount(X & plane_h), where plane_h masks the p that have bit h set.
"""

from __future__ import annotations

from dataclasses import dataclass

from .codec import _check_bits


class NoConsistentInsertion(ValueError):
    """No single-bit reinsertion into y matches the syndrome."""


@dataclass(frozen=True)
class VtSyndrome:
    a: int  # sum(i * x_i) mod (n + 1)
    n: int  # length of the original string


def _weighted_sum(x: str) -> int:
    """sum(i * x_i) over the 1-indexed positions of the bit string x."""
    n = len(x)
    X = int(x or "0", 2)  # bit p of X is position n - p
    total = n * X.bit_count()
    h = 1
    while h < n:
        plane, width = ((1 << h) - 1) << h, 2 * h  # the p < 2h that have bit h
        while width < n:
            plane |= plane << width
            width *= 2
        total -= h * (X & plane).bit_count()
        h *= 2
    return total


def vt_syndrome(x: str) -> VtSyndrome:
    n = len(x)
    if n < 1:
        raise ValueError("need at least one bit")
    _check_bits(x)
    return VtSyndrome(_weighted_sum(x) % (n + 1), n)


def vt_correct(y: str, syndrome: VtSyndrome) -> str:
    """Reinsert the single deleted bit into y.

    Let s = (a - syndrome(y)) mod (n+1) and w = weight(y). If s <= w a zero
    was deleted with s ones to its right; otherwise a one was deleted with
    s - w - 1 zeros to its left. Either insertion raises the weighted sum
    by exactly s, and s <= n leaves at least s - w - 1 zeros in y, so every
    a in [0, n] is reached from every y and no other a is.
    """
    n = syndrome.n
    _check_bits(y)
    if len(y) != n - 1:
        raise ValueError(f"expected {n - 1} bits, got {len(y)}")
    if not 0 <= syndrome.a <= n:
        raise NoConsistentInsertion(f"syndrome {syndrome} unreachable from {y!r}")
    got = _weighted_sum(y) % (n + 1)
    s = (syndrome.a - got) % (n + 1)
    w = y.count("1")

    if s <= w:
        # insert '0' so that exactly s ones lie to its right
        idx = len(y.rsplit("1", s)[0])
        return y[:idx] + "0" + y[idx:]
    # insert '1' after exactly s - w - 1 zeros
    idx = len(y) - len(y.split("0", s - w - 1)[-1])
    return y[:idx] + "1" + y[idx:]
