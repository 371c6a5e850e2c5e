"""Varshamov-Tenengolts syndrome and single-deletion correction.

The syndrome of an n-bit string is sum(i * x_i) mod (n+1) over 1-indexed
positions. A string that lost one bit is repaired with Levenshtein's
weight rule; every syndrome-consistent reinsertion yields the same string,
which is what makes the correction zero-error.
"""

from __future__ import annotations

from dataclasses import dataclass


class NoConsistentInsertion(ValueError):
    """No single-bit reinsertion into y matches the syndrome."""


@dataclass(frozen=True)
class VtSyndrome:
    a: int  # sum(i * x_i) mod (n + 1)
    n: int  # length of the original string


def vt_syndrome(x: str) -> VtSyndrome:
    n = len(x)
    if n < 1:
        raise ValueError("need at least one bit")
    a = sum(i for i, b in enumerate(x, start=1) if b == "1") % (n + 1)
    return VtSyndrome(a, n)


def vt_correct(y: str, syndrome: VtSyndrome) -> str:
    """Reinsert the single deleted bit into y.

    Let s = (a - syndrome(y)) mod (n+1) and w = weight(y). If s <= w a zero
    was deleted with s ones to its right; otherwise a one was deleted with
    s - w - 1 zeros to its left.
    """
    n = syndrome.n
    if len(y) != n - 1:
        raise ValueError(f"expected {n - 1} bits, got {len(y)}")
    got = sum(i for i, b in enumerate(y, start=1) if b == "1") % (n + 1)
    s = (syndrome.a - got) % (n + 1)
    w = y.count("1")

    if s <= w:
        # insert '0' so that exactly s ones lie to its right
        idx = len(y.rsplit("1", s)[0])
        x = y[:idx] + "0" + y[idx:]
    else:
        # insert '1' after exactly s - w - 1 zeros
        idx = len(y) - len(y.split("0", s - w - 1)[-1])
        x = y[:idx] + "1" + y[idx:]

    if vt_syndrome(x).a != syndrome.a:
        raise NoConsistentInsertion(f"syndrome {syndrome} unreachable from {y!r}")
    return x
