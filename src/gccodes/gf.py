"""Log/antilog tables of GF(2^m) for 2 <= m <= 16.

Field elements are plain ints in [0, 2^m). Bit i of the int is the
coefficient of alpha^i in the polynomial basis, where alpha (the element
with value 2) is a primitive element of the field. Addition is XOR, and
every product in the library is the table lookup exp[log[a] + log[b]];
a quotient a/b is exp[log[a] + (q-1) - log[b]]. The tables are small for
m <= 16.
"""

from __future__ import annotations

import struct
from functools import lru_cache

# One fixed primitive polynomial per degree, bit i = coefficient of x^i.
# m=4 is x^4+x+1 (alpha^4 = alpha + 1) and m=5 is x^5+x^2+1
# (alpha^5 = alpha^2 + 1); the rest are the usual published choices.
PRIMITIVE_POLYS = {
    2: 0b111,
    3: 0b1011,
    4: 0b10011,
    5: 0b100101,
    6: 0b1000011,
    7: 0b10001001,
    8: 0b100011101,
    9: 0b1000010001,
    10: 0b10000001001,
    11: 0b100000000101,
    12: 0b1000001010011,
    13: 0b10000000011011,
    14: 0b100010001000011,
    15: 0b1000000000000011,
    16: 0b10001000000001011,
}


class GF2m:
    """The exp/log tables of GF(2^m) under PRIMITIVE_POLYS[m].

    log[0] is 2(q-1), and exp holds two periods of alpha^i followed by
    zeros up to index 4(q-1), so exp[log[a] + log[b]] is a*b for every a
    and b, zero included, without a modulo or a branch. Construction
    verifies that alpha generates the whole multiplicative group, i.e.
    that the polynomial is primitive. exp16 is exp as little-endian 16-bit
    words, so int.from_bytes of a slice packs a run of exp into lanes.
    """

    def __init__(self, m: int):
        if not 2 <= m <= 16:
            raise ValueError(f"extension degree must be in [2, 16], got {m}")
        poly = PRIMITIVE_POLYS[m]

        self.m = m
        self.q = 1 << m
        self.poly = poly

        order = self.q - 1
        exp = [0] * (4 * order + 1)
        log = [2 * order] * self.q
        x = 1
        for i in range(order):
            if i and x == 1:
                raise ValueError(f"0b{poly:b} is not primitive: alpha has order {i}")
            exp[i] = x
            exp[i + order] = x
            log[x] = i
            x <<= 1
            if x & self.q:
                x ^= poly
        if x != 1:
            raise ValueError(f"0b{poly:b} is not irreducible over GF(2)")
        self.exp = exp
        self.log = log
        self.exp16 = struct.pack(f"<{len(exp)}H", *exp)

    def __repr__(self) -> str:
        return f"GF2m(m={self.m}, poly=0b{self.poly:b})"


@lru_cache(maxsize=None)
def field(m: int) -> GF2m:
    """Shared GF(2^m) instance with the table-fixed primitive polynomial."""
    return GF2m(m)
