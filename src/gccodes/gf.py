"""GF(2^m) arithmetic for 2 <= m <= 16.

Field elements are plain ints in [0, 2^m). Bit i of the int is the
coefficient of alpha^i in the polynomial basis, where alpha (the element
with value 2) is a primitive element of the field. Multiplication and
inversion go through log/antilog tables, which are small for m <= 16.
"""

from __future__ import annotations

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
    """Arithmetic in GF(2^m) backed by exp/log tables.

    log[0] is 2(q-1), and exp holds two periods of alpha^i followed by
    zeros up to index 4(q-1), so exp[log[a] + log[b]] is a*b for every a
    and b, zero included, without a modulo or a branch. Construction
    verifies that alpha generates the whole multiplicative group, i.e.
    that the polynomial is primitive.
    """

    def __init__(self, m: int, primitive_poly: int | None = None):
        if not 2 <= m <= 16:
            raise ValueError(f"extension degree must be in [2, 16], got {m}")
        poly = PRIMITIVE_POLYS[m] if primitive_poly is None else primitive_poly
        if not (poly >> m) & 1:
            raise ValueError(f"polynomial 0b{poly:b} does not have degree {m}")
        if poly >> (m + 1):
            raise ValueError(f"polynomial 0b{poly:b} has degree above {m}")
        if not poly & 1:
            raise ValueError("primitive polynomial needs a nonzero constant term")

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

    def add(self, a: int, b: int) -> int:
        """Addition (= subtraction) is XOR in characteristic 2."""
        return a ^ b

    def mul(self, a: int, b: int) -> int:
        return self.exp[self.log[a] + self.log[b]]

    def inv(self, a: int) -> int:
        """Multiplicative inverse; zero has none."""
        if a == 0:
            raise ZeroDivisionError("zero has no inverse in GF(2^m)")
        return self.exp[self.q - 1 - self.log[a]]

    def pow(self, a: int, e: int) -> int:
        """a**e with a**0 = 1 (including 0**0 = 1)."""
        if e < 0:
            raise ValueError("negative exponent")
        if e == 0:
            return 1
        if a == 0:
            return 0
        return self.exp[(self.log[a] * e) % (self.q - 1)]

    def from_bits(self, bits: str) -> int:
        """Map an m-bit string to a symbol, leftmost bit most significant."""
        if len(bits) != self.m:
            raise ValueError(f"expected {self.m} bits, got {len(bits)}")
        return int(bits, 2)

    def to_bits(self, value: int) -> str:
        """Inverse of from_bits."""
        if not 0 <= value < self.q:
            raise ValueError(f"value {value} out of range for GF(2^{self.m})")
        return format(value, f"0{self.m}b")

    def __repr__(self) -> str:
        return f"GF2m(m={self.m}, poly=0b{self.poly:b})"


@lru_cache(maxsize=None)
def field(m: int) -> GF2m:
    """Shared GF(2^m) instance with the table-fixed primitive polynomial."""
    return GF2m(m)
