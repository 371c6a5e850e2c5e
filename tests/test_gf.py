import random

import pytest

from gccodes.gf import GF2m, PRIMITIVE_POLYS, field


def proper_divisors(n):
    return [d for d in range(1, n) if n % d == 0]


def naive_mul(a, b, m, poly):
    """Shift-and-reduce polynomial multiplication, the table-free oracle."""
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        b >>= 1
        a <<= 1
        if a & (1 << m):
            a ^= poly
    return acc


def test_alpha_generates_group_for_every_degree():
    for m in PRIMITIVE_POLYS:
        gf = field(m)
        order = gf.q - 1
        assert gf.pow(2, order) == 1
        for d in proper_divisors(order):
            assert gf.pow(2, d) != 1, f"alpha order divides {d} in GF(2^{m})"


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_field_axioms_exhaustive_small(m):
    gf = field(m)
    q = gf.q
    for a in range(q):
        for b in range(q):
            assert gf.mul(a, b) == gf.mul(b, a)
            assert gf.add(a, b) == gf.add(b, a)
            for c in range(q):
                assert gf.mul(gf.mul(a, b), c) == gf.mul(a, gf.mul(b, c))
                assert gf.mul(a, gf.add(b, c)) == gf.add(gf.mul(a, b), gf.mul(a, c))


@pytest.mark.parametrize("m", [8, 16])
def test_field_axioms_sampled_large(m):
    gf = field(m)
    rng = random.Random(m)
    for _ in range(2000):
        a, b, c = (rng.randrange(gf.q) for _ in range(3))
        assert gf.mul(a, b) == gf.mul(b, a)
        assert gf.mul(gf.mul(a, b), c) == gf.mul(a, gf.mul(b, c))
        assert gf.mul(a, gf.add(b, c)) == gf.add(gf.mul(a, b), gf.mul(a, c))


@pytest.mark.parametrize("m", [4, 8])
def test_mul_matches_polynomial_oracle(m):
    gf = field(m)
    rng = random.Random(m)
    pairs = (
        [(a, b) for a in range(gf.q) for b in range(gf.q)]
        if m == 4
        else [(rng.randrange(gf.q), rng.randrange(gf.q)) for _ in range(3000)]
    )
    for a, b in pairs:
        assert gf.mul(a, b) == naive_mul(a, b, m, gf.poly)


def test_raw_table_lookup_multiplies_zero_too():
    # the codec multiplies as exp[log[a] + log[b]] with no zero guard
    gf = field(4)
    for a in range(gf.q):
        for b in range(gf.q):
            assert gf.exp[gf.log[a] + gf.log[b]] == gf.mul(a, b) == naive_mul(a, b, 4, gf.poly)


def test_gf16_worked_values():
    gf = field(4)
    assert gf.add(14, 13) == 3
    assert gf.add(9, 0) == 9
    assert gf.add(7, 7) == 0
    assert gf.mul(14, 4) == 13  # a^11 * a^2 = a^13
    assert gf.mul(5, 1) == 5
    assert gf.mul(2, 9) == 1  # a * a^14 = 1
    assert gf.inv(1) == 1
    assert gf.inv(2) == 9
    for x in range(1, 16):
        assert gf.inv(gf.inv(x)) == x
        assert gf.mul(x, gf.inv(x)) == 1
    with pytest.raises(ZeroDivisionError):
        gf.inv(0)


def test_gf16_alpha_power_table():
    gf = field(4)
    expected = {11: 14, 13: 13, 5: 6, 14: 9, 10: 7, 8: 5, 3: 8, 2: 4}
    for e, v in expected.items():
        assert gf.pow(2, e) == v
    assert gf.pow(2, 11) == 14
    assert gf.pow(2, 13) == 13
    assert gf.pow(7, 0) == 1
    assert gf.pow(0, 0) == 1
    assert gf.pow(0, 5) == 0


def test_gf32_alpha_relation():
    # the m=5 polynomial satisfies alpha^5 = alpha^2 + 1
    assert field(5).pow(2, 5) == 0b101


def test_bit_mapping():
    gf = field(4)
    assert gf.from_bits("1110") == 14
    assert gf.from_bits("0000") == 0
    for v in range(16):
        bits = gf.to_bits(v)
        assert len(bits) == 4
        assert gf.from_bits(bits) == v
    with pytest.raises(ValueError):
        gf.from_bits("111")
    with pytest.raises(ValueError):
        gf.to_bits(16)


def test_rejects_bad_polynomials():
    with pytest.raises(ValueError):
        GF2m(4, 0b11111)  # x^4+x^3+x^2+x+1 is irreducible but not primitive
    with pytest.raises(ValueError):
        GF2m(4, 0b10101)  # reducible
    with pytest.raises(ValueError):
        GF2m(4, 0b1011)  # wrong degree
    with pytest.raises(ValueError):
        GF2m(17)
