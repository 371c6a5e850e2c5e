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


def mul(gf, a, b):
    """The library's only product form: one lookup, zero included."""
    return gf.exp[gf.log[a] + gf.log[b]]


def inv(gf, a):
    return gf.exp[gf.q - 1 - gf.log[a]]


def test_alpha_generates_group_for_every_degree():
    for m in PRIMITIVE_POLYS:
        gf = field(m)
        order = gf.q - 1
        assert gf.exp[order] == gf.exp[0] == 1
        for d in proper_divisors(order):
            assert gf.exp[d] != 1, f"alpha order divides {d} in GF(2^{m})"
        assert sorted(gf.exp[:order]) == list(range(1, gf.q))
        assert all(gf.exp[gf.log[a]] == a for a in range(1, gf.q))


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_field_axioms_exhaustive_small(m):
    gf = field(m)
    q = gf.q
    for a in range(q):
        for b in range(q):
            assert mul(gf, a, b) == mul(gf, b, a)
            for c in range(q):
                assert mul(gf, mul(gf, a, b), c) == mul(gf, a, mul(gf, b, c))
                assert mul(gf, a, b ^ c) == mul(gf, a, b) ^ mul(gf, a, c)


@pytest.mark.parametrize("m", [8, 16])
def test_field_axioms_sampled_large(m):
    gf = field(m)
    rng = random.Random(m)
    for _ in range(2000):
        a, b, c = (rng.randrange(gf.q) for _ in range(3))
        assert mul(gf, a, b) == mul(gf, b, a)
        assert mul(gf, mul(gf, a, b), c) == mul(gf, a, mul(gf, b, c))
        assert mul(gf, a, b ^ c) == mul(gf, a, b) ^ mul(gf, a, c)


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
        assert mul(gf, a, b) == naive_mul(a, b, m, gf.poly)


def test_raw_table_lookup_multiplies_zero_too():
    # zero's log lands every sum with it in the zero-filled part of exp,
    # also the shifted forms the codec uses: alpha^i * a and a / b
    gf = field(4)
    order = gf.q - 1
    assert len(gf.exp) == 4 * order + 1 and gf.log[0] == 2 * order
    for a in range(gf.q):
        for b in range(gf.q):
            assert mul(gf, a, b) == naive_mul(a, b, 4, gf.poly)
        for i in range(order):
            assert gf.exp[i + gf.log[a]] == naive_mul(gf.exp[i], a, 4, gf.poly)
        for b in range(1, gf.q):
            assert naive_mul(gf.exp[gf.log[a] + order - gf.log[b]], b, 4, gf.poly) == a


def test_gf16_worked_values():
    gf = field(4)
    assert mul(gf, 14, 4) == 13  # a^11 * a^2 = a^13
    assert mul(gf, 5, 1) == 5
    assert mul(gf, 2, 9) == 1  # a * a^14 = 1
    assert inv(gf, 1) == 1
    assert inv(gf, 2) == 9
    for x in range(1, 16):
        assert inv(gf, inv(gf, x)) == x
        assert mul(gf, x, inv(gf, x)) == 1


def test_gf16_alpha_power_table():
    gf = field(4)
    expected = {11: 14, 13: 13, 5: 6, 14: 9, 10: 7, 8: 5, 3: 8, 2: 4}
    for e, v in expected.items():
        assert gf.exp[e] == gf.exp[e + 15] == v
        assert gf.log[v] == e


def test_gf32_alpha_relation():
    # the m=5 polynomial satisfies alpha^5 = alpha^2 + 1
    assert field(5).exp[5] == 0b101


def test_rejects_unsupported_degree():
    for m in (1, 17):
        with pytest.raises(ValueError):
            GF2m(m)
