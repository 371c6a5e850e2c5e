import itertools
import random

import pytest

from gccodes.gf import field
from gccodes.mds import SystematicCode, solve_erasures

from vectors import decode_erasures


@pytest.fixture
def code16():
    return SystematicCode(field(4), k_prime=4, c=2)


def test_encode_worked_example(code16):
    # message (a^11, 0, a^13, 1) -> parities (a, a^10)
    assert code16.encode([14, 0, 13, 1]) == (2, 7)


def test_encode_zero_message(code16):
    assert code16.encode([0, 0, 0, 0]) == (0, 0)


def test_encode_second_example(code16):
    # (a^13, 0, a^3, a^8) -> parities (0, a^8)
    assert code16.encode([13, 0, 8, 5]) == (0, 5)


def test_erasure_single_position(code16):
    assert decode_erasures(code16, [None, 0, 6, 9], [2]) == [13, 0, 6, 9]
    assert decode_erasures(code16, [14, 0, 13, None], [2]) == [14, 0, 13, 1]


def test_erasure_two_positions(code16):
    assert decode_erasures(code16, [None, 0, None, 1], [2, 7]) == [14, 0, 13, 1]


def test_parity_check(code16):
    got = code16.encode([13, 0, 6, 9])[1]
    assert got != 7 and got == 2
    assert code16.encode([14, 0, 13, 1])[1] == 7
    assert code16.encode([0, 0, 0, 0])[0] == 0


def test_encode_requires_full_length(code16):
    with pytest.raises(ValueError):
        code16.encode([1, 2, 3])


def test_erasure_free_input_needs_no_parities():
    code = SystematicCode(field(4), 3, 2)
    assert decode_erasures(code, [1, 2, 3], []) == [1, 2, 3]
    with pytest.raises(ValueError):
        decode_erasures(code, [1, 2, 3], [5])


def test_erasure_roundtrip_all_patterns():
    rng = random.Random(11)
    for ell in (3, 4, 5):
        gf = field(ell)
        for k_prime in range(1, 9):
            for c in range(1, 5):
                if k_prime + c > gf.q:
                    continue
                code = SystematicCode(gf, k_prime, c)
                for _ in range(2):
                    msg = [rng.randrange(gf.q) for _ in range(k_prime)]
                    parities = code.encode(msg)
                    for e in range(1, min(c, k_prime) + 1):
                        for pos in itertools.combinations(range(k_prime), e):
                            holey = list(msg)
                            for p in pos:
                                holey[p] = None
                            got = decode_erasures(code, holey, list(parities[:e]))
                            assert got == msg
                            assert code.encode(got) == parities


def test_erasure_agrees_with_brute_force_search():
    # tiny instance: every completion consistent with the leading parities
    # is unique and matches the solver
    gf = field(3)
    code = SystematicCode(gf, k_prime=3, c=2)
    rng = random.Random(5)
    for _ in range(25):
        msg = [rng.randrange(8) for _ in range(3)]
        parities = code.encode(msg)
        for e in (1, 2):
            for pos in itertools.combinations(range(3), e):
                completions = []
                for fill in itertools.product(range(8), repeat=e):
                    cand = list(msg)
                    for p, v in zip(pos, fill):
                        cand[p] = v
                    if code.encode(cand)[:e] == parities[:e]:
                        completions.append(cand)
                assert completions == [msg]
                holey = [None if j in pos else msg[j] for j in range(3)]
                assert decode_erasures(code, holey, list(parities[:e])) == msg


def test_parameter_validation():
    gf = field(3)
    with pytest.raises(ValueError):
        SystematicCode(gf, k_prime=8, c=1)  # only 7 distinct nonzero nodes
    with pytest.raises(ValueError):
        SystematicCode(gf, k_prime=5, c=4)  # 9 symbols in a size-8 field
    code = SystematicCode(gf, k_prime=5, c=3)
    with pytest.raises(ValueError):
        decode_erasures(code, [None, None, None, None, 1], [1, 2, 3])
    with pytest.raises(ValueError):
        decode_erasures(code, [None, 1, 2, 3, 4], [1, 2])
    with pytest.raises(ValueError, match="expected 5 symbols, got 4"):
        decode_erasures(code, [None, 1, 2, 3], [1])



@pytest.mark.parametrize("ell", [4, 8])
def test_solve_erasures_recovers_values_and_rejects_changed_syndromes(ell):
    gf = field(ell)
    exp, log = gf.exp, gf.log
    order = gf.q - 1
    rng = random.Random(ell)
    c = 5
    for _ in range(30):
        k_prime = rng.randint(c, 12)
        for e in range(c + 1):
            positions = rng.sample(range(k_prime), e)
            X = [rng.randrange(gf.q) for _ in positions]
            b = []
            for r in range(c):
                acc = 0
                for p, x in zip(positions, X):
                    acc ^= exp[log[x] + p * r % order]
                b.append(acc)
            assert solve_erasures(gf, positions, b) == X
            assert solve_erasures(gf, positions, b[:e]) == X
            for r in range(e, c):
                bad = list(b)
                bad[r] ^= rng.randrange(1, gf.q)
                assert solve_erasures(gf, positions, bad) is None
