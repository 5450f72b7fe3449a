import itertools
import math

import pytest
from hypothesis import given, strategies as st

from zmdiff.modring import (
    FACTOR_LIMIT,
    Factorization,
    InvalidModulus,
    ModulusMismatch,
    NotInvertible,
    NotNilpotent,
    Residue,
    factorize,
    nilpotency_index,
)


class TestResidue:
    def test_canonicalization(self):
        assert Residue(-75, 9).value == 6
        assert Residue(13, 6).value == 1
        assert Residue(6, 6).value == 0

    def test_invalid_modulus(self):
        with pytest.raises(InvalidModulus):
            Residue(1, 0)
        with pytest.raises(InvalidModulus):
            Residue(1, -4)

    def test_null_ring(self):
        # Z_1 has the single element 0, which is both zero and unit
        zero = Residue(5, 1)
        assert zero.value == 0
        assert (zero + zero).value == 0
        assert (zero * zero).value == 0
        assert zero.inverse() == zero
        assert (zero**0).value == 0

    def test_arithmetic(self):
        assert Residue(4, 6) + Residue(5, 6) == Residue(3, 6)
        assert Residue(4, 6) - Residue(5, 6) == Residue(5, 6)
        assert Residue(4, 6) * Residue(5, 6) == Residue(2, 6)
        assert -Residue(4, 6) == Residue(2, 6)
        assert Residue(2, 7) ** 5 == Residue(4, 7)
        assert Residue(3, 7) ** 0 == Residue(1, 7)

    def test_modulus_mismatch(self):
        with pytest.raises(ModulusMismatch):
            Residue(1, 2) + Residue(1, 3)
        with pytest.raises(ModulusMismatch):
            Residue(1, 2) * Residue(1, 3)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            Residue(2, 7) ** -1

    def test_inverse_known_values(self):
        assert Residue(5, 12).inverse() == Residue(5, 12)
        assert Residue(3, 7).inverse() == Residue(5, 7)
        with pytest.raises(NotInvertible, match=r"^\[2\]_6 is not invertible \(gcd 2\)$"):
            Residue(2, 6).inverse()
        with pytest.raises(NotInvertible, match=r"\(gcd 5\)$"):
            Residue(0, 5).inverse()

    def test_str(self):
        assert str(Residue(4, 6)) == "[4]_6"


@given(st.integers(2, 64), st.integers(0, 10**6))
def test_inverse_times_self_is_one(m, v):
    x = Residue(v, m)
    if math.gcd(x.value, m) == 1:
        assert x * x.inverse() == Residue(1, m)
    else:
        with pytest.raises(NotInvertible):
            x.inverse()


def test_factorize_known_values():
    assert factorize(12) == Factorization(12, ((2, 2), (3, 1)))
    assert factorize(1) == Factorization(1, ())
    assert factorize(97) == Factorization(97, ((97, 1),))
    assert factorize(64) == Factorization(64, ((2, 6),))
    with pytest.raises(ValueError):
        factorize(0)


def trial_division(n: int) -> Factorization:
    """The reference factorization: divide by 2 and every odd number up to sqrt(rest)."""
    rest = n
    out: list[tuple[int, int]] = []
    for p in itertools.chain((2,), itertools.count(3, 2)):
        if p * p > rest:
            break
        k = 0
        while rest % p == 0:
            rest //= p
            k += 1
        if k:
            out.append((p, k))
    if rest > 1:
        out.append((rest, 1))
    return Factorization(n, tuple(out))


@pytest.mark.parametrize(
    "n",
    [
        1,
        2**32,
        2**32 - 1,
        4294967291,  # the largest prime below 2**32
        2**31 - 1,
        65519 * 65521,  # the two largest primes below 2**16
        65521**2,
        3**20,
        3215031751,  # 151 * 751 * 28351, a strong pseudoprime to the bases 2, 3, 5 and 7
    ],
)
def test_factorize_matches_trial_division_at_the_edges(n):
    assert factorize(n) == trial_division(n)


@given(st.integers(1, 2**32))
def test_factorize_matches_trial_division(n):
    assert factorize(n) == trial_division(n)


def test_factorize_refuses_past_its_exact_bound():
    # the domain ends at the CLI's largest modulus, 2**32
    assert FACTOR_LIMIT == 2**32 + 1
    with pytest.raises(ValueError, match=str(FACTOR_LIMIT)):
        factorize(FACTOR_LIMIT)
    assert factorize(2**32).factors == ((2, 32),)


@given(st.integers(1, 10**6))
def test_factorize_round_trip(n):
    fact = factorize(n)
    product = 1
    for p, k in fact.factors:
        assert k >= 1
        product *= p**k
    assert product == n
    primes = [p for p, _ in fact.factors]
    assert primes == sorted(primes) and len(set(primes)) == len(primes)


def test_nilpotency_index_known_values():
    assert nilpotency_index(Residue(0, 2)) == 1
    assert nilpotency_index(Residue(2, 4)) == 2
    assert nilpotency_index(Residue(6, 12)) == 2
    assert nilpotency_index(Residue(3, 9)) == 2
    assert nilpotency_index(Residue(2, 16)) == 4
    assert nilpotency_index(Residue(0, 1)) == 1
    with pytest.raises(NotNilpotent):
        nilpotency_index(Residue(3, 6))
    with pytest.raises(NotNilpotent):
        nilpotency_index(Residue(1, 5))


@given(st.integers(2, 64), st.integers(0, 63))
def test_nilpotency_index_minimality(m, v):
    x = Residue(v, m)
    zero = Residue(0, m)
    try:
        k = nilpotency_index(x)
    except NotNilpotent:
        assert all(x**j != zero for j in range(1, m.bit_length() + 1))
        return
    assert x**k == zero
    if k > 1:
        assert x ** (k - 1) != zero
