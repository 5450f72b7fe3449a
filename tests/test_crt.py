import itertools
import math

import pytest
from hypothesis import given, strategies as st

from zmdiff.crt import coprime_split, crt_iso, project, combine, split_modulus
from zmdiff.modring import FACTOR_LIMIT, Residue, factorize

from test_modring import trial_division


def split_for(m, b):
    return split_modulus(factorize(m), b)


def test_split_modulus_known_values():
    assert (split_for(6, 3).m1, split_for(6, 3).m2) == (2, 3)
    assert (split_for(6, 4).m1, split_for(6, 4).m2) == (3, 2)
    assert (split_for(12, 6).m1, split_for(12, 6).m2) == (1, 12)
    assert (split_for(12, 9).m1, split_for(12, 9).m2) == (4, 3)
    assert (split_for(9, 3).m1, split_for(9, 3).m2) == (1, 9)
    # b = 0 is divisible by every prime; b a unit shares none
    assert (split_for(10, 0).m1, split_for(10, 0).m2) == (1, 10)
    assert (split_for(10, 1).m1, split_for(10, 1).m2) == (10, 1)


def test_split_parts_multiply_back():
    for m in range(2, 40):
        for b in range(m):
            s = split_for(m, b)
            assert s.m1 * s.m2 == m
            assert math.gcd(s.m1, s.m2) == 1
            # every prime of m2 divides b, no prime of m1 does
            for p, _ in factorize(s.m2).factors:
                assert b % p == 0
            for p, _ in factorize(s.m1).factors:
                assert b % p != 0


def prime_powers(m):
    """[(p, p**k) for p**k || m], by trial division: the partition the split must match."""
    return [(p, p**k) for p, k in trial_division(m).factors]


def partition(powers, b):
    m2 = math.prod(q for p, q in powers if b % p == 0)
    return math.prod(q for _, q in powers) // m2, m2


def splits_like_the_partition(m, b, powers):
    s = coprime_split(m, b)
    return (s.m, s.m1, s.m2) == (m, *partition(powers, b))


def test_gcd_split_matches_the_prime_power_partition_for_every_b():
    for m in range(1, 2001):
        m2 = [1] * m  # m2[b] collects q = p**k || m for each p | b
        for p, q in prime_powers(m):
            m2[::p] = [x * q for x in m2[::p]]
        splits = map(coprime_split, itertools.repeat(m), range(m))
        assert [s.m2 for s in splits] == m2, m  # m1 = m // m2; the tests below check it


MODULI = st.one_of(
    st.integers(1, 2**32),
    st.lists(st.sampled_from([2, 3, 5, 7, 11, 13]), max_size=24).map(math.prod),  # smooth
    st.builds(lambda k, c: 2**k * c, st.integers(1, 16), st.integers(1, 2**16)),
)


@given(MODULI, st.sampled_from([0, 1, -1, None]), st.integers(0, 2**64))
def test_gcd_split_matches_the_prime_power_partition(m, special, other):
    b = (other if special is None else special) % m  # 0, 1, m - 1 or any b
    assert splits_like_the_partition(m, b, prime_powers(m))


@pytest.mark.parametrize(
    "m",
    [2**32, 2**32 - 1, 4294967291, 2**16 * 3**4 * 5**2 * 7, 2 * 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23],
    ids=str,
)
def test_gcd_split_at_the_bound(m):
    # b = the product of each set of m's primes, alone, times a prime unit, and cubed
    powers = prime_powers(m)
    primes = [p for p, _ in powers]
    subsets = itertools.chain.from_iterable(
        itertools.combinations(primes, k) for k in range(len(primes) + 1))
    for b in (math.prod(s) for s in subsets):
        for c in (b, b * 4294967311, b**3 * 65521):
            assert splits_like_the_partition(m, c % m, powers), c
    assert all(splits_like_the_partition(m, b % m, powers) for b in (0, 1, -1, 2**31 + 11))


def test_gcd_split_past_factorize_limit():
    # factorize refuses past FACTOR_LIMIT; the split needs no prime, so it does not
    powers = [(2, 2**5), (3, 3**2), (2**61 - 1, (2**61 - 1) ** 2)]
    m = math.prod(q for _, q in powers)
    assert m >= FACTOR_LIMIT
    with pytest.raises(ValueError):
        factorize(m)
    for b in (0, 1, m - 1, 6, 2**61 - 1, 3 * (2**61 - 1), 2**40 * 5, 7**30):
        assert splits_like_the_partition(m, b, powers), b


def test_combine_known_value():
    # over Z_6 with parts (2, 3): combine(u, v) = 3u + 4v
    iso = crt_iso(split_for(6, 3))
    assert combine(iso, Residue(1, 2), Residue(2, 3)) == Residue(5, 6)
    assert combine(iso, Residue(0, 2), Residue(0, 3)) == Residue(0, 6)
    assert combine(iso, Residue(1, 2), Residue(0, 3)) == Residue(3, 6)


def test_combine_degenerate_sides():
    iso = crt_iso(split_for(10, 1))  # m2 = 1
    assert combine(iso, Residue(7, 10), Residue(0, 1)) == Residue(7, 10)
    iso = crt_iso(split_for(10, 0))  # m1 = 1
    assert combine(iso, Residue(0, 1), Residue(7, 10)) == Residue(7, 10)


def test_project_known_values():
    s = split_for(6, 3)
    assert project(Residue(5, 6), 1, s) == Residue(1, 2)
    assert project(Residue(5, 6), 2, s) == Residue(2, 3)
    with pytest.raises(ValueError):
        project(Residue(5, 6), 3, s)


def test_unit_vectors():
    for m in range(2, 40):
        for b in range(m):
            s = split_for(m, b)
            iso = crt_iso(s)
            if s.m1 != 1:
                assert (iso.e1 * s.m2) % s.m1 == 1
            if s.m2 != 1:
                assert (iso.e2 * s.m1) % s.m2 == 1


@given(st.integers(2, 64), st.integers(0, 63), st.integers(0, 10**6))
def test_round_trip_split_then_join(m, b, v):
    s = split_for(m, b % m)
    iso = crt_iso(s)
    x = Residue(v, m)
    assert combine(iso, project(x, 1, s), project(x, 2, s)) == x


@given(st.integers(2, 64), st.integers(0, 63), st.integers(0, 10**6), st.integers(0, 10**6))
def test_round_trip_join_then_split(m, b, u, v):
    s = split_for(m, b % m)
    iso = crt_iso(s)
    t1, t2 = Residue(u, s.m1), Residue(v, s.m2)
    joined = combine(iso, t1, t2)
    assert project(joined, 1, s) == t1
    assert project(joined, 2, s) == t2


@given(
    st.integers(2, 64),
    st.integers(0, 63),
    st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)),
    st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)),
)
def test_combine_is_a_ring_homomorphism(m, b, pair_u, pair_v):
    s = split_for(m, b % m)
    iso = crt_iso(s)
    u1, u2 = Residue(pair_u[0], s.m1), Residue(pair_u[1], s.m2)
    v1, v2 = Residue(pair_v[0], s.m1), Residue(pair_v[1], s.m2)
    assert combine(iso, u1 + v1, u2 + v2) == combine(iso, u1, u2) + combine(iso, v1, v2)
    assert combine(iso, u1 * v1, u2 * v2) == combine(iso, u1, u2) * combine(iso, v1, v2)
