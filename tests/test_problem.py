import pytest
from hypothesis import given, strategies as st

from zmdiff.modring import InvalidModulus, ModulusMismatch, Residue
from zmdiff.problem import (
    InsufficientData,
    InvalidLiftDigit,
    NonDivisibleForcing,
    ProblemSpec,
    SequenceSpec,
    first_nondivisible_index,
    reduce_by_gcd,
)
from zmdiff.solver import structure


class TestSequenceSpec:
    def test_basic_indexing(self):
        f = SequenceSpec.from_ints([1, 2, 0, 1], 6)
        assert f.modulus == 6
        assert f.term(0) == Residue(1, 6)
        assert f.term(3) == Residue(1, 6)

    def test_aperiodic_runs_out(self):
        f = SequenceSpec.from_ints([1, 2], 6)
        with pytest.raises(InsufficientData) as err:
            f.term(2)
        assert err.value.index == 2

    def test_negative_index(self):
        f = SequenceSpec.from_ints([1], 6)
        with pytest.raises(ValueError):
            f.term(-1)

    def test_fully_periodic(self):
        f = SequenceSpec.from_ints([1, 2, 0, 1], 6, period=4)
        assert [f.term(n).value for n in range(9)] == [1, 2, 0, 1, 1, 2, 0, 1, 1]

    def test_eventually_periodic(self):
        # aperiodic head 7, then the final window (1, 2) repeats
        f = SequenceSpec.from_ints([7, 1, 2], 9, period=2)
        assert [f.term(n).value for n in range(7)] == [7, 1, 2, 1, 2, 1, 2]

    def test_validation(self):
        with pytest.raises(ValueError):
            SequenceSpec((), 6)
        with pytest.raises(InvalidModulus):
            SequenceSpec((1, 2), 0)
        assert SequenceSpec((-1, 8), 6).terms == (5, 2)
        with pytest.raises(ValueError):
            SequenceSpec.from_ints([1, 2], 6, period=3)
        with pytest.raises(ValueError):
            SequenceSpec.from_ints([1, 2], 6, period=0)


@given(st.lists(st.integers(0, 11), min_size=1, max_size=6), st.data())
def test_values_read_what_term_reads(raw, data):
    # the same ints, or InsufficientData at the same index, periodic or not
    period = data.draw(st.none() | st.integers(1, len(raw)))
    f = SequenceSpec.from_ints(raw, 12, period)
    lo = data.draw(st.integers(0, 10))
    hi = data.draw(st.integers(-1, 16))  # hi = -1 is an empty candidate's read, values(0, -1)
    extended = list(raw)  # by the definition f[n] = f[n - period] past the prefix
    while period and len(extended) < hi:
        extended.append(extended[-period])
    try:
        expected = [f.term(k).value for k in range(lo, hi)]
    except InsufficientData as exc:
        with pytest.raises(InsufficientData) as err:
            f.values(lo, hi)
        assert err.value.index == exc.index == next(k for k in range(lo, hi) if k >= len(raw))
        return
    assert f.values(lo, hi) == expected == extended[lo:max(lo, hi)]


@given(st.lists(st.integers(0, 11), min_size=1, max_size=6), st.data())
def test_far_periodic_reads_follow_the_index_formula(raw, data):
    # past the prefix f[n] = f[start + (n - start) mod p], start = len(f) - p, at any lo
    period = data.draw(st.integers(1, len(raw)))
    f = SequenceSpec.from_ints(raw, 12, period)
    lo = data.draw(st.integers(0, 12) | st.integers(0, 10**6))
    hi = lo + data.draw(st.integers(-1, 3 * len(raw)))
    start = len(raw) - period
    expected = [raw[n if n < len(raw) else start + (n - start) % period] for n in range(lo, hi)]
    assert f.values(lo, hi) == expected


class TestProblemSpec:
    def test_coefficients_stored_canonically(self):
        spec = ProblemSpec(12, 14, -3, SequenceSpec.from_ints([0], 12))
        assert (spec.a, spec.b) == (2, 9)
        assert spec.d == 1

    def test_d(self):
        f = SequenceSpec.from_ints([0], 12)
        assert ProblemSpec(12, 2, 6, f).d == 2
        assert ProblemSpec(12, 6, 9, f).d == 3
        assert ProblemSpec(12, 0, 0, f).d == 12

    def test_validation(self):
        with pytest.raises(ModulusMismatch):
            ProblemSpec(12, 1, 1, SequenceSpec.from_ints([0], 6))
        with pytest.raises(InvalidModulus, match="equation modulus must be >= 2, got 1"):
            ProblemSpec(1, 0, 0, SequenceSpec.from_ints([0], 1))


def test_first_nondivisible_index():
    assert first_nondivisible_index(SequenceSpec.from_ints([2, 4, 0], 12), 2) is None
    assert first_nondivisible_index(SequenceSpec.from_ints([2, 3, 0], 12), 2) == 1
    assert first_nondivisible_index(SequenceSpec.from_ints([1, 2, 0], 12), 2) == 0
    assert first_nondivisible_index(SequenceSpec.from_ints([1, 3, 5], 12), 1) is None


class TestReduceByGcd:
    def test_known_reduction(self):
        # 6*x[n+1] = 2*x[n] + f[n] over Z_12 divides through by 2
        spec = ProblemSpec(12, 2, 6, SequenceSpec.from_ints([2, 4, 0], 12, period=3))
        red = reduce_by_gcd(spec)
        assert (red.d, red.m, red.a, red.b) == (2, 6, 1, 3)
        assert red.forcing.terms == (1, 2, 0)
        assert red.forcing.period == 3

    def test_trivial_when_coprime(self):
        spec = ProblemSpec(6, 2, 3, SequenceSpec.from_ints([1, 2], 6))
        red = reduce_by_gcd(spec)
        assert (red.d, red.m, red.a, red.b) == (1, 6, 2, 3)
        assert ProblemSpec(red.m, red.a, red.b, red.forcing) == spec

    def test_collapse_to_null_ring(self):
        spec = ProblemSpec(4, 0, 0, SequenceSpec.from_ints([0, 0], 4))
        red = reduce_by_gcd(spec)
        assert (red.d, red.m) == (4, 1)

    def test_non_divisible_forcing(self):
        spec = ProblemSpec(12, 2, 6, SequenceSpec.from_ints([2, 3, 0], 12))
        with pytest.raises(NonDivisibleForcing) as err:
            reduce_by_gcd(spec)
        assert err.value.witness == 1


class TestLiftSolution:
    # the lift x[n] = x'[n] + alpha[n]*m' happens in GeneralSolution.value
    def test_known_lift(self):
        # d = 2, m' = 6; the reduced solution from x10 = 0 starts 2, 1
        sol = structure(ProblemSpec(12, 2, 6, SequenceSpec.from_ints([2, 4, 0], 12, 3))).solution()
        assert sol.sequence(2, 0, [0, 0]) == [Residue(2, 12), Residue(1, 12)]
        assert sol.sequence(2, 0, [1, 0]) == [Residue(8, 12), Residue(1, 12)]

    def test_digits_must_be_in_range(self):
        sol = structure(ProblemSpec(12, 2, 6, SequenceSpec.from_ints([2, 4, 0], 12, 3))).solution()
        for digit in (2, -1):
            with pytest.raises(InvalidLiftDigit):
                sol.value(0, 0, [digit])

    def test_distinct_digits_give_distinct_values(self):
        # d = 3, m' = 4, and x'[0] = 2
        sol = structure(ProblemSpec(12, 3, 6, SequenceSpec.from_ints([6], 12, 1))).solution()
        seen = {sol.value(0, 0, [dg]).value for dg in range(3)}
        assert seen == {2, 6, 10}
