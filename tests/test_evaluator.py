"""The integer evaluator behind every solution, against the Residue closed forms.

Structure.reduced_value steps the invertible side on ints and takes a fixed
weighted sum on the nilpotent side. These tests hold it to verify_solution
and to the reference closed forms (explicit_solution, nilpotent_solution,
combine) on the gcd-reduced problem, including at the documented bounds.
"""

import math

from hypothesis import assume, given, strategies as st

from zmdiff.crt import combine
from zmdiff.modring import Residue
from zmdiff.oracle import verify_solution
from zmdiff.problem import ProblemSpec, SequenceSpec, reduce_by_gcd
from zmdiff.solver import (
    explicit_solution,
    general_solution,
    nilpotent_solution,
    solve_initial_problem,
    split_problem,
)

WINDOW = 12


@st.composite
def solvable_problems(draw):
    """m <= 64, any a and b, periodic forcing whose terms d = gcd(a, b, m) divides."""
    m = draw(st.integers(2, 64))
    a = draw(st.integers(0, m - 1))
    b = draw(st.integers(0, m - 1))
    d = math.gcd(a, b, m)
    raw = draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=6))
    period = draw(st.integers(1, len(raw)))
    return ProblemSpec(m, a, b, SequenceSpec.from_ints([v * d for v in raw], m, period))


@given(solvable_problems(), st.data())
def test_free_and_pinned_solutions_verify(spec, data):
    sol = general_solution(spec)
    x10 = data.draw(st.integers(0, sol.free_initial_modulus - 1))
    digits = st.integers(0, sol.lift_digit_bound - 1)
    alpha = data.draw(st.lists(digits, min_size=WINDOW, max_size=WINDOW))
    seq = sol.sequence(WINDOW, x10, alpha)
    assert verify_solution(spec, seq) == (True, None)

    y0 = seq[0]
    pinned = solve_initial_problem(spec, y0)
    pseq = pinned.sequence(WINDOW, 0, alpha)
    assert verify_solution(spec, pseq, y0) == (True, None)


@given(solvable_problems(), st.data())
def test_reduced_value_matches_the_closed_forms(spec, data):
    reduced = reduce_by_gcd(spec)
    assume(reduced.m >= 2)
    sp = split_problem(reduced.as_problem())
    sol = general_solution(spec)
    x10 = data.draw(st.integers(0, sol.free_initial_modulus - 1))
    start = Residue(x10, sp.iso.split.m1)
    for n in range(41):
        x1 = explicit_solution(sp.a1, sp.b1, start, sp.f1, n)
        x2 = nilpotent_solution(sp.a2, sp.b2, sp.f2, n)
        assert sol.value(n, x10).value % reduced.m == combine(sp.iso, x1, x2).value


def test_index_32_window_verifies():
    m = 2**32
    spec = ProblemSpec(m, 1, 2, SequenceSpec.from_ints([1], m, period=1))
    sol = general_solution(spec)
    assert sol.lookahead == 31
    assert verify_solution(spec, sol.sequence(200)) == (True, None)


def test_deep_explicit_value_matches_the_closed_form():
    m = 2**32
    spec = ProblemSpec(m, 5, 3, SequenceSpec.from_ints([7, 1, m - 1], m, period=2))
    a, b = Residue(spec.a, m), Residue(spec.b, m)
    expected = explicit_solution(a, b, Residue(12345, m), spec.forcing, 5000)
    assert general_solution(spec).value(5000, 12345) == expected
