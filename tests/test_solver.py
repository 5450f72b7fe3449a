import ast
import itertools
import math
import random
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from zmdiff.modring import ModulusMismatch, Residue, factorize
from zmdiff.problem import InsufficientData, InvalidLiftDigit, ProblemSpec, SequenceSpec
from zmdiff import solver
from zmdiff.solver import (
    InsufficientLookahead,
    Structure,
    classify_equation,
    classify_initial_problem,
    explicit_solution,
    general_solution,
    nilpotent_solution,
    solve_initial_problem,
    split_problem,
    structure,
    truncation_depth,
)


def spec_of(m, a, b, f, period=None):
    return ProblemSpec(m, a, b, SequenceSpec.from_ints(f, m, period))


def holds(spec, xs):
    """Check every transition b*x[n+1] = a*x[n] + f[n] directly."""
    return all(
        (spec.b * xs[n + 1].value) % spec.m
        == (spec.a * xs[n].value + spec.forcing.term(n).value) % spec.m
        for n in range(len(xs) - 1)
    )


MIXED = spec_of(6, 2, 3, [1, 2, 0, 1], period=4)  # parts (2, 3), both live
FORCED = spec_of(9, 2, 3, [1], period=1)  # b nilpotent, unique solution
EXPLICIT = spec_of(5, 3, 2, [4, 1, 0, 2], period=4)  # b invertible


def test_split_problem_components():
    sp = split_problem(MIXED)
    assert (sp.iso.split.m1, sp.iso.split.m2) == (2, 3)
    assert (sp.a1, sp.b1) == (Residue(0, 2), Residue(1, 2))
    assert (sp.a2, sp.b2) == (Residue(2, 3), Residue(0, 3))
    assert sp.ind_b2 == 1
    assert sp.f1.terms == (1, 0, 0, 1)
    assert sp.f2.terms == (1, 2, 0, 1)


def test_explicit_solution_satisfies_transitions():
    xs = [
        explicit_solution(Residue(EXPLICIT.a, 5), Residue(EXPLICIT.b, 5), Residue(3, 5), EXPLICIT.forcing, n)
        for n in range(8)
    ]
    assert xs[0] == Residue(3, 5)
    assert holds(EXPLICIT, xs)


def test_explicit_solution_known_start_dependence():
    # with a = 0 the start value washes out after one step
    spec = spec_of(5, 0, 2, [1], period=1)
    for x0 in range(5):
        a, b = Residue(spec.a, 5), Residue(spec.b, 5)
        xs = [explicit_solution(a, b, Residue(x0, 5), spec.forcing, n) for n in range(4)]
        assert xs[0].value == x0
        assert [x.value for x in xs[1:]] == [3, 3, 3]  # 2*x = 1 mod 5 -> x = 3


def test_nilpotent_solution_closed_form():
    # b = 3 mod 9 has square zero: x[n] = 4*f[n] + 6*f[n+1] mod 9
    rng = random.Random(7)
    for _ in range(25):
        f = [rng.randrange(9) for _ in range(6)]
        spec = spec_of(9, 2, 3, f)
        for n in range(4):
            got = nilpotent_solution(Residue(2, 9), Residue(3, 9), spec.forcing, n)
            assert got.value == (4 * f[n] + 6 * f[n + 1]) % 9


def test_nilpotent_solution_needs_lookahead():
    spec = spec_of(9, 2, 3, [1, 1, 1])
    a, b = Residue(spec.a, 9), Residue(spec.b, 9)
    nilpotent_solution(a, b, spec.forcing, 1)
    with pytest.raises(InsufficientLookahead) as err:
        nilpotent_solution(a, b, spec.forcing, 2)
    assert (err.value.index, err.value.window) == (2, 2)


def test_compatibility_residue():
    s = structure(MIXED)
    assert (s.compatibility, s.shape.psplit.m2) == (1, 3)  # x[0] = 1 (mod m2' = 3)
    # the nilpotent side is trivial: every start value is consistent
    assert structure(EXPLICIT).compatibility is None


def test_compatibility_is_none_at_a_witness():
    # d = 2 does not divide f[0] = 1, so no start solves, though m2' = 3 is nontrivial
    s = structure(spec_of(12, 2, 6, [1, 2, 0], period=3))
    assert (s.witness, s.shape.psplit.m2) == (0, 3)
    assert s.compatibility is None


class TestClassifyEquation:
    def test_coprime_is_finite(self):
        cls = classify_equation(MIXED)
        assert (cls.kind, cls.count) == ("finite", 2)
        assert not cls.support_qualified
        assert classify_equation(FORCED).count == 1
        assert classify_equation(EXPLICIT).count == 5

    def test_witness_blocks_everything(self):
        cls = classify_equation(spec_of(12, 2, 6, [2, 3, 0]))
        assert (cls.kind, cls.witness_index) == ("none", 1)

    def test_divisible_forcing_gives_infinite_family(self):
        cls = classify_equation(spec_of(12, 2, 6, [2, 4, 0], period=3))
        assert (cls.kind, cls.d, cls.m1_prime) == ("infinite", 2, 2)
        assert not cls.support_qualified
        cls = classify_equation(spec_of(12, 6, 9, [3, 0, 6], period=3))
        assert (cls.kind, cls.d, cls.m1_prime) == ("infinite", 3, 4)

    def test_aperiodic_divisible_prefix_is_qualified(self):
        cls = classify_equation(spec_of(12, 2, 6, [2, 4, 0]))
        assert cls.kind == "infinite"
        assert cls.support_qualified


class TestClassifyInitialProblem:
    def test_compatibility_rule(self):
        # start values must match the forced residue mod 3
        for y0 in range(6):
            cls = classify_initial_problem(MIXED, Residue(y0, 6))
            if y0 % 3 == 1:
                assert cls.kind == "unique"
            else:
                assert (cls.kind, cls.reason) == ("none", "compatibility")
                assert (cls.required, cls.actual, cls.condition_modulus) == (1, y0 % 3, 3)

    def test_explicit_always_unique(self):
        for y0 in range(5):
            assert classify_initial_problem(EXPLICIT, Residue(y0, 5)).kind == "unique"

    def test_divisibility_failure(self):
        spec = spec_of(12, 2, 6, [1, 2, 0])
        cls = classify_initial_problem(spec, Residue(1, 12))
        assert (cls.kind, cls.reason, cls.witness_index) == ("none", "divisibility", 0)

    def test_reduced_compatibility_rule(self):
        # after dividing by d = 2 the start value must match f[0] mod 3
        spec = spec_of(12, 2, 6, [2, 4, 0], period=3)
        for y0 in range(12):
            cls = classify_initial_problem(spec, Residue(y0, 12))
            expected = "infinitely_many" if y0 % 3 == 2 % 3 else "none"
            assert cls.kind == expected

    def test_trivial_reduced_nilpotent_side(self):
        # m' = 4 has no prime shared with b' = 3: every start works
        spec = spec_of(12, 6, 9, [3, 0, 6], period=3)
        for y0 in range(12):
            assert classify_initial_problem(spec, Residue(y0, 12)).kind == "infinitely_many"

    def test_modulus_mismatch(self):
        with pytest.raises(ModulusMismatch):
            classify_initial_problem(MIXED, Residue(1, 12))

    def test_aperiodic_family_is_qualified(self):
        # d = 2 divides every term of the prefix, which certifies nothing beyond it
        cls = classify_initial_problem(spec_of(12, 2, 6, [2, 4, 0, 2]), Residue(2, 12))
        assert cls.kind == "infinitely_many"
        assert cls.support_qualified

    def test_periodic_family_is_not_qualified(self):
        cls = classify_initial_problem(spec_of(12, 2, 6, [2, 4, 0, 2], period=4), Residue(2, 12))
        assert cls.kind == "infinitely_many"
        assert not cls.support_qualified
        # at d == 1 no divisibility check rests on the prefix
        cls = classify_initial_problem(spec_of(6, 2, 3, [1, 2, 0]), Residue(4, 6))
        assert cls.kind == "unique"
        assert not cls.support_qualified


@given(st.data())
def test_aperiodic_start_verdicts_are_exact_or_name_the_terms_they_need(data):
    """On an aperiodic f shorter than the lookahead, every start verdict either raises
    InsufficientLookahead for an index past the support or holds on every periodic
    completion of f. A support-qualified infinitely_many rests on unseen terms by design."""
    m = data.draw(st.integers(2, 64))
    a, b = data.draw(st.integers(0, m - 1)), data.draw(st.integers(0, m - 1))
    f = data.draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=5))
    completions = []
    for _ in range(3):
        full = f + data.draw(st.lists(st.integers(0, m - 1), max_size=8))
        period = data.draw(st.integers(1, len(full)))
        completions.append(structure(spec_of(m, a, b, full, period)))
    aperiodic = structure(spec_of(m, a, b, f))
    for y0 in range(m):
        try:
            verdict = aperiodic.classify_initial(y0)
        except InsufficientLookahead as exc:
            assert exc.index + exc.window - 1 >= len(f)
            continue
        if verdict.kind == "infinitely_many" and verdict.support_qualified:
            continue
        for completion in completions:
            assert completion.classify_initial(y0).kind == verdict.kind


class TestGeneralSolution:
    def test_mixed_shape(self):
        sol = general_solution(MIXED)
        assert sol.kind == "mixed"
        assert (sol.free_initial_modulus, sol.lift_digit_bound, sol.lookahead) == (2, 1, 0)
        assert [x.value for x in sol.sequence(4, x10=0)] == [4, 5, 0, 4]
        assert [x.value for x in sol.sequence(4, x10=1)] == [1, 5, 0, 4]

    def test_nilpotent_shape(self):
        sol = general_solution(FORCED)
        assert sol.kind == "nilpotent"
        assert (sol.free_initial_modulus, sol.lookahead) == (1, 1)
        assert [x.value for x in sol.sequence(5)] == [1, 1, 1, 1, 1]

    def test_explicit_shape(self):
        sol = general_solution(EXPLICIT)
        assert sol.kind == "explicit"
        assert (sol.free_initial_modulus, sol.lookahead) == (5, 0)
        for x10 in range(5):
            xs = sol.sequence(6, x10)
            assert xs[0].value == x10
            assert holds(EXPLICIT, xs)

    def test_lifted_shape(self):
        spec = spec_of(12, 2, 6, [2, 4, 0], period=3)
        sol = general_solution(spec)
        assert sol.kind == "lifted"
        assert (sol.free_initial_modulus, sol.lift_digit_bound, sol.lookahead) == (2, 2, 0)
        for x10 in range(2):
            for alpha in itertools.product(range(2), repeat=4):
                xs = sol.sequence(4, x10, list(alpha))
                assert holds(spec, xs)

    def test_null_ring_reduction_frees_every_digit(self):
        # a = b = 0 forces f = 0 and leaves x[n] completely free
        spec = spec_of(4, 0, 0, [0], period=1)
        sol = general_solution(spec)
        assert (sol.kind, sol.lift_digit_bound, sol.free_initial_modulus) == ("lifted", 4, 1)
        assert [x.value for x in sol.sequence(3, 0, [3, 1, 2])] == [3, 1, 2]

    def test_null_ring_stops_at_an_aperiodic_support(self):
        # x[n] rests on the transition f[n-1] = 0, which the support no longer covers at n = 2
        sol = general_solution(spec_of(4, 0, 0, [0]))
        assert [x.value for x in sol.sequence(2, 0, [3, 1])] == [3, 1]
        with pytest.raises(InsufficientData, match="index 1 is beyond"):
            sol.sequence(3)

    def test_no_solutions_raises(self):
        with pytest.raises(ValueError):
            general_solution(spec_of(12, 2, 6, [1]))

    def test_parameter_domains_enforced(self):
        sol = general_solution(MIXED)
        with pytest.raises(ValueError):
            sol.value(0, x10=2)
        with pytest.raises(ValueError, match="index must be non-negative, got -1"):
            sol.value(-1)
        lifted = general_solution(spec_of(12, 2, 6, [2, 4, 0], period=3))
        with pytest.raises(InvalidLiftDigit):
            lifted.value(1, 0, [0, 2])

    def test_insufficient_lookahead_surfaces(self):
        sol = general_solution(spec_of(9, 2, 3, [1, 1, 1]))
        sol.value(1)
        with pytest.raises(InsufficientLookahead):
            sol.value(2)

    @pytest.mark.parametrize("f, required", [([1], None), ([1, 3], None), ([1, 3, 5], None),
                                             ([1, 3, 5, 7], 13)])
    def test_start_condition_waits_for_the_whole_lookahead(self, f, required):
        # ind' = 4 over m2' = 16: x[0] = -(f[0] + 2 f[1] + 4 f[2] + 8 f[3]) = -83 = 13 (mod 16)
        st_ = structure(spec_of(16, 1, 2, f))
        if required is not None:
            assert st_.compatibility == required
            return
        needs = r"^value at index 0 needs forcing terms 0\.\.3,"
        with pytest.raises(InsufficientLookahead, match=needs):
            st_.compatibility
        assert "nilpotent_side" not in vars(st_)  # a support shorter than ind' decides nothing


class TestSolveInitialProblem:
    def test_unique_solution_matches_closed_form(self):
        sol = solve_initial_problem(MIXED, Residue(4, 6))
        assert (sol.free_initial_modulus, sol.lift_digit_bound) == (1, 1)
        assert [x.value for x in sol.sequence(4)] == [4, 5, 0, 4]

    def test_incompatible_start_raises(self):
        with pytest.raises(ValueError):
            solve_initial_problem(MIXED, Residue(2, 6))
        with pytest.raises(ValueError):
            solve_initial_problem(spec_of(12, 2, 6, [1]), Residue(0, 12))

    def test_modulus_mismatch(self):
        with pytest.raises(ModulusMismatch):
            solve_initial_problem(MIXED, Residue(1, 12))

    def test_pinned_lift_digit(self):
        # x[0] = 7 = 3 + 1*4 fixes alpha[0] = 1; later digits stay free
        spec = spec_of(12, 6, 9, [3, 0, 6], period=3)
        sol = solve_initial_problem(spec, Residue(7, 12))
        assert sol.fixed_digits == ((0, 1),)
        assert sol.lift_digit_bound == 3
        for alpha in itertools.product(range(3), repeat=3):
            xs = sol.sequence(3, 0, [0, *alpha[1:]])
            assert xs[0].value == 7
            assert holds(spec, xs)

    def test_family_values_at_fixed_index(self):
        # index 1 of the reduced solution is [4]_6, lifting to {4, 10}
        spec = spec_of(12, 2, 6, [2, 4, 0], period=3)
        sol = solve_initial_problem(spec, Residue(5, 12))
        values = {sol.value(1, 0, [0, dg]).value for dg in range(2)}
        assert values == {4, 10}

    def test_null_ring_reduction_pins_only_the_start(self):
        spec = spec_of(4, 0, 0, [0], period=1)
        sol = solve_initial_problem(spec, Residue(3, 4))
        assert sol.fixed_digits == ((0, 3),)
        assert [x.value for x in sol.sequence(3, 0, [0, 1, 2])] == [3, 1, 2]


@given(st.data())
def test_structure_takes_the_start_the_public_wrappers_take_as_a_residue(data):
    """Structure takes x[0] = y0 as an int in [0, m); classify_initial_problem and
    solve_initial_problem take it as a Residue, reduced from any representative, and
    give the same verdict, the same solution values and the same refusal."""
    m = data.draw(st.integers(2, 30))
    a, b = data.draw(st.integers(0, m - 1)), data.draw(st.integers(0, m - 1))
    scale = data.draw(st.sampled_from([1, math.gcd(a, b, m)]))  # often solvable
    raw = data.draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=6))
    spec = spec_of(m, a, b, [v * scale for v in raw], data.draw(st.integers(1, len(raw))))
    s = structure(spec)
    k = data.draw(st.integers(0, 3))
    for y0 in (v + sign * k * m for v in range(m) for sign in (1, -1)):
        start = Residue(y0, m)
        assert s.classify_initial(y0 % m) == classify_initial_problem(spec, start)
        try:
            expected = solve_initial_problem(spec, start).values(8)
        except ValueError as exc:
            with pytest.raises(ValueError) as err:
                s.solution(y0 % m)
            assert str(err.value) == str(exc)
        else:
            assert s.solution(y0 % m).values(8) == expected


def test_truncation_depth_values():
    assert truncation_depth(MIXED) == 1
    assert truncation_depth(FORCED) == 2
    assert truncation_depth(EXPLICIT) == 0
    assert truncation_depth(spec_of(12, 2, 6, [2, 4, 0], period=3)) == 1
    assert truncation_depth(spec_of(12, 6, 9, [3, 0, 6], period=3)) == 0
    assert truncation_depth(spec_of(16, 1, 2, [0], period=1)) == 4
    assert truncation_depth(spec_of(4, 0, 0, [0], period=1)) == 0


def _answers(s):
    """Everything a Structure answers: its split data, its verdicts for the free and
    every pinned problem and, when solvable, its compatibility and two windows."""
    m = s.spec.m
    sh = s.shape
    out = [sh.d, sh.split, sh.psplit, sh.ind_b2, sh.ind_b2_prime, sh.truncation, s.classify(),
           [s.classify_initial(y0) for y0 in range(m)]]
    if s.witness is None:
        out += [s.compatibility, s.window(0, 8, 0), s.window(3, 5, sh.psplit.m1 - 1)]
    return out


@given(st.data())
def test_problems_with_the_same_coefficients_share_one_shape(data):
    """structure() takes the (m, a, b) half from a bounded cache. Two forcings get the same
    shape object; it equals a fresh derivation, which is how every problem was derived
    before the cache, and each problem answers as it does on a freshly derived shape."""
    m = data.draw(st.integers(2, 30))
    a, b = data.draw(st.integers(0, m - 1)), data.draw(st.integers(0, m - 1))
    d = math.gcd(a, b, m)
    raw = data.draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=6))
    other = data.draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=6).filter(
        lambda g: [v * d % m for v in g] != raw))
    first = structure(spec_of(m, a, b, raw, len(raw)))  # any f, often not divisible by d
    first_answers = _answers(first)
    second = structure(spec_of(m, a, b, [v * d for v in other], len(other)))  # solvable
    assert first.shape is second.shape
    fresh = solver.shape.__wrapped__(m, a, b)
    assert fresh == first.shape  # every field, the evaluator's kernel included
    for s, answers in ((first, first_answers), (second, _answers(second))):
        assert answers == _answers(Structure(s.spec, solver.shape.__wrapped__(m, a, b), s.witness))


def test_shape_cache_is_bounded():
    assert solver.shape.cache_info().maxsize == 256


def test_factorize_cache_is_bounded():
    # no command calls it; `bench/run.py --trace 1` reads its cache_info, and the bound
    # keeps criterion 7's thousand random n from being held for the life of the process
    assert factorize.cache_info().maxsize == 64


@pytest.mark.parametrize(
    "module, imported", [("solver.py", "coprime_split"), ("cli.py", "structure")]
)
def test_no_command_path_names_factorize(module, imported):
    # shape() splits m by one gcd; factoring m is left to the tests and the benchmark
    tree = ast.parse(Path(solver.__file__).with_name(module).read_text())
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    names |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
              for alias in node.names}
    assert {"gcd", "math", imported} <= names  # the walk sees every kind of name
    assert "factorize" not in names
