import ast
import itertools
import re
import tracemalloc
from operator import itemgetter
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

import zmdiff
from zmdiff.modring import ModulusMismatch, Residue, prime_powers
from zmdiff.oracle import (
    BudgetExceeded,
    brute_force_prefixes,
    count_prefixes,
    verify_solution,
)
from zmdiff.problem import InsufficientData, ProblemSpec, SequenceSpec

from test_modring import trial_division


def spec_of(m, a, b, f, period=None):
    return ProblemSpec(m, a, b, SequenceSpec.from_ints(f, m, period))


MIXED = spec_of(6, 2, 3, [1, 2, 0, 1], period=4)


def counted(*args, **kwargs):
    """count_prefixes with its lazy starts read into a list."""
    count, starts = count_prefixes(*args, **kwargs)
    return count, list(starts)


def successors(m, a, b, xn, fn):
    """Every x with b*x == a*xn + fn (mod m): the length-2 prefixes that start at xn."""
    pfx = brute_force_prefixes(spec_of(m, a, b, [fn]), 2, y0=Residue(xn, m))
    return sorted(seq[1] for seq in pfx.sequences)


class TestStepSolutions:
    def test_gcd_many(self):
        # 3*x = 2*4 + 1 = 3 (mod 6): three solutions
        assert successors(6, 2, 3, 4, 1) == [1, 3, 5]

    def test_empty_when_rhs_not_divisible(self):
        assert successors(12, 2, 6, 0, 1) == []

    def test_invertible_b_gives_singleton(self):
        got = successors(5, 3, 2, 2, 1)
        assert len(got) == 1
        assert (2 * got[0]) % 5 == (3 * 2 + 1) % 5


class TestBruteForcePrefixes:
    def test_full_and_truncated_counts(self):
        pfx = brute_force_prefixes(MIXED, 4)
        assert pfx.horizon == 4 and pfx.modulus == 6
        # the last position is only constrained up to the step multiplicity
        assert len(pfx.sequences) == 6
        assert counted(MIXED, 4, 1) == (2, [1, 4])
        assert counted(MIXED, 4, 0) == (6, [1, 4])

    def test_members_satisfy_the_equation(self):
        pfx = brute_force_prefixes(MIXED, 5)
        assert pfx.sequences
        for seq in sorted(pfx.sequences):
            ok, _ = verify_solution(MIXED, list(seq))
            assert ok

    def test_pinned_start(self):
        pfx = brute_force_prefixes(MIXED, 4, y0=Residue(4, 6))
        assert all(seq[0] == 4 for seq in pfx.sequences)
        # one kept prefix once the last position is cut
        assert len({seq[:3] for seq in pfx.sequences}) == 1
        # incompatible start: nothing survives
        empty = brute_force_prefixes(MIXED, 4, y0=Residue(2, 6))
        assert not empty.sequences

    def test_no_solutions_with_witness(self):
        pfx = brute_force_prefixes(spec_of(12, 2, 6, [1, 2, 0]), 4)
        assert not pfx.sequences

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            brute_force_prefixes(MIXED, 4, budget=3)

    def test_budget_blocks_huge_modulus_before_allocation(self):
        # the successor table is m entries; must refuse, not try to build it
        huge = spec_of(2**32, 3, 6, [3], period=1)
        with pytest.raises(BudgetExceeded):
            brute_force_prefixes(huge, 4, budget=1000)
        with pytest.raises(BudgetExceeded):
            brute_force_prefixes(huge, 4, y0=Residue(1, 2**32), budget=1000)

    def test_validation(self):
        with pytest.raises(ValueError):
            brute_force_prefixes(MIXED, 0)
        with pytest.raises(ModulusMismatch):
            brute_force_prefixes(MIXED, 3, y0=Residue(0, 5))
        with pytest.raises(InsufficientData):
            brute_force_prefixes(spec_of(6, 2, 3, [1, 2]), 4)

    def test_members_sorted(self):
        pfx = brute_force_prefixes(MIXED, 3)
        assert sorted(pfx.sequences) == [
            (1, 5, 0), (1, 5, 2), (1, 5, 4), (4, 5, 0), (4, 5, 2), (4, 5, 4)
        ]


def test_each_budget_message_names_its_own_unit():
    # the brute force charges a valid partial prefix, the counter a (position, residue) state
    with pytest.raises(BudgetExceeded, match="^exceeded the oracle budget of 8 partial prefixes$"):
        brute_force_prefixes(MIXED, 6, budget=8)
    with pytest.raises(
        BudgetExceeded,
        match=r"^exceeded the oracle budget of 8 \(position, residue\) states$",
    ):
        count_prefixes(MIXED, 6, budget=8)


def test_short_support_is_reported_before_the_budget():
    # f[1..2] are missing; a lazy read would run out of budget at length 2 (36 prefixes) first
    with pytest.raises(InsufficientData):
        brute_force_prefixes(spec_of(6, 0, 0, [0]), 4, budget=6)


@st.composite
def small_problems(draw):
    """m <= 6, any a and b, aperiodic forcing f[0..N-2] for N in 2..4, free or pinned."""
    m = draw(st.integers(2, 6))
    horizon = draw(st.integers(2, 4))
    f = draw(st.lists(st.integers(0, m - 1), min_size=horizon - 1, max_size=horizon - 1))
    spec = spec_of(m, draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1)), f)
    y0 = draw(st.none() | st.integers(0, m - 1).map(lambda v: Residue(v, m)))
    return spec, horizon, y0


def verified_tuples(spec, length, y0):
    """Every tuple in Z_m^length that verify_solution accepts, found by exhaustion."""
    m = spec.m
    return {
        t for t in itertools.product(range(m), repeat=length)
        if verify_solution(spec, t, None if y0 is None else y0.value)[0]
    }


@given(small_problems(), st.integers(-1, 0))
def test_prefixes_and_budget_match_exhaustion(problem, slack):
    spec, horizon, y0 = problem
    pfx = brute_force_prefixes(spec, horizon, y0)
    assert pfx.sequences == verified_tuples(spec, horizon, y0)
    # every valid partial prefix of length 1..N costs one unit of budget
    count = sum(len(verified_tuples(spec, k, y0)) for k in range(1, horizon + 1))
    budget = count + slack
    if spec.m > budget or count > budget:
        with pytest.raises(BudgetExceeded):
            brute_force_prefixes(spec, horizon, y0, budget)
    else:
        assert brute_force_prefixes(spec, horizon, y0, budget) == pfx


def test_count_prefixes_cut_bounds():
    with pytest.raises(ValueError, match="horizon must be >= 1, got 0"):
        count_prefixes(MIXED, 0)
    with pytest.raises(ValueError, match=r"cut must lie in \[0, 3\)"):
        count_prefixes(MIXED, 3, 3)
    with pytest.raises(ValueError, match=r"cut must lie in \[0, 3\)"):
        count_prefixes(MIXED, 3, -1)


@st.composite
def counted_problems(draw):
    """m <= 12, N in 1..5, periodic or aperiodic forcing (often too short)."""
    m = draw(st.integers(2, 12))
    horizon = draw(st.integers(1, 5))
    f = draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=5))
    period = draw(st.none() | st.integers(1, len(f)))
    return spec_of(m, draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1)), f, period), horizon


@given(counted_problems())
def test_count_prefixes_matches_brute_force(problem):
    spec, horizon = problem
    try:
        pfx = brute_force_prefixes(spec, horizon)
    except InsufficientData as exc:
        with pytest.raises(InsufficientData) as got:
            count_prefixes(spec, horizon)
        assert got.value.index == exc.index
        return
    starts = sorted({seq[0] for seq in pfx.sequences})
    for cut in range(horizon):
        kept = {seq[:horizon - cut] for seq in pfx.sequences}
        assert counted(spec, horizon, cut) == (len(kept), starts)


def test_count_prefixes_budget():
    # sum(q) > budget is refused before any table is built or a forcing term is read
    huge = spec_of(2**32, 3, 6, [3], period=1)  # one prime power
    with pytest.raises(BudgetExceeded):
        count_prefixes(huge, 4, budget=1000)
    with pytest.raises(BudgetExceeded):
        count_prefixes(spec_of(6, 0, 0, [0]), 4, budget=4)
    # trial division stops once the factors left must outgrow the budget, here p > 1000
    with pytest.raises(BudgetExceeded):
        count_prefixes(spec_of(2**61 - 1, 3, 6, [3], period=1), 4, budget=1000)
    # the forcing terms are read next, so a short support is reported before sum(q) * horizon
    with pytest.raises(InsufficientData):
        count_prefixes(spec_of(6, 0, 0, [0]), 4, budget=5)
    # one unit per (position, residue mod q) state: MIXED has m = 6 = 2 * 3, sum(q) = 5
    for horizon in range(1, 6):
        assert counted(MIXED, horizon, budget=5 * horizon) == counted(MIXED, horizon)
        with pytest.raises(BudgetExceeded):
            count_prefixes(MIXED, horizon, budget=5 * horizon - 1)
    # 2**32 - 1 = 3 * 5 * 17 * 257 * 65537, sum(q) = 65819
    smooth = spec_of(2**32 - 1, 5, 3, [3], period=1)
    assert count_prefixes(smooth, 1, budget=65819)[0] == 2**32 - 1
    with pytest.raises(BudgetExceeded):
        count_prefixes(smooth, 1, budget=65818)


def test_count_prefixes_builds_nothing_of_size_m():
    # m = 2**6 * 5**6: a list of m entries takes 8 MB, the per-factor tables 64 + 15625 each
    spec = spec_of(2**6 * 5**6, 3, 2, [3, 1], period=2)
    tracemalloc.start()
    try:
        count, starts = count_prefixes(spec, 8, 6)
        first = next(starts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    # b = 2 is invertible mod 5**6 and nilpotent of index 6 mod 2**6, which forces x[0] mod 64
    assert (count, first) == (5**6, 49)


def unfactored_count(spec, horizon, cut):
    """count_prefixes as one backward pass over all of Z_m, with no prime-power split."""
    m, a, b = spec.m, spec.a, spec.b
    f = spec.forcing.values(0, horizon - 1)
    bx = [b * x % m for x in range(m)]
    gather = itemgetter(*[a * x % m for x in range(m)])
    v = [1] * m
    for k in reversed(range(horizon - 1)):
        s = [0] * m
        for t, c in zip(bx, v):
            s[t] += c
        v = gather(s[f[k]:] + s[:f[k]])  # v[x] = s[(a*x + f[k]) % m]
        if k == horizon - cut - 1:
            v = [1 if c else 0 for c in v]
    return sum(v), list(itertools.compress(range(m), v))


@st.composite
def factored_problems(draw):
    """m <= 120, N in 1..6, forcing periodic (period 1..4) or aperiodic and just long enough."""
    m = draw(st.integers(2, 120))
    horizon = draw(st.integers(1, 6))
    period = draw(st.none() | st.integers(1, 4))
    size = period or max(horizon - 1, 1)
    f = draw(st.lists(st.integers(0, m - 1), min_size=size, max_size=size))
    return spec_of(m, draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1)), f, period), horizon


@given(factored_problems())
def test_factored_count_matches_one_pass_over_z_m(problem):
    spec, horizon = problem
    for cut in range(horizon):
        assert counted(spec, horizon, cut) == unfactored_count(spec, horizon, cut)


@given(st.integers(1, 10**5).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n + 1))))
@example((2**32 - 1, 2**32 - 1))
@example((2**32 - 1, 65819))  # 3 + 5 + 17 + 257 + 65537: the last prime fits exactly
@example((2**32 - 1, 65818))
@example((2**32, 2**32))
@example((4294967291, 4294967291))  # the largest prime below 2**32
@example((2**16 * 3**4 * 5**2 * 7, 2**16 * 3**4 * 5**2 * 7))
@example((2 * 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23, 2 * 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23))
def test_prime_powers_matches_trial_division_within_its_limit(case):
    # the same (p, k) while their p**k sum to at most the limit, and None past it
    n, limit = case
    factors = list(trial_division(n).factors)
    assert prime_powers(n, limit) == (factors if sum(p**k for p, k in factors) <= limit else None)


def test_prime_powers_refuses_without_dividing_past_its_limit():
    # 2**61 - 1 is prime: dividing up to its square root would try about 7.6e8 numbers
    class Watched(int):
        def __mod__(self, p):
            assert p <= 1000, f"divided by {p}, past the limit"
            return int(self) % p

    assert prime_powers(Watched(2**61 - 1), 1000) is None


def test_count_prefixes_refuses_an_over_budget_length_before_reading_the_forcing():
    # a periodic forcing is readable to any length; m * horizon is refused before f is built
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded):
            count_prefixes(spec_of(6, 2, 3, [1, 2, 0, 1], period=4), 10**6, budget=1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024  # about 8 MB while f[0..horizon-2] was read first


def _zmdiff_imports(module: Path) -> set[str]:
    """The zmdiff modules that a module's source imports, by file stem."""
    full = []
    for node in ast.walk(ast.parse(module.read_text())):
        if isinstance(node, ast.Import):
            full += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["zmdiff" if node.level else "", node.module]))
            full += [f"{base}.{alias.name}" for alias in node.names]
    stems = {name.split(".")[1] for name in full if name.startswith("zmdiff.")}
    return {stem for stem in stems if module.with_name(f"{stem}.py").exists()}


def test_oracle_stays_independent_of_the_solver():
    # the oracle checks the solver, so neither it nor anything it imports may use solver or crt
    reached, todo = set(), {Path(zmdiff.__file__).with_name("oracle.py")}
    while todo:
        module = todo.pop()
        reached.add(module.stem)
        todo |= {module.with_name(f"{stem}.py") for stem in _zmdiff_imports(module) - reached}
    assert {"modring", "problem"} <= reached  # the walk sees the imports that are there
    assert not reached & {"solver", "crt"}
    # nor does it call modring.factorize, which has no budget: m is factored under one
    tree = ast.parse(Path(zmdiff.__file__).with_name("oracle.py").read_text())
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    names |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
              for alias in node.names}
    assert {"itemgetter", "values", "ModulusMismatch"} <= names  # the walk sees every kind
    assert "factorize" not in names


def test_cli_talks_to_the_solver_in_ints():
    # the CLI hands starts to Structure as ints, so it has no use for Residue or modring
    imports = _zmdiff_imports(Path(zmdiff.__file__).with_name("cli.py"))
    assert {"solver", "oracle", "problem"} <= imports  # the walk sees the imports that are there
    assert "modring" not in imports


class TestVerifySolution:
    def test_pass(self):
        seq = [4, 5, 0, 4]
        assert verify_solution(MIXED, seq) == (True, None)
        assert verify_solution(MIXED, seq, y0=4) == (True, None)
        assert verify_solution(MIXED, seq, y0=10) == (True, None)  # y0 is taken mod m

    def test_fail_at_perturbed_transition(self):
        ok, idx = verify_solution(MIXED, [4, 5, 1, 4])
        assert (ok, idx) == (False, 1)

    def test_start_mismatch_reports_index_zero(self):
        assert verify_solution(MIXED, [4, 5], y0=3) == (False, 0)

    def test_short_sequences_are_vacuous(self):
        assert verify_solution(MIXED, [0]) == (True, None)
        assert verify_solution(MIXED, []) == (True, None)

    def test_modulus_checked(self):
        # values are residues in [0, m): the first one outside is named
        for xs, bad in ([0, 6], "x[1] = 6"), ([-1, 0], "x[0] = -1"), ([5, 7, -2], "x[1] = 7"):
            with pytest.raises(ModulusMismatch, match=re.escape(bad)):
                verify_solution(MIXED, xs)


def test_verify_reports_a_failure_before_the_end_of_an_aperiodic_support():
    # f = [1, 2] covers transitions 0 and 1; a third needs f[2]
    short = spec_of(6, 2, 3, [1, 2])
    assert verify_solution(short, [4, 5, 1, 4]) == (False, 1)
    with pytest.raises(InsufficientData) as err:
        verify_solution(short, [4, 5, 0, 4])
    assert err.value.index == 2
