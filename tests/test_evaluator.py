"""The integer evaluator behind every solution, against the Residue closed forms.

Structure.window evaluates a whole window on ints: it steps the invertible
side forward once, and reads the nilpotent side off Structure.nilpotent_side,
which each problem derives once by stepping back over its stored terms from 0
placed ind' indices past them (a start that (a'^-1 b')^ind' = 0 wipes out),
and which the window continues with the forcing's period. These tests hold it
to verify_solution, to the per-index value() loop and the int evaluator
values() (values and errors alike) and to the reference closed forms
(explicit_solution, nilpotent_solution, combine) on the gcd-reduced problem,
including at and past the documented bounds, at long horizons and at starts
far past the stored terms.
"""

import contextlib
import io
import json
import math
import re
import time
import tracemalloc

import pytest
from hypothesis import assume, given, settings, strategies as st

from zmdiff.cli import main
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
    structure,
    Structure,
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
    seq = sol.values(WINDOW, x10, alpha)
    assert verify_solution(spec, seq) == (True, None)

    pinned = solve_initial_problem(spec, Residue(seq[0], spec.m))
    assert verify_solution(spec, pinned.values(WINDOW, 0, alpha), seq[0]) == (True, None)


def _assert_value_matches_the_closed_forms(spec, x10, indices):
    reduced = reduce_by_gcd(spec)
    sp = split_problem(ProblemSpec(reduced.m, reduced.a, reduced.b, reduced.forcing))
    sol = general_solution(spec)
    start = Residue(x10, sp.iso.split.m1)
    for n in indices:
        x1 = explicit_solution(sp.a1, sp.b1, start, sp.f1, n)
        x2 = nilpotent_solution(sp.a2, sp.b2, sp.f2, n)
        assert sol.value(n, x10).value % reduced.m == combine(sp.iso, x1, x2).value


@given(solvable_problems(), st.data())
def test_reduced_value_matches_the_closed_forms(spec, data):
    assume(reduce_by_gcd(spec).m >= 2)
    x10 = data.draw(st.integers(0, general_solution(spec).free_initial_modulus - 1))
    _assert_value_matches_the_closed_forms(spec, x10, range(41))


@pytest.mark.parametrize(
    "m, a, b, indices",
    [
        (2**20 * 3**7, 5, 6, range(41)),  # ind' 20, long_window's nilpotent shape
        (2**32, 1, 2, range(41)),  # ind' 32
        (2**32 * 3**5 * 1000003, 5, 6, range(41)),  # ind' 32 beside an m1' side
        (2**1024 * 3**5, 5, 6, range(3)),  # ind' 1024, past the CLI's modulus cap
    ],
    ids=["ind20", "ind32", "ind32-mixed", "ind1024"],
)
def test_window_matches_the_closed_forms_at_large_nilpotency_index(m, a, b, indices):
    spec = ProblemSpec(m, a, b, SequenceSpec.from_ints([7, 1, m - 1, 12345], m, period=3))
    x10 = general_solution(spec).free_initial_modulus - 1
    _assert_value_matches_the_closed_forms(spec, x10, indices)


def test_index_32_window_verifies():
    m = 2**32
    spec = ProblemSpec(m, 1, 2, SequenceSpec.from_ints([1], m, period=1))
    sol = general_solution(spec)
    assert sol.lookahead == 31
    assert verify_solution(spec, sol.values(200)) == (True, None)


def test_index_4096_window_verifies():
    m = 2**4096
    spec = ProblemSpec(m, 3, 2, SequenceSpec.from_ints([1, m - 5, 2**4000 + 1], m, period=2))
    sol = general_solution(spec)
    assert sol.lookahead == 4095
    values = sol.values(50)
    assert verify_solution(spec, values) == (True, None)
    # each transition inside a window holds by construction; odd forcing makes every forced
    # value odd, so a last value seeded one step short would differ from the longer window's
    assert sol.values(51)[:50] == values


def test_deep_explicit_value_matches_the_closed_form():
    m = 2**32
    spec = ProblemSpec(m, 5, 3, SequenceSpec.from_ints([7, 1, m - 1], m, period=2))
    a, b = Residue(spec.a, m), Residue(spec.b, m)
    expected = explicit_solution(a, b, Residue(12345, m), spec.forcing, 5000)
    assert general_solution(spec).value(5000, 12345) == expected


@st.composite
def windowed_solutions(draw):
    """A free or pinned solution of an m <= 64 problem whose witness is None, with
    periodic or aperiodic forcing, its support often shorter than the window
    or the lookahead, and a digit vector with at most one digit out of range."""
    m = draw(st.integers(2, 64))
    a = draw(st.integers(0, m - 1))
    b = draw(st.integers(0, m - 1))
    d = math.gcd(a, b, m)
    raw = draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=WINDOW + 2))
    period = draw(st.none() | st.integers(1, len(raw)))
    spec = ProblemSpec(m, a, b, SequenceSpec.from_ints([v * d for v in raw], m, period))
    sol = general_solution(spec)
    digits = st.integers(0, sol.lift_digit_bound - 1)
    alpha = draw(st.lists(digits, max_size=WINDOW + 2))
    if alpha and draw(st.booleans()):
        bad = draw(st.sampled_from([-1, sol.lift_digit_bound, sol.lift_digit_bound + 5]))
        alpha[draw(st.integers(0, len(alpha) - 1))] = bad
    x10 = draw(st.integers(0, sol.free_initial_modulus - 1))
    y0 = None
    if draw(st.booleans()):
        with contextlib.suppress(LookupError):  # x[0] itself undecidable: stay free
            y0 = sol.value(0, x10, [draw(digits)])
    if y0 is not None:
        sol, x10 = solve_initial_problem(spec, y0), 0
    return spec, sol, y0, x10, alpha


@given(windowed_solutions(), st.integers(0, WINDOW + 4))
def test_window_matches_the_per_index_loop(case, length):
    spec, sol, y0, x10, alpha = case
    looped, first_error = [], None
    for n in range(length):
        try:
            looped.append(sol.value(n, x10, alpha))
        except (LookupError, ValueError) as exc:
            first_error = exc
            break
    try:
        window = sol.sequence(length, x10, alpha)
    except (LookupError, ValueError) as exc:
        assert first_error is not None, f"sequence raised {exc!r}, value() did not"
        assert (type(exc), str(exc)) == (type(first_error), str(first_error))
        with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
            sol.values(length, x10, alpha)
        return
    assert first_error is None, f"value() raised {first_error!r}, sequence did not"
    assert window == looped
    assert sol.values(length, x10, alpha) == [r.value for r in window]
    # a transition past an aperiodic support has no forcing term to check against
    checked = window if spec.forcing.period else window[: len(spec.forcing.terms) + 1]
    pinned = None if y0 is None else y0.value
    assert verify_solution(spec, [r.value for r in checked], pinned) == (True, None)


def _solve_json(tmp_path, doc: dict, horizon: int) -> tuple[dict, float]:
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    out = io.StringIO()
    started = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = main(["solve", "--input", str(path), "--horizon", str(horizon), "--format", "json"])
    elapsed = time.perf_counter() - started
    assert code == 0
    return json.loads(out.getvalue()), elapsed


def test_readme_document_solves_to_horizon_10000_within_a_second(tmp_path):
    doc = {"m": 6, "a": 2, "b": 3, "f": [1, 2, 0, 1], "f_period": 4}
    report, elapsed = _solve_json(tmp_path, doc, 10_000)
    spec = ProblemSpec(6, 2, 3, SequenceSpec.from_ints(doc["f"], 6, 4))
    values = report["values"]
    assert len(values) == 10_001 - report["lookahead"]
    assert verify_solution(spec, values) == (True, None)
    assert elapsed < 1.0


def test_explicit_document_near_2_32_solves_to_horizon_10000_within_a_second(tmp_path):
    m = 2**32 - 5
    doc = {"m": m, "a": 5, "b": 3, "f": [7, 1, m - 1], "f_period": 2}
    report, elapsed = _solve_json(tmp_path, doc, 10_000)
    spec = ProblemSpec(m, 5, 3, SequenceSpec.from_ints(doc["f"], m, 2))
    values = report["values"]
    assert report["kind"] == "explicit" and len(values) == 10_001
    assert verify_solution(spec, values) == (True, None)
    assert elapsed < 1.0


def test_far_value_steps_in_constant_memory():
    # value(n) steps the invertible side n times without keeping f' before n
    m = 2**31 - 1
    spec = ProblemSpec(m, 5, 3, SequenceSpec.from_ints([7, 1, 9], m, period=2))
    sol = general_solution(spec)
    n = 10**6
    tracemalloc.start()
    try:
        x = sol.value(n, 12345)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    nxt = sol.value(n + 1, 12345)
    assert (3 * nxt.value - 5 * x.value - spec.forcing.term(n).value) % m == 0


@st.composite
def periodic_windows(draw):
    """A window of up to 200 values, starting inside, at or past the preperiod L <= 3 of
    forcing with period p <= 5, on an explicit, nilpotent or mixed reduced problem with
    ind' up to 32, multiplied through by d = 1..9. A nilpotent kind, where m1' = 1 and
    nothing steps forward, may start as far as 10^6: its window is read from the stored
    terms' nilpotent side with the forcing's period, far past them."""
    kind = draw(st.sampled_from(["explicit", "nilpotent", "mixed"]))
    k, q = draw(st.integers(1, 32)), draw(st.sampled_from([5, 7, 9, 25, 1000003]))
    mp = {"explicit": q, "nilpotent": 2**k * 3 ** draw(st.integers(0, 3)), "mixed": 2**k * q}[kind]
    units = st.integers(1, mp - 1).filter(lambda u: math.gcd(u, mp) == 1)
    ap, bp = draw(units), (1 if kind == "explicit" else 6 if kind == "nilpotent" else 2)
    bp = bp * draw(units) % mp
    d, pre, p = draw(st.integers(1, 9)), draw(st.integers(0, 3)), draw(st.integers(1, 5))
    fp = draw(st.lists(st.integers(0, mp - 1), min_size=pre + p, max_size=pre + p))
    spec = ProblemSpec(d * mp, d * ap, d * bp, SequenceSpec.from_ints([d * v for v in fp],
                                                                     d * mp, p))
    far = 10**6 if kind == "nilpotent" else 60
    start = draw(st.integers(0, pre + p + 2) | st.integers(0, far))
    length = draw(st.integers(1, 200))
    x10 = draw(st.integers(0, structure(spec).shape.psplit.m1 - 1))
    return spec, pre, p, start, length, x10


@given(periodic_windows())
@settings(max_examples=100)
def test_cycled_window_matches_the_closed_forms(case):
    # the head below the preperiod and the first and last period of the window against the
    # closed forms, and every transition of the reduced equation across it
    spec, pre, p, start, length, x10 = case
    st_ = structure(spec)
    values, error = st_.window(start, length, x10)
    assert error is None and len(values) == length
    reduced = reduce_by_gcd(spec)
    sp = split_problem(ProblemSpec(reduced.m, reduced.a, reduced.b, reduced.forcing))
    m1, m2, stop = sp.iso.split.m1, sp.iso.split.m2, start + length
    picked = {n for n in range(start, stop) if n < pre + 2 * p} | set(range(stop - p, stop))
    for n in sorted(picked & set(range(start, stop))):
        x2 = nilpotent_solution(sp.a2, sp.b2, sp.f2, n).value if m2 > 1 else 0
        assert values[n - start] % m2 == x2, f"index {n}"
    for n in {start, stop - 1} if m1 > 1 else ():
        x1 = explicit_solution(sp.a1, sp.b1, Residue(x10, m1), sp.f1, n)
        assert values[n - start] % m1 == x1.value, f"index {n}"
    f = reduced.forcing.values(start, stop - 1)
    for j, fj in enumerate(f):
        assert (reduced.b * values[j + 1] - reduced.a * values[j] - fj) % reduced.m == 0


def test_one_structure_derives_its_nilpotent_side_once(monkeypatch):
    derived, derive = [], Structure.nilpotent_side.func

    def counted(st_):
        derived.append(st_)
        return derive(st_)

    monkeypatch.setattr(Structure.nilpotent_side, "func", counted)
    # mixed, m1' = 5 beside m2' = 96 with ind' = 5
    spec = ProblemSpec(480, 7, 6, SequenceSpec.from_ints([1, 8, 2, 30], 480, period=3))
    st_ = structure(spec)
    required = st_.compatibility
    free = st_.solution().values(40, 1)
    pinned = st_.solution(free[0]).values(40)
    assert len(derived) == 1
    assert required == free[0] % 96 and pinned == free
    assert verify_solution(spec, pinned, free[0]) == (True, None)
