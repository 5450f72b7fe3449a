"""The three workloads: their documents, their command lines and their checks.

Every workload is a sequence of rounds. Round r is built from its own
random stream, seeded by (workload, seed, r), and holds the same list of
operation shapes in every round, so that each run attempts whole rounds of
the same operations and only the drawn numbers differ. An operation is one
call into zmdiff; its check runs after the clock has stopped and returns the
units of work the operation completed, or raises CheckFailed.
"""

from __future__ import annotations

import json
import math
import random
from collections.abc import Callable
from dataclasses import dataclass, replace

import reference as ref
from reference import Problem


class CheckFailed(Exception):
    """zmdiff's answer disagrees with the benchmark's own computation."""


@dataclass(frozen=True)
class Op:
    """One call into zmdiff: a CLI command line with a document on stdin, or a sweep.

    check(rc, out) returns the work units done; out is the captured stdout of
    a command, or the pair of reports of a sweep. known_fault marks the one
    operation that fails today because of a fault in zmdiff.
    """

    label: str
    argv: tuple[str, ...] | None
    doc: dict | None
    check: Callable[[int, object], int]
    sweep: tuple[int, int, int] | None = None  # (m_max, trials, seed)
    known_fault: bool = False


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def kv(label: str, value: object) -> str:
    """One line of zmdiff's aligned text output."""
    return f"{label:<22}{value}"


# ---------------------------------------------------------------------------
# problem shapes; each returns a Problem whose structure is fixed by the shape


def crt(r1: int, m1: int, r2: int, m2: int) -> int:
    return (r1 + m1 * ((r2 - r1) * pow(m1, -1, m2) % m2)) % (m1 * m2)


def explicit(rng: random.Random, m: int, d: int = 1, periodic: bool = True) -> Problem:
    """gcd(b, m) == 1: b is invertible and the start value is free."""
    return ref.build(rng, m, rng.randrange(1, m), ref.unit(rng, m), d, periodic)


def nilpotent(rng: random.Random, m: int, rad: int, d: int = 1) -> Problem:
    """rad(m) | b with v_p(b) == 1 for every p | m, a a unit: one forced solution."""
    return ref.build(rng, m, ref.unit(rng, m), rad * ref.unit(rng, m) % m, d)


def mixed(rng: random.Random, m1: int, m2: int, rad2: int, d: int = 1) -> Problem:
    """m = m1*m2 coprime, b a unit mod m1 and nilpotent mod m2, a a unit mod m2."""
    a = crt(rng.randrange(m1), m1, ref.unit(rng, m2), m2)
    b = crt(ref.unit(rng, m1), m1, rad2 * ref.unit(rng, m2) % m2, m2)
    return ref.build(rng, m1 * m2, a, b, d)


def odd_coprime(rng: random.Random, lo: int, hi: int, avoid: int) -> int:
    while True:
        n = rng.randrange(lo, hi) | 1
        if math.gcd(n, avoid) == 1:
            return n


# ---------------------------------------------------------------------------
# checks shared by the command workloads


def check_window(p: Problem, values: list[int], y0: int | None) -> None:
    bad = ref.first_violation(p.doc, values)
    expect(bad is None, f"transition {bad} violated by the emitted window")
    if y0 is not None:
        expect(values[0] == y0 % p.doc["m"], "pinned window does not start at y0")


def solve_check(p: Problem, horizon: int, y0: int | None, fmt: str) -> Callable[[int, str], int]:
    st = p.st
    last = horizon - st.lookahead

    def check(rc: int, out: str) -> int:
        expect(rc == 0, f"solve exited {rc}")
        if fmt == "json":
            rep = json.loads(out)
            expect(rep["kind"] == st.kind, f"kind {rep['kind']}, expected {st.kind}")
            expect(rep["lookahead"] == st.lookahead, "wrong lookahead")
            expect(rep["last_index"] == last, "wrong last index")
            values = rep["values"]
        else:
            lines = out.splitlines()
            expect(kv("solution kind", st.kind) in lines, f"expected kind {st.kind}")
            values = [int(line[22:]) for line in lines if line.startswith("x[")]
        expect(len(values) == last + 1, f"{len(values)} values, expected {last + 1}")
        check_window(p, values, y0)
        return len(values)

    return check


def classify_expected(p: Problem, y0: int | None) -> tuple[dict, list[str], int]:
    """The whole classify report, in json and text, and its exit code."""
    st, doc = p.st, p.doc
    m, a, b = doc["m"], doc["a"], doc["b"]
    if st.d == 1:
        verdict = {"kind": "finite", "count": st.m1}
        word = "solution" if st.m1 == 1 else "solutions"
        verdict_text = f"finite: exactly {st.m1} {word}"
    elif p.witness is not None:
        verdict = {"kind": "none", "witness_index": p.witness}
        verdict_text = f"none: forcing term {p.witness} not divisible by d"
    else:
        verdict = {"kind": "infinite", "d": st.d, "m1_prime": st.m1p}
        verdict_text = f"infinite family: d={st.d}, {st.m1p} reduced branches"
    qualified = verdict["kind"] == "infinite" and "f_period" not in doc
    comp = p.compatibility()
    initial = None
    if y0 is not None:
        initial = {"y0": y0 % m}
        cm = st.m2 if st.d == 1 else st.m2p
        if p.witness is not None:
            initial.update(kind="none", reason="divisibility", witness_index=p.witness)
        elif comp is not None and y0 % cm != comp["required"]:
            initial.update(kind="none", reason="compatibility", required=comp["required"],
                           actual=y0 % cm, condition_modulus=cm)
        else:
            initial["kind"] = "unique" if st.d == 1 else "infinitely_many"
    report = {
        "command": "classify", "m": m, "a": a, "b": b, "d": st.d, "m1": st.m1, "m2": st.m2,
        "ind_b2": st.ind, "m_prime": st.mp, "m1_prime": st.m1p, "m2_prime": st.m2p,
        "ind_b2_prime": st.indp, "verdict": verdict, "support_qualified": qualified,
        "compatibility": comp, "initial": initial,
    }
    lines = [
        kv("equation", f"{b}*x[n+1] = {a}*x[n] + f[n]  (mod {m})"),
        kv("d = gcd(a, b, m)", st.d),
        kv("split m1, m2", f"{st.m1}, {st.m2}"),
    ]
    if st.ind is not None:
        lines.append(kv("ind(b mod m2)", st.ind))
    if st.d != 1:
        lines.append(kv("reduced m'", st.mp))
        lines.append(kv("split m1', m2'", f"{st.m1p}, {st.m2p}"))
        if st.indp is not None:
            lines.append(kv("ind(b' mod m2')", st.indp))
    lines.append(kv("verdict", verdict_text))
    if qualified:
        lines.append(kv("support", "qualified: certified only on the provided prefix"))
    if comp is not None:
        lines.append(kv("start condition", f"solvable with pinned start iff x[0] = "
                                            f"{comp['required']} (mod {comp['modulus']})"))
    if initial is not None:
        if initial["kind"] == "unique":
            detail = "unique solution"
        elif initial["kind"] == "infinitely_many":
            detail = "infinitely many solutions"
        elif initial["reason"] == "divisibility":
            detail = f"none (forcing term {p.witness} not divisible by d)"
        else:
            detail = (f"none (needs x[0] = {initial['required']} "
                      f"(mod {initial['condition_modulus']}), got {initial['actual']})")
        lines.append(kv(f"initial x[0]={initial['y0']}", detail))
    headline = initial["kind"] if initial is not None else verdict["kind"]
    return report, lines, 1 if headline == "none" else 0


def classify_check(p: Problem, y0: int | None, fmt: str) -> Callable[[int, str], int]:
    report, lines, code = classify_expected(p, y0)

    def check(rc: int, out: str) -> int:
        expect(rc == code, f"classify exited {rc}, expected {code}")
        if fmt == "json":
            expect(json.loads(out) == report, "classify report differs")
        else:
            expect(out.splitlines() == lines, "classify text differs")
        return 1

    return check


def enumerate_check(p: Problem, horizon: int, y0: int | None, fmt: str) -> Callable[[int, str], int]:
    st = p.st
    last = horizon - st.lookahead
    if y0 is None:
        total = (st.m1 if st.d == 1 else st.m1p) * st.d ** (last + 1)
    else:
        total = st.d**last
    want = min(16, total)

    def check(rc: int, out: str) -> int:
        expect(rc == 0, f"enumerate exited {rc}")
        if fmt == "json":
            rep = json.loads(out)
            expect(rep["window_rows"] == total, f"window_rows {rep['window_rows']}, expected {total}")
            expect(rep["truncated"] == (total > want), "wrong truncated flag")
            rows = [r["values"] for r in rep["rows"]]
        else:
            lines = out.splitlines()
            expect(kv("rows", f"{want} of {total} distinct over indices 0..{last}") in lines,
                   "wrong rows line")
            rows = [[int(v) for v in line.split("->")[1].split()] for line in lines if "->" in line]
        expect(len(rows) == want, f"{len(rows)} rows, expected {want}")
        expect(len({tuple(r) for r in rows}) == want, "rows are not distinct")
        for values in rows:
            expect(len(values) == last + 1, "row has the wrong length")
            check_window(p, values, y0)
        return 1

    return check


def verify_check(p: Problem, candidate: list[int], fmt: str) -> Callable[[int, str], int]:
    bad = ref.first_violation(p.doc, candidate)

    def check(rc: int, out: str) -> int:
        expect(rc == (0 if bad is None else 1), f"verify exited {rc}")
        if fmt == "json":
            rep = json.loads(out)
            expect(rep["pass"] == (bad is None) and rep["failing_index"] == bad,
                   f"verify reported {rep['failing_index']}, expected {bad}")
        else:
            head = "PASS: " if bad is None else f"FAIL at index {bad}: "
            expect(out.startswith(head), f"verify text does not start with {head!r}")
        return 1

    return check


def oracle_check(p: Problem, horizon: int, fmt: str) -> Callable[[int, str], int]:
    st, f = p.st, p.doc["f"]
    cut = st.truncation
    window_witness = p.witness is not None and p.witness <= horizon - 2
    if window_witness:
        count = 0
    elif st.d == 1:
        count = st.m1
    else:
        count = st.m1p * st.d ** (horizon - cut)

    def check(rc: int, out: str) -> int:
        expect(rc == 0, f"oracle-check exited {rc}")
        if fmt == "json":
            rep = json.loads(out)
            got = (rep["truncation"], rep["expected"], rep["observed"], rep["agree"])
        else:
            lines = out.splitlines()
            got = tuple(lines[i][22:] for i in (1, 2, 3, 4))
            got = (int(got[0]), int(got[1]), int(got[2]), got[3] == "yes")
        expect(got == (cut, count, count, True), f"oracle-check gave {got}, expected "
                                                  f"{(cut, count, count, True)} for f={f}")
        return 1

    return check


def command(label: str, p: Problem, args: list[str], fmt: str, check) -> Op:
    return Op(label, (args[0], "--format", fmt, *args[1:]), p.doc, check)


# ---------------------------------------------------------------------------
# long_window: solution evaluation over long windows, every solution kind

# Horizon per shape, chosen so that every operation costs about the same on
# the closed forms as they stand (explicit windows grow quadratically,
# nilpotent ones linearly with ind = 20).
LONG_SHAPES = ("explicit", "explicit+y0", "nilpotent", "nilpotent+y0",
               "mixed", "mixed+y0", "lifted", "lifted+y0")
LONG_HORIZON = {"explicit": 110, "nilpotent": 360, "mixed": 125, "lifted": 130}


def long_problem(rng: random.Random, shape: str) -> Problem:
    """Moduli up to 2^32; the free lifted shape has a mixed inner problem, the pinned one an explicit."""
    if shape.startswith("explicit"):
        return explicit(rng, rng.randrange(2**31, 2**32))
    if shape.startswith("nilpotent"):
        return nilpotent(rng, 2**20 * 3 ** rng.randrange(1, 8), 6)
    if shape.startswith("mixed"):
        return mixed(rng, odd_coprime(rng, 2**19, 2**20, 1), 2**12, 2)
    if shape == "lifted":
        return mixed(rng, odd_coprime(rng, 2**17, 2**18, 1), 2**10, 2, d=rng.randrange(2, 9))
    return explicit(rng, rng.randrange(2**27, 2**28), d=rng.randrange(2, 9))


def long_window_round(rng: random.Random, r: int) -> list[Op]:
    ops = []
    for shape in LONG_SHAPES:
        p = long_problem(rng, shape)
        horizon = LONG_HORIZON[shape.split("+")[0]]
        args = ["solve", "--horizon", str(horizon)]
        y0 = None
        if shape.endswith("+y0"):
            y0 = p.x(0)
            args += ["--y0", str(y0)]
        ops.append(command(shape, p, args, "json", solve_check(p, horizon, y0, "json")))
    return ops


# ---------------------------------------------------------------------------
# doc_commands: one command per fresh document, text and json

# The modulus of every document but the oracle's carries a prime drawn from
# [2^22, 2^24) / d, so that no two documents share a modulus and each pays a
# cold factorize (trial division up to the square root of that prime).
P_LO, P_HI = 2**22, 2**24


def doc_problem(rng: random.Random, kind: str, d: int = 1, periodic: bool = True) -> Problem:
    """A document of the given kind; "lifted" is a mixed problem times d from [2, 30]."""
    if kind == "lifted":
        kind, d = "mixed", rng.randrange(2, 31)
    prime = ref.random_prime(rng, P_LO // d, P_HI // d)
    if kind == "explicit":
        return explicit(rng, prime * rng.randrange(2, 200), d, periodic)
    if kind == "nilpotent":
        e = rng.randrange(2, 7)
        return nilpotent(rng, prime * 2**e, 2 * prime, d)
    if kind == "mixed":
        e2, e3 = rng.randrange(1, 5), rng.randrange(0, 3)
        return mixed(rng, prime, 2**e2 * 3**e3, 2 * 3 ** min(e3, 1), d)
    raise ValueError(kind)


def oracle_problem(rng: random.Random, r: int) -> tuple[Problem, int]:
    """Brute-force targets with m in [2000, 3500), and the prefix length to use."""
    shape = r % 3
    if shape == 0:
        return explicit(rng, rng.randrange(2000, 3500)), 4
    if shape == 1:
        m2 = (4, 8, 9, 27)[rng.randrange(4)]
        rad = 3 if m2 % 3 == 0 else 2
        p = mixed(rng, odd_coprime(rng, 2000 // m2, 3500 // m2, 6), m2, rad)
        return p, p.st.truncation + 2
    p = explicit(rng, rng.randrange(1000, 1750), d=2)
    if (r // 6) % 2:
        p = ref.with_witness(p, rng, rng.randrange(2))
    return p, 3


KNOWN_FAULT_DOC = {"m": 8, "a": 1, "b": 2, "f": [1]}


def known_fault_check(rc: int, out: str) -> int:
    """classify --y0 3 on f = [1]: f cannot decide it, so only 'undecidable' is right."""
    expect(rc != 2, "classify --y0 on a well-formed question exited 2 (usage error)")
    initial = [line for line in out.splitlines() if line.startswith("initial x[0]=3")]
    expect(not any("unique" in line or line[22:].startswith("none") for line in initial),
           "definite verdict where f = [1] cannot decide the start")
    return 1


def doc_commands_round(rng: random.Random, r: int) -> list[Op]:
    fmts = ("text", "json") if r % 2 else ("json", "text")
    ops = []

    def fmt(i: int) -> str:
        return fmts[i % 2]

    kinds3 = ("explicit", "nilpotent", "mixed")

    # classify, free, d == 1
    p = doc_problem(rng, kinds3[r % 3])
    ops.append(command("classify", p, ["classify"], fmt(0), classify_check(p, None, fmt(0))))
    # classify --y0, d == 1; every second document gets a start that breaks the condition
    p = doc_problem(rng, kinds3[(r + 1) % 3])
    y0 = p.x(0) + (r // 3) % 2
    ops.append(command("classify+y0", p, ["classify", "--y0", str(y0)], fmt(1),
                       classify_check(p, y0, fmt(1))))
    # classify, free, d > 1: periodic family, aperiodic family, no solution
    d = rng.randrange(2, 31)
    shape = r % 3
    if shape == 1:
        p = doc_problem(rng, "explicit", d, periodic=False)
    else:
        p = doc_problem(rng, ("mixed", None, "nilpotent")[shape], d)
        if shape == 2:
            p = ref.with_witness(p, rng)
    ops.append(command("classify-d", p, ["classify"], fmt(2), classify_check(p, None, fmt(2))))
    # classify --y0, d > 1: compatible start, incompatible start, no solution
    d = rng.randrange(2, 31)
    p = doc_problem(rng, ("mixed", "nilpotent", "explicit")[shape], d)
    y0 = p.x(0) + (1 if shape == 1 else 0)
    if shape == 2:
        p = ref.with_witness(p, rng)
    ops.append(command("classify-d+y0", p, ["classify", "--y0", str(y0)], fmt(3),
                       classify_check(p, y0, fmt(3))))
    # solve, free and pinned, short horizons, every kind
    kinds4 = ("explicit", "nilpotent", "mixed", "lifted")
    for i, pinned in ((4, False), (5, True)):
        p = doc_problem(rng, kinds4[(r + i) % 4])
        horizon = rng.randrange(8, 17)
        p = replace(p, doc=dict(p.doc, horizon=horizon))
        y0 = p.x(0) if pinned else None
        args = ["solve"] + (["--y0", str(y0)] if pinned else [])
        ops.append(command("solve" + "+y0" * pinned, p, args, fmt(i),
                           solve_check(p, horizon, y0, fmt(i))))
    # enumerate at short horizons
    shape = r % 4
    p = doc_problem(rng, ("explicit", "mixed", "lifted", "lifted")[shape])
    horizon = p.st.lookahead + rng.randrange(2, 6)
    y0 = p.x(0) if shape == 3 else None
    args = ["enumerate", "--horizon", str(horizon)] + (["--y0", str(y0)] if y0 is not None else [])
    ops.append(command("enumerate", p, args, fmt(6), enumerate_check(p, horizon, y0, fmt(6))))
    # verify a built solution, spoiled at one index every second round
    p = doc_problem(rng, kinds4[r % 4])
    candidate = [p.x(n) for n in range(rng.randrange(6, 13))]
    if r % 2:
        k = rng.randrange(len(candidate))
        candidate[k] = (candidate[k] + 1) % p.doc["m"]
    ops.append(command("verify", p, ["verify", *map(str, candidate)], fmt(7),
                       verify_check(p, candidate, fmt(7))))
    # oracle-check at moduli in the low thousands
    p, horizon = oracle_problem(rng, r)
    ofmt = "json" if (r // 3) % 2 else "text"
    ops.append(command("oracle-check", p, ["oracle-check", "--oracle-n", str(horizon)], ofmt,
                       oracle_check(p, horizon, ofmt)))
    # the one operation that fails today: a well-formed question answered with exit 2
    ops.append(Op("classify-undecidable", ("classify", "--y0", "3"), KNOWN_FAULT_DOC,
                  known_fault_check, known_fault=True))
    return ops


# ---------------------------------------------------------------------------
# audit_sweep: the sweep engines over the same small-m cells, one seed per operation

SWEEP_M_MAX, SWEEP_TRIALS = 8, 1
SWEEP_CELLS = sum(m * m for m in range(2, SWEEP_M_MAX + 1))


def sweep_check(rc: int, out: tuple[dict, dict]) -> int:
    oracle, uniqueness = out
    expect(oracle["ok"] and uniqueness["ok"], "sweep found discrepancies")
    expect(oracle["cells"] == SWEEP_CELLS * SWEEP_TRIALS, f"oracle sweep audited {oracle['cells']} cells")
    expect(oracle["count_checks"] == oracle["cells"], "oracle sweep skipped count checks")
    expect(uniqueness["cells"] == SWEEP_CELLS, f"uniqueness sweep audited {uniqueness['cells']} cells")
    return oracle["cells"] + uniqueness["cells"]


def audit_sweep_round(rng: random.Random, r: int) -> list[Op]:
    seed = rng.randrange(2**31)
    return [Op("sweep", None, None, sweep_check, sweep=(SWEEP_M_MAX, SWEEP_TRIALS, seed))]


WORKLOADS = {
    "long_window": long_window_round,
    "doc_commands": doc_commands_round,
    "audit_sweep": audit_sweep_round,
}


def make_round(workload: str, seed: int, r: int) -> list[Op]:
    rng = random.Random(f"{workload}:{seed}:{r}")
    return WORKLOADS[workload](rng, r)
