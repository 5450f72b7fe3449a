"""Command-line front end: classify, solve, enumerate, verify, oracle-check, sweep.

Problems arrive as a JSON document, from --input PATH or stdin:

    {"m": 6, "a": 2, "b": 3, "f": [1, 2, 0, 1], "f_period": 2, "y0": 4, "horizon": 8}

m >= 2 is the modulus, a and b the coefficients of b*x[n+1] = a*x[n] + f[n]
(mod m), f the forcing prefix. Optional fields: f_period marks eventual
periodicity (f[n+p] = f[n] for n >= len(f)-p), y0 pins the start value
(taken mod m once, on parsing), horizon sets the default report depth (8).
Unknown and repeated fields are rejected. The commands and the sweeps ask
the solver's Structure in plain ints and build no Residue themselves.

Exit codes: 0 success, 1 no solution / verification failure / sweep
discrepancy, 2 usage or malformed input, 3 oracle state budget exceeded,
4 undecidable on the given support (the answer needs forcing terms past
an aperiodic prefix), 141 the reader closed the output pipe early.
Output is byte-identical across runs for fixed inputs and seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import random
import sys
from collections.abc import Callable, Iterator
from itertools import islice, product
from json.encoder import encode_basestring_ascii

from .oracle import DEFAULT_BUDGET, BudgetExceeded, count_prefixes, verify_solution
from .problem import InsufficientData, ProblemSpec, SequenceSpec
from .solver import (
    Classification,
    GeneralSolution,
    InitialClassification,
    InsufficientLookahead,
    Structure,
    structure,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_UNDECIDABLE = 4
EXIT_BROKEN_PIPE = 128 + 13  # killed by SIGPIPE, as a shell reports it

MAX_MODULUS = 2**32
MAX_INT = 2**63
SWEEP_PREFIX = 5  # the length of the forcing and the prefixes of each oracle sweep cell

DOCUMENT_FIELDS = ("m", "a", "b", "f", "f_period", "y0", "horizon")


class DocumentError(ValueError):
    """A problem document failed validation; names the offending field."""

    def __init__(self, fieldname: str, message: str):
        super().__init__(f"field {fieldname!r}: {message}")
        self.fieldname = fieldname


def _require_int(name: str, value: object) -> int:
    # bool is an int subclass; a true/false here is always a typo
    if not isinstance(value, int) or isinstance(value, bool):
        raise DocumentError(name, f"expected an integer, got {value!r}")
    if abs(value) >= MAX_INT:
        raise DocumentError(name, f"magnitude of {value} exceeds the supported range")
    return value


def parse_document(data: object) -> tuple[ProblemSpec, int | None, int]:
    """(problem, y0 mod m, horizon) from a decoded JSON object; strict on fields and types."""
    if not isinstance(data, dict):
        raise DocumentError("<document>", "expected a JSON object")
    for key in data:
        if key not in DOCUMENT_FIELDS:
            raise DocumentError(key, "unknown field")
    for key in ("m", "a", "b", "f"):
        if key not in data:
            raise DocumentError(key, "required field is missing")
    m = _require_int("m", data["m"])
    if m < 2:
        raise DocumentError("m", f"modulus must be >= 2, got {m}")
    if m > MAX_MODULUS:
        raise DocumentError("m", f"modulus must be <= {MAX_MODULUS}, got {m}")
    a = _require_int("a", data["a"])
    b = _require_int("b", data["b"])
    raw_f = data["f"]
    if not isinstance(raw_f, list) or not raw_f:
        raise DocumentError("f", "expected a non-empty list of integers")
    f = tuple(_require_int("f", v) for v in raw_f)
    f_period = None
    if data.get("f_period") is not None:
        f_period = _require_int("f_period", data["f_period"])
        if not 1 <= f_period <= len(f):
            raise DocumentError("f_period", f"period must lie in [1, {len(f)}], got {f_period}")
    y0 = None
    if data.get("y0") is not None:
        y0 = _require_int("y0", data["y0"]) % m
    horizon = 8
    if data.get("horizon") is not None:
        horizon = _require_int("horizon", data["horizon"])
        if horizon < 1:
            raise DocumentError("horizon", f"horizon must be >= 1, got {horizon}")
    return ProblemSpec(m, a, b, SequenceSpec.from_ints(f, m, f_period)), y0, horizon


class _Fields(dict):
    """A decoded JSON object, and the first field name it repeats (the last value wins)."""

    def __init__(self, pairs: list[tuple[str, object]]):
        super().__init__()
        self.repeated: str | None = None
        for key, value in pairs:
            if key in self and self.repeated is None:
                self.repeated = key
            self[key] = value


def _load(args: argparse.Namespace) -> tuple[ProblemSpec, int | None, int]:
    """The command's document, from --input or stdin, parsed into (problem, y0, horizon).

    --y0 and --horizon, on the commands that take them, replace the
    document's fields before validation, so a flag obeys the field's rules.
    """
    if args.input is not None:
        with open(args.input, "r", encoding="utf-8") as handle:
            text = handle.read()
    else:
        text = sys.stdin.read()
    try:
        data = json.loads(text, object_pairs_hook=_Fields)
    except (ValueError, RecursionError) as exc:  # bad JSON, too many digits, too deep
        raise DocumentError("<document>", f"invalid JSON: {exc}") from None
    if isinstance(data, dict):  # anything else is parse_document's to reject
        if data.repeated is not None:  # a nested object fails later, by its field's type
            raise DocumentError(data.repeated, "duplicate field")
        data.update((k, v) for k in ("y0", "horizon") if (v := getattr(args, k, None)) is not None)
    return parse_document(data)


# ---------------------------------------------------------------------------
# report construction


def _verdict_dict(cls: Classification | InitialClassification) -> dict:
    """The verdict's kind and the fields that kind sets; not the support flag."""
    return {k: v for k, v in vars(cls).items() if v is not None and k != "support_qualified"}


def _undecidable(exc: InsufficientLookahead) -> tuple[list[int], str]:
    """First and last forcing index that an undecidable answer reads, and the text saying so."""
    last = exc.index + exc.window - 1
    return [exc.index, last], f"undecidable: needs f[{exc.index}..{last}]"


def _compatibility(st: Structure) -> tuple[dict | None, list[str]]:
    """The start-value condition over m2', if the problem has one: json and text lines."""
    m2 = st.shape.psplit.m2
    try:
        req = st.compatibility
    except InsufficientLookahead as exc:
        needs, text = _undecidable(exc)
        out = {"modulus": m2, "required": None, "needs_forcing_terms": needs}
        return out, [_kv("start condition", text)]
    if req is None:
        return None, []
    text = f"solvable with pinned start iff x[0] = {req} (mod {m2})"
    return {"modulus": m2, "required": req}, [_kv("start condition", text)]


def _initial(st: Structure, y0: int) -> tuple[dict, list[str]]:
    """The verdict on the start x[0] = y0: json and text lines."""
    out: dict[str, object] = {"y0": y0}
    try:
        icls = st.classify_initial(y0)
    except InsufficientLookahead as exc:
        needs, text = _undecidable(exc)
        out.update(kind="undecidable", needs_forcing_terms=needs)
    else:
        out.update(_verdict_dict(icls))
        if icls.reason == "divisibility":
            text = f"none (forcing term {icls.witness_index} not divisible by d)"
        elif icls.reason == "compatibility":
            text = (f"none (needs x[0] = {icls.required} "
                    f"(mod {icls.condition_modulus}), got {icls.actual})")
        else:
            text = "unique solution" if icls.kind == "unique" else "infinitely many solutions"
    return out, [_kv(f"initial x[0]={y0}", text)]


def _emit(report: dict, fmt: str, text_lines: list[str]) -> None:
    if fmt == "json":
        print(_json(report))
    elif text_lines:
        print("\n".join(text_lines))


def _json(obj: object, pad: str = "\n") -> str:
    """json.dumps(obj, indent=2), byte for byte, for dicts with str keys; a list of scalars goes
    through the stdlib's C encoder in one call, where its indenting encoder steps item by item."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if type(obj) is int:
        return int.__repr__(obj)
    if not obj or not isinstance(obj, (dict, list, tuple)):
        return "[]" if obj in ([], ()) else json.dumps(obj)  # None, bools, floats and {}
    inner = pad + "  "
    if isinstance(obj, dict):
        items = (f"{encode_basestring_ascii(k)}: {_json(v, inner)}" for k, v in obj.items())
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if not isinstance(obj[0], (dict, list, tuple)):
        flat = _flat_encoder(inner)(obj)
        # a bracket past the first is a container further on, or one inside a string
        if flat.find("[", 1) < 0 and flat.find("{", 1) < 0:
            return "[" + inner + flat[1:-1] + pad + "]"
    return "[" + inner + ("," + inner).join(_json(v, inner) for v in obj) + pad + "]"


@functools.lru_cache(maxsize=16)
def _flat_encoder(inner: str) -> Callable[[object], str]:
    """The C encoder, writing the items of a list of scalars as indent=2 does at this depth."""
    return json.JSONEncoder(separators=("," + inner, ": ")).encode


def _kv(label: str, value: object) -> str:
    return f"{label:<22}{value}"


def _freedom_text(sol) -> str:
    parts = []
    if sol.free_initial_modulus > 1:
        parts.append(f"start value x10 ranges over [0, {sol.free_initial_modulus})")
    if sol.lift_digit_bound > 1:
        text = f"lift digit alpha[n] ranges over [0, {sol.lift_digit_bound}) at each index"
        for i, dg in sol.fixed_digits:
            text += f"; alpha[{i}] fixed to {dg}"
        parts.append(text)
    return "; ".join(parts) if parts else "none (the solution is unique)"


# ---------------------------------------------------------------------------
# subcommands


def cmd_classify(args: argparse.Namespace) -> int:
    spec, y0, _ = _load(args)
    st = structure(spec)
    sh, cls = st.shape, st.classify()
    compatibility, compatibility_lines = _compatibility(st)
    initial, initial_lines = _initial(st, y0) if y0 is not None else (None, [])
    report = {
        "command": "classify",
        "m": spec.m,
        "a": spec.a,
        "b": spec.b,
        "d": sh.d,
        "m1": sh.split.m1,
        "m2": sh.split.m2,
        "ind_b2": sh.ind_b2,
        "m_prime": sh.psplit.m,
        "m1_prime": sh.psplit.m1,
        "m2_prime": sh.psplit.m2,
        "ind_b2_prime": sh.ind_b2_prime,
        "verdict": _verdict_dict(cls),
        "support_qualified": cls.support_qualified,
        "compatibility": compatibility,
        "initial": initial,
    }

    lines = [
        _kv("equation", f"{spec.b}*x[n+1] = {spec.a}*x[n] + f[n]  (mod {spec.m})"),
        _kv("d = gcd(a, b, m)", sh.d),
        _kv("split m1, m2", f"{sh.split.m1}, {sh.split.m2}"),
    ]
    if sh.ind_b2 is not None:
        lines.append(_kv("ind(b mod m2)", sh.ind_b2))
    if sh.d != 1:
        lines.append(_kv("reduced m'", sh.psplit.m))
        lines.append(_kv("split m1', m2'", f"{sh.psplit.m1}, {sh.psplit.m2}"))
        if sh.ind_b2_prime is not None:
            lines.append(_kv("ind(b' mod m2')", sh.ind_b2_prime))
    if cls.kind == "finite":
        word = "solution" if cls.count == 1 else "solutions"
        verdict = f"finite: exactly {cls.count} {word}"
    elif cls.kind == "infinite":
        verdict = f"infinite family: d={cls.d}, {cls.m1_prime} reduced branches"
    else:
        verdict = f"none: forcing term {cls.witness_index} not divisible by d"
    lines.append(_kv("verdict", verdict))
    if cls.support_qualified:
        lines.append(_kv("support", "qualified: certified only on the provided prefix"))
    _emit(report, args.format, lines + compatibility_lines + initial_lines)
    headline = initial["kind"] if initial is not None else cls.kind
    return {"none": EXIT_FAIL, "undecidable": EXIT_UNDECIDABLE}.get(headline, EXIT_OK)


def _solution_window(
    args: argparse.Namespace, spec: ProblemSpec, y0: int | None, horizon: int, **empty: list
) -> tuple[str, GeneralSolution | None, int]:
    """(mode, solution, last index) for solve and enumerate.

    The last index is the last whose value reads no forcing term past the
    horizon. When there is no solution, this prints the refusal, with the
    fields in `empty` (enumerate's rows) reported empty, and the solution is None.
    """
    mode = "equation" if y0 is None else "initial"
    try:
        sol = structure(spec).solution(y0)
    except ValueError as exc:  # Structure.solution's refusal
        report = {"command": args.command, "mode": mode, "verdict": "none", "detail": str(exc)}
        _emit({**report, **empty}, args.format, [str(exc), *(f"0 {key}" for key in empty)])
        return mode, None, -1
    if horizon < sol.lookahead:
        raise ValueError(f"horizon {horizon} is smaller than the lookahead {sol.lookahead}")
    return mode, sol, horizon - sol.lookahead


def cmd_solve(args: argparse.Namespace) -> int:
    mode, sol, last = _solution_window(args, *_load(args))
    if sol is None:
        return EXIT_FAIL
    values = sol.values(last + 1, args.x10, args.alpha)
    report = {
        "command": "solve",
        "mode": mode,
        "kind": sol.kind,
        "m": sol.modulus,
        "free_initial_modulus": sol.free_initial_modulus,
        "lift_digit_bound": sol.lift_digit_bound,
        "lookahead": sol.lookahead,
        "fixed_digits": [list(p) for p in sol.fixed_digits],
        "x10": args.x10,
        "alpha": list(args.alpha),
        "first_index": 0,
        "last_index": last,
        "values": values,
    }
    lines = [] if args.format == "json" else [
        _kv("mode", "initial problem" if mode == "initial" else "free equation"),
        _kv("solution kind", sol.kind),
        _kv("freedom", _freedom_text(sol)),
        _kv("lookahead", sol.lookahead),
        _kv("parameters", f"x10={args.x10}, alpha={','.join(map(str, args.alpha)) or '-'}"),
        *(_kv(f"x[{n}]", v) for n, v in enumerate(values)),
    ]
    _emit(report, args.format, lines)
    return EXIT_OK


def cmd_enumerate(args: argparse.Namespace) -> int:
    spec, y0, horizon = _load(args)
    _at_least(args, max=1)
    mode, sol, last = _solution_window(args, spec, y0, horizon, rows=[])
    if sol is None:
        return EXIT_FAIL
    fixed = dict(sol.fixed_digits)
    digits = [range(fixed[i], fixed[i] + 1) if i in fixed else range(sol.lift_digit_bound)
              for i in range(last + 1)]
    total = sol.free_initial_modulus * math.prod(map(len, digits))
    # x10 major, then digit vectors lexicographic with the lowest index most
    # significant, generated lazily: an infinite family has d**(last+1) of them
    choices = ((x10, alpha) for x10 in range(sol.free_initial_modulus)
               for alpha in product(*digits))
    rows = [{"x10": x10, "alpha": list(alpha), "values": sol.values(last + 1, x10, alpha)}
            for x10, alpha in islice(choices, args.max)]
    truncated = total > len(rows)
    family = "infinite" if sol.lift_digit_bound > 1 else "finite"
    report = {
        "command": "enumerate",
        "mode": mode,
        "kind": sol.kind,
        "m": sol.modulus,
        "first_index": 0,
        "last_index": last,
        "family": family,
        "window_rows": total,
        "max": args.max,
        "truncated": truncated,
        "rows": rows,
    }
    lines = []
    if args.format == "text":
        lines = [
            _kv("mode", "initial problem" if mode == "initial" else "free equation"),
            _kv("freedom", _freedom_text(sol)),
            _kv("rows", f"{len(rows)} of {total} distinct over indices 0..{last}"),
        ]
        for row in rows:
            lines.append(
                f"  x10={row['x10']} alpha={','.join(map(str, row['alpha']))}  ->  "
                + " ".join(map(str, row["values"]))
            )
        if truncated:
            lines.append(f"truncated: {family} family")
    _emit(report, args.format, lines)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    spec, y0, _ = _load(args)
    if len(args.candidate) < 2:
        raise ValueError("candidate needs at least 2 values")
    xs = [v % spec.m for v in args.candidate]
    # a candidate longer than the forcing support raises InsufficientData -> exit 4
    ok, idx = verify_solution(spec, xs, y0)
    detail = "all transitions satisfied"
    if not ok:
        if idx == 0 and y0 is not None and xs[0] != y0:
            detail = f"start value mismatch: expected {y0}, got {xs[0]}"
        else:
            detail = (
                f"transition {idx} violated: {spec.b}*{xs[idx + 1]} != {spec.a}*{xs[idx]}"
                f" + {spec.forcing.values(idx, idx + 1)[0]} (mod {spec.m})"
            )
    report = {
        "command": "verify",
        "m": spec.m,
        "candidate": xs,
        "y0": y0,
        "pass": ok,
        "failing_index": idx,
        "detail": detail,
    }
    lines = [("PASS: " if ok else f"FAIL at index {idx}: ") + detail]
    _emit(report, args.format, lines)
    return EXIT_OK if ok else EXIT_FAIL


def _count_check(
    st: Structure, horizon: int, budget: int
) -> tuple[int, int | None, int, Iterator[int]]:
    """(expected, window witness, observed, starts): the oracle's count of the
    length-`horizon` prefixes, cut by st.shape.truncation, against its
    prediction, and the ascending start values of the full prefixes, lazily.

    The prediction is exact for the constraint window f[0..horizon-2]: a
    later divisibility witness is invisible to prefixes of this length.
    Raises BudgetExceeded when sum(q) * horizon, q || m, outgrows `budget`.
    """
    witness = st.witness if st.witness is not None and st.witness < horizon - 1 else None
    sh = st.shape
    expected = 0 if witness is not None else sh.psplit.m1 * sh.d ** (horizon - sh.truncation)
    observed, starts = count_prefixes(st.spec, horizon, sh.truncation, budget=budget)
    return expected, witness, observed, starts


def cmd_oracle_check(args: argparse.Namespace) -> int:
    spec, _, _ = _load(args)
    _at_least(args, oracle_n=2, budget=1)
    horizon = args.oracle_n
    st = structure(spec)
    cut = st.shape.truncation
    if horizon <= cut:
        raise ValueError(f"--oracle-n {horizon} must exceed the truncation depth {cut}")
    expected, witness, observed, _ = _count_check(st, horizon, args.budget)
    agree = observed == expected
    report = {
        "command": "oracle_check",
        "m": spec.m,
        "a": spec.a,
        "b": spec.b,
        "d": st.shape.d,
        "horizon": horizon,
        "budget": args.budget,
        "truncation": cut,
        "window_witness": witness,
        "expected": expected,
        "observed": observed,
        "agree": agree,
    }
    lines = [
        _kv("prefix length", horizon),
        _kv("truncation", cut),
        _kv("theoretical count", expected),
        _kv("oracle count", observed),
        _kv("agreement", "yes" if agree else "NO"),
    ]
    _emit(report, args.format, lines)
    return EXIT_OK if agree else EXIT_FAIL


# ---------------------------------------------------------------------------
# sweep engines (shared with the acceptance suite)


def run_oracle_sweep(m_max: int, trials: int, seed: int) -> dict:
    """Solver-vs-brute-force agreement over every (m <= m_max, a, b) cell.

    Per cell and trial: the truncated prefix count must match the closed-form
    prediction, every solver-produced sequence must verify, the least start
    of the oracle's prefixes must solve when pinned, and the start residue
    mod m2' that a solvable cell forces, at any d, must be the oracle's. From
    m = 2**SWEEP_PREFIX on (b = 2) a cell's truncation depth reaches the
    prefix length, leaving no prefix to count, so m_max stays below it, where
    a count visits sum(q) * 5 <= 155 oracle states (q || m): no budget binds.
    """
    if m_max >= 2**SWEEP_PREFIX:
        n = SWEEP_PREFIX
        raise ValueError(
            f"--m-max must be below 2**{n} = {2**n}: from m = {2**n} on, "
            f"some cells have a truncation depth of {n}, the fixed prefix length"
        )
    rng = random.Random(seed)
    discrepancies: list[dict] = []
    per_m = []
    checks = ("cells", "count_checks", "sequence_checks", "initial_checks", "compat_checks")
    for m in range(2, m_max + 1):
        row = {"m": m, **dict.fromkeys(checks, 0), "failures": 0}
        for a in range(m):
            for b in range(m):
                for _ in range(trials):
                    f = [rng.randrange(m) for _ in range(SWEEP_PREFIX)]
                    spec = ProblemSpec(m, a, b, SequenceSpec.from_ints(f, m))
                    before = len(discrepancies)
                    _audit_cell(spec, rng, row, discrepancies)
                    row["cells"] += 1
                    row["failures"] += len(discrepancies) - before
        per_m.append(row)
    return {
        "m_max": m_max,
        "trials": trials,
        "seed": seed,
        "horizon": SWEEP_PREFIX,
        **{key: sum(row[key] for row in per_m) for key in checks},
        "per_m": per_m,
        "discrepancies": discrepancies,
        "ok": not discrepancies,
    }


def _audit_cell(spec: ProblemSpec, rng: random.Random, row: dict, out: list[dict]) -> None:
    def flag(kind: str, **detail: object) -> None:
        f = list(spec.forcing.terms)
        out.append({"kind": kind, "m": spec.m, "a": spec.a, "b": spec.b, "f": f, **detail})

    st = structure(spec)
    expected, _, observed, starts = _count_check(st, SWEEP_PREFIX, DEFAULT_BUDGET)
    starts = list(starts)
    row["count_checks"] += 1
    if observed != expected:
        flag("count", truncation=st.shape.truncation, expected=expected, observed=observed)

    if st.classify().kind == "none":
        try:
            st.solution()
            flag("missing_refusal")
        except ValueError:
            pass
    else:
        sol = st.solution()
        seq_len = SWEEP_PREFIX - sol.lookahead
        x10s = sorted({0, sol.free_initial_modulus - 1, rng.randrange(sol.free_initial_modulus)})
        if sol.lift_digit_bound > 1:
            alphas = [
                [0] * seq_len,
                [sol.lift_digit_bound - 1] * seq_len,
                [rng.randrange(sol.lift_digit_bound) for _ in range(seq_len)],
            ]
        else:
            alphas = [[]]
        for x10 in x10s:
            for alpha in alphas:
                ok, idx = verify_solution(spec, sol.values(seq_len, x10, alpha))
                row["sequence_checks"] += 1
                if not ok:
                    flag("sequence", x10=x10, alpha=list(alpha), failing_index=idx)
        if starts:
            y0 = starts[0]
            try:  # solution() classifies the start once; a "none" verdict raises ValueError
                isol = st.solution(y0)
            except ValueError:
                flag("initial_classify", y0=y0, verdict="none")
            else:
                ok, idx = verify_solution(spec, isol.values(SWEEP_PREFIX - isol.lookahead), y0)
                row["initial_checks"] += 1
                if not ok:
                    flag("initial_sequence", y0=y0, failing_index=idx)

    if (required := st.compatibility) is not None:
        residues = {s % st.shape.psplit.m2 for s in starts}
        row["compat_checks"] += 1
        if residues != {required}:
            flag("compat", required=required, observed=sorted(residues))


def run_uniqueness_sweep(m_max: int, forcing_trials: int, seed: int) -> dict:
    """Uniqueness-predicate equivalence over every (m <= m_max, a, b) cell.

    Checks that "classifies as exactly one solution", "d == 1 and m1 == 1",
    and "a invertible and b nilpotent" agree everywhere, and that every cell
    with a unique zero homogeneous solution stays uniquely solvable for
    random forcing.
    """
    rng = random.Random(seed)
    discrepancies: list[dict] = []
    cells = 0
    unique_cells = 0
    for m in range(2, m_max + 1):
        zero_f = SequenceSpec.from_ints([0], m, period=1)
        for b in range(m):
            nilp = pow(b, m.bit_length(), m) == 0  # a nilpotent b has index <= log2 m
            for a in range(m):
                cells += 1
                st = structure(ProblemSpec(m, a, b, zero_f))
                cls = st.classify()
                p1 = cls.kind == "finite" and cls.count == 1
                p2 = math.gcd(a, b, m) == 1 and st.shape.split.m1 == 1
                p3 = math.gcd(a, m) == 1 and nilp
                if not (p1 == p2 == p3):
                    discrepancies.append(
                        {"kind": "equivalence", "m": m, "a": a, "b": b,
                         "p1": p1, "p2": p2, "p3": p3}
                    )
                    continue
                if not p1:
                    continue
                unique_cells += 1
                sol = st.solution()
                if any(sol.values(3)):
                    discrepancies.append(
                        {"kind": "homogeneous_nonzero", "m": m, "a": a, "b": b}
                    )
                for _ in range(forcing_trials):
                    forcing = [rng.randrange(m) for _ in range(4)]
                    rspec = ProblemSpec(m, a, b, SequenceSpec.from_ints(forcing, m))
                    rcls = structure(rspec).classify()
                    if not (rcls.kind == "finite" and rcls.count == 1):
                        discrepancies.append(
                            {"kind": "forced_unique", "m": m, "a": a, "b": b, "f": forcing}
                        )
    return {
        "m_max": m_max,
        "forcing_trials": forcing_trials,
        "seed": seed,
        "cells": cells,
        "unique_cells": unique_cells,
        "discrepancies": discrepancies,
        "ok": not discrepancies,
    }


def cmd_sweep(args: argparse.Namespace) -> int:
    _at_least(args, m_max=2, trials=1)
    oracle_report = run_oracle_sweep(args.m_max, args.trials, args.seed)
    uniqueness_report = run_uniqueness_sweep(args.m_max, args.trials, args.seed)
    ok = oracle_report["ok"] and uniqueness_report["ok"]
    report = {
        "command": "sweep",
        "oracle": oracle_report,
        "uniqueness": uniqueness_report,
        "ok": ok,
    }
    lines = [
        f"oracle-agreement sweep: m in [2, {args.m_max}], trials {args.trials}, "
        f"seed {args.seed}, horizon {oracle_report['horizon']}",
        f"{'m':>4} {'cells':>7} {'counts':>7} {'seqs':>7} {'initial':>8} "
        f"{'compat':>7} {'bad':>4}",
    ]
    for row in oracle_report["per_m"]:
        lines.append(
            f"{row['m']:>4} {row['cells']:>7} {row['count_checks']:>7} "
            f"{row['sequence_checks']:>7} {row['initial_checks']:>8} "
            f"{row['compat_checks']:>7} {row['failures']:>4}"
        )
    lines.append(
        f"uniqueness sweep: cells {uniqueness_report['cells']}, "
        f"uniquely solvable cells {uniqueness_report['unique_cells']}, "
        f"discrepancies {len(uniqueness_report['discrepancies'])}"
    )
    for disc in (oracle_report["discrepancies"] + uniqueness_report["discrepancies"])[:10]:
        lines.append(f"discrepancy: {disc}")
    lines.append(f"verdict: {'OK' if ok else 'FAILED'}")
    _emit(report, args.format, lines)
    return EXIT_OK if ok else EXIT_FAIL


# ---------------------------------------------------------------------------
# argument plumbing


def _at_least(args: argparse.Namespace, **lows: int) -> None:
    """Reject a work flag below its least meaningful value, by its flag name."""
    for name, low in lows.items():
        if (value := getattr(args, name)) < low:
            raise ValueError(f"--{name.replace('_', '-')} must be >= {low}, got {value}")


def _csv_ints(text: str) -> list[int]:
    if not text:
        return []
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


# Each command's handler, summary, and arguments in help order, each as (flag or positional
# name, type, default, help, choices). Every flag takes one value; the one positional,
# verify's candidate, takes nargs="+".
FORMAT = ("--format", str, "text", None, ("text", "json"))
INPUT = ("--input", str, None, "problem document path (default: stdin)", None)
Y0 = ("--y0", int, None, "pin the start value (overrides the document)", None)
HORIZON = ("--horizon", int, None, "report indices 0..horizon-lookahead", None)
COMMANDS = {
    "classify": (cmd_classify, "solution-set verdict and structure data", (INPUT, Y0, FORMAT)),
    "solve": (cmd_solve, "evaluate one solution over the horizon", (
        INPUT, Y0, HORIZON, FORMAT,
        ("--x10", int, 0, "free start parameter (default 0)", None),
        ("--alpha", _csv_ints, (), "lift digits per index, comma-separated", None))),
    "enumerate": (cmd_enumerate, "list distinct solutions over the horizon", (
        INPUT, Y0, HORIZON, FORMAT,
        ("--max", int, 16, "row cap (default 16)", None))),
    "verify": (cmd_verify, "check a candidate sequence against every transition", (
        INPUT, Y0, FORMAT,
        ("candidate", int, None, "candidate values x[0] x[1] ...", None))),
    "oracle-check": (cmd_oracle_check, "compare counts against brute force", (
        INPUT, FORMAT,
        ("--budget", int, DEFAULT_BUDGET, "oracle states: prefix length times sum of m's "
         "prime powers (default %(default)s)", None),
        ("--oracle-n", int, 5, "prefix length (default 5)", None))),
    "sweep": (cmd_sweep, "oracle-agreement and equivalence sweeps", (
        FORMAT,
        ("--m-max", int, 12, "largest modulus (default 12)", None),
        ("--trials", int, 5, "forcing sequences per cell (default 5)", None),
        ("--seed", int, 42, "RNG seed (default 42)", None))),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zmdiff",
        description="classify, solve, and brute-force-check b*x[n+1] = a*x[n] + f[n] (mod m)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, summary, rows) in COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        for flag, kind, default, text, choices in rows:
            nargs = {} if flag[0] == "-" else {"nargs": "+"}
            p.add_argument(flag, type=kind, default=default, help=text, choices=choices, **nargs)
        p.set_defaults(handler=handler)
    return parser


def _parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    """build_parser().parse_args(argv), but a well-formed command line is read off COMMANDS
    (_read_args); help and every error still come from argparse."""
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in COMMANDS and (args := _read_args(argv[0], argv[1:])):
        return args
    return build_parser().parse_args(argv)


@functools.cache
def _options(name: str) -> tuple[dict, dict, tuple | None]:
    """Command name's (flag -> (dest, type, choices), namespace defaults, the positional's
    (dest, type, choices) or None), derived from its COMMANDS rows on first use."""
    handler, _, rows = COMMANDS[name]
    specs = {flag: (flag.lstrip("-").replace("-", "_"), kind, choices)
             for flag, kind, _, _, choices in rows}
    defaults = {dest: row[2] for row, (dest, *_) in zip(rows, specs.values())}
    positional = next((spec for flag, spec in specs.items() if flag[0] != "-"), None)
    options = {flag: spec for flag, spec in specs.items() if flag[0] == "-"}
    return options, {"command": name, **defaults, "handler": handler}, positional


def _read_args(name: str, words: list[str]) -> argparse.Namespace | None:
    """build_parser().parse_args([name, *words]) when words are the command's flags, each with
    one value, and one unbroken run of positional words, every value passing _value; else None."""
    options, defaults, positional = _options(name)
    values, run, closed = dict(defaults), [], False
    words = iter(words)
    try:
        for word in words:
            if word in options:
                # a missing value reads as "-", which argparse refuses too
                values[options[word][0]] = _value(options[word], next(words, "-"))
                closed = bool(run)
            elif positional is None or closed:
                return None
            else:
                run.append(_value(positional, word))
    except (argparse.ArgumentTypeError, TypeError, ValueError):
        return None
    if positional is not None:
        if not run:
            return None
        values[positional[0]] = run
    return argparse.Namespace(**values)


def _value(spec: tuple, word: str) -> object:
    """word through spec's type and choices, else ValueError; a word starting with "-" passes
    only as a negative number in ASCII digits, which every supported argparse reads as a value."""
    _, kind, choices = spec
    if word[:1] == "-" and not (word[1:].isdigit() and word.isascii()):
        raise ValueError(word)
    value = kind(word)
    if choices is not None and value not in choices:
        raise ValueError(word)
    return value


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except BrokenPipeError:
        # the reader is gone; anything still buffered goes to devnull, so that
        # the interpreter's final flush cannot fail and print a traceback
        sys.stdout = open(os.devnull, "w")
        return EXIT_BROKEN_PIPE
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (InsufficientData, InsufficientLookahead) as exc:
        # a well-formed question whose answer reads forcing past an aperiodic prefix
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNDECIDABLE
    except (ValueError, OSError) as exc:
        # malformed documents and arguments (DocumentError, InvalidLiftDigit, ...
        # are ValueErrors) and unreadable files
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
