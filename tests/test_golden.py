"""Golden corpus: the CLI's exact stdout, stderr and exit code for a fixed set of runs.

Each case replays zmdiff.cli.main in-process with a document on stdin and
compares all three outputs byte for byte against tests/golden_cli.json. The
corpus covers every command in text and json, every solution kind free and
pinned, both no-solution reasons and the edges of the input domain. After a
deliberate change of output, re-record the file with

    PYTHONPATH=src python tests/test_golden.py

and review the diff of tests/golden_cli.json entry by entry.
"""

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from zmdiff.cli import main

GOLDEN = Path(__file__).with_name("golden_cli.json")

EXPLICIT = {"m": 5, "a": 3, "b": 2, "f": [4, 1, 0, 2], "f_period": 4}
NILPOTENT = {"m": 9, "a": 2, "b": 3, "f": [1], "f_period": 1}
MIXED = {"m": 6, "a": 2, "b": 3, "f": [1, 2, 0, 1], "f_period": 4}
MIXED_IND4 = {"m": 48, "a": 1, "b": 2, "f": [5, 0, 7], "f_period": 2, "horizon": 10}
LIFTED_MIXED = {"m": 12, "a": 2, "b": 6, "f": [2, 4, 0], "f_period": 3, "horizon": 6}
LIFTED_EXPLICIT = {"m": 12, "a": 6, "b": 9, "f": [3, 0, 6], "f_period": 3, "horizon": 6}
LIFTED_NILPOTENT = {"m": 18, "a": 4, "b": 6, "f": [2, 8, 14], "f_period": 3, "horizon": 6}
LIFTED_IND2 = {"m": 36, "a": -34, "b": 6, "f": [4, 0, 2, 30], "f_period": 3, "horizon": 6}
NULL_RING = {"m": 4, "a": 0, "b": 0, "f": [0], "f_period": 1, "horizon": 4}
NULL_RING31 = {"m": 31, "a": 0, "b": 0, "f": [0], "f_period": 1}
NO_SOLUTION = {"m": 12, "a": 2, "b": 6, "f": [1, 2, 0], "f_period": 3}
QUALIFIED = {"m": 12, "a": 2, "b": 6, "f": [2, 4, 0]}
APERIODIC = {"m": 9, "a": 2, "b": 3, "f": [1, 4, 7, 2]}
SHORT_SUPPORT = {"m": 8, "a": 1, "b": 2, "f": [1]}
BIG_EXPLICIT = {"m": 2**32, "a": 5, "b": 3, "f": [7, 1, 2**32 - 1], "f_period": 2}
BIG_IND4 = {"m": 2**32, "a": 3, "b": 256, "f": [1, 2, 3, 5], "f_period": 4}
BIG_IND32 = {"m": 2**32, "a": 1, "b": 2, "f": [1], "f_period": 1, "horizon": 33}
DEEP_TRUNCATION = {"m": 2500, "a": 3, "b": 10, "f": [7, 1], "f_period": 2}

# (name, document, start values: one compatible, then incompatible ones)
SOLVABLE = [
    ("explicit", EXPLICIT, [3]),
    ("nilpotent", NILPOTENT, [1, 2]),
    ("mixed", MIXED, [4, 2]),
    ("mixed_ind4", MIXED_IND4, [15, 13]),
    ("lifted_mixed", LIFTED_MIXED, [5, 1]),
    ("lifted_explicit", LIFTED_EXPLICIT, [7]),
    ("lifted_nilpotent", LIFTED_NILPOTENT, [10, 3]),
    ("lifted_ind2", LIFTED_IND2, [-2, 0]),
    ("null_ring", NULL_RING, [3]),
    ("big_explicit", BIG_EXPLICIT, [2**32 - 2]),
    ("big_ind4", BIG_IND4, [2332025685, 0]),
]


def _cases() -> list[tuple[str, list[str], dict | str | None]]:
    cases = []
    for fmt in ("text", "json"):

        def add(name: str, argv: list[str], doc: dict | None) -> None:
            cases.append((f"{name}-{fmt}", [*argv, "--format", fmt], doc))

        for name, doc, starts in SOLVABLE:
            add(f"classify-{name}", ["classify"], doc)
            add(f"solve-{name}", ["solve"], doc)
            add(f"enumerate-{name}", ["enumerate", "--max", "6"], doc)
            for y0 in starts:
                pin = ["--y0", str(y0)]
                add(f"classify-{name}-y0={y0}", ["classify", *pin], doc)
                add(f"solve-{name}-y0={y0}", ["solve", *pin], doc)
                add(f"enumerate-{name}-y0={y0}", ["enumerate", "--max", "6", *pin], doc)
        for name, doc in (("no_solution", NO_SOLUTION), ("qualified", QUALIFIED),
                          ("aperiodic", APERIODIC), ("short_support", SHORT_SUPPORT)):
            add(f"classify-{name}", ["classify"], doc)
            add(f"classify-{name}-y0=3", ["classify", "--y0", "3"], doc)
            add(f"solve-{name}", ["solve"], doc)
            add(f"solve-{name}-y0=3", ["solve", "--y0", "3"], doc)
            add(f"enumerate-{name}", ["enumerate"], doc)
        for name, doc, n in (("explicit", EXPLICIT, 5), ("nilpotent", NILPOTENT, 5),
                             ("mixed", MIXED, 4), ("mixed_ind4", MIXED_IND4, 6),
                             ("lifted_mixed", LIFTED_MIXED, 5),
                             ("lifted_explicit", LIFTED_EXPLICIT, 4),
                             ("lifted_nilpotent", LIFTED_NILPOTENT, 5),
                             ("null_ring", NULL_RING, 3), ("no_solution", NO_SOLUTION, 4),
                             ("qualified", QUALIFIED, 4),
                             ("deep_truncation", DEEP_TRUNCATION, 6),
                             ("deep_truncation_cut", DEEP_TRUNCATION, 4),
                             ("big_ind4", BIG_IND4, 6)):
            add(f"oracle-check-{name}-n={n}", ["oracle-check", "--oracle-n", str(n)], doc)
        add("solve-big_ind32", ["solve"], BIG_IND32)
        add("solve-mixed-x10", ["solve", "--x10", "1", "--horizon", "4"], MIXED)
        add("solve-explicit-alpha", ["solve", "--alpha", "1,2", "--x10", "2"], EXPLICIT)
        add("solve-lifted_mixed-alpha", ["solve", "--x10", "1", "--alpha", "1,0,1,1"],
            LIFTED_MIXED)
        add("solve-lifted_explicit-y0-alpha", ["solve", "--y0", "7", "--alpha", "2,2,1"],
            LIFTED_EXPLICIT)
        add("solve-null_ring-alpha", ["solve", "--alpha", "3,1,2"], NULL_RING)
        add("solve-bad-digit", ["solve", "--alpha", "3"], LIFTED_EXPLICIT)
        add("solve-bad-x10", ["solve", "--x10", "2"], MIXED)
        add("solve-short-horizon", ["solve", "--horizon", "1"], MIXED_IND4)
        add("enumerate-lifted_mixed-max100", ["enumerate", "--max", "100", "--horizon", "3"],
            LIFTED_MIXED)
        add("enumerate-bad-max", ["enumerate", "--max", "0"], MIXED)
        add("verify-pass", ["verify", "--y0", "4", "4", "5", "0", "4"], MIXED)
        add("verify-fail", ["verify", "4", "5", "1"], MIXED)
        add("verify-start", ["verify", "--y0", "3", "4", "5"], MIXED)
        add("verify-short", ["verify", "4"], MIXED)
        add("verify-support", ["verify", "1", "4", "4", "2", "2", "2"], APERIODIC)
        add("oracle-check-budget", ["oracle-check", "--budget", "2"], MIXED)
        add("oracle-check-n1", ["oracle-check", "--oracle-n", "1"], MIXED)
        add("sweep", ["sweep", "--m-max", "4", "--trials", "2", "--seed", "3"], None)
        add("malformed", ["classify"], {**MIXED, "bogus": 1})
        # the --y0 and --horizon flags obey the rules of the document fields they replace
        add("solve-horizon-flag-0", ["solve", "--horizon", "0"], MIXED)
        add("enumerate-horizon-flag-negative", ["enumerate", "--horizon", "-1"], MIXED)
        add("classify-y0-flag-2^63", ["classify", "--y0", str(2**63)], MIXED)
    cases.append(("invalid-json", ["classify"], "{not json"))
    # counted, not listed: 31**6 prefixes, far past the default budget of 10**7 states
    for fmt in ("text", "json"):
        cases.append((f"oracle-check-null_ring31-n=6-{fmt}",
                       ["oracle-check", "--oracle-n", "6", "--format", fmt], NULL_RING31))
    return cases


def run_case(argv: list[str], stdin: str) -> dict:
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = saved
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def record() -> list[dict]:
    entries = []
    for name, argv, doc in _cases():
        stdin = doc if isinstance(doc, str) else json.dumps(doc) if doc is not None else ""
        entries.append({"name": name, "argv": argv, "stdin": stdin, **run_case(argv, stdin)})
    return entries


ENTRIES = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else []


def test_corpus_lists_every_case():
    assert [e["name"] for e in ENTRIES] == [name for name, _, _ in _cases()]


@pytest.mark.parametrize("entry", ENTRIES, ids=[e["name"] for e in ENTRIES])
def test_golden_output(entry):
    got = run_case(entry["argv"], entry["stdin"])
    assert got == {key: entry[key] for key in ("exit", "stdout", "stderr")}


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(record(), indent=1) + "\n")
