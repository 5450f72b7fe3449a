import argparse
import io
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from zmdiff.cli import (
    COMMANDS,
    DocumentError,
    _json,
    _parse_args,
    build_parser,
    cmd_solve,
    main,
    parse_document,
    run_uniqueness_sweep,
    run_oracle_sweep,
)
from zmdiff.modring import Residue
from zmdiff.problem import SequenceSpec
from zmdiff.solver import Structure, shape

from argv_fuzz import command_line, main as fuzz, parsed
from test_golden import BIG_IND32

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))
import workloads  # noqa: E402

sys.path.remove(str(BENCH))

EX1 = {"m": 6, "a": 2, "b": 3, "f": [1, 2, 0, 1], "f_period": 4}
EX2 = {"m": 9, "a": 2, "b": 3, "f": [1], "f_period": 1}
EX3_EVEN = {"m": 12, "a": 2, "b": 6, "f": [2, 4, 0], "f_period": 3, "horizon": 6}
EX3_ODD = {"m": 12, "a": 2, "b": 6, "f": [1, 2, 0], "f_period": 3}
EX4 = {"m": 12, "a": 6, "b": 9, "f": [3, 0, 6], "f_period": 3, "horizon": 6}
# the start condition of both reads f[0..2], over m2 = 8 and m2' = 8
SHORT_SUPPORT = {"m": 8, "a": 1, "b": 2, "f": [1]}
SHORT_SUPPORT_D2 = {"m": 16, "a": 2, "b": 4, "f": [2]}
# a = b = 0: every x[n] is free, but x[n] rests on f[n-1] = 0
NULL_RING = {"m": 4, "a": 0, "b": 0, "f": [0]}


@pytest.fixture
def doc_path(tmp_path):
    def write(doc):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(doc))
        return str(path)

    return write


class TestParseDocument:
    def test_full_document(self):
        spec, y0, horizon = parse_document({"m": 6, "a": 2, "b": 3, "f": [1, 2], "f_period": 2,
                                            "y0": 4, "horizon": 5})
        assert (spec.m, spec.a, spec.b, y0, horizon) == (6, 2, 3, 4, 5)
        assert spec.forcing == SequenceSpec.from_ints([1, 2], 6, 2)

    def test_defaults(self):
        spec, y0, horizon = parse_document({"m": 6, "a": 2, "b": 3, "f": [1]})
        assert (spec.forcing.period, y0, horizon) == (None, None, 8)

    @pytest.mark.parametrize(
        "data, field",
        [
            ({"m": 6, "a": 2, "b": 3, "f": [1], "bogus": 0}, "bogus"),
            ({"m": 6, "a": 2, "b": 3}, "f"),
            ({"a": 2, "b": 3, "f": [1]}, "m"),
            ({"m": 1, "a": 2, "b": 3, "f": [1]}, "m"),
            ({"m": 2**33, "a": 2, "b": 3, "f": [1]}, "m"),
            ({"m": True, "a": 2, "b": 3, "f": [1]}, "m"),
            ({"m": 6, "a": "2", "b": 3, "f": [1]}, "a"),
            ({"m": 6, "a": 2, "b": 3, "f": []}, "f"),
            ({"m": 6, "a": 2, "b": 3, "f": 1}, "f"),
            ({"m": 6, "a": 2, "b": 3, "f": [1.5]}, "f"),
            ({"m": 6, "a": 2, "b": 3, "f": [1], "f_period": 2}, "f_period"),
            ({"m": 6, "a": 2, "b": 3, "f": [1], "f_period": 0}, "f_period"),
            ({"m": 6, "a": 2, "b": 3, "f": [1], "horizon": 0}, "horizon"),
            ({"m": 6, "a": 2, "b": 3, "f": [2**63]}, "f"),
        ],
    )
    def test_rejections_name_the_field(self, data, field):
        with pytest.raises(DocumentError) as err:
            parse_document(data)
        assert err.value.fieldname == field

    @pytest.mark.parametrize("f, message", [
        ([1, True, 2**63], "expected an integer, got True"),
        ([1, True], "expected an integer, got True"),
        ([1, -(2**63), "x"], f"magnitude of {-(2**63)} exceeds the supported range"),
        ([5, -(2**63)], f"magnitude of {-(2**63)} exceeds the supported range"),
        ([2**63, 5], f"magnitude of {2**63} exceeds the supported range"),
    ])
    def test_the_first_bad_forcing_term_is_named(self, f, message):
        with pytest.raises(DocumentError, match=re.escape(message)):
            parse_document({"m": 6, "a": 2, "b": 3, "f": f})

    def test_forcing_terms_at_the_ends_of_the_range_are_kept(self):
        spec, _, _ = parse_document({"m": 2**32, "a": 1, "b": 1, "f": [2**63 - 1, 1 - 2**63]})
        assert spec.forcing.terms == ((2**63 - 1) % 2**32, (1 - 2**63) % 2**32)

    def test_not_an_object(self):
        with pytest.raises(DocumentError):
            parse_document([1, 2, 3])

    def test_document_to_spec(self):
        spec, _, _ = parse_document(EX1)
        assert (spec.m, spec.a, spec.b) == (6, 2, 3)
        assert spec.forcing.period == 4


class TestClassifyCommand:
    def test_finite_two(self, capsys, doc_path):
        assert main(["classify", "--input", doc_path(EX1)]) == 0
        out = capsys.readouterr().out
        assert "finite: exactly 2 solutions" in out
        assert "x[0] = 1 (mod 3)" in out

    def test_unique(self, capsys, doc_path):
        assert main(["classify", "--input", doc_path(EX2)]) == 0
        assert "finite: exactly 1 solution" in capsys.readouterr().out

    def test_none_with_witness(self, capsys, doc_path):
        assert main(["classify", "--input", doc_path(EX3_ODD)]) == 1
        assert "forcing term 0 not divisible" in capsys.readouterr().out

    def test_initial_verdict(self, capsys, doc_path):
        assert main(["classify", "--input", doc_path(EX1), "--y0", "2"]) == 1
        assert "none" in capsys.readouterr().out
        assert main(["classify", "--input", doc_path(EX1), "--y0", "4"]) == 0

    def test_json_mode(self, capsys, doc_path):
        assert main(["classify", "--input", doc_path(EX4), "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == {"kind": "infinite", "d": 3, "m1_prime": 4}
        assert (report["m1"], report["m2"]) == (4, 3)
        assert report["support_qualified"] is False

    @pytest.mark.parametrize("doc", [SHORT_SUPPORT, SHORT_SUPPORT_D2])
    def test_undecidable_start_condition_text(self, capsys, doc_path, doc):
        path = doc_path(doc)
        assert main(["classify", "--input", path]) == 0
        out = capsys.readouterr().out
        assert "start condition       undecidable: needs f[0..2]" in out
        assert main(["classify", "--input", path, "--y0", "3"]) == 4
        assert "initial x[0]=3        undecidable: needs f[0..2]" in capsys.readouterr().out

    @pytest.mark.parametrize("doc", [SHORT_SUPPORT, SHORT_SUPPORT_D2])
    def test_undecidable_start_condition_json(self, capsys, doc_path, doc):
        path = doc_path(doc)
        assert main(["classify", "--input", path, "--y0", "3", "--format", "json"]) == 4
        report = json.loads(capsys.readouterr().out)
        assert report["compatibility"] == {"modulus": 8, "required": None,
                                           "needs_forcing_terms": [0, 2]}
        assert report["initial"] == {"y0": 3, "kind": "undecidable",
                                     "needs_forcing_terms": [0, 2]}

    def test_malformed_document(self, capsys, doc_path):
        path = doc_path({"m": 6, "a": 2, "b": 3, "f": [1], "bogus": 1})
        assert main(["classify", "--input", path]) == 2
        assert "bogus" in capsys.readouterr().err


class TestSolveCommand:
    def test_known_value(self, capsys, doc_path):
        path = doc_path({**EX1, "y0": 4, "horizon": 3})
        assert main(["solve", "--input", path]) == 0
        out = capsys.readouterr().out
        assert "x[1]" in out and " 5" in out

    def test_json_values(self, capsys, doc_path):
        path = doc_path({**EX1, "y0": 4})
        assert main(["solve", "--input", path, "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["values"][:4] == [4, 5, 0, 4]
        assert report["lookahead"] == 0

    def test_constant_solution(self, capsys, doc_path):
        assert main(["solve", "--input", doc_path(EX2), "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["values"] == [1] * 8
        assert report["lookahead"] == 1

    def test_unsolvable(self, capsys, doc_path):
        assert main(["solve", "--input", doc_path(EX3_ODD)]) == 1
        assert "no solution" in capsys.readouterr().out

    def test_out_of_range_digit(self, capsys, doc_path):
        assert main(["solve", "--input", doc_path(EX4), "--alpha", "3"]) == 2
        assert main(["solve", "--input", doc_path(EX4), "--alpha", "0,1,2"]) == 0
        # a digit that the pinned start fixes is still checked when the caller gives one
        pinned = ["solve", "--input", doc_path(EX3_EVEN), "--y0", "5", "--horizon", "4"]
        assert main([*pinned, "--alpha", "99,1"]) == 2
        assert "lift digit 99 at index 0 not in [0, 2)" in capsys.readouterr().err
        assert main([*pinned, "--alpha", "0,99"]) == 2
        assert main([*pinned, "--alpha", "1,1"]) == 0
        capsys.readouterr()
        assert main(["solve", "--input", doc_path(EX4), "--alpha", "1,x"]) == 2
        assert "expected comma-separated integers, got '1,x'" in capsys.readouterr().err

    def test_d1_takes_only_zero_digits(self, capsys, doc_path):
        # lift_digit_bound is 1 when d == 1, so any other digit is refused as at d > 1
        path = doc_path(EX1)
        assert main(["solve", "--input", path, "--alpha", "1"]) == 2
        assert "lift digit 1 at index 0 not in [0, 1)" in capsys.readouterr().err
        assert main(["solve", "--input", path, "--format", "json"]) == 0
        plain = json.loads(capsys.readouterr().out)["values"]
        for alpha in ("0,0", ""):
            assert main(["solve", "--input", path, "--alpha", alpha, "--format", "json"]) == 0
            assert json.loads(capsys.readouterr().out)["values"] == plain
        assert main(["solve", "--input", path, "--alpha", ""]) == 0
        assert "alpha=-" in capsys.readouterr().out

    def test_out_of_range_x10(self, doc_path):
        assert main(["solve", "--input", doc_path(EX1), "--x10", "2"]) == 2


class TestEnumerateCommand:
    def test_two_rows(self, capsys, doc_path):
        assert main(["enumerate", "--input", doc_path(EX1), "--max", "10"]) == 0
        out = capsys.readouterr().out
        assert "2 of 2 distinct" in out
        assert "truncated" not in out

    def test_truncated_infinite_family(self, capsys, doc_path):
        assert main(["enumerate", "--input", doc_path(EX4), "--max", "5"]) == 0
        out = capsys.readouterr().out
        assert out.count("x10=") == 5
        assert "truncated: infinite family" in out

    def test_no_solutions(self, capsys, doc_path):
        assert main(["enumerate", "--input", doc_path(EX3_ODD), "--format", "json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["rows"] == []

    def test_rows_are_lexicographic(self, capsys, doc_path):
        assert main(["enumerate", "--input", doc_path(EX4), "--max", "12",
                     "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        keys = [(row["x10"], row["alpha"]) for row in report["rows"]]
        assert keys == sorted(keys)
        assert report["truncated"] is True
        assert report["window_rows"] == 4 * 3**7


class TestVerifyCommand:
    def test_pass(self, capsys, doc_path):
        assert main(["verify", "--input", doc_path(EX1), "--y0", "4",
                     "4", "5", "0", "4"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_forward_iteration_explicit(self, doc_path):
        # b = 2 invertible mod 5: iterate x[n+1] = 3*(3x + f) with 2*3 = 1
        path = doc_path({"m": 5, "a": 3, "b": 2, "f": [4, 1, 0], "f_period": 3})
        xs = [2]
        for n in range(5):
            f = [4, 1, 0][n % 3]
            xs.append((3 * (3 * xs[-1] + f)) % 5)
        assert main(["verify", "--input", path, *map(str, xs)]) == 0

    def test_fail_index(self, capsys, doc_path):
        assert main(["verify", "--input", doc_path(EX1), "4", "5", "1"]) == 1
        assert "FAIL at index 1" in capsys.readouterr().out

    def test_start_mismatch(self, capsys, doc_path):
        assert main(["verify", "--input", doc_path(EX1), "--y0", "3", "4", "5"]) == 1
        assert "index 0" in capsys.readouterr().out

    def test_too_short(self, doc_path):
        assert main(["verify", "--input", doc_path(EX1), "4"]) == 2

    def test_beyond_forcing_support(self, doc_path):
        path = doc_path({"m": 6, "a": 2, "b": 3, "f": [1, 2]})
        assert main(["verify", "--input", path, "4", "5", "0", "4"]) == 4


@pytest.mark.parametrize(
    "argv", [["solve", "--horizon", "6"], ["enumerate"], ["verify", "0", "1", "2", "3"]]
)
def test_null_ring_stops_at_the_support_as_verify_does(capsys, doc_path, argv):
    assert main([*argv, "--input", doc_path(NULL_RING)]) == 4
    captured = capsys.readouterr()
    assert captured.err == "error: forcing term at index 1 is beyond the provided support\n"
    assert captured.out == ""


@pytest.mark.parametrize("command", ["solve", "enumerate"])
def test_horizon_must_cover_the_lookahead(capsys, doc_path, command):
    # lookahead 3: horizon 2 is refused, and horizon 3 leaves a one-value window
    path = doc_path({"m": 48, "a": 1, "b": 2, "f": [5, 0, 7], "f_period": 2})
    assert main([command, "--input", path, "--horizon", "2", "--format", "json"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: horizon 2 is smaller than the lookahead 3\n"
    assert captured.out == ""
    assert main([command, "--input", path, "--horizon", "3", "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["last_index"] == 0
    if command == "solve":
        assert (report["lookahead"], report["values"]) == (3, [15])


@pytest.mark.parametrize(
    "doc, err",
    [
        ({"m": 2**32, "a": 1, "b": 2, "f": [1], "f_period": 1}, ""),
        ({"m": 2**32 + 1, "a": 1, "b": 2, "f": [1], "f_period": 1},
         "error: field 'm': modulus must be <= 4294967296, got 4294967297\n"),
        ({"m": 6, "a": 2, "b": 3, "f": [2**63 - 1, 1 - 2**63]}, ""),
        ({"m": 6, "a": 2, "b": 3, "f": [2**63]},
         "error: field 'f': magnitude of 9223372036854775808 exceeds the supported range\n"),
    ],
    ids=["m-at-cap", "m-past-cap", "f-at-cap", "f-past-cap"],
)
def test_document_bounds_hold_at_their_edges(capsys, doc_path, doc, err):
    code = main(["classify", "--input", doc_path(doc)])
    captured = capsys.readouterr()
    assert (code, captured.err) == (2 if err else 0, err)
    assert bool(captured.out) != bool(err)


class TestOracleCheckCommand:
    def test_agreement(self, capsys, doc_path):
        assert main(["oracle-check", "--input", doc_path(EX1), "--oracle-n", "5"]) == 0
        out = capsys.readouterr().out
        assert "theoretical count     2" in out
        assert "agreement             yes" in out

    def test_window_count_json(self, capsys, doc_path):
        assert main(["oracle-check", "--input", doc_path(EX3_EVEN), "--oracle-n", "5",
                     "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["truncation"] == 1
        assert report["expected"] == 2 * 2**4
        assert report["observed"] == report["expected"]

    def test_zero_equals_zero(self, capsys, doc_path):
        assert main(["oracle-check", "--input", doc_path(EX3_ODD), "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["expected"] == report["observed"] == 0

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_prefix_must_exceed_truncation(self, capsys, doc_path, fmt):
        path = doc_path({"m": 2500, "a": 3, "b": 10, "f": [7, 1], "f_period": 2})
        assert main(["oracle-check", "--input", path, "--oracle-n", "4", "--format", fmt]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: --oracle-n 4 must exceed the truncation depth 4\n"
        assert captured.out == ""
        assert main(["oracle-check", "--input", path, "--oracle-n", "5", "--format", fmt]) == 0

    def test_counts_without_listing_the_prefixes(self, capsys, doc_path):
        # a = b = 0 makes every x[n] free: 31**6 prefixes, but only 31 * 6 counting states
        path = doc_path({"m": 31, "a": 0, "b": 0, "f": [0], "f_period": 1})
        argv = ["oracle-check", "--input", path, "--oracle-n", "6", "--budget"]
        assert main(argv + ["186"]) == 0
        assert "agreement             yes\n" in capsys.readouterr().out
        assert main(argv + ["185"]) == 3

    def test_budget_exceeded(self, capsys, doc_path):
        assert main(["oracle-check", "--input", doc_path(EX1), "--budget", "2"]) == 3
        assert "budget" in capsys.readouterr().err

    @pytest.mark.parametrize("doc, horizon", [
        # 3 * 5 * 17 * 257 * 65537: 65,819 states per position, not 2**32 - 1
        ({"m": 2**32 - 1, "a": 5, "b": 3 * 17 * 257 * 7, "f": [1, 2, 3], "f_period": 3}, 5),
        # b = 2 is nilpotent of index 16 on 2**16, so the truncation is 16
        ({"m": 2**16 * 3**4 * 5**2 * 7, "a": 3, "b": 2, "f": [1, 2, 3], "f_period": 3}, 20),
    ], ids=["2^32-1", "2^16*3^4*5^2*7"])
    def test_smooth_moduli_near_the_bound_fit_the_default_budget(
        self, capsys, doc_path, doc, horizon
    ):
        argv = ["oracle-check", "--input", doc_path(doc), "--oracle-n", str(horizon)]
        t0 = time.perf_counter()
        assert main(argv) == 0
        elapsed = time.perf_counter() - t0
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert capsys.readouterr().out.count("agreement             yes\n") == 2
        assert elapsed < 1.0  # 0.05 s and 0.14 s on 2 cores
        assert peak < 32 * 2**20  # 7.4 MB: the tables are per prime power, none of size m


class TestSweepCommand:
    def test_smallest_ring(self, capsys):
        assert main(["sweep", "--m-max", "2", "--trials", "1", "--seed", "0"]) == 0
        assert "verdict: OK" in capsys.readouterr().out

    def test_small_sweep_json(self, capsys):
        assert main(["sweep", "--m-max", "4", "--trials", "2", "--seed", "3",
                     "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is True
        assert report["oracle"]["discrepancies"] == []
        assert report["uniqueness"]["cells"] == sum(m * m for m in range(2, 5))

    def test_m_max_limit(self, capsys, monkeypatch):
        # from m = 2**5 on, m = 32 with b = 2 has a truncation depth of 5, the prefix length
        monkeypatch.setattr("zmdiff.cli._audit_cell", lambda *args: pytest.fail("swept a cell"))
        assert main(["sweep", "--m-max", "32"]) == 2
        assert "--m-max must be below 2**5 = 32" in capsys.readouterr().err

    def test_budget_flag_is_gone(self, capsys, monkeypatch):
        # a sweep cell visits at most 155 oracle states, so there is no budget to set
        def no_sweep(*args, **kwargs):
            pytest.fail("started a sweep")

        for name in ("run_oracle_sweep", "run_uniqueness_sweep"):
            monkeypatch.setattr(f"zmdiff.cli.{name}", no_sweep)
        assert main(["sweep", "--budget", "5"]) == 2
        assert "unrecognized arguments: --budget 5" in capsys.readouterr().err


MALFORMED_WORK_FLAGS = [
    (["oracle-check", "--budget", "-1"], "--budget must be >= 1, got -1"),
    (["oracle-check", "--budget", "0"], "--budget must be >= 1, got 0"),
    (["sweep", "--trials", "0"], "--trials must be >= 1, got 0"),
    (["sweep", "--m-max", "1"], "--m-max must be >= 2, got 1"),
]


# ids from the argv, so that adding or removing a case renames no other
@pytest.mark.parametrize(
    "argv, message", MALFORMED_WORK_FLAGS, ids=[" ".join(argv) for argv, _ in MALFORMED_WORK_FLAGS]
)
def test_malformed_work_flags_are_usage_errors(capsys, monkeypatch, argv, message):
    def no_work(*args, **kwargs):
        pytest.fail("started work on a malformed flag")

    for name in ("structure", "run_oracle_sweep", "run_uniqueness_sweep"):
        monkeypatch.setattr(f"zmdiff.cli.{name}", no_work)
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(EX1)))
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def test_readme_synopsis_lists_each_commands_flags():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("### Commands", 1)[1].split("```")[1]
    documented = {line.split()[1]: set(re.findall(r"--[a-z0-9-]+", line))
                  for line in block.splitlines() if line.startswith("zmdiff ")}
    declared = {name: {row[0] for row in rows if row[0].startswith("--")} - {"--format"}
                for name, (_, _, rows) in COMMANDS.items()}
    assert documented == declared


NAMES = tuple(COMMANDS)
FLAGS = ("--format", "--input", "--y0", "--horizon", "--x10", "--alpha", "--max", "--budget",
         "--oracle-n", "--m-max", "--trials", "--seed", "-h", "--help", "--",
         "--format=json", "--input=x", "--hor", "--for", "--h", "--m", "-x")
VALUES = ("json", "text", "xml", "3", "-1", "0", "1,2", "1,,2", "abc", "1.5", "", "problem.json",
          "-1 2", " 4", "+5", "-0", "١٢", "12345678901234567890")
JUNK = ("solv", "help", "-", "---", "--nope", "junk", "--y0=4")
ARGVS = st.one_of(
    st.builds(lambda first, rest: [first, *rest],
              st.one_of(st.sampled_from(NAMES), st.sampled_from(FLAGS + VALUES + JUNK)),
              st.lists(st.sampled_from(NAMES + FLAGS + VALUES + JUNK), max_size=7)),
    st.randoms(use_true_random=False).map(command_line),  # well-formed, or one word off
)


@example(["verify", "1", "--y0", "3", "2"], False)
@example(["verify", "--y0", "3", "-5", "7", "--format", "json"], False)
@example(["verify", "--y0", "3"], False)
@example(["classify", "5"], False)
@example(["verify", "1", "-5_0"], False)  # int takes it, argparse reads an unknown flag
@example(["solve", "--input", "-x"], False)
@example(["solve", "--input", "-3", "--y0", "-0"], False)
@example(["solve", "--input", "-1 2"], False)
@example(["solve", "--format", "xml"], False)
@example(["solve", "--horizon"], False)
@example(["solve", "--alpha", "", "--x10", "١٢"], False)
@example(["solve", "--alpha", "1,,2"], False)
@given(ARGVS, st.booleans())
def test_dispatch_parses_as_the_top_level_parser_does(argv, from_sys_argv):
    # read off the command's declarations, or by argparse: the same namespace, or the same
    # exit code and bytes of help and usage error
    if from_sys_argv:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sys, "argv", ["zmdiff", *argv])
            assert parsed(_parse_args, None) == parsed(build_parser().parse_args, None)
    else:
        assert parsed(_parse_args, argv) == parsed(build_parser().parse_args, argv)


@pytest.mark.parametrize("argv", [[], ["-h"], ["--"], ["bogus"], ["solve", "--horizon", "3", "x"],
                                  ["verify", "1", "2", "--nope"], ["sweep", "-h"]])
def test_dispatch_keeps_the_usage_messages(argv):
    assert parsed(_parse_args, argv) == parsed(build_parser().parse_args, argv)
    assert parsed(_parse_args, argv)[0][0] == "exit"


def test_the_stdlib_only_fuzz_finds_no_difference(capsys):
    assert fuzz(2000, 1) == 0
    assert " 0 differences " in capsys.readouterr().out


def test_a_long_window_command_line_never_reaches_argparse(monkeypatch):
    # every argv of three rounds of the two CLI workloads is read off COMMANDS, as argparse
    # would read it
    argvs = [list(op.argv) for workload in ("long_window", "doc_commands") for r in range(3)
             for op in workloads.make_round(workload, 1, r)]
    expected = [vars(build_parser().parse_args(argv)) for argv in argvs]

    def refuse(*args, **kwargs):
        raise AssertionError("argparse parsed a well-formed command line")

    for name in ("parse_args", "parse_known_args"):
        monkeypatch.setattr(argparse.ArgumentParser, name, refuse)
    assert [vars(_parse_args(argv)) for argv in argvs] == expected
    args = _parse_args(["solve", "--format", "json", "--horizon", "360", "--y0", "5"])
    assert vars(args) == {"command": "solve", "handler": cmd_solve, "format": "json",
                          "input": None, "y0": 5, "horizon": 360, "x10": 0, "alpha": ()}


def test_the_cli_does_not_import_typing():
    code = "import zmdiff.cli, sys; print('typing' in sys.modules)"
    src = str(Path(__file__).parents[1] / "src")
    out = subprocess.run([sys.executable, "-S", "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True).stdout
    assert out == "False\n"


class TestMainPlumbing:
    def test_stdin_document(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(EX1)))
        assert main(["classify"]) == 0
        assert "finite" in capsys.readouterr().out

    def test_missing_file(self, capsys):
        assert main(["classify", "--input", "/nonexistent/problem.json"]) == 2

    def test_invalid_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["classify", "--input", str(path)]) == 2

    def test_deeply_nested_document_is_a_usage_error(self, capsys, monkeypatch):
        depth = 100_000
        monkeypatch.setattr("sys.stdin", io.StringIO("[" * depth + "]" * depth))
        assert main(["classify"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: field '<document>': invalid JSON")
        assert captured.err.count("\n") == 1

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no digit limit")
    def test_oversized_integer_literal_is_invalid_json(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO('{"m":' + "7" * 5000 + ',"a":1,"b":1,"f":[1]}'))
        assert main(["classify"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: field '<document>': invalid JSON: Exceeds the limit")
        assert captured.err.count("\n") == 1

    def test_duplicate_field_is_rejected_by_name(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO('{"m":6,"a":2,"b":3,"f":[1],"m":7}'))
        assert main(["classify"]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: field 'm': duplicate field\n")

    def test_the_first_field_seen_twice_is_named(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO('{"m":6,"b":3,"a":2,"b":4,"m":7,"f":[1]}'))
        assert main(["classify"]) == 2
        assert capsys.readouterr().err == "error: field 'b': duplicate field\n"

    def test_duplicate_inside_a_value_fails_on_the_field_that_holds_it(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO('{"m":6,"a":2,"b":3,"f":[{"x":1,"x":2}]}'))
        assert main(["classify"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: field 'f': expected an integer, got {'x': 2}\n"

    def test_unknown_command_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_broken_pipe_exits_quietly(self, capsys, monkeypatch):
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        for fmt in ("json", "text"):
            monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(EX1)))
            monkeypatch.setattr("sys.stdout", ClosedPipe())
            assert main(["solve", "--format", fmt]) == 141
            # later writes, such as the interpreter's final flush, go to devnull
            assert sys.stdout.name == os.devnull
            sys.stdout.close()
        assert capsys.readouterr().err == ""

    def test_y0_flag_overrides_document(self, capsys, doc_path):
        path = doc_path({**EX1, "y0": 2})
        assert main(["solve", "--input", path, "--y0", "4", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["values"][0] == 4

    def test_byte_determinism(self, capsys, doc_path):
        path = doc_path(EX4)
        argv = ["enumerate", "--input", path, "--max", "7", "--format", "json"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first


INTS = st.integers(-(2**64), 2**64)
STRINGS = st.text(st.sampled_from('a "\\/\b\f\n\r\t\x00\x1f\x7f\u00e9\u2028\ud800\U0001f600[]{},'))
SCALARS = (st.none() | st.booleans() | INTS | st.floats(allow_nan=False, allow_infinity=False)
           | STRINGS)
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: (st.lists(inner) | st.lists(inner).map(tuple)
                   | st.dictionaries(STRINGS, inner) | st.lists(INTS | st.booleans())
                   | st.builds(lambda head, tail: [head, *tail], SCALARS, st.lists(inner))),
    max_leaves=16,
)


@given(JSON_VALUES)
def test_json_emitter_writes_the_bytes_of_indented_dumps(value):
    # a list of scalars goes through the C encoder in one call; brackets in its output past
    # the first, from a string or from a container after a scalar head, send it item by item
    assert _json(value) == json.dumps(value, indent=2)


def test_sweep_engines_are_deterministic():
    a = run_oracle_sweep(4, 2, 9)
    b = run_oracle_sweep(4, 2, 9)
    assert a == b
    assert a["ok"] and a["cells"] == sum(m * m for m in range(2, 5)) * 2
    c = run_uniqueness_sweep(6, 2, 9)
    assert c["ok"] and c["cells"] == sum(m * m for m in range(2, 7))


@pytest.fixture
def built(monkeypatch):
    """One entry per Residue built, counted the way the benchmark's modring.residues_built is."""
    calls = []
    original = Residue.__post_init__

    def counted(self):
        calls.append(1)
        original(self)

    monkeypatch.setattr(Residue, "__post_init__", counted)
    return calls


def test_solve_builds_residues_independently_of_the_forcing_length_and_horizon(
    capsys, monkeypatch, built
):
    # forcing terms and solution values are ints
    counts = set()
    for f in ([1, 2, 0, 1], [1, 2, 0, 1] * 75):
        for horizon in (8, 2000):
            doc = {**EX1, "f": f, "horizon": horizon}
            monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
            built.clear()
            shape.cache_clear()  # each call derives its shape, as the first one would
            assert main(["solve", "--format", "json"]) == 0
            assert len(json.loads(capsys.readouterr().out)["values"]) == horizon + 1
            counts.add(len(built))
    assert len(counts) == 1


def test_solve_builds_no_residue_at_nilpotency_index_32(capsys, monkeypatch, built):
    # m = 2**32, b = 2: a cold shape finds the nilpotency index on ints, from an int b
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(BIG_IND32)))
    shape.cache_clear()
    assert main(["solve", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["lookahead"] == 31
    assert len(built) == 0  # 32 while the index multiplied Residues, 1 while b was one


# m = 12 * 357913931 (a prime), b = 6: a 32-bit modulus no other test uses, m2 = 12
FRESH32 = {"m": 4294967172, "a": 5, "b": 6, "f": [3, 1, 4], "f_period": 3}


@pytest.mark.parametrize("doc", [FRESH32, BIG_IND32], ids=["fresh32", "big_ind32"])
def test_no_command_factors_m(capsys, monkeypatch, doc):
    # the split takes gcds alone, so a cold shape needs no prime of m
    factored = []

    def refuse(n):
        factored.append(n)
        raise AssertionError(f"factored {n}")

    # modring's, and any copy a module bound with `from .modring import factorize`
    for name, module in list(sys.modules.items()):
        if name.startswith("zmdiff") and hasattr(module, "factorize"):
            monkeypatch.setattr(module, "factorize", refuse)
    shape.cache_clear()

    def run(*argv):
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
        rc = main([*argv, "--format", "json"])
        return rc, capsys.readouterr().out

    rc, out = run("solve", "--horizon", "40")
    assert rc == 0
    values = json.loads(out)["values"]
    assert run("classify", "--y0", str(values[0]))[0] == 0
    assert run("enumerate", "--max", "2")[0] == 0
    assert run("verify", *map(str, values))[0] == 0
    # one prime power of m (357913931, or 2**32) is past the default budget: exit 3
    assert run("oracle-check", "--oracle-n", "34")[0] == 3
    assert factored == []


def test_oracle_sweep_builds_no_residue_from_a_cold_shape_cache(built):
    # candidates reach verify_solution as ints, starts reach Structure as ints, and a cold
    # shape finds its nilpotency indices on ints
    shape.cache_clear()
    report = run_oracle_sweep(6, 1, 0)
    assert report["ok"] and report["cells"] == 90
    assert built == []  # 1,421 while candidates were Residues, under 3 per cell until b was an int


def test_warm_sweeps_build_no_residue(built):
    # with every shape cached, both sweeps ask Structure in ints: 318 to 321 Residues per
    # seed while pinned starts and forced start residues were Residues
    run_oracle_sweep(8, 1, 0)
    run_uniqueness_sweep(8, 1, 0)
    for seed in (1, 2):
        built.clear()
        assert run_oracle_sweep(8, 1, seed)["ok"] and run_uniqueness_sweep(8, 1, seed)["ok"]
        assert built == []


@pytest.mark.parametrize("command", ["classify", "solve"])
def test_warm_refusal_builds_no_residue(capsys, monkeypatch, built, command):
    # x[0] = 2 breaks EX1's start condition x[0] = 1 (mod 3); with the shape cached, the
    # refusal is told in ints: 2 Residues while its required/actual pair was Residues
    for _ in range(2):
        built.clear()
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(EX1)))
        assert main([command, "--y0", "2"]) == 1
    assert "1 (mod 3), got 2" in capsys.readouterr().out
    assert built == []


def test_oracle_sweep_classifies_each_pinned_start_once(monkeypatch):
    # the pinned verdict comes from solution(y0) alone, not from a separate classify_initial
    calls = []
    original = Structure.classify_initial

    def counted(self, y0):
        calls.append(1)
        return original(self, y0)

    monkeypatch.setattr(Structure, "classify_initial", counted)
    report = run_oracle_sweep(6, 1, 0)
    assert report["ok"]
    assert len(calls) == report["initial_checks"]  # 71; twice that while it was classified twice
