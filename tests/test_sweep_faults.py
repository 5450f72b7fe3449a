"""Every check of the sweeps reports its fault.

The sweeps agree with the oracle on working code, so their fault paths run
only when a fault is injected: one per discrepancy kind, patched into the
names the CLI calls. Each kind must appear among the discrepancies, clear
`ok`, and make `zmdiff sweep` exit 1 with a `discrepancy:` line naming it.
"""

import json
import random
from collections import Counter

import pytest

from zmdiff import cli
from zmdiff.problem import ProblemSpec, SequenceSpec
from zmdiff.solver import Classification, InitialClassification, Structure

SWEEP = ["sweep", "--m-max", "4", "--trials", "1", "--seed", "0"]


def _wrap(monkeypatch, owner, name, make):
    """Replace owner.name by make(original)."""
    monkeypatch.setattr(owner, name, make(getattr(owner, name)))


def count(monkeypatch):
    def make(orig):
        def count_prefixes(*args, **kwargs):
            observed, starts = orig(*args, **kwargs)
            return observed + 1, starts
        return count_prefixes
    _wrap(monkeypatch, cli, "count_prefixes", make)


def missing_refusal(monkeypatch):
    def make(orig):
        def solution(self, y0=None):
            try:
                return orig(self, y0)
            except ValueError:
                return None
        return solution
    _wrap(monkeypatch, Structure, "solution", make)


def sequence(monkeypatch):
    _wrap(monkeypatch, cli, "verify_solution", lambda orig: lambda spec, seq, y0=None: (
        (False, 0) if y0 is None else orig(spec, seq, y0)))


def initial_classify(monkeypatch):
    monkeypatch.setattr(Structure, "classify_initial", lambda self, y0: InitialClassification(
        "none", reason="divisibility", witness_index=0))


def initial_sequence(monkeypatch):
    _wrap(monkeypatch, cli, "verify_solution", lambda orig: lambda spec, seq, y0=None: (
        orig(spec, seq) if y0 is None else (False, 0)))


def compat(monkeypatch):
    forced = Structure.__dict__["compatibility"].func
    monkeypatch.setattr(Structure, "compatibility", property(
        lambda self: r if (r := forced(self)) is None else (r + 1) % self.shape.psplit.m2))


# the uniqueness sweep classifies zero forcing, period 1, then random aperiodic forcing
def equivalence(monkeypatch):
    _wrap(monkeypatch, Structure, "classify", lambda orig: lambda self: (
        Classification("finite", count=1) if self.spec.forcing.period else orig(self)))


def homogeneous_nonzero(monkeypatch):
    _wrap(monkeypatch, cli.GeneralSolution, "values", lambda orig: lambda self, *args: (
        [1] * args[0] if self._structure.spec.forcing.period else orig(self, *args)))


def forced_unique(monkeypatch):
    _wrap(monkeypatch, Structure, "classify", lambda orig: lambda self: (
        orig(self) if self.spec.forcing.period else Classification("none", witness_index=0)))


ORACLE_FAULTS = [count, missing_refusal, sequence, initial_classify, initial_sequence, compat]
UNIQUENESS_FAULTS = [equivalence, homogeneous_nonzero, forced_unique]


def _assert_sweep_reports(capsys, argv, kind):
    assert cli.main(argv) == 1
    assert cli.main([*argv, "--format", "json"]) == 1
    text, report = capsys.readouterr().out.split("verdict: FAILED\n")
    assert f"discrepancy: {{'kind': '{kind}'" in text
    assert report and json.loads(report)["ok"] is False


def test_start_condition_is_audited_at_d_above_1(monkeypatch):
    # the sweep's uniform draws rarely give a solvable d > 1 cell, so one is audited here
    forced = Structure.__dict__["compatibility"].func
    monkeypatch.setattr(Structure, "compatibility", property(
        lambda self: r if (r := forced(self)) is None or self.shape.d == 1
        else (r + 1) % self.shape.psplit.m2))
    spec = ProblemSpec(12, 2, 6, SequenceSpec.from_ints([2, 4, 0, 2, 4], 12))
    out = []
    cli._audit_cell(spec, random.Random(0), Counter(), out)
    assert "compat" in {disc["kind"] for disc in out}


@pytest.mark.parametrize("fault", ORACLE_FAULTS, ids=lambda fault: fault.__name__)
def test_oracle_sweep_fault_is_reported(capsys, monkeypatch, fault):
    fault(monkeypatch)
    report = cli.run_oracle_sweep(4, 1, 0)
    assert not report["ok"]
    assert fault.__name__ in {disc["kind"] for disc in report["discrepancies"]}
    _assert_sweep_reports(capsys, SWEEP, fault.__name__)


@pytest.mark.parametrize("fault", UNIQUENESS_FAULTS, ids=lambda fault: fault.__name__)
def test_uniqueness_sweep_fault_is_reported(capsys, monkeypatch, fault):
    fault(monkeypatch)
    assert cli.run_oracle_sweep(4, 1, 0)["ok"]  # the fault reaches this sweep only
    report = cli.run_uniqueness_sweep(4, 1, 0)
    assert not report["ok"]
    assert fault.__name__ in {disc["kind"] for disc in report["discrepancies"]}
    _assert_sweep_reports(capsys, SWEEP, fault.__name__)
