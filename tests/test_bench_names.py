"""The function names the benchmark's tracer reads must exist in zmdiff.

bench/run.py reads per-layer counts and times by name ("layer.qualname"),
and bench/spans.py groups some names together. A name that no longer
resolves makes `run.py --trace 1` fail at the end of a run, and several of
these functions (the closed forms kept as a reference) have no production
caller that would notice their removal.
"""

import functools
import importlib
import io
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))
import run  # noqa: E402
import spans  # noqa: E402

sys.path.remove(str(BENCH))

TRACED = sorted(
    (set(run.COUNTS.values()) | set(run.TIMES.values()) | set(spans.GROUPS) | set(spans.MEASURED))
    - set(spans.GROUPS.values())
)


@pytest.mark.parametrize("name", TRACED)
def test_traced_name_resolves(name):
    layer, qualname = name.split(".", 1)
    assert layer in spans.LAYERS
    module = importlib.import_module(f"zmdiff.{layer}")
    obj = functools.reduce(getattr, qualname.split("."), module)
    assert callable(obj)
    # the tracer wraps only what the layer's own module defines
    assert obj.__module__ == module.__name__


def _count_calls(monkeypatch, module, name: str) -> list[int]:
    """Wrap module.name the way the tracer does; the returned list's length is the call count."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_audit_cell_runs_once_per_sweep_cell(monkeypatch):
    # cli.audit_cell.ms is per-cell time only while every cell goes through _audit_cell
    cli = importlib.import_module("zmdiff.cli")
    calls = _count_calls(monkeypatch, cli, "_audit_cell")
    report = cli.run_oracle_sweep(4, 1, 0)
    assert len(calls) == report["cells"] == 2 * 2 + 3 * 3 + 4 * 4


def test_classify_parses_its_document_once(monkeypatch, capsys):
    # cli.parse_document.ms covers the whole validation only while one call does all of it
    cli = importlib.import_module("zmdiff.cli")
    calls = _count_calls(monkeypatch, cli, "parse_document")
    monkeypatch.setattr(sys, "stdin", io.StringIO('{"m": 6, "a": 2, "b": 3, "f": [1, 2, 0, 1]}'))
    assert cli.main(["classify"]) == 0
    assert len(calls) == 1
    assert "finite: exactly 2 solutions" in capsys.readouterr().out
