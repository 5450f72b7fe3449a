"""The function names the benchmark's tracer reads must exist in zmdiff.

bench/run.py reads per-layer counts and times by name ("layer.qualname"),
and bench/spans.py groups some names together. A name that no longer
resolves makes `run.py --trace 1` fail at the end of a run, and several of
these functions (the closed forms kept as a reference) have no production
caller that would notice their removal.
"""

import functools
import importlib
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
