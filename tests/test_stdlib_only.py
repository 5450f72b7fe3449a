"""zmdiff is pure-stdlib: every import in src/zmdiff is relative or a standard-library module.

That the oracle imports nothing from the solver or crt, directly or through
another zmdiff module, is checked in test_oracle.py.
"""

import ast
import sys
from pathlib import Path

import zmdiff

SRC = Path(zmdiff.__file__).resolve().parent


def test_imports_are_relative_or_stdlib():
    imported = {}  # top-level package of each non-relative import -> the files importing it
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                tops = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                tops = [node.module.split(".")[0]]
            else:
                continue
            for top in tops:
                imported.setdefault(top, []).append(path.name)
    assert {"dataclasses", "math"} <= imported.keys()  # the walk sees the imports that are there
    assert {top: files for top, files in imported.items()
            if top not in sys.stdlib_module_names} == {}
