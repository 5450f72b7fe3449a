"""Every public function and class in the package has a reason to exist.

A public module-level name must be used somewhere in src/zmdiff outside its
own definition, be part of the documented API (zmdiff.__all__), be a name
the benchmark traces, or be listed in ALLOWED with its reason. Code that
only tests call is a second implementation or a dead helper.
"""

import ast
from pathlib import Path

import pytest
from test_bench_names import TRACED

import zmdiff

SRC = Path(zmdiff.__file__).resolve().parent
MODULES = ("modring", "crt", "problem", "solver", "oracle", "cli")

ALLOWED = {
    "crt.project": "acceptance criterion 7 checks that combine inverts it",
}


def _names_used(node: ast.AST, skip: ast.AST) -> set[str]:
    """Names, attribute names and imported names under node, outside the subtree skip."""
    if node is skip:
        return set()
    used = set()
    if isinstance(node, ast.Name):
        used.add(node.id)
    elif isinstance(node, ast.Attribute):
        used.add(node.attr)
    elif isinstance(node, ast.alias):
        used.add(node.name)
    for child in ast.iter_child_nodes(node):
        used |= _names_used(child, skip)
    return used


TREES = {path.stem: ast.parse(path.read_text()) for path in SRC.glob("*.py")}
PUBLIC = [
    (module, node)
    for module in MODULES
    for node in TREES[module].body
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
]
TRACED_TOP = {".".join(name.split(".")[:2]) for name in TRACED}


@pytest.mark.parametrize("module, node", PUBLIC, ids=lambda v: getattr(v, "name", v))
def test_public_name_has_a_caller(module, node):
    qualified = f"{module}.{node.name}"
    if node.name in zmdiff.__all__ or qualified in TRACED_TOP or qualified in ALLOWED:
        return
    used = set().union(*(_names_used(tree, node) for tree in TREES.values()))
    assert node.name in used, f"{qualified} has no caller in src/zmdiff"
