"""Every name a groundedqa, test or demo module imports is used in that module.

An AST scan: a name bound by ``import`` or ``from ... import`` must appear as
a name (or the root of an attribute chain) somewhere else in the module,
string annotations included. ``__init__.py`` is exempt, since its imports are
the package's re-exports.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(
    p for pattern in ("src/groundedqa/*.py", "tests/*.py", "demos/*.py")
    for p in ROOT.glob(pattern) if p.name != "__init__.py"
)


def _imported(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of every import (``from __future__`` excluded)."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _used(tree: ast.Module) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:  # a string annotation such as "Optional[KnowledgeGraph]"
                inner = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(inner) if isinstance(n, ast.Name))
    return used


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used(tree)
    unused = {name: line for name, line in _imported(tree).items() if name not in used}
    assert not unused, f"{path.name}: unused imports {unused}"


def test_scan_flags_an_unused_import():
    tree = ast.parse("import os\nfrom typing import Optional, List\nx: 'List[int]' = os.sep\n")
    used = _used(tree)
    assert [n for n in _imported(tree) if n not in used] == ["Optional"]
