"""AST scans of the groundedqa, test and demo modules.

Every name a module imports is used in it: a name bound by ``import`` or
``from ... import`` must appear as a name (or the root of an attribute chain)
somewhere else in the module, string annotations included. ``__init__.py`` is
exempt, since its imports are the package's re-exports.

Only ``llm.py`` talks to a backend: no other groundedqa module calls
``.complete(`` or builds an ``LlmRequest``, so every exchange goes through
``llm.ask`` and its parse-failure policy.

Only ``trace.py`` closes a trace: no other groundedqa module assigns an
``answer`` or ``audit`` attribute or records a ``FinalAnswer`` step, so every
trace ends through ``ReasoningTrace.finish``.

Only ``HashedEmbedder._stored`` writes the embedder's store: no other
function of ``retrieval.py`` reads a ``_lock`` attribute or calls ``.fill(``,
so every store is created and filled in one place, under one lock.
``__init__`` may create the lock.

Only ``KnowledgeGraph._head_ids`` writes the KG's hub cache: no other
function of a groundedqa module touches a ``_head_arrays`` attribute, so
every cached array is built, made read-only and kept in one place.
``KnowledgeGraph.__init__`` and ``extended`` may each start an empty cache.
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
            except (SyntaxError, ValueError):  # a lone surrogate cannot be encoded to parse
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


def test_scan_reads_a_module_holding_a_lone_surrogate():
    tree = ast.parse('import os\nx = "\\ud800" + os.sep\n')
    assert "os" in _used(tree)


def _exchanges(tree: ast.Module) -> list[int]:
    """Lines of every ``.complete(...)`` call and ``LlmRequest(...)`` construction."""
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name == "LlmRequest" or (name == "complete" and isinstance(func, ast.Attribute)):
            lines.append(node.lineno)
    return sorted(lines)


PACKAGE = sorted(p for p in ROOT.glob("src/groundedqa/*.py") if p.name != "llm.py")


@pytest.mark.parametrize("path", PACKAGE, ids=[p.name for p in PACKAGE])
def test_only_llm_module_calls_a_backend(path):
    lines = _exchanges(ast.parse(path.read_text(encoding="utf-8")))
    assert not lines, f"{path.name}: backend exchange outside llm.ask on lines {lines}"


def test_scan_flags_a_direct_exchange():
    tree = ast.parse(
        "r = backend.complete(LlmRequest('judge', p))\n"
        "q = llm.LlmRequest(role='mei', rendered_prompt=p)\n"
        "complete(x)\n"
    )
    assert _exchanges(tree) == [1, 1, 2]


def _trace_closes(tree: ast.Module) -> list[int]:
    """Lines that assign an ``answer`` or ``audit`` attribute or record ``FinalAnswer``."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Attribute) and t.attr in ("answer", "audit")
                   for target in targets for t in ast.walk(target)):
                lines.append(node.lineno)
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            kinds = node.args[:1] + [k.value for k in node.keywords if k.arg == "kind"]
            if name == "record" and any(
                isinstance(k, ast.Constant) and k.value == "FinalAnswer" for k in kinds
            ):
                lines.append(node.lineno)
    return sorted(lines)


NOT_TRACE = sorted(p for p in ROOT.glob("src/groundedqa/*.py") if p.name != "trace.py")


@pytest.mark.parametrize("path", NOT_TRACE, ids=[p.name for p in NOT_TRACE])
def test_only_trace_module_closes_a_trace(path):
    lines = _trace_closes(ast.parse(path.read_text(encoding="utf-8")))
    assert not lines, f"{path.name}: trace closed outside ReasoningTrace.finish on lines {lines}"


def test_scan_flags_a_hand_written_close():
    tree = ast.parse(
        "trace.answer = {'value': v}\n"
        "trace.record('FinalAnswer', payload)\n"
        "self.audit, n = audit.counters(), 0\n"
        "record(kind='FinalAnswer', payload=p)\n"
        "answer = Answer(value=v)\n"
        "trace.record('Evaluation', {'value': v})\n"
        "trace.finish(payload, audit)\n"
    )
    assert _trace_closes(tree) == [1, 2, 3, 4]


def _walk_qualified(tree: ast.Module):
    """(qualified name of the enclosing class or function, node) for every node."""

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            name = owner
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{owner}.{child.name}" if owner else child.name
            yield name, child
            yield from visit(child, name)

    return visit(tree, "")


def _store_writes(tree: ast.Module) -> list[tuple[str, int]]:
    """(qualified function name, line) of every ``_lock`` use and ``.fill(`` call.

    A ``_lock`` assignment in an ``__init__`` creates the lock and is not listed.
    """
    found = []
    for name, node in _walk_qualified(tree):
        if isinstance(node, ast.Attribute) and node.attr == "_lock":
            if not (isinstance(node.ctx, ast.Store) and name.endswith(".__init__")):
                found.append((name, node.lineno))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "fill"):
            found.append((name, node.lineno))
    return found


def test_only_stored_writes_the_embedder_store():
    path = ROOT / "src/groundedqa/retrieval.py"
    writes = _store_writes(ast.parse(path.read_text(encoding="utf-8")))
    assert writes, "the scan found no store write at all"
    outside = [(name, line) for name, line in writes if name != "HashedEmbedder._stored"]
    assert not outside, f"retrieval.py: store written outside HashedEmbedder._stored at {outside}"


def test_scan_flags_a_store_write_outside_stored():
    tree = ast.parse(
        "class E:\n"
        "    def __init__(self):\n"
        "        self._lock = Lock()\n"
        "    def embed_triples(self, kg, ids):\n"
        "        with self._lock:\n"
        "            store.fill(kg, ids)\n"
        "    def _stored(self, kg, ids):\n"
        "        with self._lock:\n"
        "            store.fill(kg, ids)\n"
        "def swap(e):\n"
        "    e._lock = None\n"
    )
    assert _store_writes(tree) == [
        ("E.embed_triples", 5), ("E.embed_triples", 6),
        ("E._stored", 8), ("E._stored", 9), ("swap", 11),
    ]


_HUB_CACHE_STARTS = {"KnowledgeGraph.__init__", "KnowledgeGraph.extended"}


def _hub_cache_uses(tree: ast.Module) -> list[tuple[str, int]]:
    """(qualified function name, line) of every ``_head_arrays`` use outside ``_head_ids``.

    Assigning an empty dict literal in ``KnowledgeGraph.__init__`` or
    ``extended`` starts a cache and is not listed.
    """
    starts = {
        id(node.targets[0] if isinstance(node, ast.Assign) else node.target)
        for name, node in _walk_qualified(tree)
        if name in _HUB_CACHE_STARTS and isinstance(node, (ast.Assign, ast.AnnAssign))
        and isinstance(node.value, ast.Dict) and not node.value.keys
    }
    return [
        (name, node.lineno) for name, node in _walk_qualified(tree)
        if isinstance(node, ast.Attribute) and node.attr == "_head_arrays"
        and name != "KnowledgeGraph._head_ids" and id(node) not in starts
    ]


SOURCES = sorted(ROOT.glob("src/groundedqa/*.py"))


def test_only_head_ids_writes_the_hub_cache():
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in SOURCES}
    accessor = [
        node for name, node in _walk_qualified(trees["kg.py"])
        if name == "KnowledgeGraph._head_ids"
        and isinstance(node, ast.Attribute) and node.attr == "_head_arrays"
    ]
    assert accessor, "the scan found no use of the hub cache in KnowledgeGraph._head_ids"
    outside = {name: uses for name, tree in trees.items() if (uses := _hub_cache_uses(tree))}
    assert not outside, f"hub cache used outside KnowledgeGraph._head_ids: {outside}"


def test_scan_flags_a_hub_cache_write_outside_head_ids():
    tree = ast.parse(
        "class KnowledgeGraph:\n"
        "    def __init__(self):\n"
        "        self._head_arrays: dict = {}\n"
        "    def extended(self):\n"
        "        grown._head_arrays = {}\n"
        "        grown._head_arrays = self._head_arrays\n"
        "    def _head_ids(self, head):\n"
        "        return self._head_arrays.setdefault(head, ids)\n"
        "    def one_hop_subgraph(self, anchors):\n"
        "        self._head_arrays[anchors[0]] = ids\n"
        "def warm(kg):\n"
        "    kg._head_arrays.update(arrays)\n"
    )
    assert _hub_cache_uses(tree) == [
        ("KnowledgeGraph.extended", 6), ("KnowledgeGraph.extended", 6),
        ("KnowledgeGraph.one_hop_subgraph", 10), ("warm", 12),
    ]
