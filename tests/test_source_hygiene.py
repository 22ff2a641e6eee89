"""Static checks over the package sources, standing in for a linter.

Each ``src/beaconsim/*.py`` and ``tests/*.py`` file is parsed with ``ast``:
every top-level import must bind a name the module reads (or re-exports
through ``__all__``), every ``__all__`` entry of a package module must
resolve on the imported module, every private function, method or class
of the package must be named by some package source, every attribute
that package code stores must be read by some package source, and every
public function, class or method of the package must be read by a package
module, a ``tools/`` script or a non-test ``perfbench/`` module, only
``graph.py`` may import scipy's graph searches, only ``protocol._Table``
reads the routing table's columns or writes them (in the tests, only the
two key helpers read its key width), and ``cli.py`` imports no ``csv``.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
SRC = ROOT / "src" / "beaconsim"
SOURCES = sorted(SRC.glob("*.py"))
TEST_SOURCES = sorted(TESTS.glob("*.py"))
# the callers outside the package: tool scripts and the benchmark's modules
DRIVER_SOURCES = sorted(ROOT.glob("tools/*.py")) + [
    path for path in sorted(ROOT.glob("perfbench/*.py")) if not path.name.startswith("test_")
]


def _module_name(path: Path) -> str:
    return "beaconsim" if path.stem == "__init__" else f"beaconsim.{path.stem}"


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Names bound by top-level imports, with their line numbers."""
    bound: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def _annotation_strings(tree: ast.Module):
    """String annotations, e.g. ``-> "ConnectivityGraph"``, parsed as code."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for annotation in annotations:
        for sub in ast.walk(annotation) if annotation is not None else ():
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                yield ast.parse(sub.value, mode="eval")


def _declared_all(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return list(ast.literal_eval(node.value))
    return []


def _read_names(tree: ast.Module) -> set[str]:
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for parsed in _annotation_strings(tree):
        read |= {node.id for node in ast.walk(parsed) if isinstance(node, ast.Name)}
    return read | set(_declared_all(tree))


@pytest.mark.parametrize("path", SOURCES + TEST_SOURCES, ids=lambda p: p.name)
def test_every_top_level_import_is_used(path: Path) -> None:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    read = _read_names(tree)
    unused = [
        f"{path.name}:{line} {name}"
        for name, line in _imported_names(tree).items()
        if name not in read
    ]
    assert unused == [], f"unused imports: {unused}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_all_entry_resolves(path: Path) -> None:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    module = importlib.import_module(_module_name(path))
    missing = [name for name in _declared_all(tree) if not hasattr(module, name)]
    assert missing == [], f"{path.name} __all__ names that do not resolve: {missing}"


def _private_definitions(tree: ast.Module):
    """Private (single leading underscore, not dunder) functions, methods and
    classes, with their line numbers."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = node.name
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                yield name, node.lineno


def _referenced_names(tree: ast.Module) -> set[str]:
    """Names read as variables or as attributes, e.g. ``self._walk``."""
    attrs = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    return _read_names(tree) | attrs


def test_every_private_definition_is_referenced() -> None:
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path)) for path in SOURCES}
    referenced = set().union(*(_referenced_names(tree) for tree in trees.values()))
    unreferenced = [
        f"{path.name}:{line} {name}"
        for path, tree in trees.items()
        for name, line in _private_definitions(tree)
        if name not in referenced
    ]
    assert unreferenced == [], f"private definitions no source references: {unreferenced}"


def _writes_into_self_attributes(tree: ast.Module) -> set[ast.Attribute]:
    """``self._x`` nodes that only write into the object they name: the
    container of a subscript store or delete (``self._x[k] = v``,
    ``del self._x[k]``) and the receiver of ``self._x.clear()``."""
    writes = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
            target = node.value
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "clear"
        ):
            target = node.func.value
        else:
            continue
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            writes.add(target)
    return writes


def test_every_stored_attribute_is_read() -> None:
    """An attribute that package code assigns, e.g. ``self._x = ...``, or
    writes into, e.g. ``self._x[k] = v``, ``del self._x[k]`` or
    ``self._x.clear()``, and no package source reads as ``._x`` otherwise
    is state kept for nothing."""
    stored: dict[str, str] = {}
    read: set[str] = set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        writes = _writes_into_self_attributes(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                if isinstance(node.ctx, ast.Store) or node in writes:
                    stored.setdefault(node.attr, f"{path.name}:{node.lineno}")
                elif isinstance(node.ctx, ast.Load):
                    read.add(node.attr)
    unread = [f"{where} {name}" for name, where in stored.items() if name not in read]
    assert unread == [], f"attributes stored but never read: {unread}"


# Public names with no reader outside tests that stay on purpose, each with
# its reason.
UNREAD_PUBLIC_EXEMPT = {
    "ConnectivityGraph.from_edges": "the input-checking constructor for hand-built graphs",
    "ProtocolParams.mu": "the probe-overhead factor, kept until a check reads it or it goes",
}


def _public_definitions(tree: ast.Module):
    """Public top-level functions and classes, and the public methods of
    top-level classes, as (qualified name, name, line number)."""
    definitions = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, definitions) or node.name.startswith("_"):
            continue
        yield node.name, node.name, node.lineno
        if isinstance(node, ast.ClassDef):
            for method in node.body:
                if isinstance(method, definitions) and not method.name.startswith("_"):
                    yield f"{node.name}.{method.name}", method.name, method.lineno


def test_every_public_definition_has_a_reader_outside_tests() -> None:
    """A public function, class or method that no package module (other than
    the re-exporting ``__init__.py``), tool script or benchmark module reads,
    as a name or an attribute, is API that only tests reach: it gets wired
    into a caller or deleted. An exemption that has found a reader, or whose
    definition is gone, is dropped from the list. A read matches by bare
    name, so a definition also passes when only another object's attribute
    of the same name is read."""
    read: set[str] = set()
    for path in [path for path in SOURCES if path.name != "__init__.py"] + DRIVER_SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
                read.add(node.id if isinstance(node, ast.Name) else node.attr)
    unread = {
        qualified: f"{path.name}:{line}"
        for path in SOURCES
        for qualified, name, line in _public_definitions(
            ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        )
        if name not in read
    }
    flagged = [f"{where} {name}" for name, where in unread.items() if name not in UNREAD_PUBLIC_EXEMPT]
    assert flagged == [], f"public definitions only tests read: {flagged}"
    stale = sorted(set(UNREAD_PUBLIC_EXEMPT) - set(unread))
    assert stale == [], f"exemptions with a reader or no definition: {stale}"


def _csgraph_imports(tree: ast.Module) -> list[int]:
    """Lines that import from ``scipy.sparse.csgraph``, in any form."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            modules = [module] + [f"{module}.{alias.name}" for alias in node.names]
        else:
            continue
        if any(m == "scipy.sparse.csgraph" or m.startswith("scipy.sparse.csgraph.") for m in modules):
            lines.append(node.lineno)
    return lines


def test_only_the_graph_module_imports_scipy_graph_searches() -> None:
    """How a hop search runs (scipy's unweighted search, the hop limit, the
    sources per call) is decided in ``graph.py`` alone: every other package
    module searches through it."""
    found = [
        f"{path.name}:{line}"
        for path in SOURCES
        if path.name != "graph.py"
        for line in _csgraph_imports(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
    ]
    assert found == [], f"scipy.sparse.csgraph imported outside graph.py: {found}"


def test_table_layout_and_csv_format_each_have_one_home() -> None:
    """How the routing table packs its entries (its columns and key layout)
    is known to ``_Table`` alone, so no other code in ``protocol.py`` reads
    a column or the key width; how a round's write is applied is known
    there too, so other code hands the table a ``write`` and never asks the
    table (``self._table`` or a name bound to it) to ``merge``, ``clear``,
    ``_set`` or ``_settle``, or touches its ``_pending``; in the tests, the
    key layout is read by ``decode_keys`` and ``encode_keys`` alone, so no
    other test code reads a table's ``.width``; and the byte-stable CSV
    format is the harness's, so ``cli.py`` imports no ``csv``, in any
    form."""
    tree = ast.parse((SRC / "protocol.py").read_text(encoding="utf-8"))
    table = next(node for node in tree.body if getattr(node, "name", None) == "_Table")
    inside = set(ast.walk(table))
    aliases = {
        target.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        and isinstance(node.value, ast.Attribute)
        and node.value.attr == "_table"
        for target in node.targets
        if isinstance(target, ast.Name)
    }

    def is_table(node: ast.expr) -> bool:
        return (isinstance(node, ast.Attribute) and node.attr == "_table") or (
            isinstance(node, ast.Name) and node.id in aliases
        )

    outside = [
        f"protocol.py:{node.lineno} .{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node not in inside
        and (
            node.attr in {"key", "dist", "hop", "stamp", "width"}
            or node.attr in {"merge", "clear", "_set", "_settle", "_pending"}
            and is_table(node.value)
        )
    ]
    for path in TEST_SOURCES:
        test_tree = ast.parse(path.read_text(encoding="utf-8"))
        helpers = {
            part
            for node in test_tree.body
            if isinstance(node, ast.FunctionDef) and node.name in {"decode_keys", "encode_keys"}
            for part in ast.walk(node)
        }
        outside += [
            f"{path.name}:{node.lineno} .width"
            for node in ast.walk(test_tree)
            if isinstance(node, ast.Attribute) and node.attr == "width" and node not in helpers
        ]
    imports = []
    for node in ast.walk(ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imports += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imports.append((node.lineno, node.module or ""))
    found = outside + [f"cli.py:{line} csv" for line, module in imports if module == "csv"]
    assert found == [], (
        f"table columns read or written outside _Table, key width read outside the test "
        f"helpers, or csv in cli.py: {found}"
    )
