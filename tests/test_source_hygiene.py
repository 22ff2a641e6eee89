"""Static checks over the package sources, standing in for a linter.

Each ``src/beaconsim/*.py`` and ``tests/*.py`` file is parsed with ``ast``:
every top-level import must bind a name the module reads (or re-exports
through ``__all__``), every ``__all__`` entry of a package module must
resolve on the imported module, every private function, method or class
of the package must be named by some package source, and every attribute
that package code stores must be read by some package source.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "beaconsim"
SOURCES = sorted(SRC.glob("*.py"))
TEST_SOURCES = sorted(TESTS.glob("*.py"))


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


def test_every_stored_attribute_is_read() -> None:
    """An attribute that package code assigns, e.g. ``self._x = ...``, and no
    package source reads as ``._x`` is state kept for nothing."""
    stored: dict[str, str] = {}
    read: set[str] = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Attribute):
                if isinstance(node.ctx, ast.Store):
                    stored.setdefault(node.attr, f"{path.name}:{node.lineno}")
                elif isinstance(node.ctx, ast.Load):
                    read.add(node.attr)
    unread = [f"{where} {name}" for name, where in stored.items() if name not in read]
    assert unread == [], f"attributes stored but never read: {unread}"
