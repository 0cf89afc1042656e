"""Every module of the package uses each name it imports, and only
`model.py` names the head's private workspace.

`__init__.py` is left out of the import check: its imports are the public
re-exports.
"""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "temcgl"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of every import in the module."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _used(tree: ast.AST) -> set[str]:
    """Names loaded anywhere, including inside quoted annotations."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotations = []
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used |= _used(ast.parse(ann.value, mode="eval"))
    return used


def test_modules_are_found():
    assert len(MODULES) >= 5


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path: Path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    dead = {name: line for name, line in _imported(tree).items() if name not in used}
    assert not dead, f"{path.name} imports names it never uses: {dead}"


@pytest.mark.parametrize(
    "path", [p for p in sorted(SRC.glob("*.py")) if p.name != "model.py"], ids=lambda p: p.name
)
def test_only_model_names_the_workspace(path: Path):
    # A workspace is bound to its batch only while `model.py` alone builds
    # and passes one.
    tree = ast.parse(path.read_text(), filename=str(path))
    named = {
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id == "_Workspace")
        or (isinstance(node, ast.Attribute) and node.attr == "_Workspace")
        or (isinstance(node, ast.alias) and "_Workspace" in (node.name, node.asname))
    }
    assert not named, f"{path.name} names _Workspace on lines {sorted(named)}"
