"""Every module of the package uses each name it imports, every private
module-level name is referenced somewhere in the package, every public
module-level function and class is exported or used elsewhere in the
package, only `model.py` names the head's private workspace, every
executor pool is opened by a `with` statement, and every public function
and class has a docstring (a dataclass's generated signature is not one).

`__init__.py` is left out of the import check: its imports are the public
re-exports.
"""
from __future__ import annotations

import ast
import inspect
from pathlib import Path

import pytest

import temcgl

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


def _private_definitions(tree: ast.Module) -> dict[str, ast.stmt]:
    """Module-level `_x` names (not dunders) -> the def, class or assignment binding them."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound = [node.name]
        elif isinstance(node, ast.Assign):
            bound = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            bound = [node.target.id]
        else:
            continue
        names.update((n, node) for n in bound if n.startswith("_") and n[1:2] != "_")
    return names


def _referenced(tree: ast.AST) -> set[str]:
    """Names loaded, read as an attribute or imported anywhere in `tree`."""
    refs = _used(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.alias):
            refs.add(node.name)
    return refs


def test_modules_are_found():
    assert len(MODULES) >= 5


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path: Path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    dead = {name: line for name, line in _imported(tree).items() if name not in used}
    assert not dead, f"{path.name} imports names it never uses: {dead}"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_private_names_are_referenced(path: Path):
    # A helper that a refactor leaves behind shows up here; a reference from
    # inside its own definition, such as a recursive call, does not count.
    trees = {p: ast.parse(p.read_text(), filename=str(p)) for p in SRC.glob("*.py")}
    statements = [(stmt, _referenced(stmt)) for tree in trees.values() for stmt in tree.body]
    orphans = {
        name: node.lineno
        for name, node in _private_definitions(trees[path]).items()
        if not any(name in refs for stmt, refs in statements if stmt is not node)
    }
    assert not orphans, f"{path.name} defines private names nothing references: {orphans}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_public_names_are_used_or_exported(path: Path):
    # A public function or class that only tests call is surface kept for
    # nothing. `__init__.py` is left out of the references: its imports
    # export a name only through `__all__`.
    trees = {p: ast.parse(p.read_text(), filename=str(p)) for p in MODULES}
    statements = [(stmt, _referenced(stmt)) for tree in trees.values() for stmt in tree.body]
    unused = {
        node.name: node.lineno
        for node in trees[path].body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in temcgl.__all__
        and not any(node.name in refs for stmt, refs in statements if stmt is not node)
    }
    assert not unused, f"{path.name} defines public names neither exported nor used: {unused}"


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


POOLS = ("ThreadPoolExecutor", "ProcessPoolExecutor")


def _unmanaged_pools(tree: ast.AST) -> list[int]:
    """Lines of pool constructions that are not the context expression of a
    `with` item, so nothing shuts the pool down when its caller returns."""
    managed = {
        id(item.context_expr)
        for node in ast.walk(tree)
        if isinstance(node, (ast.With, ast.AsyncWith))
        for item in node.items
    }
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (getattr(node.func, "id", None) or getattr(node.func, "attr", None)) in POOLS
        and id(node) not in managed
    )


def test_unmanaged_pools_are_found():
    source = (
        "with ThreadPoolExecutor(1) as pool, futures.ProcessPoolExecutor() as procs:\n"
        "    pass\n"
        "pool = ThreadPoolExecutor(2)\n"
        "with contextlib.ExitStack() as stack:\n"
        "    procs = stack.enter_context(futures.ProcessPoolExecutor())\n"
    )
    assert _unmanaged_pools(ast.parse(source)) == [3, 5]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_pools_are_opened_by_with(path: Path):
    # A pool left open keeps its threads or processes past the call that
    # made it, and an exception skips any shutdown written after it.
    tree = ast.parse(path.read_text(), filename=str(path))
    bare = _unmanaged_pools(tree)
    assert not bare, f"{path.name} opens executor pools outside a `with` on lines {bare}"


def _documented(obj) -> bool:
    # A dataclass without a docstring gets its generated signature,
    # `Name(field: type, ...)`, as `__doc__`; that does not count.
    doc = (obj.__doc__ or "").strip()
    return bool(doc) and not doc.startswith(f"{obj.__name__}(")


def test_public_names_have_docstrings():
    public = [getattr(temcgl, name) for name in temcgl.__all__]
    undocumented = [
        obj.__name__
        for obj in public
        if (inspect.isfunction(obj) or inspect.isclass(obj)) and not _documented(obj)
    ]
    assert not undocumented, f"public names without a docstring: {undocumented}"
