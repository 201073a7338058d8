"""Dead-code checks on the package, by the standard library's ``ast``.

Every name a module of ``planecover`` imports is used in it (the package
``__init__`` re-exports and is exempt), every function, class and method
the package defines is referenced somewhere in ``src/``, ``tests/`` or
``perfbench/`` as a name, an attribute or an import, and every parameter
of a package function is read in its body.  No module imports
``dataclasses``: its import and the code each decoration generates cost
start-up time on every CLI run.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "planecover"
SCANNED = (ROOT / "src", ROOT / "tests", ROOT / "perfbench")


def _modules():
    return sorted(PACKAGE.glob("*.py"))


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _imported_names(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                yield alias.asname or alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]


def _used_names(tree: ast.Module) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def _definitions(tree: ast.Module):
    """(qualified name, bare name) of module-level functions and classes
    and of the methods of module-level classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    yield f"{node.name}.{item.name}", item.name


def _references() -> set[str]:
    refs: set[str] = set()
    for top in SCANNED:
        for path in top.rglob("*.py"):
            for node in ast.walk(_parse(path)):
                if isinstance(node, ast.Name):
                    refs.add(node.id)
                elif isinstance(node, ast.Attribute):
                    refs.add(node.attr)
                elif isinstance(node, (ast.Import, ast.ImportFrom)):
                    refs.update(alias.name.split(".")[-1] for alias in node.names)
    return refs


def test_no_unused_imports():
    unused = []
    for path in _modules():
        if path.name == "__init__.py":
            continue
        tree = _parse(path)
        used = _used_names(tree)
        unused += [f"{path.name}: {name}" for name in _imported_names(tree) if name not in used]
    assert not unused, unused


def test_every_definition_is_referenced():
    refs = _references()
    dead = [
        f"{path.name}: {qual}"
        for path in _modules()
        for qual, name in _definitions(_parse(path))
        if name not in refs
    ]
    assert not dead, dead


def test_every_parameter_is_read():
    unread = []
    for path in _modules():
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.FunctionDef):
                a = node.args
                params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
                params += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
                used = _used_names(node)
                unread += [
                    f"{path.name}: {node.name}({p})"
                    for p in params
                    if p not in used and p not in ("self", "cls")
                ]
    assert not unread, unread


def test_no_module_imports_dataclasses():
    found = []
    for path in _modules():
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m.split(".")[0] == "dataclasses" for m in modules):
                found.append(f"{path.name}: line {node.lineno}")
    assert not found, found
