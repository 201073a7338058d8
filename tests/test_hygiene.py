"""Dead-code checks on the package, by the standard library's ``ast``.

Every name a module of ``planecover`` imports is used in it (the package
``__init__`` re-exports and is exempt), every function, class, method
and module-level constant the package defines is referenced somewhere in
``src/``, ``tests/`` or ``perfbench/`` as a name read, an attribute or an
import, and every parameter of a package function is read in its body.
No definition is test-only: each is referenced in ``src/`` outside the
package ``__init__`` or in ``perfbench/``, so exporting a name does not
count as a use, and a method, property or record field counts as used
only when it is read as an attribute there, outside its own definition.
A reference in the body of an ``if __name__ == "__main__":`` block is no
use: no command and no import runs it.
Test-only helpers live in ``tests/oracles.py``, the checkers of the
paper's structural lemmas in ``tests/lemmas.py`` and the fixture
constructors in ``tests/builders.py``; the one named
exception is the t rule ``bounds.interior_triangle_bound``, which the
chain is yet to read.
No module imports ``dataclasses``: its import and the code each
decoration generates cost start-up time on every CLI run.  And a failing
Hypothesis test under the repository's pytest settings is reported as a
failure, not as an error that ends the session.
"""

from __future__ import annotations

import ast
import subprocess
import sys
import textwrap
from collections import Counter
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


def _walk(tree: ast.AST):
    """Every node of ``tree`` that ``ast.walk`` gives, but none in the
    bodies of its ``if __name__ == "__main__":`` blocks."""
    todo = [tree]
    while todo:
        node = todo.pop()
        yield node
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'":
            todo += [node.test, *node.orelse]
        else:
            todo += ast.iter_child_nodes(node)


def _used_names(tree: ast.Module) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def _definitions(tree: ast.Module):
    """(qualified name, bare name) of module-level functions, classes and
    constants and of the methods of module-level classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name
        if isinstance(node, ast.Assign):
            targets = node.targets
        else:
            targets = [node.target] if isinstance(node, ast.AnnAssign) else []
        for target in targets:
            if isinstance(target, ast.Name) and not target.id.startswith("__"):
                yield target.id, target.id
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    yield f"{node.name}.{item.name}", item.name


def _references(tops=SCANNED, skip=None) -> set[str]:
    refs: set[str] = set()
    for top in tops:
        for path in top.rglob("*.py"):
            if path == skip:
                continue
            for node in _walk(_parse(path)):
                if isinstance(node, ast.Name):
                    if not isinstance(node.ctx, ast.Store):  # a name only assigned is dead
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


#: The one package definition that only tests read: the t rule of the
#: fold argument, which ROADMAP item 3 puts on the chain (``fold_verdict``
#: hard-codes t = 3 until then).
TEST_ONLY_EXCEPTIONS = {"bounds.interior_triangle_bound"}


def _members(tree: ast.Module):
    """(qualified name, bare name, definition) of the methods, properties
    and record fields of module-level classes."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    name = item.target.id
                elif isinstance(item, ast.FunctionDef):
                    name = item.name
                else:
                    continue
                if not name.startswith("__"):
                    yield f"{node.name}.{name}", name, item


def _attributes_read(tree: ast.AST) -> Counter:
    return Counter(
        node.attr
        for node in _walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    )


def test_no_test_only_code_in_the_package():
    # a definition that only tests/ references is test code and belongs in
    # tests/oracles.py, tests/lemmas.py or tests/builders.py; the package
    # __init__'s imports do not count as uses, so an export does not put a
    # name on the chain, and no more does a __main__ block.
    # A method, property or record field is used only when it is read as an
    # attribute outside its own definition: a local variable, a parameter
    # or a keyword argument of the same name is no use of it
    init = PACKAGE / "__init__.py"
    chain = (ROOT / "src", ROOT / "perfbench")
    refs = _references(chain, skip=init)
    reads = sum(
        (_attributes_read(_parse(p)) for top in chain for p in top.rglob("*.py") if p != init), Counter()
    )
    test_only = []
    for path in _modules():
        tree = _parse(path)
        members = list(_members(tree))
        unused = [qual for qual, name, item in members if reads[name] == _attributes_read(item)[name]]
        member_names = {qual for qual, _, _ in members}
        unused += [qual for qual, name in _definitions(tree) if qual not in member_names and name not in refs]
        test_only += [f"{path.stem}.{qual}" for qual in unused if f"{path.stem}.{qual}" not in TEST_ONLY_EXCEPTIONS]
    assert not test_only, test_only


def test_a_reference_in_a_main_block_is_no_use(tmp_path):
    (tmp_path / "m.py").write_text(textwrap.dedent(
        """
        def regen():
            return build.objects

        if __name__ == "__main__":
            regen()
            build.fixtures
        else:
            build.loaded
        """
    ))
    refs = _references((tmp_path,))
    assert {"objects", "loaded"} <= refs
    assert not {"regen", "fixtures"} & refs
    assert _attributes_read(_parse(tmp_path / "m.py")) == Counter(["objects", "loaded"])


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


def test_a_failing_property_test_is_reported_as_a_failure(tmp_path):
    # with every warning an error, Hypothesis's report hook once raised a
    # DeprecationWarning of its own, which ended the session with an
    # INTERNALERROR before the tests after the failing one ran
    (tmp_path / "test_property.py").write_text(textwrap.dedent(
        """
        from hypothesis import given, settings, strategies as st

        @settings(max_examples=5, database=None)
        @given(st.integers())
        def test_fails(x):
            assert x != x

        def test_after():
            pass
        """
    ))
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(ROOT / "pyproject.toml")]
    cmd += ["--rootdir", str(tmp_path), str(tmp_path)]
    run = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
    assert "FAILED" in run.stdout and "test_fails" in run.stdout
