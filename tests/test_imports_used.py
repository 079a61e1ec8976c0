"""Every module-level import in ``src/repro``, ``tests``,
``benchmarks`` and ``examples`` is used.

A stdlib-only stand-in for a linter's unused-import rule: each module
outside a package ``__init__.py`` is parsed, and every name a
module-level ``import`` binds must be read somewhere in the module —
in code, in an annotation (quoted ones included) or by being listed in
``__all__``, which is how a module re-exports a name.  Uses are
matched by name, not by scope, so a local that shadows an import
counts as a use of it.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterator, List, Set

import pytest

ROOT = Path(__file__).resolve().parents[1]
#: The trees scanned: the package, its tests, benchmarks and examples.
SCANNED = ("src/repro", "tests", "benchmarks", "examples")


def _module_imports(tree: ast.Module) -> Iterator[ast.stmt]:
    """Import statements at module level, also inside module-level
    ``if``/``try`` blocks (``TYPE_CHECKING`` guards, optional deps)."""
    todo: List[ast.stmt] = list(tree.body)
    while todo:
        node = todo.pop(0)
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, ast.If):
            todo += node.body + node.orelse
        elif isinstance(node, ast.Try):
            todo += node.body + node.orelse + node.finalbody
            for handler in node.handlers:
                todo += handler.body


def _bound_names(node: ast.stmt) -> Dict[str, int]:
    """Name bound by each alias of an import -> its line."""
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return {}
    out = {}
    for alias in node.names:
        if alias.name == "*":
            continue
        if alias.asname is not None:
            name = alias.asname
        elif isinstance(node, ast.Import):
            name = alias.name.split(".")[0]
        else:
            name = alias.name
        out[name] = node.lineno
    return out


def _names_in(node: ast.AST) -> Iterator[str]:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id


def _annotation_names(node: ast.AST) -> Iterator[str]:
    """Names in an annotation, parsing quoted forward references."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                parsed = ast.parse(sub.value, mode="eval")
            except SyntaxError:
                continue
            yield from _names_in(parsed)


def _used_names(tree: ast.Module) -> Set[str]:
    used: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for ann in annotations:
            if ann is not None:
                used.update(_annotation_names(ann))
    return used


def _exported(tree: ast.Module) -> Set[str]:
    """String entries of a module-level ``__all__`` list or tuple."""
    out: Set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                if node.value is not None:
                    for sub in ast.walk(node.value):
                        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                            out.add(sub.value)
    return out


def unused_imports(path: Path) -> List[str]:
    """``name (line N)`` for each module-level import ``path`` never reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used_names(tree) | _exported(tree)
    unused = []
    for node in _module_imports(tree):
        for name, line in _bound_names(node).items():
            if name not in used:
                unused.append(f"{name} (line {line})")
    return unused


def _modules(tree: str) -> List[Path]:
    return sorted(
        p for p in (ROOT / tree).rglob("*.py") if p.name != "__init__.py"
    )


def test_scan_covers_the_package():
    assert len(_modules("src/repro")) > 50
    assert all(_modules(tree) for tree in SCANNED)


@pytest.mark.parametrize(
    "source, unused",
    [
        ("import os\n", ["os (line 1)"]),
        ("import os.path\nos.sep\n", []),
        ("from a import b as c\n", ["c (line 1)"]),
        ("from a import b\n__all__ = ['b']\n", []),
        ("from __future__ import annotations\n", []),
        ("from typing import TYPE_CHECKING\nif TYPE_CHECKING:\n"
         "    from a import B\ndef f(x: 'B') -> None: ...\n", []),
        ("from typing import List\ndef f() -> 'List[int]': ...\n", []),
    ],
)
def test_scanner_rules(tmp_path, source, unused):
    path = tmp_path / "mod.py"
    path.write_text(source)
    assert unused_imports(path) == unused


def test_no_unused_module_level_imports():
    found = {
        path.relative_to(ROOT).as_posix(): unused
        for tree in SCANNED
        for path in _modules(tree)
        if (unused := unused_imports(path))
    }
    assert found == {}
