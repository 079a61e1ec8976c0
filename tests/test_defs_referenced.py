"""Every ``def`` in ``src/repro`` is referenced somewhere.

A stdlib-only stand-in for a dead-code linter: each module- or
class-level function and method in ``src/repro`` must be named
somewhere in the code under ``src/``, ``tests/``, ``examples/``,
``perfbench/`` or ``benchmarks/``, or in the prose under ``docs/``.
A code reference is a name, an attribute, an imported name or a string
that is exactly the identifier (``getattr(obj, "name")``, ``__all__``,
a benchmark's ``patch(cls, "name")``).  A package's own re-export is
not a use: in ``src/repro/**/__init__.py`` an imported name or an
``__all__`` string does not count, though other code there does.
Names are matched without
scope, so a reference to any ``run`` keeps every ``run`` — the check
catches definitions nothing can reach, not every unused override.
Dunder methods are called by the language and are skipped.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Iterable, Iterator, List, Set, Tuple

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
CODE_DIRS = ("src", "tests", "examples", "perfbench", "benchmarks")

#: Definitions kept without a reference, each with the reason.
ALLOWED = {
    "core/algorithms/bitops.py:BitOps.fls":
        "eNetSTL bit-op API: fls completes the ffs/fls/popcnt family the "
        "paper's library exports, though no modelled NF calls it",
}

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def definitions(tree: ast.Module) -> Iterator[Tuple[str, str]]:
    """``(qualified name, bare name)`` of each module-level function
    and each method of a module-level class, dunders excluded."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            prefix, subs = node.name + ".", node.body
        else:
            prefix, subs = "", [node]
        for fn in subs:
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not (fn.name.startswith("__") and fn.name.endswith("__")):
                yield prefix + fn.name, fn.name


def _all_strings(tree: ast.AST) -> Set[int]:
    """ids of the nodes in the values assigned to ``__all__``."""
    skip: Set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            skip.update(id(n) for n in ast.walk(node.value))
    return skip


def code_references(tree: ast.AST, reexports: bool = True) -> Set[str]:
    """Every identifier ``tree`` reads, imports or spells as a string.

    With ``reexports=False`` (a package ``__init__``), imported names
    and ``__all__`` strings are left out.
    """
    refs: Set[str] = set()
    skip = set() if reexports else _all_strings(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.alias):
            if reexports:
                refs.add(node.asname or node.name.rsplit(".", 1)[-1])
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and _IDENT.fullmatch(node.value)
            and id(node) not in skip
        ):
            refs.add(node.value)
    return refs


def unreferenced(
    modules: Iterable[Path], refs: Set[str], root: Path
) -> List[str]:
    """``path:qualified name`` of each definition whose name is not in
    ``refs``."""
    return [
        f"{path.relative_to(root).as_posix()}:{qualname}"
        for path in modules
        for qualname, name in definitions(ast.parse(path.read_text()))
        if name not in refs
    ]


def all_references() -> Set[str]:
    refs: Set[str] = set()
    for base in CODE_DIRS:
        for path in (ROOT / base).rglob("*.py"):
            reexports = not (
                path.name == "__init__.py" and SRC in path.parents
            )
            refs |= code_references(ast.parse(path.read_text()), reexports)
    for path in (ROOT / "docs").rglob("*.md"):
        refs.update(_IDENT.findall(path.read_text()))
    return refs


def test_scan_covers_the_package():
    count = sum(
        len(list(definitions(ast.parse(p.read_text()))))
        for p in SRC.rglob("*.py")
    )
    assert count > 500


@pytest.mark.parametrize(
    "source, refs, dead",
    [
        ("def f(): pass\n", set(), ["mod.py:f"]),
        ("def f(): pass\n", {"f"}, []),
        ("class A:\n    def m(self): pass\n", set(), ["mod.py:A.m"]),
        ("class A:\n    def __len__(self): return 0\n", set(), []),
        ("def outer():\n    def inner(): pass\n", {"outer"}, []),
    ],
)
def test_scanner_rules(tmp_path, source, refs, dead):
    path = tmp_path / "mod.py"
    path.write_text(source)
    assert unreferenced([path], refs, tmp_path) == dead


@pytest.mark.parametrize(
    "source, ref",
    [
        ("obj.method()\n", "method"),
        ("from a import helper\n", "helper"),
        ("getattr(obj, 'hook')\n", "hook"),
        ("f(callback)\n", "callback"),
    ],
)
def test_code_references(source, ref):
    assert ref in code_references(ast.parse(source))


@pytest.mark.parametrize(
    "source, refs",
    [
        ("from .mod import helper\n", set()),
        ("from .mod import helper as h\n", set()),
        ("__all__ = ['helper']\n", {"__all__"}),
        ("__all__ += ('helper',)\n", {"__all__"}),
        ("from .mod import helper\nhelper()\n", {"helper"}),
        ("getattr(obj, 'hook')\n", {"getattr", "obj", "hook"}),
    ],
)
def test_package_reexport_is_not_a_reference(source, refs):
    assert code_references(ast.parse(source), reexports=False) == refs


def test_no_unreferenced_definitions():
    found = unreferenced(sorted(SRC.rglob("*.py")), all_references(), SRC)
    assert [k for k in found if k not in ALLOWED] == []
    # An allowance whose definition is gone or now referenced is stale.
    assert sorted(k for k in ALLOWED if k not in found) == []
