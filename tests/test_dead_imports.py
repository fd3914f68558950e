"""No module under src/sindhi_ner imports a name it never uses, or
binds a module-level name that nothing reads.

The import check stands in for flake8's F401 with ``ast`` alone.
``__init__.py`` is left out of it: it imports names to re-export them.
An import on a line marked ``# noqa: F401`` is exempt, as flake8 exempts
it.  The dead-name check looks for reads in every Python file under
``src/``, ``tests/`` and ``bench/``, as a name, an attribute or an
imported name; dunder names are exempt.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "sindhi_ner"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
READERS = sorted(p for d in ("src", "tests", "bench") for p in (ROOT / d).rglob("*.py"))


def imported_names(tree, lines):
    """(name, line number) of each name an import binds, bar exempt lines."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            if "noqa: F401" in lines[alias.lineno - 1]:
                continue
            yield (alias.asname or alias.name).split(".")[0], alias.lineno


def used_names(tree):
    """Every name the module reads, string annotations included."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            annotations = [a.annotation for a in (*args.posonlyargs, *args.args,
                                                  *args.kwonlyargs, args.vararg, args.kwarg)
                           if a is not None]
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        for annotation in annotations:
            if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
                names |= used_names(ast.parse(annotation.value, mode="eval"))
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_import(path):
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source)
    used = used_names(tree)
    unused = [f"{path.name}:{lineno}: {name}"
              for name, lineno in imported_names(tree, source.splitlines())
              if name not in used]
    assert unused == []


def test_the_guard_finds_an_unused_import():
    source = ("import os\nfrom typing import List, Optional\n"
              "import json  # noqa: F401\ndef f(x: 'Optional[int]'): pass\n")
    tree = ast.parse(source)
    used = used_names(tree)
    assert [name for name, _ in imported_names(tree, source.splitlines())
            if name not in used] == ["os", "List"]


def assigned_names(tree):
    """(name, line number) of each module-level name an assignment binds,
    bar dunders."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for name in ast.walk(target):
                if (isinstance(name, ast.Name)
                        and not (name.id.startswith("__") and name.id.endswith("__"))):
                    yield name.id, node.lineno


def read_names(tree):
    """Every name a file reads: as a name, an attribute or an import."""
    names = used_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_no_dead_module_name():
    read = set()
    for path in READERS:
        read |= read_names(ast.parse(path.read_text(encoding="utf-8")))
    dead = [f"{path.name}:{lineno}: {name}"
            for path in sorted(PACKAGE.glob("*.py"))
            for name, lineno in assigned_names(ast.parse(path.read_text(encoding="utf-8")))
            if name not in read]
    assert dead == []


def test_the_guard_finds_a_dead_name():
    tree = ast.parse("__all__ = []\nA = 1\nB, (C, D) = 2, (3, 4)\nE: int = A\n"
                     "def f(): return g.B\n")
    other = ast.parse("from m import C\n")
    read = read_names(tree) | read_names(other)
    assert [name for name, _ in assigned_names(tree) if name not in read] == ["D", "E"]
