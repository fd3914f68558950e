"""No module under src/sindhi_ner imports a name it never uses, or
defines a module-level name, function or class, or a method of a
module-level class, that nothing reads.

The import check stands in for flake8's F401 with ``ast`` alone.
``__init__.py`` is left out of it: it imports names to re-export them.
An import on a line marked ``# noqa: F401`` is exempt, as flake8 exempts
it.  The dead-name check looks for reads in every Python file under
``src/``, ``tests/`` and ``bench/``, as a name, an attribute, an
imported name or a string constant; dunder names are exempt.
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


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def defined_names(tree):
    """(name, line number) of each module-level name an assignment, a
    function or a class binds, and of each method of a module-level class,
    bar dunders."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = []
            if not _is_dunder(node.name):
                yield node.name, node.lineno
            if isinstance(node, ast.ClassDef):
                for method in node.body:
                    if (isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and not _is_dunder(method.name)):
                        yield method.name, method.lineno
        else:
            continue
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name) and not _is_dunder(name.id):
                    yield name.id, node.lineno


def read_names(tree):
    """Every name a file reads: as a name, an attribute, an import or a
    string constant (the cascade and the bench name matchers by string)."""
    names = used_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def test_no_dead_module_name():
    read = set()
    for path in READERS:
        read |= read_names(ast.parse(path.read_text(encoding="utf-8")))
    dead = [f"{path.name}:{lineno}: {name}"
            for path in sorted(PACKAGE.glob("*.py"))
            for name, lineno in defined_names(ast.parse(path.read_text(encoding="utf-8")))
            if name not in read]
    assert dead == []


def test_the_guard_finds_a_dead_name():
    tree = ast.parse("__all__ = []\nA = 1\nB, (C, D) = 2, (3, 4)\nE: int = A\n"
                     "def f(): return g.B\ndef __getattr__(name): pass\n"
                     "class K:\n    def __init__(self): pass\n    def m(self): pass\n"
                     "    def n(self): return getattr(self, 'm')\n"
                     "def h(): pass\n")
    other = ast.parse("from m import C, K\nh()\n")
    read = read_names(tree) | read_names(other)
    assert [name for name, _ in defined_names(tree)
            if name not in read] == ["D", "E", "f", "n"]
