"""No module under src/sindhi_ner imports a name it never uses.

The check stands in for flake8's F401 with ``ast`` alone.  ``__init__.py``
is left out: it imports names to re-export them.  An import on a line
marked ``# noqa: F401`` is exempt, as flake8 exempts it.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "sindhi_ner"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


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
        if isinstance(node, ast.Name):
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
