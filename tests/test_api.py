"""The package's public names, as the README lists them."""

import re
from pathlib import Path

import sindhi_ner

README = Path(__file__).resolve().parents[1] / "README.md"


def python_api_names():
    """Every name in backticks on a bullet of the README's "Python API"
    section."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Python API", 1)[1].split("\n## ", 1)[0]
    bullets = re.findall(r"^- (.*(?:\n  .*)*)", section, flags=re.MULTILINE)
    return sorted({name for bullet in bullets
                   for name in re.findall(r"`([A-Za-z_][A-Za-z0-9_]*)`", bullet)})


def test_readme_python_api_names_import():
    names = python_api_names()
    assert "validate_sources" in names and "CorpusStore" in names
    assert [name for name in names if not hasattr(sindhi_ner, name)] == []
    assert set(names) <= set(sindhi_ner.__all__)
