"""The package's public names, as the README lists them, what importing
it loads, and the contracts of its record types."""

import copy
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import pytest

import sindhi_ner
from sindhi_ner import (
    CorpusStore, EngineConfig, EvalReport, GoldCorpus, GoldDocument, RuleId)

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
SENTENCE = "اويس جمائي 05.06.2016 تي سنڌ يونيورسٽي ويو"


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


def test_import_and_build_engine_load_neither_dataclasses_nor_inspect():
    # Each costs milliseconds of every cold start.  -S keeps modules that
    # site-packages hooks may import out of the count.
    probe = ("import sys, sindhi_ner; sindhi_ner.build_engine(); "
             "print(*sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    env = {key: value for key, value in os.environ.items() if key != "NER_CONFIG"}
    env["PYTHONPATH"] = str(ROOT / "src")
    out = subprocess.run([sys.executable, "-S", "-c", probe], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    assert out.stdout.split() == []


@pytest.fixture(scope="module")
def stored(engine, tmp_path_factory):
    with CorpusStore(tmp_path_factory.mktemp("store") / "store.jsonl") as store:
        return store.get(store.append(engine.tag_text(SENTENCE)))


def test_record_fields_refuse_assignment(engine, stored):
    doc = engine.tag_text(SENTENCE)
    gold = GoldCorpus((GoldDocument(("اويس",), ("PERSON",)),))
    fields = [(doc.tokens, "source"), (doc.tokens, "anything"), (doc, "tokens"),
              (EngineConfig.default(), "gazetteers"), (engine.rules, "suffixes"),
              (engine.rules, "number_words"), (next(engine.gaz.entries()), "surface"),
              (gold.documents[0], "labels"), (gold, "documents"), (stored, "entities")]
    for record, name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    with pytest.raises(AttributeError):
        del doc.tokens.source


def test_tagged_documents_compare_and_hash_by_value(engine):
    first, second = engine.tag_text(SENTENCE), engine.tag_text(SENTENCE)
    assert first == second and first.tokens is not second.tokens
    assert hash(first) == hash(second)
    assert first.tokens != engine.tag_text("اويس").tokens
    assert repr(first.tokens).startswith(f"TokenStream(source={SENTENCE!r}, surfaces=(")


def test_records_survive_pickle_and_deepcopy(engine, stored):
    bare = EngineConfig(*EngineConfig.default()[:5])  # default mappings
    for record in (engine.tag_text(SENTENCE), EngineConfig.default(), bare, stored,
                   EvalReport(0, 0)):
        for twin in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
            assert twin == record and type(twin) is type(record)


def test_default_overrides_are_never_shared():
    paths = EngineConfig.default()[:5]
    for name in ("rule_flags", "priorities"):
        try:
            getattr(EngineConfig(*paths), name)[RuleId.R1_DateTime] = 0
        except TypeError:
            pass
        assert getattr(EngineConfig(*paths), name) == {}
