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


def run_fresh(probe, *args):
    """The stdout and stderr of ``probe`` run in a fresh interpreter with
    the package on its path.  -S keeps modules that site-packages hooks
    may import out of ``sys.modules``."""
    env = {key: value for key, value in os.environ.items() if key != "NER_CONFIG"}
    env["PYTHONPATH"] = str(ROOT / "src")
    out = subprocess.run([sys.executable, "-S", "-c", probe, *args], env=env,
                         capture_output=True, text=True, timeout=60, check=True)
    return out.stdout, out.stderr


def test_import_and_build_engine_load_neither_dataclasses_nor_inspect():
    # Each costs milliseconds of every cold start; so do the store and the
    # evaluator, the CLI and the thread pool, none of which tagging uses.
    unwanted = {"dataclasses", "inspect", "sindhi_ner.corpus", "sindhi_ner.cli",
                "concurrent.futures"}
    probe = ("import sys, sindhi_ner; sindhi_ner.build_engine(); "
             f"print(*sorted({unwanted!r} & set(sys.modules)))")
    assert run_fresh(probe)[0].split() == []


def test_corpus_names_resolve_on_first_use():
    probe = """
import sys, sindhi_ner
loaded_at_import = "sindhi_ner.corpus" in sys.modules
listed = set(dir(sindhi_ner))
star = {}
exec("from sindhi_ner import *", star)
values = {name: getattr(sindhi_ner, name) for name in sindhi_ner.__all__}
try:
    sindhi_ner.no_such_name
    unknown = "resolved"
except AttributeError as exc:
    unknown = str(exc)
from sindhi_ner import cli, pipeline
print(loaded_at_import)
print(sorted(set(sindhi_ner.__all__) - listed))
print(sorted(name for name in sindhi_ner.__all__ if star.get(name) is not values[name]))
print(sindhi_ner.CorpusStore is sindhi_ner.corpus.CorpusStore,
      sindhi_ner.load_gold is sindhi_ner.corpus.load_gold)
print(unknown)
print(cli.main is sindhi_ner.cli.main, pipeline.render is sindhi_ner.render)
"""
    assert run_fresh(probe)[0].splitlines() == [
        "False", "[]", "[]", "True True",
        "module 'sindhi_ner' has no attribute 'no_such_name'", "True True"]


def test_tag_without_a_store_loads_neither_the_store_nor_a_thread_pool(tmp_path):
    text = tmp_path / "in.txt"
    text.write_text(SENTENCE + "\n", encoding="utf-8")
    probe = ("import sys; from sindhi_ner import cli; code = cli.main(['tag', sys.argv[1]]); "
             "print(code, *sorted({'sindhi_ner.corpus', 'concurrent.futures'} & set(sys.modules)),"
             " file=sys.stderr)")
    out, err = run_fresh(probe, str(text))
    assert err.split() == ["0"]
    assert out == ("<PERSON>اويس جمائي</PERSON> <DATE>05.06.2016</DATE> تي "
                   "<ORGANIZATION>سنڌ يونيورسٽي</ORGANIZATION> ويو\n")


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
