"""Store round-trips, gold-corpus loading, and token-level scoring."""

import contextlib
import io
import itertools
import json
import sys
import tempfile
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from sindhi_ner import cli
from sindhi_ner.corpus import (
    CorpusStore,
    EvalReport,
    GoldCorpus,
    GoldDocument,
    LabelScore,
    evaluate,
    load_gold,
    predicted_labels,
    score_labels,
)
from sindhi_ner.errors import (
    CorruptStore,
    EmptyCorpus,
    LabelMismatch,
    MalformedLine,
    TokenizationMismatch,
    UnknownLabel,
)
from sindhi_ner.pipeline import DATA_DIR, EntitySpan, TaggedDocument, parse_jsonl, render
from sindhi_ner.rules import RuleId, TagLabel
from sindhi_ner.text import TokenStream

from test_acceptance import GOLDEN
from test_pipeline import GATED, entity_to_dict


SAMPLES = (
    "اويس جمائي 05.06.2016 تي سنڌ يونيورسٽي ويو",
    "هو خيرپور کان جيڪب آباد ويو",
    "ڊاڪٽر شاهده ميمڻ آئي",
    "هن ڇهه سو پنج رپيا ڏنا",
    "وڌيڪ ڄاڻ http://nlp.cs.nyu.edu تي لکو",
)


def linear_scan(store, label=None, surface=None, rule=None):
    """Reference for CorpusStore.query: every record's entities in turn."""
    out = []
    for doc in store.documents():
        for e in doc.entities:
            if label is not None and e.label.value != label:
                continue
            if surface is not None and \
                    surface.casefold() not in e.surface.casefold():
                continue
            if rule is not None and e.rule.value != rule:
                continue
            out.append(((doc.doc_id, e.token_start, e.token_end), e))
    out.sort(key=lambda item: item[0][:2])
    return out


# Filters for the differential tests, unknown label and rule values and an
# empty surface among them.
QUERY_FILTERS = [
    dict(zip(("label", "rule", "surface"), values)) for values in itertools.product(
        (None, "PERSON", "LOCATION", "DATE", "PERSONN", "person", "R1_DateTime"),
        (None, "R3_GazetteerName", "R_GazetteerDirect", "R0", "PERSON"),
        (None, "", "STRASSE", "nyu", "ڪراچي", "ghost"))]


def assert_queries_match_scan(store):
    for filters in QUERY_FILTERS:
        assert store.query(**filters) == linear_scan(store, **filters), filters


def entity_dict(token_start, token_end, label, rule, surface):
    return {"start_byte": 10 * token_start, "end_byte": 10 * token_end,
            "token_start": token_start, "token_end": token_end,
            "label": label, "rule": rule, "surface": surface}


def write_hand_edited_store(path):
    """Records 1, 5 and 9; record 5 lists its entities out of start order."""
    records = [
        {"id": 1, "text": "اويس ڪراچي ويو", "entities": [
            entity_dict(0, 1, "PERSON", "R3_GazetteerName", "اويس"),
            entity_dict(1, 2, "LOCATION", "R_GazetteerDirect", "ڪراچي")]},
        {"id": 5, "text": "a b c d e", "entities": [
            entity_dict(3, 5, "LOCATION", "R_GazetteerDirect", "Straße"),
            entity_dict(0, 1, "PERSON", "R3_GazetteerName", "NYU"),
            entity_dict(3, 4, "LOCATION", "R2_Suffix", "ڪراچي Straße"),
            entity_dict(1, 2, "DATE", "R1_DateTime", "nyu.edu")]},
        {"id": 9, "text": "x", "entities": []},
    ]
    path.write_text("".join(json.dumps(r, ensure_ascii=False) + "\n"
                            for r in records), "utf-8")


# Characters JSON escapes or that are easy to get wrong: the quote, the
# backslash, every C0 control, DEL, the two Unicode line separators,
# non-BMP characters and lone surrogates.
JSON_HARD = ['"', "\\", *map(chr, range(0x20)), "\x7f", "\u2028", "\u2029",
             "\U0001F600", "\U0010FFFF", "\ud800", "\udbff", "\udc00", "\udfff"]
json_text = st.text(st.one_of(st.sampled_from(JSON_HARD),
                              st.characters(blacklist_categories=())), max_size=12)
offsets = st.one_of(st.integers(0, 1000), st.integers(-2 ** 70, 2 ** 70))
hand_spans = st.builds(EntitySpan, offsets, offsets, offsets, offsets,
                       st.sampled_from(TagLabel), st.sampled_from(RuleId), json_text)


# One entity per label and rule pair.
EVERY_LABEL_AND_RULE = [
    EntitySpan(k, k + 1, 2 * k, 2 * k + 2, label, rule, "ڪراچي")
    for k, (label, rule) in enumerate(itertools.product(TagLabel, RuleId))]


@settings(max_examples=300, deadline=None)
@given(json_text, st.lists(hand_spans, max_size=4))
@example("سنڌ", EVERY_LABEL_AND_RULE)
@example("", [])
def test_jsonl_writer_matches_json_dumps(source, entities):
    # The render line and the store line of a hand-built document, whose
    # spans the tagger may never make, are json.dumps of its record, and
    # read back to the document.
    doc = TaggedDocument(tokens=TokenStream(source, (), (), (), (), ()),
                         entities=tuple(entities))
    record = {"text": source, "entities": [entity_to_dict(e) for e in entities]}
    line = render(doc, "jsonl")
    assert line == json.dumps(record, ensure_ascii=False)
    assert parse_jsonl(line) == [(source, entities)]
    stored = json.dumps({"id": 1, **record}, ensure_ascii=False)
    try:
        stored.encode("utf-8")
    except UnicodeEncodeError:
        return  # a lone surrogate: no UTF-8 file can hold the record
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "corpus.jsonl"
        with CorpusStore(path) as corpus:
            corpus.append(doc)
        assert path.read_text("utf-8") == stored + "\n"
        reopened = CorpusStore(path).get(1)
        assert (reopened.text, reopened.entities) == (source, entities)


def reference_records(docs):
    """The store file of ``docs`` appended to a new store, built from the
    jsonl line by the formula the store writer once used."""
    return "".join('{"id": %d, ' % doc_id + render(doc, "jsonl")[1:] + "\n"
                   for doc_id, doc in enumerate(docs, 1)).encode("utf-8")


def hand_doc(source, entities):
    """A document holding ``entities`` as given, with one token so that
    ``tag`` does not skip it."""
    return TaggedDocument(tokens=TokenStream(source, ("x",), (0,), (1,), ("x",), ("word",)),
                          entities=tuple(entities))


# Text a UTF-8 file can hold: the JSON_HARD characters bar the surrogates.
utf8_text = st.text(st.one_of(
    st.sampled_from([c for c in JSON_HARD if not "\ud800" <= c <= "\udfff"]),
    st.characters(blacklist_categories=("Cs",))), max_size=12)
utf8_spans = st.builds(EntitySpan, offsets, offsets, offsets, offsets,
                       st.sampled_from(TagLabel), st.sampled_from(RuleId), utf8_text)
hand_docs = st.builds(hand_doc, utf8_text, st.one_of(
    st.just([]), st.lists(utf8_spans, min_size=1, max_size=1),
    st.lists(utf8_spans, min_size=2, max_size=20)))


@settings(max_examples=100, deadline=None)
@given(st.lists(hand_docs, min_size=1, max_size=4))
def test_append_and_tag_store_write_the_reference_records(docs):
    # The file append writes, and the file tag --store writes, are the
    # documents' jsonl lines with the id put first, and read back to the
    # documents.  tag --store gets each document from an engine that hands
    # back the one its input file names.
    expected = reference_records(docs)
    engine = SimpleNamespace(tag_text=lambda text: docs[int(text)])
    with tempfile.TemporaryDirectory() as tmp:
        appended, tagged = Path(tmp) / "append.jsonl", Path(tmp) / "tag.jsonl"
        with CorpusStore(appended) as corpus:
            assert [corpus.append(doc) for doc in docs] == list(range(1, len(docs) + 1))
        names = []
        for n in range(len(docs)):
            names.append(Path(tmp) / f"doc{n}.txt")
            names[-1].write_text(str(n))
        out, err = io.StringIO(), io.StringIO()
        with mock.patch.object(cli, "build_engine", lambda config: engine), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            assert cli.main(["tag", "--format", "jsonl", "--store", str(tagged),
                             *map(str, names)]) == 0
        assert out.getvalue() == "".join(render(doc, "jsonl") + "\n" for doc in docs)
        assert err.getvalue() == "".join(f"{n}\n" for n in range(1, len(docs) + 1))
        assert appended.read_bytes() == tagged.read_bytes() == expected
        with CorpusStore(tagged) as reopened:
            assert [(d.text, d.entities) for d in reopened.documents()] == [
                (doc.source, list(doc.entities)) for doc in docs]


@pytest.fixture()
def store(tmp_path):
    with CorpusStore(tmp_path / "corpus.jsonl") as st:
        yield st


class TestStore:
    def test_ids_start_at_one(self, store, engine):
        assert store.append(engine.tag_text(SAMPLES[0])) == 1
        assert store.append(engine.tag_text(SAMPLES[1])) == 2
        assert len(store) == 2

    def test_get_returns_record(self, store, engine):
        doc = engine.tag_text(SAMPLES[0])
        doc_id = store.append(doc)
        record = store.get(doc_id)
        assert record.text == doc.source
        assert tuple(record.entities) == doc.entities

    def test_a_returned_entity_list_cannot_change_the_store(self, store, engine):
        doc = engine.tag_text(SAMPLES[0])
        doc_id = store.append(doc)
        empty_id = store.append(engine.tag_text("ويو"))
        hits = store.query()
        assert len(hits) == len(doc.entities) == 3
        appended, reopened = store.get(doc_id), CorpusStore(store.path).get(doc_id)
        for entities in (appended.entities, next(store.documents()).entities,
                         reopened.entities, store.get(empty_id).entities):
            changes = [entities.clear, entities.sort, entities.reverse, entities.pop,
                       lambda: entities.append(doc.entities[0]),
                       lambda: entities.extend(doc.entities),
                       lambda: entities.insert(0, doc.entities[0]),
                       lambda: entities.remove(doc.entities[0]),
                       lambda: entities.__setitem__(0, doc.entities[1]),
                       lambda: entities.__delitem__(slice(None)),
                       lambda: entities.__iadd__(doc.entities),
                       lambda: entities.__imul__(0)]
            for change in changes:
                with pytest.raises(TypeError):
                    change()
            assert isinstance(entities, list) and entities in (list(doc.entities), [])
            mutable = list(entities)
            mutable.clear()
        assert store.get(doc_id).entities == list(doc.entities)
        assert [d.entities for d in store.documents()] == [list(doc.entities), []]
        assert store.query() == hits

    def test_documents_ordered_by_id(self, store, engine):
        for text in SAMPLES:
            store.append(engine.tag_text(text))
        assert [d.doc_id for d in store.documents()] == [1, 2, 3, 4, 5]

    @pytest.mark.parametrize("where", ["source", "surface"])
    def test_a_failed_append_writes_and_adds_nothing(self, tmp_path, engine, where):
        # A lone surrogate cannot be encoded: the append raises before its
        # first byte is written, and the next append takes the id it would
        # have taken.
        path = tmp_path / "corpus.jsonl"
        good = [engine.tag_text(text) for text in SAMPLES[:2]]
        entity = EntitySpan(0, 1, 0, 2, TagLabel.PERSON, RuleId.R3_GazetteerName,
                            "x\ud800" if where == "surface" else "x")
        bad = hand_doc("ok \udc00" if where == "source" else "ok", [entity])
        with CorpusStore(path) as st:
            assert st.append(good[0]) == 1
            before = path.read_bytes(), st.query(), list(st.documents())
            with pytest.raises(UnicodeEncodeError):
                st.append(bad)
            assert (path.read_bytes(), st.query(), list(st.documents())) == before
            assert len(st) == 1 and len(st._entities) == len(good[0].entities)
            assert st.append(good[1]) == 2
        assert path.read_bytes() == reference_records(good)
        with CorpusStore(path) as st:
            assert [d.text for d in st.documents()] == [doc.source for doc in good]

    @pytest.mark.parametrize("tail", [b"", b'{"id": 2, "te'])
    def test_a_failed_append_leaves_an_unended_last_line_to_the_next(
            self, tmp_path, engine, tail):
        # Neither the newline an unterminated last record needs nor the cut
        # of a torn one is written by an append that fails; the next
        # append writes them.
        path = tmp_path / "corpus.jsonl"
        good = [engine.tag_text(text) for text in SAMPLES[:2]]
        with CorpusStore(path) as st:
            st.append(good[0])
        path.write_bytes(path.read_bytes().rstrip(b"\n") + (b"\n" + tail if tail else b""))
        damaged = path.read_bytes()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            st = CorpusStore(path)
        with st:
            with pytest.raises(UnicodeEncodeError):
                st.append(hand_doc("\ud800", []))
            assert path.read_bytes() == damaged
            assert st.append(good[1]) == 2
        assert path.read_bytes() == reference_records(good)
        with CorpusStore(path) as st:
            assert [d.text for d in st.documents()] == [doc.source for doc in good]

    def test_lines_match_json_dumps(self, tmp_path, engine):
        # The render line and the store line of each golden sentence, gold
        # document and gated text are json.dumps of the same record, byte
        # for byte.
        texts = [text for text, _ in GOLDEN] + GATED + [
            " ".join(doc.tokens)
            for doc in load_gold(DATA_DIR / "mini_gold.tsv").documents]
        path = tmp_path / "corpus.jsonl"
        records = []
        with CorpusStore(path) as st:
            for text in texts:
                doc = engine.tag_text(text)
                entities = [entity_to_dict(e) for e in doc.entities]
                record = {"text": doc.source, "entities": entities}
                assert render(doc, "jsonl") == json.dumps(record, ensure_ascii=False)
                doc_id = st.append(doc)
                records.append({"id": doc_id, **record})
        assert path.read_text("utf-8") == "".join(
            json.dumps(r, ensure_ascii=False) + "\n" for r in records)

    def test_reopen_preserves_everything(self, tmp_path, engine):
        path = tmp_path / "corpus.jsonl"
        with CorpusStore(path) as st:
            for text in SAMPLES:
                st.append(engine.tag_text(text))
            before = st.query()
        with CorpusStore(path) as st:
            assert len(st) == len(SAMPLES)
            assert st.query() == before
            # New appends continue the id sequence.
            assert st.append(engine.tag_text(SAMPLES[0])) == len(SAMPLES) + 1

    def test_query_label_filter(self, store, engine):
        for text in SAMPLES:
            store.append(engine.tag_text(text))
        hits = store.query(label="PERSON")
        assert hits and all(e.label.value == "PERSON" for _, e in hits)

    def test_query_surface_substring_casefolded(self, store, engine):
        store.append(engine.tag_text(SAMPLES[4]))
        assert store.query(surface="NYU.EDU")
        assert store.query(surface="nyu.edu")
        assert not store.query(surface="example.org")

    def test_query_rule_filter(self, store, engine):
        for text in SAMPLES:
            store.append(engine.tag_text(text))
        hits = store.query(rule="R1_DateTime")
        assert hits and all(e.rule.value == "R1_DateTime" for _, e in hits)

    def test_query_combined_filters(self, store, engine):
        for text in SAMPLES:
            store.append(engine.tag_text(text))
        hits = store.query(label="PERSON", surface="جمائي",
                           rule="R3_GazetteerName")
        assert len(hits) == 1
        (doc_id, start, end), entity = hits[0]
        assert (doc_id, start, end) == (1, 0, 2)
        assert entity.surface == "اويس جمائي"

    def test_query_ordering(self, store, engine):
        for text in SAMPLES:
            store.append(engine.tag_text(text))
        keys = [loc[:2] for loc, _ in store.query()]
        assert keys == sorted(keys)

    def test_query_against_linear_scan(self, store, engine):
        for text in SAMPLES * 20:
            store.append(engine.tag_text(text))
        for label, surface, rule in (
                (None, None, None), ("PERSON", None, None),
                (None, "يونيورسٽي", None), (None, None, "R10_OrgKeyword"),
                ("URL", "nyu", "R_UrlEmail"), ("DATE", "ghost", None)):
            assert store.query(label=label, surface=surface, rule=rule) \
                == linear_scan(store, label=label, surface=surface, rule=rule)
        assert_queries_match_scan(store)

    def test_hand_edited_store_matches_linear_scan(self, tmp_path, engine):
        path = tmp_path / "corpus.jsonl"
        write_hand_edited_store(path)
        with CorpusStore(path) as st:
            assert [d.doc_id for d in st.documents()] == [1, 5, 9]
            assert [loc for loc, _ in st.query()] == [
                (1, 0, 1), (1, 1, 2), (5, 0, 1), (5, 1, 2), (5, 3, 5), (5, 3, 4)]
            assert [e.surface for _, e in st.query(surface="STRASSE")] == [
                "Straße", "ڪراچي Straße"]
            assert st.query(label="PERSONN") == []
            assert st.query(rule="R0") == []
            assert st.query(label="person") == []
            assert st.query(surface="") == st.query()
            assert_queries_match_scan(st)
            # Rows admitted on append sit beside rows admitted on load.
            for text in SAMPLES:
                st.append(engine.tag_text(text))
            assert [d.doc_id for d in st.documents()] == [1, 5, 9, 10, 11, 12, 13, 14]
            assert_queries_match_scan(st)
            before = [st.query(**f) for f in QUERY_FILTERS]
        with CorpusStore(path) as st:
            assert [st.query(**f) for f in QUERY_FILTERS] == before

    def test_corrupt_garbage_line(self, tmp_path, engine):
        path = tmp_path / "corpus.jsonl"
        with CorpusStore(path) as st:
            st.append(engine.tag_text(SAMPLES[0]))
        clean_size = path.stat().st_size
        with open(path, "ab") as fh:
            fh.write(b"{not json}\n")
        with pytest.raises(CorruptStore) as err:
            CorpusStore(path)
        assert err.value.byte_offset == clean_size
        assert err.value.code == "corrupt-store"

    def test_corrupt_nonmonotonic_ids(self, tmp_path, engine):
        path = tmp_path / "corpus.jsonl"
        with CorpusStore(path) as st:
            st.append(engine.tag_text(SAMPLES[0]))
        first = path.read_bytes()
        with open(path, "ab") as fh:
            fh.write(first)  # same id appended again
        with pytest.raises(CorruptStore) as err:
            CorpusStore(path)
        assert err.value.byte_offset == len(first)

    def test_corrupt_missing_field(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text(json.dumps({"id": 1, "text": "x"}) + "\n", "utf-8")
        with pytest.raises(CorruptStore):
            CorpusStore(path)

    @pytest.mark.parametrize("line, reason", [
        ('{"id": 1, "text": "x"}', "missing key 'entities'"),
        ('{"id": 1, "text": "x", "entities": [{}]}', "missing key 'label'"),
        ('"x"', "a record and its entities must be objects"),
        ('[1, "x", []]', "a record and its entities must be objects"),
        ('{"id": 1, "text": "x", "entities": [5]}', "a record and its entities must be objects"),
        ('{"id": 1, "text": "x", "entities": {}}', "a record's entities must be a list"),
        ('{"id": 0, "text": "x", "entities": []}', "record ids must be increasing ints"),
        ('{"id": 1, "text": 5, "entities": []}', "a record's text must be a str"),
        ('{"id": 1, "text": "x", "entities": []} 1', "data after the record"),
        ('{"id": 1 "text": "x"}', "Expecting ',' delimiter: line 1 column 10 (char 9)"),
    ])
    def test_corrupt_store_names_the_broken_rule(self, tmp_path, line, reason):
        path = tmp_path / "corpus.jsonl"
        path.write_text(line + "\n", "utf-8")
        with pytest.raises(CorruptStore) as err:
            CorpusStore(path)
        assert str(err.value) == f"{path}: {reason} at byte offset 0"

    @pytest.mark.parametrize("entities", [None, 3, True, {}, "", "xy"])
    def test_corrupt_entities_that_are_no_list(self, tmp_path, entities):
        path = tmp_path / "corpus.jsonl"
        path.write_text(json.dumps({"id": 1, "text": "x", "entities": entities}) + "\n",
                        "utf-8")
        with pytest.raises(CorruptStore):
            CorpusStore(path)

    # Each damage gives a record of SAMPLES[0] (three entities) a JSON value
    # of the wrong type.
    ENTITY_DAMAGE = {
        "string offset": lambda r: r["entities"][1].update(token_start="3"),
        "bool offset": lambda r: r["entities"][0].update(start_byte=False),
        "null surface": lambda r: r["entities"][0].update(surface=None),
    }
    RECORD_DAMAGE = {
        "bool id": lambda r: r.update(id=True),
        "list text": lambda r: r.update(text=[r["text"]]),
    }

    def damaged(self, engine, damage):
        record = {"id": 1, **json.loads(render(engine.tag_text(SAMPLES[0]), "jsonl"))}
        {**self.ENTITY_DAMAGE, **self.RECORD_DAMAGE}[damage](record)
        return record

    @pytest.mark.parametrize("damage", [*ENTITY_DAMAGE, *RECORD_DAMAGE])
    def test_corrupt_json_types(self, tmp_path, engine, damage):
        path = tmp_path / "corpus.jsonl"
        path.write_text(json.dumps(self.damaged(engine, damage)) + "\n", "utf-8")
        with pytest.raises(CorruptStore) as err:
            CorpusStore(path)
        assert err.value.byte_offset == 0

    @pytest.mark.parametrize("damage", ENTITY_DAMAGE)
    def test_parse_jsonl_refuses_wrong_entity_types(self, engine, damage):
        with pytest.raises(ValueError):
            parse_jsonl(json.dumps(self.damaged(engine, damage)))

    @pytest.mark.parametrize("line", [
        '{"text": 5, "entities": []}',
        '{"text": "a", "entities": {}}',
        '{"text": "a", "entities": "xy"}',
        '{"text": "a", "entities": [5]}',
        '{"text": "a", "entities": [{}]}',
        '{"entities": []}',
        '["a", []]',
        '"a"',
    ])
    def test_parse_jsonl_refuses_a_line_of_the_wrong_shape(self, line):
        with pytest.raises(ValueError):
            parse_jsonl(line)

    def test_close_is_idempotent(self, tmp_path, engine):
        st = CorpusStore(tmp_path / "corpus.jsonl")
        st.append(engine.tag_text(SAMPLES[0]))
        st.close()
        st.close()

    def test_invalid_utf8_record_is_corrupt(self, tmp_path, engine):
        path = tmp_path / "corpus.jsonl"
        with CorpusStore(path) as st:
            st.append(engine.tag_text(SAMPLES[0]))
        clean_size = path.stat().st_size
        with open(path, "ab") as fh:
            fh.write(b'{"id": 2, "text": "\xff\xfe", "entities": []}\n')
        with pytest.raises(CorruptStore) as err:
            CorpusStore(path)
        assert err.value.byte_offset == clean_size

    def test_append_after_record_without_newline(self, tmp_path, engine):
        path = tmp_path / "corpus.jsonl"
        with CorpusStore(path) as st:
            st.append(engine.tag_text(SAMPLES[0]))
        path.write_bytes(path.read_bytes().rstrip(b"\n"))
        with CorpusStore(path) as st:
            assert len(st) == 1
            assert st.append(engine.tag_text(SAMPLES[1])) == 2
            assert st.append(engine.tag_text(SAMPLES[2])) == 3
        with CorpusStore(path) as st:
            assert [d.text for d in st.documents()] == [
                engine.tag_text(text).source for text in SAMPLES[:3]]
        assert path.read_bytes().count(b"\n") == 3

    def test_read_only_use_creates_no_file(self, tmp_path):
        path = tmp_path / "missing.jsonl"
        assert CorpusStore(path).query() == []
        with CorpusStore(path) as st:
            assert len(st) == 0
            assert list(st.documents()) == []
        st = CorpusStore(path)
        st.close()
        st.close()
        assert not path.exists()

    def test_read_only_use_leaves_file_unchanged(self, tmp_path, engine):
        path = tmp_path / "corpus.jsonl"
        with CorpusStore(path) as st:
            st.append(engine.tag_text(SAMPLES[0]))
        path.write_bytes(path.read_bytes().rstrip(b"\n"))
        content = path.read_bytes()
        with CorpusStore(path) as st:
            assert st.query(label="PERSON")
        assert path.read_bytes() == content

    def test_label_and_rule_queries_on_mixed_store_match_linear_scan(
            self, tmp_path, engine):
        # Records loaded from disk, hand-edited ones whose entities are out
        # of start order, and records appended in this session.
        path = tmp_path / "corpus.jsonl"
        write_hand_edited_store(path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"id": 12, "text": "p q r s t", "entities": [
                entity_dict(4, 5, "LOCATION", "R_GazetteerDirect", "t"),
                entity_dict(2, 3, "PERSON", "R3_GazetteerName", "r"),
                entity_dict(0, 2, "LOCATION", "R2_Suffix", "p q"),
                entity_dict(2, 3, "LOCATION", "R_GazetteerDirect", "r"),
            ]}, ensure_ascii=False) + "\n")
        with CorpusStore(path) as st:
            for text in SAMPLES:
                st.append(engine.tag_text(text))
        filters = [dict(label=label.value) for label in TagLabel]
        filters += [dict(rule=rule.value) for rule in RuleId]
        filters += [dict(label=label.value, rule=rule.value)
                    for label in TagLabel for rule in RuleId]
        filters += [dict(label="LOCATION", rule="R_GazetteerDirect", surface="R")]

        def check(st):
            for f in filters:
                assert st.query(**f) == linear_scan(st, **f), f

        with CorpusStore(path) as st:
            for text in SAMPLES:
                st.append(engine.tag_text(text))
            assert [d.doc_id for d in st.documents()] == [1, 5, 9, 12] + list(range(13, 23))
            assert [loc for loc, _ in st.query(label="LOCATION") if loc[0] == 12] == [
                (12, 0, 2), (12, 2, 3), (12, 4, 5)]
            check(st)
            before = [st.query(**f) for f in filters]
        with CorpusStore(path) as st:
            assert [st.query(**f) for f in filters] == before
            check(st)

    def test_queries_between_appends_and_reopens_match_linear_scan(
            self, tmp_path, engine):
        # Query, append, query, reopen, query: the result rows built by the
        # first query take in the appended records and are built again after
        # a reopen.
        path = tmp_path / "corpus.jsonl"
        tagged = [engine.tag_text(text) for text in SAMPLES + tuple(GATED)]
        half = len(tagged) // 2
        with CorpusStore(path) as st:
            st.append(tagged[0])
            assert_queries_match_scan(st)
            for doc in tagged[1:half]:
                st.append(doc)
            assert_queries_match_scan(st)
        with CorpusStore(path) as st:
            assert_queries_match_scan(st)
            for doc in tagged[half:]:
                st.append(doc)
            assert_queries_match_scan(st)
            assert len(st._hits) == len(st._folded) == len(st._entities)
        with CorpusStore(path) as st:
            assert_queries_match_scan(st)

    def test_threads_that_query_a_fresh_store_get_the_same_rows(self, tmp_path, engine):
        # The first queries of several threads build the result rows at once.
        path = tmp_path / "corpus.jsonl"
        with CorpusStore(path) as st:
            for text in SAMPLES * 40:
                st.append(engine.tag_text(text))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                with CorpusStore(path) as st:
                    expected = [linear_scan(st, **f) for f in QUERY_FILTERS]
                    with ThreadPoolExecutor(max_workers=4) as pool:
                        futures = [pool.submit(lambda: [st.query(**f) for f in QUERY_FILTERS])
                                   for _ in range(4)]
                        results = [future.result(timeout=60) for future in futures]
                    assert results == [expected] * 4
                    assert len(st._hits) == len(st._folded) == len(st._entities)
        finally:
            sys.setswitchinterval(interval)

    def test_appending_and_reopening_build_no_result_rows(self, tmp_path, engine):
        path = tmp_path / "corpus.jsonl"
        with CorpusStore(path) as st:
            for text in SAMPLES:
                st.append(engine.tag_text(text))
            assert (st._hits, st._folded) == ([], [])
        with CorpusStore(path) as st:
            assert st._entities and (st._hits, st._folded) == ([], [])
            st.query(rule="R1_DateTime")
            assert len(st._hits) == len(st._folded) == len(st._entities)

    @pytest.mark.parametrize("tail", [b" x", b"{}"])
    def test_record_with_trailing_data_is_corrupt(self, tmp_path, engine, tail):
        path = tmp_path / "corpus.jsonl"
        with CorpusStore(path) as st:
            st.append(engine.tag_text(SAMPLES[0]))
            st.append(engine.tag_text(SAMPLES[1]))
        first, second = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(first + second[:-1] + tail + b"\n")
        with pytest.raises(CorruptStore) as err:
            CorpusStore(path)
        assert err.value.byte_offset == len(first)


# What may stand around a record on its line: JSON's whitespace less the
# newline that ends the line, other Unicode spaces (``str.strip`` removes
# them, ``json.loads`` refuses them), a BOM, and trailing data.
_LINE_PADDING = st.lists(st.sampled_from(
    (" ", "\t", "\r", "\xa0", "\u2028", "\u3000", "\x1c", "\x0b", "\x85", "\ufeff",
     "x", "0", "{}")), max_size=3).map("".join)


@settings(max_examples=200, deadline=None)
@given(_LINE_PADDING, _LINE_PADDING)
@example("\xa0", "")
@example("\u2028", "")
@example("\u3000", "")
@example("\x1c", "")
@example(" \t\r", "\r\t ")
def test_store_reads_a_record_line_as_json_loads_does(engine, prefix, suffix):
    record = {"id": 1, **json.loads(render(engine.tag_text(SAMPLES[0]), "jsonl"))}
    line = prefix + json.dumps(record, ensure_ascii=False) + suffix
    try:
        json.loads(line)
    except ValueError:
        accepted = False
    else:
        accepted = True
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "corpus.jsonl"
        path.write_bytes(line.encode("utf-8") + b"\n")
        if accepted:
            with CorpusStore(path) as store:
                assert [d.text for d in store.documents()] == [SAMPLES[0]]
        else:
            with pytest.raises(CorruptStore) as err:
                CorpusStore(path)
            assert err.value.byte_offset == 0


def test_lines_that_str_strip_empties_are_skipped(tmp_path, engine):
    path = tmp_path / "corpus.jsonl"
    with CorpusStore(path) as st:
        st.append(engine.tag_text(SAMPLES[0]))
    record = path.read_bytes()
    blanks = "\n \t\r\n\xa0\u2028\u3000\x1c\n".encode("utf-8")
    path.write_bytes(blanks + record + blanks)
    with CorpusStore(path) as st:
        assert [d.text for d in st.documents()] == [SAMPLES[0]]
        assert st.append(engine.tag_text(SAMPLES[1])) == 2


def tear(path, cut):
    """Cut the last ``cut`` bytes of the file; returns the torn line's offset."""
    data = path.read_bytes()
    path.write_bytes(data[:-cut])
    return data.rstrip(b"\n").rfind(b"\n") + 1


def two_record_store(path, engine):
    with CorpusStore(path) as st:
        st.append(engine.tag_text(SAMPLES[0]))
        st.append(engine.tag_text(SAMPLES[1]))


class TestTornTail:
    def test_cut_of_ten_bytes_drops_last_record(self, tmp_path, engine):
        path = tmp_path / "corpus.jsonl"
        two_record_store(path, engine)
        offset = tear(path, 10)
        with pytest.warns(UserWarning, match=f"torn final record at byte offset {offset}$"):
            st = CorpusStore(path)
        assert [d.doc_id for d in st.documents()] == [1]
        assert st.query() == linear_scan(st)
        assert st.query(label="LOCATION") == []

    def test_cut_mid_character_drops_last_record(self, tmp_path, engine):
        path = tmp_path / "corpus.jsonl"
        two_record_store(path, engine)
        data = path.read_bytes()
        # The last two-byte character of the record's text, cut after its
        # first byte.
        text_end = data.rindex(SAMPLES[1].encode("utf-8")) + len(SAMPLES[1].encode("utf-8"))
        path.write_bytes(data[:text_end - 1])
        with pytest.raises(UnicodeDecodeError):
            path.read_bytes().decode("utf-8")
        with pytest.warns(UserWarning, match="torn final record"):
            st = CorpusStore(path)
        assert len(st) == 1
        assert st.get(1).text == SAMPLES[0]

    def test_append_after_torn_tail_truncates_it(self, tmp_path, engine):
        path = tmp_path / "corpus.jsonl"
        two_record_store(path, engine)
        first = path.read_bytes().splitlines(keepends=True)[0]
        tear(path, 10)
        with pytest.warns(UserWarning):
            st = CorpusStore(path)
        with st:
            assert st.append(engine.tag_text(SAMPLES[2])) == 2
        lines = path.read_bytes().splitlines(keepends=True)
        assert len(lines) == 2 and lines[0] == first
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with CorpusStore(path) as st:
                assert [d.text for d in st.documents()] == [SAMPLES[0], SAMPLES[2]]
                assert_queries_match_scan(st)

    def test_read_only_open_leaves_torn_file_unchanged(self, tmp_path, engine):
        path = tmp_path / "corpus.jsonl"
        two_record_store(path, engine)
        tear(path, 10)
        content = path.read_bytes()
        with pytest.warns(UserWarning):
            with CorpusStore(path) as st:
                st.query(label="PERSON")
                list(st.documents())
        assert path.read_bytes() == content

    @pytest.mark.parametrize("damage", ["repeated id", "trailing data"])
    def test_parsed_unterminated_last_line_stays_corrupt(self, tmp_path, engine, damage):
        # Only a line that fails to decode or to parse can be a torn write.
        path = tmp_path / "corpus.jsonl"
        with CorpusStore(path) as st:
            st.append(engine.tag_text(SAMPLES[0]))
        first = path.read_bytes()
        last = first.rstrip(b"\n") + (b"" if damage == "repeated id" else b" x")
        path.write_bytes(first + last)
        with pytest.raises(CorruptStore) as err:
            CorpusStore(path)
        assert err.value.byte_offset == len(first)

    def test_damaged_terminated_last_line_stays_corrupt(self, tmp_path, engine):
        path = tmp_path / "corpus.jsonl"
        two_record_store(path, engine)
        data = path.read_bytes()
        path.write_bytes(data[:-11] + b"\n")
        with pytest.raises(CorruptStore) as err:
            CorpusStore(path)
        assert err.value.byte_offset == data.rstrip(b"\n").rfind(b"\n") + 1


# One step of a store's life: append one of SAMPLES, reopen, strip the
# file's final newline and reopen, or cut 2-40 bytes off the file's end
# (a torn last write, mid-character when the cut lands inside one) and
# reopen.
_STORE_OPS = st.one_of(st.sampled_from(range(len(SAMPLES))),
                       st.sampled_from(("reopen", "unterminate")),
                       st.tuples(st.just("tear"), st.integers(2, 40)))


@settings(max_examples=60, deadline=None)
@given(st.lists(_STORE_OPS, max_size=12))
def test_appends_and_reopens_preserve_records(engine, ops):
    tagged = [engine.tag_text(text) for text in SAMPLES]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "corpus.jsonl"
        expected = []
        torn = False  # the file ends in a torn record
        store = CorpusStore(path)
        try:
            for op in ops:
                if op == "unterminate" and path.exists():
                    path.write_bytes(path.read_bytes().rstrip(b"\n"))
                if isinstance(op, tuple) and path.exists():
                    data = path.read_bytes()
                    body = data[:-1] if data.endswith(b"\n") else data
                    start = body.rfind(b"\n") + 1
                    # At least one byte of the last line stays.
                    path.write_bytes(body[:max(start + 1, len(body) - op[1])])
                    if not torn:
                        expected.pop()
                        torn = True
                if isinstance(op, int):
                    doc = tagged[op]
                    assert store.append(doc) == len(expected) + 1
                    expected.append((doc.source, list(doc.entities)))
                    torn = False
                else:
                    store.close()
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        store = CorpusStore(path)
                    assert len(caught) == torn
                assert [(d.doc_id, d.text, d.entities) for d in store.documents()] \
                    == [(i, text, ents) for i, (text, ents) in enumerate(expected, 1)]
                assert_queries_match_scan(store)
        finally:
            store.close()


def write_gold(tmp_path, text):
    path = tmp_path / "gold.tsv"
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadGold:
    def test_two_documents(self, tmp_path):
        path = write_gold(tmp_path,
                          "اويس\tPERSON\nويو\tO\n\nڪراچي\tLOCATION\n")
        corpus = load_gold(path)
        assert len(corpus.documents) == 2
        assert corpus.documents[0] == GoldDocument(
            ("اويس", "ويو"), ("PERSON", "O"))
        assert corpus.token_count == 3

    def test_docstart_lines_skipped(self, tmp_path):
        path = write_gold(tmp_path,
                          "-DOCSTART-\nاويس\tPERSON\n\n-DOCSTART-\tO\nويو\tO\n")
        corpus = load_gold(path)
        assert corpus.token_count == 2

    def test_bom_tolerated(self, tmp_path):
        path = tmp_path / "gold.tsv"
        path.write_bytes("﻿اويس\tPERSON\n".encode("utf-8"))
        assert load_gold(path).token_count == 1

    def test_multiple_blank_lines(self, tmp_path):
        path = write_gold(tmp_path, "اويس\tPERSON\n\n\n\nويو\tO\n\n\n")
        assert len(load_gold(path).documents) == 2

    def test_malformed_line(self, tmp_path):
        path = write_gold(tmp_path, "اويس\tPERSON\nbroken line\n")
        with pytest.raises(MalformedLine) as err:
            load_gold(path)
        assert err.value.lineno == 2

    def test_three_fields_malformed(self, tmp_path):
        path = write_gold(tmp_path, "اويس\tPERSON\textra\n")
        with pytest.raises(MalformedLine):
            load_gold(path)

    def test_unknown_label(self, tmp_path):
        path = write_gold(tmp_path, "اويس\tPERSONN\n")
        with pytest.raises(UnknownLabel) as err:
            load_gold(path)
        assert err.value.lineno == 1

    def test_empty_file(self, tmp_path):
        path = write_gold(tmp_path, "\n\n")
        with pytest.raises(EmptyCorpus):
            load_gold(path)

    def test_bundled_corpus_token_count(self):
        path = DATA_DIR / "mini_gold.tsv"
        corpus = load_gold(path)
        data_lines = [
            line for line in path.read_text("utf-8").splitlines()
            if line.strip() and not line.split("\t")[0].strip() == "-DOCSTART-"]
        assert corpus.token_count == len(data_lines)
        assert corpus.token_count >= 100


class TestScoring:
    def test_exact_counts(self):
        gold = [["PERSON", "O", "LOCATION", "O"]]
        pred = [["PERSON", "PERSON", "O", "O"]]
        report = score_labels(gold, pred)
        assert (report.total_tokens, report.correct_tokens) == (4, 2)
        person = report.per_label["PERSON"]
        assert (person.tp, person.fp, person.fn) == (1, 1, 0)
        location = report.per_label["LOCATION"]
        assert (location.tp, location.fp, location.fn) == (0, 0, 1)

    def test_substitution_counts_both_ways(self):
        # A PERSON token predicted LOCATION is an fp for LOCATION and an
        # fn for PERSON.
        report = score_labels([["PERSON"]], [["LOCATION"]])
        assert report.per_label["LOCATION"].fp == 1
        assert report.per_label["PERSON"].fn == 1
        assert report.correct_tokens == 0

    def test_precision_recall_f1(self):
        score = LabelScore(tp=3, fp=1, fn=2)
        assert score.precision == 0.75
        assert score.recall == 0.6
        assert abs(score.f1 - 2 * 0.75 * 0.6 / 1.35) < 1e-12

    def test_zero_denominators(self):
        score = LabelScore()
        assert (score.precision, score.recall, score.f1) == (0.0, 0.0, 0.0)

    def test_accuracy_display(self):
        assert EvalReport(10, 9).accuracy_display == "90.00%"
        assert EvalReport(936, 924).accuracy_display == "98.72%"
        assert EvalReport(3, 3).accuracy_display == "100.00%"
        # 100 * correct / total, not 100 * accuracy, which gives 58.13%.
        assert EvalReport(2880, 1674).accuracy_display == "58.12%"

    def test_no_scored_token_displays_zero(self):
        for report in (score_labels([], []), score_labels([[]], [[]]), EvalReport(0, 0)):
            assert (report.accuracy, report.accuracy_display) == (0.0, "0.00%")
            assert report.to_dict()["accuracy"] == "0.00%"

    def test_length_mismatch(self):
        with pytest.raises(TokenizationMismatch):
            score_labels([["O", "O"]], [["O"]])

    def test_document_count_mismatch(self):
        # zip would drop the unpartnered document and its LOCATION miss.
        for gold, predicted in (([["PERSON", "O"], ["LOCATION"]], [["PERSON", "O"]]),
                                ([["O"]], [["O"], ["PERSON"]])):
            with pytest.raises(TokenizationMismatch) as err:
                score_labels(gold, predicted)
            assert str(err.value) == (f"document counts differ: {len(gold)} gold vs "
                                      f"{len(predicted)} predicted")

    def test_report_to_dict(self):
        report = score_labels([["PERSON", "O"]], [["PERSON", "O"]])
        payload = report.to_dict()
        assert payload["total_tokens"] == 2
        assert payload["accuracy"] == "100.00%"
        assert payload["labels"]["PERSON"]["tp"] == 1

    def test_predicted_labels(self, engine):
        doc = engine.tag_text("اويس ڪراچي ويو")
        assert predicted_labels(doc) == ["PERSON", "LOCATION", "O"]


class TestEvaluate:
    def test_bundled_corpus_fully_correct(self, engine):
        corpus = load_gold(DATA_DIR / "mini_gold.tsv")
        report = evaluate(engine, corpus)
        assert report.correct_tokens == report.total_tokens
        assert report.accuracy_display == "100.00%"

    def test_empty_corpus(self, engine):
        with pytest.raises(EmptyCorpus):
            evaluate(engine, GoldCorpus(()))

    def test_label_mismatch(self, engine):
        corpus = GoldCorpus((GoldDocument(("اويس",), ("NOT_A_LABEL",)),))
        with pytest.raises(LabelMismatch, match="document 1"):
            evaluate(engine, corpus)

    def test_tokenization_mismatch(self, engine):
        # A gold token with attached punctuation splits under the engine
        # tokenizer, so the corpora cannot be aligned.
        corpus = GoldCorpus((GoldDocument(("اويس،", "ويو"), ("PERSON", "O")),))
        with pytest.raises(TokenizationMismatch, match="document 1"):
            evaluate(engine, corpus)

    def test_partially_wrong_gold(self, engine):
        corpus = GoldCorpus((
            GoldDocument(("اويس", "ويو"), ("PERSON", "PERSON")),))
        report = evaluate(engine, corpus)
        assert (report.total_tokens, report.correct_tokens) == (2, 1)
        assert report.per_label["PERSON"].fn == 1
