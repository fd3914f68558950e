"""Store round-trips, gold-corpus loading, and token-level scoring."""

import itertools
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from sindhi_ner.corpus import (
    CorpusStore,
    EvalReport,
    GoldCorpus,
    GoldDocument,
    LabelScore,
    evaluate,
    load_gold,
    predicted_labels,
    query,
    score_labels,
    store_document,
)
from sindhi_ner.errors import (
    CorruptStore,
    EmptyCorpus,
    LabelMismatch,
    MalformedLine,
    TokenizationMismatch,
    UnknownLabel,
)
from sindhi_ner.pipeline import DATA_DIR, entity_to_dict, render

from test_acceptance import GOLDEN


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

    def test_documents_ordered_by_id(self, store, engine):
        for text in SAMPLES:
            store.append(engine.tag_text(text))
        assert [d.doc_id for d in store.documents()] == [1, 2, 3, 4, 5]

    def test_lines_match_json_dumps(self, tmp_path, engine):
        # The render line and the store line of each golden sentence are
        # json.dumps of the same record, byte for byte.
        path = tmp_path / "corpus.jsonl"
        records = []
        with CorpusStore(path) as st:
            for text, _ in GOLDEN:
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

    def test_free_function_forms(self, store, engine):
        doc_id = store_document(store, engine.tag_text(SAMPLES[0]))
        assert doc_id == 1
        assert query(store, label="DATE") == store.query(label="DATE")

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


# One step of a store's life: append one of SAMPLES, reopen, or strip the
# file's final newline and reopen.
_STORE_OPS = st.one_of(st.sampled_from(range(len(SAMPLES))),
                       st.sampled_from(("reopen", "unterminate")))


@settings(max_examples=60, deadline=None)
@given(st.lists(_STORE_OPS, max_size=12))
def test_appends_and_reopens_preserve_records(engine, ops):
    tagged = [engine.tag_text(text) for text in SAMPLES]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "corpus.jsonl"
        expected = []
        store = CorpusStore(path)
        try:
            for op in ops:
                if op == "unterminate" and path.exists():
                    path.write_bytes(path.read_bytes().rstrip(b"\n"))
                if op in ("reopen", "unterminate"):
                    store.close()
                    store = CorpusStore(path)
                else:
                    doc = tagged[op]
                    assert store.append(doc) == len(expected) + 1
                    expected.append((doc.source, list(doc.entities)))
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

    def test_length_mismatch(self):
        with pytest.raises(TokenizationMismatch):
            score_labels([["O", "O"]], [["O"]])

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
