"""Engine assembly, tagging, conflict resolution, and rendering."""

import gc
import inspect
import json
import os
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from sindhi_ner import pipeline
from sindhi_ner.corpus import load_gold
from sindhi_ner.errors import (
    ConfigError, InvalidInput, MalformedLine, MissingDataFile, UnknownFormat)
from sindhi_ner.gazetteer import (
    SINGLE_WORD_CATEGORIES, Category, _normalize_words, lookup_longest)
from sindhi_ner.pipeline import (
    DATA_DIR,
    DEFAULT_CONFIG_PATH,
    Engine,
    EngineConfig,
    EntitySpan,
    RENDER_FORMATS,
    TaggedDocument,
    _CASCADE,
    _collect,
    build_engine,
    entity_from_dict,
    load_config,
    parse_jsonl,
    render,
    resolve_conflicts,
    select_proposals,
)
from sindhi_ner.rules import (
    DIRECT_LABELS, LABEL_VALUE, RULE_VALUE, SPAN_CAPS, Proposal, RuleId, RuleSet, TagLabel,
    sort_key)
from sindhi_ner.text import (
    EDGE_SPECIALS, NUMBER, WORD, TokenStream, normalize_whitespace, tokenize)

from test_acceptance import GOLDEN


def entity_to_dict(e: EntitySpan) -> dict:
    """The jsonl object of one entity, keys in the writer's order: the
    reference the jsonl writer is checked against."""
    token_start, token_end, start_byte, end_byte, label, rule, surface = e
    return {
        "start_byte": start_byte,
        "end_byte": end_byte,
        "token_start": token_start,
        "token_end": token_end,
        "label": LABEL_VALUE[label],
        "rule": RULE_VALUE[rule],
        "surface": surface,
    }


def write_config(tmp_path, extra_gazetteer=None, extra_lines=()):
    """Copy of the default config with absolute paths, plus overrides."""
    base = EngineConfig.default()
    gazetteers = [str(p) for p in base.gazetteers]
    if extra_gazetteer is not None:
        gazetteers.append(str(extra_gazetteer))
    lines = [
        "gazetteers=" + ",".join(gazetteers),
        f"suffixes={base.suffixes}",
        f"stopwords={base.stopwords}",
        f"months={base.months}",
        f"letters={base.letters}",
        f"synonyms={base.synonyms}",
    ]
    lines.extend(extra_lines)
    path = tmp_path / "engine.conf"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestLoadConfig:
    def test_default_config(self):
        config = load_config(DEFAULT_CONFIG_PATH)
        assert len(config.gazetteers) == 11
        assert all(p.parent == DATA_DIR for p in config.gazetteers)
        assert config.suffixes.name == "suffixes.tsv"
        assert config.synonyms is not None

    def test_relative_paths_resolve_against_config_dir(self, tmp_path):
        (tmp_path / "g.tsv").write_text("اويس\tPersonFirstName\n", "utf-8")
        for name in ("suffixes", "stopwords", "months", "letters"):
            (tmp_path / f"{name}.tsv").write_text("", "utf-8")
        path = tmp_path / "c.conf"
        # An empty edge_specials or synonyms value, like an absent key,
        # keeps the field's default.
        for extra in ("", "edge_specials=\nsynonyms=\n"):
            path.write_text(
                "gazetteers=g.tsv\nsuffixes=suffixes.tsv\nstopwords=stopwords.tsv\n"
                "months=months.tsv\nletters=letters.tsv\n" + extra, "utf-8")
            config = load_config(path)
            assert config.gazetteers == (tmp_path / "g.tsv",)
            assert config.stopwords == tmp_path / "stopwords.tsv"
            assert config.edge_specials == EDGE_SPECIALS
            assert config.synonyms is None

    def test_rule_flags_and_priorities(self, tmp_path):
        path = write_config(tmp_path, extra_lines=(
            "rule.R6_Postposition=off", "priority.R10_OrgKeyword=42"))
        config = load_config(path)
        assert config.rule_flags == {RuleId.R6_Postposition: False}
        assert config.priorities == {RuleId.R10_OrgKeyword: 42}

    def test_readme_example_loads_as_documented(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")
        section = readme.split("\n## Configuration\n", 1)[1]
        block = section.split("```\n", 2)[1]
        path = tmp_path / "engine.conf"
        path.write_text(block, "utf-8")
        config = load_config(path)
        assert config.edge_specials == EDGE_SPECIALS
        assert config.synonyms == tmp_path / "synonyms.tsv"
        assert config.rule_flags[RuleId.R6_Postposition] is False
        assert config.priorities[RuleId.R10_OrgKeyword] == 42

    def test_flag_spellings(self, tmp_path):
        for value, expected in (("on", True), ("true", True), ("1", True),
                                ("yes", True), ("off", False),
                                ("false", False), ("0", False), ("no", False)):
            path = write_config(tmp_path, extra_lines=(
                f"rule.R2_Suffix={value}",))
            assert load_config(path).rule_flags[RuleId.R2_Suffix] is expected

    def test_unknown_key(self, tmp_path):
        path = write_config(tmp_path, extra_lines=("bogus=1",))
        with pytest.raises(ConfigError, match="bogus"):
            load_config(path)

    def test_unknown_rule_name(self, tmp_path):
        path = write_config(tmp_path, extra_lines=("rule.R99_Nope=on",))
        with pytest.raises(ConfigError, match="R99_Nope"):
            load_config(path)

    def test_bad_flag_value(self, tmp_path):
        path = write_config(tmp_path, extra_lines=("rule.R2_Suffix=maybe",))
        with pytest.raises(ConfigError, match="maybe"):
            load_config(path)

    def test_bad_priority_value(self, tmp_path):
        path = write_config(tmp_path, extra_lines=("priority.R2_Suffix=high",))
        with pytest.raises(ConfigError, match="integer"):
            load_config(path)

    def test_line_without_equals(self, tmp_path):
        path = tmp_path / "c.conf"
        path.write_text("gazetteers\n", "utf-8")
        with pytest.raises(ConfigError, match="key=value"):
            load_config(path)

    def test_missing_required_key(self, tmp_path):
        path = tmp_path / "c.conf"
        path.write_text("suffixes=s.tsv\nstopwords=w.tsv\n"
                        "months=m.tsv\nletters=l.tsv\n", "utf-8")
        with pytest.raises(ConfigError, match="gazetteers"):
            load_config(path)

    @pytest.mark.parametrize("line, error", [
        ("edge_specials=", None),
        ("synonyms=", None),
        ("rule.R2_Suffix=", "expected on/off"),
        ("priority.R2_Suffix=", "integer"),
        *[(f"{key}=", f"missing required key '{key}'")
          for key in ("gazetteers", "suffixes", "stopwords", "months", "letters")]])
    def test_empty_values(self, tmp_path, line, error):
        # A later line sets the key again, so the empty value is the one read.
        path = write_config(tmp_path, extra_lines=(line,))
        if error is None:
            key = line[:-1]
            assert getattr(load_config(path), key) == EngineConfig._field_defaults[key]
        else:
            with pytest.raises(ConfigError, match=error):
                load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(MissingDataFile):
            load_config(tmp_path / "absent.conf")

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = write_config(tmp_path, extra_lines=("", "# comment"))
        load_config(path)


class TestBuildEngine:
    def test_the_engine_reads_its_gazetteer_from_its_rules(self, engine):
        assert list(inspect.signature(Engine).parameters) == ["config", "rules", "synonyms"]
        assert engine.gaz is engine.rules.gaz

    def test_default_rules_all_enabled(self, engine):
        assert sum(engine.enabled.values()) == len(RuleId) == 12

    def test_missing_gazetteer_file(self, tmp_path):
        ghost = tmp_path / "ghost.tsv"
        config = EngineConfig.default().with_gazetteers(
            [*EngineConfig.default().gazetteers, ghost])
        with pytest.raises(MissingDataFile) as err:
            build_engine(config)
        assert str(ghost) in str(err.value)

    def test_disabled_rule_never_fires(self, tmp_path, engine):
        path = write_config(tmp_path, extra_lines=("rule.R6_Postposition=off",))
        muted = build_engine(load_config(path))
        assert not muted.enabled[RuleId.R6_Postposition]
        text = "شفقت جي ڪتاب وٺي آيو"
        assert any(e.rule is RuleId.R6_Postposition
                   for e in engine.tag_text(text).entities)
        assert not muted.tag_text(text).entities

    def test_all_rules_disabled(self, tmp_path):
        path = write_config(tmp_path, extra_lines=tuple(
            f"rule.{rule.name}=off" for rule in RuleId))
        inert = build_engine(load_config(path))
        assert not any(inert.enabled.values())
        doc = inert.tag_text("اويس جمائي 05.06.2016 تي سنڌ يونيورسٽي ويو")
        assert doc.entities == ()
        assert doc.untagged == tuple(range(len(doc.tokens)))

    def test_data_surfaces_take_the_configured_edge_specials(self, tmp_path):
        # With "." no edge special, the token U.N. has the norm "u.n.",
        # and so must the entry.
        extra = tmp_path / "extra.tsv"
        extra.write_text("U.N.\tAbbreviation\n", "utf-8")
        specials = EDGE_SPECIALS.replace(".", "")
        path = write_config(tmp_path, extra_gazetteer=extra,
                            extra_lines=[f"edge_specials={specials}"])
        doc = build_engine(load_config(path)).tag_text("U.N. ۾")
        assert [(e.surface, e.label) for e in doc.entities] == \
            [("U.N.", TagLabel.ABBREVIATION)]


class TestTagText:
    def test_composite_sentence(self, engine):
        doc = engine.tag_text("اويس جمائي 05.06.2016 تي سنڌ يونيورسٽي ويو")
        got = [(e.label, e.rule, e.token_start, e.token_end, e.surface)
               for e in doc.entities]
        assert got == [
            (TagLabel.PERSON, RuleId.R3_GazetteerName, 0, 2, "اويس جمائي"),
            (TagLabel.DATE, RuleId.R1_DateTime, 2, 3, "05.06.2016"),
            (TagLabel.ORGANIZATION, RuleId.R10_OrgKeyword, 4, 6,
             "سنڌ يونيورسٽي"),
        ]
        assert doc.untagged == (3, 6)

    def test_a_document_stores_its_tokens_and_entities_only(self, engine):
        doc = engine.tag_text("اويس جمائي 05.06.2016 تي سنڌ يونيورسٽي ويو")
        fields = list(TaggedDocument._fields)
        assert fields == ["tokens", "entities"]
        assert doc.source is doc.tokens.source
        assert doc.untagged == (3, 6)
        assert doc.untagged is not doc.untagged  # worked out on each read

    def test_empty_input(self, engine):
        doc = engine.tag_text("")
        assert (doc.source, len(doc.tokens), doc.entities, doc.untagged) == \
            ("", 0, (), ())

    def test_whitespace_only_input(self, engine):
        assert engine.tag_text("  \t\n ").entities == ()

    def test_date_and_time(self, engine):
        doc = engine.tag_text("هو 07 جولاءِ 2016 تي صبح 10:40 تي پهتو")
        labels = [(e.label, e.token_end - e.token_start) for e in doc.entities]
        assert (TagLabel.DATE, 3) in labels
        assert (TagLabel.TIME, 1) in labels

    def test_url_and_email(self, engine):
        doc = engine.tag_text(
            "وڌيڪ ڄاڻ http://nlp.cs.nyu.edu تي ۽ awaisjumani@yahoo.com تي لکو")
        assert {e.label for e in doc.entities} == {TagLabel.URL, TagLabel.EMAIL}

    def test_normalization_collapses_whitespace(self, engine):
        doc = engine.tag_text("  اويس \t جمائي \n ويو ")
        assert doc.source == "اويس جمائي ويو"
        assert doc.entities[0].surface == "اويس جمائي"

    def test_surface_matches_byte_slice(self, engine):
        doc = engine.tag_text("ڊاڪٽر شاهده ميمڻ ڪراچي وئي")
        raw = doc.source.encode("utf-8")
        for e in doc.entities:
            assert raw[e.start_byte:e.end_byte].decode("utf-8") == e.surface

    def test_synonym_normalization(self, engine):
        # The Urdu-keyboard spelling maps onto the canonical keyword, so
        # the org rule still fires; the surface keeps the original bytes.
        doc = engine.tag_text("سنڌ يونيورسٹي ۾ پڙهي ٿو")
        org = [e for e in doc.entities if e.label is TagLabel.ORGANIZATION]
        assert len(org) == 1 and org[0].surface == "سنڌ يونيورسٹي"

    def test_edge_punctuation_outside_entities(self, engine):
        doc = engine.tag_text("اويس، ڪراچي ويو")
        person = doc.entities[0]
        assert person.surface == "اويس"

    @pytest.mark.parametrize("text", [
        "اويس \ud800 ويو",                 # most surfaces new: classified whole
        "اويس ويو " * 4 + "\udfff",      # most surfaces known: the new one alone
    ])
    def test_text_utf8_cannot_encode_is_invalid_input(self, engine, text):
        engine.tag_text("اويس ويو")
        with pytest.raises(InvalidInput) as err:
            engine.tag_text(text)
        assert err.value.code == "invalid-input"
        assert isinstance(err.value.__cause__, UnicodeEncodeError)
        assert engine.tag_text("اويس ويو").entities

    def test_determinism(self, engine):
        text = "جي اي مهر صاحب 05.06.2016 تي ڪراچي ۾ وزير اعظم سان مليو"
        first = engine.tag_text(text)
        second = engine.tag_text(text)
        assert first == second

    @settings(max_examples=200, deadline=None)
    @given(st.text(
        alphabet=st.characters(blacklist_categories=("Cs",)), max_size=80))
    def test_partition_invariant(self, engine, raw):
        doc = engine.tag_text(raw)
        tagged = []
        for e in doc.entities:
            assert 0 <= e.token_start < e.token_end <= len(doc.tokens)
            tagged.extend(range(e.token_start, e.token_end))
        combined = sorted(tagged + list(doc.untagged))
        assert combined == list(range(len(doc.tokens)))
        assert len(set(tagged)) == len(tagged)


class TestMonotonicity:
    def test_gazetteer_entry_cannot_displace_date(self, engine, tmp_path):
        text = "گاڏي 05.06.2016 تي ايندي"
        baseline = [(e.label, e.token_start, e.token_end)
                    for e in engine.tag_text(text).entities]
        assert (TagLabel.DATE, 1, 2) in baseline
        extra = tmp_path / "extra.tsv"
        extra.write_text("05.06.2016\tLocation\n", "utf-8")
        augmented = build_engine(load_config(write_config(
            tmp_path, extra_gazetteer=extra)))
        got = [(e.label, e.token_start, e.token_end)
               for e in augmented.tag_text(text).entities]
        assert (TagLabel.DATE, 1, 2) in got

    def test_gazetteer_entry_cannot_displace_url(self, engine, tmp_path):
        text = "ڏسو www.sindhila.org تي"
        extra = tmp_path / "extra.tsv"
        extra.write_text("www.sindhila.org\tTerm\n", "utf-8")
        augmented = build_engine(load_config(write_config(
            tmp_path, extra_gazetteer=extra)))
        got = [(e.label, e.token_start) for e in
               augmented.tag_text(text).entities]
        assert (TagLabel.URL, 1) in got

    def test_added_entry_can_shorten_a_person_span(self, engine, tmp_path):
        # The README's rule section: a direct match inside a longer, weaker
        # span wins, and the rest of that span is left untagged.
        text = "اويس جمائي ڪراچي ويو"
        assert render(engine.tag_text(text), "inline") == \
            "<PERSON>اويس جمائي</PERSON> <LOCATION>ڪراچي</LOCATION> ويو"
        extra = tmp_path / "extra.tsv"
        extra.write_text("جمائي\tLocation\n", "utf-8")
        augmented = build_engine(load_config(write_config(
            tmp_path, extra_gazetteer=extra)))
        assert render(augmented.tag_text(text), "inline") == \
            "اويس <LOCATION>جمائي</LOCATION> <LOCATION>ڪراچي</LOCATION> ويو"


# The golden sentences and the documents of the bundled gold corpus.
COVERAGE_TEXTS = [text for text, _ in GOLDEN if text] + [
    " ".join(doc.tokens) for doc in load_gold(DATA_DIR / "mini_gold.tsv").documents]

_SHAPED = (TagLabel.DATE, TagLabel.TIME, TagLabel.URL, TagLabel.EMAIL)


def shaped_spans(doc):
    return {(e.token_start, e.token_end, e.label)
            for e in doc.entities if e.label in _SHAPED}


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_added_entry_keeps_date_time_url_email_spans(engine, data):
    # With the default priorities, one more gazetteer entry of any category,
    # made of one to three adjacent words of the text, removes no date,
    # time, URL or email span.
    text = data.draw(st.sampled_from(COVERAGE_TEXTS))
    before = engine.tag_text(text)
    surfaces = before.tokens.surfaces
    start = data.draw(st.integers(0, len(surfaces) - 1))
    stop = data.draw(st.integers(start + 1, min(start + 3, len(surfaces))))
    category = data.draw(st.sampled_from(list(Category)))
    surface = " ".join(surfaces[start:stop])
    try:
        words = _normalize_words("entry", 1, surface)
    except MalformedLine:
        assume(False)
    assume(len(words) == 1 or category not in SINGLE_WORD_CATEGORIES)
    assume(words not in engine.gaz.match_index(frozenset((category,)))[1])
    with tempfile.TemporaryDirectory() as tmp:
        extra = Path(tmp) / "extra.tsv"
        extra.write_text(f"{surface}\t{category.value}\n", "utf-8")
        config = EngineConfig.default()
        augmented = build_engine(config.with_gazetteers([*config.gazetteers, extra]))
    assert shaped_spans(before) <= shaped_spans(augmented.tag_text(text))


class TestResolveConflicts:
    def test_stronger_priority_wins_overlap(self):
        stream = tokenize("اويس جمائي ويو")
        keep = Proposal(0, 2, TagLabel.PERSON, RuleId.R3_GazetteerName, 2)
        drop = Proposal(1, 2, TagLabel.PERSON, RuleId.R4_SurnameTrigger, 4)
        spans = resolve_conflicts([drop, keep], stream)
        assert [(s.token_start, s.token_end, s.rule) for s in spans] == \
            [(0, 2, RuleId.R3_GazetteerName)]

    def test_disjoint_spans_all_kept(self):
        stream = tokenize("اويس ويو ڪراچي")
        a = Proposal(0, 1, TagLabel.PERSON, RuleId.R3_GazetteerName, 2)
        b = Proposal(2, 3, TagLabel.LOCATION, RuleId.R_GazetteerDirect, 0)
        spans = resolve_conflicts([a, b], stream)
        assert [s.token_start for s in spans] == [0, 2]

    def test_longer_span_wins_priority_tie(self):
        stream = tokenize("اويس جمائي ويو")
        short = Proposal(1, 2, TagLabel.PERSON, RuleId.R3_GazetteerName, 2)
        long = Proposal(0, 2, TagLabel.PERSON, RuleId.R3_GazetteerName, 2)
        spans = resolve_conflicts([short, long], stream)
        assert [(s.token_start, s.token_end) for s in spans] == [(0, 2)]

    def test_result_sorted_by_start(self):
        stream = tokenize("اويس ويو ڪراچي ڏانهن")
        a = Proposal(2, 3, TagLabel.LOCATION, RuleId.R_GazetteerDirect, 0)
        b = Proposal(0, 1, TagLabel.PERSON, RuleId.R3_GazetteerName, 2)
        spans = resolve_conflicts([a, b], stream)
        assert [s.token_start for s in spans] == [0, 2]

    def test_empty_proposals(self):
        assert resolve_conflicts([], tokenize("اويس")) == ()

    def test_byte_spans_cover_token_range(self):
        stream = tokenize("اويس جمائي ويو")
        spans = resolve_conflicts(
            [Proposal(0, 2, TagLabel.PERSON, RuleId.R3_GazetteerName, 2)],
            stream)
        span = spans[0]
        assert span.start_byte == stream[0].span[0]
        assert span.end_byte == stream[1].span[1]
        assert span.surface == "اويس جمائي"

    def test_one_token_entities_share_the_token_surface(self):
        stream = tokenize("(اويس) جمائي، ڪراچي ويو")
        spans = resolve_conflicts(
            [Proposal(1, 2, TagLabel.PERSON, RuleId.R3_GazetteerName, 2),
             Proposal(3, 6, TagLabel.LOCATION, RuleId.R_GazetteerDirect, 0)],
            stream)
        assert [s.surface for s in spans] == ["اويس", "جمائي، ڪراچي"]
        assert spans[0].surface is stream.surfaces[1]


class TestRender:
    def test_inline(self, engine):
        doc = engine.tag_text("اويس جمائي 05.06.2016 تي سنڌ يونيورسٽي ويو")
        assert render(doc, "inline") == (
            "<PERSON>اويس جمائي</PERSON> <DATE>05.06.2016</DATE> تي "
            "<ORGANIZATION>سنڌ يونيورسٽي</ORGANIZATION> ويو")

    def test_inline_source_utf8_cannot_encode_is_invalid_input(self, engine):
        doc = engine.tag_text("اويس ويو")
        t = doc.tokens
        forged = doc._replace(tokens=TokenStream(doc.source + " \ud800", t.surfaces, t.starts,
                                                 t.ends, t.norms, t.kinds))
        with pytest.raises(InvalidInput) as err:
            render(forged, "inline")
        assert err.value.code == "invalid-input"
        assert str(err.value) == "text holds '\\ud800', which UTF-8 cannot encode"
        assert isinstance(err.value.__cause__, UnicodeEncodeError)

    def test_inline_no_entities(self, engine):
        doc = engine.tag_text("هو گهر ويو")
        assert render(doc, "inline") == "هو گهر ويو"

    def test_tabular(self, engine):
        doc = engine.tag_text("اويس ڪراچي ويو")
        assert render(doc, "tabular").splitlines() == [
            "اويس\tPERSON", "ڪراچي\tLOCATION", "ويو\tO"]

    def test_tabular_empty_document(self, engine):
        assert render(engine.tag_text(""), "tabular") == ""

    def test_jsonl_round_trip(self, engine):
        doc = engine.tag_text("اويس جمائي 05.06.2016 تي سنڌ يونيورسٽي ويو")
        line = render(doc, "jsonl")
        parsed = parse_jsonl(line)
        assert len(parsed) == 1
        text, entities = parsed[0]
        assert text == doc.source
        assert tuple(entities) == doc.entities

    def test_jsonl_is_single_line_json(self, engine):
        line = render(engine.tag_text("اويس ويو"), "jsonl")
        assert "\n" not in line
        payload = json.loads(line)
        assert set(payload) == {"text", "entities"}

    def test_jsonl_entity_field_order(self, engine):
        doc = engine.tag_text("اويس ويو")
        payload = json.loads(render(doc, "jsonl"))
        assert list(payload["entities"][0]) == [
            "start_byte", "end_byte", "token_start", "token_end",
            "label", "rule", "surface"]

    def test_entity_dict_round_trip(self, engine):
        doc = engine.tag_text("اويس جمائي ويو")
        for entity in doc.entities:
            assert entity_from_dict(entity_to_dict(entity)) == entity
            assert type(entity_from_dict(entity_to_dict(entity))) is EntitySpan

    @pytest.mark.parametrize("field, value", [
        ("label", "PERSONN"), ("label", "R1_DateTime"), ("label", ["PERSON"]),
        ("rule", "R0"), ("rule", "PERSON"), ("rule", None)])
    def test_entity_from_dict_rejects_unknown_values(self, engine, field, value):
        d = entity_to_dict(engine.tag_text("اويس ويو").entities[0])
        d[field] = value
        with pytest.raises(ValueError):
            entity_from_dict(d)

    def test_unknown_format(self, engine):
        with pytest.raises(UnknownFormat):
            render(engine.tag_text("اويس"), "xml")

    def test_format_registry(self):
        assert RENDER_FORMATS == ("inline", "tabular", "jsonl")


class TestPriorityOverride:
    def test_override_changes_winner(self, tmp_path, engine):
        # Demoting the gazetteer-name rule below the surname rule flips
        # which proposal wins the overlap on a two-token person name.
        text = "اويس جمائي ويو"
        base = engine.tag_text(text).entities[0]
        assert base.rule is RuleId.R3_GazetteerName
        path = write_config(tmp_path, extra_lines=(
            "priority.R3_GazetteerName=50",))
        demoted = build_engine(load_config(path))
        got = demoted.tag_text(text).entities[0]
        assert got.rule is RuleId.R4_SurnameTrigger
        assert (got.token_start, got.token_end) == (0, 2)


# --------------------------------------------------------------------------
# Fast paths against simple references
# --------------------------------------------------------------------------

def documented_key(p):
    """Strongest first: priority, longer span, leftmost start, rule
    declaration order, label value."""
    return (p.priority, p.start - p.end, p.start, list(RuleId).index(p.rule),
            p.label.value)


def greedy_reference(proposals):
    """Every proposal strongest first; take each that overlaps nothing taken."""
    taken, occupied = [], set()
    for p in sorted(proposals, key=documented_key):
        span = range(p.start, p.end)
        if all(j not in occupied for j in span):
            taken.append(p)
            occupied.update(span)
    taken.sort(key=lambda p: p.start)
    return taken


proposal_lists = st.lists(
    st.builds(lambda start, length, label, rule, priority:
              Proposal(start, start + length, label, rule, priority),
              st.integers(0, 30), st.integers(1, 4), st.sampled_from(TagLabel),
              st.sampled_from(RuleId), st.integers(-2, 12)),
    max_size=40)


@settings(max_examples=300, deadline=None)
@given(proposal_lists)
def test_selection_matches_sorted_greedy(proposals):
    assert select_proposals(proposals) == greedy_reference(proposals)
    assert sorted(proposals, key=sort_key) == sorted(proposals, key=documented_key)


def collect_reference(engine, stream):
    """The cascade as one plain scan per rule over every position, with
    the coverage gates updated after each proposal."""
    rules, on, gaz = engine.rules, engine.enabled, engine.gaz
    norms, kinds, surfaces = stream.norms, stream.kinds, stream.surfaces
    positions = range(len(stream))
    blockers = {RuleId.R1_DateTime, RuleId.R2_Suffix, RuleId.R3_GazetteerName,
                RuleId.R4_SurnameTrigger, RuleId.R5_TitleDesignation}
    proposals, covered, blocked, shapes = [], set(), set(), set()

    def push(p):
        proposals.append(p)
        covered.update(range(p.start, p.end))
        if p.rule in blockers:
            blocked.update(range(p.start, p.end))

    def starts(*categories):
        return {e.words[0] for e in gaz.entries() if e.category in categories}

    def pri(rule):
        return rules.priorities[rule]

    for i in positions:
        p = None
        if on[RuleId.R1_DateTime] and kinds[i] == NUMBER:
            p = rules.match_datetime(stream, i)
        s = surfaces[i]
        if p is None and on[RuleId.R_UrlEmail] and (
                "://" in s or "@" in s or s[:4].lower() == "www."):
            p = rules.match_url_email(stream, i)
        if p is not None:
            push(p)
            shapes.update(range(p.start, p.end))
    for i in positions:
        if on[RuleId.R_GazetteerDirect] and norms[i] in starts(*DIRECT_LABELS):
            hit = lookup_longest(gaz, stream, i, DIRECT_LABELS)
            if hit and not shapes & set(range(i, i + hit[1])):
                push(Proposal(i, i + hit[1], DIRECT_LABELS[hit[0].category],
                              RuleId.R_GazetteerDirect, pri(RuleId.R_GazetteerDirect)))
    for i in positions:
        if on[RuleId.R5_TitleDesignation] and norms[i] in starts(
                Category.Title, Category.Designation):
            for p in rules.match_title_designation(stream, i):
                push(p)
    for i in positions:
        if on[RuleId.R4_SurnameTrigger] and norms[i] in starts(Category.Surname):
            p = rules.match_surname_trigger(stream, i)
            if p:
                push(p)
    for i in positions:
        if (on[RuleId.R2_Suffix] and kinds[i] == WORD and i not in covered
                and (norms[i] in rules.person_markers
                     or norms[i].endswith(rules.suffix_endings))):
            p = rules.match_suffix(stream, i)
            if p:
                push(p)
    for i in positions:
        if on[RuleId.R3_GazetteerName] and norms[i] in starts(Category.PersonFirstName):
            hit = lookup_longest(gaz, stream, i, (Category.PersonFirstName,))
            if hit:
                push(Proposal(i, i + hit[1], TagLabel.PERSON,
                              RuleId.R3_GazetteerName, pri(RuleId.R3_GazetteerName)))
    for i in positions:
        if on[RuleId.R8_Initials] and norms[i] in rules.letters:
            p = rules.match_initials(stream, i)
            if p:
                push(p)
    ambiguous = (gaz.single_token_norms(Category.AmbiguousName)
                 | gaz.single_token_norms(Category.PersonFirstName))
    for i in positions:
        if on[RuleId.R6_Postposition] and norms[i] in ambiguous and i not in blocked:
            p = rules.resolve_postposition(stream, i)
            if p:
                push(p)
    for i in positions:
        if on[RuleId.R7_NumberWords] and norms[i] in rules.number_words:
            p = rules.match_number_words(stream, i)
            if p:
                push(p)
    by_initials = {j for p in proposals if p.rule is RuleId.R8_Initials
                   for j in range(p.start, p.end)}
    for i in positions:
        if on[RuleId.R9_Abbreviation] and (
                (norms[i] in rules.letters and i not in by_initials)
                or norms[i] in starts(Category.Abbreviation)):
            p = rules.match_abbreviation(stream, i)
            if p:
                push(p)
    before_orgs = frozenset(covered)
    for i in positions:
        if on[RuleId.R10_OrgKeyword] and norms[i] in rules.org_keywords:
            p = rules.match_org_keyword(stream, i, before_orgs)
            if p:
                push(p)
    return proposals


def reference_stream(engine, source):
    """``tokenize`` with the engine's synonym map applied to the norms."""
    stream = tokenize(source, engine.config.edge_specials)
    syn = engine.synonyms
    return TokenStream(stream.source, stream.surfaces, stream.starts, stream.ends,
                       tuple(syn.get(n, n) for n in stream.norms), stream.kinds)


def reference_bits(engine, stream):
    """Each token's gate bits, one plain test per bit."""
    rules = engine.rules
    bits = []
    for norm, kind in zip(stream.norms, stream.kinds):
        bit = engine._gates.get(norm, 0)
        if kind == NUMBER:
            bit |= pipeline._NUMERAL
        if "://" in norm or "@" in norm or norm.startswith("www."):
            bit |= pipeline._SHAPE
        if kind == WORD and (norm in rules.person_markers
                             or norm.endswith(rules.suffix_endings)):
            bit |= pipeline._SUFFIX
        bits.append(bit)
    return bits


def engine_tokens(engine, text):
    """The engine's token stream and gate bits for ``text``, checked
    against ``tokenize`` and the plain per-bit tests."""
    source = normalize_whitespace(text)
    stream, bits = engine._tokens(source)
    assert stream == reference_stream(engine, source), text
    assert list(bits) == reference_bits(engine, stream), text
    return stream, bits


@pytest.fixture(scope="module")
def engines(engine, tmp_path_factory):
    """The default engine; one whose ambiguous names also take a person
    suffix (rule 2 then mutes rule 6) or are a month, a surname or an org
    keyword (a date or a surname span then mutes rule 6, and rule 6 can
    claim the keyword), and whose direct entries include a month and a
    URL (a date or a URL then mutes the direct match); one whose suffix
    table makes a month name end in a location suffix (a date then mutes
    rule 2); and variants whose disabled rules lift gates."""
    tmp = tmp_path_factory.mktemp("engines")
    extra = tmp / "extra.tsv"
    extra.write_text("".join(f"{word}\tAmbiguousName\n"
                             for word in ("سعيداد", "مارچ", "مهر", "بينڪ"))
                     + "جون\tTerm\nwww.sindhila.org\tOrganization\n", "utf-8")
    variants = [engine, build_engine(load_config(write_config(tmp, extra_gazetteer=extra)))]
    directory = tmp / "suffixes"
    directory.mkdir()
    suffixes = directory / "suffixes.tsv"
    suffixes.write_text((DATA_DIR / "suffixes.tsv").read_text("utf-8")
                        + "رچ\tLocationSuffix\n", "utf-8")
    path = write_config(directory, extra_lines=[f"suffixes={suffixes}"])
    variants.append(build_engine(load_config(path)))
    for k, off in enumerate((
            ("R1_DateTime", "R_UrlEmail", "R8_Initials"),
            ("R_GazetteerDirect", "R5_TitleDesignation", "R4_SurnameTrigger"),
            ("R2_Suffix", "R3_GazetteerName"))):
        directory = tmp / str(k)
        directory.mkdir()
        path = write_config(directory, extra_lines=[f"rule.{r}=off" for r in off])
        variants.append(build_engine(load_config(path)))
    return variants


# Batches of surfaces new to the engine, classified together: a person
# marker, a word ending in a listed suffix, both, neither, and each beside
# a URL or an email address; with whether a norm in them ends in a suffix
# or is a marker on the default engine.
CLASSIFY_BATCHES = (
    ("حسن", True),
    ("شڪارپور", True),
    ("حسن شڪارپور", True),
    ("ڪتاب پڙهيو", False),
    ("حسن www.sindhila.org", True),
    ("شڪارپور info@sindh.pk", True),
    ("حسن شڪارپور http://nlp.cs.nyu.edu", True),
    ("ڪتاب info@sindh.pk", False),
)


def test_classify_batches_match_reference_bits(engines):
    for engine in engines:
        for text, suffixed in CLASSIFY_BATCHES:
            fresh = Engine(engine.config, engine.rules, engine.synonyms)
            _, bits = engine_tokens(fresh, text)
            assert len(fresh._memo) == len(text.split())
            if engine is engines[0]:
                assert any(b & pipeline._SUFFIX for b in bits) is suffixed, text


# Letter-name shapes that the R8/R9 next-token gates admit or reject: a
# run of letters before a surname, a bare run, one letter before a
# surname, and a letter that ends the text.
LETTER_RUNS = ["جي جي مهر", "اي بي", "اي مهر", "هو ويو جي"]


def cascade_vocabulary(engine):
    """Norms that open some rule's scan gate, plus the shapes around them."""
    rules = engine.rules
    words = set(engine._gates) | rules.months | rules.person_markers
    words |= {"جي", "سال", "تي", "۾", "ويو", "خيرپور", "اسلام‌آباد", "لسانيات",
              "سعيداد"}
    words |= {"05.06.2016", "15", "2016", "10:40", "99:99", "http://a.b",
              "www.sindhila.org", "x@y.com", "۔", "،", "(", ")", "KTN"}
    words |= set(LETTER_RUNS)
    return sorted(words)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_collect_matches_reference(engines, data):
    vocabulary = cascade_vocabulary(engines[0])
    words = data.draw(st.lists(st.sampled_from(vocabulary), max_size=30))
    engine = data.draw(st.sampled_from(engines))
    stream, bits = engine_tokens(engine, " ".join(words))
    assert sorted(_collect(engine, stream, bits), key=sort_key) == \
        sorted(collect_reference(engine, stream), key=sort_key)


@contextmanager
def recorded_matcher_calls():
    """Wrap each cascade matcher on RuleSet, as the bench's hooks do, and
    yield the list of ``(matcher, position)`` calls made meanwhile."""
    calls = []
    saved = {name: getattr(RuleSet, name) for name in {row.matcher for row in _CASCADE}}

    def wrap(name, fn):
        def wrapper(self, stream, start, *claims):
            calls.append((name, start))
            return fn(self, stream, start, *claims)
        return wrapper

    try:
        for name, fn in saved.items():
            setattr(RuleSet, name, wrap(name, fn))
        yield calls
    finally:
        for name, fn in saved.items():
            setattr(RuleSet, name, fn)


def reference_matcher_calls(engine, stream, bits):
    """The ``(matcher, position)`` calls of the cascade as the ``_Row``
    docstring states it: each row, unless a bit of ``needs`` is missing
    from the text or its rule is off, visits every position in order and
    calls its matcher where the token carries ``free``, or carries
    ``gate``, the next token (0 past the end) a bit of ``then``, and no
    ``blocked_by`` proposal covers the position."""
    present = 0
    for b in bits:
        present |= b
    calls, spans = [], {}
    for row in _CASCADE:
        if not engine.enabled[row.rule] or (present & row.needs) != row.needs:
            continue
        claimed = set()
        for rule in row.blocked_by:
            claimed |= spans.get(rule, set())
        matcher = getattr(engine.rules, row.matcher)
        made = []
        for i in range(len(bits)):
            follow = bits[i + 1] if i + 1 < len(bits) else 0
            if not (bits[i] & row.free or (
                    bits[i] & row.gate and (not row.then or follow & row.then)
                    and i not in claimed)):
                continue
            calls.append((row.matcher, i))
            found = matcher(stream, i, claimed) if row.takes_claims else matcher(stream, i)
            if found:
                made += found if row.many else [found]
        if made:
            spans[row.rule] = {k for p in made for k in range(p.start, p.end)}
    return calls


def assert_calls_match_reference(engine, text):
    # Equal call sequences keep every matcher's call and hit counts.
    stream, bits = engine_tokens(engine, text)
    expected = reference_matcher_calls(engine, stream, bits)
    with recorded_matcher_calls() as calls:
        _collect(engine, stream, bits)
    assert calls == expected, text


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_collect_calls_each_matcher_where_the_reference_does(engines, data):
    vocabulary = cascade_vocabulary(engines[0])
    words = data.draw(st.lists(st.sampled_from(vocabulary), max_size=30))
    assert_calls_match_reference(data.draw(st.sampled_from(engines)), " ".join(words))


def test_collect_calls_on_fixed_cases(engines):
    # The empty text, a text that ends in a letter name, and a listed
    # short form (ڊي ڊي) that starts inside the initials (0, 4).
    stream, bits = engine_tokens(engines[0], "ڊي ڊي آر مهر")
    assert (0, 4, RuleId.R8_Initials) in {(p.start, p.end, p.rule)
                                          for p in _collect(engines[0], stream, bits)}
    assert bits[1] & pipeline._ABBREVIATION
    for engine in engines:
        for text in ["", "هو ويو جي", "ڊي ڊي آر مهر", *GATED]:
            assert_calls_match_reference(engine, text)


# Words that open no scan gate in any of the ``engines`` variants.
FILLER = ["هو", "گهر", "ويو", "آيو", "ته", "پر", "اهو", "ڪم", "۽", "،"]


def assert_collect_matches_reference(engine, text):
    stream, bits = engine_tokens(engine, text)
    got = _collect(engine, stream, bits)
    assert sorted(got, key=sort_key) == \
        sorted(collect_reference(engine, stream), key=sort_key), text
    return got


def test_filler_opens_no_gate(engines):
    for engine in engines:
        for word in FILLER:
            stream = tokenize(word)
            assert not engine._gates.keys() & set(stream.norms), word
            assert assert_collect_matches_reference(engine, word) == [], word


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_collect_matches_reference_on_sparse_text(engines, data):
    # Mostly filler, with at most two words that open a gate: most
    # documents open no gate or exactly one, so most phases are skipped.
    words = data.draw(st.lists(st.sampled_from(FILLER), max_size=12))
    vocabulary = cascade_vocabulary(engines[0])
    for word in data.draw(st.lists(st.sampled_from(vocabulary), max_size=2)):
        words.insert(data.draw(st.integers(0, len(words))), word)
    engine = data.draw(st.sampled_from(engines))
    assert_collect_matches_reference(engine, " ".join(words))


def short_documents(engine):
    """One- and two-token texts that open one or two gates: every gate
    norm alone and before the genitive, and every ordered pair of one
    norm per gate bit, plus shapes that open no norm gate."""
    gates = engine._gates
    bits = [1 << k for k in range(max(gates.values()).bit_length())]
    # Per bit, a norm that carries only that bit if there is one.
    chosen = [min((n for n in gates if gates[n] & bit),
                  key=lambda n: (gates[n] != bit, n)) for bit in bits]
    texts = list(gates) + [f"{n} جي" for n in gates]
    texts += [f"{a} {b}" for a in chosen for b in chosen]
    texts += [f"{n} {FILLER[0]}" for n in chosen] + [f"{FILLER[0]} {n}" for n in chosen]
    texts += ["2016", "10:40", "05.06.2016", "15 جون", "2016 سال", "99:99",
              "http://a.b", "www.sindhila.org", "x@y.com", "خيرپور",
              "اسلام‌آباد", "سعيداد", "سعيداد جي", "", " ", " \t\n "]
    return texts, bits


def test_collect_matches_reference_on_short_documents(engines):
    for engine in engines:
        texts, bits = short_documents(engine)
        assert len(bits) == 9  # one bit per gated rule family
        for text in texts:
            assert_collect_matches_reference(engine, text)
            stream = tokenize(normalize_whitespace(text), engine.config.edge_specials)
            assert resolve_conflicts([], stream) == ()


# Sentences where one rule's coverage decides whether another fires.
GATED = [
    "سعيداد جي ڪتاب",             # suffix rule mutes rule 6
    "شفقت جي ڪتاب",               # rule 6 unmuted
    "اويس جي گهر",                # gazetteer name mutes rule 6
    "جي اي مهر ۽ ڪي ٽي اين",       # initials mute the abbreviation run
    "05.06.2016 ڪراچي يونيورسٽي",  # shape, direct match, org keyword
    "وزير اعظم زرداري بينڪ",        # title coverage stops the org extension
    "اي بي سي ڊي مهر",             # R9 skips initials' starts only: (0,3) beside (1,5)
    "ڊي ڊي آر مهر",               # a listed short form starts inside initials
    "x@y.پور",                    # an email mutes the suffix rule
    "ڊاڪٽر شفقت جي",               # a title's person mutes rule 6
    "15 مارچ جي",                 # a date mutes rule 6
    "هو 15 مارچ تي آيو",           # a date mutes the suffix rule
    "اويس مهر جي",                # a surname span mutes rule 6
    "جي اي مهر جي",               # initials do not mute rule 6
    "بينڪ جي",                    # rule 6 claims the org keyword
    "15 مارچ يونيورسٽي",           # a date stops the org extension
    "جي اي مهر بينڪ",              # initials stop the org extension
    "www.sindhila.org بينڪ",       # a URL stops the org extension, mutes a direct match
    "15 جون 2016",                # a date mutes a direct match
    "ڊاڪٽر سعيداد آيو",            # a title's person mutes the suffix rule
    *LETTER_RUNS,                  # the R8/R9 next-token gates
]


def test_collect_matches_reference_on_gold(engines):
    texts = [" ".join(doc.tokens)
             for doc in load_gold(DATA_DIR / "mini_gold.tsv").documents]
    for text in texts + GATED:
        for engine in engines:
            stream, bits = engine_tokens(engine, text)
            assert sorted(_collect(engine, stream, bits), key=sort_key) == \
                sorted(collect_reference(engine, stream), key=sort_key)


# Texts on which a row of ``_collect`` skips a step, each with the
# matcher that shows it and whether the default engine calls that matcher.
SKIPS = [
    # Every letter name fails ``then`` (R8, R9); the last one ends the text.
    ("جي گهر مهر جي", "match_initials", False),
    ("جي گهر مهر جي", "match_abbreviation", False),
    # Blockers that made nothing (R2, R6).
    ("خيرپور", "match_suffix", True),
    ("شفقت جي ڪتاب", "resolve_postposition", True),
    # Blockers that claimed every start: the initials (R9) and a title's
    # person (R6).
    ("جي اي مهر", "match_abbreviation", False),
    ("ڊاڪٽر شفقت جي", "resolve_postposition", False),
    # A free start with no gated start, and free starts that are also
    # gated starts (R9).
    ("ڪم وغيره", "match_abbreviation", True),
    ("ڊي ڊي آر", "match_abbreviation", True),
]


class _RecordedCascade:
    """``_CASCADE`` that records each time a loop starts over it."""

    def __init__(self, rows):
        self.rows, self.loops = rows, 0

    def __iter__(self):
        self.loops += 1
        return iter(self.rows)


def test_collect_skips_on_fixed_cases(engines, monkeypatch):
    default = engines[0]
    for text, matcher, called in SKIPS:
        row = next(row for row in _CASCADE if row.matcher == matcher)
        stream, bits = engine_tokens(default, text)
        assert any(b & (row.gate | row.free) for b in bits), text
        with recorded_matcher_calls() as calls:
            _collect(default, stream, bits)
        assert (matcher in {name for name, _ in calls}) == called, (text, matcher)
    # A gated start beside free starts, and free starts with no gated start.
    assert engine_tokens(default, "ڊي ڊي آر")[1][0] & pipeline._LETTER
    assert not any(b & pipeline._LETTER for b in engine_tokens(default, "ڪم وغيره")[1])
    # A document with no candidate position skips the cascade.
    cascade = _RecordedCascade(_CASCADE)
    monkeypatch.setattr(pipeline, "_CASCADE", cascade)
    for engine in engines:
        assert not any(engine_tokens(engine, " ".join(FILLER))[1])
        assert assert_collect_matches_reference(engine, " ".join(FILLER)) == []
        assert_calls_match_reference(engine, " ".join(FILLER))
    assert cascade.loops == 0
    texts = sorted({text for text, _, _ in SKIPS})
    for engine in engines:
        for text in texts:
            assert_calls_match_reference(engine, text)
            assert_collect_matches_reference(engine, text)
    assert cascade.loops == 2 * len(engines) * len(texts)


def test_each_tag_text_call_enters_the_traced_layers_once(engine, monkeypatch):
    # The traced bench wraps ``pipeline.normalize_whitespace`` and
    # ``pipeline.resolve_conflicts`` and reports their time per MB: each
    # tag_text call enters each exactly once, whether the text has tokens,
    # candidate positions or proposals or not.
    entered = []
    for name in ("normalize_whitespace", "resolve_conflicts"):
        def wrapper(*args, name=name, fn=getattr(pipeline, name)):
            entered.append(name)
            return fn(*args)
        monkeypatch.setattr(pipeline, name, wrapper)
    # No token, no candidate position, a candidate but no proposal, and
    # proposals.
    texts = ["", " \t ", " ".join(FILLER), "جي گهر", "ڊاڪٽر شفقت جي"]
    tokens = [engine._tokens(normalize_whitespace(text)) for text in texts]
    assert [any(bits) for _, bits in tokens] == [False, False, False, True, True]
    assert [bool(_collect(engine, *pair)) for pair in tokens] == \
        [False, False, False, False, True]
    for text in texts:
        entered.clear()
        engine.tag_text(text)
        assert entered == ["normalize_whitespace", "resolve_conflicts"], text


# The rules whose proposals block rule 6.
R1_TO_R5 = {RuleId.R1_DateTime, RuleId.R2_Suffix, RuleId.R3_GazetteerName,
            RuleId.R4_SurnameTrigger, RuleId.R5_TitleDesignation}


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_rule_6_never_fires_where_rules_1_to_5_proposed(engines, data):
    vocabulary = cascade_vocabulary(engines[0]) + ["سعيداد جي", "15 مارچ جي", "اويس مهر جي"]
    words = data.draw(st.lists(st.sampled_from(vocabulary), max_size=30))
    engine = data.draw(st.sampled_from(engines))
    proposals = _collect(engine, *engine._tokens(normalize_whitespace(" ".join(words))))
    claimed = {i for p in proposals if p.rule in R1_TO_R5 for i in range(p.start, p.end)}
    for p in proposals:
        if p.rule is RuleId.R6_Postposition:
            assert claimed.isdisjoint(range(p.start, p.end)), (words, p)


# A surname of two and one of three words, and texts that put a word or
# a letter-name run before each: spans that would pass the caps.
LONG_SURNAMES = ("زڪو بلو مرو", "ڀٽو زرداري")
CAP_TEXTS = ["ڪالهه اڪرم زڪو بلو مرو آيو", "جي اي بي زڪو بلو مرو آيو",
             "اڪرم ڀٽو زرداري", "اي بي سي ڀٽو زرداري", "جي زڪو بلو مرو"]


@pytest.fixture(scope="module")
def cap_engines(engines, tmp_path_factory):
    """The ``engines`` variants and one whose surnames include
    ``LONG_SURNAMES``."""
    tmp = tmp_path_factory.mktemp("surnames")
    extra = tmp / "surnames.tsv"
    extra.write_text("".join(f"{name}\tSurname\n" for name in LONG_SURNAMES), "utf-8")
    return engines + [build_engine(load_config(write_config(tmp, extra_gazetteer=extra)))]


def test_rules_4_and_8_keep_to_their_caps(cap_engines):
    engine = cap_engines[-1]

    def spans(text, rule):
        proposals = _collect(engine, *engine_tokens(engine, text))
        return [(p.start, p.end) for p in proposals if p.rule is rule]

    # The word before a surname joins the span only if it fits in three.
    assert spans(CAP_TEXTS[0], RuleId.R4_SurnameTrigger) == [(2, 5)]
    assert spans(CAP_TEXTS[2], RuleId.R4_SurnameTrigger) == [(0, 3)]
    # Initials start only at the letters from which they fit in four.
    assert spans(CAP_TEXTS[1], RuleId.R8_Initials) == [(2, 6)]
    assert spans(CAP_TEXTS[3], RuleId.R8_Initials) == [(1, 5), (2, 5)]
    assert spans(CAP_TEXTS[4], RuleId.R8_Initials) == [(0, 4)]


def test_rule_4_leaves_a_surname_inside_a_longer_one_to_its_start(cap_engines):
    # ``زرداري`` is a surname of its own and the tail of ``ڀٽو زرداري``:
    # the longer surname's start, after a letter name, makes no R4 span,
    # so the initials take the letters before it.
    engine = cap_engines[-1]
    assert render(engine.tag_text("بي سي ڀٽو زرداري"), "inline") == \
        "<PERSON>بي سي ڀٽو زرداري</PERSON>"
    assert render(engine.tag_text("اي بي سي ڀٽو زرداري"), "inline") == \
        "اي <PERSON>بي سي ڀٽو زرداري</PERSON>"
    # A word that only starts a longer surname is an ordinary word before
    # the surname after it.
    proposals = _collect(engine, *engine_tokens(engine, "زڪو مهر"))
    assert [(p.start, p.end) for p in proposals if p.rule is RuleId.R4_SurnameTrigger] \
        == [(0, 2)]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_every_proposal_keeps_to_its_span_cap(cap_engines, data):
    vocabulary = cascade_vocabulary(cap_engines[0])
    words = data.draw(st.lists(st.one_of(st.sampled_from(vocabulary),
                                         st.sampled_from(CAP_TEXTS)), max_size=30))
    engine = data.draw(st.sampled_from(cap_engines))
    for p in _collect(engine, *engine._tokens(normalize_whitespace(" ".join(words)))):
        assert p.end - p.start <= SPAN_CAPS[p.rule], (words, p)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_a_priority_override_reorders_resolution_as_documented(engines, data):
    # With ``priority.R=p``, every proposal of R carries p, and the
    # entities are the documented greedy pass over the proposals.
    base = data.draw(st.sampled_from(engines))
    rule = data.draw(st.sampled_from(RuleId))
    priority = data.draw(st.integers(-2, 12))
    engine = build_engine(base.config._replace(
        priorities={**base.config.priorities, rule: priority}))
    words = data.draw(st.lists(st.sampled_from(cascade_vocabulary(base)), max_size=30))
    text = " ".join(words)
    proposals = _collect(engine, *engine._tokens(normalize_whitespace(text)))
    assert [p for p in proposals if p.rule is rule and p.priority != priority] == []
    assert [(e.token_start, e.token_end, e.label, e.rule)
            for e in engine.tag_text(text).entities] == \
        [(p.start, p.end, p.label, p.rule) for p in greedy_reference(proposals)]


def test_cascade_runs_each_rule_once_after_its_blockers():
    order = [row.rule for row in pipeline._CASCADE]
    assert sorted(order, key=list(RuleId).index) == list(RuleId)
    for k, row in enumerate(pipeline._CASCADE):
        assert row.blocked_by <= set(order[:k]), row.rule
        assert callable(getattr(RuleSet, row.matcher)), row.matcher


def fixed_texts(engine):
    """``GATED``, the gold sentences and ``short_documents``."""
    gold = [" ".join(doc.tokens) for doc in load_gold(DATA_DIR / "mini_gold.tsv").documents]
    return GATED + gold + short_documents(engine)[0]


def test_every_cascade_cell_changes_what_is_collected(engines, monkeypatch):
    # Removing a ``blocked_by`` member or the ``free`` gate of a row
    # changes the proposals on some fixed text of some variant.  ``then``
    # and ``needs`` only skip starts whose matcher would find nothing, so
    # removing either changes none.
    inputs = [(engine, engine_tokens(engine, text))
              for engine in engines for text in fixed_texts(engine)]

    def collected():
        return [sorted(_collect(engine, *tokens), key=sort_key) for engine, tokens in inputs]

    expected = collected()
    cascade = pipeline._CASCADE
    mutants = []
    for k, row in enumerate(cascade):
        for member in sorted(row.blocked_by, key=list(RuleId).index):
            mutants.append((f"{row.rule.name} blocked by {member.name}", k,
                            row._replace(blocked_by=row.blocked_by - {member}), True))
        for gate in ("free", "then", "needs"):
            if getattr(row, gate):
                mutants.append((f"{row.rule.name} {gate}", k,
                                row._replace(**{gate: 0}), gate == "free"))
    assert len(mutants) == 28
    wrong = []
    for name, k, mutant, changes in mutants:
        monkeypatch.setattr(pipeline, "_CASCADE", cascade[:k] + (mutant,) + cascade[k + 1:])
        if (collected() != expected) != changes:
            wrong.append(name)
    assert wrong == [], wrong


def test_bench_hooks_count_every_matcher(engine, monkeypatch):
    # The traced benchmark wraps RuleSet methods after build_engine, so
    # the cascade must look its matchers up on the engine's RuleSet.  It
    # also wraps pipeline.tokenize, pipeline.lookup_longest and the other
    # module functions it names, each of which must still resolve.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    from spans import MATCHERS, Hooks, Recorder

    texts = [" ".join(doc.tokens)
             for doc in load_gold(DATA_DIR / "mini_gold.tsv").documents]
    recorder = Recorder()
    hooks = Hooks(recorder)
    hooks.install()
    try:
        for text in texts + GATED:
            engine.tag_text(text)
    finally:
        hooks.remove()
    assert hooks.missing == []
    assert [m for m in MATCHERS if not recorder.calls[f"rules.{m}"]] == []


@pytest.fixture(scope="module")
def rule_off_engines(tmp_path_factory):
    """One engine per rule, built from a config that switches that rule off."""
    tmp = tmp_path_factory.mktemp("rule_off")
    engines = {}
    for rule in RuleId:
        directory = tmp / rule.name
        directory.mkdir()
        path = write_config(directory, extra_lines=[f"rule.{rule.name}=off"])
        engines[rule] = build_engine(load_config(path))
    return engines


def test_a_rule_switched_off_leaves_the_texts_it_fires_on(engine, rule_off_engines):
    # Each rule tags some coverage text when on, and none when off.
    texts = COVERAGE_TEXTS + GATED
    for rule, muted in rule_off_engines.items():
        assert any(e.rule is rule for t in texts for e in engine.tag_text(t).entities), rule
        assert not any(e.rule is rule for t in texts for e in muted.tag_text(t).entities), rule


@pytest.mark.parametrize("rule", list(RuleId), ids=lambda rule: rule.name)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_a_rule_switched_off_tags_nothing(engine, rule_off_engines, rule, data):
    words = data.draw(st.lists(st.sampled_from(cascade_vocabulary(engine)), max_size=30))
    doc = rule_off_engines[rule].tag_text(" ".join(words))
    assert [e for e in doc.entities if e.rule is rule] == []


def test_tagging_builds_nothing():
    # A RuleSet builds every word set and gazetteer lookup index that
    # tagging reads when it is constructed, so tagging adds none of them.
    engine = build_engine()
    indexes = set(engine.gaz._indexes)
    fields = dict(vars(engine.rules))
    for text in COVERAGE_TEXTS:
        engine.tag_text(text)
    assert set(engine.gaz._indexes) == indexes
    assert vars(engine.rules) == fields


# --------------------------------------------------------------------------
# The surface memo
# --------------------------------------------------------------------------

@pytest.fixture(scope="module")
def memo_engines(engines, tmp_path_factory):
    """The ``engines`` variants, and one whose edge specials leave out ۔."""
    tmp = tmp_path_factory.mktemp("specials")
    specials = EDGE_SPECIALS.replace("۔", "")
    path = write_config(tmp, extra_lines=[f"edge_specials={specials}"])
    return engines + [build_engine(load_config(path))]


def memo_words(engine):
    """Cascade words, synonym variants, edge-punctuation shapes, and
    arbitrary text."""
    pool = cascade_vocabulary(engine) + sorted(engine.synonyms)
    pool += ["۔x", "x۔", "ڪراچى۔", "(ڪراچى)", "(ڪراچي)،", "x،(y)", "ABC", "ΑΣ", "İx"]
    return st.one_of(st.sampled_from(pool), st.text(max_size=6))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_tagged_tokens_match_tokenize(memo_engines, data):
    engine = data.draw(st.sampled_from(memo_engines))
    words = data.draw(st.lists(memo_words(engine), max_size=20))
    extra = data.draw(st.lists(memo_words(engine), max_size=2))
    text = " ".join(words)
    # Cold or warm, then mostly warm with a few new surfaces, then warm.
    for raw in (text, " ".join(words + extra), text):
        source = normalize_whitespace(raw)
        assert engine.tag_text(raw).tokens == reference_stream(engine, source)
        engine_tokens(engine, raw)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_jsonl_reads_back_the_source_and_spans(engines, data):
    engine = data.draw(st.sampled_from(engines))
    words = data.draw(st.lists(memo_words(engine), max_size=20))
    doc = engine.tag_text(" ".join(words))
    [(source, entities)] = parse_jsonl(render(doc, "jsonl"))
    assert source == doc.source
    encoded = source.encode()
    stream = tokenize(source, engine.config.edge_specials)
    spans = list(zip(stream.starts, stream.ends))
    for e in entities:
        assert encoded[e.start_byte:e.end_byte].decode() == e.surface
        inside = [i for i, (start, end) in enumerate(spans)
                  if e.start_byte <= start and end <= e.end_byte]
        assert inside == list(range(e.token_start, e.token_end))
        assert (spans[e.token_start][0], spans[e.token_end - 1][1]) == \
            (e.start_byte, e.end_byte)


def test_multi_token_chunks_match_tokenize(memo_engines):
    # A glued chunk repeated within one text, then one first seen in a
    # later text whose other chunks the memo knows, then all known.
    texts = ("(ڪراچي)، ويو (ڪراچي)، x۔", "(ڪراچي)، ويو [KTN]۔ x۔", "[KTN]۔ (ڪراچي)، ويو")
    for engine in memo_engines:
        fresh = build_engine(engine.config)
        for text in texts:
            engine_tokens(fresh, text)


def test_a_fresh_engine_classifies_each_new_chunk_once():
    engine = build_engine()
    classify = engine._classify
    calls = []

    def counting(surfaces):
        calls.append(list(surfaces))
        return classify(surfaces)

    engine._classify = counting
    for text in ("x، (x) x", "x y x x y z", "z x w w y", "(w)، z، (y", "x، z w (y"):
        engine.tag_text(text)
    # One call per text with new chunks, over the surfaces of its distinct
    # new chunks in order, known surfaces too; none for a text whose
    # chunks are all known.
    assert calls == [["x", "،", "(", "x", ")", "x"], ["y", "z"], ["w"],
                     ["(", "w", ")", "،", "z", "،", "(", "y"]]


def test_the_memo_holds_the_distinct_chunks_of_the_texts_tagged():
    engine = build_engine()
    texts = ["(ڪراچي)، ويو  (ڪراچي)،", "\tويو x۔ y", "", "x۔ (ڪراچي)، z"]
    for text in texts:
        engine.tag_text(text)
    assert set(engine._memo) == {c for t in texts for c in t.split()}


def test_the_token_pattern_runs_once_over_the_new_chunks():
    engine = build_engine()
    split = engine._split
    cut = []

    def counting(text):
        cut.append(text)
        return split(text)

    engine._split = counting
    engine.tag_text("x، (x) x x، y")
    engine.tag_text("y x x، (x) y")
    engine.tag_text("w y (x) w x،")
    # One split per text with unseen chunks, over each of them once,
    # after the space before it; none for a text whose chunks are known.
    assert cut == [" x، (x) x y", " w"]


def flood(count):
    """Three gold sentences in turn, each time with two surfaces no other
    text holds: the memo knows most surfaces of each text but one."""
    sentences = [" ".join(doc.tokens)
                 for doc in load_gold(DATA_DIR / "mini_gold.tsv").documents[:3]]
    return [f"{sentences[k % 3]} w{k}x v{k}۔" for k in range(count)]


def test_memo_stays_within_its_cap(monkeypatch):
    texts = flood(400) + [t.upper() for t in flood(40)]
    reference = build_engine()
    expected = [render(reference.tag_text(t), "jsonl") for t in texts]
    monkeypatch.setattr(pipeline, "_MEMO_CAP", 64)
    engine = build_engine()
    sizes = []
    for text, want in zip(texts, expected):
        assert render(engine.tag_text(text), "jsonl") == want
        sizes.append(len(engine._memo))
    assert max(sizes) <= 64
    # The texts hold far more distinct surfaces than the cap, so the
    # memo was cleared many times.
    assert sum(b < a for a, b in zip(sizes, sizes[1:])) > 10


def test_threads_share_an_engine(monkeypatch):
    texts = flood(300)
    expected = [render(build_engine().tag_text(t), "jsonl") for t in texts]
    monkeypatch.setattr(pipeline, "_MEMO_CAP", 64)
    engine = build_engine()
    workers = min(8, (os.cpu_count() or 1) + 1)   # more threads than cores
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)   # switch threads often, inside the memo code
    try:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            got = list(pool.map(lambda t: render(engine.tag_text(t), "jsonl"),
                                texts, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert got == expected
    assert len(engine._memo) <= 64


# --------------------------------------------------------------------------
# The collector pause in tag_text
# --------------------------------------------------------------------------

@pytest.fixture()
def collector_enabled():
    """Start the test with the cyclic collector on; restore its state after."""
    was = gc.isenabled()
    gc.enable()
    yield
    (gc.enable if was else gc.disable)()


def megabyte_document() -> str:
    """The criterion-7 document: the gold sentences repeated to 1 MB."""
    chunk = " ۔ ".join(" ".join(doc.tokens)
                       for doc in load_gold(DATA_DIR / "mini_gold.tsv").documents)
    text = chunk
    while len(text.encode("utf-8")) < 1_000_000:
        text += " ۔ " + chunk
    return text


def long_text():
    """A text long enough to reach the pause's gate."""
    return "اويس ڪراچي ويو " * gc.get_threshold()[0]


class TestCollectorPause:
    def test_enabled_collector_stays_enabled(self, engine, collector_enabled):
        engine.tag_text(long_text())
        assert gc.isenabled()

    def test_disabled_collector_stays_disabled(self, engine, collector_enabled):
        gc.disable()
        engine.tag_text(long_text())
        assert not gc.isenabled()

    def test_collector_enabled_after_an_exception(self, engine, monkeypatch,
                                                  collector_enabled):
        def fail(engine, stream, bits):
            assert not gc.isenabled()  # inside the paused region
            raise RuntimeError("boom")
        monkeypatch.setattr(pipeline, "_collect", fail)
        with pytest.raises(RuntimeError, match="boom"):
            engine.tag_text(long_text())
        assert gc.isenabled()

    def test_no_collection_while_tagging_the_megabyte(self, engine,
                                                      collector_enabled):
        text = megabyte_document()
        started = []

        def hook(phase, info):
            if phase == "start":
                started.append(info["generation"])
        gc.collect()
        gc.callbacks.append(hook)
        try:
            engine.tag_text(text)
        finally:
            gc.callbacks.remove(hook)
        assert started == []


def test_tagging_makes_no_reference_cycles(engines, collector_enabled):
    # The pause is safe because tag_text leaves no cyclic garbage: with
    # the collector off throughout, a full collection finds nothing.
    texts = [megabyte_document(), "", "   ", "۔ ۔",
             "هو 07 جولاءِ 2016 تي 10:40 تي http://nlp.cs.nyu.edu ۽ "
             "awaisjumani@yahoo.com تي لکي ٿو"]
    texts += [" ".join(doc.tokens)
              for doc in load_gold(DATA_DIR / "mini_gold.tsv").documents]
    gc.disable()
    gc.collect()
    for engine in engines:
        for text in texts:
            render(engine.tag_text(text), "jsonl")
    assert gc.collect() == 0
