"""Gazetteer tests: loading, validation errors, longest-match lookup.

brute_force_lookup is the independent oracle for lookup_longest; the
acceptance suite reuses it over 500 random gazetteers.
"""

import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from sindhi_ner.errors import DuplicateEntry, MalformedLine, MissingDataFile, UnknownCategory
from sindhi_ner.gazetteer import (
    Category,
    Gazetteer,
    GazetteerEntry,
    MAX_ENTRY_WORDS,
    _normalize_words,
    gazetteer_stats,
    load_gazetteer,
    load_suffix_table,
    load_word_list,
    lookup_longest,
    read_lines,
    validate_sources,
)
from sindhi_ner.text import EDGE_SPECIALS, PUNCTUATION, tokenize

CATEGORY_ORDER = list(Category)


def make_gazetteer(specs):
    """specs: list of (surface, Category) with pre-normalized surfaces."""
    entries = [
        GazetteerEntry(surface=s, words=tuple(s.split()), category=c,
                       source=f"mem:{i}")
        for i, (s, c) in enumerate(specs)
    ]
    return Gazetteer(entries)


def brute_force_lookup(gaz, tokens, i, categories=None):
    """Reference longest-match: scan every entry at every window size."""
    cats = None if categories is None else set(categories)
    best = None
    for entry in gaz.entries():
        k = len(entry.words)
        if i + k > len(tokens):
            continue
        if cats is not None and entry.category not in cats:
            continue
        if tuple(t.norm for t in tokens[i:i + k]) != entry.words:
            continue
        rank = (-k, CATEGORY_ORDER.index(entry.category))
        if best is None or rank < best[0]:
            best = (rank, entry, k)
    return None if best is None else (best[1], best[2])


class TestLoad:
    def test_two_entries(self, tmp_path):
        f = tmp_path / "g.tsv"
        f.write_text("خيرپور\tLocation\nجمائي\tSurname\n", encoding="utf-8")
        gaz = load_gazetteer([f])
        assert len(gaz) == 2
        stats = gazetteer_stats(gaz)
        assert stats[Category.Location] == 1
        assert stats[Category.Surname] == 1
        assert stats[Category.Brand] == 0

    def test_empty_file_list(self):
        gaz = load_gazetteer([])
        assert len(gaz) == 0
        stream = tokenize("اويس")
        assert lookup_longest(gaz, stream, 0) is None

    def test_duplicate_rejected(self, tmp_path):
        f = tmp_path / "g.tsv"
        f.write_text("اويس\tPersonFirstName\nاويس\tPersonFirstName\n",
                     encoding="utf-8")
        with pytest.raises(DuplicateEntry) as exc:
            load_gazetteer([f])
        assert exc.value.lineno == 2

    def test_same_surface_two_categories_ok(self, tmp_path):
        f = tmp_path / "g.tsv"
        f.write_text("مراد\tPersonFirstName\nمراد\tLocation\n", encoding="utf-8")
        assert len(load_gazetteer([f])) == 2

    def test_malformed_line(self, tmp_path):
        f = tmp_path / "g.tsv"
        f.write_text("اويس\n", encoding="utf-8")
        with pytest.raises(MalformedLine) as exc:
            load_gazetteer([f])
        assert exc.value.lineno == 1

    def test_unknown_category(self, tmp_path):
        f = tmp_path / "g.tsv"
        f.write_text("اويس\tNames\n", encoding="utf-8")
        with pytest.raises(UnknownCategory):
            load_gazetteer([f])

    def test_four_word_surface_rejected(self, tmp_path):
        f = tmp_path / "g.tsv"
        f.write_text("ا ب ت ث\tLocation\n", encoding="utf-8")
        with pytest.raises(MalformedLine):
            load_gazetteer([f])

    def test_comments_and_blanks_skipped(self, tmp_path):
        f = tmp_path / "g.tsv"
        f.write_text("# heading\n\nاويس\tPersonFirstName\n", encoding="utf-8")
        assert len(load_gazetteer([f])) == 1

    def test_surfaces_normalized_on_load(self, tmp_path):
        f = tmp_path / "g.tsv"
        f.write_text("(KTN)\tAbbreviation\n", encoding="utf-8")
        gaz = load_gazetteer([f])
        entry = next(gaz.entries())
        assert entry.surface == "ktn"

    def test_cross_file_duplicate_names_first_file(self, tmp_path):
        a = tmp_path / "a.tsv"
        b = tmp_path / "b.tsv"
        a.write_text("اويس\tPersonFirstName\n", encoding="utf-8")
        b.write_text("اويس\tPersonFirstName\n", encoding="utf-8")
        with pytest.raises(DuplicateEntry) as exc:
            load_gazetteer([a, b])
        assert str(a) in str(exc.value)


# Specials sets: the default, the default without the Urdu full stop or
# with a space, a few ASCII marks, one holding ZWNJ and a letter, none.
SPECIALS_SETS = (EDGE_SPECIALS, EDGE_SPECIALS.replace("۔", ""), EDGE_SPECIALS + " ",
                 ".,()", "\u200c()a", "")
SURFACE_CHARS = list(EDGE_SPECIALS) + ["\u200c", "ا", "ب", "ڪ", "a", "B", "1", "٣", " ", " "]


@settings(max_examples=500, deadline=None)
@given(st.sampled_from(SPECIALS_SETS), st.text(alphabet=SURFACE_CHARS, max_size=24))
def test_entry_words_are_the_tokenizer_norms_of_the_surface(specials, surface):
    # A data surface's words are what the tokenizer makes of the surface:
    # the norms of its non-punctuation tokens.
    words = surface.split()
    malformed = (not words or len(words) > MAX_ENTRY_WORDS
                 or any(set(word) <= set(specials) for word in words))
    if malformed:
        with pytest.raises(MalformedLine):
            _normalize_words("entry.tsv", 1, surface, specials)
        return
    stream = tokenize(surface, specials)
    assert _normalize_words("entry.tsv", 1, surface, specials) == tuple(
        norm for norm, kind in zip(stream.norms, stream.kinds) if kind != PUNCTUATION)


class TestLookupLongest:
    def test_prefers_longest(self):
        gaz = make_gazetteer([
            ("اويس", Category.PersonFirstName),
            ("اويس جمائي", Category.PersonFirstName),
        ])
        stream = tokenize("اويس جمائي ويو")
        entry, k = lookup_longest(gaz, stream, 0)
        assert k == 2

    def test_category_filter(self):
        gaz = make_gazetteer([
            ("مراد", Category.PersonFirstName),
            ("مراد", Category.Location),
        ])
        stream = tokenize("مراد")
        entry, k = lookup_longest(gaz, stream, 0, (Category.Location,))
        assert entry.category is Category.Location

    def test_tie_breaks_in_category_order(self):
        gaz = make_gazetteer([
            ("مراد", Category.Location),
            ("مراد", Category.PersonFirstName),
        ])
        stream = tokenize("مراد")
        entry, _ = lookup_longest(gaz, stream, 0)
        assert entry.category is Category.PersonFirstName

    def test_out_of_range_raises(self):
        gaz = make_gazetteer([("اويس", Category.PersonFirstName)])
        stream = tokenize("اويس")
        with pytest.raises(IndexError):
            lookup_longest(gaz, stream, 1)
        with pytest.raises(IndexError):
            lookup_longest(gaz, stream, -1)

    def test_no_match_near_end(self):
        gaz = make_gazetteer([("اويس جمائي", Category.PersonFirstName)])
        stream = tokenize("ويو اويس")
        assert lookup_longest(gaz, stream, 1) is None

    def test_agrees_with_brute_force_on_shipped_data(self, engine):
        stream = tokenize("اويس جمائي وزير اعظم ڪراچي پورٽ ٽرسٽ ويو")
        for i in range(len(stream)):
            got = lookup_longest(engine.gaz, stream, i)
            want = brute_force_lookup(engine.gaz, stream, i)
            if want is None:
                assert got is None
            else:
                assert got is not None
                assert (got[0].words, got[0].category, got[1]) == \
                    (want[0].words, want[0].category, want[1])


class TestWordLists:
    def test_load_word_list(self, tmp_path):
        f = tmp_path / "m.tsv"
        f.write_text("جنوري\tMonthName\nمارچ\tMonthName\n", encoding="utf-8")
        assert load_word_list(f, "MonthName") == {"جنوري", "مارچ"}

    def test_wrong_category_rejected(self, tmp_path):
        f = tmp_path / "m.tsv"
        f.write_text("جنوري\tLetterName\n", encoding="utf-8")
        with pytest.raises(UnknownCategory):
            load_word_list(f, "MonthName")

    def test_multiword_entry_rejected(self, tmp_path):
        f = tmp_path / "m.tsv"
        f.write_text("هيءَ مهيني\tMonthName\n", encoding="utf-8")
        with pytest.raises(MalformedLine):
            load_word_list(f, "MonthName")

    def test_suffix_table(self, tmp_path):
        f = tmp_path / "s.tsv"
        f.write_text("پور\tLocationSuffix\nحسن\tPersonMarker\n", encoding="utf-8")
        suffixes, markers = load_suffix_table(f)
        assert suffixes == {"پور": "LocationSuffix"}
        assert markers == {"حسن"}

    def test_suffix_table_rejects_gazetteer_category(self, tmp_path):
        f = tmp_path / "s.tsv"
        f.write_text("پور\tLocation\n", encoding="utf-8")
        with pytest.raises(UnknownCategory):
            load_suffix_table(f)


class TestValidateSources:
    def test_clean_files(self, engine):
        config = engine.config
        problems = validate_sources(
            config.gazetteers,
            [(config.months, "MonthName"), (config.letters, "LetterName"),
             (config.stopwords, "Stopword"), (config.suffixes, None)])
        assert problems == []

    def test_collects_all_problems(self, tmp_path):
        f = tmp_path / "g.tsv"
        f.write_text("نوفيلڊ\n" "اويس\tNames\n" "اويس\tSurname\n"
                     "اويس\tSurname\n", encoding="utf-8")
        problems = validate_sources([f], [])
        assert len(problems) == 3
        assert any("1" in p for p in problems)

    def test_missing_file_reported_not_raised(self, tmp_path):
        problems = validate_sources([tmp_path / "absent.tsv"], [])
        assert len(problems) == 1


def text_mode_read_lines(path):
    """The reader that read_lines replaced, kept verbatim as the reference:
    it reads the file in text mode and opens it again to find a bad line."""
    if not Path(path).is_file():
        raise MissingDataFile(path)
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return enumerate(fh.readlines(), 1)
    except UnicodeDecodeError:
        # Invalid bytes decode to lone surrogates, which valid UTF-8 never
        # yields, so the first line that fails a strict encode is the bad one.
        with open(path, encoding="utf-8-sig", errors="surrogateescape") as fh:
            for lineno, line in enumerate(fh, 1):
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError:
                    raise MalformedLine(path, lineno, "not valid UTF-8") from None
        raise


def _outcome(reader, path):
    try:
        return list(reader(path))
    except MalformedLine as exc:
        return ("malformed", exc.lineno, str(exc))


# A byte-order mark, every line ending, tabs, comments, multi-byte
# characters, and invalid bytes: stray, truncated, overlong and surrogate.
READER_PIECES = [b"\xef\xbb\xbf", b"\n", b"\r", b"\r\n", b"\t", b"#", b" ", b"a",
                 "سنڌ".encode("utf-8"), "€".encode("utf-8"), "😀".encode("utf-8"),
                 b"\xff", b"\x80", b"\xc3", b"\xe2\x82", b"\xc0\xaf", b"\xed\xa0\x80"]


# Files that are only a truncated byte-order mark.  They are not valid
# UTF-8, and read_lines refuses them; the utf-8-sig text-mode reader reads
# them as empty, so there the reference is wrong.
TRUNCATED_BOMS = (b"\xef", b"\xef\xbb")


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(READER_PIECES), st.binary(max_size=2)),
                max_size=16).map(b"".join))
@example(TRUNCATED_BOMS[0])
@example(TRUNCATED_BOMS[1])
def test_read_lines_agrees_with_the_text_mode_reader(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.tsv"
        path.write_bytes(data)
        if data in TRUNCATED_BOMS:
            assert _outcome(read_lines, path) == ("malformed", 1,
                                                  f"{path}:1: not valid UTF-8")
        else:
            assert _outcome(read_lines, path) == _outcome(text_mode_read_lines, path)


def test_read_lines_refuses_what_is_not_a_file(tmp_path):
    for path in (tmp_path / "ghost.tsv", tmp_path, tmp_path / "ghost" / "x.tsv",
                 tmp_path / "a\0b.tsv"):
        with pytest.raises(MissingDataFile) as err:
            read_lines(path)
        assert str(err.value) == f"required data file does not exist: {path}"
