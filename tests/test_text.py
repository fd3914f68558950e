"""Tokenizer tests: chunking, edge peeling, kinds, spans, normalization."""

import re

import pytest
from hypothesis import given, settings, strategies as st

from sindhi_ner.errors import InvalidInput
from sindhi_ner.text import (
    EDGE_SPECIALS,
    NUMBER,
    PUNCTUATION,
    SYMBOL,
    TokenStream,
    WORD,
    normalize_whitespace,
    tokenize,
)


def surfaces(text):
    return [t.surface for t in tokenize(normalize_whitespace(text))]


class TestNormalizeWhitespace:
    def test_collapses_runs_and_strips(self):
        assert normalize_whitespace("  اويس\t\tجمائي \n") == "اويس جمائي"

    def test_empty(self):
        assert normalize_whitespace("") == ""
        assert normalize_whitespace(" \t\n ") == ""

    @given(st.text())
    def test_idempotent(self, s):
        once = normalize_whitespace(s)
        assert normalize_whitespace(once) == once

    @given(st.text())
    def test_only_whitespace_touched(self, s):
        assert normalize_whitespace(s) == " ".join(s.split())


class TestTokenize:
    def test_arabic_comma_peeled(self):
        assert surfaces("اويس، ويو") == ["اويس", "،", "ويو"]

    def test_kinds(self):
        stream = tokenize("اويس 100 10:40 ##")
        assert [t.kind for t in stream] == [WORD, NUMBER, NUMBER, SYMBOL]

    def test_punctuation_norm_empty(self):
        stream = tokenize("اويس،")
        assert stream[1].kind == PUNCTUATION
        assert stream[1].norm == ""

    def test_latin_lowercased_in_norm(self):
        stream = tokenize("KTN")
        assert stream[0].norm == "ktn"
        assert stream[0].surface == "KTN"

    def test_number_with_separators_is_one_token(self):
        stream = tokenize("05.06.2016")
        assert len(stream) == 1
        assert stream[0].kind == NUMBER

    def test_trailing_period_split_from_number(self):
        assert surfaces("10:40.") == ["10:40", "."]

    def test_zwnj_stays_inside_word(self):
        stream = tokenize("اسلام‌آباد")
        assert len(stream) == 1
        assert stream[0].kind == WORD

    def test_url_keeps_internal_punctuation(self):
        assert surfaces("(http://a.b/c)") == ["(", "http://a.b/c", ")"]

    def test_empty_input(self):
        assert len(tokenize("")) == 0

    def test_non_decimal_numerics_are_symbols(self):
        # Superscripts and vulgar fractions are numeric but neither
        # decimal digits nor letters (str.isalpha is False for them).
        stream = tokenize("² ³ ½ x² ٣")
        assert [t.kind for t in stream] == [SYMBOL, SYMBOL, SYMBOL, WORD, NUMBER]

    def test_columns_match_token_views(self):
        stream = tokenize("(اويس)، 10:40 KTN")
        tokens = list(stream)
        assert [t.surface for t in tokens] == list(stream.surfaces)
        assert [t.span for t in tokens] == list(zip(stream.starts, stream.ends))
        assert [t.norm for t in tokens] == list(stream.norms)
        assert [t.kind for t in tokens] == list(stream.kinds)
        assert stream[1:3] == tuple(tokens[1:3])
        assert stream[-1] == tokens[-1]

    def test_columns_must_agree_in_length(self):
        stream = tokenize("اويس ويو")
        with pytest.raises(ValueError):
            TokenStream(source=stream.source, surfaces=stream.surfaces,
                        starts=stream.starts, ends=stream.ends,
                        norms=stream.norms[:1], kinds=stream.kinds)
        with pytest.raises(TypeError):
            TokenStream(source="abc")

    @pytest.mark.parametrize("text", ["a \ud800 b", "\udfff", "اويس،\udc80"])
    def test_text_utf8_cannot_encode_is_invalid_input(self, text):
        with pytest.raises(InvalidInput) as err:
            tokenize(text)
        assert err.value.code == "invalid-input"
        assert "which UTF-8 cannot encode" in str(err.value)
        assert isinstance(err.value.__cause__, UnicodeEncodeError)

    def test_byte_spans_strictly_increase(self):
        stream = tokenize("اويس، ويو 10:40")
        spans = [t.span for t in stream]
        assert all(a < b for a, b in spans)
        assert all(spans[i][1] <= spans[i + 1][0] for i in range(len(spans) - 1))


@given(st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=80))
def test_slice_fidelity(raw):
    source = normalize_whitespace(raw)
    data = source.encode("utf-8")
    for tok in tokenize(source):
        lo, hi = tok.span
        assert data[lo:hi].decode("utf-8") == tok.surface


@given(st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=80))
def test_tokens_cover_every_chunk(raw):
    source = normalize_whitespace(raw)
    rebuilt = "".join(t.surface for t in tokenize(source))
    assert rebuilt == source.replace(" ", "")


@given(st.text(alphabet=st.sampled_from(list(EDGE_SPECIALS) + ["ا", "ب", "1"]),
               min_size=1, max_size=12))
def test_edge_peeling_preserves_order(chunk):
    if " " in chunk:
        return
    parts = [t.surface for t in tokenize(chunk)]
    assert "".join(parts) == chunk


def chunk_reference(raw, specials=EDGE_SPECIALS):
    """The general per-chunk tokenizer: split on single spaces, then peel
    edge specials off each chunk one character at a time."""
    special_set = frozenset(specials)
    tokens = []
    offset = 0
    for chunk in raw.split(" "):
        lo, hi = 0, len(chunk)
        while lo < hi and chunk[lo] in special_set:
            lo += 1
        while hi > lo and chunk[hi - 1] in special_set:
            hi -= 1
        core = chunk[lo:hi]
        pieces = [(ch, "", PUNCTUATION) for ch in chunk[:lo]]
        if core:
            if re.fullmatch(r"\d+(?:[./:\-]\d+)*", core):
                kind = NUMBER
            elif any(ch.isalpha() for ch in core):
                kind = WORD
            else:
                kind = SYMBOL
            pieces.append((core, core.lower(), kind))
        pieces += [(ch, "", PUNCTUATION) for ch in chunk[hi:]]
        for surface, norm, kind in pieces:
            size = len(surface.encode("utf-8"))
            tokens.append((surface, (offset, offset + size), norm, kind))
            offset += size
        offset += 1  # the separating space
    return tokens


# Edge specials, ZWNJ, a diacritic, ASCII and Arabic-Indic digits,
# non-decimal numerics, cased letters whose lowercase differs in length
# or context, a letter that one specials set below peels, and runs of
# spaces.
_TRICKY = (list(EDGE_SPECIALS) + ["\u200c", "\u0650", "0", "7", "\u0663",
                                  "\u00b2", "\u00bd", "\u2167", "a", "Z",
                                  "x", "\u0130", "\u03a3", "\u0627",
                                  "\u0628", "-", "/", "@", "#", " ", " ", " "])


@settings(max_examples=400, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(_TRICKY),
                          st.characters(blacklist_categories=("Cs",))),
                max_size=40).map("".join),
       st.sampled_from([EDGE_SPECIALS, ".()", "x.", ""]))
def test_tokenize_matches_chunk_reference(raw, specials):
    got = [(t.surface, t.span, t.norm, t.kind) for t in tokenize(raw, specials)]
    assert got == chunk_reference(raw, specials)
