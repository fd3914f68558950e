"""Byte-identical tagging output, checked by digest.

The ``jsonl``, ``inline`` and ``tabular`` renders of four inputs (the
golden sentences, the ``mini_gold.tsv`` sentences, seeded random texts
over the cascade vocabulary, and seeded texts of that vocabulary with
edge specials glued on both sides of its words) are hashed through the
default engine and through one engine with other edge specials and
synonyms.  A change meant to keep every output byte-identical must leave
``DIGESTS`` as it is; a change meant to alter output updates them and
says why.

Outputs depend on Python's Unicode tables (``str.isalpha``, ``\\d``,
``str.split``, ``str.lower``), so the digests hold for the Unicode version
they were recorded with.
"""

import hashlib
import random
import unicodedata

import pytest

from sindhi_ner import build_engine
from sindhi_ner.corpus import load_gold
from sindhi_ner.pipeline import DATA_DIR, RENDER_FORMATS, EngineConfig, render
from sindhi_ner.text import EDGE_SPECIALS, PUNCTUATION, normalize_whitespace, tokenize

from test_acceptance import GOLDEN

UNIDATA_VERSION = "14.0.0"

DIGESTS = {
    "default/golden/inline": "d34278831a2a87a2",
    "default/golden/tabular": "ccbc5a5c0d2c984a",
    "default/golden/jsonl": "2dd70e6c1adcc23f",
    "default/gold/inline": "168338445f6acd38",
    "default/gold/tabular": "24cd1fd84ecc4b2e",
    "default/gold/jsonl": "ed566b1c5b06b8ab",
    "default/random/inline": "d8c9267c2796d61c",
    "default/random/tabular": "992c0823c455bef4",
    "default/random/jsonl": "a4243931bfbc0a08",
    "default/glued/inline": "e76a2811d16271c1",
    "default/glued/tabular": "831de9e597c0a2b4",
    "default/glued/jsonl": "f6232a090f1ed457",
    "variant/golden/inline": "d34278831a2a87a2",
    "variant/golden/tabular": "ccbc5a5c0d2c984a",
    "variant/golden/jsonl": "2dd70e6c1adcc23f",
    "variant/gold/inline": "168338445f6acd38",
    "variant/gold/tabular": "24cd1fd84ecc4b2e",
    "variant/gold/jsonl": "ed566b1c5b06b8ab",
    "variant/random/inline": "394b68b75a5af0c5",
    "variant/random/tabular": "b851c399ee6576a4",
    "variant/random/jsonl": "d8b1b401ae00a1ad",
    "variant/glued/inline": "5c46af85e4e86baa",
    "variant/glued/tabular": "73789fdd7f31a12d",
    "variant/glued/jsonl": "8e4ef712b686b7a9",
}

# Edge specials for the variant engine: no Urdu full stop, plus two
# characters that otherwise sit inside numbers and email addresses.
VARIANT_SPECIALS = EDGE_SPECIALS.replace("۔", "") + "-@"
VARIANT_SYNONYMS = {"ڪراچى": "ڪراچي", "karachi": "ڪراچي", "jan": "جنوري",
                    "sindh": "سنڌ", "ktn": "ڪي ٽي اين"}

# Characters and shapes mixed in among the vocabulary: edge specials,
# ZWNJ, a diacritic, ASCII and Arabic-Indic digits, non-decimal numerics,
# cased letters, URL and email shapes, and characters outside the BMP.
SHAPES = (list(EDGE_SPECIALS) + [
    "\u200c", "\u0650", "0", "7", "\u0663", "\u06f5", "\u00b2", "\u00bd", "\u2167",
    "KTN", "Karachi", "\u0130x", "\u03a3\u03a3", "-", "/", "@", "#", "05.06.2016",
    "10:40", "99:99", "2016", "15", "05-06-2016", "http://a.b/c", "www.sindhila.org",
    "x@y.com", "\U0001d400", "\U0001f600", "\U00020000", "\U000e0041", "\u0627\u200c\u0628"])
SEPARATORS = [" ", " ", " ", "  ", "\t", "\n", "\u00a0", "\u3000", ""]


def vocabulary(engine):
    """Every listed word and multi-word entry of the engine's data, plus
    ``SHAPES``, in a fixed order."""
    rules = engine.rules
    words = set(SHAPES)
    for entry in engine.gaz.entries():
        words.add(entry.surface)
        words.update(entry.words)
    words |= rules.months | rules.letters | rules.stopwords | rules.person_markers
    words |= set(rules.suffixes)
    words |= set(engine.synonyms) | set(engine.synonyms.values())
    return sorted(words)


def random_texts(engine, count=2000, seed=20160605):
    rng = random.Random(seed)
    pool = vocabulary(engine)
    texts = []
    for _ in range(count):
        pieces = []
        for _ in range(rng.randrange(0, 25)):
            pieces += [rng.choice(pool), rng.choice(SEPARATORS)]
        texts.append("".join(pieces))
    return texts


def glued_texts(engine, count=500, seed=20190605):
    """Seeded texts whose words carry up to two edge specials of either
    engine on each side, as in ``(ڪراچي)،``."""
    rng = random.Random(seed)
    pool = vocabulary(engine)
    specials = EDGE_SPECIALS + VARIANT_SPECIALS

    def edge():
        return "".join(rng.choice(specials) for _ in range(rng.randrange(3)))

    return [" ".join(edge() + rng.choice(pool) + edge() for _ in range(rng.randrange(12)))
            for _ in range(count)]


def golden_texts():
    return [text for text, _ in GOLDEN]


def gold_texts():
    return [" ".join(doc.tokens)
            for doc in load_gold(DATA_DIR / "mini_gold.tsv").documents]


@pytest.fixture(scope="module")
def digest_engines(engine, tmp_path_factory):
    synonyms = tmp_path_factory.mktemp("digest") / "synonyms.tsv"
    synonyms.write_text("".join(f"{k}\t{v}\n" for k, v in VARIANT_SYNONYMS.items()),
                        "utf-8")
    config = EngineConfig.default()._replace(edge_specials=VARIANT_SPECIALS,
                                             synonyms=synonyms)
    return {"default": engine, "variant": build_engine(config)}


def digest(engine, texts, fmt):
    docs = (engine.tag_text(text) for text in texts)
    data = "\n\x00\n".join(render(doc, fmt) for doc in docs).encode("utf-8")
    return hashlib.sha256(data).hexdigest()[:16]


def output_digests(engines):
    inputs = {"golden": golden_texts(), "gold": gold_texts(),
              "random": random_texts(engines["default"]),
              "glued": glued_texts(engines["default"])}
    return {f"{name}/{corpus}/{fmt}": digest(engine, texts, fmt)
            for name, engine in engines.items()
            for corpus, texts in inputs.items()
            for fmt in RENDER_FORMATS}


def edge_shapes(texts):
    """Whether a special is glued on the left and on the right, for each
    chunk of two or more tokens, not all punctuation, of ``texts``."""
    edges = set()
    for chunk in {c for t in texts for c in normalize_whitespace(t).split(" ")}:
        kinds = tokenize(chunk).kinds
        if len(kinds) > 1 and set(kinds) != {PUNCTUATION}:
            edges.add((kinds[0] == PUNCTUATION, kinds[-1] == PUNCTUATION))
    return edges


def test_random_texts_cover_the_shapes(engine):
    texts = random_texts(engine)
    text = "".join(texts)
    for shape in ("\u200c", "\U0001f600", "\u0663", "۔", "@", "\t", "05.06.2016"):
        assert shape in text
    # Chunks of two or more tokens with a special glued on the left and on
    # the right, so the digests pin the engine's rows of such chunks.
    assert {(True, False), (False, True)} <= edge_shapes(texts)


def test_glued_texts_cover_both_edges(engine):
    # Chunks with specials on both edges, such as (ڪراچي)، are pinned by
    # the glued digests.
    assert (True, True) in edge_shapes(glued_texts(engine))


def test_outputs_match_recorded_digests(digest_engines):
    if unicodedata.unidata_version != UNIDATA_VERSION:
        pytest.skip(f"digests recorded with Unicode {UNIDATA_VERSION}, "
                    f"this Python has {unicodedata.unidata_version}")
    assert output_digests(digest_engines) == DIGESTS
