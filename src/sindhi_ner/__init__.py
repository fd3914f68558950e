"""Rule-based named-entity recognition for Sindhi (Arabic-script) text.

The engine tags persons, locations, organizations, dates, times,
designations, domain terms, abbreviations, number words, URLs, emails,
and brands using a cascade of gazetteer lookups and hand-written rules.

Quick start::

    from sindhi_ner import build_engine, render

    engine = build_engine()
    doc = engine.tag_text("اويس جمائي 05.06.2016 تي سنڌ يونيورسٽي ويو")
    print(render(doc, "inline"))
"""

from .errors import (
    ConfigError,
    CorruptStore,
    DuplicateEntry,
    EmptyCorpus,
    InvalidInput,
    LabelMismatch,
    MalformedLine,
    MissingDataFile,
    NerError,
    TokenizationMismatch,
    TornRecordWarning,
    UnknownCategory,
    UnknownFormat,
    UnknownLabel,
)
from .gazetteer import (
    Category,
    Gazetteer,
    GazetteerEntry,
    gazetteer_stats,
    load_gazetteer,
    lookup_longest,
    validate_sources,
)
from .pipeline import (
    Engine,
    EngineConfig,
    EntitySpan,
    TaggedDocument,
    build_engine,
    load_config,
    parse_jsonl,
    render,
    resolve_conflicts,
    tag_text,
)
from .rules import Proposal, RuleId, RuleSet, TagLabel
from .text import Token, TokenStream, normalize_whitespace, tokenize

__version__ = "0.1.0"

# The names of ``sindhi_ner.corpus`` (store, gold corpora, scoring), which
# neither ``build_engine`` nor tagging uses: the first access to any of
# them loads the module (PEP 562), so a process that only tags never
# compiles or runs it.
_CORPUS_NAMES = (
    "CorpusStore",
    "EvalReport",
    "GoldCorpus",
    "GoldDocument",
    "LabelScore",
    "evaluate",
    "load_gold",
    "score_labels",
)


def __getattr__(name):
    if name not in _CORPUS_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import corpus

    # Bound here, later lookups of these names no longer reach this hook.
    globals().update({n: getattr(corpus, n) for n in _CORPUS_NAMES})
    return globals()[name]


def __dir__():
    return sorted({*globals(), *_CORPUS_NAMES})

__all__ = [
    "Category",
    "ConfigError",
    "CorpusStore",
    "CorruptStore",
    "DuplicateEntry",
    "EmptyCorpus",
    "Engine",
    "EngineConfig",
    "EntitySpan",
    "EvalReport",
    "Gazetteer",
    "GazetteerEntry",
    "GoldCorpus",
    "GoldDocument",
    "InvalidInput",
    "LabelMismatch",
    "LabelScore",
    "MalformedLine",
    "MissingDataFile",
    "NerError",
    "Proposal",
    "RuleId",
    "RuleSet",
    "TagLabel",
    "TaggedDocument",
    "Token",
    "TokenStream",
    "TokenizationMismatch",
    "TornRecordWarning",
    "UnknownCategory",
    "UnknownFormat",
    "UnknownLabel",
    "__version__",
    "build_engine",
    "evaluate",
    "gazetteer_stats",
    "load_config",
    "load_gazetteer",
    "load_gold",
    "lookup_longest",
    "normalize_whitespace",
    "parse_jsonl",
    "render",
    "resolve_conflicts",
    "score_labels",
    "tag_text",
    "tokenize",
    "validate_sources",
]
