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

from .corpus import (
    CorpusStore,
    EvalReport,
    GoldCorpus,
    GoldDocument,
    LabelScore,
    evaluate,
    load_gold,
    score_labels,
    store_document,
)
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
    "store_document",
    "tag_text",
    "tokenize",
    "validate_sources",
]
