"""Command-line interface: tag, eval, query, and gazetteer subcommands.

Exit codes: 0 success, 1 domain error (bad data, missing files), 2 usage
error.  Every failure prints ``error:<code>: <details>`` as the first
stderr line so callers can branch without parsing prose.

Config resolution order: ``--config`` flag, then the NER_CONFIG
environment variable, then the packaged default.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import List, Optional, Sequence

from .corpus import CorpusStore, evaluate, load_gold
from .errors import (
    DuplicateEntry,
    InvalidInput,
    MissingDataFile,
    NerError,
    TornRecordWarning,
    UnknownCategory,
)
from .gazetteer import (
    Category,
    LETTER_NAME,
    MONTH_NAME,
    STOPWORD,
    gazetteer_stats,
    load_gazetteer,
    read_lines,
    validate_sources,
    _normalize_words,
)
from .pipeline import (
    Engine,
    EngineConfig,
    RENDER_FORMATS,
    build_engine,
    load_config,
    render,
)
from .rules import LABEL_VALUE, RULE_VALUE

CONFIG_ENV_VAR = "NER_CONFIG"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sindhi-ner",
        description="Rule-based named-entity tagging for Sindhi text.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config(p):
        p.add_argument("--config", metavar="PATH",
                       help="engine config file (default: $NER_CONFIG or packaged)")
        p.add_argument("--gazetteer", metavar="PATH", action="append",
                       help="replace configured gazetteers (repeatable)")

    p_tag = sub.add_parser("tag", help="tag text from files or stdin")
    p_tag.add_argument("inputs", nargs="*", default=["-"], metavar="FILE",
                       help="input files; '-' or none reads stdin")
    p_tag.add_argument("--format", choices=RENDER_FORMATS, default="inline",
                       help="output format (default: inline)")
    p_tag.add_argument("--store", metavar="PATH",
                       help="append tagged documents to this store")
    p_tag.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="tag input files in parallel (output stays in order)")
    add_config(p_tag)

    p_eval = sub.add_parser("eval", help="score the engine against a gold corpus")
    p_eval.add_argument("--gold", required=True, metavar="PATH",
                        help="gold corpus, token<TAB>label per line")
    p_eval.add_argument("--json", action="store_true",
                        help="emit the report as JSON")
    add_config(p_eval)

    p_query = sub.add_parser("query", help="search a tagged-document store")
    p_query.add_argument("--store", required=True, metavar="PATH")
    p_query.add_argument("--label", metavar="LABEL")
    p_query.add_argument("--surface", metavar="TEXT",
                         help="substring match, case-insensitive")
    p_query.add_argument("--rule", metavar="RULE")

    p_gaz = sub.add_parser("gazetteer", help="inspect or edit gazetteer files")
    gaz_sub = p_gaz.add_subparsers(dest="action", required=True)
    p_list = gaz_sub.add_parser("list", help="print entry counts per category")
    add_config(p_list)
    p_check = gaz_sub.add_parser("check", help="validate all configured data files")
    add_config(p_check)
    p_add = gaz_sub.add_parser("add", help="append one entry to a gazetteer file")
    p_add.add_argument("surface", help="entry surface, one to three words")
    p_add.add_argument("category", help="gazetteer category name")
    p_add.add_argument("--file", required=True, metavar="PATH",
                       help="gazetteer TSV to append to")
    add_config(p_add)

    return parser


def _resolve_config(args) -> EngineConfig:
    explicit = getattr(args, "config", None)
    if explicit:
        config = load_config(explicit)
    else:
        env = os.environ.get(CONFIG_ENV_VAR)
        config = load_config(env) if env else EngineConfig.default()
    override = getattr(args, "gazetteer", None)
    if override:
        config = config.with_gazetteers([Path(p) for p in override])
    return config


def _read_input(name: str) -> str:
    """The text of an input file, or of stdin for ``-``, read as UTF-8."""
    if name == "-":
        # Stdin's bytes are decoded like a file's, whatever the locale; a
        # stream with no bytes beneath it (StringIO) is already text.
        if not hasattr(sys.stdin, "buffer"):
            return sys.stdin.read()
        where, data = "stdin", sys.stdin.buffer.read()
    else:
        path = Path(name)
        if not path.is_file():
            raise MissingDataFile(path)
        where, data = str(path), path.read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InvalidInput(
            f"{where}: not valid UTF-8 at byte offset {exc.start}") from None


def _open_store(path) -> CorpusStore:
    """Open a store, printing a dropped torn tail as one warning line."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", TornRecordWarning)
        store = CorpusStore(path)
    for w in caught:
        if issubclass(w.category, TornRecordWarning):
            print(f"warning:{TornRecordWarning.code}: {w.message}", file=sys.stderr)
        else:
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
    return store


def _cmd_tag(args) -> int:
    engine = build_engine(_resolve_config(args))
    texts = [_read_input(name) for name in args.inputs]
    jobs = max(1, args.jobs)
    if jobs > 1 and len(texts) > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            docs = list(pool.map(engine.tag_text, texts))
    else:
        docs = [engine.tag_text(text) for text in texts]
    rendered = [render(doc, args.format) for doc in docs if len(doc.tokens)]
    if rendered:
        sep = "\n\n" if args.format == "tabular" else "\n"
        sys.stdout.write(sep.join(rendered) + "\n")
    if args.store:
        with _open_store(args.store) as store:
            for doc in docs:
                if len(doc.tokens):
                    print(store.append(doc), file=sys.stderr)
    return 0


def _cmd_eval(args) -> int:
    engine = build_engine(_resolve_config(args))
    report = evaluate(engine, load_gold(args.gold))
    if args.json:
        sys.stdout.write(json.dumps(report.to_dict(), ensure_ascii=False,
                                    indent=2, sort_keys=True) + "\n")
        return 0
    lines = [
        f"tokens\t{report.total_tokens}",
        f"correct\t{report.correct_tokens}",
        f"accuracy\t{report.accuracy_display}",
        "",
        "label\ttp\tfp\tfn\tprecision\trecall\tf1",
    ]
    for name in sorted(report.per_label):
        s = report.per_label[name]
        lines.append(f"{name}\t{s.tp}\t{s.fp}\t{s.fn}"
                     f"\t{s.precision:.4f}\t{s.recall:.4f}\t{s.f1:.4f}")
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def _cmd_query(args) -> int:
    path = Path(args.store)
    if not path.is_file():
        raise MissingDataFile(path)
    with _open_store(path) as store:
        rows = store.query(label=args.label, surface=args.surface, rule=args.rule)
    for (doc_id, _, _), entity in rows:
        sys.stdout.write(f"{doc_id}\t{LABEL_VALUE[entity.label]}\t{entity.surface}"
                         f"\t{RULE_VALUE[entity.rule]}\n")
    return 0


def _word_list_specs(config: EngineConfig):
    specs = [
        (config.months, MONTH_NAME),
        (config.letters, LETTER_NAME),
        (config.stopwords, STOPWORD),
        (config.suffixes, None),
    ]
    return specs


def _cmd_gazetteer(args) -> int:
    config = _resolve_config(args)
    if args.action == "list":
        stats = gazetteer_stats(load_gazetteer(config.gazetteers))
        for category in Category:
            sys.stdout.write(f"{category.value}\t{stats[category]}\n")
        return 0
    if args.action == "check":
        problems = validate_sources(config.gazetteers, _word_list_specs(config),
                                    config.synonyms)
        if problems:
            print(f"error:invalid-data: {len(problems)} problem(s) found",
                  file=sys.stderr)
            for problem in problems:
                print(problem, file=sys.stderr)
            return 1
        sys.stdout.write("OK\n")
        return 0
    return _gazetteer_add(args, config)


def _gazetteer_add(args, config: EngineConfig) -> int:
    target = Path(args.file)
    lineno = 1
    if target.exists():
        lineno += sum(1 for _ in read_lines(target))
    try:
        category = Category[args.category]
    except KeyError:
        raise UnknownCategory(
            target, lineno, f"unknown category {args.category!r}") from None
    words = _normalize_words(target, lineno, args.surface)
    paths = list(config.gazetteers)
    if target.exists() and target.resolve() not in {p.resolve() for p in paths}:
        paths.append(target)
    merged = load_gazetteer([p for p in paths if Path(p).is_file()])
    if merged.contains(words, category):
        raise DuplicateEntry(
            target, lineno,
            f"duplicate entry {' '.join(words)!r} / {category.value}")
    # The normalized words, which the loaders and ``check`` accept.
    entry = f"{' '.join(words)}\t{category.value}\n"
    with open(target, "a", encoding="utf-8") as fh:
        fh.write(entry)
    sys.stdout.write(entry)
    return 0


_DISPATCH = {
    "tag": _cmd_tag,
    "eval": _cmd_eval,
    "query": _cmd_query,
    "gazetteer": _cmd_gazetteer,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles usage errors and --help
        return int(exc.code or 0)
    try:
        return _DISPATCH[args.command](args)
    except NerError as exc:
        print(f"error:{exc.code}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error:io: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    run()
