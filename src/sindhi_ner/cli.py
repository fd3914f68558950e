"""Command-line interface: tag, eval, query, and gazetteer subcommands.

Exit codes: 0 success, 1 domain error (bad data, missing files), 2 usage
error.  Every failure prints ``error:<code>: <details>`` as the first
stderr line so callers can branch without parsing prose.

Config resolution order: ``--config`` flag, then the NER_CONFIG
environment variable, then the packaged default.

The store and the evaluator (``sindhi_ner.corpus``) and the thread pool
of ``tag --jobs`` are imported by the commands that use them, so that
``tag`` without ``--store`` loads neither.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from pathlib import Path
from typing import Optional, Sequence

from .errors import (
    InvalidInput,
    MalformedLine,
    MissingDataFile,
    NerError,
    TornRecordWarning,
)
from .gazetteer import (
    Category,
    _entries,
    _iter_gazetteer,
    gazetteer_stats,
    is_skipped_line,
    load_gazetteer,
    parse_entry,
    read_bytes,
    read_lines,
    validate_sources,
)
from .pipeline import (
    EngineConfig,
    RENDER_FORMATS,
    build_engine,
    load_config,
    render,
)
from .rules import LABEL_VALUE, RULE_VALUE

CONFIG_ENV_VAR = "NER_CONFIG"


class _Parser(argparse.ArgumentParser):
    """Prints ``error:usage: <message>``, then the usage, on a usage error.

    Unrecognized arguments are reported by the parser of the subcommand
    they follow, with that subcommand's usage.
    """

    def error(self, message):
        self.exit(2, f"error:usage: {message}\n{self.format_usage()}")

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def _job_count(text: str) -> int:
    """A ``--jobs`` value: a whole number of at least 1."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected an integer of at least 1, got {text!r}")
    return int(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    p_tag.add_argument("--jobs", type=_job_count, default=1, metavar="N",
                       help="tag input files on N threads (output stays in order)")
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
    """The text of an input file, or of stdin for ``-``, read as UTF-8,
    less one leading byte-order mark; an error's byte offset counts it."""
    if name == "-":
        if sys.stdin is None:
            raise OSError("stdin is closed")
        # Stdin's bytes are decoded like a file's, whatever the locale; a
        # stream with no bytes beneath it (StringIO) is already text.
        if not hasattr(sys.stdin, "buffer"):
            return sys.stdin.read().removeprefix("\ufeff")
        where, data = "stdin", sys.stdin.buffer.read()
    else:
        path = Path(name)
        where, data = str(path), read_bytes(path)
    try:
        return data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise InvalidInput(
            f"{where}: not valid UTF-8 at byte offset {exc.start}") from None


def _open_store(path):
    """Open a store, printing a dropped torn tail as one warning line."""
    from .corpus import CorpusStore

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
    if args.jobs > 1 and len(texts) > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=args.jobs) as pool:
            docs = list(pool.map(engine.tag_text, texts))
    else:
        docs = [engine.tag_text(text) for text in texts]
    docs = [doc for doc in docs if len(doc.tokens)]
    rendered = [render(doc, args.format) for doc in docs]
    if rendered:
        sep = "\n\n" if args.format == "tabular" else "\n"
        sys.stdout.write(sep.join(rendered) + "\n")
    if args.store:
        with _open_store(args.store) as store:
            for doc in docs:
                print(store.append(doc), file=sys.stderr)
    return 0


def _cmd_eval(args) -> int:
    from .corpus import evaluate, load_gold

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
    # As read_bytes: a pipe or /dev/stdin is read, a directory is missing.
    if path.is_dir() or not path.exists():
        raise MissingDataFile(path)
    with _open_store(path) as store:
        rows = store.query(label=args.label, surface=args.surface, rule=args.rule)
    for (doc_id, _, _), entity in rows:
        sys.stdout.write(f"{doc_id}\t{LABEL_VALUE[entity.label]}\t{entity.surface}"
                         f"\t{RULE_VALUE[entity.rule]}\n")
    return 0


def _cmd_gazetteer(args) -> int:
    config = _resolve_config(args)
    if args.action == "list":
        stats = gazetteer_stats(load_gazetteer(config.gazetteers, config.edge_specials))
        for category in Category:
            sys.stdout.write(f"{category.value}\t{stats[category]}\n")
        return 0
    if args.action == "check":
        problems = validate_sources(config.gazetteers, config.word_lists,
                                    config.synonyms, config.edge_specials)
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
    paths = list(config.gazetteers)
    if target.resolve() not in {p.resolve() for p in paths}:
        paths.append(target)
    seen, lines = {}, []  # lines: the target's, read once, then loaded and counted
    for path in paths:
        try:
            read = list(read_lines(path))
        except MissingDataFile:
            if path.resolve() != target.resolve():
                raise
            continue  # the append creates the target; every other file must exist
        list(_entries(_iter_gazetteer(path, config.edge_specials, seen, read)))
        lines = read if path.resolve() == target.resolve() else lines
    lineno = len(lines) + 1
    # The argument is read as the loaders read a line of the target.
    entry = parse_entry(target, lineno, args.surface, args.category,
                        config.edge_specials, seen)
    line = f"{entry.surface}\t{entry.category.value}\n"
    if is_skipped_line(line.strip()):
        raise MalformedLine(target, lineno,
                            f"entry {entry.surface!r} would be read as a comment")
    if lineno == 1 and line.startswith("\ufeff"):
        # read_lines drops a byte-order mark that starts a file.
        raise MalformedLine(target, lineno,
                            f"entry {entry.surface!r} would lose its leading byte-order mark")
    try:
        data = line.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise InvalidInput.unencodable(exc) from exc
    with open(target, "ab") as fh:
        # A last line without a newline is ended first, as the store does.
        fh.write(data if not lines or lines[-1][1].endswith("\n") else b"\n" + data)
    sys.stdout.write(line)
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
        if sys.stdout is None:  # checked before a command stores or appends
            raise OSError("stdout is closed")
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
