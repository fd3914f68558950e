"""Run one workload in this process and print its measurements as JSON.

Started by ``run.py``, one process per workload run.  The load is closed
loop: a single caller sends the next document or query only after the
previous one returned.  Every operation's output is checked; a failed
check counts the operation as failed.  Untraced runs time every step
while the speed sampler of ``speed.py`` runs, and scale each timing by
the host's slowdown around it; traced runs record spans instead and
report unscaled times.

Usage: measure.py WORKLOAD SEED SECONDS TRACE WORKDIR

The last stdout line is a JSON object with ``correct``, ``attempted``,
``failed``, ``metrics`` and ``details``.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import math
import resource
import statistics
import sys
import time
from array import array
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from sindhi_ner import (  # noqa: E402
    CorpusStore,
    RuleId,
    TagLabel,
    build_engine,
    cli,
    parse_jsonl,
    pipeline,
)
from spans import MATCHERS, Hooks, Recorder  # noqa: E402
from speed import SpeedSampler  # noqa: E402

_now = time.perf_counter_ns

# Consecutive documents are grouped into batches of at least this many
# input bytes; tag_mb_s is the median batch throughput.
BATCH_BYTES = 100_000
WARMUP_DOCS = 50
WARMUP_BYTES = 50_000
CLI_FILES = 8
BUILD_REPEATS = 5
QUERY_PICKS = 4
OVERHEAD_BYTES = 100_000
OVERHEAD_PAIRS = 7


class Checker:
    """Counts attempted and failed operations; keeps the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list = []

    def record(self, what: str, problems) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(f"{what}: {problems}")


def doc_problems(doc, line: str) -> list:
    """Partition, byte-slice and jsonl round-trip checks for one document."""
    problems = []
    cover = [0] * len(doc.tokens)
    for e in doc.entities:
        for i in range(e.token_start, e.token_end):
            cover[i] += 1
    for i in doc.untagged:
        cover[i] += 1
    if any(c != 1 for c in cover):
        problems.append("tokens not partitioned by entities and untagged")
    src = doc.source.encode("utf-8")
    if any(src[e.start_byte:e.end_byte].decode("utf-8", "replace") != e.surface
           for e in doc.entities):
        problems.append("entity byte slice differs from surface")
    if parse_jsonl(line) != [(doc.source, list(doc.entities))]:
        problems.append("jsonl does not round-trip")
    return problems


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def tag_one(engine, raw: str):
    """Tag and render one document.

    Returns (doc, jsonl, (start, tagged, rendered) clock readings in ns).
    """
    t0 = _now()
    doc = engine.tag_text(raw)
    t1 = _now()
    line = pipeline.render(doc, "jsonl")
    return doc, line, (t0, t1, _now())


def warm_up(engine, wl) -> None:
    docs = wl.first[:WARMUP_DOCS]
    if len(docs) == 1:
        docs = [docs[0][:WARMUP_BYTES]]
    for raw in docs:
        tag_one(engine, raw)


def tag_phase(engine, wl, seconds: float, checker: Checker):
    """Tag the first block, then more documents until the budget is spent.

    Returns the first block's jsonl lines, the clock readings of every
    document as three arrays (start, tagged, rendered), and the batches as
    (input bytes, index of the first document, index after the last).
    Only strings and arrays are kept, so the loop leaves the collector no
    more to scan than the tagger itself does.
    """
    deadline = _now() + int(seconds * 1e9)
    clock = (array("q"), array("q"), array("q"))
    batches = []
    batch_bytes, batch_start = 0, 0
    first_lines = []
    more = wl.more()
    k = 0
    while True:
        if k < len(wl.first):
            raw = wl.first[k]
        elif _now() < deadline:
            raw = next(more)
        else:
            break
        doc, line, readings = tag_one(engine, raw)
        for column, reading in zip(clock, readings):
            column.append(reading)
        checker.record(f"tag #{k}", doc_problems(doc, line))
        if k < len(wl.first):
            first_lines.append(line)
        k += 1
        batch_bytes += len(raw.encode("utf-8"))
        if batch_bytes >= BATCH_BYTES:
            batches.append((batch_bytes, batch_start, k))
            batch_bytes, batch_start = 0, k
    return first_lines, clock, batches


def retag_first(engine, wl, first_lines, checker: Checker) -> list:
    """Tag the first block again; every jsonl line must be identical.

    Returns the documents, for the store phase.
    """
    docs = []
    for k, raw in enumerate(wl.first):
        doc = engine.tag_text(raw)
        again = pipeline.render(doc, "jsonl")
        checker.record(f"re-tag #{k}",
                       [] if again == first_lines[k] else ["jsonl differs on re-tag"])
        docs.append(doc)
    return docs


def digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()[:16]


# --------------------------------------------------------------------------
# Store
# --------------------------------------------------------------------------

def make_queries(rng, docs) -> list:
    """The fixed query mix: (kind, filters) pairs drawn from the tagged docs."""
    queries = [("label", {"label": label.value}) for label in TagLabel]
    queries += [("rule", {"rule": rule.value}) for rule in RuleId]
    entities = [e for doc in docs for e in doc.entities]
    surfaces = {e.surface.casefold() for e in entities}
    picks = [rng.choice(entities) for _ in range(QUERY_PICKS)] if entities else []
    for e in picks:
        words = e.surface.split(" ")
        queries.append(("surface_hit", {"surface": rng.choice(words)}))
    misses = 0
    while misses < QUERY_PICKS:
        needle = "".join(rng.choice(workloads.LETTERS) for _ in range(5))
        if not any(needle in s for s in surfaces):
            queries.append(("surface_miss", {"surface": needle}))
            misses += 1
    for n, e in enumerate(picks):
        word = rng.choice(e.surface.split(" "))
        combined = [{"label": e.label.value, "surface": word},
                    {"label": e.label.value, "rule": e.rule.value},
                    {"rule": e.rule.value, "surface": word},
                    {"label": e.label.value, "rule": e.rule.value, "surface": word}]
        queries.append(("combined", combined[n % len(combined)]))
    return queries


def linear_query(store, label=None, surface=None, rule=None) -> list:
    """Reference for CorpusStore.query: a scan over documents()."""
    needle = surface.casefold() if surface is not None else None
    out = []
    for doc in store.documents():
        for e in doc.entities:
            if label is not None and e.label.value != label:
                continue
            if needle is not None and needle not in e.surface.casefold():
                continue
            if rule is not None and e.rule.value != rule:
                continue
            out.append(((doc.doc_id, e.token_start, e.token_end), e))
    out.sort(key=lambda item: (item[0][0], item[0][1]))
    return out


def store_problems(store, docs) -> list:
    if len(store) != len(docs):
        return [f"reopened store holds {len(store)} of {len(docs)} records"]
    for doc_id, doc in enumerate(docs, 1):
        try:
            stored = store.get(doc_id)
        except KeyError:
            return [f"record {doc_id} missing after reopen"]
        if stored.text != doc.source or stored.entities != list(doc.entities):
            return [f"record {doc_id} differs after reopen"]
    return []


def store_cycle(path: Path, docs, queries, checker: Checker, rec=None) -> dict:
    """Append every document to a fresh store, reopen it, run the query mix.

    Returns the (start, end) clock readings in ns of each append, the
    reopen and each query.  A full collection runs before the appends, the
    reopen and the queries, so that no timed step collects garbage an
    earlier step left.
    """
    span = rec.span if rec is not None else (lambda name: contextlib.nullcontext())
    if path.exists():
        path.unlink()
    appends = []
    gc.collect()
    with span("corpus.open"):
        store = CorpusStore(path)
    with store:
        for doc in docs:
            t0 = _now()
            with span("corpus.append"):
                doc_id = store.append(doc)
            appends.append((t0, _now()))
            checker.record("append", [] if doc_id == len(appends) else ["unexpected id"])
    gc.collect()
    t0 = _now()
    with span("corpus.reopen"):
        store = CorpusStore(path)
    reopen = (t0, _now())
    queries_at = []
    with store:
        checker.record("reopen", store_problems(store, docs))
        gc.collect()
        for kind, filters in queries:
            t0 = _now()
            with span(f"corpus.query.{kind}"):
                rows = store.query(**filters)
            queries_at.append((kind, t0, _now()))
            checker.record(f"query {filters}",
                           [] if rows == linear_query(store, **filters)
                           else ["query differs from a linear scan"])
    return {"appends": appends, "reopen": reopen, "queries": queries_at,
            "store_bytes": path.stat().st_size}


def store_phase(workdir: Path, docs, queries, seconds: float, checker: Checker) -> list:
    store_cycle(workdir / "warmup.jsonl", docs[:WARMUP_DOCS], queries, Checker())
    (workdir / "warmup.jsonl").unlink()
    deadline = _now() + int(seconds * 1e9)
    cycles = []
    while not cycles or _now() < deadline:
        cycles.append(store_cycle(workdir / "store.jsonl", docs, queries, checker))
    return cycles


# --------------------------------------------------------------------------
# Workload properties
# --------------------------------------------------------------------------

def properties(wl, docs, lines) -> dict:
    tokens = sum(len(d.tokens) for d in docs)
    entity_tokens = sum(e.token_end - e.token_start for d in docs for e in d.entities)
    return {
        "bytes": sum(len(raw.encode("utf-8")) for raw in wl.first),
        "documents": len(docs),
        "tokens": tokens,
        "entities": sum(len(d.entities) for d in docs),
        "entity_token_share": round(entity_tokens / tokens, 4) if tokens else 0.0,
        "distinct_chunk_share": round(workloads.distinct_chunk_share(wl.first), 4),
        "jsonl_sha256_16": digest(lines),
    }


def freeze_heap() -> None:
    """Keep the benchmark's own long-lived objects out of later collections.

    The inputs, the engine and the tagged documents waiting to be stored
    would otherwise be scanned by every full collection in the timed
    steps that follow, a cost a caller holding less would not pay.  Frozen
    objects are still freed when their last reference goes.
    """
    gc.collect()
    gc.freeze()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# --------------------------------------------------------------------------
# Untraced run: end-to-end metrics
# --------------------------------------------------------------------------

def end_to_end(clock, batches, cycles, effective) -> dict:
    """The end-to-end metrics from clock readings.

    ``effective(t0, t1)`` gives the ns of an interval and the factor it is
    divided by (see speed.py).
    """
    times = list(zip(*clock))
    def ns(t0, t1):
        took, slowdown = effective(t0, t1)
        return took / slowdown

    def batch_mb_s(size, first, end):
        _, slowdown = effective(times[first][0], times[end - 1][1])
        took = sum(effective(t0, t1)[0] for t0, t1, _ in times[first:end])
        return size / took * slowdown * 1e3

    def append_rec_s(appends):
        _, slowdown = effective(appends[0][0], appends[-1][1])
        took = sum(effective(t0, t1)[0] for t0, t1 in appends)
        return len(appends) / took * slowdown * 1e9

    docs = [ns(t0, t2) for t0, _, t2 in times]
    queries = [ns(t0, t1) for c in cycles for _, t0, t1 in c["queries"]]
    return {
        "tag_mb_s": (statistics.median(batch_mb_s(*b) for b in batches), "MB/s"),
        "doc_ms_p50": (statistics.median(docs) / 1e6, "ms"),
        "doc_ms_p99": (percentile(docs, 0.99) / 1e6, "ms"),
        "store_append_rec_s": (statistics.median(
            append_rec_s(c["appends"]) for c in cycles), "1/s"),
        "store_reopen_s": (statistics.median(
            ns(*c["reopen"]) for c in cycles) / 1e9, "s"),
        "query_ms_p50": (statistics.median(queries) / 1e6, "ms"),
    }


def run_untraced(wl, seconds: float, workdir: Path) -> dict:
    checker = Checker()
    engine = build_engine()
    tag_seconds = seconds * wl.tag_share
    with SpeedSampler() as sampler:
        warm_up(engine, wl)
        freeze_heap()
        lines, clock, batches = tag_phase(engine, wl, tag_seconds, checker)
        docs = retag_first(engine, wl, lines, checker)
        queries = make_queries(wl.query_rng, docs)
        freeze_heap()
        cycles = store_phase(workdir, docs, queries, seconds - tag_seconds, checker)

    metrics = end_to_end(clock, batches, cycles, sampler.effective)
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    unscaled = end_to_end(clock, batches, cycles,
                          lambda t0, t1: (sampler.effective(t0, t1)[0], 1.0))
    details = {
        "properties": properties(wl, docs, lines),
        "samples": {"doc": len(clock[0]), "tag_batches": len(batches),
                    "store_cycles": len(cycles),
                    "query": sum(len(c["queries"]) for c in cycles),
                    "speed_probe": len(sampler.at)},
        "unscaled": {name: value for name, (value, _) in unscaled.items()},
    }
    return finish(checker, metrics, details)


# --------------------------------------------------------------------------
# Traced run: per-layer metrics
# --------------------------------------------------------------------------

def split_for_cli(docs) -> list:
    """The first block as CLI_FILES input files of about equal size."""
    if len(docs) >= CLI_FILES:
        step = math.ceil(len(docs) / CLI_FILES)
        return ["\n".join(docs[i:i + step]) for i in range(0, len(docs), step)]
    parts = " ۔ ".join(docs).split(" ۔ ")
    step = math.ceil(len(parts) / CLI_FILES)
    return [" ۔ ".join(parts[i:i + step]) for i in range(0, len(parts), step)]


def run_cli(argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    t0 = _now()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, (_now() - t0) / 1e9, out.getvalue()


def cli_metrics(engine, wl, workdir: Path, store_path: Path, checker: Checker,
                notes: list) -> dict:
    texts = split_for_cli(wl.first)
    paths = []
    for n, text in enumerate(texts):
        path = workdir / f"input-{n}.txt"
        path.write_text(text, encoding="utf-8")
        paths.append(str(path))
    expected = "".join(pipeline.render(engine.tag_text(t), "jsonl") + "\n" for t in texts)
    metrics = {}
    for name, extra in (("cli.tag_s", []), ("cli.tag_jobs2_s", ["--jobs", "2"])):
        code, seconds, out = run_cli(["tag", "--format", "jsonl", *extra, *paths])
        if code == 2 and extra:
            notes.append(f"{name} absent: the tag command rejects {extra}")
            continue
        checker.record(name, [] if code == 0 and out == expected
                       else [f"exit {code} or output differs from the API"])
        metrics[name] = (seconds, "s")
    code, seconds, out = run_cli(["query", "--store", str(store_path), "--label", "PERSON"])
    with CorpusStore(store_path) as store:
        rows = len(store.query(label="PERSON"))
    checker.record("cli.query", [] if code == 0 and out.count("\n") == rows
                   else [f"exit {code} or {out.count(chr(10))} rows, expected {rows}"])
    metrics["cli.query_s"] = (seconds, "s")
    return metrics


def time_tagging(engine, docs) -> float:
    t0 = _now()
    for raw in docs:
        engine.tag_text(raw)
    return (_now() - t0) / 1e9


def trace_overhead(engine, first) -> float:
    """Traced over untraced tagging time, minus 1, on about 100 KB of input.

    Untraced and traced passes alternate, so that both sides of a pair see
    the host in the same state; the result is the median pair.
    """
    sample, size = [], 0
    for raw in first:
        sample.append(raw[:OVERHEAD_BYTES - size])
        size += len(sample[-1].encode("utf-8"))
        if size >= OVERHEAD_BYTES:
            break
    ratios = []
    for _ in range(OVERHEAD_PAIRS):
        plain = time_tagging(engine, sample)
        hooks = Hooks(Recorder())
        hooks.install()
        try:
            traced = time_tagging(engine, sample)
        finally:
            hooks.remove()
        ratios.append(traced / plain)
    return statistics.median(ratios) - 1


def run_traced(wl, workdir: Path) -> dict:
    checker = Checker()
    engine = build_engine()
    warm_up(engine, wl)
    lines, _, _ = tag_phase(engine, wl, 0.0, checker)
    docs = retag_first(engine, wl, lines, checker)
    overhead = trace_overhead(engine, wl.first)

    rec = Recorder()
    hooks = Hooks(rec)
    hooks.install()
    try:
        for k, raw in enumerate(wl.first):
            rec.current_op = k
            doc = engine.tag_text(raw)
            for fmt in pipeline.RENDER_FORMATS:
                with rec.span(f"pipeline.render.{fmt}"):
                    line = pipeline.render(doc, fmt)
            checker.record(f"traced tag #{k}",
                           [] if line == lines[k] else ["traced jsonl differs"])
        build_ms = []
        for _ in range(BUILD_REPEATS):
            t0 = _now()
            with rec.span("pipeline.build_engine"):
                build_engine()
            build_ms.append((_now() - t0) / 1e6)
    finally:
        hooks.remove()

    queries = make_queries(wl.query_rng, docs)
    store_path = workdir / "store.jsonl"
    cycle = store_cycle(store_path, docs, queries, checker, rec)
    notes = [f"hook target missing: {name}" for name in hooks.missing]
    cli_values = cli_metrics(engine, wl, workdir, store_path, checker, notes)

    spans_dir = workdir.parent / "spans"
    spans_dir.mkdir(exist_ok=True)
    spans_path = spans_dir / f"{wl.name}.tsv"
    rec.write(spans_path)

    mb = sum(len(raw.encode("utf-8")) for raw in wl.first) / 1e6
    summary = rec.summary()

    def total_ms(name):
        return summary.get(name, (0, 0, 0))[1] / 1e6

    def per_mb(value):
        return value / mb

    metrics = {}

    def put(name, value, unit):
        metrics[name] = (value, unit)

    def put_calls(span_name):
        calls = rec.calls[span_name]
        put(f"{span_name}.calls_per_mb", per_mb(calls), "1/MB")
        put(f"{span_name}.hit_ratio", rec.hits[span_name] / calls if calls else 0.0, "ratio")
        put(f"{span_name}.ms_per_mb", per_mb(total_ms(span_name)), "ms/MB")

    # Metrics of a hook that no longer resolves are left out; notes name it.
    hooked = hooks.installed
    for name in ("text.normalize_whitespace", "text.tokenize"):
        if name in hooked:
            put(f"{name}.ms_per_mb", per_mb(total_ms(name)), "ms/MB")
    put("text.tokens_per_mb", per_mb(sum(len(d.tokens) for d in docs)), "1/MB")
    put("text.distinct_chunk_share", workloads.distinct_chunk_share(wl.first), "ratio")
    for name in ["gazetteer.lookup_longest"] + [f"rules.{m}" for m in MATCHERS]:
        if name in hooked:
            put_calls(name)
    if "gazetteer.load" in summary:
        count, total, _ = summary["gazetteer.load"]
        put("gazetteer.load_ms", total / count / 1e6, "ms")
    if "pipeline.tag_text" in hooked:
        put("pipeline.tag_text.ms_per_mb", per_mb(total_ms("pipeline.tag_text")), "ms/MB")
        put("pipeline.cascade_self.ms_per_mb",
            per_mb(summary["pipeline.tag_text"][2] / 1e6), "ms/MB")
    if "pipeline.resolve_conflicts" in hooked:
        put("pipeline.resolve_conflicts.ms_per_mb",
            per_mb(total_ms("pipeline.resolve_conflicts")), "ms/MB")
        proposals = rec.counts["proposals"]
        put("pipeline.accepted_per_proposal",
            rec.counts["accepted"] / proposals if proposals else 0.0, "ratio")
        for rule in RuleId:
            put(f"pipeline.proposals.{rule.value}",
                per_mb(rec.counts["proposals." + rule.value]), "1/MB")
            put(f"pipeline.accepted.{rule.value}",
                per_mb(rec.counts["accepted." + rule.value]), "1/MB")
    for fmt in pipeline.RENDER_FORMATS:
        put(f"pipeline.render.{fmt}.ms_per_mb",
            per_mb(total_ms(f"pipeline.render.{fmt}")), "ms/MB")
    put("pipeline.build_engine_ms", statistics.median(build_ms), "ms")

    append_us = [(t1 - t0) / 1e3 for t0, t1 in cycle["appends"]]
    put("corpus.append_us_p50", statistics.median(append_us), "us")
    put("corpus.append_us_p99", percentile(append_us, 0.99), "us")
    t0, t1 = cycle["reopen"]
    put("corpus.reopen_mb_s", cycle["store_bytes"] / (t1 - t0) * 1e3, "MB/s")
    for kind in ("label", "rule", "surface_hit", "surface_miss", "combined"):
        put(f"corpus.query_ms.{kind}",
            statistics.median(t1 - t0 for k, t0, t1 in cycle["queries"] if k == kind) / 1e6,
            "ms")
    put("corpus.store_mb", cycle["store_bytes"] / 1e6, "MB")
    metrics.update(cli_values)
    put("trace.overhead_share", overhead, "ratio")

    details = {"properties": properties(wl, docs, lines), "notes": notes,
               "spans": len(rec.name), "spans_file": str(spans_path.relative_to(
                   workdir.parent.parent))}
    return finish(checker, metrics, details)


def finish(checker: Checker, metrics: dict, details: dict) -> dict:
    details["error_rate"] = checker.failed / checker.attempted
    if checker.reasons:
        details["failures"] = checker.reasons
    return {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
        "details": details,
    }


def main(argv) -> int:
    name, seed, seconds, trace, workdir = argv
    wl = workloads.Workload(name, int(seed))
    workdir = Path(workdir)
    if trace == "1":
        result = run_traced(wl, workdir)
    else:
        result = run_untraced(wl, float(seconds), workdir)
    print(json.dumps(result, ensure_ascii=False))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
