"""In-memory span recorder and the hooks the traced run installs.

Spans are recorded only from benchmark code: either around a call the
benchmark makes itself (``Recorder.span``), or by wrapping a public
function at the name through which ``pipeline`` and ``rules`` resolve it
(``Hooks``).  Nothing in the package is edited.  A hook whose target no
longer exists is reported by name instead of failing the run.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter
from contextlib import contextmanager

_now = time.perf_counter_ns


class Recorder:
    """Spans as parallel columns: name id, start, end, parent, op id."""

    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self._stack: list = []
        self.current_op = 0
        self.calls: Counter = Counter()
        self.hits: Counter = Counter()
        self.counts: Counter = Counter()

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self, nid: int) -> int:
        sid = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.current_op)
        self.end.append(0)
        self._stack.append(sid)
        self.start.append(_now())
        return sid

    def finish(self, sid: int) -> None:
        self.end[sid] = _now()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        sid = self.begin(self.name_id(name))
        try:
            yield
        finally:
            self.finish(sid)

    def summary(self) -> dict:
        """name -> (span count, total ns, self ns), in one pass over the spans.

        Self time is a span's duration minus that of its direct children.
        """
        width = len(self.names)
        count, total, child = [0] * width, [0] * width, [0] * width
        name, start, end, parent = self.name, self.start, self.end, self.parent
        for i in range(len(name)):
            d = end[i] - start[i]
            count[name[i]] += 1
            total[name[i]] += d
            if parent[i] >= 0:
                child[name[parent[i]]] += d
        return {n: (count[k], total[k], total[k] - child[k])
                for k, n in enumerate(self.names)}

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart_ns\tend_ns\tparent\top\n")
            names = self.names
            for i in range(len(self.name)):
                fh.write(f"{i}\t{names[self.name[i]]}\t{self.start[i]}\t"
                         f"{self.end[i]}\t{self.parent[i]}\t{self.op[i]}\n")


# RuleSet matchers the pipeline calls through ``engine.rules``.
MATCHERS = (
    "match_datetime",
    "match_url_email",
    "match_suffix",
    "match_title_designation",
    "match_surname_trigger",
    "resolve_postposition",
    "match_number_words",
    "match_initials",
    "match_abbreviation",
    "match_org_keyword",
)


class Hooks:
    """Install and remove span wrappers on the package's public functions."""

    def __init__(self, recorder: Recorder):
        import sindhi_ner.pipeline as pipeline
        import sindhi_ner.rules as rules

        self.rec = recorder
        self.missing: list = []
        self.installed: set = set()
        self._saved: list = []
        # (owner, attribute, span name, wrapper kind)
        self.targets = [
            (pipeline, "tag_text", "pipeline.tag_text", "plain"),
            (pipeline, "normalize_whitespace", "text.normalize_whitespace", "plain"),
            (pipeline, "tokenize", "text.tokenize", "plain"),
            (pipeline, "lookup_longest", "gazetteer.lookup_longest", "hit"),
            (rules, "lookup_longest", "gazetteer.lookup_longest", "hit"),
            (pipeline, "resolve_conflicts", "pipeline.resolve_conflicts", "resolve"),
            (pipeline, "load_gazetteer", "gazetteer.load", "plain"),
        ]
        rule_set = getattr(rules, "RuleSet", None)
        for method in MATCHERS:
            self.targets.append((rule_set, method, f"rules.{method}", "hit"))

    def install(self) -> None:
        for owner, attr, name, kind in self.targets:
            label = f"{getattr(owner, '__name__', 'RuleSet')}.{attr}"
            fn = getattr(owner, attr, None) if owner is not None else None
            if not callable(fn):
                if label not in self.missing:
                    self.missing.append(label)
                continue
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, kind))
            self.installed.add(name)

    def remove(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def _wrap(self, fn, name: str, kind: str):
        rec = self.rec
        nid = rec.name_id(name)
        begin, finish = rec.begin, rec.finish
        calls, hits, counts = rec.calls, rec.hits, rec.counts

        if kind == "plain":
            def wrapper(*args, **kwargs):
                sid = begin(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    finish(sid)
        elif kind == "hit":
            def wrapper(*args, **kwargs):
                sid = begin(nid)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    finish(sid)
                calls[name] += 1
                if result:
                    hits[name] += 1
                return result
        else:
            def wrapper(proposals, *args, **kwargs):
                proposals = list(proposals)
                sid = begin(nid)
                try:
                    result = fn(proposals, *args, **kwargs)
                finally:
                    finish(sid)
                counts["proposals"] += len(proposals)
                counts["accepted"] += len(result)
                for p in proposals:
                    counts["proposals." + p.rule.value] += 1
                for e in result:
                    counts["accepted." + e.rule.value] += 1
                return result
        wrapper.__wrapped__ = fn
        return wrapper
