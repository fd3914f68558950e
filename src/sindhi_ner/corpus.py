"""Tagged-corpus storage, gold-standard loading, and evaluation.

CorpusStore keeps tagged documents in an append-only jsonl file.  In
memory it holds each record by id, one flat table of every stored entity
beside its record id, and the table's row numbers per label and per rule,
which ``query`` reads; reopening a store rebuilds all of them from disk.
GoldCorpus holds token/label sequences read from tab-separated files, and
``evaluate`` re-tags each gold document and scores the output token by
token.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from itertools import compress, repeat
from operator import contains, is_
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .errors import (
    CorruptStore,
    EmptyCorpus,
    LabelMismatch,
    MalformedLine,
    TokenizationMismatch,
    TornRecordWarning,
    UnknownLabel,
)
from .gazetteer import read_lines
from .pipeline import (
    JSONL_ENCODER,
    SPAN_RULE,
    SPAN_SURFACE,
    SPAN_TOKEN_END,
    SPAN_TOKEN_START,
    Engine,
    EntitySpan,
    TaggedDocument,
    entity_from_dict,
    entity_to_dict,
)
from .rules import LABEL_BY_VALUE, LABEL_VALUE, RULE_BY_VALUE, RuleId, TagLabel

_DOCSTART = "-DOCSTART-"

# One decoder for every store line: ``raw_decode`` plus an end check on the
# stripped line accepts exactly the lines ``json.loads`` accepts.
_RAW_DECODE = json.JSONDecoder().raw_decode


def _narrow(ids, entities, keep):
    """The ids and entities at the positions ``keep`` marks true."""
    keep = list(keep)
    return list(compress(ids, keep)), list(compress(entities, keep))


Location = Tuple[int, int, int]  # (record id, token_start, token_end)


@dataclass
class StoredDocument:
    doc_id: int
    text: str
    entities: List[EntitySpan]


class CorpusStore:
    """Append-only jsonl store of tagged documents.

    Records carry strictly increasing integer ids starting at 1.  The
    file is the source of truth.  In memory the store keeps the records by
    id and a flat table of every stored entity beside its record id:
    records in the order they were loaded or appended, and each record's
    entities in stable token-start order, so the table is in (id, start)
    order.  Beside the table it keeps, per label and per rule, the
    ascending row numbers of that label's or rule's entities; ``query``
    reads a label or rule from its rows and needs no sort.  All of it is
    rebuilt on open.

    A last line without its newline that is not valid UTF-8 or not JSON is
    a torn write: it is dropped with a warning, and the first append cuts
    the file back to the end of the last whole record.  Any other damaged
    line raises CorruptStore.  The file is opened for writing on the
    first append, so a store that is only read never writes; writes are
    flushed per record.  Records returned by ``get`` and ``documents``
    are the stored ones, in the order they were stored, and must not be
    modified.
    """

    def __init__(self, path):
        self.path = Path(path)
        self._records: Dict[int, StoredDocument] = {}
        self._next_id = 1
        # Every stored entity in (id, start) order, and its record's id.
        self._entities: List[EntitySpan] = []
        self._entity_ids: List[int] = []
        # Row numbers into that table, ascending, per label and per rule.
        # Every key is present from the start: a setdefault per entity
        # would allocate a list on every call.
        self._label_rows: Dict[TagLabel, List[int]] = {label: [] for label in TagLabel}
        self._rule_rows: Dict[RuleId, List[int]] = {rule: [] for rule in RuleId}
        self._fh = None
        # The file's last record has no newline; the first append writes one.
        self._unterminated = False
        # Byte offset of a dropped torn tail; the first append cuts it off.
        self._torn_at: Optional[int] = None
        if self.path.exists():
            self._load()

    def _load(self):
        offset = 0
        raw = b""
        with open(self.path, "rb") as fh:
            for raw in fh:
                try:
                    line = raw.decode("utf-8").strip()
                    if line:
                        record, end = _RAW_DECODE(line)
                        if end != len(line):
                            raise ValueError("data after the record")
                        doc_id = record["id"]
                        text = record["text"]
                        entities = [entity_from_dict(d) for d in record["entities"]]
                        if not isinstance(doc_id, int) or doc_id < self._next_id:
                            raise ValueError("record ids must increase")
                except (ValueError, KeyError, TypeError) as exc:
                    if raw.endswith(b"\n") or not isinstance(
                            exc, (UnicodeDecodeError, json.JSONDecodeError)):
                        raise CorruptStore(self.path, offset) from exc
                    # Only the last line can lack its newline: a torn write.
                    warnings.warn(f"{self.path}: dropped a torn final record at "
                                  f"byte offset {offset}", TornRecordWarning,
                                  stacklevel=3)
                    self._torn_at = offset
                    return
                if line:
                    self._admit(StoredDocument(doc_id, text, entities))
                offset += len(raw)
        self._unterminated = bool(raw) and not raw.endswith(b"\n")

    def _admit(self, doc: StoredDocument):
        """Add a record to memory; the only writer of the entity table."""
        self._records[doc.doc_id] = doc
        self._next_id = doc.doc_id + 1
        if doc.entities:
            label_rows, rule_rows = self._label_rows, self._rule_rows
            # Stable, and one linear pass over the tagger's ordered output.
            entities = sorted(doc.entities, key=SPAN_TOKEN_START)
            for row, entity in enumerate(entities, len(self._entities)):
                label_rows[entity.label].append(row)
                rule_rows[entity.rule].append(row)
            self._entities.extend(entities)
            self._entity_ids.extend(repeat(doc.doc_id, len(entities)))

    def append(self, tagged: TaggedDocument) -> int:
        """Store one tagged document; returns its assigned id."""
        doc = StoredDocument(self._next_id, tagged.source, list(tagged.entities))
        line = JSONL_ENCODER.encode(
            {"id": doc.doc_id, "text": doc.text,
             "entities": [entity_to_dict(e) for e in doc.entities]})
        if self._fh is None:
            self._fh = open(self.path, "a", encoding="utf-8")
            if self._torn_at is not None:
                self._fh.truncate(self._torn_at)
                self._torn_at = None
        if self._unterminated:
            line = "\n" + line
        self._fh.write(line + "\n")
        self._fh.flush()
        self._unterminated = False
        self._admit(doc)
        return doc.doc_id

    def get(self, doc_id: int) -> StoredDocument:
        return self._records[doc_id]

    def __len__(self) -> int:
        return len(self._records)

    def documents(self) -> Iterator[StoredDocument]:
        # Ids increase on load and on append, so insertion order is id
        # order.  The copy lets a caller append while iterating.
        yield from list(self._records.values())

    def query(self, label: Optional[str] = None, surface: Optional[str] = None,
              rule: Optional[str] = None) -> List[Tuple[Location, EntitySpan]]:
        """Entities matching every given filter, ordered by (id, start).

        ``label`` matches exactly, ``surface`` is a casefolded substring
        test, ``rule`` matches the producing rule's name exactly.  A label
        or rule that names no member matches nothing.  Entities of one
        record that start together keep their stored order.
        """
        if label is not None:
            label = LABEL_BY_VALUE.get(label)
            if label is None:
                return []
        if rule is not None:
            rule = RULE_BY_VALUE.get(rule)
            if rule is None:
                return []
        # A label, or else a rule, selects its rows; the rows ascend, so
        # the hits stay in table order.  The later tests, the casefolded
        # surface above all, run only on the rows kept so far.
        ids, entities = self._entity_ids, self._entities
        if label is not None or rule is not None:
            rows = self._label_rows[label] if label is not None else self._rule_rows[rule]
            ids = list(map(ids.__getitem__, rows))
            entities = list(map(entities.__getitem__, rows))
        if label is not None and rule is not None:
            ids, entities = _narrow(
                ids, entities, map(is_, map(SPAN_RULE, entities), repeat(rule)))
        if surface is not None:
            folded = map(str.casefold, map(SPAN_SURFACE, entities))
            ids, entities = _narrow(
                ids, entities, map(contains, folded, repeat(surface.casefold())))
        return list(zip(
            zip(ids, map(SPAN_TOKEN_START, entities), map(SPAN_TOKEN_END, entities)),
            entities))

    def close(self):
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "CorpusStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def store_document(store: CorpusStore, doc: TaggedDocument) -> int:
    """Append one tagged document to the store; returns its record id."""
    return store.append(doc)


def query(store: CorpusStore, label: Optional[str] = None,
          surface: Optional[str] = None, rule: Optional[str] = None):
    """Free-function form of :meth:`CorpusStore.query`."""
    return store.query(label=label, surface=surface, rule=rule)


# --------------------------------------------------------------------------
# Gold corpora
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class GoldDocument:
    tokens: Tuple[str, ...]
    labels: Tuple[str, ...]  # label values or "O"


@dataclass(frozen=True)
class GoldCorpus:
    documents: Tuple[GoldDocument, ...]

    @property
    def token_count(self) -> int:
        return sum(len(d.tokens) for d in self.documents)


def load_gold(path) -> GoldCorpus:
    """Read token<TAB>label lines; blank lines separate documents."""
    path = Path(path)
    docs: List[GoldDocument] = []
    tokens: List[str] = []
    labels: List[str] = []

    def flush():
        if tokens:
            docs.append(GoldDocument(tuple(tokens), tuple(labels)))
            tokens.clear()
            labels.clear()

    for lineno, raw in read_lines(path):
        line = raw.rstrip("\n").rstrip("\r")
        if not line.strip():
            flush()
            continue
        if line.split("\t")[0].strip() == _DOCSTART:
            continue
        parts = line.split("\t")
        if len(parts) != 2 or not parts[0].strip() or not parts[1].strip():
            raise MalformedLine(
                path, lineno, f"expected token<TAB>label, got {line!r}")
        token, label = parts[0].strip(), parts[1].strip()
        if label != "O" and label not in LABEL_BY_VALUE:
            raise UnknownLabel(path, lineno, f"unknown label {label!r}")
        tokens.append(token)
        labels.append(label)
    flush()
    if not docs:
        raise EmptyCorpus(f"no documents in {path}")
    return GoldCorpus(tuple(docs))


# --------------------------------------------------------------------------
# Scoring
# --------------------------------------------------------------------------

@dataclass
class LabelScore:
    tp: int = 0
    fp: int = 0
    fn: int = 0

    @property
    def precision(self) -> float:
        return self.tp / (self.tp + self.fp) if self.tp + self.fp else 0.0

    @property
    def recall(self) -> float:
        return self.tp / (self.tp + self.fn) if self.tp + self.fn else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if p + r else 0.0


@dataclass
class EvalReport:
    total_tokens: int
    correct_tokens: int
    per_label: Dict[str, LabelScore] = field(default_factory=dict)

    @property
    def accuracy(self) -> float:
        return self.correct_tokens / self.total_tokens if self.total_tokens else 0.0

    @property
    def accuracy_display(self) -> str:
        return f"{100 * self.correct_tokens / self.total_tokens:.2f}%"

    def to_dict(self) -> dict:
        return {
            "total_tokens": self.total_tokens,
            "correct_tokens": self.correct_tokens,
            "accuracy": self.accuracy_display,
            "labels": {
                name: {"tp": s.tp, "fp": s.fp, "fn": s.fn,
                       "precision": s.precision, "recall": s.recall, "f1": s.f1}
                for name, s in sorted(self.per_label.items())
            },
        }


def score_labels(gold: Sequence[Sequence[str]],
                 predicted: Sequence[Sequence[str]]) -> EvalReport:
    """Token-level scores for aligned gold and predicted label sequences."""
    report = EvalReport(total_tokens=0, correct_tokens=0)
    for gold_seq, pred_seq in zip(gold, predicted):
        if len(gold_seq) != len(pred_seq):
            raise TokenizationMismatch(
                f"sequence lengths differ: {len(gold_seq)} gold vs "
                f"{len(pred_seq)} predicted")
        for g, p in zip(gold_seq, pred_seq):
            report.total_tokens += 1
            if g == p:
                report.correct_tokens += 1
            if p != "O":
                score = report.per_label.setdefault(p, LabelScore())
                if p == g:
                    score.tp += 1
                else:
                    score.fp += 1
            if g != "O" and g != p:
                report.per_label.setdefault(g, LabelScore()).fn += 1
    return report


def predicted_labels(doc: TaggedDocument) -> List[str]:
    labels = ["O"] * len(doc.tokens)
    for e in doc.entities:
        label = LABEL_VALUE[e.label]
        for i in range(e.token_start, e.token_end):
            labels[i] = label
    return labels


def evaluate(engine: Engine, gold: GoldCorpus) -> EvalReport:
    """Re-tag every gold document and score token labels.

    Gold tokens are joined with single spaces and run through the engine;
    if the engine's tokenizer disagrees about the token count the corpus
    and engine cannot be compared and TokenizationMismatch is raised.
    """
    if not gold.documents:
        raise EmptyCorpus("gold corpus has no documents")
    for idx, doc in enumerate(gold.documents):
        for label in doc.labels:
            if label != "O" and label not in LABEL_BY_VALUE:
                raise LabelMismatch(
                    f"document {idx + 1}: label {label!r} is not a tag label")
    gold_seqs = []
    pred_seqs = []
    for idx, doc in enumerate(gold.documents):
        tagged = engine.tag_text(" ".join(doc.tokens))
        if len(tagged.tokens) != len(doc.tokens):
            raise TokenizationMismatch(
                f"document {idx + 1}: gold has {len(doc.tokens)} tokens but "
                f"the tokenizer produced {len(tagged.tokens)}")
        gold_seqs.append(doc.labels)
        pred_seqs.append(predicted_labels(tagged))
    return score_labels(gold_seqs, pred_seqs)
