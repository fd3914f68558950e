"""Tagged-corpus storage, gold-standard loading, and evaluation.

CorpusStore keeps tagged documents in an append-only jsonl file.  In
memory it holds each record by id, one flat table of every stored entity
beside its record id, and the table's row numbers per label and per rule;
reopening a store rebuilds all of them from disk.  The first query builds
each row's result pair and casefolded surface, which ``query`` reads.
GoldCorpus holds token/label sequences read from tab-separated files, and
``evaluate`` re-tags each gold document and scores the output token by
token.
"""

from __future__ import annotations

import threading
import warnings
from itertools import compress, repeat
from json import JSONDecodeError
from json.encoder import encode_basestring
from operator import contains, is_
from pathlib import Path
from typing import Dict, Iterator, List, Mapping, NamedTuple, Optional, Sequence, Tuple

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
    SPAN_RULE,
    SPAN_SURFACE,
    SPAN_TOKEN_END,
    SPAN_TOKEN_START,
    Engine,
    EntitySpan,
    TaggedDocument,
    jsonl_entities,
    predicted_labels,
    read_record,
)
from .rules import LABEL_BY_VALUE, RULE_BY_VALUE, RuleId, TagLabel
from .text import NO_ENTRIES

_DOCSTART = "-DOCSTART-"

Location = Tuple[int, int, int]  # (record id, token_start, token_end)


class StoredDocument(NamedTuple):
    doc_id: int
    text: str
    entities: List[EntitySpan]


class _StoredEntities(list):
    """A stored record's entities: a list that refuses every change, so
    that a caller holding a record cannot change what the store holds.
    ``list(entities)`` is a copy that can be changed."""

    __slots__ = ()

    def _refuse(self, *args, **kwargs):
        raise TypeError("a stored record's entities cannot be changed")

    __setitem__ = __delitem__ = __iadd__ = __imul__ = _refuse
    append = clear = extend = insert = pop = remove = reverse = sort = _refuse

    def __reduce__(self):
        return _StoredEntities, (list(self),)


# Shared by every record without entities: nothing can change it.
_NO_STORED_ENTITIES = _StoredEntities()


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
    rebuilt on open.  Each row's result pair ``(location, entity)`` and
    casefolded surface are built by the first query, for the rows stored
    so far, and by each later query for the rows appended since, so a
    store that is only appended to or reopened builds none of them.

    A last line without its newline that is not valid UTF-8 or not JSON is
    a torn write: it is dropped with a warning, and the first append cuts
    the file back to the end of the last whole record.  Any other line
    that ``read_record`` refuses, or whose id is not above the last one,
    raises CorruptStore with the rule it broke; whitespace lines are
    skipped.  The file is opened for writing on the first append, so a
    store that is only read never writes; writes are flushed per record.
    ``get`` and ``documents`` return the stored records, named tuples, in
    the order they were stored.  A record's
    ``entities`` is a list that refuses every change (TypeError), so no
    caller can change what a later ``get``, ``documents`` or ``query``
    returns; ``list(record.entities)`` is a copy that can be changed.
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
        # Per row of the table, as far as it reached at the last query:
        # the pair ``query`` returns and the casefolded surface.
        self._hits: List[Tuple[Location, EntitySpan]] = []
        self._folded: List[str] = []
        self._adding = threading.Lock()
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
                    line = raw.decode("utf-8")
                    if not line.isspace():
                        record, text, entities = read_record(line)
                        doc_id = record["id"]
                        if type(doc_id) is not int or doc_id < self._next_id:
                            raise ValueError("record ids must be increasing ints")
                        self._admit(doc_id, text, entities)
                except (ValueError, KeyError) as exc:
                    if raw.endswith(b"\n") or not isinstance(
                            exc, (UnicodeDecodeError, JSONDecodeError)):
                        reason = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
                        raise CorruptStore(self.path, offset, reason) from exc
                    # Only the last line can lack its newline: a torn write.
                    warnings.warn(f"{self.path}: dropped a torn final record at "
                                  f"byte offset {offset}", TornRecordWarning,
                                  stacklevel=3)
                    self._torn_at = offset
                    return
                offset += len(raw)
        self._unterminated = bool(raw) and not raw.endswith(b"\n")

    def _admit(self, doc_id: int, text: str, entities: Sequence[EntitySpan]):
        """Add a record to memory; the only builder of a StoredDocument
        and the only writer of the entity table."""
        entities = _StoredEntities(entities) if entities else _NO_STORED_ENTITIES
        self._records[doc_id] = StoredDocument(doc_id, text, entities)
        self._next_id = doc_id + 1
        if entities:
            label_rows, rule_rows = self._label_rows, self._rule_rows
            # Stable, and one linear pass over the tagger's ordered output.
            entities = sorted(entities, key=SPAN_TOKEN_START)
            for row, entity in enumerate(entities, len(self._entities)):
                label_rows[entity.label].append(row)
                rule_rows[entity.rule].append(row)
            self._entities.extend(entities)
            self._entity_ids.extend(repeat(doc_id, len(entities)))

    def append(self, tagged: TaggedDocument) -> int:
        """Store one tagged document; returns its assigned id.

        The record is the document's jsonl line with ``"id"`` put first.
        It is encoded whole before its first byte is written: an append that
        fails to encode it (UnicodeEncodeError) writes and stores nothing.
        """
        doc_id = self._next_id
        # Three pieces, never joined: the head (a newline ending an unterminated
        # last record, the id, the text), the entity list and the tail.
        head = '%s{"id": %d, "text": %s, "entities": [' % (
            "\n" if self._unterminated else "", doc_id, encode_basestring(tagged.source))
        pieces = (head.encode("utf-8"), jsonl_entities(tagged.entities).encode("utf-8"), b"]}\n")
        if self._fh is None:
            self._fh = open(self.path, "ab")
            if self._torn_at is not None:
                self._fh.truncate(self._torn_at)
                self._torn_at = None
        self._fh.writelines(pieces)
        self._fh.flush()
        self._unterminated = False
        self._admit(doc_id, tagged.source, tagged.entities)
        return doc_id

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
        # the hits stay in table order.  The later tests, the surface
        # above all, run only on the rows kept so far.
        hits, folded = self._result_rows(), self._folded
        rows = range(len(hits))
        if label is not None or rule is not None:
            rows = self._label_rows[label] if label is not None else self._rule_rows[rule]
            if label is not None and rule is not None:
                rules = map(SPAN_RULE, map(self._entities.__getitem__, rows))
                rows = list(compress(rows, map(is_, rules, repeat(rule))))
            folded = map(folded.__getitem__, rows)
        if surface is not None:
            rows = list(compress(rows, map(contains, folded, repeat(surface.casefold()))))
        return list(map(hits.__getitem__, rows))

    def _result_rows(self) -> List[Tuple[Location, EntitySpan]]:
        """The result pair of every row of the entity table; first adds
        the pairs and folded surfaces of the rows stored since the last
        call."""
        hits, entities = self._hits, self._entities
        # One thread at a time adds rows, so threads whose queries race
        # here add each row once.
        with self._adding:
            done = len(hits)
            if done < len(entities):
                new = entities[done:]
                surfaces = list(map(SPAN_SURFACE, new))
                # One folded string per distinct surface, shared by its rows.
                fold = {s: s.casefold() for s in set(surfaces)}
                self._folded.extend(map(fold.__getitem__, surfaces))
                hits.extend(zip(zip(self._entity_ids[done:], map(SPAN_TOKEN_START, new),
                                    map(SPAN_TOKEN_END, new)), new))
        return hits

    def close(self):
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "CorpusStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# --------------------------------------------------------------------------
# Gold corpora
# --------------------------------------------------------------------------

class GoldDocument(NamedTuple):
    tokens: Tuple[str, ...]
    labels: Tuple[str, ...]  # label values or "O"


class GoldCorpus(NamedTuple):
    documents: Tuple[GoldDocument, ...]


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

class LabelScore(NamedTuple):
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


class EvalReport(NamedTuple):
    total_tokens: int
    correct_tokens: int
    per_label: Mapping[str, LabelScore] = NO_ENTRIES

    @property
    def accuracy(self) -> float:
        return self.correct_tokens / self.total_tokens if self.total_tokens else 0.0

    @property
    def accuracy_display(self) -> str:
        return (f"{100 * self.correct_tokens / self.total_tokens:.2f}%"
                if self.total_tokens else "0.00%")

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
    """Token-level scores for aligned gold and predicted label sequences.

    Any string but ``"O"`` counts as a label.  Raises TokenizationMismatch
    when the two hold different numbers of documents, or naming the first
    document (from 1) whose two sequences differ in length.
    """
    if len(gold) != len(predicted):
        raise TokenizationMismatch(
            f"document counts differ: {len(gold)} gold vs {len(predicted)} predicted")
    total = correct = 0
    counts: Dict[str, List[int]] = {}  # per label: [tp, fp, fn]
    for idx, (gold_seq, pred_seq) in enumerate(zip(gold, predicted), 1):
        if len(gold_seq) != len(pred_seq):
            raise TokenizationMismatch(
                f"document {idx}: {len(gold_seq)} gold labels vs "
                f"{len(pred_seq)} predicted")
        for g, p in zip(gold_seq, pred_seq):
            total += 1
            if g == p:
                correct += 1
            if p != "O":
                counts.setdefault(p, [0, 0, 0])[0 if p == g else 1] += 1
            if g != "O" and g != p:
                counts.setdefault(g, [0, 0, 0])[2] += 1
    return EvalReport(total, correct, {name: LabelScore(*c) for name, c in counts.items()})


def evaluate(engine: Engine, gold: GoldCorpus) -> EvalReport:
    """Re-tag every gold document and score it with ``score_labels``.

    Gold tokens are joined with single spaces and run through the engine.
    Raises EmptyCorpus for no documents, LabelMismatch for a gold label
    that is no tag label, and TokenizationMismatch when the engine's
    tokenizer disagrees about a document's token count.
    """
    if not gold.documents:
        raise EmptyCorpus("gold corpus has no documents")
    for idx, doc in enumerate(gold.documents):
        for label in doc.labels:
            if label != "O" and label not in LABEL_BY_VALUE:
                raise LabelMismatch(
                    f"document {idx + 1}: label {label!r} is not a tag label")
    return score_labels([doc.labels for doc in gold.documents],
                        [predicted_labels(engine.tag_text(" ".join(doc.tokens)))
                         for doc in gold.documents])
