"""Engine assembly, the tagging cascade, and output rendering.

``build_engine`` loads gazetteers and word lists per an EngineConfig and
returns an immutable Engine.  ``tag_text`` normalizes, tokenizes, collects
rule proposals in cascade order, and resolves overlaps into a
TaggedDocument whose entities and untagged token indices partition the
token stream.

Conflict resolution is greedy: proposals are sorted strongest-first
(priority, then longer span, then leftmost start) and accepted unless they
overlap an already accepted span.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from functools import reduce
from itertools import chain, compress, filterfalse, repeat
from operator import and_, attrgetter, eq, itemgetter, or_, sub
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from .errors import ConfigError, MissingDataFile, UnknownFormat
from .gazetteer import (
    Category,
    Gazetteer,
    LETTER_NAME,
    MONTH_NAME,
    STOPWORD,
    load_gazetteer,
    load_suffix_table,
    load_word_list,
    lookup_longest,
)
from .rules import (
    ABBREVIATION_CATEGORIES,
    DEFAULT_PRIORITIES,
    DIRECT_CATEGORIES,
    DIRECT_LABELS,
    LABEL_BY_VALUE,
    LABEL_VALUE,
    PERSON_CATEGORIES,
    Proposal,
    RULE_BY_VALUE,
    RULE_VALUE,
    RuleId,
    RuleSet,
    SURNAME_CATEGORIES,
    TITLE_CATEGORIES,
    TagLabel,
    sort_key,
)
from .text import (
    EDGE_SPECIALS,
    NUMBER,
    TokenStream,
    WORD,
    normalize_whitespace,
    token_pattern,
    tokenize,
)

DATA_DIR = Path(__file__).resolve().parent / "data"
DEFAULT_CONFIG_PATH = DATA_DIR / "engine.conf"

RENDER_FORMATS = ("inline", "tabular", "jsonl")

# The encoder of every jsonl line the package writes: the same output as
# json.dumps(record, ensure_ascii=False), without a new encoder per call.
JSONL_ENCODER = json.JSONEncoder(ensure_ascii=False)

_START = attrgetter("start")
_END = attrgetter("end")
_LABEL = attrgetter("label")
_RULE = attrgetter("rule")
_TOKEN_START = attrgetter("token_start")
_TOKEN_END = attrgetter("token_end")

# Scan-gate bits, one per rule that starts only at listed norms.
(_DIRECT, _TITLE, _SURNAME, _NAME, _LETTER, _AMBIGUOUS, _NUMBER_WORD,
 _ABBREVIATION, _ORG_KEYWORD) = (1 << k for k in range(9))

_GAZETTEER_KEYS = "gazetteers"
_PATH_KEYS = ("suffixes", "stopwords", "months", "letters", "synonyms")


class EntitySpan(NamedTuple):
    """A resolved entity: token range, byte range, label, rule, surface."""

    token_start: int
    token_end: int
    start_byte: int
    end_byte: int
    label: TagLabel
    rule: RuleId
    surface: str


# Getters of single EntitySpan fields, for code that reads one field of
# many spans in C.  They index the tuple by the field order above.
(SPAN_TOKEN_START, SPAN_TOKEN_END, SPAN_LABEL, SPAN_RULE, SPAN_SURFACE) = (
    itemgetter(EntitySpan._fields.index(name))
    for name in ("token_start", "token_end", "label", "rule", "surface"))


@dataclass(frozen=True)
class TaggedDocument:
    """Tokenized text plus non-overlapping entities and leftover tokens.

    ``source`` is the whitespace-normalized text the byte spans index.
    Every token index is covered by exactly one entity or listed in
    ``untagged``.
    """

    source: str
    tokens: TokenStream
    entities: Tuple[EntitySpan, ...]
    untagged: Tuple[int, ...]


@dataclass(frozen=True)
class EngineConfig:
    """Paths and switches the engine is built from.

    Relative paths in a config file resolve against the file's directory.
    ``rule_flags`` enables or disables individual rules; ``priorities``
    overrides the default strength table.
    """

    gazetteers: Tuple[Path, ...]
    suffixes: Path
    stopwords: Path
    months: Path
    letters: Path
    synonyms: Optional[Path] = None
    edge_specials: str = EDGE_SPECIALS
    rule_flags: Mapping[RuleId, bool] = field(default_factory=dict)
    priorities: Mapping[RuleId, int] = field(default_factory=dict)

    @classmethod
    def default(cls) -> "EngineConfig":
        return load_config(DEFAULT_CONFIG_PATH)

    def with_gazetteers(self, paths: Sequence[Path]) -> "EngineConfig":
        return replace(self, gazetteers=tuple(Path(p) for p in paths))


def load_config(path) -> EngineConfig:
    """Parse a flat key=value config file into an EngineConfig."""
    path = Path(path)
    if not path.is_file():
        raise MissingDataFile(path)
    base = path.parent
    values: Dict[str, object] = {}
    rule_flags: Dict[RuleId, bool] = {}
    priorities: Dict[RuleId, int] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key.startswith("rule."):
                rule_flags[_parse_rule_id(path, lineno, key[5:])] = _parse_flag(
                    path, lineno, value)
            elif key.startswith("priority."):
                try:
                    priorities[_parse_rule_id(path, lineno, key[9:])] = int(value)
                except ValueError:
                    raise ConfigError(
                        f"{path}:{lineno}: priority must be an integer, got {value!r}"
                    ) from None
            elif key == _GAZETTEER_KEYS:
                values[key] = tuple(
                    base / p.strip() for p in value.split(",") if p.strip())
            elif key in _PATH_KEYS:
                values[key] = base / value if value else None
            elif key == "edge_specials":
                values[key] = value or EDGE_SPECIALS
            else:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
    for required in (_GAZETTEER_KEYS, "suffixes", "stopwords", "months", "letters"):
        if not values.get(required):
            raise ConfigError(f"{path}: missing required key {required!r}")
    return EngineConfig(
        gazetteers=values[_GAZETTEER_KEYS],
        suffixes=values["suffixes"],
        stopwords=values["stopwords"],
        months=values["months"],
        letters=values["letters"],
        synonyms=values.get("synonyms"),
        edge_specials=values.get("edge_specials", EDGE_SPECIALS),
        rule_flags=rule_flags,
        priorities=priorities,
    )


def _parse_rule_id(path, lineno, name: str) -> RuleId:
    try:
        return RuleId[name]
    except KeyError:
        raise ConfigError(f"{path}:{lineno}: unknown rule {name!r}") from None


def _parse_flag(path, lineno, value: str) -> bool:
    lowered = value.lower()
    if lowered in ("on", "true", "1", "yes"):
        return True
    if lowered in ("off", "false", "0", "no"):
        return False
    raise ConfigError(f"{path}:{lineno}: expected on/off, got {value!r}")


def _load_synonyms(path) -> Dict[str, str]:
    mapping: Dict[str, str] = {}
    with open(path, encoding="utf-8-sig") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2 or not parts[0] or not parts[1]:
                raise ConfigError(
                    f"{path}:{lineno}: expected FROM<TAB>TO in synonym map")
            mapping[parts[0].strip()] = parts[1].strip()
    return mapping


class Engine:
    """Immutable tagging engine: config, gazetteer, rules, synonym map."""

    def __init__(self, config: EngineConfig, gaz: Gazetteer, rules: RuleSet,
                 synonyms: Mapping[str, str]):
        self.config = config
        self.gaz = gaz
        self.rules = rules
        self.synonyms = dict(synonyms)
        self.enabled: Dict[RuleId, bool] = {
            rule: bool(config.rule_flags.get(rule, True)) for rule in RuleId}
        # Scan gates: a rule can start a match only at a norm that carries
        # its gate bit, so one pass over the norms finds every candidate.
        gate_sets = (
            (_DIRECT, gaz.first_token_norms(DIRECT_CATEGORIES)),
            (_TITLE, gaz.first_token_norms(TITLE_CATEGORIES)),
            (_SURNAME, gaz.first_token_norms(SURNAME_CATEGORIES)),
            (_NAME, gaz.first_token_norms(PERSON_CATEGORIES)),
            (_LETTER, rules.letters),
            (_AMBIGUOUS, gaz.single_token_norms(Category.AmbiguousName)
             | gaz.single_token_norms(Category.PersonFirstName)),
            (_NUMBER_WORD, rules.number_words),
            (_ABBREVIATION, gaz.first_token_norms(ABBREVIATION_CATEGORIES)),
            (_ORG_KEYWORD, rules.org_keywords),
        )
        self._gates: Dict[str, int] = {}
        for bit, norms in gate_sets:
            for norm in norms:
                self._gates[norm] = self._gates.get(norm, 0) | bit
        # Compile the token pattern now, not on the first tagged text.
        token_pattern(config.edge_specials)

    @property
    def enabled_rules(self) -> Tuple[RuleId, ...]:
        return tuple(rule for rule in RuleId if self.enabled[rule])

    def tag_text(self, raw: str) -> TaggedDocument:
        return tag_text(self, raw)


def build_engine(config: Optional[EngineConfig] = None) -> Engine:
    """Load all configured data files and assemble an Engine.

    Raises MissingDataFile naming the first absent path; data-file errors
    from the loaders propagate with file and line number.
    """
    if config is None:
        config = EngineConfig.default()
    required = list(config.gazetteers) + [
        config.suffixes, config.stopwords, config.months, config.letters]
    if config.synonyms is not None:
        required.append(config.synonyms)
    for p in required:
        if not Path(p).is_file():
            raise MissingDataFile(p)
    gaz = load_gazetteer(config.gazetteers)
    suffix_cats, markers = load_suffix_table(config.suffixes)
    rules = RuleSet(
        gaz=gaz,
        months=load_word_list(config.months, MONTH_NAME),
        letters=load_word_list(config.letters, LETTER_NAME),
        stopwords=load_word_list(config.stopwords, STOPWORD),
        suffixes={sfx: RuleSet.label_for_suffix_category(cat)
                  for sfx, cat in suffix_cats.items()},
        person_markers=markers,
        priorities={**DEFAULT_PRIORITIES, **config.priorities},
    )
    synonyms = _load_synonyms(config.synonyms) if config.synonyms else {}
    return Engine(config, gaz, rules, synonyms)


# --------------------------------------------------------------------------
# The cascade
# --------------------------------------------------------------------------

def tag_text(engine: Engine, raw: str) -> TaggedDocument:
    """Normalize, tokenize, run the cascade, and resolve conflicts."""
    source = normalize_whitespace(raw)
    stream = tokenize(source, engine.config.edge_specials)
    syn = engine.synonyms
    if syn and not syn.keys().isdisjoint(stream.norms):
        stream = replace(stream, norms=tuple(map(syn.get, stream.norms, stream.norms)))
    entities = resolve_conflicts(_collect(engine, stream), stream)
    # Entities are disjoint and ordered by start: the untagged tokens are
    # the gaps before, between and after them.
    gap_starts = chain((0,), map(_TOKEN_END, entities))
    gap_ends = chain(map(_TOKEN_START, entities), (len(stream),))
    untagged = tuple(chain.from_iterable(map(range, gap_starts, gap_ends)))
    return TaggedDocument(source=source, tokens=stream,
                          entities=entities, untagged=untagged)


def _mark(cover: set, *found: List[Proposal]) -> None:
    """Add every position covered by the proposals to ``cover``."""
    for proposals in found:
        if proposals:
            cover.update(chain.from_iterable(
                map(range, map(_START, proposals), map(_END, proposals))))


def _collect(engine: Engine, stream: TokenStream) -> List[Proposal]:
    """Run every enabled rule over the stream in cascade order.

    Order matters only through the coverage gates: the suffix rule skips
    positions already claimed, rule 6 skips positions claimed by rules
    1..5, the abbreviation rule skips positions claimed by initials, and
    the org-keyword rule sees everything claimed so far.  Direct gazetteer
    matches additionally never override date/time/URL/email shapes.

    Each rule visits only the positions its scan gate admits.  One pass
    over the norms finds the positions any gate admits, and the OR of
    their gate bits is the presence mask: a rule whose bit is absent from
    it cannot fire, so its phase is skipped.  Each remaining rule filters
    the candidates by its own bit.  Rule 1 runs only when the stream holds
    a number literal, and the URL/email and suffix rules only when some
    distinct norm passes their gate.
    """
    rules = engine.rules
    enabled = engine.enabled
    gaz = engine.gaz
    norms = stream.norms
    positions = range(len(norms))
    distinct = set(norms)
    gates = engine._gates
    candidates = list(compress(positions, map(gates.__contains__, norms)))
    bits = list(map(gates.__getitem__, map(norms.__getitem__, candidates)))
    present = reduce(or_, bits, 0)

    def at(gate: int):
        """Positions whose norm carries ``gate``, in text order."""
        return compress(candidates, map(and_, bits, repeat(gate)))

    def scan(match, where) -> List[Proposal]:
        """The proposals ``match`` makes at the positions in ``where``."""
        return [p for p in map(match, repeat(stream), where) if p is not None]

    covered: set = set()   # positions claimed by any rule so far
    blocked: set = set()   # positions claimed by rules 1-5: mute rule 6

    dates = links = direct = titles = surnames = suffixed = names = ()
    initials = ambiguous = numbers = abbreviations = orgs = ()
    if enabled[RuleId.R1_DateTime] and NUMBER in stream.kinds:
        numeric = map(eq, stream.kinds, repeat(NUMBER))
        dates = scan(rules.match_datetime, compress(positions, numeric))
    if enabled[RuleId.R_UrlEmail]:
        # A norm is its surface lowercased, or empty for edge punctuation,
        # which match_url_email rejects; so the gate, like the suffix gate
        # below, is tested once per distinct norm.
        shaped = {n for n in distinct
                  if "://" in n or "@" in n or n.startswith("www.")}
        if shaped:
            links = scan(rules.match_url_email,
                         compress(positions, map(shaped.__contains__, norms)))
    _mark(covered, dates, links)
    _mark(blocked, dates)

    if enabled[RuleId.R_GazetteerDirect] and present & _DIRECT:
        pri = rules.priorities[RuleId.R_GazetteerDirect]
        direct = []
        for i in at(_DIRECT):
            hit = lookup_longest(gaz, stream, i, DIRECT_CATEGORIES)
            if hit is None:
                continue
            entry, k = hit
            if not covered.isdisjoint(range(i, i + k)):
                continue
            direct.append(Proposal(i, i + k, DIRECT_LABELS[entry.category],
                                   RuleId.R_GazetteerDirect, pri))

    if enabled[RuleId.R5_TitleDesignation] and present & _TITLE:
        titles = list(chain.from_iterable(
            map(rules.match_title_designation, repeat(stream), at(_TITLE))))

    if enabled[RuleId.R4_SurnameTrigger] and present & _SURNAME:
        surnames = scan(rules.match_surname_trigger, at(_SURNAME))
    _mark(covered, direct, titles, surnames)
    _mark(blocked, titles, surnames)

    if enabled[RuleId.R2_Suffix]:
        endings, markers = rules.suffix_endings, rules.person_markers
        # The gate depends on the norm alone, so each distinct norm is
        # tested once.
        gate = {n for n in distinct if n in markers or n.endswith(endings)}
        if gate:
            pri = rules.priorities[RuleId.R2_Suffix]
            kinds = stream.kinds
            suffixed = []
            for i in filterfalse(covered.__contains__,
                                 compress(positions, map(gate.__contains__, norms))):
                if kinds[i] != WORD:
                    continue
                hit = rules.match_suffix(stream[i])
                if hit is not None:
                    suffixed.append(Proposal(i, i + 1, hit[0], RuleId.R2_Suffix, pri))

    if enabled[RuleId.R3_GazetteerName] and present & _NAME:
        pri = rules.priorities[RuleId.R3_GazetteerName]
        names = []
        for i in at(_NAME):
            hit = lookup_longest(gaz, stream, i, PERSON_CATEGORIES)
            if hit is not None:
                names.append(Proposal(i, i + hit[1], TagLabel.PERSON,
                                      RuleId.R3_GazetteerName, pri))

    if enabled[RuleId.R8_Initials] and present & _LETTER:
        initials = scan(rules.match_initials, at(_LETTER))
    _mark(blocked, suffixed, names)

    if enabled[RuleId.R6_Postposition] and present & _AMBIGUOUS:
        ambiguous = scan(rules.resolve_postposition,
                         filterfalse(blocked.__contains__, at(_AMBIGUOUS)))

    if enabled[RuleId.R7_NumberWords] and present & _NUMBER_WORD:
        numbers = scan(rules.match_number_words, at(_NUMBER_WORD))

    if enabled[RuleId.R9_Abbreviation] and present & (_ABBREVIATION | _LETTER):
        by_initials: set = set()
        _mark(by_initials, initials)
        abbreviations = scan(rules.match_abbreviation, (
            i for i, bit in zip(candidates, bits)
            if bit & _ABBREVIATION or (bit & _LETTER and i not in by_initials)))

    if enabled[RuleId.R10_OrgKeyword] and present & _ORG_KEYWORD:
        _mark(covered, suffixed, names, initials, ambiguous, numbers, abbreviations)
        made = map(rules.match_org_keyword, repeat(stream), at(_ORG_KEYWORD),
                   repeat(covered))
        orgs = [p for p in made if p is not None]

    return [*dates, *links, *direct, *titles, *surnames, *suffixed, *names,
            *initials, *ambiguous, *numbers, *abbreviations, *orgs]


def select_proposals(proposals: Iterable[Proposal]) -> List[Proposal]:
    """Greedy non-overlapping selection in strength order, result by start.

    The result is that of visiting every proposal in ``sort_key`` order
    and taking each one that overlaps nothing taken before it.  Proposals
    interact only through overlaps, so that pass runs on each cluster of
    transitively overlapping proposals alone, and a proposal that
    overlaps no other is taken without ranking.
    """
    taken: List[Proposal] = []
    cluster: List[Proposal] = []
    reach = 0  # end of the current cluster
    for p in sorted(proposals, key=_START):
        if p.start >= reach:
            taken += cluster if len(cluster) < 2 else _strongest_first(cluster)
            cluster = [p]
            reach = p.end
        else:
            cluster.append(p)
            if p.end > reach:
                reach = p.end
    taken += cluster if len(cluster) < 2 else _strongest_first(cluster)
    return taken


def _strongest_first(cluster: List[Proposal]) -> List[Proposal]:
    """The greedy pass over one cluster of two or more proposals."""
    taken: List[Proposal] = []
    occupied: set = set()
    for p in sorted(cluster, key=sort_key):
        span = range(p.start, p.end)
        if occupied.isdisjoint(span):
            taken.append(p)
            occupied.update(span)
    taken.sort(key=_START)
    return taken


def resolve_conflicts(proposals: Iterable[Proposal],
                      stream: TokenStream) -> Tuple[EntitySpan, ...]:
    """Select winning proposals and materialize them against the stream."""
    taken = select_proposals(proposals)
    if not taken:
        return ()
    token_starts = list(map(_START, taken))
    token_ends = list(map(_END, taken))
    start_bytes = list(map(stream.starts.__getitem__, token_starts))
    end_bytes = list(map(stream.ends.__getitem__, map(sub, token_ends, repeat(1))))
    src = stream.source.encode("utf-8")
    surfaces = map(bytes.decode, map(src.__getitem__, map(slice, start_bytes, end_bytes)))
    fields = zip(token_starts, token_ends, start_bytes, end_bytes,
                 map(_LABEL, taken), map(_RULE, taken), surfaces)
    # tuple.__new__ builds each EntitySpan from its field tuple without a
    # Python-level call per entity.
    return tuple(map(tuple.__new__, repeat(EntitySpan), fields))


# --------------------------------------------------------------------------
# Rendering
# --------------------------------------------------------------------------

def render(doc: TaggedDocument, fmt: str = "inline") -> str:
    """Render a tagged document as inline markup, token table, or jsonl."""
    if fmt == "inline":
        return _render_inline(doc)
    if fmt == "tabular":
        return _render_tabular(doc)
    if fmt == "jsonl":
        return _render_jsonl(doc)
    raise UnknownFormat(f"unknown render format {fmt!r}; expected one of "
                        + ", ".join(RENDER_FORMATS))


def _render_inline(doc: TaggedDocument) -> str:
    src = doc.source.encode("utf-8")
    pieces = []
    pos = 0
    for e in doc.entities:
        start, end, label = e.start_byte, e.end_byte, LABEL_VALUE[e.label]
        pieces.append(src[pos:start])
        pieces.append(f"<{label}>".encode("utf-8"))
        pieces.append(src[start:end])
        pieces.append(f"</{label}>".encode("utf-8"))
        pos = end
    pieces.append(src[pos:])
    return b"".join(pieces).decode("utf-8")


def _render_tabular(doc: TaggedDocument) -> str:
    labels = ["O"] * len(doc.tokens)
    for e in doc.entities:
        label = LABEL_VALUE[e.label]
        for i in range(e.token_start, e.token_end):
            labels[i] = label
    return "\n".join(f"{surface}\t{label}"
                     for surface, label in zip(doc.tokens.surfaces, labels))


def entity_to_dict(e: EntitySpan) -> dict:
    # Unpacking the named tuple is cheaper than reading seven attributes.
    token_start, token_end, start_byte, end_byte, label, rule, surface = e
    return {
        "start_byte": start_byte,
        "end_byte": end_byte,
        "token_start": token_start,
        "token_end": token_end,
        "label": LABEL_VALUE[label],
        "rule": RULE_VALUE[rule],
        "surface": surface,
    }


def entity_from_dict(d: Mapping) -> EntitySpan:
    """The EntitySpan of an ``entity_to_dict`` mapping.

    Raises ValueError for a label or rule that names no member.
    """
    label, rule = d["label"], d["rule"]
    try:
        label, rule = LABEL_BY_VALUE[label], RULE_BY_VALUE[rule]
    except (KeyError, TypeError):
        raise ValueError(f"unknown label or rule: {label!r}, {rule!r}") from None
    return tuple.__new__(EntitySpan, (
        d["token_start"], d["token_end"], d["start_byte"], d["end_byte"],
        label, rule, d["surface"]))


def _render_jsonl(doc: TaggedDocument) -> str:
    record = {
        "text": doc.source,
        "entities": [entity_to_dict(e) for e in doc.entities],
    }
    return JSONL_ENCODER.encode(record)


def parse_jsonl(text: str) -> List[Tuple[str, List[EntitySpan]]]:
    """Parse jsonl output back into (text, entities) pairs."""
    docs = []
    for line in text.splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        docs.append((record["text"],
                     [entity_from_dict(d) for d in record["entities"]]))
    return docs
