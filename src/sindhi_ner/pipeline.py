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

import gc
import re
from collections import defaultdict
from functools import reduce
from itertools import chain, compress, filterfalse, repeat
from json import JSONDecoder
from json.encoder import encode_basestring
from operator import attrgetter, eq, is_, itemgetter, or_
from pathlib import Path
from types import MappingProxyType
from typing import (Dict, FrozenSet, Iterable, List, Mapping, NamedTuple, Optional,
                    Sequence, Tuple)

from .errors import ConfigError, InvalidInput, UnknownFormat
from .gazetteer import (
    LETTER_NAME,
    MONTH_NAME,
    STOPWORD,
    is_skipped_line,
    load_gazetteer,
    load_suffix_table,
    load_synonyms,
    load_word_list,
    lookup_longest,  # noqa: F401 - unused here; bench/spans.py wraps pipeline.lookup_longest
    read_lines,
)
from .rules import (
    DEFAULT_PRIORITIES,
    LABEL_BY_VALUE,
    LABEL_VALUE,
    Proposal,
    RULE_BY_VALUE,
    RULE_VALUE,
    RuleId,
    RuleSet,
    SUFFIX_LABELS,
    TagLabel,
    sort_key,
)
from .text import (
    EDGE_SPECIALS,
    NO_ENTRIES,
    NUMBER,
    TokenStream,
    WORD,
    chunk_rows,
    normalize_whitespace,
    surface_forms,
    token_pattern,
    tokenize,  # noqa: F401 - unused here; bench/spans.py wraps pipeline.tokenize
)

DATA_DIR = Path(__file__).resolve().parent / "data"
DEFAULT_CONFIG_PATH = DATA_DIR / "engine.conf"

RENDER_FORMATS = ("inline", "tabular", "jsonl")

# Each label's and rule's JSON string, encoded once.
_LABEL_JSON = {label: encode_basestring(value) for label, value in LABEL_VALUE.items()}
_RULE_JSON = {rule: encode_basestring(value) for rule, value in RULE_VALUE.items()}
# One entity of a jsonl line.  Its keys, in this order, are the jsonl format.
_ENTITY_JSON = ('{"start_byte": %d, "end_byte": %d, "token_start": %d, "token_end": %d,'
                ' "label": %s, "rule": %s, "surface": %s}')

# The jsonl line reader's decoder, and the whitespace JSON allows around a value.
_RAW_DECODE = JSONDecoder().raw_decode
_JSON_SPACE = " \t\n\r"

_BITS = itemgetter(5)   # of a token row of ``Engine._classify``
_START = attrgetter("start")
_END = attrgetter("end")

# Scan-gate bits, one per rule that starts only at listed norms.
(_DIRECT, _TITLE, _SURNAME, _NAME, _LETTER, _AMBIGUOUS, _NUMBER_WORD,
 _ABBREVIATION, _ORG_KEYWORD) = (1 << k for k in range(9))
# Gate bits that depend on more than norm membership: a number literal
# (rule 1), a norm shaped like a URL or an email address, and a word
# whose norm is a person marker or ends in a listed suffix (rule 2).
_NUMERAL, _SHAPE, _SUFFIX = (1 << k for k in range(9, 12))

# The URL/email gate: a norm holding "://" or "@", or starting "www.".
_SHAPED = re.compile(r"^www\.|://|@")

# Chunks the engine's memo holds before it is cleared.
_MEMO_CAP = 1 << 15

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
(SPAN_TOKEN_START, SPAN_TOKEN_END, SPAN_RULE, SPAN_SURFACE) = (
    itemgetter(EntitySpan._fields.index(name))
    for name in ("token_start", "token_end", "rule", "surface"))


class TaggedDocument(NamedTuple):
    """Tokenized text plus non-overlapping entities, ordered by start.

    ``source`` and ``untagged`` are read from the two fields each time.
    Every token index is covered by exactly one entity or listed in
    ``untagged``.
    """

    tokens: TokenStream
    entities: Tuple[EntitySpan, ...]

    @property
    def source(self) -> str:
        """The whitespace-normalized text the byte spans index."""
        return self.tokens.source

    @property
    def untagged(self) -> Tuple[int, ...]:
        # Entities are disjoint and ordered by start: the untagged tokens
        # are the gaps before, between and after them.
        gap_starts = chain((0,), map(SPAN_TOKEN_END, self.entities))
        gap_ends = chain(map(SPAN_TOKEN_START, self.entities), (len(self.tokens),))
        return tuple(chain.from_iterable(map(range, gap_starts, gap_ends)))


class EngineConfig(NamedTuple):
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
    rule_flags: Mapping[RuleId, bool] = NO_ENTRIES
    priorities: Mapping[RuleId, int] = NO_ENTRIES

    @classmethod
    def default(cls) -> "EngineConfig":
        return load_config(DEFAULT_CONFIG_PATH)

    def with_gazetteers(self, paths: Sequence[Path]) -> "EngineConfig":
        return self._replace(gazetteers=tuple(Path(p) for p in paths))

    @property
    def word_lists(self) -> Tuple[Tuple[Path, Optional[str]], ...]:
        """(path, reserved category) of each word list in the order
        ``build_engine`` loads them; the suffix table's category is None."""
        return ((self.suffixes, None), (self.months, MONTH_NAME),
                (self.letters, LETTER_NAME), (self.stopwords, STOPWORD))


def load_config(path) -> EngineConfig:
    """Parse a flat key=value config file into an EngineConfig.  An empty
    ``synonyms`` or ``edge_specials`` value keeps its default, like an
    absent key; an empty required key counts as missing, and an empty
    ``rule.*`` or ``priority.*`` value raises ConfigError."""
    path = Path(path)
    # A config that is not a regular file, such as a pipe, has no directory
    # of its own: its paths resolve against the current one, as relative
    # ``--gazetteer`` paths do.
    base = path.parent if path.is_file() else Path()
    values: Dict[str, object] = {}
    rule_flags: Dict[RuleId, bool] = {}
    priorities: Dict[RuleId, int] = {}
    for lineno, raw in read_lines(path):
        line = raw.strip()
        if is_skipped_line(line):
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
            values[key] = value
        else:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
    for required in (_GAZETTEER_KEYS, "suffixes", "stopwords", "months", "letters"):
        if not values.get(required):
            raise ConfigError(f"{path}: missing required key {required!r}")
    return EngineConfig(**{key: value for key, value in values.items() if value},
                        rule_flags=rule_flags, priorities=priorities)


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


class Engine:
    """Observably immutable tagging engine: config, gazetteer, rules, synonym map.

    A private memo maps each whitespace chunk the engine has tagged to
    its token rows (``chunk_rows``, with gate bits).  It is filled while
    tagging, never when the engine is built, and cleared once it holds
    more than ``_MEMO_CAP`` chunks.  Rows depend on the chunk alone: the
    memo changes no output, and threads may share an engine, since each
    reads and writes it with single dict calls (``_tokens``).  The plans,
    filled the same way, map each presence mask ``_collect`` has met to
    the rows that can fire under it (``_plan``), at most 4,096 masks;
    ``enabled`` is read-only, so a plan never goes stale.
    """

    def __init__(self, config: EngineConfig, rules: RuleSet, synonyms: Mapping[str, str]):
        self.config = config
        self.gaz = rules.gaz
        self.rules = rules
        self.synonyms = dict(synonyms)
        self.enabled: Mapping[RuleId, bool] = MappingProxyType({
            rule: bool(config.rule_flags.get(rule, True)) for rule in RuleId})
        # Scan gates: a rule can start a match only at a norm that carries
        # its gate bit, so one pass over the norms finds every candidate.
        gate_sets = (
            (_DIRECT, rules.direct_heads),
            (_TITLE, rules.title_heads),
            (_SURNAME, rules.surname_heads),
            (_NAME, rules.person_heads),
            (_LETTER, rules.letters),
            (_AMBIGUOUS, rules.ambiguous_names),
            (_NUMBER_WORD, rules.number_words),
            (_ABBREVIATION, rules.abbreviation_heads),
            (_ORG_KEYWORD, rules.org_keywords),
        )
        self._gates: Dict[str, int] = {}
        for bit, norms in gate_sets:
            for norm in norms:
                self._gates[norm] = self._gates.get(norm, 0) | bit
        self._split = token_pattern(config.edge_specials).split
        self._memo: Dict[str, Tuple[tuple, ...]] = {}
        self._plans: Dict[int, Tuple[bool, ...]] = {}

    def tag_text(self, raw: str) -> TaggedDocument:
        return tag_text(self, raw)

    def _tokens(self, source: str) -> Tuple[TokenStream, Sequence[int]]:
        """The token stream of whitespace-normalized ``source``, and the
        gate bits of each token.

        The stream equals ``tokenize(source, edge_specials)`` with the
        synonym map applied to its norms; it holds the token rows and
        builds its columns when one is first read.  Each chunk
        (``source.split()``, so the empty text has none) costs one memo
        lookup; the token pattern runs once over the distinct chunks the
        memo lacks, and their surfaces are classified once, together.
        """
        memo = self._memo
        chunks = source.split()
        rows = list(map(memo.get, chunks))
        if None in rows:
            fresh = list(dict.fromkeys(compress(chunks, map(is_, rows, repeat(None)))))
            learned = dict(zip(fresh, chunk_rows(
                self._split(" " + " ".join(fresh)), self._classify)))
            # The new rows are read from ``learned``: another thread may
            # clear the memo at any time.
            rows = list(map(learned.get, chunks, rows))
            memo.update(learned)
            if len(memo) > _MEMO_CAP:
                memo.clear()
        rows = list(chain.from_iterable(rows))
        return TokenStream.from_rows(source, rows), list(map(_BITS, rows))

    def _classify(self, surfaces: Sequence[str]) -> List[tuple]:
        """The tuple ``(surface, size, norm, kind, bits)`` of each of
        ``surfaces``: ``surface_forms`` with the synonym map applied to
        the norms, and the gate bits of each norm.

        Raises InvalidInput for a surface that UTF-8 cannot encode, such
        as one holding a lone surrogate.
        """
        sizes, norms, kinds = surface_forms(surfaces, self.config.edge_specials)
        syn = self.synonyms
        if syn and not syn.keys().isdisjoint(norms):
            norms = list(map(syn.get, norms, norms))
        bits = list(map(self._gates.get, norms, repeat(0)))
        positions = range(len(norms))
        if NUMBER in kinds:
            for i in compress(positions, map(eq, kinds, repeat(NUMBER))):
                bits[i] |= _NUMERAL
        # No norm holds a newline, so one search of the norms joined by
        # newlines tells whether any norm can be a URL or an email address;
        # in most texts none can.
        joined = "\n%s\n" % "\n".join(norms)
        if "://" in joined or "@" in joined or "\nwww." in joined:
            for i in compress(positions, map(_SHAPED.search, norms)):
                bits[i] |= _SHAPE
        markers, endings = self.rules.person_markers, self.rules.suffix_endings
        for i in compress(positions, map(or_, map(markers.__contains__, norms),
                                         map(str.endswith, norms, repeat(endings)))):
            if kinds[i] == WORD:
                bits[i] |= _SUFFIX
        return list(zip(surfaces, sizes, norms, kinds, bits))


def build_engine(config: Optional[EngineConfig] = None) -> Engine:
    """Load all configured data files and assemble an Engine.

    The files load in the order gazetteers, ``config.word_lists``,
    synonyms.  The first missing file or bad line in that order raises:
    MissingDataFile for a missing file, and for a bad line the loader's
    error, with file and line number.
    """
    if config is None:
        config = EngineConfig.default()
    specials = config.edge_specials
    gaz = load_gazetteer(config.gazetteers, specials)
    lists = {category: load_word_list(path, category, specials) if category
             else load_suffix_table(path, specials)
             for path, category in config.word_lists}
    suffix_cats, markers = lists[None]
    rules = RuleSet(
        gaz=gaz,
        months=lists[MONTH_NAME],
        letters=lists[LETTER_NAME],
        stopwords=lists[STOPWORD],
        suffixes={sfx: SUFFIX_LABELS[cat] for sfx, cat in suffix_cats.items()},
        person_markers=markers,
        priorities={**DEFAULT_PRIORITIES, **config.priorities},
    )
    synonyms = load_synonyms(config.synonyms) if config.synonyms else {}
    return Engine(config, rules, synonyms)


# --------------------------------------------------------------------------
# The cascade
# --------------------------------------------------------------------------

def tag_text(engine: Engine, raw: str) -> TaggedDocument:
    """Normalize, tokenize, run the cascade, and resolve conflicts.

    The cyclic garbage collector, if enabled, is paused for the call on a
    text of at least ``gc.get_threshold()[0]`` characters: a shorter text
    cannot allocate a young generation's worth of objects.  A long text
    makes tens of thousands of proposals and spans, tuples that hold enum
    members and so stay tracked, and the collector would rescan them many
    times; they form no reference cycles, so the pause leaves no garbage
    behind.  Only the call that disabled the collector enables it again,
    so concurrent calls leave it as they found it.  A thread that disables
    it while another thread is inside a paused call finds it enabled again
    once that call returns.

    Raises InvalidInput for a text that UTF-8 cannot encode.
    """
    paused = gc.isenabled() and len(raw) >= gc.get_threshold()[0]
    if paused:
        gc.disable()
    try:
        stream, bits = engine._tokens(normalize_whitespace(raw))
        return tuple.__new__(TaggedDocument, (
            stream, resolve_conflicts(_collect(engine, stream, bits), stream)))
    finally:
        if paused:
            gc.enable()


class _Row(NamedTuple):
    """One rule of the cascade.

    A start is a position whose token carries the ``gate`` bit and, given
    ``then``, whose next token carries a bit of ``then``; starts claimed
    by a proposal of a ``blocked_by`` rule are skipped.  A position whose
    token carries the ``free`` bit is a start without either test.  The
    row is skipped when its rule is off, when no token carries ``gate``
    or ``free``, or when the text lacks a bit of ``needs`` (``_plan``).
    ``matcher`` names the RuleSet method called at each start; with
    ``takes_claims`` it also receives the claimed positions, and with
    ``many`` it returns a list of proposals.  ``_collect`` tests
    ``_LETTER_NEXT`` for all letter-name rows at once, so R8's ``then``
    costs nothing more.
    """

    rule: RuleId
    matcher: str
    gate: int
    then: int = 0
    needs: int = 0
    free: int = 0
    blocked_by: FrozenSet[RuleId] = frozenset()
    takes_claims: bool = False
    many: bool = False


# A letter name starts a match only before a letter name or a surname:
# every row gated on ``_LETTER`` asks at least this of its next token.
_LETTER_NEXT = _LETTER | _SURNAME

# The cascade in run order.  A rule sees only the claims of the rows
# before it, so each ``blocked_by`` names earlier rows only.
_CASCADE = (
    _Row(RuleId.R1_DateTime, "match_datetime", _NUMERAL),
    _Row(RuleId.R_UrlEmail, "match_url_email", _SHAPE),
    # A direct match never overrides a date, time, URL or email span.
    _Row(RuleId.R_GazetteerDirect, "match_gazetteer_direct", _DIRECT,
         blocked_by=frozenset((RuleId.R1_DateTime, RuleId.R_UrlEmail)),
         takes_claims=True),
    _Row(RuleId.R5_TitleDesignation, "match_title_designation", _TITLE, many=True),
    _Row(RuleId.R4_SurnameTrigger, "match_surname_trigger", _SURNAME),
    _Row(RuleId.R2_Suffix, "match_suffix", _SUFFIX, blocked_by=frozenset((
        RuleId.R1_DateTime, RuleId.R_UrlEmail, RuleId.R_GazetteerDirect,
        RuleId.R5_TitleDesignation, RuleId.R4_SurnameTrigger))),
    _Row(RuleId.R3_GazetteerName, "match_gazetteer_name", _NAME),
    # Initials are a letter-name run followed by a surname.
    _Row(RuleId.R8_Initials, "match_initials", _LETTER, then=_LETTER_NEXT,
         needs=_SURNAME),
    _Row(RuleId.R6_Postposition, "resolve_postposition", _AMBIGUOUS,
         blocked_by=frozenset((RuleId.R1_DateTime, RuleId.R2_Suffix,
                               RuleId.R3_GazetteerName, RuleId.R4_SurnameTrigger,
                               RuleId.R5_TitleDesignation))),
    _Row(RuleId.R7_NumberWords, "match_number_words", _NUMBER_WORD),
    # A run needs two letter names; a listed short form starts anywhere.
    _Row(RuleId.R9_Abbreviation, "match_abbreviation", _LETTER, then=_LETTER,
         free=_ABBREVIATION, blocked_by=frozenset((RuleId.R8_Initials,))),
    # The keyword and its backward extension stop at every earlier claim.
    _Row(RuleId.R10_OrgKeyword, "match_org_keyword", _ORG_KEYWORD,
         blocked_by=frozenset(RuleId) - {RuleId.R10_OrgKeyword}, takes_claims=True),
)

# Each row's (gate | free, needs, rule), read from ``_CASCADE`` once.
_ROW_TESTS = tuple((row.gate | row.free, row.needs, row.rule) for row in _CASCADE)


def _plan(enabled: Mapping[RuleId, bool], present: int) -> Tuple[bool, ...]:
    """Whether each row of ``_CASCADE`` can fire on a text whose presence
    mask is ``present``: its rule is enabled, and the mask holds a bit of
    its ``gate`` or ``free`` and every bit of its ``needs``."""
    return tuple(enabled[rule] and bool(present & reach) and present & needs == needs
                 for reach, needs, rule in _ROW_TESTS)


def _collect(engine: Engine, stream: TokenStream,
             bits: Sequence[int]) -> List[Proposal]:
    """Run every row of ``_CASCADE`` that can fire over the stream, in order.

    ``bits`` holds the gate bits of each token (``Engine._tokens``).  One
    pass groups the positions with any bit, the candidates, by their
    bits; a row's starts are the groups whose bits hold its gate, so no
    row rescans the document, and a document with no candidate skips the
    cascade.  The pass drops the ``_LETTER`` bit of a letter name whose
    next token carries no bit of ``_LETTER_NEXT`` (the fold), so a lone
    ``جي`` is no candidate.  The OR of the group keys is the presence
    mask, and the engine's plan for that mask, made on its first use
    (``_plan``), names the rows that can fire: the others cost the
    document nothing.  A row pays for its ``then``, ``blocked_by`` and
    ``free`` steps only where they can change its starts: ``then`` reads
    the next token of each gated start unless the fold made its test,
    only the rules that made proposals are claimed, ``free`` starts join
    only when the text has some, and a row left with no start calls no
    matcher.  Each row's matcher is looked up on ``engine.rules`` when
    the row runs, so a method wrapped after the engine was built is the
    one called.  Only the matchers read the stream's columns.
    """
    last = len(bits) - 1
    groups: Dict[int, List[int]] = defaultdict(list)   # candidates by gate bits, ascending
    for i in compress(range(len(bits)), bits):
        key = bits[i]
        if key & _LETTER and (i == last or not bits[i + 1] & _LETTER_NEXT):
            key ^= _LETTER
            if not key:
                continue
        groups[key].append(i)
    if not groups:
        return []
    present = reduce(or_, groups, 0)
    plan = engine._plans.get(present)
    if plan is None:
        plan = engine._plans[present] = _plan(engine.enabled, present)
    found: List[Proposal] = []
    spans: Dict[RuleId, set] = {}   # the positions each proposing rule covers
    for row in compress(_CASCADE, plan):
        gated = [groups[key] for key in groups if key & row.gate]
        starts = gated[0] if len(gated) == 1 else sorted(chain.from_iterable(gated))
        if row.then and row.then != _LETTER_NEXT:
            starts = [i for i in starts if i < last and bits[i + 1] & row.then]
        claimed = set().union(*[spans[rule] for rule in spans if rule in row.blocked_by])
        if claimed:
            starts = list(filterfalse(claimed.__contains__, starts))
        if present & row.free:
            starts = sorted({*starts, *chain.from_iterable(
                groups[key] for key in groups if key & row.free)})
        if not starts:
            continue
        claims = (repeat(claimed),) if row.takes_claims else ()
        made = list(filter(None, map(getattr(engine.rules, row.matcher),
                                     repeat(stream), starts, *claims)))
        made = list(chain.from_iterable(made)) if row.many else made
        if made:
            found += made
            spans[row.rule] = set(chain.from_iterable(
                map(range, map(_START, made), map(_END, made))))
    return found


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
    """Select winning proposals and build their entities in one loop.  A
    one-token entity's surface is its token's own string; a longer one's
    is decoded from the source's bytes, encoded once if at all."""
    if not proposals:
        return ()
    starts, ends, surfaces = stream.starts, stream.ends, stream.surfaces
    src = b""
    entities = []
    for first, end, label, rule, _ in select_proposals(proposals):
        start_byte, end_byte = starts[first], ends[end - 1]
        if end - first == 1:
            surface = surfaces[first]
        else:
            src = src or stream.source.encode("utf-8")
            surface = src[start_byte:end_byte].decode()
        entities.append(tuple.__new__(EntitySpan, (
            first, end, start_byte, end_byte, label, rule, surface)))
    return tuple(entities)


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
        return '{"text": %s, "entities": [%s]}' % (encode_basestring(doc.source),
                                                    jsonl_entities(doc.entities))
    raise UnknownFormat(f"unknown render format {fmt!r}; expected one of "
                        + ", ".join(RENDER_FORMATS))


def _render_inline(doc: TaggedDocument) -> str:
    try:
        src = doc.source.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise InvalidInput.unencodable(exc) from exc
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


def predicted_labels(doc: TaggedDocument) -> List[str]:
    """Each token's label value, or ``"O"`` for an untagged token."""
    labels = ["O"] * len(doc.tokens)
    for e in doc.entities:
        label = LABEL_VALUE[e.label]
        for i in range(e.token_start, e.token_end):
            labels[i] = label
    return labels


def _render_tabular(doc: TaggedDocument) -> str:
    return "\n".join(f"{surface}\t{label}" for surface, label
                     in zip(doc.tokens.surfaces, predicted_labels(doc)))


def entity_from_dict(d: Mapping) -> EntitySpan:
    """The EntitySpan of a mapping with the keys of a jsonl entity.

    Raises ValueError for a label or rule that names no member, an offset
    that is not an ``int`` (a ``bool`` included) or a surface that is not
    a ``str``.
    """
    label, rule = d["label"], d["rule"]
    try:
        label, rule = LABEL_BY_VALUE[label], RULE_BY_VALUE[rule]
    except (KeyError, TypeError):
        raise ValueError(f"unknown label or rule: {label!r}, {rule!r}") from None
    token_start, token_end, start_byte, end_byte, surface = (
        d["token_start"], d["token_end"], d["start_byte"], d["end_byte"], d["surface"])
    if not (type(token_start) is type(token_end) is type(start_byte) is type(end_byte) is int
            and type(surface) is str):
        raise ValueError(f"an entity's offsets must be int and its surface str: {d!r}")
    return tuple.__new__(EntitySpan, (
        token_start, token_end, start_byte, end_byte, label, rule, surface))


def jsonl_entities(entities: Iterable[EntitySpan]) -> str:
    """A jsonl line's entity list, between its brackets.  The line is
    ``json.dumps({"text": doc.source, "entities": [...]}, ensure_ascii=False)``
    with each entity an object with the keys ``start_byte``, ``end_byte``,
    ``token_start``, ``token_end``, ``label``, ``rule`` and ``surface``, in that order.

    Strings go through ``encode_basestring``, as in that encoder, and
    offsets through ``%d``, which writes an ``int`` as JSON does; the
    tagger and ``entity_from_dict`` of this output make ``int`` offsets.
    """
    return ", ".join([
        _ENTITY_JSON % (start_byte, end_byte, token_start, token_end, _LABEL_JSON[label],
                        _RULE_JSON[rule], encode_basestring(surface))
        for token_start, token_end, start_byte, end_byte, label, rule, surface in entities])


def read_record(line: str) -> Tuple[dict, str, List[EntitySpan]]:
    """The object, text and entities of one jsonl line, decoded as
    ``json.loads`` decodes it, so a ``json.JSONDecodeError`` counts its
    column in the line as given.  Raises that error, ``entity_from_dict``'s
    ValueError, or a ValueError naming the rule the line broke: ``missing
    key 'K'``, ``a record and its entities must be objects``, ``a record's
    entities must be a list``, ``a record's text must be a str`` or ``data
    after the record``."""
    record, end = _RAW_DECODE(line, len(line) - len(line.lstrip(_JSON_SPACE)))
    if line[end:].strip(_JSON_SPACE):
        raise ValueError("data after the record")
    try:
        text, entities = record["text"], record["entities"]
        if type(entities) is not list:
            raise ValueError("a record's entities must be a list")
        if type(text) is not str:
            raise ValueError("a record's text must be a str")
        return record, text, list(map(entity_from_dict, entities)) if entities else entities
    except KeyError as exc:
        raise ValueError(f"missing key {exc}") from exc
    except TypeError as exc:
        raise ValueError("a record and its entities must be objects") from exc


def parse_jsonl(text: str) -> List[Tuple[str, List[EntitySpan]]]:
    """Parse jsonl output back into (text, entities) pairs.

    Lines end at ``"\\n"`` only: a JSON line holds no raw newline, but may
    hold U+2028 and the other characters ``str.splitlines`` ends lines at.
    A line that ``str.strip`` empties is skipped; every other line is read
    by ``read_record``, whose ValueError (``json.JSONDecodeError`` for a
    line that is not JSON) names the rule the line broke.
    """
    return [read_record(line)[1:] for line in text.split("\n") if line.strip()]
