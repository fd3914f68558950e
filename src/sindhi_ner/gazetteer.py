"""Gazetteer loading, validation, and longest-match lookup.

Data files are UTF-8 TSV, one ``surface<TAB>category`` entry per line.
Blank lines and ``#`` comments are ignored.  Surfaces are one to three
whitespace-separated words and are normalized (edge specials stripped,
Latin lowercased) before being stored, so matching compares normalized
forms only.

The same TSV shape carries the engine's auxiliary word lists under
reserved categories (month names, letter names, stopwords, suffixes);
those are loaded with :func:`load_word_list` / :func:`load_suffix_table`
rather than :func:`load_gazetteer`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .errors import ConfigError, DuplicateEntry, MalformedLine, UnknownCategory
from .text import strip_edge_specials


class Category(enum.Enum):
    # Identity hash in C: lookups keyed by category sit on the tagging
    # hot path, and Enum's own __hash__ is a Python call.
    __hash__ = object.__hash__

    PersonFirstName = "PersonFirstName"
    Surname = "Surname"
    Title = "Title"
    Designation = "Designation"
    Location = "Location"
    Organization = "Organization"
    Brand = "Brand"
    Term = "Term"
    Abbreviation = "Abbreviation"
    NumberWord = "NumberWord"
    OrgKeyword = "OrgKeyword"
    AmbiguousName = "AmbiguousName"


# Tie-break order when two categories match at the same length.
_CATEGORY_ORDER = {cat: i for i, cat in enumerate(Category)}

# Reserved categories for auxiliary word-list files (not gazetteer entries).
MONTH_NAME = "MonthName"
LETTER_NAME = "LetterName"
STOPWORD = "Stopword"
LOCATION_SUFFIX = "LocationSuffix"
PERSON_SUFFIX = "PersonSuffix"
TERM_SUFFIX = "TermSuffix"
PERSON_MARKER = "PersonMarker"

SUFFIX_CATEGORIES = (LOCATION_SUFFIX, PERSON_SUFFIX, TERM_SUFFIX, PERSON_MARKER)

MAX_ENTRY_WORDS = 3


@dataclass(frozen=True)
class GazetteerEntry:
    surface: str                # normalized words joined by single spaces
    words: Tuple[str, ...]
    category: Category
    source: str                 # "path:lineno" provenance


class Gazetteer:
    """Immutable store of entries indexed for longest-match lookup."""

    def __init__(self, entries: Iterable[GazetteerEntry]):
        self._entries: Tuple[GazetteerEntry, ...] = tuple(entries)
        self._indexes: Dict[Optional[frozenset], tuple] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def entries(self) -> Iterator[GazetteerEntry]:
        return iter(self._entries)

    def contains(self, words: Sequence[str], category: Category) -> bool:
        return tuple(words) in self.match_index(frozenset((category,)))[1]

    def single_token_norms(self, category: Category) -> frozenset:
        """All 1-word surfaces stored under ``category``."""
        return frozenset(
            e.words[0] for e in self._entries
            if e.category is category and len(e.words) == 1
        )

    def first_token_norms(self, categories: Iterable[Category]) -> frozenset:
        """First words of every entry in the given categories (scan gate)."""
        cats = frozenset(categories)
        return frozenset(e.words[0] for e in self._entries if e.category in cats)

    def match_index(self, categories: Optional[frozenset] = None):
        """Longest-match index over the entries in ``categories`` (all if None).

        Returns ``(first_max, best)``: the most words of any entry per
        first word, and per word tuple the entry whose category comes
        first in Category order.  Built on first use per category set;
        two threads that build the same index build equal ones.
        """
        index = self._indexes.get(categories)
        if index is None:
            first_max: Dict[str, int] = {}
            best: Dict[Tuple[str, ...], GazetteerEntry] = {}
            for e in self._entries:
                if categories is not None and e.category not in categories:
                    continue
                held = best.get(e.words)
                if held is None or _CATEGORY_ORDER[e.category] < _CATEGORY_ORDER[held.category]:
                    best[e.words] = e
                head = e.words[0]
                first_max[head] = max(first_max.get(head, 0), len(e.words))
            index = self._indexes[categories] = (first_max, best)
        return index


def lookup_longest(gaz: Gazetteer, tokens, i: int,
                   categories: Optional[Iterable[Category]] = None):
    """Longest entry matching token norms at position ``i``.

    ``tokens`` is a TokenStream, whose ``norms`` column is compared, or
    any sequence of Tokens.  Tries window sizes 3, 2, 1 and returns
    ``(entry, match_length)`` for the first hit, or None.  Never reads
    past ``tokens[i + 2]``.  Ties at the same length across categories
    resolve in Category order.  Raises IndexError when ``i`` is outside
    the stream.
    """
    norms = getattr(tokens, "norms", None)
    n = len(tokens if norms is None else norms)
    if not 0 <= i < n:
        raise IndexError(f"token position {i} out of range 0..{n - 1}")
    if norms is None:
        # A plain sequence of Tokens: read the window's norms only.
        norms = tuple(t.norm for t in tokens[i:i + MAX_ENTRY_WORDS])
        i, n = 0, len(norms)
    first_max, best = gaz.match_index(None if categories is None else frozenset(categories))
    k = min(first_max.get(norms[i], 0), n - i)
    while k:
        entry = best.get(norms[i:i + k])
        if entry is not None:
            return entry, k
        k -= 1
    return None


def gazetteer_stats(gaz: Gazetteer) -> Dict[Category, int]:
    """Entry count per category; every category present, zeros included."""
    counts = {cat: 0 for cat in Category}
    for e in gaz.entries():
        counts[e.category] += 1
    return counts


# --------------------------------------------------------------------------
# TSV parsing
# --------------------------------------------------------------------------

def read_lines(path) -> Iterator[Tuple[int, str]]:
    """(lineno, line) for every line of a UTF-8 text file.

    A leading byte-order mark is dropped.  Raises MalformedLine naming
    the first line that is not valid UTF-8.
    """
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return enumerate(fh.readlines(), 1)
    except UnicodeDecodeError:
        # Invalid bytes decode to lone surrogates, which valid UTF-8 never
        # yields, so the first line that fails a strict encode is the bad one.
        with open(path, encoding="utf-8-sig", errors="surrogateescape") as fh:
            for lineno, line in enumerate(fh, 1):
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError:
                    raise MalformedLine(path, lineno, "not valid UTF-8") from None
        raise


def _iter_tsv(path) -> Iterator[Tuple[int, str, str]]:
    """Yield (lineno, surface, category) for data lines of a TSV file."""
    for lineno, raw in read_lines(path):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2 or not parts[0].strip() or not parts[1].strip():
            raise MalformedLine(path, lineno, "expected SURFACE<TAB>CATEGORY")
        yield lineno, parts[0].strip(), parts[1].strip()


def _normalize_words(path, lineno: int, surface: str) -> Tuple[str, ...]:
    words = []
    for word in surface.split():
        core, _ = strip_edge_specials(word)
        if not core:
            raise MalformedLine(path, lineno, f"surface word is all punctuation: {word!r}")
        words.append(core.lower())
    if not words:
        raise MalformedLine(path, lineno, "empty surface")
    if len(words) > MAX_ENTRY_WORDS:
        raise MalformedLine(
            path, lineno, f"surface has {len(words)} words, maximum is {MAX_ENTRY_WORDS}")
    return tuple(words)


def _parse_category(path, lineno: int, name: str) -> Category:
    try:
        return Category[name]
    except KeyError:
        raise UnknownCategory(path, lineno, f"unknown category {name!r}") from None


def load_gazetteer(paths: Sequence) -> Gazetteer:
    """Load and merge gazetteer files; duplicates across files are errors."""
    entries: List[GazetteerEntry] = []
    seen: Dict[Tuple[Tuple[str, ...], Category], str] = {}
    for path in paths:
        for lineno, surface, cat_name in _iter_tsv(path):
            category = _parse_category(path, lineno, cat_name)
            words = _normalize_words(path, lineno, surface)
            key = (words, category)
            if key in seen:
                raise DuplicateEntry(
                    path, lineno,
                    f"duplicate entry {' '.join(words)!r} / {category.value}"
                    f" (first seen at {seen[key]})")
            seen[key] = f"{path}:{lineno}"
            entries.append(GazetteerEntry(
                surface=" ".join(words), words=words,
                category=category, source=f"{path}:{lineno}"))
    return Gazetteer(entries)


def load_word_list(path, category: str) -> frozenset:
    """Load a single-word-per-entry list stored under a reserved category."""
    words = set()
    for lineno, surface, cat_name in _iter_tsv(path):
        if cat_name != category:
            raise UnknownCategory(
                path, lineno, f"expected category {category!r}, got {cat_name!r}")
        entry = _normalize_words(path, lineno, surface)
        if len(entry) != 1:
            raise MalformedLine(path, lineno, "word-list entries must be single words")
        words.add(entry[0])
    return frozenset(words)


def load_suffix_table(path):
    """Load the suffix table: (suffix -> label name, person-marker set).

    Suffix categories map to tag labels in the rules module; the table file
    keeps label knowledge out of this parser by returning category names.
    """
    suffixes: Dict[str, str] = {}
    markers = set()
    for lineno, surface, cat_name in _iter_tsv(path):
        if cat_name not in SUFFIX_CATEGORIES:
            raise UnknownCategory(
                path, lineno,
                f"expected one of {', '.join(SUFFIX_CATEGORIES)}, got {cat_name!r}")
        entry = _normalize_words(path, lineno, surface)
        if len(entry) != 1:
            raise MalformedLine(path, lineno, "suffix entries must be single words")
        if cat_name == PERSON_MARKER:
            markers.add(entry[0])
        elif entry[0] in suffixes:
            raise DuplicateEntry(path, lineno, f"duplicate suffix {entry[0]!r}")
        else:
            suffixes[entry[0]] = cat_name
    return suffixes, frozenset(markers)


def load_synonyms(path) -> Dict[str, str]:
    """Load the synonym map: ``variant<TAB>canonical`` per line.

    Raises ConfigError naming the first line that is not two non-empty
    fields.
    """
    mapping: Dict[str, str] = {}
    for lineno, raw in read_lines(path):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2 or not parts[0] or not parts[1]:
            raise ConfigError(
                f"{path}:{lineno}: expected FROM<TAB>TO in synonym map")
        mapping[parts[0].strip()] = parts[1].strip()
    return mapping


def validate_sources(gazetteer_paths: Sequence, word_lists: Sequence,
                     synonyms=None) -> List[str]:
    """Check every configured data file, collecting all problems.

    ``word_lists`` is a sequence of (path, expected-category or None for the
    suffix table); ``synonyms`` is the synonym map's path, if any.  Unlike
    the loaders, this does not stop at the first bad line; it returns one
    message per problem so a check command can list them all.  The
    synonym map is read by its loader, which stops at its first problem.
    """
    problems: List[str] = []
    seen: Dict[Tuple[Tuple[str, ...], Category], str] = {}

    def check_lines(path, handler):
        try:
            lines = read_lines(path)
        except OSError as exc:
            problems.append(f"{path}: {exc}")
            return
        except MalformedLine as exc:
            problems.append(str(exc))
            return
        for lineno, raw in lines:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2 or not parts[0].strip() or not parts[1].strip():
                problems.append(f"{path}:{lineno}: expected SURFACE<TAB>CATEGORY")
                continue
            handler(lineno, parts[0].strip(), parts[1].strip())

    def gaz_handler_for(path):
        def handler(lineno, surface, cat_name):
            try:
                category = _parse_category(path, lineno, cat_name)
                words = _normalize_words(path, lineno, surface)
            except (MalformedLine, UnknownCategory) as exc:
                problems.append(str(exc))
                return
            key = (words, category)
            if key in seen:
                problems.append(
                    f"{path}:{lineno}: duplicate entry {' '.join(words)!r}"
                    f" / {category.value} (first seen at {seen[key]})")
            else:
                seen[key] = f"{path}:{lineno}"
        return handler

    def list_handler_for(path, expected):
        suffixes: Dict[str, str] = {}  # suffix -> where first seen

        def handler(lineno, surface, cat_name):
            allowed = SUFFIX_CATEGORIES if expected is None else (expected,)
            if cat_name not in allowed:
                problems.append(
                    f"{path}:{lineno}: expected category"
                    f" {' or '.join(allowed)}, got {cat_name!r}")
                return
            try:
                entry = _normalize_words(path, lineno, surface)
            except MalformedLine as exc:
                problems.append(str(exc))
                return
            if len(entry) != 1:
                problems.append(f"{path}:{lineno}: entries must be single words")
            elif expected is None and cat_name != PERSON_MARKER:
                # The suffix table's rule, as load_suffix_table applies it.
                if entry[0] in suffixes:
                    problems.append(
                        f"{path}:{lineno}: duplicate suffix {entry[0]!r}"
                        f" (first seen at {suffixes[entry[0]]})")
                else:
                    suffixes[entry[0]] = f"{path}:{lineno}"
        return handler

    for path in gazetteer_paths:
        check_lines(path, gaz_handler_for(path))
    for path, expected in word_lists:
        check_lines(path, list_handler_for(path, expected))
    if synonyms is not None:
        try:
            load_synonyms(synonyms)
        except OSError as exc:
            problems.append(f"{synonyms}: {exc}")
        except (ConfigError, MalformedLine) as exc:
            problems.append(str(exc))
    return problems
