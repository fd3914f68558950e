"""Gazetteer loading, validation, and longest-match lookup.

Data files are UTF-8 TSV, one ``surface<TAB>category`` entry per line.
Blank lines and ``#`` comments are ignored.  Surfaces are one to three
whitespace-separated words (one for ``SINGLE_WORD_CATEGORIES``) and are
normalized (edge specials stripped, Latin lowercased) before being
stored, so matching compares normalized forms only.

The same TSV shape carries the engine's auxiliary word lists under
reserved categories (month names, letter names, stopwords, suffixes);
those are loaded with :func:`load_word_list` / :func:`load_suffix_table`
rather than :func:`load_gazetteer`.
"""

from __future__ import annotations

import enum
import io
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .errors import (
    ConfigError, DuplicateEntry, MalformedLine, MissingDataFile, NerError, UnknownCategory)
from .text import EDGE_SPECIALS


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

# Categories the rules read one word at a time (``single_token_norms``).
SINGLE_WORD_CATEGORIES = frozenset(
    (Category.NumberWord, Category.OrgKeyword, Category.AmbiguousName))


class GazetteerEntry(NamedTuple):
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

    def single_token_norms(self, category: Category) -> frozenset:
        """All 1-word surfaces stored under ``category``."""
        return frozenset(
            e.words[0] for e in self._entries
            if e.category is category and len(e.words) == 1
        )

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

    ``tokens`` is a TokenStream, whose ``norms`` column is compared.
    Tries window sizes 3, 2, 1 and returns ``(entry, match_length)`` for
    the first hit, or None.  Never reads past ``tokens.norms[i + 2]``.
    Ties at the same length across categories resolve in Category order.
    Raises IndexError when ``i`` is outside the stream.
    """
    norms = tokens.norms
    n = len(norms)
    if not 0 <= i < n:
        raise IndexError(f"token position {i} out of range 0..{n - 1}")
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
# Data files
#
# Each file's per-line rules are written once, in a generator that yields
# a parsed entry per data line or, for a bad line, the NerError it is
# refused with.  The loaders raise the first error a generator yields;
# validate_sources drains the same generators and lists every error.
# --------------------------------------------------------------------------

def read_bytes(path) -> bytes:
    """The bytes of a file, read once, so that a named pipe or /dev/stdin
    reads like a file.  Raises MissingDataFile when ``path`` does not
    exist, is a directory or holds a null byte (ValueError in ``open``)."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError, ValueError):
        raise MissingDataFile(path) from None


def read_lines(path) -> Iterator[Tuple[int, str]]:
    """(lineno, line) for every line of a UTF-8 file read by read_bytes,
    less one leading byte-order mark.  Lines end at ``\\n``, ``\\r\\n`` or a
    lone ``\\r``, each read as ``\\n``, as text mode reads them.  Raises
    MalformedLine naming the line of the first byte not valid UTF-8."""
    data = read_bytes(path)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[:exc.start].replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        raise MalformedLine(path, head.count(b"\n") + 1, "not valid UTF-8") from None
    return enumerate(io.StringIO(text.removeprefix("\ufeff"), newline=None), 1)


def is_skipped_line(line: str) -> bool:
    """Whether the loaders skip a stripped data or config line: blank or ``#``."""
    return not line or line.startswith("#")


def _iter_tsv(path, parse, malformed=None, lines=None) -> Iterator:
    """``parse(lineno, first, second)`` for each data line of a TSV file,
    or of its ``read_lines`` ``lines`` if given, or the NerError it raises.

    A line that is not two tab-separated fields gives ``malformed(lineno)``,
    by default a MalformedLine asking for SURFACE<TAB>CATEGORY.  Lines
    that is_skipped_line picks are skipped.  Opening or decoding the file
    raises what read_lines raises, before anything is yielded.
    """
    for lineno, raw in read_lines(path) if lines is None else lines:
        line = raw.strip()
        if is_skipped_line(line):
            continue
        # strip() took any tab at the line's edges, so two fields are
        # both non-empty.
        parts = line.split("\t")
        if len(parts) != 2:
            yield (malformed(lineno) if malformed else
                   MalformedLine(path, lineno, "expected SURFACE<TAB>CATEGORY"))
            continue
        try:
            item = parse(lineno, parts[0].strip(), parts[1].strip())
        except NerError as exc:
            item = exc
        yield item


def _entries(items) -> Iterator:
    """The entries of a data-file generator; raises the first error."""
    for item in items:
        if isinstance(item, NerError):
            raise item
        yield item


def _normalize_words(path, lineno: int, surface: str,
                     specials: str = EDGE_SPECIALS) -> Tuple[str, ...]:
    """A surface's words as token norms: lowercased, and with the
    tokenizer's ``specials`` peeled off their edges as ``tokenize`` does."""
    words = []
    for word in surface.split():
        core = word.strip(specials)
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


def parse_entry(path, lineno: int, surface: str, cat_name: str, specials: str,
                seen: Dict) -> GazetteerEntry:
    """The entry of one gazetteer line, as every loader reads it.  ``seen``
    maps each (words, category) taken so far to where it was first seen:
    a repeat is a DuplicateEntry, and a new entry is added."""
    category = _parse_category(path, lineno, cat_name)
    words = _normalize_words(path, lineno, surface, specials)
    if len(words) > 1 and category in SINGLE_WORD_CATEGORIES:
        raise MalformedLine(path, lineno, f"{category.value} entries must be single words")
    key = (words, category)
    if key in seen:
        raise DuplicateEntry(
            path, lineno,
            f"duplicate entry {' '.join(words)!r} / {category.value}"
            f" (first seen at {seen[key]})")
    source = seen[key] = f"{path}:{lineno}"
    return GazetteerEntry(surface=" ".join(words), words=words,
                          category=category, source=source)


def _iter_gazetteer(path, specials: str, seen: Dict, lines=None) -> Iterator:
    """The entries of one gazetteer file, or of its ``lines``, or the error of
    each bad line; ``seen`` is parse_entry's, holding earlier files' entries."""
    return _iter_tsv(path, lambda lineno, surface, cat_name: parse_entry(
        path, lineno, surface, cat_name, specials, seen), lines=lines)


def _iter_words(path, category: Optional[str], specials: str) -> Iterator:
    """(word, category) per line of a word list stored under the reserved
    ``category``, or of the suffix table if it is None, or the error of
    each bad line.  A suffix listed twice is a DuplicateEntry; a repeated
    person marker or word-list word is not.
    """
    if category is None:
        allowed, what = SUFFIX_CATEGORIES, "suffix"
        wanted = f"one of {', '.join(SUFFIX_CATEGORIES)}"
    else:
        allowed, what, wanted = (category,), "word-list", f"category {category!r}"
    suffixes: Dict[str, str] = {}  # suffix -> where first seen

    def parse(lineno, surface, cat_name):
        if cat_name not in allowed:
            raise UnknownCategory(path, lineno, f"expected {wanted}, got {cat_name!r}")
        words = _normalize_words(path, lineno, surface, specials)
        if len(words) != 1:
            raise MalformedLine(path, lineno, f"{what} entries must be single words")
        word = words[0]
        if category is None and cat_name != PERSON_MARKER:
            if word in suffixes:
                raise DuplicateEntry(
                    path, lineno,
                    f"duplicate suffix {word!r} (first seen at {suffixes[word]})")
            suffixes[word] = f"{path}:{lineno}"
        return word, cat_name
    return _iter_tsv(path, parse)


def _iter_synonyms(path) -> Iterator:
    """(variant, canonical) per line of the synonym map, or the
    ConfigError of each line that is not two fields."""
    return _iter_tsv(
        path, lambda lineno, variant, canonical: (variant, canonical),
        lambda lineno: ConfigError(f"{path}:{lineno}: expected FROM<TAB>TO in synonym map"))


def load_gazetteer(paths: Sequence, specials: str = EDGE_SPECIALS) -> Gazetteer:
    """Load and merge gazetteer files; duplicates across files are errors."""
    seen: Dict[Tuple[Tuple[str, ...], Category], str] = {}
    return Gazetteer(entry for path in paths
                     for entry in _entries(_iter_gazetteer(path, specials, seen)))


def load_word_list(path, category: str, specials: str = EDGE_SPECIALS) -> frozenset:
    """Load a single-word-per-entry list stored under a reserved category."""
    return frozenset(word for word, _ in _entries(_iter_words(path, category, specials)))


def load_suffix_table(path, specials: str = EDGE_SPECIALS):
    """Load the suffix table: (suffix -> label name, person-marker set).

    Suffix categories map to tag labels in the rules module; the table file
    keeps label knowledge out of this parser by returning category names.
    """
    suffixes: Dict[str, str] = {}
    markers = set()
    for word, cat_name in _entries(_iter_words(path, None, specials)):
        if cat_name == PERSON_MARKER:
            markers.add(word)
        else:
            suffixes[word] = cat_name
    return suffixes, frozenset(markers)


def load_synonyms(path) -> Dict[str, str]:
    """Load the synonym map: ``variant<TAB>canonical`` per line.

    Raises ConfigError naming the first line that is not two non-empty
    fields.
    """
    return dict(_entries(_iter_synonyms(path)))


def validate_sources(gazetteer_paths: Sequence, word_lists: Sequence,
                     synonyms=None, specials: str = EDGE_SPECIALS) -> List[str]:
    """Check every configured data file, listing every problem in every file.

    ``word_lists`` is a sequence of (path, reserved category, or None for
    the suffix table); ``synonyms`` is the synonym map's path, if any.
    Each file is read by the generator its loader reads it with, so each
    message is the error that loader would raise, and when the word lists
    are given in ``build_engine``'s load order (``EngineConfig.word_lists``)
    the first message is the error ``build_engine`` fails on.  A file that
    is missing, cannot be opened or cannot be decoded is one problem: the
    MissingDataFile message, ``<path>: <error>`` or ``<path>:<line>: not
    valid UTF-8``; the other files are still checked.
    """
    seen: Dict[Tuple[Tuple[str, ...], Category], str] = {}
    files = [(path, _iter_gazetteer(path, specials, seen)) for path in gazetteer_paths]
    files += [(path, _iter_words(path, category, specials))
              for path, category in word_lists]
    if synonyms is not None:
        files.append((synonyms, _iter_synonyms(synonyms)))
    problems: List[str] = []
    for path, items in files:
        try:
            problems.extend(str(item) for item in items if isinstance(item, NerError))
        except OSError as exc:
            problems.append(f"{path}: {exc}")
        except (MissingDataFile, MalformedLine) as exc:  # missing, not valid UTF-8
            problems.append(str(exc))
    return problems
