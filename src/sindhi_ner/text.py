"""Whitespace normalization and tokenization for Sindhi (Arabic-script) text.

The tokenizer is deliberately simple: normalized text is split on single
spaces into chunks, special characters are peeled off chunk edges into
punctuation tokens of their own, and every token records the half-open
byte range it occupies in the UTF-8 encoding of the text it was cut from.
Slicing those bytes always reproduces the token surface exactly.

Zero-width non-joiner (U+200C) is a word character here: Sindhi compounds
like "اسلام‌آباد" must stay one token.  Tatweel and diacritics also pass
through untouched.

Examples::

    >>> normalize_whitespace("  اويس\\t\\tجمائي ")
    'اويس جمائي'
    >>> [t.surface for t in tokenize("اويس، ويو")]
    ['اويس', '،', 'ويو']
"""

from __future__ import annotations

import re
from functools import lru_cache
from itertools import accumulate, chain, compress, repeat
from operator import add, attrgetter, itemgetter, not_, or_, sub
from typing import Iterator, List, NamedTuple, Sequence, Tuple

from .errors import InvalidInput

# Characters stripped from token edges into separate punctuation tokens.
# Arabic comma, Urdu full stop, ASCII sentence punctuation, paired
# brackets, Arabic thousands separator, Arabic question mark.
EDGE_SPECIALS = "،۔.,;:!?\"'()[]{}٬؟"

WORD = "word"
NUMBER = "number-literal"
PUNCTUATION = "punctuation"
SYMBOL = "symbol"

# Digits, optionally in runs joined by single internal . / : - separators
# ("05.06.2016", "10:40").  \d covers Arabic-Indic digits too.
_NUMBER_RE = re.compile(r"\d+(?:[./:\-]\d+)*")
_SIZE = itemgetter(1)   # of a (surface, size, norm, kind, ...) tuple


class Token(NamedTuple):
    """One token: raw surface, byte span, normalized form, and kind.

    ``span`` is a half-open byte range into the UTF-8 encoding of the text
    the token came from.  ``norm`` is the surface with edge specials
    stripped and Latin letters lowercased; punctuation tokens therefore
    normalize to the empty string.
    """

    surface: str
    span: Tuple[int, int]
    norm: str
    kind: str


_set = object.__setattr__  # sets a TokenStream field past its guard


def refuse_assignment(self, name, *value):
    """``__setattr__`` and ``__delattr__`` of the package's read-only classes."""
    raise AttributeError(f"{type(self).__name__}.{name} is read-only")


class _ReadOnlyEmpty(dict):
    """An empty dict that refuses every change.  Unlike a mapping proxy,
    it survives pickle and deepcopy."""

    __slots__ = ()

    def _refuse(self, *args, **kwargs):
        raise TypeError("a shared default mapping cannot be changed")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _refuse


# The default of a named tuple's mapping field, which all its instances share.
NO_ENTRIES = _ReadOnlyEmpty()


_STREAM_FIELDS = ("source", "surfaces", "starts", "ends", "norms", "kinds")
_stream_fields = attrgetter(*_STREAM_FIELDS)


class TokenStream:
    """Immutable sequence of tokens plus the exact text they index.

    The tokens are stored as parallel columns, one tuple per Token field
    (``starts`` and ``ends`` split ``span``); the rules read the columns
    directly.  Indexing, slicing and iterating give Token views built on
    demand.  Streams compare and hash by their six fields.
    """

    __slots__ = _STREAM_FIELDS

    def __init__(self, source: str, surfaces: Tuple[str, ...], starts: Tuple[int, ...],
                 ends: Tuple[int, ...], norms: Tuple[str, ...], kinds: Tuple[str, ...]):
        if not len(surfaces) == len(starts) == len(ends) == len(norms) == len(kinds):
            raise ValueError("token stream columns differ in length")
        _set(self, "source", source)
        _set(self, "surfaces", surfaces)
        _set(self, "starts", starts)
        _set(self, "ends", ends)
        _set(self, "norms", norms)
        _set(self, "kinds", kinds)

    __setattr__ = __delattr__ = refuse_assignment

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return _stream_fields(self) == _stream_fields(other)

    def __hash__(self) -> int:
        return hash(_stream_fields(self))

    def __reduce__(self):
        return type(self), _stream_fields(self)

    def __repr__(self) -> str:
        return "%s(%s)" % (type(self).__name__, ", ".join(
            map("%s=%r".__mod__, zip(self.__slots__, _stream_fields(self)))))

    @property
    def tokens(self) -> Tuple[Token, ...]:
        return tuple(self)

    def __len__(self) -> int:
        return len(self.surfaces)

    def __iter__(self) -> Iterator[Token]:
        # tuple.__new__ builds each Token from its field tuple without a
        # Python-level call per token.
        return map(tuple.__new__, repeat(Token),
                   zip(self.surfaces, zip(self.starts, self.ends), self.norms, self.kinds))

    def __getitem__(self, i):
        if isinstance(i, slice):
            return self.tokens[i]
        return Token(self.surfaces[i], (self.starts[i], self.ends[i]),
                     self.norms[i], self.kinds[i])


def normalize_whitespace(raw: str) -> str:
    """Collapse every run of Unicode whitespace to one space, strip ends.

    Total and idempotent; no character outside whitespace is touched.
    """
    return " ".join(raw.split())


def _classify(core: str) -> str:
    if _NUMBER_RE.fullmatch(core):
        return NUMBER
    if any(map(str.isalpha, core)):
        return WORD
    return SYMBOL


# The set of each specials string, built once instead of on every call.
_special_set = lru_cache(maxsize=16)(frozenset)


@lru_cache(maxsize=16)
def token_pattern(specials: str = EDGE_SPECIALS):
    """A pattern whose matches are the tokens, captured as group 1.

    A token is a single special character, or a core: a run of
    non-space characters that starts and ends with a non-special.  Read
    left to right over a chunk, this peels the chunk's leading specials,
    then takes its core, then peels its trailing specials one by one.
    What lies between matches is only spaces.
    """
    chars = "".join(sorted(set(specials) - {" "}))
    if not chars:
        return re.compile(r"([^ ]+)")
    cls = "".join(map(re.escape, chars))
    return re.compile(f"([{cls}]|[^ {cls}](?:[^ ]*[^ {cls}])?)")


def surface_forms(surfaces: Sequence[str], specials: str = EDGE_SPECIALS):
    """The UTF-8 byte size, the norm and the kind of each token surface,
    as three lists.

    A surface that is one special character is punctuation with the empty
    norm; any other surface is lowercased and classed as a word, a number
    literal or a symbol.  This is the one definition of a token's size,
    norm and kind: ``tokenize`` applies it to every token, and the engine
    to the tokens of each chunk it has not seen.  Raises InvalidInput for
    a surface that UTF-8 cannot encode.

    >>> surface_forms(["KTN", "،", "10:40", "+"])
    ([3, 2, 5, 1], ['ktn', '', '10:40', '+'], ['word', 'punctuation', 'number-literal', 'symbol'])
    """
    try:
        sizes = list(map(len, map(str.encode, surfaces)))
    except UnicodeEncodeError as exc:
        raise InvalidInput.unencodable(exc) from exc
    norms = list(map(str.lower, surfaces))
    kinds = [WORD] * len(surfaces)
    # Only edge punctuation and surfaces that are not all letters (numbers,
    # symbols, words with marks or ZWNJ) need a closer look.
    special_set = _special_set(specials)
    odd = map(or_, map(special_set.__contains__, surfaces),
              map(not_, map(str.isalpha, surfaces)))
    for i in compress(range(len(surfaces)), odd):
        surface = surfaces[i]
        if surface in special_set:
            norms[i] = ""
            kinds[i] = PUNCTUATION
        else:
            kinds[i] = _classify(surface)
    return sizes, norms, kinds


def chunk_rows(parts: Sequence[str], fields) -> List[Tuple[tuple, ...]]:
    """The token rows of each chunk (the tokens after a run of spaces) of
    ``parts``, ``token_pattern(...).split`` of a text after a space.
    ``fields`` gives each surface's ``(surface, size, norm, kind, *more)``;
    a row is ``(advance, *fields)``, advance being the UTF-8 bytes since
    the end of the token before."""
    spaces = parts[0:-1:2]
    found = fields(parts[1::2])
    rows = tuple(map(add, zip(map(add, map(len, spaces), map(_SIZE, found))), found))
    firsts = list(compress(range(len(rows)), spaces))
    return list(map(rows.__getitem__, map(slice, firsts, firsts[1:] + [None])))


def stream_of(source: str, rows: Sequence[tuple]) -> Tuple[TokenStream, List[tuple]]:
    """The stream of ``source`` from its chunks' rows, and the rows'
    further columns (one empty column when there are no tokens).

    >>> cut = token_pattern().split
    >>> fields = lambda surfaces: list(zip(surfaces, *surface_forms(surfaces)))
    >>> stream, _ = stream_of("(ڪراچي)،", chunk_rows(cut(" (ڪراچي)،"), fields))
    >>> [(t.surface, t.span) for t in stream]
    [('(', (0, 1)), ('ڪراچي', (1, 11)), (')', (11, 12)), ('،', (12, 14))]
    """
    advances, surfaces, sizes, norms, kinds, *more = (
        list(zip(*chain.from_iterable(rows))) or [()] * 6)
    # The text's first chunk has no space before it.
    ends = tuple(accumulate(advances, initial=-1))[1:]
    return TokenStream(source, surfaces, tuple(map(sub, ends, sizes)), ends, norms,
                       kinds), more


def tokenize(raw: str, specials: str = EDGE_SPECIALS) -> TokenStream:
    """Tokenize whitespace-normalized text.

    Splits on single spaces, then splits edge specials off each chunk into
    punctuation tokens.  Byte spans index ``raw.encode("utf-8")`` and are
    strictly increasing; slicing those bytes reproduces each surface.
    Raises InvalidInput for a text that UTF-8 cannot encode.
    """
    parts = token_pattern(specials).split(" " + raw)
    rows = chunk_rows(parts, lambda surfaces: list(zip(surfaces, *surface_forms(surfaces, specials))))
    return stream_of(raw, rows)[0]
