"""Whitespace normalization and tokenization for Sindhi (Arabic-script) text.

The tokenizer is deliberately simple: normalized text is split on single
spaces, special characters are peeled off token edges into punctuation
tokens of their own, and every token records the half-open byte range it
occupies in the UTF-8 encoding of the text it was cut from.  Slicing those
bytes always reproduces the token surface exactly.

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
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, compress, repeat
from operator import add, not_, or_, sub
from typing import Iterable, Iterator, NamedTuple, Sequence, Tuple

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


@dataclass(frozen=True)
class TokenStream:
    """Immutable sequence of tokens plus the exact text they index.

    The tokens are stored as parallel columns, one tuple per Token field
    (``starts`` and ``ends`` split ``span``); the rules read the columns
    directly.  Indexing, slicing and iterating give Token views built on
    demand.  ``from_tokens`` builds a stream from a sequence of Tokens.
    """

    source: str
    surfaces: Tuple[str, ...]
    starts: Tuple[int, ...]
    ends: Tuple[int, ...]
    norms: Tuple[str, ...]
    kinds: Tuple[str, ...]

    def __post_init__(self):
        n = len(self.surfaces)
        if not n == len(self.starts) == len(self.ends) == len(self.norms) == len(self.kinds):
            raise ValueError("token stream columns differ in length")

    @classmethod
    def from_tokens(cls, tokens: Iterable[Token], source: str) -> "TokenStream":
        tokens = tuple(tokens)
        return cls(source=source,
                   surfaces=tuple(t.surface for t in tokens),
                   starts=tuple(t.span[0] for t in tokens),
                   ends=tuple(t.span[1] for t in tokens),
                   norms=tuple(t.norm for t in tokens),
                   kinds=tuple(t.kind for t in tokens))

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


def strip_edge_specials(surface: str, specials: str = EDGE_SPECIALS):
    """Peel special characters off both edges of ``surface``.

    Returns ``(core, stripped)`` where ``stripped`` lists ``(char, side)``
    pairs, start-side chars first in text order, then end-side chars in
    text order.  The core may be empty if the surface was all specials.

    >>> strip_edge_specials("(KTN)")
    ('KTN', [('(', 'start'), (')', 'end')])
    """
    special_set = _special_set(specials)
    lo, hi = 0, len(surface)
    stripped = []
    while lo < hi and surface[lo] in special_set:
        stripped.append((surface[lo], "start"))
        lo += 1
    end_side = []
    while hi > lo and surface[hi - 1] in special_set:
        end_side.append((surface[hi - 1], "end"))
        hi -= 1
    end_side.reverse()
    return surface[lo:hi], stripped + end_side


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
    """The norm and the kind of each token surface, as two lists.

    A surface that is one special character is punctuation with the empty
    norm; any other surface is lowercased and classed as a word, a number
    literal or a symbol.  This is the one definition of a token's norm
    and kind: ``tokenize`` applies it to every token, and the engine to
    each surface it has not seen before.

    >>> surface_forms(["KTN", "،", "10:40", "+"])
    (['ktn', '', '10:40', '+'], ['word', 'punctuation', 'number-literal', 'symbol'])
    """
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
    return norms, kinds


def tokenize(raw: str, specials: str = EDGE_SPECIALS) -> TokenStream:
    """Tokenize whitespace-normalized text.

    Splits on single spaces, then splits edge specials off each chunk into
    punctuation tokens.  Byte spans index ``raw.encode("utf-8")`` and are
    strictly increasing; slicing those bytes reproduces each surface.
    """
    # [spaces, token, spaces, token, ..., spaces]
    parts = token_pattern(specials).split(raw)
    surfaces = tuple(parts[1::2])
    sizes = list(map(len, map(str.encode, surfaces)))
    ends = tuple(accumulate(map(add, map(len, parts[0:-1:2]), sizes)))
    norms, kinds = surface_forms(surfaces, specials)
    return TokenStream(source=raw, surfaces=surfaces,
                       starts=tuple(map(sub, ends, sizes)), ends=ends,
                       norms=tuple(norms), kinds=tuple(kinds))
