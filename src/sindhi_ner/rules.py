"""The tagging rules: one matcher per rule over a token window.

Each matcher is a pure function of (tokens, position) plus the rule data
bound on the RuleSet: gazetteer, month names, letter names, stopwords, and
the suffix table; the direct and org-keyword matchers also take the
positions earlier rules claimed.  ``tokens`` is a TokenStream; the
matchers read its columns (``norms``, ``kinds``, ``surfaces``) by
position.  Matchers emit Proposals; ``pipeline._CASCADE`` states the scan
order, the scan gates and which rules' claims block each rule, and the
pipeline resolves conflicts.

Cascade summary (priority in parentheses, lower wins):

* gazetteer direct match for unambiguous categories (0)
* date/time patterns (1) and URL/email patterns (1)
* gazetteer person names, longest match up to 3 words (2)
* title/designation, tagging the following name tokens as PERSON (3)
* surname-triggered person spans (4)
* initials + surname person spans (5)
* letter-name runs and gazetteer short forms as abbreviations (6)
* location/person/term word suffixes (7)
* number-word runs (8)
* organization keyword with backward extension (9)
* ambiguous name resolved by the genitive postposition (10)
"""

from __future__ import annotations

import enum
import re
from functools import cached_property
from typing import Dict, FrozenSet, List, NamedTuple, Optional

from .gazetteer import (
    Category,
    Gazetteer,
    LOCATION_SUFFIX,
    PERSON_SUFFIX,
    TERM_SUFFIX,
    lookup_longest,
)
from .text import NUMBER, PUNCTUATION, WORD, refuse_assignment


class TagLabel(enum.Enum):
    # Members are singletons compared by identity; the identity hash is
    # computed in C, where Enum's own __hash__ is a Python call on every
    # dict or set lookup in the tagging loop.
    __hash__ = object.__hash__

    PERSON = "PERSON"
    LOCATION = "LOCATION"
    ORGANIZATION = "ORGANIZATION"
    DATE = "DATE"
    TIME = "TIME"
    DESIGNATION = "DESIGNATION"
    TERM = "TERM"
    ABBREVIATION = "ABBREVIATION"
    NUMBER = "NUMBER"
    URL = "URL"
    EMAIL = "EMAIL"
    BRAND = "BRAND"


class RuleId(enum.Enum):
    __hash__ = object.__hash__  # see TagLabel

    R1_DateTime = "R1_DateTime"
    R2_Suffix = "R2_Suffix"
    R3_GazetteerName = "R3_GazetteerName"
    R4_SurnameTrigger = "R4_SurnameTrigger"
    R5_TitleDesignation = "R5_TitleDesignation"
    R6_Postposition = "R6_Postposition"
    R7_NumberWords = "R7_NumberWords"
    R8_Initials = "R8_Initials"
    R9_Abbreviation = "R9_Abbreviation"
    R10_OrgKeyword = "R10_OrgKeyword"
    R_UrlEmail = "R_UrlEmail"
    R_GazetteerDirect = "R_GazetteerDirect"


_RULE_ORDER = {rule: i for i, rule in enumerate(RuleId)}
# Rank of each label's value in string order: the last sort_key field.
_LABEL_ORDER = {label: i for i, label in
                enumerate(sorted(TagLabel, key=lambda label: label.value))}

# Each member's string value, and the member of each value.  Enum.value is
# a Python-level property and TagLabel(value) a Python-level call; these
# dict lookups run in C on the render, store and query paths.
LABEL_VALUE: Dict[TagLabel, str] = {label: label.value for label in TagLabel}
RULE_VALUE: Dict[RuleId, str] = {rule: rule.value for rule in RuleId}
LABEL_BY_VALUE: Dict[str, TagLabel] = {label.value: label for label in TagLabel}
RULE_BY_VALUE: Dict[str, RuleId] = {rule.value: rule for rule in RuleId}

DEFAULT_PRIORITIES: Dict[RuleId, int] = {
    RuleId.R_GazetteerDirect: 0,
    RuleId.R1_DateTime: 1,
    RuleId.R_UrlEmail: 1,
    RuleId.R3_GazetteerName: 2,
    RuleId.R5_TitleDesignation: 3,
    RuleId.R4_SurnameTrigger: 4,
    RuleId.R8_Initials: 5,
    RuleId.R9_Abbreviation: 6,
    RuleId.R2_Suffix: 7,
    RuleId.R7_NumberWords: 8,
    RuleId.R10_OrgKeyword: 9,
    RuleId.R6_Postposition: 10,
}

# Widest span each rule may emit, in tokens.  The initials rule can cover
# three initials plus the surname; the org-keyword rule a keyword plus two
# qualifiers; everything else is capped at three.  Rules 4 and 8 join a
# surname of up to three words to other tokens, so they check their caps.
SPAN_CAPS: Dict[RuleId, int] = {rule: 3 for rule in RuleId}
SPAN_CAPS[RuleId.R8_Initials] = 4

# Categories tagged directly from the gazetteer, and their labels.
DIRECT_LABELS = {
    Category.Location: TagLabel.LOCATION,
    Category.Organization: TagLabel.ORGANIZATION,
    Category.Brand: TagLabel.BRAND,
    Category.Term: TagLabel.TERM,
    Category.Abbreviation: TagLabel.ABBREVIATION,
}

# Category sets the cascade looks up while tagging.  The engine's gate
# table (``pipeline.Engine.__init__``) builds the gazetteer's lookup index
# of each set, so no index is built inside tag_text; a new hot-path set
# belongs in that table too.
DIRECT_CATEGORIES = frozenset(DIRECT_LABELS)
PERSON_CATEGORIES = frozenset((Category.PersonFirstName,))
TITLE_CATEGORIES = frozenset((Category.Title, Category.Designation))
SURNAME_CATEGORIES = frozenset((Category.Surname,))
ABBREVIATION_CATEGORIES = frozenset((Category.Abbreviation,))

SUFFIX_LABELS = {
    LOCATION_SUFFIX: TagLabel.LOCATION,
    PERSON_SUFFIX: TagLabel.PERSON,
    TERM_SUFFIX: TagLabel.TERM,
}

# Genitive postposition that resolves an ambiguous name to PERSON.
POSTPOSITION_CUE = "جي"

# Word that turns a bare year number into a date ("2016 سال").
YEAR_WORD = "سال"

MIN_SUFFIX_STEM = 2

_DAY_RE = re.compile(r"\d{1,2}")
_YEAR_RE = re.compile(r"\d{4}")
_DMY_RE = re.compile(r"\d{1,2}([./])\d{1,2}\1\d{4}")
_TIME_RE = re.compile(r"(\d{1,2}):(\d{2})")
_URL_RE = re.compile(r"[A-Za-z][A-Za-z0-9+.\-]*://\S+")
_WWW_RE = re.compile(r"www\..+", re.IGNORECASE)
_EMAIL_RE = re.compile(r"[^@\s]+@[^@\s]+\.[^@\s]+")


class _ProposalFields(NamedTuple):
    start: int
    end: int
    label: TagLabel
    rule: RuleId
    priority: int


class Proposal(_ProposalFields):
    """A candidate entity: half-open token range plus label and strength.

    The range must be non-empty; building a Proposal in any way, ``_make``
    and ``_replace`` included, rejects an empty or negative one.
    """

    __slots__ = ()

    def __new__(cls, start: int, end: int, label: TagLabel, rule: RuleId,
                priority: int):
        if not 0 <= start < end:
            raise ValueError(f"bad proposal range [{start}, {end})")
        return tuple.__new__(cls, (start, end, label, rule, priority))

    @classmethod
    def _make(cls, iterable) -> "Proposal":
        # _replace builds its result through _make.
        return cls(*iterable)


def _run_length(norms, i: int, members) -> int:
    """How many norms from ``i`` on are in ``members``, at most three."""
    k = 0
    while k < 3 and i + k < len(norms) and norms[i + k] in members:
        k += 1
    return k


def sort_key(p: Proposal):
    """Total order used by conflict resolution: strongest first.

    Fields: priority, longer span, leftmost start, rule declaration
    order, label value.
    """
    return (p.priority, p.start - p.end, p.start, _RULE_ORDER[p.rule],
            _LABEL_ORDER[p.label])


class RuleSet:
    """Matchers bound to their data: gazetteer, word lists, suffix table.

    The values below are cached on first use.  The engine reads each of
    them when it is built, so tagging builds none.  Assigning to a rule
    set raises AttributeError.
    """

    def __init__(self, gaz: Gazetteer, months: FrozenSet[str], letters: FrozenSet[str],
                 stopwords: FrozenSet[str], suffixes: Dict[str, TagLabel],
                 person_markers: FrozenSet[str], priorities: Dict[RuleId, int]):
        # Fields and cached values live in the instance dict, past the guard.
        self.__dict__.update(gaz=gaz, months=months, letters=letters, stopwords=stopwords,
                             suffixes=suffixes, person_markers=person_markers,
                             priorities=priorities)

    __setattr__ = __delattr__ = refuse_assignment

    @cached_property
    def number_words(self) -> frozenset:
        return self.gaz.single_token_norms(Category.NumberWord)

    @cached_property
    def org_keywords(self) -> frozenset:
        return self.gaz.single_token_norms(Category.OrgKeyword)

    @cached_property
    def ambiguous_names(self) -> frozenset:
        """The one-word names rule 6 resolves: ambiguous or first names."""
        return (self.gaz.single_token_norms(Category.AmbiguousName)
                | self.gaz.single_token_norms(Category.PersonFirstName))

    @cached_property
    def suffix_endings(self) -> tuple:
        """The listed suffixes, longest first; among suffixes of one
        length, table order decides."""
        return tuple(sorted(self.suffixes, key=len, reverse=True))

    def _make(self, start: int, end: int, label: TagLabel, rule: RuleId) -> Proposal:
        # Proposal.__new__'s check inline: one Python call per proposal.
        if not 0 <= start < end:
            raise ValueError(f"bad proposal range [{start}, {end})")
        return tuple.__new__(Proposal, (start, end, label, rule, self.priorities[rule]))

    # -- rule 1: dates and times ------------------------------------------

    def match_datetime(self, tokens, i: int) -> Optional[Proposal]:
        """DATE/TIME patterns anchored on a number-literal token.

        Covers D.D.YYYY and D/D/YYYY, "<day> <month> <year>", "<day>
        <month>", "<year> سال", and H:MM / HH:MM with hour <= 23 and
        minute <= 59.
        """
        kinds, norms, surfaces = tokens.kinds, tokens.norms, tokens.surfaces
        if kinds[i] != NUMBER:
            return None
        s = surfaces[i]
        n = len(kinds)
        if _DAY_RE.fullmatch(s) and i + 1 < n and norms[i + 1] in self.months:
            if (i + 2 < n and kinds[i + 2] == NUMBER
                    and _YEAR_RE.fullmatch(surfaces[i + 2])):
                return self._make(i, i + 3, TagLabel.DATE, RuleId.R1_DateTime)
            return self._make(i, i + 2, TagLabel.DATE, RuleId.R1_DateTime)
        if (_YEAR_RE.fullmatch(s) and i + 1 < n
                and norms[i + 1] == YEAR_WORD):
            return self._make(i, i + 2, TagLabel.DATE, RuleId.R1_DateTime)
        if _DMY_RE.fullmatch(s):
            return self._make(i, i + 1, TagLabel.DATE, RuleId.R1_DateTime)
        m = _TIME_RE.fullmatch(s)
        if m and int(m.group(1)) <= 23 and int(m.group(2)) <= 59:
            return self._make(i, i + 1, TagLabel.TIME, RuleId.R1_DateTime)
        return None

    # -- URLs and email addresses -----------------------------------------

    def match_url_email(self, tokens, i: int) -> Optional[Proposal]:
        """URL for scheme:// or www. tokens, EMAIL for local@domain.tld."""
        if tokens.kinds[i] == PUNCTUATION:
            return None
        s = tokens.surfaces[i]
        if _URL_RE.fullmatch(s) or _WWW_RE.fullmatch(s):
            return self._make(i, i + 1, TagLabel.URL, RuleId.R_UrlEmail)
        if _EMAIL_RE.fullmatch(s):
            return self._make(i, i + 1, TagLabel.EMAIL, RuleId.R_UrlEmail)
        return None

    # -- direct gazetteer matches -----------------------------------------

    def match_gazetteer_direct(self, tokens, i: int, claimed) -> Optional[Proposal]:
        """The longest gazetteer entry at ``i`` of a category in
        DIRECT_LABELS, under that category's label, unless its span
        touches a position in ``claimed``."""
        hit = lookup_longest(self.gaz, tokens, i, DIRECT_CATEGORIES)
        if hit is None:
            return None
        entry, k = hit
        if not claimed.isdisjoint(range(i, i + k)):
            return None
        return self._make(i, i + k, DIRECT_LABELS[entry.category],
                          RuleId.R_GazetteerDirect)

    # -- rule 2: word suffixes --------------------------------------------

    def match_suffix(self, tokens, i: int) -> Optional[Proposal]:
        """Label the word at ``i`` by its ending, or PERSON on a person marker.

        The longest listed suffix that leaves a stem of at least two
        characters decides; marker words (whole-norm equality) are exempt.
        """
        if tokens.kinds[i] != WORD:
            return None
        n = tokens.norms[i]
        if n in self.person_markers:
            return self._make(i, i + 1, TagLabel.PERSON, RuleId.R2_Suffix)
        for suffix in self.suffix_endings:
            if n.endswith(suffix) and len(n) - len(suffix) >= MIN_SUFFIX_STEM:
                return self._make(i, i + 1, self.suffixes[suffix], RuleId.R2_Suffix)
        return None

    # -- rule 3: gazetteer person names -----------------------------------

    def match_gazetteer_name(self, tokens, i: int) -> Optional[Proposal]:
        """PERSON over the longest first-name entry at ``i``."""
        hit = lookup_longest(self.gaz, tokens, i, PERSON_CATEGORIES)
        if hit is None:
            return None
        return self._make(i, i + hit[1], TagLabel.PERSON, RuleId.R3_GazetteerName)

    # -- rule 5: titles and designations ----------------------------------

    def match_title_designation(self, tokens, i: int) -> List[Proposal]:
        """DESIGNATION on a title/designation match, PERSON on what follows.

        The person span covers the next one or two word-kind non-stopword
        tokens; it stops at the first token that fails the test.
        """
        hit = lookup_longest(self.gaz, tokens, i, TITLE_CATEGORIES)
        if hit is None:
            return []
        k = hit[1]
        props = [self._make(i, i + k, TagLabel.DESIGNATION, RuleId.R5_TitleDesignation)]
        kinds, norms = tokens.kinds, tokens.norms
        j = i + k
        n = 0
        while (n < 2 and j + n < len(kinds) and kinds[j + n] == WORD
               and norms[j + n] not in self.stopwords):
            n += 1
        if n:
            props.append(self._make(j, j + n, TagLabel.PERSON, RuleId.R5_TitleDesignation))
        return props

    # -- rule 4: surname trigger ------------------------------------------

    def match_surname_trigger(self, tokens, i: int) -> Optional[Proposal]:
        """PERSON over surname plus qualifying preceding token.

        The preceding token joins the span when it is word-kind, not a
        stopword, and leaves the span within its cap.  A letter-name
        predecessor means an initials context, so no proposal is made at
        all: the initials rule owns that shape.  Nor is one made from a
        surname inside a longer surname that starts at the preceding
        token: that surname's own start decides.
        """
        hit = lookup_longest(self.gaz, tokens, i, SURNAME_CATEGORIES)
        if hit is None:
            return None
        end = i + hit[1]
        if i > 0:
            prev = tokens.norms[i - 1]
            # The first-word table rules out a longer surname at ``i - 1``
            # with one probe, so the longer lookup runs only where one may be.
            if self.gaz.match_index(SURNAME_CATEGORIES)[0].get(prev, 0) > hit[1]:
                outer = lookup_longest(self.gaz, tokens, i - 1, SURNAME_CATEGORIES)
                if outer is not None and outer[1] > hit[1]:
                    return None
            if prev in self.letters:
                return None
            if (tokens.kinds[i - 1] == WORD and prev not in self.stopwords
                    and hit[1] < SPAN_CAPS[RuleId.R4_SurnameTrigger]):
                return self._make(i - 1, end, TagLabel.PERSON, RuleId.R4_SurnameTrigger)
        return self._make(i, end, TagLabel.PERSON, RuleId.R4_SurnameTrigger)

    # -- rule 6: postposition disambiguation ------------------------------

    def resolve_postposition(self, tokens, i: int) -> Optional[Proposal]:
        """PERSON on a name in ``ambiguous_names`` followed by the genitive جي.

        Covers only the name token itself.  The cascade skips positions
        that rules 1-5 claimed.
        """
        norms = tokens.norms
        if norms[i] not in self.ambiguous_names:
            return None
        if i + 1 < len(norms) and norms[i + 1] == POSTPOSITION_CUE:
            return self._make(i, i + 1, TagLabel.PERSON, RuleId.R6_Postposition)
        return None

    # -- rule 7: number words ----------------------------------------------

    def match_number_words(self, tokens, i: int) -> Optional[Proposal]:
        """NUMBER over a greedy run of number words, at most three."""
        k = _run_length(tokens.norms, i, self.number_words)
        if not k:
            return None
        return self._make(i, i + k, TagLabel.NUMBER, RuleId.R7_NumberWords)

    # -- rule 8: initials before a surname ---------------------------------

    def match_initials(self, tokens, i: int) -> Optional[Proposal]:
        """PERSON over one to three letter-name tokens plus a surname,
        if that is at most ``SPAN_CAPS`` tokens: a later letter of the run
        then starts the span that fits."""
        run = _run_length(tokens.norms, i, self.letters)
        if not run:
            return None
        j = i + run
        if j >= len(tokens.norms):
            return None
        hit = lookup_longest(self.gaz, tokens, j, SURNAME_CATEGORIES)
        if hit is None or run + hit[1] > SPAN_CAPS[RuleId.R8_Initials]:
            return None
        return self._make(i, j + hit[1], TagLabel.PERSON, RuleId.R8_Initials)

    # -- rule 9: abbreviations ----------------------------------------------

    def match_abbreviation(self, tokens, i: int) -> Optional[Proposal]:
        """ABBREVIATION over a letter-name run or a gazetteer short form.

        A run needs at least two letter names: single letter-name tokens
        double as ordinary Sindhi words (جي is also the genitive
        postposition) and are left to stronger rules.
        """
        k = _run_length(tokens.norms, i, self.letters)
        if k >= 2:
            return self._make(i, i + k, TagLabel.ABBREVIATION, RuleId.R9_Abbreviation)
        hit = lookup_longest(self.gaz, tokens, i, ABBREVIATION_CATEGORIES)
        if hit is None:
            return None
        return self._make(i, i + hit[1], TagLabel.ABBREVIATION, RuleId.R9_Abbreviation)

    # -- rule 10: organization keywords -------------------------------------

    def match_org_keyword(self, tokens, i: int, covered=frozenset()) -> Optional[Proposal]:
        """ORGANIZATION over a keyword plus up to two preceding qualifiers.

        Extension walks backward over word-kind tokens that are neither
        stopwords nor in ``covered`` (token positions claimed by earlier
        rules), taking at most two.  The keyword itself must be unclaimed.
        """
        norms, kinds = tokens.norms, tokens.kinds
        if norms[i] not in self.org_keywords or i in covered:
            return None
        start = i
        while start > 0 and i - start < 2:
            if (kinds[start - 1] != WORD or norms[start - 1] in self.stopwords
                    or start - 1 in covered):
                break
            start -= 1
        return self._make(start, i + 1, TagLabel.ORGANIZATION, RuleId.R10_OrgKeyword)
