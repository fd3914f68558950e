"""Per-rule matcher tests, one block per rule, on the shipped data."""

import pytest
from hypothesis import given, strategies as st

from sindhi_ner.rules import (
    DEFAULT_PRIORITIES,
    Proposal,
    RuleId,
    RuleSet,
    SPAN_CAPS,
    TagLabel,
    sort_key,
)
from sindhi_ner.text import tokenize


@pytest.fixture(scope="module")
def rules(engine):
    return engine.rules


def stream(text):
    return tokenize(text)


def replace_fields(rules, **changes):
    """A new RuleSet built from ``rules``' constructor fields with
    ``changes`` applied; its word sets and tables are built from those."""
    names = ("gaz", "months", "letters", "stopwords", "suffixes", "person_markers",
             "priorities")
    return RuleSet(**{name: changes.get(name, getattr(rules, name)) for name in names})


class TestDatetime:
    def test_dotted_date(self, rules):
        p = rules.match_datetime(stream("05.06.2016"), 0)
        assert (p.label, p.start, p.end) == (TagLabel.DATE, 0, 1)

    def test_slashed_date(self, rules):
        assert rules.match_datetime(stream("05/06/2016"), 0).label is TagLabel.DATE

    def test_mixed_separators_rejected(self, rules):
        assert rules.match_datetime(stream("05.06/2016"), 0) is None

    def test_clock_time(self, rules):
        p = rules.match_datetime(stream("10:40"), 0)
        assert p.label is TagLabel.TIME

    def test_out_of_range_time(self, rules):
        assert rules.match_datetime(stream("99:99"), 0) is None
        assert rules.match_datetime(stream("23:60"), 0) is None
        assert rules.match_datetime(stream("24:00"), 0) is None

    def test_day_month_year(self, rules):
        p = rules.match_datetime(stream("07 جولاءِ 2016"), 0)
        assert (p.label, p.end - p.start) == (TagLabel.DATE, 3)

    def test_day_month_only(self, rules):
        p = rules.match_datetime(stream("15 جون آهي"), 0)
        assert (p.label, p.end - p.start) == (TagLabel.DATE, 2)

    def test_year_word(self, rules):
        p = rules.match_datetime(stream("2016 سال"), 0)
        assert (p.label, p.end - p.start) == (TagLabel.DATE, 2)

    def test_plain_number_no_match(self, rules):
        assert rules.match_datetime(stream("100"), 0) is None

    def test_word_anchor_no_match(self, rules):
        assert rules.match_datetime(stream("اويس"), 0) is None


class TestUrlEmail:
    def test_scheme_url(self, rules):
        p = rules.match_url_email(stream("http://nlp.cs.nyu.edu"), 0)
        assert p.label is TagLabel.URL

    def test_www_url(self, rules):
        assert rules.match_url_email(stream("www.sindhila.org"), 0).label \
            is TagLabel.URL

    def test_email(self, rules):
        p = rules.match_url_email(stream("awaisjumani@yahoo.com"), 0)
        assert p.label is TagLabel.EMAIL

    def test_email_needs_dot_after_at(self, rules):
        assert rules.match_url_email(stream("a@b"), 0) is None

    def test_plain_word_no_match(self, rules):
        assert rules.match_url_email(stream("اويس"), 0) is None


class TestSuffix:
    def suffix_label(self, rules, text):
        p = rules.match_suffix(stream(text), 0)
        if p is None:
            return None
        assert (p.start, p.end, p.rule) == (0, 1, RuleId.R2_Suffix)
        assert p.priority == rules.priorities[RuleId.R2_Suffix]
        return p.label

    def test_pur(self, rules):
        assert self.suffix_label(rules, "خيرپور") is TagLabel.LOCATION

    def test_abad_with_zwnj(self, rules):
        assert self.suffix_label(rules, "اسلام‌آباد") is TagLabel.LOCATION

    def test_dad(self, rules):
        assert self.suffix_label(rules, "سعيداد") is TagLabel.PERSON

    def test_yat(self, rules):
        assert self.suffix_label(rules, "لسانيات") is TagLabel.TERM

    def test_markers(self, rules):
        assert self.suffix_label(rules, "حسن") is TagLabel.PERSON
        assert self.suffix_label(rules, "حسين") is TagLabel.PERSON

    def test_bare_suffix_stem_too_short(self, rules):
        assert self.suffix_label(rules, "پور") is None

    def test_one_char_stem_too_short(self, rules):
        assert self.suffix_label(rules, "ٻپور") is None

    def test_number_token_no_match(self, rules):
        assert self.suffix_label(rules, "100") is None

    def test_reads_the_token_at_its_position(self, rules):
        p = rules.match_suffix(stream("هو خيرپور ويو"), 1)
        assert (p.start, p.end, p.label) == (1, 2, TagLabel.LOCATION)
        assert rules.match_suffix(stream("هو خيرپور ويو"), 2) is None

    def test_longest_suffix_wins_then_table_order(self, rules):
        table = {"اد": TagLabel.LOCATION, "داد": TagLabel.PERSON,
                 "يد": TagLabel.TERM, "ود": TagLabel.LOCATION}
        overlapping = replace_fields(rules, suffixes=table)
        assert self.suffix_label(overlapping, "سعيداد") is TagLabel.PERSON
        # A long suffix whose stem would be too short yields to a shorter one.
        assert self.suffix_label(overlapping, "سداد") is TagLabel.LOCATION
        assert self.suffix_label(replace_fields(
            rules, suffixes=dict(reversed(table.items()))), "سعيداد") is TagLabel.PERSON

    @given(st.text(alphabet="ابتثجحخدذرزسشصضطظعغفقکلمنوહيڪڳ", min_size=0,
                   max_size=5))
    def test_stem_rule_property(self, rules, stem):
        # With ستان the only suffix and no markers, a word ending in it is
        # a LOCATION exactly when at least two characters precede it.
        only = replace_fields(rules, suffixes={"ستان": TagLabel.LOCATION},
                               person_markers=frozenset())
        label = self.suffix_label(only, stem + "ستان")
        assert label is (TagLabel.LOCATION if len(stem) >= 2 else None)


class TestTitleDesignation:
    def test_designation_then_person(self, rules):
        props = rules.match_title_designation(stream("وزير اعظم زرداري ويو"), 0)
        assert [(p.label, p.start, p.end) for p in props] == [
            (TagLabel.DESIGNATION, 0, 2), (TagLabel.PERSON, 2, 3)]

    def test_title_then_two_token_person(self, rules):
        props = rules.match_title_designation(stream("ڊاڪٽر شاهده ميمڻ ڳالهايو"), 0)
        assert props[1].end - props[1].start == 2

    def test_title_at_stream_end(self, rules):
        props = rules.match_title_designation(stream("ملڪ جو صدر"), 2)
        assert [p.label for p in props] == [TagLabel.DESIGNATION]

    def test_stopword_blocks_person(self, rules):
        props = rules.match_title_designation(stream("صدر ويو"), 0)
        assert [p.label for p in props] == [TagLabel.DESIGNATION]

    def test_mrs(self, rules):
        props = rules.match_title_designation(stream("مسس رابيل آئي"), 0)
        assert props[0].label is TagLabel.DESIGNATION
        assert props[1].end - props[1].start == 1

    def test_non_title_no_match(self, rules):
        assert rules.match_title_designation(stream("گهر ويو"), 0) == []


class TestSurnameTrigger:
    def test_first_name_joins(self, rules):
        p = rules.match_surname_trigger(stream("اويس جمائي"), 1)
        assert (p.label, p.start, p.end) == (TagLabel.PERSON, 0, 2)

    def test_surname_first_token(self, rules):
        p = rules.match_surname_trigger(stream("جمائي آيو"), 0)
        assert (p.start, p.end) == (0, 1)

    def test_postposition_blocks_extension(self, rules):
        p = rules.match_surname_trigger(stream("۾ جمائي"), 1)
        assert (p.start, p.end) == (1, 2)

    def test_letter_name_defers_to_initials(self, rules):
        assert rules.match_surname_trigger(stream("جي مهر"), 1) is None

    def test_non_surname_no_match(self, rules):
        assert rules.match_surname_trigger(stream("اويس گهر"), 1) is None


class TestPostposition:
    def test_ambiguous_name_resolved(self, rules):
        p = rules.resolve_postposition(stream("شفقت جي ڪتاب"), 0)
        assert (p.label, p.start, p.end) == (TagLabel.PERSON, 0, 1)

    def test_first_name_resolved(self, rules):
        p = rules.resolve_postposition(stream("اويس جي گهر"), 0)
        assert p is not None

    def test_no_cue_no_match(self, rules):
        assert rules.resolve_postposition(stream("شفقت ڪتاب"), 0) is None

    def test_unknown_word_no_match(self, rules):
        assert rules.resolve_postposition(stream("گهر جي"), 0) is None

    def test_cue_at_stream_end_no_match(self, rules):
        assert rules.resolve_postposition(stream("شفقت"), 0) is None


class TestNumberWords:
    def test_three_word_run(self, rules):
        p = rules.match_number_words(stream("ڇهه سو پنج رپيا"), 0)
        assert (p.label, p.end - p.start) == (TagLabel.NUMBER, 3)

    def test_single(self, rules):
        p = rules.match_number_words(stream("ست"), 0)
        assert p.end - p.start == 1

    def test_run_capped_at_three(self, rules):
        s = stream("هڪ ٻه ٽي چار")
        assert rules.match_number_words(s, 0).end == 3
        assert rules.match_number_words(s, 3).end == 4

    def test_variant_spellings(self, rules):
        for word in ("سڀون", "ايٺ", "نائون"):
            assert rules.match_number_words(stream(word), 0) is not None

    def test_non_number_no_match(self, rules):
        assert rules.match_number_words(stream("گهر"), 0) is None


class TestInitials:
    def test_two_initials(self, rules):
        p = rules.match_initials(stream("جي اي مهر"), 0)
        assert (p.label, p.start, p.end) == (TagLabel.PERSON, 0, 3)

    def test_one_initial(self, rules):
        p = rules.match_initials(stream("جي مهر"), 0)
        assert (p.start, p.end) == (0, 2)

    def test_three_initials(self, rules):
        p = rules.match_initials(stream("اي بي سي جمائي"), 0)
        assert (p.start, p.end) == (0, 4)

    def test_no_surname_after_run(self, rules):
        assert rules.match_initials(stream("ڪي ٽي اين تي"), 0) is None

    def test_letters_at_stream_end(self, rules):
        assert rules.match_initials(stream("جي اي"), 0) is None

    def test_non_letter_start(self, rules):
        assert rules.match_initials(stream("اويس مهر"), 0) is None


class TestAbbreviation:
    def test_letter_run(self, rules):
        p = rules.match_abbreviation(stream("ڪي ٽي اين تي"), 0)
        assert (p.label, p.end - p.start) == (TagLabel.ABBREVIATION, 3)

    def test_gazetteer_entry(self, rules):
        p = rules.match_abbreviation(stream("وغيره"), 0)
        assert p.label is TagLabel.ABBREVIATION

    def test_single_letter_no_match(self, rules):
        assert rules.match_abbreviation(stream("جي گهر"), 0) is None

    def test_plain_word_no_match(self, rules):
        assert rules.match_abbreviation(stream("گهر"), 0) is None


class TestOrgKeyword:
    def test_one_qualifier(self, rules):
        p = rules.match_org_keyword(stream("سنڌ يونيورسٽي ۾"), 1)
        assert (p.label, p.start, p.end) == (TagLabel.ORGANIZATION, 0, 2)

    def test_two_qualifiers(self, rules):
        p = rules.match_org_keyword(stream("شاه عبدالطيف يونيورسٽي ۾"), 2)
        assert (p.start, p.end) == (0, 3)

    def test_keyword_alone_at_start(self, rules):
        p = rules.match_org_keyword(stream("يونيورسٽي کليل آهي"), 0)
        assert (p.start, p.end) == (0, 1)

    def test_stopword_stops_extension(self, rules):
        p = rules.match_org_keyword(stream("هو سنڌ يونيورسٽي ۾"), 2)
        assert (p.start, p.end) == (1, 3)

    def test_covered_positions_block(self, rules):
        s = stream("سنڌ يونيورسٽي")
        assert rules.match_org_keyword(s, 1, covered=frozenset({1})) is None
        p = rules.match_org_keyword(s, 1, covered=frozenset({0}))
        assert (p.start, p.end) == (1, 2)

    def test_non_keyword_no_match(self, rules):
        assert rules.match_org_keyword(stream("گهر ويو"), 0) is None


class TestProposalOrdering:
    def test_priority_wins(self):
        a = Proposal(0, 1, TagLabel.DATE, RuleId.R1_DateTime, 1)
        b = Proposal(0, 3, TagLabel.PERSON, RuleId.R3_GazetteerName, 2)
        assert sorted([b, a], key=sort_key)[0] is a

    def test_length_breaks_priority_tie(self):
        a = Proposal(1, 2, TagLabel.PERSON, RuleId.R3_GazetteerName, 2)
        b = Proposal(0, 2, TagLabel.PERSON, RuleId.R3_GazetteerName, 2)
        assert sorted([a, b], key=sort_key)[0] is b

    def test_start_breaks_length_tie(self):
        a = Proposal(2, 3, TagLabel.PERSON, RuleId.R3_GazetteerName, 2)
        b = Proposal(0, 1, TagLabel.PERSON, RuleId.R3_GazetteerName, 2)
        assert sorted([a, b], key=sort_key)[0] is b

    def test_invalid_range_rejected(self):
        with pytest.raises(ValueError):
            Proposal(2, 2, TagLabel.PERSON, RuleId.R3_GazetteerName, 2)
        with pytest.raises(ValueError):
            Proposal(-1, 1, TagLabel.PERSON, RuleId.R3_GazetteerName, 2)

    @pytest.mark.parametrize("start, end", [(2, 2), (3, 1), (-1, 1)])
    def test_rules_refuse_an_empty_or_negative_range(self, rules, start, end):
        with pytest.raises(ValueError, match=fr"^bad proposal range \[{start}, {end}\)$"):
            rules._make(start, end, TagLabel.PERSON, RuleId.R3_GazetteerName)
        made = rules._make(0, 2, TagLabel.PERSON, RuleId.R3_GazetteerName)
        assert type(made) is Proposal
        assert made == Proposal(0, 2, TagLabel.PERSON, RuleId.R3_GazetteerName,
                                rules.priorities[RuleId.R3_GazetteerName])

    def test_replace_rechecks_range(self):
        p = Proposal(2, 4, TagLabel.PERSON, RuleId.R3_GazetteerName, 2)
        assert p._replace(end=3) == Proposal(2, 3, TagLabel.PERSON,
                                             RuleId.R3_GazetteerName, 2)
        with pytest.raises(ValueError):
            p._replace(end=2)
        with pytest.raises(ValueError):
            Proposal._make((3, 1, TagLabel.PERSON, RuleId.R3_GazetteerName, 2))

    def test_default_priority_table(self):
        p = DEFAULT_PRIORITIES
        assert p[RuleId.R_GazetteerDirect] == 0
        assert p[RuleId.R1_DateTime] == p[RuleId.R_UrlEmail] == 1
        assert p[RuleId.R3_GazetteerName] < p[RuleId.R5_TitleDesignation] \
            < p[RuleId.R4_SurnameTrigger] < p[RuleId.R8_Initials] \
            < p[RuleId.R9_Abbreviation] < p[RuleId.R2_Suffix] \
            < p[RuleId.R7_NumberWords] < p[RuleId.R10_OrgKeyword] \
            < p[RuleId.R6_Postposition]

    def test_span_caps(self):
        assert SPAN_CAPS[RuleId.R8_Initials] == 4
        assert all(cap == 3 for rule, cap in SPAN_CAPS.items()
                   if rule is not RuleId.R8_Initials)


class TestMatcherPurity:
    def test_repeat_calls_identical(self, rules):
        s = stream("اويس جمائي 05.06.2016 تي سنڌ يونيورسٽي ويو")
        for i in range(len(s)):
            assert rules.match_datetime(s, i) == rules.match_datetime(s, i)
            assert rules.match_surname_trigger(s, i) == \
                rules.match_surname_trigger(s, i)

    def test_spans_inside_bounds(self, rules):
        s = stream("جي اي مهر وزير اعظم زرداري 07 جولاءِ 2016")
        matchers = [
            lambda i: rules.match_datetime(s, i),
            lambda i: rules.match_initials(s, i),
            lambda i: rules.match_number_words(s, i),
            lambda i: rules.match_abbreviation(s, i),
            lambda i: rules.match_org_keyword(s, i),
            lambda i: rules.match_surname_trigger(s, i),
        ]
        for i in range(len(s)):
            for match in matchers:
                p = match(i)
                if p is not None:
                    assert 0 <= p.start < p.end <= len(s)
                    assert p.end - p.start <= SPAN_CAPS[p.rule]
