"""Unit tests for reference splitting, citation styles and linking."""

import re

import pytest
from conftest import (parent_extract_citations, reference_extract_citations,
                      reference_split_references)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scholarparse.bibliography import (_AUTHOR_LED, _LEAD, _TAIL_STARTS,
                                       CITATION_STYLES,
                                       NoReferenceSectionError, Reference,
                                       extract_citations,
                                       locate_reference_section,
                                       map_citations_to_references,
                                       split_references)
from scholarparse.structure import Section, SectionHeading


def _single(text):
    cits = extract_citations(text)
    assert len(cits) == 1, f"expected one citation in {text!r}, got {cits}"
    return cits[0]


class TestCitationStyles:
    def test_style_1_et_al_space_bracket(self):
        c = _single("as Singh et al. [4] showed")
        assert c.style_id == 1 and c.indices == (4,)

    def test_style_2_name_bracket(self):
        c = _single("as Singh [4] showed")
        assert c.style_id == 2 and c.indices == (4,)

    def test_style_3_et_al_tight_bracket(self):
        c = _single("as Singh et al.[4] showed")
        assert c.style_id == 3 and c.indices == (4,)

    def test_style_4_year_suffix(self):
        c = _single("as Singh et al., 2013b showed")
        assert c.style_id == 4 and c.year == 2013 and c.year_suffix == "b"

    def test_style_5_comma_year(self):
        c = _single("as Singh et al., 2013 showed")
        assert c.style_id == 5 and c.year == 2013

    def test_style_6_comma_paren_year(self):
        c = _single("as Singh et al., (2013) showed")
        assert c.style_id == 6 and c.year == 2013

    def test_style_7_space_year(self):
        c = _single("as Singh et al. 2013 showed")
        assert c.style_id == 7 and c.year == 2013

    def test_style_8_paren_year(self):
        c = _single("as Singh et al. (2013) showed")
        assert c.style_id == 8 and c.year == 2013

    def test_style_9_and_paren_year(self):
        c = _single("as Singh and Goyal (2013) showed")
        assert c.style_id == 9 and c.authors == ("Singh", "Goyal")

    def test_style_10_amp_paren_year(self):
        c = _single("as Singh & Goyal (2013) showed")
        assert c.style_id == 10

    def test_style_11_and_comma_year(self):
        c = _single("as Singh and Goyal, 2013 showed")
        assert c.style_id == 11

    def test_style_12_amp_comma_year(self):
        c = _single("as Singh & Goyal, 2013 showed")
        assert c.style_id == 12

    def test_style_13_name_comma_year(self):
        c = _single("as Singh, 2013 showed")
        assert c.style_id == 13 and c.year == 2013

    def test_style_14_name_year(self):
        c = _single("as Singh 2013 showed")
        assert c.style_id == 14

    def test_style_15_name_paren_year(self):
        c = _single("as Singh (2013) showed")
        assert c.style_id == 15

    def test_style_16_bracket_list(self):
        c = _single("as shown in [3, 7, 12] earlier")
        assert c.style_id == 16 and c.indices == (3, 7, 12)

    # negatives: strings that must not produce any citation
    @pytest.mark.parametrize("text", [
        "in 2013 we began",               # bare year without a name
        "Singh et al. showed",            # no year or index at all
        "Singh et al. [1234]",            # index too long
        "Singh, 20134 showed",            # five digits
        "see section [a] for details",    # non-numeric bracket
        "Singh et al., 2013bc",           # two-letter suffix
        "version 2.4 of the parser",      # no citation syntax at all
    ])
    def test_negative(self, text):
        assert extract_citations(text) == []


class TestStylePrecedence:
    def test_et_al_bracket_beats_name_bracket(self):
        # style 2 alone would match "al. [4]"; style 1 must claim it first
        c = _single("Singh et al. [4]")
        assert c.style_id == 1

    def test_lowercase_name_leaves_plain_bracket(self):
        # a lowercase word is no author name; only the bare bracket matches
        c = _single("singh et al. [4]")
        assert c.style_id == 16 and c.indices == (4,)

    def test_bracket_inside_style2_not_reclaimed_by_16(self):
        cits = extract_citations("Singh [4] and unrelated [9]")
        assert [(c.style_id, c.indices) for c in cits] == [
            (2, (4,)), (16, (9,))]

    def test_results_sorted_by_span(self):
        cits = extract_citations("[9] precedes Singh et al. [4]")
        assert [c.char_span[0] for c in cits] == sorted(
            c.char_span[0] for c in cits)

    def test_match_touching_an_earlier_styles_span_is_kept(self):
        # Style 2 claims (3, 12) first; style 16's "[2]" ends where it
        # starts, so the two spans touch and do not overlap.
        cits = extract_citations("[2]Smith [1]")
        assert [(c.style_id, c.matched_text, c.char_span) for c in cits] == [
            (16, "[2]", (0, 3)), (2, "Smith [1]", (3, 12))]

    def test_spans_never_overlap(self):
        text = "Singh et al. [4] and Goyal [5] and [6, 7] and Kumar, 2013"
        spans = [c.char_span for c in extract_citations(text)]
        spans.sort()
        for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
            assert e1 <= s2


# Citation-like text: each piece is what precedes a name (nothing, a space,
# a bracket, a digit or a word character that is not an ASCII letter), a
# name, what follows it, a number and a tail, so most draws hold a match.
CITATION_PIECE = st.tuples(
    st.sampled_from(["", " ", "(", "é", "ß", "É", "_", "7", "a"]),
    st.sampled_from(["Singh", "G", "Kumar", "al", "éS", "Sß", "S_"]),
    st.sampled_from([" ", ", ", ",", " (", ",(", " [", " et al.", " et al. ",
                     " et al., ", " et al.[", " et al. (", " and Goyal ",
                     " & Goyal, ", " and É ", "&"]),
    st.one_of(st.integers(0, 999), st.integers(1000, 2999)).map(str),
    st.sampled_from(["", "a", "]", ")", "a)", "b,", "7", ", 12]", "é", "_"]),
).map("".join)
CITATION_TEXT = st.lists(CITATION_PIECE, max_size=4).map("".join)


class TestAgainstWordBoundaryOracle:
    @pytest.mark.parametrize("text, styles", [
        ("Singh et al. [4]", [1]),  # capital at offset 0
        ("éSingh et al. [4]", [16]),  # a word character before the capital
        ("_Singh et al. [4]", [16]),
        ("(Singh 2013) and ÉGoyal, 2014", [14]),
    ])
    def test_leading_capital_needs_no_word_character_before(self, text,
                                                            styles):
        cits = extract_citations(text)
        assert [c.style_id for c in cits] == styles
        assert cits == reference_extract_citations(text)

    @given(CITATION_TEXT)
    @settings(max_examples=100)
    def test_same_citations(self, text):
        assert extract_citations(text) == reference_extract_citations(text)

    @given(CITATION_TEXT)
    @example("Singh(2013) Singh,(2013a) Singh, (2013)")  # style 15's ",? ?"
    @example("Singh et al.,2013a Singh et al.[4] Singh et al.\n[5]")
    @settings(max_examples=100)
    def test_every_match_contains_its_style_literal(self, text):
        for _style_id, literal, pattern in CITATION_STYLES:
            for m in pattern.finditer(text):
                assert literal in m.group(0)


# Citations side by side: names with inner capitals (McX, DeVries), names
# split by an apostrophe or a hyphen, or after a word character; each
# style's tail as written, with its spacing changed and cut short; and
# joins that put one citation right after another or inside one.
SCAN_NAME = st.sampled_from(["Singh", "McX", "O'Brien", "DeVries", "G",
                             "Smith-Jones", "al", "éS", "É", "Goyal"])
SCAN_TAIL = st.sampled_from([
    " et al. [4]", " et al.[4]", " et al.\n[12]", " et al. [1000]",
    " et al., 2001a", " et al.,2001", " et al.,2001b", " et al., (2001)",
    " et al., 2001", " et al. 2001", " et al. (2001)", " et al. (2001a)",
    " and Goyal (2001)", " & McX (2001)", " and O'Brien, 2001",
    " & Goyal, 2001", ", 2001", ", 2001a", ", 20011", " 2001", " 2001b",
    " (2001b)", "(2001)", ",(2001)", ", (2001)", " [3]", " [1, 2]", " [",
    " et al", " and ", ""])
SCAN_JOIN = st.sampled_from(["", " ", ", ", "; ", " and ", " & ", "(", ")",
                             "[2] ", "[1, 3]", "a", "_", ".", "\n"])
CITATION_RUN = st.lists(st.tuples(SCAN_JOIN, SCAN_NAME, SCAN_TAIL)
                        .map("".join), max_size=6).map("".join)


class TestCandidateScan:
    def test_every_author_led_style_starts_at_a_candidate(self):
        """Each author-led style is ``_LEAD`` and a tail that starts, once
        its capturing groups are opened, with one of ``_TAIL_STARTS``.  A
        style the table gains must be checked here, and added to the ids."""
        for style_id, _literal, pattern in CITATION_STYLES:
            if style_id in _AUTHOR_LED:
                assert pattern.pattern.startswith(_LEAD)
                tail = re.sub(r"(?<!\\)\(", "", pattern.pattern[len(_LEAD):])
                assert tail.startswith(_TAIL_STARTS), style_id
        assert sorted(_AUTHOR_LED) == list(range(1, 16))
        assert sorted(i for i, _, _ in CITATION_STYLES) == list(range(1, 17))

    @given(st.one_of(CITATION_RUN, CITATION_TEXT))
    @example("Singh(2001) McX et al.,2001a O'Brien [3] Smith-Jones, 2002")
    @example("Singh and Goyal (2001) Goyal (2002)Singh et al. [4][5]")
    def test_citations_match_parent_code(self, text):
        assert extract_citations(text) == parent_extract_citations(text)


# Reference-section lines that mix bracketed, numbered (in and out of order),
# indented, margin and blank lines.
REFERENCE_START = st.one_of(
    st.just(""),
    st.integers(0, 12).map(lambda n: f"[{n}] "),
    st.integers(0, 12).map(lambda n: f"{n}. "),
    st.sampled_from(["[x] ", "1.", "12 ", "[1000] ", "  "]))
REFERENCE_BODY = st.sampled_from(["", "Smith, J. 2010. A title.",
                                  "continued", "Jones 1999", "et al. [3]"])
REFERENCE_LINES = st.lists(st.tuples(
    st.tuples(REFERENCE_START, REFERENCE_BODY).map("".join),
    st.sampled_from([60.0, 61.5, 62.0, 62.5, 72.0])), max_size=8)


class TestSplitReferences:
    def test_bracketed_starts(self):
        lines = [("[1] Smith, J. 2010. A title.", 60.0),
                 ("continuation line", 60.0),
                 ("[2] Jones, K. 2011. Other.", 60.0)]
        refs = split_references(lines)
        assert [r.index for r in refs] == [1, 2]
        assert "continuation line" in refs[0].raw_text

    def test_increasing_numbered_starts(self):
        lines = [("1. Smith, J. 2010. A title.", 60.0),
                 ("2. Jones, K. 2011. Other.", 60.0),
                 ("wrap of two", 60.0)]
        refs = split_references(lines)
        assert [r.index for r in refs] == [1, 2]
        assert "wrap of two" in refs[1].raw_text

    def test_non_increasing_numbers_fall_through(self):
        # "2." then "1." violates monotonicity; hanging indent applies
        lines = [("2. Smith 2010.", 60.0), ("indented wrap", 72.0),
                 ("1. Jones 2011.", 60.0)]
        refs = split_references(lines)
        assert [r.index for r in refs] == [None, None]

    def test_hanging_indent(self):
        lines = [("Smith, J. 2010. A title.", 60.0),
                 ("with a wrapped line", 72.0),
                 ("Jones, K. 2011. Other.", 60.0)]
        refs = split_references(lines)
        assert len(refs) == 2
        assert "wrapped" in refs[0].raw_text

    def test_flat_margin_every_line_is_a_reference(self):
        lines = [("Smith, J. 2010. A.", 60.0), ("Jones, K. 2011. B.", 60.0)]
        refs = split_references(lines)
        assert len(refs) == 2

    def test_year_and_first_author_extracted(self):
        (ref,) = split_references([("Okafor, P. 2015. A study.", 60.0)])
        assert ref.year == 2015
        # Author-year linking reads the first author in the text before
        # the year.
        assert ref.raw_text.startswith("Okafor")

    def test_out_of_range_year_ignored(self):
        (ref,) = split_references([("Smith press 2500 units.", 60.0)])
        assert ref.year is None

    def test_empty_input_raises(self):
        with pytest.raises(ValueError):
            split_references([])

    @given(REFERENCE_LINES)
    @example([("intro", 72.0), ("[2] B 2011.", 60.0), ("[1]", 60.0)])
    @example([("3. A 2010.", 60.0), ("1. B 2011.", 72.0), ("wrap", 60.0)])
    @example([("  ", 60.0), ("1. A 2010.", 72.0), ("2.  B", 60.0)])
    @settings(max_examples=200)
    def test_same_references_as_one_loop_per_rule(self, lines):
        try:
            expected = reference_split_references(lines)
        except ValueError:
            with pytest.raises(ValueError):
                split_references(lines)
            return
        assert split_references(lines) == expected


def _section(heading_text, paragraphs=()):
    heading = None
    if heading_text is not None:
        heading = SectionHeading(text=heading_text, chunk_index=0)
    return Section(heading=heading, paragraphs=tuple(paragraphs))


class TestLocateReferenceSection:
    def test_found_by_name(self):
        sections = [_section(None), _section("1 Intro"),
                    _section("References")]
        assert locate_reference_section(sections) == (2, 3)

    def test_enumerated_heading_matches(self):
        sections = [_section("1 Intro"), _section("7 References")]
        assert locate_reference_section(sections) == (1, 2)

    def test_bibliography_matches(self):
        assert locate_reference_section([_section("Bibliography")]) == (0, 1)

    def test_trailing_sections_folded_until_appendix(self):
        sections = [_section("1 Intro"), _section("References"),
                    _section("Spilled", ["x"]), _section("Appendix A"),
                    _section("Appendix B")]
        assert locate_reference_section(sections) == (1, 3)

    def test_missing_raises(self):
        with pytest.raises(NoReferenceSectionError):
            locate_reference_section([_section("1 Intro")])


class TestLinking:
    REFS = [
        Reference(index=1, raw_text="Singh, M. 2013. A paper.", year=2013),
        Reference(index=2, raw_text="Goyal, P. 2013. Another paper.",
                  year=2013),
        Reference(index=3, raw_text="Okafor, G. 2015. Third.", year=2015),
    ]

    def test_index_link(self):
        (cit,) = extract_citations("see [2] here")
        (link,) = map_citations_to_references([cit], self.REFS)
        assert link.method == "index"
        assert link.reference.index == 2

    def test_multi_index_yields_one_link_each(self):
        (cit,) = extract_citations("see [1, 3] here")
        links = map_citations_to_references([cit], self.REFS)
        assert [l.reference.index for l in links] == [1, 3]

    def test_missing_index_unresolved(self):
        (cit,) = extract_citations("see [9] here")
        (link,) = map_citations_to_references([cit], self.REFS)
        assert link.method == "unresolved" and link.reference is None

    def test_author_year_link(self):
        (cit,) = extract_citations("as Okafor (2015) argued")
        (link,) = map_citations_to_references([cit], self.REFS)
        assert link.method == "author-year"
        assert link.reference.index == 3
        assert not link.ambiguous

    def test_author_year_requires_prefix_surname(self):
        # year matches reference 3 but the surname does not appear
        (cit,) = extract_citations("as Petrov (2015) argued")
        (link,) = map_citations_to_references([cit], self.REFS)
        assert link.method == "unresolved"

    def test_ambiguous_flagged_and_earliest_chosen(self):
        refs = self.REFS + [Reference(index=4,
                                      raw_text="Singh, R. 2013. Again.",
                                      year=2013)]
        (cit,) = extract_citations("as Singh (2013) argued")
        (link,) = map_citations_to_references([cit], refs)
        assert link.reference.index == 1
        assert link.ambiguous
