"""Unit tests for metadata extraction helpers."""

import math

import pytest
from conftest import one_line

from scholarparse.context import build_context
from scholarparse.metadata import (Affiliation, AuthorName, EmailAddress,
                                   _run_to_name, _split_runs,
                                   expand_email_group, extract_affiliations,
                                   extract_emails, load_lexicon,
                                   map_authors_to_emails, title_fallback)
from scholarparse.model import Chunk, Document, Line, Page, Token, make_chunk


def tok(text, x, baseline=100.0, size=11.0, bold=True, sup=False, page_no=1):
    return Token(text=text, page_no=page_no, x=x, y=baseline - size,
                 width=5.0 * len(text), height=size, font_size=size,
                 bold=bold, sup_flag=sup)


class TestEmailPatterns:
    def test_plain_address(self):
        out = expand_email_group("contact alice@cse.iitk.ac.in for data")
        assert [e.address for e in out] == ["alice@cse.iitk.ac.in"]

    def test_brace_group(self):
        out = expand_email_group("{alice, bob}@cse.example.org")
        assert [e.address for e in out] == [
            "alice@cse.example.org", "bob@cse.example.org"]

    def test_bracket_group(self):
        out = expand_email_group("[alice, bob]@example.org")
        assert [e.address for e in out] == [
            "alice@example.org", "bob@example.org"]

    def test_subdomain_group(self):
        out = expand_email_group("[alice@cse, bob@ee].example.org")
        assert [e.address for e in out] == [
            "alice@cse.example.org", "bob@ee.example.org"]

    def test_subdomain_entry_with_two_ats_splits_at_the_first(self):
        out = expand_email_group("[alice@b@cse, bob@ee].example.org")
        assert out == [EmailAddress("alice", "b@cse.example.org"),
                       EmailAddress("bob", "ee.example.org")]

    def test_group_spans_consumed_before_plain_scan(self):
        out = expand_email_group("{a, b}@x.org and carol@y.org")
        assert [e.address for e in out] == ["a@x.org", "b@x.org", "carol@y.org"]

    def test_no_match_returns_empty(self):
        assert expand_email_group("no address here") == []

    def test_extract_emails_deduplicates(self):
        lines = (Line(tokens=(tok("a@x.org", 0, bold=False),), baseline_y=100.0),
                 Line(tokens=(tok("a@x.org", 0, bold=False),), baseline_y=113.0))
        doc = Document(source_id="d", pages=(
            Page(number=1, width=612, height=792, lines=lines),))
        assert [e.address for e in extract_emails(build_context(doc))] == [
            "a@x.org"]


class TestRunSplitting:
    def test_wide_gap_splits_authors(self):
        # two authors separated by a 30pt gap; word gaps are 5pt
        toks = [tok("Alice", 0.0), tok("Smith", 30.0),
                tok("Bob", 90.0), tok("Jones", 110.0)]
        runs = _split_runs(toks)
        assert [[t.text for t in r] for r in runs] == [
            ["Alice", "Smith"], ["Bob", "Jones"]]

    def test_separator_word_splits(self):
        toks = [tok("Alice", 0.0), tok("Smith", 30.0), tok("and", 62.0),
                tok("Bob", 85.0), tok("Jones", 105.0)]
        runs = _split_runs(toks)
        assert [[t.text for t in r] for r in runs] == [
            ["Alice", "Smith"], ["Bob", "Jones"]]

    def test_row_change_splits(self):
        toks = [tok("Alice", 0.0), tok("Smith", 30.0),
                tok("Bob", 0.0, baseline=120.0), tok("Jones", 20.0, baseline=120.0)]
        runs = _split_runs(toks)
        assert len(runs) == 2

    def test_trailing_comma_splits(self):
        toks = [tok("Alice", 0.0), tok("Smith,", 30.0),
                tok("Bob", 66.0), tok("Jones", 86.0)]
        runs = _split_runs(toks)
        assert [[t.text for t in r] for r in runs] == [
            ["Alice", "Smith,"], ["Bob", "Jones"]]

    def test_comma_token_splits_and_keeps_the_name_before_it(self):
        toks = [tok("Carlos", 0.0), tok("Kowalski", 35.0), tok(",", 80.0),
                tok("Elena", 90.0), tok("Novak", 120.0)]
        runs = _split_runs(toks)
        assert [[t.text for t in r] for r in runs] == [
            ["Carlos", "Kowalski"], ["Elena", "Novak"]]
        assert [(n.first, n.last) for n in map(_run_to_name, runs)] == [
            ("Carlos", "Kowalski"), ("Elena", "Novak")]

    @pytest.mark.parametrize("x, texts", [
        (15.0, [["A", "B", "C", "D", "E"]]),
        (math.nextafter(15.0, math.inf), [["A"], ["B", "C", "D", "E"]])])
    def test_gap_of_exactly_twice_the_word_gap_does_not_split(self, x, texts):
        # Gaps 10 (or one float above), 5, 5 and 5: the word gap is 5.
        toks = [tok("A", 0.0), tok("B", x), tok("C", 25.0), tok("D", 35.0),
                tok("E", 45.0)]
        assert (x - 5.0 > 2 * 5.0) == (len(texts) == 2)
        runs = _split_runs(toks)
        assert [[t.text for t in r] for r in runs] == texts

    def test_word_gap_is_the_lower_quartile_of_four_gaps(self):
        # Gaps 2, 5, 5 and 11: the word gap is the second smallest, 5, so
        # only the gap of 11 splits; the smallest, 2, would split at 5 too.
        toks = [tok("A", 0.0), tok("B", 7.0), tok("C", 17.0), tok("D", 27.0),
                tok("E", 43.0)]
        runs = _split_runs(toks)
        assert [[t.text for t in r] for r in runs] == [
            ["A", "B", "C", "D"], ["E"]]


class TestRunToName:
    def test_first_middle_last(self):
        name = _run_to_name([tok("Alice", 0), tok("May", 30), tok("Smith", 50)])
        assert (name.first, name.middle, name.last) == ("Alice", "May", "Smith")

    def test_single_token_doubles_as_last(self):
        name = _run_to_name([tok("Cher", 0)])
        assert (name.first, name.last) == ("Cher", "Cher")

    def test_stopword_rejected(self):
        assert _run_to_name([tok("University", 0)]) is None

    def test_lowercase_rejected(self):
        assert _run_to_name([tok("alice", 0)]) is None

    def test_overlong_run_rejected(self):
        assert _run_to_name([tok(f"W{i}", 10.0 * i) for i in range(6)]) is None


def email(user, domain="cse.example.org"):
    return EmailAddress(user=user, domain=domain)


def name(first, last, middle=""):
    return AuthorName(first=first, middle=middle, last=last)


class TestAuthorEmailMapping:
    def test_substring_rule(self):
        records = map_authors_to_emails(
            [name("Mayank", "Singh"), name("Pawan", "Goyal")],
            [email("pawang"), email("mayanks")])
        assert records[0].email.user == "mayanks"
        assert records[1].email.user == "pawang"

    def test_short_substring_ignored(self):
        # usernames of length < 4 must not trigger the substring rule
        records = map_authors_to_emails(
            [name("Bo", "Li"), name("Al", "Yu")], [email("yu"), email("li")])
        # falls through to positional pairing instead
        assert records[0].email.user == "yu"
        assert records[1].email.user == "li"

    def test_abbreviation_rule(self):
        records = map_authors_to_emails(
            [name("Animesh", "Mukherjee", middle="Kumar")],
            [email("akmukherjee")])
        assert records[0].email.user == "akmukherjee"

    def test_first_initial_last_abbreviation(self):
        records = map_authors_to_emails([name("Grace", "Okafor")],
                                        [email("gokafor")])
        assert records[0].email.user == "gokafor"

    def test_abbreviation_rule_pairs_short_names(self):
        # Too short for the substring rule, and not in positional order.
        records = map_authors_to_emails(
            [name("Bo", "Li"), name("Al", "Yu")], [email("ayu"), email("bli")])
        assert [r.email.user for r in records] == ["bli", "ayu"]

    def test_positional_fallback(self):
        records = map_authors_to_emails(
            [name("Xq", "Zw"), name("Jk", "Vt")],
            [email("q1"), email("q2")])
        assert records[0].email.user == "q1"
        assert records[1].email.user == "q2"

    def test_more_authors_than_emails(self):
        records = map_authors_to_emails(
            [name("Xq", "Zw"), name("Jk", "Vt")], [email("q1")])
        assert records[0].email.user == "q1"
        assert records[1].email is None


def context_of(*lines):
    """Context of a one-page document, one Line per token list."""
    page = Page(number=1, width=612, height=792, lines=tuple(
        Line(tokens=tuple(toks), baseline_y=toks[0].baseline_y)
        for toks in lines))
    return build_context(Document(source_id="d", pages=(page,)))


class TestAffiliations:
    def _context(self):
        inst = [tok("Indian", 0, bold=False, size=10.0),
                tok("Institute", 40, bold=False, size=10.0),
                tok("of", 95, bold=False, size=10.0),
                tok("Technology,", 110, bold=False, size=10.0),
                tok("India", 175, bold=False, size=10.0)]
        # bold, so the chunker starts a second chunk here
        other = [tok("random", 0, baseline=113.0, size=10.0),
                 tok("text", 40, baseline=113.0, size=10.0)]
        ctx = context_of(inst, other)
        assert len(ctx.chunks) == 2
        return ctx

    def test_cue_and_country_match(self):
        # The cue line is kept whole; the chunk with no cue is skipped.
        out = extract_affiliations(self._context())
        assert out == [Affiliation(text="Indian Institute of Technology, India")]

    @pytest.mark.parametrize("words", [["Mountain", "Institute"],
                                       ["Kharagpur,", "India."]])
    def test_either_lexicon_alone_is_a_cue(self, words):
        line = [tok(w, 60.0 * i, bold=False, size=10.0)
                for i, w in enumerate(words)]
        out = extract_affiliations(context_of(line))
        assert out == [Affiliation(text=" ".join(words))]

    def test_superscript_marker_captured(self):
        marked = [tok("1", 0, bold=False, size=6.0, sup=True),
                  tok("Mountain", 10, bold=False, size=10.0),
                  tok("State", 60, bold=False, size=10.0),
                  tok("College,", 95, bold=False, size=10.0),
                  tok("USA", 140, bold=False, size=10.0)]
        out = extract_affiliations(context_of(marked))
        assert out[0].marker == "1"
        assert out[0].text.startswith("Mountain")

    def test_lexicons_load(self):
        assert "university" in [c.lower() for c in load_lexicon("affiliation_cues.txt")]
        assert "India" in load_lexicon("countries.txt")


class TestTitleFallback:
    def test_largest_font_chunk_on_page_one(self):
        small = make_chunk([one_line([tok("body", 0, bold=False, size=10.0)])])
        big = make_chunk([one_line([tok("Big", 0, size=17.0),
                                    tok("Title", 30, size=17.0)])])
        assert [t.text for t in title_fallback([small, big])] == ["Big", "Title"]

    def test_empty_input(self):
        assert title_fallback([]) == []
