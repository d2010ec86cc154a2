"""Unit tests for rich XML ingestion."""

import io
import re
import statistics
import string
from functools import cache
from xml.etree import ElementTree as ET

import pytest
from conftest import (ODD_VALUES, TOKEN_ATTRS, mutate_xml,
                      reference_parse_rich_xml, xml_mutations)
from hypothesis import given, settings
from hypothesis import strategies as st

from scholarparse import ingest
from scholarparse.ingest import (SUP_FONT_RATIO, SUP_RISE_PT,
                                 RichXmlParseError, document_to_xml,
                                 parse_rich_xml)
from scholarparse.model import Document, Line, Page, Token
from scholarparse.synth import generate_synthetic_document

SIMPLE = b"""<?xml version="1.0"?>
<DOCUMENT>
  <PAGE number="1" width="612" height="792">
    <TEXT>
      <TOKEN x="60" y="60" width="30" height="10" font-size="10" bold="yes">Hello</TOKEN>
      <TOKEN x="100" y="60" width="30" height="10" font-size="10" italic="yes">world</TOKEN>
    </TEXT>
  </PAGE>
</DOCUMENT>
"""


class TestParse:
    def test_tokens_and_styles(self):
        doc, report = parse_rich_xml(SIMPLE, source_id="s")
        assert report.page_count == 1
        assert report.token_count == 2
        assert doc.source_id == "s"
        line = doc.pages[0].lines[0]
        assert line.text == "Hello world"
        assert line.tokens[0].bold and not line.tokens[0].italic
        assert line.tokens[1].italic and not line.tokens[1].bold

    def test_token_missing_coords_skipped_with_warning(self):
        data = SIMPLE.replace(b'x="100" ', b"")
        doc, report = parse_rich_xml(data)
        assert report.token_count == 1
        assert report.skipped_elements == 1
        assert report.warnings

    @pytest.mark.parametrize("attr, value", [
        ("font-size", "0"), ("font-size", "-2"), ("width", "-30"),
        ("height", "-1"), ("x", "nan"), ("y", "inf"), ("width", "nan"),
        ("height", "-inf"), ("font-size", "inf"),
    ])
    def test_invalid_token_geometry_skipped_with_warning(self, attr, value):
        world = SIMPLE.split(b"<TOKEN")[2]
        bad = re.sub(rb' %s="[^"]*"' % attr.encode(),
                     b' %s="%s"' % (attr.encode(), value.encode()), world)
        doc, report = parse_rich_xml(SIMPLE.replace(world, bad))
        assert doc.pages[0].lines[0].text == "Hello"
        assert report.token_count == 1
        assert report.skipped_elements == 1
        assert len(report.warnings) == 1 and "world" in report.warnings[0]

    @pytest.mark.parametrize("blank", [b"", b"   ", b"\n\t "],
                             ids=("empty", "spaces", "white space"))
    def test_blank_token_skipped_as_having_no_text(self, blank):
        data = SIMPLE.replace(b">world<", b">%s<" % blank)
        doc, report = parse_rich_xml(data)
        assert doc.pages[0].lines[0].text == "Hello"
        assert report.token_count == 1
        assert report.skipped_elements == 1
        assert report.warnings == ["page 1: skipped TOKEN '' with no text"]

    def test_unknown_elements_counted_not_fatal(self):
        data = SIMPLE.replace(b"</TEXT>", b"</TEXT><NOISE/>")
        _, report = parse_rich_xml(data)
        assert report.skipped_elements == 1

    def test_malformed_xml_reports_offset(self):
        with pytest.raises(RichXmlParseError) as err:
            parse_rich_xml(b"<DOCUMENT><PAGE></DOCUMENT>")
        assert err.value.byte_offset > 0

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"],
                             ids=["lf", "crlf", "cr"])
    @pytest.mark.parametrize("body, bad", [
        ("ééééé\x01", b"\x01"), ("naïve † x¹ <1/>", b"1"),
        ("a\U0001F600b\x01", b"\x01")], ids=["latin", "mixed", "astral"])
    def test_offset_counts_bytes_on_a_multibyte_line(self, body, bad,
                                                     newline):
        # Expat's column counts characters; the offset counts bytes.
        data = (f"<DOCUMENT>{newline}<PAGE>é{newline}<TEXT>{body}</TEXT>"
                f"</PAGE></DOCUMENT>").encode("utf-8")
        with pytest.raises(RichXmlParseError) as err:
            parse_rich_xml(data)
        offset = err.value.byte_offset
        assert data[offset:offset + 1] == bad
        assert f"byte offset {offset})" in str(err.value)
        assert parse_outcome(reference_parse_rich_xml, data) == \
            parse_outcome(parse_rich_xml, data)

    @pytest.mark.parametrize("data", [b"<DOCUMENT>\n",
                                      b"<DOCUMENT>\r<PAGE>\n",
                                      b"<DOCUMENT>\r\n<PAGE>\r\n"])
    def test_offset_of_an_error_after_the_last_line_break(self, data):
        with pytest.raises(RichXmlParseError) as err:
            parse_rich_xml(data)
        assert err.value.byte_offset == len(data)

    def test_lines_sorted_by_baseline(self):
        data = b"""<DOCUMENT><PAGE number="1" width="612" height="792">
        <TEXT><TOKEN x="0" y="200" width="5" height="10" font-size="10">low</TOKEN></TEXT>
        <TEXT><TOKEN x="0" y="50" width="5" height="10" font-size="10">high</TOKEN></TEXT>
        </PAGE></DOCUMENT>"""
        doc, _ = parse_rich_xml(data)
        assert [l.text for l in doc.pages[0].lines] == ["high", "low"]

    def test_tokens_sorted_by_x_within_line(self):
        data = b"""<DOCUMENT><PAGE number="1" width="612" height="792">
        <TEXT>
          <TOKEN x="100" y="50" width="5" height="10" font-size="10">second</TOKEN>
          <TOKEN x="10" y="50" width="5" height="10" font-size="10">first</TOKEN>
        </TEXT></PAGE></DOCUMENT>"""
        doc, _ = parse_rich_xml(data)
        assert doc.pages[0].lines[0].text == "first second"


def pages_numbered(*numbers: bytes) -> bytes:
    pages = b"".join(
        b'<PAGE number="' + n + b'" width="612" height="792"><TEXT>'
        b'<TOKEN x="0" y="50" width="5" height="10" font-size="10">w</TOKEN>'
        b"</TEXT></PAGE>" for n in numbers)
    return b"<DOCUMENT>" + pages + b"</DOCUMENT>"


class TestPageNumbers:
    @pytest.mark.parametrize("bad", [b"x", b"0", b"-3", b""])
    def test_invalid_number_renumbered_with_warning(self, bad):
        doc, report = parse_rich_xml(pages_numbered(b"1", bad, b"3"))
        assert [p.number for p in doc.pages] == [1, 2, 3]
        assert [t.page_no for p in doc.pages for t in p.tokens()] == [1, 2, 3]
        assert len(report.warnings) == 1

    def test_repeated_numbers_made_unique(self):
        doc, report = parse_rich_xml(pages_numbered(b"2", b"2", b"2"))
        assert [p.number for p in doc.pages] == [2, 3, 4]
        assert len(report.warnings) == 2

    def test_valid_numbers_kept_silently(self):
        doc, report = parse_rich_xml(pages_numbered(b"3", b"1", b"2"))
        assert [p.number for p in doc.pages] == [3, 1, 2]
        assert report.warnings == []


class TestPageSize:
    @pytest.mark.parametrize("attr, default", [("width", 612.0),
                                               ("height", 792.0)])
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "0", "-612", "x"])
    def test_invalid_size_falls_back_with_warning(self, attr, default, bad):
        data = SIMPLE.replace(b'%s="' % attr.encode(),
                              b'%s="%s" old-%s="' % (attr.encode(),
                                                     bad.encode(),
                                                     attr.encode()), 1)
        doc, report = parse_rich_xml(data)
        assert getattr(doc.pages[0], attr) == default
        assert doc.pages[0].lines[0].text == "Hello world"
        assert len(report.warnings) == 1
        assert attr in report.warnings[0] and bad in report.warnings[0]

    def test_missing_size_defaults_silently(self):
        data = SIMPLE.replace(b' width="612" height="792"', b"")
        doc, report = parse_rich_xml(data)
        assert (doc.pages[0].width, doc.pages[0].height) == (612.0, 792.0)
        assert report.warnings == []

    def test_valid_size_kept_silently(self):
        data = SIMPLE.replace(b'width="612" height="792"',
                              b'width="595.5" height="842"')
        doc, report = parse_rich_xml(data)
        assert (doc.pages[0].width, doc.pages[0].height) == (595.5, 842.0)
        assert report.warnings == []


class TestSuperscript:
    @staticmethod
    def _probe_flag(y, height, font_size, body_font=10.0):
        """``sup_flag`` of a probe token once parsed in one line after three
        body tokens of ``body_font`` on baseline 100, which fix the page
        median font and the line's baseline."""
        body = tuple(Token(text="word", page_no=1, x=30.0 * i, y=90,
                           width=20, height=10, font_size=body_font)
                     for i in range(3))
        probe = Token(text="1", page_no=1, x=100, y=y, width=3,
                      height=height, font_size=font_size)
        line = Line(tokens=body + (probe,), baseline_y=100.0)
        data = document_to_xml(Document(source_id="", pages=(Page(
            number=1, width=612.0, height=792.0, lines=(line,)),)))
        doc, _ = parse_rich_xml(data)
        (parsed,) = doc.pages[0].lines
        assert parsed.baseline_y == 100.0
        assert [t.sup_flag for t in parsed.tokens[:3]] == [False] * 3
        return parsed.tokens[3].sup_flag

    def test_small_raised_token_flagged(self):
        # A 6pt marker raised 3pt above the line's baseline.
        assert self._probe_flag(y=91, height=6, font_size=6.0)

    def test_large_token_never_flagged(self):
        assert not self._probe_flag(y=87, height=10, font_size=10.0)

    def test_small_but_not_raised_not_flagged(self):
        assert not self._probe_flag(y=94, height=6, font_size=6.0)

    def test_thresholds_are_inclusive(self):
        # Exactly SUP_FONT_RATIO of the page median and exactly SUP_RISE_PT
        # above the line's baseline is still a superscript.
        assert self._probe_flag(y=90.5, height=8, font_size=8.0)
        assert not self._probe_flag(y=90.5, height=8, font_size=8.0,
                                    body_font=9.99)
        body = Token(text="word", page_no=1, x=0, y=90, width=20, height=10,
                     font_size=10.0)
        edge = Token(text="1", page_no=1, x=25, y=90.5, width=3, height=8,
                     font_size=8.0)
        line = Line(tokens=(body, body._replace(x=30), edge),
                    baseline_y=100.0)
        data = document_to_xml(Document(source_id="", pages=(Page(
            number=1, width=612.0, height=792.0, lines=(line,)),)))
        doc, _ = parse_rich_xml(data)
        assert [t.sup_flag for t in doc.pages[0].lines[0].tokens] == [
            False, True, False]

    def test_flags_set_during_parse(self):
        data = b"""<DOCUMENT><PAGE number="1" width="612" height="792">
        <TEXT>
          <TOKEN x="0" y="90" width="20" height="10" font-size="10">word</TOKEN>
          <TOKEN x="25" y="91" width="3" height="6" font-size="6">1</TOKEN>
          <TOKEN x="30" y="90" width="20" height="10" font-size="10">more</TOKEN>
        </TEXT></PAGE></DOCUMENT>"""
        doc, _ = parse_rich_xml(data)
        flags = [t.sup_flag for t in doc.pages[0].lines[0].tokens]
        assert flags == [False, True, False]


class TestDehyphenation:
    DATA = b"""<DOCUMENT><PAGE number="1" width="612" height="792">
    <TEXT>
      <TOKEN x="0" y="50" width="20" height="10" font-size="10">exam-</TOKEN>
    </TEXT>
    <TEXT>
      <TOKEN x="0" y="65" width="20" height="10" font-size="10">ple</TOKEN>
      <TOKEN x="25" y="65" width="20" height="10" font-size="10">rest</TOKEN>
    </TEXT></PAGE></DOCUMENT>"""

    def test_disabled_by_default(self):
        doc, _ = parse_rich_xml(self.DATA)
        assert doc.pages[0].lines[0].text == "exam-"

    def test_joins_across_lines(self):
        doc, _ = parse_rich_xml(self.DATA, dehyphenate=True)
        assert doc.pages[0].lines[0].text == "example"
        assert doc.pages[0].lines[1].text == "rest"

    def test_joined_token_keeps_its_other_fields(self):
        # A raised 6pt "exam-" among 10pt body text is a superscript; the
        # joined token keeps its flag, geometry and style, not the next
        # line's.
        data = b"""<DOCUMENT><PAGE number="1" width="612" height="792">
        <TEXT>
          <TOKEN x="0" y="50" width="20" height="10" font-size="10">body</TOKEN>
          <TOKEN x="22" y="50" width="20" height="10" font-size="10">text</TOKEN>
          <TOKEN x="45" y="51" width="9" height="6" font-size="6" italic="yes"
                 font-name="Sup">exam-</TOKEN>
        </TEXT>
        <TEXT>
          <TOKEN x="0" y="65" width="20" height="10" font-size="10" bold="yes">ple</TOKEN>
          <TOKEN x="25" y="65" width="20" height="10" font-size="10">rest</TOKEN>
        </TEXT></PAGE></DOCUMENT>"""
        plain, _ = parse_rich_xml(data)
        joined, _ = parse_rich_xml(data, dehyphenate=True)
        before = plain.pages[0].lines[0].tokens[-1]
        after = joined.pages[0].lines[0].tokens[-1]
        assert before.sup_flag
        assert type(after) is Token
        assert after == before._replace(text="example")
        assert joined.pages[0].lines[1].text == "rest"

    def test_joins_within_its_column_on_a_two_column_page(self):
        # The right column's first line shares the hyphenated line's
        # baseline, so it comes next in baseline order.
        data = b"""<DOCUMENT><PAGE number="1" width="612" height="792">
        <TEXT>
          <TOKEN x="50" y="50" width="20" height="10" font-size="10">We</TOKEN>
          <TOKEN x="75" y="50" width="40" height="10" font-size="10">exam-</TOKEN>
        </TEXT>
        <TEXT>
          <TOKEN x="320" y="50" width="30" height="10" font-size="10">Right</TOKEN>
          <TOKEN x="355" y="50" width="40" height="10" font-size="10">column</TOKEN>
        </TEXT>
        <TEXT>
          <TOKEN x="50" y="65" width="20" height="10" font-size="10">ple</TOKEN>
          <TOKEN x="75" y="65" width="20" height="10" font-size="10">text</TOKEN>
        </TEXT>
        <TEXT>
          <TOKEN x="320" y="65" width="30" height="10" font-size="10">more</TOKEN>
          <TOKEN x="355" y="65" width="40" height="10" font-size="10">words</TOKEN>
        </TEXT></PAGE></DOCUMENT>"""
        plain, _ = parse_rich_xml(data)
        assert [l.text for l in plain.pages[0].lines] == [
            "We exam-", "Right column", "ple text", "more words"]
        doc, _ = parse_rich_xml(data, dehyphenate=True)
        assert [l.text for l in doc.pages[0].lines] == [
            "We example", "Right column", "text", "more words"]

    def test_hyphen_with_no_line_below_in_its_column_is_kept(self):
        data = b"""<DOCUMENT><PAGE number="1" width="612" height="792">
        <TEXT>
          <TOKEN x="50" y="65" width="40" height="10" font-size="10">exam-</TOKEN>
        </TEXT>
        <TEXT>
          <TOKEN x="320" y="80" width="30" height="10" font-size="10">Right</TOKEN>
        </TEXT></PAGE></DOCUMENT>"""
        doc, _ = parse_rich_xml(data, dehyphenate=True)
        assert [l.text for l in doc.pages[0].lines] == ["exam-", "Right"]


class TestRoundTrip:
    def test_serialize_then_parse_preserves_content(self):
        doc, _ = parse_rich_xml(SIMPLE, source_id="s")
        again, report = parse_rich_xml(document_to_xml(doc), source_id="s")
        assert report.warnings == []
        a = [(t.text, t.x, t.y, t.font_size, t.bold, t.italic)
             for p in doc.pages for t in p.tokens()]
        b = [(t.text, t.x, t.y, t.font_size, t.bold, t.italic)
             for p in again.pages for t in p.tokens()]
        assert a == b


# --- the one-pass parse against the two-pass oracle ---------------------------

MUTATIONS = st.one_of(xml_mutations([None, "", "  ", "x-"]),
                      st.tuples(st.just("cut"), st.integers(0, 10_000)))


@cache
def base_xml() -> bytes:
    """Two synthetic articles, cut down to the first and last lines of each
    page so a parse stays cheap; page 1 keeps its author markers, the last
    lines of the body pages their footnote markers."""
    pages = []
    for style, seed in (("two-col-indexed", 3), ("single-col-numbered", 5)):
        root = ET.fromstring(generate_synthetic_document(style, seed)[0])
        for page in root:
            lines = list(page)
            for line in lines[6:-4]:
                page.remove(line)
            pages.append(page)
            page.set("number", str(len(pages)))
    root = ET.Element("DOCUMENT")
    root.extend(pages)
    return ET.tostring(root)


SMALL = b"""<DOCUMENT><PAGE number="1" width="612" height="792">
<TEXT>
  <TOKEN x="0" y="90" width="20" height="10" font-size="10" bold="yes" italic="no" font-name="R">word</TOKEN>
  <TOKEN x="25" y="91" width="3" height="6" font-size="6" bold="no" italic="yes" font-name="S">1</TOKEN>
  <TOKEN x="30" y="90" width="20" height="10" font-size="10" bold="no" italic="no" font-name="R">more</TOKEN>
</TEXT></PAGE></DOCUMENT>"""


class TestAgainstTwoPassOracle:
    @pytest.mark.parametrize("value", ODD_VALUES)
    @pytest.mark.parametrize("attr", TOKEN_ATTRS)
    @pytest.mark.parametrize("which", [0, 1])
    def test_each_odd_attribute_value(self, which, attr, value):
        root = ET.fromstring(SMALL)
        elem = root[0][0][which]
        if value is None:
            del elem.attrib[attr]
        else:
            elem.set(attr, value)
        data = ET.tostring(root)
        doc, report = parse_rich_xml(data)
        expected = reference_parse_rich_xml(data)
        assert repr(doc) == repr(expected[0])
        assert report == expected[1]

    def test_base_is_clean_and_has_superscripts(self):
        doc, report = parse_rich_xml(base_xml())
        tokens = [t for p in doc.pages for t in p.tokens()]
        assert report.warnings == [] and len(tokens) > 300
        assert any(t.sup_flag for t in tokens)

    @given(st.lists(MUTATIONS, max_size=8), st.booleans())
    @settings(max_examples=40)
    def test_same_document_and_report(self, mutations, dehyphenate):
        data = mutate_xml(base_xml(), mutations)
        try:
            expected = reference_parse_rich_xml(data, dehyphenate=dehyphenate,
                                                source_id="m")
        except RichXmlParseError as exc:
            with pytest.raises(RichXmlParseError) as err:
                parse_rich_xml(data, dehyphenate=dehyphenate, source_id="m")
            assert str(err.value) == str(exc)
            return
        # Anything but RichXmlParseError escaping here fails the property.
        doc, report = parse_rich_xml(data, dehyphenate=dehyphenate,
                                     source_id="m")
        assert doc == expected[0]
        assert repr(doc) == repr(expected[0])  # also tells -0.0 from 0.0
        assert report == expected[1]


# --- the streamed parse, slice by slice ---------------------------------------

def parse_outcome(parse, data: bytes) -> str:
    """The repr of a parse's Document and report, or of its error's
    message and byte offset."""
    try:
        return repr(parse(data, source_id="s"))
    except RichXmlParseError as exc:
        return repr((str(exc), exc.byte_offset))


@cache
def multibyte_article() -> bytes:
    """A generated article whose every seventh token reads ``†``, ``x¹``
    or ``naïve``, so that slices split multi-byte characters."""
    root = ET.fromstring(generate_synthetic_document("two-col-indexed", 7)[0])
    tokens = root.findall("./PAGE/TEXT/TOKEN")
    for i, tok in enumerate(tokens[::7]):
        tok.text = ("†", "x¹", "naïve")[i % 3]
    return ET.tostring(root, encoding="utf-8", xml_declaration=True)


def multibyte_cuts(data: bytes) -> list[int]:
    """Where to truncate ``data``: inside and after a ``†`` and a ``¹``, in
    the middle of a tag, and at a few fixed fractions."""
    cuts = [len(data) // k for k in (2, 3, 5, 11)] + [len(data) - 20]
    for char in ("†", "¹"):
        at = data.index(char.encode("utf-8"))
        cuts += [at + 1, at + len(char.encode("utf-8"))]
    cuts.append(data.index(b"<TOKEN", len(data) // 2) + 3)
    return sorted(cuts)


class Trickle(io.BytesIO):
    """An in-memory input whose every read returns at most ``size`` bytes."""

    size = 1

    def read(self, n=-1):
        return super().read(self.size if n < 0 else min(n, self.size))


@pytest.fixture(params=[1, 7, 4096], ids=lambda n: f"slice{n}")
def feed_bytes(request, monkeypatch):
    monkeypatch.setattr(Trickle, "size", request.param)
    monkeypatch.setattr(ingest, "BytesIO", Trickle)
    return request.param


class TestStreamedParse:
    """``parse_rich_xml`` parses its input slice by slice; whatever the
    slice size, it gives what parsing the whole input at once gives."""

    def test_article_is_larger_than_the_slices(self):
        data = multibyte_article()
        assert len(data) > 4 * 4096
        assert "†".encode() in data and "¹".encode() in data

    def test_multibyte_article(self, feed_bytes):
        data = multibyte_article()
        outcome = parse_outcome(parse_rich_xml, data)
        assert outcome == parse_outcome(reference_parse_rich_xml, data)
        assert "†" in outcome and "naïve" in outcome

    def test_truncated_copies(self, feed_bytes):
        data = multibyte_article()
        for cut in multibyte_cuts(data):
            expected = parse_outcome(reference_parse_rich_xml, data[:cut])
            assert "byte offset" in expected
            assert parse_outcome(parse_rich_xml, data[:cut]) == expected, cut

    def test_page_inside_an_unknown_element_is_skipped_with_it(self,
                                                                feed_bytes):
        page = SIMPLE.split(b"<DOCUMENT>")[1].split(b"</DOCUMENT>")[0]
        data = (b"<DOCUMENT><WRAP>" + page + b"</WRAP>"
                + page.replace(b'number="1"', b'number="2"')
                + b"</DOCUMENT>")
        doc, report = parse_rich_xml(data)
        assert [p.number for p in doc.pages] == [2]
        assert report.skipped_elements == 1
        assert (parse_outcome(parse_rich_xml, data)
                == parse_outcome(reference_parse_rich_xml, data))

    def test_unknown_element_after_the_last_page_is_counted(self,
                                                            feed_bytes):
        data = SIMPLE.replace(b"</PAGE>", b"</PAGE><NOISE><PAGE/></NOISE>")
        doc, report = parse_rich_xml(data)
        assert len(doc.pages) == 1 and report.skipped_elements == 1
        assert (parse_outcome(parse_rich_xml, data)
                == parse_outcome(reference_parse_rich_xml, data))

    @pytest.mark.parametrize("data", [
        b"", b"  ", b"<DOCUMENT/>", b"<DOCUMENT></DOCUMENT>",
        b'<?xml version="1.0"?>\n<DOCUMENT>\n</DOCUMENT>\n',
        b"<DOCUMENT/><DOCUMENT/>", b"<DOCUMENT>"])
    def test_empty_input_and_a_root_without_pages(self, feed_bytes, data):
        assert (parse_outcome(parse_rich_xml, data)
                == parse_outcome(reference_parse_rich_xml, data))

    @pytest.mark.parametrize("body", [b"/>", b">" + SIMPLE.split(
        b"<DOCUMENT>")[1]], ids=["empty", "one-page"])
    def test_root_after_a_long_prolog(self, body):
        # The root's start tag comes after more than one slice of comment,
        # so a parser may report it only once the input is closed.
        data = b"<!--" + b"x" * (20 * 1024) + b"-->\n<DOCUMENT" + body
        assert (parse_outcome(parse_rich_xml, data)
                == parse_outcome(reference_parse_rich_xml, data))


class CountingPullParser(ET.XMLPullParser):
    """An ``XMLPullParser`` that counts the events ``read_events`` yields."""

    events = 0

    def read_events(self):
        for event in super().read_events():
            type(self).events += 1
            yield event


def test_parser_events_come_from_the_first_slice_only(monkeypatch):
    # Only the root's start event is used, and the parser's events are
    # switched off after it: a parse reads events at most for the elements
    # that start in its first 16 KiB slice, not one per element.  A parser
    # that ignores the switch fails here rather than just running slower.
    data = generate_synthetic_document("two-col-indexed", 0)[0]
    monkeypatch.setattr(CountingPullParser, "events", 0)
    monkeypatch.setattr(ingest.ET, "XMLPullParser", CountingPullParser)
    doc, _report = parse_rich_xml(data)
    first_slice = len(re.findall(rb"<[A-Za-z]", data[:16 * 1024]))
    assert len(doc.pages) > 1
    assert len(re.findall(rb"<[A-Za-z]", data)) > 5 * first_slice
    assert 1 <= CountingPullParser.events <= first_slice


def assert_tokens_pass_their_checks(doc):
    for page in doc.pages:
        for t in page.tokens():
            assert type(t) is Token
            assert Token(*t) == t


class TestTokensPassTheirChecks:
    """Ingest builds its tokens without running ``Token``'s checks; every
    token it builds must still pass them."""

    @pytest.mark.parametrize("value", ODD_VALUES)
    @pytest.mark.parametrize("attr", TOKEN_ATTRS)
    def test_each_odd_attribute_value(self, attr, value):
        root = ET.fromstring(SMALL)
        for elem in root[0][0]:
            if value is None:
                del elem.attrib[attr]
            else:
                elem.set(attr, value)
            assert_tokens_pass_their_checks(
                parse_rich_xml(ET.tostring(root))[0])

    @given(st.lists(MUTATIONS, max_size=8), st.booleans())
    @settings(max_examples=40)
    def test_mutated_xml(self, mutations, dehyphenate):
        data = mutate_xml(base_xml(), mutations)
        try:
            doc, _report = parse_rich_xml(data, dehyphenate=dehyphenate)
        except RichXmlParseError:
            return
        assert_tokens_pass_their_checks(doc)


# --- round trip through document_to_xml --------------------------------------

def grid(low: int, high: int):
    """Values on the 3-decimal grid that document_to_xml writes."""
    return st.integers(low, high).map(lambda k: k / 1000)


TEXT = st.text(string.ascii_letters + string.digits + "&<>'\"-.,*¹²",
               min_size=1, max_size=6)
FONT_NAME = st.text(string.ascii_letters + " &<>'\"", max_size=5)
STYLED = st.tuples(TEXT, grid(0, 60_000), st.booleans(), st.booleans(),
                   FONT_NAME)  # text, width, bold, italic, font-name


@st.composite
def grid_documents(draw, superscripts: bool) -> Document:
    """A document as parse_rich_xml returns it: tokens sorted by x, lines
    by their median baseline, and sup_flag set by the superscript rule.
    With ``superscripts``, every line is 10pt body text with one 6pt
    marker raised 3pt."""
    numbers = draw(st.lists(st.integers(1, 99), min_size=1, max_size=3,
                            unique=True))
    pages = []
    for number in numbers:
        raw_lines = []
        for _ in range(draw(st.integers(0, 4))):
            if superscripts:
                # In thousandths of a point, so every sum stays on the grid.
                base = draw(st.integers(20_000, 700_000))
                x = draw(st.integers(0, 100_000))
                sizes = [10_000] * draw(st.integers(2, 4)) + [6_000]
                tokens = []
                for size in draw(st.permutations(sizes)):
                    rise = 3_000 if size == 6_000 else 0
                    text, width, bold, italic, font_name = draw(STYLED)
                    tokens.append(Token(
                        text, number, x / 1000, (base - size - rise) / 1000,
                        width, size / 1000, size / 1000, bold, italic,
                        font_name))
                    x += draw(st.integers(1, 60_000))
            else:
                tokens = [Token(text, number, draw(grid(-5_000, 600_000)),
                                draw(grid(-5_000, 750_000)), width,
                                draw(grid(0, 30_000)), draw(grid(1, 30_000)),
                                bold, italic, font_name)
                          for text, width, bold, italic, font_name
                          in draw(st.lists(STYLED, min_size=1, max_size=4))]
            tokens.sort(key=lambda t: t.x)
            raw_lines.append(tokens)
        fonts = [t.font_size for tokens in raw_lines for t in tokens]
        lines = []
        for tokens in raw_lines:
            baseline = statistics.median(t.baseline_y for t in tokens)
            lines.append(Line(tokens=tuple(
                t._replace(sup_flag=(
                    t.font_size <= SUP_FONT_RATIO * statistics.median(fonts)
                    and baseline - t.baseline_y >= SUP_RISE_PT))
                for t in tokens), baseline_y=baseline))
        lines.sort(key=lambda l: l.baseline_y)
        pages.append(Page(number=number, width=draw(grid(1, 2_000_000)),
                          height=draw(grid(1, 2_000_000)),
                          lines=tuple(lines)))
    return Document(source_id="g", pages=tuple(pages))


class TestGridRoundTrip:
    """``document_to_xml`` then ``parse_rich_xml`` is the identity on
    documents whose values lie on the 3-decimal grid."""

    @given(grid_documents(superscripts=False))
    @settings(max_examples=30)
    def test_without_superscripts(self, doc):
        again, report = parse_rich_xml(document_to_xml(doc), source_id="g")
        assert report.warnings == [] and report.skipped_elements == 0
        assert again == doc

    @given(grid_documents(superscripts=True))
    @settings(max_examples=30)
    def test_with_superscripts(self, doc):
        assert all(sum(t.sup_flag for t in line.tokens) == 1
                   for page in doc.pages for line in page.lines)
        again, report = parse_rich_xml(document_to_xml(doc), source_id="g")
        assert report.warnings == [] and report.skipped_elements == 0
        assert again == doc

    def test_synthetic_documents_round_trip_byte_for_byte(self):
        xml = document_to_xml(parse_rich_xml(base_xml())[0])
        assert document_to_xml(parse_rich_xml(xml)[0]) == xml
