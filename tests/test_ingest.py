"""Unit tests for rich XML ingestion."""

import re

import pytest

from scholarparse.ingest import (RichXmlParseError, detect_superscript,
                                 document_to_xml, parse_rich_xml)
from scholarparse.model import Line, Token

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

    def test_unknown_elements_counted_not_fatal(self):
        data = SIMPLE.replace(b"</TEXT>", b"</TEXT><NOISE/>")
        _, report = parse_rich_xml(data)
        assert report.skipped_elements == 1

    def test_malformed_xml_reports_offset(self):
        with pytest.raises(RichXmlParseError) as err:
            parse_rich_xml(b"<DOCUMENT><PAGE></DOCUMENT>")
        assert err.value.byte_offset > 0

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
    def _line(self):
        # Body token at baseline 100; a 6pt marker raised 3pt above it.
        body = Token(text="word", page_no=1, x=0, y=90, width=20, height=10,
                     font_size=10.0)
        sup = Token(text="1", page_no=1, x=25, y=91, width=3, height=6,
                    font_size=6.0)
        return Line(tokens=(body, sup), baseline_y=100.0)

    def test_small_raised_token_flagged(self):
        assert detect_superscript(self._line(), 10.0) == [False, True]

    def test_large_token_never_flagged(self):
        line = self._line()
        big = Token(text="1", page_no=1, x=25, y=87, width=6, height=10,
                    font_size=10.0)
        line = Line(tokens=(line.tokens[0], big), baseline_y=100.0)
        assert detect_superscript(line, 10.0) == [False, False]

    def test_small_but_not_raised_not_flagged(self):
        body = Token(text="word", page_no=1, x=0, y=90, width=20, height=10,
                     font_size=10.0)
        small = Token(text="1", page_no=1, x=25, y=94, width=3, height=6,
                      font_size=6.0)
        line = Line(tokens=(body, small), baseline_y=100.0)
        assert detect_superscript(line, 10.0) == [False, False]

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
