"""Unit tests for structure extraction: headings, URLs, footnotes, captions."""

import pytest

from scholarparse.model import Document, Page, Token, make_chunk
from scholarparse.structure import (CaptionHeading, Footnote, Section,
                                    SectionHeading, _split_footnote_chunk,
                                    extract_caption_headings, extract_urls,
                                    map_sections, section_chunks)


def tok(text, x=0.0, baseline=100.0, size=10.0, bold=False, sup=False):
    return Token(text=text, page_no=1, x=x, y=baseline - size,
                 width=5.0 * len(text), height=size, font_size=size,
                 bold=bold, sup_flag=sup)


def chunk(words, **kw):
    cur = 0.0
    toks = []
    for w in words:
        toks.append(tok(w, x=cur, **kw))
        cur += 5.0 * len(w) + 5.0
    return make_chunk(toks)


class TestMapSections:
    def test_front_matter_then_bodies(self):
        chunks = [chunk(["front"]), chunk(["1", "Intro"]), chunk(["body1"]),
                  chunk(["2", "Methods"]), chunk(["body2"]), chunk(["body3"])]
        headings = [SectionHeading(text="1 Intro", chunk_index=1),
                    SectionHeading(text="2 Methods", chunk_index=3)]
        sections = map_sections(chunks, headings)
        assert sections[0].heading is None
        assert sections[0].paragraphs[0] == "front"
        assert sections[1].heading.text == "1 Intro"
        assert list(sections[2].paragraphs) == ["body2", "body3"]

    def test_section_chunks_hold_the_paragraphs(self):
        chunks = [chunk(["front"]), chunk(["1", "Intro"]), chunk(["body1"]),
                  chunk(["2", "Methods"]), chunk(["body2"]), chunk(["body3"]),
                  chunk(["3", "More"])]
        headings = [SectionHeading(text=c.text, chunk_index=i)
                    for i, c in enumerate(chunks) if i in (1, 3, 6)]
        sections = map_sections(chunks, headings)
        for section in sections[1:]:
            assert ([c.text for c in section_chunks(chunks, headings, section)]
                    == list(section.paragraphs))
        folded = Section(heading=sections[1].heading,
                         paragraphs=sections[1].paragraphs
                         + sections[2].paragraphs)
        assert section_chunks(chunks, headings, folded) == [
            chunks[2], chunks[4], chunks[5]]

    def test_body_text_joins_chunks(self):
        section = Section(heading=None, paragraphs=("a b", "c"))
        assert section.body_text == "a b c"


class TestUrls:
    def test_basic_match(self):
        assert extract_urls("see http://example.org/x for details") == [
            "http://example.org/x"]

    def test_https_and_escapes(self):
        assert extract_urls("at https://a.b/c%20d page") == ["https://a.b/c%20d"]

    def test_trailing_punctuation_stripped(self):
        assert extract_urls("visit http://example.org/x.") == [
            "http://example.org/x"]
        assert extract_urls("visit http://example.org/x, then") == [
            "http://example.org/x"]

    def test_unbalanced_paren_stripped(self):
        assert extract_urls("(see http://example.org/x) here") == [
            "http://example.org/x"]

    def test_balanced_paren_kept(self):
        assert extract_urls("http://example.org/a(b)") == [
            "http://example.org/a(b)"]

    def test_multiple_urls(self):
        text = "http://a.org/1 and http://b.org/2"
        assert extract_urls(text) == ["http://a.org/1", "http://b.org/2"]

    def test_no_scheme_no_match(self):
        assert extract_urls("www.example.org only") == []


class TestFootnoteSplitting:
    def test_marker_stripped(self):
        c = make_chunk([tok("1", size=6.0, sup=True), tok("note", x=10.0),
                        tok("text", x=40.0)])
        notes = _split_footnote_chunk(c, 1)
        assert notes == [Footnote(marker="1", text="note text", page_no=1)]

    def test_merged_chunk_split_at_markers(self):
        c = make_chunk([tok("1", size=6.0, sup=True), tok("first", x=10.0),
                        tok("2", x=50.0, size=6.0, sup=True),
                        tok("second", x=60.0)])
        notes = _split_footnote_chunk(c, 1)
        assert [(n.marker, n.text) for n in notes] == [
            ("1", "first"), ("2", "second")]

    def test_markerless_chunk_kept_whole(self):
        c = chunk(["plain", "note"])
        notes = _split_footnote_chunk(c, 1)
        assert notes == [Footnote(marker=None, text="plain note", page_no=1)]

    def test_glyph_marker_translated(self):
        c = make_chunk([tok("¹", size=6.0), tok("note", x=10.0)])
        notes = _split_footnote_chunk(c, 1)
        assert notes[0].marker == "1"


class TestCaptions:
    def test_figure_caption(self):
        c = chunk(["Figure", "2:", "A", "nice", "plot."], size=9.0, bold=True)
        (cap,) = extract_caption_headings([c])
        assert cap == CaptionHeading(kind="figure",
                                     text="Figure 2: A nice plot.")

    def test_table_caption_filters_cell_text(self):
        toks = [tok("Table", 0, size=9.0, bold=True),
                tok("1:", 40, size=9.0, bold=True),
                tok("Results", 60, size=9.0, bold=True),
                tok("cell1", 120, size=9.0),
                tok("cell2", 160, size=9.0)]
        (cap,) = extract_caption_headings([make_chunk(toks)])
        assert cap == CaptionHeading(kind="table", text="Table 1: Results")

    def test_non_caption_chunks_ignored(self):
        assert extract_caption_headings([chunk(["Plain", "text"])]) == []

    def test_fig_abbreviation(self):
        c = chunk(["Fig.", "3:", "overview"], size=9.0, bold=True)
        (cap,) = extract_caption_headings([c])
        # The label keeps its tokens as read.
        assert cap == CaptionHeading(kind="figure", text="Fig. 3: overview")
