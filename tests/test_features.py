"""Unit tests for the feature builders."""

import re
from collections import Counter

from conftest import (one_line, reference_footnote_rows, reference_heading_rows,
                      reference_token_rows)
from hypothesis import given, settings
from hypothesis import strategies as st

from scholarparse.context import build_context
from scholarparse.features import (LABELING_TASKS, _case, _decile,
                                   _size_bucket, enumeration_kind,
                                   font_counts, footnote_chunk_features,
                                   heading_chunk_features, is_marker,
                                   modal_font, strip_enumeration,
                                   token_features)
from scholarparse.ingest import parse_rich_xml
from scholarparse.model import Document, Line, Page, Token, make_chunk
from scholarparse.synth import STYLES, generate_synthetic_document

FONT_SIZE = re.compile(rb'font-size="([^"]+)"')


def tok(text, size=10.0, bold=False, x=0.0, y=90.0, sup=False):
    return Token(text=text, page_no=1, x=x, y=y, width=5.0 * len(text),
                 height=size, font_size=size, bold=bold, sup_flag=sup)


class TestBuckets:
    def test_decile_clipped(self):
        assert _decile(-0.5) == 0
        assert _decile(0.0) == 0
        assert _decile(0.55) == 5
        assert _decile(1.5) == 9

    def test_size_bucket_separates_nearby_fonts(self):
        # 12pt headings and 10pt body must land in different buckets
        assert _size_bucket(12.0, 10.0) != _size_bucket(10.0, 10.0)
        assert _size_bucket(17.0, 10.0) == 17
        assert _size_bucket(8.0, 10.0) == 8

    def test_size_bucket_clips_ratios_of_two_and_above_to_19(self):
        assert _size_bucket(19.5, 10.0) == 19
        assert _size_bucket(20.0, 10.0) == 19
        assert _size_bucket(25.0, 10.0) == 19

    def test_size_bucket_degenerate_reference(self):
        assert _size_bucket(10.0, 0.0) == 10

    def test_case_classes(self):
        assert _case("Word") == "U"
        assert _case("word") == "l"
        assert _case("42") == "d"
        assert _case("[1]") == "o"


class TestEnumerationKind:
    def test_arabic(self):
        for text in ("1", "2.", "3.1", "10.2.4."):
            assert enumeration_kind(text) == "arabic"

    def test_roman(self):
        for text in ("I", "IV.", "XII"):
            assert enumeration_kind(text) == "roman"

    def test_alpha(self):
        assert enumeration_kind("A.") == "alpha"
        assert enumeration_kind("B.2") == "alpha"

    def test_none(self):
        for text in ("Introduction", "a.", "1a", "-"):
            assert enumeration_kind(text) == "none"

    def test_strip_enumeration(self):
        assert strip_enumeration("3.1 Related  Work") == "Related Work"
        assert strip_enumeration("IV. Results") == "Results"
        assert strip_enumeration("B. Datasets") == "Datasets"
        # a heading enumeration, unlike enumeration_kind, excludes "A.1"
        assert strip_enumeration("A.1 Proofs") == "A.1 Proofs"
        assert strip_enumeration("1a Intro") == "1a Intro"


class TestTokenFeatures:
    def test_expected_indicators(self):
        tokens = [tok("Big", size=17.0, bold=True), tok("small")]
        feats = token_features(tokens, [0, 1], 100, 10.0)
        assert "bias" in feats[0]
        assert "bold" in feats[0]
        assert "bold_size:17" in feats[0]
        assert "case:U" in feats[0]
        assert "relsize:17" in feats[0]
        assert "bold" not in feats[1]
        assert "case_prev:lU" in feats[1]
        assert "case_next:Ul" in feats[0]

    def test_deterministic(self):
        tokens = [tok("a"), tok("B")]
        assert token_features(tokens, [0, 1], 10, 10.0) == token_features(
            tokens, [0, 1], 10, 10.0)


class TestChunkFeatures:
    def test_heading_features(self):
        chunk = make_chunk([one_line([tok("2", size=12.0, bold=True),
                                      tok("Methods", size=12.0, bold=True)])])
        feats = heading_chunk_features([chunk], 10.0)[0]
        assert "enum:arabic" in feats
        assert "first:2" in feats
        assert "second:methods" in feats
        assert "size:12" in feats

    def test_footnote_features_mark_superscript_lead(self):
        page = Page(number=1, width=612.0, height=792.0)
        chunk = make_chunk([one_line([tok("1", size=6.0, y=730.0, sup=True),
                                      tok("note", size=8.0, y=732.0)])])
        feats = footnote_chunk_features([chunk], page, 10.0)[0]
        assert "sup_lead" in feats
        assert "ypos:9" in feats

    def test_starts_with_marker_glyph(self):
        assert is_marker(tok("*note"))
        assert is_marker(tok("²note"))
        assert not is_marker(tok("note"))


def test_rows_emit_each_recorded_template_once():
    for task in LABELING_TASKS.values():
        assert task.labels[0] == "OTHER" and len(task.labels) == 2
        ids = [tpl.id for tpl in task.templates]
        assert len(set(ids)) == len(ids)
        assert sorted(tpl.id for tpl in task.row) == sorted(ids)


def shifted_context(style: str, seed: int, shift: float):
    """A generator article's context, every font ``shift`` pt larger."""
    xml, _ = generate_synthetic_document(style, seed)
    xml = FONT_SIZE.sub(lambda m: b'font-size="%r"' % (float(m[1]) + shift),
                        xml)
    return build_context(parse_rich_xml(xml)[0])


class TestRowsMatchTheReferenceBuilders:
    @given(st.sampled_from(STYLES), st.integers(0, 40),
           st.sampled_from((0.0, 0.2)))
    @settings(max_examples=40)
    def test_generator_articles(self, style, seed, shift):
        ctx = shifted_context(style, seed, shift)
        start = 0
        for chunk in ctx.chunks:
            tokens = list(chunk.tokens)
            positions = range(start, start + len(tokens))
            start += len(tokens)
            args = (tokens, positions, ctx.token_count, ctx.body_font)
            assert token_features(*args) == reference_token_rows(*args)
        assert (heading_chunk_features(ctx.chunks, ctx.body_font)
                == reference_heading_rows(ctx.chunks, ctx.body_font))
        for pc in ctx.pages:
            args = (pc.chunks, pc.page, pc.body_font)
            assert (footnote_chunk_features(*args)
                    == reference_footnote_rows(*args))

    def test_shifted_fonts_reach_buckets_the_generator_never_writes(self):
        def buckets(shift):
            contexts = [shifted_context(style, seed, shift)
                        for style in STYLES for seed in range(5)]
            return {f for ctx in contexts
                    for row in heading_chunk_features(ctx.chunks,
                                                      ctx.body_font)
                    for f in row if f.startswith("size:")}

        assert buckets(0.2) - buckets(0.0)


class TestBodyFont:
    def test_modal_size(self):
        lines = (Line(tokens=(tok("a"), tok("b"), tok("c", size=17.0)),
                      baseline_y=100.0),)
        page = Page(number=1, width=612.0, height=792.0, lines=lines)
        assert font_counts(page) == Counter({10.0: 2, 17.0: 1})
        assert modal_font(font_counts(page)) == 10.0
        ctx = build_context(Document(source_id="d", pages=(page,)))
        assert ctx.body_font == 10.0
        assert ctx.pages[0].body_font == 10.0

    @staticmethod
    def tied_document():
        """Page 1 alone is mostly 12pt and page 2 mostly 9pt; merged, 9pt
        and 12pt tie on four tokens each."""
        def page(number, sizes):
            line = Line(tokens=tuple(tok("w", size=s) for s in sizes),
                        baseline_y=100.0)
            return Page(number=number, width=612.0, height=792.0,
                        lines=(line,))

        return Document(source_id="d", pages=(
            page(1, [12.0, 12.0, 12.0, 9.0, 10.0]),
            page(2, [9.0, 9.0, 9.0, 12.0, 10.0])))

    def test_document_mode_is_over_merged_page_counts(self):
        doc = self.tied_document()
        merged = Counter(t.font_size for p in doc.pages for t in p.tokens())
        assert merged[9.0] == merged[12.0] == 4
        ctx = build_context(doc)
        assert [p.body_font for p in ctx.pages] == [12.0, 9.0]
        # The highest count wins, and the smallest size among those tied.
        assert ctx.body_font == 9.0

    def test_context_counts_the_same_fonts(self):
        doc = self.tied_document()
        ctx = build_context(doc)
        counts = [font_counts(p) for p in doc.pages]
        assert ctx.body_font == modal_font(sum(counts, Counter()))
        assert [p.body_font for p in ctx.pages] == [modal_font(c)
                                                    for c in counts]

    def test_empty_defaults_to_ten(self):
        page = Page(number=1, width=612.0, height=792.0)
        assert font_counts(page) == Counter()
        assert modal_font(Counter()) == 10.0
        ctx = build_context(Document(source_id="d", pages=(page,)))
        assert ctx.body_font == 10.0
        assert ctx.pages[0].body_font == 10.0
