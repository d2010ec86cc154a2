"""Unit tests for page segmentation."""

import math
import pickle
from collections import Counter

import pytest
from conftest import mutate_xml, reference_chunk_page, xml_mutations
from hypothesis import given, settings
from hypothesis import strategies as st

from scholarparse.chunker import (FONT_JUMP, GAP_FACTOR, chunk_document,
                                  chunk_page)
from scholarparse.ingest import parse_rich_xml
from scholarparse.model import Document, Line, Page, Token
from scholarparse.synth import STYLES, generate_synthetic_document


def line(text_words, baseline, x=60.0, size=10.0, bold=False, page_no=1):
    tokens = []
    cur = x
    for w in text_words:
        width = 5.0 * len(w)
        tokens.append(Token(text=w, page_no=page_no, x=cur, y=baseline - size,
                            width=width, height=size, font_size=size, bold=bold))
        cur += width + 5.0
    return Line(tokens=tuple(tokens), baseline_y=baseline)


def page(lines, number=1):
    return Page(number=number, width=612.0, height=792.0, lines=tuple(lines))


class TestBreaks:
    def test_wide_gap_starts_new_chunk(self):
        lines = [line(["a"], 100), line(["b"], 113), line(["c"], 126),
                 line(["d"], 160)]  # gap 34 > 1.5 * 13
        chunks = chunk_page(page(lines))
        assert [c.text for c in chunks] == ["a b c", "d"]

    def test_uniform_spacing_single_chunk(self):
        lines = [line([f"w{i}"], 100 + 13 * i) for i in range(5)]
        assert [c.text for c in chunk_page(page(lines))] == [
            "w0 w1 w2 w3 w4"]

    def test_font_jump_starts_new_chunk(self):
        lines = [line(["body"], 100), line(["body"], 113),
                 line(["head"], 126, size=12.0), line(["x"], 139, size=12.0)]
        chunks = chunk_page(page(lines))
        assert [c.text for c in chunks] == ["body body", "head x"]

    def test_boldness_flip_starts_new_chunk(self):
        lines = [line(["plain"], 100), line(["bold"], 113, bold=True)]
        chunks = chunk_page(page(lines))
        assert [c.text for c in chunks] == ["plain", "bold"]

    @pytest.mark.parametrize("last, texts", [
        (135.0, ["a b c d"]),
        (math.nextafter(135.0, math.inf), ["a b c", "d"])])
    def test_gap_of_exactly_gap_factor_medians_does_not_break(self, last,
                                                             texts):
        # Gaps 10, 10 and 15 (or just above): the median gap is 10.
        assert GAP_FACTOR * 10 == 135.0 - 120.0
        lines = [line(["a"], 100), line(["b"], 110), line(["c"], 120),
                 line(["d"], last)]
        assert [c.text for c in chunk_page(page(lines))] == texts

    @pytest.mark.parametrize("size, texts", [
        (11.5, ["a b c"]),
        (math.nextafter(11.5, math.inf), ["a", "b c"]),
        (8.5, ["a b c"]),
        (math.nextafter(8.5, 0.0), ["a", "b c"])])
    def test_font_change_of_exactly_font_jump_does_not_break(self, size,
                                                             texts):
        # From 10 pt, 11.5 and 8.5 pt are a relative change of FONT_JUMP.
        assert abs(11.5 - 10.0) / 10.0 == abs(8.5 - 10.0) / 10.0 == FONT_JUMP
        lines = [line(["a"], 100), line(["b"], 113, size=size),
                 line(["c"], 126, size=size)]
        assert [c.text for c in chunk_page(page(lines))] == texts


class TestColumns:
    def _two_col_page(self):
        left = [line([f"l{i}"], 100 + 13 * i, x=60.0) for i in range(4)]
        right = [line([f"r{i}"], 100 + 13 * i, x=330.0) for i in range(4)]
        # interleave by baseline, as a real reading-order parse would
        merged = [l for pair in zip(left, right) for l in pair]
        return page(merged), left, right

    def test_left_column_chunked_first(self):
        pg, left, right = self._two_col_page()
        chunks = chunk_page(pg)
        texts = [c.text for c in chunks]
        assert texts == ["l0 l1 l2 l3", "r0 r1 r2 r3"]

    def test_single_column_when_gap_small(self):
        lines = ([line([f"a{i}"], 100 + 13 * i, x=60.0) for i in range(3)]
                 + [line([f"b{i}"], 100 + 13 * i, x=90.0) for i in range(3)])
        chunks = chunk_page(page(sorted(lines, key=lambda l: l.baseline_y)))
        all_text = " ".join(c.text for c in chunks)
        assert set(all_text.split()) == {"a0", "a1", "a2", "b0", "b1", "b2"}

    @pytest.mark.parametrize("xs", [(60.0, 330.0, 60.0, 60.0),
                                    (60.0, 330.0, 330.0, 330.0)])
    def test_one_column_when_one_side_has_too_few_lines(self, xs):
        # The widest x gap is wide enough, but one side of it holds a
        # single line: the page stays one column, chunked in baseline order.
        lines = [line([f"w{i}"], 100 + 13 * i, x=x) for i, x in enumerate(xs)]
        assert [c.text for c in chunk_page(page(lines))] == ["w0 w1 w2 w3"]

    def test_partition_preserves_token_multiset(self):
        pg, _, _ = self._two_col_page()
        chunks = chunk_page(pg)
        chunk_tokens = Counter(t.text for c in chunks for t in c.tokens)
        page_tokens = Counter(t.text for t in pg.tokens())
        assert chunk_tokens == page_tokens


class TestDocumentLevel:
    def test_chunks_stay_page_local(self):
        doc = Document(source_id="d", pages=(
            page([line(["one"], 100)], number=1),
            page([line(["two"], 100, page_no=2)], number=2)))
        chunks = chunk_document(doc)
        assert [(c.text, c.page_no) for c in chunks] == [("one", 1), ("two", 2)]

    def test_empty_page_yields_no_chunks(self):
        assert chunk_page(page([])) == []


WORDS = st.tuples(st.sampled_from(["a", "Word", "1", "x-", "(2016)"]),
                  st.just(0.0) | st.floats(0.1, 60.0),  # width
                  st.floats(4.0, 16.0),  # font size, off the 0.1 grid
                  st.booleans())  # bold


@st.composite
def pages(draw):
    """A page of one or two columns of lines with random spacing, font
    sizes, widths and boldness, lines in baseline order."""
    lines = []
    for x0 in draw(st.sampled_from([(60.0,), (60.0, 330.0)])):
        baseline = draw(st.floats(60.0, 120.0))
        for _ in range(draw(st.integers(1, 8))):
            baseline += draw(st.sampled_from([0.0, 12.0]) | st.floats(0.0, 40.0))
            x = x0 + draw(st.floats(0.0, 3.0))
            tokens = []
            for text, width, size, bold in draw(st.lists(WORDS, min_size=1,
                                                         max_size=5)):
                tokens.append(Token(text=text, page_no=1, x=x,
                                    y=baseline - size, width=width,
                                    height=size, font_size=size, bold=bold))
                x += width + 3.0
            lines.append(Line(tokens=tuple(tokens), baseline_y=baseline))
    lines.sort(key=lambda l: l.baseline_y)
    return page(lines)


class TestAgainstPairwiseOracle:
    @given(pages())
    @settings(max_examples=100)
    def test_same_chunks_and_text(self, pg):
        chunks = chunk_page(pg)
        assert repr(chunks) == repr(reference_chunk_page(pg))
        for chunk in chunks:
            joined = " ".join(t.text for t in chunk.tokens)
            assert pickle.loads(pickle.dumps(chunk)).text == joined
            assert chunk.text == joined
            assert pickle.loads(pickle.dumps(chunk)).text == joined


class TestChunksKeepTheirLines:
    @given(st.sampled_from(STYLES), st.integers(0, 10_000),
           st.lists(xml_mutations(["x-", "*", "1", "References", "[3]"]),
                    max_size=4))
    @settings(max_examples=25, deadline=None)
    def test_lines_are_the_pages_lines_in_order(self, style, seed, mutations):
        """Each chunk's lines are ``Line``s of its own page, in page order;
        their tokens in turn are the chunk's tokens, and their texts joined
        by spaces are its text."""
        xml = mutate_xml(generate_synthetic_document(style, seed)[0],
                         mutations)
        doc, _ = parse_rich_xml(xml)
        for pg in doc.pages:
            order = {id(l): i for i, l in enumerate(pg.lines)}
            for chunk in chunk_page(pg):
                assert chunk.lines and chunk.page_no == pg.number
                assert all(type(l) is Line and id(l) in order
                           for l in chunk.lines)
                positions = [order[id(l)] for l in chunk.lines]
                assert positions == sorted(positions)
                assert chunk.tokens == tuple(t for l in chunk.lines
                                             for t in l.tokens)
                assert " ".join(l.text for l in chunk.lines) == chunk.text
