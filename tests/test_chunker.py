"""Unit tests for page segmentation."""

from collections import Counter

import pytest

from scholarparse.chunker import ChunkParams, chunk_document, chunk_page
from scholarparse.model import Document, Line, Page, Token


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


class TestParams:
    def test_defaults(self):
        p = ChunkParams()
        assert p.gap_factor == 1.5 and p.font_jump == 0.15 and p.boldness_break

    def test_gap_factor_must_exceed_one(self):
        with pytest.raises(ValueError):
            ChunkParams(gap_factor=1.0)

    def test_font_jump_range(self):
        with pytest.raises(ValueError):
            ChunkParams(font_jump=1.5)


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

    def test_boldness_break_can_be_disabled(self):
        lines = [line(["plain"], 100), line(["bold"], 113, bold=True)]
        chunks = chunk_page(page(lines), ChunkParams(boldness_break=False))
        assert [c.text for c in chunks] == ["plain bold"]


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
