"""Unit tests for the document object model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scholarparse.model import (Chunk, EmptyChunkError, Line, Token,
                                chunk_stats, make_chunk)


def tok(text="w", x=0.0, y=0.0, w=10.0, h=10.0, size=10.0, **kw):
    return Token(text=text, page_no=kw.pop("page_no", 1), x=x, y=y,
                 width=w, height=h, font_size=size, **kw)


class TestToken:
    def test_baseline_is_bottom_edge(self):
        assert tok(y=100.0, h=12.0).baseline_y == 112.0

    def test_empty_text_rejected(self):
        with pytest.raises(ValueError):
            tok(text="")

    def test_bad_page_rejected(self):
        with pytest.raises(ValueError):
            tok(page_no=0)

    def test_negative_extent_rejected(self):
        with pytest.raises(ValueError):
            tok(w=-1.0)

    def test_nonpositive_font_rejected(self):
        with pytest.raises(ValueError):
            tok(size=0.0)

    def test_keyword_and_positional_construction_agree(self):
        by_name = Token(text="w", page_no=2, x=1.0, y=2.0, width=3.0,
                        height=4.0, font_size=9.0, italic=True,
                        sup_flag=True)
        assert Token("w", 2, 1.0, 2.0, 3.0, 4.0, 9.0, False, True, "",
                     True) == by_name
        assert Token("w", 2, 1.0, 2.0, 3.0, 4.0, 9.0) == by_name._replace(
            italic=False, sup_flag=False)

    def test_defaults(self):
        t = tok()
        assert (t.bold, t.italic, t.font_name, t.sup_flag) == (
            False, False, "", False)

    @pytest.mark.parametrize("name", ["text", "x", "sup_flag", "baseline_y"])
    def test_fields_cannot_be_assigned(self, name):
        t = tok()
        with pytest.raises(AttributeError):
            setattr(t, name, 1)
        with pytest.raises(AttributeError):
            t.extra = 1


class TestLine:
    def test_text_joins_tokens(self):
        line = Line(tokens=(tok("a"), tok("b", x=20.0)), baseline_y=10.0)
        assert line.text == "a b"
        assert line.x == 0.0

    def test_empty_line_rejected(self):
        # Chunking divides by a line's token count.
        with pytest.raises(ValueError, match="at least one token"):
            Line(tokens=(), baseline_y=0.0)


class TestChunkStats:
    def test_hand_computed(self):
        tokens = [tok("a", x=0, y=0, w=10, h=10, size=10.0),
                  tok("b", x=20, y=5, w=10, h=10, size=14.0, bold=True)]
        avg_font, avg_bold, bbox = chunk_stats(tokens)
        assert avg_font == pytest.approx(12.0)
        assert avg_bold == pytest.approx(0.5)
        assert bbox == (0.0, 0.0, 30.0, 15.0)

    def test_empty_raises(self):
        with pytest.raises(EmptyChunkError):
            chunk_stats([])

    @given(st.lists(st.tuples(st.floats(0, 500), st.floats(0, 700),
                              st.floats(1, 50), st.floats(1, 50)),
                    min_size=1, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_bbox_contains_every_token(self, boxes):
        tokens = [tok("w", x=x, y=y, w=w, h=h) for x, y, w, h in boxes]
        _, _, bbox = chunk_stats(tokens)
        for t in tokens:
            assert bbox[0] <= t.x and t.x + t.width <= bbox[2] + 1e-9
            assert bbox[1] <= t.y and t.y + t.height <= bbox[3] + 1e-9


class TestMakeChunk:
    def test_text_and_page(self):
        chunk = make_chunk([tok("hello"), tok("world", x=40.0)])
        assert chunk.text == "hello world"
        assert chunk.page_no == 1
