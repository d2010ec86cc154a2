"""Document object model shared by every pipeline stage.

Coordinates follow the usual PDF-to-XML emitter convention: the origin is
the top-left corner of the page and y grows downward, so "lower half of the
page" means y > page.height / 2.  Token is an immutable tuple-backed record
(a ``typing.NamedTuple``) that checks its values when called; every other
type is a frozen dataclass.  All are safe to share between concurrently
processed documents.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import add
from typing import NamedTuple


class EmptyChunkError(ValueError):
    """Raised when chunk statistics are requested for an empty token list."""


class _TokenFields(NamedTuple):
    text: str
    page_no: int
    x: float
    y: float
    width: float
    height: float
    font_size: float
    bold: bool = False
    italic: bool = False
    font_name: str = ""
    sup_flag: bool = False


class Token(_TokenFields):
    """One visual word with position, size and style attributes.

    A tuple underneath, so that ingest can build one per word cheaply.
    Calling ``Token(...)`` checks the values; ``_make``, ``_replace`` and
    ``tuple.__new__(Token, values)`` build one without the checks.  Ingest
    builds its tokens the last way, because it has already rejected every
    TOKEN that would fail them.
    """

    __slots__ = ()

    def __new__(cls, text: str, page_no: int, x: float, y: float,
                width: float, height: float, font_size: float,
                bold: bool = False, italic: bool = False,
                font_name: str = "", sup_flag: bool = False):
        if not text:
            raise ValueError("token text must be non-empty")
        if page_no < 1:
            raise ValueError("page_no must be >= 1")
        if width < 0 or height < 0:
            raise ValueError("token extents must be non-negative")
        if font_size <= 0:
            raise ValueError("font_size must be positive")
        return tuple.__new__(cls, (text, page_no, x, y, width, height,
                                   font_size, bold, italic, font_name,
                                   sup_flag))

    @property
    def baseline_y(self) -> float:
        return self.y + self.height


@dataclass(frozen=True)
class Line:
    """Tokens sharing one visual line, ordered by ascending x; at least one."""

    tokens: tuple[Token, ...]
    baseline_y: float

    def __post_init__(self):
        if not self.tokens:
            raise ValueError("a line must hold at least one token")

    @property
    def text(self) -> str:
        return " ".join(t.text for t in self.tokens)

    @property
    def x(self) -> float:
        return self.tokens[0].x


@dataclass(frozen=True)
class Page:
    number: int
    width: float
    height: float
    lines: tuple[Line, ...] = ()

    def tokens(self):
        for line in self.lines:
            yield from line.tokens


@dataclass(frozen=True)
class Document:
    source_id: str
    pages: tuple[Page, ...] = ()


@dataclass(frozen=True)
class Chunk:
    """A contiguous, visually coherent token group."""

    tokens: tuple[Token, ...]
    page_no: int
    avg_font_size: float
    avg_boldness: float
    bbox: tuple[float, float, float, float]

    @cached_property
    def text(self) -> str:
        """The tokens' texts joined by single spaces, joined on first use
        and kept: URL scanning, section bodies and TEI export all read it."""
        return " ".join(t.text for t in self.tokens)


def chunk_stats(tokens) -> tuple[float, float, tuple[float, float, float, float]]:
    """Mean font size, bold fraction and tight bounding box of a token group.

    The tokens are read once, as columns; each sum runs over its column in
    token order, as a sum over the tokens would.
    """
    columns = tuple(zip(*tokens))
    if not columns:
        raise EmptyChunkError("empty chunk")
    _text, _page, xs, ys, widths, heights, fonts, bolds = columns[:8]
    n = len(xs)
    avg_font = sum(fonts) / n
    avg_bold = sum(map(bool, bolds)) / n
    bbox = (min(xs), min(ys), max(map(add, xs, widths)),
            max(map(add, ys, heights)))
    return avg_font, avg_bold, bbox


def make_chunk(tokens) -> Chunk:
    """Build a Chunk with derived statistics from a non-empty token list."""
    tokens = tuple(tokens)
    avg_font, avg_bold, bbox = chunk_stats(tokens)
    return Chunk(
        tokens=tokens,
        page_no=tokens[0].page_no,
        avg_font_size=avg_font,
        avg_boldness=avg_bold,
        bbox=bbox,
    )
