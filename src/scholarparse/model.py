"""Document object model shared by every pipeline stage.

Coordinates follow the usual PDF-to-XML emitter convention: the origin is
the top-left corner of the page and y grows downward, so "lower half of the
page" means y > page.height / 2.  Token and Line are immutable tuple-backed
records (``typing.NamedTuple``s), so that ingest, which builds one per word
and one per visual line, builds them cheaply; each checks its values when
called.  Page, Document and Chunk are plain ``NamedTuple``s too, built
once with every value known.  All are safe to share between concurrently
processed documents.
"""

from __future__ import annotations

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


class _LineFields(NamedTuple):
    tokens: tuple[Token, ...]
    baseline_y: float


class Line(_LineFields):
    """Tokens sharing one visual line, ordered by ascending x; at least one.

    A tuple underneath, like Token: calling ``Line(...)`` rejects an empty
    line, and ``tuple.__new__(Line, (tokens, baseline_y))`` builds one
    without the check.
    """

    __slots__ = ()

    def __new__(cls, tokens: tuple[Token, ...], baseline_y: float):
        if not tokens:
            raise ValueError("a line must hold at least one token")
        return tuple.__new__(cls, (tokens, baseline_y))

    @property
    def text(self) -> str:
        return " ".join(t.text for t in self.tokens)

    @property
    def x(self) -> float:
        return self.tokens[0].x


class Page(NamedTuple):
    """One page: its number, its size and its lines from top to bottom."""

    number: int
    width: float
    height: float
    lines: tuple[Line, ...] = ()

    def tokens(self):
        for line in self.lines:
            yield from line.tokens


class Document(NamedTuple):
    """A parsed article: its source id and its pages."""

    source_id: str
    pages: tuple[Page, ...] = ()


class Chunk(NamedTuple):
    """A visually coherent run of a page's ``lines``, as ingest built them,
    with their ``tokens`` in turn, its ``top`` (smallest token y) and its
    tokens' texts joined by single spaces: URL scanning, section bodies and
    TEI export all read that text, so ``make_chunk`` joins it once."""

    tokens: tuple[Token, ...]
    page_no: int
    avg_font_size: float
    avg_boldness: float
    top: float
    text: str
    lines: tuple[Line, ...]


def chunk_stats(tokens) -> tuple[float, float, float]:
    """Mean font size, bold fraction and top (smallest y) of a token group.

    The tokens are read once, as columns; each sum runs over its column in
    token order, as a sum over the tokens would.
    """
    columns = tuple(zip(*tokens))
    if not columns:
        raise EmptyChunkError("empty chunk")
    ys, fonts, bolds = columns[3], columns[6], columns[7]
    n = len(ys)
    return sum(fonts) / n, sum(map(bool, bolds)) / n, min(ys)


def make_chunk(lines) -> Chunk:
    """Build a Chunk, its tokens, statistics and text from a non-empty
    sequence of lines."""
    lines = tuple(lines)
    tokens = tuple([t for line in lines for t in line.tokens])
    avg_font, avg_bold, top = chunk_stats(tokens)
    return Chunk(tokens, tokens[0].page_no, avg_font, avg_bold, top,
                 " ".join([t.text for t in tokens]), lines)
