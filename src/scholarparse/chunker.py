"""Page segmentation into chunks by spacing and style discontinuities.

A new chunk starts when the vertical gap to the previous line exceeds
``GAP_FACTOR`` times the column's median inter-line gap, when the relative
font size changes by more than ``FONT_JUMP``, or when line boldness flips.
A line's font is its tokens' mean font size and its boldness their
majority.  Two-column pages are detected from the distribution of line
x-origins and chunked per column, left column first.  A chunk keeps the
page's ``Line``s it was cut from, which the reference splitter reads.

The thresholds are constants, as every other layout rule is: the bundled
models were trained on the chunks they give, and a model file does not
record them, so decoding with other values would put a model on chunks it
never saw.
"""

from __future__ import annotations

from .model import Chunk, Document, Line, Page, make_chunk

# Fraction of page width the x-origin histogram gap must span before a page
# is treated as two-column.
COLUMN_GAP_FRACTION = 0.2
MIN_COLUMN_LINES = 2
# A gap wider than this many median gaps, or a relative font change above
# this fraction, starts a new chunk.
GAP_FACTOR = 1.5
FONT_JUMP = 0.15


def _line_font(line: Line) -> float:
    return sum(t.font_size for t in line.tokens) / len(line.tokens)


def _line_bold(line: Line) -> bool:
    return sum(1 for t in line.tokens if t.bold) > len(line.tokens) / 2


def _split_columns(page: Page) -> list[list[Line]]:
    """Assign lines to at most two columns by clustering x-origins."""
    lines = list(page.lines)
    if len(lines) < 2 * MIN_COLUMN_LINES:
        return [lines]
    xs = sorted(set(round(l.x, 1) for l in lines))
    if len(xs) < 2:
        return [lines]
    gaps = [(xs[i + 1] - xs[i], i) for i in range(len(xs) - 1)]
    widest, idx = max(gaps)
    if widest < COLUMN_GAP_FRACTION * page.width:
        return [lines]
    boundary = (xs[idx] + xs[idx + 1]) / 2
    left = [l for l in lines if l.x < boundary]
    right = [l for l in lines if l.x >= boundary]
    if len(left) < MIN_COLUMN_LINES or len(right) < MIN_COLUMN_LINES:
        return [lines]
    return [left, right]


def _chunk_lines(lines: list[Line], median_gap: float) -> list[Chunk]:
    """Chunks of one column; each line's mean font and bold majority are
    computed once and compared with the previous line's."""
    chunks: list[Chunk] = []
    current: list[Line] = []
    prev_font = prev_bold = None
    for line in lines:
        font, bold = _line_font(line), _line_bold(line)
        if current:
            gap = line.baseline_y - current[-1].baseline_y
            font_change = abs(font - prev_font) / prev_font
            breaks = (
                (median_gap > 0 and gap > GAP_FACTOR * median_gap)
                or font_change > FONT_JUMP
                or bold != prev_bold
            )
            if breaks:
                chunks.append(make_chunk(current))
                current = []
        current.append(line)
        prev_font, prev_bold = font, bold
    if current:
        chunks.append(make_chunk(current))
    return chunks


def chunk_page(page: Page) -> list[Chunk]:
    """Segment one page into chunks; empty page yields an empty list."""
    if not page.lines:
        return []
    columns = _split_columns(page)
    chunks: list[Chunk] = []
    for column in columns:
        gaps = [b.baseline_y - a.baseline_y for a, b in zip(column, column[1:])]
        gaps = sorted(g for g in gaps if g > 0)
        median_gap = gaps[len(gaps) // 2] if gaps else 0.0
        chunks.extend(_chunk_lines(column, median_gap))
    return chunks


def chunk_document(doc: Document) -> list[Chunk]:
    """All chunks of a document in reading order (chunks stay page-local)."""
    chunks: list[Chunk] = []
    for page in doc.pages:
        chunks.extend(chunk_page(page))
    return chunks
