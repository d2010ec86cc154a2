"""Parsing of token-level rich XML files into Documents.

Expected schema: root DOCUMENT, PAGE @number @width @height, TEXT (one per
visual line), TOKEN @x @y @width @height @font-size @bold @italic @font-name
with the word as text content.  bold/italic are literal "yes"/"no".  Unknown
elements are skipped and counted.  A TOKEN missing x, y or font-size, or
with blank text, a non-finite coordinate or size, a negative width or
height, or a font-size that is not positive, is skipped with a warning that
names the first of these it meets, never a fatal error.  A PAGE number that
is not a positive integer, or that repeats an earlier page's, becomes one
more than the largest number used so far, with a warning, so that page
numbers identify pages.  A PAGE width or height that
is not a finite positive number becomes US Letter's 612 or 792, with a
warning.

Each page is parsed in one pass over its TOKENs, and each Token is built
as its TOKEN is read.  A TOKEN's five numbers are read together; only a
TOKEN that fails that read, or whose values are out of range, is read again
field by field to name what is wrong.  A missing, zero or unparseable width
or height is 0.0.  A line's baseline is the median of its tokens'
baselines; the baselines and the line's smallest font come from the numbers
read once per TOKEN, not from the built tokens.

The XML is parsed as a stream (``_root_children``): the bytes are read a
slice at a time.  The root's start is the only event the parser reports;
after it the parser builds the tree with no event per element.  After each
slice, every child of the root but the last, which may still be open, is
read and dropped, and the last ones once the input ends.  So at any moment
the parse holds the element tree of about one page, plus what one slice
starts, never the whole document's: the memory it needs above the Document
it returns does not grow with the page count.
A parse error raises ``RichXmlParseError`` with the message and byte offset
that parsing the whole input at once gives.

``parse_rich_xml`` runs with automatic garbage collection paused
(``_gcpause``): the elements and the tokens form no reference cycles,
so reference counting frees them, and no collection set off by their
allocation walks the caller's heap.  ``gc`` is process-wide, so a thread
running beside the parse also runs without automatic collection until it
returns.

Superscripts: a token's ``sup_flag`` is set when its font is at most
SUP_FONT_RATIO of the page median and its baseline sits at least
SUP_RISE_PT above its line's baseline, both bounds inclusive
(``_is_superscript``).  The page median is known only once the page is
read, so tokens are built unflagged and the few the rule flags are
rebuilt; a line is scanned only when its smallest font passes the size
test.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from io import BytesIO
from operator import attrgetter, itemgetter
from typing import NamedTuple
from xml.etree import ElementTree as ET

from ._gcpause import gc_paused
from .model import Document, Line, Page, Token

# Superscript detection (see the module docstring).
SUP_FONT_RATIO = 0.8
SUP_RISE_PT = 1.5


class RichXmlParseError(ValueError):
    """Malformed XML input; carries the byte offset of the error."""

    def __init__(self, message: str, byte_offset: int):
        super().__init__(f"{message} (byte offset {byte_offset})")
        self.byte_offset = byte_offset


class IngestReport(NamedTuple):
    """What parsing a rich XML document read, skipped and warned about;
    built once the parse is done."""

    token_count: int = 0
    page_count: int = 0
    skipped_elements: int = 0
    warnings: Sequence[str] = ()


def _get_float(elem, name):
    raw = elem.get(name)
    if raw is None:
        return None
    try:
        return float(raw)
    except ValueError:
        return None


def _page_number(raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        return 0


def _page_extent(page_elem, name: str, default: float, number: int,
                 warnings: list[str]) -> float:
    """A PAGE width or height; a missing one is the US Letter default, and
    so, with a warning, is one that is not a finite positive number."""
    raw = page_elem.get(name)
    if raw is None:
        return default
    value = _get_float(page_elem, name)
    if value is not None and math.isfinite(value) and value > 0:
        return value
    warnings.append(f"page {number}: PAGE {name} {raw!r} is not a "
                    f"finite positive number; using {default:g}")
    return default


def _token_geometry(tok_elem, text: str):
    """``(x, y, width, height, font_size)`` of a TOKEN read field by field,
    or the reason it is skipped.  A missing, zero or unparseable width or
    height is 0.0."""
    x = _get_float(tok_elem, "x")
    y = _get_float(tok_elem, "y")
    font_size = _get_float(tok_elem, "font-size")
    width = _get_float(tok_elem, "width") or 0.0
    height = _get_float(tok_elem, "height") or 0.0
    if x is None or y is None or font_size is None:
        return "missing attributes"
    if not text:
        return "no text"
    if not all(map(math.isfinite, (x, y, width, height, font_size))):
        return "a non-finite coordinate or size"
    if width < 0 or height < 0 or font_size <= 0:
        return "a negative extent or non-positive font-size"
    return x, y, width, height, font_size


def _median(values: list[float]) -> float:
    """The middle of the sorted values, or the mean of the two middles,
    exactly as ``statistics.median`` computes it; sorts ``values``."""
    values.sort()
    mid = len(values) // 2
    if len(values) % 2:
        return values[mid]
    return (values[mid - 1] + values[mid]) / 2


def _is_superscript(font_size: float, baseline_y: float, line_baseline: float,
                    page_median_font: float) -> bool:
    """The superscript rule: small against the page and raised in its line."""
    return (font_size <= SUP_FONT_RATIO * page_median_font
            and line_baseline - baseline_y >= SUP_RISE_PT)


def _parse_page(page_elem, number: int,
                warnings: list[str]) -> tuple[tuple[Line, ...], int, int]:
    """The lines of one PAGE, each token built as its TOKEN is read, the
    number of elements skipped and the number of tokens built.

    A line's baselines and smallest font are gathered from the numbers
    just read.  The page's median font is known only once every TOKEN is
    read, so the tokens are built with ``sup_flag`` False and, after that,
    the few that the superscript rule flags are rebuilt.
    """
    lines = []
    fonts = []
    skipped = 0
    for text_elem in page_elem:
        if text_elem.tag != "TEXT":
            skipped += 1
            continue
        tokens = []
        baselines = []
        first = len(fonts)
        for tok_elem in text_elem:
            if tok_elem.tag != "TOKEN":
                skipped += 1
                continue
            attrib = tok_elem.attrib
            text = (tok_elem.text or "").strip()
            try:
                x = float(attrib["x"])
                y = float(attrib["y"])
                width = float(attrib["width"]) or 0.0
                height = float(attrib["height"]) or 0.0
                font_size = float(attrib["font-size"])
            except (KeyError, ValueError):
                valid = False
            else:
                # One finite sum stands for five finite values; a sum that
                # overflows only sends the token down the slow path.
                valid = (text and width >= 0 and height >= 0 and font_size > 0
                         and math.isfinite(x + y + width + height + font_size))
            if not valid:
                geometry = _token_geometry(tok_elem, text)
                if isinstance(geometry, str):
                    skipped += 1
                    warnings.append(f"page {number}: skipped TOKEN {text!r} "
                                    f"with {geometry}")
                    continue
                x, y, width, height, font_size = geometry
            # Both paths above reject every value Token() would, so the
            # token is built without running its checks again.
            tokens.append(tuple.__new__(Token, (
                text, number, x, y, width, height, font_size,
                attrib.get("bold") == "yes", attrib.get("italic") == "yes",
                attrib.get("font-name", ""), False)))
            baselines.append(y + height)
            fonts.append(font_size)
        if tokens:
            tokens.sort(key=attrgetter("x"))
            lines.append((tokens, _median(baselines), min(fonts[first:])))
    if not fonts:
        return (), skipped, 0
    median_font = _median(fonts)
    small = SUP_FONT_RATIO * median_font
    built = []
    for tokens, baseline, smallest in lines:
        if smallest <= small:
            for i, t in enumerate(tokens):
                if _is_superscript(t.font_size, t.y + t.height, baseline,
                                   median_font):
                    tokens[i] = t._replace(sup_flag=True)
        # The line holds at least one token, so it is built without
        # running Line's check again.
        built.append(tuple.__new__(Line, (tuple(tokens), baseline)))
    built.sort(key=itemgetter(1))
    return tuple(built), skipped, len(fonts)


def _root_children(data: bytes):
    """Each child element of the root, complete, in document order.

    The input is read a slice at a time.  The parser reports the root's
    start and then no further events: its events are switched off through
    ``_setevents``, the hook that ``XMLPullParser`` itself is built on.
    After each slice, every child of the root but the last, which may
    still be open, is yielded and dropped from the tree when the caller
    asks for the next one; the rest once the input ends.
    """
    source = BytesIO(data)
    parser = ET.XMLPullParser(events=("start",))
    root = None
    try:
        while chunk := source.read(16 * 1024):
            parser.feed(chunk)
            root = _drain_events(parser, root)
            if root is not None and len(root) > 1:
                done = root[:-1]
                del root[:-1]
                yield from done
                del done
        parser.close()
        # Expat may report the root's start tag only once the input ends.
        root = _drain_events(parser, root)
    except ET.ParseError as exc:
        raise RichXmlParseError(str(exc), _byte_offset(data, *exc.position)) \
            from exc
    yield from root


def _drain_events(parser, root):
    """Empty ``parser``'s event queue and return the root: ``root``, or the
    element of the first start event, after which the parser's events are
    switched off.  A parse error that ``feed`` queued is raised here."""
    for _event, elem in parser.read_events():
        if root is None:
            root = elem
            parser._parser._setevents(parser._events_queue, ())
    return root


def _byte_offset(data: bytes, line: int, column: int) -> int:
    """The offset in ``data`` of expat's 1-based ``line`` and 0-based
    ``column``.  Expat ends a line at LF, CR or CR LF, as
    ``bytes.splitlines`` does, and counts the column in characters, so the
    line's first ``column`` characters are measured in UTF-8 bytes; a byte
    that is not UTF-8 counts as one character."""
    lines = data.splitlines(keepends=True)
    start = sum(map(len, lines[:line - 1]))
    text = b"".join(lines[line - 1:line]).decode("utf-8", "surrogateescape")
    return start + len(text[:column].encode("utf-8", "surrogateescape"))


@gc_paused
def parse_rich_xml(data: bytes, *, dehyphenate: bool = False,
                   source_id: str = "") -> tuple[Document, IngestReport]:
    """Parse rich XML bytes into a Document plus an ingest report."""
    pages = []
    warnings: list[str] = []
    skipped = 0
    token_count = 0
    used: set[int] = set()
    for page_elem in _root_children(data):
        if page_elem.tag != "PAGE":
            skipped += 1
            continue
        raw_number = page_elem.get("number", str(len(pages) + 1))
        number = _page_number(raw_number)
        if number < 1 or number in used:
            number = max(used, default=0) + 1
            warnings.append(
                f"PAGE number {raw_number!r} is not a positive integer or "
                f"repeats an earlier page; renumbered {number}")
        used.add(number)
        width = _page_extent(page_elem, "width", 612.0, number, warnings)
        height = _page_extent(page_elem, "height", 792.0, number, warnings)
        lines, page_skipped, page_tokens = _parse_page(page_elem, number,
                                                       warnings)
        skipped += page_skipped
        token_count += page_tokens
        pages.append(Page(number, width, height, lines))
        page_elem.clear()

    report = IngestReport(token_count=token_count, page_count=len(pages),
                          skipped_elements=skipped, warnings=warnings)
    if dehyphenate:
        pages = [_dehyphenate_page(p) for p in pages]
    return Document(source_id=source_id, pages=tuple(pages)), report


def _dehyphenate_page(page: Page) -> Page:
    """Join a line-final token ending in '-' with the first token of the
    next line of its column: the next line below whose x-extent meets the
    hyphenated line's, so that on a two-column page the other column's
    line at the same height is passed over."""
    lines = list(page.lines)
    new_lines = []
    # A join changes or drops only a later line, which the loop reaches
    # as it is then.
    for i, line in enumerate(lines):
        last = line.tokens[-1]
        j = (_next_in_column(lines, i)
             if last.text.endswith("-") and len(last.text) > 1 else None)
        if j is not None:
            nxt = lines[j]
            joined = last._replace(text=last.text[:-1] + nxt.tokens[0].text)
            line = Line(tokens=line.tokens[:-1] + (joined,),
                        baseline_y=line.baseline_y)
            rest = nxt.tokens[1:]
            if rest:
                lines[j] = Line(tokens=rest, baseline_y=nxt.baseline_y)
            else:
                del lines[j]
        new_lines.append(line)
    return page._replace(lines=tuple(new_lines))


def _x_extent(line: Line) -> tuple[float, float]:
    last = line.tokens[-1]
    return line.tokens[0].x, last.x + last.width


def _next_in_column(lines: list[Line], i: int) -> int | None:
    """The index of the first line after ``lines[i]`` whose x-extent meets
    its own, or None."""
    left, right = _x_extent(lines[i])
    for j in range(i + 1, len(lines)):
        x0, x1 = _x_extent(lines[j])
        if x0 <= right and left <= x1:
            return j
    return None


def document_to_xml(doc: Document) -> bytes:
    """Serialize a Document back to the rich XML schema (round-trip support).

    Numbers are written rounded to 3 decimals, so ``parse_rich_xml`` gives
    the document back only when its values lie on that grid and it is in
    parsed form (tokens by x, lines by baseline, sup_flag by the rule);
    arbitrary floats do not round-trip.
    """
    root = ET.Element("DOCUMENT")
    for page in doc.pages:
        page_elem = ET.SubElement(root, "PAGE", {
            "number": str(page.number),
            "width": _fmt(page.width),
            "height": _fmt(page.height),
        })
        for line in page.lines:
            text_elem = ET.SubElement(page_elem, "TEXT")
            for tok in line.tokens:
                tok_elem = ET.SubElement(text_elem, "TOKEN", {
                    "x": _fmt(tok.x),
                    "y": _fmt(tok.y),
                    "width": _fmt(tok.width),
                    "height": _fmt(tok.height),
                    "font-size": _fmt(tok.font_size),
                    "bold": "yes" if tok.bold else "no",
                    "italic": "yes" if tok.italic else "no",
                    "font-name": tok.font_name,
                })
                tok_elem.text = tok.text
    return ET.tostring(root, encoding="utf-8", xml_declaration=True)


def _fmt(value: float) -> str:
    return repr(round(float(value), 3))
