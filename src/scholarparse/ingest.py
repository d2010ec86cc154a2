"""Parsing of token-level rich XML files into Documents.

Expected schema: root DOCUMENT, PAGE @number @width @height, TEXT (one per
visual line), TOKEN @x @y @width @height @font-size @bold @italic @font-name
with the word as text content.  bold/italic are literal "yes"/"no".  Unknown
elements are skipped and counted.  A TOKEN missing x, y or font-size, or
with a non-finite coordinate or size, a negative width or height, or a
font-size that is not positive, is skipped with a warning, never a fatal
error.  A PAGE number that is not a positive integer, or that repeats an
earlier page's, becomes one more than the largest number used so far, with
a warning, so that page numbers identify pages.  A PAGE width or height that
is not a finite positive number becomes US Letter's 612 or 792, with a
warning.

Each page is parsed in one pass over its TOKENs, and each Token is built
as its TOKEN is read.  A TOKEN's five numbers are read together; only a
TOKEN that fails that read, or whose values are out of range, is read again
field by field to name what is wrong.  A missing, zero or unparseable width
or height is 0.0.  A line's baseline is the median of its tokens'
baselines.  Once a PAGE is read, its subtree is freed: the tree holds
objects the cyclic garbage collector tracks, about two per TOKEN, and a
tree kept whole to the end of the parse sets off collections that walk it
again and again.

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
from dataclasses import dataclass, field
from operator import attrgetter
from xml.etree import ElementTree as ET

from .model import Document, Line, Page, Token

# Superscript detection (see the module docstring).
SUP_FONT_RATIO = 0.8
SUP_RISE_PT = 1.5


class RichXmlParseError(ValueError):
    """Malformed XML input; carries the approximate byte offset."""

    def __init__(self, message: str, byte_offset: int):
        super().__init__(f"{message} (byte offset {byte_offset})")
        self.byte_offset = byte_offset


@dataclass
class IngestReport:
    token_count: int = 0
    page_count: int = 0
    skipped_elements: int = 0
    warnings: list[str] = field(default_factory=list)


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
                 report: IngestReport) -> float:
    """A PAGE width or height; a missing one is the US Letter default, and
    so, with a warning, is one that is not a finite positive number."""
    raw = page_elem.get(name)
    if raw is None:
        return default
    value = _get_float(page_elem, name)
    if value is not None and math.isfinite(value) and value > 0:
        return value
    report.warnings.append(f"page {number}: PAGE {name} {raw!r} is not a "
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
    if x is None or y is None or font_size is None or not text:
        return "missing attributes"
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


def _parse_page(page_elem, number: int, report: IngestReport) -> tuple[Line, ...]:
    """The lines of one PAGE, each token built as its TOKEN is read.

    The page's median font is known only once every TOKEN is read, so the
    tokens are built with ``sup_flag`` False and, after that, the few that
    the superscript rule flags are rebuilt.
    """
    lines = []
    fonts = []
    for text_elem in page_elem:
        if text_elem.tag != "TEXT":
            report.skipped_elements += 1
            continue
        tokens = []
        for tok_elem in text_elem:
            if tok_elem.tag != "TOKEN":
                report.skipped_elements += 1
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
                    report.skipped_elements += 1
                    report.warnings.append(f"page {number}: skipped TOKEN "
                                           f"{text!r} with {geometry}")
                    continue
                x, y, width, height, font_size = geometry
            # Both paths above reject every value Token() would, so the
            # token is built without running its checks again.
            tokens.append(tuple.__new__(Token, (
                text, number, x, y, width, height, font_size,
                attrib.get("bold") == "yes", attrib.get("italic") == "yes",
                attrib.get("font-name", ""), False)))
            fonts.append(font_size)
        if tokens:
            tokens.sort(key=attrgetter("x"))
            lines.append(tokens)
            report.token_count += len(tokens)
    if not fonts:
        return ()
    median_font = _median(fonts)
    small = SUP_FONT_RATIO * median_font
    built = []
    for tokens in lines:
        baseline = _median([t.y + t.height for t in tokens])
        if min([t.font_size for t in tokens]) <= small:
            for i, t in enumerate(tokens):
                if _is_superscript(t.font_size, t.y + t.height, baseline,
                                   median_font):
                    tokens[i] = t._replace(sup_flag=True)
        built.append(Line(tokens=tuple(tokens), baseline_y=baseline))
    built.sort(key=lambda l: l.baseline_y)
    return tuple(built)


def parse_rich_xml(data: bytes, *, dehyphenate: bool = False,
                   source_id: str = "") -> tuple[Document, IngestReport]:
    """Parse rich XML bytes into a Document plus an ingest report."""
    report = IngestReport()
    try:
        root = ET.fromstring(data)
    except ET.ParseError as exc:
        line, col = exc.position
        offset = sum(len(l) + 1 for l in data.split(b"\n")[: line - 1]) + col
        raise RichXmlParseError(str(exc), offset) from exc

    pages = []
    used: set[int] = set()
    for page_elem in root:
        if page_elem.tag != "PAGE":
            report.skipped_elements += 1
            continue
        raw_number = page_elem.get("number", str(len(pages) + 1))
        number = _page_number(raw_number)
        if number < 1 or number in used:
            number = max(used, default=0) + 1
            report.warnings.append(
                f"PAGE number {raw_number!r} is not a positive integer or "
                f"repeats an earlier page; renumbered {number}")
        used.add(number)
        width = _page_extent(page_elem, "width", 612.0, number, report)
        height = _page_extent(page_elem, "height", 792.0, number, report)
        pages.append(Page(number=number, width=width, height=height,
                          lines=_parse_page(page_elem, number, report)))
        report.page_count += 1
        # The tree holds about two objects per TOKEN that the cyclic garbage
        # collector tracks; freed page by page, they stop setting off
        # collections and are not walked again by the ones that run.
        page_elem.clear()

    if dehyphenate:
        pages = [_dehyphenate_page(p) for p in pages]
    return Document(source_id=source_id, pages=tuple(pages)), report


def _dehyphenate_page(page: Page) -> Page:
    """Join a line-final token ending in '-' with the next line's first token."""
    lines = list(page.lines)
    new_lines = []
    i = 0
    while i < len(lines):
        line = lines[i]
        last = line.tokens[-1]
        if last.text.endswith("-") and len(last.text) > 1 and i + 1 < len(lines):
            nxt = lines[i + 1]
            joined = last._replace(text=last.text[:-1] + nxt.tokens[0].text)
            new_lines.append(Line(tokens=line.tokens[:-1] + (joined,),
                                  baseline_y=line.baseline_y))
            rest = nxt.tokens[1:]
            if rest:
                lines[i + 1] = Line(tokens=rest, baseline_y=nxt.baseline_y)
            else:
                del lines[i + 1]
            i += 1
            continue
        new_lines.append(line)
        i += 1
    return Page(number=page.number, width=page.width, height=page.height,
                lines=tuple(new_lines))


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
