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
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field, replace
from xml.etree import ElementTree as ET

from .model import Document, Line, Page, Token

# Superscript detection: a token is superscript when it is clearly smaller
# than the page's body text and its baseline sits above the line's dominant
# baseline.
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
        lines = []
        for text_elem in page_elem:
            if text_elem.tag != "TEXT":
                report.skipped_elements += 1
                continue
            tokens = []
            for tok_elem in text_elem:
                if tok_elem.tag != "TOKEN":
                    report.skipped_elements += 1
                    continue
                x = _get_float(tok_elem, "x")
                y = _get_float(tok_elem, "y")
                font_size = _get_float(tok_elem, "font-size")
                text = (tok_elem.text or "").strip()
                tok_width = _get_float(tok_elem, "width") or 0.0
                tok_height = _get_float(tok_elem, "height") or 0.0
                if x is None or y is None or font_size is None or not text:
                    problem = "missing attributes"
                elif not all(map(math.isfinite,
                                 (x, y, tok_width, tok_height, font_size))):
                    problem = "a non-finite coordinate or size"
                elif tok_width < 0 or tok_height < 0 or font_size <= 0:
                    problem = "a negative extent or non-positive font-size"
                else:
                    problem = ""
                if problem:
                    report.skipped_elements += 1
                    report.warnings.append(
                        f"page {number}: skipped TOKEN {text!r} with {problem}")
                    continue
                tokens.append(Token(
                    text=text,
                    page_no=number,
                    x=x,
                    y=y,
                    width=tok_width,
                    height=tok_height,
                    font_size=font_size,
                    bold=tok_elem.get("bold") == "yes",
                    italic=tok_elem.get("italic") == "yes",
                    font_name=tok_elem.get("font-name", ""),
                ))
            if not tokens:
                continue
            tokens.sort(key=lambda t: t.x)
            baseline = statistics.median(t.baseline_y for t in tokens)
            lines.append(Line(tokens=tuple(tokens), baseline_y=baseline))
            report.token_count += len(tokens)
        lines.sort(key=lambda l: l.baseline_y)
        pages.append(Page(number=number, width=width, height=height,
                          lines=tuple(lines)))
        report.page_count += 1

    pages = [_flag_superscripts(p) for p in pages]
    if dehyphenate:
        pages = [_dehyphenate_page(p) for p in pages]
    return Document(source_id=source_id, pages=tuple(pages)), report


def detect_superscript(line: Line, page_median_font: float) -> list[bool]:
    """Per-token superscript flags for one line.

    A token is flagged when both its font is at most SUP_FONT_RATIO of the
    page median and its baseline sits at least SUP_RISE_PT above the line's
    dominant baseline.
    """
    flags = []
    for tok in line.tokens:
        small = tok.font_size <= SUP_FONT_RATIO * page_median_font
        raised = (line.baseline_y - tok.baseline_y) >= SUP_RISE_PT
        flags.append(small and raised)
    return flags


def _flag_superscripts(page: Page) -> Page:
    all_fonts = [t.font_size for t in page.tokens()]
    if not all_fonts:
        return page
    median_font = statistics.median(all_fonts)
    new_lines = []
    for line in page.lines:
        flags = detect_superscript(line, median_font)
        if any(flags):
            toks = tuple(replace(t, sup_flag=f) for t, f in zip(line.tokens, flags))
            line = Line(tokens=toks, baseline_y=line.baseline_y)
        new_lines.append(line)
    return Page(number=page.number, width=page.width, height=page.height,
                lines=tuple(new_lines))


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
            joined = replace(last, text=last.text[:-1] + nxt.tokens[0].text)
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
    """Serialize a Document back to the rich XML schema (round-trip support)."""
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
