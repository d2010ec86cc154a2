"""Section headings and body mapping, URLs, footnotes, figure/table headings.

A ``Section`` holds text, not chunks: its ``paragraphs`` are its body
chunks' texts in order, so no section keeps a document's chunks or tokens
alive once extraction returns.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import islice

from .context import DocumentContext
from .crf import CrfModel, viterbi_decode
from .features import (SUPERSCRIPT_TO_ASCII, enumeration_kind,
                       footnote_chunk_features, heading_chunk_features,
                       is_marker)
from .model import Chunk

HEADING_LABEL = "HEADING"
FOOTNOTE_LABEL = "FOOTNOTE"

FIGURE_KEYWORDS = ("FIGURE", "Figure", "FIG.", "Fig.")
TABLE_KEYWORDS = ("Table", "TABLE")

# URL pattern: scheme plus one or more characters from the letter, digit,
# "$"-to-"_" range, bang/star/paren/comma classes, or a percent escape.
URL_PATTERN = re.compile(
    r"https?://(?:[a-zA-Z0-9]|[$-_@.&+]|[!*(),]|%[0-9a-fA-F]{2})+")

ROMAN_VALUES = {"I": 1, "V": 5, "X": 10, "L": 50, "C": 100, "D": 500, "M": 1000}


@dataclass(frozen=True)
class SectionHeading:
    """A heading chunk, its parsed enumeration if it has one, and its level."""

    text: str
    enumeration: tuple[str, str] | None  # (kind, value) or None
    chunk_index: int
    level: int = 1


@dataclass(frozen=True)
class Section:
    """A heading, or None for the text before the first one, and the
    paragraphs under it."""

    heading: SectionHeading | None
    paragraphs: tuple[str, ...]  # the body chunks' texts, in order

    @property
    def body_text(self) -> str:
        return " ".join(self.paragraphs)


@dataclass(frozen=True)
class Footnote:
    """A footnote's marker, text and page number."""

    marker: str | None
    text: str
    page_no: int


@dataclass(frozen=True)
class CaptionHeading:
    """A figure or table caption: its label and its text."""

    kind: str  # "figure" or "table"
    label: str
    text: str
    source_text: str = ""  # heading text with the original label tokens

    @property
    def full(self) -> str:
        return self.source_text or f"{self.label} {self.text}".strip()


def _roman_to_int(s: str) -> int:
    total = 0
    for ch, nxt in zip(s, s[1:] + " "):
        v = ROMAN_VALUES[ch]
        total += -v if nxt in ROMAN_VALUES and ROMAN_VALUES[nxt] > v else v
    return total


def parse_enumeration(first_token: str):
    """(kind, value, level) of a heading's leading token, or None."""
    kind = enumeration_kind(first_token)
    if kind == "none":
        return None
    stripped = first_token.rstrip(".")
    if kind == "arabic":
        parts = stripped.split(".")
        return "arabic", stripped, len(parts)
    if kind == "roman":
        return "roman", str(_roman_to_int(stripped)), 1
    parts = stripped.split(".")
    return "alpha", stripped, len(parts)


def heading_sequences(ctx: DocumentContext):
    """The heading labeler's (chunks, features) sequences: every chunk of
    the document, or none without chunks."""
    if not ctx.chunks:
        return []
    return [(ctx.chunks, heading_chunk_features(ctx.chunks, ctx.body_font))]


def label_headings(ctx: DocumentContext,
                   heading_model: CrfModel) -> list[SectionHeading]:
    """Chunks the heading labeler marks, with parsed enumeration and level.

    ``chunk_index`` counts in ``ctx.chunks``.
    """
    out = []
    for chunks, feats in heading_sequences(ctx):
        labels = viterbi_decode(heading_model, feats)
        for i, (chunk, lab) in enumerate(zip(chunks, labels)):
            if lab != HEADING_LABEL:
                continue
            parsed = parse_enumeration(chunk.tokens[0].text)
            out.append(SectionHeading(
                text=chunk.text, enumeration=parsed and parsed[:2],
                chunk_index=i, level=parsed[2] if parsed else 1))
    return out


def map_sections(chunks: list[Chunk],
                 headings: list[SectionHeading]) -> list[Section]:
    """Assign every non-heading chunk's text to the section opened by the
    last heading; the chunks before the first heading open a headless one."""
    heading_at = {h.chunk_index: h for h in headings}
    sections: list[Section] = []
    current: SectionHeading | None = None
    body: list[str] = []
    for i, chunk in enumerate(chunks):
        if i in heading_at:
            sections.append(Section(heading=current, paragraphs=tuple(body)))
            current = heading_at[i]
            body = []
        else:
            body.append(chunk.text)
    sections.append(Section(heading=current, paragraphs=tuple(body)))
    return sections


def section_chunks(chunks: list[Chunk], headings: list[SectionHeading],
                   section: Section) -> list[Chunk]:
    """The chunks whose texts are a headed section's paragraphs, for a
    section of ``map_sections(chunks, headings)`` or a run of consecutive
    ones folded under the first one's heading: as many non-heading chunks
    as it has paragraphs, from its heading on."""
    heading_at = {h.chunk_index for h in headings}
    start = section.heading.chunk_index + 1
    body = (chunk for i, chunk in enumerate(chunks[start:], start)
            if i not in heading_at)
    return list(islice(body, len(section.paragraphs)))


def extract_urls(text: str) -> list[str]:
    """Non-overlapping URL matches with trailing punctuation stripped."""
    out = []
    for m in URL_PATTERN.finditer(text):
        url = m.group(0)
        while url and url[-1] in ".,":
            url = url[:-1]
        while url.endswith(")") and url.count(")") > url.count("("):
            url = url[:-1]
        while url and url[-1] in ".,":
            url = url[:-1]
        if url:
            out.append(url)
    return out


def footnote_sequences(ctx: DocumentContext):
    """The footnote labeler's (page, chunks, features) sequences: one per
    page that has chunks, over that page's chunks."""
    return [(pc.page, pc.chunks,
             footnote_chunk_features(pc.chunks, pc.page, pc.body_font))
            for pc in ctx.pages if pc.chunks]


def extract_footnotes(ctx: DocumentContext,
                      footnote_model: CrfModel) -> list[Footnote]:
    """Footnote-labeled chunks from the lower half of each page."""
    out = []
    for page, chunks, feats in footnote_sequences(ctx):
        labels = viterbi_decode(footnote_model, feats)
        for chunk, lab in zip(chunks, labels):
            if lab != FOOTNOTE_LABEL:
                continue
            if chunk.bbox[1] <= page.height / 2:
                continue
            out.extend(_split_footnote_chunk(chunk, page.number))
    return out


def _split_footnote_chunk(chunk: Chunk, page_no: int) -> list[Footnote]:
    """One Footnote per raised marker; a markerless chunk yields one note."""
    groups: list[tuple[str | None, list]] = []
    for tok in chunk.tokens:
        if is_marker(tok) or not groups:
            marker = None
            body: list = []
            if is_marker(tok):
                marker = tok.text.translate(SUPERSCRIPT_TO_ASCII)
            else:
                body.append(tok)
            groups.append((marker, body))
        else:
            groups[-1][1].append(tok)
    return [Footnote(marker=marker, text=" ".join(t.text for t in body),
                     page_no=page_no)
            for marker, body in groups if body]


def extract_caption_headings(chunks: list[Chunk]) -> list[CaptionHeading]:
    """Chunks starting with a figure/table keyword, classified by kind."""
    out = []
    for chunk in chunks:
        lead = chunk.tokens[0].text
        if lead in FIGURE_KEYWORDS:
            kind = "figure"
        elif lead in TABLE_KEYWORDS:
            kind = "table"
        else:
            continue
        tokens = list(chunk.tokens)
        label_toks = [tokens[0]]
        rest = tokens[1:]
        if rest and re.match(r"^\d+[.:]?$", rest[0].text):
            label_toks.append(rest[0])
            rest = rest[1:]
        if kind == "table" and any(t.bold for t in rest) and not all(t.bold for t in rest):
            # Table chunks often mix caption and cell text; keep the bold part.
            rest = [t for t in rest if t.bold]
        label = " ".join(t.text.rstrip(".:") for t in label_toks)
        source = " ".join(t.text for t in label_toks + list(rest))
        out.append(CaptionHeading(kind=kind, label=label,
                                  text=" ".join(t.text for t in rest),
                                  source_text=source))
    return out
