"""Section headings and body mapping, URLs, footnotes, figure/table headings.

A ``Section`` holds text, not chunks: its ``paragraphs`` are its body
chunks' texts in order, so no section keeps a document's chunks or tokens
alive once extraction returns.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .context import DocumentContext
from .crf import CrfModel, viterbi_decode
from .features import (LABELING_TASKS, SUPERSCRIPT_TO_ASCII,
                       footnote_chunk_features, heading_chunk_features,
                       is_marker)
from .model import Chunk

HEADING_LABEL = LABELING_TASKS["heading"].labels[1]
FOOTNOTE_LABEL = LABELING_TASKS["footnote"].labels[1]

FIGURE_KEYWORDS = ("FIGURE", "Figure", "FIG.", "Fig.")
TABLE_KEYWORDS = ("Table", "TABLE")

# URL pattern: scheme plus one or more characters from the letter, digit,
# "$"-to-"_" range, bang/star/paren/comma classes, or a percent escape.
URL_PATTERN = re.compile(
    r"https?://(?:[a-zA-Z0-9]|[$-_@.&+]|[!*(),]|%[0-9a-fA-F]{2})+")


class SectionHeading(NamedTuple):
    """A heading chunk's text, enumeration included, and its index among
    the document's chunks."""

    text: str
    chunk_index: int


class Section(NamedTuple):
    """A heading, or None for the text before the first one, and the
    paragraphs under it."""

    heading: SectionHeading | None
    paragraphs: tuple[str, ...]  # the body chunks' texts, in order

    @property
    def body_text(self) -> str:
        return " ".join(self.paragraphs)


class Footnote(NamedTuple):
    """A footnote's marker, text and page number."""

    marker: str | None
    text: str
    page_no: int


class CaptionHeading(NamedTuple):
    """A figure or table caption: its kind and its text, label included as
    read ("Fig. 3: overview")."""

    kind: str  # "figure" or "table"
    text: str


def heading_sequences(ctx: DocumentContext):
    """The heading labeler's (chunks, features) sequences: every chunk of
    the document, or none without chunks."""
    if not ctx.chunks:
        return []
    return [(ctx.chunks, heading_chunk_features(ctx.chunks, ctx.body_font))]


def label_headings(ctx: DocumentContext,
                   heading_model: CrfModel) -> list[SectionHeading]:
    """Chunks the heading labeler marks; ``chunk_index`` counts in
    ``ctx.chunks``."""
    out = []
    for chunks, feats in heading_sequences(ctx):
        labels = viterbi_decode(heading_model, feats)
        out.extend(SectionHeading(chunk.text, i)
                   for i, (chunk, lab) in enumerate(zip(chunks, labels))
                   if lab == HEADING_LABEL)
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
        out.append(CaptionHeading(
            kind=kind, text=" ".join(t.text for t in label_toks + rest)))
    return out
