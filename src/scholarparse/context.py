"""The per-document view every extraction stage and training builder reads.

A document is chunked and its body font sizes are estimated once, here;
extractors and the training-set builders take the resulting context instead
of re-deriving chunks or fonts for themselves, so decoding and training see
the same values.

Ingest gives every page a unique number, so grouping chunks by ``page_no``
recovers each page's chunks, and the first page's chunks open the chunk
order: a token's index among the first page's tokens is its index among the
document's.
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple

from .chunker import chunk_document
from .features import font_counts, modal_font
from .model import Chunk, Document, Page


class PageContext(NamedTuple):
    """One page with its chunks and its own body font size."""

    page: Page
    chunks: tuple[Chunk, ...]  # the page's chunks in reading order
    body_font: float  # body font size of this page alone


class DocumentContext(NamedTuple):
    """What every stage reads of one document; made by build_context."""

    chunks: tuple[Chunk, ...]  # all chunks in reading order
    body_font: float  # body font size of the whole document
    pages: tuple[PageContext, ...]  # one per page, in document order
    token_count: int  # tokens over all chunks

    @property
    def first_page_chunks(self) -> tuple[Chunk, ...]:
        """Chunks of the document's first page, whatever its number."""
        return self.pages[0].chunks if self.pages else ()


def build_context(doc: Document) -> DocumentContext:
    """Chunk ``doc`` and estimate its body fonts, once: each page's font
    sizes are counted once, and the document's counts are their sum."""
    chunks = tuple(chunk_document(doc))
    by_page: dict[int, list[Chunk]] = {}
    for chunk in chunks:
        by_page.setdefault(chunk.page_no, []).append(chunk)
    doc_counts: Counter = Counter()
    pages = []
    for page in doc.pages:
        counts = font_counts(page)
        doc_counts.update(counts)
        pages.append(PageContext(page=page,
                                 chunks=tuple(by_page.get(page.number, ())),
                                 body_font=modal_font(counts)))
    return DocumentContext(chunks=chunks, body_font=modal_font(doc_counts),
                           pages=tuple(pages),
                           token_count=sum(len(c.tokens) for c in chunks))
