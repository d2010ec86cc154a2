r"""Reference splitting, citation-instance extraction, citation-reference links.

The sixteen citation writing styles are coded as regular expressions and
applied in a fixed, specific-before-general order; each match consumes its
span so later, more general styles cannot re-claim it.

An author-led style starts with a capital that no word character precedes.
That is ``\b[A-Z]``, but it is written ``[A-Z](?<!\w[A-Z])``: ``re`` can
jump straight to the capitals of a text only when a pattern starts with a
character class, and tries every position when it starts with ``\b``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .features import strip_enumeration
from .structure import Section

YEAR_RANGE = (1500, 2100)

# An author name, and the leading author of an author-led style: a name
# with no word character before it (see the module docstring).
_AN = r"[A-Z][a-zA-Z]*"
_LEAD = r"[A-Z](?<!\w[A-Z])[a-zA-Z]*"

# (style_id, pattern) in application order.  Styles 1-3 and 16 are indexed;
# the rest are author-year.  Style rows follow the observed format strings:
#  1 <AN> et al. [<I>]          2 <AN> [<I>]
#  3 <AN> et al.<spaces>[<I>]   4 <AN> et al., <Y><suffix>
#  5 <AN> et al., <Y>           6 <AN> et al., (<Y>)
#  7 <AN> et al. <Y>            8 <AN> et al. (<Y>)
#  9 <AN> and <AN> (<Y>)       10 <AN> & <AN> (<Y>)
# 11 <AN> and <AN>, <Y>        12 <AN> & <AN>, <Y>
# 13 <AN>, <Y>                 14 <AN> <Y>
# 15 <AN> (<Y><suffix>)        16 [<I>, <I>, ...]
CITATION_STYLES: list[tuple[int, re.Pattern]] = [
    (1, re.compile(rf"{_LEAD} et al\. \[(\d{{1,3}})\]")),
    (3, re.compile(rf"{_LEAD} et al\.\s*\[(\d{{1,3}})\]")),
    (2, re.compile(rf"{_LEAD} \[(\d{{1,3}})\]")),
    (4, re.compile(rf"{_LEAD} et al\., ?(\d{{4}})([a-z])(?![a-z])")),
    (6, re.compile(rf"{_LEAD} et al\., \((\d{{4}})\)")),
    (5, re.compile(rf"{_LEAD} et al\., (\d{{4}})(?![a-z\d])")),
    (8, re.compile(rf"{_LEAD} et al\. \((\d{{4}})\)")),
    (7, re.compile(rf"{_LEAD} et al\. (\d{{4}})(?![a-z\d])")),
    (9, re.compile(rf"{_LEAD} and {_AN} \((\d{{4}})\)")),
    (10, re.compile(rf"{_LEAD} & {_AN} \((\d{{4}})\)")),
    (11, re.compile(rf"{_LEAD} and {_AN}, (\d{{4}})(?![a-z\d])")),
    (12, re.compile(rf"{_LEAD} & {_AN}, (\d{{4}})(?![a-z\d])")),
    (13, re.compile(rf"{_LEAD}, (\d{{4}})([a-z])?(?!\d)")),
    (14, re.compile(rf"{_LEAD} (\d{{4}})(?![a-z\d])")),
    (15, re.compile(rf"{_LEAD},? ?\((\d{{4}})([a-z]*)\)")),
    (16, re.compile(r"\[(\d{1,3}(?:\s*,\s*\d{1,3})*)\]")),
]

INDEXED_STYLES = {1, 2, 3, 16}

_NOT_AUTHOR_WORDS = {"et", "al", "and"}


class NoReferenceSectionError(ValueError):
    pass


@dataclass(frozen=True)
class Reference:
    index: int | None
    raw_text: str
    first_author_last: str | None = None
    year: int | None = None


@dataclass(frozen=True)
class CitationInstance:
    style_id: int
    matched_text: str
    authors: tuple[str, ...]
    year: int | None
    indices: tuple[int, ...]
    char_span: tuple[int, int]
    year_suffix: str = ""
    section_heading: str | None = None  # owning section, filled by the pipeline


@dataclass(frozen=True)
class CitationLink:
    citation: CitationInstance
    reference: Reference | None
    method: str  # "index", "author-year", or "unresolved"
    ambiguous: bool = False


def locate_reference_section(sections: list[Section]):
    """The References/Bibliography section plus trailing chunks, and the rest."""
    ref_idx = None
    for i, section in enumerate(sections):
        if section.heading is None:
            continue
        head = strip_enumeration(section.heading.text).lower()
        if head.startswith("references") or head.startswith("bibliography"):
            ref_idx = i
            break
    if ref_idx is None:
        raise NoReferenceSectionError("no reference section")

    ref_section = sections[ref_idx]
    extra = []
    remainder = sections[:ref_idx]
    folding = True
    for section in sections[ref_idx + 1:]:
        head = "" if section.heading is None else strip_enumeration(
            section.heading.text).lower()
        if head.startswith("appendix"):
            folding = False
        if folding:
            extra.extend(section.body_chunks)
        else:
            remainder.append(section)
    combined = Section(heading=ref_section.heading,
                       body_chunks=ref_section.body_chunks + tuple(extra))
    return combined, remainder


_BRACKET_START = re.compile(r"^\[(\d{1,3})\]\s*")
_NUMBER_START = re.compile(r"^(\d{1,3})\.\s+")
_YEAR_TOKEN = re.compile(r"\b(1[5-9]\d\d|20\d\d|2100)\b")
_CAP_TOKEN = re.compile(r"\b[A-Z][A-Za-z'\-]*\b")


def _finish(index, text_parts) -> Reference:
    raw = " ".join(text_parts).strip()
    year = None
    m = _YEAR_TOKEN.search(raw)
    if m:
        year = int(m.group(0))
    first_author = None
    m = _CAP_TOKEN.search(raw)
    if m:
        first_author = m.group(0)
    return Reference(index=index, raw_text=raw,
                     first_author_last=first_author, year=year)


def split_references(ref_text_lines) -> list[Reference]:
    """Split (text, x-origin) reference-section lines into references.

    Rule cascade: bracketed "[n]" starts, then increasing "n." starts, then
    the hanging-indent heuristic on line x-origins.  When no line is
    indented, every margin line starts its own reference.
    """
    lines = [(t, x) for t, x in ref_text_lines if t.strip()]
    if not lines:
        raise ValueError("empty reference line list")

    refs: list[Reference] = []
    if any(_BRACKET_START.match(t) for t, _ in lines):
        index, parts = None, []
        for text, _ in lines:
            m = _BRACKET_START.match(text)
            if m:
                if parts:
                    refs.append(_finish(index, parts))
                index, parts = int(m.group(1)), [text[m.end():]]
            else:
                parts.append(text)
        refs.append(_finish(index, parts))
        return refs

    numbered = [(i, _NUMBER_START.match(t)) for i, (t, _) in enumerate(lines)]
    starts = [(i, int(m.group(1)), m) for i, m in numbered if m]
    if starts and all(b[1] > a[1] for a, b in zip(starts, starts[1:])):
        index, parts = None, []
        start_at = {i: (n, m) for i, n, m in starts}
        for i, (text, _) in enumerate(lines):
            if i in start_at:
                if parts:
                    refs.append(_finish(index, parts))
                n, m = start_at[i]
                index, parts = n, [text[m.end():]]
            else:
                parts.append(text)
        refs.append(_finish(index, parts))
        return refs

    margin = min(x for _, x in lines)
    parts: list[str] = []
    for text, x in lines:
        at_margin = x <= margin + 2.0
        if at_margin and parts:
            refs.append(_finish(None, parts))
            parts = []
        parts.append(text)
    refs.append(_finish(None, parts))
    return refs


def extract_citations(body_text: str) -> list[CitationInstance]:
    """All citation instances in a text, non-overlapping, sorted by span."""
    claimed: list[tuple[int, int]] = []
    found: list[CitationInstance] = []
    for style_id, pattern in CITATION_STYLES:
        for m in pattern.finditer(body_text):
            span = m.span()
            if any(span[0] < e and s < span[1] for s, e in claimed):
                continue
            claimed.append(span)
            found.append(_instance(style_id, m))
    found.sort(key=lambda c: c.char_span)
    return found


def _instance(style_id: int, m) -> CitationInstance:
    text = m.group(0)
    authors = tuple(w for w in re.findall(r"[A-Z][a-zA-Z]*", text)
                    if w.lower() not in _NOT_AUTHOR_WORDS)
    year = None
    suffix = ""
    indices: tuple[int, ...] = ()
    if style_id == 16:
        indices = tuple(int(n) for n in re.findall(r"\d{1,3}", m.group(1)))
    elif style_id in INDEXED_STYLES:
        indices = (int(m.group(1)),)
    else:
        year = int(m.group(1))
        if m.lastindex and m.lastindex >= 2 and m.group(2):
            suffix = m.group(2)
    return CitationInstance(style_id=style_id, matched_text=text,
                            authors=authors, year=year, indices=indices,
                            char_span=m.span(), year_suffix=suffix)


def map_citations_to_references(citations: list[CitationInstance],
                                references: list[Reference]) -> list[CitationLink]:
    """Link each citation by index, else by (surname, year), else unresolved."""
    by_index = {}
    for ref in references:
        if ref.index is not None and ref.index not in by_index:
            by_index[ref.index] = ref
    links: list[CitationLink] = []
    for cit in citations:
        if cit.indices:
            for idx in cit.indices:
                ref = by_index.get(idx)
                links.append(CitationLink(
                    citation=cit, reference=ref,
                    method="index" if ref is not None else "unresolved"))
            continue
        links.append(_author_year_link(cit, references))
    return links


def _author_year_link(cit: CitationInstance,
                      references: list[Reference]) -> CitationLink:
    if cit.year is None or not cit.authors:
        return CitationLink(citation=cit, reference=None, method="unresolved")
    matches = []
    for ref in references:
        if ref.year != cit.year:
            continue
        m = re.search(str(cit.year), ref.raw_text)
        prefix = ref.raw_text[: m.start()] if m else ref.raw_text
        if any(re.search(rf"\b{re.escape(a)}\b", prefix, re.IGNORECASE)
               for a in cit.authors):
            matches.append(ref)
    if not matches:
        return CitationLink(citation=cit, reference=None, method="unresolved")
    return CitationLink(citation=cit, reference=matches[0],
                        method="author-year", ambiguous=len(matches) > 1)
