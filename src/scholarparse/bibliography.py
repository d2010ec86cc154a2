r"""Reference splitting, citation-instance extraction, citation-reference links.

The sixteen citation writing styles are coded as regular expressions and
applied in a fixed, specific-before-general order; each match consumes its
span so later, more general styles cannot re-claim it.

An author-led style starts with a capital that no word character precedes.
That is ``\b[A-Z]``, but it is written ``[A-Z](?<!\w[A-Z])``: ``re`` can
jump straight to the capitals of a text only when a pattern starts with a
character class, and tries every position when it starts with ``\b``.

Fifteen styles are author-led: ``_LEAD``, then a tail that starts with one
of ``_TAIL_STARTS``.  A text is scanned once for ``_CANDIDATE``, a leading
name followed by one of those starts, and each author-led style tries
``pattern.match`` only at the candidates, from its own last match end on.
That gives the matches ``finditer`` gives, because a style can match only
where ``_CANDIDATE`` matches, and the one scan passes over a start only
inside a name it has taken.  While every name letter is a word character
there is no such start.  Were one not (an apostrophe), a style that matches
at a start inside a name would also match at the name's first capital,
which comes first; and no earlier match of the style ends inside a name,
since each ends at a bracket, a parenthesis, a digit or a letter after a
digit.  Style 16 starts with a bracket and keeps its own ``finditer``.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .features import NAME_CAPITALS, NAME_LETTERS, heading_key
from .structure import Section

# An author name, and the leading author of an author-led style: a name
# with no word character before it (see the module docstring).
_AN = rf"[{NAME_CAPITALS}][{NAME_LETTERS}]*"
_LEAD = rf"[{NAME_CAPITALS}](?<!\w[{NAME_CAPITALS}])[{NAME_LETTERS}]*"

# (style_id, literal, pattern) in application order.  Every match of a
# style contains its literal, so a text without the literal is not scanned
# for that style.  Styles 1-3 and 16 are indexed; the rest are author-year.
# Style rows follow the observed format strings:
#  1 <AN> et al. [<I>]          2 <AN> [<I>]
#  3 <AN> et al.<spaces>[<I>]   4 <AN> et al., <Y><suffix>
#  5 <AN> et al., <Y>           6 <AN> et al., (<Y>)
#  7 <AN> et al. <Y>            8 <AN> et al. (<Y>)
#  9 <AN> and <AN> (<Y>)       10 <AN> & <AN> (<Y>)
# 11 <AN> and <AN>, <Y>        12 <AN> & <AN>, <Y>
# 13 <AN>, <Y>                 14 <AN> <Y>
# 15 <AN> (<Y><suffix>)        16 [<I>, <I>, ...]
CITATION_STYLES: list[tuple[int, str, re.Pattern]] = [
    (1, " et al. [", re.compile(rf"{_LEAD} et al\. \[(\d{{1,3}})\]")),
    (3, " et al.", re.compile(rf"{_LEAD} et al\.\s*\[(\d{{1,3}})\]")),
    (2, " [", re.compile(rf"{_LEAD} \[(\d{{1,3}})\]")),
    (4, " et al.,", re.compile(rf"{_LEAD} et al\., ?(\d{{4}})([a-z])(?![a-z])")),
    (6, " et al., (", re.compile(rf"{_LEAD} et al\., \((\d{{4}})\)")),
    (5, " et al., ", re.compile(rf"{_LEAD} et al\., (\d{{4}})(?![a-z\d])")),
    (8, " et al. (", re.compile(rf"{_LEAD} et al\. \((\d{{4}})\)")),
    (7, " et al. ", re.compile(rf"{_LEAD} et al\. (\d{{4}})(?![a-z\d])")),
    (9, " and ", re.compile(rf"{_LEAD} and {_AN} \((\d{{4}})\)")),
    (10, " & ", re.compile(rf"{_LEAD} & {_AN} \((\d{{4}})\)")),
    (11, " and ", re.compile(rf"{_LEAD} and {_AN}, (\d{{4}})(?![a-z\d])")),
    (12, " & ", re.compile(rf"{_LEAD} & {_AN}, (\d{{4}})(?![a-z\d])")),
    (13, ", ", re.compile(rf"{_LEAD}, (\d{{4}})([a-z])?(?!\d)")),
    (14, " ", re.compile(rf"{_LEAD} (\d{{4}})(?![a-z\d])")),
    (15, "(", re.compile(rf"{_LEAD},? ?\((\d{{4}})([a-z]*)\)")),
    (16, "[", re.compile(r"\[(\d{1,3}(?:\s*,\s*\d{1,3})*)\]")),
]

INDEXED_STYLES = {1, 2, 3, 16}

# Where the tail of an author-led style can start.  A style whose tail
# starts otherwise would never be tried, so each entry of the table above
# is checked against these by the tests.
_TAIL_STARTS = (r" et al\.", r" \[", r",? ?\(", r" and ", r" & ", r", \d",
                r" \d")
_CANDIDATE = re.compile(rf"{_LEAD}(?={'|'.join(_TAIL_STARTS)})")
_AUTHOR_LED = frozenset(style_id for style_id, _, pattern in CITATION_STYLES
                        if pattern.pattern.startswith(_LEAD))
_AN_PATTERN = re.compile(_AN)
_INDEX = re.compile(r"\d{1,3}")

_NOT_AUTHOR_WORDS = {"et", "al", "and"}


class NoReferenceSectionError(ValueError):
    pass


class Reference(NamedTuple):
    """One entry of the reference list: its number when the list is indexed,
    its text, and the first year read from that text."""

    index: int | None
    raw_text: str
    year: int | None = None


def reference_number(ref: Reference, position: int) -> int:
    """A reference's number: its index, else its 1-based ``position`` in the
    reference list."""
    return ref.index if ref.index is not None else position + 1


class CitationInstance(NamedTuple):
    """One citation found in body text by the citation style ``style_id``: the
    authors and year, or reference numbers, it names, and where it matched."""

    style_id: int
    matched_text: str
    authors: tuple[str, ...]
    year: int | None
    indices: tuple[int, ...]
    char_span: tuple[int, int]
    year_suffix: str = ""
    section_heading: str | None = None  # owning section, filled by the pipeline


class CitationLink(NamedTuple):
    """A citation with the reference it was resolved to, if any, and how."""

    citation: CitationInstance
    reference: Reference | None
    method: str  # "index", "author-year", or "unresolved"
    ambiguous: bool = False


def locate_reference_section(sections: list[Section]) -> tuple[int, int]:
    """``(start, stop)``: ``sections[start]`` is the first References or
    Bibliography section, and ``sections[start:stop]`` the run read as the
    reference list, up to the first later appendix heading or the end."""
    keys = [heading_key(section.heading.text) if section.heading else ""
            for section in sections]
    start = next((i for i, key in enumerate(keys)
                  if key.startswith(("references", "bibliography"))), None)
    if start is None:
        raise NoReferenceSectionError("no reference section")
    stop = next((i for i in range(start + 1, len(keys))
                 if keys[i].startswith("appendix")), len(keys))
    return start, stop


_BRACKET_START = re.compile(r"^\[(\d{1,3})\]\s*")
_NUMBER_START = re.compile(r"^(\d{1,3})\.\s+")
# A year from 1500 to 2100 standing as a word of its own.
_YEAR_TOKEN = re.compile(r"\b(1[5-9]\d\d|20\d\d|2100)\b")


def _finish(index, text_parts) -> Reference:
    raw = " ".join(text_parts).strip()
    m = _YEAR_TOKEN.search(raw)
    return Reference(index=index, raw_text=raw,
                     year=int(m.group(0)) if m else None)


def _reference_starts(lines) -> dict[int, tuple[int | None, int]]:
    """``{line number: (reference index, text offset)}`` of the lines that
    start a reference, by the first rule that applies: bracketed "[n]"
    starts, then strictly increasing "n." starts, then margin lines."""
    def matched(pattern):
        return {i: (int(m.group(1)), m.end())
                for i, (text, _) in enumerate(lines)
                if (m := pattern.match(text))}

    bracketed = matched(_BRACKET_START)
    if bracketed:
        return bracketed
    numbered = matched(_NUMBER_START)
    numbers = [n for n, _ in numbered.values()]
    if numbered and all(a < b for a, b in zip(numbers, numbers[1:])):
        return numbered
    margin = min(x for _, x in lines)
    return {i: (None, 0) for i, (_, x) in enumerate(lines)
            if x <= margin + 2.0}


def split_references(ref_text_lines) -> list[Reference]:
    """Split (text, x-origin) reference-section lines into references.

    A start line (``_reference_starts``) opens a reference, less its marker,
    and every other line continues the open one.  When no line is indented,
    every margin line starts its own reference.
    """
    lines = [(t, x) for t, x in ref_text_lines if t.strip()]
    if not lines:
        raise ValueError("empty reference line list")
    starts = _reference_starts(lines)
    refs: list[Reference] = []
    index, parts = None, []
    for i, (text, _) in enumerate(lines):
        if i in starts:
            if parts:
                refs.append(_finish(index, parts))
            index, offset = starts[i]
            parts = [text[offset:]]
        else:
            parts.append(text)
    refs.append(_finish(index, parts))
    return refs


def extract_citations(body_text: str) -> list[CitationInstance]:
    """All citation instances in a text, non-overlapping, sorted by span."""
    claimed: list[tuple[int, int]] = []
    found: list[CitationInstance] = []
    candidates = None
    for style_id, literal, pattern in CITATION_STYLES:
        if literal not in body_text:
            continue
        if style_id in _AUTHOR_LED:
            if candidates is None:
                candidates = [m.start()
                              for m in _CANDIDATE.finditer(body_text)]
            matches = _matches_at(pattern, body_text, candidates)
        else:
            matches = pattern.finditer(body_text)
        for m in matches:
            span = m.span()
            if any(span[0] < e and s < span[1] for s, e in claimed):
                continue
            claimed.append(span)
            found.append(_instance(style_id, m))
    found.sort(key=lambda c: c.char_span)
    return found


def _matches_at(pattern: re.Pattern, text: str, starts):
    """The leftmost non-overlapping matches of ``pattern`` that start at
    one of ``starts`` (ascending), as ``finditer`` gives them when every
    match starts at one of them."""
    end = 0
    for start in starts:
        if start >= end and (m := pattern.match(text, start)):
            end = m.end()
            yield m


def _instance(style_id: int, m) -> CitationInstance:
    text = m.group(0)
    authors = tuple(w for w in _AN_PATTERN.findall(text)
                    if w.lower() not in _NOT_AUTHOR_WORDS)
    year = None
    suffix = ""
    indices: tuple[int, ...] = ()
    if style_id in INDEXED_STYLES:
        indices = tuple(int(n) for n in _INDEX.findall(m.group(1)))
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
        at = ref.raw_text.find(str(cit.year))
        prefix = ref.raw_text[:at] if at >= 0 else ref.raw_text
        if any(re.search(rf"\b{re.escape(a)}\b", prefix, re.IGNORECASE)
               for a in cit.authors):
            matches.append(ref)
    if not matches:
        return CitationLink(citation=cit, reference=None, method="unresolved")
    return CitationLink(citation=cit, reference=matches[0],
                        method="author-year", ambiguous=len(matches) > 1)
