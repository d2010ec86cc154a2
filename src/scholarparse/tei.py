"""TEI serialization of a full extraction result.

The output uses a minimal conforming subset of TEI: header with title and
person-name parts, body divisions with heads and paragraphs (one <p> per
``Section.paragraphs`` entry, a body chunk's text), figure/table
heads, footnotes as notes, citation instances as <ref> pointers targeting
back-matter <bibl> entries with ids "ref-N".  Output is UTF-8 with LF line
endings and 2-space indentation, byte-identical for equal inputs.

The lines are written directly, one element or tag per line, in the form
``xml.etree.ElementTree`` gives a tree indented by ``ET.indent`` with two
spaces: an element with no text and no children closes itself as
``<x />``, text escapes ``& < >``, and an attribute value also escapes
``"`` and writes CR, LF and tab as character references.  Every element
here holds either text or child elements, never both, so no text or tail
mixes with the indentation.  Building, indenting and serializing a tree
took twice as long as the writing.

``export_tei`` runs with automatic garbage collection paused (``_gcpause``).
The writer forms no reference cycles, so it leaves nothing for the
collector.  ``gc`` is process-wide, so a thread running beside the call
also runs without automatic collection until it returns.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import NamedTuple

from ._gcpause import gc_paused
from .bibliography import CitationLink, Reference, reference_number
from .metadata import AuthorRecord
from .structure import CaptionHeading, Footnote, Section

TEI_NS = "http://www.tei-c.org/ns/1.0"


class ExtractionResult(NamedTuple):
    """Everything extracted from one document, as text, numbers and the small
    result records; ``export_tei`` writes it as TEI."""

    source_id: str = ""
    title: str = ""
    authors: Sequence[AuthorRecord] = ()
    sections: Sequence[Section] = ()
    urls: Sequence[str] = ()
    footnotes: Sequence[Footnote] = ()
    captions: Sequence[CaptionHeading] = ()
    references: Sequence[Reference] = ()
    citations: Sequence[CitationLink] = ()


def reference_id(ref: Reference, position: int) -> str:
    """Stable back-matter id: "ref-" and the reference's number."""
    return f"ref-{reference_number(ref, position)}"


@gc_paused
def export_tei(result: ExtractionResult) -> str:
    """Serialize an ExtractionResult as TEI-encoded XML text."""
    ids = _ref_ids(result)
    header = _parent(1, "teiHeader", _parent(2, "fileDesc", [
        *_parent(3, "titleStmt", [_leaf(4, "title", result.title)]),
        *_parent(3, "sourceDesc", _parent(4, "biblStruct", _parent(
            5, "analytic", _authors(6, result.authors))))]))
    references = [_leaf(5, "bibl", ref.raw_text, (("xml:id", ids[id(ref)]),))
                  for ref in result.references]
    text = _parent(1, "text", [
        *_parent(2, "body", _body(3, result, ids)),
        *_parent(2, "back", _parent(3, "div", _parent(4, "listBibl",
                                                      references),
                                    (("type", "references"),)))])
    lines = _parent(0, "TEI", header + text, (("xmlns", TEI_NS),))
    return '<?xml version="1.0" encoding="UTF-8"?>\n' + "\n".join(lines) + "\n"


def _escape_text(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _escape_attribute(value: str) -> str:
    return (_escape_text(value).replace('"', "&quot;")
            .replace("\r", "&#13;").replace("\n", "&#10;")
            .replace("\t", "&#09;"))


def _start_tag(tag: str, attrs) -> str:
    """``tag`` and its ``(name, value)`` attributes, in order."""
    if not attrs:
        return tag
    return tag + "".join([f' {name}="{_escape_attribute(value)}"'
                          for name, value in attrs])


def _leaf(depth: int, tag: str, text, attrs=()) -> str:
    """The line of an element holding only ``text``, ``depth`` levels in;
    with no text it closes itself."""
    start = _start_tag(tag, attrs)
    if text:
        return f"{'  ' * depth}<{start}>{_escape_text(text)}</{tag}>"
    return f"{'  ' * depth}<{start} />"


def _parent(depth: int, tag: str, children: list[str], attrs=()) -> list[str]:
    """The lines of an element around its children's lines, which sit one
    level deeper; with no children it closes itself."""
    pad, start = "  " * depth, _start_tag(tag, attrs)
    if not children:
        return [f"{pad}<{start} />"]
    return [f"{pad}<{start}>", *children, f"{pad}</{tag}>"]


def _authors(depth: int, authors) -> list[str]:
    lines = []
    for record in authors:
        name = record.name
        names = [_leaf(depth + 2, "forename", name.first,
                       (("type", "first"),))]
        if name.middle:
            names.append(_leaf(depth + 2, "forename", name.middle,
                               (("type", "middle"),)))
        names.append(_leaf(depth + 2, "surname", name.last))
        children = _parent(depth + 1, "persName", names)
        if record.email is not None:
            children.append(_leaf(depth + 1, "email", record.email.address))
        if record.affiliation is not None:
            children.append(_leaf(depth + 1, "affiliation",
                                  record.affiliation.text))
        lines += _parent(depth, "author", children)
    return lines


def _ref_ids(result) -> dict[int, str]:
    ids: dict[int, str] = {}
    used: set[str] = set()
    for i, ref in enumerate(result.references):
        rid = reference_id(ref, i)
        if rid in used:  # mixed indexed/unindexed lists may collide
            rid = f"ref-p{i + 1}"
        used.add(rid)
        ids[id(ref)] = rid
    return ids


def _body(depth: int, result, ids) -> list[str]:
    links_by_heading: dict[str | None, list[CitationLink]] = {}
    for link in result.citations:
        links_by_heading.setdefault(link.citation.section_heading, []).append(link)

    lines = []
    for section in result.sections:
        children = []
        heading_text = None
        if section.heading is not None:
            heading_text = section.heading.text
            children.append(_leaf(depth + 1, "head", heading_text))
        children += [_leaf(depth + 1, "p", paragraph)
                     for paragraph in section.paragraphs]
        children += [_ref(depth + 1, link, ids)
                     for link in links_by_heading.pop(heading_text, [])]
        lines += _parent(depth, "div", children)
    # Citations whose section was not exported still appear once.
    for links in links_by_heading.values():
        lines += _parent(depth, "div", [_ref(depth + 1, link, ids)
                                        for link in links])

    for caption in result.captions:
        lines += _parent(depth, "figure",
                         [_leaf(depth + 1, "head", caption.text)],
                         (("type", caption.kind),))
    for note in result.footnotes:
        attrs = (("place", "foot"),)
        if note.marker:
            attrs += (("n", note.marker),)
        lines.append(_leaf(depth, "note", note.text, attrs))
    return lines


def _ref(depth: int, link: CitationLink, ids) -> str:
    attrs = (("type", "bibr"),)
    if link.reference is not None:
        attrs += (("target", "#" + ids[id(link.reference)]),)
    return _leaf(depth, "ref", link.citation.matched_text, attrs)
