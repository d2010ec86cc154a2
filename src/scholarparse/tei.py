"""TEI serialization of a full extraction result.

The output uses a minimal conforming subset of TEI: header with title and
person-name parts, body divisions with heads and paragraphs (one <p> per
``Section.paragraphs`` entry, a body chunk's text), figure/table
heads, footnotes as notes, citation instances as <ref> pointers targeting
back-matter <bibl> entries with ids "ref-N".  Output is UTF-8 with LF line
endings and 2-space indentation, byte-identical for equal inputs.

``export_tei`` runs with automatic garbage collection paused (``_gcpause``).
The element tree it builds holds no reference cycles; the one cycle the
call makes is ``ET.indent``'s recursive closure, a few objects of a fixed
count whatever the input, freed by the next collection after the call.
``gc`` is process-wide, so a thread running beside the call also runs
without automatic collection until it returns.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import NamedTuple
from xml.etree import ElementTree as ET

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
    tei = ET.Element("TEI", {"xmlns": TEI_NS})
    _header(tei, result)
    text = ET.SubElement(tei, "text")
    ids = _ref_ids(result)
    _body(ET.SubElement(text, "body"), result, ids)
    _back(ET.SubElement(text, "back"), result, ids)
    ET.indent(tei, space="  ")
    xml = ET.tostring(tei, encoding="unicode")
    return '<?xml version="1.0" encoding="UTF-8"?>\n' + xml + "\n"


def _header(tei, result):
    header = ET.SubElement(tei, "teiHeader")
    file_desc = ET.SubElement(header, "fileDesc")
    title_stmt = ET.SubElement(file_desc, "titleStmt")
    title = ET.SubElement(title_stmt, "title")
    if result.title:
        title.text = result.title
    source = ET.SubElement(file_desc, "sourceDesc")
    bibl = ET.SubElement(source, "biblStruct")
    analytic = ET.SubElement(bibl, "analytic")
    for record in result.authors:
        author = ET.SubElement(analytic, "author")
        pers = ET.SubElement(author, "persName")
        fore = ET.SubElement(pers, "forename", {"type": "first"})
        fore.text = record.name.first
        if record.name.middle:
            mid = ET.SubElement(pers, "forename", {"type": "middle"})
            mid.text = record.name.middle
        surname = ET.SubElement(pers, "surname")
        surname.text = record.name.last
        if record.email is not None:
            email = ET.SubElement(author, "email")
            email.text = record.email.address
        if record.affiliation is not None:
            aff = ET.SubElement(author, "affiliation")
            aff.text = record.affiliation.text


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


def _body(body, result, ids):
    links_by_heading: dict[str | None, list[CitationLink]] = {}
    for link in result.citations:
        links_by_heading.setdefault(link.citation.section_heading, []).append(link)

    for section in result.sections:
        div = ET.SubElement(body, "div")
        heading_text = None
        if section.heading is not None:
            head = ET.SubElement(div, "head")
            head.text = section.heading.text
            heading_text = section.heading.text
        for paragraph in section.paragraphs:
            p = ET.SubElement(div, "p")
            p.text = paragraph
        for link in links_by_heading.pop(heading_text, []):
            _ref_elem(div, link, ids)
    # Citations whose section was not exported still appear once.
    for links in links_by_heading.values():
        div = ET.SubElement(body, "div")
        for link in links:
            _ref_elem(div, link, ids)

    for caption in result.captions:
        figure = ET.SubElement(body, "figure", {"type": caption.kind})
        head = ET.SubElement(figure, "head")
        head.text = caption.text
    for note in result.footnotes:
        attrs = {"place": "foot"}
        if note.marker:
            attrs["n"] = note.marker
        elem = ET.SubElement(body, "note", attrs)
        elem.text = note.text


def _ref_elem(div, link: CitationLink, ids):
    attrs = {"type": "bibr"}
    if link.reference is not None:
        attrs["target"] = "#" + ids[id(link.reference)]
    ref = ET.SubElement(div, "ref", attrs)
    ref.text = link.citation.matched_text


def _back(back, result, ids):
    div = ET.SubElement(back, "div", {"type": "references"})
    list_bibl = ET.SubElement(div, "listBibl")
    for ref in result.references:
        bibl = ET.SubElement(list_bibl, "bibl", {"xml:id": ids[id(ref)]})
        bibl.text = ref.raw_text
