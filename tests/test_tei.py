"""Unit tests for TEI serialization."""

from xml.etree import ElementTree as ET

from conftest import parent_export_tei
from hypothesis import example, given
from hypothesis import strategies as st

from scholarparse.bibliography import (CitationInstance, CitationLink,
                                       Reference, extract_citations)
from scholarparse.metadata import (Affiliation, AuthorName, AuthorRecord,
                                   EmailAddress)
from scholarparse.structure import (CaptionHeading, Footnote, Section,
                                    SectionHeading)
from scholarparse.tei import ExtractionResult, export_tei, reference_id

NS = {"tei": "http://www.tei-c.org/ns/1.0"}


def sample_result():
    refs = [Reference(index=1, raw_text="Singh, M. 2013. A paper.", year=2013),
            Reference(index=2, raw_text="Goyal, P. 2014. Other.", year=2014)]
    (cit,) = extract_citations("see [1] here")
    cit = cit._replace(section_heading="1 Intro")
    heading = SectionHeading(text="1 Intro", chunk_index=1)
    author = AuthorRecord(
        name=AuthorName(first="Mayank", middle="K", last="Singh"),
        email=EmailAddress(user="mayanks", domain="x.org"),
        affiliation=Affiliation(text="IIT Kharagpur, India"))
    return ExtractionResult(
        source_id="doc-1",
        title="A Title",
        authors=[author],
        sections=[Section(heading=None, paragraphs=("front",)),
                  Section(heading=heading, paragraphs=("body",))],
        urls=["http://example.org/x"],
        footnotes=[Footnote(marker="1", text="a note", page_no=1)],
        captions=[CaptionHeading(kind="figure", text="Figure 1: plot")],
        references=refs,
        citations=[CitationLink(citation=cit, reference=refs[0],
                                method="index")],
    )


class TestExport:
    def test_well_formed_and_has_declaration(self):
        xml = export_tei(sample_result())
        assert xml.startswith('<?xml version="1.0" encoding="UTF-8"?>\n')
        ET.fromstring(xml)

    def test_byte_identical_for_equal_input(self):
        assert export_tei(sample_result()) == export_tei(sample_result())

    def test_header_fields(self):
        root = ET.fromstring(export_tei(sample_result()))
        assert root.find(".//tei:titleStmt/tei:title", NS).text == "A Title"
        pers = root.find(".//tei:persName", NS)
        assert pers.find("tei:forename[@type='first']", NS).text == "Mayank"
        assert pers.find("tei:forename[@type='middle']", NS).text == "K"
        assert pers.find("tei:surname", NS).text == "Singh"
        assert root.find(".//tei:email", NS).text == "mayanks@x.org"
        assert "Kharagpur" in root.find(".//tei:affiliation", NS).text

    def test_citation_targets_back_matter_id(self):
        root = ET.fromstring(export_tei(sample_result()))
        ref = root.find(".//tei:body//tei:ref[@type='bibr']", NS)
        target = ref.get("target")
        assert target == "#ref-1"
        ids = {b.get("{http://www.w3.org/XML/1998/namespace}id") or b.get("xml:id")
               for b in root.findall(".//tei:listBibl/tei:bibl", NS)}
        assert target.lstrip("#") in ids

    def test_citation_sits_in_owning_section_div(self):
        root = ET.fromstring(export_tei(sample_result()))
        for div in root.findall(".//tei:body/tei:div", NS):
            head = div.find("tei:head", NS)
            if head is not None and head.text == "1 Intro":
                assert div.find("tei:ref", NS) is not None
                break
        else:
            raise AssertionError("section div not found")

    def test_citation_of_no_exported_section_gets_a_div_of_its_own(self):
        result = sample_result()
        orphan = result.citations[0]
        orphan = orphan._replace(citation=orphan.citation._replace(
            section_heading="9 Gone"))
        root = ET.fromstring(export_tei(result._replace(citations=[orphan])))
        divs = root.findall(".//tei:body/tei:div", NS)
        assert [d.find("tei:head", NS) is not None for d in divs] == [
            False, True, False]
        assert [len(d.findall("tei:ref", NS)) for d in divs] == [0, 0, 1]
        assert [r.text for r in root.iter(f"{{{NS['tei']}}}ref")] == ["[1]"]

    def test_footnote_and_caption_rendered(self):
        root = ET.fromstring(export_tei(sample_result()))
        note = root.find(".//tei:note[@place='foot']", NS)
        assert note.get("n") == "1" and note.text == "a note"
        fig = root.find(".//tei:figure[@type='figure']/tei:head", NS)
        assert fig.text == "Figure 1: plot"

    def test_empty_result_still_valid(self):
        xml = export_tei(ExtractionResult())
        root = ET.fromstring(xml)
        assert root.find(".//tei:listBibl", NS) is not None


class TestReferenceIds:
    def test_indexed(self):
        ref = Reference(index=7, raw_text="x")
        assert reference_id(ref, 0) == "ref-7"

    def test_positional(self):
        ref = Reference(index=None, raw_text="x")
        assert reference_id(ref, 2) == "ref-3"

    def test_collision_gets_positional_fallback(self):
        refs = [Reference(index=None, raw_text="a"),
                Reference(index=1, raw_text="b")]
        result = ExtractionResult(references=refs)
        root = ET.fromstring(export_tei(result))
        ids = [b.get("{http://www.w3.org/XML/1998/namespace}id")
               for b in root.findall(".//tei:listBibl/tei:bibl", NS)]
        assert len(ids) == len(set(ids)) == 2

    def test_collision_id_is_the_one_based_position(self):
        refs = [Reference(index=None, raw_text="a"),
                Reference(index=None, raw_text="b"),
                Reference(index=2, raw_text="c")]
        root = ET.fromstring(export_tei(ExtractionResult(references=refs)))
        ids = [b.get("{http://www.w3.org/XML/1998/namespace}id")
               for b in root.findall(".//tei:listBibl/tei:bibl", NS)]
        assert ids == ["ref-1", "ref-2", "ref-p3"]


# Text with every character either escape touches, line breaks, non-ASCII
# letters and a character outside the BMP; empty strings included.
TEXT = st.text(st.sampled_from(list("aZ &<>\"'\r\n\t é中😀;#")), max_size=8)


@st.composite
def results(draw):
    """Results with any number of each part, none included, and citations
    in exported sections, in no section and in a section not exported."""
    headings = draw(st.lists(st.none() | st.builds(SectionHeading, TEXT,
                                                   st.integers(0, 9)),
                             max_size=3))
    sections = [Section(h, tuple(draw(st.lists(TEXT, max_size=3))))
                for h in headings]
    references = draw(st.lists(st.builds(Reference, st.none()
                                         | st.integers(0, 4), TEXT),
                               max_size=4))
    owners = st.sampled_from([h.text for h in headings if h] + [None, "gone"])
    citations = [CitationLink(
        citation=CitationInstance(16, draw(TEXT), (), None, (1,), (0, 3),
                                  section_heading=draw(owners)),
        reference=draw(st.sampled_from(references)) if references
        and draw(st.booleans()) else None, method="index")
        for _ in range(draw(st.integers(0, 4)))]
    authors = draw(st.lists(st.builds(
        AuthorRecord, st.builds(AuthorName, TEXT, TEXT, TEXT),
        st.none() | st.builds(EmailAddress, TEXT, TEXT),
        st.none() | st.builds(Affiliation, TEXT)), max_size=3))
    return ExtractionResult(
        title=draw(TEXT), authors=authors, sections=sections,
        footnotes=draw(st.lists(st.builds(Footnote, st.none() | TEXT, TEXT,
                                          st.integers(1, 3)), max_size=2)),
        captions=draw(st.lists(st.builds(CaptionHeading, TEXT, TEXT),
                               max_size=2)),
        references=references, citations=citations)


class TestDirectWriter:
    @given(results())
    @example(ExtractionResult())
    @example(sample_result())
    def test_tei_matches_parent_code(self, result):
        assert export_tei(result) == parent_export_tei(result)
