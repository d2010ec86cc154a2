"""Unit tests for the corpus-analysis use cases."""

import dataclasses

from scholarparse.bibliography import CitationLink, extract_citations
from scholarparse.structure import Section, SectionHeading
from scholarparse.tei import ExtractionResult
from scholarparse.usecases import (SectionMap, _generic_by_heading,
                                   curate_dataset_links,
                                   section_citation_distribution)


def section(heading_text, words=()):
    heading = None
    if heading_text is not None:
        heading = SectionHeading(text=heading_text, chunk_index=0)
    paragraphs = (" ".join(words),) if words else ()
    return Section(heading=heading, paragraphs=paragraphs)


class TestSectionMap:
    def test_default_map_loads(self):
        m = SectionMap.load_default()
        assert m.lookup("Introduction") == "Background"
        assert m.lookup("Conclusion") == "Discussion/Conclusion"

    def test_lookup_case_insensitive(self):
        m = SectionMap.from_text("Results\tResult/Evaluation\n")
        assert m.lookup("RESULTS") == "Result/Evaluation"

    def test_enumeration_prefix_stripped(self):
        m = SectionMap.load_default()
        assert m.lookup("4 Datasets") == "Datasets"
        assert m.lookup("IV. Datasets") == "Datasets"

    def test_unknown_heading_none(self):
        assert SectionMap.load_default().lookup("Wild Heading") is None

    def test_comments_ignored(self):
        m = SectionMap.from_text("# comment\nResults\tResult/Evaluation\n")
        assert m.lookup("Results") == "Result/Evaluation"


class TestGenericInference:
    def _result(self, headings):
        return ExtractionResult(sections=[section(h) for h in headings])

    def test_sandwiched_heading_counts_as_method(self):
        generic = _generic_by_heading(
            self._result(["Introduction", "Wild Approach", "Results"]),
            SectionMap.load_default())
        assert generic["Wild Approach"] == "Method"

    def test_unsandwiched_heading_is_other(self):
        generic = _generic_by_heading(
            self._result(["Wild Approach", "Results"]),
            SectionMap.load_default())
        assert generic["Wild Approach"] == "Other"


class TestDatasetLinks:
    def test_rule_a_datasets_section_urls(self):
        result = ExtractionResult(source_id="d1", sections=[
            section("Datasets", ["see", "http://host.org/corpus7", "here"])],
            urls=["http://host.org/corpus7"])
        links = curate_dataset_links([result])
        assert links == [("http://host.org/corpus7", "d1")]

    def test_rule_b_substring_match(self):
        result = ExtractionResult(source_id="d2", sections=[
            section("Introduction", ["x"])],
            urls=["http://host.org/datasets/v1"])
        links = curate_dataset_links([result])
        assert links == [("http://host.org/datasets/v1", "d2")]

    def test_plain_url_outside_datasets_not_kept(self):
        result = ExtractionResult(source_id="d3", sections=[
            section("Introduction", ["see", "http://host.org/tools", "here"])],
            urls=["http://host.org/tools"])
        assert curate_dataset_links([result]) == []

    def test_global_deduplication_first_wins(self):
        r1 = ExtractionResult(source_id="a", urls=["http://h.org/data/x"])
        r2 = ExtractionResult(source_id="b", urls=["http://h.org/data/x"])
        links = curate_dataset_links([r1, r2])
        assert links == [("http://h.org/data/x", "a")]


class TestHistogram:
    def _links(self, pairs):
        links = []
        for text, heading in pairs:
            (cit,) = extract_citations(text)
            cit = dataclasses.replace(cit, section_heading=heading)
            links.append(CitationLink(citation=cit, reference=None,
                                      method="unresolved"))
        return links

    def test_counts_by_generic_section(self):
        result = ExtractionResult(
            sections=[section("Introduction"), section("Results")],
            citations=self._links([("[1]", "Introduction"),
                                   ("[2]", "Introduction"),
                                   ("[3]", "Results")]))
        hist = section_citation_distribution(result)
        assert hist.counts["Background"] == 2
        assert hist.counts["Result/Evaluation"] == 1
        assert hist.total == 3

    def test_multi_index_citation_counted_once(self):
        (cit,) = extract_citations("[1, 2]")
        cit = dataclasses.replace(cit, section_heading="Introduction")
        links = [CitationLink(citation=cit, reference=None, method="unresolved"),
                 CitationLink(citation=cit, reference=None, method="unresolved")]
        result = ExtractionResult(sections=[section("Introduction")],
                                  citations=links)
        hist = section_citation_distribution(result)
        assert hist.total == 1

    def test_total_matches_instance_count(self):
        result = ExtractionResult(
            sections=[section("Introduction"), section("Oddly Named")],
            citations=self._links([("[1]", "Introduction"),
                                   ("[2]", "Oddly Named"),
                                   ("[3]", None)]))
        hist = section_citation_distribution(result)
        # citations without a section are dropped; the rest all land somewhere
        assert hist.total == 2
        assert hist.counts["Other"] == 1
