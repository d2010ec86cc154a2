"""Unit tests for the corpus-analysis use cases."""

from conftest import reference_generic_by_heading, reference_section_map
from hypothesis import given, settings
from hypothesis import strategies as st

from scholarparse.bibliography import (CitationInstance, CitationLink,
                                       extract_citations)
from scholarparse.features import heading_key
from scholarparse.structure import Section, SectionHeading, extract_urls
from scholarparse.tei import ExtractionResult
from scholarparse.usecases import (GENERIC_SECTIONS, _generic_by_heading,
                                   curate_dataset_links,
                                   section_citation_distribution, section_map)


def section(heading_text, words=()):
    heading = None
    if heading_text is not None:
        heading = SectionHeading(text=heading_text, chunk_index=0)
    paragraphs = (" ".join(words),) if words else ()
    return Section(heading=heading, paragraphs=paragraphs)


def lookup(heading_text):
    return section_map().get(heading_key(heading_text))


class TestSectionMap:
    def test_default_map_loads(self):
        assert lookup("Introduction") == "Background"
        assert lookup("Conclusion") == "Discussion/Conclusion"

    def test_lookup_case_insensitive(self):
        assert lookup("RESULTS") == "Result/Evaluation"
        assert lookup("results") == "Result/Evaluation"

    def test_enumeration_prefix_stripped(self):
        assert lookup("4 Datasets") == "Datasets"
        assert lookup("IV. Datasets") == "Datasets"

    def test_unknown_heading_none(self):
        assert lookup("Wild Heading") is None

    def test_comments_ignored(self):
        # No key comes from a "#" comment line.
        assert section_map()
        assert not any(key.startswith("#") for key in section_map())
        assert section_map() == reference_section_map()


class TestGenericInference:
    def _result(self, headings):
        return ExtractionResult(sections=[section(h) for h in headings])

    def test_sandwiched_heading_counts_as_method(self):
        generic = _generic_by_heading(
            self._result(["Introduction", "Wild Approach", "Results"]))
        assert generic["Wild Approach"] == "Method"

    def test_unsandwiched_heading_is_other(self):
        generic = _generic_by_heading(
            self._result(["Wild Approach", "Results"]))
        assert generic["Wild Approach"] == "Other"

    def test_heading_after_background_without_results_is_other(self):
        # No Result/Evaluation heading follows, so nothing is sandwiched.
        generic = _generic_by_heading(self._result(
            ["Introduction", "Wild Approach", "Odd Part", "Tail"]))
        assert [generic[h] for h in ("Wild Approach", "Odd Part", "Tail")] == [
            "Other", "Other", "Other"]


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
            cit = cit._replace(section_heading=heading)
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
        cit = cit._replace(section_heading="Introduction")
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


# --- both use cases against the oracle's generic sections --------------------

REFERENCE_MAP = reference_section_map()
ENUMERATIONS = ("", "3 ", "2.1 ", "IV. ", "B. ")
UNMAPPED = ("Wild Approach", "Proposed Framework", "Experiments", "Appendix",
            "Oddly Named")
URLS = ("http://host.org/datasets/v1", "http://host.org/tools",
        "http://data.example.net/x", "http://host.org/dumps/enwiki",
        "http://host.org/code")


def mapped_headings(*generics):
    """Headings the map names as one of ``generics``, some enumerated, in
    any case."""
    keys = sorted(key for key, generic in REFERENCE_MAP.items()
                  if generic in generics)
    return st.builds(lambda prefix, key, case: prefix + case(key),
                     st.sampled_from(ENUMERATIONS), st.sampled_from(keys),
                     st.sampled_from((str.title, str.upper, str.lower)))


# Datasets headings drawn more often, for the dataset-link rule.
HEADING_TEXTS = st.one_of(mapped_headings(*GENERIC_SECTIONS),
                          mapped_headings("Datasets"), st.sampled_from(UNMAPPED))
REPEAT = object()
BODY_WORDS = st.lists(st.sampled_from(("see", "the", *URLS)), max_size=4)


@st.composite
def extraction_results(draw, source_id: str):
    # A heading is None, a fresh text or, at REPEAT, an earlier heading's.
    headings = []
    for choice in draw(st.lists(st.none() | st.just(REPEAT) | HEADING_TEXTS,
                                min_size=1, max_size=12)):
        if choice is REPEAT:
            choice = draw(st.sampled_from(headings)) if headings else None
        headings.append(choice)
    # Maybe a mapped Background first and a mapped Result/Evaluation last,
    # so that an unmapped heading between them counts as Method.
    if draw(st.booleans()):
        headings.insert(0, draw(mapped_headings("Background")))
    if draw(st.booleans()):
        headings.append(draw(mapped_headings("Result/Evaluation")))
    texts = [h for h in headings if h is not None]
    sections = [section(h, draw(BODY_WORDS)) for h in headings]
    cited = st.none() | st.sampled_from((*texts, "Unseen Heading"))
    citations = []
    for n_indices, heading in draw(st.lists(
            st.tuples(st.integers(1, 3), cited), max_size=12)):
        cit = CitationInstance(style_id=0, matched_text="[1]", authors=(),
                               year=None, indices=tuple(range(1, n_indices + 1)),
                               char_span=(0, 3), section_heading=heading)
        # A multi-index citation yields one link per index.
        citations += [CitationLink(citation=cit, reference=None,
                                   method="unresolved")] * n_indices
    urls = draw(st.lists(st.sampled_from(URLS), max_size=3))
    return ExtractionResult(source_id=source_id, sections=sections, urls=urls,
                            citations=citations)


def expected_counts(result) -> dict[str, int]:
    generic = reference_generic_by_heading(result, REFERENCE_MAP)
    counts = dict.fromkeys(GENERIC_SECTIONS, 0)
    seen = set()
    for link in result.citations:
        cit = link.citation
        if id(cit) not in seen and cit.section_heading is not None:
            counts[generic.get(cit.section_heading, "Other")] += 1
        seen.add(id(cit))
    return counts


def expected_links(results) -> list[tuple[str, str]]:
    kept, seen = [], set()
    for result in results:
        generic = reference_generic_by_heading(result, REFERENCE_MAP)
        urls = [url for s in result.sections if s.heading is not None
                and generic[s.heading.text] == "Datasets"
                for url in extract_urls(s.body_text)]
        urls += [url for url in result.urls
                 if any(tok in url for tok in ("datasets", "data", "dumps"))]
        for url in urls:
            if url not in seen:
                seen.add(url)
                kept.append((url, result.source_id))
    return kept


@settings(max_examples=200)
@given(st.tuples(extraction_results("a"), extraction_results("b")))
def test_use_cases_follow_the_reference_generic_sections(results):
    for result in results:
        hist = section_citation_distribution(result)
        assert hist.counts == expected_counts(result)
        assert hist.total == sum(hist.counts.values())
    assert curate_dataset_links(list(results)) == expected_links(results)
    assert curate_dataset_links(results[:1]) == expected_links(results[:1])
