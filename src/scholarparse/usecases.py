"""Corpus analyses: dataset-link curation and section-wise citation counts."""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import resources

from .features import heading_key
from .structure import extract_urls
from .tei import ExtractionResult

GENERIC_SECTIONS = (
    "Background",
    "Datasets",
    "Method",
    "Result/Evaluation",
    "Discussion/Conclusion",
    "Other",
)

# URLs containing one of these substrings count as dataset links regardless
# of the section they appear in.
DATASET_URL_TOKENS = ("datasets", "data", "dumps")


@dataclass
class SectionMap:
    """Case-insensitive specific-heading to generic-section lookup."""

    mapping: dict[str, str] = field(default_factory=dict)

    @classmethod
    def load_default(cls) -> "SectionMap":
        text = resources.files("scholarparse.data").joinpath(
            "section_map.txt").read_text("utf-8")
        return cls.from_text(text)

    @classmethod
    def from_text(cls, text: str) -> "SectionMap":
        mapping = {}
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            specific, generic = line.split("\t")
            mapping[heading_key(specific)] = generic
        return cls(mapping=mapping)

    def lookup(self, heading_text: str) -> str | None:
        return self.mapping.get(heading_key(heading_text))


@dataclass
class CitationHistogram:
    """Citation counts per generic section name."""

    counts: dict[str, int] = field(default_factory=lambda: {
        name: 0 for name in GENERIC_SECTIONS})

    @property
    def total(self) -> int:
        return sum(self.counts.values())


def _generic_by_heading(result: ExtractionResult,
                        section_map: SectionMap) -> dict[str, str]:
    """Generic section per heading; unmapped headings between a mapped
    Background and a mapped Result/Evaluation heading count as Method."""
    headings = [s.heading.text for s in result.sections if s.heading is not None]
    generics: list[str | None] = [section_map.lookup(h) for h in headings]
    out = {}
    for i, (heading, generic) in enumerate(zip(headings, generics)):
        if generic is None:
            before = set(g for g in generics[:i] if g is not None)
            after = set(g for g in generics[i + 1:] if g is not None)
            if "Background" in before and "Result/Evaluation" in after:
                generic = "Method"
            else:
                generic = "Other"
        out[heading] = generic
    return out


def curate_dataset_links(results: list[ExtractionResult],
                         section_map: SectionMap | None = None):
    """(url, source document) pairs likely pointing at public datasets.

    A URL is kept when it occurs in the body (including footnote chunks) of
    a Datasets-mapped section, or when its string contains a dataset token.
    De-duplicated globally, first occurrence wins.
    """
    if section_map is None:
        section_map = SectionMap.load_default()
    seen = set()
    kept = []

    def keep(url: str, source: str):
        if url not in seen:
            seen.add(url)
            kept.append((url, source))

    for result in results:
        generic_of = _generic_by_heading(result, section_map)
        for section in result.sections:
            if section.heading is None:
                continue
            if generic_of.get(section.heading.text) != "Datasets":
                continue
            for url in extract_urls(section.body_text):
                keep(url, result.source_id)
        for url in result.urls:
            if any(tok in url for tok in DATASET_URL_TOKENS):
                keep(url, result.source_id)
    return kept


def section_citation_distribution(result: ExtractionResult,
                                  section_map: SectionMap | None = None
                                  ) -> CitationHistogram:
    """Histogram of citation instances over the generic sections."""
    if section_map is None:
        section_map = SectionMap.load_default()
    generic_of = _generic_by_heading(result, section_map)
    hist = CitationHistogram()
    seen = set()
    for link in result.citations:
        cit = link.citation
        if id(cit) in seen:  # multi-index citations yield one link per index
            continue
        seen.add(id(cit))
        if cit.section_heading is None:
            continue
        hist.counts[generic_of.get(cit.section_heading, "Other")] += 1
    return hist
