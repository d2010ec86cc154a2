"""Corpus analyses: dataset-link curation and section-wise citation counts.

Both read the bundled section map (``section_map.txt``), which maps a
specific heading to a generic section and is read once per process.  A
heading the map does not name counts as Method when a mapped Background
heading comes before it and a mapped Result/Evaluation heading after it,
and as Other otherwise.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

from .features import heading_key
from .metadata import load_lexicon
from .structure import extract_urls
from .tei import ExtractionResult

GENERIC_SECTIONS = ("Background", "Datasets", "Method", "Result/Evaluation",
                    "Discussion/Conclusion", "Other")

# URLs containing one of these substrings count as dataset links regardless
# of the section they appear in.
DATASET_URL_TOKENS = ("datasets", "data", "dumps")


@functools.cache
def section_map() -> dict[str, str]:
    """The bundled map from a specific heading's ``heading_key`` to its
    generic section name; every caller shares it, so none changes it."""
    return {heading_key(specific): generic for specific, generic in (
        entry.split("\t") for entry in load_lexicon("section_map.txt"))}


class CitationHistogram(NamedTuple):
    """Citation counts per generic section name."""

    counts: dict[str, int]

    @property
    def total(self) -> int:
        return sum(self.counts.values())


def _generic_by_heading(result: ExtractionResult) -> dict[str, str]:
    """Generic section per heading text, by the module's Method rule."""
    headings = [s.heading.text for s in result.sections if s.heading is not None]
    lookup = section_map().get
    generics = [lookup(heading_key(h)) for h in headings]
    first_background = next((i for i, g in enumerate(generics)
                             if g == "Background"), len(generics))
    last_result = max((i for i, g in enumerate(generics)
                       if g == "Result/Evaluation"), default=-1)
    return {heading: generic or ("Method" if first_background < i < last_result
                                 else "Other")
            for i, (heading, generic) in enumerate(zip(headings, generics))}


def curate_dataset_links(results: list[ExtractionResult]):
    """(url, source document) pairs likely pointing at public datasets.

    A URL is kept when it occurs in the body (including footnote chunks) of
    a Datasets-mapped section, or when its string contains a dataset token.
    De-duplicated globally, first occurrence wins.
    """
    kept = {}
    for result in results:
        generic_of = _generic_by_heading(result)
        for section in result.sections:
            if (section.heading is not None
                    and generic_of[section.heading.text] == "Datasets"):
                for url in extract_urls(section.body_text):
                    kept.setdefault(url, result.source_id)
        for url in result.urls:
            if any(tok in url for tok in DATASET_URL_TOKENS):
                kept.setdefault(url, result.source_id)
    return list(kept.items())


def section_citation_distribution(result: ExtractionResult
                                  ) -> CitationHistogram:
    """Histogram of citation instances over the generic sections."""
    generic_of = _generic_by_heading(result)
    counts = dict.fromkeys(GENERIC_SECTIONS, 0)
    seen = set()
    for link in result.citations:
        cit = link.citation
        if id(cit) in seen:  # multi-index citations yield one link per index
            continue
        seen.add(id(cit))
        if cit.section_heading is not None:
            counts[generic_of.get(cit.section_heading, "Other")] += 1
    return CitationHistogram(counts)
