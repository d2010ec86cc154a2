"""End-to-end extraction: document in, ExtractionResult out.

Stages run in a fixed order: chunking, title, authors, e-mails,
affiliations, section headings, section mapping, footnotes, captions,
reference splitting, citation-instance extraction per section, and
citation-reference linking.  Every stage is deterministic, so equal inputs
produce equal results.  The four labeling stages decode with one model each;
``load_models_from_dir`` checks every model against its task's entry in
``features.LABELING_TASKS``, the labels and templates its stage reads.

The stages read the document's chunks and tokens through one
``DocumentContext``; the result, built once from their outputs, holds only
text, numbers and the small result records (sections hold paragraph text,
see ``structure``).  So nothing of the parsed document outlives
``extract_document``, and a batch of held results costs memory in
proportion to its output, not to its token count.  The reference splitter
is the one stage that reads visual lines: it takes each ``Line`` of the
reference run's chunks, the lines ingest built, as its text and x-origin
while the context is alive.

``extract_document`` runs with automatic garbage collection paused
(``_gcpause``): what the stages build holds no reference cycles, so
reference counting frees it, and no collection set off by its allocation
walks the caller's heap.  ``gc`` is process-wide, so a thread running beside
the call also runs without automatic collection until it returns.
"""

from __future__ import annotations

from importlib import resources
from pathlib import Path
from typing import NamedTuple

from ._gcpause import gc_paused
from .bibliography import (NoReferenceSectionError, extract_citations,
                           locate_reference_section,
                           map_citations_to_references, split_references)
from .context import build_context
from .crfmodel import CrfModel, ModelFormatError, load_model
from .features import LABELING_TASKS
from .metadata import (extract_affiliations, extract_author_names,
                       extract_emails, extract_title, map_authors_to_emails,
                       title_fallback)
from .model import Document
from .structure import (Section, extract_caption_headings, extract_footnotes,
                        extract_urls, label_headings, map_sections)
from .tei import ExtractionResult


class PipelineModels(NamedTuple):
    """The trained CRF of each labeling task, one field per task."""

    title: CrfModel
    author: CrfModel
    heading: CrfModel
    footnote: CrfModel


# The labeling tasks, in the order they run and train.
TASKS = PipelineModels._fields


def load_models_from_dir(directory) -> PipelineModels:
    """Every task's model from <task>.crf in a directory or package resource.
    Each model's task record, labels and template ids must be its task's
    entry in ``features.LABELING_TASKS``, the vocabulary its decoder reads.
    A malformed file or a mismatch is a ``ModelFormatError`` whose message
    starts with the file name; a mismatch's names the field too."""
    root = directory if hasattr(directory, "joinpath") else Path(directory)
    models = {}
    for task in TASKS:
        name = f"{task}.crf"
        try:
            models[task] = model = load_model(root.joinpath(name).read_bytes())
        except ModelFormatError as exc:
            raise ModelFormatError(f"{name}: {exc}") from exc
        spec = LABELING_TASKS[task]
        for field, found, expected in (
                ("task", model.task_name, task),
                ("labels", model.labels, spec.labels),
                ("templates", [t.id for t in model.templates],
                 [t.id for t in spec.templates])):
            if found != expected:
                raise ModelFormatError(
                    f"{name}: {field} is {found!r}, expected {expected!r}")
    return PipelineModels(**models)


def load_default_models() -> PipelineModels:
    """The pretrained models bundled with the package."""
    return load_models_from_dir(
        resources.files("scholarparse.data").joinpath("models"))


def _attach_affiliations(records, affiliations):
    """The records with the affiliations attached: the one affiliation to
    every author, else each in turn to the author at its position."""
    if len(affiliations) == 1:
        affiliations = affiliations * len(records)
    attached = [rec._replace(affiliation=aff)
                for rec, aff in zip(records, affiliations)]
    return attached + records[len(attached):]


@gc_paused
def extract_document(doc: Document,
                     models: PipelineModels) -> ExtractionResult:
    """Run the full extraction pipeline over one parsed document."""
    ctx = build_context(doc)
    chunks = ctx.chunks
    if not chunks:
        return ExtractionResult(source_id=doc.source_id)

    title_span = extract_title(ctx, models.title)
    if not title_span:
        title_span = title_fallback(ctx.first_page_chunks)

    names = extract_author_names(ctx, title_span, models.author)
    emails = extract_emails(ctx)
    authors = _attach_affiliations(map_authors_to_emails(names, emails),
                                   extract_affiliations(ctx))

    headings = label_headings(ctx, models.heading)
    sections = map_sections(chunks, headings)
    footnotes = extract_footnotes(ctx, models.footnote)
    captions = extract_caption_headings(chunks)

    try:
        start, stop = locate_reference_section(sections)
    except NoReferenceSectionError:
        start = stop = len(sections)
    run, remainder = sections[start:stop], sections[:start] + sections[stop:]

    # The references are read from the run's chunks up to the heading that
    # ends it, less the run's own headings.
    references = []
    if run:
        end = (sections[stop].heading.chunk_index if stop < len(sections)
               else len(chunks))
        own = {section.heading.chunk_index for section in run}
        lines = [(line.text, line.x)
                 for i in range(run[0].heading.chunk_index + 1, end)
                 if i not in own for line in chunks[i].lines]
        if lines:
            references = split_references(lines)

    citations = []
    for section in remainder:
        heading_text = None if section.heading is None else section.heading.text
        for cit in extract_citations(section.body_text):
            citations.append(cit._replace(section_heading=heading_text))

    # The run is one section: its paragraphs under its first heading.
    if run:
        remainder.append(Section(
            heading=run[0].heading,
            paragraphs=tuple(p for section in run for p in section.paragraphs)))

    seen = set()
    urls = []
    for chunk in chunks:
        for url in extract_urls(chunk.text):
            if url not in seen:
                seen.add(url)
                urls.append(url)
    return ExtractionResult(
        source_id=doc.source_id,
        title=" ".join(t.text for t in title_span),
        authors=authors,
        sections=remainder,
        urls=urls,
        footnotes=footnotes,
        captions=captions,
        references=references,
        citations=map_citations_to_references(citations, references))
