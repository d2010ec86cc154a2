"""Integration tests for the end-to-end pipeline with the bundled models."""

import re

import pytest

from scholarparse.chunker import chunk_document
from scholarparse.ingest import parse_rich_xml
from scholarparse.pipeline import (chunk_to_lines, extract_document,
                                   load_default_models, load_models_from_dir)
from scholarparse.synth import STYLES, generate_synthetic_document


@pytest.fixture(scope="module")
def models():
    return load_default_models()


@pytest.fixture(scope="module")
def results(models):
    out = {}
    for style in STYLES:
        xml, gt = generate_synthetic_document(style, 901, source_id=style)
        doc, _ = parse_rich_xml(xml, source_id=style)
        out[style] = (extract_document(doc, models), gt)
    return out


class TestDefaultModels:
    def test_all_four_tasks_bundled(self, models):
        assert models.title.task_name == "title"
        assert models.author.task_name == "author"
        assert models.heading.task_name == "heading"
        assert models.footnote.task_name == "footnote"

    def test_load_from_directory(self, tmp_path, models):
        from scholarparse.crf import save_model
        from scholarparse.pipeline import MODEL_FILES
        for task, name in MODEL_FILES.items():
            (tmp_path / name).write_bytes(save_model(getattr(models, task)))
        again = load_models_from_dir(tmp_path)
        assert again.title.unary_weights == models.title.unary_weights


class TestExtraction:
    def test_title_recovered(self, results):
        for style, (res, gt) in results.items():
            assert res.title == gt.title, style

    def test_section_headings_recovered(self, results):
        for style, (res, gt) in results.items():
            predicted = {s.heading.text for s in res.sections
                         if s.heading is not None}
            assert predicted == set(gt.section_headings), style

    def test_reference_count_matches(self, results):
        for style, (res, gt) in results.items():
            assert len(res.references) == len(gt.references), style

    def test_every_gold_email_found(self, results):
        for style, (res, gt) in results.items():
            found = {r.email.address for r in res.authors if r.email}
            assert found == set(gt.emails), style

    def test_urls_recovered(self, results):
        for style, (res, gt) in results.items():
            assert set(res.urls) == set(gt.urls), style

    def test_citations_all_linked_or_flagged(self, results):
        for style, (res, gt) in results.items():
            assert len(res.citations) >= len(gt.citations)
            for link in res.citations:
                assert link.method in ("index", "author-year", "unresolved")

    def test_citation_section_headings_are_real(self, results):
        for style, (res, _) in results.items():
            headings = {s.heading.text for s in res.sections if s.heading}
            for link in res.citations:
                h = link.citation.section_heading
                assert h is None or h in headings

    def test_deterministic(self, models):
        xml, _ = generate_synthetic_document(STYLES[0], 902, source_id="x")
        doc, _ = parse_rich_xml(xml, source_id="x")
        from scholarparse.tei import export_tei
        assert export_tei(extract_document(doc, models)) == export_tei(
            extract_document(doc, models))

    def test_repeated_page_numbers_keep_footnotes_once(self, models):
        xml, _ = generate_synthetic_document("two-col-indexed", 4242)
        renumbered = re.sub(rb'<PAGE number="\d+"', b'<PAGE number="2"', xml)
        notes = [(f.marker, f.text) for f in extract_document(
            parse_rich_xml(xml)[0], models).footnotes]
        again = [(f.marker, f.text) for f in extract_document(
            parse_rich_xml(renumbered)[0], models).footnotes]
        assert notes and again == notes

    def test_empty_document(self, models):
        from scholarparse.model import Document
        res = extract_document(Document(source_id="empty"), models)
        assert res.title == "" and res.sections == []


class TestChunkToLines:
    def test_splits_on_baseline_jumps(self, models):
        xml, _ = generate_synthetic_document(STYLES[0], 903, source_id="x")
        doc, _ = parse_rich_xml(xml, source_id="x")
        chunks = chunk_document(doc)
        lines = chunk_to_lines(chunks[0])
        assert all(isinstance(t, str) and isinstance(x, float)
                   for t, x in lines)
        assert " ".join(t for t, _ in lines) == chunks[0].text
