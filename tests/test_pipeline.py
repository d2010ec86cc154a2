"""Integration tests for the end-to-end pipeline with the bundled models."""

import os
import re
import subprocess
import sys
from functools import cache
from importlib import resources
from pathlib import Path
from xml.etree import ElementTree as ET

import pytest
from conftest import mutate_xml, reference_baseline_lines, xml_mutations
from hypothesis import given, settings
from hypothesis import strategies as st

from scholarparse import pipeline, training
from scholarparse.bibliography import split_references
from scholarparse.chunker import chunk_document
from scholarparse.context import build_context
from scholarparse.crf import TrainConfig
from scholarparse.crfmodel import ModelFormatError, save_model
from scholarparse.evaluate import TrainingPair
from scholarparse.features import LABELING_TASKS
from scholarparse.ingest import parse_rich_xml
from scholarparse.metadata import extract_affiliations, extract_emails
from scholarparse.model import Line, Token
from scholarparse.pipeline import (PipelineModels, extract_document,
                                   load_default_models, load_models_from_dir)
from scholarparse.structure import SectionHeading, label_headings
from scholarparse.synth import (BOTTOM, LEAD, STYLES,
                                generate_synthetic_document)
from scholarparse.tei import TEI_NS, export_tei
from scholarparse.training import TASKS


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
        for task in TASKS:
            (tmp_path / f"{task}.crf").write_bytes(
                save_model(getattr(models, task)))
        again = load_models_from_dir(tmp_path)
        for task in TASKS:
            assert (save_model(getattr(again, task))
                    == save_model(getattr(models, task)))


def test_pipeline_models_hold_one_model_per_task():
    assert list(PipelineModels._fields) == list(TASKS)
    assert tuple(LABELING_TASKS) == TASKS
    for task in TASKS:
        assert callable(getattr(training, f"build_{task}_sequences"))
    with pytest.raises(ValueError, match=r"^unknown task 'x'$"):
        training.train_task("x", [])


def bundled_model(task: str) -> bytes:
    return resources.files("scholarparse.data").joinpath(
        f"models/{task}.crf").read_bytes()


def model_dir(path, **payloads) -> Path:
    """``path`` holding every bundled model, but the given ones replaced."""
    for task in TASKS:
        (path / f"{task}.crf").write_bytes(
            payloads.get(task, bundled_model(task)))
    return path


def edited_author(old: bytes, new: bytes) -> bytes:
    payload = bundled_model("author")
    assert payload.count(old) == 1
    return payload.replace(old, new)


class TestLoadCheck:
    """``load_models_from_dir`` holds each model to its task's table entry."""

    @pytest.mark.parametrize("payload, message", [
        (bundled_model("title"),
         "author.crf: task is 'title', expected 'author'"),
        (edited_author(b"labels\tOTHER\tAUTHOR\n",
                       b"labels\tAUTHOR\tOTHER\n"),
         "author.crf: labels is ('AUTHOR', 'OTHER'), "
         "expected ('OTHER', 'AUTHOR')"),
        (edited_author(b"template\tbias\t",
                       b"template\textra\tboolean\t\ntemplate\tbias\t"),
         "author.crf: templates is ['extra', 'bias', "),
        (edited_author(b"template\tcase_prev\tcategorical\t"
                       b"case of current and previous token\n", b""),
         "author.crf: templates is ['bias', "),
    ], ids=["swapped file", "swapped labels", "extra template",
            "missing template"])
    def test_mismatch_names_the_file_and_the_field(self, tmp_path, payload,
                                                   message):
        with pytest.raises(ModelFormatError) as info:
            load_models_from_dir(model_dir(tmp_path, author=payload))
        assert str(info.value).startswith(message)

    @pytest.mark.parametrize("payload, message", [
        (bundled_model("author")[:2000], "author.crf: truncated payload"),
        (b"\xff" + bundled_model("author"),
         "author.crf: undecodable model payload: "),
    ], ids=["truncated", "not UTF-8"])
    def test_malformed_file_is_named(self, tmp_path, payload, message):
        with pytest.raises(ModelFormatError) as info:
            load_models_from_dir(model_dir(tmp_path, author=payload))
        assert str(info.value).startswith(message)

    def test_bundled_and_freshly_trained_models_load(self, tmp_path):
        pairs = []
        for style in STYLES:
            xml, truth = generate_synthetic_document(style, 77)
            pairs.append(TrainingPair(parse_rich_xml(xml)[0], truth))
        trained = training.train_all(pairs, TrainConfig(max_iterations=2))
        directory = model_dir(tmp_path, **{
            task: save_model(model) for task, model in trained.items()})
        for task, model in load_models_from_dir(directory)._asdict().items():
            assert save_model(model) == save_model(trained[task])
        assert load_default_models().author.task_name == "author"


def test_import_and_default_models_need_no_scipy():
    code = ("import sys; sys.modules['scipy'] = None; import scholarparse; "
            "scholarparse.load_default_models()")
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_front_matter_read_from_first_page_whatever_its_number(models):
    xml, _ = generate_synthetic_document("two-col-indexed", 4242)
    renumbered = re.sub(rb'<PAGE number="(\d+)"',
                        lambda m: b'<PAGE number="%d"' % (int(m[1]) + 100), xml)
    docs = [parse_rich_xml(data)[0] for data in (xml, renumbered)]
    assert [p.number for p in docs[1].pages] == [101, 102, 103]
    original, moved = (extract_document(doc, models) for doc in docs)
    def front(result):  # the source tokens carry their page numbers
        return [(r.name.full, r.email, r.affiliation) for r in result.authors]

    assert len(original.authors) == 3
    assert moved.title == original.title
    assert front(moved) == front(original)
    original_ctx, moved_ctx = (build_context(doc) for doc in docs)
    assert extract_emails(original_ctx)
    assert extract_emails(moved_ctx) == extract_emails(original_ctx)
    assert extract_affiliations(original_ctx)
    assert (extract_affiliations(moved_ctx)
            == extract_affiliations(original_ctx))


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

    def test_non_finite_page_height_falls_back(self, models):
        # A NaN height used to reach the footnote features' deciles and
        # raise "cannot convert float NaN to integer".
        xml, _ = generate_synthetic_document("two-col-indexed", 4242)
        bad = xml.replace(b'<PAGE number="1" width="612.0" height="792.0">',
                          b'<PAGE number="1" width="612.0" height="nan">')
        assert bad != xml
        doc, report = parse_rich_xml(bad)
        assert len(report.warnings) == 1 and "nan" in report.warnings[0]
        from scholarparse.tei import export_tei
        assert export_tei(extract_document(doc, models)) == export_tei(
            extract_document(parse_rich_xml(xml)[0], models))

    @pytest.mark.parametrize("style", STYLES)
    def test_title_fallback_takes_the_largest_font_chunk(self, models,
                                                        monkeypatch, style):
        xml, gt = generate_synthetic_document(style, 901, source_id=style)
        doc, _ = parse_rich_xml(xml, source_id=style)
        labeled = extract_document(doc, models)
        monkeypatch.setattr(pipeline, "extract_title", lambda ctx, model: [])
        res = extract_document(doc, models)
        first_page = build_context(doc).first_page_chunks
        largest = max(first_page, key=lambda c: sum(
            t.font_size for t in c.tokens) / len(c.tokens))
        assert res.title == " ".join(t.text for t in largest.tokens)
        assert res.title == gt.title
        assert res.authors and res.authors == labeled.authors

    def test_empty_document(self, models):
        from scholarparse.model import Document
        res = extract_document(Document(source_id="empty"), models)
        assert res.title == "" and res.sections == ()


class TestReferenceLines:
    """The reference splitter reads ingest's lines.  On a reference page
    with a footnote, the footnote's raised marker stays in its line, where
    a line rebuilt from baseline jumps split it off; the references are
    the same either way."""

    def test_raised_marker_stays_in_its_line(self, models, monkeypatch):
        xml, _ = generate_synthetic_document("single-col-numbered", 902)
        doc, _ = parse_rich_xml(xml)
        captured = []

        def spy(lines):
            captured.append(lines)
            return split_references(lines)

        monkeypatch.setattr(pipeline, "split_references", spy)
        result = extract_document(doc, models)
        (lines,) = captured
        notes = [line for page in doc.pages for line in page.lines
                 if line.tokens[0].sup_flag and (line.text, line.x) in lines]
        assert notes
        for note in notes:
            assert len(note.tokens) > 1
            assert (note.tokens[0].text, note.x) not in lines

        # The same document with every chunk's lines rebuilt by the
        # baseline-jump rule: the marker is a line of its own.
        ctx = build_context(doc)
        rebuilt = {id(c): c._replace(lines=reference_baseline_lines(c))
                   for c in ctx.chunks}
        ctx = ctx._replace(
            chunks=tuple(rebuilt[id(c)] for c in ctx.chunks),
            pages=tuple(pc._replace(chunks=tuple(rebuilt[id(c)]
                                                 for c in pc.chunks))
                        for pc in ctx.pages))
        monkeypatch.setattr(pipeline, "build_context", lambda _doc: ctx)
        captured.clear()
        baseline_result = extract_document(doc, models)
        (baseline_lines,) = captured
        for note in notes:
            assert (note.tokens[0].text, note.x) in baseline_lines
        assert result.references == baseline_result.references
        assert export_tei(result) == export_tei(baseline_result)


class TestReferenceRun:
    """A References heading followed by another heading and then an
    appendix: the sections up to the appendix are read as one reference
    list under the References heading."""

    FOLDED = "Spilled Heading"
    SPILLED_REF = "[9] Spilled, Ann. 2001. A late entry."
    APPENDIX = "Appendix A"
    APPENDIX_BODY = "appendix body text"

    def document(self):
        """A generated article with four lines added below its reference
        list, each its own chunk: two bold headings, each followed by a
        body line."""
        xml, _ = generate_synthetic_document("single-col-numbered", 901)
        doc, _ = parse_rich_xml(xml)
        last = doc.pages[-1]
        below = last.lines[-1]
        size = below.tokens[0].font_size
        lines = []
        for n, (text, bold) in enumerate(
                [(self.FOLDED, True), (self.SPILLED_REF, False),
                 (self.APPENDIX, True), (self.APPENDIX_BODY, False)], 1):
            baseline = below.baseline_y + 40.0 * n
            x, tokens = below.x, []
            for word in text.split():
                tokens.append(Token(word, last.number, x, baseline - size,
                                    5.0 * len(word), size, size, bold=bold))
                x += 5.0 * len(word) + 5.0
            lines.append(Line(tuple(tokens), baseline))
        page = last._replace(lines=last.lines + tuple(lines))
        return doc._replace(pages=doc.pages[:-1] + (page,))

    def headings(self, ctx, model):
        """The labeler's headings plus the two added heading chunks."""
        found = label_headings(ctx, model)
        marked = {h.chunk_index for h in found}
        found += [SectionHeading(chunk.text, i)
                  for i, chunk in enumerate(ctx.chunks)
                  if chunk.text in (self.FOLDED, self.APPENDIX)
                  and i not in marked]
        return sorted(found, key=lambda h: h.chunk_index)

    @pytest.fixture
    def extracted(self, models, monkeypatch):
        doc = self.document()
        ctx = build_context(doc)
        headings = self.headings(ctx, models.heading)
        monkeypatch.setattr(pipeline, "label_headings", self.headings)
        return extract_document(doc, models), ctx.chunks, headings

    def test_references_come_from_the_chunks_before_the_appendix(
            self, extracted):
        result, chunks, headings = extracted
        at = {h.text: h.chunk_index for h in headings}
        start, stop = at["6 References"], at[self.APPENDIX]
        assert start < at[self.FOLDED] < stop
        between = [(line.text, line.x) for i in range(start + 1, stop)
                   if i not in {h.chunk_index for h in headings}
                   for line in chunks[i].lines]
        assert result.references == split_references(between)
        assert result.references[-1].index == 9
        assert result.references[-1].raw_text == self.SPILLED_REF[4:]

    def test_folded_heading_is_in_no_reference_and_no_section(
            self, extracted):
        result, _, _ = extracted
        assert not any(self.FOLDED in ref.raw_text
                       for ref in result.references)
        for section in result.sections:
            if section.heading is not None:
                assert self.FOLDED not in section.heading.text
            assert self.FOLDED not in section.body_text
        ref_section = result.sections[-1]
        assert ref_section.heading.text == "6 References"
        assert ref_section.paragraphs[-1] == self.SPILLED_REF

    def test_appendix_stays_a_section_of_its_own(self, extracted):
        result, _, _ = extracted
        appendix = [s for s in result.sections
                    if s.heading is not None
                    and s.heading.text == self.APPENDIX]
        assert [s.paragraphs for s in appendix] == [(self.APPENDIX_BODY,)]
        assert not any(self.APPENDIX_BODY in ref.raw_text
                       or self.APPENDIX in ref.raw_text
                       for ref in result.references)



class TestWrappedReference:
    """The generator never wraps a reference.  A single-col-unnumbered
    article whose last reference line is cut in two, the second half on
    the next baseline and 12 pt right of the margin, gives the same
    references: the splitter's hanging-indent rule joins the halves."""

    @staticmethod
    def wrapped(doc):
        last = doc.pages[-1]
        cut = max((line for line in last.lines if line.baseline_y <= BOTTOM),
                  key=lambda line: line.baseline_y)
        half = len(cut.tokens) // 2
        shift = cut.x + 12.0 - cut.tokens[half].x
        tail = Line(tuple(t._replace(x=t.x + shift, y=t.y + LEAD)
                          for t in cut.tokens[half:]), cut.baseline_y + LEAD)
        lines = [line for line in last.lines if line is not cut]
        lines += [cut._replace(tokens=cut.tokens[:half]), tail]
        lines.sort(key=lambda line: line.baseline_y)
        page = last._replace(lines=tuple(lines))
        return doc._replace(pages=doc.pages[:-1] + (page,))

    def test_wrapped_last_reference_gives_the_same_references(self, models):
        for seed in range(9000, 9060):
            xml, _ = generate_synthetic_document("single-col-unnumbered",
                                                 seed)
            doc, _ = parse_rich_xml(xml)
            references = extract_document(doc, models).references
            assert references, seed
            assert extract_document(self.wrapped(doc),
                                    models).references == references, seed


# --- extraction and export over mutated XML ---------------------------------

# Token texts that read as footnote or author markers, e-mail addresses,
# citations and reference entries, wherever they land.
INJECTED_TEXT = [None, "", "x-", "*", "\u2020", "1", "a.b@c.org", "{a,b}@c.org",
                 "[3]", "[1,", "2]", "[99]", "Singh", "et", "al.,", "2013",
                 "2013a", "(2013)", "References", "Bibliography", "1.", "12."]
XML_ID = "{http://www.w3.org/XML/1998/namespace}id"


@cache
def article_xml(style: str) -> bytes:
    return generate_synthetic_document(style, 7)[0]


def resolved_targets(models, xml: bytes) -> list[str]:
    """Extract and export one document, check that the TEI parses and that
    every ref/@target names a bibl/@xml:id, and return the targets."""
    doc, _ = parse_rich_xml(xml)
    root = ET.fromstring(export_tei(extract_document(doc, models)))
    ids = {"#" + bibl.get(XML_ID) for bibl in root.iter(f"{{{TEI_NS}}}bibl")}
    targets = [ref.get("target") for ref in root.iter(f"{{{TEI_NS}}}ref")
               if ref.get("target") is not None]
    assert set(targets) <= ids
    return targets


class TestMutatedDocuments:
    @pytest.mark.parametrize("style", STYLES)
    def test_unmutated_article_links_citations(self, models, style):
        assert resolved_targets(models, article_xml(style))

    @given(st.sampled_from(STYLES),
           st.lists(xml_mutations(INJECTED_TEXT), max_size=8))
    @settings(max_examples=20)
    def test_export_parses_and_every_target_names_a_reference(
            self, models, style, mutations):
        # Anything raised by extraction or export fails the property.
        resolved_targets(models, mutate_xml(article_xml(style), mutations))
