"""The per-document entry points run with automatic garbage collection
paused, restore the collector's state, and leave no garbage that grows
with the input for the collector to find afterwards."""

import gc
from xml.etree import ElementTree as ET

import pytest
from conftest import mutate_xml, xml_mutations
from hypothesis import given, settings
from hypothesis import strategies as st
from test_pipeline import INJECTED_TEXT, article_xml

from scholarparse import ingest, pipeline, tei
from scholarparse.ingest import RichXmlParseError, parse_rich_xml
from scholarparse.pipeline import extract_document, load_default_models
from scholarparse.synth import STYLES, generate_synthetic_document
from scholarparse.tei import ExtractionResult, export_tei


@pytest.fixture(scope="module")
def models():
    return load_default_models()


def first_pages(count: int) -> bytes:
    """The first ``count`` pages of consecutive articles of one style,
    numbered 1..count in one DOCUMENT."""
    root = ET.Element("DOCUMENT")
    seed = 0
    while len(root) < count:
        source = ET.fromstring(generate_synthetic_document(STYLES[0], seed)[0])
        for page in source.findall("PAGE")[:count - len(root)]:
            page.set("number", str(len(root) + 1))
            root.append(page)
        seed += 1
    return ET.tostring(root)


def cyclic_garbage(work) -> int:
    """Objects in reference cycles that ``work()`` leaves unreachable, found
    by one collection with automatic collection off during the call."""
    gc.collect()
    gc.disable()
    try:
        work()
        return gc.collect()
    finally:
        gc.enable()


# name: (module, a function the entry point calls, a good call, a call
# that raises, what it raises)
ENTRY_POINTS = {
    "parse_rich_xml": (
        ingest, "_parse_page", lambda m: parse_rich_xml(article_xml(STYLES[0])),
        lambda m: parse_rich_xml(article_xml(STYLES[0])[:500]),
        RichXmlParseError),
    "extract_document": (
        pipeline, "build_context",
        lambda m: extract_document(parse_rich_xml(article_xml(STYLES[0]))[0], m),
        lambda m: extract_document(parse_rich_xml(article_xml(STYLES[0]))[0],
                                   None),
        AttributeError),
    "export_tei": (
        tei, "_header", lambda m: export_tei(ExtractionResult(title="T")),
        lambda m: export_tei(ExtractionResult(authors=[None])),
        AttributeError),
}


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_collector_paused_during_call(models, monkeypatch, name):
    module, callee, good, _bad, _exc = ENTRY_POINTS[name]
    original = getattr(module, callee)
    seen = []

    def spy(*args, **kwargs):
        seen.append(gc.isenabled())
        return original(*args, **kwargs)

    monkeypatch.setattr(module, callee, spy)
    good(models)
    assert seen and not any(seen)
    assert gc.isenabled()


@pytest.mark.parametrize("caller_enabled", [True, False])
@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_collector_state_restored(models, name, caller_enabled):
    _module, _callee, good, bad, exc = ENTRY_POINTS[name]
    if not caller_enabled:
        gc.disable()
    try:
        good(models)
        assert gc.isenabled() is caller_enabled
        with pytest.raises(exc):
            bad(models)
        assert gc.isenabled() is caller_enabled
    finally:
        gc.enable()


@pytest.mark.parametrize("style", STYLES)
def test_parse_and_extract_leave_no_cyclic_garbage(models, style):
    xml = article_xml(style)
    assert cyclic_garbage(
        lambda: extract_document(parse_rich_xml(xml)[0], models)) == 0


@given(st.sampled_from(STYLES),
       st.lists(xml_mutations(INJECTED_TEXT), max_size=8))
@settings(max_examples=20)
def test_mutated_documents_leave_no_cyclic_garbage(models, style, mutations):
    xml = mutate_xml(article_xml(style), mutations)
    assert cyclic_garbage(
        lambda: extract_document(parse_rich_xml(xml)[0], models)) == 0


def test_export_garbage_does_not_grow_with_the_document(models):
    counts = []
    for pages in (1, 45):
        doc, report = parse_rich_xml(first_pages(pages))
        assert report.page_count == pages
        result = extract_document(doc, models)
        counts.append(cyclic_garbage(lambda: export_tei(result)))
    assert counts[0] == counts[1]
