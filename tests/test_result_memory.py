"""An ExtractionResult holds plain data: no parsed-document object is
reachable from it, so each document is freed when its extraction returns,
and a batch of held results costs memory in proportion to its output."""

import dataclasses
import gc
import tracemalloc

import pytest
from conftest import mutate_xml, xml_mutations
from hypothesis import given, settings
from hypothesis import strategies as st

from scholarparse.context import DocumentContext, PageContext
from scholarparse.ingest import parse_rich_xml
from scholarparse.model import Chunk, Document, Line, Page, Token
from scholarparse.pipeline import extract_document, load_default_models
from scholarparse.synth import STYLES, generate_synthetic_document
from scholarparse.tei import export_tei

DOCUMENT_TYPES = (Token, Chunk, Line, Page, Document, PageContext,
                  DocumentContext)

INJECTED_TEXT = [None, "", "x-", "*", "†", "1", "a.b@c.org", "[3]",
                 "Singh", "2013", "References", "Bibliography", "Appendix",
                 "1.", "http://data.example.org/x"]


@pytest.fixture(scope="module")
def models():
    return load_default_models()


def document_objects(root) -> list[str]:
    """The type names of the parsed-document objects reachable from
    ``root`` through dataclass fields, tuples, lists, sets and dicts."""
    found = []
    seen = set()
    stack = [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, DOCUMENT_TYPES):
            found.append(type(obj).__name__)
        elif dataclasses.is_dataclass(obj):
            stack.extend(getattr(obj, f.name) for f in dataclasses.fields(obj))
        elif isinstance(obj, (tuple, list, set, frozenset)):
            stack.extend(obj)
        elif isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
    return found


def test_walk_finds_a_token_inside_records():
    token = Token(text="x", page_no=1, x=0, y=0, width=5, height=10,
                  font_size=10)

    @dataclasses.dataclass
    class Holder:
        items: object

    assert document_objects(Holder([{"k": (token,)}])) == ["Token"]


@given(st.sampled_from(STYLES), st.integers(0, 200),
       st.lists(xml_mutations(INJECTED_TEXT), max_size=6))
@settings(max_examples=25, deadline=None)
def test_no_document_object_is_reachable_from_a_result(models, style, seed,
                                                       mutations):
    xml = mutate_xml(generate_synthetic_document(style, seed)[0], mutations)
    doc, _report = parse_rich_xml(xml)
    result = extract_document(doc, models)
    assert document_objects(result) == []


def test_held_results_retain_less_than_eight_times_their_tei(models):
    articles = [generate_synthetic_document(style, seed)[0]
                for seed in range(9000, 9005) for style in STYLES]
    # Warm every lazily built table before counting.
    extract_document(parse_rich_xml(articles[0])[0], models)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        results = [extract_document(parse_rich_xml(xml)[0], models)
                   for xml in articles]
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    tei_bytes = sum(len(export_tei(r).encode("utf-8")) for r in results)
    assert len(results) == 20
    assert retained < 8 * tei_bytes, (
        f"{retained / len(results) / 1e3:.1f} kB retained per result against "
        f"{tei_bytes / len(results) / 1e3:.1f} kB of TEI")
