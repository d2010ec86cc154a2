"""Ingest holds the element tree of about one page at a time: the memory a
parse needs above the Document it returns stays under a fixed bound, and
does not grow with the page count."""

import gc
import tracemalloc
from xml.etree import ElementTree as ET

import pytest

from scholarparse.ingest import parse_rich_xml
from scholarparse.synth import STYLES, generate_synthetic_document

PAGE_COUNTS = (20, 80)


def pages_xml(count: int) -> bytes:
    """A document of ``count`` pages, taken in order from generated
    articles of every style and numbered 1 to ``count``."""
    root = ET.Element("DOCUMENT")
    seed = 0
    while len(root) < count:
        article = generate_synthetic_document(STYLES[seed % len(STYLES)],
                                              seed)[0]
        for page in ET.fromstring(article)[:count - len(root)]:
            page.set("number", str(len(root) + 1))
            root.append(page)
        seed += 1
    return ET.tostring(root, encoding="utf-8", xml_declaration=True)


def parse_overhead(data: bytes, pages: int) -> int:
    """The traced peak of one parse minus what its result still holds."""
    gc.collect()
    tracemalloc.start()
    try:
        result = parse_rich_xml(data)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result[1].page_count == pages
    return peak - held


@pytest.fixture(scope="module")
def overheads():
    inputs = {n: pages_xml(n) for n in PAGE_COUNTS}
    # Warm whatever a first parse builds once before counting.
    parse_rich_xml(inputs[PAGE_COUNTS[0]])
    return {n: parse_overhead(data, n) for n, data in inputs.items()}


def test_an_80_page_parse_needs_under_1_mb_above_its_document(overheads):
    assert overheads[80] < 1e6, f"{overheads[80] / 1e6:.2f} MB"


def test_the_overhead_does_not_grow_from_20_to_80_pages(overheads):
    # A page's element tree is about 0.25 MB; holding the whole tree, as a
    # parse of the input in one piece does, adds about 5 MB per 20 pages.
    assert overheads[80] < overheads[20] + 0.25e6, (
        f"{overheads[20] / 1e6:.2f} MB at 20 pages, "
        f"{overheads[80] / 1e6:.2f} MB at 80")
