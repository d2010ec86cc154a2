"""Benchmark inputs, generated with ``scholarparse.synth`` from a seed.

Everything here is benchmark set-up: it runs before any timed work, and
the program under test later receives only the XML bytes built here.
Long documents and damaged documents are assembled at the XML level with
``xml.etree`` rather than with the program's own parser, so a change to
``scholarparse.ingest`` cannot change the inputs it is measured on.
"""

from __future__ import annotations

import copy
import re
from dataclasses import dataclass
from xml.etree import ElementTree as ET

from scholarparse.evaluate import GroundTruth
from scholarparse.synth import STYLES, generate_synthetic_document

# Synth layout constants: the main text flow stops at y = 700 and footnote
# lines sit below it; the two columns split at the page centre.
FOOTNOTE_BASELINE = 700.0
COLUMN_SPLIT_X = 306.0

# Seed ranges for the different document sets of one workload seed, so no
# article appears in two sets.
_SEED_STRIDE = 10_000


@dataclass
class InputDoc:
    """One benchmark input: XML bytes plus ground truth (None if damaged)."""

    doc_id: str
    xml: bytes
    truth: GroundTruth | None


def article_seed(workload_seed: int, offset: int, i: int) -> int:
    return workload_seed * _SEED_STRIDE * 8 + offset * _SEED_STRIDE + i


def articles(workload_seed: int, offset: int, per_style: int) -> list[InputDoc]:
    """``per_style`` articles of each style, interleaved by style."""
    out = []
    for i in range(per_style):
        for style in STYLES:
            seed = article_seed(workload_seed, offset, i)
            doc_id = f"{style}-{seed}"
            xml, truth = generate_synthetic_document(style, seed, doc_id)
            out.append(InputDoc(doc_id, xml, truth))
    return out


# --- damaged documents ------------------------------------------------------

_FONT_SIZE = re.compile(rb' font-size="[^"]*"')
_WIDTH = re.compile(rb' width="[^"]*"')
_PAGE_NUMBER = re.compile(rb'<PAGE number="[^"]*"')


def _replace_middle(pattern: re.Pattern, data: bytes, new: bytes) -> bytes:
    matches = list(pattern.finditer(data))
    if not matches:
        raise ValueError(f"pattern {pattern.pattern!r} not found")
    m = matches[len(matches) // 2]
    return data[:m.start()] + new + data[m.end():]


# The ingest defects listed in ROADMAP aim 3: each one loses the whole
# document through a bare ValueError in the seed code.
DEFECTS = {
    "font-size-zero": lambda xml: _replace_middle(_FONT_SIZE, xml,
                                                  b' font-size="0"'),
    "negative-width": lambda xml: _replace_middle(_WIDTH, xml,
                                                  b' width="-5.0"'),
    "page-number-x": lambda xml: _replace_middle(_PAGE_NUMBER, xml,
                                                 b'<PAGE number="x"'),
}


def damaged_documents(workload_seed: int, offset: int) -> list[InputDoc]:
    """One article per defect, each with that defect planted once."""
    out = []
    for k, (name, damage) in enumerate(DEFECTS.items()):
        style = STYLES[k % len(STYLES)]
        seed = article_seed(workload_seed, offset, k)
        xml, _truth = generate_synthetic_document(style, seed)
        out.append(InputDoc(f"damaged-{name}-{seed}", damage(xml), None))
    return out


def interleave(clean: list[InputDoc], damaged: list[InputDoc]) -> list[InputDoc]:
    """Spread the damaged documents evenly through the clean ones."""
    out = list(clean)
    step = len(clean) // (len(damaged) + 1)
    for k, doc in enumerate(damaged):
        out.insert((k + 1) * step + k, doc)
    return out


# --- long documents ---------------------------------------------------------

def _line_text(text_elem) -> str:
    return " ".join((tok.text or "").strip() for tok in text_elem)


def _line_key(text_elem) -> tuple[int, float]:
    """(column, baseline) of a TEXT element: its position in reading order."""
    first = text_elem[0]
    column = 0 if float(first.get("x")) < COLUMN_SPLIT_X else 1
    baseline = max(float(t.get("y")) + float(t.get("height"))
                   for t in text_elem)
    return column, baseline


def _reading_order(root) -> list[tuple[int, object, object]]:
    """(page index, PAGE, TEXT) of every main-flow line, in reading order."""
    out = []
    for p, page in enumerate(root):
        flow = [t for t in page if _line_key(t)[1] <= FOOTNOTE_BASELINE]
        flow.sort(key=_line_key)
        out.extend((p, page, t) for t in flow)
    return out


def _index_of(order, text: str) -> int:
    for i, (_p, _page, elem) in enumerate(order):
        if _line_text(elem) == text:
            return i
    raise ValueError(f"line {text!r} not found")


def _kept_lines(root, truth: GroundTruth, first: bool, last: bool):
    """TEXT elements kept from one article, grouped by page index.

    The first article keeps its front matter and abstract; every article
    keeps its numbered sections; only the last keeps its reference list.
    """
    order = _reading_order(root)
    start = 0 if first else _index_of(order, truth.section_headings[1])
    stop = len(order) if last else _index_of(order, truth.section_headings[-1])
    kept: dict[int, set[int]] = {}
    for p, _page, elem in order[start:stop]:
        kept.setdefault(p, set()).add(id(elem))
    pages = []
    for p, page in enumerate(root):
        if p not in kept:
            continue
        lines = [t for t in page
                 if id(t) in kept[p] or _line_key(t)[1] > FOOTNOTE_BASELINE]
        pages.append((page, lines))
    return pages


def _merge_truth(truths: list[GroundTruth]) -> GroundTruth:
    """Ground truth of the composed document.

    Citations in every article but the last point into reference lists that
    were dropped, so only the last article's citation-reference pairs are
    gold; the other citations still count as citation instances.
    """
    first, last = truths[0], truths[-1]
    merged = GroundTruth(title=first.title, authors=list(first.authors),
                         emails=list(first.emails),
                         affiliations=list(first.affiliations),
                         author_email=list(first.author_email),
                         references=list(last.references),
                         cite_ref=list(last.cite_ref))
    merged.section_headings.append(first.section_headings[0])
    for t in truths:
        merged.section_headings.extend(t.section_headings[1:-1])
        for name in ("figure_headings", "table_headings", "urls",
                     "footnotes", "citations"):
            getattr(merged, name).extend(getattr(t, name))
    merged.section_headings.append(last.section_headings[-1])
    return merged


def compose_long(parts: list[tuple[bytes, GroundTruth]],
                 doc_id: str) -> InputDoc:
    """One long document from several articles of the same style."""
    root = ET.Element("DOCUMENT")
    number = 0
    for k, (xml, truth) in enumerate(parts):
        source = ET.fromstring(xml)
        for page, lines in _kept_lines(source, truth, k == 0,
                                       k == len(parts) - 1):
            number += 1
            attrs = dict(page.attrib, number=str(number))
            new_page = ET.SubElement(root, "PAGE", attrs)
            new_page.extend(copy.deepcopy(t) for t in lines)
    xml = ET.tostring(root, encoding="utf-8", xml_declaration=True)
    return InputDoc(doc_id, xml, _merge_truth([t for _x, t in parts]))


def token_count(xml: bytes) -> int:
    return xml.count(b"<TOKEN ")


def long_documents(workload_seed: int, offset: int, target_tokens: int
                   ) -> list[InputDoc]:
    """One long document per style, grown article by article until its
    front matter and sections reach ``target_tokens`` tokens; the last
    article's reference list comes on top."""
    out = []
    for s, style in enumerate(STYLES):
        parts = []
        tokens = 0
        while tokens < target_tokens:
            seed = article_seed(workload_seed, offset + s, len(parts))
            xml, truth = generate_synthetic_document(style, seed)
            kept = _kept_lines(ET.fromstring(xml), truth, not parts, False)
            tokens += sum(len(t) for _page, lines in kept for t in lines)
            parts.append((xml, truth))
        out.append(compose_long(parts, f"long-{style}-{workload_seed}"))
    return out
