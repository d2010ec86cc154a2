"""Token-level scoring, micro-averaging, corpus splitting, ground-truth IO
and corpus reading.

``REPORT_FIELDS`` is the table of report fields, in the order the subtask
accuracy table presents them.  Each entry gives a field's strings as a
list, once from an ``ExtractionResult`` (``predicted``) and once from a
``GroundTruth`` (``gold``); ``evaluate_extraction`` scores each side joined
with spaces, and ``aggregate`` and ``render_report`` walk the table.

Token comparison is case-insensitive multiset overlap over whitespace
tokens.  Mapping pairs (author-email, citation-reference) are scored as
single composite tokens so a pair is either right or wrong.

A corpus is a directory of X.xml/X.gt.txt pairs; ``read_pair`` reads one
as ``scholarparse extract`` reads a document, for training and for
evaluation alike, so ``scholarparse eval`` loads neither the trainer nor
numpy.
"""

from __future__ import annotations

import math
import random
import re
from collections import Counter
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable, NamedTuple

from .bibliography import reference_number
from .ingest import parse_rich_xml
from .model import Document
from .tei import ExtractionResult


@dataclass
class GroundTruth:
    """What a document contains, field by field; extraction is scored
    against it."""

    title: str = ""
    authors: list[tuple[str, str, str]] = field(default_factory=list)
    emails: list[str] = field(default_factory=list)
    affiliations: list[str] = field(default_factory=list)
    section_headings: list[str] = field(default_factory=list)
    figure_headings: list[str] = field(default_factory=list)
    table_headings: list[str] = field(default_factory=list)
    urls: list[str] = field(default_factory=list)
    footnotes: list[str] = field(default_factory=list)
    references: list[str] = field(default_factory=list)
    citations: list[str] = field(default_factory=list)
    author_email: list[tuple[str, str]] = field(default_factory=list)
    cite_ref: list[tuple[str, str]] = field(default_factory=list)


def _pair_token(*parts: str) -> str:
    return "=".join(re.sub(r"\s+", "_", p.strip().lower()) for p in parts)


class ReportField(NamedTuple):
    """How a report field reads its strings from each side."""

    predicted: Callable[[ExtractionResult], list[str]]
    gold: Callable[[GroundTruth], list[str]]


def _name_part(i: int) -> ReportField:
    """An author name part (0 first, 1 middle, 2 last) of every author."""
    return ReportField(
        lambda result: [r.name[i] for r in result.authors if r.name[i]],
        lambda gt: [a[i] for a in gt.authors if a[i]])


def _captions(kind: str) -> Callable[[ExtractionResult], list[str]]:
    return lambda result: [c.text for c in result.captions if c.kind == kind]


def _affiliations(result: ExtractionResult) -> list[str]:
    """Each affiliation attached to an author, once."""
    return list({id(r.affiliation): r.affiliation.text for r in result.authors
                 if r.affiliation is not None}.values())


def _cite_refs(result: ExtractionResult) -> list[str]:
    """Each linked citation paired with its reference's number."""
    ordinals = {id(ref): str(reference_number(ref, i))
                for i, ref in enumerate(result.references)}
    return [_pair_token(link.citation.matched_text, ordinals[id(link.reference)])
            for link in result.citations if link.reference is not None]


REPORT_FIELDS: dict[str, ReportField] = {
    "title": ReportField(lambda result: [result.title],
                         lambda gt: [gt.title]),
    "author_first": _name_part(0),
    "author_middle": _name_part(1),
    "author_last": _name_part(2),
    "email": ReportField(
        lambda result: [r.email.address for r in result.authors if r.email],
        lambda gt: gt.emails),
    "affiliation": ReportField(_affiliations, lambda gt: gt.affiliations),
    "section_headings": ReportField(
        lambda result: [s.heading.text for s in result.sections
                        if s.heading is not None],
        lambda gt: gt.section_headings),
    "figure_headings": ReportField(_captions("figure"),
                                   lambda gt: gt.figure_headings),
    "table_headings": ReportField(_captions("table"),
                                  lambda gt: gt.table_headings),
    "urls": ReportField(lambda result: list(result.urls), lambda gt: gt.urls),
    "footnotes": ReportField(
        lambda result: [f.text for f in result.footnotes],
        lambda gt: gt.footnotes),
    "author_email": ReportField(
        lambda result: [_pair_token(r.name.full, r.email.address)
                        for r in result.authors if r.email is not None],
        lambda gt: [_pair_token(*pair) for pair in gt.author_email]),
    "citations": ReportField(
        lambda result: [link.citation.matched_text
                        for link in result.citations],
        lambda gt: gt.citations),
    "references": ReportField(
        lambda result: [r.raw_text for r in result.references],
        lambda gt: gt.references),
    "cite_ref": ReportField(
        _cite_refs, lambda gt: [_pair_token(*pair) for pair in gt.cite_ref]),
}


@dataclass(frozen=True)
class TokenMetrics:
    """True positive, false positive and false negative token counts, with
    the precision, recall and F-score they give."""

    tp: int = 0
    fp: int = 0
    fn: int = 0

    @property
    def precision(self) -> float:
        return self.tp / (self.tp + self.fp) if self.tp + self.fp else 0.0

    @property
    def recall(self) -> float:
        return self.tp / (self.tp + self.fn) if self.tp + self.fn else 0.0

    @property
    def f_score(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if p + r else 0.0


def _tokens(text: str) -> Counter:
    return Counter(text.lower().split())


def token_score(predicted: str, gold: str) -> TokenMetrics:
    """Multiset token overlap between a predicted and a gold string."""
    pred, gld = _tokens(predicted), _tokens(gold)
    tp = sum((pred & gld).values())
    return TokenMetrics(tp=tp, fp=sum(pred.values()) - tp,
                        fn=sum(gld.values()) - tp)


def micro_average(metrics) -> TokenMetrics:
    """Sum counts across documents, then compute precision/recall once."""
    tp = sum(m.tp for m in metrics)
    fp = sum(m.fp for m in metrics)
    fn = sum(m.fn for m in metrics)
    return TokenMetrics(tp=tp, fp=fp, fn=fn)


def split_corpus(doc_ids, train_fraction: float, seed: int):
    """Deterministic shuffle; first ceil(fraction * n) ids form the train set."""
    doc_ids = list(doc_ids)
    if not doc_ids:
        raise ValueError("empty corpus")
    if not 0 < train_fraction < 1:
        raise ValueError("train_fraction must lie in (0, 1)")
    rng = random.Random(seed)
    rng.shuffle(doc_ids)
    n_train = math.ceil(train_fraction * len(doc_ids))
    return doc_ids[:n_train], doc_ids[n_train:]


def evaluate_extraction(result: ExtractionResult,
                        gt: GroundTruth) -> dict[str, TokenMetrics]:
    """Per-field token metrics for one document."""
    return {name: token_score(" ".join(f.predicted(result)),
                              " ".join(f.gold(gt)))
            for name, f in REPORT_FIELDS.items()}


def aggregate(per_doc: list[dict[str, TokenMetrics]]) -> dict[str, TokenMetrics]:
    """Micro-average per-field metrics across documents."""
    return {f: micro_average([doc[f] for doc in per_doc])
            for f in REPORT_FIELDS}


def render_report(metrics: dict[str, TokenMetrics]) -> str:
    """Aligned plain-text table followed by machine-readable key-value lines."""
    lines = [f"{'field':<18} {'P':>6} {'R':>6} {'F':>6} {'tp':>6} {'fp':>6} {'fn':>6}"]
    for name in REPORT_FIELDS:
        m = metrics[name]
        lines.append(f"{name:<18} {m.precision:6.3f} {m.recall:6.3f} "
                     f"{m.f_score:6.3f} {m.tp:6d} {m.fp:6d} {m.fn:6d}")
    lines.append("")
    for name in REPORT_FIELDS:
        m = metrics[name]
        lines.append(f"{name}.precision={m.precision:.6f}")
        lines.append(f"{name}.recall={m.recall:.6f}")
        lines.append(f"{name}.f={m.f_score:.6f}")
    return "\n".join(lines) + "\n"


# Ground-truth file IO: one "KIND<TAB>value" record per line, UTF-8, with
# one kind per GroundTruth field, in the fields' order.  TITLE is written only when non-empty, an AUTHOR
# value is "first|middle|last", and the pair kinds carry two values.  A
# value is escaped so that it holds no tab and nothing str.splitlines breaks
# on: a backslash is written "\\", a tab "\t", a newline "\n", and the other
# line breaks (and "|" in an AUTHOR part) "\uXXXX".
GROUND_TRUTH_RECORDS = tuple(zip(
    ("TITLE", "AUTHOR", "EMAIL", "AFFILIATION", "SECTION_HEADING",
     "FIGURE_HEADING", "TABLE_HEADING", "URL", "FOOTNOTE", "REFERENCE",
     "CITATION", "AUTHOR_EMAIL", "CITE_REF"),
    (f.name for f in fields(GroundTruth))))
_PAIR_KINDS = ("AUTHOR_EMAIL", "CITE_REF")
_ESCAPES = {ord(c): f"\\u{ord(c):04x}"
            for c in "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"}
_ESCAPES.update({ord("\\"): "\\\\", ord("\t"): "\\t", ord("\n"): "\\n"})
_AUTHOR_PART_ESCAPES = {**_ESCAPES, ord("|"): "\\u007c"}
_ESCAPE_SEQUENCE = re.compile(r"\\(?:u([0-9a-f]{4})|([\\tn]))")
_UNESCAPED = {"\\": "\\", "t": "\t", "n": "\n"}


def _unescape(value: str) -> str:
    return _ESCAPE_SEQUENCE.sub(
        lambda m: chr(int(m[1], 16)) if m[1] else _UNESCAPED[m[2]], value)


def ground_truth_to_text(gt: GroundTruth) -> str:
    lines = [f"TITLE\t{gt.title.translate(_ESCAPES)}"] if gt.title else []
    for kind, attr in GROUND_TRUTH_RECORDS[1:]:
        for value in getattr(gt, attr):
            if kind == "AUTHOR":
                value = ["|".join(part.translate(_AUTHOR_PART_ESCAPES)
                                  for part in value)]
            else:
                value = [v.translate(_ESCAPES) for v in
                         (value if kind in _PAIR_KINDS else [value])]
            lines.append("\t".join([kind, *value]))
    return "\n".join(lines) + "\n"


def ground_truth_from_text(text: str) -> GroundTruth:
    gt = GroundTruth()
    attrs = dict(GROUND_TRUTH_RECORDS)
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        kind, *values = line.split("\t")
        if kind not in attrs:
            raise ValueError(f"line {lineno}: unknown ground-truth field "
                             f"{kind!r}")
        arity = 2 if kind in _PAIR_KINDS else 1
        if len(values) != arity:
            raise ValueError(f"line {lineno}: {kind} record needs {arity} "
                             f"tab-separated value(s), got {len(values)}")
        if kind == "AUTHOR":
            parts = values[0].split("|")
            if len(parts) > 3:
                raise ValueError(f"line {lineno}: AUTHOR record has "
                                 f"{len(parts)} '|'-separated parts, not 3")
            parts += [""] * (3 - len(parts))
            gt.authors.append(tuple(_unescape(p) for p in parts))
            continue
        values = [_unescape(v) for v in values]
        if kind == "TITLE":
            gt.title = values[0]
        else:
            getattr(gt, attrs[kind]).append(
                tuple(values) if arity == 2 else values[0])
    return gt


@dataclass
class TrainingPair:
    """A parsed document with the ground truth it is trained against."""

    document: Document
    truth: GroundTruth


def corpus_files(directory) -> list[Path]:
    """The X.xml files under a directory that have an X.gt.txt, sorted."""
    directory = Path(directory)
    files = [path for path in sorted(directory.glob("*.xml"))
             if path.with_name(path.stem + ".gt.txt").exists()]
    if not files:
        raise ValueError(f"no xml/gt pairs under {directory}")
    return files


def read_pair(xml_path, dehyphenate: bool = False) -> TrainingPair:
    """X.xml with its X.gt.txt, the document read as ``scholarparse
    extract`` reads it: ``source_id`` is the file stem."""
    xml_path = Path(xml_path)
    doc, _report = parse_rich_xml(xml_path.read_bytes(),
                                  dehyphenate=dehyphenate,
                                  source_id=xml_path.stem)
    truth = ground_truth_from_text(
        xml_path.with_name(xml_path.stem + ".gt.txt").read_text("utf-8"))
    return TrainingPair(document=doc, truth=truth)


def load_corpus(directory) -> list[TrainingPair]:
    """Every pair of ``corpus_files(directory)``, read in that order."""
    return [read_pair(path) for path in corpus_files(directory)]
