"""Token-level scoring, micro-averaging, corpus splitting, ground-truth IO.

Token comparison is case-insensitive multiset overlap over whitespace
tokens.  Mapping pairs (author-email, citation-reference) are scored as
single composite tokens so a pair is either right or wrong.
"""

from __future__ import annotations

import math
import random
import re
from collections import Counter
from dataclasses import dataclass, field

from .tei import ExtractionResult

# Report rows, in the order the subtask accuracy table is presented.
REPORT_FIELDS = [
    "title",
    "author_first",
    "author_middle",
    "author_last",
    "email",
    "affiliation",
    "section_headings",
    "figure_headings",
    "table_headings",
    "urls",
    "footnotes",
    "author_email",
    "citations",
    "references",
    "cite_ref",
]


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


def _pair_token(*parts: str) -> str:
    return "=".join(re.sub(r"\s+", "_", p.strip().lower()) for p in parts)


def predicted_field_strings(result: ExtractionResult) -> dict[str, str]:
    """Flatten an ExtractionResult into one comparable string per field."""
    ordinals = {}
    for i, ref in enumerate(result.references):
        ordinals[id(ref)] = str(ref.index if ref.index is not None else i + 1)
    cite_ref_tokens = [
        _pair_token(link.citation.matched_text, ordinals[id(link.reference)])
        for link in result.citations if link.reference is not None
    ]
    author_email_tokens = [
        _pair_token(rec.name.full, rec.email.address)
        for rec in result.authors if rec.email is not None
    ]
    return {
        "title": result.title,
        "author_first": " ".join(r.name.first for r in result.authors),
        "author_middle": " ".join(r.name.middle for r in result.authors if r.name.middle),
        "author_last": " ".join(r.name.last for r in result.authors),
        "email": " ".join(r.email.address for r in result.authors if r.email),
        "affiliation": " ".join(a.text for a in
                                {id(r.affiliation): r.affiliation
                                 for r in result.authors
                                 if r.affiliation is not None}.values()),
        "section_headings": " ".join(s.heading.text for s in result.sections
                                     if s.heading is not None),
        "figure_headings": " ".join(c.full for c in result.captions
                                    if c.kind == "figure"),
        "table_headings": " ".join(c.full for c in result.captions
                                   if c.kind == "table"),
        "urls": " ".join(result.urls),
        "footnotes": " ".join(f.text for f in result.footnotes),
        "author_email": " ".join(author_email_tokens),
        "citations": " ".join(l.citation.matched_text for l in result.citations),
        "references": " ".join(r.raw_text for r in result.references),
        "cite_ref": " ".join(cite_ref_tokens),
    }


# Report fields scored as one GroundTruth list joined with spaces.
_GOLD_LISTS = {
    "email": "emails", "affiliation": "affiliations",
    "section_headings": "section_headings", "urls": "urls",
    "figure_headings": "figure_headings", "table_headings": "table_headings",
    "footnotes": "footnotes", "citations": "citations",
    "references": "references",
}


def gold_field_strings(gt: GroundTruth) -> dict[str, str]:
    fields = {name: " ".join(getattr(gt, attr))
              for name, attr in _GOLD_LISTS.items()}
    fields.update(
        title=gt.title,
        author_first=" ".join(a[0] for a in gt.authors),
        author_middle=" ".join(a[1] for a in gt.authors if a[1]),
        author_last=" ".join(a[2] for a in gt.authors),
        author_email=" ".join(_pair_token(name, email)
                              for name, email in gt.author_email),
        cite_ref=" ".join(_pair_token(text, ordinal)
                          for text, ordinal in gt.cite_ref),
    )
    return fields


def evaluate_extraction(result: ExtractionResult,
                        gt: GroundTruth) -> dict[str, TokenMetrics]:
    """Per-field token metrics for one document."""
    pred = predicted_field_strings(result)
    gold = gold_field_strings(gt)
    return {f: token_score(pred[f], gold[f]) for f in REPORT_FIELDS}


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
# the kinds in this order.  TITLE is written only when non-empty, an AUTHOR
# value is "first|middle|last", and the pair kinds carry two values.  A
# value is escaped so that it holds no tab and nothing str.splitlines breaks
# on: a backslash is written "\\", a tab "\t", a newline "\n", and the other
# line breaks (and "|" in an AUTHOR part) "\uXXXX".
GROUND_TRUTH_RECORDS = (
    ("TITLE", "title"), ("AUTHOR", "authors"), ("EMAIL", "emails"),
    ("AFFILIATION", "affiliations"), ("SECTION_HEADING", "section_headings"),
    ("FIGURE_HEADING", "figure_headings"), ("TABLE_HEADING", "table_headings"),
    ("URL", "urls"), ("FOOTNOTE", "footnotes"), ("REFERENCE", "references"),
    ("CITATION", "citations"), ("AUTHOR_EMAIL", "author_email"),
    ("CITE_REF", "cite_ref"),
)
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
