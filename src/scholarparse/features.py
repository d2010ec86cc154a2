"""Feature builders for the four CRF tasks (title, author, heading, footnote).

``LABELING_TASKS`` holds each task's labels and feature templates.  A
template is the record a model file holds (id, kind, description) and the
function giving its value at each item of a sequence; a row holds a boolean
template's id where its value is true, any other's ``id:value`` where its
value is not None.  A task lists its templates in the order model files
record them, which ``training`` trains with and ``pipeline`` checks models
against, and in the order rows emit them, in which decoding and training
add a row's weights; both orders are fixed by the pinned model bytes.

Real-valued signals (relative position, relative size) are bucketed into
deciles and emitted as indicator features, keeping every model linear over
indicators.  Nothing here imports numpy.
"""

from __future__ import annotations

import re
from collections import Counter
from typing import Callable, NamedTuple

from .crf import FeatureTemplate
from .model import Chunk, Page, Token

ARABIC_ENUM = re.compile(r"^\d+(\.\d+)*\.?$")
ROMAN_ENUM = re.compile(r"^[IVXLCDM]+\.?$")
ALPHA_ENUM = re.compile(r"^[A-Z]\.(\d+)?$")
# A leading heading or list enumeration: arabic, roman or single-letter.
# Unlike ALPHA_ENUM it does not accept "A.1".
ENUM_PREFIX = re.compile(r"\d+(\.\d+)*\.?|[IVXLCDM]+\.?|[A-Z]\.")

# Footnote and affiliation markers: superscript digits, then symbols.
MARKER_GLYPHS = "¹²³⁴⁵⁶⁷⁸⁹⁰*†‡§"
SUPERSCRIPT_TO_ASCII = str.maketrans(MARKER_GLYPHS[:10], "1234567890")


def _decile(value: float) -> int:
    return min(9, max(0, int(value * 10)))


def _size_bucket(font_size: float, reference: float) -> int:
    # Ratio buckets of width 0.1 clipped to [0, 2.0).  The epsilon keeps
    # exact boundary ratios (1.2, 0.9, ...) in the intended bucket.
    ratio = font_size / reference if reference > 0 else 1.0
    return min(19, max(0, int(ratio * 10 + 1e-6)))


def _case(text: str) -> str:
    ch = text[0]
    if ch.isupper():
        return "U"
    if ch.islower():
        return "l"
    if ch.isdigit():
        return "d"
    return "o"


def enumeration_kind(token_text: str) -> str:
    if ARABIC_ENUM.match(token_text):
        return "arabic"
    if ROMAN_ENUM.match(token_text):
        return "roman"
    if ALPHA_ENUM.match(token_text):
        return "alpha"
    return "none"


def strip_enumeration(text: str) -> str:
    """Text without a leading enumeration word, whitespace normalized."""
    words = text.split()
    if words and ENUM_PREFIX.fullmatch(words[0]):
        words = words[1:]
    return " ".join(words)


def heading_key(text: str) -> str:
    """A heading's text without its enumeration, lower-cased: the form in
    which headings are matched by name."""
    return strip_enumeration(text).lower()


def _word_feature(text: str) -> str:
    return re.sub(r"\W+", "", text.lower()) or "_"


def is_marker(tok: Token) -> bool:
    """Raised by the ingest geometry test, or starting with a marker glyph."""
    return tok.sup_flag or tok.text[0] in MARKER_GLYPHS


class _Sequence(dict):
    """One sequence being featurized: its items, tokens or chunks, what its
    templates read besides them, and each template's values, computed on
    first use, so a template reads another's as ``seq[template]``."""

    def __init__(self, items, body_font: float, page: Page | None = None,
                 positions=(), token_count: int = 0):
        super().__init__()
        self.items = items
        self.body_font = body_font
        self.page = page
        self.positions = positions  # each token's position in the document
        self.token_count = token_count

    def __missing__(self, template: Template) -> list:
        self[template] = values = template.values(self)
        return values


class Template(NamedTuple):
    """A feature template: the record a model file holds, and ``values``,
    which gives its value at each item of a sequence."""

    id: str
    kind: str  # "boolean", "bucketed-real", or "categorical"
    description: str
    values: Callable[[_Sequence], list]


def _rows(templates: tuple[Template, ...], seq: _Sequence
          ) -> list[tuple[str, ...]]:
    """One feature row per item of ``seq``, each template's feature in the
    order of ``templates``."""
    columns = []
    for tpl in templates:
        name = tpl.id
        if tpl.kind == "boolean":
            columns.append([name if v else None for v in seq[tpl]])
        else:
            columns.append([None if v is None else f"{name}:{v}"
                            for v in seq[tpl]])
    return [tuple(filter(None, row)) for row in zip(*columns)]


_BIAS = Template("bias", "boolean", "always-on bias",
                 lambda s: [True] * len(s.items))
_BOLD = Template("bold", "boolean", "token is bold",
                 lambda s: [t.bold for t in s.items])
_RELPOS_DOC = Template(
    "relpos_doc", "bucketed-real", "token position in document, deciles",
    lambda s: [_decile(p / max(s.token_count, 1)) for p in s.positions])
_RELPOS_CHUNK = Template(
    "relpos_chunk", "bucketed-real", "token position in sequence, deciles",
    lambda s: [_decile(i / len(s.items)) for i in range(len(s.items))])
_RELSIZE = Template(
    "relsize", "bucketed-real", "font size relative to body font",
    lambda s: [_size_bucket(t.font_size, s.body_font) for t in s.items])
_CASE = Template("case", "categorical", "case class of first character",
                 lambda s: [_case(t.text) for t in s.items])
_BOLD_SIZE = Template(
    "bold_size", "bucketed-real", "bold and relative-size conjunction",
    lambda s: [r if b else None for b, r in zip(s[_BOLD], s[_RELSIZE])])
_CASE_NEXT = Template(
    "case_next", "categorical", "case of current and next token",
    lambda s: [c + n for c, n in zip(s[_CASE], [*s[_CASE][1:], "_"])])
_CASE_PREV = Template(
    "case_prev", "categorical", "case of current and previous token",
    lambda s: [c + p for c, p in zip(s[_CASE], ["_", *s[_CASE]])])

_FIRST = Template(
    "first", "categorical", "first token of the chunk, lowercased",
    lambda s: [_word_feature(c.tokens[0].text) for c in s.items])
_SECOND = Template(
    "second", "categorical", "second token of the chunk, lowercased",
    lambda s: [_word_feature(c.tokens[1].text) if len(c.tokens) > 1 else "_"
               for c in s.items])
_BOLDNESS = Template(
    "boldness", "bucketed-real", "average boldness of the chunk",
    lambda s: [min(4, int(c.avg_boldness * 4)) for c in s.items])
_SIZE = Template(
    "size", "bucketed-real", "average font size relative to body font",
    lambda s: [_size_bucket(c.avg_font_size, s.body_font) for c in s.items])
_ENUM = Template(
    "enum", "categorical", "arabic/roman/alpha enumeration of first token",
    lambda s: [enumeration_kind(c.tokens[0].text) for c in s.items])
_NTOK = Template("ntok", "bucketed-real", "chunk length bucket",
                 lambda s: [min(5, len(c.tokens) // 3) for c in s.items])
_YPOS = Template(
    "ypos", "bucketed-real", "vertical position of chunk top, deciles",
    lambda s: [_decile(c.bbox[1] / max(s.page.height, 1.0)) for c in s.items])
_SUP_LEAD = Template(
    "sup_lead", "boolean", "chunk starts with a superscript marker",
    lambda s: [is_marker(c.tokens[0]) for c in s.items])


class Task(NamedTuple):
    """A labeling task: its labels, OTHER first, its templates in the order
    model files record them, and the same templates in the order its
    feature rows emit them."""

    labels: tuple[str, ...]
    templates: tuple[Template, ...]
    row: tuple[Template, ...]


_OTHER = "OTHER"
_TOKEN_TEMPLATES = (_BIAS, _BOLD, _RELPOS_DOC, _RELPOS_CHUNK, _RELSIZE, _CASE,
                    _BOLD_SIZE, _CASE_NEXT, _CASE_PREV)
_TOKEN_ROW = (_BIAS, _RELPOS_DOC, _RELPOS_CHUNK, _RELSIZE, _CASE, _BOLD,
              _BOLD_SIZE, _CASE_NEXT, _CASE_PREV)
_HEADING_TEMPLATES = (_BIAS, _FIRST, _SECOND, _BOLDNESS, _SIZE, _ENUM, _NTOK)
_FOOTNOTE_ROW = (_BIAS, _SIZE, _YPOS, _NTOK, _SUP_LEAD)

# Every labeling task, in the order of ``pipeline.TASKS``.
LABELING_TASKS = {
    "title": Task((_OTHER, "TITLE"), _TOKEN_TEMPLATES, _TOKEN_ROW),
    "author": Task((_OTHER, "AUTHOR"), _TOKEN_TEMPLATES, _TOKEN_ROW),
    "heading": Task((_OTHER, "HEADING"), _HEADING_TEMPLATES,
                    _HEADING_TEMPLATES),
    "footnote": Task((_OTHER, "FOOTNOTE"),
                     (_BIAS, _SIZE, _YPOS, _SUP_LEAD, _NTOK), _FOOTNOTE_ROW),
}


def token_features(tokens: list[Token], doc_positions: list[int],
                   doc_token_count: int, body_font: float) -> list[tuple[str, ...]]:
    """Per-token indicator features for the title and author labelers."""
    return _rows(_TOKEN_ROW, _Sequence(tokens, body_font,
                                       positions=doc_positions,
                                       token_count=doc_token_count))


def heading_chunk_features(chunks: list[Chunk], body_font: float) -> list[tuple[str, ...]]:
    """Per-chunk indicator features for the section-heading labeler."""
    return _rows(_HEADING_TEMPLATES, _Sequence(chunks, body_font))


def footnote_chunk_features(chunks: list[Chunk], page: Page,
                            body_font: float) -> list[tuple[str, ...]]:
    """Per-chunk indicator features for the footnote labeler (one page)."""
    return _rows(_FOOTNOTE_ROW, _Sequence(chunks, body_font, page))


def font_counts(page: Page) -> Counter:
    """How many tokens of ``page`` have each font size."""
    return Counter([tok.font_size for line in page.lines for tok in line.tokens])


def modal_font(counts: Counter) -> float:
    """The most common font size, the smallest of those tied; 10.0 for no
    tokens.  This is the body text size estimate."""
    if not counts:
        return 10.0
    return max(counts.items(), key=lambda kv: (kv[1], -kv[0]))[0]
