"""Feature builders for the four CRF tasks (title, author, heading, footnote).

Real-valued signals (relative position, relative size) are bucketed into
deciles and emitted as indicator features, keeping every model linear over
indicators.
"""

from __future__ import annotations

import re
from collections import Counter

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


TOKEN_TEMPLATES = (
    FeatureTemplate("bias", "boolean", "always-on bias"),
    FeatureTemplate("bold", "boolean", "token is bold"),
    FeatureTemplate("relpos_doc", "bucketed-real", "token position in document, deciles"),
    FeatureTemplate("relpos_chunk", "bucketed-real", "token position in sequence, deciles"),
    FeatureTemplate("relsize", "bucketed-real", "font size relative to body font"),
    FeatureTemplate("case", "categorical", "case class of first character"),
    FeatureTemplate("bold_size", "bucketed-real", "bold and relative-size conjunction"),
    FeatureTemplate("case_next", "categorical", "case of current and next token"),
    FeatureTemplate("case_prev", "categorical", "case of current and previous token"),
)


def token_features(tokens: list[Token], doc_positions: list[int],
                   doc_token_count: int, body_font: float) -> list[tuple[str, ...]]:
    """Per-token indicator features for the title and author labelers."""
    n = len(tokens)
    out = []
    for i, tok in enumerate(tokens):
        relpos_doc = doc_positions[i] / max(doc_token_count, 1)
        feats = [
            "bias",
            f"relpos_doc:{_decile(relpos_doc)}",
            f"relpos_chunk:{_decile(i / max(n, 1))}",
            f"relsize:{_size_bucket(tok.font_size, body_font)}",
            f"case:{_case(tok.text)}",
        ]
        if tok.bold:
            feats.append("bold")
            feats.append(f"bold_size:{_size_bucket(tok.font_size, body_font)}")
        nxt = _case(tokens[i + 1].text) if i + 1 < n else "_"
        prv = _case(tokens[i - 1].text) if i > 0 else "_"
        feats.append(f"case_next:{_case(tok.text)}{nxt}")
        feats.append(f"case_prev:{_case(tok.text)}{prv}")
        out.append(tuple(feats))
    return out


HEADING_TEMPLATES = (
    FeatureTemplate("bias", "boolean", "always-on bias"),
    FeatureTemplate("first", "categorical", "first token of the chunk, lowercased"),
    FeatureTemplate("second", "categorical", "second token of the chunk, lowercased"),
    FeatureTemplate("boldness", "bucketed-real", "average boldness of the chunk"),
    FeatureTemplate("size", "bucketed-real", "average font size relative to body font"),
    FeatureTemplate("enum", "categorical", "arabic/roman/alpha enumeration of first token"),
    FeatureTemplate("ntok", "bucketed-real", "chunk length bucket"),
)


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


def _word_feature(text: str) -> str:
    return re.sub(r"\W+", "", text.lower()) or "_"


def heading_chunk_features(chunks: list[Chunk], body_font: float) -> list[tuple[str, ...]]:
    """Per-chunk indicator features for the section-heading labeler."""
    out = []
    for chunk in chunks:
        first = chunk.tokens[0].text
        second = chunk.tokens[1].text if len(chunk.tokens) > 1 else "_"
        feats = (
            "bias",
            f"first:{_word_feature(first)}",
            f"second:{_word_feature(second)}",
            f"boldness:{min(4, int(chunk.avg_boldness * 4))}",
            f"size:{_size_bucket(chunk.avg_font_size, body_font)}",
            f"enum:{enumeration_kind(first)}",
            f"ntok:{min(5, len(chunk.tokens) // 3)}",
        )
        out.append(feats)
    return out


FOOTNOTE_TEMPLATES = (
    FeatureTemplate("bias", "boolean", "always-on bias"),
    FeatureTemplate("size", "bucketed-real", "average font size relative to body font"),
    FeatureTemplate("ypos", "bucketed-real", "vertical position of chunk top, deciles"),
    FeatureTemplate("sup_lead", "boolean", "chunk starts with a superscript marker"),
    FeatureTemplate("ntok", "bucketed-real", "chunk length bucket"),
)

def is_marker(tok: Token) -> bool:
    """Raised by the ingest geometry test, or starting with a marker glyph."""
    return tok.sup_flag or tok.text[0] in MARKER_GLYPHS


def footnote_chunk_features(chunks: list[Chunk], page: Page,
                            body_font: float) -> list[tuple[str, ...]]:
    """Per-chunk indicator features for the footnote labeler (one page)."""
    out = []
    for chunk in chunks:
        y_top = chunk.bbox[1]
        feats = [
            "bias",
            f"size:{_size_bucket(chunk.avg_font_size, body_font)}",
            f"ypos:{_decile(y_top / max(page.height, 1.0))}",
            f"ntok:{min(5, len(chunk.tokens) // 3)}",
        ]
        if is_marker(chunk.tokens[0]):
            feats.append("sup_lead")
        out.append(tuple(feats))
    return out


def font_counts(page: Page) -> Counter:
    """How many tokens of ``page`` have each font size."""
    return Counter([tok.font_size for line in page.lines for tok in line.tokens])


def modal_font(counts: Counter) -> float:
    """The most common font size, the smallest of those tied; 10.0 for no
    tokens.  This is the body text size estimate."""
    if not counts:
        return 10.0
    return max(counts.items(), key=lambda kv: (kv[1], -kv[0]))[0]
