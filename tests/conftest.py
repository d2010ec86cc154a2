import gc
import math
import random
import re
import statistics
from xml.etree import ElementTree as ET

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from scholarparse.bibliography import (_BRACKET_START, _NUMBER_START, _finish,
                                       _instance)
from scholarparse.chunker import ChunkParams, _split_columns
from scholarparse.context import DocumentContext
from scholarparse.crf import (CrfError, CrfModel, _emissions, _logaddexp,
                              _occurrences, _path_score, _split)
from scholarparse.features import (_case, _decile, _size_bucket,
                                   _word_feature, enumeration_kind, is_marker)
from scholarparse.ingest import (SUP_FONT_RATIO, SUP_RISE_PT, IngestReport,
                                 RichXmlParseError, _dehyphenate_page)
from scholarparse.metadata import AUTHOR_WINDOW
from scholarparse.model import (Chunk, Document, EmptyChunkError, Line, Page,
                               Token)

# Every property test draws the same examples on every run.
settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")


def random_instance(rng: random.Random, max_len: int = 8, max_labels: int = 4,
                    integer_weights: bool = False,
                    n_labels: int | None = None):
    """A random model plus feature sequence for oracle comparisons; the
    label count is drawn from 2..max_labels unless ``n_labels`` is given."""
    n = rng.randint(1, max_len)
    if n_labels is None:
        n_labels = rng.randint(2, max_labels)
    labels = tuple(f"L{i}" for i in range(n_labels))
    pool = [f"f{i}" for i in range(6)]
    feats = [tuple(rng.sample(pool, rng.randint(1, 3))) for _ in range(n)]

    def draw():
        return float(rng.randint(-2, 2)) if integer_weights else rng.uniform(-2.0, 2.0)

    unary = {(f, lab): draw() for f in pool for lab in labels
             if rng.random() < 0.8}
    trans = {(a, b): draw() for a in labels for b in labels}
    return CrfModel.from_weights(labels, unary, trans), feats


def weight_arrays(model: CrfModel):
    """The model's unary and transition weights as float arrays."""
    L = len(model.labels)
    return (np.asarray(model.unary, dtype=float).reshape(-1, L),
            np.asarray(model.transitions, dtype=float).reshape(L, L))


def path_scores(model: CrfModel, feats):
    """Every label path, as rows of label indices in lexicographic order,
    and the score of each.

    Vectorized so the oracles stay usable on hundreds of instances.  It
    reads the weight arrays directly, without the model's own emission or
    scoring code.
    """
    n, n_labels = len(feats), len(model.labels)
    unary, trans = weight_arrays(model)
    emit = np.zeros((n, n_labels))
    for t, active in enumerate(feats):
        for j in range(n_labels):
            emit[t, j] = sum(float(unary[i, j])
                             for i, f in enumerate(model.features)
                             if f in active)

    grids = np.meshgrid(*[np.arange(n_labels)] * n, indexing="ij")
    paths = np.stack([g.ravel() for g in grids], axis=1)
    scores = emit[np.arange(n), paths].sum(axis=1)
    for t in range(1, n):
        scores += trans[paths[:, t - 1], paths[:, t]]
    return paths, scores


def enumerate_paths(model: CrfModel, feats):
    """Every label path as (label indices, labels, score)."""
    paths, scores = path_scores(model, feats)
    return [(tuple(int(v) for v in row), [model.labels[i] for i in row],
             float(s)) for row, s in zip(paths, scores)]


def brute_force_decode(model: CrfModel, feats, tol: float = 1e-9):
    """Oracle decoder: max score, ties broken by the reversed index tuple.

    The dynamic program backtracks from the final position choosing the
    lowest label index at every tie, which selects the path minimal under
    reverse-lexicographic comparison of label indices.
    """
    paths, scores = path_scores(model, feats)
    best = float(scores.max())
    candidates = paths[scores >= best - tol]
    idx = min((tuple(int(v) for v in row) for row in candidates),
              key=lambda tup: tuple(reversed(tup)))
    return [model.labels[i] for i in idx], best


def reference_viterbi_decode(model: CrfModel, feats):
    """Oracle for ``crf.viterbi_decode``: the numpy recursion it replaced,
    with one ``np.argmax`` per position (lowest index wins ties)."""
    if not feats:
        raise CrfError("empty sequence")
    unary, T = weight_arrays(model)
    em = _emissions(unary, *_occurrences(model, feats), (len(feats),))
    n, L = em.shape
    delta = np.empty((n, L))
    back = np.zeros((n, L), dtype=int)
    delta[0] = em[0]
    for t in range(1, n):
        cand = delta[t - 1][:, None] + T  # cand[prev, cur]
        back[t] = np.argmax(cand, axis=0)
        delta[t] = cand[back[t], np.arange(L)] + em[t]
    path = [int(np.argmax(delta[-1]))]
    for t in range(n - 1, 0, -1):
        path.append(int(back[t, path[-1]]))
    path.reverse()
    return [model.labels[i] for i in path]


def reference_logsumexp(a: np.ndarray, axis: int):
    """Oracle for ``crf._logaddexp``: log(sum(exp(a))) along an axis as
    scipy.special.logsumexp computes it, log1p(s / m) + log(m) + max, the m
    maximal entries left out of s."""
    a_max = np.maximum.reduce(a, axis=axis, keepdims=True)
    is_max = a == a_max
    m = np.add.reduce(is_max, axis=axis, dtype=float, keepdims=True)
    s = np.add.reduce(np.exp(np.where(is_max, -np.inf, a) - a_max), axis=axis,
                      keepdims=True)
    return np.squeeze(np.log1p(s / m) + np.log(m) + a_max, axis=axis)[()]


def _fold(terms):
    """``_logaddexp`` folded from the left over a list of arrays."""
    acc = terms[0]
    for term in terms[1:]:
        acc = _logaddexp(acc, term)
    return acc


def per_sequence_objective(model: CrfModel, dataset):
    """Oracle for ``crf._objective`` on ``dataset`` compiled against
    ``model``: the same sums in the same order, with one forward (and
    backward) recursion per sequence over its own positions, and each
    sequence's own path score and gradient counts, as the objective ran
    before the sequences were batched.  It runs its own recursions, so it
    ignores a ``forward`` pass handed to it."""
    L, base = len(model.labels), weight_arrays(model)[0].size
    sequences = []
    for seq in dataset:
        positions, rows = _occurrences(model, seq.features())
        gold = np.array([model.labels.index(lab) for lab in seq.labels()],
                        dtype=np.intp)
        per_feature = np.column_stack(
            (rows * L + gold[positions], rows[:, None] * L + np.arange(L)))
        sequences.append((positions, rows, gold, np.concatenate(
            (per_feature.ravel(), base + gold[:-1] * L + gold[1:],
             base + np.arange(L * L)))))

    def objective(weights, data, penalty: float, grad=None, forward=None):
        unary, T = _split(weights, data.n_labels)
        ll = 0.0
        for positions, rows, gold, counts in sequences:
            n = len(gold)
            em = _emissions(unary, positions, rows, (n,))
            ll += _path_score(unary, T, positions, rows, gold)
            log_alpha = np.empty_like(em)
            log_alpha[0] = em[0]
            for t in range(1, n):
                log_alpha[t] = em[t] + _fold(
                    [log_alpha[t - 1][i] + T[i] for i in range(L)])
            log_z = _fold(list(log_alpha[-1]))
            ll -= log_z
            if grad is None:
                continue
            log_beta = np.zeros_like(em)
            for t in range(n - 2, -1, -1):
                x = em[t + 1] + log_beta[t + 1]
                log_beta[t] = _fold([T[:, j] + x[j] for j in range(L)])
            marginals = np.exp(log_alpha + log_beta - log_z)
            pairwise = np.exp(log_alpha[:-1, :, None] + T
                              + (em[1:] + log_beta[1:])[:, None, :] - log_z)
            per_feature = np.column_stack((np.ones(len(rows)),
                                           -marginals[positions]))
            np.add.at(grad, counts, np.concatenate(
                (per_feature.ravel(), np.ones(n - 1),
                 -pairwise.sum(axis=0).ravel())))
        return ll - penalty

    return objective


# Oracle for ``bibliography.CITATION_STYLES``: the table as it was written
# before the leading author became ``[A-Z](?<!\w[A-Z])``, every author-led
# style starting with ``\b``.
_AN = r"[A-Z][a-zA-Z]*"
REFERENCE_CITATION_STYLES = [
    (1, re.compile(rf"\b{_AN} et al\. \[(\d{{1,3}})\]")),
    (3, re.compile(rf"\b{_AN} et al\.\s*\[(\d{{1,3}})\]")),
    (2, re.compile(rf"\b{_AN} \[(\d{{1,3}})\]")),
    (4, re.compile(rf"\b{_AN} et al\., ?(\d{{4}})([a-z])(?![a-z])")),
    (6, re.compile(rf"\b{_AN} et al\., \((\d{{4}})\)")),
    (5, re.compile(rf"\b{_AN} et al\., (\d{{4}})(?![a-z\d])")),
    (8, re.compile(rf"\b{_AN} et al\. \((\d{{4}})\)")),
    (7, re.compile(rf"\b{_AN} et al\. (\d{{4}})(?![a-z\d])")),
    (9, re.compile(rf"\b{_AN} and {_AN} \((\d{{4}})\)")),
    (10, re.compile(rf"\b{_AN} & {_AN} \((\d{{4}})\)")),
    (11, re.compile(rf"\b{_AN} and {_AN}, (\d{{4}})(?![a-z\d])")),
    (12, re.compile(rf"\b{_AN} & {_AN}, (\d{{4}})(?![a-z\d])")),
    (13, re.compile(rf"\b{_AN}, (\d{{4}})([a-z])?(?!\d)")),
    (14, re.compile(rf"\b{_AN} (\d{{4}})(?![a-z\d])")),
    (15, re.compile(rf"\b{_AN},? ?\((\d{{4}})([a-z]*)\)")),
    (16, re.compile(r"\[(\d{1,3}(?:\s*,\s*\d{1,3})*)\]")),
]


def reference_extract_citations(body_text: str):
    """Oracle for ``bibliography.extract_citations`` over the ``\\b`` table."""
    claimed: list[tuple[int, int]] = []
    found = []
    for style_id, pattern in REFERENCE_CITATION_STYLES:
        for m in pattern.finditer(body_text):
            span = m.span()
            if any(span[0] < e and s < span[1] for s, e in claimed):
                continue
            claimed.append(span)
            found.append(_instance(style_id, m))
    found.sort(key=lambda c: c.char_span)
    return found


def reference_split_references(ref_text_lines):
    """Oracle for ``bibliography.split_references``: the splitter as it was
    written with one accumulation loop per rule of the cascade."""
    lines = [(t, x) for t, x in ref_text_lines if t.strip()]
    if not lines:
        raise ValueError("empty reference line list")

    refs = []
    if any(_BRACKET_START.match(t) for t, _ in lines):
        index, parts = None, []
        for text, _ in lines:
            m = _BRACKET_START.match(text)
            if m:
                if parts:
                    refs.append(_finish(index, parts))
                index, parts = int(m.group(1)), [text[m.end():]]
            else:
                parts.append(text)
        refs.append(_finish(index, parts))
        return refs

    numbered = [(i, _NUMBER_START.match(t)) for i, (t, _) in enumerate(lines)]
    starts = [(i, int(m.group(1)), m) for i, m in numbered if m]
    if starts and all(b[1] > a[1] for a, b in zip(starts, starts[1:])):
        index, parts = None, []
        start_at = {i: (n, m) for i, n, m in starts}
        for i, (text, _) in enumerate(lines):
            if i in start_at:
                if parts:
                    refs.append(_finish(index, parts))
                n, m = start_at[i]
                index, parts = n, [text[m.end():]]
            else:
                parts.append(text)
        refs.append(_finish(index, parts))
        return refs

    margin = min(x for _, x in lines)
    parts = []
    for text, x in lines:
        at_margin = x <= margin + 2.0
        if at_margin and parts:
            refs.append(_finish(None, parts))
            parts = []
        parts.append(text)
    refs.append(_finish(None, parts))
    return refs


def _reference_float(elem, name):
    raw = elem.get(name)
    if raw is None:
        return None
    try:
        return float(raw)
    except ValueError:
        return None


def _reference_extent(page_elem, name, default, number, warnings):
    raw = page_elem.get(name)
    if raw is None:
        return default
    value = _reference_float(page_elem, name)
    if value is not None and math.isfinite(value) and value > 0:
        return value
    warnings.append(f"page {number}: PAGE {name} {raw!r} is not a "
                    f"finite positive number; using {default:g}")
    return default


def _reference_flag_superscripts(page):
    all_fonts = [t.font_size for t in page.tokens()]
    if not all_fonts:
        return page
    median_font = statistics.median(all_fonts)
    new_lines = []
    for line in page.lines:
        flags = [t.font_size <= SUP_FONT_RATIO * median_font
                 and (line.baseline_y - t.baseline_y) >= SUP_RISE_PT
                 for t in line.tokens]
        if any(flags):
            toks = tuple(t._replace(sup_flag=f)
                         for t, f in zip(line.tokens, flags))
            line = Line(tokens=toks, baseline_y=line.baseline_y)
        new_lines.append(line)
    return Page(number=page.number, width=page.width, height=page.height,
                lines=tuple(new_lines))


def reference_parse_rich_xml(data: bytes, *, dehyphenate: bool = False,
                             source_id: str = ""):
    """Oracle for ``ingest.parse_rich_xml``: the two-pass parse it replaced.

    Every TOKEN is read field by field, every line's baseline is a
    ``statistics.median``, and a second pass over each page rebuilds the
    tokens it flags as superscripts.  The error's byte offset is the UTF-8
    length of the text before expat's position, which counts characters.
    """
    try:
        root = ET.fromstring(data)
    except ET.ParseError as exc:
        line, col = exc.position
        text = data.decode("utf-8", "surrogateescape")
        # Expat ends a line at CR LF, CR or LF.
        line_starts = [0] + [m.end() for m in re.finditer(r"\r\n?|\n", text)]
        before = text[:line_starts[line - 1] + col]
        offset = len(before.encode("utf-8", "surrogateescape"))
        raise RichXmlParseError(str(exc), offset) from exc

    pages = []
    warnings = []
    skipped = token_count = 0
    used: set[int] = set()
    for page_elem in root:
        if page_elem.tag != "PAGE":
            skipped += 1
            continue
        raw_number = page_elem.get("number", str(len(pages) + 1))
        try:
            number = int(raw_number)
        except ValueError:
            number = 0
        if number < 1 or number in used:
            number = max(used, default=0) + 1
            warnings.append(
                f"PAGE number {raw_number!r} is not a positive integer or "
                f"repeats an earlier page; renumbered {number}")
        used.add(number)
        width = _reference_extent(page_elem, "width", 612.0, number, warnings)
        height = _reference_extent(page_elem, "height", 792.0, number,
                                   warnings)
        lines = []
        for text_elem in page_elem:
            if text_elem.tag != "TEXT":
                skipped += 1
                continue
            tokens = []
            for tok_elem in text_elem:
                if tok_elem.tag != "TOKEN":
                    skipped += 1
                    continue
                x = _reference_float(tok_elem, "x")
                y = _reference_float(tok_elem, "y")
                font_size = _reference_float(tok_elem, "font-size")
                text = (tok_elem.text or "").strip()
                tok_width = _reference_float(tok_elem, "width") or 0.0
                tok_height = _reference_float(tok_elem, "height") or 0.0
                if x is None or y is None or font_size is None or not text:
                    problem = "missing attributes"
                elif not all(map(math.isfinite,
                                 (x, y, tok_width, tok_height, font_size))):
                    problem = "a non-finite coordinate or size"
                elif tok_width < 0 or tok_height < 0 or font_size <= 0:
                    problem = "a negative extent or non-positive font-size"
                else:
                    problem = ""
                if problem:
                    skipped += 1
                    warnings.append(
                        f"page {number}: skipped TOKEN {text!r} with {problem}")
                    continue
                tokens.append(Token(
                    text=text, page_no=number, x=x, y=y, width=tok_width,
                    height=tok_height, font_size=font_size,
                    bold=tok_elem.get("bold") == "yes",
                    italic=tok_elem.get("italic") == "yes",
                    font_name=tok_elem.get("font-name", ""),
                ))
            if not tokens:
                continue
            tokens.sort(key=lambda t: t.x)
            baseline = statistics.median(t.baseline_y for t in tokens)
            lines.append(Line(tokens=tuple(tokens), baseline_y=baseline))
            token_count += len(tokens)
        lines.sort(key=lambda l: l.baseline_y)
        pages.append(Page(number=number, width=width, height=height,
                          lines=tuple(lines)))

    pages = [_reference_flag_superscripts(p) for p in pages]
    if dehyphenate:
        pages = [_dehyphenate_page(p) for p in pages]
    report = IngestReport(token_count=token_count, page_count=len(pages),
                          skipped_elements=skipped, warnings=warnings)
    return Document(source_id=source_id, pages=tuple(pages)), report


def _reference_chunk_stats(tokens):
    tokens = list(tokens)
    if not tokens:
        raise EmptyChunkError("empty chunk")
    n = len(tokens)
    avg_font = sum(t.font_size for t in tokens) / n
    avg_bold = sum(1 for t in tokens if t.bold) / n
    bbox = (
        min(t.x for t in tokens),
        min(t.y for t in tokens),
        max(t.x + t.width for t in tokens),
        max(t.y + t.height for t in tokens),
    )
    return avg_font, avg_bold, bbox


def _reference_chunk(tokens):
    tokens = tuple(tokens)
    avg_font, avg_bold, bbox = _reference_chunk_stats(tokens)
    return Chunk(tokens=tokens, page_no=tokens[0].page_no,
                 avg_font_size=avg_font, avg_boldness=avg_bold, bbox=bbox,
                 text=" ".join(t.text for t in tokens))


def _reference_line_font(line):
    return sum(t.font_size for t in line.tokens) / len(line.tokens)


def _reference_line_bold(line):
    return sum(1 for t in line.tokens if t.bold) > len(line.tokens) / 2


def reference_chunk_page(page: Page, params: ChunkParams = ChunkParams()):
    """Oracle for ``chunker.chunk_page``: chunk statistics taken token by
    token through generators, and each adjacent pair of lines compared by
    recomputing both lines' mean font and bold majority."""
    if not page.lines:
        return []
    chunks = []
    for column in _split_columns(page):
        gaps = [b.baseline_y - a.baseline_y for a, b in zip(column, column[1:])]
        gaps = sorted(g for g in gaps if g > 0)
        median_gap = gaps[len(gaps) // 2] if gaps else 0.0
        current = []
        for line in column:
            if current:
                prev = current[-1]
                gap = line.baseline_y - prev.baseline_y
                prev_font = _reference_line_font(prev)
                font_change = (abs(_reference_line_font(line) - prev_font)
                               / prev_font)
                if ((median_gap > 0 and gap > params.gap_factor * median_gap)
                        or font_change > params.font_jump
                        or (params.boldness_break
                            and _reference_line_bold(line)
                            != _reference_line_bold(prev))):
                    chunks.append(_reference_chunk(
                        [t for l in current for t in l.tokens]))
                    current = []
            current.append(line)
        if current:
            chunks.append(_reference_chunk(
                [t for l in current for t in l.tokens]))
    return chunks


# --- token positions of the title and author sequences ----------------------

def reference_positions(ctx: DocumentContext) -> dict[int, int]:
    """Oracle for token positions: id(token) -> index in the chunk token
    order, the map ``DocumentContext.positions`` held over every token."""
    positions: dict[int, int] = {}
    for chunk in ctx.chunks:
        for tok in chunk.tokens:
            positions[id(tok)] = len(positions)
    return positions


def reference_token_features(ctx: DocumentContext, tokens,
                             positions: dict[int, int]):
    """Title/author features of ``tokens`` at their id-map positions."""
    return reference_token_rows(tokens, [positions[id(t)] for t in tokens],
                                len(positions), ctx.body_font)


# --- feature rows -------------------------------------------------------------
# Oracles for ``features.token_features``, ``heading_chunk_features`` and
# ``footnote_chunk_features``: the builders as they were written before the
# rows were built from the task table, each feature string by hand.

def reference_token_rows(tokens, doc_positions, doc_token_count: int,
                         body_font: float):
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


def reference_heading_rows(chunks, body_font: float):
    out = []
    for chunk in chunks:
        first = chunk.tokens[0].text
        second = chunk.tokens[1].text if len(chunk.tokens) > 1 else "_"
        out.append((
            "bias",
            f"first:{_word_feature(first)}",
            f"second:{_word_feature(second)}",
            f"boldness:{min(4, int(chunk.avg_boldness * 4))}",
            f"size:{_size_bucket(chunk.avg_font_size, body_font)}",
            f"enum:{enumeration_kind(first)}",
            f"ntok:{min(5, len(chunk.tokens) // 3)}",
        ))
    return out


def reference_footnote_rows(chunks, page: Page, body_font: float):
    out = []
    for chunk in chunks:
        feats = [
            "bias",
            f"size:{_size_bucket(chunk.avg_font_size, body_font)}",
            f"ypos:{_decile(chunk.bbox[1] / max(page.height, 1.0))}",
            f"ntok:{min(5, len(chunk.tokens) // 3)}",
        ]
        if is_marker(chunk.tokens[0]):
            feats.append("sup_lead")
        out.append(tuple(feats))
    return out


def reference_author_window(ctx: DocumentContext, title_span):
    """Oracle for the author sequence's tokens: the first-chunk region plus
    the AUTHOR_WINDOW first-page tokens after the title, chosen by id()
    sets as ``author_candidate_window`` chose them."""
    if not ctx.chunks:
        return []
    stream = [t for c in ctx.first_page_chunks for t in c.tokens]
    title_ids = {id(t) for t in title_span}
    title_end = 0
    for i, tok in enumerate(stream):
        if id(tok) in title_ids:
            title_end = i + 1
    window_ids = {id(t) for t in ctx.chunks[0].tokens}
    window_ids.update(id(t) for t in stream[title_end: title_end + AUTHOR_WINDOW])
    return [t for t in stream if id(t) in window_ids]


# --- mutated rich XML --------------------------------------------------------

TOKEN_ATTRS = ["x", "y", "width", "height", "font-size", "bold", "italic",
               "font-name"]
ODD_VALUES = [None, "", "0", "-0.0", "-5", "nan", "inf", "1e308", "abc",
              " 3 "]  # None: the attribute is removed


def xml_mutations(texts):
    """One edit of a rich XML document: a TOKEN attribute set to an odd
    value, a TOKEN's text replaced by one of ``texts``, an unknown element
    inserted, or a PAGE attribute changed (None removes an attribute)."""
    return st.one_of(
        st.tuples(st.just("token"), st.integers(0, 10_000),
                  st.sampled_from(TOKEN_ATTRS), st.sampled_from(ODD_VALUES)),
        st.tuples(st.just("text"), st.integers(0, 10_000),
                  st.sampled_from(texts)),
        st.tuples(st.just("unknown"), st.integers(0, 10_000)),
        st.tuples(st.just("page"), st.integers(0, 10),
                  st.sampled_from(["number", "width", "height"]),
                  st.sampled_from(ODD_VALUES + ["1", "2", "3"])),
    )


def mutate_xml(data: bytes, mutations) -> bytes:
    """``data`` with the edits applied in order; ("cut", n) keeps the first
    n / 10,000 of the serialized bytes."""
    root = ET.fromstring(data)
    pages = list(root)
    lines = [line for page in pages for line in page]
    tokens = [tok for line in lines for tok in line]
    cut = None
    for kind, where, *rest in mutations:
        if kind == "token":
            attr, value = rest
            elem = tokens[where % len(tokens)]
            if value is None:
                elem.attrib.pop(attr, None)
            else:
                elem.set(attr, value)
        elif kind == "text":
            tokens[where % len(tokens)].text = rest[0]
        elif kind == "unknown":
            parent = [root, *pages, *lines][where % (1 + len(pages) + len(lines))]
            parent.insert(where % (len(parent) + 1), ET.Element("NOISE"))
        elif kind == "page":
            attr, value = rest
            elem = pages[where % len(pages)]
            if value is None:
                elem.attrib.pop(attr, None)
            else:
                elem.set(attr, value)
        else:
            cut = where
    data = ET.tostring(root)
    return data if cut is None else data[:cut * len(data) // 10_000]


@pytest.fixture
def rng():
    return random.Random(20260823)


@pytest.fixture(autouse=True)
def collector_left_enabled():
    """Fail a test that leaves automatic garbage collection disabled, and
    turn it back on so that the tests after it run as usual."""
    yield
    if not gc.isenabled():
        gc.enable()
        pytest.fail("automatic garbage collection was left disabled")
