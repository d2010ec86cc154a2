import gc
import math
import random
import re
import statistics
from importlib import resources
from typing import NamedTuple
from xml.etree import ElementTree as ET

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from scholarparse.bibliography import (_BRACKET_START, _NUMBER_START, _finish,
                                       _instance, reference_number)
from scholarparse.chunker import _split_columns
from scholarparse.context import DocumentContext
from scholarparse.crf import CrfError, CrfModel, CrfNumericError, _split
from scholarparse.features import (_case, _decile, _size_bucket,
                                   _word_feature, enumeration_kind,
                                   heading_key, is_marker)
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


def reference_occurrences(model: CrfModel, sequence_features):
    """Oracle for ``crf._occurrences`` on one sequence: positions and unary
    rows of the known features, found one position at a time."""
    positions, rows = [], []
    get = model.feature_rows.get
    for t, feats in enumerate(sequence_features):
        for row in map(get, feats):
            if row is not None:
                positions.append(t)
                rows.append(row)
    return np.array(positions, dtype=np.intp), np.array(rows, dtype=np.intp)


def reference_emissions(unary, cells, rows, shape: tuple[int, ...]):
    """Oracle for ``crf._emissions``: label scores per cell of ``shape``,
    each cell's rows of a (F, L) unary block, or of each block of a (K, F,
    L) stack, added in order by ``np.add.at`` into zeros."""
    L = unary.shape[-1]
    stack = unary if unary.ndim == 3 else unary[None]
    em = np.zeros((len(stack) * shape[0], *shape[1:], L))
    cells = np.arange(len(stack))[:, None] * math.prod(shape) + cells
    np.add.at(em.reshape(-1), (cells[..., None] * L + np.arange(L)).ravel(),
              stack[:, rows].ravel())
    return em


class ReferenceDataset(NamedTuple):
    """What ``reference_compile_dataset`` gives: the batch shape, the flat
    cell and unary row of every feature occurrence, each last position, and
    the path, count and source indices of ``crf.CompiledDataset``."""

    n_labels: int
    shape: tuple[int, int]
    cells: np.ndarray
    rows: np.ndarray
    last: np.ndarray
    path: np.ndarray
    counts: np.ndarray
    sources: np.ndarray


def reference_compile_dataset(model: CrfModel, dataset) -> ReferenceDataset:
    """Oracle for ``crf.compile_dataset``: the same indices, built with a
    dozen array calls per sequence."""
    if not dataset:
        raise CrfError("empty dataset")
    if not all(seq.items for seq in dataset):
        raise CrfError("empty sequence")
    L = len(model.labels)
    base = len(model.features) * L
    zero = base + L * L
    width = max(len(seq.items) for seq in dataset)
    pair_source = 1 + len(dataset) * width * L
    labels, pairs = np.arange(L), np.arange(L * L)
    cells, rows, last, paths = [], [], [], []
    counts, sources, pair_counts, pair_sources = [], [], [], []
    for b, seq in enumerate(dataset):
        positions, seq_rows = reference_occurrences(model, seq.features())
        gold = np.array([*map(model.label_index, seq.labels())],
                        dtype=np.intp)
        cell = b * width + positions
        unary_terms = seq_rows * L + gold[positions]
        transitions = base + gold[:-1] * L + gold[1:]
        cells.append(cell)
        rows.append(seq_rows)
        last.append(len(gold) - 1)
        paths.append(np.concatenate(([zero], unary_terms, transitions)))
        counts.append(np.column_stack(
            (unary_terms, seq_rows[:, None] * L + labels)).ravel())
        sources.append(np.column_stack(
            (np.zeros_like(cell), 1 + cell[:, None] * L + labels)).ravel())
        pair_counts += [transitions, base + pairs]
        pair_sources += [np.zeros_like(transitions),
                         pair_source + b * L * L + pairs]
    path = np.full((len(paths), max(map(len, paths))), zero, dtype=np.intp)
    for b, terms in enumerate(paths):
        path[b, :len(terms)] = terms
    return ReferenceDataset(
        L, (len(dataset), width), np.concatenate(cells), np.concatenate(rows),
        np.array(last), path, np.concatenate(counts + pair_counts),
        np.concatenate(sources + pair_sources))


def reference_path_score(unary, transitions, positions, rows, gold) -> float:
    """Oracle for ``crf._path_scores`` on one sequence: unary then
    transition terms, summed left to right from 0.0."""
    terms = np.concatenate(([0.0], unary[rows, gold[positions]],
                            transitions[gold[:-1], gold[1:]]))
    return float(np.cumsum(terms)[-1])


def reference_score(model: CrfModel, sequence_features, label_path) -> float:
    """Oracle for ``crf.score``: one path's score from the model's weight
    arrays and the sequence's own occurrences, without ``compile_dataset``."""
    if len(sequence_features) != len(label_path):
        raise CrfError("path length must match sequence length")
    gold = np.array([*map(model.label_index, label_path)], dtype=np.intp)
    return reference_path_score(
        *weight_arrays(model),
        *reference_occurrences(model, sequence_features), gold)


def reference_sequence_forward_backward(model: CrfModel, sequence_features):
    """Oracle for ``crf.forward_backward``: one sequence's emissions from the
    model's weight arrays, without ``compile_dataset``, through
    ``reference_forward_backward``."""
    if not sequence_features:
        raise CrfError("empty sequence")
    n = len(sequence_features)
    unary, T = weight_arrays(model)
    positions, rows = reference_occurrences(model, sequence_features)
    with np.errstate(over="ignore", invalid="ignore"):
        em = reference_emissions(unary, positions, rows, (1, n))
        log_z, marginals, pairwise = reference_forward_backward(
            em, T, np.array([n - 1]))
    return log_z[0], marginals[0], pairwise[0]


def reference_viterbi_decode(model: CrfModel, feats):
    """Oracle for ``crf.viterbi_decode``: the numpy recursion it replaced,
    with one ``np.argmax`` per position (lowest index wins ties)."""
    if not feats:
        raise CrfError("empty sequence")
    unary, T = weight_arrays(model)
    em = reference_emissions(unary, *reference_occurrences(model, feats),
                             (len(feats),))
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
    """Oracle for ``crf._fold`` over two terms: log(sum(exp(a))) along an
    axis as scipy.special.logsumexp computes it, log1p(s / m) + log(m) +
    max, the m maximal entries left out of s."""
    a_max = np.maximum.reduce(a, axis=axis, keepdims=True)
    is_max = a == a_max
    m = np.add.reduce(is_max, axis=axis, dtype=float, keepdims=True)
    s = np.add.reduce(np.exp(np.where(is_max, -np.inf, a) - a_max), axis=axis,
                      keepdims=True)
    return np.squeeze(np.log1p(s / m) + np.log(m) + a_max, axis=axis)[()]


def reference_logaddexp(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """log(exp(a) + exp(b)) elementwise, as ``log1p(exp(lo - hi)) + hi``, on
    fresh contiguous arrays: one step of ``crf._fold``."""
    hi = np.maximum(a, b)
    return np.log1p(np.exp(np.minimum(a, b) - hi)) + hi


def _fold(terms):
    """``reference_logaddexp`` folded from the left over a list of arrays."""
    acc = terms[0]
    for term in terms[1:]:
        acc = reference_logaddexp(acc, term)
    return acc


def reference_forward(em: np.ndarray, T: np.ndarray, last: np.ndarray):
    """Oracle for ``crf._forward``: the recursion with fresh arrays at every
    step, as the models were first trained with."""
    T = T.reshape(-1, *T.shape[-2:])
    alpha = em[:, 0]
    steps = [alpha]
    for t in range(1, em.shape[1]):
        acc = alpha[:, :1] + T[:, 0]
        for i in range(1, T.shape[1]):
            acc = reference_logaddexp(acc, alpha[:, i:i + 1] + T[:, i])
        alpha = em[:, t] + acc
        steps.append(alpha)
    log_alpha = np.stack(steps, axis=1)
    end = log_alpha[np.arange(len(em)), last]
    log_z = end[:, 0]
    for i in range(1, T.shape[1]):
        log_z = reference_logaddexp(log_z, end[:, i])
    return log_alpha, log_z


def reference_forward_backward(em: np.ndarray, T: np.ndarray,
                               last: np.ndarray, forward=None):
    """Oracle for ``crf._forward_backward``, with fresh arrays at every
    step; raises ``CrfNumericError`` where it does."""
    T = T.reshape(-1, *T.shape[-2:])
    log_alpha, log_z = (reference_forward(em, T, last) if forward is None
                        else forward)
    past = np.arange(em.shape[1]) > last[:, None]
    beta = np.zeros_like(em[:, 0])
    steps = [beta]
    for t in range(em.shape[1] - 2, -1, -1):
        x = em[:, t + 1] + beta
        acc = T[:, :, 0] + x[:, :1]
        for j in range(1, T.shape[1]):
            acc = reference_logaddexp(acc, T[:, :, j] + x[:, j:j + 1])
        beta = np.where(past[:, t + 1, None], 0.0, acc)
        steps.append(beta)
    log_beta = np.stack(steps[::-1], axis=1)
    log_alpha[past] = log_beta[past] = -np.inf
    shift = log_z[:, None, None]
    marginals = np.exp(log_alpha + log_beta - shift)
    pairwise = np.exp(log_alpha[:, :-1, :, None] + T[:, None]
                      + (em[:, 1:] + log_beta[:, 1:])[:, :, None, :]
                      - shift[..., None])
    if not (np.isfinite(log_z).all() and np.isfinite(marginals).all()
            and np.isfinite(pairwise).all()):
        raise CrfNumericError("numeric overflow")
    return log_z, marginals, pairwise


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
        positions, rows = reference_occurrences(model, seq.features())
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
            em = reference_emissions(unary, positions, rows, (n,))
            ll += reference_path_score(unary, T, positions, rows, gold)
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
                if x is None or y is None or font_size is None:
                    problem = "missing attributes"
                elif not text:
                    problem = "no text"
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
    top = min(t.y for t in tokens)
    return avg_font, avg_bold, top


def _reference_chunk(lines):
    lines = tuple(lines)
    tokens = tuple(t for l in lines for t in l.tokens)
    avg_font, avg_bold, top = _reference_chunk_stats(tokens)
    return Chunk(tokens=tokens, page_no=tokens[0].page_no,
                 avg_font_size=avg_font, avg_boldness=avg_bold, top=top,
                 text=" ".join(t.text for t in tokens), lines=lines)


def one_line(tokens) -> Line:
    """A test's loose tokens as one ``Line``, on the first token's baseline,
    the way ``make_chunk`` takes them."""
    tokens = tuple(tokens)
    return Line(tokens, tokens[0].baseline_y)


def _reference_line_font(line):
    return sum(t.font_size for t in line.tokens) / len(line.tokens)


def _reference_line_bold(line):
    return sum(1 for t in line.tokens if t.bold) > len(line.tokens) / 2


def reference_chunk_page(page: Page):
    """Oracle for ``chunker.chunk_page``: chunk statistics taken token by
    token through generators, and each adjacent pair of lines compared by
    recomputing both lines' mean font and bold majority.  The thresholds
    are written out, so the oracle does not follow a changed constant."""
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
                if ((median_gap > 0 and gap > 1.5 * median_gap)
                        or font_change > 0.15
                        or (_reference_line_bold(line)
                            != _reference_line_bold(prev))):
                    chunks.append(_reference_chunk(current))
                    current = []
            current.append(line)
        if current:
            chunks.append(_reference_chunk(current))
    return chunks


def reference_baseline_lines(chunk) -> tuple[Line, ...]:
    """A chunk's tokens regrouped into lines by the rule the reference
    splitter's input was once built with: a new line wherever a token's
    baseline is more than 0.5 pt from the previous token's.  Each line's
    ``text`` and ``x`` are what that rule gave the splitter."""
    lines, current = [], []
    for tok in chunk.tokens:
        if current and abs(tok.baseline_y - current[-1].baseline_y) > 0.5:
            lines.append(current)
            current = []
        current.append(tok)
    if current:
        lines.append(current)
    return tuple(Line(tuple(group), group[0].baseline_y) for group in lines)


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
            f"ypos:{_decile(chunk.top / max(page.height, 1.0))}",
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


# --- report fields -----------------------------------------------------------

def _reference_pair_token(*parts: str) -> str:
    return "=".join(re.sub(r"\s+", "_", p.strip().lower()) for p in parts)


def reference_predicted_field_strings(result) -> dict[str, str]:
    """Oracle for ``evaluate.REPORT_FIELDS``' predicted side: the report
    fields, in report order, each flattened into one string as they were
    before the table."""
    ordinals = {id(ref): str(reference_number(ref, i))
                for i, ref in enumerate(result.references)}
    cite_ref_tokens = [
        _reference_pair_token(link.citation.matched_text,
                              ordinals[id(link.reference)])
        for link in result.citations if link.reference is not None
    ]
    author_email_tokens = [
        _reference_pair_token(rec.name.full, rec.email.address)
        for rec in result.authors if rec.email is not None
    ]
    return {
        "title": result.title,
        "author_first": " ".join(r.name.first for r in result.authors),
        "author_middle": " ".join(r.name.middle for r in result.authors
                                  if r.name.middle),
        "author_last": " ".join(r.name.last for r in result.authors),
        "email": " ".join(r.email.address for r in result.authors if r.email),
        "affiliation": " ".join(a.text for a in
                                {id(r.affiliation): r.affiliation
                                 for r in result.authors
                                 if r.affiliation is not None}.values()),
        "section_headings": " ".join(s.heading.text for s in result.sections
                                     if s.heading is not None),
        "figure_headings": " ".join(c.text for c in result.captions
                                    if c.kind == "figure"),
        "table_headings": " ".join(c.text for c in result.captions
                                   if c.kind == "table"),
        "urls": " ".join(result.urls),
        "footnotes": " ".join(f.text for f in result.footnotes),
        "author_email": " ".join(author_email_tokens),
        "citations": " ".join(l.citation.matched_text
                              for l in result.citations),
        "references": " ".join(r.raw_text for r in result.references),
        "cite_ref": " ".join(cite_ref_tokens),
    }


_REFERENCE_GOLD_LISTS = {
    "email": "emails", "affiliation": "affiliations",
    "section_headings": "section_headings", "urls": "urls",
    "figure_headings": "figure_headings", "table_headings": "table_headings",
    "footnotes": "footnotes", "citations": "citations",
    "references": "references",
}


def reference_gold_field_strings(gt) -> dict[str, str]:
    """Oracle for ``evaluate.REPORT_FIELDS``' gold side, as it was written
    before the table."""
    fields = {name: " ".join(getattr(gt, attr))
              for name, attr in _REFERENCE_GOLD_LISTS.items()}
    fields.update(
        title=gt.title,
        author_first=" ".join(a[0] for a in gt.authors),
        author_middle=" ".join(a[1] for a in gt.authors if a[1]),
        author_last=" ".join(a[2] for a in gt.authors),
        author_email=" ".join(_reference_pair_token(name, email)
                              for name, email in gt.author_email),
        cite_ref=" ".join(_reference_pair_token(text, ordinal)
                          for text, ordinal in gt.cite_ref),
    )
    return fields


# --- URLs --------------------------------------------------------------------

_REFERENCE_URL_PATTERN = re.compile(
    r"https?://(?:[a-zA-Z0-9]|[$-_@.&+]|[!*(),]|%[0-9a-fA-F]{2})+")


def reference_extract_urls(text: str) -> list[str]:
    """Oracle for ``structure.extract_urls`` on text holding none of ``<``,
    ``>``, ``;`` and ``]``: the rule as it was when its character range ran
    from ``$`` to ``_`` and only ``.``, ``,`` and ``)`` were stripped."""
    out = []
    for m in _REFERENCE_URL_PATTERN.finditer(text):
        url = m.group(0)
        while url and url[-1] in ".,":
            url = url[:-1]
        while url.endswith(")") and url.count(")") > url.count("("):
            url = url[:-1]
        while url and url[-1] in ".,":
            url = url[:-1]
        if url:
            out.append(url)
    return out


_PARENT_URL_PATTERN = re.compile(
    r"https?://[A-Za-z0-9!$%&'()*+,\-./:;=?@\[\\\]^_]+")
_PARENT_OPENERS = {")": "(", "]": "["}


def reference_extract_urls_keeping_marks(text: str) -> list[str]:
    """Oracle for ``structure.extract_urls`` on text holding none of ``'``,
    ``!``, ``:`` (but a scheme's), ``?`` and ``*``: the rule as it was when
    only ``.``, ``,`` and ``;`` and unbalanced closing brackets were
    stripped from a URL's end."""
    out = []
    for m in _PARENT_URL_PATTERN.finditer(text):
        url = m.group(0).rstrip(".,;")
        while (url[-1] in _PARENT_OPENERS
               and url.count(url[-1]) > url.count(_PARENT_OPENERS[url[-1]])):
            url = url[:-1]
        out.append(url.rstrip(".,;"))
    return out


# --- use cases ---------------------------------------------------------------

def reference_section_map() -> dict[str, str]:
    """The bundled section map, read here without the package's reader:
    heading key to generic section name."""
    text = resources.files("scholarparse.data").joinpath(
        "section_map.txt").read_text("utf-8")
    mapping = {}
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            specific, generic = line.split("\t")
            mapping[heading_key(specific)] = generic
    return mapping


def reference_generic_by_heading(result, mapping: dict[str, str]
                                 ) -> dict[str, str]:
    """Oracle for ``usecases._generic_by_heading``, as it was written with a
    map passed in: an unmapped heading is Method when a mapped Background
    heading precedes it and a mapped Result/Evaluation heading follows it,
    and Other otherwise."""
    headings = [s.heading.text for s in result.sections if s.heading is not None]
    generics = [mapping.get(heading_key(h)) for h in headings]
    out = {}
    for i, (heading, generic) in enumerate(zip(headings, generics)):
        if generic is None:
            before = set(g for g in generics[:i] if g is not None)
            after = set(g for g in generics[i + 1:] if g is not None)
            if "Background" in before and "Result/Evaluation" in after:
                generic = "Method"
            else:
                generic = "Other"
        out[heading] = generic
    return out


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


def numpy_dispatch_key() -> tuple[str, str, str]:
    """numpy's version and the SIMD targets its float64 ``exp`` and
    ``log1p`` loops run on in this process.  Training calls both, and
    their AVX-512 loops round differently from their AVX2 and baseline
    loops, so trained weights are exact only for one key."""
    from numpy.lib.introspect import opt_func_info
    info = opt_func_info(func_name="^(exp|log1p)$", signature="float64")
    return (np.__version__, info["exp"]["dd"]["current"],
            info["log1p"]["dd"]["current"])


def dispatch_pins(pins_by_key: dict) -> dict:
    """The pins recorded for this process's ``numpy_dispatch_key``; with
    none recorded for it, the test fails naming the key."""
    key = numpy_dispatch_key()
    if key not in pins_by_key:
        pytest.fail(f"no training pins recorded for numpy dispatch key "
                    f"{key!r}; record a set under that key")
    return pins_by_key[key]


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
