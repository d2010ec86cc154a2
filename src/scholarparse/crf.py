"""Linear-chain CRF: path scores, marginals and training, on numpy.

The model, its file format and the Viterbi decoder are in ``crfmodel``,
which extraction and evaluation load without this module or numpy.

Training maximizes the L2-regularized conditional log-likelihood of one
flat vector, the unary rows then the transition rows, by batch gradient
ascent with backtracking line search; forward-backward runs in log space
throughout, over all sequences of a dataset at once, padded to the
longest.  Every sum adds its terms in one fixed order (by sequence,
position, then feature), so trained models are byte-stable.

Each step of the recursions is a left fold over labels: the first label's
term, then ``_logaddexp`` with each later label's, so a step costs a few
ufunc calls on (B, L) arrays whatever L is.  On the two-label models every
log-sum is of two terms, where ``_logaddexp`` gives the bits of the scipy
formula the models were first trained with; for more labels the fold may
differ from a one-shot log-sum in the last bit.

The recursions take transitions per batch row, (B, L, L), or one (L, L)
block for every row, so the line search scores a step and its half in one
forward pass over the two trials' stacked batches: a step of the recursion
is a few numpy calls whose overhead, not the row count, sets its cost.  It
accepts the first of them that passes the Armijo test, as a search of one
step at a time would, and hands that trial's emissions, forward scores and
log partitions to the next gradient, which then runs only the backward
pass.  A pass makes its arrays and views once, positions first, and each
step writes into contiguous rows of them (``_fold``).  None of this moves a
bit: every elementwise op and every fold over labels keeps its order, and
``exp`` and ``log1p`` still run on contiguous arrays.

The kernels are module attributes, so a caller that patches
``crf.log_likelihood`` reaches the one ``train`` calls.

``score`` and ``forward_backward`` are public although neither extraction
nor training calls them: they score one path and give one sequence's
partition and marginals, which is what the tests check against brute-force
enumeration of every label path, and so the interface that vouches for
``viterbi_decode`` and for the batched kernel behind the gradient.
"""

from __future__ import annotations

import math
from functools import reduce
from typing import NamedTuple

import numpy as np

from .config import TrainConfig
# ``viterbi_decode`` is bound here only for the benchmark's tracer, which
# times the decoder as ``crf.viterbi_decode`` (``perfbench/layers.py``).
from .crfmodel import CrfError, CrfModel, viterbi_decode


class CrfNumericError(CrfError):
    """Non-finite value in forward-backward: raised, never a numpy warning."""


class LabeledSequence(NamedTuple):
    """Ordered (active-feature-set, label) pairs for one training sequence."""

    items: list[tuple[tuple[str, ...], str]]

    def features(self):
        return [feats for feats, _ in self.items]

    def labels(self):
        return [label for _, label in self.items]


def _rows(flat: list[float], width: int) -> tuple[tuple[float, ...], ...]:
    return tuple(tuple(flat[k:k + width]) for k in range(0, len(flat), width))


def _arrays(model: CrfModel):
    """The model's unary and transition weights as float arrays."""
    L = len(model.labels)
    return (np.array(model.unary, dtype=float).reshape(-1, L),
            np.array(model.transitions, dtype=float).reshape(L, L))


def _occurrences(model: CrfModel, sequence_features):
    """Positions and unary rows of the active features the model knows, in
    sequence order; unknown features weigh nothing and are left out."""
    positions, rows = [], []
    get = model.feature_rows.get
    for t, feats in enumerate(sequence_features):
        for row in map(get, feats):
            if row is not None:
                positions.append(t)
                rows.append(row)
    return np.array(positions, dtype=np.intp), np.array(rows, dtype=np.intp)


def _emissions(unary, cells, rows, shape: tuple[int, ...]) -> np.ndarray:
    """Label scores per cell of ``shape`` (positions, or sequences by
    positions), each cell's rows added in order.  A (K, F, L) stack of
    unary blocks gives K such batches, one after another along the first
    axis, in one ``np.add.at``.  Its index is flat: numpy's fast path for
    ``ufunc.at`` takes only a 1-D index, and is several times faster."""
    L = unary.shape[-1]
    stack = unary if unary.ndim == 3 else unary[None]
    em = np.zeros((len(stack) * shape[0], *shape[1:], L))
    cells = np.arange(len(stack))[:, None] * math.prod(shape) + cells
    np.add.at(em.reshape(-1), (cells[..., None] * L + np.arange(L)).ravel(),
              stack[:, rows].ravel())
    return em


def _path_score(unary, transitions, positions, rows, gold) -> float:
    """Unary then transition terms, summed left to right from 0.0."""
    terms = np.concatenate(([0.0], unary[rows, gold[positions]],
                            transitions[gold[:-1], gold[1:]]))
    return float(np.cumsum(terms)[-1])


def _logaddexp(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """log(exp(a) + exp(b)) elementwise, as ``log1p(exp(lo - hi)) + hi``.

    On terms that are finite or -inf these are the bits of the scipy
    formula ``log1p(s / m) + log(m) + max``, the m maximal terms left out
    of s: when the terms differ, m = 1 and ``log(1)`` adds 0.0; when they
    are equal, s = 0 and numpy's ``log(2.0)`` is its ``log1p(1.0)``.  The
    two part only when both terms are +inf, an overflow either way.  Both
    are numpy ufuncs on fresh contiguous arrays, as the models were trained
    with: libm's ``exp`` and ``log1p`` may differ in the last bit.
    """
    hi = np.maximum(a, b)
    return np.log1p(np.exp(np.minimum(a, b) - hi)) + hi


def score(model: CrfModel, sequence_features, label_path) -> float:
    """Score one label path: unary terms plus adjacent transition terms."""
    if len(sequence_features) != len(label_path):
        raise CrfError("path length must match sequence length")
    gold = np.array([*map(model.label_index, label_path)], dtype=np.intp)
    return _path_score(*_arrays(model),
                       *_occurrences(model, sequence_features), gold)


def _fold(terms, hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """``_logaddexp`` folded left over ``terms``: its ops in its order, run in
    the contiguous scratch ``hi`` and ``lo``.  Gives ``lo``, or a lone term."""
    acc = terms[0]
    for term in terms[1:]:
        np.maximum(acc, term, out=hi)
        np.subtract(np.minimum(acc, term, out=lo), hi, out=lo)
        np.log1p(np.exp(lo, out=lo), out=lo)
        acc = np.add(lo, hi, out=lo)
    return acc


def _forward(em: np.ndarray, T: np.ndarray, last: np.ndarray):
    """Log forward scores of a (B, N, L) batch of sequences padded to one
    length, and each sequence's log partition, read at its last position.
    ``T`` holds each row's transitions, (B, L, L), or one (L, L) block that
    every row shares.  The steps run on an (N, B, L) copy of the emissions:
    each writes ``alpha[i] + T[i]`` for every i into one (L, B, L) buffer,
    folds it over the previous labels i and adds it to its row."""
    T = T.reshape(-1, *T.shape[-2:])
    B, _, L = em.shape
    steps = em.swapaxes(0, 1).copy()
    cand, (hi, lo) = np.empty((L, B, L)), np.empty((2, B, L))
    terms, T_rows = list(cand), T.swapaxes(0, 1)
    for prev, row in zip(steps[:-1].transpose(0, 2, 1)[..., None], steps[1:]):
        np.add(prev, T_rows, out=cand)
        np.add(row, _fold(terms, hi, lo), out=row)
    log_alpha = steps.swapaxes(0, 1).copy()
    return log_alpha, reduce(_logaddexp, log_alpha[np.arange(B), last].T)


def _forward_backward(em: np.ndarray, T: np.ndarray, last: np.ndarray,
                      forward=None):
    """Log partitions, marginals and pairwise marginals of a padded batch,
    with transitions per row as in ``_forward``; both marginals are zero
    past each sequence's last position.  ``forward``, the ``(log_alpha,
    log_z)`` that ``_forward`` gives for these arguments, spares running it
    again; its ``log_alpha`` is set to -inf past each last position.  A
    backward step folds ``T[:, j] + em[j] + beta[j]``, written into one
    (L, B, L) buffer, over j into its row; from each last on it stays 0.0."""
    T = T.reshape(-1, *T.shape[-2:])
    B, N, L = em.shape
    log_alpha, log_z = _forward(em, T, last) if forward is None else forward
    past = np.arange(N) > last[:, None]
    steps, emits = np.zeros((N, B, L)), em.swapaxes(0, 1).copy()
    cand, (x, hi, lo) = np.empty((L, B, L)), np.empty((3, B, L))
    terms, T_cols, x_cols = list(cand), T.transpose(2, 0, 1), x.T[..., None]
    for row, nxt, emit, live in zip(steps[-2::-1], steps[:0:-1], emits[:0:-1],
                                    ~past.T[:0:-1, :, None]):
        np.add(emit, nxt, out=x)
        np.add(T_cols, x_cols, out=cand)
        np.copyto(row, _fold(terms, hi, lo), where=live)
    log_beta = steps.swapaxes(0, 1).copy()
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


def forward_backward(model: CrfModel, sequence_features):
    """Log partition, per-position marginals, and pairwise marginals."""
    if not sequence_features:
        raise CrfError("empty sequence")
    n = len(sequence_features)
    unary, T = _arrays(model)
    with np.errstate(over="ignore", invalid="ignore"):
        em = _emissions(unary, *_occurrences(model, sequence_features), (1, n))
        log_z, marginals, pairwise = _forward_backward(em, T,
                                                       np.array([n - 1]))
    return log_z[0], marginals[0], pairwise[0]


class CompiledDataset(NamedTuple):
    """Training sequences as arrays over one model's rows and labels."""

    n_labels: int
    # The batch: sequences by positions up to the longest, the flat cell and
    # unary row of every feature occurrence in order, and each last position.
    shape: tuple[int, int]
    cells: np.ndarray
    rows: np.ndarray
    last: np.ndarray
    # Per sequence, the flat weight index of each gold path term: a 0.0
    # appended to the weights, the unary terms, then the transitions; padded
    # with the 0.0.
    path: np.ndarray
    # The flat gradient index of each count in the order it is added, and
    # where its value is in [1.0, marginals, summed pairwise marginals]: per
    # occurrence its gold label, then every label; then per sequence its
    # gold transitions, then every pair.
    counts: np.ndarray
    sources: np.ndarray


def compile_dataset(model: CrfModel, dataset) -> CompiledDataset:
    """Resolve every feature and label of a dataset against a model once."""
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
        positions, seq_rows = _occurrences(model, seq.features())
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
    return CompiledDataset(
        L, (len(dataset), width), np.concatenate(cells), np.concatenate(rows),
        np.array(last), path, np.concatenate(counts + pair_counts),
        np.concatenate(sources + pair_sources))


def _split(weights: np.ndarray, L: int):
    """The unary and transition blocks of a flat weight vector, as views."""
    return weights[:-L * L].reshape(-1, L), weights[-L * L:].reshape(L, L)


class ForwardPass(NamedTuple):
    """A compiled dataset's emissions, log forward scores and log partitions
    at one weight vector: what its gradient's backward pass reads."""

    em: np.ndarray
    log_alpha: np.ndarray
    log_z: np.ndarray


def _forward_passes(weights: np.ndarray,
                    data: CompiledDataset) -> list[ForwardPass]:
    """The forward pass at each vector of a (K, n) stack, all run as one:
    K copies of the batch, one after another, each row with its vector's
    emissions and transitions.  Each vector's pass is a view of its rows."""
    K, L = len(weights), data.n_labels
    B = data.shape[0]
    em = _emissions(weights[:, :-L * L].reshape(K, -1, L), data.cells,
                    data.rows, data.shape)
    T = np.repeat(weights[:, -L * L:].reshape(K, L, L), B, axis=0)
    log_alpha, log_z = _forward(em, T, np.tile(data.last, K))
    rows = [slice(k * B, (k + 1) * B) for k in range(K)]
    return [ForwardPass(em[r], log_alpha[r], log_z[r]) for r in rows]


def _objective(weights, data: CompiledDataset, penalty: float, grad=None,
               forward: ForwardPass | None = None) -> float:
    """Gold path scores minus log partitions minus the L2 penalty; given
    ``grad``, also adds observed minus expected counts into it.  One forward
    (and backward) pass serves all sequences, and ``forward``, the pass at
    ``weights``, spares running it again.  Each path score is summed left to
    right from 0.0, and each gradient entry gets its counts in sequence
    order."""
    if forward is None:
        forward, = _forward_passes(weights[None], data)
    if grad is not None:
        T = _split(weights, data.n_labels)[1]
        _, marginals, pairwise = _forward_backward(
            forward.em, T, data.last, (forward.log_alpha, forward.log_z))
        values = np.concatenate(([1.0], -marginals.ravel(),
                                 -pairwise.sum(axis=1).ravel()))
        np.add.at(grad, data.counts, values[data.sources])
    scores = np.cumsum(np.append(weights, 0.0)[data.path], axis=1)[:, -1]
    ll = 0.0
    for path_score, z in zip(scores.tolist(), forward.log_z.tolist()):
        ll += path_score
        ll -= z
    ll -= penalty
    if not math.isfinite(ll):
        raise CrfNumericError("numeric overflow")
    return ll


def log_likelihood_and_gradient(weights: np.ndarray, data: CompiledDataset,
                                l2_lambda: float,
                                forward: ForwardPass | None = None):
    """L2-regularized conditional log-likelihood and its gradient.  Given
    ``forward``, the pass ``log_likelihood`` ran at these weights, only the
    backward pass runs."""
    grad = np.zeros_like(weights)
    with np.errstate(over="ignore", invalid="ignore"):
        penalty = 0.5 * l2_lambda * float(weights @ weights)
        ll = _objective(weights, data, penalty, grad, forward)
    grad -= l2_lambda * weights
    return ll, grad


def log_likelihood(weights: np.ndarray, data: CompiledDataset,
                   l2_lambda: float):
    """Objective value only; cheaper than the gradient (no backward pass).

    One vector gives one float.  A (K, n) stack of vectors is scored in one
    forward pass and gives the list of their values and the list of their
    ``ForwardPass``es, which ``log_likelihood_and_gradient`` can reuse.
    """
    stack = weights.reshape(-1, weights.shape[-1])
    values = []
    with np.errstate(over="ignore", invalid="ignore"):
        passes = _forward_passes(stack, data)
        for vector, forward in zip(stack, passes):
            penalty = 0.5 * l2_lambda * float(vector @ vector)
            values.append(_objective(vector, data, penalty, forward=forward))
    return values[0] if weights.ndim == 1 else (values, passes)


# Steps the line search scores in one forward pass: a step and its half.
STEPS_PER_PASS = 2


def _step_groups(step: float) -> list[list[float]]:
    """The line search's steps: ``step``, halved while above 1e-12, in
    groups of ``STEPS_PER_PASS``."""
    steps = []
    while step > 1e-12:
        steps.append(step)
        step *= 0.5
    return [steps[k:k + STEPS_PER_PASS]
            for k in range(0, len(steps), STEPS_PER_PASS)]


def _line_search(w, grad, ll: float, gnorm2: float, step: float,
                 data: CompiledDataset, l2_lambda: float, record: dict):
    """The first trial ``w + s * grad`` that passes the Armijo test, tried
    from ``s = step`` down, with its forward pass; None if none does.
    Counts in ``record`` the steps tried, up to the accepted one, and sets
    its ``step``."""
    for steps in _step_groups(step):
        trials = [w + s * grad for s in steps]
        values, passes = log_likelihood(np.stack(trials), data, l2_lambda)
        for s, trial, value, forward in zip(steps, trials, values, passes):
            record["trials"] += 1
            if value > ll + 1e-4 * s * gnorm2:
                record["step"] = s
                return trial, forward
    return None


def train(dataset, labels, templates, config: TrainConfig = TrainConfig(),
          task_name: str = "", log: list | None = None) -> CrfModel:
    """Batch gradient ascent from zero weights with backtracking line search.

    Given ``log``, appends one record per iteration, ``{"iteration",
    "log_likelihood", "gradient_norm", "step", "trials"}`` (``step`` is the
    accepted step, None if there was none; ``trials`` counts the steps tried
    up to the accepted one), then ``{"stop": reason}``: ``converged``,
    ``zero_gradient``, ``line_search_failed`` or ``max_iterations``.  The
    log only observes; the model is the same without it.
    """
    labels, templates = tuple(labels), tuple(templates)
    features = tuple(sorted({f for seq in dataset for feats in seq.features()
                             for f in feats}))
    L = len(labels)
    zeros = ((0.0,) * L,)
    data = compile_dataset(CrfModel(labels, features, zeros * len(features),
                                    zeros * L, templates, task_name), dataset)
    w = np.zeros((len(features) + L) * L)

    step = 1.0
    prev_ll = None
    forward = None
    stop = "max_iterations"
    for iteration in range(config.max_iterations):
        ll, grad = log_likelihood_and_gradient(w, data, config.l2_lambda,
                                               forward)
        gnorm2 = float(grad @ grad)
        record = {"iteration": iteration, "log_likelihood": ll,
                  "gradient_norm": math.sqrt(gnorm2), "step": None,
                  "trials": 0}
        if log is not None:
            log.append(record)
        if prev_ll is not None and abs(ll - prev_ll) < config.convergence_tol:
            stop = "converged"
            break
        prev_ll = ll
        if gnorm2 == 0.0:
            stop = "zero_gradient"
            break
        accepted = _line_search(w, grad, ll, gnorm2, step, data,
                                config.l2_lambda, record)
        if accepted is None:
            stop = "line_search_failed"
            break
        w, forward = accepted
        step = record["step"] * 2.0
    if log is not None:
        log.append({"stop": stop})
    flat = w.tolist()
    return CrfModel(labels, features, _rows(flat[:-L * L], L),
                    _rows(flat[-L * L:], L), templates, task_name)
