"""Linear-chain CRF: path scores, marginals and training, on numpy.

The model, its file format and the Viterbi decoder are in ``crfmodel``,
which extraction and evaluation load without this module or numpy.

Training maximizes the L2-regularized conditional log-likelihood of one
flat vector, the unary rows then the transition rows, by batch gradient
ascent with backtracking line search; forward-backward runs in log space
throughout, over all sequences of a dataset at once, padded to the
longest.  Every sum adds its terms in one fixed order (by sequence,
position, then feature), so trained models are byte-stable.

Each step of the recursions, and each log partition, is a left fold over
labels (``_fold``): the first label's term, then a log-add-exp with each
later label's, so a step costs a few ufunc calls on (B, L) arrays whatever
L is.  On the two-label models every log-sum is of two terms, where the
fold gives the bits of the scipy formula the models were first trained
with; for more labels it may differ from a one-shot log-sum in the last
bit.

The recursions take transitions per batch row, (B, L, L), or one (L, L)
block for every row, so the line search scores a step and its half in one
forward pass over the two trials' stacked batches: a step of the recursion
is a few numpy calls whose overhead, not the row count, sets its cost.  It
accepts the first of them that passes the Armijo test, as a search of one
step at a time would, and hands that trial's emissions, forward scores and
log partitions to the next gradient, which then runs only the backward
pass.  A pass makes its arrays and views once, positions first, and each
step writes into contiguous rows of them (``_fold``).  The flat indices a
pass gathers weights from and scatters them into are compiled once per
dataset (``compile_dataset``), and the emissions and the gradient's counts
are each one ``np.bincount``, which adds its terms in the order they come
(``_scatter_add``).  None of this moves a bit: every elementwise op, every
sum and every fold over labels keeps its order, and ``exp`` and ``log1p``
still run on contiguous arrays.

The kernels are module attributes, so a caller that patches
``crf.log_likelihood`` reaches the one ``train`` calls.

``score`` and ``forward_backward`` are public although neither extraction
nor training calls them: they score one path and give one sequence's
partition and marginals, which is what the tests check against brute-force
enumeration of every label path, and so the interface that vouches for
``viterbi_decode``.  Each compiles its one sequence with
``compile_dataset`` and runs training's path-score and forward-backward
code on the model's flat weight vector, so those checks also vouch for
``compile_dataset`` and the batched kernels behind the gradient.
"""

from __future__ import annotations

import math
from itertools import chain, repeat
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


def _occurrences(model: CrfModel, sequences):
    """Positions and unary rows of the active features the model knows, in
    order; unknown features weigh nothing and are left out.  Positions count
    through the sequences one after another, so one sequence's are its own."""
    get = model.feature_rows.get
    items = [*chain.from_iterable(sequences)]
    rows = np.fromiter(map(get, chain.from_iterable(items), repeat(-1)),
                       np.intp)
    positions = np.repeat(np.arange(len(items)),
                          np.fromiter(map(len, items), np.intp, len(items)))
    known = rows >= 0
    return positions[known], rows[known]


def _flat(index: np.ndarray, L: int) -> np.ndarray:
    """Each entry's L flat indices ``index * L + label``, labels in order."""
    return (index[:, None] * L + np.arange(L)).ravel()


def _scatter_add(index: np.ndarray, values: np.ndarray, size: int):
    """``values`` summed into ``size`` cells at ``index``, each cell's in
    order from +0.0: ``np.bincount`` adds them one after another into a
    zeroed output, so these are the bits of ``np.add.at`` into zeros.  Given
    no index, ``np.bincount`` gives integer zeros, hence the cast."""
    return np.bincount(index, values, size).astype(float, copy=False)


def _emissions(weights: np.ndarray, gather: np.ndarray, scatter: np.ndarray,
               shape: tuple[int, ...]) -> np.ndarray:
    """Label scores in a (sequences, positions, labels) ``shape``: the
    weights at ``gather`` added in order into the flat cells at
    ``scatter``.  A (K, n) stack of weight vectors gives K
    such batches, one after another along the first axis, in one
    ``_scatter_add``; each vector's block offsets both indices by one
    broadcast add, so any K takes the same path."""
    K, n = weights.shape
    size = math.prod(shape)
    blocks = np.arange(K)[:, None]
    em = _scatter_add((blocks * size + scatter).ravel(),
                      weights.ravel()[(blocks * n + gather).ravel()], K * size)
    return em.reshape(K * shape[0], *shape[1:])


def _fold(terms, hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """log(exp(acc) + exp(term)), as ``log1p(exp(lo - hi)) + hi``, folded
    left over ``terms`` in the contiguous scratch ``hi`` and ``lo``.  Gives
    ``lo``, or a lone term.

    On two terms that are finite or -inf these are the bits of the scipy
    formula ``log1p(s / m) + log(m) + max``, the m maximal terms left out
    of s: when the terms differ, m = 1 and ``log(1)`` adds 0.0; when they
    are equal, s = 0 and numpy's ``log(2.0)`` is its ``log1p(1.0)``.  The
    two part only when both terms are +inf, an overflow either way.  Both
    are numpy ufuncs on contiguous arrays, as the models were trained with:
    libm's ``exp`` and ``log1p`` may differ in the last bit.
    """
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
    return log_alpha, _fold(log_alpha[np.arange(B), last].T,
                            *np.empty((2, B)))


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


class CompiledDataset(NamedTuple):
    """Training sequences as arrays over one model's rows and labels: every
    index the passes read, built once per dataset."""

    n_labels: int
    # The batch: sequences by positions up to the longest, and each
    # sequence's last position.
    shape: tuple[int, int]
    last: np.ndarray
    # Per feature occurrence in order, then per label: the flat weight index
    # ``row * L + label`` and the flat emission index ``cell * L + label``,
    # its cell counted through the batch.
    gather: np.ndarray
    scatter: np.ndarray
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


def _by_sequence(keys, *columns):
    """The sequence keys and each column's arrays, concatenated and sorted
    stably by key: per sequence, the first arrays' entries, then the next."""
    key = np.concatenate(keys)
    order = np.argsort(key, kind="stable")
    return [key[order], *(np.concatenate(c)[order] for c in columns)]


def compile_dataset(model: CrfModel, dataset) -> CompiledDataset:
    """Resolve every feature and label of a dataset against a model once,
    in array operations over the whole dataset."""
    if not dataset:
        raise CrfError("empty dataset")
    if not all(seq.items for seq in dataset):
        raise CrfError("empty sequence")
    L = len(model.labels)
    base = len(model.features) * L
    zero = base + L * L
    B = len(dataset)
    lengths = np.array([len(seq.items) for seq in dataset], dtype=np.intp)
    width = int(lengths.max())
    # Per position, counted through the dataset: its cell in the batch (the
    # batch's live cells in order), its sequence and its gold label.
    cell_of = np.flatnonzero(np.arange(width) < lengths[:, None])
    seq_of = cell_of // width
    gold = np.array([*map(model.label_index, chain.from_iterable(
        seq.labels() for seq in dataset))], dtype=np.intp)
    positions, rows = _occurrences(model, [seq.features() for seq in dataset])
    cells = cell_of[positions]
    gather, scatter = _flat(rows, L), _flat(cells, L)
    unary_terms = rows * L + gold[positions]
    later = np.flatnonzero(cell_of % width)
    transitions = base + gold[later - 1] * L + gold[later]
    key, terms = _by_sequence((seq_of[positions], seq_of[later]),
                              (unary_terms, transitions))
    sizes = np.bincount(key, minlength=B)
    path = np.full((B, 1 + sizes.max()), zero, dtype=np.intp)
    path[key, 1 + np.arange(len(key)) - (np.cumsum(sizes) - sizes)[key]] = \
        terms
    pair_source = 1 + B * width * L
    _, pair_counts, pair_sources = _by_sequence(
        (seq_of[later], np.repeat(np.arange(B), L * L)),
        (transitions, np.tile(base + np.arange(L * L), B)),
        (np.zeros_like(transitions), pair_source + np.arange(B * L * L)))
    counts = np.column_stack((unary_terms, gather.reshape(-1, L))).ravel()
    sources = np.column_stack((np.zeros_like(cells),
                               1 + scatter.reshape(-1, L))).ravel()
    return CompiledDataset(
        L, (B, width), lengths - 1, gather, scatter, path,
        np.concatenate((counts, pair_counts)),
        np.concatenate((sources, pair_sources)))


def _split(weights: np.ndarray, L: int):
    """The unary and transition blocks of a flat weight vector, as views."""
    return weights[:-L * L].reshape(-1, L), weights[-L * L:].reshape(L, L)


def _path_scores(weights: np.ndarray, data: CompiledDataset) -> np.ndarray:
    """Each sequence's gold path score at ``weights``: its unary then
    transition terms, summed left to right from 0.0."""
    return np.cumsum(np.append(weights, 0.0)[data.path], axis=1)[:, -1]


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
    em = _emissions(weights, data.gather, data.scatter, (*data.shape, L))
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
        grad += _scatter_add(data.counts, values[data.sources], len(grad))
    ll = 0.0
    for path_score, z in zip(_path_scores(weights, data).tolist(),
                             forward.log_z.tolist()):
        ll += path_score
        ll -= z
    ll -= penalty
    if not math.isfinite(ll):
        raise CrfNumericError("numeric overflow")
    return ll


def _one_sequence(model: CrfModel, sequence_features, label_path):
    """The model's weights as the flat vector training fits, the unary rows
    then the transition rows, and one sequence labeled with ``label_path``
    compiled against the model."""
    weights = np.fromiter(chain(*model.unary, *model.transitions), float)
    sequence = LabeledSequence([*zip(sequence_features, label_path)])
    return weights, compile_dataset(model, [sequence])


def score(model: CrfModel, sequence_features, label_path) -> float:
    """Score one label path: unary terms plus adjacent transition terms."""
    if len(sequence_features) != len(label_path):
        raise CrfError("path length must match sequence length")
    if not label_path:  # ``compile_dataset`` rejects an empty sequence
        return 0.0
    path_score, = _path_scores(*_one_sequence(model, sequence_features,
                                              label_path)).tolist()
    return path_score


def forward_backward(model: CrfModel, sequence_features):
    """Log partition, per-position marginals, and pairwise marginals."""
    weights, data = _one_sequence(model, sequence_features,
                                  repeat(model.labels[0]))
    with np.errstate(over="ignore", invalid="ignore"):
        forward, = _forward_passes(weights[None], data)
        log_z, marginals, pairwise = _forward_backward(
            forward.em, _split(weights, data.n_labels)[1], data.last,
            (forward.log_alpha, forward.log_z))
    return log_z[0], marginals[0], pairwise[0]


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


def _line_search(w, grad, ll: float, gnorm2: float, step: float,
                 data: CompiledDataset, l2_lambda: float, record: dict):
    """The first trial ``w + s * grad`` that passes the Armijo test, tried
    from ``s = step`` down, halving while above 1e-12, with its forward
    pass; None if none does.  Each forward pass scores a step and its half.
    Counts in ``record`` the steps tried, up to the accepted one, and sets
    its ``step``."""
    while step > 1e-12:
        steps = [s for s in (step, step * 0.5) if s > 1e-12]
        trials = [w + s * grad for s in steps]
        values, passes = log_likelihood(np.stack(trials), data, l2_lambda)
        for s, trial, value, forward in zip(steps, trials, values, passes):
            record["trials"] += 1
            if value > ll + 1e-4 * s * gnorm2:
                record["step"] = s
                return trial, forward
        step *= 0.25
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
