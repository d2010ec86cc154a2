"""Linear-chain CRF: scoring, Viterbi decoding, training, serialization.

The model is linear in indicator features: each position of a sequence
carries a set of active features, and a path is scored by summing unary
(feature, label) weights plus (label, label) transition weights over
adjacent pairs.  Training maximizes the L2-regularized conditional
log-likelihood of the flat vector ``[unary.ravel(), transitions.ravel()]``
by batch gradient ascent with backtracking line search; forward-backward
runs in log space throughout, over all sequences of a dataset at once,
padded to the longest.  Every sum adds its terms in one fixed order (by
sequence, position, then feature), so trained models are byte-stable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

MODEL_MAGIC = "OCRPP-CRF"
MODEL_VERSION = 1


class CrfError(ValueError):
    pass


class CrfNumericError(CrfError):
    """Non-finite value encountered during forward-backward."""


class ModelFormatError(CrfError):
    """Unreadable, truncated, or wrong-version model payload."""


@dataclass(frozen=True)
class FeatureTemplate:
    id: str
    kind: str  # "boolean", "bucketed-real", or "categorical"
    description: str = ""


@dataclass
class LabeledSequence:
    """Ordered (active-feature-set, label) pairs for one training sequence."""

    items: list[tuple[tuple[str, ...], str]]

    def features(self):
        return [feats for feats, _ in self.items]

    def labels(self):
        return [label for _, label in self.items]


@dataclass(frozen=True)
class TrainConfig:
    l2_lambda: float = 1.0
    max_iterations: int = 200
    convergence_tol: float = 1e-5

    def __post_init__(self):
        if self.l2_lambda <= 0:
            raise ValueError("l2_lambda must be positive")


@dataclass(eq=False)
class CrfModel:
    """``unary[i, j]`` weighs feature ``features[i]`` under ``labels[j]``;
    ``transitions[a, b]`` weighs label a followed by label b."""

    labels: tuple[str, ...]
    features: tuple[str, ...]
    unary: np.ndarray
    transitions: np.ndarray
    templates: tuple[FeatureTemplate, ...] = ()
    task_name: str = ""
    feature_rows: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        self.feature_rows = {f: i for i, f in enumerate(self.features)}

    @classmethod
    def from_weights(cls, labels, unary_weights, transition_weights,
                     templates=(), task_name: str = "") -> CrfModel:
        """Model from {(feature, label): w} and {(label, label): w} dicts."""
        labels = tuple(labels)
        features = tuple(sorted({f for f, _ in unary_weights}))
        model = cls(labels, features, np.zeros((len(features), len(labels))),
                    np.zeros((len(labels),) * 2), tuple(templates), task_name)
        for (f, label), w in unary_weights.items():
            model.unary[model.feature_rows[f], model.label_index(label)] = w
        for (a, b), w in transition_weights.items():
            model.transitions[model.label_index(a), model.label_index(b)] = w
        return model

    def label_index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise CrfError(f"unknown label {label!r}") from None


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
    positions), each cell's rows added in order."""
    L = unary.shape[1]
    em = np.zeros((*shape, L))
    np.add.at(em.reshape(-1), cells[:, None] * L + np.arange(L), unary[rows])
    return em


def _path_score(unary, transitions, positions, rows, gold) -> float:
    """Unary then transition terms, summed left to right from 0.0."""
    terms = np.concatenate(([0.0], unary[rows, gold[positions]],
                            transitions[gold[:-1], gold[1:]]))
    return float(np.cumsum(terms)[-1])


def _logsumexp(a: np.ndarray, axis: int):
    """log(sum(exp(a))) along an axis as scipy.special.logsumexp computes it:
    log1p(s / m) + log(m) + max, the m maximal entries left out of s."""
    a_max = np.maximum.reduce(a, axis=axis, keepdims=True)
    is_max = a == a_max
    m = np.add.reduce(is_max, axis=axis, dtype=float, keepdims=True)
    s = np.add.reduce(np.exp(np.where(is_max, -np.inf, a) - a_max), axis=axis,
                      keepdims=True)
    return np.squeeze(np.log1p(s / m) + np.log(m) + a_max, axis=axis)[()]


def score(model: CrfModel, sequence_features, label_path) -> float:
    """Score one label path: unary terms plus adjacent transition terms."""
    if len(sequence_features) != len(label_path):
        raise CrfError("path length must match sequence length")
    gold = np.array([*map(model.label_index, label_path)], dtype=np.intp)
    return _path_score(model.unary, model.transitions,
                       *_occurrences(model, sequence_features), gold)


def viterbi_decode(model: CrfModel, sequence_features) -> list[str]:
    """Argmax label path; ties prefer the earlier label at each backtrack step.

    The recursion runs over plain floats: on the two-label models a numpy
    call per position costs more than its arithmetic.  Each score adds the
    same terms in the same order as an array recursion would, a later label
    replaces the best only when strictly greater and the last position takes
    its first maximum, so on finite weights the path is the one
    ``np.argmax`` (lowest index wins ties) would give.
    """
    if not sequence_features:
        raise CrfError("empty sequence")
    em = _emissions(model.unary, *_occurrences(model, sequence_features),
                    (len(sequence_features),)).tolist()
    T = model.transitions.tolist()
    labels = range(len(T))
    delta, back = em[0], []
    for row in em[1:]:
        ptr, nxt = [], []
        for j in labels:
            best, arg = delta[0] + T[0][j], 0
            for i in labels[1:]:
                s = delta[i] + T[i][j]
                if s > best:
                    best, arg = s, i
            ptr.append(arg)
            nxt.append(best + row[j])
        back.append(ptr)
        delta = nxt
    j = delta.index(max(delta))
    path = [j]
    for ptr in reversed(back):
        j = ptr[j]
        path.append(j)
    path.reverse()
    return [model.labels[i] for i in path]


def _forward(em: np.ndarray, T: np.ndarray, last: np.ndarray):
    """Log forward scores of a (B, N, L) batch of sequences padded to one
    length, and each sequence's log partition, read at its last position."""
    log_alpha = np.empty_like(em)
    log_alpha[:, 0] = em[:, 0]
    for t in range(1, em.shape[1]):
        log_alpha[:, t] = em[:, t] + _logsumexp(
            log_alpha[:, t - 1, :, None] + T, axis=1)
    return log_alpha, _logsumexp(log_alpha[np.arange(len(em)), last], axis=1)


def _forward_backward(em: np.ndarray, T: np.ndarray, last: np.ndarray):
    """Log partitions, marginals and pairwise marginals of a padded batch;
    both marginals are zero past each sequence's last position."""
    log_alpha, log_z = _forward(em, T, last)
    past = np.arange(em.shape[1]) > last[:, None]
    log_beta = np.zeros_like(em)
    for t in range(em.shape[1] - 2, -1, -1):
        log_beta[:, t] = np.where(past[:, t + 1, None], 0.0, _logsumexp(
            T + (em[:, t + 1] + log_beta[:, t + 1])[:, None, :], axis=2))
    log_alpha[past] = log_beta[past] = -np.inf
    shift = log_z[:, None, None]
    marginals = np.exp(log_alpha + log_beta - shift)
    pairwise = np.exp(log_alpha[:, :-1, :, None] + T
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
    em = _emissions(model.unary, *_occurrences(model, sequence_features),
                    (1, n))
    log_z, marginals, pairwise = _forward_backward(
        em, model.transitions, np.array([n - 1]))
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
    # Per sequence: feature positions and rows, gold labels, and the flat
    # gradient index of each count in the order it is added: per feature its
    # gold label, then every label; per transition its pair; then all pairs.
    sequences: tuple[tuple[np.ndarray, ...], ...]


def compile_dataset(model: CrfModel, dataset) -> CompiledDataset:
    """Resolve every feature and label of a dataset against a model once."""
    if not dataset:
        raise CrfError("empty dataset")
    if not all(seq.items for seq in dataset):
        raise CrfError("empty sequence")
    L, base = len(model.labels), model.unary.size
    width = max(len(seq.items) for seq in dataset)
    sequences = []
    for seq in dataset:
        positions, rows = _occurrences(model, seq.features())
        gold = np.array([*map(model.label_index, seq.labels())],
                        dtype=np.intp)
        per_feature = np.column_stack(
            (rows * L + gold[positions], rows[:, None] * L + np.arange(L)))
        sequences.append((positions, rows, gold, np.concatenate(
            (per_feature.ravel(), base + gold[:-1] * L + gold[1:],
             base + np.arange(L * L)))))
    positions, rows, gold, _ = zip(*sequences)
    return CompiledDataset(
        L, (len(sequences), width),
        np.concatenate([b * width + p for b, p in enumerate(positions)]),
        np.concatenate(rows), np.array([len(g) - 1 for g in gold]),
        tuple(sequences))


def _split(weights: np.ndarray, L: int):
    """The unary and transition blocks of a flat weight vector, as views."""
    return weights[:-L * L].reshape(-1, L), weights[-L * L:].reshape(L, L)


def _objective(weights, data: CompiledDataset, penalty: float,
               grad=None) -> float:
    """Gold path scores minus log partitions minus the L2 penalty; given
    ``grad``, also adds observed minus expected counts into it.  One forward
    (and backward) pass serves all sequences; the sums stay per sequence."""
    unary, T = _split(weights, data.n_labels)
    em = _emissions(unary, data.cells, data.rows, data.shape)
    if grad is None:
        log_z = _forward(em, T, data.last)[1]
    else:
        log_z, marginals, pairwise = _forward_backward(em, T, data.last)
    ll = 0.0
    for b, (positions, rows, gold, counts) in enumerate(data.sequences):
        ll += _path_score(unary, T, positions, rows, gold)
        ll -= log_z[b]
        if grad is None:
            continue
        per_feature = np.column_stack((np.ones(len(rows)),
                                       -marginals[b, positions]))
        np.add.at(grad, counts, np.concatenate(
            (per_feature.ravel(), np.ones(len(gold) - 1),
             -pairwise[b, :len(gold) - 1].sum(axis=0).ravel())))
    ll -= penalty
    if not np.isfinite(ll):
        raise CrfNumericError("numeric overflow")
    return ll


def log_likelihood_and_gradient(weights: np.ndarray, data: CompiledDataset,
                                l2_lambda: float):
    """L2-regularized conditional log-likelihood and its gradient."""
    grad = np.zeros_like(weights)
    penalty = 0.5 * l2_lambda * float(weights @ weights)
    ll = _objective(weights, data, penalty, grad)
    grad -= l2_lambda * weights
    return ll, grad


def log_likelihood(weights: np.ndarray, data: CompiledDataset,
                   l2_lambda: float) -> float:
    """Objective value only; cheaper than the gradient (no backward pass)."""
    squares = (weights * weights).tolist()
    n_unary = len(squares) - data.n_labels ** 2
    norm2 = sum(squares[:n_unary]) + sum(squares[n_unary:])
    return _objective(weights, data, 0.5 * l2_lambda * norm2)


def train(dataset, labels, templates, config: TrainConfig = TrainConfig(),
          task_name: str = "") -> CrfModel:
    """Batch gradient ascent from zero weights with backtracking line search."""
    labels = tuple(labels)
    features = tuple(sorted({f for seq in dataset for feats in seq.features()
                             for f in feats}))
    w = np.zeros((len(features) + len(labels)) * len(labels))
    model = CrfModel(labels, features, *_split(w, len(labels)),
                     tuple(templates), task_name)
    data = compile_dataset(model, dataset)

    step = 1.0
    prev_ll = None
    for _ in range(config.max_iterations):
        ll, grad = log_likelihood_and_gradient(w, data, config.l2_lambda)
        if prev_ll is not None and abs(ll - prev_ll) < config.convergence_tol:
            break
        prev_ll = ll
        gnorm2 = float(grad @ grad)
        if gnorm2 == 0.0:
            break
        s = step
        accepted = False
        while s > 1e-12:
            trial = w + s * grad
            trial_ll = log_likelihood(trial, data, config.l2_lambda)
            if trial_ll > ll + 1e-4 * s * gnorm2:
                w = trial
                step = s * 2.0
                accepted = True
                break
            s *= 0.5
        if not accepted:
            break
    model.unary, model.transitions = _split(w, len(labels))
    return model


def save_model(model: CrfModel) -> bytes:
    """Serialize to a versioned, deterministic key-value text format: records
    sorted by name, zero weights left out."""
    lines = [f"{MODEL_MAGIC} {MODEL_VERSION}", f"task\t{model.task_name}",
             "labels\t" + "\t".join(model.labels)]
    for tpl in model.templates:
        lines.append(f"template\t{tpl.id}\t{tpl.kind}\t{tpl.description}")
    names = model.labels
    by_name = sorted(range(len(names)), key=names.__getitem__)
    unary, trans = model.unary.tolist(), model.transitions.tolist()
    for f, i in sorted(model.feature_rows.items()):
        lines += [f"unary\t{f}\t{names[j]}\t{unary[i][j]!r}"
                  for j in by_name if unary[i][j] != 0.0]
    lines += [f"trans\t{names[a]}\t{names[b]}\t{trans[a][b]!r}"
              for a in by_name for b in by_name if trans[a][b] != 0.0]
    lines.append("end")
    return ("\n".join(lines) + "\n").encode("utf-8")


def load_model(data: bytes) -> CrfModel:
    """Parse save_model output; field-for-field round trip.  Every weight
    must be finite, which is what ``viterbi_decode``'s tie rule assumes."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ModelFormatError(f"undecodable model payload: {exc}") from exc
    lines = text.splitlines()
    if not lines:
        raise ModelFormatError("empty payload")
    header = lines[0].split()
    if len(header) != 2 or header[0] != MODEL_MAGIC:
        raise ModelFormatError("bad magic header")
    if header[1] != str(MODEL_VERSION):
        raise ModelFormatError(f"unsupported version {header[1]}")
    if lines[-1] != "end":
        raise ModelFormatError("truncated payload")

    task_name, labels = "", ()
    templates, unary, trans = [], {}, {}
    for line in lines[1:-1]:
        kind, *fields = line.split("\t")
        if kind == "task":
            task_name = fields[0] if fields else ""
        elif kind == "labels":
            labels = tuple(fields)
        elif kind == "template" and len(fields) >= 2:
            templates.append(FeatureTemplate(*fields[:3]))
        elif kind in ("unary", "trans"):
            weights = unary if kind == "unary" else trans
            try:
                first, second, weight = fields
                weight = float(weight)
            except ValueError:
                raise ModelFormatError(f"malformed record {line!r}") from None
            if not math.isfinite(weight):
                raise ModelFormatError(f"non-finite weight in {line!r}")
            weights[(first, second)] = weight
        else:
            raise ModelFormatError(f"unknown or malformed record {kind!r}")
    try:
        return CrfModel.from_weights(labels, unary, trans, templates,
                                     task_name)
    except CrfError as exc:
        raise ModelFormatError(str(exc)) from None
