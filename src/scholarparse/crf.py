"""Linear-chain CRF: scoring, Viterbi decoding, training, serialization.

The model is linear in indicator features: each position of a sequence
carries a set of active feature ids, and a path is scored by summing unary
(feature, label) weights plus (label, label) transition weights over
adjacent pairs.  Training maximizes the L2-regularized conditional
log-likelihood by batch gradient ascent with backtracking line search;
forward-backward runs in log space throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import logsumexp

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


@dataclass
class CrfModel:
    labels: tuple[str, ...]
    unary_weights: dict[tuple[str, str], float]
    transition_weights: dict[tuple[str, str], float]
    templates: tuple[FeatureTemplate, ...] = ()
    task_name: str = ""

    def label_index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise CrfError(f"unknown label {label!r}") from None


def score(model: CrfModel, sequence_features, label_path) -> float:
    """Score one label path: unary terms plus adjacent transition terms."""
    if len(sequence_features) != len(label_path):
        raise CrfError("path length must match sequence length")
    for label in label_path:
        model.label_index(label)
    total = 0.0
    for feats, label in zip(sequence_features, label_path):
        for f in feats:
            total += model.unary_weights.get((f, label), 0.0)
    for a, b in zip(label_path, label_path[1:]):
        total += model.transition_weights.get((a, b), 0.0)
    return total


def _emissions(model: CrfModel, sequence_features) -> np.ndarray:
    n, L = len(sequence_features), len(model.labels)
    em = np.zeros((n, L))
    for t, feats in enumerate(sequence_features):
        for f in feats:
            for j, label in enumerate(model.labels):
                w = model.unary_weights.get((f, label))
                if w:
                    em[t, j] += w
    return em


def _transition_matrix(model: CrfModel) -> np.ndarray:
    L = len(model.labels)
    T = np.zeros((L, L))
    for (a, b), w in model.transition_weights.items():
        T[model.label_index(a), model.label_index(b)] = w
    return T


def viterbi_decode(model: CrfModel, sequence_features) -> list[str]:
    """Argmax label path; ties prefer the earlier label at each backtrack step."""
    if not sequence_features:
        raise CrfError("empty sequence")
    em = _emissions(model, sequence_features)
    T = _transition_matrix(model)
    n, L = em.shape
    delta = np.empty((n, L))
    back = np.zeros((n, L), dtype=int)
    delta[0] = em[0]
    for t in range(1, n):
        cand = delta[t - 1][:, None] + T  # cand[prev, cur]
        back[t] = np.argmax(cand, axis=0)  # lowest index wins ties
        delta[t] = cand[back[t], np.arange(L)] + em[t]
    path = [int(np.argmax(delta[-1]))]
    for t in range(n - 1, 0, -1):
        path.append(int(back[t, path[-1]]))
    path.reverse()
    return [model.labels[i] for i in path]


def forward_backward(model: CrfModel, sequence_features):
    """Log partition, per-position marginals, and pairwise marginals."""
    em = _emissions(model, sequence_features)
    T = _transition_matrix(model)
    n, L = em.shape
    log_alpha = np.empty((n, L))
    log_beta = np.empty((n, L))
    log_alpha[0] = em[0]
    for t in range(1, n):
        log_alpha[t] = em[t] + logsumexp(log_alpha[t - 1][:, None] + T, axis=0)
    log_beta[-1] = 0.0
    for t in range(n - 2, -1, -1):
        log_beta[t] = logsumexp(T + (em[t + 1] + log_beta[t + 1])[None, :], axis=1)
    log_z = logsumexp(log_alpha[-1])
    if not np.isfinite(log_z):
        raise CrfNumericError("numeric overflow")
    marginals = np.exp(log_alpha + log_beta - log_z)
    pairwise = np.zeros((max(n - 1, 0), L, L))
    for t in range(n - 1):
        lp = (log_alpha[t][:, None] + T
              + (em[t + 1] + log_beta[t + 1])[None, :] - log_z)
        pairwise[t] = np.exp(lp)
    if not (np.isfinite(marginals).all() and np.isfinite(pairwise).all()):
        raise CrfNumericError("numeric overflow")
    return log_z, marginals, pairwise


def _feature_universe(model: CrfModel, dataset) -> list[str]:
    feats = {f for (f, _) in model.unary_weights}
    for seq in dataset:
        for fv, _ in seq.items:
            feats.update(fv)
    return sorted(feats)


def pack_weights(model: CrfModel, features) -> np.ndarray:
    """Flatten weights into [unary (f x label), transitions (L x L)] order."""
    L = len(model.labels)
    vec = np.zeros(len(features) * L + L * L)
    for i, f in enumerate(features):
        for j, label in enumerate(model.labels):
            vec[i * L + j] = model.unary_weights.get((f, label), 0.0)
    base = len(features) * L
    for a_i, a in enumerate(model.labels):
        for b_i, b in enumerate(model.labels):
            vec[base + a_i * L + b_i] = model.transition_weights.get((a, b), 0.0)
    return vec


def unpack_weights(model: CrfModel, features, vec: np.ndarray) -> CrfModel:
    """Inverse of pack_weights; returns a new model with the given weights."""
    L = len(model.labels)
    unary = {}
    for i, f in enumerate(features):
        for j, label in enumerate(model.labels):
            w = float(vec[i * L + j])
            if w != 0.0:
                unary[(f, label)] = w
    base = len(features) * L
    trans = {}
    for a_i, a in enumerate(model.labels):
        for b_i, b in enumerate(model.labels):
            w = float(vec[base + a_i * L + b_i])
            if w != 0.0:
                trans[(a, b)] = w
    return CrfModel(labels=model.labels, unary_weights=unary,
                    transition_weights=trans, templates=model.templates,
                    task_name=model.task_name)


def log_likelihood_and_gradient(model: CrfModel, dataset, l2_lambda: float):
    """L2-regularized conditional log-likelihood and its gradient.

    The gradient is laid out as pack_weights over the union of model and
    dataset features (sorted) followed by the L x L transition block.
    """
    if not dataset:
        raise CrfError("empty dataset")
    features = _feature_universe(model, dataset)
    feat_idx = {f: i for i, f in enumerate(features)}
    L = len(model.labels)
    w = pack_weights(model, features)
    grad = np.zeros_like(w)
    ll = 0.0
    base = len(features) * L
    for seq in dataset:
        fv = seq.features()
        path = seq.labels()
        ll += score(model, fv, path)
        log_z, marginals, pairwise = forward_backward(model, fv)
        ll -= log_z
        for t, (feats, label) in enumerate(seq.items):
            j_gold = model.label_index(label)
            for f in feats:
                i = feat_idx[f]
                grad[i * L + j_gold] += 1.0
                grad[i * L: i * L + L] -= marginals[t]
        for t in range(len(path) - 1):
            a = model.label_index(path[t])
            b = model.label_index(path[t + 1])
            grad[base + a * L + b] += 1.0
        if len(path) > 1:
            grad[base:] -= pairwise.sum(axis=0).ravel()
    ll -= 0.5 * l2_lambda * float(w @ w)
    grad -= l2_lambda * w
    if not np.isfinite(ll):
        raise CrfNumericError("numeric overflow")
    return ll, grad


def log_likelihood(model: CrfModel, dataset, l2_lambda: float) -> float:
    """Objective value only; cheaper than the gradient (no backward pass)."""
    if not dataset:
        raise CrfError("empty dataset")
    ll = 0.0
    T = _transition_matrix(model)
    for seq in dataset:
        fv = seq.features()
        ll += score(model, fv, seq.labels())
        em = _emissions(model, fv)
        log_alpha = em[0]
        for t in range(1, len(fv)):
            log_alpha = em[t] + logsumexp(log_alpha[:, None] + T, axis=0)
        ll -= float(logsumexp(log_alpha))
    norm2 = (sum(w * w for w in model.unary_weights.values())
             + sum(w * w for w in model.transition_weights.values()))
    ll -= 0.5 * l2_lambda * norm2
    if not np.isfinite(ll):
        raise CrfNumericError("numeric overflow")
    return ll


def train(dataset, labels, templates, config: TrainConfig = TrainConfig(),
          task_name: str = "") -> CrfModel:
    """Batch gradient ascent from zero weights with backtracking line search."""
    if not dataset:
        raise CrfError("empty dataset")
    labels = tuple(labels)
    observed = {label for seq in dataset for label in seq.labels()}
    missing = observed - set(labels)
    if missing:
        raise CrfError(f"labels outside label set: {sorted(missing)}")

    model = CrfModel(labels=labels, unary_weights={}, transition_weights={},
                     templates=tuple(templates), task_name=task_name)
    features = _feature_universe(model, dataset)
    w = np.zeros(len(features) * len(labels) + len(labels) ** 2)

    def objective(vec):
        return log_likelihood_and_gradient(
            unpack_weights(model, features, vec), dataset, config.l2_lambda)

    def value(vec):
        return log_likelihood(unpack_weights(model, features, vec),
                              dataset, config.l2_lambda)

    step = 1.0
    prev_ll = None
    for _ in range(config.max_iterations):
        ll, grad = objective(w)
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
            trial_ll = value(trial)
            if trial_ll > ll + 1e-4 * s * gnorm2:
                w = trial
                step = s * 2.0
                accepted = True
                break
            s *= 0.5
        if not accepted:
            break
    return unpack_weights(model, features, w)


def save_model(model: CrfModel) -> bytes:
    """Serialize to a versioned, deterministic key-value text format."""
    lines = [f"{MODEL_MAGIC} {MODEL_VERSION}", f"task\t{model.task_name}",
             "labels\t" + "\t".join(model.labels)]
    for tpl in model.templates:
        lines.append(f"template\t{tpl.id}\t{tpl.kind}\t{tpl.description}")
    for (f, label), wgt in sorted(model.unary_weights.items()):
        lines.append(f"unary\t{f}\t{label}\t{wgt!r}")
    for (a, b), wgt in sorted(model.transition_weights.items()):
        lines.append(f"trans\t{a}\t{b}\t{wgt!r}")
    lines.append("end")
    return ("\n".join(lines) + "\n").encode("utf-8")


def load_model(data: bytes) -> CrfModel:
    """Parse save_model output; field-for-field round trip."""
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

    task_name = ""
    labels: tuple[str, ...] = ()
    templates = []
    unary = {}
    trans = {}
    for line in lines[1:-1]:
        parts = line.split("\t")
        kind = parts[0]
        if kind == "task":
            task_name = parts[1] if len(parts) > 1 else ""
        elif kind == "labels":
            labels = tuple(parts[1:])
        elif kind == "template":
            templates.append(FeatureTemplate(id=parts[1], kind=parts[2],
                                             description=parts[3]))
        elif kind == "unary":
            unary[(parts[1], parts[2])] = float(parts[3])
        elif kind == "trans":
            trans[(parts[1], parts[2])] = float(parts[3])
        else:
            raise ModelFormatError(f"unknown record {kind!r}")
    return CrfModel(labels=labels, unary_weights=unary,
                    transition_weights=trans, templates=tuple(templates),
                    task_name=task_name)
