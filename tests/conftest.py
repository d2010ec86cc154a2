import random

import numpy as np
import pytest

from scholarparse.crf import (CrfModel, _emissions, _logsumexp, _path_score,
                              _split)


def random_instance(rng: random.Random, max_len: int = 8, max_labels: int = 4,
                    integer_weights: bool = False):
    """A random model plus feature sequence for oracle comparisons."""
    n = rng.randint(1, max_len)
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


def path_scores(model: CrfModel, feats):
    """Every label path, as rows of label indices in lexicographic order,
    and the score of each.

    Vectorized so the oracles stay usable on hundreds of instances.  It
    reads the weight arrays directly, without the model's own emission or
    scoring code.
    """
    n, n_labels = len(feats), len(model.labels)
    emit = np.zeros((n, n_labels))
    for t, active in enumerate(feats):
        for j in range(n_labels):
            emit[t, j] = sum(float(model.unary[i, j])
                             for i, f in enumerate(model.features)
                             if f in active)
    trans = np.array(model.transitions, dtype=float)

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


def per_sequence_objective(weights, data, penalty: float, grad=None):
    """Oracle for ``crf._objective``: the same sums in the same order, with
    one forward (and backward) recursion per sequence over its own
    positions, as the objective ran before the sequences were batched."""
    unary, T = _split(weights, data.n_labels)
    ll = 0.0
    for positions, rows, gold, counts in data.sequences:
        n = len(gold)
        em = _emissions(unary, positions, rows, (n,))
        ll += _path_score(unary, T, positions, rows, gold)
        log_alpha = np.empty_like(em)
        log_alpha[0] = em[0]
        for t in range(1, n):
            log_alpha[t] = em[t] + _logsumexp(log_alpha[t - 1][:, None] + T,
                                              axis=0)
        log_z = _logsumexp(log_alpha[-1], axis=0)
        ll -= log_z
        if grad is None:
            continue
        log_beta = np.zeros_like(em)
        for t in range(n - 2, -1, -1):
            log_beta[t] = _logsumexp(T + (em[t + 1] + log_beta[t + 1])[None, :],
                                     axis=1)
        marginals = np.exp(log_alpha + log_beta - log_z)
        pairwise = np.exp(log_alpha[:-1, :, None] + T
                          + (em[1:] + log_beta[1:])[:, None, :] - log_z)
        per_feature = np.column_stack((np.ones(len(rows)),
                                       -marginals[positions]))
        np.add.at(grad, counts, np.concatenate(
            (per_feature.ravel(), np.ones(n - 1),
             -pairwise.sum(axis=0).ravel())))
    return ll - penalty


@pytest.fixture
def rng():
    return random.Random(20260823)
