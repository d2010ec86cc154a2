import itertools
import random

import numpy as np
import pytest

from scholarparse.crf import CrfModel, score


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


def enumerate_paths(model: CrfModel, feats):
    """Every label path with its score."""
    out = []
    for idx_path in itertools.product(range(len(model.labels)),
                                      repeat=len(feats)):
        path = [model.labels[i] for i in idx_path]
        out.append((idx_path, path, score(model, feats, path)))
    return out


def brute_force_decode(model: CrfModel, feats, tol: float = 1e-9):
    """Oracle decoder: max score, ties broken by the reversed index tuple.

    The dynamic program backtracks from the final position choosing the
    lowest label index at every tie, which selects the path minimal under
    reverse-lexicographic comparison of label indices.  Scores every path
    exhaustively; the scoring itself is vectorized so the oracle stays
    usable on hundreds of instances.  It reads the weight arrays directly,
    without the model's own emission or scoring code.
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

    best = float(scores.max())
    candidates = paths[scores >= best - tol]
    idx = min((tuple(int(v) for v in row) for row in candidates),
              key=lambda tup: tuple(reversed(tup)))
    return [model.labels[i] for i in idx], best


@pytest.fixture
def rng():
    return random.Random(20260823)
