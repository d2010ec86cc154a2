"""Unit tests for the linear-chain CRF against independent oracles."""

import math
import random
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import (brute_force_decode, enumerate_paths,
                      per_sequence_objective, random_instance,
                      reference_forward, reference_forward_backward,
                      reference_logsumexp, reference_viterbi_decode)
from scholarparse import crf
from scholarparse.crf import (CrfError, CrfModel, CrfNumericError,
                              LabeledSequence, TrainConfig, compile_dataset,
                              forward_backward, log_likelihood,
                              log_likelihood_and_gradient, score, train,
                              viterbi_decode)
from scholarparse.crfmodel import ModelFormatError, load_model, save_model
from scholarparse.evaluate import TrainingPair
from scholarparse.ingest import parse_rich_xml
from scholarparse.pipeline import load_default_models
from scholarparse.synth import STYLES, generate_synthetic_document
from scholarparse.training import (TASKS, build_author_sequences,
                                   build_footnote_sequences,
                                   build_heading_sequences,
                                   build_title_sequences, training_examples)


def tiny_model():
    return CrfModel.from_weights(
        ("A", "B"),
        {("x", "A"): 1.0, ("x", "B"): -1.0, ("y", "B"): 2.0},
        {("A", "A"): 0.5, ("A", "B"): -0.5},
    )


def flat_weights(model):
    return np.concatenate((np.asarray(model.unary).ravel(),
                           np.asarray(model.transitions).ravel()))


def plain_logsumexp(values):
    top = max(values)
    return top + math.log(sum(math.exp(v - top) for v in values))


class TestScore:
    def test_hand_computed(self):
        model = tiny_model()
        feats = [("x",), ("x", "y")]
        # position 0 A: 1.0; position 1 B: -1.0 + 2.0; transition A->B: -0.5
        assert score(model, feats, ["A", "B"]) == pytest.approx(1.5)

    def test_unknown_feature_scores_zero(self):
        model = tiny_model()
        assert score(model, [("unseen",)], ["A"]) == 0.0

    def test_length_mismatch_raises(self):
        with pytest.raises(CrfError):
            score(tiny_model(), [("x",)], ["A", "B"])

    def test_unknown_label_raises(self):
        with pytest.raises(CrfError):
            score(tiny_model(), [("x",)], ["C"])

    def test_adds_terms_left_to_right(self, rng):
        # The fixed summation order that keeps trained models byte-stable:
        # unary terms position by position, feature by feature, then the
        # transitions, each added to a running total.
        for _ in range(50):
            model, feats = random_instance(rng)
            path = [rng.choice(model.labels) for _ in feats]
            gold = [model.labels.index(label) for label in path]
            total = 0.0
            for active, j in zip(feats, gold):
                for f in active:
                    if f in model.features:
                        total += float(np.asarray(model.unary)[
                            model.features.index(f), j])
            for a, b in zip(gold, gold[1:]):
                total += float(np.asarray(model.transitions)[a, b])
            assert score(model, feats, path) == total


class TestViterbi:
    def test_matches_enumeration_random(self, rng):
        for _ in range(50):
            model, feats = random_instance(rng)
            decoded = viterbi_decode(model, feats)
            oracle, best = brute_force_decode(model, feats)
            assert score(model, feats, decoded) == pytest.approx(best)
            assert decoded == oracle

    def test_tie_break_prefers_low_index_suffix_first(self, rng):
        # Integer weights make score arithmetic exact, so ties are real.
        for _ in range(50):
            model, feats = random_instance(rng, integer_weights=True)
            decoded = viterbi_decode(model, feats)
            oracle, best = brute_force_decode(model, feats, tol=0.0)
            assert score(model, feats, decoded) == best
            assert decoded == oracle

    @pytest.mark.parametrize("n_labels", [1, 3])
    def test_one_and_three_labels_with_integer_ties(self, rng, n_labels):
        for _ in range(50):
            model, feats = random_instance(rng, integer_weights=True,
                                           n_labels=n_labels)
            decoded = viterbi_decode(model, feats)
            assert decoded == reference_viterbi_decode(model, feats)
            assert decoded == brute_force_decode(model, feats, tol=0.0)[0]

    def test_matches_numpy_recursion_on_bundled_models(self):
        models = load_default_models()
        pairs = [TrainingPair(parse_rich_xml(xml)[0], truth) for xml, truth in
                 (generate_synthetic_document(style, 31 + i)
                  for i, style in enumerate(STYLES))]
        examples = training_examples(pairs)
        sequences = {model: [seq.features() for seq in build(examples)]
                     for model, build in (
                         (models.title, build_title_sequences),
                         (models.author, build_author_sequences),
                         (models.heading, build_heading_sequences),
                         (models.footnote, build_footnote_sequences))}
        # Every author-window token of the four documents in one sequence.
        long = [f for feats in sequences[models.author] for f in feats]
        assert len(long) >= 500
        sequences[models.author].append(long)
        for model, seqs in sequences.items():
            for feats in seqs:
                assert viterbi_decode(model, feats) == \
                    reference_viterbi_decode(model, feats)

    def test_all_zero_weights_decodes_first_label(self):
        model = CrfModel.from_weights(("A", "B"), {}, {})
        assert viterbi_decode(model, [("f",)] * 4) == ["A"] * 4

    def test_empty_sequence_raises(self):
        with pytest.raises(CrfError):
            viterbi_decode(tiny_model(), [])


class TestForwardBackward:
    def test_log_partition_matches_enumeration(self, rng):
        for _ in range(25):
            model, feats = random_instance(rng)
            log_z, _, _ = forward_backward(model, feats)
            expected = plain_logsumexp(
                [s for _, _, s in enumerate_paths(model, feats)])
            assert log_z == pytest.approx(expected, abs=1e-9)

    def test_marginals_match_enumeration(self, rng):
        model, feats = random_instance(rng, max_len=5, max_labels=3)
        log_z, marginals, pairwise = forward_backward(model, feats)
        paths = enumerate_paths(model, feats)
        probs = [math.exp(s - log_z) for _, _, s in paths]
        for t in range(len(feats)):
            for j in range(len(model.labels)):
                expected = sum(p for (idx, _, _), p in zip(paths, probs)
                               if idx[t] == j)
                assert marginals[t, j] == pytest.approx(expected, abs=1e-9)
        for t in range(len(feats) - 1):
            for a in range(len(model.labels)):
                for b in range(len(model.labels)):
                    expected = sum(p for (idx, _, _), p in zip(paths, probs)
                                   if idx[t] == a and idx[t + 1] == b)
                    assert pairwise[t, a, b] == pytest.approx(expected, abs=1e-9)

    def test_marginals_sum_to_one(self, rng):
        for _ in range(20):
            model, feats = random_instance(rng)
            _, marginals, pairwise = forward_backward(model, feats)
            assert np.allclose(marginals.sum(axis=1), 1.0)
            for t in range(len(feats) - 1):
                assert pairwise[t].sum() == pytest.approx(1.0)

    def test_empty_sequence_raises(self):
        with pytest.raises(CrfError, match="empty sequence"):
            forward_backward(tiny_model(), [])

    def test_overflow_raises_numeric_error_not_a_warning(self):
        model = CrfModel.from_weights(
            ("A", "B"), {("x", "A"): 1e308, ("x", "B"): 1e308},
            {(a, b): 1e308 for a in "AB" for b in "AB"})
        with pytest.raises(CrfNumericError):
            forward_backward(model, [("x",)] * 3)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_partition_dominates_any_path(self, seed):
        rng = random.Random(seed)
        model, feats = random_instance(rng)
        log_z, _, _ = forward_backward(model, feats)
        path = [rng.choice(model.labels) for _ in feats]
        assert log_z >= score(model, feats, path) - 1e-9


FINITE = st.floats(min_value=-1e308, max_value=1e308, allow_nan=False)


def same_bits(x, y) -> bool:
    """Equal as doubles element by element, with NaN equal to NaN and 0.0
    unequal to -0.0."""
    x, y = np.asarray(x), np.asarray(y)
    return x.shape == y.shape and bool(
        ((x.view(np.int64) == y.view(np.int64))
         | (np.isnan(x) & np.isnan(y))).all())


class TestLogAddExp:
    """``_logaddexp`` gives the two-term scipy logsumexp bit for bit; the
    recursions that fold it over more labels agree with a plain log-sum."""

    @given(st.lists(st.one_of(
        st.tuples(FINITE, FINITE),
        FINITE.map(lambda v: (v, v)),
        st.tuples(st.floats(-50.0, 50.0), st.floats(-50.0, 50.0)),
        FINITE.map(lambda v: (-math.inf, v)),
        FINITE.map(lambda v: (v, -math.inf)),
    ), min_size=1, max_size=8))
    @settings(max_examples=300)
    def test_matches_scipy_formula_bit_for_bit(self, pairs):
        a, b = (np.array(column) for column in zip(*pairs))
        expected = reference_logsumexp(np.stack((a, b)), axis=0)
        with np.errstate(over="ignore", invalid="ignore"):
            got = crf._logaddexp(a, b)
        assert same_bits(got, expected)
        for x, y in pairs:
            assert same_bits(crf._logaddexp(np.array([x]), np.array([y])),
                             reference_logsumexp(np.array([[x], [y]]), axis=0))

    @given(FINITE, FINITE)
    def test_symmetric(self, x, y):
        a, b = np.array([x]), np.array([y])
        assert same_bits(crf._logaddexp(a, b), crf._logaddexp(b, a))

    def test_equal_terms_add_log_two(self):
        v = np.array([0.0, -3.5, 700.0])
        assert same_bits(crf._logaddexp(v, v), np.log(2.0) + v)

    @pytest.mark.parametrize("n_labels", (3, 4, 6))
    def test_fold_over_more_labels_matches_plain_logsumexp(self, rng,
                                                           n_labels):
        B, N = 5, 7
        em = np.array([[[rng.uniform(-4.0, 4.0) for _ in range(n_labels)]
                        for _ in range(N)] for _ in range(B)])
        T = np.array([[rng.uniform(-4.0, 4.0) for _ in range(n_labels)]
                      for _ in range(n_labels)])
        last = np.array([N - 1, 0, 3, N - 1, 5])
        log_z, marginals, _ = crf._forward_backward(em, T, last)
        labels = range(n_labels)
        for b in range(B):
            alpha = list(em[b, 0])
            for t in range(1, last[b] + 1):
                alpha = [em[b, t, j] + plain_logsumexp(
                    [alpha[i] + T[i, j] for i in labels]) for j in labels]
            assert log_z[b] == pytest.approx(plain_logsumexp(alpha),
                                             rel=1e-12, abs=1e-12)
            assert np.allclose(marginals[b, :last[b] + 1].sum(axis=1), 1.0,
                               rtol=0.0, atol=1e-12)
            assert not marginals[b, last[b] + 1:].any()


def _numeric_outcome(recursion, *args):
    """What a recursion gives on ``args``, or None where it raises
    ``CrfNumericError``; overflow on extreme draws is expected."""
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            return recursion(*args)
        except CrfNumericError:
            return None


class TestRecursionsMatchFreshArrayOracle:
    """The recursions, which write every step into buffers made once per
    pass, give the bits of the ones that made fresh arrays at every step,
    at every label count (the pins only exercise two labels)."""

    @given(st.data())
    @settings(max_examples=300)
    def test_same_bits(self, data):
        B, N, L = (data.draw(st.integers(1, 5), label="B"),
                   data.draw(st.integers(1, 10), label="N"),
                   data.draw(st.integers(1, 4), label="L"))
        values = st.one_of(st.floats(-30.0, 30.0),
                           st.integers(-2, 2).map(float))
        if data.draw(st.booleans(), label="extreme"):
            values |= st.sampled_from((-math.inf, -1e308, 1e308))
        shape = data.draw(st.sampled_from(((L, L), (B, L, L))), label="T")
        em = data.draw(hnp.arrays(float, (B, N, L), elements=values))
        T = data.draw(hnp.arrays(float, shape, elements=values))
        last = data.draw(hnp.arrays(np.intp, B,
                                    elements=st.integers(0, N - 1)))
        forward = _numeric_outcome(crf._forward, em, T, last)
        reference = _numeric_outcome(reference_forward, em, T, last)
        assert all(map(same_bits, forward, reference))
        reuse = data.draw(st.booleans(), label="forward=")
        got = _numeric_outcome(crf._forward_backward, em, T, last,
                               forward if reuse else None)
        expected = _numeric_outcome(reference_forward_backward, em, T, last,
                                    reference if reuse else None)
        assert (got is None) == (expected is None)
        if got is not None:
            assert all(map(same_bits, got, expected))
        if reuse:
            assert same_bits(forward[0], reference[0])


class TestGradient:
    def _dataset(self, rng, k=2):
        model, feats = random_instance(rng, max_len=6, max_labels=3)
        seqs = []
        for _ in range(k):
            _, f = random_instance(rng, max_len=6, max_labels=3)
            labels = [rng.choice(model.labels) for _ in f]
            seqs.append(LabeledSequence(items=list(zip(f, labels))))
        return model, seqs

    def test_matches_finite_differences(self, rng):
        lam = 0.7
        for _ in range(5):
            model, dataset = self._dataset(rng)
            data = compile_dataset(model, dataset)
            w = flat_weights(model)
            _, grad = log_likelihood_and_gradient(w, data, lam)
            h = 1e-6
            fd = np.zeros_like(w)
            for i in range(len(w)):
                for sign, vec in ((1, w.copy()), (-1, w.copy())):
                    vec[i] += sign * h
                    ll, _ = log_likelihood_and_gradient(vec, data, lam)
                    fd[i] += sign * ll
                fd[i] /= 2 * h
            rel = np.linalg.norm(fd - grad) / max(1.0, np.linalg.norm(grad))
            assert rel < 1e-4

    def test_likelihood_only_agrees_with_gradient_version(self, rng):
        model, dataset = self._dataset(rng)
        data = compile_dataset(model, dataset)
        w = flat_weights(model)
        ll_full, _ = log_likelihood_and_gradient(w, data, 1.0)
        assert log_likelihood(w, data, 1.0) == pytest.approx(ll_full)

    @pytest.mark.parametrize("kernel", (log_likelihood,
                                        log_likelihood_and_gradient))
    def test_overflow_raises_numeric_error_not_a_warning(self, kernel):
        data = compile_dataset(tiny_model(), [LabeledSequence(
            items=[(("x",), "A"), (("y",), "B")])])
        weights = np.full(len(flat_weights(tiny_model())), 1e308)
        with pytest.raises(CrfNumericError):
            kernel(weights, data, 1.0)

    def test_empty_dataset_raises(self):
        with pytest.raises(CrfError):
            compile_dataset(tiny_model(), [])

    def test_empty_sequence_raises(self):
        with pytest.raises(CrfError, match="empty sequence"):
            compile_dataset(tiny_model(), [
                LabeledSequence(items=[(("x",), "A")]),
                LabeledSequence(items=[])])


class TestBatchedObjective:
    """One recursion over all sequences of a dataset, padded to the longest,
    gives the per-sequence objective and gradient bit for bit."""

    LENGTHS = {
        "one of length 1": (1, 4, 7, 3),
        "only length 1": (1,),
        "all equal": (5, 5, 5),
        "one much longer": (3, 2, 60, 4),
    }

    def _dataset(self, rng, lengths, n_labels):
        labels = tuple(f"L{i}" for i in range(n_labels))
        pool = [f"f{i}" for i in range(8)]
        # f6 and f7 are unknown to the model, so they weigh nothing.
        unary = {(f, lab): rng.uniform(-3.0, 3.0)
                 for f in pool[:6] for lab in labels}
        trans = {(a, b): rng.uniform(-3.0, 3.0) for a in labels for b in labels}
        dataset = [LabeledSequence(items=[
            (tuple(rng.sample(pool, rng.randint(0, 3))), rng.choice(labels))
            for _ in range(n)]) for n in lengths]
        return CrfModel.from_weights(labels, unary, trans), dataset

    def _check(self, monkeypatch, model, dataset, rng):
        data = compile_dataset(model, dataset)
        w = flat_weights(model)
        # Trials on a line from w, scored in one pass as the line search
        # does, then each one's gradient from its pass.
        direction = np.array([rng.uniform(-1.0, 1.0) for _ in w])
        trials = [w + s * direction for s in (1.0, 0.5, 0.25)]
        ll, grad = log_likelihood_and_gradient(w, data, 0.7)
        value = log_likelihood(w, data, 0.7)
        values, passes = log_likelihood(np.stack(trials), data, 0.7)
        reused = [log_likelihood_and_gradient(trial, data, 0.7, forward)
                  for trial, forward in zip(trials, passes)]
        with monkeypatch.context() as patched:
            patched.setattr(crf, "_objective",
                            per_sequence_objective(model, dataset))
            ll_oracle, grad_oracle = log_likelihood_and_gradient(w, data, 0.7)
            value_oracle = log_likelihood(w, data, 0.7)
            values_oracle = [log_likelihood(trial, data, 0.7)
                             for trial in trials]
            reused_oracle = [log_likelihood_and_gradient(trial, data, 0.7)
                             for trial in trials]
        assert ll == ll_oracle
        assert np.array_equal(grad, grad_oracle)
        assert value == value_oracle
        assert values == values_oracle
        for (trial_ll, trial_grad), (ll_oracle, grad_oracle) in zip(
                reused, reused_oracle):
            assert trial_ll == ll_oracle
            assert np.array_equal(trial_grad, grad_oracle)

    @pytest.mark.parametrize("n_labels", (2, 3, 4))
    @pytest.mark.parametrize("lengths", LENGTHS.values(), ids=LENGTHS)
    def test_matches_per_sequence_oracle(self, rng, monkeypatch, lengths,
                                         n_labels):
        for _ in range(5):
            self._check(monkeypatch, *self._dataset(rng, lengths, n_labels),
                        rng)

    @pytest.mark.parametrize("unknown", ("one sequence", "every sequence"))
    def test_sequences_without_known_features(self, rng, monkeypatch,
                                              unknown):
        model, dataset = self._dataset(rng, (4, 1, 6), 2)
        blank = [LabeledSequence(items=[(("f6",), "L1"), ((), "L0"),
                                        (("f7", "f6"), "L1")])]
        dataset = dataset + blank if unknown == "one sequence" else blank * 2
        self._check(monkeypatch, model, dataset, rng)


# Feature "a" always carries label "X", feature "b" label "Y".
SEPARABLE = [LabeledSequence(items=[(("a",), "X"), (("b",), "Y"),
                                    (("a",), "X")])] * 3


class TestTrain:
    def test_learns_separable_data(self):
        model = train(SEPARABLE, ("X", "Y"), (),
                      TrainConfig(l2_lambda=0.1, max_iterations=50))
        decoded = viterbi_decode(model, [("a",), ("b",), ("a",), ("b",)])
        assert decoded == ["X", "Y", "X", "Y"]

    def test_zero_iterations_gives_zero_weights(self):
        model = train(SEPARABLE, ("X", "Y"), (),
                      TrainConfig(max_iterations=0))
        assert not np.asarray(model.unary).any()
        assert not np.asarray(model.transitions).any()

    def test_deterministic(self):
        cfg = TrainConfig(max_iterations=15)
        a = train(SEPARABLE, ("X", "Y"), (), cfg)
        b = train(SEPARABLE, ("X", "Y"), (), cfg)
        assert save_model(a) == save_model(b)

    def test_label_outside_set_raises(self):
        with pytest.raises(CrfError):
            train([LabeledSequence(items=[(("a",), "Z")])], ("X", "Y"), ())

    def test_empty_dataset_raises(self):
        with pytest.raises(CrfError):
            train([], ("X", "Y"), ())

    def test_invalid_lambda_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(l2_lambda=0.0)

    @pytest.mark.parametrize("bad", [
        {"l2_lambda": -1.0}, {"l2_lambda": math.nan},
        {"l2_lambda": math.inf}, {"max_iterations": -3},
        {"convergence_tol": math.nan}, {"convergence_tol": math.inf},
        {"convergence_tol": -1e-5}, {"max_iterations": 2.5},
        {"max_iterations": 3.0}, {"max_iterations": "3"},
    ], ids=repr)
    def test_untrainable_config_rejected(self, bad):
        with pytest.raises(ValueError):
            TrainConfig(**bad)

    def test_boundary_config_accepted(self):
        TrainConfig(l2_lambda=1e-300, max_iterations=0, convergence_tol=0.0)
        TrainConfig(max_iterations=np.int64(2))


class TestTrainingLog:
    def _train(self, dataset=SEPARABLE, labels=("X", "Y"), **config):
        log = []
        model = train(dataset, labels, (), TrainConfig(**config), log=log)
        return model, log

    def test_records_each_iteration_then_the_stop(self):
        _, log = self._train(max_iterations=4)
        *iterations, stop = log
        assert stop == {"stop": "max_iterations"}
        assert [r["iteration"] for r in iterations] == [0, 1, 2, 3]
        for r in iterations:
            assert r["trials"] >= 1 and r["step"] > 0
            assert r["gradient_norm"] > 0
        lls = [r["log_likelihood"] for r in iterations]
        assert lls == sorted(lls)

    def test_converged(self):
        _, log = self._train(max_iterations=500, convergence_tol=1e-3)
        assert log[-1] == {"stop": "converged"}
        assert len(log) < 500
        assert log[-2]["step"] is None and log[-2]["trials"] == 0

    def test_zero_gradient(self):
        # With one label, every count is expected with certainty.
        dataset = [LabeledSequence(items=[(("a",), "X"), (("b",), "X")])]
        _, log = self._train(dataset, ("X",))
        assert log == [{"iteration": 0, "log_likelihood": 0.0,
                        "gradient_norm": 0.0, "step": None, "trials": 0},
                       {"stop": "zero_gradient"}]

    def test_line_search_failed(self, monkeypatch):
        passes = []

        def rejected(weights, *args):
            passes.append(len(weights))
            return [-math.inf] * len(weights), [None] * len(weights)

        monkeypatch.setattr(crf, "log_likelihood", rejected)
        model, log = self._train()
        assert log[-1] == {"stop": "line_search_failed"}
        assert len(log) == 2
        assert log[0]["step"] is None and log[0]["trials"] == 40
        # Steps 1, 1/2, ..., 2**-39, two to a forward pass.
        assert passes == [2] * 20
        assert not np.asarray(model.unary).any()
        assert not np.asarray(model.transitions).any()

    def test_max_iterations_zero(self):
        _, log = self._train(max_iterations=0)
        assert log == [{"stop": "max_iterations"}]

    def test_log_does_not_change_the_model(self):
        config = TrainConfig(max_iterations=15)
        quiet = train(SEPARABLE, ("X", "Y"), (), config)
        logged, _ = self._train(max_iterations=15)
        assert save_model(logged) == save_model(quiet)


def sequential_train(dataset, labels, config):
    """Oracle for ``train``: its loop as it ran before the line search
    scored its steps in pairs.  One vector per forward pass, one step at a
    time, and each gradient runs its own forward pass.  Gives the flat
    weights and the log."""
    features = tuple(sorted({f for seq in dataset for feats in seq.features()
                             for f in feats}))
    L = len(labels)
    zeros = ((0.0,) * L,)
    data = compile_dataset(CrfModel(labels, features, zeros * len(features),
                                    zeros * L), dataset)
    w = np.zeros((len(features) + L) * L)
    log, step, prev_ll, stop = [], 1.0, None, "max_iterations"
    for iteration in range(config.max_iterations):
        ll, grad = log_likelihood_and_gradient(w, data, config.l2_lambda)
        gnorm2 = float(grad @ grad)
        record = {"iteration": iteration, "log_likelihood": ll,
                  "gradient_norm": math.sqrt(gnorm2), "step": None,
                  "trials": 0}
        log.append(record)
        if prev_ll is not None and abs(ll - prev_ll) < config.convergence_tol:
            stop = "converged"
            break
        prev_ll = ll
        if gnorm2 == 0.0:
            stop = "zero_gradient"
            break
        s = step
        while s > 1e-12:
            record["trials"] += 1
            trial = w + s * grad
            if log_likelihood(trial, data, config.l2_lambda) > \
                    ll + 1e-4 * s * gnorm2:
                w = trial
                record["step"] = s
                step = s * 2.0
                break
            s *= 0.5
        if record["step"] is None:
            stop = "line_search_failed"
            break
    log.append({"stop": stop})
    return w, log


@st.composite
def labeled_instances(draw, max_sequences=4):
    """Labels (1 to 3), a model over features f0-f3 with random weights,
    and sequences of uneven lengths from 1 that also use f4 and f5, which
    the model does not know."""
    labels = tuple(f"L{i}" for i in range(draw(st.integers(1, 3))))
    pool = [f"f{i}" for i in range(6)]
    weight = st.floats(-3.0, 3.0, allow_nan=False)
    model = CrfModel.from_weights(
        labels, {(f, label): draw(weight) for f in pool[:4]
                 for label in labels},
        {(a, b): draw(weight) for a in labels for b in labels})
    item = st.tuples(st.lists(st.sampled_from(pool), max_size=3,
                              unique=True).map(tuple),
                     st.sampled_from(labels))
    dataset = draw(st.lists(st.lists(item, min_size=1, max_size=7).map(
        lambda items: LabeledSequence(items=items)),
        min_size=1, max_size=max_sequences))
    return model, dataset


class TestBatchedLineSearch:
    """Scoring a line search's steps in one forward pass, and the gradient
    reusing the accepted step's pass, give the sequential search's values,
    log and weights bit for bit."""

    @given(labeled_instances(), st.lists(
        st.sampled_from((1.0, 0.5, 0.25, 2.0 ** -20, 0.0)), min_size=1,
        max_size=4), st.randoms(use_true_random=False))
    @settings(max_examples=150)
    def test_stacked_scoring_matches_one_vector(self, instance, steps, rng):
        model, dataset = instance
        data = compile_dataset(model, dataset)
        w = flat_weights(model)
        direction = np.array([rng.uniform(-20.0, 20.0) for _ in w])
        trials = [w + s * direction for s in steps]
        values, passes = log_likelihood(np.stack(trials), data, 0.7)
        assert len(values) == len(passes) == len(trials)
        for trial, value, forward in zip(trials, values, passes):
            alone, = crf._forward_passes(trial[None], data)
            assert all(map(same_bits, forward, alone))
            assert value == log_likelihood(trial, data, 0.7)
            ll, grad = log_likelihood_and_gradient(trial, data, 0.7)
            ll_reused, grad_reused = log_likelihood_and_gradient(
                trial, data, 0.7, forward)
            assert ll_reused == ll
            assert same_bits(grad_reused, grad)

    def _check(self, dataset, labels, config):
        log = []
        model = train(dataset, labels, (), config, log=log)
        weights, reference_log = sequential_train(dataset, labels, config)
        assert log == reference_log
        assert same_bits(flat_weights(model), weights)
        return log

    @given(labeled_instances(max_sequences=3),
           st.sampled_from((0.05, 0.5, 2.0)), st.integers(0, 25),
           st.sampled_from((0.0, 1e-6, 1e-2)))
    @settings(max_examples=60)
    def test_train_matches_sequential_line_search(self, instance, l2_lambda,
                                                  max_iterations, tol):
        model, dataset = instance
        self._check(dataset, model.labels,
                    TrainConfig(l2_lambda, max_iterations, tol))

    @pytest.mark.parametrize("stop, dataset, labels, config", [
        ("converged", SEPARABLE, ("X", "Y"),
         TrainConfig(max_iterations=500, convergence_tol=1e-3)),
        ("zero_gradient", [LabeledSequence(items=[(("a",), "X")] * 3)],
         ("X",), TrainConfig()),
        ("line_search_failed", SEPARABLE, ("X", "Y"),
         TrainConfig(max_iterations=500, convergence_tol=0.0)),
        ("max_iterations", SEPARABLE, ("X", "Y", "Z"),
         TrainConfig(max_iterations=7)),
    ], ids=lambda v: v if isinstance(v, str) else "")
    def test_every_stop_matches_sequential_line_search(self, stop, dataset,
                                                       labels, config):
        log = self._check(dataset, labels, config)
        assert log[-1] == {"stop": stop}


class TestSerialization:
    def test_round_trip_field_for_field(self, rng):
        model, _ = random_instance(rng)
        model.task_name = "demo"
        back = load_model(save_model(model))
        assert back.labels == model.labels
        assert back.features == model.features
        assert np.array_equal(np.asarray(back.unary), np.asarray(model.unary))
        assert np.array_equal(np.asarray(back.transitions),
                              np.asarray(model.transitions))
        assert back.task_name == "demo"

    @pytest.mark.parametrize("name", sorted(f"{task}.crf" for task in TASKS))
    def test_bundled_model_bytes_round_trip(self, name):
        models = resources.files("scholarparse.data").joinpath("models")
        payload = models.joinpath(name).read_bytes()
        assert save_model(load_model(payload)) == payload

    def test_payload_is_deterministic(self, rng):
        model, _ = random_instance(rng)
        assert save_model(model) == save_model(model)

    def test_magic_header_present(self):
        payload = save_model(tiny_model())
        assert payload.startswith(b"OCRPP-CRF 1\n")

    def test_bad_magic_rejected(self):
        with pytest.raises(ModelFormatError):
            load_model(b"NOT-A-MODEL 1\nend\n")

    def test_bad_version_rejected(self):
        with pytest.raises(ModelFormatError):
            load_model(b"OCRPP-CRF 99\nend\n")

    def test_truncation_rejected(self):
        payload = save_model(tiny_model())
        with pytest.raises(ModelFormatError):
            load_model(payload[: len(payload) // 2])

    def test_undecodable_rejected(self):
        with pytest.raises(ModelFormatError):
            load_model(b"\xff\xfe\x00")

    def test_empty_rejected(self):
        with pytest.raises(ModelFormatError):
            load_model(b"")

    def test_no_labels_rejected(self):
        # It used to load, and decoding then failed on an empty max().
        with pytest.raises(ModelFormatError):
            load_model(b"OCRPP-CRF 1\nend\n")

    def test_repeated_label_rejected(self):
        with pytest.raises(ModelFormatError):
            load_model(b"OCRPP-CRF 1\nlabels\tA\tA\nend\n")

    def test_repeated_labels_record_rejected(self):
        # The last labels record used to win silently.
        with pytest.raises(ModelFormatError, match="repeated labels"):
            load_model(b"OCRPP-CRF 1\nlabels\tA\tB\nlabels\tC\tD\n"
                       b"task\tx\nend\n")

    def test_repeated_task_record_rejected(self):
        # The last task record used to win silently.
        with pytest.raises(ModelFormatError, match="repeated task"):
            load_model(b"OCRPP-CRF 1\nlabels\tA\tB\ntask\tx\ntask\ty\n"
                       b"end\n")

    def test_repeated_template_record_rejected(self):
        # The template used to be recorded twice.
        with pytest.raises(ModelFormatError, match="repeated template"):
            load_model(b"OCRPP-CRF 1\nlabels\tA\tB\ntemplate\tbias\tboolean\n"
                       b"template\tbias\tboolean\nend\n")

    def test_template_record_with_extra_fields_rejected(self):
        # The fields after the description used to be dropped.
        with pytest.raises(ModelFormatError, match="malformed record"):
            load_model(b"OCRPP-CRF 1\nlabels\tA\tB\n"
                       b"template\tbias\tboolean\talways-on bias\textra\n"
                       b"end\n")

    @pytest.mark.parametrize("record", [b"unary\tx\tA\t2.0",
                                        b"trans\tA\tA\t-0.25"])
    def test_repeated_weight_record_rejected(self, record):
        # tiny_model already weighs (x, A) and (A, A); the last weight
        # used to win silently.
        payload = save_model(tiny_model()).replace(b"\nend\n",
                                                   b"\n" + record + b"\nend\n")
        with pytest.raises(ModelFormatError):
            load_model(payload)

    @pytest.mark.parametrize("record", [
        b"unary\tx",  # too few fields
        b"unary\tx\tA\t1.0\textra",  # too many fields
        b"trans\tA\tB\tabc",  # weight not a number
        b"unary\tx\tC\t1.0",  # label outside the labels record
        b"trans\tA\tC\t1.0",
        b"template\tonly-id",  # no kind
        b"unary\tx\tA\tnan",  # non-finite weights
        b"unary\tx\tA\tinf",
        b"trans\tA\tB\t-inf",
    ])
    def test_malformed_record_rejected(self, record):
        payload = save_model(tiny_model()).replace(b"\nend\n",
                                                   b"\n" + record + b"\nend\n")
        with pytest.raises(ModelFormatError):
            load_model(payload)
