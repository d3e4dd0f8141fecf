"""kNN prediction, confidence estimation, and the combined pipeline."""
import numpy as np
import pytest

from knnmlc.data import DatasetConfig, generate_synthetic
from knnmlc.datastore import Datastore, NonFiniteQueryError, build
from knnmlc.encoder import EncoderConfig, classify, init_state
from knnmlc.inference import (
    InferenceConfig,
    combine,
    debiased_lambda,
    high_confidence_subset,
    knn_predict,
    predict,
)
from knnmlc.mathops import make_rng
from oracles import forward

# frozen from a 40-digit mpmath evaluation of exp(2)/(exp(2)+1)
SOFTMAX_HI = 0.8807970779778824
SOFTMAX_LO = 0.1192029220221176


def neighbors(*pairs):
    """(similarities (k,), label rows (k, C)) from (similarity, labels) pairs."""
    sims = np.array([sim for sim, _ in pairs], dtype=np.float64)
    labels = np.array([labels for _, labels in pairs], dtype=np.int8).reshape(len(pairs), -1)
    return sims, labels


class TestKnnPredict:
    def test_equal_similarities_average_labels(self):
        sims, labels = neighbors((0.5, [1, 0]), (0.5, [1, 1]), (0.5, [0, 1]))
        np.testing.assert_allclose(knn_predict(sims, labels, tau2=0.05), [2 / 3, 2 / 3], atol=1e-12)

    def test_unanimous_label_gives_one(self):
        rng = make_rng(0)
        sims, labels = neighbors(*[(float(rng.uniform(-1, 1)), [1, int(rng.random() < 0.5)]) for _ in range(9)])
        out = knn_predict(sims, labels, tau2=0.05)
        assert out[0] == pytest.approx(1.0, abs=1e-12)

    def test_frozen_two_neighbor_softmax(self):
        sims, labels = neighbors((0.1, [1, 0]), (0.0, [0, 1]))
        out = knn_predict(sims, labels, tau2=0.05)
        assert out[0] == pytest.approx(SOFTMAX_HI, abs=1e-5)
        assert out[1] == pytest.approx(SOFTMAX_LO, abs=1e-5)

    def test_output_in_unit_interval(self):
        rng = make_rng(1)
        for _ in range(200):
            k = int(rng.integers(1, 12))
            sims, labels = neighbors(
                *[(float(rng.uniform(-1, 1)), (rng.random(5) < 0.5).astype(np.int8)) for _ in range(k)]
            )
            out = knn_predict(sims, labels, tau2=float(rng.uniform(0.01, 1.0)))
            assert np.all(out >= 0.0) and np.all(out <= 1.0)

    def test_empty_neighbors_rejected(self):
        with pytest.raises(ValueError):
            knn_predict(np.zeros(0), np.zeros((0, 2), dtype=np.int8), tau2=0.05)

    def test_bad_temperature(self):
        sims, labels = neighbors((0.1, [1]))
        with pytest.raises(ValueError):
            knn_predict(sims, labels, tau2=0.0)

    def test_rows_of_a_stack_are_single_rows(self):
        rng = make_rng(2)
        sims = rng.uniform(-1, 1, size=(7, 5))
        labels = (rng.random((7, 5, 3)) < 0.5).astype(np.int8)
        stacked = knn_predict(sims, labels, tau2=0.1)
        for i in range(7):
            np.testing.assert_array_equal(stacked[i], knn_predict(sims[i], labels[i], tau2=0.1))


class TestHighConfidenceSubset:
    def test_reference_example(self):
        np.testing.assert_array_equal(
            high_confidence_subset([0.9, 0.75, 0.3], gamma=0.7), [1, 1, 0]
        )

    def test_threshold_is_inclusive(self):
        np.testing.assert_array_equal(high_confidence_subset([0.7], gamma=0.7), [1])

    def test_all_below_gives_zero_mask(self):
        np.testing.assert_array_equal(
            high_confidence_subset([0.1, 0.2, 0.69], gamma=0.7), [0, 0, 0]
        )

    def test_gamma_bounds(self):
        with pytest.raises(ValueError):
            high_confidence_subset([0.5], gamma=0.0)
        with pytest.raises(ValueError):
            high_confidence_subset([0.5], gamma=1.0)


class TestDebiasedLambda:
    def test_min_over_masked(self):
        assert debiased_lambda([0.8, 0.5, 0.1], [1, 1, 0]) == 0.5

    def test_empty_mask_falls_back_to_zero(self):
        assert debiased_lambda([0.8, 0.5, 0.1], [0, 0, 0]) == 0.0

    def test_unanimous_neighbors_give_one(self):
        assert debiased_lambda([1.0, 1.0, 0.2], [1, 1, 0]) == 1.0

    def test_one_lambda_per_row(self):
        y_knn = np.array([[0.8, 0.5, 0.1], [0.8, 0.5, 0.1], [1.0, 1.0, 0.2]])
        mask = np.array([[1, 1, 0], [0, 0, 0], [1, 1, 0]])
        np.testing.assert_array_equal(debiased_lambda(y_knn, mask), [0.5, 0.0, 1.0])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            debiased_lambda([0.5, 0.5], [1])


class TestCombine:
    def test_lambda_zero_returns_classifier_exactly(self):
        y_knn = np.array([0.8, 0.5, 0.1])
        y_clf = np.array([0.9, 0.75, 0.3])
        np.testing.assert_array_equal(combine(0.0, y_knn, y_clf), y_clf)

    def test_lambda_one_returns_knn_exactly(self):
        y_knn = np.array([0.8, 0.5, 0.1])
        y_clf = np.array([0.9, 0.75, 0.3])
        np.testing.assert_array_equal(combine(1.0, y_knn, y_clf), y_knn)

    def test_midpoint_arithmetic(self):
        out = combine(0.5, [0.8, 0.5, 0.1], [0.9, 0.75, 0.3])
        np.testing.assert_allclose(out, [0.85, 0.625, 0.2], atol=1e-12)

    def test_one_lambda_per_row(self):
        y_knn = np.array([[0.8, 0.5], [0.2, 0.4]])
        y_clf = np.array([[0.9, 0.75], [0.6, 0.1]])
        out = combine(np.array([0.0, 1.0]), y_knn, y_clf)
        np.testing.assert_array_equal(out, [y_clf[0], y_knn[1]])

    def test_lambda_out_of_range(self):
        with pytest.raises(ValueError):
            combine(1.2, [0.5], [0.5])
        with pytest.raises(ValueError):
            combine(-0.1, [0.5], [0.5])


@pytest.fixture(scope="module")
def pipeline():
    dcfg = DatasetConfig(
        num_classes=6, num_clusters=2, train_size=80, valid_size=10, test_size=20,
        vocab_size=30, seed=2,
    )
    train, _, test = generate_synthetic(dcfg)
    ecfg = EncoderConfig(input_dim=30, hidden_dim=8, embed_dim=5, num_classes=6)
    state = init_state(ecfg, seed=2)
    store = build(state, train)
    return state, store, test


class TestPredict:
    def test_classifier_only_reproduces_classify(self, pipeline):
        state, store, test = pipeline
        for sample in test[:5]:
            bundle = predict(state, store, sample, InferenceConfig(mode="classifier_only"))
            expected = classify(forward(state, sample))
            np.testing.assert_array_equal(bundle.y_final, expected)
            assert bundle.lam == 0.0

    def test_fixed_lambda_zero_equals_classifier_only(self, pipeline):
        state, store, test = pipeline
        cfg_fixed = InferenceConfig(mode="fixed_lambda", fixed_lambda_value=0.0)
        cfg_clf = InferenceConfig(mode="classifier_only")
        for sample in test[:5]:
            a = predict(state, store, sample, cfg_fixed)
            b = predict(state, store, sample, cfg_clf)
            np.testing.assert_array_equal(a.y_final, b.y_final)

    def test_knn_only_uses_neighbor_vote(self, pipeline):
        state, store, test = pipeline
        sample = test[0]
        bundle = predict(state, store, sample, InferenceConfig(mode="knn_only"))
        assert bundle.lam == 1.0
        np.testing.assert_array_equal(bundle.y_final, bundle.y_knn)

    def test_denn_bundle_matches_component_chain(self, pipeline):
        # the pipeline output must equal the hand-chained component calls
        state, store, test = pipeline
        cfg = InferenceConfig(mode="denn")
        for sample in test[:10]:
            bundle = predict(state, store, sample, cfg)
            y_clf = classify(forward(state, sample))
            np.testing.assert_array_equal(bundle.y_clf, y_clf)
            y_knn = knn_predict(bundle.neighbor_sims, store.values[bundle.neighbor_indices], cfg.tau2)
            np.testing.assert_array_equal(bundle.y_knn, y_knn)
            mask = high_confidence_subset(y_clf, cfg.gamma)
            np.testing.assert_array_equal(bundle.high_conf_mask, mask)
            lam = debiased_lambda(y_knn, mask)
            assert bundle.lam == lam
            np.testing.assert_array_equal(bundle.y_final, combine(lam, y_knn, y_clf))

    def test_deterministic_bundles(self, pipeline):
        state, store, test = pipeline
        cfg = InferenceConfig(mode="denn")
        a = predict(state, store, test[0], cfg)
        b = predict(state, store, test[0], cfg)
        np.testing.assert_array_equal(a.y_final, b.y_final)
        assert a.lam == b.lam
        np.testing.assert_array_equal(a.neighbor_indices, b.neighbor_indices)

    def test_store_none_allowed_only_for_classifier_only(self, pipeline):
        state, _, test = pipeline
        bundle = predict(state, None, test[0], InferenceConfig(mode="classifier_only"))
        assert bundle.neighbor_indices.size == 0 and bundle.neighbor_sims.size == 0
        np.testing.assert_array_equal(bundle.y_knn, np.zeros(6))
        with pytest.raises(ValueError):
            predict(state, None, test[0], InferenceConfig(mode="denn"))

    def test_non_finite_embedding_fails_at_retrieval(self, pipeline):
        state, store, test = pipeline
        broken = state.copy()
        broken.b_emb[0] = np.nan
        with pytest.raises(NonFiniteQueryError):
            predict(broken, store, test[0], InferenceConfig(mode="denn"))

    def test_predict_takes_a_batch_of_exactly_one_row(self, pipeline):
        state, store, test = pipeline
        for batch in (test[:2], test[:0], test):
            with pytest.raises(ValueError, match=f"a batch of one row, got {len(batch)} rows"):
                predict(state, store, batch, InferenceConfig())

    def test_dimension_mismatch_rejected(self, pipeline):
        state, _, test = pipeline
        bad = Datastore(keys=np.ones((4, 9)), values=np.zeros((4, 6), dtype=np.int8))
        with pytest.raises(ValueError, match="do not match"):
            predict(state, bad, test[0], InferenceConfig(mode="denn"))


class TestProperties:
    def test_lambda_and_final_in_bounds_on_random_inputs(self):
        rng = make_rng(3)
        for _ in range(2000):
            C = int(rng.integers(1, 10))
            y_knn = rng.random(C)
            y_clf = rng.random(C)
            gamma = float(rng.uniform(0.05, 0.95))
            mask = high_confidence_subset(y_clf, gamma)
            lam = debiased_lambda(y_knn, mask)
            assert 0.0 <= lam <= 1.0
            y_final = combine(lam, y_knn, y_clf)
            assert np.all(y_final >= 0.0) and np.all(y_final <= 1.0)

    def test_gamma_monotonicity(self):
        # raising gamma shrinks the mask; the min over a shrinking nonempty
        # set never decreases
        rng = make_rng(4)
        for _ in range(2000):
            C = int(rng.integers(1, 10))
            y_knn = rng.random(C)
            y_clf = rng.random(C)
            g1, g2 = sorted(rng.uniform(0.05, 0.95, size=2))
            m1 = high_confidence_subset(y_clf, g1)
            m2 = high_confidence_subset(y_clf, g2)
            assert np.all(m2 <= m1)
            if m2.sum() > 0:
                assert debiased_lambda(y_knn, m2) >= debiased_lambda(y_knn, m1)

    def test_equal_predictions_fixed_point(self):
        rng = make_rng(5)
        for _ in range(200):
            y = rng.random(6)
            lam = float(rng.random())
            np.testing.assert_allclose(combine(lam, y, y), np.clip(y, 0, 1), atol=1e-15)
