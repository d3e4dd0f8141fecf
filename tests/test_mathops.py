"""Core numeric building blocks."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knnmlc.mathops import _row_norms, make_rng, sigmoid, softmax_temp, unit_rows
from oracles import cosine_sim, logsumexp

# frozen from a 40-digit mpmath evaluation of dot/(|a||b|) = 1/sqrt(2)
COS_45 = 0.7071067811865475
# frozen from a 40-digit mpmath evaluation of exp(2)/(exp(2)+1)
SOFTMAX_HI = 0.8807970779778824
SOFTMAX_LO = 0.1192029220221176


class TestCosine:
    def test_identical_unit_vectors(self):
        assert cosine_sim([1.0, 0.0], [1.0, 0.0]) == 1.0

    def test_orthogonal(self):
        assert cosine_sim([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_45_degrees(self):
        assert abs(cosine_sim([1.0, 1.0], [1.0, 0.0]) - COS_45) < 1e-9

    def test_symmetry_exact(self):
        rng = make_rng(3)
        for _ in range(200):
            a = rng.normal(size=5)
            b = rng.normal(size=5)
            assert cosine_sim(a, b) == cosine_sim(b, a)

    def test_positive_scaling_gives_one(self):
        rng = make_rng(4)
        for _ in range(200):
            a = rng.normal(size=6)
            c = float(rng.uniform(0.1, 10.0))
            assert abs(cosine_sim(a, c * a) - 1.0) < 1e-9

    def test_range(self):
        rng = make_rng(5)
        for _ in range(500):
            v = cosine_sim(rng.normal(size=4), rng.normal(size=4))
            assert -1.0 <= v <= 1.0

    def test_zero_norm_errors(self):
        with pytest.raises(ValueError):
            cosine_sim([0.0, 0.0], [1.0, 0.0])
        with pytest.raises(ValueError):
            cosine_sim([1.0, 0.0], [0.0, 0.0])

    def test_length_mismatch_errors(self):
        with pytest.raises(ValueError):
            cosine_sim([1.0, 0.0], [1.0, 0.0, 0.0])

    def test_matrix_agrees_with_pairwise(self):
        # the cosines a training step forms from unit_rows
        rng = make_rng(6)
        rows = rng.normal(size=(7, 4))
        unit, _ = unit_rows(rows)
        m = np.clip(unit @ unit.T, -1.0, 1.0)
        for i in range(7):
            for j in range(7):
                assert abs(m[i, j] - cosine_sim(rows[i], rows[j])) < 1e-12


class TestRowNorms:
    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40), d=st.integers(1, 64), scale_exp=st.integers(-150, 150))
    def test_the_arithmetic_of_linalg_norm(self, seed, n, d, scale_exp):
        # one helper serves unit_rows and the store: its bits are those of
        # np.linalg.norm(rows, axis=1), which unit_rows used before
        rng = make_rng(seed)
        rows = rng.normal(size=(n, d)) * 2.0**scale_exp
        rows[rng.random((n, d)) < 0.2] = 0.0
        assert _row_norms(rows).tobytes() == np.linalg.norm(rows, axis=1).tobytes()
        # the float64 of float32 keys, as the store takes them
        keys = (rng.normal(size=(n, d)) * 2.0 ** (scale_exp // 3)).astype(np.float32).astype(np.float64)
        assert _row_norms(keys).tobytes() == np.linalg.norm(keys, axis=1).tobytes()


class TestSoftmaxTemp:
    def test_equal_scores_uniform(self):
        out = softmax_temp([2.5, 2.5, 2.5], tau=0.7)
        np.testing.assert_allclose(out, [1 / 3] * 3, atol=1e-15)

    def test_frozen_two_point_value(self):
        out = softmax_temp([0.1, 0.0], tau=0.05)
        assert abs(out[0] - SOFTMAX_HI) < 1e-8
        assert abs(out[1] - SOFTMAX_LO) < 1e-8

    def test_singleton(self):
        np.testing.assert_array_equal(softmax_temp([3.2], tau=0.1), [1.0])

    def test_sums_to_one(self):
        rng = make_rng(7)
        for _ in range(100):
            out = softmax_temp(rng.normal(size=rng.integers(1, 20)), tau=float(rng.uniform(0.01, 2)))
            assert abs(out.sum() - 1.0) < 1e-9
            assert np.all(out >= 0)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.floats(-10, 10), min_size=1, max_size=12),
        st.floats(0.01, 2.0),
        st.floats(-5, 5),
    )
    def test_shift_invariance(self, scores, tau, shift):
        a = softmax_temp(scores, tau)
        b = softmax_temp([s + shift for s in scores], tau)
        np.testing.assert_allclose(a, b, atol=1e-9)

    def test_no_overflow_for_tiny_temperature(self):
        out = softmax_temp([1.0, -1.0], tau=1e-4)
        assert np.isfinite(out).all()
        assert abs(out.sum() - 1.0) < 1e-12

    def test_rows_of_a_stack_are_single_rows(self):
        rng = make_rng(9)
        scores = rng.normal(size=(6, 5))
        stacked = softmax_temp(scores, tau=0.05)
        for i in range(6):
            assert stacked[i].tobytes() == softmax_temp(scores[i], tau=0.05).tobytes()


class TestSigmoid:
    def test_zero(self):
        assert sigmoid(0.0) == 0.5

    def test_saturation_without_overflow(self):
        with np.errstate(over="raise"):
            hi = sigmoid(750.0)
            lo = sigmoid(-750.0)
        assert hi <= 1.0 and hi > 0.999999
        assert lo >= 0.0 and lo < 1e-6

    @settings(max_examples=200, deadline=None)
    @given(st.floats(-700, 700))
    def test_complement_identity(self, x):
        assert abs(sigmoid(x) + sigmoid(-x) - 1.0) < 1e-12

    def test_open_interval_in_representable_range(self):
        x = np.linspace(-36, 36, 1001)
        s = sigmoid(x)
        assert np.all(s > 0) and np.all(s < 1)

    def test_monotone(self):
        x = np.linspace(-20, 20, 400)
        assert np.all(np.diff(sigmoid(x)) > 0)


class TestRng:
    def test_identical_seeds_identical_streams(self):
        a = make_rng(1234)
        b = make_rng(1234)
        np.testing.assert_array_equal(a.random(1000), b.random(1000))
        np.testing.assert_array_equal(a.integers(0, 1 << 60, 100), b.integers(0, 1 << 60, 100))

    def test_different_seeds_differ(self):
        assert not np.array_equal(make_rng(1).random(100), make_rng(2).random(100))


def test_logsumexp_matches_naive():
    rng = make_rng(8)
    for _ in range(50):
        a = rng.normal(size=9)
        assert abs(logsumexp(a) - np.log(np.exp(a).sum())) < 1e-12


def test_logsumexp_stable_for_large_inputs():
    assert abs(logsumexp(np.array([1000.0, 1000.0])) - (1000.0 + np.log(2.0))) < 1e-9
