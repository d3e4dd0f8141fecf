"""Label similarity, weights, BCE, and the contrastive loss family."""
import logging
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knnmlc.losses import (
    CONTRASTIVE_VARIANTS,
    BatchViews,
    bce_loss,
    contrastive_embedding_grads,
    contrastive_loss,
    contrastive_loss_from_similarities,
    total_loss,
)
from knnmlc.mathops import make_rng, sigmoid, unit_rows
from oracles import (
    contrastive_weight,
    label_similarity,
    label_similarity_matrix,
    masked_contrastive_loss,
    pij,
    weight_matrix,
)

LN2 = 0.6931471805599453  # frozen 40-digit evaluation of ln 2
LN5 = 1.6094379124341003  # frozen 40-digit evaluation of ln 5


def cosine_pieces(embeddings):
    """(unit rows, norms, unclipped cosine matrix), as a training step forms them."""
    unit, norms = unit_rows(embeddings)
    return unit, norms, unit @ unit.T


def random_batch(rng, n=3, dim=4, num_classes=4):
    """Embeddings and labels for a duplicated batch of n samples (2n views)."""
    emb = rng.normal(size=(2 * n, dim))
    labels = np.zeros((n, num_classes), dtype=np.int8)
    for i in range(n):
        labels[i, rng.integers(num_classes)] = 1
        labels[i] |= (rng.random(num_classes) < 0.35).astype(np.int8)
    return BatchViews(embeddings=emb, labels=np.vstack([labels, labels]))


class TestLabelSimilarity:
    def test_half_overlap(self):
        assert label_similarity([1, 1, 0], [1, 0, 1]) == 0.5

    def test_identical(self):
        for k in (1, 2, 3):
            y = np.zeros(5, dtype=np.int8)
            y[:k] = 1
            assert label_similarity(y, y) == 1.0

    def test_disjoint(self):
        assert label_similarity([1, 0, 0], [0, 1, 1]) == 0.0

    def test_both_zero_is_zero_with_warning(self, caplog):
        with caplog.at_level(logging.WARNING):
            assert label_similarity([0, 0], [0, 0]) == 0.0
        assert any("all-zero" in r.message for r in caplog.records)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            label_similarity([1, 0], [1, 0, 0])

    def test_matrix_matches_pairwise(self):
        rng = make_rng(0)
        labels = (rng.random((6, 5)) < 0.5).astype(np.int8)
        labels[:, 0] = 1
        m = label_similarity_matrix(labels)
        for i in range(6):
            for j in range(6):
                assert m[i, j] == pytest.approx(label_similarity(labels[i], labels[j]), abs=1e-12)
        np.testing.assert_array_equal(np.diag(m), np.ones(6))
        np.testing.assert_array_equal(m, m.T)


class TestContrastiveWeight:
    @pytest.mark.parametrize("l,expected", [(1.0, 1.0), (0.0, 2.0), (0.5, 1.5)])
    def test_values(self, l, expected):
        assert contrastive_weight(l) == expected

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            contrastive_weight(-0.1)
        with pytest.raises(ValueError):
            contrastive_weight(1.1)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(0, 1), st.floats(0, 1))
    def test_strictly_decreasing_and_bounded(self, a, b):
        wa, wb = contrastive_weight(a), contrastive_weight(b)
        assert 1.0 <= wa <= 2.0
        if a < b:
            assert wa >= wb
        if b - a > 1e-12:  # strictness needs a gap 2 - l can represent
            assert wa > wb

    def test_matrix_bounds(self):
        rng = make_rng(1)
        l = rng.random((8, 8))
        w = weight_matrix(l)
        assert np.all(w >= 1.0) and np.all(w <= 2.0)


class TestBce:
    def test_perfect_prediction_near_zero(self):
        y = np.array([1.0, 0.0, 1.0])
        loss, _ = bce_loss(y, y)
        assert 0.0 <= loss < 1e-10

    def test_uniform_probability(self):
        for C in (1, 4, 9):
            loss, _ = bce_loss(np.full(C, 0.5), np.zeros(C))
            assert loss == pytest.approx(C * LN2, rel=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = make_rng(2)
        for _ in range(20):
            z = rng.normal(size=5)
            y = (rng.random(5) < 0.5).astype(float)
            _, grad = bce_loss(sigmoid(z), y)
            h = 1e-6
            for c in range(5):
                zp = z.copy()
                zp[c] += h
                zm = z.copy()
                zm[c] -= h
                fd = (bce_loss(sigmoid(zp), y)[0] - bce_loss(sigmoid(zm), y)[0]) / (2 * h)
                assert grad[c] == pytest.approx(fd, abs=1e-6)

    def test_sum_not_mean(self):
        one, _ = bce_loss(np.array([0.3]), np.array([1.0]))
        many, _ = bce_loss(np.full(7, 0.3), np.ones(7))
        assert many == pytest.approx(7 * one, rel=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            bce_loss(np.zeros(3), np.zeros(4))


class TestPij:
    def test_uniform(self):
        np.testing.assert_allclose(pij([0.2] * 4, [1.0] * 4, 0.05), [0.25] * 4, atol=1e-12)

    def test_weight_ratio(self):
        np.testing.assert_allclose(pij([0.7, 0.7], [1.0, 2.0], 0.1), [1 / 3, 2 / 3], atol=1e-12)

    def test_normalization_random(self):
        rng = make_rng(3)
        for _ in range(100):
            n = int(rng.integers(2, 12))
            p = pij(rng.uniform(-1, 1, n), rng.uniform(1, 2, n), float(rng.uniform(0.02, 1)))
            assert abs(p.sum() - 1.0) < 1e-9
            assert np.all(p >= 0)

    def test_bad_temperature(self):
        with pytest.raises(ValueError):
            pij([0.1], [1.0], 0.0)


class TestContrastiveLoss:
    def test_single_pair_degenerate_zero(self):
        emb = make_rng(4).normal(size=(2, 3))
        labels = np.array([[1, 0], [1, 0]], dtype=np.int8)
        loss, grad = contrastive_loss(BatchViews(emb, labels), tau1=0.05)
        assert loss == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(grad, np.zeros((2, 2)), atol=1e-12)

    def test_equal_similarities_disjoint_labels_ln5(self):
        # 2 samples with disjoint labels -> foreign views carry weight 2;
        # with all similarities equal every anchor's loss is ln 5
        sims = np.full((4, 4), 0.3)
        np.fill_diagonal(sims, 1.0)
        labels = np.array([[1, 0], [0, 1], [1, 0], [0, 1]], dtype=np.int8)
        loss, _ = contrastive_loss_from_similarities(sims, labels, tau1=0.05, variant="dcl")
        assert loss == pytest.approx(4 * LN5, rel=1e-12)

    def test_positive_gradient_equals_negated_negative_sum(self):
        rng = make_rng(5)
        for _ in range(25):
            batch = random_batch(rng, n=int(rng.integers(2, 5)))
            _, grad = contrastive_loss(batch, tau1=float(rng.uniform(0.02, 1.0)))
            n2 = batch.size
            for i in range(n2):
                pos = batch.partner(i)
                neg = [j for j in range(n2) if j not in (i, pos)]
                assert grad[i, pos] == pytest.approx(-grad[i, neg].sum(), abs=1e-12)

    def test_ucl_equals_dcl_when_all_label_similarities_are_one(self):
        rng = make_rng(6)
        emb = rng.normal(size=(6, 4))
        labels = np.tile(np.array([[1, 0, 1]], dtype=np.int8), (6, 1))
        batch = BatchViews(emb, labels)
        loss_dcl, grad_dcl = contrastive_loss(batch, tau1=0.05, variant="dcl")
        loss_ucl, grad_ucl = contrastive_loss(batch, tau1=0.05, variant="ucl")
        assert loss_dcl == loss_ucl  # bit-for-bit
        np.testing.assert_array_equal(grad_dcl, grad_ucl)

    def test_higher_weight_means_strictly_larger_negative_gradient(self):
        # equal similarities isolate the weight effect (see gradient analysis)
        rng = make_rng(7)
        for _ in range(30):
            n = 4
            labels = np.zeros((n, 6), dtype=np.int8)
            for i in range(n):
                labels[i, rng.choice(6, size=int(rng.integers(1, 4)), replace=False)] = 1
            labels2 = np.vstack([labels, labels])
            sims = np.full((2 * n, 2 * n), 0.4)
            l = label_similarity_matrix(labels2)
            _, grad = contrastive_loss_from_similarities(sims, labels2, tau1=0.1, variant="dcl")
            for i in range(2 * n):
                pos = (i + n) % (2 * n)
                negs = [j for j in range(2 * n) if j not in (i, pos)]
                for a in negs:
                    for b in negs:
                        if l[i, a] < l[i, b]:
                            assert abs(grad[i, a]) > abs(grad[i, b])

    def test_loss_invariant_to_sample_order(self):
        rng = make_rng(8)
        batch = random_batch(rng, n=4)
        n = 4
        loss, _ = contrastive_loss(batch, tau1=0.05)
        perm = rng.permutation(n)
        emb = batch.embeddings
        labels = batch.labels
        permuted = BatchViews(
            np.vstack([emb[:n][perm], emb[n:][perm]]),
            np.vstack([labels[:n][perm], labels[n:][perm]]),
        )
        loss_p, _ = contrastive_loss(permuted, tau1=0.05)
        assert loss_p == pytest.approx(loss, abs=1e-9)

    @pytest.mark.parametrize("variant", ["dcl", "ucl", "scl", "wscl"])
    def test_similarity_gradient_matches_finite_differences(self, variant):
        rng = make_rng(9)
        batch = random_batch(rng, n=3)
        sims = np.asarray(
            np.clip(rng.uniform(-0.9, 0.9, size=(6, 6)), -1, 1), dtype=np.float64
        )
        loss, grad = contrastive_loss_from_similarities(sims, batch.labels, 0.1, variant)
        h = 1e-5
        for i in range(6):
            for j in range(6):
                if i == j:
                    continue
                up = sims.copy()
                up[i, j] += h
                down = sims.copy()
                down[i, j] -= h
                fd = (
                    contrastive_loss_from_similarities(up, batch.labels, 0.1, variant)[0]
                    - contrastive_loss_from_similarities(down, batch.labels, 0.1, variant)[0]
                ) / (2 * h)
                assert grad[i, j] == pytest.approx(fd, rel=1e-6, abs=1e-8)

    def test_scl_multi_positive_uses_identical_label_rows(self):
        # samples 0 and 1 share identical labels -> four mutually positive views
        emb = make_rng(10).normal(size=(6, 3))
        labels = np.array(
            [[1, 1, 0], [1, 1, 0], [0, 0, 1], [1, 1, 0], [1, 1, 0], [0, 0, 1]], dtype=np.int8
        )
        loss_scl, _ = contrastive_loss(BatchViews(emb, labels), tau1=0.1, variant="scl")
        loss_ucl, _ = contrastive_loss(BatchViews(emb, labels), tau1=0.1, variant="ucl")
        assert math.isfinite(loss_scl)
        assert loss_scl != loss_ucl

    def test_small_temperature_does_not_overflow(self):
        rng = make_rng(11)
        batch = random_batch(rng, n=3)
        loss, grad = contrastive_loss(batch, tau1=1e-3)
        assert math.isfinite(loss)
        assert np.all(np.isfinite(grad))

    def test_errors(self):
        rng = make_rng(12)
        batch = random_batch(rng, n=2)
        with pytest.raises(ValueError):
            contrastive_loss(batch, tau1=0.0)
        with pytest.raises(ValueError):
            contrastive_loss(batch, tau1=0.05, variant="nonsense")
        with pytest.raises(ValueError):
            BatchViews(rng.normal(size=(3, 4)), np.zeros((3, 2), dtype=np.int8))
        with pytest.raises(ValueError):
            BatchViews(rng.normal(size=(0, 4)), np.zeros((0, 2), dtype=np.int8))

    @pytest.mark.parametrize("bad", [0.5, 1.7])
    def test_batch_views_reject_a_fractional_label_naming_it(self, bad):
        """An int8 cast would make 0.5 a 0 and 1.7 a 1 before any 0/1 check."""
        labels = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
        labels[2, 1] = bad
        with pytest.raises(ValueError, match=re.escape(f"labels must be 0 or 1, got {bad}")):
            BatchViews(np.eye(4), labels)
        labels[2, 1] = 1.0
        assert BatchViews(np.eye(4), labels).labels.tolist() == [[1, 0], [0, 1], [1, 1], [0, 1]]


class TestEmbeddingGradients:
    def test_matches_finite_differences_through_cosine(self):
        rng = make_rng(13)
        batch = random_batch(rng, n=3)

        def loss_of(embeddings):
            return contrastive_loss(BatchViews(embeddings, batch.labels), tau1=0.1)[0]

        _, grad_s = contrastive_loss(batch, tau1=0.1)
        grad_h = contrastive_embedding_grads(*cosine_pieces(batch.embeddings), grad_s)
        h = 1e-6
        for i in range(batch.size):
            for d in range(batch.embeddings.shape[1]):
                up = batch.embeddings.copy()
                up[i, d] += h
                down = batch.embeddings.copy()
                down[i, d] -= h
                fd = (loss_of(up) - loss_of(down)) / (2 * h)
                assert grad_h[i, d] == pytest.approx(fd, rel=1e-5, abs=1e-8)

    def test_zero_norm_rejected(self):
        # the cosine pieces the gradient takes cannot be formed
        emb = np.zeros((2, 3))
        with pytest.raises(ValueError):
            contrastive_embedding_grads(*cosine_pieces(emb), np.zeros((2, 2)))


class TestTotalLoss:
    def test_alpha_zero(self):
        assert total_loss(3.5, 100.0, 0.0) == 3.5

    def test_zero_contrastive(self):
        assert total_loss(3.5, 0.0, 0.7) == 3.5

    def test_reference_alpha(self):
        assert total_loss(2.0, 10.0, 0.1) == pytest.approx(3.0, rel=1e-15)

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError):
            total_loss(1.0, 1.0, -0.2)


class TestInPlacePass:
    """The package's in-place pass against ``masked_contrastive_loss``, the
    same loss as whole-matrix expressions: every bit of the loss and the
    gradient, sign bits included."""

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.one_of(st.integers(1, 8), st.sampled_from([16, 64, 128])),
        num_classes=st.integers(1, 12),
        variant=st.sampled_from(CONTRASTIVE_VARIANTS),
        label_kind=st.sampled_from(["random", "duplicated", "all-zero rows"]),
        tau1=st.sampled_from([0.02, 0.05, 0.1, 1.0]),
        exact_values=st.booleans(),
        stale_workspace=st.booleans(),
    )
    def test_bit_identical_to_the_whole_matrix_reference(
        self, seed, n, num_classes, variant, label_kind, tau1, exact_values, stale_workspace
    ):
        rng = make_rng(seed)
        labels = (rng.random((2 * n, num_classes)) < rng.uniform(0.1, 0.9)).astype(np.int8)
        if label_kind != "random":
            labels[n:] = labels[:n]
        if label_kind == "all-zero rows":
            labels[rng.random(2 * n) < 0.3] = 0
        sims = rng.uniform(-1.0, 1.0, size=(2 * n, 2 * n))
        if exact_values:
            # signed zeros and the clip bounds, where sign bits and ties show
            pick = rng.integers(0, 8, size=sims.shape)
            for code, value in enumerate((-0.0, 0.0, 1.0, -1.0)):
                sims[pick == code] = value
        workspace = None
        if stale_workspace:
            # what a previous step left behind must not reach the result
            workspace = (np.full(sims.shape, np.nan), np.full(sims.shape, -np.inf))
        loss, grad = contrastive_loss_from_similarities(sims, labels, tau1, variant, workspace=workspace)
        ref_loss, ref_grad = masked_contrastive_loss(sims, labels, tau1, variant)
        np.testing.assert_array_equal(loss, ref_loss)
        np.testing.assert_array_equal(np.signbit(loss), np.signbit(ref_loss))
        np.testing.assert_array_equal(grad, ref_grad)
        np.testing.assert_array_equal(np.signbit(grad), np.signbit(ref_grad))
        if workspace is not None:
            assert grad is workspace[0]

    @pytest.mark.parametrize("variant", CONTRASTIVE_VARIANTS)
    @pytest.mark.parametrize("bad", [-1, 2, 0.5])
    def test_a_label_other_than_0_or_1_is_an_error_naming_it(self, variant, bad):
        labels = np.array([[1, 0], [0, 1], [1, 0], [0, 1]], dtype=type(bad))
        labels[2, 1] = bad
        with pytest.raises(ValueError, match=re.escape(f"labels must be 0 or 1, got {labels[2, 1]}")):
            contrastive_loss_from_similarities(np.zeros((4, 4)), labels, 0.1, variant)
        with pytest.raises(ValueError, match=re.escape(f"labels must be 0 or 1, got {bad}")):
            contrastive_loss(BatchViews(np.eye(4), labels), 0.1, variant)

    def test_a_call_without_workspace_returns_a_gradient_of_its_own(self):
        rng = make_rng(14)
        labels = (rng.random((6, 4)) < 0.5).astype(np.int8)
        first_sims, second_sims = rng.uniform(-1, 1, size=(2, 6, 6))
        for variant in CONTRASTIVE_VARIANTS:
            _, first = contrastive_loss_from_similarities(first_sims, labels, 0.1, variant)
            kept = first.copy()
            _, second = contrastive_loss_from_similarities(second_sims, labels, 0.1, variant)
            assert not np.shares_memory(first, second)
            np.testing.assert_array_equal(first, kept)

    def test_labels_of_another_batch_size_are_rejected(self):
        with pytest.raises(ValueError, match="one row per view"):
            contrastive_loss_from_similarities(np.zeros((4, 4)), np.ones((6, 2), dtype=np.int8), 0.1)
        with pytest.raises(ValueError, match="one row per view"):
            contrastive_loss_from_similarities(np.zeros((4, 4)), np.ones(4, dtype=np.int8), 0.1)
