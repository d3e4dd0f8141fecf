"""Forward/backward passes, dropout behavior, and checkpointing."""
import dataclasses
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from knnmlc import gradcheck
from knnmlc.encoder import (
    CheckpointError,
    EncoderConfig,
    backward,
    forward_batch,
    init_state,
    load_checkpoint,
    save_checkpoint,
)
from knnmlc.gradcheck import gradient_check, random_gradcheck_problem, random_views
from knnmlc.losses import CONTRASTIVE_VARIANTS
from knnmlc.mathops import make_rng, sigmoid
from knnmlc.training import batch_gradients
from oracles import Sample, checkpoint_text, duplicated_gradients, forward, pack, state_to_payload


def tiny_config(**kw):
    base = dict(input_dim=6, hidden_dim=4, embed_dim=3, num_classes=3, dropout_rate=0.1)
    base.update(kw)
    return EncoderConfig(**base)


def tiny_record(num_classes=3):
    labels = np.zeros(num_classes, dtype=np.int8)
    labels[0] = 1
    return Sample(features={0: 1.5, 2: 1.0, 5: 2.0}, labels=labels, sample_id="t0")


def tiny_sample():
    """``tiny_record`` as a batch of one."""
    return pack([tiny_record()], 6)


def tiny_batch(state, n=1):
    """n copies of ``tiny_record``, packed: dropout runs on a batch."""
    return pack([tiny_record()] * n, state.config.input_dim)


class TestForward:
    def test_dropout_off_is_deterministic(self):
        state = init_state(tiny_config(), seed=0)
        t1 = forward(state, tiny_sample())
        t2 = forward(state, tiny_sample())
        np.testing.assert_array_equal(t1.embedding, t2.embedding)
        np.testing.assert_array_equal(t1.logits, t2.logits)

    def test_zero_dropout_rate_removes_stochasticity(self):
        state = init_state(tiny_config(dropout_rate=0.0), seed=0)
        rng = make_rng(1)
        t1 = forward_batch(state, tiny_batch(state), rng=rng)
        t2 = forward_batch(state, tiny_batch(state), rng=rng)
        np.testing.assert_array_equal(t1.embedding, t2.embedding)

    def test_dropout_on_generally_differs(self):
        state = init_state(tiny_config(dropout_rate=0.5), seed=0)
        rng = make_rng(2)
        outs = {tuple(forward_batch(state, tiny_batch(state), rng=rng).embedding[0]) for _ in range(8)}
        assert len(outs) > 1

    def test_zero_state_gives_half_probabilities(self):
        state = init_state(tiny_config(), seed=0)
        for _, arr in state.param_items():
            arr[...] = 0.0
        trace = forward(state, tiny_sample())
        np.testing.assert_array_equal(trace.logits, np.zeros(3))
        np.testing.assert_array_equal(sigmoid(trace.logits), np.full(3, 0.5))

    def test_out_of_range_feature_rejected(self):
        state = init_state(tiny_config(), seed=0)
        bad = Sample(features={99: 1.0}, labels=np.array([1, 0, 0], dtype=np.int8))
        with pytest.raises(ValueError, match="feature index"):
            forward(state, pack([bad], 6))

    def test_dropout_on_without_rng(self):
        state = init_state(tiny_config(dropout_rate=0.2), seed=0)
        with pytest.raises(ValueError, match="requires an rng"):
            forward_batch(state, tiny_batch(state))

    def test_relu_activation(self):
        state = init_state(tiny_config(activation="relu"), seed=0)
        trace = forward(state, tiny_sample())
        assert np.all(trace.hidden >= 0)


class TestClassify:
    """The classifier head's probabilities: the sigmoid of the logits."""

    def test_saturated_logit(self):
        state = init_state(tiny_config(), seed=0)
        trace = forward(state, tiny_sample())
        trace.logits = np.array([20.0, 0.0, -20.0])
        probs = sigmoid(trace.logits)
        assert probs[0] > 0.999
        assert probs[2] < 0.001

    def test_monotone_in_logits(self):
        state = init_state(tiny_config(), seed=0)
        trace = forward(state, tiny_sample())
        trace.logits = np.array([-1.0, 0.3, 2.0])
        probs = sigmoid(trace.logits)
        assert probs[0] < probs[1] < probs[2]


class TestBackward:
    def _trace(self, state):
        # one sample, two views
        return forward_batch(state, tiny_batch(state), masks=np.ones((2, state.config.hidden_dim)))

    def test_zero_upstream_gives_zero_gradients(self):
        state = init_state(tiny_config(), seed=1)
        grads = backward(state, self._trace(state), grad_embedding=np.zeros((2, 3)), grad_logits=np.zeros((2, 3)))
        for _, arr in grads.param_items():
            np.testing.assert_array_equal(arr, np.zeros_like(arr))

    def test_classifier_gradient_is_outer_product(self):
        state = init_state(tiny_config(), seed=2)
        trace = self._trace(state)
        g = np.array([[0.3, -0.7, 1.1], [0.0, 0.0, 0.0]])
        grads = backward(state, trace, grad_logits=g)
        np.testing.assert_allclose(grads.w_clf, np.outer(g[0], trace.embedding[0]), atol=1e-15)
        np.testing.assert_allclose(grads.b_clf, g[0], atol=1e-15)

    def test_dimension_mismatch_rejected(self):
        state = init_state(tiny_config(), seed=0)
        trace = self._trace(state)
        with pytest.raises(ValueError):
            backward(state, trace, grad_logits=np.zeros((1, 5)))
        with pytest.raises(ValueError):
            backward(state, trace, grad_embedding=np.zeros((1, 7)))
        with pytest.raises(ValueError):
            backward(state, trace, grad_logits=np.zeros(3))
        # the 1-d trace of a single forward is not a batch trace
        with pytest.raises(ValueError, match="batch trace"):
            backward(state, forward(state, tiny_sample()), grad_logits=np.zeros((1, 3)))

    def test_random_views_draws_n_samples_and_the_masks_of_2n_views(self):
        config = tiny_config(input_dim=9, hidden_dim=5, dropout_rate=0.5)
        batch, masks = random_views(make_rng(3), 4, config)
        assert len(batch) == 4 and batch.ids() == [""] * 4 and batch.input_dim == 9
        assert np.all(np.diff(batch.indptr) >= 1) and batch.labels.any(axis=1).all()
        assert masks.shape == (8, 5) and set(np.unique(masks)) <= {0.0, 2.0}

    @pytest.mark.parametrize("seed", [21, 22, 23, 24])
    def test_full_gradient_check(self, seed):
        problem = random_gradcheck_problem(seed)
        report = gradient_check(*problem)
        assert report.passed, f"max relative error {report.max_rel_error:.3e} in {report.worst_param}"

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_a_non_finite_analytic_entry_fails_and_names_its_parameter(self, monkeypatch, bad):
        real = gradcheck.batch_gradients

        def spoiled(*args, **kwargs):
            result = real(*args, **kwargs)
            result[3].w_emb[1, 0] = bad
            return result

        monkeypatch.setattr(gradcheck, "batch_gradients", spoiled)
        report = gradient_check(*random_gradcheck_problem(21))
        assert report.passed is False
        assert report.worst_param == "w_emb" and report.max_rel_error == np.inf
        assert report.per_param["w_emb"] == np.inf
        assert all(np.isfinite(v) for name, v in report.per_param.items() if name != "w_emb")

    def test_a_nan_step_fails(self):
        report = gradient_check(*random_gradcheck_problem(21), step=np.nan)
        assert report.passed is False and report.max_rel_error == np.inf

    # the largest float32-vs-float64 gap over the 20 problems of the default
    # suite measured 2.010e-04 (OpenBLAS 0.3.31, SkylakeX kernel); the bound
    # leaves a margin of more than 10x
    FLOAT32_GAP_BOUND = 2.5e-3

    def test_the_float32_analytic_gradients_stay_near_the_float64_ones_on_the_suite_problems(self):
        # the Trainer runs the checked float64 code in float32: on every
        # problem of run_gradcheck_suite, its gradients keep within the bound
        # of float64 ones at the same parameters, scaled as gradient_check
        # scales its errors
        gaps = [gradcheck.float32_gap(*problem) for problem in gradcheck.gradcheck_suite_problems()]
        assert len(gaps) == 20
        assert max(gaps) <= self.FLOAT32_GAP_BOUND, f"float32 gap {max(gaps):.3e}"
        # and float32 arithmetic did run: no problem's gradients came out exact
        assert min(gaps) > 0.0


def _pre_activation_grad(state, trace, grad_embedding):
    """d loss / d pre_hidden for an upstream (2N, embed) embedding gradient,
    formed as ``backward`` forms it: both views' gradients added on their
    sample's row."""
    d_views = (np.asarray(grad_embedding, dtype=state.flat.dtype) @ state.w_emb) * trace.mask
    n = len(trace.hidden)
    d_hidden = d_views[:n] + d_views[n:]
    if state.config.activation == "tanh":
        return d_hidden * (1.0 - trace.hidden**2)
    return d_hidden * (trace.pre_hidden > 0.0)


# feature values: 1.0, an explicit zero of either sign, and others
_FEATURE_VALUES = st.sampled_from([1.0, 0.0, -0.0, 2.5, -1.25, 1e-3])


class TestTouchedColumns:
    """Below one feature entry per input column the training pass multiplies
    only the columns the batch touches."""

    @settings(max_examples=80, deadline=None)
    @given(
        rows=st.lists(st.dictionaries(st.integers(0, 30), _FEATURE_VALUES, max_size=4), min_size=1, max_size=6),
        spare=st.integers(1, 12),
        hidden=st.integers(1, 5),
        activation=st.sampled_from(["tanh", "relu"]),
        dtype=st.sampled_from([np.float32, np.float64]),
        seed=st.integers(0, 2**16),
    )
    # feature 5 in both rows, an explicit zero at index 0, values other than 1.0
    @example(rows=[{0: 0.0, 5: 2.5}, {5: 1.0, 9: -1.25}], spare=1, hidden=3, activation="tanh", dtype=np.float32, seed=0)
    # records without features: each holds an explicit zero at index 0
    @example(rows=[{}, {}], spare=1, hidden=2, activation="relu", dtype=np.float64, seed=1)
    def test_the_product_over_the_sorted_touched_columns(self, rows, spare, hidden, activation, dtype, seed):
        entries = sum(max(1, len(r)) for r in rows)
        input_dim = max([entries, *(max(r) + 1 for r in rows if r)]) + spare
        cfg = EncoderConfig(input_dim, hidden, 3, 2, activation=activation, dropout_rate=0.3)
        state = init_state(cfg, seed=seed).astype(dtype)
        batch = pack([Sample(r, np.ones(2, dtype=np.int8)) for r in rows], input_dim)
        trace = forward_batch(state, batch, rng=make_rng(seed))

        cols = np.unique(batch.indices)
        assert trace.cols.dtype == np.intp and trace.cols.tobytes() == cols.tobytes()
        dense_c = np.ascontiguousarray(batch.to_dense(dtype)[:, cols])
        assert trace.dense_c.dtype == dtype and trace.dense_c.tobytes() == dense_c.tobytes()
        assert trace.pre_hidden.tobytes() == (dense_c @ state.w_in[:, cols].T + state.b_in).tobytes()

        grad_embedding = np.random.default_rng(seed).standard_normal((2 * len(rows), 3))
        grads = backward(state, trace, grad_embedding=grad_embedding)
        d_pre = _pre_activation_grad(state, trace, grad_embedding)
        untouched = np.setdiff1d(np.arange(input_dim), cols)
        # +0.0 on every column no entry touched, the compacted product on the rest
        assert grads.w_in[:, untouched].tobytes() == np.zeros((hidden, untouched.size), dtype).tobytes()
        assert grads.w_in[:, cols].tobytes() == (d_pre.T @ dense_c).tobytes()

    @staticmethod
    def _widened(problem):
        """A gradient check problem of the default suite moved onto the
        compacted branch: the input dimension grown to more than twice the
        batch's feature entries, feature j moved to column j * stride + 1,
        and a fresh state of the wider dims."""
        state, batch, masks, alpha, tau1, variant = problem
        cfg = state.config
        stride = 2 * batch.indices.size // cfg.input_dim + 2
        wide = dataclasses.replace(cfg, input_dim=cfg.input_dim * stride)
        batch = dataclasses.replace(batch, indices=batch.indices * stride + 1, input_dim=wide.input_dim)
        return init_state(wide, seed=state.init_seed), batch, masks, alpha, tau1, variant

    def test_the_gradient_check_passes_on_suite_problems_forced_onto_the_compacted_branch(self):
        # the suite's first 8 problems, two per variant (6 of its 20 take
        # this branch unwidened); measured: max relative error 6.2e-7, max
        # float32 gap 1.2e-4
        for problem in map(self._widened, gradcheck.gradcheck_suite_problems(num_configs=8)):
            state, batch, masks = problem[:3]
            assert forward_batch(state, batch, masks=masks).cols is not None
            report = gradient_check(*problem)
            assert report.passed, f"max relative error {report.max_rel_error:.3e} in {report.worst_param}"
            assert report.float32_gap <= TestBackward.FLOAT32_GAP_BOUND, f"float32 gap {report.float32_gap:.3e}"


class TestOneInputLayerForTwoViews:
    """The training pass runs the input layer once per sample and forms both
    dropout views after it; in float64 its gradients are those of the pass
    that ran the input layer on 2N rows, sample i laid out again as row
    i + N (``oracles.duplicated_gradients``), to a relative 1e-12."""

    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    @pytest.mark.parametrize("branch", ["dense", "touched"])
    @pytest.mark.parametrize("variant", CONTRASTIVE_VARIANTS)
    def test_the_gradients_equal_the_duplicated_2n_row_reference(self, variant, branch, activation):
        checked = 0
        for seed in range(10):
            problem = random_gradcheck_problem(seed, variant)
            if branch == "touched":
                problem = TestTouchedColumns._widened(problem)
            state, batch, masks, alpha, tau1, _ = problem
            state = type(state).on_buffer(dataclasses.replace(state.config, activation=activation), state.flat)
            if (forward_batch(state, batch, masks=masks).cols is None) != (branch == "dense"):
                continue
            got = batch_gradients(state, batch, alpha, tau1, variant, masks=masks)[3]
            want = duplicated_gradients(state, batch, masks, alpha, tau1, variant)
            # relative to each gradient's largest entry: a sum that cancels
            # can differ by more than 1e-12 of itself (measured: at most
            # 3.3e-15 of the largest entry over these problems)
            for name, g in got.param_items():
                w = getattr(want, name)
                np.testing.assert_allclose(g, w, rtol=0.0, atol=1e-12 * np.abs(w).max(), err_msg=f"seed {seed} {name}")
            checked += 1
        assert checked >= 3


def test_inverted_dropout_preserves_expected_embedding():
    # mean over masks of the dropped forward should match the dropout-off
    # forward; checked to 3 standard errors per coordinate. A batch of n
    # copies gives 2n views, each with a mask of its own.
    state = init_state(tiny_config(dropout_rate=0.3, hidden_dim=8), seed=5)
    rng = make_rng(99)
    draws = forward_batch(state, tiny_batch(state, 10000), rng=rng).embedding
    reference = forward(state, tiny_sample()).embedding
    mean = draws.mean(axis=0)
    stderr = draws.std(axis=0, ddof=1) / np.sqrt(len(draws))
    assert np.all(np.abs(mean - reference) <= 3.0 * stderr + 1e-12)


class TestCheckpoint:
    def test_round_trip_exact(self, tmp_path):
        state = init_state(tiny_config(), seed=11)
        path = tmp_path / "model.json"
        save_checkpoint(state, path)
        loaded = load_checkpoint(path)
        assert loaded.config == state.config
        assert loaded.init_seed == state.init_seed
        for (name, arr), (_, arr2) in zip(state.param_items(), loaded.param_items()):
            np.testing.assert_array_equal(arr, arr2), name

    def test_file_holds_the_checkpoint_text(self, tmp_path):
        state = init_state(tiny_config(), seed=11)
        path = tmp_path / "model.json"
        save_checkpoint(state, path)
        assert path.read_text(encoding="utf-8") == checkpoint_text(state)
        assert json.loads(path.read_text(encoding="utf-8")) == state_to_payload(state)

    def test_wrong_format_marker(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"format": "something-else", "version": 1}')
        with pytest.raises(CheckpointError, match="format"):
            load_checkpoint(path)

    def test_wrong_version(self, tmp_path):
        state = init_state(tiny_config(), seed=0)
        path = tmp_path / "model.json"
        save_checkpoint(state, path)
        payload = path.read_text().replace('"version": 1', '"version": 99')
        path.write_text(payload)
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    def test_truncated_file(self, tmp_path):
        state = init_state(tiny_config(), seed=0)
        path = tmp_path / "model.json"
        save_checkpoint(state, path)
        path.write_bytes(path.read_bytes()[: 40])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_initialization_is_seeded_and_bounded(self):
        a = init_state(tiny_config(), seed=3)
        b = init_state(tiny_config(), seed=3)
        c = init_state(tiny_config(), seed=4)
        for (_, x), (_, y) in zip(a.param_items(), b.param_items()):
            np.testing.assert_array_equal(x, y)
        assert any(
            not np.array_equal(x, y) for (_, x), (_, y) in zip(a.param_items(), c.param_items())
        )
        bound = 1.0 / np.sqrt(a.config.input_dim)
        assert np.all(np.abs(a.w_in) <= bound)
