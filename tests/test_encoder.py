"""Forward/backward passes, dropout behavior, and checkpointing."""
import io
import json

import numpy as np
import pytest

from knnmlc.encoder import (
    CheckpointError,
    EncoderConfig,
    backward,
    classify,
    forward_batch,
    init_state,
    load_checkpoint,
    save_checkpoint,
    state_to_payload,
)
from knnmlc.gradcheck import duplicated_views, gradient_check, random_gradcheck_problem
from knnmlc.mathops import make_rng
from oracles import Sample, forward, pack


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
        np.testing.assert_array_equal(classify(trace), np.full(3, 0.5))

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
    def test_saturated_logit(self):
        state = init_state(tiny_config(), seed=0)
        trace = forward(state, tiny_sample())
        trace.logits = np.array([20.0, 0.0, -20.0])
        probs = classify(trace)
        assert probs[0] > 0.999
        assert probs[2] < 0.001

    def test_monotone_in_logits(self):
        state = init_state(tiny_config(), seed=0)
        trace = forward(state, tiny_sample())
        trace.logits = np.array([-1.0, 0.3, 2.0])
        probs = classify(trace)
        assert probs[0] < probs[1] < probs[2]


class TestBackward:
    def _trace(self, state):
        return forward_batch(state, tiny_batch(state), masks=np.ones((1, state.config.hidden_dim)))

    def test_zero_upstream_gives_zero_gradients(self):
        state = init_state(tiny_config(), seed=1)
        grads = backward(state, self._trace(state), grad_embedding=np.zeros((1, 3)), grad_logits=np.zeros((1, 3)))
        for _, arr in grads.param_items():
            np.testing.assert_array_equal(arr, np.zeros_like(arr))

    def test_classifier_gradient_is_outer_product(self):
        state = init_state(tiny_config(), seed=2)
        trace = self._trace(state)
        g = np.array([[0.3, -0.7, 1.1]])
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

    def test_duplicated_views_equal_the_samples_packed_twice(self):
        rng = np.random.default_rng(3)
        rows, samples = [], []
        for i in range(5):
            idx = rng.choice(9, size=1 + i % 4, replace=False)
            values = rng.uniform(0.5, 2.0, idx.size)
            labels = (rng.random(4) < 0.5).astype(np.int8)
            rows.append((idx, values, labels))
            samples.append(Sample({int(j): float(v) for j, v in zip(idx, values)}, labels, f"gc-{i}"))
        got, want = duplicated_views(*zip(*rows), 9), pack(samples + samples, 9)
        for name in ("indptr", "indices", "values", "labels"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        assert got.input_dim == 9 and got.ids.tolist() == want.ids.tolist()

    @pytest.mark.parametrize("seed", [21, 22, 23, 24])
    def test_full_gradient_check(self, seed):
        problem = random_gradcheck_problem(seed)
        report = gradient_check(*problem)
        assert report.passed, f"max relative error {report.max_rel_error:.3e} in {report.worst_param}"


def test_inverted_dropout_preserves_expected_embedding():
    # mean over masks of the dropped forward should match the dropout-off
    # forward; checked to 3 standard errors per coordinate. One batch of n
    # copies draws the same masks as n batches of one.
    state = init_state(tiny_config(dropout_rate=0.3, hidden_dim=8), seed=5)
    rng = make_rng(99)
    n = 20000
    draws = forward_batch(state, tiny_batch(state, n), rng=rng).embedding
    reference = forward(state, tiny_sample()).embedding
    mean = draws.mean(axis=0)
    stderr = draws.std(axis=0, ddof=1) / np.sqrt(n)
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

    def test_file_holds_the_bytes_json_dump_writes(self, tmp_path):
        state = init_state(tiny_config(), seed=11)
        path = tmp_path / "model.json"
        save_checkpoint(state, path)
        stream = io.StringIO()
        json.dump(state_to_payload(state), stream)
        assert path.read_text(encoding="utf-8") == stream.getvalue()

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
