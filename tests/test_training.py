"""Adam updates, training determinism, and checkpoint resume."""
import io
import json

import numpy as np
import pytest

from knnmlc.data import DatasetConfig, generate_synthetic
from knnmlc import training
from knnmlc.encoder import CheckpointError, EncoderConfig, ParameterGradients, init_state
from knnmlc.mathops import make_rng
from knnmlc.training import AdamState, NonFiniteLossError, TrainConfig, Trainer, adam_step, train


def tiny_data(seed=0, label_noise=0.12, n=120):
    cfg = DatasetConfig(
        num_classes=6,
        num_clusters=2,
        train_size=n,
        valid_size=30,
        test_size=30,
        vocab_size=30,
        label_noise=label_noise,
        seed=seed,
    )
    return generate_synthetic(cfg), cfg


def tiny_encoder_cfg(data_cfg):
    return EncoderConfig(
        input_dim=data_cfg.vocab_size,
        hidden_dim=8,
        embed_dim=6,
        num_classes=data_cfg.num_classes,
        dropout_rate=0.1,
    )


def ref_adam_step(state, grads, adam, lr, betas=(0.9, 0.999), eps=1e-8):
    """Adam as the textbook expression, one temporary per operation: the
    oracle of the in-place update."""
    b1, b2 = betas
    adam.step += 1
    t = adam.step
    for name, theta in state.param_items():
        g = getattr(grads, name)
        m = adam.m[name]
        v = adam.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1**t)
        v_hat = v / (1.0 - b2**t)
        theta -= lr * m_hat / (np.sqrt(v_hat) + eps)
    return state


class TestAdam:
    def _state(self):
        return init_state(EncoderConfig(2, 2, 2, 2, dropout_rate=0.0), seed=0)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_in_place_update_is_bit_identical_to_the_expression(self, seed):
        rng = np.random.default_rng(seed)
        cfg = EncoderConfig(17, 9, 5, 4, dropout_rate=0.0)
        state, ref_state = init_state(cfg, seed=seed), init_state(cfg, seed=seed)
        adam, ref_adam = AdamState.zeros_like(state), AdamState.zeros_like(ref_state)
        for step in range(60):
            # random gradients at several scales, and every fourth step a zero gradient
            scale = 0.0 if step % 4 == 3 else 10.0 ** rng.integers(-6, 3)
            grads = ParameterGradients(
                **{name: scale * rng.standard_normal(arr.shape) for name, arr in state.param_items()}
            )
            adam_step(state, grads, adam, lr=1e-3, betas=(0.85, 0.995), eps=1e-7)
            ref_adam_step(ref_state, grads, ref_adam, lr=1e-3, betas=(0.85, 0.995), eps=1e-7)
            for name, arr in state.param_items():
                ref = getattr(ref_state, name)
                assert arr.tobytes() == ref.tobytes(), (step, name)
                assert adam.m[name].tobytes() == ref_adam.m[name].tobytes(), (step, name)
                assert adam.v[name].tobytes() == ref_adam.v[name].tobytes(), (step, name)

    def test_single_step_closed_form(self):
        # from zero moments the bias-corrected update is -lr * g / (|g| + eps)
        state = self._state()
        before = {name: arr.copy() for name, arr in state.param_items()}
        grads = ParameterGradients.zeros_like(state)
        grads.w_clf[...] = np.array([[2.0, -3.0], [0.5, -0.25]])
        adam = AdamState.zeros_like(state)
        lr, eps = 0.1, 1e-8
        adam_step(state, grads, adam, lr=lr, eps=eps)
        g = grads.w_clf
        expected = before["w_clf"] - lr * g / (np.abs(g) + eps)
        np.testing.assert_allclose(state.w_clf, expected, atol=1e-12)
        np.testing.assert_array_equal(state.b_clf, before["b_clf"])

    def test_zero_gradient_leaves_parameters(self):
        # from fresh (zero) moments a zero gradient moves nothing
        state = self._state()
        before = {name: arr.copy() for name, arr in state.param_items()}
        adam = AdamState.zeros_like(state)
        for _ in range(5):
            adam_step(state, ParameterGradients.zeros_like(state), adam, lr=0.1)
        for name, arr in state.param_items():
            np.testing.assert_array_equal(arr, before[name]), name

    def test_moments_decay_under_zero_gradients(self):
        state = self._state()
        adam = AdamState.zeros_like(state)
        adam.m["w_in"][...] = 1.0
        adam.v["w_in"][...] = 1.0
        for step in range(5):
            m_prev = adam.m["w_in"].copy()
            v_prev = adam.v["w_in"].copy()
            adam_step(state, ParameterGradients.zeros_like(state), adam, lr=0.1)
            np.testing.assert_allclose(adam.m["w_in"], 0.9 * m_prev, rtol=1e-12)
            np.testing.assert_allclose(adam.v["w_in"], 0.999 * v_prev, rtol=1e-12)

    def test_constant_gradient_approaches_sign_step(self):
        state = self._state()
        grads = ParameterGradients.zeros_like(state)
        grads.b_in[...] = np.array([0.37, -1.4])
        adam = AdamState.zeros_like(state)
        lr = 0.01
        for _ in range(300):
            prev = state.b_in.copy()
            adam_step(state, grads, adam, lr=lr)
        delta = state.b_in - prev
        np.testing.assert_allclose(delta, -lr * np.sign(grads.b_in), rtol=1e-4)

    def test_shape_mismatch_rejected(self):
        state = self._state()
        grads = ParameterGradients.zeros_like(state)
        grads.w_in = np.zeros((3, 3))
        with pytest.raises(ValueError):
            adam_step(state, grads, AdamState.zeros_like(state), lr=0.1)


class TestTrainer:
    def test_zero_learning_rate_and_alpha_leave_parameters(self):
        (train_s, valid_s, _), dcfg = tiny_data()
        ecfg = tiny_encoder_cfg(dcfg)
        state = init_state(ecfg, seed=0)
        before = {name: arr.copy() for name, arr in state.param_items()}
        cfg = TrainConfig(batch_size=8, learning_rate=0.0, alpha=0.0, max_iters=12, seed=0)
        Trainer(train_s, valid_s, state, cfg).run()
        for name, arr in state.param_items():
            np.testing.assert_array_equal(arr, before[name]), name

    def test_same_seed_same_trajectory(self):
        (train_s, valid_s, _), dcfg = tiny_data()
        ecfg = tiny_encoder_cfg(dcfg)
        cfg = TrainConfig(batch_size=8, learning_rate=3e-3, max_iters=25, seed=5)
        best1, hist1 = train(train_s, valid_s, ecfg, cfg)
        best2, hist2 = train(train_s, valid_s, ecfg, cfg)
        assert hist1 == hist2
        for (_, a), (_, b) in zip(best1.param_items(), best2.param_items()):
            np.testing.assert_array_equal(a, b)

    def test_loss_decreases_on_noiseless_data(self):
        # window-averaged total loss over the first 50 iterations, 3 seeds
        for seed in (0, 1, 2):
            (train_s, _, _), dcfg = tiny_data(seed=seed, label_noise=0.0, n=200)
            ecfg = tiny_encoder_cfg(dcfg)
            cfg = TrainConfig(batch_size=8, learning_rate=5e-3, max_iters=50, seed=seed)
            _, history = train(train_s, None, ecfg, cfg)
            totals = np.array([r["total"] for r in history])
            windows = totals.reshape(5, 10).mean(axis=1)
            assert np.all(np.diff(windows) < 0), f"seed {seed}: windows {windows}"

    def test_empty_training_set_rejected(self):
        (train_s, valid_s, _), dcfg = tiny_data()
        state = init_state(tiny_encoder_cfg(dcfg), seed=0)
        with pytest.raises(ValueError):
            Trainer(train_s[:0], valid_s, state, TrainConfig())

    def test_empty_valid_returns_final_state(self):
        (train_s, valid_s, _), dcfg = tiny_data()
        ecfg = tiny_encoder_cfg(dcfg)
        cfg = TrainConfig(batch_size=8, learning_rate=3e-3, max_iters=10, seed=0)
        for empty in (None, valid_s[:0]):
            trainer = Trainer(train_s, empty, init_state(ecfg, seed=0), cfg)
            trainer.run()
            assert trainer.best_state() is trainer.state

    def test_best_state_tracks_validation(self):
        (train_s, valid_s, _), dcfg = tiny_data()
        ecfg = tiny_encoder_cfg(dcfg)
        cfg = TrainConfig(batch_size=8, learning_rate=5e-3, max_iters=40, seed=0, eval_every=5)
        state = init_state(ecfg, seed=0)
        trainer = Trainer(train_s, valid_s, state, cfg)
        trainer.run()
        f1s = [r["valid_micro_f1"] for r in trainer.history if "valid_micro_f1" in r]
        assert trainer.best_validation_f1 == max(f1s)

    def test_history_record_fields(self):
        (train_s, valid_s, _), dcfg = tiny_data()
        ecfg = tiny_encoder_cfg(dcfg)
        cfg = TrainConfig(batch_size=8, learning_rate=3e-3, max_iters=6, seed=0, eval_every=3)
        _, history = train(train_s, valid_s, ecfg, cfg)
        assert len(history) == 6
        assert all({"iteration", "bce", "con", "total"} <= set(r) for r in history)
        assert "valid_micro_f1" in history[2]

    def test_checkpoint_resume_is_bit_exact(self, tmp_path):
        (train_s, valid_s, _), dcfg = tiny_data()
        ecfg = tiny_encoder_cfg(dcfg)
        cfg = TrainConfig(batch_size=8, learning_rate=3e-3, max_iters=20, seed=3, eval_every=4)

        # uninterrupted 20 iterations
        state_a = init_state(ecfg, seed=cfg.seed)
        trainer_a = Trainer(train_s, valid_s, state_a, cfg)
        trainer_a.run()

        # 10 iterations, checkpoint, reload, 10 more
        state_b = init_state(ecfg, seed=cfg.seed)
        trainer_b = Trainer(train_s, valid_s, state_b, cfg)
        trainer_b.run(num_iters=10)
        ckpt = tmp_path / "trainer.json"
        trainer_b.save_checkpoint(ckpt)
        trainer_c = Trainer.load_checkpoint(ckpt, train_s, valid_s)
        trainer_c.run()

        # the checkpoint holds the bytes json.dump writes for its payload
        text = ckpt.read_text()
        stream = io.StringIO()
        json.dump(json.loads(text), stream)
        assert stream.getvalue() == text

        assert trainer_c.iteration == trainer_a.iteration
        assert trainer_c.history == trainer_a.history
        for (_, a), (_, b) in zip(trainer_a.state.param_items(), trainer_c.state.param_items()):
            np.testing.assert_array_equal(a, b)
        for name in trainer_a.adam.m:
            np.testing.assert_array_equal(trainer_a.adam.m[name], trainer_c.adam.m[name])
            np.testing.assert_array_equal(trainer_a.adam.v[name], trainer_c.adam.v[name])

    def _saved_payload(self, tmp_path):
        (train_s, valid_s, _), dcfg = tiny_data()
        trainer = Trainer(train_s, valid_s, init_state(tiny_encoder_cfg(dcfg), seed=0), TrainConfig(batch_size=8, max_iters=4))
        trainer.run(num_iters=2)
        path = tmp_path / "trainer.json"
        trainer.save_checkpoint(path)
        return json.loads(path.read_text()), path, train_s, valid_s

    def test_version_1_checkpoint_rejected(self, tmp_path):
        # version 1 held a train.dropout_rate field that no longer exists
        payload, path, train_s, valid_s = self._saved_payload(tmp_path)
        payload["version"] = 1
        payload["config"]["dropout_rate"] = None
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match="unsupported version 1"):
            Trainer.load_checkpoint(path, train_s, valid_s)

    def test_version_2_checkpoint_rejected(self, tmp_path):
        # version 2 held the adam_beta1, adam_beta2 and adam_eps train fields
        payload, path, train_s, valid_s = self._saved_payload(tmp_path)
        payload["version"] = 2
        payload["config"].update(adam_beta1=0.9, adam_beta2=0.999, adam_eps=1e-8)
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match="unsupported version 2"):
            Trainer.load_checkpoint(path, train_s, valid_s)

    @pytest.mark.parametrize(
        "case,message",
        [
            ("config batch_size 8.5", "batch_size must be an integer"),
            ("iteration 3.5", "iteration must be an integer"),
            ("cursor true", "cursor must be an integer"),
            ("adam step 2.0", "step must be an integer"),
            ("best micro_f1 text", "best micro_f1 must be a finite number"),
            ("order of floats", "order must hold integers"),
        ],
    )
    def test_a_value_of_the_wrong_kind_is_rejected_at_load(self, tmp_path, case, message):
        # nothing is rounded or converted, so a bad value fails here and not
        # later in run()
        payload, path, train_s, valid_s = self._saved_payload(tmp_path)
        if case == "config batch_size 8.5":
            payload["config"]["batch_size"] = 8.5
        elif case == "iteration 3.5":
            payload["iteration"] = 3.5
        elif case == "cursor true":
            payload["cursor"] = True
        elif case == "adam step 2.0":
            payload["adam"]["step"] = 2.0
        elif case == "best micro_f1 text":
            payload["best"]["micro_f1"] = "0.5"
        else:
            payload["order"] = [float(i) for i in payload["order"]]
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match=f"trainer.json: malformed trainer checkpoint.*{message}"):
            Trainer.load_checkpoint(path, train_s, valid_s)

    @pytest.mark.parametrize(
        "case",
        ["fewer samples", "more samples", "a repeated row", "a nested order", "cursor past the order", "negative cursor",
         "cursor on an empty order"],
    )
    def test_an_epoch_that_does_not_fit_the_training_set_is_rejected_at_load(self, tmp_path, case):
        # a resume on other samples fails here, naming both sizes, and not
        # later with an IndexError inside PackedSamples.take
        payload, path, train_s, valid_s = self._saved_payload(tmp_path)
        n = len(train_s)
        assert sorted(payload["order"]) == list(range(n)) and payload["cursor"] == 16
        size = n
        if case == "fewer samples":
            train_s = train_s[:40]
            size = 40
        elif case == "more samples":
            train_s = train_s.take([*range(n), 0])
            size = n + 1
        elif case == "a repeated row":
            payload["order"][0] = payload["order"][1]
        elif case == "a nested order":
            payload["order"] = [payload["order"]]
        elif case == "cursor past the order":
            payload["cursor"] = n + 1
        elif case == "negative cursor":
            payload["cursor"] = -1
        else:
            payload["order"], payload["cursor"] = [], 8
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match=rf"trainer.json: the saved epoch order of \d+ rows .* training set of {size} samples"):
            Trainer.load_checkpoint(path, train_s, valid_s)

    def test_an_empty_epoch_order_resumes(self, tmp_path):
        payload, path, train_s, valid_s = self._saved_payload(tmp_path)
        payload["order"], payload["cursor"] = [], 0
        path.write_text(json.dumps(payload))
        trainer = Trainer.load_checkpoint(path, train_s, valid_s)
        trainer.run(num_iters=1)
        assert trainer.iteration == 3

    @pytest.mark.parametrize("case", ["no adam", "unknown config key", "iteration not a number", "misshapen moment"])
    def test_malformed_checkpoint_raises_checkpoint_error(self, tmp_path, case):
        payload, path, train_s, valid_s = self._saved_payload(tmp_path)
        if case == "no adam":
            del payload["adam"]
        elif case == "unknown config key":
            payload["config"]["dropout_rate"] = 0.3
        elif case == "iteration not a number":
            payload["iteration"] = "x"
        else:
            payload["adam"]["v"]["b_in"] = [0.0]
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match="trainer.json"):
            Trainer.load_checkpoint(path, train_s, valid_s)

    @pytest.mark.parametrize("which,name,value", [("m", "w_clf", float("nan")), ("v", "b_in", float("inf"))])
    def test_non_finite_adam_moment_is_rejected_at_load(self, tmp_path, which, name, value):
        # json reads NaN and Infinity; a damaged moment fails at load, named,
        # not as a non-finite loss steps later
        payload, path, train_s, valid_s = self._saved_payload(tmp_path)
        moment = np.asarray(payload["adam"][which][name])
        moment.flat[0] = value
        payload["adam"][which][name] = moment.tolist()
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match=rf"Adam {which}\[{name}\] holds a NaN or inf"):
            Trainer.load_checkpoint(path, train_s, valid_s)

    @pytest.mark.parametrize("param,alpha", [("w_clf", 0.3), ("b_emb", 0.3), ("b_emb", 0.0)])
    def test_non_finite_loss_names_the_iteration(self, param, alpha):
        # a poisoned classifier weight makes BCE NaN; a poisoned embedding
        # bias makes both losses NaN, caught even when alpha = 0
        (train_s, valid_s, _), dcfg = tiny_data()
        trainer = Trainer(
            train_s, valid_s, init_state(tiny_encoder_cfg(dcfg), seed=0),
            TrainConfig(batch_size=8, learning_rate=3e-3, alpha=alpha, max_iters=10, seed=0),
        )
        trainer.run(3)
        getattr(trainer.state, param)[0] = np.nan
        before = {name: arr.copy() for name, arr in trainer.state.param_items()}
        with pytest.raises(NonFiniteLossError, match="iteration 4"):
            trainer.step()
        # the failing step applied no update
        assert trainer.iteration == 3 and trainer.adam.step == 3
        for name, arr in trainer.state.param_items():
            np.testing.assert_array_equal(arr, before[name])

    def test_a_library_config_of_the_wrong_kind_fails_in_validate(self):
        (train_s, valid_s, _), dcfg = tiny_data()
        with pytest.raises(TypeError, match="batch_size must be an integer, got 32.5"):
            Trainer(train_s, valid_s, init_state(tiny_encoder_cfg(dcfg), seed=0), TrainConfig(batch_size=32.5))
        with pytest.raises(TypeError, match="hidden_dim must be an integer, got 2.7"):
            EncoderConfig(30, 2.7, 4, 6).validate()

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0).validate()
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=-1e-3).validate()
        with pytest.raises(ValueError):
            TrainConfig(tau1=0.0).validate()
        with pytest.raises(ValueError):
            TrainConfig(variant="other").validate()


class TestWorkspace:
    """The trainer keeps one (2N, 2N) pair for the contrastive loss across
    steps; nothing of one step may reach another."""

    @staticmethod
    def _check_each_step_against_fresh_buffers(monkeypatch, trainer):
        """Make every batch_gradients call of ``trainer`` also run from a copy
        of its state and rng without a workspace, and assert the same bits;
        returns the list of checked steps."""
        real = training.batch_gradients
        checked = []

        def checking(state, views, **kwargs):
            assert kwargs["workspace"] is trainer._workspace
            fresh_rng = make_rng(0)
            fresh_rng.bit_generator.state = kwargs["rng"].bit_generator.state
            want = real(state.copy(), views, **{**kwargs, "rng": fresh_rng, "workspace": None})
            got = real(state, views, **kwargs)
            for a, b in zip(got[:3], want[:3]):
                assert np.float64(a).tobytes() == np.float64(b).tobytes()
            for name, g in got[3].param_items():
                assert g.tobytes() == getattr(want[3], name).tobytes(), name
                assert not any(np.shares_memory(g, buf) for buf in trainer._workspace), name
            assert got[4].tobytes() == want[4].tobytes()
            checked.append(trainer.iteration + 1)
            return got

        monkeypatch.setattr(training, "batch_gradients", checking)
        return checked

    @pytest.mark.parametrize("variant", ["dcl", "ucl", "scl", "wscl"])
    def test_steps_with_the_kept_workspace_equal_fresh_buffers(self, monkeypatch, variant):
        (train_s, valid_s, _), dcfg = tiny_data()
        cfg = TrainConfig(batch_size=8, learning_rate=3e-3, alpha=0.5, max_iters=5, seed=2, variant=variant)
        trainer = Trainer(train_s, valid_s, init_state(tiny_encoder_cfg(dcfg), seed=2), cfg)
        checked = self._check_each_step_against_fresh_buffers(monkeypatch, trainer)
        trainer.run()
        assert checked == [1, 2, 3, 4, 5]

    def test_a_batch_size_beyond_the_training_set_uses_the_whole_set(self, monkeypatch):
        (train_s, valid_s, _), dcfg = tiny_data()
        cfg = TrainConfig(batch_size=50, learning_rate=3e-3, alpha=0.5, max_iters=4, seed=1, variant="wscl")
        trainer = Trainer(train_s[:7], valid_s, init_state(tiny_encoder_cfg(dcfg), seed=1), cfg)
        assert [buf.shape for buf in trainer._workspace] == [(14, 14), (14, 14)]
        checked = self._check_each_step_against_fresh_buffers(monkeypatch, trainer)
        history = trainer.run()
        assert checked == [1, 2, 3, 4]
        assert all(np.isfinite(r["total"]) for r in history)

    def test_a_library_call_returns_arrays_of_its_own(self):
        (train_s, _, _), dcfg = tiny_data()
        state = init_state(tiny_encoder_cfg(dcfg), seed=0)
        rows = np.arange(6)
        first_views, second_views = (train_s.take(np.concatenate([r, r])) for r in (rows, rows + 6))
        first = training.batch_gradients(state, first_views, 0.5, 0.05, "wscl", rng=make_rng(0))
        kept = {name: g.copy() for name, g in first[3].param_items()}
        training.batch_gradients(state, second_views, 0.5, 0.05, "wscl", rng=make_rng(1))
        for name, g in first[3].param_items():
            np.testing.assert_array_equal(g, kept[name])
