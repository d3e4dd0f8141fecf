"""Adam updates, training determinism, and checkpoint resume."""
import numpy as np
import pytest

from knnmlc.data import DatasetConfig, generate_synthetic
from knnmlc.encoder import EncoderConfig, ParameterGradients, init_state
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


class TestAdam:
    def _state(self):
        return init_state(EncoderConfig(2, 2, 2, 2, dropout_rate=0.0), seed=0)

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
            _, history = train(train_s, [], ecfg, cfg)
            totals = np.array([r["total"] for r in history])
            windows = totals.reshape(5, 10).mean(axis=1)
            assert np.all(np.diff(windows) < 0), f"seed {seed}: windows {windows}"

    def test_empty_training_set_rejected(self):
        (_, valid_s, _), dcfg = tiny_data()
        state = init_state(tiny_encoder_cfg(dcfg), seed=0)
        with pytest.raises(ValueError):
            Trainer([], valid_s, state, TrainConfig())

    def test_empty_valid_returns_final_state(self):
        (train_s, _, _), dcfg = tiny_data()
        ecfg = tiny_encoder_cfg(dcfg)
        cfg = TrainConfig(batch_size=8, learning_rate=3e-3, max_iters=10, seed=0)
        state = init_state(ecfg, seed=0)
        trainer = Trainer(train_s, [], state, cfg)
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

        assert trainer_c.iteration == trainer_a.iteration
        assert trainer_c.history == trainer_a.history
        for (_, a), (_, b) in zip(trainer_a.state.param_items(), trainer_c.state.param_items()):
            np.testing.assert_array_equal(a, b)
        for name in trainer_a.adam.m:
            np.testing.assert_array_equal(trainer_a.adam.m[name], trainer_c.adam.m[name])
            np.testing.assert_array_equal(trainer_a.adam.v[name], trainer_c.adam.v[name])

    def test_dropout_override_leaves_caller_config(self):
        (train_s, valid_s, _), dcfg = tiny_data()
        ecfg = tiny_encoder_cfg(dcfg)
        state = init_state(ecfg, seed=0)
        trainer = Trainer(train_s, valid_s, state, TrainConfig(batch_size=8, max_iters=2, dropout_rate=0.3))
        assert ecfg.dropout_rate == 0.1
        assert trainer.state.config.dropout_rate == 0.3

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

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0).validate()
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=-1e-3).validate()
        with pytest.raises(ValueError):
            TrainConfig(tau1=0.0).validate()
        with pytest.raises(ValueError):
            TrainConfig(variant="other").validate()
