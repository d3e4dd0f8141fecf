"""Adam updates, training determinism, and checkpoint resume."""
import dataclasses
import functools
import json
import logging
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knnmlc.data import DatasetConfig, generate_synthetic
from knnmlc import training
from knnmlc.encoder import CheckpointError, EncoderConfig, ParameterGradients, _flat_views, init_state
from knnmlc.mathops import make_rng, unit_rows
from knnmlc.training import AdamState, NonFiniteLossError, TrainConfig, Trainer, adam_step, train
import oracles


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


class _Tripwire:
    """Counts its own unpickling: a checkpoint member holding one must be
    refused without it."""

    unpickled = 0

    def __reduce__(self):
        return _trip, ()


def _trip():
    _Tripwire.unpickled += 1
    return _Tripwire()


def moment_views(adam, state):
    """{name: (m, v)}: each parameter's moments, views of the flat moments."""
    views = zip(_flat_views(adam.m_flat, state.shapes), _flat_views(adam.v_flat, state.shapes))
    return dict(zip((name for name, _ in state.param_items()), views))


def ref_adam_step(state, grads, adam, lr, betas=(0.9, 0.999), eps=1e-8):
    """Adam as the textbook expression, one temporary per operation: the
    oracle of the in-place update."""
    b1, b2 = betas
    adam.step += 1
    t = adam.step
    moments = moment_views(adam, state)
    for name, theta in state.param_items():
        g = getattr(grads, name)
        m, v = moments[name]
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
            got, want = moment_views(adam, state), moment_views(ref_adam, ref_state)
            for name, arr in state.param_items():
                ref = getattr(ref_state, name)
                assert arr.tobytes() == ref.tobytes(), (step, name)
                assert got[name][0].tobytes() == want[name][0].tobytes(), (step, name)
                assert got[name][1].tobytes() == want[name][1].tobytes(), (step, name)

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
        m, v = moment_views(adam, state)["w_in"]
        m[...] = 1.0
        v[...] = 1.0
        for step in range(5):
            m_prev = m.copy()
            v_prev = v.copy()
            adam_step(state, ParameterGradients.zeros_like(state), adam, lr=0.1)
            np.testing.assert_allclose(m, 0.9 * m_prev, rtol=1e-12)
            np.testing.assert_allclose(v, 0.999 * v_prev, rtol=1e-12)

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
            # the trained float32 state, upcast exactly
            best = trainer.best_state()
            assert best.flat.dtype == np.float64 and trainer.state.flat.dtype == np.float32
            assert best.flat.tobytes() == trainer.state.flat.astype(np.float64).tobytes()

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
        # the loaded trainer holds the saved bits, the best state and both moments included
        for got, want in [(trainer_c.state, trainer_b.state), (trainer_c.best_state(), trainer_b.best_state())]:
            assert got.flat.tobytes() == want.flat.tobytes()
        assert trainer_c.adam.m_flat.tobytes() == trainer_b.adam.m_flat.tobytes()
        assert trainer_c.adam.v_flat.tobytes() == trainer_b.adam.v_flat.tobytes()
        trainer_c.run()

        # the checkpoint is the container: exactly its members, of their dtypes
        with np.load(ckpt, allow_pickle=False) as npz:
            assert {name: (npz[name].dtype, npz[name].ndim) for name in npz.files} == training._TRAINER_MEMBERS

        assert trainer_c.iteration == trainer_a.iteration
        assert trainer_c.history == trainer_a.history
        assert trainer_c.state.flat.tobytes() == trainer_a.state.flat.tobytes()
        assert trainer_c.best_state().flat.tobytes() == trainer_a.best_state().flat.tobytes()
        assert trainer_c.adam.step == trainer_a.adam.step
        assert trainer_c.adam.m_flat.tobytes() == trainer_a.adam.m_flat.tobytes()
        assert trainer_c.adam.v_flat.tobytes() == trainer_a.adam.v_flat.tobytes()
        assert trainer_c.rng.bit_generator.state == trainer_a.rng.bit_generator.state

    # validated at steps 3 and 6 and, closing the run, at step 7
    RESUME_CFG = TrainConfig(batch_size=8, learning_rate=3e-3, max_iters=7, seed=4, eval_every=3)

    @staticmethod
    @functools.cache
    def _uninterrupted():
        (train_s, valid_s, _), dcfg = tiny_data()
        trainer = Trainer(train_s, valid_s, init_state(tiny_encoder_cfg(dcfg), seed=4), TestTrainer.RESUME_CFG)
        trainer.run()
        return trainer, train_s, valid_s, tiny_encoder_cfg(dcfg)

    @settings(max_examples=16, deadline=None)
    @given(stop=st.integers(0, 7), closed=st.booleans())
    def test_a_save_at_any_iteration_resumes_to_the_uninterrupted_run(self, stop, closed):
        # saved before any step, between steps, after the last step, or
        # (stop 7, closed) after the closing validation too
        want, train_s, valid_s, ecfg = self._uninterrupted()
        trainer = Trainer(train_s, valid_s, init_state(ecfg, seed=4), self.RESUME_CFG)
        if stop == 7 and closed:
            trainer.run()
        for _ in range(trainer.iteration, stop):
            trainer.step()
        with tempfile.TemporaryDirectory() as tmp:
            trainer.save_checkpoint(Path(tmp) / "trainer.npz")
            got = Trainer.load_checkpoint(Path(tmp) / "trainer.npz", train_s, valid_s)
        assert (got.iteration, got.adam.step, got.history) == (stop, stop, trainer.history)
        got.run()
        assert got.history == want.history
        assert got.best_validation_f1 == want.best_validation_f1
        for a, b in [(got.state, want.state), (got.best_state(), want.best_state())]:
            assert a.flat.tobytes() == b.flat.tobytes()
        assert got.adam.step == want.adam.step == 7
        assert got.adam.m_flat.tobytes() == want.adam.m_flat.tobytes()
        assert got.adam.v_flat.tobytes() == want.adam.v_flat.tobytes()
        assert got.rng.bit_generator.state == want.rng.bit_generator.state

    def _saved(self, tmp_path, iters=2, **cfg):
        """A trainer ``iters`` steps into a run of TrainConfig(batch_size=8,
        max_iters=4, **cfg), saved: its header, its other members, the path
        and the samples."""
        (train_s, valid_s, _), dcfg = tiny_data()
        cfg = TrainConfig(**{"batch_size": 8, "max_iters": 4, **cfg})
        trainer = Trainer(train_s, valid_s, init_state(tiny_encoder_cfg(dcfg), seed=0), cfg)
        trainer.run(num_iters=iters)
        path = tmp_path / "trainer.json"
        trainer.save_checkpoint(path)
        with np.load(path, allow_pickle=False) as npz:
            arrays = dict(npz)
        return json.loads(arrays.pop("header").tobytes()), arrays, path, train_s, valid_s

    @staticmethod
    def _rewrite(path, header, arrays):
        with open(path, "wb") as fh:
            np.savez(fh, header=np.frombuffer(json.dumps(header).encode("utf-8"), dtype=np.uint8), **arrays)

    @pytest.mark.parametrize("version", [1, 2, 3, 4, 5])
    def test_an_older_version_header_is_rejected(self, tmp_path, version):
        header, arrays, path, train_s, valid_s = self._saved(tmp_path)
        header["version"] = version
        self._rewrite(path, header, arrays)
        with pytest.raises(CheckpointError, match=f"unsupported version {version}"):
            Trainer.load_checkpoint(path, train_s, valid_s)

    @pytest.mark.parametrize("case", ["version 3 json", "empty", "npy", "text", "truncated"])
    def test_a_file_that_is_not_a_container_is_one_checkpoint_error(self, tmp_path, case):
        # an old JSON trainer checkpoint, or any other file, is refused as not
        # a container: no BadZipFile, ValueError or EOFError reaches the caller
        header, arrays, path, train_s, valid_s = self._saved(tmp_path)
        if case == "version 3 json":
            # the layout before the container: one JSON object, the moments as nested lists
            names = ("w_in", "b_in", "w_emb", "b_emb", "w_clf", "b_clf")
            shapes = init_state(tiny_encoder_cfg(tiny_data()[1]), seed=0).shapes
            nested = {
                which: {name: view.tolist() for name, view in zip(names, _flat_views(arrays[f"adam_{which}"], shapes))}
                for which in ("m", "v")
            }
            params = dict(zip(names, (view.tolist() for view in _flat_views(arrays["params"], shapes))))
            payload = {
                "format": "knnmlc-trainer", "version": 3, "config": header["config"],
                "iteration": 2, "encoder": {**header["encoder"], "params": params},
                "adam": {"step": 2, **nested}, "rng_state": header["rng_state"],
                "order": arrays["order"].tolist(), "cursor": header["cursor"],
                "best": {"micro_f1": -1.0, "iteration": 0, "encoder": None},
                "history": header["history"],
            }
            path.write_text(json.dumps(payload))
        elif case == "empty":
            path.write_bytes(b"")
        elif case == "npy":
            with open(path, "wb") as fh:
                np.save(fh, arrays["params"])
        elif case == "text":
            path.write_bytes(b"PK but not a zip")
        else:
            path.write_bytes(path.read_bytes()[:200])
        with pytest.raises(CheckpointError, match=r"trainer.json: not a trainer checkpoint container \(not an npz archive\)"):
            Trainer.load_checkpoint(path, train_s, valid_s)

    # each hostile container and the message that names its member
    HOSTILE = {
        "an object member": r"not a trainer checkpoint container \(member order is missing or unreadable",
        "no adam_v": r"not a trainer checkpoint container \(member adam_v is missing",
        "a float64 adam_m": r"not a trainer checkpoint container \(member adam_m must be 1-d float32, got 1-d float64",
        "a float order": r"not a trainer checkpoint container \(member order must be 1-d int64, got 1-d float64",
        "a nested order": r"not a trainer checkpoint container \(member order must be 1-d int64, got 2-d int64",
        "a best_params of another size": r"malformed trainer checkpoint \(.*best_params \(5, or 0\)",
    }

    @pytest.mark.parametrize("case", HOSTILE)
    def test_a_hostile_container_is_refused_naming_the_member(self, tmp_path, case):
        header, arrays, path, train_s, valid_s = self._saved(tmp_path)
        if case == "an object member":
            arrays["order"] = np.array([_Tripwire()], dtype=object)
        elif case == "no adam_v":
            del arrays["adam_v"]
        elif case == "a float64 adam_m":
            arrays["adam_m"] = arrays["adam_m"].astype(np.float64)
        elif case == "a float order":
            arrays["order"] = arrays["order"].astype(np.float64)
        elif case == "a nested order":
            arrays["order"] = arrays["order"][None, :]
        else:
            arrays["best_params"] = arrays["params"][:5]
        self._rewrite(path, header, arrays)
        _Tripwire.unpickled = 0
        with pytest.raises(CheckpointError, match=f"trainer.json: {self.HOSTILE[case]}"):
            Trainer.load_checkpoint(path, train_s, valid_s)
        assert _Tripwire.unpickled == 0
        if case == "an object member":
            # the member does unpickle a tripwire when pickles are allowed
            with np.load(path, allow_pickle=True) as npz:
                npz["order"]
            assert _Tripwire.unpickled == 1

    @pytest.mark.parametrize(
        "case,message",
        [
            ("config batch_size 8.5", "batch_size must be an integer"),
            ("cursor true", "cursor must be an integer"),
        ],
    )
    def test_a_value_of_the_wrong_kind_is_rejected_at_load(self, tmp_path, case, message):
        # nothing is rounded or converted, so a bad value fails here and not
        # later in run()
        header, arrays, path, train_s, valid_s = self._saved(tmp_path)
        if case == "config batch_size 8.5":
            header["config"]["batch_size"] = 8.5
        else:
            header["cursor"] = True
        self._rewrite(path, header, arrays)
        with pytest.raises(CheckpointError, match=f"trainer.json: malformed trainer checkpoint.*{message}"):
            Trainer.load_checkpoint(path, train_s, valid_s)

    @pytest.mark.parametrize(
        "case",
        ["fewer samples", "more samples", "a repeated row", "cursor past the order", "negative cursor",
         "cursor on an empty order"],
    )
    def test_an_epoch_that_does_not_fit_the_training_set_is_rejected_at_load(self, tmp_path, case):
        # a resume on other samples fails here, naming both sizes, and not
        # later with an IndexError inside PackedSamples.take
        header, arrays, path, train_s, valid_s = self._saved(tmp_path)
        n = len(train_s)
        assert sorted(arrays["order"]) == list(range(n)) and header["cursor"] == 16
        size = n
        if case == "fewer samples":
            train_s = train_s[:40]
            size = 40
        elif case == "more samples":
            train_s = oracles.take(train_s, [*range(n), 0])
            size = n + 1
        elif case == "a repeated row":
            arrays["order"][0] = arrays["order"][1]
        elif case == "cursor past the order":
            header["cursor"] = n + 1
        elif case == "negative cursor":
            header["cursor"] = -1
        else:
            arrays["order"], header["cursor"] = np.empty(0, dtype=np.int64), 8
        self._rewrite(path, header, arrays)
        with pytest.raises(CheckpointError, match=rf"trainer.json: the saved epoch order of \d+ rows .* training set of {size} samples"):
            Trainer.load_checkpoint(path, train_s, valid_s)

    # each history that is not one of step's records, or that disagrees with
    # best_params (the saved trainer is two steps in, both validated), how it
    # is made and the message naming the record and field
    HISTORY = {
        "not a list": (lambda h, a: h.update(history={"0": h["history"][0]}),
                       r"history must be a list of records, got dict"),
        "a record not an object": (lambda h, a: h["history"].__setitem__(1, 5),
                                   r"history record 1 must be an object of the keys .*, got int"),
        "a record without a loss": (lambda h, a: h["history"][0].pop("con"),
                                    r"history record 0 must be an object .*got \['bce', 'iteration', 'total', 'valid"),
        "a record with another key": (lambda h, a: h["history"][0].update(lr=0.1),
                                      r"history record 0 must be an object .*got \['bce', 'con', 'iteration', 'lr'"),
        "an iteration out of step": (lambda h, a: h["history"][1].update(iteration=1),
                                     r"history record 1 iteration must be 2 \(one record per step\), got 1"),
        "a float iteration": (lambda h, a: h["history"][0].update(iteration=1.0),
                              r"history record 0 iteration must be an integer"),
        "a NaN loss": (lambda h, a: h["history"][0].update(bce=float("nan")),
                       r"history record 0 bce must be a finite number"),
        "an inf total": (lambda h, a: h["history"][1].update(total=float("inf")),
                         r"history record 1 total must be a finite number"),
        "a loss as text": (lambda h, a: h["history"][1].update(con="0.5"),
                           r"history record 1 con must be a finite number"),
        "an F1 above 1": (lambda h, a: h["history"][1].update(valid_micro_f1=1.5),
                          r"history record 1 valid_micro_f1 must lie in \[0, 1\], got 1.5"),
        "a negative F1": (lambda h, a: h["history"][0].update(valid_micro_f1=-0.25),
                          r"history record 0 valid_micro_f1 must lie in \[0, 1\], got -0.25"),
        "a NaN F1": (lambda h, a: h["history"][0].update(valid_micro_f1=float("nan")),
                     r"history record 0 valid_micro_f1 must be a finite number"),
        "no best_params though validated": (lambda h, a: a.update(best_params=a["best_params"][:0]),
                                            r"best_params holds 0 values, but a validation is recorded"),
        "best_params though never validated": (lambda h, a: [r.pop("valid_micro_f1") for r in h["history"]],
                                               r"best_params holds \d+ values, but no validation is recorded"),
    }

    @pytest.mark.parametrize("case", HISTORY)
    def test_a_history_that_is_not_the_steps_records_is_rejected_naming_the_field(self, tmp_path, case):
        header, arrays, path, train_s, valid_s = self._saved(tmp_path, eval_every=1)
        assert [sorted(r) for r in header["history"]] == [["bce", "con", "iteration", "total", "valid_micro_f1"]] * 2
        make, message = self.HISTORY[case]
        make(header, arrays)
        self._rewrite(path, header, arrays)
        with pytest.raises(CheckpointError, match=rf"^\S*trainer.json: malformed trainer checkpoint \(.*{message}"):
            Trainer.load_checkpoint(path, train_s, valid_s)

    # the three ways a version 5 checkpoint could claim a best validation its
    # members do not hold, made on a 6-iteration run validated every 3rd
    PROBES = {
        # loaded, and best_state() silently gave the current state
        "best_params emptied": (lambda h, a: a.update(best_params=a["best_params"][:0]),
                                r"malformed trainer checkpoint \(.*best_params holds 0 values, but a validation is recorded"),
        # loaded, reported 0.99, and no later validation could replace the best
        "a best_micro_f1 of 0.99": (lambda h, a: h.update(best_micro_f1=0.99),
                                    r"the header must hold the keys .*, got \[.*'best_micro_f1'"),
        # loaded, and training went on
        "history as range(6)": (lambda h, a: h.update(history=list(range(6))),
                                r"malformed trainer checkpoint \(.*history record 0 must be an object .*, got int"),
    }

    @pytest.mark.parametrize("case", PROBES)
    def test_a_best_validation_the_members_do_not_hold_is_refused(self, tmp_path, case):
        header, arrays, path, train_s, valid_s = self._saved(tmp_path, iters=6, max_iters=6, eval_every=3)
        assert [r.get("valid_micro_f1") is not None for r in header["history"]] == [False, False, True] * 2
        make, message = self.PROBES[case]
        make(header, arrays)
        self._rewrite(path, header, arrays)
        with pytest.raises(CheckpointError, match=rf"^\S*trainer.json: {message}"):
            Trainer.load_checkpoint(path, train_s, valid_s)

    def test_the_counters_are_the_history_length_and_its_best(self, tmp_path):
        header, arrays, path, train_s, valid_s = self._saved(tmp_path, iters=6, max_iters=6, eval_every=3)
        trainer = Trainer.load_checkpoint(path, train_s, valid_s)
        f1s = [r["valid_micro_f1"] for r in header["history"] if "valid_micro_f1" in r]
        assert (trainer.iteration, trainer.adam.step, trainer.best_validation_f1) == (6, 6, max(f1s))
        with pytest.raises(AttributeError):
            trainer.iteration = 5

    # each way the history and the saved epoch can disagree (120 training
    # samples, batches of 8: 15 per epoch), and the message naming both cursors
    CURSORS = {
        # loaded as step 4 with the parameters and moments of step 5
        "the last of 5 records cut": (5, lambda h, a: h["history"].pop(),
                                      r"cursor is 40 over an epoch order of 120 rows, but the history's 4 steps of 8 "
                                      r"samples leave it at 32, over 120 rows"),
        "an empty order after 2 steps": (2, lambda h, a: a.update(order=a["order"][:0]) or h.update(cursor=0),
                                         r"cursor is 0 over an epoch order of 0 rows, but the history's 2 steps of 8 "
                                         r"samples leave it at 16, over 120 rows"),
        "a full order before the first step": (0, lambda h, a: a.update(order=np.arange(120)),
                                               r"cursor is 0 over an epoch order of 120 rows, but the history's 0 steps "
                                               r"of 8 samples leave it at 0, over 0 rows"),
    }

    @pytest.mark.parametrize("case", CURSORS)
    def test_a_history_that_does_not_leave_the_saved_cursor_is_refused_naming_both(self, tmp_path, case):
        iters, make, message = self.CURSORS[case]
        header, arrays, path, train_s, valid_s = self._saved(tmp_path, iters=iters, max_iters=6)
        assert len(train_s) == 120 and len(header["history"]) == iters
        make(header, arrays)
        self._rewrite(path, header, arrays)
        with pytest.raises(CheckpointError, match=rf"^\S*trainer.json: the saved {message}$"):
            Trainer.load_checkpoint(path, train_s, valid_s)

    @pytest.mark.parametrize("n, batch_size", [(120, 8), (120, 7), (7, 7), (9, 4), (5, 50), (64, 64)])
    def test_the_saved_cursor_follows_from_the_step_count(self, n, batch_size):
        (train_s, _, _), dcfg = tiny_data()
        trainer = Trainer(train_s[:n], None, init_state(tiny_encoder_cfg(dcfg), seed=0),
                          TrainConfig(batch_size=batch_size, max_iters=40))
        for steps in range(41):
            assert trainer._cursor == training._saved_cursor(steps, min(batch_size, n), n)
            assert trainer._order.size == (n if steps else 0)
            if steps < 40:
                trainer.step()

    @pytest.mark.parametrize(
        "case", ["no history", "unknown config key", "a version 5 counter", "misshapen moment", "header not json",
                 "header not an object", "encoder dims that do not fit params"],
    )
    def test_malformed_checkpoint_raises_checkpoint_error(self, tmp_path, case):
        header, arrays, path, train_s, valid_s = self._saved(tmp_path)
        if case == "no history":
            del header["history"]
        elif case == "unknown config key":
            header["config"]["dropout_rate"] = 0.3
        elif case == "a version 5 counter":
            header["adam_step"] = 2
        elif case == "misshapen moment":
            arrays["adam_v"] = arrays["adam_v"][:-1]
        elif case == "encoder dims that do not fit params":
            header["encoder"]["dims"]["hidden_dim"] += 1
        if case.startswith("header not"):
            raw = b"\xff{" if case == "header not json" else b"[1, 2]"
            with open(path, "wb") as fh:
                np.savez(fh, header=np.frombuffer(raw, dtype=np.uint8), **arrays)
        else:
            self._rewrite(path, header, arrays)
        with pytest.raises(CheckpointError, match="trainer.json"):
            Trainer.load_checkpoint(path, train_s, valid_s)

    @pytest.mark.parametrize("which,name,value", [("m", "w_clf", float("nan")), ("v", "b_in", float("inf"))])
    def test_non_finite_adam_moment_is_rejected_at_load(self, tmp_path, which, name, value):
        # a damaged moment fails at load, named, not as a non-finite loss
        # steps later
        header, arrays, path, train_s, valid_s = self._saved(tmp_path)
        shapes = init_state(tiny_encoder_cfg(tiny_data()[1]), seed=0).shapes
        views = dict(zip(("w_in", "b_in", "w_emb", "b_emb", "w_clf", "b_clf"), _flat_views(arrays[f"adam_{which}"], shapes)))
        views[name].flat[0] = value
        self._rewrite(path, header, arrays)
        with pytest.raises(CheckpointError, match=rf"Adam {which}\[{name}\] holds a NaN or inf"):
            Trainer.load_checkpoint(path, train_s, valid_s)

    def test_a_failed_save_keeps_the_previous_checkpoint(self, tmp_path, monkeypatch):
        header, arrays, path, train_s, valid_s = self._saved(tmp_path)
        before = path.read_bytes()
        trainer = Trainer.load_checkpoint(path, train_s, valid_s)
        trainer.run(num_iters=1)
        real_savez = np.savez

        def failing_savez(fh, **members):
            # half an archive reaches the file, then the write fails
            real_savez(fh, **dict(list(members.items())[:3]))
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(np, "savez", failing_savez)
        with pytest.raises(OSError, match="No space left"):
            trainer.save_checkpoint(path)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert Trainer.load_checkpoint(path, train_s, valid_s).iteration == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["trainer.json"]

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

    def test_validate_s_counts_the_validation_passes_only(self, monkeypatch):
        (train_s, valid_s, _), dcfg = tiny_data()
        cfg = TrainConfig(batch_size=8, max_iters=6, seed=0, eval_every=2)
        unvalidated = Trainer(train_s, None, init_state(tiny_encoder_cfg(dcfg), seed=0), cfg)
        unvalidated.run()
        assert unvalidated.validate_s == 0.0
        # a clock that moves 1 s per reading: each validation pass reads it twice
        ticks = iter(range(1000))
        monkeypatch.setattr(training.time, "perf_counter", lambda: float(next(ticks)))
        trainer = Trainer(train_s, valid_s, init_state(tiny_encoder_cfg(dcfg), seed=0), cfg)
        trainer.run()
        assert sum("valid_micro_f1" in r for r in trainer.history) == 3
        assert trainer.validate_s == 3.0

    @pytest.mark.parametrize("bad", [2, -1])
    def test_a_training_label_other_than_0_or_1_is_refused_by_the_constructor(self, bad):
        (train_s, valid_s, _), dcfg = tiny_data()
        labels = train_s.labels.copy()
        labels[7, 3] = bad
        train_s = dataclasses.replace(train_s, labels=labels)
        with pytest.raises(ValueError, match=rf"^training labels must be 0 or 1, got {bad}$"):
            Trainer(train_s, valid_s, init_state(tiny_encoder_cfg(dcfg), seed=0), TrainConfig(batch_size=8))


class TestWorkspace:
    """The trainer keeps three (2N, 2N) arrays for the contrastive loss and
    its embedding gradient, and its gradient buffer, across steps; nothing
    of one step may reach another."""

    @staticmethod
    def _check_each_step_against_fresh_buffers(monkeypatch, trainer):
        """Make every batch_gradients call of ``trainer`` also run from a copy
        of its state and rng without a workspace, and assert the same bits;
        returns the list of checked steps."""
        real = training.batch_gradients
        checked = []

        def checking(state, batch, **kwargs):
            assert kwargs["workspace"] is trainer._workspace and kwargs["out"] is trainer._grads
            fresh_rng = make_rng(0)
            fresh_rng.bit_generator.state = kwargs["rng"].bit_generator.state
            # fresh arrays for everything: the workspace, the gradients and the batch's terms
            fresh = {"rng": fresh_rng, "workspace": None, "out": None, "terms": None}
            want = real(state.copy(), batch, **{**kwargs, **fresh})
            got = real(state, batch, **kwargs)
            assert got[3] is trainer._grads
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
        assert [buf.shape for buf in trainer._workspace] == [(14, 14)] * 3
        checked = self._check_each_step_against_fresh_buffers(monkeypatch, trainer)
        history = trainer.run()
        assert checked == [1, 2, 3, 4]
        assert all(np.isfinite(r["total"]) for r in history)

    def test_a_library_call_returns_arrays_of_its_own(self):
        (train_s, _, _), dcfg = tiny_data()
        state = init_state(tiny_encoder_cfg(dcfg), seed=0)
        rows = np.arange(6)
        first_batch, second_batch = (train_s.take(r) for r in (rows, rows + 6))
        first = training.batch_gradients(state, first_batch, 0.5, 0.05, "wscl", rng=make_rng(0))
        kept = {name: g.copy() for name, g in first[3].param_items()}
        training.batch_gradients(state, second_batch, 0.5, 0.05, "wscl", rng=make_rng(1))
        for name, g in first[3].param_items():
            np.testing.assert_array_equal(g, kept[name])


class TestChunkedSteps:
    """The trainer gathers its batches a chunk at a time and forms their
    terms once per chunk (``training._chunk_terms``); ``oracles.per_batch_step``
    gathers each batch on its own and lets ``batch_gradients`` form its
    terms in fresh arrays. Both must leave the same bits."""

    STEPS = 20

    @staticmethod
    def _data(vocab_size, n=230):
        # every fifth sample without labels, as in TestPerSampleStep
        cfg = DatasetConfig(num_classes=12, num_clusters=4, train_size=n, valid_size=40, test_size=4,
                            vocab_size=vocab_size, seed=7)
        train_s, valid_s, _ = generate_synthetic(cfg)
        labels = train_s.labels.copy()
        labels[::5] = 0
        return dataclasses.replace(train_s, labels=labels), valid_s, EncoderConfig(vocab_size, 12, 6, 12, dropout_rate=0.1)

    @staticmethod
    def _record_chunks(monkeypatch):
        """The batch count of each chunk the trainer forms, and the input
        branch of each step."""
        chunks, paths = [], []
        real_terms, real_forward = training._chunk_terms, training.forward_batch

        def recording_terms(chunk, size, variant, dtype, kept=None):
            if kept is not None:
                chunks.append(len(chunk) // size)
            return real_terms(chunk, size, variant, dtype, kept)

        def recording_forward(*args, **kwargs):
            trace = real_forward(*args, **kwargs)
            paths.append("dense" if trace.cols is None else "touched")
            return trace

        monkeypatch.setattr(training, "_chunk_terms", recording_terms)
        monkeypatch.setattr(training, "forward_batch", recording_forward)
        return chunks, paths

    @staticmethod
    def _assert_same_bits(got, want):
        assert got.state.flat.dtype == want.state.flat.dtype == np.float32
        assert got.state.flat.tobytes() == want.state.flat.tobytes()
        assert got.adam.m_flat.tobytes() == want.adam.m_flat.tobytes()
        assert got.adam.v_flat.tobytes() == want.adam.v_flat.tobytes()
        assert got.adam.step == want.adam.step
        assert got.history == want.history
        assert got.best_state().flat.tobytes() == want.best_state().flat.tobytes()
        assert got.rng.bit_generator.state == want.rng.bit_generator.state

    # 230 samples in batches of 32: epochs of 7 batches, 6 rows left out of
    # each. The budgets give chunks of 2 or 3 batches, so the epoch's last
    # chunk is shorter
    @pytest.mark.parametrize("vocab_size,path,budget", [(120, "dense", 110_000), (2000, "touched", 60_000)])
    @pytest.mark.parametrize("variant", ["dcl", "ucl", "scl", "wscl"])
    def test_chunked_steps_equal_the_per_batch_steps(self, monkeypatch, variant, vocab_size, path, budget):
        train_s, valid_s, ecfg = self._data(vocab_size)
        cfg = TrainConfig(batch_size=32, learning_rate=3e-3, alpha=0.5, max_iters=self.STEPS, seed=4,
                          variant=variant, eval_every=5)
        monkeypatch.setattr(training, "_CHUNK_BYTES", budget)
        chunks, paths = self._record_chunks(monkeypatch)
        got = Trainer(train_s, valid_s, init_state(ecfg, seed=4), cfg)
        want = Trainer(train_s, valid_s, init_state(ecfg, seed=4), cfg)
        per_chunk = got._chunk_batches
        assert 1 < per_chunk < 7
        got.run()
        for _ in range(self.STEPS):
            oracles.per_batch_step(want)
        want.run()
        # the step's own batches, then the reference's through batch_gradients
        assert paths == [path] * (2 * self.STEPS)
        # three epochs of 7 batches, each cut into full chunks and a shorter last one
        epoch = [per_chunk] * (7 // per_chunk) + [7 % per_chunk]
        assert chunks == (3 * epoch)[: len(chunks)] and sum(chunks) >= self.STEPS > sum(chunks[:-1])
        self._assert_same_bits(got, want)

    @pytest.mark.parametrize("variant", ["dcl", "wscl"])
    def test_a_batch_as_large_as_the_training_set_is_a_chunk_per_step(self, monkeypatch, variant):
        train_s, valid_s, ecfg = self._data(120)
        train_s = train_s[:20]
        cfg = TrainConfig(batch_size=32, learning_rate=3e-3, alpha=0.5, max_iters=6, seed=1, variant=variant)
        chunks, _ = self._record_chunks(monkeypatch)
        got = Trainer(train_s, valid_s, init_state(ecfg, seed=1), cfg)
        want = Trainer(train_s, valid_s, init_state(ecfg, seed=1), cfg)
        got.run()
        for _ in range(6):
            oracles.per_batch_step(want)
        want.run()
        assert chunks == [1] * 6
        self._assert_same_bits(got, want)

    @pytest.mark.parametrize("vocab_size,budget", [(120, 110_000), (2000, 60_000)])
    def test_a_resume_in_the_middle_of_a_chunk_equals_the_uninterrupted_run(self, monkeypatch, tmp_path, vocab_size, budget):
        train_s, valid_s, ecfg = self._data(vocab_size)
        cfg = TrainConfig(batch_size=32, learning_rate=3e-3, alpha=0.5, max_iters=self.STEPS, seed=6,
                          variant="wscl", eval_every=3)
        monkeypatch.setattr(training, "_CHUNK_BYTES", budget)
        chunks, _ = self._record_chunks(monkeypatch)
        whole = Trainer(train_s, valid_s, init_state(ecfg, seed=6), cfg)
        whole.run()
        want = Trainer(train_s, valid_s, init_state(ecfg, seed=6), cfg)
        for _ in range(self.STEPS):
            oracles.per_batch_step(want)
        want.run()
        self._assert_same_bits(whole, want)
        # 8 steps: the second epoch's first batch, the first of a chunk of 2 or 3
        part = Trainer(train_s, valid_s, init_state(ecfg, seed=6), cfg)
        part.run(num_iters=8)
        assert len(part._chunk) > 1 and part._cursor - part._chunk_start == 32
        chunks.clear()
        part.save_checkpoint(tmp_path / "trainer.npz")
        resumed = Trainer.load_checkpoint(tmp_path / "trainer.npz", train_s, valid_s)
        resumed.run()
        # the resumed trainer's first chunk starts at the saved cursor
        assert chunks[0] == min(part._chunk_batches, 6)
        self._assert_same_bits(resumed, whole)


class TestCosineProduct:
    """The training step forms the view cosines as a general product of a
    contiguous copy, ``np.matmul(unit, unit.T.copy(), out=...)``, which
    BLAS runs as gemm; ``unit @ unit.T``, which ``oracles.trainer_step``
    keeps, goes to syrk and a triangle copy. At 2N = 64 and 256 (the
    batches of 32 and 128 that the shipped config and its wide-batch
    variant train at) the two are the same bits. At 2N = 2 and 14 the
    SkylakeX kernel of OpenBLAS 0.3.31 sums some shapes in another order
    ((2, 32), (14, 12) and (14, 32) differ there), so those shapes are held
    to 2 eps; ``docs/formats.md`` says what the training bits depend on."""

    @pytest.mark.parametrize("d", [1, 12, 32])
    @pytest.mark.parametrize("n2", [2, 14, 64, 256])
    def test_the_general_product_against_unit_at_unit_t(self, n2, d):
        unit, _ = unit_rows(np.random.default_rng(100 * n2 + d).normal(size=(n2, d)))
        got = np.full((n2, n2), np.nan)
        np.matmul(unit, unit.T.copy(), out=got)
        want = unit @ unit.T
        if n2 in (64, 256):
            assert got.tobytes() == want.tobytes()
        else:
            np.testing.assert_allclose(got, want, rtol=0.0, atol=2 * np.finfo(np.float64).eps)


class TestPerSampleStep:
    """The step gathers its N samples without ids (``PackedSamples.take``)
    and forms the label work of the contrastive loss on them;
    ``oracles.trainer_step`` gathers them with their ids and runs the
    per-view loss on each sample's labels laid out twice. Both must leave
    the same bits."""

    @staticmethod
    def _data(vocab_size, n=64, empty_every=0):
        cfg = DatasetConfig(num_classes=8, num_clusters=4, train_size=n, valid_size=24, test_size=4,
                            vocab_size=vocab_size, seed=5)
        train_s, valid_s, _ = generate_synthetic(cfg)
        if empty_every:
            labels = train_s.labels.copy()
            labels[::empty_every] = 0
            train_s = dataclasses.replace(train_s, labels=labels)
        return train_s, valid_s, EncoderConfig(vocab_size, 12, 6, 8, dropout_rate=0.1)

    @staticmethod
    def _steps_equal_the_oracle_steps(monkeypatch, variant, vocab_size, path, batch_size, n):
        # every fifth sample without labels: pairs with l_ij = 0 and
        # identical all-zero rows among the scl/wscl positives
        train_s, valid_s, ecfg = TestPerSampleStep._data(vocab_size, n=n, empty_every=5)
        cfg = TrainConfig(batch_size=batch_size, learning_rate=3e-3, alpha=0.5, max_iters=25, seed=4,
                          variant=variant, eval_every=5)
        paths = []
        real_forward = training.forward_batch

        def recording_forward(*args, **kwargs):
            trace = real_forward(*args, **kwargs)
            paths.append("dense" if trace.cols is None else "sparse")
            return trace

        monkeypatch.setattr(training, "forward_batch", recording_forward)
        got = Trainer(train_s, valid_s, init_state(ecfg, seed=4), cfg)
        want = Trainer(train_s, valid_s, init_state(ecfg, seed=4), cfg)
        for _ in range(25):
            got.step()
            oracles.trainer_step(want)
        assert paths == [path] * 25
        # compared in the dtype the trainer runs
        assert got.state.flat.dtype == want.state.flat.dtype == np.float32
        assert got.state.flat.tobytes() == want.state.flat.tobytes()
        assert got.adam.m_flat.tobytes() == want.adam.m_flat.tobytes()
        assert got.adam.v_flat.tobytes() == want.adam.v_flat.tobytes()
        assert got.history == want.history and len(got.history) == 25
        assert got.rng.bit_generator.state == want.rng.bit_generator.state

    @pytest.mark.parametrize("vocab_size,path", [(120, "dense"), (2000, "sparse")])
    @pytest.mark.parametrize("variant", ["dcl", "ucl", "scl", "wscl"])
    def test_25_steps_equal_the_per_view_oracle_step(self, monkeypatch, variant, vocab_size, path):
        self._steps_equal_the_oracle_steps(monkeypatch, variant, vocab_size, path, batch_size=8, n=64)

    # 2N = 256, the wide-batch workload's batch: the trainer's kept workspace
    # and its general cosine product against the oracle's unit @ unit.T
    @pytest.mark.parametrize("vocab_size,path", [(120, "dense"), (8000, "sparse")])
    @pytest.mark.parametrize("variant", ["dcl", "ucl", "scl", "wscl"])
    def test_25_steps_at_batch_128_equal_the_per_view_oracle_step(self, monkeypatch, variant, vocab_size, path):
        self._steps_equal_the_oracle_steps(monkeypatch, variant, vocab_size, path, batch_size=128, n=256)

    def test_take_is_the_rows_without_ids(self):
        train_s, _, _ = self._data(120)
        rows = np.array([5, 0, 63, 5, 17])
        got, want = train_s.take(rows), oracles.take(train_s, rows)
        for name in ("indptr", "indices", "values", "labels"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        assert got.input_dim == want.input_dim and got.ids() == [""] * 5
        assert len(train_s.take([])) == 0

    @pytest.mark.parametrize("rows, bad", [
        ([63, -2], "-2"), ([-1], "-1"), ([5, 64, -1], "64"), (np.array([3, 2**64 - 1], dtype=np.uint64), str(2**64 - 1)),
    ])
    def test_a_row_outside_the_split_is_an_index_error_naming_the_first(self, rows, bad):
        # a negative row would cut its features and its labels from
        # different rows, and -1 would cut a negative length
        train_s, _, _ = self._data(120)
        with pytest.raises(IndexError, match=rf"^row {bad} out of range for 64 rows$"):
            train_s.take(rows)

    @pytest.mark.parametrize("rows", [[0.9], np.array([True, False]), np.array(["1"])])
    def test_rows_of_a_non_integer_dtype_are_a_type_error(self, rows):
        # 0.9 would be truncated to row 0
        train_s, _, _ = self._data(120)
        with pytest.raises(TypeError, match="rows must be integers"):
            train_s.take(rows)

    def test_all_zero_label_rows_are_logged_once_per_training_set(self, caplog):
        train_s, valid_s, ecfg = self._data(120, empty_every=5)
        cfg = TrainConfig(batch_size=8, learning_rate=3e-3, alpha=0.5, max_iters=20, seed=0, variant="wscl")
        with caplog.at_level(logging.WARNING):
            train(train_s, valid_s, ecfg, cfg)
        messages = [r.getMessage() for r in caplog.records]
        assert messages == ["13 of 64 training samples have no positive label; the contrastive loss gives their "
                            "pairs label similarity 0"]

    def test_a_training_set_with_labels_everywhere_logs_nothing(self, caplog):
        train_s, valid_s, ecfg = self._data(120)
        with caplog.at_level(logging.WARNING):
            train(train_s, valid_s, ecfg, TrainConfig(batch_size=8, max_iters=3))
        assert not caplog.records
