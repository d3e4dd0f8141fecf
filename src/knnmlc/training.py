"""Minibatch training loop: duplicated dropout-augmented batches, hand-rolled
Adam with bias correction, validation-based model selection, and resumable
checkpoints.

The training and validation sets are packed into CSR arrays once. Each
iteration draws N row indices (shuffled epochs without replacement) and
stacks those rows twice into one packed batch of 2N views. One forward pass
runs all 2N views with independent dropout masks; binary cross entropy is
summed over all 2N classifier outputs, alpha times the contrastive loss over
the 2N embeddings is added, one backward pass carries both paths to the
parameters, and one Adam step follows. The state with the best validation
micro-F1 (classifier-only, threshold 0.5) is kept as the result.
"""
from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .data import PackedSamples, pack_samples
from .encoder import (
    CheckpointError,
    EncoderConfig,
    EncoderState,
    ParameterGradients,
    backward,
    classify,
    forward_batch,
    init_state,
    state_from_payload,
    state_to_payload,
)
from .losses import (
    CONTRASTIVE_VARIANTS,
    bce_loss,
    contrastive_embedding_grads,
    contrastive_loss_from_similarities,
    total_loss,
)
from .mathops import make_rng, unit_rows
from .metrics import confusion, micro_prf

__all__ = [
    "AdamState",
    "NonFiniteLossError",
    "TrainConfig",
    "Trainer",
    "adam_step",
    "batch_gradients",
    "batch_objective",
    "train",
]

_TRAINER_FORMAT = "knnmlc-trainer"
_TRAINER_VERSION = 1


class NonFiniteLossError(ValueError):
    """Raised when a training step's BCE or contrastive loss is NaN or inf;
    the message names the iteration. The step's update is not applied."""


@dataclass
class TrainConfig:
    batch_size: int = 32
    learning_rate: float = 5e-5
    alpha: float = 0.1
    tau1: float = 0.05
    max_iters: int = 500
    seed: int = 0
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    variant: str = "dcl"
    dropout_rate: float | None = None  # None -> keep the encoder config's rate
    eval_every: int = 0  # 0 -> validate once per epoch

    def validate(self) -> None:
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.learning_rate < 0.0:
            raise ValueError("learning_rate must be >= 0")
        if self.alpha < 0.0:
            raise ValueError("alpha must be >= 0")
        if self.tau1 <= 0.0:
            raise ValueError("tau1 must be > 0")
        if self.max_iters < 0:
            raise ValueError("max_iters must be >= 0")
        if self.variant not in CONTRASTIVE_VARIANTS:
            raise ValueError(f"variant must be one of {CONTRASTIVE_VARIANTS}")
        if not 0.0 < self.adam_beta1 < 1.0 or not 0.0 < self.adam_beta2 < 1.0:
            raise ValueError("adam betas must lie in (0, 1)")
        if self.adam_eps <= 0.0:
            raise ValueError("adam_eps must be > 0")
        if self.dropout_rate is not None and not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must lie in [0, 1)")
        if self.eval_every < 0:
            raise ValueError("eval_every must be >= 0")


@dataclass
class AdamState:
    """First/second moment buffers per parameter tensor plus the step count."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0

    @classmethod
    def zeros_like(cls, state: EncoderState) -> "AdamState":
        return cls(
            m={name: np.zeros_like(arr) for name, arr in state.param_items()},
            v={name: np.zeros_like(arr) for name, arr in state.param_items()},
        )


def adam_step(
    state: EncoderState,
    grads: ParameterGradients,
    adam: AdamState,
    lr: float,
    betas: tuple[float, float] = (0.9, 0.999),
    eps: float = 1e-8,
) -> EncoderState:
    """One bias-corrected Adam update, applied to the state in place."""
    b1, b2 = betas
    adam.step += 1
    t = adam.step
    for name, theta in state.param_items():
        g = getattr(grads, name)
        if g.shape != theta.shape:
            raise ValueError(f"gradient shape {g.shape} != parameter {name} shape {theta.shape}")
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


def _batch_losses(trace, labels, tau1, variant):
    """Both objectives of a batch trace, their gradients on the logits and on
    the similarities, and the cosine pieces (unit rows, norms, unclipped
    cosine matrix) that the embedding gradient reuses."""
    bce, logit_grads = bce_loss(classify(trace), labels)
    unit, norms = unit_rows(trace.embedding)
    cos = unit @ unit.T
    con, grad_sims = contrastive_loss_from_similarities(np.clip(cos, -1.0, 1.0), labels, tau1, variant)
    return bce, con, logit_grads, grad_sims, (unit, norms, cos)


def batch_objective(state, views: PackedSamples, masks, alpha, tau1, variant="dcl") -> float:
    """Total loss of a packed duplicated batch under fixed (2N, hidden)
    dropout masks. This is the scalar the finite-difference gradient check
    perturbs; it never touches the backward pass."""
    trace = forward_batch(state, views, dropout_mode="on", masks=masks)
    bce, con, _, _, _ = _batch_losses(trace, views.labels, tau1, variant)
    return total_loss(bce, con, alpha)


def batch_gradients(state, views: PackedSamples, alpha, tau1, variant="dcl", rng=None, masks=None):
    """Forward the 2N packed views in one pass, evaluate both objectives, and
    backpropagate both paths in one pass.

    Returns (bce, con, total, grads, masks_used) with masks_used (2N, hidden).
    """
    trace = forward_batch(state, views, dropout_mode="on", rng=rng, masks=masks)
    bce, con, logit_grads, grad_sims, cosine = _batch_losses(trace, views.labels, tau1, variant)
    emb_grads = alpha * contrastive_embedding_grads(*cosine, grad_sims) if alpha > 0.0 else None
    grads = backward(state, trace, grad_embedding=emb_grads, grad_logits=logit_grads)
    return bce, con, total_loss(bce, con, alpha), grads, trace.mask


def classifier_micro_f1(state: EncoderState, samples, threshold: float = 0.5) -> float:
    """Micro-F1 of dropout-off classifier predictions thresholded at 0.5, from
    one pass over the samples (a list, or already packed)."""
    if not isinstance(samples, PackedSamples):
        samples = pack_samples(samples, state.config.input_dim)
    pred = (classify(forward_batch(state, samples)) >= threshold).astype(np.int8)
    return micro_prf(confusion(samples.labels, pred))[2]


class Trainer:
    """Owns the encoder state, Adam buffers, RNG, and epoch bookkeeping.

    All randomness flows through one seeded generator in a fixed order
    (epoch shuffle, then one (2N, hidden) mask block per step, the same stream
    as one mask per view), so equal seeds give bit-identical trajectories and
    a saved checkpoint resumes exactly where it left off.

    A ``TrainConfig.dropout_rate`` override goes into a copy of the state's
    encoder config; the caller's config object is left as it was. A step
    whose BCE or contrastive loss is NaN or inf raises NonFiniteLossError,
    naming the iteration, before its update is applied.
    """

    def __init__(self, train_samples, valid_samples, state: EncoderState, cfg: TrainConfig):
        cfg.validate()
        if not train_samples:
            raise ValueError("training set must be nonempty")
        if cfg.dropout_rate is not None:
            state.config = dataclasses.replace(state.config, dropout_rate=cfg.dropout_rate)
        input_dim = state.config.input_dim
        self.train_set = pack_samples(train_samples, input_dim)
        self.valid_set = pack_samples(valid_samples, input_dim) if valid_samples else None
        self.state = state
        self.cfg = cfg
        self.adam = AdamState.zeros_like(state)
        self.rng = make_rng(cfg.seed)
        self.iteration = 0
        self.history: list[dict] = []
        self._order = np.empty(0, dtype=np.int64)
        self._cursor = 0
        self._best_state: EncoderState | None = None
        self._best_f1 = -1.0
        self._best_iteration = 0

    @property
    def eval_interval(self) -> int:
        if self.cfg.eval_every > 0:
            return self.cfg.eval_every
        n = len(self.train_set)
        return max(1, n // min(self.cfg.batch_size, n))

    def _next_batch(self) -> np.ndarray:
        """Row indices of the next N training samples."""
        n = len(self.train_set)
        size = min(self.cfg.batch_size, n)
        if self._cursor + size > self._order.size:
            self._order = self.rng.permutation(n)
            self._cursor = 0
        rows = self._order[self._cursor : self._cursor + size]
        self._cursor += size
        return rows

    def _validate(self) -> float:
        f1 = classifier_micro_f1(self.state, self.valid_set)
        if f1 > self._best_f1:
            self._best_f1 = f1
            self._best_state = self.state.copy()
            self._best_iteration = self.iteration
        return f1

    def step(self) -> dict:
        rows = self._next_batch()
        views = self.train_set.take(np.concatenate([rows, rows]))
        bce, con, total, grads, _ = batch_gradients(
            self.state,
            views,
            alpha=self.cfg.alpha,
            tau1=self.cfg.tau1,
            variant=self.cfg.variant,
            rng=self.rng,
        )
        # alpha * con is NaN for a non-finite con even at alpha = 0
        if not math.isfinite(total):
            raise NonFiniteLossError(
                f"iteration {self.iteration + 1}: non-finite training loss (bce={bce}, con={con})"
            )
        adam_step(
            self.state,
            grads,
            self.adam,
            lr=self.cfg.learning_rate,
            betas=(self.cfg.adam_beta1, self.cfg.adam_beta2),
            eps=self.cfg.adam_eps,
        )
        self.iteration += 1
        record = {"iteration": self.iteration, "bce": bce, "con": con, "total": total}
        if self.valid_set is not None and self.iteration % self.eval_interval == 0:
            record["valid_micro_f1"] = self._validate()
        self.history.append(record)
        return record

    def run(self, num_iters: int | None = None) -> list[dict]:
        target = self.cfg.max_iters if num_iters is None else self.iteration + num_iters
        while self.iteration < target:
            self.step()
        # one closing validation so the final state is always considered, but
        # only once the configured run is complete (otherwise resuming from a
        # mid-run checkpoint would diverge from an uninterrupted run)
        if (
            self.valid_set is not None
            and self.iteration >= self.cfg.max_iters
            and self.history
            and "valid_micro_f1" not in self.history[-1]
        ):
            self.history[-1]["valid_micro_f1"] = self._validate()
        return self.history

    def best_state(self) -> EncoderState:
        """State with the best validation micro-F1; the current state when no
        validation ever ran."""
        if self._best_state is None:
            return self.state
        return self._best_state

    @property
    def best_validation_f1(self) -> float | None:
        return None if self._best_f1 < 0 else self._best_f1

    # -- checkpointing ----------------------------------------------------

    def save_checkpoint(self, path) -> None:
        payload = {
            "format": _TRAINER_FORMAT,
            "version": _TRAINER_VERSION,
            "config": asdict(self.cfg),
            "iteration": self.iteration,
            "encoder": state_to_payload(self.state),
            "adam": {
                "step": self.adam.step,
                "m": {k: v.tolist() for k, v in self.adam.m.items()},
                "v": {k: v.tolist() for k, v in self.adam.v.items()},
            },
            "rng_state": self.rng.bit_generator.state,
            "order": self._order.tolist(),
            "cursor": self._cursor,
            "best": {
                "micro_f1": self._best_f1,
                "iteration": self._best_iteration,
                "encoder": None if self._best_state is None else state_to_payload(self._best_state),
            },
            "history": self.history,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)

    @classmethod
    def load_checkpoint(cls, path, train_samples, valid_samples) -> "Trainer":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise CheckpointError(f"{path}: not a valid trainer checkpoint ({exc})") from exc
        if not isinstance(payload, dict) or payload.get("format") != _TRAINER_FORMAT:
            raise CheckpointError(f"{path}: wrong or missing format marker")
        if payload.get("version") != _TRAINER_VERSION:
            raise CheckpointError(f"{path}: unsupported version {payload.get('version')!r}")
        cfg = TrainConfig(**payload["config"])
        state = state_from_payload(payload["encoder"], source=str(path))
        trainer = cls(train_samples, valid_samples, state, cfg)
        trainer.iteration = int(payload["iteration"])
        trainer.adam.step = int(payload["adam"]["step"])
        for name in trainer.adam.m:
            trainer.adam.m[name] = np.asarray(payload["adam"]["m"][name], dtype=np.float64)
            trainer.adam.v[name] = np.asarray(payload["adam"]["v"][name], dtype=np.float64)
        trainer.rng.bit_generator.state = payload["rng_state"]
        trainer._order = np.asarray(payload["order"], dtype=np.int64)
        trainer._cursor = int(payload["cursor"])
        trainer._best_f1 = float(payload["best"]["micro_f1"])
        trainer._best_iteration = int(payload["best"]["iteration"])
        if payload["best"]["encoder"] is not None:
            trainer._best_state = state_from_payload(payload["best"]["encoder"], source=str(path))
        trainer.history = list(payload["history"])
        return trainer


def train(train_samples, valid_samples, encoder_config: EncoderConfig, cfg: TrainConfig):
    """Train from a fresh seeded initialization; returns (best_state, history)."""
    state = init_state(encoder_config, seed=cfg.seed)
    trainer = Trainer(train_samples, valid_samples, state, cfg)
    history = trainer.run()
    return trainer.best_state(), history
