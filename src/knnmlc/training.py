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
micro-F1 (classifier-only, threshold 0.5, from the dropout-off pass that
inference runs) is kept as the result.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .data import PackedSamples, check_kind, check_kinds, pack_samples
from .encoder import (
    CheckpointError,
    EncoderConfig,
    EncoderState,
    ParameterGradients,
    backward,
    classify,
    finite_array,
    forward_batch,
    forward_rowwise,
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
_TRAINER_VERSION = 3


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
    variant: str = "dcl"
    eval_every: int = 0  # 0 -> validate once per epoch

    def validate(self) -> None:
        check_kinds(self)
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
    """One bias-corrected Adam update, applied to the state in place.

    Computes theta -= lr * m_hat / (sqrt(v_hat) + eps) with the moments
    updated in place and two scratch arrays per parameter, operation for
    operation as the textbook expression, so the result is bit-identical.
    """
    b1, b2 = betas
    adam.step += 1
    t = adam.step
    for name, theta in state.param_items():
        g = getattr(grads, name)
        if g.shape != theta.shape:
            raise ValueError(f"gradient shape {g.shape} != parameter {name} shape {theta.shape}")
        m = adam.m[name]
        v = adam.v[name]
        scratch = np.multiply(g, 1.0 - b1)
        m *= b1
        m += scratch
        np.multiply(g, 1.0 - b2, out=scratch)
        scratch *= g
        v *= b2
        v += scratch
        step = np.divide(m, 1.0 - b1**t)
        step *= lr
        np.divide(v, 1.0 - b2**t, out=scratch)
        np.sqrt(scratch, out=scratch)
        scratch += eps
        step /= scratch
        theta -= step
    return state


def _batch_losses(trace, labels, tau1, variant, workspace=None):
    """Both objectives of a batch trace, their gradients on the logits and on
    the similarities, and the cosine pieces (unit rows, norms, unclipped
    cosine matrix) that the embedding gradient reuses. ``workspace`` is the
    contrastive loss's optional pair of (2N, 2N) arrays, which then hold the
    similarity gradient."""
    bce, logit_grads = bce_loss(classify(trace), labels)
    unit, norms = unit_rows(trace.embedding)
    cos = unit @ unit.T
    con, grad_sims = contrastive_loss_from_similarities(
        np.clip(cos, -1.0, 1.0), labels, tau1, variant, workspace=workspace
    )
    return bce, con, logit_grads, grad_sims, (unit, norms, cos)


def batch_objective(state, views: PackedSamples, masks, alpha, tau1, variant="dcl") -> float:
    """Total loss of a packed duplicated batch under fixed (2N, hidden)
    dropout masks. This is the scalar the finite-difference gradient check
    perturbs; it never touches the backward pass."""
    trace = forward_batch(state, views, masks=masks)
    bce, con, _, _, _ = _batch_losses(trace, views.labels, tau1, variant)
    return total_loss(bce, con, alpha)


def batch_gradients(state, views: PackedSamples, alpha, tau1, variant="dcl", rng=None, masks=None, workspace=None):
    """Forward the 2N packed views in one pass, evaluate both objectives, and
    backpropagate both paths in one pass.

    Returns (bce, con, total, grads, masks_used) with masks_used (2N, hidden).
    ``workspace`` is an optional pair of (2N, 2N) float64 arrays for the
    contrastive loss to overwrite; nothing returned lives in them.
    """
    trace = forward_batch(state, views, rng=rng, masks=masks)
    bce, con, logit_grads, grad_sims, cosine = _batch_losses(trace, views.labels, tau1, variant, workspace)
    emb_grads = alpha * contrastive_embedding_grads(*cosine, grad_sims) if alpha > 0.0 else None
    grads = backward(state, trace, grad_embedding=emb_grads, grad_logits=logit_grads)
    return bce, con, total_loss(bce, con, alpha), grads, trace.mask


def classifier_micro_f1(state: EncoderState, samples: PackedSamples, threshold: float = 0.5) -> float:
    """Micro-F1 of classifier predictions thresholded at 0.5, from one
    dropout-off pass (``forward_rowwise``, the pass inference runs) over the
    packed samples."""
    samples = pack_samples(samples, state.config.input_dim)
    pred = (classify(forward_rowwise(state, samples)) >= threshold).astype(np.int8)
    return micro_prf(confusion(samples.labels, pred))[2]


class Trainer:
    """Owns the encoder state, Adam buffers, RNG, and epoch bookkeeping.

    All randomness flows through one seeded generator in a fixed order
    (epoch shuffle, then one (2N, hidden) mask block per step, the same stream
    as one mask per view), so equal seeds give bit-identical trajectories and
    a saved checkpoint resumes exactly where it left off.

    The training and validation sets are PackedSamples (as
    ``data.load_packed`` reads them); an empty or None validation set means
    no validation. The dropout rate is the encoder config's. A step whose
    BCE or contrastive loss is NaN or inf raises NonFiniteLossError, naming
    the iteration, before its update is applied. Every step's batch holds
    the same number 2N of views, so the trainer keeps one (2N, 2N) workspace
    pair for the contrastive loss rather than allocate it each step.
    """

    def __init__(
        self, train_samples: PackedSamples, valid_samples: PackedSamples | None, state: EncoderState, cfg: TrainConfig
    ):
        cfg.validate()
        if not train_samples:
            raise ValueError("training set must be nonempty")
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
        n2 = 2 * min(cfg.batch_size, len(self.train_set))
        self._workspace = (np.empty((n2, n2)), np.empty((n2, n2)))

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
            workspace=self._workspace,
        )
        # alpha * con is NaN for a non-finite con even at alpha = 0
        if not math.isfinite(total):
            raise NonFiniteLossError(
                f"iteration {self.iteration + 1}: non-finite training loss (bce={bce}, con={con})"
            )
        adam_step(self.state, grads, self.adam, lr=self.cfg.learning_rate)
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
        # json.dumps runs the C encoder; json.dump streams through the Python one
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(payload))

    @classmethod
    def load_checkpoint(cls, path, train_samples, valid_samples) -> "Trainer":
        """The trainer ``save_checkpoint`` wrote, resuming exactly where it stopped.
        A missing, misshapen or wrong-kind (``data.check_kind``) field raises
        CheckpointError, and so does an epoch order or cursor that does not fit
        ``train_samples``."""
        try:
            with open(path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise CheckpointError(f"{path}: not a valid trainer checkpoint ({exc})") from exc
        if not isinstance(payload, dict) or payload.get("format") != _TRAINER_FORMAT:
            raise CheckpointError(f"{path}: wrong or missing format marker")
        if payload.get("version") != _TRAINER_VERSION:
            raise CheckpointError(f"{path}: unsupported version {payload.get('version')!r}")
        # read every field before the trainer exists, so that only a bad
        # checkpoint, not bad training data, becomes a CheckpointError
        try:
            cfg = TrainConfig(**payload["config"])
            cfg.validate()
            state = state_from_payload(payload["encoder"], source=str(path))
            moments = {
                which: {
                    name: finite_array(payload["adam"][which][name], theta.shape, f"Adam {which}[{name}]", path)
                    for name, theta in state.param_items()
                }
                for which in ("m", "v")
            }
            adam = AdamState(**moments, step=payload["adam"]["step"])
            check_kinds(adam)
            rng = make_rng(0)
            rng.bit_generator.state = payload["rng_state"]
            iteration, cursor = payload["iteration"], payload["cursor"]
            order = np.asarray(payload["order"])
            if order.size and order.dtype.kind != "i":
                raise TypeError(f"order must hold integers, got {order.dtype} values")
            best = payload["best"]
            best_f1, best_iteration = best["micro_f1"], best["iteration"]
            for name, value in (("iteration", iteration), ("cursor", cursor), ("best iteration", best_iteration)):
                check_kind(name, value, "int")
            check_kind("best micro_f1", best_f1, "float")
            best_state = None if best["encoder"] is None else state_from_payload(best["encoder"], source=str(path))
            history = list(payload["history"])
        except (KeyError, TypeError, ValueError) as exc:
            if isinstance(exc, CheckpointError):
                raise
            raise CheckpointError(f"{path}: malformed trainer checkpoint ({exc!r})") from exc
        trainer = cls(train_samples, valid_samples, state, cfg)
        # the epoch in progress must be one over this training set
        n = len(trainer.train_set)
        fits = order.ndim == 1 and order.size in (0, n) and 0 <= cursor <= order.size
        if not fits or order.size and not np.array_equal(np.sort(order), np.arange(n)):
            raise CheckpointError(
                f"{path}: the saved epoch order of {order.size} rows (cursor {cursor}) does not fit the "
                f"training set of {n} samples: it must be empty or a permutation of range({n}), "
                "with 0 <= cursor <= its size"
            )
        trainer.adam, trainer.rng, trainer.iteration, trainer.history = adam, rng, iteration, history
        trainer._order, trainer._cursor = order.astype(np.int64), cursor
        trainer._best_f1, trainer._best_iteration, trainer._best_state = best_f1, best_iteration, best_state
        return trainer


def train(train_samples, valid_samples, encoder_config: EncoderConfig, cfg: TrainConfig):
    """Train from a fresh seeded initialization; returns (best_state, history)."""
    state = init_state(encoder_config, seed=cfg.seed)
    trainer = Trainer(train_samples, valid_samples, state, cfg)
    history = trainer.run()
    return trainer.best_state(), history
