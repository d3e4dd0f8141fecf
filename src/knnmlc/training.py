"""Minibatch training loop: duplicated dropout-augmented batches, hand-rolled
Adam with bias correction, validation-based model selection, and resumable
checkpoints.

The training and validation sets are packed into CSR arrays once. Each
iteration draws N row indices (shuffled epochs without replacement),
gathers those rows once and lays them out twice, without ids, as one packed
batch of 2N views. One forward pass runs all 2N views with independent
dropout masks; binary cross entropy is summed over all 2N classifier
outputs, alpha times the contrastive loss over the 2N embeddings (with the
labels of the N samples) is added, one backward pass carries both paths to
the parameters, and one Adam step over the flat buffers that hold every
parameter, gradient and moment follows. The state with the best validation
micro-F1 (classifier-only, threshold 0.5, from the dropout-off pass that
inference runs) is kept as the result.
"""
from __future__ import annotations

import json
import logging
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import copies
from .data import PackedSamples, check_kind, check_kinds, pack_samples
from .encoder import (
    _PARAM_NAMES,
    CheckpointError,
    EncoderConfig,
    EncoderState,
    ParameterGradients,
    _flat_views,
    _from_copy,
    _payload_header,
    backward,
    finite_array,
    forward_batch,
    init_state,
    rowwise_layers,
    rowwise_logits,
    weight_rows,
)
from .losses import (
    CONTRASTIVE_VARIANTS,
    bce_loss,
    contrastive_embedding_grads,
    contrastive_loss_from_similarities,
    total_loss,
)
from .mathops import make_rng, sigmoid, unit_rows
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

logger = logging.getLogger(__name__)

_TRAINER_FORMAT = "knnmlc-trainer"
_TRAINER_VERSION = 4
# a trainer checkpoint's members (docs/formats.md), {name: (dtype, ndim)}: the
# JSON header, four arrays laid out as ``EncoderState.flat``, the epoch order
_TRAINER_MEMBERS = {"header": (np.uint8, 1), **dict.fromkeys(("params", "adam_m", "adam_v", "best_params"), (np.float64, 1)),
                    "order": (np.int64, 1)}


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
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass
class AdamState:
    """The step count and the first and second moments, each one flat float64
    buffer laid out as ``EncoderState.flat`` (``_flat_views`` cuts it per
    parameter), kept as given; ``adam_step`` updates both in place, with two
    scratch buffers of that size kept across steps."""

    m_flat: np.ndarray
    v_flat: np.ndarray
    step: int = 0

    def __post_init__(self):
        self._scratch = (np.empty_like(self.m_flat), np.empty_like(self.m_flat))

    @classmethod
    def zeros_like(cls, state: EncoderState) -> "AdamState":
        return cls(np.zeros_like(state.flat), np.zeros_like(state.flat))


def adam_step(
    state: EncoderState,
    grads: ParameterGradients,
    adam: AdamState,
    lr: float,
    betas: tuple[float, float] = (0.9, 0.999),
    eps: float = 1e-8,
) -> EncoderState:
    """One bias-corrected Adam update, applied to the state in place.

    Computes theta -= lr * m_hat / (sqrt(v_hat) + eps) once over the flat
    buffers that hold every parameter, gradient and moment, with the moments
    updated in place and ``adam``'s two scratch buffers, operation for
    operation as the textbook expression, so the result is bit-identical to
    a per-tensor update. A parameter or gradient rebound away from its flat
    buffer, or a moment not of the parameter buffer's shape, is a ValueError
    naming it, and nothing is updated.
    """
    shapes = state.shapes
    state._check_views("parameter", shapes)
    grads._check_views("gradient", shapes)
    g, m, v = grads.flat, adam.m_flat, adam.v_flat
    for which, moment in (("m", m), ("v", v)):
        if moment.shape != state.flat.shape:
            raise ValueError(f"Adam {which} shape {moment.shape} != parameter buffer shape {state.flat.shape}")
    b1, b2 = betas
    adam.step += 1
    t = adam.step
    scratch, step = adam._scratch
    np.multiply(g, 1.0 - b1, out=scratch)
    m *= b1
    m += scratch
    np.multiply(g, 1.0 - b2, out=scratch)
    scratch *= g
    v *= b2
    v += scratch
    np.divide(m, 1.0 - b1**t, out=step)
    step *= lr
    np.divide(v, 1.0 - b2**t, out=scratch)
    np.sqrt(scratch, out=scratch)
    scratch += eps
    step /= scratch
    state.flat -= step
    return state


def _sample_labels(views: PackedSamples) -> np.ndarray:
    """The (N, C) labels of the N samples behind 2N views: the first half's
    rows, once the second half is found to repeat them. An odd number of
    views, or a view i + N whose labels are not view i's, is a ValueError
    naming the first row without a twin."""
    labels = views.labels
    n2 = len(labels)
    n = n2 // 2
    contract = "views must be two halves of N rows, view i + N a twin of view i"
    if n2 % 2:
        raise ValueError(f"{contract}; row {n2 - 1} of {n2} has no twin")
    if not np.array_equal(labels[:n], labels[n:]):
        row = n + int(np.flatnonzero((labels[:n] != labels[n:]).any(axis=1))[0])
        raise ValueError(f"{contract}; row {row} does not carry the labels of row {row - n}")
    return labels[:n]


def _batch_losses(trace, views, tau1, variant, workspace=None):
    """Both objectives of a batch trace of ``views``, their gradients on the
    logits and on the similarities, the cosine pieces (unit rows, norms,
    unclipped cosine matrix) that the embedding gradient reuses, and the
    (2N, 2N) array the loss is done with, free for that gradient.
    ``workspace`` is an optional triple of (2N, 2N) float64 arrays, as
    ``batch_gradients`` takes it; without it three are allocated."""
    sample_labels = _sample_labels(views)
    bce, logit_grads = bce_loss(sigmoid(trace.logits), views.labels)
    unit, norms = unit_rows(trace.embedding)
    n2 = len(unit)
    grad, sims, cos = (np.empty((n2, n2)) for _ in range(3)) if workspace is None else workspace
    # a general product (gemm) of a contiguous copy: unit @ unit.T goes to
    # syrk plus a triangle copy, about 4x slower at 2N = 256. The two give
    # the same bits at the shipped batch shapes, not at every shape
    # (docs/formats.md, "What bit-identical covers")
    np.matmul(unit, unit.T.copy(), out=cos)
    np.clip(cos, -1.0, 1.0, out=sims)
    con, grad_sims = contrastive_loss_from_similarities(sims, sample_labels, tau1, variant, workspace=(grad, sims))
    return bce, con, logit_grads, grad_sims, (unit, norms, cos), sims


def batch_objective(state, views: PackedSamples, masks, alpha, tau1, variant="dcl") -> float:
    """Total loss of a packed duplicated batch under fixed (2N, hidden)
    dropout masks. This is the scalar the finite-difference gradient check
    perturbs; it never touches the backward pass. ``views`` holds 2N rows,
    view i + N a twin of view i, as ``batch_gradients`` takes them."""
    trace = forward_batch(state, views, masks=masks)
    bce, con, *_ = _batch_losses(trace, views, tau1, variant)
    return total_loss(bce, con, alpha)


def batch_gradients(state, views: PackedSamples, alpha, tau1, variant="dcl", rng=None, masks=None, workspace=None):
    """Forward the 2N packed views in one pass, evaluate both objectives, and
    backpropagate both paths in one pass.

    Views i and i + N are two dropout views of sample i (as
    ``PackedSamples.two_views`` draws them): the contrastive loss takes the N
    samples' labels from the first half. An odd number of views, or a second half whose labels differ
    from the first's, is a ValueError naming the first such row; the features
    are not compared.

    Returns (bce, con, total, grads, masks_used) with masks_used (2N, hidden).
    ``workspace`` is an optional triple of C-contiguous (2N, 2N) float64
    arrays that the call overwrites: the first ends up holding the
    similarity gradient, the second the clipped similarities and then the
    embedding gradient's (2N, 2N) terms, the third the cosines. Without it
    the call allocates three. Nothing returned lives in them.
    """
    trace = forward_batch(state, views, rng=rng, masks=masks)
    bce, con, logit_grads, grad_sims, cosine, spare = _batch_losses(trace, views, tau1, variant, workspace)
    emb_grads = alpha * contrastive_embedding_grads(*cosine, grad_sims, out=spare) if alpha > 0.0 else None
    grads = backward(state, trace, grad_embedding=emb_grads, grad_logits=logit_grads)
    return bce, con, total_loss(bce, con, alpha), grads, trace.mask


def classifier_micro_f1(state: EncoderState, samples: PackedSamples, threshold: float = 0.5) -> float:
    """Micro-F1 of classifier predictions thresholded at 0.5, from one
    dropout-off pass (``encoder.rowwise_layers``, the pass inference runs)
    over the packed samples."""
    samples = pack_samples(samples, state.config.input_dim)
    embedding = rowwise_layers(state, samples, weight_rows(state, samples.indices.size))
    pred = (sigmoid(rowwise_logits(state, embedding)) >= threshold).astype(np.int8)
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
    the same number 2N of views, so the trainer keeps the three (2N, 2N)
    arrays of ``batch_gradients`` (the similarity gradient, the clipped
    similarities and then the embedding gradient's terms, the cosines)
    rather than allocate them each step. A
    training set with all-zero label rows is logged once, here, when a
    weighted variant gives their pairs label similarity 0.
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
        if cfg.variant in ("dcl", "wscl"):
            empty = np.count_nonzero(~self.train_set.labels.any(axis=1))
            if empty:
                logger.warning(
                    "%d of %d training samples have no positive label; the contrastive loss gives their pairs "
                    "label similarity 0", empty, len(self.train_set),
                )
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
        self._workspace = tuple(np.empty((n2, n2)) for _ in range(3))

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
        views = self.train_set.two_views(rows)
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
        """Write the trainer to ``path`` as an ``.npz`` archive
        (``copies.write_archive``, laid out as in docs/formats.md); a failed
        write leaves a file already at ``path`` as it was."""
        header = {
            "format": _TRAINER_FORMAT, "version": _TRAINER_VERSION, "config": asdict(self.cfg),
            "encoder": _payload_header(self.state), "iteration": self.iteration, "cursor": self._cursor,
            "adam_step": self.adam.step, "rng_state": self.rng.bit_generator.state,
            "best_micro_f1": self._best_f1, "best_iteration": self._best_iteration, "history": self.history,
        }
        best = np.empty(0) if self._best_state is None else self._best_state.flat
        copies.write_archive(path, {
            "header": np.frombuffer(json.dumps(header).encode("utf-8"), dtype=np.uint8), "params": self.state.flat,
            "adam_m": self.adam.m_flat, "adam_v": self.adam.v_flat, "best_params": best, "order": self._order,
        })

    @classmethod
    def load_checkpoint(cls, path, train_samples, valid_samples) -> "Trainer":
        """The trainer ``save_checkpoint`` wrote, resuming exactly where it
        stopped, with the loaded members as its buffers. A file that is not
        such an archive (``copies.read_archive``), a misshapen, non-finite
        or wrong-kind (``data.check_kind``) field, and an epoch order or
        cursor that does not fit ``train_samples`` raise CheckpointError."""
        try:
            arrays = copies.read_archive(path, _TRAINER_MEMBERS)
            header = json.loads(arrays["header"].tobytes())
        # read_archive's, JSONDecodeError and UnicodeDecodeError are ValueErrors
        except ValueError as exc:
            raise CheckpointError(f"{path}: not a trainer checkpoint container ({exc})") from exc
        if not isinstance(header, dict) or header.get("format") != _TRAINER_FORMAT:
            raise CheckpointError(f"{path}: wrong or missing format marker")
        if header.get("version") != _TRAINER_VERSION:
            raise CheckpointError(f"{path}: unsupported version {header.get('version')!r}")
        # read every field before the trainer exists, so that only a bad
        # checkpoint, not bad training data, becomes a CheckpointError
        try:
            cfg = TrainConfig(**header["config"])
            cfg.validate()
            # both states are cut by the one encoder header; an empty
            # best_params (no validation ran) gives no best state
            params, best_params = arrays["params"], arrays["best_params"]
            state, best_state = (_from_copy({"params": flat}, str(path), header["encoder"]) for flat in (params, best_params))
            if state is None or best_params.size and best_state is None:
                raise ValueError(f"params ({params.size} values) and best_params ({best_params.size}, or 0) must "
                                 "hold as many values as the encoder header's dims give")
            moments = arrays["adam_m"], arrays["adam_v"]
            for which, flat in zip("mv", moments):
                if flat.shape != params.shape:
                    raise CheckpointError(f"{path}: Adam {which} has shape {flat.shape}, expected {params.shape}")
                for name, view in zip(_PARAM_NAMES, _flat_views(flat, state.shapes)):
                    finite_array(view, view.shape, f"Adam {which}[{name}]", path)
            for key, kind in (("adam_step", "int"), ("iteration", "int"), ("cursor", "int"), ("best_iteration", "int"),
                              ("best_micro_f1", "float")):
                check_kind(key, header[key], kind)
            rng = make_rng(0)
            rng.bit_generator.state = header["rng_state"]
            history = list(header["history"])
        except (KeyError, TypeError, ValueError) as exc:
            if isinstance(exc, CheckpointError):
                raise
            raise CheckpointError(f"{path}: malformed trainer checkpoint ({exc!r})") from exc
        trainer = cls(train_samples, valid_samples, state, cfg)
        # the epoch in progress must be one over this training set
        n = len(trainer.train_set)
        order, cursor = arrays["order"], header["cursor"]
        fits = order.size in (0, n) and 0 <= cursor <= order.size
        if not fits or order.size and not np.array_equal(np.sort(order), np.arange(n)):
            raise CheckpointError(
                f"{path}: the saved epoch order of {order.size} rows (cursor {cursor}) does not fit the "
                f"training set of {n} samples: it must be empty or a permutation of range({n}), "
                "with 0 <= cursor <= its size"
            )
        trainer.adam, trainer.rng = AdamState(*moments, step=header["adam_step"]), rng
        trainer.iteration, trainer.history, trainer._order, trainer._cursor = header["iteration"], history, order, cursor
        trainer._best_f1, trainer._best_iteration, trainer._best_state = header["best_micro_f1"], header["best_iteration"], best_state
        return trainer


def train(train_samples, valid_samples, encoder_config: EncoderConfig, cfg: TrainConfig):
    """Train from a fresh seeded initialization; returns (best_state, history)."""
    state = init_state(encoder_config, seed=cfg.seed)
    trainer = Trainer(train_samples, valid_samples, state, cfg)
    history = trainer.run()
    return trainer.best_state(), history
