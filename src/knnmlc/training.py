"""Minibatch training loop: two dropout views of each sample, hand-rolled
Adam with bias correction (lazy on the input table's untouched rows),
validation-based model selection, and resumable checkpoints.

The training and validation sets are packed into CSR arrays once. Each
iteration takes the next N row indices of a shuffled epoch order (epochs
without replacement) as one packed batch. The ``Trainer`` gathers them a
chunk at a time: a chunk is a run of consecutive batches of the epoch
order, as many as keep its arrays near ``_CHUNK_BYTES`` (at least one, and
never past the epoch's end). At a chunk's first step it gathers the chunk's
rows once, without ids, and forms each of its batches' terms
(``_chunk_terms``): the float32 dense rows when a batch takes the dense
input branch, the BCE targets of both views and the contrastive loss's
label-pair terms (``losses.label_pairs``, one batched product). Each step
then slices its batch and its terms from the chunk; they are the bits a
batch gathered on its own gives, so neither chunking nor a resume in the
middle of a chunk changes a bit. One forward pass runs
the input layer once over the N samples and forms 2N views with independent
dropout masks, view i + N the second view of sample i (when the batch holds
fewer feature entries than the encoder has input rows, its input layer
and the backward pass's ``w_in`` gradient multiply only the rows of the
``w_in`` table it touches; see ``encoder``); binary cross entropy is summed
over all 2N classifier outputs (each view with its sample's labels), alpha
times the contrastive loss over the 2N embeddings (with the labels of the
N samples) is added, one backward pass carries both paths to the
parameters into the gradient buffer the trainer keeps, and one Adam step
follows. On the dense branch the step runs over the flat buffers that hold
every parameter, gradient and moment. On the touched-row branch it is lazy
Adam (PyTorch's ``SparseAdam``, TensorFlow Addons' ``LazyAdam``): it
updates the touched rows of ``w_in`` and of its two moments, and every
other parameter, and an untouched row keeps its parameter and moment bits
that step. The state with the best validation micro-F1 (classifier-only,
threshold 0.5, from the dropout-off pass that inference runs) is kept as
the result.

The ``Trainer`` trains in float32: its parameters, Adam moments, dropout
masks, activations, workspaces and gradients (the step's functions follow
the state's dtype, so the gradient check runs them in float64). The loss
scalars are summed in float64. Validation, ``best_state`` and ``train`` see
the exact float64 upcast of a float32 state, so every artifact and all of
inference stay float64.
"""
from __future__ import annotations

import json
import logging
import math
import time
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from . import copies
from .data import PackedSamples, check_binary_labels, check_kind, check_kinds, pack_samples
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
)
from .losses import (
    CONTRASTIVE_VARIANTS,
    LabelPairs,
    bce_loss,
    contrastive_embedding_grads,
    contrastive_loss_from_similarities,
    label_pairs,
    total_loss,
)
from .mathops import make_rng, sigmoid, unit_rows
from .metrics import confusion, micro_prf

__all__ = [
    "AdamState",
    "NonFiniteLossError",
    "TRAIN_DTYPE",
    "TrainConfig",
    "Trainer",
    "adam_step",
    "batch_gradients",
    "batch_objective",
    "train",
]

logger = logging.getLogger(__name__)

_TRAINER_FORMAT = "knnmlc-trainer"
# version 7 holds ``w_in`` as the (input_dim, hidden) table in every flat
# member; version 6, (hidden, input_dim), is refused
_TRAINER_VERSION = 7
# the dtype the Trainer trains in
TRAIN_DTYPE = np.float32
# a trainer checkpoint's members (docs/formats.md), {name: (dtype, ndim)}: the
# JSON header, four arrays laid out as ``EncoderState.flat``, the epoch order
_TRAINER_MEMBERS = {"header": (np.uint8, 1), **dict.fromkeys(("params", "adam_m", "adam_v", "best_params"), (TRAIN_DTYPE, 1)),
                    "order": (np.int64, 1)}
# the header's keys (the history gives the step count, the Adam step and the
# best validation), and a history record's, sorted; a validated one adds "valid_micro_f1"
_TRAINER_HEADER = {"format", "version", "config", "encoder", "cursor", "rng_state", "history"}
_RECORD_KEYS = ["bce", "con", "iteration", "total"]
# about the bytes of one chunk of batches (``Trainer``): its gathered rows
# and their terms
_CHUNK_BYTES = 1 << 20


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
    """The step count and the first and second moments, each one flat buffer
    laid out as ``EncoderState.flat`` and of its dtype (``_flat_views`` cuts
    it per parameter), kept as given; ``adam_step`` updates both in place,
    with two scratch buffers of that size kept across steps (the lazy
    update gathers its rows into them)."""

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

    Computes theta -= lr * m_hat / (sqrt(v_hat) + eps), with the moments
    updated in place and ``adam``'s two scratch buffers, operation for
    operation as the textbook expression in the buffers' dtype, so the
    result is bit-identical to a per-tensor update. Gradients of every
    ``w_in`` row (``grads.rows`` None) update the flat buffers that hold
    every parameter, gradient and moment, whole. Gradients of m touched rows
    update those rows of ``w_in`` and of its moments (gathered, updated and
    written back) and the contiguous rest of the buffers, every other
    parameter: lazy Adam, where an untouched row keeps its parameter and
    moment bits. A parameter or gradient rebound away from its flat buffer,
    a moment not of the parameter buffer's shape and dtype, or ``rows``
    that are not input rows is a ValueError naming it, and nothing is
    updated.
    """
    shapes = state.shapes
    state._check_views("parameter", shapes)
    grads._check_views("gradient", shapes)
    g, m, v = grads.flat, adam.m_flat, adam.v_flat
    for which, moment in (("m", m), ("v", v)):
        if moment.shape != state.flat.shape:
            raise ValueError(f"Adam {which} shape {moment.shape} != parameter buffer shape {state.flat.shape}")
        if moment.dtype != state.flat.dtype:
            raise ValueError(f"Adam {which} dtype {moment.dtype} != parameter buffer dtype {state.flat.dtype}")
    rows, (input_rows, width) = grads.rows, state.w_in.shape
    # the lazy update gathers rows with mode="clip", which would clamp a row out of range
    if rows is not None and (rows.ndim != 1 or rows.size > input_rows or rows.size and not 0 <= rows.min() <= rows.max() < input_rows):
        raise ValueError(f"gradient rows must be at most {input_rows} input rows in [0, {input_rows})")
    adam.step += 1
    hyper = (*betas, adam.step, lr, eps)
    scratch, step = adam._scratch
    if rows is None:
        _adam_update(state.flat, g, m, v, scratch, step, *hyper)
        return state
    # w_in and its moments as tables, the rows' gradients the first rows of
    # the w_in view, and the other parameters the contiguous rest
    rest, size = state.w_in.size, rows.size * width
    m_table, v_table = m[:rest].reshape(input_rows, width), v[:rest].reshape(input_rows, width)
    _adam_rows(state.w_in, grads.w_in[: rows.size], m_table, v_table, rows, scratch[:size].reshape(-1, width),
               step[:size].reshape(-1, width), *hyper)
    tail = state.flat.size - rest
    _adam_update(state.flat[rest:], g[rest:], m[rest:], v[rest:], scratch[:tail], step[:tail], *hyper)
    return state


def _adam_update(theta, g, m, v, scratch, step, b1, b2, t, lr, eps) -> None:
    """The textbook Adam update of the parameters ``theta`` in place, with
    gradients ``g`` and moments ``m`` and ``v`` of its shape, and two scratch
    arrays of it."""
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
    theta -= step


def _adam_rows(table, g, m_table, v_table, rows, a, b, b1, b2, t, lr, eps) -> None:
    """``_adam_update`` of the rows ``rows`` (sorted, distinct, in range) of
    the parameter table ``table`` and its moment tables, with the (m, width)
    gradients ``g`` of those rows, every value by the same operations in the
    same order. Each table's rows are gathered into the (m, width) arrays
    ``a`` and ``b``, updated there and written back; two arrays hold every
    intermediate, so the new first moment is gathered twice. ``np.take``
    gathers straight into its ``out`` in mode "clip"; in its default mode
    it would copy through a buffer of its own."""
    np.take(m_table, rows, axis=0, out=a, mode="clip")
    np.multiply(g, 1.0 - b1, out=b)
    a *= b1
    a += b
    m_table[rows] = a
    np.multiply(g, 1.0 - b2, out=a)
    a *= g
    np.take(v_table, rows, axis=0, out=b, mode="clip")
    b *= b2
    b += a
    v_table[rows] = b
    b /= 1.0 - b2**t
    np.sqrt(b, out=b)
    b += eps
    np.take(m_table, rows, axis=0, out=a, mode="clip")
    a /= 1.0 - b1**t
    a *= lr
    a /= b
    np.take(table, rows, axis=0, out=b, mode="clip")
    b -= a
    table[rows] = b


class _BatchTerms(NamedTuple):
    """What a training step takes of its batch beyond the packed rows, in
    the training dtype (``_chunk_terms``)."""

    dense: np.ndarray | None  # (N, input_dim) to_dense rows on the dense branch, else None
    targets: np.ndarray  # (2N, C) BCE targets: each view its sample's labels
    pairs: LabelPairs  # the contrastive loss's label terms


def _chunk_terms(chunk: PackedSamples, size: int, variant: str, dtype, kept: _BatchTerms | None = None) -> list:
    """[(batch, terms)] for the k = len(chunk) // size consecutive batches
    of ``size`` rows of a gathered chunk: each batch a slice of the chunk,
    each its ``_BatchTerms``. The dense rows (of the whole chunk, when any
    of its batches takes the dense input branch: ``forward_batch``'s rule
    ``indices.size < input_dim`` picks the other), the targets and the
    label-pair terms are each formed once for the chunk, in ``kept``'s
    arrays when given (a ``_BatchTerms`` of the Trainer's, each array with
    room for at least k batches), else in new ones. Labels are not checked.
    """
    k, input_dim, num_classes = len(chunk) // size, chunk.input_dim, chunk.labels.shape[1]
    labels = chunk.labels.reshape(k, size, num_classes)
    bounds = chunk.indptr[::size]
    dense_batches = np.diff(bounds) >= input_dim
    dense = None
    if dense_batches.any():
        room = None if kept is None else kept.dense[: k * size]
        dense = chunk.to_dense(dtype, out=room)
    targets = np.empty((k, 2 * size, num_classes), dtype) if kept is None else kept.targets[:k]
    np.copyto(targets.reshape(k, 2, size, num_classes), labels[:, None])
    room = None if kept is None else LabelPairs(*(None if a is None else a[:k] for a in kept.pairs))
    pairs = label_pairs(labels, variant, dtype, out=room)
    return [
        (
            chunk[j * size : (j + 1) * size],
            _BatchTerms(
                dense[j * size : (j + 1) * size] if dense_batches[j] else None,
                targets[j],
                LabelPairs(*(None if a is None else a[j] for a in pairs)),
            ),
        )
        for j in range(k)
    ]


def _own_terms(batch: PackedSamples, variant: str, dtype) -> _BatchTerms:
    """The terms of a batch given without them: its labels checked
    (``data.check_binary_labels``), then ``_chunk_terms`` of it as a chunk
    of one batch."""
    check_binary_labels(batch.labels)
    return _chunk_terms(batch, len(batch), variant, dtype)[0][1]


def _batch_losses(trace, labels, terms: _BatchTerms, tau1, variant, workspace=None):
    """Both objectives of a batch trace of the N samples with (N, C)
    ``labels`` and their ``terms``, their gradients on the logits and on the
    similarities, the cosine pieces (unit rows, norms, unclipped cosine
    matrix) that the embedding gradient reuses, and the (2N, 2N) array the
    loss is done with, free for that gradient. ``workspace`` is an optional
    triple of (2N, 2N) arrays of the trace's dtype, as ``batch_gradients``
    takes it; without it three are allocated."""
    bce, logit_grads = bce_loss(sigmoid(trace.logits), terms.targets)
    unit, norms = unit_rows(trace.embedding)
    n2 = len(unit)
    grad, sims, cos = (np.empty((n2, n2), unit.dtype) for _ in range(3)) if workspace is None else workspace
    # a general product (gemm) of a contiguous copy: unit @ unit.T goes to
    # syrk plus a triangle copy, about 4x slower at 2N = 256. The two give
    # the same bits at the shipped batch shapes, not at every shape
    # (docs/formats.md, "What bit-identical covers")
    np.matmul(unit, unit.T.copy(), out=cos)
    np.clip(cos, -1.0, 1.0, out=sims)
    con, grad_sims = contrastive_loss_from_similarities(
        sims, labels, tau1, variant, workspace=(grad, sims), pairs=terms.pairs
    )
    return bce, con, logit_grads, grad_sims, (unit, norms, cos), sims


def batch_objective(state, batch: PackedSamples, masks, alpha, tau1, variant="dcl") -> float:
    """Total loss of a packed batch of N samples under fixed (2N, hidden)
    dropout masks, as ``batch_gradients`` takes them. This is the scalar the
    finite-difference gradient check perturbs; it never touches the
    backward pass."""
    terms = _own_terms(batch, variant, state.flat.dtype)
    trace = forward_batch(state, batch, masks=masks, dense=terms.dense)
    bce, con, *_ = _batch_losses(trace, batch.labels, terms, tau1, variant)
    return total_loss(bce, con, alpha)


def batch_gradients(
    state, batch: PackedSamples, alpha, tau1, variant="dcl", rng=None, masks=None, workspace=None, terms=None, out=None
):
    """Forward two dropout views of each of the N packed samples in one pass,
    evaluate both objectives, and backpropagate both paths in one pass.

    Views i and i + N are the two views of sample i (``forward_batch``): the
    contrastive loss takes the N samples' labels, and BCE gives each view
    its sample's labels.

    Everything runs in the dtype of the state's buffer; the three losses are
    float64 scalars. Returns (bce, con, total, grads, masks_used) with
    masks_used (2N, hidden). ``workspace`` is an optional triple of
    C-contiguous (2N, 2N) arrays of that dtype that the call overwrites: the
    first ends up holding the similarity gradient, the second the clipped
    similarities and then the embedding gradient's (2N, 2N) terms, the third
    the cosines. Without it the call allocates three. Nothing returned lives
    in them.

    ``terms`` is the batch's ``_BatchTerms`` as the ``Trainer`` cuts them
    from its chunk (``_chunk_terms``); without them the call checks the
    labels and forms them (``_own_terms``), so both paths run the same
    arithmetic. ``out`` is a ``ParameterGradients`` the gradients are
    written into (``encoder.backward``); without it they get a new buffer.
    """
    if terms is None:
        terms = _own_terms(batch, variant, state.flat.dtype)
    trace = forward_batch(state, batch, rng=rng, masks=masks, dense=terms.dense)
    bce, con, logit_grads, grad_sims, cosine, spare = _batch_losses(trace, batch.labels, terms, tau1, variant, workspace)
    emb_grads = alpha * contrastive_embedding_grads(*cosine, grad_sims, out=spare) if alpha > 0.0 else None
    grads = backward(state, trace, grad_embedding=emb_grads, grad_logits=logit_grads, out=out)
    return bce, con, total_loss(bce, con, alpha), grads, trace.mask


def classifier_micro_f1(state: EncoderState, samples: PackedSamples, threshold: float = 0.5) -> float:
    """Micro-F1 of classifier predictions thresholded at 0.5, from one
    dropout-off pass (``encoder.rowwise_layers``, the pass inference runs)
    over the packed samples."""
    samples = pack_samples(samples, state.config.input_dim)
    embedding = rowwise_layers(state, samples)
    pred = (sigmoid(rowwise_logits(state, embedding)) >= threshold).astype(np.int8)
    return micro_prf(confusion(samples.labels, pred))[2]


class Trainer:
    """Owns the encoder state, Adam buffers, RNG, and epoch bookkeeping.

    All randomness flows through one seeded generator in a fixed order
    (epoch shuffle, then one (2N, hidden) mask block per step, the same stream
    as one mask per view), so equal seeds give bit-identical trajectories and
    a saved checkpoint resumes exactly where it left off.

    The given state is rounded to float32 (``TRAIN_DTYPE``; a float32 state
    is trained in place), and every step runs in float32. Validation and
    ``best_state`` use the exact float64 upcast, so the selected model and
    every artifact made from it are float64; validation forms it in one
    float64 buffer kept across validations.

    The training and validation sets are PackedSamples (as
    ``data.load_packed`` reads them); an empty or None validation set means
    no validation, and a training label other than 0 or 1 is a ValueError
    naming it. The dropout rate is the encoder config's. A step whose
    BCE or contrastive loss is NaN or inf raises NonFiniteLossError, naming
    the iteration, before its update is applied. Every step forms the same
    number 2N of views, so the trainer keeps the three (2N, 2N)
    arrays of ``batch_gradients`` (the similarity gradient, the clipped
    similarities and then the embedding gradient's terms, the cosines)
    and its gradient buffer rather than allocate them each step. A
    training set with all-zero label rows is logged once, here, when a
    weighted variant gives their pairs label similarity 0.

    Batches come from chunks of ``_chunk_batches`` consecutive batches of
    the epoch order (fewer at an epoch's end), sized so that a chunk's
    gathered rows and their terms take about ``_CHUNK_BYTES``
    (``_chunk_terms``, whose arrays the trainer allocates once and reuses).
    The chunk is formed after the epoch's permutation is drawn and draws
    nothing, and a checkpoint does not hold it: a resumed trainer forms one
    from the saved order and cursor. ``validate_s`` is the seconds spent in
    validation passes, and ``step_s`` the wall seconds of each step this
    trainer took, in order (the batch, its gradients and the Adam step,
    not the validation); neither is saved in a checkpoint.
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
        check_binary_labels(self.train_set.labels, "training labels")
        if cfg.variant in ("dcl", "wscl"):
            empty = np.count_nonzero(~self.train_set.labels.any(axis=1))
            if empty:
                logger.warning(
                    "%d of %d training samples have no positive label; the contrastive loss gives their pairs "
                    "label similarity 0", empty, len(self.train_set),
                )
        self.state = state = state.astype(TRAIN_DTYPE)
        self.cfg = cfg
        self.adam = AdamState.zeros_like(state)
        # validation runs on the float64 upcast, formed in this one buffer:
        # a fresh one per validation moved the process's peak RSS
        self._upcast = state.astype(np.float64)
        self.rng = make_rng(cfg.seed)
        self.history: list[dict] = []
        self._order = np.empty(0, dtype=np.int64)
        self._cursor = 0
        self._best_state: EncoderState | None = None
        self._best_f1 = -1.0
        self.validate_s = 0.0
        self.step_s: list[float] = []
        size = min(cfg.batch_size, len(self.train_set))
        self._workspace = tuple(np.empty((2 * size, 2 * size), TRAIN_DTYPE) for _ in range(3))
        # every backward pass writes all of it, so it is left unfilled
        self._grads = ParameterGradients._on_buffer(np.empty_like(state.flat), state.shapes)
        self._chunk_batches, self._kept = self._chunk_buffers(size)
        # the current chunk's [(batch, terms)] and the cursor at its start
        self._chunk: list = []
        self._chunk_start = 0

    def _chunk_buffers(self, size: int) -> tuple[int, _BatchTerms]:
        """(batches per chunk, the kept arrays of ``_chunk_terms``): as many
        batches as keep a chunk near ``_CHUNK_BYTES``, counting per row its
        mean gathered entries (int64 index, float64 value), its targets, its
        label-pair rows and, when some batch of ``size`` rows can hold at
        least ``input_dim`` entries, its dense row."""
        train, itemsize = self.train_set, np.dtype(TRAIN_DTYPE).itemsize
        n, (input_dim, num_classes) = len(train), (train.input_dim, train.labels.shape[1])
        lengths = np.diff(train.indptr)
        mean_entries = lengths.mean()
        # the size longest rows
        lengths.partition(n - size)
        dense = lengths[n - size :].sum() >= input_dim
        row_bytes = 16 * mean_entries + itemsize * (2 * num_classes + 2 * size + dense * input_dim)
        batches = int(max(1, min(n // size, _CHUNK_BYTES // (size * row_bytes))))
        kept = _BatchTerms(
            np.empty((batches * size, input_dim), TRAIN_DTYPE) if dense else None,
            np.empty((batches, 2 * size, num_classes), TRAIN_DTYPE),
            LabelPairs.empty((batches, size, size), self.cfg.variant, TRAIN_DTYPE),
        )
        return batches, kept

    @property
    def iteration(self) -> int:
        return len(self.history)

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
            self._chunk = []
        rows = self._order[self._cursor : self._cursor + size]
        self._cursor += size
        return rows

    def _chunk_batch(self) -> tuple[PackedSamples, _BatchTerms]:
        """The next batch and its terms, cut from the chunk that holds it; a
        batch past the current chunk starts the next one, which gathers up
        to ``_chunk_batches`` batches of the epoch order from there."""
        size = self._next_batch().size
        start = self._cursor - size
        j = (start - self._chunk_start) // size
        if not self._chunk or j >= len(self._chunk):
            batches = min(self._chunk_batches, (self._order.size - start) // size)
            chunk = self.train_set.take(self._order[start : start + batches * size])
            self._chunk = _chunk_terms(chunk, size, self.cfg.variant, TRAIN_DTYPE, self._kept)
            self._chunk_start, j = start, 0
        return self._chunk[j]

    def _validate(self) -> float:
        began = time.perf_counter()
        np.copyto(self._upcast.flat, self.state.flat)
        f1 = classifier_micro_f1(self._upcast, self.valid_set)
        if f1 > self._best_f1:
            self._best_f1 = f1
            self._best_state = self.state.copy()
        self.validate_s += time.perf_counter() - began
        return f1

    def step(self) -> dict:
        began = time.perf_counter()
        batch, terms = self._chunk_batch()
        bce, con, total, grads, _ = batch_gradients(
            self.state,
            batch,
            alpha=self.cfg.alpha,
            tau1=self.cfg.tau1,
            variant=self.cfg.variant,
            rng=self.rng,
            workspace=self._workspace,
            terms=terms,
            out=self._grads,
        )
        # alpha * con is NaN for a non-finite con even at alpha = 0
        if not math.isfinite(total):
            raise NonFiniteLossError(
                f"iteration {self.iteration + 1}: non-finite training loss (bce={bce}, con={con})"
            )
        adam_step(self.state, grads, self.adam, lr=self.cfg.learning_rate)
        record = {"iteration": self.iteration + 1, "bce": bce, "con": con, "total": total}
        self.history.append(record)
        self.step_s.append(time.perf_counter() - began)
        if self.valid_set is not None and self.iteration % self.eval_interval == 0:
            record["valid_micro_f1"] = self._validate()
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
        """The exact float64 upcast of the state with the best validation
        micro-F1, or of the current state when no validation ever ran; a new
        state on each call."""
        return (self.state if self._best_state is None else self._best_state).astype(np.float64)

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
            "encoder": _payload_header(self.state), "cursor": self._cursor,
            "rng_state": self.rng.bit_generator.state, "history": self.history,
        }
        best = np.empty(0, TRAIN_DTYPE) if self._best_state is None else self._best_state.flat
        copies.write_archive(path, {
            "header": np.frombuffer(json.dumps(header).encode("utf-8"), dtype=np.uint8), "params": self.state.flat,
            "adam_m": self.adam.m_flat, "adam_v": self.adam.v_flat, "best_params": best, "order": self._order,
        })

    @classmethod
    def load_checkpoint(cls, path, train_samples, valid_samples) -> "Trainer":
        """The trainer ``save_checkpoint`` wrote, resuming exactly where it
        stopped, with the loaded members as its buffers; the step count and
        the Adam step are the history's length. A file that is not such an
        archive (``copies.read_archive``), a header of other keys, a
        misshapen, non-finite or wrong-kind (``data.check_kind``) field, a
        bad history (``_history_best_f1``), a ``best_params`` empty although
        a validation is recorded or held although none is, an epoch order or
        cursor that does not fit ``train_samples``, and a cursor other than
        the one the history's steps leave (``_saved_cursor``) raise
        CheckpointError."""
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
        if header.keys() != _TRAINER_HEADER:
            raise CheckpointError(f"{path}: the header must hold the keys {sorted(_TRAINER_HEADER)}, got {sorted(header)}")
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
            check_kind("cursor", header["cursor"], "int")
            rng = make_rng(0)
            rng.bit_generator.state = header["rng_state"]
            history = header["history"]
            best_f1 = _history_best_f1(history)
            if (best_f1 >= 0.0) != bool(best_params.size):
                raise ValueError(f"best_params holds {best_params.size} values, but {'a' if best_f1 >= 0.0 else 'no'} "
                                 "validation is recorded")
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
        # the history holds every step only if it leaves the saved cursor
        steps, size = len(history), min(cfg.batch_size, n)
        want = _saved_cursor(steps, size, n)
        if cursor != want or not steps and order.size:
            raise CheckpointError(
                f"{path}: the saved cursor is {cursor} over an epoch order of {order.size} rows, but the history's "
                f"{steps} steps of {size} samples leave it at {want}, over {n if steps else 0} rows"
            )
        trainer.adam, trainer.rng = AdamState(*moments, step=steps), rng
        trainer.history, trainer._order, trainer._cursor = history, order, cursor
        trainer._best_f1, trainer._best_state = best_f1, best_state
        return trainer


def _saved_cursor(steps: int, size: int, n: int) -> int:
    """The epoch cursor after ``steps`` batches of ``size`` of ``n`` samples
    (``Trainer._next_batch``): 0 before the first, then the end of the
    step's batch in an epoch of n // size batches."""
    return (steps - 1) % (n // size) * size + size if steps else 0


def _history_best_f1(history) -> float:
    """The largest ``valid_micro_f1`` in a trainer checkpoint's history, -1
    with none (``_validate`` writes each result into one record). TypeError
    or ValueError naming the record and field unless record i is an object
    of ``_RECORD_KEYS`` (and ``valid_micro_f1``) with ``"iteration": i + 1``,
    finite losses and an F1 in [0, 1]."""
    if not isinstance(history, list):
        raise TypeError(f"history must be a list of records, got {type(history).__name__}")
    best = -1.0
    for i, record in enumerate(history):
        keys = sorted(record) if isinstance(record, dict) else type(record).__name__
        if keys not in (_RECORD_KEYS, [*_RECORD_KEYS, "valid_micro_f1"]):
            raise ValueError(f"history record {i} must be an object of the keys {_RECORD_KEYS} and, once "
                             f"validated, valid_micro_f1, got {keys}")
        for key in keys:
            check_kind(f"history record {i} {key}", record[key], "int" if key == "iteration" else "float")
        if record["iteration"] != i + 1:
            raise ValueError(f"history record {i} iteration must be {i + 1} (one record per step), got {record['iteration']}")
        if not 0.0 <= record.get("valid_micro_f1", 0.0) <= 1.0:
            raise ValueError(f"history record {i} valid_micro_f1 must lie in [0, 1], got {record['valid_micro_f1']!r}")
        best = max(best, record.get("valid_micro_f1", best))
    return best


def train(train_samples, valid_samples, encoder_config: EncoderConfig, cfg: TrainConfig):
    """Train from a fresh seeded initialization; returns (best_state, history),
    the state float64 (``Trainer.best_state``)."""
    state = init_state(encoder_config, seed=cfg.seed)
    trainer = Trainer(train_samples, valid_samples, state, cfg)
    history = trainer.run()
    return trainer.best_state(), history
