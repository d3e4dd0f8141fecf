"""Small trainable encoder: sparse input -> hidden layer (tanh or relu, with
inverted dropout) -> linear embedding, plus a sigmoid classifier head.

The batch is the unit of work. ``forward_batch`` runs every row of a packed
batch (``data.PackedSamples``) through the network in one pass of array
operations, and ``backward`` returns the parameter gradients summed over
those rows as matrix products. Both passes are written out by hand; the
backward pass is validated against central finite differences (see
gradcheck). Dropout is applied to the hidden activations only, with
surviving units scaled by 1/(1 - rate) so evaluation mode needs no
rescaling.

``forward_rowwise`` computes the same network so that every output row is
bit-identical whatever batch the row sits in: a BLAS matrix product may
round a row differently for a different row count, so it uses only
row-local reductions. Inference runs on it, which is what lets a single
query (``forward`` on one sample is a batch of one of it) and the same
sample inside a CLI batch give the same bits. It is 2-3x slower than
``forward_batch`` on training batches and store blocks, which keep the
matrix products.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .data import PackedSamples, Sample, pack_samples
from .mathops import make_rng, sigmoid

__all__ = [
    "CheckpointError",
    "EncoderConfig",
    "EncoderState",
    "ForwardTrace",
    "ParameterGradients",
    "backward",
    "classify",
    "forward",
    "forward_batch",
    "forward_rowwise",
    "init_state",
    "load_checkpoint",
    "save_checkpoint",
    "state_from_payload",
    "state_to_payload",
]

_ACTIVATIONS = ("tanh", "relu")
_CHECKPOINT_FORMAT = "knnmlc-encoder"
_CHECKPOINT_VERSION = 1
_PARAM_NAMES = ("w_in", "b_in", "w_emb", "b_emb", "w_clf", "b_clf")


class CheckpointError(ValueError):
    """Raised for unreadable or wrong-format checkpoint files."""


@dataclass
class EncoderConfig:
    input_dim: int
    hidden_dim: int
    embed_dim: int
    num_classes: int
    activation: str = "tanh"
    dropout_rate: float = 0.1

    def validate(self) -> None:
        if min(self.input_dim, self.hidden_dim, self.embed_dim, self.num_classes) < 1:
            raise ValueError("all encoder dimensions must be >= 1")
        if self.activation not in _ACTIVATIONS:
            raise ValueError(f"activation must be one of {_ACTIVATIONS}, got {self.activation!r}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must lie in [0, 1)")


@dataclass
class EncoderState:
    """All trainable parameters plus the hyperparameters that shape them.

    w_in: (hidden, input), w_emb: (embed, hidden), w_clf: (C, embed);
    biases match their layer's output dimension.
    """

    config: EncoderConfig
    w_in: np.ndarray
    b_in: np.ndarray
    w_emb: np.ndarray
    b_emb: np.ndarray
    w_clf: np.ndarray
    b_clf: np.ndarray
    init_seed: int = 0

    def param_items(self):
        return [(name, getattr(self, name)) for name in _PARAM_NAMES]

    def copy(self) -> "EncoderState":
        return EncoderState(
            config=self.config,
            init_seed=self.init_seed,
            **{name: getattr(self, name).copy() for name in _PARAM_NAMES},
        )


@dataclass
class ParameterGradients:
    w_in: np.ndarray
    b_in: np.ndarray
    w_emb: np.ndarray
    b_emb: np.ndarray
    w_clf: np.ndarray
    b_clf: np.ndarray

    @classmethod
    def zeros_like(cls, state: EncoderState) -> "ParameterGradients":
        return cls(**{name: np.zeros_like(arr) for name, arr in state.param_items()})

    def param_items(self):
        return [(name, getattr(self, name)) for name in _PARAM_NAMES]


@dataclass
class ForwardTrace:
    """Everything the backward pass needs, one row per batch row: the packed
    inputs, pre-activations, activations, the dropout mask (already scaled by
    1/(1-rate); all-ones when dropout is off), the embeddings, and the
    classifier logits. ``forward`` returns the 1-d rows of a batch of one."""

    inputs: PackedSamples
    pre_hidden: np.ndarray
    hidden: np.ndarray
    mask: np.ndarray
    embedding: np.ndarray
    logits: np.ndarray


def init_state(config: EncoderConfig, seed: int = 0) -> EncoderState:
    """Uniform +-1/sqrt(fan_in) initialization for every tensor, seeded."""
    config.validate()
    rng = make_rng(seed)

    def uniform(shape, fan_in):
        bound = 1.0 / np.sqrt(fan_in)
        return rng.uniform(-bound, bound, size=shape)

    return EncoderState(
        config=config,
        w_in=uniform((config.hidden_dim, config.input_dim), config.input_dim),
        b_in=uniform(config.hidden_dim, config.input_dim),
        w_emb=uniform((config.embed_dim, config.hidden_dim), config.hidden_dim),
        b_emb=uniform(config.embed_dim, config.hidden_dim),
        w_clf=uniform((config.num_classes, config.embed_dim), config.embed_dim),
        b_clf=uniform(config.num_classes, config.embed_dim),
        init_seed=seed,
    )


def _activate(cfg: EncoderConfig, pre_hidden: np.ndarray) -> np.ndarray:
    if cfg.activation == "tanh":
        return np.tanh(pre_hidden)
    return np.maximum(pre_hidden, 0.0)


def _dropout_mask(cfg: EncoderConfig, hidden: np.ndarray, dropout_mode: str, rng, masks) -> np.ndarray:
    """The scaled (n, hidden) dropout mask: the given ``masks``, one block of
    uniforms from ``rng`` (the same stream as n per-row draws), or all ones
    laid out like ``hidden``."""
    if masks is not None:
        mask = np.asarray(masks, dtype=np.float64)
        if mask.shape != hidden.shape:
            raise ValueError(f"mask shape {mask.shape} != hidden shape {hidden.shape}")
        return mask
    if dropout_mode == "on" and cfg.dropout_rate > 0.0:
        if rng is None:
            raise ValueError("dropout_mode='on' requires an rng")
        keep = rng.random(hidden.shape) >= cfg.dropout_rate
        return keep.astype(np.float64) / (1.0 - cfg.dropout_rate)
    if dropout_mode in ("on", "off"):
        mask = np.empty_like(hidden)
        mask.fill(1.0)
        return mask
    raise ValueError(f"dropout_mode must be 'on' or 'off', got {dropout_mode!r}")


def _check_input_dim(state: EncoderState, batch: PackedSamples) -> None:
    if batch.input_dim != state.config.input_dim:
        raise ValueError(f"batch packed for input_dim={batch.input_dim}, encoder has {state.config.input_dim}")


def forward_batch(
    state: EncoderState,
    batch: PackedSamples,
    dropout_mode: str = "off",
    rng: np.random.Generator | None = None,
    masks: np.ndarray | None = None,
) -> ForwardTrace:
    """Run the network on every row of a packed batch.

    dropout_mode "off" is fully deterministic; "on" draws one (n, hidden)
    block of uniforms from ``rng`` (the same stream as n per-row draws) unless
    ``masks`` gives the scaled (n, hidden) masks, which is how the gradient
    check freezes them.
    """
    _check_input_dim(state, batch)
    if batch.indices.size < state.config.input_dim:
        # fewer features than w_in has columns (small batches over a wide
        # vocabulary): gather the columns the features touch, scale by the
        # values and sum per row
        columns = state.w_in[:, batch.indices] * batch.values
        pre_hidden = np.add.reduceat(columns, batch.indptr[:-1], axis=1).T + state.b_in
    else:
        # dense enough that one matrix product over the dense rows is cheaper
        pre_hidden = batch.to_dense() @ state.w_in.T + state.b_in
    hidden = _activate(state.config, pre_hidden)
    mask = _dropout_mask(state.config, hidden, dropout_mode, rng, masks)
    embedding = (hidden * mask) @ state.w_emb.T + state.b_emb
    logits = embedding @ state.w_clf.T + state.b_clf
    return ForwardTrace(batch, pre_hidden, hidden, mask, embedding, logits)


def forward_rowwise(
    state: EncoderState,
    batch: PackedSamples,
    dropout_mode: str = "off",
    rng: np.random.Generator | None = None,
    masks: np.ndarray | None = None,
) -> ForwardTrace:
    """``forward_batch`` computed so that each output row depends on its input
    row alone and comes out bit-identical in a batch of any size or order.

    The input layer gathers the ``w_in`` columns a row's features touch as
    C-contiguous rows and sums each segment in feature order
    (``np.add.reduceat`` along axis 0); the two small layers use ``einsum``
    on C-contiguous operands, which reduces each output entry over the last
    axis on its own. Results agree with ``forward_batch`` to rounding, not
    bit for bit. Dropout arguments are as in ``forward_batch``.
    """
    _check_input_dim(state, batch)
    columns = state.w_in.T[batch.indices] * batch.values[:, None]
    pre_hidden = np.add.reduceat(columns, batch.indptr[:-1], axis=0) + state.b_in
    hidden = _activate(state.config, pre_hidden)
    mask = _dropout_mask(state.config, hidden, dropout_mode, rng, masks)
    embedding = np.einsum("ij,kj->ik", hidden * mask, state.w_emb) + state.b_emb
    logits = np.einsum("ij,kj->ik", embedding, state.w_clf) + state.b_clf
    return ForwardTrace(batch, pre_hidden, hidden, mask, embedding, logits)


def forward(
    state: EncoderState,
    sample: Sample,
    dropout_mode: str = "off",
    rng: np.random.Generator | None = None,
    mask_override: np.ndarray | None = None,
) -> ForwardTrace:
    """Run the network on one sample, as a batch of one of ``forward_rowwise``,
    so the result equals that sample's row in any inference batch;
    ``mask_override`` is that row's (hidden,) mask."""
    masks = None if mask_override is None else np.asarray(mask_override, dtype=np.float64)[None]
    batch = pack_samples([sample], state.config.input_dim)
    t = forward_rowwise(state, batch, dropout_mode, rng, masks)
    return ForwardTrace(batch, t.pre_hidden[0], t.hidden[0], t.mask[0], t.embedding[0], t.logits[0])


def classify(trace: ForwardTrace) -> np.ndarray:
    """Per-class probabilities: elementwise sigmoid of the logits."""
    return sigmoid(trace.logits)


def backward(
    state: EncoderState,
    trace: ForwardTrace,
    grad_embedding: np.ndarray | None = None,
    grad_logits: np.ndarray | None = None,
) -> ParameterGradients:
    """Reverse-mode gradients for every parameter, summed over the rows of a
    batch trace, given upstream (n, embed) gradients on the embeddings
    (contrastive path) and/or (n, C) gradients on the logits (classification
    path)."""
    cfg = state.config
    if trace.embedding.ndim != 2:
        raise ValueError("backward needs a batch trace from forward_batch")
    n = trace.embedding.shape[0]
    if grad_embedding is None:
        d_embedding = np.zeros((n, cfg.embed_dim))
    else:
        d_embedding = np.asarray(grad_embedding, dtype=np.float64)
    if d_embedding.shape != (n, cfg.embed_dim):
        raise ValueError(f"grad_embedding shape {d_embedding.shape} != ({n}, {cfg.embed_dim})")
    if grad_logits is None:
        w_clf = np.zeros_like(state.w_clf)
        b_clf = np.zeros_like(state.b_clf)
    else:
        d_logits = np.asarray(grad_logits, dtype=np.float64)
        if d_logits.shape != (n, cfg.num_classes):
            raise ValueError(f"grad_logits shape {d_logits.shape} != ({n}, {cfg.num_classes})")
        w_clf = d_logits.T @ trace.embedding
        b_clf = d_logits.sum(axis=0)
        d_embedding = d_embedding + d_logits @ state.w_clf

    d_hidden = (d_embedding @ state.w_emb) * trace.mask
    if cfg.activation == "tanh":
        d_pre = d_hidden * (1.0 - trace.hidden**2)
    else:
        d_pre = d_hidden * (trace.pre_hidden > 0.0)
    return ParameterGradients(
        w_in=d_pre.T @ trace.inputs.to_dense(),
        b_in=d_pre.sum(axis=0),
        w_emb=d_embedding.T @ (trace.hidden * trace.mask),
        b_emb=d_embedding.sum(axis=0),
        w_clf=w_clf,
        b_clf=b_clf,
    )


def state_to_payload(state: EncoderState) -> dict:
    """JSON-ready dict holding dims, hyperparameters, and all tensors.
    float64 values round-trip exactly because json uses shortest-repr
    formatting."""
    cfg = state.config
    return {
        "format": _CHECKPOINT_FORMAT,
        "version": _CHECKPOINT_VERSION,
        "dims": {
            "input_dim": cfg.input_dim,
            "hidden_dim": cfg.hidden_dim,
            "embed_dim": cfg.embed_dim,
            "num_classes": cfg.num_classes,
        },
        "activation": cfg.activation,
        "dropout_rate": cfg.dropout_rate,
        "init_seed": state.init_seed,
        "params": {name: arr.tolist() for name, arr in state.param_items()},
    }


def save_checkpoint(state: EncoderState, path) -> None:
    # json.dumps runs the C encoder; json.dump streams through the Python one
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(state_to_payload(state)))


_PARAM_SHAPES = {
    "w_in": lambda c: (c.hidden_dim, c.input_dim),
    "b_in": lambda c: (c.hidden_dim,),
    "w_emb": lambda c: (c.embed_dim, c.hidden_dim),
    "b_emb": lambda c: (c.embed_dim,),
    "w_clf": lambda c: (c.num_classes, c.embed_dim),
    "b_clf": lambda c: (c.num_classes,),
}


def state_from_payload(payload: dict, source: str = "<payload>") -> EncoderState:
    if not isinstance(payload, dict) or payload.get("format") != _CHECKPOINT_FORMAT:
        raise CheckpointError(f"{source}: wrong or missing format marker")
    if payload.get("version") != _CHECKPOINT_VERSION:
        raise CheckpointError(f"{source}: unsupported checkpoint version {payload.get('version')!r}")
    try:
        dims = payload["dims"]
        config = EncoderConfig(
            input_dim=int(dims["input_dim"]),
            hidden_dim=int(dims["hidden_dim"]),
            embed_dim=int(dims["embed_dim"]),
            num_classes=int(dims["num_classes"]),
            activation=payload["activation"],
            dropout_rate=float(payload["dropout_rate"]),
        )
        config.validate()
        params = {}
        for name in _PARAM_NAMES:
            arr = np.asarray(payload["params"][name], dtype=np.float64)
            expected = _PARAM_SHAPES[name](config)
            if arr.shape != expected:
                raise CheckpointError(
                    f"{source}: parameter {name} has shape {arr.shape}, expected {expected}"
                )
            params[name] = arr
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, CheckpointError):
            raise
        raise CheckpointError(f"{source}: malformed checkpoint ({exc})") from exc
    return EncoderState(config=config, init_seed=int(payload.get("init_seed", 0)), **params)


def load_checkpoint(path) -> EncoderState:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CheckpointError(f"{path}: not a valid checkpoint ({exc})") from exc
    return state_from_payload(payload, source=str(path))
