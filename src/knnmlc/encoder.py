"""Small trainable encoder: sparse input -> hidden layer (tanh or relu, with
inverted dropout) -> linear embedding, plus a sigmoid classifier head.

The batch is the unit of work, and there are two forward passes, one per
use. ``forward_batch`` is the training pass: it runs the N samples of a
packed batch (``data.PackedSamples``) through the input layer once and
forms two dropout views of each, view i + N the second view of sample i,
using matrix products; ``backward`` returns the parameter gradients summed
over the 2N views as matrix products, with both views' hidden gradients
added on the sample's row before the input layer. A batch with fewer
feature entries than ``w_in`` has columns multiplies only the columns it
touches: the input layer is ``dense_c @ w_in[:, cols].T`` and the ``w_in``
gradient ``d_pre.T @ dense_c`` in those columns and exact zeros in the
rest, where ``dense_c`` holds the batch's dense rows cut to the sorted
touched columns ``cols``. Both passes are written out by hand; the
backward pass is validated against central finite differences (see
gradcheck). Dropout is applied to the hidden activations only, with
surviving units scaled by 1/(1 - rate) so the dropout-off pass needs no
rescaling.

``rowwise_layers`` is the only dropout-off pass. Every output row is
bit-identical whatever batch the row sits in (a BLAS product may round a
row differently for a different row count, so it uses only row-local
reductions), and it runs any batch in row ranges sized to stay in cache.
Inference, validation and the datastore build all run it: a single query,
the test split and the whole training split use the same code, so store
key i is the float32 of exactly the embedding ``predict`` computes for
training sample i. It stops at the embedding, which is all the store build
needs; ``rowwise_logits`` adds the classifier head for inference and
validation. Neither keeps a trace, and the build gathers every row range
from one copy of ``w_in.T``. A batch of several ranges is cut range by
range from its CSR arrays; when fewer than 1 in ``_SCALE_ALL_SHARE`` of its
feature values differ from 1.0, only the gathered rows of those values are
scaled (``x * 1.0`` is ``x`` exactly, so no sum changes a bit). A batch of
one range (a single query) scales every gathered row, which at that size
costs fewer calls.

The six parameters are writable views of one C-ordered buffer,
``EncoderState.flat``, which holds them back to back in ``_PARAM_NAMES``
order. The buffer is float32 or float64, and the training pass
(``forward_batch``, ``backward``) runs in its dtype: the ``Trainer`` trains
a float32 state, while the gradient check runs the same code on a float64
one. Checkpoints, the dropout-off pass and everything downstream of
training take float64 states (``EncoderState.astype``, an exact upcast).
``backward`` writes its gradients into views of one such buffer and the
Adam moments are two more flat buffers of that layout, so an Adam step
is a dozen ufunc calls over whole buffers. It is also the layout of a
checkpoint's packed copy and of a trainer checkpoint: the ``params``
member is written from the state's own buffer and read back as the loaded
state's buffer, with no concatenation or reassembly either way.
"""
from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass

import numpy as np

from . import copies, floatrepr
from .data import PackedSamples, check_kinds
from .mathops import make_rng

__all__ = [
    "CheckpointError",
    "EncoderConfig",
    "EncoderState",
    "ForwardTrace",
    "ParameterGradients",
    "backward",
    "forward_batch",
    "init_state",
    "load_checkpoint",
    "save_checkpoint",
    "state_from_payload",
]

_ACTIVATIONS = ("tanh", "relu")
_CHECKPOINT_FORMAT = "knnmlc-encoder"
_CHECKPOINT_VERSION = 1
_PARAM_NAMES = ("w_in", "b_in", "w_emb", "b_emb", "w_clf", "b_clf")
# the packed copy of a checkpoint (see docs/formats.md): the payload without
# its params as JSON bytes, and the parameters back to back in
# ``_PARAM_NAMES`` order, shaped by the header's dims; {name: (dtype, ndim)}
_COPY_VERSION = 2
_COPY_MEMBERS = {"header": (np.uint8, 1), "params": (np.float64, 1)}
# the dropout-off pass gathers input-layer weights in row ranges whose
# (entries, hidden) float64 block stays near this size: over the training
# splits of the default and large benchmark workloads (one pinned CPU),
# 256-512 KB ran fastest, 128 KB to 1 MB within 12% of that, 2 MB 50-60% slower
_GATHER_BLOCK_BYTES = 256 << 10
# the ranged gather scales every gathered row unless fewer than 1 in this
# many of the batch's feature values are other than 1.0; then it scales only
# those rows. Per value, scaling chosen rows cost 7-11x a broadcast multiply
_SCALE_ALL_SHARE = 8


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
        check_kinds(self)
        if min(self.input_dim, self.hidden_dim, self.embed_dim, self.num_classes) < 1:
            raise ValueError("all encoder dimensions must be >= 1")
        if self.activation not in _ACTIVATIONS:
            raise ValueError(f"activation must be one of {_ACTIVATIONS}, got {self.activation!r}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must lie in [0, 1)")


class _FlatParameters:
    """The six parameters (``_PARAM_NAMES``) as writable views of one
    C-ordered float32 or float64 buffer ``flat`` that holds them back to
    back in that order, the layout of the checkpoint copy's ``params``
    member; ``shapes`` is their shapes. Write into a view (``grads.w_clf[...] = g``): a field
    rebound to another array is no longer part of ``flat``, and
    ``_check_views`` names it."""

    def __post_init__(self):
        # the constructor's arrays are copied into one new float64 buffer
        parts = [np.asarray(getattr(self, name), dtype=np.float64) for name in _PARAM_NAMES]
        self._bind(np.concatenate([part.ravel() for part in parts]), tuple(part.shape for part in parts))

    @classmethod
    def _on_buffer(cls, flat: np.ndarray, shapes: tuple, **fields):
        """An instance whose parameters are views of ``flat`` itself, no copy."""
        obj = cls.__new__(cls)
        obj.__dict__.update(fields)
        obj._bind(flat, shapes)
        return obj

    def _bind(self, flat: np.ndarray, shapes: tuple) -> None:
        self.flat, self.shapes, self._views = flat, shapes, _flat_views(flat, shapes)
        self.__dict__.update(zip(_PARAM_NAMES, self._views))

    def __reduce__(self):
        # copy.deepcopy and pickle would copy each view as an array of its
        # own; rebuild the views on the copied buffer instead
        fields = {k: v for k, v in self.__dict__.items() if k not in (*_PARAM_NAMES, "flat", "shapes", "_views")}
        return _rebuild, (type(self), self.flat, self.shapes, fields)

    def param_items(self):
        return [(name, getattr(self, name)) for name in _PARAM_NAMES]

    def _check_views(self, what: str, shapes: tuple) -> None:
        """ValueError naming the first field rebound away from its view of
        ``flat``, or the first view not of its shape in ``shapes``."""
        fields = self.__dict__
        if self.shapes == shapes and all(map(operator.is_, map(fields.get, _PARAM_NAMES), self._views)):
            return
        for name, view, shape in zip(_PARAM_NAMES, self._views, shapes):
            if fields.get(name) is not view:
                raise ValueError(f"{what} {name} was rebound to an array outside its flat buffer; write into it with [...]")
            if view.shape != shape:
                raise ValueError(f"{what} shape {view.shape} != parameter {name} shape {shape}")


def _rebuild(cls, flat, shapes, fields):
    return cls._on_buffer(flat, shapes, **fields)


def _flat_views(flat: np.ndarray, shapes: tuple) -> tuple:
    """Writable views of the 1-d C-ordered float32 or float64 ``flat`` with
    ``shapes``, back to back; ValueError unless they cover it exactly."""
    flags = flat.flags
    # float32 trains; float64 is checked against finite differences and
    # serves every artifact
    if flat.dtype not in (np.float32, np.float64) or flat.ndim != 1 or not (flags.c_contiguous and flags.writeable):
        raise ValueError("a parameter buffer must be a writable 1-d C-contiguous float32 or float64 array")
    views, start = [], 0
    for shape in shapes:
        stop = start + math.prod(shape)
        views.append(flat[start:stop].reshape(shape))
        start = stop
    if start != flat.size:
        raise ValueError(f"shapes hold {start} values, the buffer {flat.size}")
    return tuple(views)


@dataclass
class EncoderState(_FlatParameters):
    """All trainable parameters plus the hyperparameters that shape them.

    w_in: (hidden, input), w_emb: (embed, hidden), w_clf: (C, embed);
    biases match their layer's output dimension. The six arrays are views of
    one buffer ``flat`` (``_FlatParameters``): the constructor copies the
    arrays it is given into a new one, ``copy`` copies the buffer once, and
    a state loaded from a checkpoint's packed copy uses its ``params``
    member as the buffer.
    """

    config: EncoderConfig
    w_in: np.ndarray
    b_in: np.ndarray
    w_emb: np.ndarray
    b_emb: np.ndarray
    w_clf: np.ndarray
    b_clf: np.ndarray
    init_seed: int = 0

    @classmethod
    def on_buffer(cls, config: EncoderConfig, flat: np.ndarray, init_seed: int = 0) -> "EncoderState":
        """The state whose parameters are views of ``flat`` itself."""
        return cls._on_buffer(flat, tuple(_param_shapes(config).values()), config=config, init_seed=init_seed)

    def copy(self) -> "EncoderState":
        return EncoderState.on_buffer(self.config, self.flat.copy(), self.init_seed)

    def astype(self, dtype) -> "EncoderState":
        """This state when its buffer is of ``dtype``, else the state on a new
        buffer of the values rounded to ``dtype`` (exact from float32 to
        float64)."""
        if self.flat.dtype == dtype:
            return self
        return EncoderState.on_buffer(self.config, self.flat.astype(dtype), self.init_seed)


@dataclass
class ParameterGradients(_FlatParameters):
    """One gradient per parameter, views of one buffer ``flat`` laid out as
    the state's (``_FlatParameters``)."""

    w_in: np.ndarray
    b_in: np.ndarray
    w_emb: np.ndarray
    b_emb: np.ndarray
    w_clf: np.ndarray
    b_clf: np.ndarray

    @classmethod
    def zeros_like(cls, state: EncoderState) -> "ParameterGradients":
        return cls._on_buffer(np.zeros_like(state.flat), state.shapes)


@dataclass
class ForwardTrace:
    """Everything the backward pass needs: per sample (N rows) the
    pre-activations and activations; per view (2N rows, view i + N the
    second view of sample i) the dropout mask (already scaled by
    1/(1-rate); all-ones when dropout is off), the embeddings and the
    classifier logits; and the inputs the training pass multiplied: the
    dense rows ``dense_c`` over the sorted input columns ``cols`` the batch
    touches, or over every input column when ``cols`` is None; ``backward``
    refuses a trace without ``dense_c``."""

    pre_hidden: np.ndarray
    hidden: np.ndarray
    mask: np.ndarray
    embedding: np.ndarray
    logits: np.ndarray
    dense_c: np.ndarray | None = None
    cols: np.ndarray | None = None


def _param_shapes(c: EncoderConfig) -> dict[str, tuple]:
    """Each parameter's shape, in ``_PARAM_NAMES`` order."""
    h, e, k = c.hidden_dim, c.embed_dim, c.num_classes
    return {"w_in": (h, c.input_dim), "b_in": (h,), "w_emb": (e, h), "b_emb": (e,), "w_clf": (k, e), "b_clf": (k,)}


def init_state(config: EncoderConfig, seed: int = 0) -> EncoderState:
    """Uniform +-1/sqrt(fan_in) initialization for every tensor, seeded, in
    ``_PARAM_NAMES`` order; a bias takes its layer's fan-in."""
    config.validate()
    rng = make_rng(seed)
    shapes = _param_shapes(config)
    params = {}
    for name, shape in shapes.items():
        bound = 1.0 / np.sqrt(shapes["w" + name[1:]][1])
        params[name] = rng.uniform(-bound, bound, size=shape)
    return EncoderState(config=config, init_seed=seed, **params)


def _activate(cfg: EncoderConfig, pre_hidden: np.ndarray) -> np.ndarray:
    if cfg.activation == "tanh":
        return np.tanh(pre_hidden)
    return np.maximum(pre_hidden, 0.0)


def _dropout_mask(cfg: EncoderConfig, shape: tuple, dtype, rng, masks) -> np.ndarray:
    """The scaled dropout mask of ``shape`` and ``dtype``: the given
    ``masks``, one block of float64 uniforms from ``rng`` (the same stream as
    one draw per row, whatever the dtype), or all ones when the rate is 0."""
    if masks is not None:
        mask = np.asarray(masks, dtype=dtype)
        if mask.shape != shape:
            raise ValueError(f"mask shape {mask.shape} != views' hidden shape {shape}")
        return mask
    if cfg.dropout_rate > 0.0:
        if rng is None:
            raise ValueError(f"dropout at rate {cfg.dropout_rate} requires an rng or masks")
        keep = rng.random(shape) >= cfg.dropout_rate
        return keep.astype(dtype) / (1.0 - cfg.dropout_rate)
    return np.ones(shape, dtype)


def _views(hidden: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """The (2N, hidden) dropped hidden rows of both views of N samples:
    sample i's row times mask rows i and i + N."""
    n, width = hidden.shape
    return (mask.reshape(2, n, width) * hidden).reshape(2 * n, width)


def _check_input_dim(state: EncoderState, batch: PackedSamples) -> None:
    if batch.input_dim != state.config.input_dim:
        raise ValueError(f"batch packed for input_dim={batch.input_dim}, encoder has {state.config.input_dim}")


def weight_rows(state: EncoderState, entries: int) -> np.ndarray:
    """``w_in.T``, the (input_dim, hidden) rows the input layer gathers, for
    a batch of ``entries`` feature entries: C-contiguous when there are at
    least as many entries as rows, since gathering many rows of the
    F-ordered view is strided loads. The copy holds the same values, so the
    choice does not change a bit. Adam updates ``w_in`` in place, so a copy
    serves one pass (or one store build) and is not kept."""
    w_rows = state.w_in.T
    return np.ascontiguousarray(w_rows) if entries >= state.config.input_dim else w_rows


def _input_layer(state: EncoderState, batch: PackedSamples, w_rows: np.ndarray) -> np.ndarray:
    """The input-layer sums (before the bias) of the whole batch, in ranges
    of rows whose gathered (entries, hidden) block stays near
    ``_GATHER_BLOCK_BYTES``. Rows are independent, so the bits do not
    depend on the ranges.

    Each range is cut from the batch's CSR arrays (``_gather_range``). A
    batch of one range scales every gathered row. A batch of several, when
    fewer than 1 in ``_SCALE_ALL_SHARE`` of its feature values are other
    than 1.0, scales only the gathered rows of those values: ``x * 1.0`` is
    ``x`` exactly, so the sums keep their bits."""
    n = len(batch)
    out = np.empty((n, state.config.hidden_dim))
    rows = max(1, _GATHER_BLOCK_BYTES * n // (8 * state.config.hidden_dim * batch.indices.size))
    indptr, indices, values = batch.indptr, batch.indices, batch.values
    if rows >= n:
        _gather_range(w_rows, indices, indptr[:-1], values[:, None], None, out)
        return out
    # range j holds entries edges[j]:edges[j + 1]
    edges = np.append(indptr[:n:rows], indptr[n])
    nonunit = (values != 1.0).nonzero()[0]
    cuts = None
    if _SCALE_ALL_SHARE * nonunit.size < values.size:
        cuts = nonunit.searchsorted(edges)
        factors = values[nonunit, None]
    for j, start in enumerate(range(0, n, rows)):
        lo, hi = edges[j], edges[j + 1]
        if cuts is None:
            positions, scale = None, values[lo:hi, None]
        else:
            # the range's non-unit entries, by position within the range
            a, b = cuts[j], cuts[j + 1]
            positions, scale = nonunit[a:b] - lo, factors[a:b]
        stop = min(start + rows, n)
        _gather_range(w_rows, indices[lo:hi], indptr[start:stop] - lo, scale, positions, out[start:stop])
    return out


def _gather_range(w_rows: np.ndarray, indices: np.ndarray, starts: np.ndarray, factors, positions, out) -> None:
    """The input-layer sums (before the bias) of one row range, from its
    CSR slices, into ``out``: the rows of ``w_rows`` (``w_in.T``,
    (input_dim, hidden)) that ``indices`` pick, scaled by the (m, 1)
    ``factors`` (every row when ``positions`` is None, else only the rows at
    those m positions) and summed per segment from ``starts`` by
    ``np.add.reduceat``, whose order depends on the segment alone."""
    if w_rows.flags.c_contiguous:
        columns = w_rows.take(indices, axis=0)
    else:
        # take would first copy the whole array
        columns = w_rows[indices]
    if positions is None:
        columns *= factors
    elif positions.size:
        columns[positions] *= factors
    np.add.reduceat(columns, starts, axis=0, out=out)


def forward_batch(
    state: EncoderState,
    batch: PackedSamples,
    rng: np.random.Generator | None = None,
    masks: np.ndarray | None = None,
    dense: np.ndarray | None = None,
) -> ForwardTrace:
    """The training pass over a packed batch of N samples, in the dtype of
    the state's buffer: the input layer and the activation once per sample,
    then two dropout views of each, view i + N the second view of sample i,
    through the embedding and classifier layers (2N rows each).

    The scaled (2N, hidden) dropout ``masks`` are given (which is how the
    gradient check freezes them), or drawn as one (2N, hidden) block of
    uniforms from ``rng`` (the same stream as 2N per-view draws), or all
    ones when the encoder's dropout rate is 0. ``dense`` is the batch's
    ``to_dense`` rows of that dtype, formed by the caller; the dense branch
    multiplies them (the trace keeps them) instead of forming its own, and
    the touched-column branch does not read them.
    """
    _check_input_dim(state, batch)
    dtype = state.flat.dtype
    if batch.indices.size < state.config.input_dim:
        # fewer features than w_in has columns (small batches over a wide
        # vocabulary): one product over the columns the batch touches
        dense_c, cols = _touched_columns(batch, dtype)
        pre_hidden = dense_c @ state.w_in[:, cols].T
    else:
        dense_c, cols = batch.to_dense(dtype) if dense is None else dense, None
        pre_hidden = dense_c @ state.w_in.T
    pre_hidden += state.b_in
    hidden = _activate(state.config, pre_hidden)
    n, width = hidden.shape
    mask = _dropout_mask(state.config, (2 * n, width), dtype, rng, masks)
    embedding = _views(hidden, mask) @ state.w_emb.T + state.b_emb
    logits = embedding @ state.w_clf.T + state.b_clf
    return ForwardTrace(pre_hidden, hidden, mask, embedding, logits, dense_c, cols)


def _touched_columns(batch: PackedSamples, dtype) -> tuple[np.ndarray, np.ndarray]:
    """(dense_c, cols): the sorted input columns ``cols`` that the batch's
    entries touch (an explicit zero value touches its column too) and the
    (n, cols.size) rows of ``batch.to_dense(dtype)`` cut to those columns.
    One mark per input column finds them, and each entry is written to its
    slot among them."""
    input_dim, indices = batch.input_dim, batch.indices
    touched = np.zeros(input_dim, dtype=bool)
    touched[indices] = True
    cols = touched.nonzero()[0]
    slot = np.empty(input_dim, dtype=np.intp)
    slot[cols] = np.arange(cols.size)
    n = len(batch)
    dense_c = np.zeros((n, cols.size), dtype)
    dense_c[np.arange(n).repeat(np.diff(batch.indptr)), slot[indices]] = batch.values
    return dense_c, cols


def rowwise_layers(state: EncoderState, batch: PackedSamples, w_rows: np.ndarray) -> np.ndarray:
    """The (n, embed) embeddings of the dropout-off pass over a batch already
    checked against the encoder (``pack_samples``), with ``w_rows`` from
    ``weight_rows``; each output row depends on its input row alone and
    comes out bit-identical in a batch of any size or order.

    The input layer is ``_input_layer`` (row ranges of gathered ``w_in``
    rows, each segment summed on its own); the embedding layer uses
    ``einsum`` on C-contiguous operands, which reduces each output entry over
    the last axis on its own.
    """
    pre_hidden = _input_layer(state, batch, w_rows)
    pre_hidden += state.b_in
    hidden = _activate(state.config, pre_hidden)
    embedding = np.einsum("ij,kj->ik", hidden, state.w_emb)
    embedding += state.b_emb
    return embedding


def rowwise_logits(state: EncoderState, embedding: np.ndarray) -> np.ndarray:
    """The classifier logits of ``rowwise_layers``' (n, embed) embeddings,
    each row from its own embedding row alone (``einsum``, as above)."""
    logits = np.einsum("ij,kj->ik", embedding, state.w_clf)
    logits += state.b_clf
    return logits


def backward(
    state: EncoderState,
    trace: ForwardTrace,
    grad_embedding: np.ndarray | None = None,
    grad_logits: np.ndarray | None = None,
    out: ParameterGradients | None = None,
) -> ParameterGradients:
    """Reverse-mode gradients for every parameter, summed over the 2N views
    of a batch trace, given upstream (2N, embed) gradients on the embeddings
    (contrastive path) and/or (2N, C) gradients on the logits
    (classification path). Both views' hidden gradients are added on their
    sample's row, so the input layer's gradients are products over the N
    samples. The gradients are written into one flat buffer laid out as the
    state's and of its dtype (``ParameterGradients``), each product and sum
    straight into its view: ``out``'s, which the call overwrites and
    returns (a ValueError names a view rebound away from it or a buffer of
    another dtype), or a new one; the upstream gradients are taken in that
    dtype."""
    cfg = state.config
    dtype = state.flat.dtype
    if trace.embedding.ndim != 2 or trace.dense_c is None:
        raise ValueError("backward needs a batch trace from forward_batch")
    n = trace.embedding.shape[0]
    if grad_embedding is None:
        d_embedding = np.zeros((n, cfg.embed_dim), dtype)
    else:
        d_embedding = np.asarray(grad_embedding, dtype=dtype)
    if d_embedding.shape != (n, cfg.embed_dim):
        raise ValueError(f"grad_embedding shape {d_embedding.shape} != ({n}, {cfg.embed_dim})")
    if out is None:
        grads = ParameterGradients._on_buffer(np.empty_like(state.flat), state.shapes)
    else:
        out._check_views("gradient", state.shapes)
        if out.flat.dtype != dtype:
            raise ValueError(f"gradient buffer dtype {out.flat.dtype} != parameter buffer dtype {dtype}")
        grads = out
    if grad_logits is None:
        grads.w_clf.fill(0.0)
        grads.b_clf.fill(0.0)
    else:
        d_logits = np.asarray(grad_logits, dtype=dtype)
        if d_logits.shape != (n, cfg.num_classes):
            raise ValueError(f"grad_logits shape {d_logits.shape} != ({n}, {cfg.num_classes})")
        np.matmul(d_logits.T, trace.embedding, out=grads.w_clf)
        np.add.reduce(d_logits, axis=0, out=grads.b_clf)
        d_embedding = d_embedding + d_logits @ state.w_clf

    d_views = (d_embedding @ state.w_emb) * trace.mask
    # both views of sample i reach its one hidden row
    d_hidden = d_views[: n // 2] + d_views[n // 2 :]
    if cfg.activation == "tanh":
        d_pre = d_hidden * (1.0 - trace.hidden**2)
    else:
        d_pre = d_hidden * (trace.pre_hidden > 0.0)
    if trace.cols is None:
        np.matmul(d_pre.T, trace.dense_c, out=grads.w_in)
    else:
        # the columns no input touched get exact zeros
        grads.w_in.fill(0.0)
        grads.w_in[:, trace.cols] = d_pre.T @ trace.dense_c
    np.add.reduce(d_pre, axis=0, out=grads.b_in)
    np.matmul(d_embedding.T, _views(trace.hidden, trace.mask), out=grads.w_emb)
    np.add.reduce(d_embedding, axis=0, out=grads.b_emb)
    return grads


def _payload_header(state: EncoderState) -> dict:
    """Every checkpoint payload field but ``params``."""
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
    }


def _checkpoint_chunks(state: EncoderState):
    """The bytes of the checkpoint JSON (docs/formats.md): ``json.dumps`` of
    the payload dict with each parameter as nested lists of floats in
    ``float_slots``' fixed form. Each parameter goes in blocks of whole rows
    of at most ``floatrepr.BLOCK`` values (at least one row; a 1-d parameter
    is one row), each block's floats laid out by one
    ``floatrepr.float_slots`` call."""
    # the header without its closing brace, then the params object
    yield json.dumps(_payload_header(state))[:-1].encode("utf-8") + b', "params": {'
    for name, arr in state.param_items():
        rows = arr.reshape(-1, arr.shape[-1])
        count, width = rows.shape
        step = max(1, floatrepr.BLOCK // width)
        yield f'{", " if name != _PARAM_NAMES[0] else ""}"{name}": ['.encode("utf-8")
        for first in range(0, count, step):
            block = rows[first : first + step]
            values = floatrepr.float_slots(block.ravel()).reshape(1, len(block), width, floatrepr.SLOT)
            # a 2-d parameter's rows are lists of their own, a 1-d one's one row is not
            pieces = [(len(block), ["[", (width, [values]), "]"])] if arr.ndim == 2 else [(width, [values[0]])]
            yield (b", " if first else b"") + floatrepr.lay_out(1, pieces)
        yield b"]"
    yield b"}}"


def save_checkpoint(state: EncoderState, path) -> None:
    """Write the checkpoint JSON to ``path`` in chunks and its packed copy
    beside it, keyed by the SHA-256 of the bytes written. A NaN or inf
    parameter is a CheckpointError naming it, raised before any byte is
    written, so an older checkpoint and its copy stay as they were. A
    float32 state is written as its exact float64 upcast."""
    state = state.astype(np.float64)
    for name, view in state.param_items():
        finite_array(view, view.shape, f"parameter {name}", path)
    digest = copies.write_hashed(path, _checkpoint_chunks(state))
    copies.write_copy(path, _COPY_VERSION, digest, _to_copy(state))


def finite_array(value, shape: tuple, what: str, source) -> np.ndarray:
    """``value`` as a float64 array of ``shape`` holding no NaN or inf (every
    checkpointed parameter and Adam moment); CheckpointError naming ``what``."""
    arr = np.asarray(value, dtype=np.float64)
    if arr.shape != shape:
        raise CheckpointError(f"{source}: {what} has shape {arr.shape}, expected {shape}")
    # json parses NaN and Infinity, which no parameter or Adam moment holds
    if not np.isfinite(arr).all():
        raise CheckpointError(f"{source}: {what} holds a NaN or inf value")
    return arr


def state_from_payload(payload: dict, source: str = "<payload>") -> EncoderState:
    """The EncoderState of a checkpoint payload, each value of its field's
    kind (``data.check_kind``, nothing converted); CheckpointError otherwise.
    ``params`` maps each name to its nested lists, or is a packed copy's
    flat array (float64 from a model copy, float32 from a trainer
    checkpoint), which becomes the state's buffer as it is."""
    if not isinstance(payload, dict) or payload.get("format") != _CHECKPOINT_FORMAT:
        raise CheckpointError(f"{source}: wrong or missing format marker")
    if payload.get("version") != _CHECKPOINT_VERSION:
        raise CheckpointError(f"{source}: unsupported checkpoint version {payload.get('version')!r}")
    try:
        config = EncoderConfig(
            **payload["dims"], activation=payload["activation"], dropout_rate=payload["dropout_rate"]
        )
        config.validate()
        params = payload["params"]
        if not isinstance(params, np.ndarray):
            # nested lists, each of its parameter's shape, into one new buffer
            params = np.concatenate([finite_array(params[name], shape, f"parameter {name}", source).ravel()
                                     for name, shape in _param_shapes(config).items()])
        # a packed copy's params member (sized by ``_from_copy``) is the buffer as it is
        state = EncoderState.on_buffer(config, params, payload.get("init_seed", 0))
        for name, view in state.param_items():
            finite_array(view, view.shape, f"parameter {name}", source)
        check_kinds(state)
    except CheckpointError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"{source}: malformed checkpoint ({exc})") from exc
    return state


def _to_copy(state: EncoderState) -> dict:
    """The arrays of a checkpoint's packed copy: the payload header as JSON
    bytes and the state's own flat buffer, which holds the parameters back
    to back, each flattened in C order."""
    header = np.frombuffer(json.dumps(_payload_header(state)).encode("utf-8"), dtype=np.uint8)
    return {"header": header, "params": state.flat}


def _parse_checkpoint(path) -> EncoderState:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CheckpointError(f"{path}: not a valid checkpoint ({exc})") from exc
    return state_from_payload(payload, source=str(path))


def _from_copy(arrays: dict, source: str, header=None):
    """The EncoderState of a packed copy's arrays, through every check of
    ``state_from_payload``, with the params member as its buffer; None when
    the header (``header`` when given, else the header member's JSON) is not
    a JSON object with valid dims or the params member is not the size those
    dims give."""
    try:
        header = json.loads(arrays["header"].tobytes()) if header is None else header
        config = EncoderConfig(**header["dims"])
        config.validate()
    # JSONDecodeError and UnicodeDecodeError are ValueErrors; a header or
    # dims of another JSON type fails with TypeError
    except (KeyError, TypeError, ValueError):
        return None
    if arrays["params"].size != sum(map(math.prod, _param_shapes(config).values())):
        return None
    return state_from_payload({**header, "params": arrays["params"]}, source=source)


def load_checkpoint(path) -> EncoderState:
    """The EncoderState of a checkpoint file, read from its packed copy when
    that copy stands for the file's bytes, else parsed (and the copy written
    again); both run every check of ``state_from_payload``."""
    return copies.load(
        path, _COPY_VERSION, _COPY_MEMBERS, _parse_checkpoint, lambda arrays: _from_copy(arrays, str(path)), _to_copy
    )
