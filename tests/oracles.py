"""Scalar and per-sample reference implementations that only tests use.

Each one computes, for one pair or one sample, what the package computes for
a whole batch at once; tests check the batched code against them.
"""
import logging

import numpy as np

from knnmlc.data import PackedSamples, Sample, pack_samples
from knnmlc.encoder import EncoderState, ForwardTrace, forward_rowwise

logger = logging.getLogger(__name__)


def cosine_sim(a, b) -> float:
    """Cosine similarity of two equal-length vectors, in [-1, 1].

    Raises ValueError on length mismatch or zero-norm input (never a silent 0).
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError(f"cosine_sim expects equal-length 1-d vectors, got {a.shape} and {b.shape}")
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        raise ValueError("cosine_sim is undefined for zero-norm input")
    return float(np.clip(a @ b / (na * nb), -1.0, 1.0))


def logsumexp(a, axis=None):
    """log(sum(exp(a))) with max-subtraction, stable for large entries."""
    a = np.asarray(a, dtype=np.float64)
    m = np.max(a, axis=axis, keepdims=True)
    out = np.log(np.sum(np.exp(a - m), axis=axis, keepdims=True)) + m
    return float(out.ravel()[0]) if axis is None else np.squeeze(out, axis=axis)


def label_similarity(y_i, y_j) -> float:
    """Shared positive labels divided by the larger positive count, in [0, 1]:
    one entry of ``losses.label_similarity_matrix``.

    A pair with no positive labels on either side is defined as 0 (maximally
    dissimilar) and logged.
    """
    y_i = np.asarray(y_i)
    y_j = np.asarray(y_j)
    if y_i.shape != y_j.shape:
        raise ValueError(f"label vectors must have equal length, got {y_i.shape} and {y_j.shape}")
    ni = int(y_i.sum())
    nj = int(y_j.sum())
    if ni == 0 and nj == 0:
        logger.warning("label_similarity of two all-zero label vectors; defining it as 0")
        return 0.0
    common = int(np.sum((y_i > 0) & (y_j > 0)))
    return common / max(ni, nj)


def contrastive_weight(l: float) -> float:
    """Negative-pair weight 2 - l, one entry of ``losses.weight_matrix``: 1 for
    identical labels up to 2 for disjoint."""
    if not 0.0 <= l <= 1.0:
        raise ValueError(f"label similarity must lie in [0, 1], got {l}")
    return 2.0 - l


def pij(similarities, weights, tau1: float) -> np.ndarray:
    """Normalized weighted-softmax shares w_j exp(s_j/tau) / sum_k w_k exp(s_k/tau)
    over the given entries (the caller excludes the anchor itself): one row of
    the masked softmax in ``losses.contrastive_loss_from_similarities``."""
    if tau1 <= 0.0:
        raise ValueError(f"temperature must be positive, got {tau1}")
    s = np.asarray(similarities, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    if s.shape != w.shape or s.size == 0:
        raise ValueError("similarities and weights must be equal-length and nonempty")
    z = np.log(w) + s / tau1
    e = np.exp(z - np.max(z))
    return e / e.sum()


def forward(state: EncoderState, sample: Sample) -> ForwardTrace:
    """The dropout-off network on one sample, as a batch of one of
    ``forward_rowwise``, so the result equals that sample's row in any
    inference batch; the trace holds the 1-d rows."""
    batch = pack_samples([sample], state.config.input_dim)
    t = forward_rowwise(state, batch)
    return ForwardTrace(batch, t.pre_hidden[0], t.hidden[0], t.mask[0], t.embedding[0], t.logits[0])


def column_gather(w_in: np.ndarray, batch: PackedSamples) -> np.ndarray:
    """The (n, hidden) input-layer sums before the bias, as the sparse branch
    of ``forward_batch`` formed them before it shared the row gather: the
    ``w_in`` columns the features touch, scaled by their values and summed
    per row segment along axis 1."""
    columns = w_in[:, batch.indices] * batch.values
    return np.add.reduceat(columns, batch.indptr[:-1], axis=1).T
