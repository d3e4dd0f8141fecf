"""Training objectives and their hand-derived gradients.

The contrastive family operates on a duplicated batch of 2N embeddings where
rows i and i + N are two dropout views of sample i, and takes the labels of
the N samples, one (C,) row each: both views of a sample carry its labels.
Four variants share one code path and differ only in their positive sets and
negative weights:

    dcl  - positive is the own augmented view; negatives weighted 2 - l_ij
    ucl  - positive is the own augmented view; all weights 1
    scl  - positives are the own view plus every batch row with an identical
           label vector; all weights 1 (mean over positives)
    wscl - scl positives with the 2 - l_ij weights

l_ij is the label similarity: shared positive labels over the larger positive
count (0 for two all-zero rows). Labels are 0/1, so one product of the label
matrix with itself gives every l_ij, and two rows are identical exactly when
their overlap equals both positive counts. Every label-derived quantity
depends on the samples alone, so ``label_pairs`` forms these once on the
(N, N) grid of samples (``LabelPairs``), and the loss broadcasts them over
the four (N, N) blocks of the (2N, 2N) view grid. ``label_pairs`` takes a
stack of batches too, with one batched product: the overlaps are exact
integers, so each batch's terms are the bits it would get on its own, and
the ``Trainer`` forms them once per chunk of batches.

Every array follows the dtype of its input (``mathops.work_dtype``): the
training step runs them in float32, the gradient check in float64. Only the
loss scalars are summed in float64 whatever the dtype, and BCE's log terms
are formed in float64, where its clamp 1 - 1e-12 is not 1.0.

``contrastive_loss_from_similarities`` makes one pass of each kind over two
(2N, 2N) arrays, in place: the weights' logs, the masked softmax
(the diagonal set to -inf, so exp gives it exactly 0) and then the gradient,
which is returned in the first array. The similarities may be the second
array itself. A caller that runs many steps of one batch size passes the
same arrays each time; the results are the same bits as with fresh arrays.
The similarities are the embeddings' cosines clipped to [-1, 1], which the
training step forms from ``mathops.unit_rows``. Gradients with respect to
the pairwise similarities are analytic; the chain through cosine similarity
down to the embeddings is in ``contrastive_embedding_grads``, which reuses
the norms, unit vectors and cosine matrix of the forward pass and may form
its (2N, 2N) terms in the array that held the similarities.

The training step (``training.batch_gradients``) thus needs three (2N, 2N)
arrays, which the ``Trainer`` keeps across steps: the cosines; the clipped
similarities, which the loss may overwrite and the embedding gradient then
reuses; and the softmax that becomes the similarity gradient.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .data import check_binary_labels
from .mathops import work_dtype

__all__ = [
    "CONTRASTIVE_VARIANTS",
    "LabelPairs",
    "bce_loss",
    "contrastive_embedding_grads",
    "contrastive_loss_from_similarities",
    "label_pairs",
    "total_loss",
]

CONTRASTIVE_VARIANTS = ("dcl", "ucl", "scl", "wscl")
_BCE_EPS = 1e-12


def bce_loss(y_hat, y):
    """Binary cross entropy summed over classes (not averaged).

    Returns (loss, gradient with respect to the pre-sigmoid logits), the
    gradient being the fused stable form y_hat - y in ``y_hat``'s
    ``work_dtype``. Probabilities are clamped to [eps, 1-eps] inside the log
    only, and the loss is formed in float64.
    """
    dtype = work_dtype(y_hat)
    y_hat = np.asarray(y_hat, dtype=dtype)
    y = np.asarray(y, dtype=dtype)
    if y_hat.shape != y.shape:
        raise ValueError(f"shape mismatch: predictions {y_hat.shape} vs labels {y.shape}")
    # float64 whatever the dtype: in float32, 1 - 1e-12 is 1.0 and log(1 - p) -inf
    p = y_hat.astype(np.float64, copy=False).clip(_BCE_EPS, 1.0 - _BCE_EPS)
    t = y.astype(np.float64, copy=False)
    loss = -float(np.add.reduce(t * np.log(p) + (1.0 - t) * np.log(1.0 - p), axis=None))
    return loss, y_hat - y


class LabelPairs(NamedTuple):
    """The label terms of the contrastive loss (``label_pairs``) for one
    batch of N samples, or for a stack of batches along leading axes, where
    index j gives batch j's terms. A field a variant does not use is None."""

    log_weights: np.ndarray | None  # (..., N, N) log(2 - l_ij): dcl, wscl
    positive: np.ndarray | None  # (..., N, N) 0.0/1.0, identical label rows: scl, wscl
    num_positive: np.ndarray | None  # (..., N) int64, positives of each of a sample's views: scl, wscl

    @classmethod
    def empty(cls, grid: tuple, variant: str, dtype) -> "LabelPairs":
        """Unfilled arrays of ``variant``'s terms on the (..., N, N) ``grid``."""
        weighted, identical = variant in ("dcl", "wscl"), variant in ("scl", "wscl")
        return cls(
            np.empty(grid, dtype) if weighted else None,
            np.empty(grid, dtype) if identical else None,
            np.empty(grid[:-1], np.int64) if identical else None,
        )


def label_pairs(labels, variant: str, dtype, out: LabelPairs | None = None) -> LabelPairs:
    """The label terms of ``variant``'s contrastive loss, of ``dtype``, for
    the (..., N, C) 0/1 ``labels`` of one batch or a stack of batches: the
    log weights log(2 - l_ij), the mask of identical label rows and, per
    view, the count of its positives. Nothing is checked: the labels must be
    0/1 (``check_binary_labels``).

    Each batch's terms are the bits of a call on that batch alone: the
    overlaps are exact integers whatever order a batched product sums them
    in, and the rest is elementwise. ``out`` is an optional ``LabelPairs``
    of arrays of the results' shapes (``LabelPairs.empty``) that the call
    fills and returns; without it the call allocates them.
    """
    labels = np.asarray(labels)
    if out is None:
        out = LabelPairs.empty(labels.shape[:-1] + labels.shape[-2:-1], variant, dtype)
    # the fields the variant uses are the ones LabelPairs.empty makes
    weighted, identical = out.log_weights is not None, out.positive is not None
    if not (weighted or identical):
        return out
    y = labels.astype(dtype)
    counts = y.sum(axis=-1)
    # shared positive labels of each pair of samples, exact integers; the
    # contiguous copy of y.T makes this a gemm, several times faster than y @ y.T
    overlap = np.matmul(y, np.swapaxes(y, -1, -2).copy(), out=out.log_weights)
    if identical:
        # two 0/1 rows are identical iff their overlap equals both counts; a
        # sample is identical to itself, so this holds each view's twin too
        same = overlap == counts[..., :, None]
        same &= overlap == counts[..., None, :]
        # per view: every view of an identical sample but the view itself
        num_positive = np.multiply(np.count_nonzero(same, axis=-1), 2, out=out.num_positive)
        num_positive -= 1
        # as 0.0/1.0, which is what a product with the bool mask casts it to
        np.copyto(out.positive, same)
    if weighted:
        # log w_ij = log(2 - l_ij), l_ij = overlap / max(count_i, count_j, 1)
        larger = np.maximum(counts, 1.0)
        overlap /= np.maximum(larger[..., :, None], larger[..., None, :])
        np.subtract(2.0, overlap, out=overlap)
        np.log(overlap, out=overlap)
    return out


def total_loss(bce: float, con: float, alpha: float) -> float:
    """Combined objective: bce + alpha * con."""
    if alpha < 0.0:
        raise ValueError(f"alpha must be non-negative, got {alpha}")
    return bce + alpha * con


def contrastive_loss_from_similarities(sims, labels, tau1: float, variant: str = "dcl", workspace=None, pairs=None):
    """Loss and gradient treating the (2N, 2N) similarity matrix of the 2N
    views as free variables; entry (i, j) appears only in anchor i's term.

    ``labels`` is the (N, C) label matrix of the N samples: views i and
    i + N are both sample i. Returns (sum of per-anchor losses, gradient
    matrix of the similarities' shape). Per anchor i: -mean over positives p
    of log(exp(s_ip/tau) / sum_{j != i} w_ij exp(s_ij/tau)). Computed via
    log-sum-exp so small temperatures cannot overflow. Labels must be 0/1;
    any other value is a ValueError naming it (``check_binary_labels``). A
    pair with an all-zero label row gets l_ij = 0. ``pairs`` is the labels'
    ``label_pairs`` for this variant and dtype, formed by a caller that
    checked the labels already; without it the call checks the labels and
    forms them.

    Every array is of the similarities' ``work_dtype``, and the loss is
    summed in float64. ``workspace`` is an optional pair of C-contiguous
    (2N, 2N) arrays of that dtype that the call overwrites; the returned
    gradient is the first.
    ``sims`` may be the second (scl and wscl overwrite it with the
    positives' product), never the first. Without a workspace the call
    allocates both, so its gradient is its own.
    """
    if variant not in CONTRASTIVE_VARIANTS:
        raise ValueError(f"variant must be one of {CONTRASTIVE_VARIANTS}, got {variant!r}")
    if tau1 <= 0.0:
        raise ValueError(f"temperature must be positive, got {tau1}")
    dtype = work_dtype(sims)
    s = np.asarray(sims, dtype=dtype)
    labels = np.asarray(labels)
    n2 = s.shape[0]
    if s.shape != (n2, n2) or n2 < 2 or n2 % 2 != 0:
        raise ValueError(f"similarity matrix must be square with even size >= 2, got {s.shape}")
    n = n2 // 2
    if labels.ndim != 2 or labels.shape[0] != n:
        raise ValueError(f"labels of shape {labels.shape} do not give one row per sample of a batch of {n2} views")
    if pairs is None:
        check_binary_labels(labels)
        pairs = label_pairs(labels, variant, dtype)
    rows = np.arange(n2)
    z, pair = (np.empty((n2, n2), dtype), np.empty((n2, n2), dtype)) if workspace is None else workspace
    # the four (N, N) view blocks: z4[a, i, b, j] is z[aN + i, bN + j]
    z4 = z.reshape(2, n, 2, n)
    np.divide(s, tau1, out=z)
    positive, num_positive = pairs.positive, pairs.num_positive
    if variant in ("dcl", "wscl"):
        z4 += pairs.log_weights[None, :, None, :]

    # row-wise softmax over j != i gives the P_ij shares of the denominator
    z[rows, rows] = -np.inf
    z_max = z.max(axis=1, keepdims=True)
    z -= z_max
    np.exp(z, out=z)
    denom = z.sum(axis=1, keepdims=True)
    log_denom = np.log(denom[:, 0]) + z_max[:, 0]
    z /= denom
    z /= tau1

    # the gradient P_ij / tau - [j is a positive of i] / (|positives of i| tau)
    if variant in ("dcl", "ucl"):
        partners = (rows + n) % n2
        mean_positive = s[rows, partners]
        z[rows, partners] -= 1.0 / tau1
    else:
        # s_ij on the positives, 0 * s_ij elsewhere: on the diagonal too,
        # where the block form has a 1 (in place when s is pair itself)
        np.multiply(s.reshape(2, n, 2, n), positive[None, :, None, :], out=pair.reshape(2, n, 2, n))
        pair.reshape(-1)[:: n2 + 1] *= 0.0
        mean_positive = (pair.sum(axis=1).reshape(2, n) / num_positive).reshape(n2)
        # z >= +0 here, and x - (+0.0) is x for every float x: subtracting
        # positive * c, which is +0.0 off the positives (c finite and > 0),
        # gives the bits of subtracting c on the positives alone, without a
        # masked ufunc; the diagonal is reset below
        share = (1.0 / (num_positive * tau1)).astype(dtype)
        z4 -= (positive * share[:, None])[None, :, None, :]
    z[rows, rows] = 0.0
    loss = float(np.add.reduce(log_denom - mean_positive / tau1, dtype=np.float64))
    return loss, z


def contrastive_embedding_grads(
    unit: np.ndarray, norms: np.ndarray, cos: np.ndarray, grad_sims: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Chain a similarity-space gradient back to the embeddings through the
    cosine derivative d cos(h_i, h_j)/d h_i = (u_j - s_ij u_i)/|h_i|.

    Takes the pieces the forward cosine already computed
    (``mathops.unit_rows`` of the (2N, d) embeddings and the unclipped
    cosine matrix ``unit @ unit.T``), so a training step forms them once.
    Both (i, j) and (j, i) entries flow into h_i because the similarity
    matrix is symmetric in the embeddings. Every array is of
    ``grad_sims``' ``work_dtype``. ``out`` is an optional C-contiguous
    (2N, 2N) array of that dtype, neither ``cos`` nor ``grad_sims``,
    that the call overwrites with its (2N, 2N) terms; without it the call
    allocates one. The returned (2N, d) gradient is its own either way.
    """
    g = np.asarray(grad_sims, dtype=work_dtype(grad_sims))
    m = np.add(g, g.T, out=out)
    # the diagonal, as np.fill_diagonal sets it, without its checks
    m.flat[:: m.shape[0] + 1] = 0.0
    pulled = m @ unit
    np.multiply(m, cos, out=m)
    return (pulled - np.add.reduce(m, axis=1)[:, None] * unit) / norms[:, None]
