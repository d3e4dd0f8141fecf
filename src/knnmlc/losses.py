"""Training objectives and their hand-derived gradients.

The contrastive family operates on a duplicated batch of 2N embeddings where
rows i and (i + N) mod 2N are two dropout views of the same sample. Four
variants share one code path and differ only in their positive sets and
negative weights:

    dcl  - positive is the own augmented view; negatives weighted 2 - l_ij
    ucl  - positive is the own augmented view; all weights 1
    scl  - positives are the own view plus every batch row with an identical
           label vector; all weights 1 (mean over positives)
    wscl - scl positives with the 2 - l_ij weights

l_ij is the label similarity: shared positive labels over the larger positive
count (0 for two all-zero rows). Labels are 0/1, so one product of the label
matrix with itself gives every l_ij, and two rows are identical exactly when
their overlap equals both positive counts.

``contrastive_loss_from_similarities`` makes one pass of each kind over two
(2N, 2N) float64 arrays, in place: the weights' logs, the masked softmax
(the diagonal set to -inf, so exp gives it exactly 0) and then the gradient,
which is returned in the first array. A caller that runs many steps of one
batch size passes the same pair each time (the ``Trainer`` does); the
results are the same bits as with fresh arrays. Gradients with respect to
the pairwise similarities are analytic; the chain through cosine similarity
down to the embeddings is in ``contrastive_embedding_grads``, which reuses
the norms, unit vectors and cosine matrix of the forward pass.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .mathops import cosine_sim_matrix

logger = logging.getLogger(__name__)

__all__ = [
    "BatchViews",
    "CONTRASTIVE_VARIANTS",
    "bce_loss",
    "contrastive_embedding_grads",
    "contrastive_loss",
    "contrastive_loss_from_similarities",
    "total_loss",
]

CONTRASTIVE_VARIANTS = ("dcl", "ucl", "scl", "wscl")
_BCE_EPS = 1e-12


def bce_loss(y_hat, y):
    """Binary cross entropy summed over classes (not averaged).

    Returns (loss, gradient with respect to the pre-sigmoid logits), the
    gradient being the fused stable form y_hat - y. Probabilities are clamped
    to [eps, 1-eps] inside the log only.
    """
    y_hat = np.asarray(y_hat, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if y_hat.shape != y.shape:
        raise ValueError(f"shape mismatch: predictions {y_hat.shape} vs labels {y.shape}")
    p = np.clip(y_hat, _BCE_EPS, 1.0 - _BCE_EPS)
    loss = -float(np.sum(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))
    return loss, y_hat - y


def total_loss(bce: float, con: float, alpha: float) -> float:
    """Combined objective: bce + alpha * con."""
    if alpha < 0.0:
        raise ValueError(f"alpha must be non-negative, got {alpha}")
    return bce + alpha * con


@dataclass
class BatchViews:
    """2N embeddings and labels of a duplicated batch; rows i and
    (i + N) mod 2N are the two views of one underlying sample."""

    embeddings: np.ndarray  # (2N, d)
    labels: np.ndarray  # (2N, C), 0/1

    def __post_init__(self):
        self.embeddings = np.asarray(self.embeddings, dtype=np.float64)
        labels = np.asarray(self.labels)
        # checked before the int8 cast, which turns 0.5 into 0, 1.7 into 1 and 257 into 1
        bad = labels[(labels != 0) & (labels != 1)]
        if bad.size:
            raise ValueError(f"labels must be 0 or 1, got {bad[0]}")
        self.labels = np.asarray(labels, dtype=np.int8)
        n2 = self.embeddings.shape[0]
        if n2 < 2 or n2 % 2 != 0:
            raise ValueError(f"batch must hold an even number >= 2 of views, got {n2}")
        if self.labels.shape[0] != n2:
            raise ValueError("labels and embeddings disagree on batch size")

    @property
    def size(self) -> int:
        return self.embeddings.shape[0]

    def partner(self, i: int) -> int:
        return (i + self.size // 2) % self.size


def contrastive_loss_from_similarities(sims, labels, tau1: float, variant: str = "dcl", workspace=None):
    """Loss and gradient treating the (2N, 2N) similarity matrix as free
    variables; entry (i, j) appears only in anchor i's term.

    Returns (sum of per-anchor losses, gradient matrix of the same shape).
    Per anchor i: -mean over positives p of log(exp(s_ip/tau) /
    sum_{j != i} w_ij exp(s_ij/tau)). Computed via log-sum-exp so small
    temperatures cannot overflow. Labels must be 0/1; any other value is a
    ValueError naming it.

    ``workspace`` is an optional pair of (2N, 2N) float64 arrays that the
    call overwrites, neither of them ``sims``; the returned gradient is the
    first. Without it the call allocates both, so its gradient is its own.
    """
    if variant not in CONTRASTIVE_VARIANTS:
        raise ValueError(f"variant must be one of {CONTRASTIVE_VARIANTS}, got {variant!r}")
    if tau1 <= 0.0:
        raise ValueError(f"temperature must be positive, got {tau1}")
    s = np.asarray(sims, dtype=np.float64)
    labels = np.asarray(labels)
    n2 = s.shape[0]
    if s.shape != (n2, n2) or n2 < 2 or n2 % 2 != 0:
        raise ValueError(f"similarity matrix must be square with even size >= 2, got {s.shape}")
    if labels.ndim != 2 or labels.shape[0] != n2:
        raise ValueError(f"labels of shape {labels.shape} do not give one row per view of a batch of {n2}")
    bad = labels[(labels != 0) & (labels != 1)]
    if bad.size:
        raise ValueError(f"labels must be 0 or 1, got {bad[0]}")
    rows = np.arange(n2)
    partners = (rows + n2 // 2) % n2
    z, pair = (np.empty((n2, n2)), np.empty((n2, n2))) if workspace is None else workspace
    if variant != "ucl":
        y = labels.astype(np.float64)
        counts = y.sum(axis=1)
        # shared positive labels of each pair, exact integers; the contiguous
        # copy of y.T makes this a gemm, several times faster than y @ y.T
        np.matmul(y, y.T.copy(), out=pair)

    positive = None
    if variant in ("scl", "wscl"):
        # two 0/1 rows are identical iff their overlap equals both counts
        positive = pair == counts[:, None]
        positive &= pair == counts
        positive[rows, rows] = False
        positive[rows, partners] = True
    if variant in ("dcl", "wscl"):
        if np.any(counts == 0):
            logger.warning("the contrastive loss saw all-zero label rows; their pairs get label similarity 0")
        # log w_ij = log(2 - l_ij), l_ij = overlap / max(count_i, count_j, 1)
        larger = np.maximum(counts, 1.0)
        np.maximum(larger[:, None], larger, out=z)
        pair /= z
        np.subtract(2.0, pair, out=pair)
        np.log(pair, out=pair)
        np.divide(s, tau1, out=z)
        z += pair
    else:
        np.divide(s, tau1, out=z)

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
    if positive is None:
        mean_positive = s[rows, partners]
        z[rows, partners] -= 1.0 / tau1
    else:
        num_positive = np.count_nonzero(positive, axis=1)
        np.multiply(positive, s, out=pair)
        mean_positive = pair.sum(axis=1) / num_positive
        np.subtract(z, (1.0 / (num_positive * tau1))[:, None], out=z, where=positive)
    z[rows, rows] = 0.0
    loss = float(np.sum(log_denom - mean_positive / tau1))
    return loss, z


def contrastive_loss(batch: BatchViews, tau1: float, variant: str = "dcl"):
    """Contrastive loss over a duplicated batch: cosine similarities of the
    embeddings, then the similarity-space loss. Returns
    (loss, grad_wrt_similarities)."""
    sims = cosine_sim_matrix(batch.embeddings)
    return contrastive_loss_from_similarities(sims, batch.labels, tau1, variant)


def contrastive_embedding_grads(unit: np.ndarray, norms: np.ndarray, cos: np.ndarray, grad_sims: np.ndarray) -> np.ndarray:
    """Chain a similarity-space gradient back to the embeddings through the
    cosine derivative d cos(h_i, h_j)/d h_i = (u_j - s_ij u_i)/|h_i|.

    Takes the pieces the forward cosine already computed
    (``mathops.unit_rows`` of the (2N, d) embeddings and the unclipped
    ``unit @ unit.T``), so a training step forms them once. Both (i, j) and
    (j, i) entries flow into h_i because the similarity matrix is symmetric
    in the embeddings.
    """
    g = np.asarray(grad_sims, dtype=np.float64)
    m = g + g.T
    np.fill_diagonal(m, 0.0)
    return (m @ unit - np.sum(m * cos, axis=1)[:, None] * unit) / norms[:, None]
