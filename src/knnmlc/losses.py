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
count. Gradients with respect to the pairwise similarities are analytic; the
chain through cosine similarity down to the embeddings is in
``contrastive_embedding_grads``.
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
    "contrastive_weight",
    "label_similarity",
    "label_similarity_matrix",
    "pij",
    "total_loss",
    "weight_matrix",
]

CONTRASTIVE_VARIANTS = ("dcl", "ucl", "scl", "wscl")
_BCE_EPS = 1e-12


def label_similarity(y_i, y_j) -> float:
    """Shared positive labels divided by the larger positive count, in [0, 1].

    A pair with no positive labels on either side is defined as 0 (maximally
    dissimilar) and logged, rather than raising mid-training.
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


def label_similarity_matrix(labels: np.ndarray) -> np.ndarray:
    """All-pairs label similarities for (n, C) binary labels.

    Rows with identical labels (in particular a sample and its own augmented
    view) get similarity 1.
    """
    y = np.asarray(labels, dtype=np.float64)
    counts = y.sum(axis=1)
    if np.any(counts == 0):
        logger.warning("label_similarity_matrix saw all-zero label rows; their pairs get 0")
    common = y @ y.T
    denom = np.maximum(counts[:, None], counts[None, :])
    with np.errstate(invalid="ignore", divide="ignore"):
        l = np.where(denom > 0, common / np.where(denom > 0, denom, 1.0), 0.0)
    return l


def contrastive_weight(l: float) -> float:
    """Negative-pair weight 2 - l: 1 for identical labels up to 2 for disjoint."""
    if not 0.0 <= l <= 1.0:
        raise ValueError(f"label similarity must lie in [0, 1], got {l}")
    return 2.0 - l


def weight_matrix(l: np.ndarray) -> np.ndarray:
    l = np.asarray(l, dtype=np.float64)
    if np.any(l < 0.0) or np.any(l > 1.0):
        raise ValueError("label similarities must lie in [0, 1]")
    return 2.0 - l


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


def pij(similarities, weights, tau1: float) -> np.ndarray:
    """Normalized weighted-softmax shares w_j exp(s_j/tau) / sum_k w_k exp(s_k/tau)
    over the given entries (the caller excludes the anchor itself)."""
    if tau1 <= 0.0:
        raise ValueError(f"temperature must be positive, got {tau1}")
    s = np.asarray(similarities, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    if s.shape != w.shape or s.size == 0:
        raise ValueError("similarities and weights must be equal-length and nonempty")
    z = np.log(w) + s / tau1
    e = np.exp(z - np.max(z))
    return e / e.sum()


@dataclass
class BatchViews:
    """2N embeddings and labels of a duplicated batch; rows i and
    (i + N) mod 2N are the two views of one underlying sample."""

    embeddings: np.ndarray  # (2N, d)
    labels: np.ndarray  # (2N, C), 0/1

    def __post_init__(self):
        self.embeddings = np.asarray(self.embeddings, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int8)
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


def _positive_mask(labels: np.ndarray, variant: str) -> np.ndarray:
    """(2N, 2N) 0/1 matrix of each anchor's positives: its own augmented view,
    plus, for scl/wscl, every other row with an identical label vector."""
    n2 = labels.shape[0]
    rows = np.arange(n2)
    if variant in ("scl", "wscl"):
        group = np.unique(labels, axis=0, return_inverse=True)[1].reshape(-1)
        positive = group[:, None] == group[None, :]
    else:
        positive = np.zeros((n2, n2), dtype=bool)
    positive[rows, (rows + n2 // 2) % n2] = True
    positive[rows, rows] = False
    return positive.astype(np.float64)


def contrastive_loss_from_similarities(sims, labels, tau1: float, variant: str = "dcl"):
    """Loss and gradient treating the (2N, 2N) similarity matrix as free
    variables; entry (i, j) appears only in anchor i's term.

    Returns (sum of per-anchor losses, gradient matrix of the same shape).
    Per anchor i: -mean over positives p of log(exp(s_ip/tau) /
    sum_{j != i} w_ij exp(s_ij/tau)). Computed via log-sum-exp so small
    temperatures cannot overflow.
    """
    if variant not in CONTRASTIVE_VARIANTS:
        raise ValueError(f"variant must be one of {CONTRASTIVE_VARIANTS}, got {variant!r}")
    if tau1 <= 0.0:
        raise ValueError(f"temperature must be positive, got {tau1}")
    s = np.asarray(sims, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int8)
    n2 = s.shape[0]
    if s.shape != (n2, n2) or n2 < 2 or n2 % 2 != 0:
        raise ValueError(f"similarity matrix must be square with even size >= 2, got {s.shape}")
    if labels.shape[0] != n2:
        raise ValueError("labels and similarity matrix disagree on batch size")

    if variant in ("dcl", "wscl"):
        w = weight_matrix(label_similarity_matrix(labels))
    else:
        w = np.ones((n2, n2), dtype=np.float64)
    positive = _positive_mask(labels, variant)
    num_positive = positive.sum(axis=1)

    off_diag = ~np.eye(n2, dtype=bool)
    z = np.log(w) + s / tau1
    # row-wise softmax over j != i gives the P_ij shares of the denominator
    z_masked = np.where(off_diag, z, -np.inf)
    z_max = z_masked.max(axis=1, keepdims=True)
    expz = np.where(off_diag, np.exp(z_masked - z_max), 0.0)
    denom = expz.sum(axis=1, keepdims=True)
    p = expz / denom
    log_denom = np.log(denom[:, 0]) + z_max[:, 0]

    mean_positive = (positive * s).sum(axis=1) / num_positive
    loss = float(np.sum(log_denom - mean_positive / tau1))
    grad = p / tau1 - positive * (1.0 / (num_positive * tau1))[:, None]
    grad[np.arange(n2), np.arange(n2)] = 0.0
    return loss, grad


def contrastive_loss(batch: BatchViews, tau1: float, variant: str = "dcl"):
    """Contrastive loss over a duplicated batch: cosine similarities of the
    embeddings, then the similarity-space loss. Returns
    (loss, grad_wrt_similarities)."""
    sims = cosine_sim_matrix(batch.embeddings)
    return contrastive_loss_from_similarities(sims, batch.labels, tau1, variant)


def contrastive_embedding_grads(embeddings: np.ndarray, grad_sims: np.ndarray) -> np.ndarray:
    """Chain a similarity-space gradient back to the embeddings through the
    cosine derivative d cos(h_i, h_j)/d h_i = (u_j - s_ij u_i)/|h_i|.

    Both (i, j) and (j, i) entries flow into h_i because the similarity
    matrix is symmetric in the embeddings.
    """
    h = np.asarray(embeddings, dtype=np.float64)
    g = np.asarray(grad_sims, dtype=np.float64)
    norms = np.linalg.norm(h, axis=1)
    if np.any(norms == 0.0):
        raise ValueError("cosine gradients are undefined for zero-norm embeddings")
    u = h / norms[:, None]
    s = u @ u.T
    m = g + g.T
    np.fill_diagonal(m, 0.0)
    return (m @ u - np.sum(m * s, axis=1)[:, None] * u) / norms[:, None]
