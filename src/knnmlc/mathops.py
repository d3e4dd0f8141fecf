"""Shared deterministic numerics: cosine similarity, temperature softmax,
stable sigmoid, log-sum-exp, and seeded RNG construction.

All arithmetic is done in float64 regardless of input dtype. Functions are
pure; RNG instances are single-owner and must not be shared across threads.
"""
from __future__ import annotations

import numpy as np

__all__ = [
    "cosine_sim",
    "cosine_sim_matrix",
    "logsumexp",
    "make_rng",
    "sigmoid",
    "softmax_temp",
    "unit_rows",
]


def make_rng(seed: int) -> np.random.Generator:
    """Seeded PCG64 generator.

    PCG64 is a named, platform-independent algorithm: the same seed yields the
    same stream bit-for-bit on every platform, which is what makes training
    runs and dataset generation reproducible. Each returned instance is owned
    by exactly one consumer.
    """
    return np.random.Generator(np.random.PCG64(seed))


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


def unit_rows(rows) -> tuple[np.ndarray, np.ndarray]:
    """``(unit, norms)``: the rows of an (n, d) array scaled to unit length,
    and their Euclidean norms. Every row's result depends on that row alone.

    Raises ValueError if any row has zero norm.
    """
    rows = np.asarray(rows, dtype=np.float64)
    norms = np.linalg.norm(rows, axis=1)
    if np.any(norms == 0.0):
        raise ValueError("cosine similarity is undefined for zero-norm rows")
    return rows / norms[:, None], norms


def cosine_sim_matrix(rows: np.ndarray) -> np.ndarray:
    """All-pairs cosine similarities of the rows of an (n, d) array.

    Raises ValueError if any row has zero norm.
    """
    unit, _ = unit_rows(rows)
    return np.clip(unit @ unit.T, -1.0, 1.0)


def softmax_temp(scores, tau: float) -> np.ndarray:
    """Temperature softmax along the last axis: exp(s/tau) normalized,
    computed with max-subtraction so large |s|/tau cannot overflow. Each row
    of a stack of score rows is reduced on its own.

    Output is non-negative and sums to 1 along the last axis. Raises
    ValueError for tau <= 0, empty or non-finite scores.
    """
    if tau <= 0.0:
        raise ValueError(f"temperature must be positive, got {tau}")
    s = np.asarray(scores, dtype=np.float64)
    if s.size == 0:
        raise ValueError("softmax_temp received empty scores")
    # direct ufunc reductions: the same arithmetic as np.all / np.max / sum
    # without their Python-level wrappers, which dominate at k-sized inputs
    if not np.logical_and.reduce(np.isfinite(s), axis=None):
        raise ValueError("softmax_temp received non-finite scores")
    z = s / tau
    e = np.exp(z - np.maximum.reduce(z, axis=-1, keepdims=True))
    return e / np.add.reduce(e, axis=-1, keepdims=True)


def sigmoid(x):
    """Numerically stable logistic function, elementwise.

    Uses the two-branch form so exp() is only ever called on non-positive
    arguments; safe for |x| well beyond 700.
    """
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))
    denom = 1.0 + e
    out = np.where(x >= 0, 1.0 / denom, e / denom)
    if out.ndim == 0:
        return float(out)
    return out


def logsumexp(a, axis=None):
    """log(sum(exp(a))) with max-subtraction, stable for large entries."""
    a = np.asarray(a, dtype=np.float64)
    m = np.max(a, axis=axis, keepdims=True)
    out = np.log(np.sum(np.exp(a - m), axis=axis, keepdims=True)) + m
    return float(out.ravel()[0]) if axis is None else np.squeeze(out, axis=axis)
