"""Shared deterministic numerics: unit rows and all-pairs cosine similarity,
temperature softmax, stable sigmoid, and seeded RNG construction.

All arithmetic is done in float64 regardless of input dtype. Functions are
pure; RNG instances are single-owner and must not be shared across threads.
"""
from __future__ import annotations

import numpy as np

__all__ = [
    "cosine_sim_matrix",
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

