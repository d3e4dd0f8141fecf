"""Shared deterministic numerics: row norms and unit rows, temperature
softmax, stable sigmoid, and seeded RNG construction.

``unit_rows`` and ``sigmoid`` keep a float32 input in float32, which is how
the training step runs (``work_dtype``); every other input, and all of
``softmax_temp``, is computed in float64. Functions are pure; RNG instances
are single-owner and must not be shared across threads.
"""
from __future__ import annotations

import numpy as np

__all__ = [
    "make_rng",
    "sigmoid",
    "softmax_temp",
    "unit_rows",
    "work_dtype",
]


def make_rng(seed: int) -> np.random.Generator:
    """Seeded PCG64 generator.

    PCG64 is a named, platform-independent algorithm: the same seed yields the
    same stream bit-for-bit on every platform, which is what makes training
    runs and dataset generation reproducible. Each returned instance is owned
    by exactly one consumer.
    """
    return np.random.Generator(np.random.PCG64(seed))


def work_dtype(x) -> type:
    """The dtype arithmetic on ``x`` runs in: float32 for a float32 array,
    float64 for anything else. Training runs in float32 and the gradient
    check and inference in float64, through the same functions."""
    return np.float32 if getattr(x, "dtype", None) == np.float32 else np.float64


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """Euclidean norms of the rows of a float (n, d) array, each from its
    own row alone: the arithmetic of ``np.linalg.norm(rows, axis=1)``
    without its Python-level dispatch."""
    return np.sqrt(np.add.reduce(rows * rows, axis=1))


def unit_rows(rows) -> tuple[np.ndarray, np.ndarray]:
    """``(unit, norms)``: the rows of an (n, d) array scaled to unit length,
    and their Euclidean norms, in ``work_dtype``. Every row's result depends
    on that row alone.

    Raises ValueError if any row has zero norm.
    """
    rows = np.asarray(rows, dtype=work_dtype(rows))
    norms = _row_norms(rows)
    if (norms == 0.0).any():
        raise ValueError("cosine similarity is undefined for zero-norm rows")
    return rows / norms[:, None], norms


def softmax_temp(scores, tau: float) -> np.ndarray:
    """Temperature softmax along the last axis: exp(s/tau) normalized,
    computed with max-subtraction so large |s|/tau cannot overflow. Each row
    of a stack of score rows is reduced on its own.

    The caller guarantees tau > 0 and finite, nonempty scores (inference
    checks both once per batch); the output is then non-negative and sums
    to 1 along the last axis.
    """
    # direct ufunc reductions: the arithmetic of np.max / np.sum without
    # their Python-level wrappers, which dominate at k-sized inputs
    z = np.asarray(scores, dtype=np.float64) / tau
    e = np.exp(z - np.maximum.reduce(z, axis=-1, keepdims=True))
    return e / np.add.reduce(e, axis=-1, keepdims=True)


def sigmoid(x):
    """Numerically stable logistic function, elementwise, in ``work_dtype``.

    Uses the two-branch form so exp() is only ever called on non-positive
    arguments; safe for |x| well beyond 700.
    """
    x = np.asarray(x, dtype=work_dtype(x))
    e = np.exp(-np.abs(x))
    # one division: the same quotient 1/denom or e/denom for each entry
    out = np.where(x >= 0, 1.0, e) / (1.0 + e)
    if out.ndim == 0:
        return float(out)
    return out
