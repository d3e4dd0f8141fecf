"""Finite-difference validation of the hand-derived gradients.

The check freezes one set of dropout masks, then compares the analytic
parameter gradients of the combined objective (binary cross entropy plus
alpha times the contrastive loss) against central finite differences of the
same objective. The finite-difference side only ever re-evaluates the loss;
it never calls the backward pass, so the two sides stay independent.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import PackedSamples
from .encoder import EncoderConfig, EncoderState, ParameterGradients, init_state
from .losses import CONTRASTIVE_VARIANTS
from .mathops import make_rng
from .training import batch_gradients, batch_objective

__all__ = [
    "GradCheckReport",
    "duplicated_views",
    "finite_difference_gradients",
    "gradient_check",
    "random_gradcheck_problem",
    "random_views",
    "run_gradcheck_suite",
]


@dataclass
class GradCheckReport:
    max_rel_error: float
    worst_param: str
    num_params: int
    passed: bool
    per_param: dict[str, float]


def finite_difference_gradients(
    state: EncoderState, views, masks, alpha, tau1, variant="dcl", step: float = 1e-5
) -> ParameterGradients:
    """Central differences of the frozen-mask objective over every parameter
    entry. O(#params) loss evaluations; meant for small configurations."""
    grads = ParameterGradients.zeros_like(state)
    # entry j of the state's flat buffer is entry j of the gradients'
    theta = state.flat
    for j in range(theta.size):
        orig = theta[j]
        theta[j] = orig + step
        up = batch_objective(state, views, masks, alpha, tau1, variant)
        theta[j] = orig - step
        down = batch_objective(state, views, masks, alpha, tau1, variant)
        theta[j] = orig
        grads.flat[j] = (up - down) / (2.0 * step)
    return grads


def gradient_check(
    state: EncoderState,
    views,
    masks,
    alpha: float,
    tau1: float,
    variant: str = "dcl",
    step: float = 1e-5,
    rel_tol: float = 1e-4,
    abs_floor: float = 1e-7,
) -> GradCheckReport:
    """Compare analytic and finite-difference gradients entrywise.

    An entry passes when |analytic - numeric| <= abs_floor + rel_tol * scale
    with scale = max(|analytic|, |numeric|). Reports the worst relative error
    (measured against that tolerance structure). A NaN or infinite entry on
    either side fails, with relative error inf, so the first parameter that
    holds one is the worst."""
    _, _, _, analytic, _ = batch_gradients(state, views, alpha, tau1, variant, masks=masks)
    numeric = finite_difference_gradients(state, views, masks, alpha, tau1, variant, step=step)

    max_rel = 0.0
    worst = ""
    per_param: dict[str, float] = {}
    total = 0
    passed = True
    for name, a in analytic.param_items():
        n = getattr(numeric, name)
        # every comparison with NaN is false, so a non-finite entry's error
        # is set to inf (inf - inf and inf / inf would give NaN)
        with np.errstate(invalid="ignore"):
            diff = np.abs(a - n)
            scale = np.maximum(np.maximum(np.abs(a), np.abs(n)), abs_floor / rel_tol)
            rel = np.where(np.isfinite(a) & np.isfinite(n), diff / scale, np.inf)
        param_max = float(rel.max()) if rel.size else 0.0
        per_param[name] = param_max
        total += a.size
        if param_max > max_rel:
            max_rel = param_max
            worst = name
        if param_max == np.inf or np.any(diff > abs_floor + rel_tol * np.maximum(np.abs(a), np.abs(n))):
            passed = False
    return GradCheckReport(
        max_rel_error=max_rel, worst_param=worst, num_params=total, passed=passed, per_param=per_param
    )


def duplicated_views(indices, values, labels, input_dim: int) -> PackedSamples:
    """The 2N views of N samples (``PackedSamples.two_views``), packed
    straight from each sample's feature indices (distinct, in [0,
    input_dim)), feature values and (C,) label row; rows N..2N-1 repeat rows
    0..N-1, and no view has an id."""
    n = len(indices)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.fromiter(map(len, indices), dtype=np.int64, count=n), out=indptr[1:])
    batch = PackedSamples(
        indptr,
        np.concatenate(indices).astype(np.int64, copy=False),
        np.concatenate(values).astype(np.float64, copy=False),
        np.array(labels, dtype=np.int8),
        input_dim,
        np.zeros(n + 1, dtype=np.int64),
        np.empty(0, dtype=np.uint8),
    )
    return batch.two_views(np.arange(n))


def random_views(rng, n: int, config: EncoderConfig) -> tuple[PackedSamples, np.ndarray]:
    """The 2n duplicated views of n random sparse samples for ``config``
    (each with at least one feature and one label), and frozen (2n, hidden)
    dropout masks at the config's rate, drawn from ``rng``."""
    input_dim, num_classes = config.input_dim, config.num_classes
    rows = []
    for _ in range(n):
        nnz = int(rng.integers(1, max(2, input_dim // 2) + 1))
        idx = rng.choice(input_dim, size=nnz, replace=False)
        labels = np.zeros(num_classes, dtype=np.int8)
        labels[rng.integers(num_classes)] = 1
        labels[rng.random(num_classes) < 0.3] = 1
        rows.append((idx, rng.uniform(0.5, 2.0, nnz), labels))
    views = duplicated_views(*zip(*rows), input_dim)
    keep = 1.0 - config.dropout_rate
    if keep < 1.0:
        masks = (rng.random((len(views), config.hidden_dim)) >= config.dropout_rate).astype(np.float64) / keep
    else:
        masks = np.ones((len(views), config.hidden_dim))
    return views, masks


def random_gradcheck_problem(seed: int, variant: str = "dcl"):
    """A random small configuration: dims, a fresh state, a packed duplicated
    batch of random sparse samples, frozen (2N, hidden) dropout masks, and
    loss hyperparameters."""
    rng = make_rng(seed)
    input_dim = int(rng.integers(4, 13))
    hidden_dim = int(rng.integers(3, 9))
    embed_dim = int(rng.integers(2, 9))
    num_classes = int(rng.integers(2, 9))
    n = int(rng.integers(2, 9))  # 2N <= 16
    dropout_rate = float(rng.choice([0.0, 0.1, 0.2]))
    alpha = float(rng.choice([0.05, 0.1, 0.5, 1.0]))
    tau1 = float(rng.choice([0.05, 0.1, 0.5]))

    config = EncoderConfig(
        input_dim=input_dim,
        hidden_dim=hidden_dim,
        embed_dim=embed_dim,
        num_classes=num_classes,
        activation="tanh",
        dropout_rate=dropout_rate,
    )
    state = init_state(config, seed=int(rng.integers(1 << 30)))
    views, masks = random_views(rng, n, config)
    return state, views, masks, alpha, tau1, variant


def run_gradcheck_suite(num_configs: int = 20, seed: int = 0, step: float = 1e-5):
    """Gradient-check many random configurations; returns the list of reports."""
    reports = []
    for i in range(num_configs):
        problem = random_gradcheck_problem(seed + i, variant=CONTRASTIVE_VARIANTS[i % len(CONTRASTIVE_VARIANTS)])
        reports.append(gradient_check(*problem, step=step))
    return reports
