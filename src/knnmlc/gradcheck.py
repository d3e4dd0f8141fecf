"""Finite-difference validation of the hand-derived gradients.

The check freezes one set of dropout masks, then compares the analytic
parameter gradients of the combined objective (binary cross entropy plus
alpha times the contrastive loss) against central finite differences of the
same objective. The finite-difference side only ever re-evaluates the loss;
it never calls the backward pass, so the two sides stay independent.

The check runs in float64. The ``Trainer`` runs the same functions in
float32, so each report also gives the gap between the analytic gradients
of the two dtypes at the same parameters (``float32_gap``).
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
    "finite_difference_gradients",
    "float32_gap",
    "gradcheck_suite_problems",
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
    # the largest relative gap between the float32 and float64 analytic
    # gradients at the float32 rounding of the parameters
    float32_gap: float


def finite_difference_gradients(
    state: EncoderState, batch, masks, alpha, tau1, variant="dcl", step: float = 1e-5
) -> ParameterGradients:
    """Central differences of the frozen-mask objective over every parameter
    entry. O(#params) loss evaluations; meant for small configurations."""
    grads = ParameterGradients.zeros_like(state)
    # entry j of the state's flat buffer is entry j of the gradients'
    theta = state.flat
    for j in range(theta.size):
        orig = theta[j]
        theta[j] = orig + step
        up = batch_objective(state, batch, masks, alpha, tau1, variant)
        theta[j] = orig - step
        down = batch_objective(state, batch, masks, alpha, tau1, variant)
        theta[j] = orig
        grads.flat[j] = (up - down) / (2.0 * step)
    return grads


def _relative_errors(a: np.ndarray, b: np.ndarray, rel_tol: float, abs_floor: float) -> np.ndarray:
    """|a - b| over max(|a|, |b|, abs_floor / rel_tol), entrywise; inf where
    either side is NaN or inf (inf - inf and inf / inf would give NaN)."""
    with np.errstate(invalid="ignore"):
        scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), abs_floor / rel_tol)
        return np.where(np.isfinite(a) & np.isfinite(b), np.abs(a - b) / scale, np.inf)


def float32_gap(state: EncoderState, batch, masks, alpha, tau1, variant="dcl", rel_tol=1e-4, abs_floor=1e-7) -> float:
    """The largest relative gap (scaled as in ``gradient_check``) between the
    analytic gradients of float32 and of float64 arithmetic, both at the
    float32 rounding of ``state``'s parameters and with ``masks`` rounded
    to float32 on the float32 side, as a ``Trainer`` step rounds them."""
    low = state.astype(np.float32)
    grads32 = batch_gradients(low, batch, alpha, tau1, variant, masks=masks)[3]
    grads64 = batch_gradients(low.astype(np.float64), batch, alpha, tau1, variant, masks=masks)[3]
    gaps = _relative_errors(grads32.flat.astype(np.float64), grads64.flat, rel_tol, abs_floor)
    return float(gaps.max()) if gaps.size else 0.0


def gradient_check(
    state: EncoderState,
    batch,
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
    holds one is the worst. The report's ``float32_gap`` is ``float32_gap``
    of the same problem."""
    _, _, _, analytic, _ = batch_gradients(state, batch, alpha, tau1, variant, masks=masks)
    numeric = finite_difference_gradients(state, batch, masks, alpha, tau1, variant, step=step)

    max_rel = 0.0
    worst = ""
    per_param: dict[str, float] = {}
    total = 0
    passed = True
    for name, a in analytic.param_items():
        n = getattr(numeric, name)
        rel = _relative_errors(a, n, rel_tol, abs_floor)
        param_max = float(rel.max()) if rel.size else 0.0
        per_param[name] = param_max
        total += a.size
        if param_max > max_rel:
            max_rel = param_max
            worst = name
        with np.errstate(invalid="ignore"):
            failing = np.abs(a - n) > abs_floor + rel_tol * np.maximum(np.abs(a), np.abs(n))
        if param_max == np.inf or failing.any():
            passed = False
    return GradCheckReport(
        max_rel_error=max_rel, worst_param=worst, num_params=total, passed=passed, per_param=per_param,
        float32_gap=float32_gap(state, batch, masks, alpha, tau1, variant, rel_tol, abs_floor),
    )


def random_views(rng, n: int, config: EncoderConfig) -> tuple[PackedSamples, np.ndarray]:
    """A packed batch of n random sparse samples for ``config`` (each with
    at least one feature and one label, and no id), and frozen (2n, hidden)
    dropout masks of their two views at the config's rate, drawn from
    ``rng``."""
    input_dim, num_classes = config.input_dim, config.num_classes
    indices, values, labels = [], [], np.zeros((n, num_classes), dtype=np.int8)
    for i in range(n):
        nnz = int(rng.integers(1, max(2, input_dim // 2) + 1))
        indices.append(rng.choice(input_dim, size=nnz, replace=False))
        labels[i, rng.integers(num_classes)] = 1
        labels[i, rng.random(num_classes) < 0.3] = 1
        values.append(rng.uniform(0.5, 2.0, nnz))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum([idx.size for idx in indices], out=indptr[1:])
    batch = PackedSamples(indptr, np.concatenate(indices).astype(np.int64), np.concatenate(values), labels,
                          input_dim, np.zeros(n + 1, dtype=np.int64), np.empty(0, dtype=np.uint8))
    keep = 1.0 - config.dropout_rate
    if keep < 1.0:
        masks = (rng.random((2 * n, config.hidden_dim)) >= config.dropout_rate).astype(np.float64) / keep
    else:
        masks = np.ones((2 * n, config.hidden_dim))
    return batch, masks


def random_gradcheck_problem(seed: int, variant: str = "dcl"):
    """A random small configuration: dims, a fresh state, a packed batch of N
    random sparse samples, frozen (2N, hidden) dropout masks, and loss
    hyperparameters."""
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
    batch, masks = random_views(rng, n, config)
    return state, batch, masks, alpha, tau1, variant


def gradcheck_suite_problems(num_configs: int = 20, seed: int = 0):
    """The problems ``run_gradcheck_suite`` checks: ``random_gradcheck_problem``
    of seeds ``seed``, ``seed + 1``, ..., cycling through the variants."""
    for i in range(num_configs):
        yield random_gradcheck_problem(seed + i, variant=CONTRASTIVE_VARIANTS[i % len(CONTRASTIVE_VARIANTS)])


def run_gradcheck_suite(num_configs: int = 20, seed: int = 0, step: float = 1e-5):
    """Gradient-check many random configurations; returns the list of reports."""
    return [gradient_check(*problem, step=step) for problem in gradcheck_suite_problems(num_configs, seed)]
