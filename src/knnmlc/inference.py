"""Inference: kNN prediction from retrieved neighbors, per-sample confidence
estimation, and adaptive combination with the classifier prediction.

The confidence of the kNN prediction is estimated from the labels the
classifier itself is sure about: threshold the classifier probabilities at
gamma to get a high-confidence label subset, then take the minimum kNN
probability over that subset as the mixing weight lambda. An empty subset
falls back to lambda = 0 (trust the classifier): with no anchor labels there
is nothing to judge the neighbors by.

Modes: "denn" runs the full adaptive pipeline; "classifier_only" and
"knn_only" pin lambda to 0 and 1; "fixed_lambda" uses a constant weight (the
non-adaptive baseline).

The batch is the unit of work. ``predict_batch`` takes a packed split,
embeds it with the row-stable dropout-off pass (``encoder.forward_rowwise``,
the pass that also made the store's keys), retrieves every query's
neighbors in blocks (``datastore.retrieve_topk``), and runs the vote,
lambda and combination as array operations over (n, k) and (n, C) arrays,
each reducing along one fixed axis of its own row. So every row is
bit-identical whatever batch it sits in, and ``predict`` on ``split[i]``, a
batch of one, gives the same bits as that sample's record from the CLI,
which predicts the whole test file in one batch. A training sample as a query gets the embedding whose float32 is
its store key. The component functions act on the last axis and take one
row or a stack of rows alike.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import PackedSamples, check_kinds, pack_samples
from .datastore import Datastore, retrieve_topk
from .encoder import EncoderState, classify, forward_rowwise
from .mathops import softmax_temp

__all__ = [
    "INFERENCE_MODES",
    "InferenceConfig",
    "PredictionBundle",
    "combine",
    "debiased_lambda",
    "high_confidence_subset",
    "knn_predict",
    "predict",
    "predict_batch",
]

INFERENCE_MODES = ("denn", "classifier_only", "knn_only", "fixed_lambda")


@dataclass
class InferenceConfig:
    k: int = 30
    tau2: float = 0.05
    gamma: float = 0.7
    mode: str = "denn"
    fixed_lambda_value: float = 0.5
    decision_threshold: float = 0.5

    def validate(self) -> None:
        check_kinds(self)
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.tau2 <= 0.0:
            raise ValueError("tau2 must be > 0")
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must lie in (0, 1)")
        if self.mode not in INFERENCE_MODES:
            raise ValueError(f"mode must be one of {INFERENCE_MODES}, got {self.mode!r}")
        if not 0.0 <= self.fixed_lambda_value <= 1.0:
            raise ValueError("fixed_lambda_value must lie in [0, 1]")
        if not 0.0 < self.decision_threshold < 1.0:
            raise ValueError("decision_threshold must lie in (0, 1)")


@dataclass
class PredictionBundle:
    """Everything a prediction produced, for auditability.

    From ``predict_batch`` every field has a leading row axis: y_clf, y_knn,
    high_conf_mask and y_final are (n, C), lam is (n,), and the neighbors are
    (n, k) arrays of store indices and similarities (k = 0 without a store).
    ``row(i)`` and ``predict`` give one sample's bundle, with (C,) vectors,
    a float lam and (k,) neighbor arrays.
    """

    y_clf: np.ndarray
    y_knn: np.ndarray
    high_conf_mask: np.ndarray
    lam: np.ndarray | float
    y_final: np.ndarray
    neighbor_indices: np.ndarray
    neighbor_sims: np.ndarray

    def decisions(self, threshold: float = 0.5) -> np.ndarray:
        return (self.y_final >= threshold).astype(np.int8)

    def row(self, i: int) -> "PredictionBundle":
        return PredictionBundle(
            y_clf=self.y_clf[i],
            y_knn=self.y_knn[i],
            high_conf_mask=self.high_conf_mask[i],
            lam=float(self.lam[i]),
            y_final=self.y_final[i],
            neighbor_indices=self.neighbor_indices[i],
            neighbor_sims=self.neighbor_sims[i],
        )


def knn_predict(sims, labels, tau2: float) -> np.ndarray:
    """Similarity-softmax-weighted average of the neighbors' label vectors.

    ``sims`` is (..., k) and ``labels`` the neighbors' (..., k, C) 0/1 rows;
    beta = softmax(sims / tau2) along the last axis, and the (..., C) result
    is a convex combination of 0/1 vectors, so every entry lies in [0, 1].
    """
    sims = np.asarray(sims, dtype=np.float64)
    if sims.shape[-1] == 0:
        raise ValueError("knn_predict requires at least one neighbor")
    labels = np.asarray(labels)
    if labels.shape[:-1] != sims.shape:
        raise ValueError(f"labels shape {labels.shape} does not match similarities {sims.shape}")
    beta = softmax_temp(sims, tau2)
    # summed over the neighbor axis of each row on its own; clip the odd
    # 1+ulp rounding artifact
    return np.clip((beta[..., None] * labels).sum(axis=-2), 0.0, 1.0)


def high_confidence_subset(y_clf, gamma: float) -> np.ndarray:
    """Binary mask of labels whose classifier probability meets gamma
    (inclusive threshold)."""
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie in (0, 1)")
    return (np.asarray(y_clf, dtype=np.float64) >= gamma).astype(np.int8)


def debiased_lambda(y_knn, mask):
    """Confidence of the kNN prediction: the minimum kNN probability over the
    high-confidence labels (the last axis), 0 where the subset is empty.
    (..., C) inputs give a (...) result."""
    y_knn = np.asarray(y_knn, dtype=np.float64)
    mask = np.asarray(mask)
    if y_knn.shape != mask.shape:
        raise ValueError(f"mask shape {mask.shape} != prediction shape {y_knn.shape}")
    lam = np.where(mask > 0, y_knn, np.inf).min(axis=-1)
    return np.where(np.isinf(lam), 0.0, lam)[()]


def combine(lam, y_knn, y_clf) -> np.ndarray:
    """Convex combination lam * y_knn + (1 - lam) * y_clf, one lam per row
    of (..., C) predictions."""
    lam = np.asarray(lam, dtype=np.float64)
    if not np.all((lam >= 0.0) & (lam <= 1.0)):
        raise ValueError(f"lambda must lie in [0, 1], got {lam}")
    y_knn = np.asarray(y_knn, dtype=np.float64)
    y_clf = np.asarray(y_clf, dtype=np.float64)
    if y_knn.shape != y_clf.shape:
        raise ValueError("prediction vectors must have equal length")
    lam = lam[..., None]
    return np.clip(lam * y_knn + (1.0 - lam) * y_clf, 0.0, 1.0)


def predict_batch(
    state: EncoderState,
    store: Datastore | None,
    samples: PackedSamples,
    cfg: InferenceConfig,
) -> PredictionBundle:
    """Full pipeline for a nonempty packed batch: dropout-off forward,
    retrieval, kNN prediction, confidence estimation, combination. Row i of
    the bundle is bit-identical to ``predict`` on ``samples[i]`` alone.

    ``store`` may be None only in classifier_only mode (y_knn is then reported
    as all zeros with no neighbors).
    """
    cfg.validate()
    batch = pack_samples(samples, state.config.input_dim)
    trace = forward_rowwise(state, batch)
    y_clf = classify(trace)
    n = len(batch)

    if store is None:
        if cfg.mode != "classifier_only":
            raise ValueError(f"mode {cfg.mode!r} requires a datastore")
        indices = np.zeros((n, 0), dtype=np.int64)
        sims = np.zeros((n, 0))
        y_knn = np.zeros_like(y_clf)
    else:
        if store.dim != state.config.embed_dim or store.num_classes != state.config.num_classes:
            raise ValueError(
                f"datastore dims (d={store.dim}, C={store.num_classes}) do not match encoder "
                f"(d={state.config.embed_dim}, C={state.config.num_classes})"
            )
        indices, sims = retrieve_topk(store, trace.embedding, cfg.k)
        y_knn = knn_predict(sims, store.values[indices], cfg.tau2)

    mask = high_confidence_subset(y_clf, cfg.gamma)
    if cfg.mode == "classifier_only":
        lam = np.zeros(n)
    elif cfg.mode == "knn_only":
        lam = np.ones(n)
    elif cfg.mode == "fixed_lambda":
        lam = np.full(n, cfg.fixed_lambda_value)
    else:
        lam = debiased_lambda(y_knn, mask)
    return PredictionBundle(
        y_clf=y_clf,
        y_knn=y_knn,
        high_conf_mask=mask,
        lam=lam,
        y_final=combine(lam, y_knn, y_clf),
        neighbor_indices=indices,
        neighbor_sims=sims,
    )


def predict(
    state: EncoderState,
    store: Datastore | None,
    sample: PackedSamples,
    cfg: InferenceConfig,
) -> PredictionBundle:
    """``predict_batch`` on a batch of one (``split[i]``): the bundle of its
    only row. ValueError for a batch of any other size."""
    if len(sample) != 1:
        raise ValueError(f"predict takes a batch of one row, got {len(sample)} rows")
    return predict_batch(state, store, sample, cfg).row(0)
