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
embeds it with the row-stable dropout-off pass (``encoder.rowwise_layers``,
the pass that also made the store's keys), retrieves every query's
neighbors in blocks (``datastore.search``), and runs the vote, lambda and
combination (``_knn_predict``, ``_debiased_lambda``, ``_combine``) as array
operations over (n, k) and (n, C) arrays, each reducing along one fixed
axis of its own row. So every row is bit-identical whatever batch it sits
in, and ``predict`` on ``split[i]``, a batch of one, gives the same bits as
that sample's record from the CLI, which predicts the whole test file in
one batch. A training sample as a query gets the embedding whose float32 is
its store key.

Checks run once per batch, at its start: the config (``validate``), the
feature indices (``pack_samples``) and the store's dims against the
encoder's. Every later step works on arrays the batch built, so the three
formulas check nothing themselves: the neighbors are nonempty (k >= 1),
every shape follows from the batch and the store, and lambda lies in
[0, 1]. Two value checks still run on each batch, since the values come
from the model: the queries of retrieval in the modes that retrieve (NaN or
inf, an overflowing or zero norm; ``classifier_only`` never retrieves), and
then the classifier probabilities, which must be finite. Either failure is
a ``NonFiniteQueryError`` naming the first bad row and its id. So every
value a bundle holds is finite.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import PackedSamples, check_kinds, pack_samples
from .datastore import Datastore, NonFiniteQueryError, search
from .encoder import EncoderState, rowwise_layers, rowwise_logits, weight_rows
from .mathops import sigmoid, softmax_temp

__all__ = [
    "INFERENCE_MODES",
    "InferenceConfig",
    "PredictionBundle",
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


def _knn_predict(sims: np.ndarray, labels: np.ndarray, tau2: float) -> np.ndarray:
    """Similarity-softmax-weighted average of the neighbors' label vectors.

    ``sims`` is (..., k) with k >= 1 and ``labels`` the neighbors' (..., k, C)
    0/1 rows; beta = softmax(sims / tau2) along the last axis, and the
    (..., C) result is a convex combination of 0/1 vectors, so every entry
    lies in [0, 1].
    """
    beta = softmax_temp(sims, tau2)
    # summed over the neighbor axis of each row on its own; clip the odd
    # 1+ulp rounding artifact (ndarray.clip is np.clip without its dispatch)
    return np.add.reduce(beta[..., None] * labels, axis=-2).clip(0.0, 1.0)


def _debiased_lambda(y_knn: np.ndarray, confident: np.ndarray) -> np.ndarray:
    """Confidence of the kNN prediction: the minimum kNN probability over the
    high-confidence labels (``confident``, the classifier probabilities at or
    above gamma) along the last axis, 0 where there are none. (..., C)
    inputs give a (...) result."""
    lam = np.minimum.reduce(np.where(confident, y_knn, np.inf), axis=-1)
    return np.where(np.isinf(lam), 0.0, lam)


def _combine(lam: np.ndarray, y_knn: np.ndarray, y_clf: np.ndarray) -> np.ndarray:
    """Convex combination lam * y_knn + (1 - lam) * y_clf, one lam in [0, 1]
    per row of (..., C) predictions."""
    lam = lam[..., None]
    return (lam * y_knn + (1.0 - lam) * y_clf).clip(0.0, 1.0)


def predict_batch(
    state: EncoderState,
    store: Datastore | None,
    samples: PackedSamples,
    cfg: InferenceConfig,
) -> PredictionBundle:
    """Full pipeline for a nonempty packed batch: dropout-off forward,
    retrieval, kNN prediction, confidence estimation, combination. Row i of
    the bundle is bit-identical to ``predict`` on ``samples[i]`` alone.

    ``store`` may be None only in classifier_only mode. That mode never
    retrieves, with a store or without: y_knn is all zeros and there are no
    neighbors.
    """
    # the one argument check of the batch (see the module docstring)
    cfg.validate()
    enc = state.config
    batch = pack_samples(samples, enc.input_dim)
    if store is None:
        if cfg.mode != "classifier_only":
            raise ValueError(f"mode {cfg.mode!r} requires a datastore")
    elif store.dim != enc.embed_dim or store.num_classes != enc.num_classes:
        raise ValueError(
            f"datastore dims (d={store.dim}, C={store.num_classes}) do not match encoder "
            f"(d={enc.embed_dim}, C={enc.num_classes})"
        )
    embedding = rowwise_layers(state, batch, weight_rows(state, batch.indices.size))
    y_clf = sigmoid(rowwise_logits(state, embedding))
    n = len(batch)

    if store is None or cfg.mode == "classifier_only":
        indices = np.zeros((n, 0), dtype=np.int64)
        sims = np.zeros((n, 0))
        y_knn = np.zeros_like(y_clf)
    else:
        try:
            indices, sims = search(store, embedding, cfg.k)
        except NonFiniteQueryError as exc:
            raise NonFiniteQueryError(exc.row, exc.reason, batch[exc.row].ids()[0]) from None
        # similarities are clipped to [-1, 1] and so finite, k >= 1, tau2 > 0
        y_knn = _knn_predict(sims, store.values[indices], cfg.tau2)
    # sigmoid gives values in [0, 1] or NaN, so the sum is NaN exactly when
    # an entry is; every later value (y_final included) is then finite too
    if not np.add.reduce(y_clf, axis=None) >= 0.0:
        row = int(np.flatnonzero(np.isnan(y_clf).any(axis=1))[0])
        raise NonFiniteQueryError(row, "the classifier probabilities hold NaN", batch[row].ids()[0])
    confident = y_clf >= cfg.gamma

    if cfg.mode == "classifier_only":
        lam = np.zeros(n)
    elif cfg.mode == "knn_only":
        lam = np.ones(n)
    elif cfg.mode == "fixed_lambda":
        lam = np.full(n, cfg.fixed_lambda_value, dtype=np.float64)
    else:
        # a minimum of kNN probabilities, or 0: in [0, 1]
        lam = _debiased_lambda(y_knn, confident)
    return PredictionBundle(
        y_clf=y_clf,
        y_knn=y_knn,
        # the bool mask's bytes are its int8 0/1
        high_conf_mask=confident.view(np.int8),
        lam=lam,
        y_final=_combine(lam, y_knn, y_clf),
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
