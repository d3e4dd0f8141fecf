"""Scalar and per-sample reference implementations that only tests use.

Each one computes, for one pair or one sample, what the package computes for
a whole batch at once; tests check the batched code against them. The
per-sample forms of the data are here too: a sample record (``Sample``), a
list of records packed (``pack``), the per-line dataset reader
(``load_jsonl``) and writer (``save_jsonl``). ``masked_contrastive_loss``
is the contrastive loss as whole-matrix expressions, against which the
package's in-place pass is checked bit for bit.
"""
import json
import logging
from dataclasses import dataclass

import numpy as np

from knnmlc.data import DataFormatError, PackedSamples, _cluster_draws, check_kind, cluster_layout, pack_samples
from knnmlc.encoder import EncoderState, ForwardTrace, forward_rowwise
from knnmlc.mathops import make_rng

logger = logging.getLogger(__name__)


@dataclass(eq=False)
class Sample:
    """One sample record: sparse features, a binary label vector of length C
    and an id, as one line of a dataset file holds them."""

    features: dict[int, float]
    labels: np.ndarray  # shape (C,), values in {0, 1}
    sample_id: str = ""

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int8)

    def __eq__(self, other):
        if not isinstance(other, Sample):
            return NotImplemented
        return (
            self.sample_id == other.sample_id
            and self.features == other.features
            and np.array_equal(self.labels, other.labels)
        )


def pack(samples, input_dim: int) -> PackedSamples:
    """A list of sample records as CSR arrays, features in each dict's order;
    a record without features holds one explicit zero at index 0. Indices
    are not checked against ``input_dim``: ``data.pack_samples`` does that."""
    features = [s.features or {0: 0.0} for s in samples]
    indptr = np.cumsum([0] + [len(f) for f in features], dtype=np.int64)
    return PackedSamples(
        indptr,
        np.array([k for f in features for k in f], dtype=np.int64),
        np.array([v for f in features for v in f.values()], dtype=np.float64),
        np.array([s.labels for s in samples], dtype=np.int8),
        input_dim,
        np.array([s.sample_id for s in samples], dtype=object),
    )


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


def logsumexp(a, axis=None):
    """log(sum(exp(a))) with max-subtraction, stable for large entries."""
    a = np.asarray(a, dtype=np.float64)
    m = np.max(a, axis=axis, keepdims=True)
    out = np.log(np.sum(np.exp(a - m), axis=axis, keepdims=True)) + m
    return float(out.ravel()[0]) if axis is None else np.squeeze(out, axis=axis)


def label_similarity(y_i, y_j) -> float:
    """Shared positive labels divided by the larger positive count, in [0, 1]:
    one entry of ``label_similarity_matrix``.

    A pair with no positive labels on either side is defined as 0 (maximally
    dissimilar) and logged.
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


def contrastive_weight(l: float) -> float:
    """Negative-pair weight 2 - l, one entry of ``weight_matrix``: 1 for
    identical labels up to 2 for disjoint."""
    if not 0.0 <= l <= 1.0:
        raise ValueError(f"label similarity must lie in [0, 1], got {l}")
    return 2.0 - l


def pij(similarities, weights, tau1: float) -> np.ndarray:
    """Normalized weighted-softmax shares w_j exp(s_j/tau) / sum_k w_k exp(s_k/tau)
    over the given entries (the caller excludes the anchor itself): one row of
    the masked softmax in ``losses.contrastive_loss_from_similarities``."""
    if tau1 <= 0.0:
        raise ValueError(f"temperature must be positive, got {tau1}")
    s = np.asarray(similarities, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    if s.shape != w.shape or s.size == 0:
        raise ValueError("similarities and weights must be equal-length and nonempty")
    z = np.log(w) + s / tau1
    e = np.exp(z - np.max(z))
    return e / e.sum()


def label_similarity_matrix(labels: np.ndarray) -> np.ndarray:
    """All-pairs label similarities for (n, C) binary labels: shared positive
    labels over the larger positive count, in [0, 1]; ``label_similarity`` of
    every pair, as one matrix product.

    Rows with identical labels (in particular a sample and its own augmented
    view) get similarity 1. A pair of all-zero rows gets 0, and is logged.
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


def weight_matrix(l: np.ndarray) -> np.ndarray:
    """Negative-pair weights 2 - l, ``contrastive_weight`` of every entry: 1
    for identical labels up to 2 for disjoint."""
    l = np.asarray(l, dtype=np.float64)
    if np.any(l < 0.0) or np.any(l > 1.0):
        raise ValueError("label similarities must lie in [0, 1]")
    return 2.0 - l


def positive_mask(labels: np.ndarray, variant: str) -> np.ndarray:
    """(2N, 2N) 0/1 matrix of each anchor's positives: its own augmented view,
    plus, for scl/wscl, every other row with an identical label vector
    (grouped by ``np.unique``)."""
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


def masked_contrastive_loss(sims, labels, tau1: float, variant: str):
    """``losses.contrastive_loss_from_similarities`` as whole-matrix
    expressions, each forming a new array: the weights from
    ``label_similarity_matrix``, the positives from ``positive_mask``, and
    the diagonal excluded by ``np.where`` masks. The package's in-place pass
    must give the same bits. Returns (loss, gradient)."""
    s = np.asarray(sims, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int8)
    n2 = s.shape[0]
    if variant in ("dcl", "wscl"):
        w = weight_matrix(label_similarity_matrix(labels))
    else:
        w = np.ones((n2, n2), dtype=np.float64)
    positive = positive_mask(labels, variant)
    num_positive = positive.sum(axis=1)

    off_diag = ~np.eye(n2, dtype=bool)
    z = np.log(w) + s / tau1
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


def forward(state: EncoderState, sample: PackedSamples) -> ForwardTrace:
    """The dropout-off network on one sample, a batch of one of
    ``forward_rowwise``, so the result equals that sample's row in any
    inference batch; the trace holds the 1-d rows."""
    assert len(sample) == 1
    batch = pack_samples(sample, state.config.input_dim)
    t = forward_rowwise(state, batch)
    return ForwardTrace(batch, t.pre_hidden[0], t.hidden[0], t.mask[0], t.embedding[0], t.logits[0])


def column_gather(w_in: np.ndarray, batch: PackedSamples) -> np.ndarray:
    """The (n, hidden) input-layer sums before the bias, as the sparse branch
    of ``forward_batch`` formed them before it shared the row gather: the
    ``w_in`` columns the features touch, scaled by their values and summed
    per row segment along axis 1."""
    columns = w_in[:, batch.indices] * batch.values
    return np.add.reduceat(columns, batch.indptr[:-1], axis=1).T


def draw_sample(cfg, rng, clusters, cdf, sample_id: str) -> Sample:
    """One synthetic sample by scalar ``Generator`` calls, two or three per
    token: the stream ``data._draw_records`` reads from the raw words."""
    # the draw rng.choice(num_clusters, p=priors) makes, from the same cdf and stream
    in_labels, out_labels, add_p, own, shared = clusters[int(cdf.searchsorted(rng.random(), side="right"))]

    labels = np.zeros(cfg.num_classes, dtype=np.int8)
    labels[in_labels] = (rng.random(len(in_labels)) >= cfg.label_noise).astype(np.int8)
    if out_labels.size:
        labels[out_labels] = (rng.random(out_labels.size) < add_p).astype(np.int8)
    if labels.sum() == 0:
        labels[in_labels[0]] = 1

    features: dict[int, float] = {}
    for _ in range(cfg.tokens_per_sample):
        r = rng.random()
        if r < cfg.feature_noise:
            idx = int(rng.integers(cfg.vocab_size))
        elif rng.random() < cfg.shared_feature_frac:
            idx = int(shared[rng.integers(shared.size)])
        else:
            idx = int(own[rng.integers(own.size)])
        features[idx] = features.get(idx, 0.0) + 1.0
    return Sample(features=dict(sorted(features.items())), labels=labels, sample_id=sample_id)


def generate_synthetic(cfg):
    """(train, valid, test) lists of ``draw_sample`` samples from one stream."""
    cfg.validate()
    rng = make_rng(cfg.seed)
    layout = cluster_layout(cfg)
    clusters = _cluster_draws(cfg, layout)
    cdf = layout[3].cumsum()
    cdf /= cdf[-1]
    return tuple(
        [draw_sample(cfg, rng, clusters, cdf, f"{name}-{i:05d}") for i in range(size)]
        for name, size in (("train", cfg.train_size), ("valid", cfg.valid_size), ("test", cfg.test_size))
    )


def save_jsonl(samples, path, num_classes: int, vocab_size: int) -> None:
    """A dataset file as ``json.dumps`` writes each record dict, feature keys
    ascending."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"num_classes": int(num_classes), "vocab_size": int(vocab_size)}) + "\n")
        for s in samples:
            rec = {
                "id": s.sample_id,
                "features": {str(k): s.features[k] for k in sorted(s.features)},
                "labels": [int(c) for c in np.flatnonzero(s.labels)],
            }
            fh.write(json.dumps(rec) + "\n")


def load_jsonl(path):
    """The per-line dataset reader: (list of Sample records, num_classes,
    vocab_size) by one ``json.loads``, one int -> float dict and one label
    array per line, with the load rules of docs/formats.md checked in their
    order; a DataFormatError names the offending line."""
    with open(path, "r", encoding="utf-8") as fh:
        header_line = fh.readline()
        if not header_line.strip():
            raise DataFormatError(f"{path}: missing header line")
        try:
            header = json.loads(header_line)
            num_classes, vocab_size = header["num_classes"], header["vocab_size"]
            check_kind("num_classes", num_classes, "int")
            check_kind("vocab_size", vocab_size, "int")
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise DataFormatError(f"{path}: line 1: bad header ({exc})") from exc
        if num_classes < 1 or vocab_size < 1:
            raise DataFormatError(f"{path}: line 1: num_classes and vocab_size must be >= 1")

        samples = []
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                for value in rec["features"].values():
                    check_kind("a feature value", value, "float")
                for key in rec["features"]:
                    try:
                        canonical = str(int(key)) == key
                    except ValueError:
                        canonical = False
                    if not canonical:
                        raise ValueError(f"a feature key must be an integer as str() writes it, got {key!r}")
                features = {int(k): float(v) for k, v in rec["features"].items()}
                positives = rec["labels"]
                if not isinstance(positives, list):
                    raise TypeError(f"labels must be a list, got {positives!r}")
                for c in positives:
                    check_kind("a label", c, "int")
                sample_id = rec.get("id", "")
                check_kind("an id", sample_id, "str")
            except (json.JSONDecodeError, KeyError, TypeError, ValueError, AttributeError, OverflowError) as exc:
                raise DataFormatError(f"{path}: line {lineno}: malformed record ({exc})") from exc
            labels = np.zeros(num_classes, dtype=np.int8)
            for c in positives:
                if not 0 <= c < num_classes:
                    raise DataFormatError(
                        f"{path}: line {lineno}: label index {c} out of range for C={num_classes}"
                    )
                labels[c] = 1
            for k in features:
                if not 0 <= k < vocab_size:
                    raise DataFormatError(
                        f"{path}: line {lineno}: feature index {k} out of range for vocab_size={vocab_size}"
                    )
            samples.append(Sample(features=features, labels=labels, sample_id=sample_id))
    return samples, num_classes, vocab_size
