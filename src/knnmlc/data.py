"""Synthetic multi-label dataset generation, JSONL persistence, and
label-frequency grouping.

Dataset file format (one JSON document per line):

    {"num_classes": C, "vocab_size": V}          <- header, first line
    {"id": "...", "features": {"3": 2.0, ...}, "labels": [0, 5]}
    ...

``features`` maps feature index -> value (sparse); ``labels`` lists the
positive label indices. A full worked example lives in docs/formats.md.

For computation a list of samples is packed once into CSR arrays
(``pack_samples``); the encoder works on those packed rows.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import accumulate, chain

import numpy as np

from .mathops import make_rng

__all__ = [
    "DataFormatError",
    "DatasetConfig",
    "PackedSamples",
    "Sample",
    "frequency_groups",
    "generate_synthetic",
    "label_frequencies",
    "load_jsonl",
    "pack_samples",
    "save_jsonl",
]


class DataFormatError(ValueError):
    """Raised for malformed dataset files (bad header, bad line, bad bounds)."""


@dataclass(eq=False)
class Sample:
    """One example: sparse features plus a binary label vector of length C."""

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

    def positive_labels(self) -> list[int]:
        return [int(c) for c in np.flatnonzero(self.labels)]


@dataclass(eq=False)
class PackedSamples:
    """Samples as CSR arrays: row i's features are ``indices[indptr[i]:indptr[i + 1]]``
    with ``values`` alongside, in the order of the sample's dict, so no index
    repeats within a row. No row is empty: a sample without features holds
    one explicit zero at index 0. ``labels`` is (n, C) int8. Every index lies
    in [0, input_dim); ``pack_samples`` checked that once.
    """

    indptr: np.ndarray  # (n + 1,) int64
    indices: np.ndarray  # (nnz,) int64
    values: np.ndarray  # (nnz,) float64
    labels: np.ndarray  # (n, C) int8
    input_dim: int

    def __len__(self) -> int:
        return self.indptr.size - 1

    def take(self, rows) -> "PackedSamples":
        """The given rows, in the given order (repeats allowed)."""
        rows = np.asarray(rows, dtype=np.int64)
        starts = self.indptr[rows]
        lengths = self.indptr[rows + 1] - starts
        indptr = np.zeros(rows.size + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        pos = np.repeat(starts - indptr[:-1], lengths) + np.arange(indptr[-1])
        return PackedSamples(indptr, self.indices[pos], self.values[pos], self.labels[rows], self.input_dim)

    def to_dense(self) -> np.ndarray:
        """The (n, input_dim) float64 feature matrix."""
        n = len(self)
        dense = np.zeros((n, self.input_dim))
        dense[np.arange(n).repeat(self.indptr[1:] - self.indptr[:-1]), self.indices] = self.values
        return dense


# a sample without features is packed as one explicit zero, so that no CSR row
# is empty (np.add.reduceat cannot sum an empty segment); it adds nothing
_EMPTY_ROW = {0: 0.0}


def pack_samples(samples, input_dim: int) -> PackedSamples:
    """Pack a nonempty list of samples into CSR arrays.

    Raises ValueError for a feature index outside [0, input_dim): this is the
    one place inputs are checked against the encoder's input dimension.
    """
    if not samples:
        raise ValueError("cannot pack an empty list of samples")
    features = [s.features or _EMPTY_ROW for s in samples]
    indptr = np.array([0, *accumulate(map(len, features))], dtype=np.int64)
    nnz = int(indptr[-1])
    indices = np.fromiter(chain.from_iterable(features), dtype=np.int64, count=nnz)
    values = np.fromiter(chain.from_iterable([f.values() for f in features]), dtype=np.float64, count=nnz)
    # as unsigned, a negative index is larger than any valid one: one reduction checks both ends
    if np.maximum.reduce(indices.view(np.uint64)) >= input_dim:
        bad = indices[(indices < 0) | (indices >= input_dim)][0]
        raise ValueError(f"feature index out of range for input_dim={input_dim}: {int(bad)}")
    labels = np.array([s.labels for s in samples], dtype=np.int8)
    return PackedSamples(indptr, indices, values, labels, input_dim)


@dataclass
class DatasetConfig:
    """Knobs for the synthetic generator.

    Labels are organized into clusters; each sample draws one cluster and
    takes a noisy copy of that cluster's label set, so labels within a
    cluster co-occur with high probability (label_noise = 0 gives the set
    exactly). Clusters come in sibling pairs that share one "core" label and
    draw most of their signal tokens from a shared vocabulary block
    (shared_feature_frac), with the rest from a cluster-specific block.
    Sibling clusters are therefore easy to confuse from features alone but
    keep distinct label sets, which is exactly the regime where neighbor
    label co-occurrence carries information beyond per-label classification.
    """

    num_classes: int = 12
    num_clusters: int = 4
    train_size: int = 2000
    valid_size: int = 500
    test_size: int = 500
    vocab_size: int = 120
    label_noise: float = 0.12
    feature_noise: float = 0.3  # prob. a token draw is uniform over the vocab
    shared_feature_frac: float = 0.78  # prob. a signal token comes from the sibling-pair block
    tokens_per_sample: int = 20
    cluster_skew: float = 0.55  # cluster prior ~ skew**g; < 1 makes late clusters rare
    seed: int = 0

    def validate(self) -> None:
        if self.num_classes < 1 or self.num_clusters < 1:
            raise ValueError("num_classes and num_clusters must be >= 1")
        num_pairs = (self.num_clusters + 1) // 2
        if num_pairs + self.num_clusters > self.num_classes:
            raise ValueError(
                "num_classes must be >= num_clusters + ceil(num_clusters/2) so every "
                "cluster gets a shared core label plus at least one own label"
            )
        if min(self.train_size, self.valid_size, self.test_size) < 1:
            raise ValueError("all split sizes must be >= 1")
        if self.vocab_size < self.num_clusters + num_pairs:
            raise ValueError("vocab_size too small for per-cluster and per-pair blocks")
        if not 0.0 <= self.label_noise <= 1.0:
            raise ValueError("label_noise must lie in [0, 1]")
        if not 0.0 <= self.feature_noise <= 1.0:
            raise ValueError("feature_noise must lie in [0, 1]")
        if not 0.0 <= self.shared_feature_frac <= 1.0:
            raise ValueError("shared_feature_frac must lie in [0, 1]")
        if self.tokens_per_sample < 1:
            raise ValueError("tokens_per_sample must be >= 1")
        if not 0.0 < self.cluster_skew <= 1.0:
            raise ValueError("cluster_skew must lie in (0, 1]")


def cluster_layout(cfg: DatasetConfig):
    """Label sets and vocabulary blocks for each cluster.

    Returns (label_sets, own_blocks, pair_blocks, priors). Cluster g's label
    set is [shared core of its sibling pair, own labels...]; its signal tokens
    come from pair_blocks[g // 2] (shared with the sibling) and own_blocks[g].
    """
    num_pairs = (cfg.num_clusters + 1) // 2
    own_labels = np.array_split(np.arange(num_pairs, cfg.num_classes), cfg.num_clusters)
    label_sets = [
        np.concatenate(([g // 2], own_labels[g])) for g in range(cfg.num_clusters)
    ]
    # ~40% of the vocabulary goes to the shared pair blocks, clamped so every
    # pair block and every cluster block stays nonempty
    shared_vocab = min(
        max(num_pairs, int(cfg.vocab_size * 0.4)), cfg.vocab_size - cfg.num_clusters
    )
    pair_blocks = np.array_split(np.arange(shared_vocab), num_pairs)
    own_blocks = np.array_split(np.arange(shared_vocab, cfg.vocab_size), cfg.num_clusters)
    priors = cfg.cluster_skew ** np.arange(cfg.num_clusters, dtype=np.float64)
    priors /= priors.sum()
    return label_sets, own_blocks, pair_blocks, priors


def _draw_sample(cfg, rng, layout, sample_id: str) -> Sample:
    label_sets, own_blocks, pair_blocks, priors = layout
    g = int(rng.choice(cfg.num_clusters, p=priors))
    in_labels = label_sets[g]
    s = len(in_labels)

    labels = np.zeros(cfg.num_classes, dtype=np.int8)
    labels[in_labels] = (rng.random(s) >= cfg.label_noise).astype(np.int8)
    out_labels = np.setdiff1d(np.arange(cfg.num_classes), in_labels, assume_unique=True)
    if out_labels.size:
        # leak rate chosen so E[#positives] stays near the cluster-set size
        add_p = min(1.0, cfg.label_noise * s / out_labels.size)
        labels[out_labels] = (rng.random(out_labels.size) < add_p).astype(np.int8)
    if labels.sum() == 0:
        labels[in_labels[0]] = 1

    features: dict[int, float] = {}
    own = own_blocks[g]
    shared = pair_blocks[g // 2]
    for _ in range(cfg.tokens_per_sample):
        r = rng.random()
        if r < cfg.feature_noise:
            idx = int(rng.integers(cfg.vocab_size))
        elif rng.random() < cfg.shared_feature_frac:
            idx = int(shared[rng.integers(shared.size)])
        else:
            idx = int(own[rng.integers(own.size)])
        features[idx] = features.get(idx, 0.0) + 1.0
    return Sample(features=features, labels=labels, sample_id=sample_id)


def generate_synthetic(cfg: DatasetConfig):
    """Deterministically generate (train, valid, test) lists of Samples."""
    cfg.validate()
    rng = make_rng(cfg.seed)
    layout = cluster_layout(cfg)

    splits = []
    for name, size in (("train", cfg.train_size), ("valid", cfg.valid_size), ("test", cfg.test_size)):
        splits.append(
            [_draw_sample(cfg, rng, layout, f"{name}-{i:05d}") for i in range(size)]
        )
    return tuple(splits)


def save_jsonl(samples, path, num_classes: int, vocab_size: int) -> None:
    """Write header + one record per sample. Feature keys are sorted so the
    output is byte-stable for identical inputs."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"num_classes": int(num_classes), "vocab_size": int(vocab_size)}) + "\n")
        for s in samples:
            rec = {
                "id": s.sample_id,
                "features": {str(k): s.features[k] for k in sorted(s.features)},
                "labels": s.positive_labels(),
            }
            fh.write(json.dumps(rec) + "\n")


def load_jsonl(path):
    """Read a dataset file; returns (samples, num_classes, vocab_size).

    Raises DataFormatError naming the offending line for malformed JSON,
    out-of-range label indices, or out-of-range feature indices.
    """
    with open(path, "r", encoding="utf-8") as fh:
        header_line = fh.readline()
        if not header_line.strip():
            raise DataFormatError(f"{path}: missing header line")
        try:
            header = json.loads(header_line)
            num_classes = int(header["num_classes"])
            vocab_size = int(header["vocab_size"])
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise DataFormatError(f"{path}: line 1: bad header ({exc})") from exc

        samples = []
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                features = {int(k): float(v) for k, v in rec["features"].items()}
                positives = [int(c) for c in rec["labels"]]
                sample_id = str(rec.get("id", ""))
            except (json.JSONDecodeError, KeyError, TypeError, ValueError, AttributeError) as exc:
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


def label_frequencies(samples, num_classes: int | None = None) -> np.ndarray:
    """Count of samples with each label positive. C is taken from the first
    sample unless given explicitly."""
    if num_classes is None:
        if not samples:
            raise ValueError("cannot infer num_classes from an empty sample list")
        num_classes = len(samples[0].labels)
    freqs = np.zeros(num_classes, dtype=np.int64)
    for s in samples:
        freqs += s.labels
    return freqs


def frequency_groups(train, num_groups: int = 4, thresholds=None) -> dict[int, int]:
    """Partition labels into frequency groups.

    With explicit ``thresholds`` [t0 > t1 > ...]: group 0 holds labels with
    frequency > t0, group i holds t_{i-1} >= frequency > t_i, and the last
    group holds frequency <= t_last. Without thresholds, labels are sorted by
    descending frequency (ties broken by ascending label index) and split into
    ``num_groups`` near-equal chunks.
    """
    freqs = label_frequencies(train)
    num_classes = len(freqs)
    groups: dict[int, int] = {}
    if thresholds is not None:
        ts = list(thresholds)
        if any(ts[i] <= ts[i + 1] for i in range(len(ts) - 1)):
            raise ValueError("thresholds must be strictly decreasing")
        for c in range(num_classes):
            g = 0
            for t in ts:
                if freqs[c] > t:
                    break
                g += 1
            groups[c] = g
        return groups
    if num_groups < 1:
        raise ValueError("num_groups must be >= 1")
    num_groups = min(num_groups, num_classes)
    order = sorted(range(num_classes), key=lambda c: (-int(freqs[c]), c))
    for g, chunk in enumerate(np.array_split(np.asarray(order), num_groups)):
        for c in chunk:
            groups[int(c)] = g
    return groups
