"""Synthetic multi-label dataset generation, JSONL persistence, and
label-frequency grouping.

The generator's draws are numpy ``Generator.random`` and ``Generator.integers``
calls on a seeded PCG64 stream (two or three per token), but they are read
from the bit generator's raw 64-bit words by ``_WordReader``, which fetches a
few thousand words at a time and reproduces numpy's arithmetic on them: a
float is ``(word >> 11) * 2**-53`` and a bounded integer numpy's Lemire draw
on 32-bit word halves. So a dataset's bytes depend on the PCG64 raw stream
alone, which numpy keeps stable, and not on how ``Generator`` methods are
implemented. ``generate_synthetic`` returns the splits as ``Sample`` lists;
``save_synthetic`` writes each record line straight from the draw.

Dataset file format (one JSON document per line):

    {"num_classes": C, "vocab_size": V}          <- header, first line
    {"id": "...", "features": {"3": 2.0, ...}, "labels": [0, 5]}
    ...

``features`` maps feature index -> value (sparse); ``labels`` lists the
positive label indices. A full worked example lives in docs/formats.md.

For computation a split is held as CSR arrays (``PackedSamples``), and the
encoder works on those packed rows. ``load_packed`` reads a file straight
into them: it parses ``_CHUNK_LINES`` lines at a time and turns each chunk's
records into arrays before reading on, so no list of all parsed records is
ever alive. ``load_jsonl`` is the same parse turned into ``Sample`` objects,
and ``pack_samples`` packs a list of samples.

A file is parsed at most once per content: the first ``load_packed`` of a
split writes its arrays to ``<split>.jsonl.packed`` next to it, keyed by the
SHA-256 of the file's bytes and by ``_READER_VERSION``, and every later read
of the same bytes is served from that copy (layout in docs/formats.md).
Deleting the copy is always safe; the next read parses and writes it again.
"""
from __future__ import annotations

import bisect
import contextlib
import dataclasses
import functools
import hashlib
import json
import json.decoder
import json.scanner
import logging
import math
import os
from dataclasses import dataclass
from itertools import accumulate, chain, islice, repeat

import numpy as np

from .mathops import make_rng

logger = logging.getLogger(__name__)

__all__ = [
    "DataFormatError",
    "DatasetConfig",
    "PackedSamples",
    "Sample",
    "frequency_groups",
    "generate_synthetic",
    "label_frequencies",
    "load_jsonl",
    "load_packed",
    "pack_samples",
    "save_jsonl",
    "save_synthetic",
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
    one explicit zero at index 0. ``labels`` is (n, C) int8 and ``ids`` the
    (n,) sample ids (an object array of str). Every index lies in
    [0, input_dim); ``pack_samples`` checked that once.
    """

    indptr: np.ndarray  # (n + 1,) int64
    indices: np.ndarray  # (nnz,) int64
    values: np.ndarray  # (nnz,) float64
    labels: np.ndarray  # (n, C) int8
    input_dim: int
    ids: np.ndarray  # (n,) object, str

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
        return PackedSamples(
            indptr, self.indices[pos], self.values[pos], self.labels[rows], self.input_dim, self.ids[rows]
        )

    def rows(self, start: int, stop: int) -> "PackedSamples":
        """Rows start to stop - 1 as views of these arrays (indptr rebased
        to 0)."""
        lo, hi = self.indptr[start], self.indptr[stop]
        return PackedSamples(
            self.indptr[start : stop + 1] - lo,
            self.indices[lo:hi],
            self.values[lo:hi],
            self.labels[start:stop],
            self.input_dim,
            self.ids[start:stop],
        )

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
    """Pack a nonempty list of samples into CSR arrays. An input that is
    already packed is returned as it is, with ``input_dim`` set.

    Raises ValueError for a feature index outside [0, input_dim): this is the
    one place inputs are checked against the encoder's input dimension.
    """
    if not len(samples):
        raise ValueError("cannot pack an empty list of samples")
    if isinstance(samples, PackedSamples):
        packed = samples
        if packed.input_dim != input_dim:
            packed = dataclasses.replace(packed, input_dim=input_dim)
    else:
        features = [s.features or _EMPTY_ROW for s in samples]
        indptr = np.array([0, *accumulate(map(len, features))], dtype=np.int64)
        nnz = int(indptr[-1])
        packed = PackedSamples(
            indptr,
            np.fromiter(chain.from_iterable(features), dtype=np.int64, count=nnz),
            np.fromiter(chain.from_iterable([f.values() for f in features]), dtype=np.float64, count=nnz),
            np.array([s.labels for s in samples], dtype=np.int8),
            input_dim,
            np.array([s.sample_id for s in samples], dtype=object),
        )
    indices = packed.indices
    # as unsigned, a negative index is larger than any valid one: one reduction checks both ends
    if np.maximum.reduce(indices.view(np.uint64)) >= input_dim:
        bad = indices[(indices < 0) | (indices >= input_dim)][0]
        raise ValueError(f"feature index out of range for input_dim={input_dim}: {int(bad)}")
    return packed


# the types a setting of each annotated kind takes (numpy scalars too)
_KINDS = {
    "int": ("an integer", (int, np.integer)),
    "float": ("a finite number", (int, float, np.integer, np.floating)),
    "str": ("a string", str),
}


def check_kind(name: str, value, kind: str) -> None:
    """The one rule for the kind of a setting: an "int" takes an integer, a "float"
    any finite real number (an integer too), a "str" a string, and a bool is none
    of these. TypeError naming the setting otherwise; nothing is converted."""
    what, types = _KINDS[kind]
    # abs(value) < inf is false for NaN and +-inf, and never overflows
    if isinstance(value, bool) or not isinstance(value, types) or kind == "float" and not abs(value) < math.inf:
        raise TypeError(f"{name} must be {what}, got {value!r}")


@functools.cache
def _field_kinds(cls) -> tuple:
    return tuple((f.name, getattr(f.type, "__name__", f.type)) for f in dataclasses.fields(cls))


def check_kinds(obj) -> None:
    """``check_kind`` on each int, float or str field; every config's ``validate`` starts with it."""
    for name, kind in _field_kinds(type(obj)):
        if kind in _KINDS:
            check_kind(name, getattr(obj, name), kind)


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
        check_kinds(self)
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


def _cluster_draws(cfg: DatasetConfig, layout):
    """Per cluster, what every sample of it reuses: (in-label set, out-label
    set, leak rate, own token block, shared token block)."""
    label_sets, own_blocks, pair_blocks, _ = layout
    clusters = []
    for g, in_labels in enumerate(label_sets):
        out_labels = np.setdiff1d(np.arange(cfg.num_classes), in_labels, assume_unique=True)
        # leak rate chosen so E[#positives] stays near the cluster-set size
        add_p = min(1.0, cfg.label_noise * len(in_labels) / out_labels.size) if out_labels.size else 0.0
        clusters.append((in_labels, out_labels, add_p, own_blocks[g], pair_blocks[g // 2]))
    return clusters


# raw words fetched per random_raw call: a few thousand amortize the call and
# the tolist, and one block is all the reader holds
_WORD_BLOCK = 4096


class _WordReader:
    """The draws ``Generator.random`` and ``Generator.integers`` make, read from
    the raw 64-bit words of the generator's PCG64 bit generator.

    ``words`` is the raw stream as Python ints, fetched ``block`` words at a
    time with ``random_raw``. ``random()`` is ``(word >> 11) * 2**-53`` and
    ``random(k)`` k such words, as numpy computes them. ``integers(n)`` is
    numpy's Lemire draw on 32-bit halves (see ``integers``). Together they
    give numpy's values for any interleaving of these calls, while the
    generator itself has moved on by whole blocks: draw only from the reader
    once it is made.
    """

    def __init__(self, rng: np.random.Generator, block: int = _WORD_BLOCK):
        bitgen = rng.bit_generator
        if not isinstance(bitgen, np.random.PCG64):
            raise TypeError(f"the word reader needs a PCG64 generator, got {type(bitgen).__name__}")
        state = bitgen.state
        # numpy's 32-bit draws keep the high half of a word for the next one
        self._half = state["uinteger"] if state["has_uint32"] else None
        self.words = chain.from_iterable(map(np.ndarray.tolist, map(bitgen.random_raw, repeat(block))))

    def random(self, k: int | None = None):
        """``Generator.random()`` as a float, or ``Generator.random(k)`` as a list."""
        if k is None:
            return (next(self.words) >> 11) * 2**-53
        return [(word >> 11) * 2**-53 for word in islice(self.words, k)]

    def integers(self, n: int) -> int:
        """``Generator.integers(n)`` for 1 <= n <= 2**32 (ValueError otherwise).

        Each try takes a 32-bit half u: the half kept from the last word split,
        else the low half of a fresh word, whose high half is then kept (also
        across ``random`` calls). u * n splits into a result (high 32 bits) and
        a leftover (low 32 bits); a leftover below (2**32 - n) % n is rejected
        and the next half tried, which makes every result equally likely
        (Lemire 2019). n == 1 takes no half.
        """
        if not 1 <= n <= 1 << 32:
            raise ValueError(f"integers(n) needs 1 <= n <= 2**32, got {n}")
        if n == 1:
            return 0
        threshold = ((1 << 32) - n) % n
        while True:
            if self._half is None:
                word = next(self.words)
                u, self._half = word & 0xFFFFFFFF, word >> 32
            else:
                u, self._half = self._half, None
            m = u * n
            if m & 0xFFFFFFFF >= threshold:
                return m >> 32


def _below(p: float) -> int:
    """The raw-word bound of a probability p in [0, 1]: ``random() < p`` exactly
    when the word is below it. (word >> 11) * 2**-53 < p holds exactly when
    word >> 11 < ceil(p * 2**53), since p * 2**53 is exact."""
    return math.ceil(p * 2**53) << 11


def _splits(cfg: DatasetConfig):
    return (("train", cfg.train_size), ("valid", cfg.valid_size), ("test", cfg.test_size))


def _draw_records(cfg: DatasetConfig):
    """Yield every sample of the train, valid and test splits, in that order,
    as (sample id, features, positive labels): features map index -> count
    in ascending index order, and the positive labels ascend.

    The draws are the per-sample reference's (``tests/oracles.py``), read
    through one ``_WordReader``: a cluster by the prior's cdf; a keep draw
    per in-label and a leak draw per out-label; per token a noise draw, then
    a uniform index over the vocabulary, or a block draw and a uniform index
    into the pair's shared block or the cluster's own block.
    """
    reader = _WordReader(make_rng(cfg.seed))
    words, integers = reader.words, reader.integers
    layout = cluster_layout(cfg)
    # the draw rng.choice(num_clusters, p=priors) makes, from the same cdf
    cdf = layout[3].cumsum()
    cdf /= cdf[-1]
    cdf = cdf.tolist()
    clusters = [
        (in_labels.tolist(), out_labels.tolist(), _below(add_p), own.tolist(), shared.tolist())
        for in_labels, out_labels, add_p, own, shared in _cluster_draws(cfg, layout)
    ]
    keep, noise, shared_frac = _below(cfg.label_noise), _below(cfg.feature_noise), _below(cfg.shared_feature_frac)
    vocab_size, tokens_per_sample = cfg.vocab_size, cfg.tokens_per_sample
    for name, size in _splits(cfg):
        for i in range(size):
            in_labels, out_labels, leak, own, shared = clusters[bisect.bisect_right(cdf, reader.random())]
            positives = [c for c, word in zip(in_labels, islice(words, len(in_labels))) if word >= keep]
            positives += [c for c, word in zip(out_labels, islice(words, len(out_labels))) if word < leak]
            positives.sort()
            tokens = []
            for _ in range(tokens_per_sample):
                if next(words) < noise:
                    tokens.append(integers(vocab_size))
                elif next(words) < shared_frac:
                    tokens.append(shared[integers(len(shared))])
                else:
                    tokens.append(own[integers(len(own))])
            tokens.sort()
            features: dict[int, float] = {}
            for idx in tokens:
                features[idx] = features.get(idx, 0.0) + 1.0
            # a sample that lost every label keeps its cluster's core label
            yield f"{name}-{i:05d}", features, positives or in_labels[:1]


def generate_synthetic(cfg: DatasetConfig):
    """Deterministically generate (train, valid, test) lists of Samples.

    Feature keys ascend, as ``save_jsonl`` writes them: a split packs to the
    same CSR arrays in memory as from its file, so both give the same bits.
    """
    cfg.validate()
    records = _draw_records(cfg)
    splits = []
    for _, size in _splits(cfg):
        split = []
        for sample_id, features, positives in islice(records, size):
            labels = np.zeros(cfg.num_classes, dtype=np.int8)
            labels[positives] = 1
            split.append(Sample(features=features, labels=labels, sample_id=sample_id))
        splits.append(split)
    return tuple(splits)


def save_synthetic(cfg: DatasetConfig, out_dir) -> dict[str, str]:
    """Generate the dataset of ``cfg`` straight into ``train.jsonl``,
    ``valid.jsonl`` and ``test.jsonl`` under ``out_dir``, creating no Sample:
    the bytes ``save_jsonl`` writes for the splits of ``generate_synthetic``.
    Returns the paths by split name."""
    cfg.validate()
    records = _draw_records(cfg)
    paths = {}
    for name, size in _splits(cfg):
        paths[name] = os.path.join(out_dir, f"{name}.jsonl")
        _write_records(paths[name], islice(records, size), cfg.num_classes, cfg.vocab_size)
    return paths


def save_jsonl(samples, path, num_classes: int, vocab_size: int) -> None:
    """Write header + one record per sample. Feature keys are sorted so the
    output is byte-stable for identical inputs."""
    records = ((s.sample_id, s.features, s.positive_labels()) for s in samples)
    _write_records(path, records, num_classes, vocab_size)


def _write_records(path, records, num_classes: int, vocab_size: int) -> None:
    """The one writer of dataset files: the header, then a line per
    (sample id, features, positive labels) record, feature keys ascending."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"num_classes": int(num_classes), "vocab_size": int(vocab_size)}) + "\n")
        for sample_id, features, positives in records:
            rec = {"id": sample_id, "features": {str(k): features[k] for k in sorted(features)}, "labels": positives}
            fh.write(json.dumps(rec) + "\n")


# lines parsed per chunk: each chunk's records become arrays before the next
# chunk is read, so the parsed records of a whole split are never alive at once
_CHUNK_LINES = 256
# the version of the load rules below (_read_header, _check_record,
# _pack_lines) and of the packed-copy layout: bump it whenever either changes,
# so that a copy stands only for bytes that pass today's checks
_READER_VERSION = 3
_scan_json = json.scanner.make_scanner(json.JSONDecoder())
_json_space = json.decoder.WHITESPACE.match


def _read_header(fh, path) -> tuple[int, int]:
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
    return num_classes, vocab_size


def _check_record(line: str, num_classes: int, vocab_size: int) -> None:
    """Raise the DataFormatError of a bad record line. Checks, in this order:
    the record's shape and kinds (``check_kind``: a feature value is a finite
    number that fits a float, labels are a list of integers), label bounds,
    feature bounds, one feature index given twice."""
    try:
        rec = json.loads(line)
        raw = rec["features"]
        for value in raw.values():
            check_kind("a feature value", value, "float")
        features = {int(k): float(v) for k, v in raw.items()}
        positives = rec["labels"]
        if not isinstance(positives, list):
            raise TypeError(f"labels must be a list, got {positives!r}")
        for c in positives:
            check_kind("a label", c, "int")
    except (json.JSONDecodeError, KeyError, TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise DataFormatError(f"malformed record ({exc})") from exc
    for c in positives:
        if not 0 <= c < num_classes:
            raise DataFormatError(f"label index {c} out of range for C={num_classes}")
    for k in features:
        if not 0 <= k < vocab_size:
            raise DataFormatError(f"feature index {k} out of range for vocab_size={vocab_size}")
    # two keys naming one index ("3" and "03") collapse into one dict entry
    if len(features) != len(raw):
        seen = set()
        k = next(k for k in map(int, raw) if k in seen or seen.add(k))
        raise DataFormatError(f"feature index {k} appears more than once")


def _pack_lines(lines, num_classes: int, input_dim: int):
    """The records among ``lines`` (blank lines skipped) as a PackedSamples,
    and the mask of the records without features, which are packed as one
    explicit zero. None when any line is bad: the caller then finds it with
    ``_check_record``.

    Each record only extends flat lists; the kind, conversion, bounds and
    repeated-index checks then run once over the chunk, and each gives what
    ``_check_record`` would (JSON parses a number to an int or a float and
    nothing else to either, and a bool is not one: values of type int or
    float that convert to finite floats, labels in lists and of type int), so
    a chunk packs exactly when all of its lines pass.
    """
    ids, counts, keys, values, label_counts, positives = [], [], [], [], [], []
    try:
        for line in lines:
            if line.isspace():
                continue
            # json.loads(line) without its wrapper calls (it adds only checks
            # that raise, and a failed line is parsed again by _check_record)
            rec, end = _scan_json(line, _json_space(line, 0).end())
            if _json_space(line, end).end() != len(line):
                return None
            raw = rec["features"]
            values.extend(raw.values())
            keys.extend(raw)
            counts.append(len(raw))
            labels = rec["labels"]
            if type(labels) is not list:
                return None
            label_counts.append(len(labels))
            positives.extend(labels)
            ids.append(str(rec.get("id", "")))
        if not set(map(type, values)) <= {int, float} or not set(map(type, positives)) <= {int}:
            return None
        keys = np.fromiter(map(int, keys), dtype=np.int64, count=len(keys))
        values = np.fromiter(values, dtype=np.float64, count=len(values))
        positives = np.fromiter(positives, dtype=np.int64, count=len(positives))
    except (StopIteration, KeyError, TypeError, ValueError, AttributeError, OverflowError):
        return None
    if not np.isfinite(values).all():
        return None
    # as unsigned, a negative index is larger than any valid one
    if positives.size and np.maximum.reduce(positives.view(np.uint64)) >= num_classes:
        return None
    if keys.size and np.maximum.reduce(keys.view(np.uint64)) >= input_dim:
        return None
    n = len(ids)
    counts = np.array(counts, dtype=np.int64)
    # one index given twice in a record: equal (row, key rank) pairs
    _, rank = np.unique(keys, return_inverse=True)
    pairs = np.sort(np.arange(n).repeat(counts) * keys.size + rank)
    if (pairs[1:] == pairs[:-1]).any():
        return None

    featureless = counts == 0
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts + featureless, out=indptr[1:])
    if featureless.any():
        present = np.ones(indptr[-1], dtype=bool)
        present[indptr[:-1][featureless]] = False
        keys, values = _scatter(keys, present), _scatter(values, present)
    labels = np.zeros((n, num_classes), dtype=np.int8)
    labels[np.arange(n).repeat(np.array(label_counts, dtype=np.int64)), positives] = 1
    return PackedSamples(indptr, keys, values, labels, input_dim, np.array(ids, dtype=object)), featureless


def _scatter(arr: np.ndarray, present: np.ndarray) -> np.ndarray:
    out = np.zeros(present.size, dtype=arr.dtype)
    out[present] = arr
    return out


def _parse_chunks(fh, path, num_classes: int, vocab_size: int):
    """Yield (PackedSamples, featureless mask) for each chunk of
    ``_CHUNK_LINES`` body lines that holds a record. A bad line raises
    DataFormatError naming it."""
    lineno = 1
    while lines := list(islice(fh, _CHUNK_LINES)):
        chunk = _pack_lines(lines, num_classes, vocab_size)
        if chunk is None:
            for offset, line in enumerate(lines, start=lineno + 1):
                if not line.isspace():
                    try:
                        _check_record(line, num_classes, vocab_size)
                    except DataFormatError as exc:
                        raise DataFormatError(f"{path}: line {offset}: {exc}") from exc
        lineno += len(lines)
        if len(chunk[0]):
            yield chunk


def load_packed(path):
    """Read a dataset file straight into CSR arrays; returns (PackedSamples,
    num_classes, vocab_size), with ``input_dim`` = vocab_size.

    Makes the checks ``load_jsonl`` makes, with the same DataFormatError
    naming the offending line, and builds no Sample. The result is served
    from the packed copy ``<path>.packed`` when that copy was written for
    the same bytes by this reader version and is intact; otherwise the file
    is parsed and the copy (re)written. A copy that cannot be written is
    logged at DEBUG and skipped; a file that fails to parse gets none, and
    so does a path that is not a regular file (a pipe is read only once).
    """
    if not os.path.isfile(path):
        return _parse_packed(path)
    copy = f"{os.fspath(path)}.packed"
    digest = _file_digest(path)
    loaded = _read_copy(copy, digest)
    if loaded is None:
        loaded = _parse_packed(path)
        # bytes edited during the parse have no one digest to key the copy by
        if _file_digest(path) == digest:
            _write_copy(copy, digest, *loaded)
    return loaded


def _parse_packed(path):
    """``load_packed`` without the packed copy: always parses the file."""
    with open(path, "r", encoding="utf-8") as fh:
        num_classes, vocab_size = _read_header(fh, path)
        parts = [packed for packed, _ in _parse_chunks(fh, path, num_classes, vocab_size)]
    parts = parts or [_pack_lines([], num_classes, vocab_size)[0]]
    lengths = np.concatenate([np.diff(p.indptr) for p in parts])
    indptr = np.zeros(lengths.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    packed = PackedSamples(
        indptr,
        np.concatenate([p.indices for p in parts]),
        np.concatenate([p.values for p in parts]),
        np.concatenate([p.labels for p in parts]),
        vocab_size,
        np.concatenate([p.ids for p in parts]),
    )
    return packed, num_classes, vocab_size


def _file_digest(path) -> bytes:
    """SHA-256 of the file's bytes, read 1 MiB at a time."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.digest()


# the packed copy is an uncompressed .npz of these arrays (see docs/formats.md):
# numpy checks each one's dtype, shape and size on reading, and zipfile the
# CRC-32 of each one read in full
_COPY_DTYPES = {
    "dims": np.int64,  # (2,): C, V
    "indptr": np.int64,
    "indices": np.int64,
    "values": np.float64,
    "labels": np.int8,
    "id_offsets": np.int64,  # (n + 1,): id i is id_bytes[id_offsets[i]:id_offsets[i + 1]]
    "id_bytes": np.uint8,  # every id, UTF-8 with surrogatepass
}


def _write_copy(copy: str, digest: bytes, packed: PackedSamples, num_classes: int, vocab_size: int) -> None:
    """Write the packed copy through a temporary file and an atomic rename;
    a failure is logged at DEBUG and leaves no temporary file."""
    ids = [sample_id.encode("utf-8", "surrogatepass") for sample_id in packed.ids]
    id_offsets = np.zeros(len(ids) + 1, dtype=np.int64)
    np.cumsum(np.fromiter(map(len, ids), dtype=np.int64, count=len(ids)), out=id_offsets[1:])
    tmp = f"{copy}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            np.savez(
                fh,
                version=np.int64(_READER_VERSION),
                digest=np.frombuffer(digest, dtype=np.uint8),
                dims=np.array([num_classes, vocab_size], dtype=np.int64),
                indptr=packed.indptr,
                indices=packed.indices,
                values=packed.values,
                labels=packed.labels,
                id_offsets=id_offsets,
                id_bytes=np.frombuffer(b"".join(ids), dtype=np.uint8),
            )
        os.replace(tmp, copy)
    except OSError as exc:
        logger.debug("packed copy %s not written: %s", copy, exc)
        with contextlib.suppress(OSError):
            os.remove(tmp)


def _read_copy(copy: str, digest: bytes):
    """(PackedSamples, num_classes, vocab_size) from the packed copy, or None
    when the copy is missing or damaged, was written for other bytes or by
    another reader version, or does not hold a valid packing."""
    try:
        # np.load leaves a path's file open when the zip fails to open
        with open(copy, "rb") as fh, np.load(fh, allow_pickle=False) as npz:
            if npz["version"].tolist() != _READER_VERSION or npz["digest"].tobytes() != digest:
                return None
            arrays = {name: npz[name] for name in _COPY_DTYPES}
    # a damaged zip or .npy header fails in many ways (BadZipFile, zlib.error,
    # NotImplementedError, a bad dtype or shape, ...): each is a miss
    except Exception:
        return None
    if any(arrays[name].dtype != dtype for name, dtype in _COPY_DTYPES.items()):
        return None
    dims, indptr, indices, values, labels, offsets, blob = arrays.values()
    if dims.shape != (2,) or dims.min() < 1 or indptr.ndim != 1 or not indptr.size:
        return None
    (num_classes, vocab_size), n, nnz = dims.tolist(), indptr.size - 1, int(indptr[-1])
    shapes = (indices.shape, values.shape, labels.shape, offsets.shape, blob.ndim)
    if shapes != ((nnz,), (nnz,), (n, num_classes), (n + 1,), 1):
        return None
    # indptr runs 0 -> nnz without an empty row; the id offsets 0 -> len(blob)
    if indptr[0] != 0 or offsets[0] != 0 or offsets[-1] != blob.size:
        return None
    if n and (np.diff(indptr).min() < 1 or np.diff(offsets).min() < 0):
        return None
    # as unsigned, a negative index is larger than any valid one
    if nnz and np.maximum.reduce(indices.view(np.uint64)) >= vocab_size:
        return None
    if labels.size and np.maximum.reduce(labels.view(np.uint8), axis=None) > 1:
        return None
    blob, bounds = blob.tobytes(), offsets.tolist()
    try:
        ids = [blob[lo:hi].decode("utf-8", "surrogatepass") for lo, hi in zip(bounds, bounds[1:])]
    except UnicodeDecodeError:
        return None
    packed = PackedSamples(indptr, indices, values, labels, vocab_size, np.array(ids, dtype=object))
    return packed, num_classes, vocab_size


def load_jsonl(path):
    """Read a dataset file; returns (samples, num_classes, vocab_size).

    Raises DataFormatError naming the offending line for malformed JSON,
    out-of-range label indices, out-of-range feature indices, or a feature
    index given twice in one record.
    """
    samples = []
    with open(path, "r", encoding="utf-8") as fh:
        num_classes, vocab_size = _read_header(fh, path)
        for packed, featureless in _parse_chunks(fh, path, num_classes, vocab_size):
            bounds = packed.indptr.tolist()
            indices, values = packed.indices.tolist(), packed.values.tolist()
            for i, sample_id in enumerate(packed.ids):
                lo, hi = bounds[i], bounds[i + 1]
                features = {} if featureless[i] else dict(zip(indices[lo:hi], values[lo:hi]))
                samples.append(Sample(features=features, labels=packed.labels[i], sample_id=sample_id))
    return samples, num_classes, vocab_size


def label_frequencies(samples, num_classes: int | None = None) -> np.ndarray:
    """Count of samples with each label positive, over a PackedSamples or a
    list of samples. For a list, C is taken from the first sample unless
    given explicitly."""
    if isinstance(samples, PackedSamples):
        return samples.labels.sum(axis=0, dtype=np.int64)
    if num_classes is None:
        if not samples:
            raise ValueError("cannot infer num_classes from an empty sample list")
        num_classes = len(samples[0].labels)
    freqs = np.zeros(num_classes, dtype=np.int64)
    for s in samples:
        freqs += s.labels
    return freqs


def frequency_groups(train, num_groups: int = 4, thresholds=None) -> dict[int, int]:
    """Partition labels into frequency groups by their counts in ``train``
    (a PackedSamples or a list of samples).

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
