"""Synthetic multi-label dataset generation, JSONL persistence, and
label-frequency grouping.

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

import contextlib
import dataclasses
import hashlib
import json
import json.decoder
import json.scanner
import logging
import os
from dataclasses import dataclass
from itertools import accumulate, chain, islice

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


def _draw_sample(cfg, rng, clusters, cdf, sample_id: str) -> Sample:
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
    return Sample(features=features, labels=labels, sample_id=sample_id)


def generate_synthetic(cfg: DatasetConfig):
    """Deterministically generate (train, valid, test) lists of Samples."""
    cfg.validate()
    rng = make_rng(cfg.seed)
    layout = cluster_layout(cfg)
    clusters = _cluster_draws(cfg, layout)
    priors = layout[3]
    cdf = priors.cumsum()
    cdf /= cdf[-1]

    splits = []
    for name, size in (("train", cfg.train_size), ("valid", cfg.valid_size), ("test", cfg.test_size)):
        splits.append(
            [_draw_sample(cfg, rng, clusters, cdf, f"{name}-{i:05d}") for i in range(size)]
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


# lines parsed per chunk: each chunk's records become arrays before the next
# chunk is read, so the parsed records of a whole split are never alive at once
_CHUNK_LINES = 256
# the version of the load rules below (_read_header, _check_record,
# _pack_lines) and of the packed-copy layout: bump it whenever either changes,
# so that a copy stands only for bytes that pass today's checks
_READER_VERSION = 2
_scan_json = json.scanner.make_scanner(json.JSONDecoder())
_json_space = json.decoder.WHITESPACE.match


def _read_header(fh, path) -> tuple[int, int]:
    header_line = fh.readline()
    if not header_line.strip():
        raise DataFormatError(f"{path}: missing header line")
    try:
        header = json.loads(header_line)
        num_classes = int(header["num_classes"])
        vocab_size = int(header["vocab_size"])
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise DataFormatError(f"{path}: line 1: bad header ({exc})") from exc
    if num_classes < 1 or vocab_size < 1:
        raise DataFormatError(f"{path}: line 1: num_classes and vocab_size must be >= 1")
    return num_classes, vocab_size


def _check_record(line: str, num_classes: int, vocab_size: int) -> None:
    """Raise the DataFormatError of a bad record line. Checks, in this order:
    the record's shape and types, label bounds, feature bounds, one feature
    index given twice."""
    try:
        rec = json.loads(line)
        raw = rec["features"]
        features = {int(k): float(v) for k, v in raw.items()}
        positives = [int(c) for c in rec["labels"]]
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

    Each record only extends flat lists; the conversions, bounds and
    repeated-index checks then run once over the chunk, and each gives what
    ``_check_record`` would (``int``, ``float``, iteration, ``len``), so a
    chunk packs exactly when all of its lines pass.
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
            label_counts.append(len(labels))
            positives.extend(labels)
            ids.append(str(rec.get("id", "")))
        keys = np.fromiter(map(int, keys), dtype=np.int64, count=len(keys))
        values = np.fromiter(map(float, values), dtype=np.float64, count=len(values))
        positives = np.fromiter(map(int, positives), dtype=np.int64, count=len(positives))
    except (StopIteration, KeyError, TypeError, ValueError, AttributeError, OverflowError):
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
