"""Synthetic multi-label dataset generation, JSONL persistence, and
label-frequency grouping.

The generator reads the raw 64-bit words of a PCG64 bit generator seeded
with the config's seed and calls no ``Generator`` method, so a dataset's
bytes depend on the PCG64 raw stream alone, which numpy keeps stable. Every
sample reads a fixed run of 1 + C + 3T words (a cluster word, a word per
label, and a noise, a block and an index word per token), so a split is
drawn in row blocks of whole samples as array arithmetic, and the block
size changes no byte (``_draw_split``; the layout is in docs/formats.md).
``generate_synthetic`` gives the packed splits, and ``save_splits`` writes
each split's lines from its arrays, in chunks of ``_CHUNK_LINES`` rows, and
its packed copy beside it.

Dataset file format (one JSON document per line):

    {"num_classes": C, "vocab_size": V}          <- header, first line
    {"id": "...", "features": {"3": 2.0, ...}, "labels": [0, 5]}
    ...

``features`` maps feature index -> value (sparse); ``labels`` lists the
positive label indices. A full worked example lives in docs/formats.md.

A split is held as CSR arrays (``PackedSamples``), the one representation of
samples, its ids too (UTF-8 bytes and their offsets, as the packed copy
holds them, decoded only where a string is needed): a single sample is the
batch of one ``split[i]``. ``load_jsonl``
parses a file straight into them: it reads ``_CHUNK_LINES`` lines at a time
and turns each chunk's records into arrays before reading on, so no list of
all parsed records is ever alive.

A file is parsed at most once per content: the first ``load_packed`` of a
split writes its arrays to ``<split>.jsonl.packed`` next to it, keyed by the
SHA-256 of the file's bytes and by ``_READER_VERSION``, and every later read
of the same bytes is served from that copy (``copies``; layout in
docs/formats.md). ``load_labels`` reads only the label rows of that copy.
Deleting the copy is always safe; the next read parses and writes it again.
"""
from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import json.decoder
import json.scanner
import math
import operator
import os
from dataclasses import dataclass
from itertools import accumulate, chain, islice

import numpy as np

from . import copies
from .mathops import make_rng

__all__ = [
    "DataFormatError",
    "DatasetConfig",
    "PackedSamples",
    "frequency_groups",
    "generate_synthetic",
    "label_frequencies",
    "load_jsonl",
    "load_labels",
    "load_packed",
    "pack_samples",
    "save_splits",
]


class DataFormatError(ValueError):
    """Raised for malformed dataset files (bad header, bad line, bad bounds)."""


@dataclass(eq=False)
class PackedSamples:
    """Samples as CSR arrays: row i's features are ``indices[indptr[i]:indptr[i + 1]]``
    with ``values`` alongside, in the order of the record's keys, so no index
    repeats within a row. No row is empty: a record without features holds
    one explicit zero at index 0. ``labels`` is (n, C) int8. The ids are held
    as the packed copy holds them, CSR-style too: id i is
    ``id_bytes[id_offsets[i]:id_offsets[i + 1]]``, UTF-8 with surrogatepass
    (``copies.pack_strings``), and ``ids()`` decodes them. Every index lies
    in [0, input_dim); ``pack_samples`` checks that against an encoder.

    This is the one representation of samples: ``split[i]`` is row i as a
    batch of one (negative i counts from the end; iterating a split gives
    each row so) and ``split[a:b]`` rows a to b - 1, both views of these
    arrays (indptr and id_offsets rebased to 0).
    """

    indptr: np.ndarray  # (n + 1,) int64
    indices: np.ndarray  # (nnz,) int64
    values: np.ndarray  # (nnz,) float64
    labels: np.ndarray  # (n, C) int8
    input_dim: int
    id_offsets: np.ndarray  # (n + 1,) int64
    id_bytes: np.ndarray  # (m,) uint8

    def __len__(self) -> int:
        return self.indptr.size - 1

    def __getitem__(self, key) -> "PackedSamples":
        n = len(self)
        if isinstance(key, slice):
            start, stop, step = key.indices(n)
            if step != 1:
                raise ValueError(f"a packed split is sliced with step 1 only, got {key.step}")
            stop = max(start, stop)
        else:
            start = operator.index(key)
            if not -n <= start < n:
                raise IndexError(f"row {start} out of range for {n} rows")
            start %= n
            stop = start + 1
        lo, hi = self.indptr[start], self.indptr[stop]
        id_lo, id_hi = self.id_offsets[start], self.id_offsets[stop]
        return PackedSamples(
            self.indptr[start : stop + 1] - lo,
            self.indices[lo:hi],
            self.values[lo:hi],
            self.labels[start:stop],
            self.input_dim,
            self.id_offsets[start : stop + 1] - id_lo,
            self.id_bytes[id_lo:id_hi],
        )

    def take(self, rows) -> "PackedSamples":
        """The given rows, in the given order, as a batch without ids (each
        is the empty string): the training step's gather of its N samples.

        TypeError for rows that are not of an integer dtype, and IndexError
        naming the first row outside [0, len(self)): the features and the
        labels are cut by different means, so no row may count from the end.
        """
        given = np.asarray(rows)
        # an empty list reads as float64 and selects no row
        if given.dtype.kind not in "iu" and given.size:
            raise TypeError(f"rows must be integers, got dtype {given.dtype}")
        rows = given.astype(np.int64, copy=False)
        # as unsigned, a negative row is larger than any valid one: one reduction checks both ends
        if rows.size and np.maximum.reduce(rows.view(np.uint64), axis=None) >= len(self):
            bad = given[(given < 0) | (given >= len(self))].flat[0]
            raise IndexError(f"row {int(bad)} out of range for {len(self)} rows")
        indptr, pos = _gather(self.indptr, rows)
        return PackedSamples(
            indptr,
            self.indices[pos],
            self.values[pos],
            self.labels[rows],
            self.input_dim,
            np.zeros(rows.size + 1, dtype=np.int64),
            np.empty(0, dtype=np.uint8),
        )

    def ids(self) -> list[str]:
        """The sample ids, decoded."""
        return copies.unpack_strings(self.id_offsets, self.id_bytes)

    def to_dense(self, dtype=np.float64, out=None) -> np.ndarray:
        """The (n, input_dim) feature matrix, of ``dtype``: the training step
        asks for its parameters' dtype. ``out`` is an optional
        C-contiguous array of that shape and dtype that the call fills
        and returns; without it the call allocates one."""
        n = len(self)
        if out is None:
            dense = np.zeros((n, self.input_dim), dtype)
        else:
            dense = out
            dense.fill(0.0)
        dense[np.arange(n).repeat(self.indptr[1:] - self.indptr[:-1]), self.indices] = self.values
        return dense


def _offsets(lengths: np.ndarray) -> np.ndarray:
    """The (n + 1,) int64 offsets of n runs of these lengths, from 0."""
    offsets = np.zeros(lengths.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    return offsets


def _gather(offsets: np.ndarray, rows: np.ndarray):
    """(offsets of the given runs laid end to end, the positions of their
    entries in the old order) for CSR offsets and run numbers ``rows``."""
    starts = offsets[rows]
    lengths = offsets[rows + 1] - starts
    gathered = _offsets(lengths)
    return gathered, np.repeat(starts - gathered[:-1], lengths) + np.arange(gathered[-1])


def pack_samples(batch: PackedSamples, input_dim: int) -> PackedSamples:
    """A nonempty packed batch for an encoder of ``input_dim`` inputs: the
    batch itself, with ``input_dim`` set.

    Raises ValueError for an empty batch and for a feature index outside
    [0, input_dim): this is the one place inputs are checked against the
    encoder's input dimension.
    """
    if not len(batch):
        raise ValueError("cannot pack an empty batch")
    if batch.input_dim != input_dim:
        batch = dataclasses.replace(batch, input_dim=input_dim)
    indices = batch.indices
    # as unsigned, a negative index is larger than any valid one: one reduction checks both ends
    if np.maximum.reduce(indices.view(np.uint64)) >= input_dim:
        bad = indices[(indices < 0) | (indices >= input_dim)][0]
        raise ValueError(f"feature index out of range for input_dim={input_dim}: {int(bad)}")
    return batch


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


def check_binary_labels(labels, what: str = "labels") -> None:
    """ValueError naming the first label other than 0 or 1 (``what`` names
    the labels). int8 labels take one unsigned maximum, with no temporary
    array (as unsigned, an int8 below 0 is above 1 too); labels of any other
    dtype, or int8 labels that fail it, are compared by value."""
    labels = np.asarray(labels)
    if labels.dtype != np.int8 or np.maximum.reduce(labels.view(np.uint8), axis=None, initial=0) > 1:
        bad = labels[(labels != 0) & (labels != 1)]
        if bad.size:
            raise ValueError(f"{what} must be 0 or 1, got {bad[0]}")


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
        if self.vocab_size >= 2**32:
            raise ValueError("vocab_size must be below 2**32")
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
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


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


# raw words one row block holds at most (1 MiB): a block draws as many
# samples as fit at 1 + C + 3T words each, and at least one; the words a
# sample reads do not depend on the block, so neither do the bytes
_BLOCK_WORDS = 1 << 17

_SPLITS = ("train", "valid", "test")


def _index(words: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """floor(word * size / 2**64) for uint64 words and sizes below 2**32,
    exact in uint64: the high half's product plus the carry of the low
    half's, shifted down 32 bits."""
    return ((words >> 32) * sizes + ((words & 0xFFFFFFFF) * sizes >> 32)) >> 32


def _draw_split(bitgen, cfg: DatasetConfig, tables, name: str, size: int) -> PackedSamples:
    """The next ``size`` samples of the bit generator's raw words as a packed
    split, ``1 + C + 3T`` words a sample, read in row blocks of at most
    ``_BLOCK_WORDS`` words. Where a word draws a probability it is read as
    ``u = (word >> 11) * 2**-53`` in [0, 1).

    Word 0 picks the cluster: the first entry of the prior's cdf above u.
    Word 1 + c draws label c: an in-label is kept when u < 1 - label_noise,
    an out-label leaks in when u < the cluster's leak rate, and a sample
    left without labels keeps its cluster's core label. Token j reads three
    words: noise (u < feature_noise), block (u < shared_feature_frac picks
    the pair's shared block, else the cluster's own) and index, which picks
    ``_index`` into the vocabulary for a noise token, else into the block.
    A sample's features are its distinct tokens, ascending, valued by how
    often each was drawn. Sample i's id is ``f"{name}-{i:05d}"``, packed by
    ``_split_ids`` without a string per id."""
    cdf, threshold, core, starts, sizes = tables
    num_classes, num_tokens = cfg.num_classes, cfg.tokens_per_sample
    width = 1 + num_classes + 3 * num_tokens
    per_block = max(1, _BLOCK_WORDS // width)
    # filled block by block: a sample has at most T distinct tokens
    indptr = np.zeros(size + 1, dtype=np.int64)
    indices = np.empty(size * num_tokens, dtype=np.int64)
    values = np.empty(size * num_tokens, dtype=np.float64)
    labels = np.empty((size, num_classes), dtype=np.int8)
    for done in range(0, size, per_block):
        k = min(per_block, size - done)
        words = bitgen.random_raw((k, width))
        u = (words[:, : 1 + num_classes] >> 11) * 2**-53
        g = cdf.searchsorted(u[:, 0], side="right")
        hits = u[:, 1:] < threshold[g]
        lost = ~hits.any(axis=1)
        hits[lost, core[g[lost]]] = True
        labels[done : done + k] = hits
        token_words = words[:, 1 + num_classes :].reshape(k, num_tokens, 3)
        u = (token_words[..., :2] >> 11) * 2**-53
        # the block each token draws from: 0 the vocabulary (noise), 1 the shared block, 2 the own block
        block = np.where(u[..., 0] < cfg.feature_noise, 0, np.where(u[..., 1] < cfg.shared_feature_frac, 1, 2))
        pick = g[:, None], block
        tokens = (starts[pick] + _index(token_words[..., 2], sizes[pick])).view(np.int64)
        flat = np.sort(tokens, axis=1).ravel()
        first = np.ones(flat.size, dtype=bool)  # the first of a run of equal tokens in a row
        first[1:] = flat[1:] != flat[:-1]
        first[::num_tokens] = True
        at = np.flatnonzero(first)
        indptr[done + 1 : done + k + 1] = indptr[done] + np.cumsum(first.reshape(k, num_tokens).sum(axis=1))
        lo, hi = indptr[done], indptr[done + k]
        indices[lo:hi] = flat[at]
        values[lo:hi] = np.diff(at, append=flat.size)
    # cut to the entries drawn, in place: no view of either is alive
    indices.resize(indptr[-1], refcheck=False)
    values.resize(indptr[-1], refcheck=False)
    return PackedSamples(indptr, indices, values, labels, cfg.vocab_size, *_split_ids(name, size))


def _split_ids(name: str, size: int) -> tuple[np.ndarray, np.ndarray]:
    """The (id_offsets, id_bytes) that ``copies.pack_strings`` gives for the
    ids ``f"{name}-{i:05d}"`` of i < size, from array arithmetic: the ids of
    one width are one uint8 matrix, a row the bytes of ``<name>-`` and then
    the zero-padded decimal digits of i. An id widens past five digits at
    i = 100 000, as the format does."""
    prefix = np.frombuffer(f"{name}-".encode("utf-8", "surrogatepass"), dtype=np.uint8)
    digits = np.maximum(5, 1 + np.searchsorted(_TENS, np.arange(size), side="right"))
    blocks = [np.empty(0, dtype=np.uint8)]
    for width in range(5, int(digits.max(initial=5)) + 1):
        i = np.arange(0 if width == 5 else 10 ** (width - 1), min(size, 10**width))
        block = np.empty((i.size, prefix.size + width), dtype=np.uint8)
        block[:, : prefix.size] = prefix
        block[:, prefix.size :] = i[:, None] // 10 ** np.arange(width - 1, -1, -1) % 10 + ord("0")
        blocks.append(block.ravel())
    return _offsets(prefix.size + digits), np.concatenate(blocks)


def generate_synthetic(cfg: DatasetConfig):
    """Deterministically generate the (train, valid, test) PackedSamples,
    one after another from the raw words of the PCG64 generator seeded with
    ``cfg.seed`` (``_draw_split``): no ``Generator`` method draws, so the
    bytes depend on the PCG64 raw stream alone.

    Each split holds the arrays ``load_packed`` reads from the file that
    ``save_splits`` writes for it (feature keys ascend in both), so the
    library and the CLI run on the same bits.
    """
    cfg.validate()
    layout = cluster_layout(cfg)
    cdf = layout[3].cumsum()
    cdf /= cdf[-1]
    clusters = _cluster_draws(cfg, layout)
    threshold = np.empty((cfg.num_clusters, cfg.num_classes))
    for g, (in_labels, out_labels, add_p, _, _) in enumerate(clusters):
        threshold[g, in_labels] = 1.0 - cfg.label_noise
        threshold[g, out_labels] = add_p
    core = np.array([in_labels[0] for in_labels, *_ in clusters])
    # per cluster, the first index and size of the vocabulary, its shared block and its own block
    blocks = [[(0, cfg.vocab_size), (shared[0], shared.size), (own[0], own.size)] for *_, own, shared in clusters]
    starts, sizes = np.moveaxis(np.array(blocks, dtype=np.uint64), 2, 0)
    tables = cdf, threshold, core, starts, sizes
    bitgen = make_rng(cfg.seed).bit_generator
    split_sizes = (cfg.train_size, cfg.valid_size, cfg.test_size)
    return tuple(_draw_split(bitgen, cfg, tables, name, size) for name, size in zip(_SPLITS, split_sizes))


def save_splits(splits, out_dir) -> dict[str, str]:
    """Write the (train, valid, test) splits that ``generate_synthetic`` gave
    as ``train.jsonl``, ``valid.jsonl`` and ``test.jsonl`` under ``out_dir``,
    with the bytes ``json.dumps`` gives each record dict, and beside each
    its packed copy under the digest of the bytes written, so the first
    ``load_packed`` of a split is a hit. Returns the paths by split name.

    Any packed splits can be written: a row without labels gets
    ``"labels": []``, and an id is written as ``json.dumps`` writes it
    (escapes and all). The feature values must be token counts: ValueError
    naming the split, row and value for the first one that is not a whole
    count >= +0.0 (a fraction, a negative, -0.0, NaN or an infinity), raised
    before any file is written, since the line would not hold the value
    the copy holds."""
    for name, split in zip(_SPLITS, splits):
        _check_counts(name, split)
    paths = {}
    for name, split in zip(_SPLITS, splits):
        path = paths[name] = os.path.join(out_dir, f"{name}.jsonl")
        num_classes = split.labels.shape[1]
        header = json.dumps({"num_classes": num_classes, "vocab_size": split.input_dim}) + "\n"
        digest = copies.write_hashed(path, chain([header.encode()], _record_lines(split)))
        copies.write_copy(path, _READER_VERSION, digest, _to_copy((split, num_classes, split.input_dim)))
    return paths


def _check_counts(name: str, split: PackedSamples) -> None:
    """ValueError naming the first row and feature value of ``split`` that
    is not a whole count >= +0.0."""
    values = split.values
    # NaN equals no floor, and the sign bit marks every negative and -0.0
    whole = (values == np.floor(values)) & (values < math.inf) & ~np.signbit(values)
    if not whole.all():
        at = int(np.argmin(whole))
        row = int(np.searchsorted(split.indptr, at, side="right")) - 1
        raise ValueError(f"{name} row {row}: feature value {float(values[at])!r} is not a whole count >= +0.0")


# at most this many (feature key, count) codes are counted with np.bincount;
# a split whose keys times counts span more (huge counts) finds its pairs by
# np.unique, which sorts its entries
_PAIR_CODES = 1 << 20


def _feature_pieces(split: PackedSamples):
    """(the table of feature pieces, each entry's row of it) for a split of
    whole counts: a row of the table for each (key, count) pair in the
    split, ``"k": v`` for a line's first feature, and a second such block,
    ``, "k": v``, for the features after it."""
    span = int(split.values.max(initial=0.0)) + 1
    if split.input_dim * span <= _PAIR_CODES:
        # code = key * span + count, then each code's slot, in one array
        slot = split.indices * span
        np.add(slot, split.values, out=slot, casting="unsafe")  # exact: below 2**53
        seen = np.bincount(slot, minlength=split.input_dim * span) > 0
        np.take(np.cumsum(seen) - 1, slot, out=slot, mode="clip")  # "raise" would stage a copy
        pairs = np.flatnonzero(seen)
        keys, counts = pairs // span, (pairs % span).astype(np.float64)
    else:
        # a nonnegative float's bits order and compare as its value does
        entries = np.stack([split.indices, split.values.view(np.int64)], axis=1)
        pairs, slot = np.unique(entries, axis=0, return_inverse=True)
        keys, counts = pairs[:, 0], pairs[:, 1].copy().view(np.float64)
    first = [f'"{k}": {v!r}' for k, v in zip(keys.tolist(), counts.tolist())]
    return np.array(first + [f", {piece}" for piece in first], dtype=object), slot


def _record_lines(split: PackedSamples):
    """The record lines of a split of whole counts, ``_CHUNK_LINES`` rows at
    a time as one bytes object: each chunk is its lines' pieces, looked up in
    tables, in one join. A line is an opening piece with its id, a piece per
    feature (``_feature_pieces``), a piece per label and a closing piece, the
    ``"labels": []`` of a row without labels in its closing piece.

    The ids are one text, each line's id a slice of it: the ids' bytes
    decoded as ASCII when every byte is printable ASCII other than ``"`` and
    ``\\`` (which ``json.dumps`` writes as they are), else each id as
    ``json.dumps`` writes it, quotes cut off."""
    n, num_classes = split.labels.shape
    table, slot = _feature_pieces(split)
    later = table.size // 2  # a feature after the first of its line takes the piece of the second block
    labels = np.array(
        [f'}}, "labels": [{c}' for c in range(num_classes)] + [f", {c}" for c in range(num_classes)], dtype=object
    )
    closings = np.array(['}, "labels": []}\n', "]}\n"], dtype=object)
    id_bytes = split.id_bytes
    if np.all((id_bytes >= 0x20) & (id_bytes < 0x7F) & (id_bytes != ord('"')) & (id_bytes != ord("\\"))):
        id_text, id_bounds = id_bytes.tobytes().decode("ascii"), split.id_offsets.tolist()
    else:
        escaped = [json.dumps(sample_id)[1:-1] for sample_id in split.ids()]
        id_text, id_bounds = "".join(escaped), list(accumulate(map(len, escaped), initial=0))
    for lo in range(0, n, _CHUNK_LINES):
        rows = split[lo : lo + _CHUNK_LINES]
        nnz = np.diff(rows.indptr)
        row, col = np.divmod(np.flatnonzero(rows.labels), num_classes)
        num_labels = np.bincount(row, minlength=len(rows))
        # per row: its opening piece, a piece per feature, a piece per label, its closing piece
        bounds = _offsets(2 + nnz + num_labels)
        pieces = np.empty(bounds[-1], dtype=object)
        starts = id_bounds[lo : lo + len(rows) + 1]
        pieces[bounds[:-1]] = [f'{{"id": "{id_text[a:b]}", "features": {{' for a, b in zip(starts, starts[1:])]
        j = np.arange(rows.indptr[-1]) - np.repeat(rows.indptr[:-1], nnz)  # place in its row
        entries = slot[split.indptr[lo] : split.indptr[lo + len(rows)]]
        pieces[np.repeat(bounds[:-1], nnz) + 1 + j] = table[entries + later * (j > 0)]
        j = np.arange(row.size) - np.repeat(np.cumsum(num_labels) - num_labels, num_labels)
        pieces[bounds[row] + 1 + nnz[row] + j] = labels[col + num_classes * (j > 0)]
        pieces[bounds[1:] - 1] = closings[np.minimum(num_labels, 1)]
        yield "".join(pieces.tolist()).encode()


# lines parsed or written per chunk: each chunk's records become arrays (or
# its lines bytes) before the next chunk is read (or put together), so the
# parsed records or line pieces of a whole split are never alive at once
_CHUNK_LINES = 256
# the version of the load rules below (_read_header, _check_record,
# _pack_lines) and of the packed-copy layout: bump it whenever either changes,
# so that a copy stands only for bytes that pass today's checks
_READER_VERSION = 4
# str(i) of an index i >= 0 has 1 + (how many of these are <= i) digits
_TENS = 10 ** np.arange(1, 19, dtype=np.int64)
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
    number, each feature key an integer as str() writes it, each value fits a
    float, labels are a list of integers, an id (if given) is a string),
    label bounds, feature bounds."""
    try:
        rec = json.loads(line)
        raw = rec["features"]
        for value in raw.values():
            check_kind("a feature value", value, "float")
        for key in raw:
            with contextlib.suppress(ValueError):
                if str(int(key)) == key:
                    continue
            raise ValueError(f"a feature key must be an integer as str() writes it, got {key!r}")
        features = {int(k): float(v) for k, v in raw.items()}
        positives = rec["labels"]
        if not isinstance(positives, list):
            raise TypeError(f"labels must be a list, got {positives!r}")
        for c in positives:
            check_kind("a label", c, "int")
        check_kind("an id", rec.get("id", ""), "str")
    except (json.JSONDecodeError, KeyError, TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise DataFormatError(f"malformed record ({exc})") from exc
    for c in positives:
        if not 0 <= c < num_classes:
            raise DataFormatError(f"label index {c} out of range for C={num_classes}")
    for k in features:
        if not 0 <= k < vocab_size:
            raise DataFormatError(f"feature index {k} out of range for vocab_size={vocab_size}")


def _pack_lines(lines, num_classes: int, input_dim: int) -> PackedSamples | None:
    """The records among ``lines`` (blank lines skipped) as a PackedSamples,
    or None when any line is bad: the caller then finds it with
    ``_check_record``.

    Each record only extends flat lists; the kind, key, conversion and bounds
    checks then run once over the chunk, and each gives what
    ``_check_record`` would (JSON parses a number to an int or a float and
    nothing else to either, and a bool is not one: values of type int or
    float that convert to finite floats, keys that str(int(key)) gives back,
    labels in lists and of type int, ids of type str), so a chunk packs
    exactly when all of its lines pass.
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
            ids.append(rec.get("id", ""))
        if not set(map(type, values)) <= {int, float} or not set(map(type, positives)) <= {int}:
            return None
        if not set(map(type, ids)) <= {str}:
            return None
        indices = np.fromiter(map(int, keys), dtype=np.int64, count=len(keys))
        key_lengths = np.fromiter(map(len, keys), dtype=np.int64, count=len(keys))
        values = np.fromiter(values, dtype=np.float64, count=len(values))
        positives = np.fromiter(positives, dtype=np.int64, count=len(positives))
    except (StopIteration, KeyError, TypeError, ValueError, AttributeError, OverflowError):
        return None
    if not np.isfinite(values).all():
        return None
    # as unsigned, a negative index is larger than any valid one
    if positives.size and np.maximum.reduce(positives.view(np.uint64)) >= num_classes:
        return None
    if indices.size and np.maximum.reduce(indices.view(np.uint64)) >= input_dim:
        return None
    # int() also takes "03", "+3", " 3", "3_0" and digits other than ASCII;
    # an ASCII key as long as str() writes its index in [0, input_dim)
    # has no character to spare, so it is exactly str(int(key))
    if not "".join(keys).isascii() or (key_lengths != 1 + np.searchsorted(_TENS, indices, side="right")).any():
        return None
    return _pack(ids, counts, indices, values, label_counts, positives, num_classes, input_dim)


def _pack(ids, counts, indices, values, label_counts, positives, num_classes: int, input_dim: int) -> PackedSamples:
    """The PackedSamples of records given as flat sequences: each record's
    id, feature count and label count, and every record's feature indices,
    values and positive labels one after another. A record without features
    is packed as one explicit zero at index 0, so that no CSR row is empty
    (np.add.reduceat cannot sum an empty segment); it adds nothing."""
    n = len(ids)
    counts = np.asarray(counts, dtype=np.int64)
    indices, values = np.asarray(indices, dtype=np.int64), np.asarray(values, dtype=np.float64)
    empty = counts == 0
    indptr = _offsets(counts + empty)
    if empty.any():
        at = np.cumsum(counts)[empty]  # where each record without features starts
        indices, values = np.insert(indices, at, 0), np.insert(values, at, 0.0)
    labels = np.zeros((n, num_classes), dtype=np.int8)
    labels[np.arange(n).repeat(np.asarray(label_counts, dtype=np.int64)), np.asarray(positives, dtype=np.int64)] = 1
    return PackedSamples(indptr, indices, values, labels, input_dim, *copies.pack_strings(ids))


def _parse_chunks(fh, path, num_classes: int, vocab_size: int):
    """Yield the PackedSamples of each chunk of ``_CHUNK_LINES`` body lines
    that holds a record. A bad line raises DataFormatError naming it."""
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
        if len(chunk):
            yield chunk


def load_packed(path):
    """``load_jsonl`` of a dataset file, parsed at most once per content:
    (PackedSamples, num_classes, vocab_size), with the same checks and the
    same DataFormatError naming the offending line. The result is served
    from the packed copy ``<path>.packed`` when that copy was written for
    the same bytes by this reader version and is intact; otherwise the file
    is parsed and the copy (re)written (``copies.load``). A copy that cannot
    be written is logged at DEBUG and skipped; a file that fails to parse
    gets none, and so does a path that is not a regular file (a pipe is read
    only once).
    """
    return copies.load(path, _READER_VERSION, _COPY_MEMBERS, load_jsonl, _from_copy, _to_copy)


def load_labels(path) -> tuple[np.ndarray, int]:
    """The (n, C) int8 label rows of a dataset file and its num_classes C:
    ``load_packed``'s, with its checks and errors, read from only the
    ``dims`` and ``labels`` members of the packed copy. A miss parses the
    whole file and writes the whole copy, as ``load_packed`` does."""
    arrays = copies.load(path, _READER_VERSION, _LABEL_MEMBERS, lambda p: _to_copy(load_jsonl(p)), _labels_from_copy, dict)
    return arrays["labels"], int(arrays["dims"][0])


def load_jsonl(path):
    """Parse a dataset file straight into CSR arrays; returns (PackedSamples,
    num_classes, vocab_size), with ``input_dim`` = vocab_size. Reads no
    packed copy and writes none (``load_packed`` does).

    Raises DataFormatError naming the offending line for a bad header, a
    malformed record or a value of the wrong kind, and an out-of-range
    label or feature index.
    """
    with open(path, "r", encoding="utf-8") as fh:
        num_classes, vocab_size = _read_header(fh, path)
        parts = list(_parse_chunks(fh, path, num_classes, vocab_size))
    parts = parts or [_pack_lines([], num_classes, vocab_size)]
    packed = PackedSamples(
        _offsets(np.concatenate([np.diff(p.indptr) for p in parts])),
        np.concatenate([p.indices for p in parts]),
        np.concatenate([p.values for p in parts]),
        np.concatenate([p.labels for p in parts]),
        vocab_size,
        _offsets(np.concatenate([np.diff(p.id_offsets) for p in parts])),
        np.concatenate([p.id_bytes for p in parts]),
    )
    return packed, num_classes, vocab_size


# the packed copy holds these arrays, {name: (dtype, ndim)}, beside version
# and digest (see docs/formats.md)
_COPY_MEMBERS = {
    "dims": (np.int64, 1),  # (2,): C, V
    "indptr": (np.int64, 1),
    "indices": (np.int64, 1),
    "values": (np.float64, 1),
    "labels": (np.int8, 2),
    "id_offsets": (np.int64, 1),  # (n + 1,): id i is id_bytes[id_offsets[i]:id_offsets[i + 1]]
    "id_bytes": (np.uint8, 1),  # every id, UTF-8 with surrogatepass
}


# what ``load_labels`` reads of a copy
_LABEL_MEMBERS = {name: _COPY_MEMBERS[name] for name in ("dims", "labels")}


def _to_copy(loaded) -> dict:
    """The arrays of the packed copy of a parse result (PackedSamples,
    num_classes, vocab_size)."""
    packed, num_classes, vocab_size = loaded
    return {
        "dims": np.array([num_classes, vocab_size], dtype=np.int64),
        "indptr": packed.indptr,
        "indices": packed.indices,
        "values": packed.values,
        "labels": packed.labels,
        "id_offsets": packed.id_offsets,
        "id_bytes": packed.id_bytes,
    }


def _from_copy(arrays: dict):
    """(PackedSamples, num_classes, vocab_size) of a packed copy's arrays, or
    None when they do not hold a valid packing."""
    dims, indptr, indices, values, labels, offsets, blob = (arrays[name] for name in _COPY_MEMBERS)
    if _labels_from_copy(arrays) is None or not indptr.size:
        return None
    (num_classes, vocab_size), n, nnz = dims.tolist(), indptr.size - 1, int(indptr[-1])
    if (indices.shape, values.shape, labels.shape, offsets.shape) != ((nnz,), (nnz,), (n, num_classes), (n + 1,)):
        return None
    # indptr runs 0 -> nnz without an empty row
    if indptr[0] != 0 or (n and np.diff(indptr).min() < 1):
        return None
    # as unsigned, a negative index is larger than any valid one
    if nnz and np.maximum.reduce(indices.view(np.uint64)) >= vocab_size:
        return None
    if not copies.strings_valid(offsets, blob):
        return None
    return PackedSamples(indptr, indices, values, labels, vocab_size, offsets, blob), num_classes, vocab_size


def _labels_from_copy(arrays: dict) -> dict | None:
    """The ``dims`` and ``labels`` of a packed copy, or None when they do not
    hold what a parse gives (C >= 1 and V >= 1, 0/1 label rows of C)."""
    dims, labels = arrays["dims"], arrays["labels"]
    if dims.shape != (2,) or dims.min() < 1 or labels.shape[1] != dims[0]:
        return None
    if labels.size and np.maximum.reduce(labels.view(np.uint8), axis=None) > 1:
        return None
    return arrays


def label_frequencies(labels: np.ndarray) -> np.ndarray:
    """Count of samples with each label positive, from (n, C) 0/1 label rows."""
    return labels.sum(axis=0, dtype=np.int64)


def frequency_groups(labels, num_groups: int = 4) -> dict[int, int]:
    """Partition labels into frequency groups by their counts in the (n, C)
    0/1 label rows ``labels`` (a split's ``labels``, or ``load_labels``').

    Labels are sorted by descending frequency (ties broken by ascending label
    index) and split into ``num_groups`` near-equal chunks; the dict holds
    them in that order.
    """
    freqs = label_frequencies(labels)
    if num_groups < 1:
        raise ValueError("num_groups must be >= 1")
    order = sorted(range(len(freqs)), key=lambda c: (-int(freqs[c]), c))
    chunks = np.array_split(np.asarray(order), min(num_groups, len(freqs)))
    return {int(c): g for g, chunk in enumerate(chunks) for c in chunk}
