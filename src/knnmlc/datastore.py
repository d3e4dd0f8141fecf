"""Key-value store of (embedding, label) pairs built from the training set,
with exact top-k cosine retrieval and a compact binary file format.

File layout (little-endian), documented byte-exactly in docs/formats.md:

    magic    4 bytes  b"NNDS"
    version  u16
    dim      u32      embedding dimension d
    classes  u32      label dimension C
    count    u64      number of entries
    keys     count * d float32
    labels   count rows of ceil(C/8) bytes, big bit order (label 0 = MSB)

Keys are float32, the file's dtype, in memory too, so an in-memory store and
its saved-and-loaded copy hold the same keys. When a store is made (by
``build``, ``load`` or the constructor) every key is checked once, from the
key norms: a zero-norm key or one holding NaN or inf has no cosine
similarity and is rejected there (``InvalidKeyError``; ``load`` reports it
as a ``DatastoreFormatError``), never at query time. The float64 norms are
formed in row ranges (``_NORM_RANGE_BYTES``), so making a store never holds
a float64 copy of its keys; each norm is summed from its own row, so the
ranges change no bit. Labels are checked there too: a value other than 0 or
1 is a ValueError naming it, since the file stores one bit per label (int8
labels by one unsigned maximum, any other dtype by value). ``save`` writes
the key buffer and the packed labels as they are, and ``load`` unpacks the
labels once into the int8 rows the store keeps. For the candidate search
the store also holds each key's unit vector rounded to float32
(``unit_t``), as many bytes again as the keys. It is formed when the store
is first searched and then kept, so ``build`` (the ``build-store`` command)
never forms it. Cosine similarity is then an inner product of unit vectors,
as in exact inner-product search (FAISS ``IndexFlatIP``).

``search`` checks its arguments (k, the queries' shape) and, since they
come from the model, the query values on every call: a query that holds
NaN or inf, whose norm overflows or whose norm is zero has no unit vector,
and ``NonFiniteQueryError`` names its row.

Retrieval takes an (n, d) block of queries and is exact: the result equals a
full sort by (similarity descending, index ascending) of the similarities
r = clip(sum_i u_i q_i, -1, 1), with u = key / norm and q = query / norm in
float64, summed row by row so that r does not depend on the other queries.
Queries run in row blocks sized by the larger of a row's (count) float32
similarities and the bookkeeping of its at least k candidates
(``_CANDIDATE_BYTES`` each), so that a block stays near
``_QUERY_BLOCK_BYTES``. Per block:

1. one float32 BLAS product of the unit queries with the float32 unit keys
   gives approximate similarities b;
2. per row, a lower bound c on b_k, the row's k-th largest b. With
   g = 8k groups (``_GROUPS_PER_NEIGHBOR``) below count, and a block of at
   least ``_BOUND_MIN_ENTRIES`` similarities, c is the k-th largest of the
   maxima of g strided groups: entry i is in group i mod g, and the
   count - s g entries past the last whole stride (s = count // g) fold into
   the first groups. Otherwise c = b_k, from a partition of the row. Every
   entry with b >= min(c, 1) - M is a candidate, where M = 4 gamma_{d+2},
   and gamma_m = m e / (1 - m e) with e = 2**-24 the float32 unit roundoff.
   A row whose group bound admits more than 4k candidates
   (``_FALLBACK_MULTIPLE``; a store laid out with the groups' period can
   do that) takes c = b_k and its candidates again;
3. each candidate gets its exact r (its float64 unit key formed from its
   key row alone, in chunks of about ``_RESCORE_BYTES`` of float64
   operands), and the candidates are sorted by (r descending, index
   ascending): each row's -r fill one row of an (n, w) matrix, w the
   largest count of candidates in a row, padded with +inf, and one stable
   sort of each row orders them, since a row's candidates arrive in
   ascending index order. When every row holds w candidates, as a single
   query does, the matrix is the -r reshaped, with no padding.

Why that is exact: rounding u and q to float32 and summing d products in
float32 in any order puts b within gamma_{d+2} |u||q| of the exact inner
product, and r is within the float64 gamma_d |u||q| of it, so with
|u|, |q| = 1 + O(2**-53) the gap delta = |b - r| stays below 2 gamma_{d+2}
(underflow adds under 1e-40), and clipping both keeps that bound. The k
entries with the largest clipped b have r >= clip(b_k) - delta, so the k-th
largest r is at least that, and any entry at or above it (ties at the cutoff
included) has clipped b >= clip(b_k) - 2 delta > clip(b_k) - M. The group
bound keeps c <= b_k: the k groups whose maxima are at least c each hold a
distinct entry that is at least c, so at least k entries are, and so
clip(b_k) - M >= clip(c) - M. Every entry that can reach the top k is
therefore a candidate under either form of c, and a lower c only adds
candidates that the exact r ranks below the k-th. Sorting the candidates
gives exactly the full sort's top k, whatever block a query sat in and
whichever form of c its row took.
"""
from __future__ import annotations

import math
import struct
import sys
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .data import PackedSamples, check_binary_labels, pack_samples
from .encoder import EncoderState, rowwise_layers
from .mathops import _row_norms

__all__ = [
    "Datastore",
    "DatastoreFormatError",
    "InvalidKeyError",
    "NonFiniteQueryError",
    "build",
    "load",
    "save",
    "search",
]

_MAGIC = b"NNDS"
_VERSION = 1
_HEADER = struct.Struct("<4sHIIQ")
# build embeds the training rows in ranges whose forward trace (about
# 4 hidden + embed float64 values a row) stays near this size, so its
# memory does not grow with the training set
_BUILD_TRACE_BYTES = 1 << 20
# retrieval runs queries in row blocks whose (rows, count) float32 similarity
# block stays near this size (13 queries against 20k keys)
_QUERY_BLOCK_BYTES = 1 << 20
# a store's float64 key norms are formed in row ranges whose float64 squares
# stay near this size, never in a float64 copy of every key
_NORM_RANGE_BYTES = 256 << 10
# a candidate costs five 8-byte values while a block is ranked: its row, its
# entry, its exact score, the negated score (in its row's padded run) and
# its place in the sort order
_CANDIDATE_BYTES = 40
# candidates are re-scored in chunks whose float64 operands stay near this size
_RESCORE_BYTES = 256 << 10
# the k-th similarity of a row is bounded by the k-th largest maximum over
# this many strided groups per neighbor ...
_GROUPS_PER_NEIGHBOR = 8
# ... when the block holds at least this many similarities: below it a
# partition of the whole row measured faster
_BOUND_MIN_ENTRIES = 4096
# a row whose bound admits more than this many candidates per neighbor
# takes its exact k-th value
_FALLBACK_MULTIPLE = 4
# unit_t is formed in column blocks of this many keys
_COLUMN_BLOCK = 2048
_FLOAT32_ROUNDOFF = 2.0**-24
_FLOAT32_NEG_INF = np.float32(-np.inf)


class DatastoreFormatError(ValueError):
    """Raised for corrupt, truncated, or wrong-format datastore files."""


class NonFiniteQueryError(ValueError):
    """Raised for a query embedding that holds NaN or inf, or whose norm
    overflows or is zero: its unit vector would not be finite, so no
    neighbor could be ranked. ``row`` is the first such row of the batch and
    ``reason`` the message without the row."""

    def __init__(self, row: int, reason: str, sample_id: str | None = None):
        where = f"row {row}" if sample_id is None else f"row {row} (id {sample_id!r})"
        super().__init__(f"{where}: {reason}")
        self.row, self.reason = row, reason


class InvalidKeyError(ValueError):
    """Raised when a store is made from a key that is zero-norm or holds NaN
    or inf: its cosine similarity with any query is undefined."""


@dataclass
class Datastore:
    """(count, d) float32 keys and (count, C) int8 0/1 labels, plus the
    keys' float64 norms, all checked at construction. Keys of another dtype
    are quantized to float32; float32 keys are used as given, not copied,
    so the caller must not change them afterwards. ``unit_t``, the keys'
    unit vectors rounded to float32 for the candidate search, is formed
    from them on the first search and then kept in the instance (two
    threads that search first at once may both form it, to the same
    bits); nothing else changes after construction."""

    keys: np.ndarray
    values: np.ndarray
    norms: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.keys = np.asarray(self.keys, dtype=np.float32)
        values = np.asarray(self.values)
        # checked before the int8 cast, which turns 0.5 into 0, 1.7 into 1 and
        # 257 into 1
        check_binary_labels(values, "label values")
        self.values = values.astype(np.int8, copy=False)
        if self.keys.ndim != 2 or self.values.ndim != 2:
            raise ValueError("keys and values must be 2-d arrays")
        if self.keys.shape[0] != self.values.shape[0]:
            raise ValueError(
                f"keys count {self.keys.shape[0]} != values count {self.values.shape[0]}"
            )
        # float32 squares cannot overflow in float64: a norm is NaN or inf
        # exactly when an entry is, and a unit vector is finite exactly when
        # its norm is neither that nor zero
        self.norms = _key_norms(self.keys)
        bad = np.flatnonzero(~((self.norms > 0.0) & (self.norms < np.inf)))
        if bad.size:
            raise InvalidKeyError(
                f"{bad.size} key(s) with zero norm or NaN/inf entries (first at index {bad[0]}); "
                "cosine similarity is undefined"
            )

    @cached_property
    def unit_t(self) -> np.ndarray:
        """The keys' unit vectors rounded to float32, as the columns of the
        C-contiguous (d, count) float32 matrix the candidate search
        multiplies by: a block of queries times it is a BLAS product without
        a transposed operand, which measured up to twice as fast. Each entry
        is the float32 of float64(key) / norm, the arithmetic of the exact
        rescoring in ``_topk_block``."""
        return _unit_columns(self.keys, self.norms)

    @property
    def count(self) -> int:
        return self.keys.shape[0]

    @property
    def dim(self) -> int:
        return self.keys.shape[1]

    @property
    def num_classes(self) -> int:
        return self.values.shape[1]


def _key_norms(keys: np.ndarray) -> np.ndarray:
    """``_row_norms`` of the float32 ``keys`` in float64, formed in row ranges
    whose float64 squares stay near ``_NORM_RANGE_BYTES``, so no float64
    copy of the whole store is made. Each norm is summed from its own row
    alone, so the ranges do not change a bit."""
    count, d = keys.shape
    rows = max(1, _NORM_RANGE_BYTES // (8 * max(d, 1)))
    norms = np.empty(count)
    squares = np.empty((min(rows, count), d))
    for start in range(0, count, rows):
        part = keys[start : start + rows]
        block = squares[: len(part)]
        # the float64 products of the float64 entries, as in _row_norms
        np.multiply(part, part, out=block, dtype=np.float64)
        np.add.reduce(block, axis=1, out=norms[start : start + rows])
    return np.sqrt(norms, out=norms)


def _unit_columns(keys: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """The float32 of ``keys.T / norms`` in float64, in column blocks of
    ``_COLUMN_BLOCK`` keys: each block's float64 quotients are cast straight
    into its columns of the float32 result, with no transposed copy of the
    whole store. Each entry is one division, so the blocks change no bit."""
    count, d = keys.shape
    unit_t = np.empty((d, count), dtype=np.float32)
    for start in range(0, count, _COLUMN_BLOCK):
        stop = start + _COLUMN_BLOCK
        np.divide(keys[start:stop].T, norms[start:stop], out=unit_t[:, start:stop], dtype=np.float64, casting="unsafe")
    return unit_t


def build(state: EncoderState, train_samples: PackedSamples, fraction: float = 1.0) -> Datastore:
    """One entry per row of the packed training split, in input order: key
    i is the float32 of the embedding the dropout-off pass
    ``encoder.rowwise_layers`` gives sample i, which is bit for bit the embedding
    ``inference.predict`` computes for ``train_samples[i]`` as a query.

    ``fraction`` < 1 keeps only the leading portion of the training set
    (prefix sampling). Every row is embedded on its own, so neither the
    ranges the rows are embedded in nor the fraction changes a key, and a
    smaller store is an entrywise prefix of the full one. Raises
    InvalidKeyError when an embedding is zero-norm or non-finite after
    quantization.
    """
    if not len(train_samples):
        raise ValueError("cannot build a datastore from an empty training set")
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must lie in (0, 1]")
    cfg = state.config
    train = pack_samples(train_samples, cfg.input_dim)
    n = max(1, int(np.ceil(fraction * len(train))))
    rows = max(1, _BUILD_TRACE_BYTES // (8 * (4 * cfg.hidden_dim + cfg.embed_dim)))
    keys = np.empty((n, cfg.embed_dim), dtype=np.float32)
    for start in range(0, n, rows):
        keys[start : start + rows] = rowwise_layers(state, train[start : min(start + rows, n)])
    return Datastore(keys=keys, values=train.labels[:n].copy())


def search(store: Datastore, queries, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The min(k, count) entries most cosine-similar to each row of an (n, d)
    block of queries: ``(indices, sims)``, both (n, min(k, count)), each row
    sorted by similarity descending with ties broken by ascending index.

    Exact, and each row is bit-identical whatever other rows the block holds
    (see the module docstring). ValueError for k < 1 or queries not of shape
    (n, d); NonFiniteQueryError naming the first row that holds NaN or inf,
    whose norm overflows, or whose norm is zero.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    q = np.asarray(queries, dtype=np.float64)
    if q.ndim != 2 or q.shape[1] != store.dim:
        raise ValueError(f"queries shape {q.shape} != (n, {store.dim})")
    # with every |entry| below sqrt(max / 2d) no row's sum of squares can
    # overflow. Past that bound (or with a NaN) the norms are summed with
    # overflow kept from warning: a norm is then NaN or inf exactly when an
    # entry is or when the sum overflowed, which the check reports. Norms
    # are >= 0, so NaN or inf shows in the largest and 0 in the smallest.
    if np.maximum.reduce(np.abs(q), axis=None, initial=0.0) < math.sqrt(sys.float_info.max / (2 * store.dim)):
        norms = _row_norms(q)
    else:
        with np.errstate(over="ignore"):
            norms = _row_norms(q)
        if not np.maximum.reduce(norms, initial=0.0) < np.inf:
            row = int(np.flatnonzero(~(norms < np.inf))[0])
            raise NonFiniteQueryError(row, "cannot retrieve with a query that holds NaN or inf")
    if not np.minimum.reduce(norms, initial=np.inf):
        row = int(np.flatnonzero(norms == 0.0)[0])
        raise NonFiniteQueryError(row, "cannot retrieve with a zero-norm query")
    q = q / norms[:, None]

    n, count = q.shape[0], store.count
    k = min(k, count)
    # a row holds its float32 similarities and the bookkeeping of at least
    # k candidates; the larger of the two sizes the block
    block = max(1, _QUERY_BLOCK_BYTES // max(4 * count, _CANDIDATE_BYTES * k))
    if block >= n:
        return _topk_block(store, q, k)
    indices = np.empty((n, k), dtype=np.int64)
    sims = np.empty((n, k))
    for start in range(0, n, block):
        stop = min(start + block, n)
        indices[start:stop], sims[start:stop] = _topk_block(store, q[start:stop], k)
    return indices, sims


def _topk_block(store: Datastore, q: np.ndarray, k: int):
    count, d = store.keys.shape
    n = q.shape[0]
    approx = q.astype(np.float32) @ store.unit_t
    groups = _GROUPS_PER_NEIGHBOR * k
    bounded = groups < count and n * count >= _BOUND_MIN_ENTRIES
    kth = _group_bound(approx, k, groups) if bounded else _kth_largest(approx.copy(), k)
    flat, bounds = _candidates(approx, kth, d)
    lengths = bounds[1:] - bounds[:-1]
    # a row whose bound admits too many candidates (a store laid out with
    # the groups' period) takes its exact k-th value instead; no row can
    # when the whole block admits no more than that
    if bounded and flat.size > _FALLBACK_MULTIPLE * k:
        wide = np.flatnonzero(lengths > _FALLBACK_MULTIPLE * k)
        if wide.size:
            kth[wide] = _kth_largest(approx[wide], k)
            flat, bounds = _candidates(approx, kth, d)
            lengths = bounds[1:] - bounds[:-1]
    rows, cand = np.divmod(flat, count)
    exact = _rescore(store, q, rows, cand)
    # each row's -r in a row of its own, +inf past its candidates: they
    # arrive in ascending index order, so a stable sort keeps tied r in it
    width = max(lengths.tolist())
    if flat.size == n * width:
        scores = np.negative(exact).reshape(n, width)
    else:
        scores = np.full((n, width), np.inf)
        scores[np.arange(width) < lengths[:, None]] = np.negative(exact)
    take = scores.argsort(axis=1, kind="stable")[:, :k]
    take += bounds[:-1, None]
    return cand[take], exact[take]


def _kth_largest(scratch: np.ndarray, k: int) -> np.ndarray:
    """Each row's k-th largest value, by a partition of the rows of
    ``scratch`` in place (a copy the caller no longer needs)."""
    count = scratch.shape[1]
    scratch.partition(count - k, axis=1)
    return scratch[:, count - k]


def _group_bound(approx: np.ndarray, k: int, groups: int) -> np.ndarray:
    """Each row's k-th largest maximum over ``groups`` strided groups (entry
    i in group i mod groups): at most the row's k-th largest value, since the
    k groups whose maximum reaches it hold k distinct entries that do."""
    n, count = approx.shape
    s = count // groups
    maxima = np.maximum.reduce(approx[:, : s * groups].reshape(n, s, groups), axis=1)
    # the tail's entries fold into the first groups
    tail = approx[:, s * groups :]
    np.maximum(maxima[:, : tail.shape[1]], tail, out=maxima[:, : tail.shape[1]])
    maxima.partition(groups - k, axis=1)
    return maxima[:, groups - k]


def _candidates(approx: np.ndarray, kth: np.ndarray, d: int):
    """The flat (row * count + entry) indices of the entries at or above
    each row's cutoff below ``kth``, ascending, and the (n + 1,) offsets of
    each row's first among them and of their end."""
    n, count = approx.shape
    m = (d + 2) * _FLOAT32_ROUNDOFF
    cutoff = np.minimum(kth, 1.0, dtype=np.float64) - 4.0 * m / (1.0 - m)
    # at or below -1 every entry clips to a candidate
    cutoff[cutoff <= -1.0] = -np.inf
    # rounded to float32 and stepped one ulp down: never above the cutoff
    cutoff = np.nextafter(cutoff.astype(np.float32), _FLOAT32_NEG_INF)
    # np.flatnonzero without its dispatch: a 2-d nonzero measured many times slower
    flat = (approx >= cutoff[:, None]).ravel().nonzero()[0]
    return flat, flat.searchsorted(np.arange(0, (n + 1) * count, count))


def _rescore(store: Datastore, q: np.ndarray, rows: np.ndarray, cand: np.ndarray) -> np.ndarray:
    """The exact similarity of each candidate with its row's query, in
    chunks whose float64 operands stay near ``_RESCORE_BYTES``: each value is
    summed from its own row, so the chunks change no bit. A single
    candidate is one chunk whatever its size."""
    if 8 * q.shape[1] * cand.size > _RESCORE_BYTES and cand.size > 1:
        step = max(1, _RESCORE_BYTES // (8 * q.shape[1]))
        return np.concatenate([_rescore(store, q, rows[i : i + step], cand[i : i + step]) for i in range(0, cand.size, step)])
    # ndarray.clip is np.clip without its Python-level dispatch
    unit = store.keys[cand].astype(np.float64) / store.norms[cand, None]
    return np.add.reduce(unit * q[rows], axis=1).clip(-1.0, 1.0)


def save(store: Datastore, path) -> None:
    """Write the binary format straight from the key buffer (copied only
    when it is not C-ordered little-endian float32) and from the packed
    labels (the int8 0/1 rows viewed as uint8)."""
    labels_packed = np.packbits(store.values.view(np.uint8), axis=1, bitorder="big")
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, _VERSION, store.dim, store.num_classes, store.count))
        fh.write(np.ascontiguousarray(store.keys, dtype="<f4"))
        fh.write(labels_packed)


def load(path) -> Datastore:
    """Read the binary format back; raises DatastoreFormatError for bad magic,
    unsupported version, a header with no entries, a size that disagrees with
    the header, or a zero-norm or non-finite key."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _HEADER.size:
        raise DatastoreFormatError(f"{path}: file shorter than the header")
    magic, version, dim, num_classes, count = _HEADER.unpack_from(blob, 0)
    if magic != _MAGIC:
        raise DatastoreFormatError(f"{path}: bad magic {magic!r}, expected {_MAGIC!r}")
    if version != _VERSION:
        raise DatastoreFormatError(f"{path}: unsupported version {version}")
    if count == 0:
        # build refuses an empty training set, so no store has zero entries
        raise DatastoreFormatError(f"{path}: header holds no entries")
    label_row_bytes = (num_classes + 7) // 8
    expected = _HEADER.size + count * (4 * dim + label_row_bytes)
    if len(blob) != expected:
        raise DatastoreFormatError(
            f"{path}: size {len(blob)} bytes does not match header (expected {expected})"
        )
    keys_end = _HEADER.size + count * 4 * dim
    keys = np.frombuffer(blob, dtype="<f4", count=count * dim, offset=_HEADER.size).reshape(count, dim)
    packed = np.frombuffer(blob, dtype=np.uint8, offset=keys_end).reshape(count, label_row_bytes)
    # one (count, C) array of 0/1 bytes, read as int8
    values = np.unpackbits(packed, axis=1, count=num_classes, bitorder="big").view(np.int8)
    try:
        return Datastore(keys=keys, values=values)
    except InvalidKeyError as exc:
        raise DatastoreFormatError(f"{path}: {exc}") from exc
