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
``build``, ``load`` or the constructor) every key is checked once: a
zero-norm key or one holding NaN or inf has no cosine similarity and is
rejected there (``InvalidKeyError``; ``load`` reports it as a
``DatastoreFormatError``), never at query time. The store also keeps each
key's unit vector rounded to float32 for the candidate search, so it holds
as many bytes as float64 keys would. Cosine similarity is then an inner
product of unit vectors, as in exact inner-product search (FAISS
``IndexFlatIP``).

Retrieval takes an (n, d) block of queries and is exact: the result equals a
full sort by (similarity descending, index ascending) of the similarities
r = clip(sum_i u_i q_i, -1, 1), with u = key / norm and q = query / norm in
float64, summed row by row so that r does not depend on the other queries.
Queries run in row blocks sized so the (rows, count) float32 similarity
block stays near ``_QUERY_BLOCK_BYTES``. Per block:

1. one float32 BLAS product of the unit queries with the float32 unit keys
   gives approximate similarities b;
2. per row, every entry with b >= min(b_k, 1) - M is a candidate, where b_k
   is the row's k-th largest b, M = 4 gamma_{d+2}, and
   gamma_m = m e / (1 - m e) with e = 2**-24 the float32 unit roundoff;
3. each candidate gets its exact r (its float64 unit key formed from its
   key row alone), and the candidates are sorted by (r descending, index
   ascending).

Why that is exact: rounding u and q to float32 and summing d products in
float32 in any order puts b within gamma_{d+2} |u||q| of the exact inner
product, and r is within the float64 gamma_d |u||q| of it, so with
|u|, |q| = 1 + O(2**-53) the gap delta = |b - r| stays below 2 gamma_{d+2}
(underflow adds under 1e-40), and clipping both keeps that bound. The k
entries with the largest clipped b have r >= clip(b_k) - delta, so the k-th
largest r is at least that, and any entry at or above it (ties at the cutoff
included) has clipped b >= clip(b_k) - 2 delta > clip(b_k) - M: it is a
candidate. Sorting the candidates therefore gives exactly the full sort's
top k, whatever block a query sat in.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .data import PackedSamples, pack_samples
from .encoder import EncoderState, forward_rowwise

__all__ = [
    "Datastore",
    "DatastoreFormatError",
    "InvalidKeyError",
    "NonFiniteQueryError",
    "build",
    "load",
    "retrieve_topk",
    "save",
]

_MAGIC = b"NNDS"
_VERSION = 1
_HEADER = struct.Struct("<4sHIIQ")
# build embeds the training rows in ranges whose forward trace (about
# 4 hidden + embed + C float64 values a row) stays near this size, so its
# memory does not grow with the training set
_BUILD_TRACE_BYTES = 1 << 20
# retrieval runs queries in row blocks whose (rows, count) float32 similarity
# block stays near this size (13 queries against 20k keys)
_QUERY_BLOCK_BYTES = 1 << 20
_FLOAT32_ROUNDOFF = 2.0**-24


class DatastoreFormatError(ValueError):
    """Raised for corrupt, truncated, or wrong-format datastore files."""


class NonFiniteQueryError(ValueError):
    """Raised for a query embedding that holds NaN or inf: every similarity
    would be NaN and no neighbor could be ranked."""


class InvalidKeyError(ValueError):
    """Raised when a store is made from a key that is zero-norm or holds NaN
    or inf: its cosine similarity with any query is undefined."""


@dataclass
class Datastore:
    """Immutable after construction: (count, d) float32 keys and (count, C)
    int8 labels, plus the keys' unit vectors rounded to float32 for the
    candidate search. Keys of another dtype are quantized to float32."""

    keys: np.ndarray
    values: np.ndarray
    unit: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.keys = np.asarray(self.keys, dtype=np.float32)
        self.values = np.asarray(self.values, dtype=np.int8)
        if self.keys.ndim != 2 or self.values.ndim != 2:
            raise ValueError("keys and values must be 2-d arrays")
        if self.keys.shape[0] != self.values.shape[0]:
            raise ValueError(
                f"keys count {self.keys.shape[0]} != values count {self.values.shape[0]}"
            )
        with np.errstate(invalid="ignore", divide="ignore"):
            unit = _unit_keys(self.keys)
        # a zero norm (0/0) or a NaN or inf entry leaves a non-finite row
        bad = np.flatnonzero(~np.isfinite(unit).all(axis=1))
        if bad.size:
            raise InvalidKeyError(
                f"{bad.size} key(s) with zero norm or NaN/inf entries (first at index {bad[0]}); "
                "cosine similarity is undefined"
            )
        self.unit = unit.astype(np.float32)

    @property
    def count(self) -> int:
        return self.keys.shape[0]

    @property
    def dim(self) -> int:
        return self.keys.shape[1]

    @property
    def num_classes(self) -> int:
        return self.values.shape[1]


def _unit_keys(keys: np.ndarray) -> np.ndarray:
    """float64 unit vectors of float32 key rows, each row from itself alone."""
    unit = keys.astype(np.float64)
    unit /= np.linalg.norm(unit, axis=1)[:, None]
    return unit


def build(state: EncoderState, train_samples: PackedSamples, fraction: float = 1.0) -> Datastore:
    """One entry per row of the packed training split, in input order: key
    i is the float32 of the embedding the dropout-off pass
    ``forward_rowwise`` gives sample i, which is bit for bit the embedding
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
    rows = max(1, _BUILD_TRACE_BYTES // (8 * (4 * cfg.hidden_dim + cfg.embed_dim + cfg.num_classes)))
    keys = np.empty((n, cfg.embed_dim), dtype=np.float32)
    for start in range(0, n, rows):
        keys[start : start + rows] = forward_rowwise(state, train[start : min(start + rows, n)]).embedding
    return Datastore(keys=keys, values=train.labels[:n].copy())


def retrieve_topk(store: Datastore, queries, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The min(k, count) entries most cosine-similar to each row of an (n, d)
    block of queries: ``(indices, sims)``, both (n, min(k, count)), each row
    sorted by similarity descending with ties broken by ascending index.

    Exact, and each row is bit-identical whatever other rows the block holds
    (see the module docstring). Raises NonFiniteQueryError for a query that
    holds NaN or inf and ValueError for a zero-norm query.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    q = np.asarray(queries, dtype=np.float64)
    if q.ndim != 2 or q.shape[1] != store.dim:
        raise ValueError(f"queries shape {q.shape} != (n, {store.dim})")
    norms = np.linalg.norm(q, axis=1)
    # the norm is NaN or inf exactly when an entry is (or when it overflows)
    if not np.isfinite(norms).all():
        raise NonFiniteQueryError("cannot retrieve with a query that holds NaN or inf")
    if not norms.all():
        raise ValueError("cannot retrieve with a zero-norm query")
    q = q / norms[:, None]

    n, count = q.shape[0], store.count
    k = min(k, count)
    indices = np.empty((n, k), dtype=np.int64)
    sims = np.empty((n, k))
    # with k = count every entry is a candidate and is re-scored: the
    # (rows * count, d) float64 operands are what to bound
    row_bytes = count * (8 * store.dim if k == count else 4)
    block = max(1, _QUERY_BLOCK_BYTES // max(row_bytes, 1))
    for start in range(0, n, block):
        stop = min(start + block, n)
        indices[start:stop], sims[start:stop] = _topk_block(store, q[start:stop], k)
    return indices, sims


def _topk_block(store: Datastore, q: np.ndarray, k: int):
    count, d = store.keys.shape
    n = q.shape[0]
    approx = q.astype(np.float32) @ store.unit.T
    # with k = count, b_k is the row's smallest b, so every entry is a candidate
    kth = np.partition(approx, count - k, axis=1)[:, count - k].astype(np.float64)
    m = (d + 2) * _FLOAT32_ROUNDOFF
    cutoff = np.minimum(kth, 1.0) - 4.0 * m / (1.0 - m)
    # at or below -1 every entry clips to a candidate
    cutoff[cutoff <= -1.0] = -np.inf
    # rounded to float32 and stepped one ulp down: never above the cutoff
    cutoff = np.nextafter(cutoff.astype(np.float32), np.float32(-np.inf))
    rows, cand = np.divmod(np.flatnonzero(approx >= cutoff[:, None]), count)
    exact = np.clip((_unit_keys(store.keys[cand]) * q[rows]).sum(axis=1), -1.0, 1.0)
    # rows ascend, so each row's candidates keep their span in the sorted order
    order = np.lexsort((cand, -exact, rows))
    take = order[np.searchsorted(rows, np.arange(n))[:, None] + np.arange(k)]
    return cand[take], exact[take]


def save(store: Datastore, path) -> None:
    """Write the binary format."""
    labels_packed = np.packbits(store.values.astype(np.uint8), axis=1, bitorder="big")
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, _VERSION, store.dim, store.num_classes, store.count))
        fh.write(np.ascontiguousarray(store.keys, dtype="<f4").tobytes())
        fh.write(labels_packed.tobytes())


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
    values = np.unpackbits(packed, axis=1, bitorder="big")[:, :num_classes].astype(np.int8)
    try:
        return Datastore(keys=keys, values=values)
    except InvalidKeyError as exc:
        raise DatastoreFormatError(f"{path}: {exc}") from exc
