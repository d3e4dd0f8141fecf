"""Key-value store of (embedding, label) pairs built from the training set,
with exact top-k cosine retrieval and a compact binary file format.

Retrieval is exact: partial selection (argpartition) narrows the candidates,
then an explicit (similarity descending, index ascending) sort fixes the
order, with the candidate set widened to cover ties at the cutoff. No
approximate index is used.

File layout (little-endian), documented byte-exactly in docs/formats.md:

    magic    4 bytes  b"NNDS"
    version  u16
    dim      u32      embedding dimension d
    classes  u32      label dimension C
    count    u64      number of entries
    keys     count * d float32
    labels   count rows of ceil(C/8) bytes, big bit order (label 0 = MSB)

Keys are quantized to float32 when the store is built, so an in-memory store
and its saved-and-loaded copy hold the same keys; they are promoted to
float64 for all arithmetic.
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .data import pack_samples
from .encoder import EncoderState, forward_batch

__all__ = [
    "Datastore",
    "DatastoreFormatError",
    "Neighbor",
    "NonFiniteQueryError",
    "build",
    "load",
    "retrieve_topk",
    "save",
]

_MAGIC = b"NNDS"
_VERSION = 1
_HEADER = struct.Struct("<4sHIIQ")
# build embeds in row blocks whose dense (rows, input_dim) inputs stay near this size
_BUILD_BLOCK_BYTES = 2 << 20


class DatastoreFormatError(ValueError):
    """Raised for corrupt, truncated, or wrong-format datastore files."""


class NonFiniteQueryError(ValueError):
    """Raised for a query embedding that holds NaN or inf: every similarity
    would be NaN and no neighbor could be ranked."""


@dataclass
class Neighbor:
    index: int
    similarity: float
    labels: np.ndarray


@dataclass
class Datastore:
    """Immutable after build: (count, d) float64 keys and (count, C) labels."""

    keys: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.keys = np.asarray(self.keys, dtype=np.float64)
        self.values = np.asarray(self.values, dtype=np.int8)
        if self.keys.ndim != 2 or self.values.ndim != 2:
            raise ValueError("keys and values must be 2-d arrays")
        if self.keys.shape[0] != self.values.shape[0]:
            raise ValueError(
                f"keys count {self.keys.shape[0]} != values count {self.values.shape[0]}"
            )

    @property
    def count(self) -> int:
        return self.keys.shape[0]

    @property
    def dim(self) -> int:
        return self.keys.shape[1]

    @property
    def num_classes(self) -> int:
        return self.values.shape[1]


def build(state: EncoderState, train_samples, fraction: float = 1.0) -> Datastore:
    """One entry per training sample, in input order, embedded with the
    deterministic dropout-off forward pass and quantized to float32.

    ``fraction`` < 1 keeps only the leading portion of the training set
    (prefix sampling), so a smaller store is always an entrywise prefix of the
    full one. Embedding runs in row blocks that start at fixed multiples of
    the block size over the whole training set, and a prefix's last block is
    computed whole and cut, so every entry comes out of the same matrix
    product whatever the fraction.
    """
    if not train_samples:
        raise ValueError("cannot build a datastore from an empty training set")
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must lie in (0, 1]")
    n = max(1, int(np.ceil(fraction * len(train_samples))))
    block = max(1, _BUILD_BLOCK_BYTES // (8 * state.config.input_dim))
    keys = np.empty((n, state.config.embed_dim), dtype=np.float32)
    for start in range(0, n, block):
        rows = pack_samples(train_samples[start : start + block], state.config.input_dim)
        stop = min(start + block, n)
        keys[start:stop] = forward_batch(state, rows).embedding[: stop - start]
    values = np.stack([s.labels for s in train_samples[:n]])
    return Datastore(keys=keys, values=values)


def retrieve_topk(store: Datastore, query, k: int) -> list[Neighbor]:
    """The min(k, count) entries most cosine-similar to the query, sorted by
    similarity descending with ties broken by ascending index."""
    if k < 1:
        raise ValueError("k must be >= 1")
    q = np.asarray(query, dtype=np.float64)
    if q.shape != (store.dim,):
        raise ValueError(f"query shape {q.shape} != ({store.dim},)")
    qn = np.linalg.norm(q)
    # the norm is NaN or inf exactly when an entry is (or when it overflows)
    if not math.isfinite(qn):
        raise NonFiniteQueryError("cannot retrieve with a query that holds NaN or inf")
    if qn == 0.0:
        raise ValueError("cannot retrieve with a zero-norm query")
    key_norms = np.linalg.norm(store.keys, axis=1)
    if np.any(key_norms == 0.0):
        raise ValueError("datastore contains zero-norm keys; cosine similarity undefined")
    sims = np.clip((store.keys @ q) / (key_norms * qn), -1.0, 1.0)

    n = store.count
    k_eff = min(k, n)
    if k_eff < n:
        cand = np.argpartition(-sims, k_eff - 1)[:k_eff]
        # widen to every entry tied with the current cutoff so index-order
        # tie-breaking is decided among all tied entries, not an arbitrary subset
        cutoff = sims[cand].min()
        cand = np.flatnonzero(sims >= cutoff)
    else:
        cand = np.arange(n)
    order = cand[np.lexsort((cand, -sims[cand]))][:k_eff]
    return [Neighbor(index=int(i), similarity=float(sims[i]), labels=store.values[i]) for i in order]


def save(store: Datastore, path) -> None:
    """Write the binary format; keys are quantized to float32."""
    labels_packed = np.packbits(store.values.astype(np.uint8), axis=1, bitorder="big")
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, _VERSION, store.dim, store.num_classes, store.count))
        fh.write(np.ascontiguousarray(store.keys, dtype="<f4").tobytes())
        fh.write(labels_packed.tobytes())


def load(path) -> Datastore:
    """Read the binary format back; raises DatastoreFormatError for bad magic,
    unsupported version, or a size that disagrees with the header."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _HEADER.size:
        raise DatastoreFormatError(f"{path}: file shorter than the header")
    magic, version, dim, num_classes, count = _HEADER.unpack_from(blob, 0)
    if magic != _MAGIC:
        raise DatastoreFormatError(f"{path}: bad magic {magic!r}, expected {_MAGIC!r}")
    if version != _VERSION:
        raise DatastoreFormatError(f"{path}: unsupported version {version}")
    label_row_bytes = (num_classes + 7) // 8
    expected = _HEADER.size + count * (4 * dim + label_row_bytes)
    if len(blob) != expected:
        raise DatastoreFormatError(
            f"{path}: size {len(blob)} bytes does not match header (expected {expected})"
        )
    keys_end = _HEADER.size + count * 4 * dim
    keys = np.frombuffer(blob, dtype="<f4", count=count * dim, offset=_HEADER.size)
    keys = keys.reshape(count, dim).astype(np.float64)
    packed = np.frombuffer(blob, dtype=np.uint8, offset=keys_end).reshape(count, label_row_bytes)
    values = np.unpackbits(packed, axis=1, bitorder="big")[:, :num_classes].astype(np.int8)
    return Datastore(keys=keys, values=values)
