"""Packed copies: each JSON artifact the pipeline reads back is parsed at
most once per content.

Beside a file ``<file>`` (a dataset split, ``model.json``, ``preds.jsonl``)
lives ``<file>.packed``, an uncompressed ``np.savez`` archive of the arrays
its parse gave, plus ``version`` (the layout and load rules of its kind)
and ``digest`` (the SHA-256 of the file's bytes). ``load`` serves a read
from the copy when its version and digest match and every member of its
kind's table is present, reads in full (zipfile checks each one's CRC-32)
and has the table's dtype and number of dimensions. Anything else (a
missing, stale, damaged or other-version copy) is a miss: the file is
parsed and the copy written again, through a temporary file and an atomic
rename. A writer that hashes the bytes as it writes them (``write_hashed``)
writes the copy at once, so the first read is already a hit. Deleting a
copy is always safe. Layouts are in docs/formats.md.
"""
from __future__ import annotations

import contextlib
import hashlib
import logging
import os

import numpy as np

logger = logging.getLogger(__name__)

__all__ = ["file_digest", "load", "pack_strings", "read_copy", "unpack_strings", "write_copy", "write_hashed"]


def _copy_path(path) -> str:
    return f"{os.fspath(path)}.packed"


def file_digest(path) -> bytes:
    """SHA-256 of the file's bytes, read 1 MiB at a time."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.digest()


def write_hashed(path, chunks) -> bytes:
    """Write the byte strings ``chunks`` to ``path`` in order; returns the
    SHA-256 of the bytes written, hashed as they are written."""
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        for chunk in chunks:
            digest.update(chunk)
            fh.write(chunk)
    return digest.digest()


def write_copy(path, version: int, digest: bytes, arrays: dict) -> None:
    """Write the packed copy of ``path`` (whose bytes hash to ``digest``)
    through a temporary file and an atomic rename; a failure is logged at
    DEBUG and leaves no temporary file."""
    copy = _copy_path(path)
    tmp = f"{copy}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            np.savez(fh, version=np.int64(version), digest=np.frombuffer(digest, dtype=np.uint8), **arrays)
        os.replace(tmp, copy)
    except OSError as exc:
        logger.debug("packed copy %s not written: %s", copy, exc)
        with contextlib.suppress(OSError):
            os.remove(tmp)


def read_copy(path, version: int, digest: bytes, members: dict):
    """The arrays of the packed copy of ``path``, by name, or None when the
    copy is missing or damaged, was written for other bytes than ``digest``
    or by another ``version``, or lacks a member of ``members`` ({name:
    (dtype, ndim)}) with that dtype and number of dimensions."""
    try:
        # np.load leaves a path's file open when the zip fails to open
        with open(_copy_path(path), "rb") as fh, np.load(fh, allow_pickle=False) as npz:
            if npz["version"].tolist() != version or npz["digest"].tobytes() != digest:
                return None
            arrays = {name: npz[name] for name in members}
    # a damaged zip or .npy header fails in many ways (BadZipFile, zlib.error,
    # NotImplementedError, a bad dtype or shape, ...): each is a miss
    except Exception:
        return None
    if any(arrays[name].dtype != dtype or arrays[name].ndim != ndim for name, (dtype, ndim) in members.items()):
        return None
    return arrays


def load(path, version: int, members: dict, parse, from_arrays, to_arrays):
    """``parse(path)``, served from the packed copy of ``path`` when there
    is one for its bytes (``read_copy``) and ``from_arrays`` makes a result
    of its arrays (None is a miss; an error it raises is the result's own).
    On a miss the file is parsed and ``to_arrays`` of the result written as
    the copy, unless the bytes changed during the parse. A path that is not
    a regular file is parsed (a pipe is read only once) and gets no copy."""
    if not os.path.isfile(path):
        return parse(path)
    digest = file_digest(path)
    arrays = read_copy(path, version, digest, members)
    loaded = None if arrays is None else from_arrays(arrays)
    if loaded is None:
        loaded = parse(path)
        # bytes edited during the parse have no one digest to key the copy by
        if file_digest(path) == digest:
            write_copy(path, version, digest, to_arrays(loaded))
    return loaded


def pack_strings(strings) -> tuple[np.ndarray, np.ndarray]:
    """``strings`` as the (offsets, bytes) arrays a copy holds them in:
    string i is ``bytes[offsets[i]:offsets[i + 1]]``, UTF-8 with
    surrogatepass (so a lone surrogate survives)."""
    encoded = [s.encode("utf-8", "surrogatepass") for s in strings]
    offsets = np.zeros(len(encoded) + 1, dtype=np.int64)
    np.cumsum(np.fromiter(map(len, encoded), dtype=np.int64, count=len(encoded)), out=offsets[1:])
    return offsets, np.frombuffer(b"".join(encoded), dtype=np.uint8)


def unpack_strings(offsets: np.ndarray, blob: np.ndarray):
    """The list of strings ``pack_strings`` gave these arrays, or None when
    the offsets do not run from 0 to the size of ``blob`` without
    decreasing or a string does not decode."""
    if not offsets.size or offsets[0] != 0 or offsets[-1] != blob.size or np.any(np.diff(offsets) < 0):
        return None
    data, bounds = blob.tobytes(), offsets.tolist()
    try:
        return [data[lo:hi].decode("utf-8", "surrogatepass") for lo, hi in zip(bounds, bounds[1:])]
    except UnicodeDecodeError:
        return None
