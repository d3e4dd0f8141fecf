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
copy is always safe. Layouts are in docs/formats.md. A trainer checkpoint
is such an archive too, with no version or digest member.
"""
from __future__ import annotations

import codecs
import contextlib
import hashlib
import logging
import os

import numpy as np

logger = logging.getLogger(__name__)

__all__ = [
    "file_digest",
    "load",
    "pack_strings",
    "read_archive",
    "read_copy",
    "strings_valid",
    "unpack_strings",
    "write_archive",
    "write_copy",
    "write_hashed",
]


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
    SHA-256 of the bytes written, hashed as they are written. When making a
    chunk raises (a prediction that fails its check, say), the partial file
    is removed and the error raised on."""
    digest = hashlib.sha256()
    try:
        with open(path, "wb") as fh:
            for chunk in chunks:
                digest.update(chunk)
                fh.write(chunk)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(path)
        raise
    return digest.digest()


def write_archive(path, arrays: dict) -> None:
    """Write ``arrays`` as an uncompressed ``.npz`` archive to ``path`` through
    a temporary file ``<path>.<pid>.tmp`` and an atomic rename; on a failure
    the temporary file is removed and a file already at ``path`` kept."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            np.savez(fh, **arrays)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def write_copy(path, version: int, digest: bytes, arrays: dict) -> None:
    """Write the packed copy of ``path`` (whose bytes hash to ``digest``)
    through ``write_archive``; a failure to write is logged at DEBUG."""
    copy = _copy_path(path)
    try:
        write_archive(copy, {"version": np.int64(version), "digest": np.frombuffer(digest, dtype=np.uint8), **arrays})
    except OSError as exc:
        logger.debug("packed copy %s not written: %s", copy, exc)


def read_archive(path, members: dict) -> dict:
    """The arrays of the ``.npz`` archive at ``path`` that ``members`` ({name:
    (dtype, ndim)}) names, each read in full (zipfile checks its CRC-32) and
    never unpickled; ValueError for a file that is no such archive and for
    the first member missing, unreadable or not of its dtype and ndim."""
    with open(path, "rb") as fh:
        try:
            npz = np.lib.npyio.NpzFile(fh, allow_pickle=False)
        # a file that is no zip, or a damaged one, fails in many ways
        except Exception as exc:
            raise ValueError("not an npz archive") from exc
        with npz:
            arrays = {}
            for name, (dtype, ndim) in members.items():
                try:
                    arrays[name] = arr = npz[name]
                # KeyError, or a damaged member's many failures (BadZipFile,
                # zlib.error, a bad dtype or shape, an object array, ...)
                except Exception as exc:
                    raise ValueError(f"member {name} is missing or unreadable ({exc!r})") from exc
                if arr.dtype != dtype or arr.ndim != ndim:
                    raise ValueError(f"member {name} must be {ndim}-d {np.dtype(dtype)}, got {arr.ndim}-d {arr.dtype}")
    return arrays


def read_copy(path, version: int, digest: bytes, members: dict):
    """The arrays of the packed copy of ``path`` that ``members`` names, or
    None when ``read_archive`` refuses the copy or it was written for other
    bytes than ``digest`` or by another ``version``."""
    try:
        arrays = read_archive(_copy_path(path), {"version": (np.int64, 0), "digest": (np.uint8, 1), **members})
    except (ValueError, OSError):
        return None
    if arrays.pop("version").tolist() != version or arrays.pop("digest").tobytes() != digest:
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
    """A list of strings as the (offsets, bytes) arrays a copy holds them in:
    string i is ``bytes[offsets[i]:offsets[i + 1]]``, UTF-8 with
    surrogatepass (so a lone surrogate survives)."""
    encoded = [s.encode("utf-8", "surrogatepass") for s in strings]
    offsets = np.zeros(len(encoded) + 1, dtype=np.int64)
    np.cumsum(np.fromiter(map(len, encoded), dtype=np.int64, count=len(encoded)), out=offsets[1:])
    return offsets, np.frombuffer(b"".join(encoded), dtype=np.uint8)


def strings_valid(offsets: np.ndarray, blob: np.ndarray) -> bool:
    """Whether (offsets, bytes) arrays hold strings as ``pack_strings``
    packs them: the offsets run from 0 to the size of ``blob`` without
    decreasing, and every string decodes. That is checked without cutting
    the strings: the whole of ``blob`` decodes, and no string starts on a
    UTF-8 continuation byte (10xxxxxx), so each starts where a character
    does and decodes on its own."""
    if not offsets.size or offsets[0] != 0 or offsets[-1] != blob.size or np.any(np.diff(offsets) < 0):
        return False
    try:
        codecs.utf_8_decode(blob, "surrogatepass", True)
    except UnicodeDecodeError:
        return False
    return not np.any((blob[offsets[offsets < blob.size]] & 0xC0) == 0x80)


def unpack_strings(offsets: np.ndarray, blob: np.ndarray) -> list[str]:
    """The strings that valid (offsets, bytes) arrays hold (``strings_valid``):
    string i is ``blob[offsets[i]:offsets[i + 1]]`` decoded. The offsets
    may be a run of another string list's offsets (``offsets[i:i + 2]`` for
    its string i alone)."""
    bounds = offsets.tolist()
    base = bounds[0]
    data = blob[base : bounds[-1]].tobytes()
    return [data[lo - base : hi - base].decode("utf-8", "surrogatepass") for lo, hi in zip(bounds, bounds[1:])]
