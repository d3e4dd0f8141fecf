"""The chunked dataset reader against the per-line reader it replaced.

``oracles.load_jsonl`` is the reader the package used before a dataset file
was read in chunks straight into CSR arrays: one ``json.loads``, one
int -> float dict and one label array per line, with the rules added since:
the header sizes, labels and feature values follow the kind rule of
``data.check_kind`` (an integer, an integer, a finite number; never a bool),
labels come in a list, a feature key is an integer as ``str()`` writes it
(not ``"03"``, ``"+3"`` or ``" 3"``) and an id, if given, is a string. For
any file both package readers (``load_jsonl`` and ``load_packed``) must give
the oracle's samples packed, or the oracle's error, message and line
included, whatever the chunk size.

``load_packed`` serves a file it parsed before from the packed copy beside
it. The reference tests read each file once before any copy exists, and the
chunking test deletes the copy before each chunk size, so all of them run
the parser; a spy on ``data.load_jsonl`` counts the parses. The copy
tests below check that a hit is bit-identical to the parse and that a
damaged or foreign copy is a miss, or, where the damage touches only bytes
of the zip that the reader does not use, still gives the parse's arrays.
"""
import hashlib
import io
import json
import logging
import os
import re
import threading
import zipfile
from pathlib import Path

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import knnmlc
from knnmlc import copies, data
from knnmlc.cli import EXIT_FORMAT, main
from knnmlc.data import DataFormatError, PackedSamples, load_jsonl, load_packed, pack_samples
from knnmlc.datastore import build
from knnmlc.encoder import EncoderConfig, init_state
from knnmlc.inference import InferenceConfig, predict_batch
from knnmlc.training import TrainConfig, Trainer

NUM_CLASSES = 5
VOCAB = 12

# -- record lines ------------------------------------------------------------

# keys as str() writes an index in range; keys int() takes but str() does not
# write (zero-padded, signed, spaced, grouped, other digits), keys it
# refuses and keys out of range
good_keys = st.integers(0, VOCAB - 1).map(str)
bad_keys = st.sampled_from(
    ["01", "00", "+1", "-0", " 2", "3 ", "1_0", "\u0663", "\uff11", "-1", "12", "99", "x", "", "1.5"]
)
good_values = st.one_of(st.integers(-3, 3), st.floats(allow_nan=False, allow_infinity=False, width=64))
# not a finite number: strings (even of numbers), bools, null, lists, NaN and +-inf
bad_values = st.sampled_from(
    ["x", "", None, [1], True, False, "2.5", "1e3", " 4 ", "nan", "inf", float("nan"), float("inf"), float("-inf")]
)
good_labels = st.lists(st.integers(0, NUM_CLASSES - 1), max_size=6)  # repeats allowed
bad_labels = st.one_of(
    st.lists(
        st.one_of(st.integers(-2, NUM_CLASSES + 1), st.sampled_from(["a", "3", None, 1.5, 2.7, 2.0, True])),
        min_size=1, max_size=4,
    ),
    st.sampled_from([3, None, "12", "", {"0": 1}, {}, [True, 2.7, "3"]]),
)
ids = st.one_of(
    st.text(max_size=6), st.integers(0, 9), st.none(), st.sampled_from(["\x00", "a\x00b", "\ud800", "x\udfffy"])
)


@st.composite
def record_lines(draw):
    kind = draw(st.sampled_from(
        ["good"] * 12 + ["mixed"] * 2 + ["featureless", "blank", "broken", "not a record", "no labels"]
    ))
    if kind == "blank":
        return draw(st.sampled_from(["", "   ", "\t"]))
    if kind == "broken":
        return draw(st.sampled_from([
            "{not json}", '{"features": {}, "labels": [0]', "[1, 2]", "7", '"x"', "{} {}",
            '{"features": {"1": 2}, "labels": [0]} x', '{"features": {}, "labels": []}]', "\ufeff{}",
        ]))
    if kind == "not a record":
        return json.dumps(draw(st.sampled_from([{"features": [1], "labels": []}, {"features": "ab", "labels": []}])))
    if kind == "featureless":
        features = {}
    elif kind == "mixed":
        features = draw(st.dictionaries(
            st.one_of(good_keys, good_keys, bad_keys), st.one_of(good_values, bad_values), max_size=6
        ))
    else:
        features = draw(st.dictionaries(good_keys, good_values, max_size=6))
    rec = {"features": features}
    if kind != "no labels":
        rec["labels"] = draw(st.one_of(good_labels, bad_labels) if kind == "mixed" else good_labels)
    if draw(st.booleans()):
        rec["id"] = draw(ids)
    # unsorted keys: the record's own key order, shuffled; JSON whitespace around the record
    order = draw(st.permutations(list(rec)))
    pad = st.sampled_from(["", " ", "\t "])
    return draw(pad) + json.dumps({k: rec[k] for k in order}) + draw(pad)


def write_file(path, lines):
    path.write_text(json.dumps({"num_classes": NUM_CLASSES, "vocab_size": VOCAB}) + "\n" + "\n".join(lines) + "\n")


def outcome(fn, path):
    try:
        return fn(path), None
    except DataFormatError as exc:
        return None, str(exc)


def same_ids(got: PackedSamples, want: PackedSamples) -> bool:
    """The same packed id arrays (int64 offsets, uint8 bytes), so the same ids."""
    pairs = [(got.id_offsets, want.id_offsets, np.int64), (got.id_bytes, want.id_bytes, np.uint8)]
    same_arrays = all(a.dtype == b.dtype == dtype and a.tobytes() == b.tobytes() for a, b, dtype in pairs)
    return same_arrays and got.ids() == want.ids()


def assert_same_packed(got: PackedSamples, want: PackedSamples):
    assert got.input_dim == want.input_dim
    for name in ("indptr", "indices", "labels"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert got.values.dtype == np.float64 and np.array_equal(got.values, want.values, equal_nan=True)
    assert same_ids(got, want)


def assert_identical_loads(got, want):
    """Two load_packed results with the same shapes, dtypes and bits."""
    assert got[1:] == want[1:]
    got, want = got[0], want[0]
    assert got.input_dim == want.input_dim
    for name in ("indptr", "indices", "values", "labels"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name
    assert same_ids(got, want)


def copy_of(path):
    return path.with_name(path.name + ".packed")


def read_dataset_copy(path, digest):
    """What ``load_packed`` takes from the copy of ``path`` for the given
    digest: its (PackedSamples, C, V), or None for a miss."""
    arrays = copies.read_copy(path, data._READER_VERSION, digest, data._COPY_MEMBERS)
    return None if arrays is None else data._from_copy(arrays)


def spy_on_parses(mp):
    """Record the path of every parse ``load_packed`` makes."""
    parses = []
    real = data.load_jsonl

    def parse(path):
        parses.append(path)
        return real(path)

    mp.setattr(data, "load_jsonl", parse)
    return parses


@settings(max_examples=300, deadline=None)
@given(lines=st.lists(record_lines(), max_size=9), chunk=st.sampled_from([1, 2, 3, 256]))
def test_readers_match_the_per_line_reference(tmp_path_factory, lines, chunk):
    path = tmp_path_factory.mktemp("ds") / "split.jsonl"
    write_file(path, lines)
    want, want_error = outcome(oracles.load_jsonl, path)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(data, "_CHUNK_LINES", chunk)
        got, got_error = outcome(load_jsonl, path)
        assert not copy_of(path).exists()  # load_jsonl writes no copy
        parses = spy_on_parses(mp)
        packed, packed_error = outcome(load_packed, path)
        assert parses == [path]  # a fresh file: the parser ran
        # a second read is served from the copy the first one wrote, if any
        again, again_error = outcome(load_packed, path)
    assert got_error == want_error and packed_error == want_error and again_error == want_error
    assert copy_of(path).exists() == (want_error is None)
    if want_error is None:
        samples, num_classes, vocab = want
        assert got[1:] == packed[1:] == (num_classes, vocab)
        if samples:
            assert_same_packed(got[0], oracles.pack(samples, vocab))
        else:
            assert len(got[0]) == 0 and got[0].labels.shape == (0, NUM_CLASSES)
        assert_identical_loads(packed, got)
        assert len(parses) == 1
        assert_identical_loads(again, packed)
    else:
        assert len(parses) == 2


def test_files_written_by_save_jsonl_read_back_in_any_chunking(tmp_path, monkeypatch):
    cfg = data.DatasetConfig(train_size=300, valid_size=1, test_size=1, seed=3)
    train, _, _ = oracles.generate_synthetic(cfg)
    train[7].features = {}
    path = tmp_path / "train.jsonl"
    oracles.save_jsonl(train, path, cfg.num_classes, cfg.vocab_size)
    want = oracles.pack(train, cfg.vocab_size)
    assert_same_packed(want, oracles.pack(oracles.load_jsonl(path)[0], cfg.vocab_size))
    parses = spy_on_parses(monkeypatch)
    for count, chunk in enumerate((1, 7, 256, 1000), start=1):
        monkeypatch.setattr(data, "_CHUNK_LINES", chunk)
        copy_of(path).unlink(missing_ok=True)  # else every chunk size after the first reads the copy
        packed, num_classes, vocab = load_packed(path)
        assert len(parses) == count
        assert (num_classes, vocab) == (cfg.num_classes, cfg.vocab_size)
        assert_same_packed(packed, want)
        assert_same_packed(load_jsonl(path)[0], want)


def test_featureless_record_is_one_explicit_zero(tmp_path):
    path = tmp_path / "f.jsonl"
    write_file(path, ['{"id": "a", "features": {}, "labels": [1]}', '{"id": "b", "features": {"0": 0.0}, "labels": []}',
                      '{"features": {}, "labels": []}', '{"features": {"3": 2.0, "1": 1.0}, "labels": []}',
                      '{"features": {}, "labels": []}'])
    for reader in (load_packed, load_jsonl):
        packed, _, _ = reader(path)
        assert packed.indptr.tolist() == [0, 1, 2, 3, 5, 6]
        assert packed.indices.tolist() == [0, 0, 0, 3, 1, 0] and packed.values.tolist() == [0, 0, 0, 2, 1, 0]


@pytest.mark.parametrize("key", ["03", "+3", " 3", "3 ", "3_0", "-0", "00", "\u0663"])
def test_a_key_that_str_does_not_write_is_an_error_naming_its_line(tmp_path, key):
    # int() takes each of these keys; "03" and "3" would name one index twice
    path = tmp_path / "key.jsonl"
    record = {"features": {"3": 1.0, key: 2.0}, "labels": [0]}
    write_file(path, ['{"features": {"1": 1.0}, "labels": [0]}', json.dumps(record)])
    message = f"a feature key must be an integer as str() writes it, got {key!r}"
    for reader in (load_packed, load_jsonl, oracles.load_jsonl):
        with pytest.raises(DataFormatError, match=rf"line 3: malformed record \({re.escape(message)}\)"):
            reader(path)
    assert not copy_of(path).exists()


@pytest.mark.parametrize("sample_id,shown", [("null", "None"), ("7", "7"), ("[]", "[]"), ("true", "True")])
def test_an_id_that_is_not_a_string_is_an_error_naming_its_line(tmp_path, sample_id, shown):
    path = tmp_path / "id.jsonl"
    write_file(path, ['{"id": "a", "features": {"1": 1.0}, "labels": [0]}',
                      '{"id": ' + sample_id + ', "features": {"1": 1.0}, "labels": [0]}'])
    message = f"an id must be a string, got {shown}"
    for reader in (load_packed, load_jsonl, oracles.load_jsonl):
        with pytest.raises(DataFormatError, match=rf"line 3: malformed record \({re.escape(message)}\)"):
            reader(path)
    assert not copy_of(path).exists()


def test_a_missing_id_is_the_empty_string(tmp_path):
    path = tmp_path / "id.jsonl"
    write_file(path, ['{"features": {"1": 1.0}, "labels": [0]}', '{"id": "", "features": {"2": 1.0}, "labels": []}'])
    for reader in (load_packed, load_jsonl):
        assert reader(path)[0].ids() == ["", ""]


@pytest.mark.parametrize(
    "record,message",
    [
        ('{"features": {"1": 1.0}, "labels": [2.7]}', "a label must be an integer, got 2.7"),
        ('{"features": {"1": 1.0}, "labels": [true]}', "a label must be an integer, got True"),
        ('{"features": {"1": 1.0}, "labels": "12"}', "labels must be a list, got '12'"),
        ('{"features": {"1": "2.5"}, "labels": [0]}', "a feature value must be a finite number, got '2.5'"),
        ('{"features": {"1": NaN}, "labels": [0]}', "a feature value must be a finite number, got nan"),
        ('{"features": {"1": 1e400}, "labels": [0]}', "a feature value must be a finite number, got inf"),
        ('{"features": {"1": false}, "labels": [0]}', "a feature value must be a finite number, got False"),
    ],
)
def test_a_value_of_the_wrong_kind_is_an_error_naming_its_line(tmp_path, record, message):
    # nothing is converted: a label 2.7 is not label 2, nor a value "2.5" 2.5
    path = tmp_path / "kind.jsonl"
    write_file(path, ['{"features": {"1": 1.0}, "labels": [0]}', record])
    for reader in (load_packed, load_jsonl, oracles.load_jsonl):
        with pytest.raises(DataFormatError, match=rf"line 3: malformed record \({re.escape(message)}\)"):
            reader(path)
    assert not copy_of(path).exists()


def test_a_value_too_large_for_a_float_is_a_format_error(tmp_path):
    path = tmp_path / "big.jsonl"
    write_file(path, ['{"features": {"1": 1' + "0" * 400 + '}, "labels": [0]}'])
    for reader in (load_packed, load_jsonl):
        with pytest.raises(DataFormatError, match="line 2: malformed record"):
            reader(path)
    assert not copy_of(path).exists()


@pytest.mark.parametrize(
    "header",
    [
        '{"num_classes": 0, "vocab_size": 4}',
        '{"num_classes": 3, "vocab_size": -1}',
        '{"num_classes": 6.9, "vocab_size": 4}',
        '{"num_classes": 3, "vocab_size": true}',
        '{"num_classes": "3", "vocab_size": 4}',
    ],
)
def test_header_dimensions_must_be_positive(tmp_path, header):
    path = tmp_path / "h.jsonl"
    path.write_text(header + "\n")
    with pytest.raises(DataFormatError, match="line 1"):
        load_packed(path)
    assert not copy_of(path).exists()


# -- the packed copy -------------------------------------------------------------

COPY_LINES = [
    '{"id": "a", "features": {"3": 2.0, "0": -0.0}, "labels": [1, 4]}',
    '{"id": "nul\\u0000id", "features": {}, "labels": []}',
    '{"id": "lone \\ud800 surrogate", "features": {"11": -1.5e300, "5": 1}, "labels": [0, 0]}',
    '{"features": {"7": 5e-324}, "labels": [2]}',
]
BOTH_SPLITS = pytest.mark.parametrize("split", [COPY_LINES, []], indirect=True, ids=["records", "header only"])


@pytest.fixture
def split(request, tmp_path, monkeypatch):
    """A small split (``COPY_LINES`` unless parametrized) read once, so its
    copy exists; the parse result, the copy's bytes and a spy on later parses."""
    path = tmp_path / "split.jsonl"
    write_file(path, getattr(request, "param", COPY_LINES))
    parsed = load_packed(path)
    parses = spy_on_parses(monkeypatch)
    return path, parsed, copy_of(path).read_bytes(), parses


def copy_arrays(path):
    with np.load(copy_of(path), allow_pickle=False) as npz:
        return dict(npz)


def test_the_copy_holds_what_the_parse_gave(split):
    path, parsed, blob, parses = split
    packed = parsed[0]
    assert np.signbit(packed.values[1]) and packed.values[-1] == 5e-324 and packed.indptr.tolist() == [0, 2, 3, 5, 6]
    assert packed.ids() == ["a", "nul\x00id", "lone \ud800 surrogate", ""]
    arrays = copy_arrays(path)
    assert arrays["version"] == data._READER_VERSION
    assert arrays["digest"].tobytes() == hashlib.sha256(path.read_bytes()).digest()
    for _ in range(2):
        assert_identical_loads(load_packed(path), parsed)
    assert parses == []
    assert_identical_loads(data.load_jsonl(path), parsed)


def test_the_digest_does_not_need_hashlib_file_digest(split, monkeypatch):
    """``hashlib.file_digest`` is new in Python 3.11; the package supports 3.10."""
    path, parsed, blob, parses = split
    monkeypatch.delattr(hashlib, "file_digest", raising=False)
    big = path.with_name("big.bin")
    big.write_bytes(bytes(range(256)) * 10_000)  # several read blocks
    for file in (path, big):
        assert copies.file_digest(file) == hashlib.sha256(file.read_bytes()).digest()
    assert_identical_loads(load_packed(path), parsed)
    assert parses == []


def _assert_miss(path, parsed, parses):
    assert_identical_loads(load_packed(path), parsed)
    assert len(parses) == 1
    assert_identical_loads(read_dataset_copy(path, copies.file_digest(path)), parsed)  # rewritten
    parses.clear()


@BOTH_SPLITS
def test_a_truncated_copy_is_a_miss(split):
    path, parsed, blob, parses = split
    for damaged in (b"", blob[:3], blob[: len(blob) // 2], blob[:-1], blob[:-30]):
        copy_of(path).write_bytes(damaged)
        _assert_miss(path, parsed, parses)


def member_data(blob):
    """The offsets of the bytes of every member's .npy file in the zip."""
    offsets = set()
    with zipfile.ZipFile(io.BytesIO(blob)) as zf:
        for info in zf.infolist():
            local = blob[info.header_offset : info.header_offset + 30]  # name and extra lengths at 26 and 28
            start = info.header_offset + 30 + sum(int.from_bytes(local[i : i + 2], "little") for i in (26, 28))
            offsets.update(range(start, start + info.compress_size))
    return offsets


@BOTH_SPLITS
def test_every_flipped_byte_gives_the_parse_result_or_none(split):
    """A flip inside any stored array or .npy header is a miss (the member's
    CRC-32, or a shape that no longer fits the others). A flip in the zip's
    own bookkeeping is a miss or changes nothing the reader uses (a time
    stamp, the local copy of a size). No flip gives another result."""
    path, parsed, blob, parses = split
    digest = copies.file_digest(path)
    stored = member_data(blob)
    assert len(stored) > len(blob) / 2
    for offset in range(len(blob)):
        for flip in (0x01, 0x80):
            damaged = bytearray(blob)
            damaged[offset] ^= flip
            copy_of(path).write_bytes(bytes(damaged))
            loaded = read_dataset_copy(path, digest)
            if loaded is not None:
                assert offset not in stored, offset
                assert_identical_loads(loaded, parsed)


def test_a_copy_of_another_reader_version_is_a_miss(split, monkeypatch):
    path, parsed, blob, parses = split
    monkeypatch.setattr(data, "_READER_VERSION", data._READER_VERSION + 1)
    assert_identical_loads(load_packed(path), parsed)
    assert len(parses) == 1
    assert copy_arrays(path)["version"] == data._READER_VERSION
    assert_identical_loads(load_packed(path), parsed)
    assert len(parses) == 1


def test_a_copy_for_other_bytes_is_a_miss(split):
    path, parsed, blob, parses = split
    other = path.with_name("other.jsonl")
    write_file(other, COPY_LINES[:2])
    copy_of(other).write_bytes(blob)  # a foreign digest
    want = data.load_jsonl(other)
    parses.clear()
    assert_identical_loads(load_packed(other), want)
    assert parses == [other]


def test_a_source_edited_in_place_to_the_same_length_is_a_miss(split):
    path, parsed, blob, parses = split
    text = path.read_text()
    edited = text.replace('"3": 2.0', '"3": 7.0')
    assert edited != text and len(edited) == len(text)
    path.write_text(edited)
    packed, _, _ = load_packed(path)
    assert parses == [path] and packed.values[0] == 7.0
    assert copy_of(path).read_bytes() != blob


@pytest.mark.parametrize(
    "damage",
    ["empty row", "indptr end", "index", "negative index", "label", "label dtype", "label columns", "no classes",
     "missing array", "id split", "id order", "id bytes", "id bytes short"],
)
def test_a_copy_that_holds_no_valid_packing_is_a_miss(split, damage):
    """Copies with intact CRCs whose arrays no parse gives."""
    path, parsed, blob, parses = split
    arrays = copy_arrays(path)
    indptr, indices, labels = arrays["indptr"], arrays["indices"], arrays["labels"]
    offsets, id_bytes = arrays["id_offsets"], arrays["id_bytes"]
    if damage == "empty row":
        indptr[1] = 0
    elif damage == "indptr end":
        indptr[-1] += 1  # past nnz
    elif damage == "index":
        indices[2] = VOCAB
    elif damage == "negative index":
        indices[0] = -1
    elif damage == "label":
        labels[0, 0] = 2
    elif damage == "label dtype":
        arrays["labels"] = labels.astype(np.int16)
    elif damage == "label columns":
        arrays["labels"] = np.zeros((len(labels), NUM_CLASSES + 1), dtype=np.int8)
    elif damage == "no classes":
        arrays["dims"][0] = 0
        arrays["labels"] = labels[:, :0]
    elif damage == "missing array":
        del arrays["values"]
    elif damage == "id split":
        arrays["id_bytes"] = np.concatenate([np.frombuffer("€".encode(), np.uint8), id_bytes[1:]])
        offsets[1:] += 2
        offsets[1] = 2  # id 0 ends inside its 3-byte char
    elif damage == "id order":
        offsets[2] = 0  # offsets 0, 1, 0, ...: every slice still decodes
    elif damage == "id bytes":
        id_bytes[offsets[1]] = 0xFF  # not UTF-8
    else:
        arrays["id_bytes"] = id_bytes[:-1]  # the last id would read one byte short
    with open(copy_of(path), "wb") as fh:
        np.savez(fh, **arrays)
    assert read_dataset_copy(path, copies.file_digest(path)) is None
    _assert_miss(path, parsed, parses)


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")  # numpy sizing (0, 2**63)
@pytest.mark.parametrize("shape", [(0, 2**64), (0, 2**63), (2**62, NUM_CLASSES)])
def test_a_copy_that_declares_an_impossible_shape_is_a_miss(tmp_path, monkeypatch, shape):
    """A header-only split's labels are (0, C); no declared shape, however
    large, may escape the reader as an error."""
    path = tmp_path / "split.jsonl"
    write_file(path, [])
    parsed = load_packed(path)
    parses = spy_on_parses(monkeypatch)
    header = io.BytesIO()
    np.lib.format.write_array_header_1_0(header, {"descr": "|i1", "fortran_order": False, "shape": shape})
    with zipfile.ZipFile(io.BytesIO(copy_of(path).read_bytes())) as old:
        members = {name: old.read(name) for name in old.namelist()}
    members["labels.npy"] = header.getvalue()
    with zipfile.ZipFile(copy_of(path), "w") as new:
        for name, member in members.items():
            new.writestr(name, member)
    _assert_miss(path, parsed, parses)


def test_a_source_edited_during_the_parse_gets_no_copy(split, monkeypatch):
    path, parsed, blob, parses = split
    copy_of(path).unlink()
    real = data.load_jsonl

    def parse_then_edit(p):
        result = real(p)
        path.write_text(path.read_text().replace('"3": 2.0', '"3": 7.0'))
        return result

    monkeypatch.setattr(data, "load_jsonl", parse_then_edit)
    assert_identical_loads(load_packed(path), parsed)
    assert not copy_of(path).exists()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_a_pipe_is_parsed_once_and_gets_no_copy(tmp_path):
    path = tmp_path / "split.jsonl"
    write_file(path, COPY_LINES)
    want = data.load_jsonl(path)
    fifo = tmp_path / "pipe.jsonl"
    os.mkfifo(fifo)
    loaded = []
    # daemon threads: a reader that opened the pipe a second time would wait for a writer forever
    reader = threading.Thread(target=lambda: loaded.append(load_packed(fifo)), daemon=True)
    writer = threading.Thread(target=fifo.write_bytes, args=(path.read_bytes(),), daemon=True)
    reader.start()
    writer.start()
    reader.join(timeout=10)
    writer.join(timeout=10)
    assert not reader.is_alive() and not writer.is_alive()
    assert_identical_loads(loaded[0], want)
    assert not copy_of(fifo).exists()


def test_a_copy_that_cannot_be_written_is_skipped(tmp_path, monkeypatch, caplog):
    path = tmp_path / "split.jsonl"
    write_file(path, COPY_LINES)
    want = data.load_jsonl(path)

    def refuse(src, dst):
        raise PermissionError("read-only")

    monkeypatch.setattr(copies.os, "replace", refuse)
    with caplog.at_level(logging.DEBUG, logger="knnmlc.copies"):
        assert_identical_loads(load_packed(path), want)
    assert "not written" in caplog.text and "read-only" in caplog.text
    assert sorted(os.listdir(tmp_path)) == ["split.jsonl"]  # no copy, no temporary file left


# -- the packed set ----------------------------------------------------------


def _packed(n=5, input_dim=VOCAB):
    rng = np.random.default_rng(0)
    samples = [
        oracles.Sample({int(k): float(k + 1) for k in rng.choice(input_dim, size=i % 3, replace=False)},
                       np.eye(NUM_CLASSES, dtype=np.int8)[i % NUM_CLASSES], f"s{i}")
        for i in range(n)
    ]
    return samples, oracles.pack(samples, input_dim)


def test_take_carries_ids():
    samples, packed = _packed(6)
    for rows in ([3, 0, 3], [1, 2, 3], [5]):
        assert_same_packed(oracles.take(packed, rows), oracles.pack([samples[i] for i in rows], VOCAB))


def test_a_row_is_a_batch_of_one_and_a_slice_a_range_of_rows():
    samples, packed = _packed(6)
    for i in range(-6, 6):
        assert_same_packed(packed[i], oracles.pack([samples[i]], VOCAB))
        assert packed[i].indices.base is not None  # a view, not a copy
    assert [row.ids() for row in packed] == [[f"s{i}"] for i in range(6)]
    for key in (slice(1, 4), slice(-2, None), slice(None, 2), slice(2, 100), slice(-100, 3), slice(0, 6)):
        assert_same_packed(packed[key], oracles.pack(samples[key], VOCAB))
    for key in (slice(4, 2), slice(6, 9), slice(-1, -3), slice(3, 3)):
        empty = packed[key]
        assert len(empty) == 0 and empty.indptr.tolist() == [0] and empty.labels.shape == (0, NUM_CLASSES)
        assert empty.indices.size == 0 and empty.ids() == [] and empty.id_bytes.size == 0


def test_a_row_out_of_range_or_a_step_is_an_error():
    _, packed = _packed(6)
    for i in (6, -7, 100):
        with pytest.raises(IndexError, match=f"row {i} out of range for 6 rows"):
            packed[i]
    with pytest.raises(IndexError):
        oracles.take(packed, [])[0]
    for key in (slice(None, None, 2), slice(None, None, -1), slice(4, 0, -1)):
        with pytest.raises(ValueError, match="step 1 only"):
            packed[key]
    with pytest.raises(TypeError):
        packed[1.0]


def test_pack_samples_passes_a_packed_set_through_after_the_index_check():
    _, packed = _packed(4)
    assert pack_samples(packed, VOCAB) is packed
    wider = pack_samples(packed, VOCAB + 5)
    assert wider.input_dim == VOCAB + 5 and wider.indices is packed.indices
    with pytest.raises(ValueError, match="out of range"):
        pack_samples(packed, int(packed.indices.max()))
    with pytest.raises(ValueError, match="empty"):
        pack_samples(oracles.take(packed, []), VOCAB)


def test_label_frequencies_count_each_label_over_the_records():
    samples, packed = _packed(9)
    want = sum(s.labels.astype(np.int64) for s in samples)
    assert np.array_equal(data.label_frequencies(packed.labels), want)
    assert data.frequency_groups(packed.labels, num_groups=2) == {0: 0, 1: 0, 2: 0, 3: 1, 4: 1}


def test_the_package_has_one_sample_representation():
    for name in ("Sample", "save_jsonl", "_EMPTY_ROW"):
        assert not hasattr(knnmlc, name) and not hasattr(data, name), name
    assert not hasattr(PackedSamples, "rows")


# -- the CLI and the library on generated and loaded splits ---------------------

TINY_CONFIG = {
    "dataset": {"num_classes": 6, "num_clusters": 2, "train_size": 60, "valid_size": 20, "test_size": 20,
                "vocab_size": 30, "seed": 4},
    "encoder": {"hidden_dim": 8, "embed_dim": 4},
    "train": {"batch_size": 8, "max_iters": 10, "seed": 4},
    "inference": {"k": 5},
}


def test_cli_reports_a_key_str_does_not_write_as_a_format_error(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(TINY_CONFIG))
    d = tmp_path / "data"
    d.mkdir()
    write_file(d / "train.jsonl", ['{"features": {"1": 1.0, "01": 1.0}, "labels": [0]}'])
    assert main(["--config", str(config), "train", "--data", str(d), "--out", str(tmp_path / "run")]) == EXIT_FORMAT


def test_library_calls_give_the_same_bits_for_a_generated_and_a_loaded_split(tmp_path):
    cfg = data.DatasetConfig(num_classes=6, num_clusters=2, train_size=90, valid_size=20, test_size=25,
                             vocab_size=30, seed=2)
    lists = dict(zip(("train", "valid", "test"), data.generate_synthetic(cfg)))
    # parsed from the files: load_packed would serve the copies save_splits wrote from the same arrays
    packed = {name: data.load_jsonl(p)[0] for name, p in data.save_splits(data.generate_synthetic(cfg), tmp_path).items()}

    enc = EncoderConfig(cfg.vocab_size, 8, 4, cfg.num_classes)
    train_cfg = TrainConfig(batch_size=8, max_iters=12, eval_every=5, seed=1)
    runs = []
    for split in (lists, packed):
        trainer = Trainer(split["train"], split["valid"], init_state(enc, seed=1), train_cfg)
        trainer.run()
        runs.append(trainer)
    assert runs[0].history == runs[1].history
    for (_, a), (_, b) in zip(runs[0].best_state().param_items(), runs[1].best_state().param_items()):
        assert a.tobytes() == b.tobytes()

    # resuming from a checkpoint with the packed split continues bit for bit
    half = Trainer(packed["train"], packed["valid"], init_state(enc, seed=1), train_cfg)
    half.run(num_iters=6)
    half.save_checkpoint(tmp_path / "trainer.json")
    resumed = Trainer.load_checkpoint(tmp_path / "trainer.json", packed["train"], packed["valid"])
    resumed.run()
    assert resumed.history == runs[1].history
    for (_, a), (_, b) in zip(resumed.state.param_items(), runs[1].state.param_items()):
        assert a.tobytes() == b.tobytes()

    state = runs[0].best_state()
    for fraction in (1.0, 0.3):
        a, b = build(state, lists["train"], fraction), build(state, packed["train"], fraction)
        assert a.keys.tobytes() == b.keys.tobytes() and np.array_equal(a.values, b.values)
    store = build(state, packed["train"])
    want = predict_batch(state, store, lists["test"], InferenceConfig(k=5))
    got = predict_batch(state, store, packed["test"], InferenceConfig(k=5))
    for field in ("y_clf", "y_knn", "lam", "y_final", "neighbor_indices", "neighbor_sims"):
        assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), field


DEFAULT_CONFIG = json.loads((Path(__file__).resolve().parent.parent / "configs" / "default.json").read_text())


@pytest.mark.parametrize(
    "overrides",
    [{}, {"num_classes": 48, "num_clusters": 16, "vocab_size": 2000, "train_size": 3000}],
    ids=["default", "vocab-2000"],
)
def test_an_in_memory_split_packs_to_the_arrays_of_its_file(tmp_path, overrides):
    # the generator packs the features in the order the file lists them, so
    # a library run on the generated splits and a CLI run on the files hold
    # the same CSR arrays and train the same bits
    cfg = data.DatasetConfig(**{**DEFAULT_CONFIG["dataset"], **overrides, "valid_size": 200, "test_size": 1, "seed": 1})
    splits = data.generate_synthetic(cfg)[:2]
    paths = data.save_splits(data.generate_synthetic(cfg), tmp_path)
    from_files = [data.load_jsonl(paths[name])[0] for name in ("train", "valid")]
    for split, loaded in zip(splits, from_files):
        assert_identical_loads((split,), (loaded,))

    enc = EncoderConfig(cfg.vocab_size, num_classes=cfg.num_classes, **DEFAULT_CONFIG["encoder"])
    train_cfg = TrainConfig(**{**DEFAULT_CONFIG["train"], "max_iters": 30, "eval_every": 10})
    runs = [Trainer(*inputs, init_state(enc, seed=train_cfg.seed), train_cfg) for inputs in (splits, from_files)]
    for trainer in runs:
        trainer.run()
    assert runs[0].history == runs[1].history
    for (name, a), (_, b) in zip(runs[0].state.param_items(), runs[1].state.param_items()):
        assert a.tobytes() == b.tobytes(), name
