"""The chunked dataset reader against the per-line reader it replaced.

``ref_load_jsonl`` below is the reader the package used before a dataset
file was read in chunks straight into CSR arrays: one ``json.loads``, one
int -> float dict and one label array per line. It is kept here as the
oracle, with the rules added since: a feature index given twice in one
record (``"3"`` and ``"03"``) is an error, checked after the bounds, and the
header sizes, labels and feature values follow the kind rule of
``data.check_kind`` (an integer, an integer, a finite number; never a bool),
with labels in a list. For any
file the new readers must give the oracle's samples (``load_jsonl``), the
oracle's samples packed (``load_packed``), or the oracle's error, message
and line included, whatever the chunk size.

``load_packed`` serves a file it parsed before from the packed copy beside
it. The reference tests read each file once before any copy exists, and the
chunking test deletes the copy before each chunk size, so all of them run
the parser; a spy on ``data._parse_packed`` counts the parses. The copy
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
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knnmlc import data
from knnmlc.cli import EXIT_FORMAT, EXIT_OK, main
from knnmlc.data import DataFormatError, PackedSamples, Sample, check_kind, load_jsonl, load_packed, pack_samples
from knnmlc.datastore import build
from knnmlc.encoder import EncoderConfig, init_state
from knnmlc.inference import InferenceConfig, predict_batch
from knnmlc.training import TrainConfig, Trainer

NUM_CLASSES = 5
VOCAB = 12

# -- per-line reference ----------------------------------------------------


def ref_load_jsonl(path):
    with open(path, "r", encoding="utf-8") as fh:
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

        samples = []
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                for value in rec["features"].values():
                    check_kind("a feature value", value, "float")
                features = {int(k): float(v) for k, v in rec["features"].items()}
                positives = rec["labels"]
                if not isinstance(positives, list):
                    raise TypeError(f"labels must be a list, got {positives!r}")
                for c in positives:
                    check_kind("a label", c, "int")
                sample_id = str(rec.get("id", ""))
            except (json.JSONDecodeError, KeyError, TypeError, ValueError, AttributeError, OverflowError) as exc:
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
            if len(features) != len(rec["features"]):
                seen = set()
                k = next(k for k in map(int, rec["features"]) if k in seen or seen.add(k))
                raise DataFormatError(f"{path}: line {lineno}: feature index {k} appears more than once")
            samples.append(Sample(features=features, labels=labels, sample_id=sample_id))
    return samples, num_classes, vocab_size


# -- record lines ------------------------------------------------------------

# keys int() takes (canonical, zero-padded, signed, spaced) and keys it refuses or that are out of range
canonical_keys = st.integers(0, VOCAB - 1).map(str)
good_keys = st.one_of(canonical_keys, canonical_keys, canonical_keys, st.sampled_from(["01", "+1", " 2", "3 ", "1_0"]))
bad_keys = st.sampled_from(["-1", "12", "99", "x", "", "1.5"])
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
        features = draw(st.dictionaries(st.one_of(good_keys, bad_keys), st.one_of(good_values, bad_values), max_size=6))
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


def assert_same_samples(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.sample_id == b.sample_id
        assert list(a.features) == list(b.features)  # same key order
        assert np.array_equal(list(a.features.values()), list(b.features.values()), equal_nan=True)
        assert a.labels.dtype == np.int8 and np.array_equal(a.labels, b.labels)


def assert_same_packed(got: PackedSamples, want: PackedSamples):
    assert got.input_dim == want.input_dim
    for name in ("indptr", "indices", "labels"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert got.values.dtype == np.float64 and np.array_equal(got.values, want.values, equal_nan=True)
    assert got.ids.dtype == object and got.ids.tolist() == want.ids.tolist()


def assert_identical_loads(got, want):
    """Two load_packed results with the same shapes, dtypes and bits."""
    assert got[1:] == want[1:]
    got, want = got[0], want[0]
    assert got.input_dim == want.input_dim
    for name in ("indptr", "indices", "values", "labels"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name
    assert got.ids.dtype == object and got.ids.shape == want.ids.shape
    assert [type(i) for i in got.ids] == [str] * len(got.ids) and got.ids.tolist() == want.ids.tolist()


def copy_of(path):
    return path.with_name(path.name + ".packed")


def spy_on_parses(mp):
    """Record the path of every parse ``load_packed`` makes."""
    parses = []
    real = data._parse_packed

    def parse(path):
        parses.append(path)
        return real(path)

    mp.setattr(data, "_parse_packed", parse)
    return parses


@settings(max_examples=300, deadline=None)
@given(lines=st.lists(record_lines(), max_size=9), chunk=st.sampled_from([1, 2, 3, 256]))
def test_readers_match_the_per_line_reference(tmp_path_factory, lines, chunk):
    path = tmp_path_factory.mktemp("ds") / "split.jsonl"
    write_file(path, lines)
    want, want_error = outcome(ref_load_jsonl, path)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(data, "_CHUNK_LINES", chunk)
        parses = spy_on_parses(mp)
        got, got_error = outcome(load_jsonl, path)
        packed, packed_error = outcome(load_packed, path)
        assert parses == [path]  # a fresh file: the parser ran
        # a second read is served from the copy the first one wrote, if any
        again, again_error = outcome(load_packed, path)
    assert got_error == want_error and packed_error == want_error and again_error == want_error
    assert copy_of(path).exists() == (want_error is None)
    if want_error is None:
        samples, num_classes, vocab = want
        assert got[1:] == packed[1:] == (num_classes, vocab)
        assert_same_samples(got[0], samples)
        if samples:
            assert_same_packed(packed[0], pack_samples(samples, vocab))
        else:
            assert len(packed[0]) == 0 and packed[0].labels.shape == (0, NUM_CLASSES)
        assert len(parses) == 1
        assert_identical_loads(again, packed)
    else:
        assert len(parses) == 2


def test_files_written_by_save_jsonl_read_back_in_any_chunking(tmp_path, monkeypatch):
    cfg = data.DatasetConfig(train_size=300, valid_size=1, test_size=1, seed=3)
    train, _, _ = data.generate_synthetic(cfg)
    train[7].features = {}
    path = tmp_path / "train.jsonl"
    data.save_jsonl(train, path, cfg.num_classes, cfg.vocab_size)
    want = pack_samples(ref_load_jsonl(path)[0], cfg.vocab_size)  # keys in file order
    parses = spy_on_parses(monkeypatch)
    for count, chunk in enumerate((1, 7, 256, 1000), start=1):
        monkeypatch.setattr(data, "_CHUNK_LINES", chunk)
        copy_of(path).unlink(missing_ok=True)  # else every chunk size after the first reads the copy
        packed, num_classes, vocab = load_packed(path)
        assert len(parses) == count
        assert (num_classes, vocab) == (cfg.num_classes, cfg.vocab_size)
        assert_same_packed(packed, want)
        assert load_jsonl(path)[0] == train


def test_featureless_record_is_one_explicit_zero_and_an_empty_dict(tmp_path):
    path = tmp_path / "f.jsonl"
    write_file(path, ['{"id": "a", "features": {}, "labels": [1]}', '{"id": "b", "features": {"0": 0.0}, "labels": []}'])
    packed, _, _ = load_packed(path)
    assert packed.indptr.tolist() == [0, 1, 2]
    assert packed.indices.tolist() == [0, 0] and packed.values.tolist() == [0.0, 0.0]
    samples, _, _ = load_jsonl(path)
    assert samples[0].features == {} and samples[1].features == {0: 0.0}


def test_one_index_given_twice_is_an_error_naming_its_line(tmp_path):
    path = tmp_path / "dup.jsonl"
    write_file(path, ['{"features": {"1": 1.0}, "labels": [0]}', '{"features": {"3": 1.0, "03": 2.0}, "labels": [0]}'])
    for reader in (load_packed, load_jsonl):
        with pytest.raises(DataFormatError, match="line 3: feature index 3 appears more than once"):
            reader(path)
    assert not copy_of(path).exists()


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
    for reader in (load_packed, load_jsonl):
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
    assert packed.ids.tolist() == ["a", "nul\x00id", "lone \ud800 surrogate", ""]
    arrays = copy_arrays(path)
    assert arrays["version"] == data._READER_VERSION
    assert arrays["digest"].tobytes() == hashlib.sha256(path.read_bytes()).digest()
    for _ in range(2):
        assert_identical_loads(load_packed(path), parsed)
    assert parses == []
    assert_identical_loads(data._parse_packed(path), parsed)


def test_the_digest_does_not_need_hashlib_file_digest(split, monkeypatch):
    """``hashlib.file_digest`` is new in Python 3.11; the package supports 3.10."""
    path, parsed, blob, parses = split
    monkeypatch.delattr(hashlib, "file_digest", raising=False)
    big = path.with_name("big.bin")
    big.write_bytes(bytes(range(256)) * 10_000)  # several read blocks
    for file in (path, big):
        assert data._file_digest(file) == hashlib.sha256(file.read_bytes()).digest()
    assert_identical_loads(load_packed(path), parsed)
    assert parses == []


def _assert_miss(path, parsed, parses):
    assert_identical_loads(load_packed(path), parsed)
    assert len(parses) == 1
    assert_identical_loads(data._read_copy(str(copy_of(path)), data._file_digest(path)), parsed)  # rewritten
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
    digest = data._file_digest(path)
    stored = member_data(blob)
    assert len(stored) > len(blob) / 2
    for offset in range(len(blob)):
        for flip in (0x01, 0x80):
            damaged = bytearray(blob)
            damaged[offset] ^= flip
            copy_of(path).write_bytes(bytes(damaged))
            loaded = data._read_copy(str(copy_of(path)), digest)
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
    want = data._parse_packed(other)
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
    assert data._read_copy(str(copy_of(path)), data._file_digest(path)) is None
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
    real = data._parse_packed

    def parse_then_edit(p):
        result = real(p)
        path.write_text(path.read_text().replace('"3": 2.0', '"3": 7.0'))
        return result

    monkeypatch.setattr(data, "_parse_packed", parse_then_edit)
    assert_identical_loads(load_packed(path), parsed)
    assert not copy_of(path).exists()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_a_pipe_is_parsed_once_and_gets_no_copy(tmp_path):
    path = tmp_path / "split.jsonl"
    write_file(path, COPY_LINES)
    want = data._parse_packed(path)
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
    want = data._parse_packed(path)

    def refuse(src, dst):
        raise PermissionError("read-only")

    monkeypatch.setattr(data.os, "replace", refuse)
    with caplog.at_level(logging.DEBUG, logger="knnmlc.data"):
        assert_identical_loads(load_packed(path), want)
    assert "not written" in caplog.text and "read-only" in caplog.text
    assert sorted(os.listdir(tmp_path)) == ["split.jsonl"]  # no copy, no temporary file left


# -- the packed set ----------------------------------------------------------


def _packed(n=5, input_dim=VOCAB):
    rng = np.random.default_rng(0)
    samples = [
        Sample({int(k): float(k + 1) for k in rng.choice(input_dim, size=i % 3, replace=False)},
               np.eye(NUM_CLASSES, dtype=np.int8)[i % NUM_CLASSES], f"s{i}")
        for i in range(n)
    ]
    return samples, pack_samples(samples, input_dim)


def test_take_carries_ids():
    samples, packed = _packed(6)
    for rows in ([3, 0, 3], [1, 2, 3], [5]):
        assert_same_packed(packed.take(rows), pack_samples([samples[i] for i in rows], VOCAB))


def test_pack_samples_passes_a_packed_set_through_after_the_index_check():
    _, packed = _packed(4)
    assert pack_samples(packed, VOCAB) is packed
    wider = pack_samples(packed, VOCAB + 5)
    assert wider.input_dim == VOCAB + 5 and wider.indices is packed.indices
    with pytest.raises(ValueError, match="out of range"):
        pack_samples(packed, int(packed.indices.max()))
    with pytest.raises(ValueError, match="empty"):
        pack_samples(packed.take([]), VOCAB)


def test_label_frequencies_of_a_packed_set_equal_the_list_count():
    samples, packed = _packed(9)
    assert np.array_equal(data.label_frequencies(packed), data.label_frequencies(samples))
    assert data.frequency_groups(packed, num_groups=2) == data.frequency_groups(samples, num_groups=2)


# -- the CLI builds no Sample --------------------------------------------------

TINY_CONFIG = {
    "dataset": {"num_classes": 6, "num_clusters": 2, "train_size": 60, "valid_size": 20, "test_size": 20,
                "vocab_size": 30, "seed": 4},
    "encoder": {"hidden_dim": 8, "embed_dim": 4},
    "train": {"batch_size": 8, "max_iters": 10, "seed": 4},
    "inference": {"k": 5},
}


def test_cli_pipeline_creates_no_sample(tmp_path, monkeypatch):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(TINY_CONFIG))
    d = tmp_path / "data"

    def refuse(self, *args, **kwargs):
        raise AssertionError("a Sample was created")

    monkeypatch.setattr(Sample, "__init__", refuse)
    model = tmp_path / "run" / "model.json"
    store = tmp_path / "store.bin"
    preds = tmp_path / "preds.jsonl"
    steps = [
        ["gen-data", "--out", str(d)],
        ["train", "--data", str(d), "--out", str(model.parent)],
        ["build-store", "--checkpoint", str(model), "--train-file", str(d / "train.jsonl"), "--out", str(store)],
        ["predict", "--checkpoint", str(model), "--store", str(store), "--test-file", str(d / "test.jsonl"),
         "--out", str(preds)],
        ["eval", "--predictions", str(preds), "--gold", str(d / "test.jsonl"), "--num-groups", "2",
         "--groups-from", str(d / "train.jsonl")],
    ]
    for argv in steps:
        assert main(["--config", str(config), *argv]) == EXIT_OK, argv
    with pytest.raises(AssertionError, match="a Sample was created"):
        load_jsonl(d / "test.jsonl")  # the guard is live


def test_cli_reports_a_repeated_feature_index_as_a_format_error(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(TINY_CONFIG))
    d = tmp_path / "data"
    d.mkdir()
    write_file(d / "train.jsonl", ['{"features": {"1": 1.0, "01": 1.0}, "labels": [0]}'])
    assert main(["--config", str(config), "train", "--data", str(d), "--out", str(tmp_path / "run")]) == EXIT_FORMAT


def test_library_calls_give_the_same_bits_for_the_packed_split(tmp_path):
    cfg = data.DatasetConfig(num_classes=6, num_clusters=2, train_size=90, valid_size=20, test_size=25,
                             vocab_size=30, seed=2)
    paths = {}
    for name, split in zip(("train", "valid", "test"), data.generate_synthetic(cfg)):
        paths[name] = tmp_path / f"{name}.jsonl"
        data.save_jsonl(split, paths[name], cfg.num_classes, cfg.vocab_size)
    lists = {name: load_jsonl(p)[0] for name, p in paths.items()}
    packed = {name: load_packed(p)[0] for name, p in paths.items()}

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
    # the generator's samples hold their features in the order the file
    # lists them, so a library run on the samples and a CLI run on the files
    # pack the same CSR arrays and train the same bits
    cfg = data.DatasetConfig(**{**DEFAULT_CONFIG["dataset"], **overrides, "valid_size": 200, "test_size": 1, "seed": 1})
    splits = data.generate_synthetic(cfg)[:2]
    from_files = []
    for name, split in zip(("train", "valid"), splits):
        path = tmp_path / f"{name}.jsonl"
        data.save_jsonl(split, path, cfg.num_classes, cfg.vocab_size)
        from_files.append(load_packed(path)[0])
        assert_same_packed(pack_samples(split, cfg.vocab_size), from_files[-1])

    enc = EncoderConfig(cfg.vocab_size, num_classes=cfg.num_classes, **DEFAULT_CONFIG["encoder"])
    train_cfg = TrainConfig(**{**DEFAULT_CONFIG["train"], "max_iters": 30, "eval_every": 10})
    runs = [Trainer(*inputs, init_state(enc, seed=train_cfg.seed), train_cfg) for inputs in (splits, from_files)]
    for trainer in runs:
        trainer.run()
    assert runs[0].history == runs[1].history
    for (name, a), (_, b) in zip(runs[0].state.param_items(), runs[1].state.param_items()):
        assert a.tobytes() == b.tobytes(), name
