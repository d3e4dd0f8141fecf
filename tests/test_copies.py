"""Packed copies of the checkpoint (``model.json.packed``) and of the
predictions (``preds.jsonl.packed``) against the JSON they stand for.

``save_checkpoint`` and ``predict`` write a copy keyed by the SHA-256 of the
bytes they wrote, so the first read is a hit; a spy on the JSON parse counts
misses. A hit gives the parse's bits, a missing, stale, damaged or
other-version copy is a miss that gives the parse result and writes the copy
again, and a copy that stands for the file's bytes but holds values the
JSON checks reject fails with the JSON path's own error. The dataset copy
has the same tests in ``test_load_packed.py``.
"""
import io
import json
import zipfile

import numpy as np
import pytest

from knnmlc import cli, copies, encoder, floatrepr
from knnmlc.cli import EXIT_FORMAT, EXIT_OK, main
from knnmlc.data import load_packed
from knnmlc.encoder import CheckpointError, EncoderConfig, init_state, load_checkpoint, save_checkpoint
from knnmlc.inference import INFERENCE_MODES
from oracles import state_to_payload
from test_load_packed import member_data


def copy_of(path):
    return path.with_name(path.name + ".packed")


def copy_arrays(path):
    with np.load(copy_of(path), allow_pickle=False) as npz:
        return dict(npz)


def spy(monkeypatch, module, name):
    """Record the path of every call of ``module.name`` (a JSON parse)."""
    calls, real = [], getattr(module, name)

    def wrapper(path, *args, **kwargs):
        calls.append(path)
        return real(path, *args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


# -- the checkpoint copy -----------------------------------------------------------

SPECIAL_VALUES = [-0.0, 5e-324, -2.5e-310, np.nextafter(0.0, 1.0) * 3, 1.7976931348623157e308, 0.1]


def special_state(**dims):
    """A small state whose parameters include -0.0 and subnormal values."""
    cfg = EncoderConfig(**{"input_dim": 7, "hidden_dim": 5, "embed_dim": 4, "num_classes": 3, **dims})
    state = init_state(cfg, seed=4)
    state.w_in.flat[: len(SPECIAL_VALUES)] = SPECIAL_VALUES
    state.b_clf[:2] = [-0.0, -5e-324]
    return state


def assert_identical_states(got, want):
    assert got.config == want.config and got.init_seed == want.init_seed
    for (name, a), (_, b) in zip(got.param_items(), want.param_items()):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name
        assert a.flags.c_contiguous and a.flags.writeable, name


@pytest.fixture
def model(tmp_path, monkeypatch):
    """A checkpoint saved with its copy; its JSON parse and a spy on later parses."""
    path = tmp_path / "model.json"
    save_checkpoint(special_state(), path)
    parsed = encoder._parse_checkpoint(path)
    return path, parsed, spy(monkeypatch, encoder, "_parse_checkpoint")


def test_a_saved_checkpoint_is_read_from_its_copy_bit_for_bit(model):
    path, parsed, parses = model
    assert np.signbit(parsed.w_in.flat[0]) and parsed.w_in.flat[1] == 5e-324 and np.signbit(parsed.b_clf[1])
    assert_identical_states(parsed, special_state())
    arrays = copy_arrays(path)
    assert arrays["version"] == encoder._COPY_VERSION
    assert arrays["digest"].tobytes() == copies.file_digest(path)
    for _ in range(2):
        assert_identical_states(load_checkpoint(path), parsed)
    assert parses == []


def _assert_miss(path, parsed, parses):
    assert_identical_states(load_checkpoint(path), parsed)
    assert parses == [path]
    assert_identical_states(load_checkpoint(path), parsed)  # the copy was written again
    assert parses == [path]
    parses.clear()


def rewrite_copy(path, arrays):
    with open(copy_of(path), "wb") as fh:
        np.savez(fh, **arrays)


def test_a_checkpoint_edited_by_one_byte_is_parsed_again(model):
    path, parsed, parses = model
    text = path.read_text()
    assert '"init_seed": 4' in text
    path.write_text(text.replace('"init_seed": 4', '"init_seed": 5'))
    edited = encoder._parse_checkpoint(path)
    parses.clear()
    assert edited.init_seed == 5
    _assert_miss(path, edited, parses)


def with_header(arrays, edit):
    header = json.loads(arrays["header"].tobytes())
    edit(header)
    arrays["header"] = np.frombuffer(json.dumps(header).encode("utf-8"), dtype=np.uint8)


@pytest.mark.parametrize("damage", [
    "another version", "missing member", "wrong dtype", "wrong ndim", "header", "header not an object",
    "short params", "long params", "dims of another size", "dims not integers", "dims missing",
])
def test_a_foreign_or_misshapen_copy_is_a_miss(model, damage):
    path, parsed, parses = model
    arrays = copy_arrays(path)
    assert arrays["params"].size == sum(arr.size for _, arr in parsed.param_items())
    if damage == "another version":
        arrays["version"] = np.int64(encoder._COPY_VERSION + 1)
    elif damage == "missing member":
        del arrays["params"]
    elif damage == "wrong dtype":
        arrays["params"] = np.zeros(arrays["params"].shape, dtype=np.float32)
    elif damage == "wrong ndim":
        arrays["params"] = arrays["params"][None, :]
    elif damage == "header":
        arrays["header"] = arrays["header"][:-1]  # no longer JSON
    elif damage == "header not an object":
        arrays["header"] = np.frombuffer(b"[1, 2]", dtype=np.uint8)
    elif damage == "short params":
        arrays["params"] = arrays["params"][:-1]
    elif damage == "long params":
        arrays["params"] = np.append(arrays["params"], 0.5)
    elif damage == "dims of another size":
        with_header(arrays, lambda h: h["dims"].update(hidden_dim=h["dims"]["hidden_dim"] + 1))
    elif damage == "dims not integers":
        with_header(arrays, lambda h: h["dims"].update(hidden_dim=5.0))
    else:
        with_header(arrays, lambda h: h.pop("dims"))
    rewrite_copy(path, arrays)
    _assert_miss(path, parsed, parses)


def test_a_truncated_copy_is_a_miss(model):
    path, parsed, parses = model
    blob = copy_of(path).read_bytes()
    for damaged in (b"", blob[:3], blob[: len(blob) // 2], blob[:-1]):
        copy_of(path).write_bytes(damaged)
        _assert_miss(path, parsed, parses)


def test_a_copy_for_another_checkpoint_is_a_miss(model, tmp_path):
    path, parsed, parses = model
    other = tmp_path / "other.json"
    save_checkpoint(init_state(parsed.config, seed=9), other)
    copy_of(path).write_bytes(copy_of(other).read_bytes())
    _assert_miss(path, parsed, parses)


def test_another_copy_version_is_a_miss_and_rewritten(model, monkeypatch):
    path, parsed, parses = model
    monkeypatch.setattr(encoder, "_COPY_VERSION", encoder._COPY_VERSION + 1)
    _assert_miss(path, parsed, parses)
    assert copy_arrays(path)["version"] == encoder._COPY_VERSION


def test_every_flipped_byte_of_a_tiny_copy_gives_the_parse_result_or_a_miss(tmp_path):
    """One flipped bit in any byte of the copy of the smallest model: a miss
    (a member's CRC-32, the zip's structure) or, for bytes the reader does
    not use, the parse's state. Never another state or an error. One flip
    per byte keeps the sweep short: each read opens four members."""
    path = tmp_path / "model.json"
    save_checkpoint(init_state(EncoderConfig(1, 1, 1, 1), seed=0), path)
    parsed = encoder._parse_checkpoint(path)
    digest, blob = copies.file_digest(path), copy_of(path).read_bytes()
    stored = member_data(blob)
    assert len(stored) > len(blob) / 2
    for offset in range(len(blob)):
        damaged = bytearray(blob)
        damaged[offset] ^= 0x01
        copy_of(path).write_bytes(bytes(damaged))
        arrays = copies.read_copy(path, encoder._COPY_VERSION, digest, encoder._COPY_MEMBERS)
        loaded = None if arrays is None else encoder._from_copy(arrays, str(path))
        if loaded is not None:
            assert offset not in stored, offset
            assert_identical_states(loaded, parsed)


def nan_json(parsed):
    """The checkpoint JSON of ``parsed`` with w_clf[0][1] NaN."""
    payload = state_to_payload(parsed)
    payload["params"]["w_clf"][0][1] = float("nan")
    return json.dumps(payload)


def test_a_copy_holding_nan_fails_like_the_json_holding_it(model, tmp_path, capsys):
    path, parsed, parses = model
    train = tmp_path / "train.jsonl"
    train.write_text('{"num_classes": 3, "vocab_size": 7}\n{"features": {"1": 1.0}, "labels": [0]}\n')
    argv = ["build-store", "--checkpoint", str(path), "--train-file", str(train), "--out", str(tmp_path / "store.bin")]

    # the JSON path: model.json holds the NaN (the copy stands for other bytes)
    path.write_text(nan_json(parsed))
    with pytest.raises(CheckpointError) as from_json:
        load_checkpoint(path)
    assert "parameter w_clf holds a NaN or inf value" in str(from_json.value)
    capsys.readouterr()
    assert main(argv) == EXIT_FORMAT
    json_err = capsys.readouterr().err

    # the copy path: a copy for these very bytes holds the NaN
    arrays = encoder._to_copy(parsed)
    # w_clf[0][1]: the parameters before w_clf, then one entry in
    w_clf_at = sum(arr.size for name, arr in parsed.param_items() if name in ("w_in", "b_in", "w_emb", "b_emb"))
    arrays["params"][w_clf_at + 1] = np.nan
    copies.write_copy(path, encoder._COPY_VERSION, copies.file_digest(path), arrays)
    parses.clear()
    with pytest.raises(CheckpointError) as from_copy:
        load_checkpoint(path)
    assert parses == [] and str(from_copy.value) == str(from_json.value)
    assert main(argv) == EXIT_FORMAT
    assert capsys.readouterr().err == json_err


# -- the predictions copy ------------------------------------------------------------

CONFIG = {
    "dataset": {"num_classes": 5, "num_clusters": 2, "train_size": 60, "valid_size": 20, "test_size": 12,
                "vocab_size": 30, "seed": 3},
    "encoder": {"hidden_dim": 6, "embed_dim": 4},
    "train": {"batch_size": 8, "max_iters": 5, "seed": 3},
    "inference": {"k": 5},
}


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    root = tmp_path_factory.mktemp("copies")
    config = root / "config.json"
    config.write_text(json.dumps(CONFIG))
    c = str(config)
    assert main(["--config", c, "gen-data", "--out", str(root / "data")]) == EXIT_OK
    assert main(["--config", c, "train", "--data", str(root / "data"), "--out", str(root / "model")]) == EXIT_OK
    assert main(["--config", c, "build-store", "--checkpoint", str(root / "model" / "model.json"),
                 "--train-file", str(root / "data" / "train.jsonl"), "--out", str(root / "store.bin")]) == EXIT_OK
    return root, c


def predict(run, out, mode="denn", store=True):
    root, c = run
    store_args = ["--store", str(root / "store.bin")] if store else []
    assert main(["--config", c, "predict", "--checkpoint", str(root / "model" / "model.json"), *store_args,
                 "--test-file", str(root / "data" / "test.jsonl"), "--mode", mode, "--out", str(out)]) == EXIT_OK


def evaluate(run, preds, capsys):
    root, _ = run
    capsys.readouterr()
    code = main(["eval", "--predictions", str(preds), "--gold", str(root / "data" / "test.jsonl")])
    return code, capsys.readouterr()


def predictions_copy(ids, y_pred):
    """The arrays of a predictions copy holding these ids and rows."""
    id_offsets, id_bytes = copies.pack_strings(ids)
    return {"y_pred": y_pred, "id_offsets": id_offsets, "id_bytes": id_bytes}


def parse_json(path):
    """(ids, y_pred) straight from the JSON records."""
    records = [json.loads(line) for line in path.read_text().splitlines()]
    return [r["id"] for r in records], np.array([r["y_pred"] for r in records], dtype=np.int8)


@pytest.mark.parametrize("mode", INFERENCE_MODES)
def test_predict_writes_the_copy_of_what_it_wrote_and_eval_reads_it(run, tmp_path, monkeypatch, capsys, mode):
    preds = tmp_path / "preds.jsonl"
    predict(run, preds, mode)
    arrays = copy_arrays(preds)
    assert arrays["version"] == cli._PREDICTIONS_COPY_VERSION
    assert arrays["digest"].tobytes() == copies.file_digest(preds)
    ids, y_pred = parse_json(preds)
    assert arrays["y_pred"].dtype == np.int8 and arrays["y_pred"].tobytes() == y_pred.tobytes()
    assert copies.unpack_strings(arrays["id_offsets"], arrays["id_bytes"]) == ids
    parses = spy(monkeypatch, cli, "_parse_predictions")
    code, hit = evaluate(run, preds, capsys)
    assert code == EXIT_OK and parses == []
    copy_of(preds).unlink()
    code, miss = evaluate(run, preds, capsys)
    assert code == EXIT_OK and parses == [str(preds)] and miss.out == hit.out
    assert copy_arrays(preds)["y_pred"].tobytes() == y_pred.tobytes()  # written again


@pytest.mark.parametrize("mode,store", [(mode, True) for mode in INFERENCE_MODES] + [("classifier_only", False)])
def test_predictions_do_not_depend_on_the_chunk_and_line_block_sizes(run, tmp_path, monkeypatch, capsys, mode, store):
    # 12 test rows: chunks of 3 rows, each written one line at a time
    shipped, small = tmp_path / "shipped.jsonl", tmp_path / "small.jsonl"
    predict(run, shipped, mode, store)
    monkeypatch.setattr(cli, "_PREDICT_CHUNK", 3)
    monkeypatch.setattr(floatrepr, "BLOCK", 2)
    predict(run, small, mode, store)
    assert small.read_bytes() == shipped.read_bytes()
    parses = spy(monkeypatch, cli, "_parse_predictions")
    code, _ = evaluate(run, small, capsys)
    assert code == EXIT_OK and parses == []


def test_a_predictions_copy_holding_a_2_fails_like_the_json_holding_it(run, tmp_path, capsys):
    preds = tmp_path / "preds.jsonl"
    predict(run, preds)
    ids, y_pred = parse_json(preds)
    records = [json.loads(line) for line in preds.read_text().splitlines()]
    records[3]["y_pred"][1] = 2
    preds.write_text("".join(json.dumps(r) + "\n" for r in records))

    copy_of(preds).unlink()
    code, from_json = evaluate(run, preds, capsys)
    assert code == EXIT_FORMAT
    assert "record 3: y_pred must be a list of 5 values in {0, 1}" in from_json.err
    assert copy_arrays(preds)["y_pred"][3, 1] == 2  # the parse's copy holds the 2 as well
    code, from_copy = evaluate(run, preds, capsys)
    assert code == EXIT_FORMAT and from_copy.err == from_json.err

    # a copy that stands for valid JSON but holds the 2
    records[3]["y_pred"][1] = 0
    preds.write_text("".join(json.dumps(r) + "\n" for r in records))
    crafted = y_pred.copy()
    crafted[3, 1] = 2
    copies.write_copy(preds, cli._PREDICTIONS_COPY_VERSION, copies.file_digest(preds),
                      predictions_copy(ids, crafted))
    code, crafted_err = evaluate(run, preds, capsys)
    assert code == EXIT_FORMAT and crafted_err.err == from_json.err


def test_a_predictions_copy_for_another_label_count_is_a_miss(run, tmp_path, monkeypatch, capsys):
    preds = tmp_path / "preds.jsonl"
    predict(run, preds)
    ids, y_pred = parse_json(preds)
    copies.write_copy(preds, cli._PREDICTIONS_COPY_VERSION, copies.file_digest(preds),
                      predictions_copy(ids, np.zeros((len(ids), 6), dtype=np.int8)))
    parses = spy(monkeypatch, cli, "_parse_predictions")
    code, _ = evaluate(run, preds, capsys)
    assert code == EXIT_OK and parses == [str(preds)]
    assert copy_arrays(preds)["y_pred"].tobytes() == y_pred.tobytes()


def test_an_id_of_another_kind_is_a_format_error_naming_its_record(run, tmp_path, capsys):
    root, _ = run
    gold = load_packed(root / "data" / "test.jsonl")[0]
    records = [{"id": i, "y_pred": row} for i, row in zip(gold.ids(), gold.labels.tolist())]
    records[2]["id"] = 7
    preds = tmp_path / "preds.jsonl"
    preds.write_text("".join(json.dumps(r) + "\n" for r in records))
    code, captured = evaluate(run, preds, capsys)
    assert code == EXIT_FORMAT and "record 2: id must be a string, got 7" in captured.err
    assert not copy_of(preds).exists()


def test_a_mismatched_id_is_found_on_the_copy_too(run, tmp_path, capsys):
    preds = tmp_path / "preds.jsonl"
    predict(run, preds)
    ids, y_pred = parse_json(preds)
    ids[4] = "someone-else"
    copies.write_copy(preds, cli._PREDICTIONS_COPY_VERSION, copies.file_digest(preds),
                      predictions_copy(ids, y_pred))
    code, captured = evaluate(run, preds, capsys)
    assert code == EXIT_FORMAT and "record 4: prediction id 'someone-else'" in captured.err


def test_a_damaged_predictions_copy_is_a_miss(run, tmp_path, monkeypatch, capsys):
    preds = tmp_path / "preds.jsonl"
    predict(run, preds)
    blob = copy_of(preds).read_bytes()
    with zipfile.ZipFile(io.BytesIO(blob)) as zf:
        assert sorted(zf.namelist()) == ["digest.npy", "id_bytes.npy", "id_offsets.npy", "version.npy", "y_pred.npy"]
    parses = spy(monkeypatch, cli, "_parse_predictions")
    code, hit = evaluate(run, preds, capsys)
    for damaged in (blob[:-1], blob[: len(blob) // 2]):
        copy_of(preds).write_bytes(damaged)
        code, miss = evaluate(run, preds, capsys)
        assert code == EXIT_OK and miss.out == hit.out
    assert len(parses) == 2
