"""What each CLI stage reads and forms, so that a stage that starts reading
more (a whole split for its label counts, a search matrix it never
searches) fails here; and the datastore's guarantees with its search matrix
formed on first use."""
import json
from pathlib import Path

import numpy as np
import pytest

from knnmlc import copies, datastore
from knnmlc.cli import EXIT_DIMENSION, EXIT_FORMAT, EXIT_NON_FINITE, EXIT_OK, main
from knnmlc.data import load_packed
from knnmlc.datastore import Datastore, DatastoreFormatError, InvalidKeyError, build, load, save, search
from knnmlc.encoder import load_checkpoint
from knnmlc.inference import InferenceConfig, predict_batch
from oracles import unit_columns

CONFIG = {
    "dataset": {"num_classes": 5, "num_clusters": 2, "train_size": 40, "valid_size": 10, "test_size": 12,
                "vocab_size": 20, "seed": 3},
    "encoder": {"hidden_dim": 6, "embed_dim": 4},
    "train": {"batch_size": 8, "max_iters": 6, "seed": 3},
    "inference": {"k": 5},
}
SPLIT = ("dims", "id_bytes", "id_offsets", "indices", "indptr", "labels", "values")
CHECKPOINT = ("header", "params")
PREDICTIONS = ("id_bytes", "id_offsets", "y_pred")


class Recorder:
    """While installed: the (file name, members) of every ``copies.read_copy``
    call and the number of search matrices ``Datastore`` formed."""

    def __init__(self, monkeypatch):
        self.reads, self.formed = [], 0
        real_read, real_form = copies.read_copy, datastore._unit_columns

        def read_copy(path, version, digest, members):
            self.reads.append((Path(path).name, tuple(sorted(members))))
            return real_read(path, version, digest, members)

        def unit_columns(keys, norms):
            self.formed += 1
            return real_form(keys, norms)

        monkeypatch.setattr(copies, "read_copy", read_copy)
        monkeypatch.setattr(datastore, "_unit_columns", unit_columns)

    def stage(self, *argv):
        """Run one CLI command; its reads and how many matrices it formed."""
        self.reads, self.formed = [], 0
        assert main([str(a) for a in argv]) == EXIT_OK
        return self.reads, self.formed


@pytest.fixture(scope="module")
def stages(tmp_path_factory):
    root = tmp_path_factory.mktemp("stages")
    config = root / "config.json"
    config.write_text(json.dumps(CONFIG))
    data, model, store = root / "data", root / "run" / "model.json", root / "store.bin"
    with pytest.MonkeyPatch.context() as monkeypatch:
        rec = Recorder(monkeypatch)
        got = {
            "gen-data": rec.stage("--config", config, "gen-data", "--out", data),
            "train": rec.stage("--config", config, "train", "--data", data, "--out", root / "run"),
            "build-store": rec.stage("--config", config, "build-store", "--checkpoint", model,
                                     "--train-file", data / "train.jsonl", "--out", store),
            "predict": rec.stage("--config", config, "predict", "--checkpoint", model, "--store", store,
                                 "--test-file", data / "test.jsonl", "--out", root / "preds.jsonl"),
            "eval": rec.stage("eval", "--predictions", root / "preds.jsonl", "--gold", data / "test.jsonl",
                              "--num-groups", 2, "--groups-from", data / "train.jsonl", "--out", root / "report.json"),
        }
    return root, config, got


def test_each_stage_reads_only_the_members_it_uses(stages):
    _, _, got = stages
    assert got["gen-data"] == ([], 0)
    assert got["train"] == ([("train.jsonl", SPLIT), ("valid.jsonl", SPLIT)], 0)
    assert got["predict"][0] == [("model.json", CHECKPOINT), ("test.jsonl", SPLIT)]
    # the label counts of --groups-from: its dims and labels, nothing else
    assert got["eval"] == (
        [("test.jsonl", SPLIT), ("preds.jsonl", PREDICTIONS), ("train.jsonl", ("dims", "labels"))], 0
    )


def test_build_store_never_forms_the_search_matrix_and_predict_forms_it_once(stages):
    _, _, got = stages
    assert got["build-store"] == ([("model.json", CHECKPOINT), ("train.jsonl", SPLIT)], 0)
    assert got["predict"][1] == 1


def test_groups_from_a_split_without_its_copy_parses_it_and_writes_the_whole_copy(stages, tmp_path, monkeypatch):
    root, _, _ = stages
    train = tmp_path / "train.jsonl"
    train.write_bytes((root / "data" / "train.jsonl").read_bytes())
    argv = ["eval", "--predictions", root / "preds.jsonl", "--gold", root / "data" / "test.jsonl",
            "--num-groups", 2, "--groups-from", train, "--out", tmp_path / "report.json"]
    Recorder(monkeypatch).stage(*argv)
    assert (tmp_path / "report.json").read_bytes() == (root / "report.json").read_bytes()
    # the copy the miss wrote serves a whole split, bit for bit
    want, got = load_packed(root / "data" / "train.jsonl")[0], load_packed(train)[0]
    for name in SPLIT[1:]:
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    assert copies.read_copy(train, 4, copies.file_digest(train), {"indptr": (np.int64, 1)}) is not None


def test_groups_from_another_label_count_is_still_a_dimension_mismatch(stages, tmp_path, capsys):
    root, _, _ = stages
    other = tmp_path / "other.jsonl"
    other.write_text(json.dumps({"num_classes": 3, "vocab_size": 20}) + "\n"
                     + json.dumps({"id": "o", "features": {"1": 1.0}, "labels": [2]}) + "\n")
    load_packed(other)  # with its copy, so the label-only read is a hit
    code = main(["eval", "--predictions", str(root / "preds.jsonl"), "--gold", str(root / "data" / "test.jsonl"),
                 "--num-groups", "2", "--groups-from", str(other)])
    assert code == EXIT_DIMENSION
    assert f"--groups-from {other} (C=3) does not match" in capsys.readouterr().err


def test_build_store_writes_the_bytes_of_the_library_store(stages, tmp_path):
    root, _, _ = stages
    state = load_checkpoint(root / "run" / "model.json")
    store = build(state, load_packed(root / "data" / "train.jsonl")[0])
    save(store, tmp_path / "store.bin")
    assert (tmp_path / "store.bin").read_bytes() == (root / "store.bin").read_bytes()


# -- the datastore with its search matrix formed on first use ---------------------------


def random_store(seed, count=30, dim=5, num_classes=3):
    rng = np.random.default_rng(seed)
    return Datastore(keys=rng.normal(size=(count, dim)), values=rng.integers(0, 2, (count, num_classes)))


@pytest.mark.parametrize("count", [1, 2, 37])
def test_the_search_matrix_formed_on_first_use_is_the_one_formed_at_construction(count):
    store = random_store(count, count=count)
    keys = store.keys.copy()
    assert "unit_t" not in vars(store)
    got = store.unit_t
    assert store.unit_t is got  # formed once, then kept
    want = unit_columns(keys)
    assert got.dtype == np.float32 and got.flags.c_contiguous and got.tobytes() == want.tobytes()
    assert store.keys.tobytes() == keys.tobytes()  # formed beside the keys, not in them


def test_a_built_store_and_its_saved_and_loaded_copy_search_alike(tmp_path):
    store = random_store(5, count=60)
    save(store, tmp_path / "store.bin")
    loaded = load(tmp_path / "store.bin")
    assert "unit_t" not in vars(loaded) and "unit_t" not in vars(store)
    queries = np.random.default_rng(6).normal(size=(9, 5))
    for k in (1, 7, 60):
        for got, want in zip(search(store, queries, k), search(loaded, queries, k)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert store.unit_t.tobytes() == loaded.unit_t.tobytes()


@pytest.mark.parametrize("bad", [0.0, np.nan, np.inf, -np.inf])
def test_a_bad_key_fails_at_construction_and_at_load_not_at_the_first_search(tmp_path, bad):
    keys = np.random.default_rng(7).normal(size=(6, 4)).astype(np.float32)
    keys[2] = bad
    message = "1 key(s) with zero norm or NaN/inf entries (first at index 2); cosine similarity is undefined"
    with pytest.raises(InvalidKeyError) as made:
        Datastore(keys=keys, values=np.zeros((6, 2), dtype=np.int8))
    assert str(made.value) == message
    path = tmp_path / "store.bin"
    good = Datastore(keys=np.ones((6, 4)), values=np.zeros((6, 2), dtype=np.int8))
    save(good, path)
    blob = bytearray(path.read_bytes())
    blob[22 : 22 + keys.nbytes] = keys.astype("<f4").tobytes()
    path.write_bytes(bytes(blob))
    with pytest.raises(DatastoreFormatError) as loaded:
        load(path)
    assert str(loaded.value) == f"{path}: {message}"


@pytest.fixture
def zero_model(stages, tmp_path):
    """The trained checkpoint with w_emb = b_emb = 0: every embedding is zero."""
    root, _, _ = stages
    payload = json.loads((root / "run" / "model.json").read_text())
    payload["params"]["w_emb"] = [[0.0] * len(row) for row in payload["params"]["w_emb"]]
    payload["params"]["b_emb"] = [0.0] * len(payload["params"]["b_emb"])
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(payload))
    return path


def test_the_cli_exit_codes_of_a_bad_key_stay(stages, zero_model, tmp_path, capsys):
    root, config, _ = stages
    # a zero embedding for every training row: exit 5 from build-store
    zero = zero_model
    code = main(["--config", str(config), "build-store", "--checkpoint", str(zero),
                 "--train-file", str(root / "data" / "train.jsonl"), "--out", str(tmp_path / "s.bin")])
    assert code == EXIT_NON_FINITE and "with zero norm or NaN/inf entries (first at index 0)" in capsys.readouterr().err
    # a NaN key in a store file: exit 3 from predict
    bad = tmp_path / "bad.bin"
    blob = bytearray((root / "store.bin").read_bytes())
    blob[22 + 4 * 4 : 22 + 4 * 5] = np.float32(np.nan).tobytes()  # key 1, entry 0
    bad.write_bytes(bytes(blob))
    code = main(["--config", str(config), "predict", "--checkpoint", str(root / "run" / "model.json"),
                 "--store", str(bad), "--test-file", str(root / "data" / "test.jsonl"), "--out", str(tmp_path / "p")])
    assert code == EXIT_FORMAT and "(first at index 1)" in capsys.readouterr().err


# -- classifier_only never retrieves ------------------------------------------------------


def test_classifier_only_serves_a_zero_norm_query_with_or_without_a_store(stages, zero_model):
    root, _, _ = stages
    state = load_checkpoint(zero_model)
    store, test = load(root / "store.bin"), load_packed(root / "data" / "test.jsonl")[0]
    cfg = InferenceConfig(mode="classifier_only")
    with_store, without = predict_batch(state, store, test, cfg), predict_batch(state, None, test, cfg)
    for name in ("y_clf", "y_knn", "high_conf_mask", "lam", "y_final", "neighbor_indices", "neighbor_sims"):
        a, b = getattr(with_store, name), getattr(without, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
    assert with_store.neighbor_indices.shape == (len(test), 0)


def test_cli_classifier_only_with_a_store_writes_the_records_without_one(stages, zero_model, tmp_path):
    root, config, _ = stages
    common = ["--config", str(config), "predict", "--checkpoint", str(zero_model),
              "--test-file", str(root / "data" / "test.jsonl"), "--mode", "classifier_only"]
    assert main([*common, "--store", str(root / "store.bin"), "--out", str(tmp_path / "a.jsonl")]) == EXIT_OK
    assert main([*common, "--out", str(tmp_path / "b.jsonl")]) == EXIT_OK
    assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()
    assert all(json.loads(line)["neighbors"] == [] for line in (tmp_path / "a.jsonl").read_text().splitlines())
