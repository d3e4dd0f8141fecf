"""End-to-end command-line workflow on a small configuration."""
import dataclasses
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

import numpy as np

import knnmlc
from knnmlc import cli
from knnmlc.cli import (
    EXIT_DIMENSION,
    EXIT_FORMAT,
    EXIT_MISSING_FILE,
    EXIT_NON_FINITE,
    EXIT_OK,
    main,
)
from knnmlc.data import DatasetConfig, load_jsonl
from knnmlc.encoder import EncoderConfig
from knnmlc.inference import InferenceConfig
from knnmlc.training import TrainConfig

SMALL_CONFIG = {
    "dataset": {
        "num_classes": 6,
        "num_clusters": 2,
        "train_size": 150,
        "valid_size": 40,
        "test_size": 40,
        "vocab_size": 40,
        "seed": 9,
    },
    "encoder": {"hidden_dim": 10, "embed_dim": 6, "dropout_rate": 0.1},
    "train": {"batch_size": 16, "learning_rate": 0.005, "max_iters": 40, "alpha": 0.3, "seed": 9},
    "inference": {"k": 10, "gamma": 0.7},
}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    config = root / "config.json"
    config.write_text(json.dumps(SMALL_CONFIG))
    return root, str(config)


@pytest.fixture(scope="module")
def pipeline_artifacts(workspace):
    """Run the whole workflow once; downstream tests inspect the artifacts."""
    root, config = workspace
    data_dir = root / "data"
    run_dir = root / "run"
    store = root / "store.bin"
    preds = root / "preds.jsonl"
    assert main(["--config", config, "gen-data", "--out", str(data_dir)]) == EXIT_OK
    assert main(["--config", config, "train", "--data", str(data_dir), "--out", str(run_dir)]) == EXIT_OK
    assert main([
        "--config", config, "build-store",
        "--checkpoint", str(run_dir / "model.json"),
        "--train-file", str(data_dir / "train.jsonl"),
        "--out", str(store),
    ]) == EXIT_OK
    assert main([
        "--config", config, "predict",
        "--checkpoint", str(run_dir / "model.json"),
        "--store", str(store),
        "--test-file", str(data_dir / "test.jsonl"),
        "--out", str(preds),
    ]) == EXIT_OK
    return {"root": root, "config": config, "data": data_dir, "run": run_dir, "store": store, "preds": preds}


class TestPipeline:
    def test_dataset_files_written(self, pipeline_artifacts):
        data_dir = pipeline_artifacts["data"]
        for name in ("train", "valid", "test"):
            samples, C, V = load_jsonl(data_dir / f"{name}.jsonl")
            assert C == 6 and V == 40
            assert len(samples) == SMALL_CONFIG["dataset"][f"{name}_size"]

    def test_train_outputs(self, pipeline_artifacts):
        run_dir = pipeline_artifacts["run"]
        assert (run_dir / "model.json").exists()
        history = [json.loads(l) for l in (run_dir / "history.jsonl").read_text().splitlines()]
        assert len(history) == SMALL_CONFIG["train"]["max_iters"]
        assert all("total" in r for r in history)

    def test_predictions_format(self, pipeline_artifacts):
        lines = pipeline_artifacts["preds"].read_text().splitlines()
        assert len(lines) == 40
        rec = json.loads(lines[0])
        assert set(rec) >= {"id", "y_clf", "y_knn", "lambda", "y_final", "y_pred", "neighbors"}
        assert len(rec["y_final"]) == 6
        assert len(rec["neighbors"]) == 10
        assert 0.0 <= rec["lambda"] <= 1.0

    def test_eval_runs_and_reports(self, pipeline_artifacts, capsys):
        a = pipeline_artifacts
        out_json = a["root"] / "metrics.json"
        code = main([
            "eval",
            "--predictions", str(a["preds"]),
            "--gold", str(a["data"] / "test.jsonl"),
            "--num-groups", "3",
            "--groups-from", str(a["data"] / "train.jsonl"),
            "--out", str(out_json),
        ])
        assert code == EXIT_OK
        captured = capsys.readouterr().out
        assert "micro_f1" in captured
        report = json.loads(out_json.read_text())
        assert 0.0 <= report["micro_f1"] <= 1.0
        assert set(report["groups"]) == {"0", "1", "2"}

    def test_manifests_record_artifacts(self, pipeline_artifacts):
        a = pipeline_artifacts
        manifest = json.loads((a["data"] / "manifest-gen-data.json").read_text())
        assert manifest["command"] == "gen-data"
        assert set(manifest["artifacts"]) == {"train", "valid", "test"}
        assert "created" in manifest

    def test_train_manifest_records_timings_and_environment(self, pipeline_artifacts):
        a = pipeline_artifacts
        manifest = json.loads((a["run"] / "manifest-train.json").read_text())
        timings, environment = manifest["timings"], manifest["environment"]
        assert set(timings) == {"load_s", "run_s", "validate_s", "save_s", "iterations_per_s"}
        assert all(isinstance(v, float) and v >= 0.0 for v in timings.values())
        iterations = len((a["run"] / "history.jsonl").read_text().splitlines())
        assert timings["iterations_per_s"] == iterations / timings["run_s"]
        # the run validated, and its validation passes are part of run_s
        assert 0.0 < timings["validate_s"] < timings["run_s"]
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        assert environment == {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": {"name": blas["name"], "version": blas["version"], "core": cli._blas_core()},
            "knnmlc": knnmlc.__version__,
        }
        # gen-data's times its draw and its files (build-store, predict and eval: below)
        gen_data = json.loads((a["data"] / "manifest-gen-data.json").read_text())
        assert set(gen_data["timings"]) == {"run_s", "save_s"}
        assert all(isinstance(v, float) and v >= 0.0 for v in gen_data["timings"].values())
        assert gen_data["environment"] == environment
        # the budget in passes over the training split, and the dtype trained in
        train = SMALL_CONFIG["train"]
        rows = SMALL_CONFIG["dataset"]["train_size"]
        assert manifest["epochs"] == iterations * min(train["batch_size"], rows) / rows
        assert manifest["train_dtype"] == "float32"
        # and docs/formats.md names every key
        formats = (Path(__file__).resolve().parents[1] / "docs" / "formats.md").read_text()
        for section, keys in (("timings", timings), ("environment", environment)):
            for key in keys:
                assert f"`{section}.{key}`" in formats
        assert "| `epochs`" in formats and "| `train_dtype`" in formats

    def test_store_predict_and_eval_manifests_record_stage_timings_and_environment(self, pipeline_artifacts, tmp_path):
        a = pipeline_artifacts
        report = tmp_path / "report.json"
        assert main(["eval", "--predictions", str(a["preds"]), "--gold", str(a["data"] / "test.jsonl"),
                     "--out", str(report)]) == EXIT_OK
        train = json.loads((a["run"] / "manifest-train.json").read_text())
        for command, directory in (("build-store", a["root"]), ("predict", a["root"]), ("eval", tmp_path)):
            manifest = json.loads((directory / f"manifest-{command}.json").read_text())
            assert manifest["command"] == command
            assert set(manifest["timings"]) == {"load_s", "run_s", "save_s"}, command
            assert all(isinstance(v, float) and v >= 0.0 for v in manifest["timings"].values()), command
            assert manifest["environment"] == train["environment"], command
        eval_manifest = json.loads((tmp_path / "manifest-eval.json").read_text())
        assert eval_manifest["artifacts"] == {"report": str(report)}

    def test_gen_data_is_reproducible_byte_for_byte(self, workspace):
        root, config = workspace
        d1, d2 = root / "re1", root / "re2"
        assert main(["--config", config, "gen-data", "--out", str(d1)]) == EXIT_OK
        assert main(["--config", config, "gen-data", "--out", str(d2)]) == EXIT_OK
        for name in ("train.jsonl", "valid.jsonl", "test.jsonl"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_train_is_reproducible_byte_for_byte(self, pipeline_artifacts):
        a = pipeline_artifacts
        r1, r2 = a["root"] / "rerun1", a["root"] / "rerun2"
        for out in (r1, r2):
            assert main(["--config", a["config"], "train", "--data", str(a["data"]), "--out", str(out)]) == EXIT_OK
        assert (r1 / "model.json").read_bytes() == (r2 / "model.json").read_bytes()
        assert (r1 / "history.jsonl").read_bytes() == (r2 / "history.jsonl").read_bytes()

    def test_classifier_only_predict_without_store(self, pipeline_artifacts):
        a = pipeline_artifacts
        out = a["root"] / "clf_preds.jsonl"
        code = main([
            "--config", a["config"], "predict",
            "--checkpoint", str(a["run"] / "model.json"),
            "--test-file", str(a["data"] / "test.jsonl"),
            "--mode", "classifier_only",
            "--out", str(out),
        ])
        assert code == EXIT_OK
        rec = json.loads(out.read_text().splitlines()[0])
        assert rec["lambda"] == 0.0


class TestEvalEdgeCases:
    def test_perfect_predictions_score_one(self, pipeline_artifacts, capsys):
        a = pipeline_artifacts
        gold_path = a["data"] / "test.jsonl"
        samples, C, _ = load_jsonl(gold_path)
        perfect = a["root"] / "perfect.jsonl"
        with open(perfect, "w") as fh:
            for sample_id, labels in zip(samples.ids(), samples.labels.tolist()):
                fh.write(json.dumps({"id": sample_id, "y_pred": labels}) + "\n")
        out_json = a["root"] / "perfect_metrics.json"
        code = main(["eval", "--predictions", str(perfect), "--gold", str(gold_path), "--out", str(out_json)])
        assert code == EXIT_OK
        report = json.loads(out_json.read_text())
        assert report["micro_f1"] == 1.0
        assert report["macro_f1"] == 1.0

    @pytest.mark.parametrize(
        "bad",
        [
            {"y_pred": [2, 0, 0, 0, 0, 0]},
            {"y_pred": [0.9, 0, 0, 0, 0, 0]},
            {"y_pred": [-1, 0, 0, 0, 0, 0]},
            {"y_pred": [1.0, 0, 0, 0, 0, 0]},
            {"y_pred": [True, 0, 0, 0, 0, 0]},
            {"y_pred": ["1", 0, 0, 0, 0, 0]},
            {"y_pred": [0, 0, 0, 0, 0]},
            {"y_pred": "100000"},
            {"y_pred": None},
            {},
            [1, 0, 0, 0, 0, 0],
        ],
    )
    def test_decisions_other_than_c_zeros_and_ones_rejected(self, pipeline_artifacts, tmp_path, capsys, bad):
        a = pipeline_artifacts
        gold_path = a["data"] / "test.jsonl"
        samples, _, _ = load_jsonl(gold_path)
        records = [{"id": i, "y_pred": labels} for i, labels in zip(samples.ids(), samples.labels.tolist())]
        records[3] = bad
        preds = tmp_path / "preds.jsonl"
        preds.write_text("".join(json.dumps(r) + "\n" for r in records))
        assert main(["eval", "--predictions", str(preds), "--gold", str(gold_path)]) == EXIT_FORMAT
        assert "record 3: y_pred must be a list of 6 values in {0, 1}" in capsys.readouterr().err

    def test_count_mismatch_rejected(self, pipeline_artifacts):
        a = pipeline_artifacts
        short = a["root"] / "short.jsonl"
        short.write_text(json.dumps({"id": "x", "y_pred": [0] * 6}) + "\n")
        code = main(["eval", "--predictions", str(short), "--gold", str(a["data"] / "test.jsonl")])
        assert code == EXIT_FORMAT


# values of another kind for a setting of each annotated kind, and the kind
# the error names
WRONG_KINDS = {"int": [2.5, True, "2"], "float": [True, "0.5"], "str": [1]}
KIND_NAMES = {"int": "an integer", "float": "a finite number", "str": "a string"}


def wrong_kind_cases():
    """One case per settable field of the four config classes and wrong kind;
    the encoder's input_dim and num_classes come from the data."""
    classes = {"dataset": DatasetConfig, "encoder": EncoderConfig, "train": TrainConfig, "inference": InferenceConfig}
    for section, cls in classes.items():
        for f in dataclasses.fields(cls):
            if section == "encoder" and f.name in ("input_dim", "num_classes"):
                continue
            for value in WRONG_KINDS[f.type]:
                case_id = f"{section}.{f.name}={json.dumps(value)}"
                yield pytest.param(section, f.name, KIND_NAMES[f.type], value, id=case_id)


class TestErrorPaths:
    @pytest.mark.parametrize("section,key,kind,value", list(wrong_kind_cases()))
    def test_a_setting_of_the_wrong_kind_fails_before_the_data_is_read(self, tmp_path, capsys, section, key, kind,
                                                                         value):
        # the data directory does not exist: the config error must come first
        path = tmp_path / "config.json"
        path.write_text(json.dumps({section: {key: value}}))
        code = main(["--config", str(path), "train", "--data", str(tmp_path / "no_data"), "--out", str(tmp_path / "m")])
        assert code == EXIT_FORMAT
        assert f":{section}: {key} must be {kind}, got {value!r}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field,value",
        [("input_dim", 40.0), ("hidden_dim", 10.0), ("embed_dim", 12.0), ("num_classes", 6.0),
         ("dropout_rate", "0.1"), ("init_seed", 2.9)],
    )
    def test_a_checkpoint_value_of_the_wrong_kind_exit_code(self, pipeline_artifacts, tmp_path, capsys, field, value):
        # nothing is rounded or converted: 12.0 is not the integer 12
        a = pipeline_artifacts
        payload = json.loads((a["run"] / "model.json").read_text())
        if field in payload["dims"]:
            payload["dims"][field] = value
        else:
            payload[field] = value
        model = tmp_path / "model.json"
        model.write_text(json.dumps(payload))
        out = tmp_path / "p.jsonl"
        code = main([
            "--config", a["config"], "predict", "--checkpoint", str(model), "--store", str(a["store"]),
            "--test-file", str(a["data"] / "test.jsonl"), "--out", str(out),
        ])
        assert code == EXIT_FORMAT
        assert f"malformed checkpoint ({field} must be" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_file_exit_code(self, workspace):
        root, config = workspace
        code = main([
            "--config", config, "build-store",
            "--checkpoint", str(root / "nope.json"),
            "--train-file", str(root / "nope.jsonl"),
            "--out", str(root / "s.bin"),
        ])
        assert code == EXIT_MISSING_FILE

    def test_malformed_config_exit_code(self, workspace, tmp_path):
        root, _ = workspace
        bad = tmp_path / "bad.json"
        bad.write_text('{"train": {"no_such_key": 1}}')
        code = main(["--config", str(bad), "gen-data", "--out", str(tmp_path / "d")])
        assert code == EXIT_FORMAT

    def test_mistyped_config_value_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"train": {"batch_size": "32"}}')
        code = main(["--config", str(bad), "gen-data", "--out", str(tmp_path / "d")])
        assert code == EXIT_FORMAT
        assert ":train:" in capsys.readouterr().err

    @pytest.mark.parametrize("section", ["dataset", "train"])
    def test_a_negative_config_seed_fails_by_name(self, tmp_path, capsys, section):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({section: {"seed": -1}}))
        assert main(["--config", str(bad), "gen-data", "--out", str(tmp_path / "d")]) == EXIT_FORMAT
        assert f":{section}: seed must be >= 0, got -1" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("command", ["gen-data", "train", "ablate", "gradcheck"])
    def test_a_negative_seed_argument_fails_by_name(self, pipeline_artifacts, tmp_path, capsys, command):
        a = pipeline_artifacts
        argv = {
            "gen-data": ["gen-data", "--out", str(tmp_path / "d")],
            "train": ["train", "--data", str(a["data"]), "--out", str(tmp_path / "r")],
            "ablate": ["ablate", "--data", str(a["data"])],
            "gradcheck": ["gradcheck", "--configs", "1"],
        }[command]
        assert main(["--config", a["config"], "--seed", "-1", *argv]) == EXIT_FORMAT
        out, err = capsys.readouterr()
        assert "--seed must be >= 0, got -1" in err and out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("fraction", ["0", "-0.5", "1.5", "nan"])
    def test_a_store_fraction_outside_the_unit_interval_fails_by_name(self, pipeline_artifacts, tmp_path, capsys,
                                                                       fraction):
        a = pipeline_artifacts
        out = tmp_path / "s.bin"
        code = main([
            "build-store", "--checkpoint", str(a["run"] / "model.json"),
            "--train-file", str(a["data"] / "train.jsonl"), "--out", str(out), "--fraction", fraction,
        ])
        assert code == EXIT_FORMAT
        assert f"--fraction must lie in (0, 1], got {float(fraction)}" in capsys.readouterr().err
        assert not out.exists()

    def test_a_negative_group_count_fails_by_name(self, pipeline_artifacts, capsys):
        a = pipeline_artifacts
        argv = ["eval", "--predictions", str(a["preds"]), "--gold", str(a["data"] / "test.jsonl"), "--num-groups", "-1"]
        assert main(argv) == EXIT_FORMAT
        out, err = capsys.readouterr()
        assert "--num-groups must be >= 0, got -1" in err and out == ""

    def test_groups_from_without_a_group_count_fails_by_name(self, pipeline_artifacts, tmp_path, capsys):
        # without --num-groups there is no group report, so --groups-from would be ignored
        a = pipeline_artifacts
        train = str(a["data"] / "train.jsonl")
        report = tmp_path / "report.json"
        argv = ["eval", "--predictions", str(a["preds"]), "--gold", str(a["data"] / "test.jsonl"), "--groups-from", train,
                "--out", str(report)]
        assert main(argv) == EXIT_FORMAT
        out, err = capsys.readouterr()
        assert f"--groups-from {train} needs --num-groups >= 1" in err and out == ""
        assert not report.exists()

    def test_unparseable_config_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        code = main(["--config", str(bad), "gen-data", "--out", str(tmp_path / "d")])
        assert code == EXIT_FORMAT

    def test_dimension_mismatch_exit_code(self, pipeline_artifacts, tmp_path):
        a = pipeline_artifacts
        # dataset with a different vocabulary size than the checkpoint
        other_cfg = tmp_path / "other.json"
        cfg = json.loads(json.dumps(SMALL_CONFIG))
        cfg["dataset"]["vocab_size"] = 55
        other_cfg.write_text(json.dumps(cfg))
        other_data = tmp_path / "other_data"
        assert main(["--config", str(other_cfg), "gen-data", "--out", str(other_data)]) == EXIT_OK
        code = main([
            "--config", a["config"], "build-store",
            "--checkpoint", str(a["run"] / "model.json"),
            "--train-file", str(other_data / "train.jsonl"),
            "--out", str(tmp_path / "s.bin"),
        ])
        assert code == EXIT_DIMENSION

    @pytest.mark.parametrize("header", [{"num_classes": 6, "vocab_size": 41}, {"num_classes": 7, "vocab_size": 40}])
    def test_train_rejects_a_valid_split_with_another_header(self, pipeline_artifacts, tmp_path, monkeypatch, capsys, header):
        a = pipeline_artifacts
        d = tmp_path / "data"
        d.mkdir()
        (d / "train.jsonl").write_bytes((a["data"] / "train.jsonl").read_bytes())
        body = (a["data"] / "valid.jsonl").read_text().split("\n", 1)[1]
        (d / "valid.jsonl").write_text(json.dumps(header) + "\n" + body)

        def no_training(*args, **kwargs):
            raise AssertionError("training started")

        monkeypatch.setattr(cli, "Trainer", no_training)
        code = main(["--config", a["config"], "train", "--data", str(d), "--out", str(tmp_path / "m")])
        assert code == EXIT_DIMENSION
        err = capsys.readouterr().err
        assert "valid.jsonl (vocab={vocab_size}, C={num_classes})".format(**header) in err
        assert "train.jsonl (vocab=40, C=6)" in err
        assert not (tmp_path / "m").exists()

    def test_ablate_rejects_a_test_split_with_another_header(self, pipeline_artifacts, tmp_path, capsys):
        a = pipeline_artifacts
        d = tmp_path / "data"
        d.mkdir()
        for name in ("train.jsonl", "valid.jsonl"):
            (d / name).write_bytes((a["data"] / name).read_bytes())
        body = (a["data"] / "test.jsonl").read_text().split("\n", 1)[1]
        (d / "test.jsonl").write_text(json.dumps({"num_classes": 7, "vocab_size": 40}) + "\n" + body)
        assert main(["--config", a["config"], "ablate", "--data", str(d)]) == EXIT_DIMENSION
        assert "test.jsonl (vocab=40, C=7)" in capsys.readouterr().err

    def test_eval_rejects_groups_from_another_label_count(self, pipeline_artifacts, tmp_path, capsys):
        a = pipeline_artifacts
        lines = (a["data"] / "train.jsonl").read_text().split("\n", 1)
        other = tmp_path / "train13.jsonl"
        other.write_text(json.dumps({"num_classes": 7, "vocab_size": 40}) + "\n" + lines[1])
        code = main(["eval", "--predictions", str(a["preds"]), "--gold", str(a["data"] / "test.jsonl"),
                     "--num-groups", "4", "--groups-from", str(other)])
        assert code == EXIT_DIMENSION
        err = capsys.readouterr().err
        assert "C=7" in err and "C=6" in err

    def test_corrupt_datastore_exit_code(self, pipeline_artifacts, tmp_path):
        a = pipeline_artifacts
        corrupt = tmp_path / "corrupt.bin"
        blob = bytearray((a["store"]).read_bytes())
        blob[0] ^= 0xFF
        corrupt.write_bytes(bytes(blob))
        code = main([
            "--config", a["config"], "predict",
            "--checkpoint", str(a["run"] / "model.json"),
            "--store", str(corrupt),
            "--test-file", str(a["data"] / "test.jsonl"),
            "--out", str(tmp_path / "p.jsonl"),
        ])
        assert code == EXIT_FORMAT


    def test_zero_key_datastore_exit_code(self, pipeline_artifacts, tmp_path):
        # a well-formed file whose key row 3 is all zeros fails at load
        a = pipeline_artifacts
        zero = tmp_path / "zero.bin"
        blob = bytearray((a["store"]).read_bytes())
        row_bytes = 4 * SMALL_CONFIG["encoder"]["embed_dim"]
        blob[22 + 3 * row_bytes : 22 + 4 * row_bytes] = bytes(row_bytes)
        zero.write_bytes(bytes(blob))
        code = main([
            "--config", a["config"], "predict",
            "--checkpoint", str(a["run"] / "model.json"),
            "--store", str(zero),
            "--test-file", str(a["data"] / "test.jsonl"),
            "--out", str(tmp_path / "p.jsonl"),
        ])
        assert code == EXIT_FORMAT

    def test_empty_datastore_exit_code(self, pipeline_artifacts, tmp_path, capsys):
        # a header with count 0 and nothing after it is consistent, but no
        # store is built from an empty training set
        a = pipeline_artifacts
        empty = tmp_path / "empty.bin"
        header = bytearray((a["store"]).read_bytes()[:22])
        header[14:22] = bytes(8)
        empty.write_bytes(bytes(header))
        code = main([
            "--config", a["config"], "predict",
            "--checkpoint", str(a["run"] / "model.json"),
            "--store", str(empty),
            "--test-file", str(a["data"] / "test.jsonl"),
            "--out", str(tmp_path / "p.jsonl"),
        ])
        assert code == EXIT_FORMAT
        assert "no entries" in capsys.readouterr().err
        assert not (tmp_path / "p.jsonl").exists()

    @pytest.mark.parametrize("command", ["predict", "build-store"])
    def test_non_finite_checkpoint_exit_code(self, pipeline_artifacts, tmp_path, capsys, command):
        # json reads NaN, so the checkpoint loader has to reject it itself
        a = pipeline_artifacts
        payload = json.loads((a["run"] / "model.json").read_text())
        payload["params"]["w_clf"][0][0] = float("nan")
        model = tmp_path / "model.json"
        model.write_text(json.dumps(payload))
        out = tmp_path / "out"
        if command == "predict":
            args = ["--store", str(a["store"]), "--test-file", str(a["data"] / "test.jsonl"), "--out", str(out)]
        else:
            args = ["--train-file", str(a["data"] / "train.jsonl"), "--out", str(out)]
        code = main(["--config", a["config"], command, "--checkpoint", str(model), *args])
        assert code == EXIT_FORMAT
        assert "w_clf" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("init_seed", [None, "x"])
    def test_malformed_init_seed_exit_code(self, pipeline_artifacts, tmp_path, capsys, init_seed):
        a = pipeline_artifacts
        payload = json.loads((a["run"] / "model.json").read_text())
        payload["init_seed"] = init_seed
        model = tmp_path / "model.json"
        model.write_text(json.dumps(payload))
        out = tmp_path / "p.jsonl"
        code = main([
            "--config", a["config"], "predict", "--checkpoint", str(model), "--store", str(a["store"]),
            "--test-file", str(a["data"] / "test.jsonl"), "--out", str(out),
        ])
        assert code == EXIT_FORMAT
        assert "malformed checkpoint" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "ablate"])
    @pytest.mark.parametrize("section", [{"activation": "sigmoid"}, {"hidden_dim": "abc"}, {"embed_dim": None}, 5])
    def test_bad_encoder_section_fails_before_the_data_is_read(self, tmp_path, capsys, command, section):
        # the data directory does not exist: a config error must come first
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"encoder": section}))
        args = ["--out", str(tmp_path / "m")] if command == "train" else []
        code = main(["--config", str(path), command, "--data", str(tmp_path / "no_data"), *args])
        assert code == EXIT_FORMAT
        assert ":encoder:" in capsys.readouterr().err

    def test_train_dropout_rate_is_an_unknown_key(self, workspace, tmp_path, capsys):
        # the dropout rate is set once, in the encoder section
        root, _ = workspace
        cfg = json.loads(json.dumps(SMALL_CONFIG))
        cfg["train"]["dropout_rate"] = 0.3
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        code = main(["--config", str(path), "train", "--data", str(root / "data"), "--out", str(tmp_path / "m")])
        assert code == EXIT_FORMAT
        err = capsys.readouterr().err
        assert "unknown keys ['dropout_rate']" in err and "known keys are" in err

    def test_non_finite_training_loss_exit_code(self, pipeline_artifacts, tmp_path, monkeypatch, capsys):
        a = pipeline_artifacts
        real_init = cli.init_state

        def poisoned_init(config, seed=0):
            state = real_init(config, seed=seed)
            state.w_clf[0, 0] = np.nan
            return state

        monkeypatch.setattr(cli, "init_state", poisoned_init)
        code = main(["--config", a["config"], "train", "--data", str(a["data"]), "--out", str(tmp_path / "m")])
        assert code == EXIT_NON_FINITE
        assert "iteration 1" in capsys.readouterr().err
        assert not (tmp_path / "m" / "model.json").exists()

    @pytest.mark.parametrize(
        "case,mode,message",
        [
            ("inf embedding", "classifier_only", "row 0 (id 'test-00000'): the classifier probabilities hold NaN"),
            # retrieval checks the embedding first
            ("inf embedding", "denn", "row 0 (id 'test-00000'): cannot retrieve with a query that holds NaN or inf"),
            ("overflowing logits", "denn", "row 0 (id 'test-00000'): the classifier probabilities hold NaN"),
            ("overflowing query norm", "denn", "row 0 (id 'test-00000'): cannot retrieve with a query that holds NaN or inf"),
            # no unit query: its similarities would be 0/0
            ("zero embedding", "denn", "row 0 (id 'test-00000'): cannot retrieve with a zero-norm query"),
        ],
        ids=[
            "inf-embedding-classifier_only", "inf-embedding-denn", "overflowing-logits-denn", "overflowing-norm-denn",
            "zero-embedding-denn",
        ],
    )
    def test_non_finite_prediction_exit_code(self, pipeline_artifacts, tmp_path, capsys, case, mode, message):
        # finite parameters whose arithmetic overflows, with no warning escaping
        a = pipeline_artifacts
        payload = json.loads((a["run"] / "model.json").read_text())
        params = payload["params"]
        width = len(params["b_emb"])
        if case == "zero embedding":
            params["w_emb"] = [[0.0] * len(row) for row in params["w_emb"]]
            params["b_emb"] = [0.0] * width
        elif case == "inf embedding":
            # every hidden unit tanh(1000) = 1, every embedding entry
            # 10 * 1e308 = inf, every logit inf - inf = NaN
            params["b_in"] = [1000.0] * len(params["b_in"])
            params["w_emb"] = [[1e308] * len(row) for row in params["w_emb"]]
            params["w_clf"] = [[1.0, -1.0] + [0.0] * (width - 2) for _ in params["w_clf"]]
        else:
            # every embedding entry is b_emb: 1e150 has a finite norm and
            # overflowing logits 1e450 - 1e450; 1e200 has an overflowing norm
            # and logits of 0
            big = 1e150 if case == "overflowing logits" else 1e200
            params["w_emb"] = [[0.0] * len(row) for row in params["w_emb"]]
            params["b_emb"] = [big] * width
            w = [1e300, -1e300] if case == "overflowing logits" else [0.0, 0.0]
            params["w_clf"] = [w + [0.0] * (width - 2) for _ in params["w_clf"]]
        model = tmp_path / "model.json"
        model.write_text(json.dumps(payload))
        out = tmp_path / "p.jsonl"
        store = ["--store", str(a["store"])] if mode != "classifier_only" else []
        code = main([
            "--config", a["config"], "predict", "--checkpoint", str(model), *store, "--mode", mode,
            "--test-file", str(a["data"] / "test.jsonl"), "--out", str(out),
        ])
        assert code == EXIT_NON_FINITE
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestGradcheckCommand:
    def test_random_suite_passes(self, capsys):
        code = main(["gradcheck", "--configs", "3"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "max relative error" in out and "max float32 gap" in out

    def test_fixed_dims(self, capsys):
        code = main(["--seed", "5", "gradcheck", "--dims", "8,5,4,3,4"])
        assert code == EXIT_OK
        assert "pass" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["--dims", "5,3,2,2,0"], "--dims values must all be >= 1, got '5,3,2,2,0'"),
            (["--dims", "5,3,2,2,-3"], "--dims values must all be >= 1, got '5,3,2,2,-3'"),
            (["--dims", "0,3,2,2,2"], "--dims values must all be >= 1, got '0,3,2,2,2'"),
            (["--step", "0"], "--step must be finite and > 0, got 0.0"),
            (["--step", "nan"], "--step must be finite and > 0, got nan"),
            (["--step", "inf"], "--step must be finite and > 0, got inf"),
            (["--configs", "0"], "--configs must be >= 1, got 0"),
            (["--configs", "-3"], "--configs must be >= 1, got -3"),
        ],
        ids=["batch 0", "batch -3", "input 0", "step 0", "step nan", "step inf", "configs 0", "configs -3"],
    )
    def test_a_bad_argument_fails_by_name_before_any_check(self, argv, message, capsys):
        assert main(["gradcheck", *argv]) == EXIT_FORMAT
        out, err = capsys.readouterr()
        assert message in err and out == ""

    def test_fixed_dims_report_is_pinned(self, capsys):
        # the report of the rows and masks gradcheck.random_views draws for these dims
        assert main(["--seed", "0", "gradcheck", "--dims", "7,5,3,4,3"]) == EXIT_OK
        assert capsys.readouterr().out == (
            "config   0: pass  max_rel_error=1.238e-08 float32_gap=2.539e-06 worst=b_in params=74\n"
            "PASS: 1 configurations, max relative error 1.238e-08, max float32 gap 2.539e-06\n"
        )


def test_python_dash_m_runs_the_cli():
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    result = subprocess.run(
        [sys.executable, "-m", "knnmlc", "--help"], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("usage: knnmlc") and "gen-data" in result.stdout


def _openblas_on_x86_64() -> bool:
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return platform.machine().lower() in ("x86_64", "amd64") and "openblas" in str(blas.get("name", "")).lower()


@pytest.mark.skipif(not _openblas_on_x86_64(), reason="OPENBLAS_CORETYPE selects a kernel only in OpenBLAS on x86_64")
def test_store_and_predictions_do_not_depend_on_the_blas_kernel(pipeline_artifacts, tmp_path):
    # build-store and predict from one model, each in a fresh process under the
    # kernel OpenBLAS picks for this CPU and under the oldest x86_64 one it has
    a = pipeline_artifacts
    src = Path(__file__).resolve().parents[1] / "src"
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    outputs = []
    for coretype in (None, "Nehalem"):
        env = base if coretype is None else {**base, "OPENBLAS_CORETYPE": coretype}
        out = tmp_path / (coretype or "default")
        out.mkdir()
        for argv in (
            ["build-store", "--checkpoint", str(a["run"] / "model.json"),
             "--train-file", str(a["data"] / "train.jsonl"), "--out", str(out / "store.bin")],
            ["predict", "--checkpoint", str(a["run"] / "model.json"), "--store", str(out / "store.bin"),
             "--test-file", str(a["data"] / "test.jsonl"), "--out", str(out / "preds.jsonl")],
        ):
            result = subprocess.run([sys.executable, "-m", "knnmlc", "--config", a["config"], *argv],
                                    env=env, capture_output=True, text=True, timeout=120)
            assert result.returncode == 0, result.stderr
        outputs.append([(out / name).read_bytes() for name in ("store.bin", "preds.jsonl")])
        # the manifest names the kernel each process ran
        core = json.loads((out / "manifest-predict.json").read_text())["environment"]["blas"]["core"]
        assert core == (coretype or cli._blas_core())
    assert outputs[0] == outputs[1]


@pytest.mark.skipif(not _openblas_on_x86_64(), reason="the kernel name is read from OpenBLAS")
def test_the_manifest_names_the_blas_kernel_openblas_runs():
    # read from the library numpy loaded, so it is the kernel this process runs
    core = cli._environment()["blas"]["core"]
    assert isinstance(core, str) and core
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "OPENBLAS_CORETYPE": "Nehalem",
           "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", "from knnmlc import cli; print(cli._blas_core())"],
                            env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "Nehalem"


class TestAblateCommand:
    def test_table_covers_modes_variants_and_sweeps(self, pipeline_artifacts, tmp_path, capsys):
        a = pipeline_artifacts
        fast_cfg = json.loads(json.dumps(SMALL_CONFIG))
        fast_cfg["train"]["max_iters"] = 12
        cfg_path = tmp_path / "fast.json"
        cfg_path.write_text(json.dumps(fast_cfg))
        out_dir = tmp_path / "ablation"
        code = main([
            "--config", str(cfg_path), "ablate",
            "--data", str(a["data"]),
            "--out", str(out_dir),
            "--k-values", "5", "10",
            "--gamma-values", "0.6", "0.8",
            "--store-fractions", "0.2", "1.0",
        ])
        assert code == EXIT_OK
        rows = [json.loads(l) for l in (out_dir / "ablation.jsonl").read_text().splitlines()]
        sections = {r["section"] for r in rows}
        assert sections == {"mode", "variant", "sweep_k", "sweep_gamma", "sweep_store_fraction"}
        names_by_section = {}
        for r in rows:
            names_by_section.setdefault(r["section"], set()).add(r["name"])
            assert 0.0 <= r["micro_f1"] <= 1.0
            assert 0.0 <= r["macro_f1"] <= 1.0
        assert names_by_section["mode"] == {"classifier_only", "knn_only", "denn", "fixed_lambda"}
        assert names_by_section["variant"] == {"dcl", "ucl", "scl", "wscl"}
        # each model's budget in passes over the training split, the dtype
        # its models trained in and the environment, as train records them
        manifest = json.loads((out_dir / "manifest-ablate.json").read_text())
        rows = SMALL_CONFIG["dataset"]["train_size"]
        assert manifest["epochs"] == 12 * min(fast_cfg["train"]["batch_size"], rows) / rows
        train = json.loads((a["run"] / "manifest-train.json").read_text())
        assert manifest["train_dtype"] == train["train_dtype"] == "float32"
        assert manifest["environment"] == train["environment"]

    @pytest.mark.parametrize(
        "flag,values,message",
        [
            ("--k-values", ["5", "0"], "--k-values 0: k must be >= 1"),
            ("--gamma-values", ["0.6", "2"], "--gamma-values 2.0: gamma must lie in (0, 1)"),
            ("--store-fractions", ["1.0", "1.5"], "--store-fractions must lie in (0, 1], got 1.5"),
        ],
    )
    def test_a_sweep_value_out_of_range_fails_by_name_before_any_read(self, pipeline_artifacts, tmp_path, monkeypatch,
                                                                     capsys, flag, values, message):
        def no_reading(*args, **kwargs):
            raise AssertionError("the data was read")

        monkeypatch.setattr(cli, "_load_training_splits", no_reading)
        out_dir = tmp_path / "ablation"
        argv = ["--config", pipeline_artifacts["config"], "ablate", "--data", str(tmp_path / "no-data"),
                "--out", str(out_dir), flag, *values]
        assert main(argv) == EXIT_FORMAT
        out, err = capsys.readouterr()
        assert message in err and out == ""
        assert not out_dir.exists()
