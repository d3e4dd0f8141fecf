"""End-to-end command-line workflow on a small configuration."""
import json

import pytest

import numpy as np

from knnmlc import cli
from knnmlc.cli import (
    EXIT_DIMENSION,
    EXIT_FORMAT,
    EXIT_MISSING_FILE,
    EXIT_NON_FINITE,
    EXIT_OK,
    main,
)
from knnmlc.data import load_jsonl

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
            for s in samples:
                fh.write(json.dumps({"id": s.sample_id, "y_pred": s.labels.tolist()}) + "\n")
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
        records = [{"id": s.sample_id, "y_pred": s.labels.tolist()} for s in samples]
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


class TestErrorPaths:
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


class TestGradcheckCommand:
    def test_random_suite_passes(self, capsys):
        code = main(["gradcheck", "--configs", "3"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "max relative error" in out

    def test_fixed_dims(self, capsys):
        code = main(["--seed", "5", "gradcheck", "--dims", "8,5,4,3,4"])
        assert code == EXIT_OK
        assert "pass" in capsys.readouterr().out


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
