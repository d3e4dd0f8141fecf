"""The benchmark's output checks pass on the program's output and fail on a
corrupted record. Not part of the repository's test suite; run with

    python3 -m pytest benchmarks/test_oracle.py -q
"""
import contextlib
import copy
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import oracle  # noqa: E402
import run  # noqa: E402
from knnmlc import cli  # noqa: E402

CONFIG = {
    "dataset": {"num_classes": 6, "num_clusters": 2, "train_size": 150, "valid_size": 40, "test_size": 40, "vocab_size": 40, "seed": 9},
    "encoder": {"hidden_dim": 10, "embed_dim": 6},
    "train": {"batch_size": 16, "learning_rate": 0.005, "max_iters": 40, "alpha": 0.3, "seed": 9},
    "inference": {"k": 10, "tau2": 0.05, "gamma": 0.7, "decision_threshold": 0.5},
}
INF = CONFIG["inference"]


def _cli(*argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main([str(a) for a in argv]) == 0


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("bench")
    cfg = root / "config.json"
    cfg.write_text(json.dumps(CONFIG))
    data, model, store, preds, report = root / "data", root / "model", root / "store.bin", root / "preds.jsonl", root / "report.json"
    _cli("--config", cfg, "gen-data", "--out", data)
    _cli("--config", cfg, "train", "--data", data, "--out", model)
    _cli("--config", cfg, "build-store", "--checkpoint", model / "model.json", "--train-file", data / "train.jsonl", "--out", store)
    _cli("--config", cfg, "predict", "--checkpoint", model / "model.json", "--store", store,
         "--test-file", data / "test.jsonl", "--out", preds)
    _cli("eval", "--predictions", preds, "--gold", data / "test.jsonl", "--out", report)
    num_classes, vocab, test = oracle.read_dataset(data / "test.jsonl")
    _, _, train = oracle.read_dataset(data / "train.jsonl")
    params = oracle.read_checkpoint(model / "model.json")
    keys, labels = oracle.read_store(store)
    emb, y_clf = oracle.forward(params, oracle.dense_features(test, vocab))
    train_emb, _ = oracle.forward(params, oracle.dense_features(train, vocab))
    return {
        "records": oracle.read_predictions(preds),
        "report": json.loads(report.read_text()),
        "gold": oracle.label_matrix(test, num_classes),
        "train_gold": oracle.label_matrix(train, num_classes),
        "emb": emb,
        "y_clf": y_clf,
        "train_emb": train_emb,
        "keys": keys,
        "labels": labels,
    }


def _denn(rec, out):
    return oracle.check_denn(rec, out["labels"], INF["tau2"], INF["gamma"], INF["decision_threshold"])


def _topk(rec, row, out):
    return oracle.check_topk(rec, out["emb"][row], out["keys"], INF["k"])


def test_every_check_passes_on_program_output(outputs):
    for row, rec in enumerate(outputs["records"]):
        assert oracle.check_forward(rec, outputs["emb"][row], outputs["y_clf"][row], outputs["keys"]) == []
        assert _topk(rec, row, outputs) == []
        assert _denn(rec, outputs) == []
    for i in range(len(outputs["keys"])):
        assert oracle.check_store_entry(outputs["keys"][i], outputs["labels"][i], outputs["train_emb"][i], outputs["train_gold"][i], i) == []
    assert oracle.check_f1(outputs["gold"], outputs["records"], outputs["report"]) == []


def _record_with_distinct_ends(outputs):
    for row, rec in enumerate(outputs["records"]):
        sims = [n["similarity"] for n in rec["neighbors"]]
        if sims[0] - sims[-1] > 1e-6:
            return row, copy.deepcopy(rec)
    raise AssertionError("no record with distinct neighbor similarities")


def test_swapped_neighbors_fail_topk(outputs):
    row, rec = _record_with_distinct_ends(outputs)
    rec["neighbors"][0], rec["neighbors"][-1] = rec["neighbors"][-1], rec["neighbors"][0]
    assert _topk(rec, row, outputs)


def test_neighbor_outside_topk_fails(outputs):
    row, rec = _record_with_distinct_ends(outputs)
    sims = oracle.cosine_to_keys(outputs["keys"], outputs["emb"][row])
    worst = int(np.argmin(sims))
    rec["neighbors"][-1] = {"index": worst, "similarity": float(sims[worst])}
    assert _topk(rec, row, outputs)


def test_wrong_lambda_fails_denn(outputs):
    rec = copy.deepcopy(outputs["records"][0])
    rec["lambda"] = rec["lambda"] + 1e-6 if rec["lambda"] < 0.5 else rec["lambda"] - 1e-6
    assert any("lambda" in e for e in _denn(rec, outputs))


def test_flipped_prediction_fails_denn(outputs):
    rec = copy.deepcopy(outputs["records"][0])
    rec["y_pred"][0] = 1 - rec["y_pred"][0]
    assert any("y_pred" in e for e in _denn(rec, outputs))


def test_wrong_vote_fails_denn(outputs):
    rec = copy.deepcopy(outputs["records"][0])
    rec["y_knn"][0] = min(1.0, rec["y_knn"][0] + 1e-6)
    rec["y_knn"][1] = max(0.0, rec["y_knn"][1] - 1e-6)
    assert any("y_knn" in e for e in _denn(rec, outputs))


def test_wrong_classifier_output_fails_forward(outputs):
    rec = copy.deepcopy(outputs["records"][0])
    rec["y_clf"][0] += 1e-6
    assert oracle.check_forward(rec, outputs["emb"][0], outputs["y_clf"][0], outputs["keys"])


def test_perturbed_store_key_fails(outputs):
    key = outputs["keys"][3].copy()
    key[0] = np.nextafter(np.nextafter(key[0], np.float32(np.inf)), np.float32(np.inf))
    assert oracle.check_store_entry(key, outputs["labels"][3], outputs["train_emb"][3], outputs["train_gold"][3], 3)


def test_wrong_store_label_fails(outputs):
    label = outputs["labels"][3].copy()
    label[0] = 1 - label[0]
    assert oracle.check_store_entry(outputs["keys"][3], label, outputs["train_emb"][3], outputs["train_gold"][3], 3)


def test_misreported_f1_fails(outputs):
    report = dict(outputs["report"], micro_f1=outputs["report"]["micro_f1"] + 1e-9)
    assert oracle.check_f1(outputs["gold"], outputs["records"], report)


def test_naive_f1_by_hand():
    gold = np.array([[1, 0, 0], [1, 1, 0]])
    pred = np.array([[1, 1, 0], [0, 1, 0]])
    micro, macro = oracle.naive_f1(gold, pred)
    # class 0: tp1 fn1 -> f1 2/3; class 1: tp1 fp1 -> 2/3; class 2: 0; pooled tp2 fp1 fn1
    assert micro == pytest.approx(2 / 3)
    assert macro == pytest.approx((2 / 3 + 2 / 3 + 0) / 3)


def test_library_and_cli_disagreement_is_caught(outputs):
    rec = outputs["records"][0]
    fields = {key: copy.deepcopy(rec[key]) for key in ("y_clf", "y_knn", "lambda", "y_final")}
    fields["neighbors"] = [(n["index"], n["similarity"]) for n in rec["neighbors"]]
    assert run._agreement(fields, rec) == []
    fields["y_final"][0] = float(np.nextafter(fields["y_final"][0], 2.0))
    assert run._agreement(fields, rec)
