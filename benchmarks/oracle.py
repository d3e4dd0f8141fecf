"""Output checks that do not rely on knnmlc.

Everything here reads the program's files with its own parsers (the formats
are specified in docs/formats.md) and recomputes with plain numpy what the
method must produce. Nothing is compared with a stored copy of earlier
output. Each ``check_*`` function returns a list of error strings; an empty
list means the check passed.
"""
from __future__ import annotations

import json
import struct

import numpy as np

# tolerances: float64 results recomputed in another order of operations
FORWARD_TOL = 1e-9
DENN_TOL = 1e-12
TIE_TOL = 1e-12
F1_TOL = 1e-12

_STORE_HEADER = struct.Struct("<4sHIIQ")


# -- readers -----------------------------------------------------------------


def read_dataset(path):
    """Returns (num_classes, vocab_size, records) with each record a dict of
    ``id``, ``features`` {int: float} and ``labels`` (list of positives)."""
    with open(path, "r", encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        records = []
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                rec["features"] = {int(k): float(v) for k, v in rec["features"].items()}
                records.append(rec)
    return int(header["num_classes"]), int(header["vocab_size"]), records


def read_dataset_lines(path, indices):
    """The records at the given 0-based sample positions, parsing only those
    lines of a large file."""
    with open(path, "r", encoding="utf-8") as fh:
        fh.readline()
        lines = fh.readlines()
    out = []
    for i in indices:
        rec = json.loads(lines[i])
        rec["features"] = {int(k): float(v) for k, v in rec["features"].items()}
        out.append(rec)
    return out


def label_matrix(records, num_classes: int) -> np.ndarray:
    out = np.zeros((len(records), num_classes), dtype=np.int8)
    for row, rec in enumerate(records):
        out[row, rec["labels"]] = 1
    return out


def dense_features(records, vocab_size: int) -> np.ndarray:
    out = np.zeros((len(records), vocab_size), dtype=np.float64)
    for row, rec in enumerate(records):
        for k, v in rec["features"].items():
            out[row, k] = v
    return out


def read_checkpoint(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    params = {k: np.asarray(v, dtype=np.float64) for k, v in payload["params"].items()}
    params["activation"] = payload["activation"]
    return params


def read_store(path):
    """Returns (keys float32 (n, d), labels int8 (n, C))."""
    with open(path, "rb") as fh:
        blob = fh.read()
    magic, _version, dim, num_classes, count = _STORE_HEADER.unpack_from(blob, 0)
    if magic != b"NNDS":
        raise ValueError(f"{path}: not a datastore file")
    keys_end = _STORE_HEADER.size + 4 * dim * count
    keys = np.frombuffer(blob, dtype="<f4", count=dim * count, offset=_STORE_HEADER.size).reshape(count, dim)
    row_bytes = (num_classes + 7) // 8
    packed = np.frombuffer(blob, dtype=np.uint8, offset=keys_end).reshape(count, row_bytes)
    labels = np.unpackbits(packed, axis=1, bitorder="big")[:, :num_classes].astype(np.int8)
    return keys, labels


def read_predictions(path) -> list[dict]:
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


# -- independent computations ---------------------------------------------------


def forward(params: dict, x: np.ndarray):
    """Dropout-off forward pass over a dense (n, V) input: returns the
    embeddings (n, d) and the classifier probabilities (n, C)."""
    pre = x @ params["w_in"].T + params["b_in"]
    hidden = np.tanh(pre) if params["activation"] == "tanh" else np.maximum(pre, 0.0)
    emb = hidden @ params["w_emb"].T + params["b_emb"]
    logits = emb @ params["w_clf"].T + params["b_clf"]
    return emb, 1.0 / (1.0 + np.exp(-logits))


def cosine_to_keys(keys: np.ndarray, query: np.ndarray) -> np.ndarray:
    k = np.asarray(keys, dtype=np.float64)
    sims = (k @ query) / (np.linalg.norm(k, axis=1) * np.linalg.norm(query))
    return np.clip(sims, -1.0, 1.0)


def full_sort_topk(sims: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest similarities, by similarity descending and
    then by lower index, from a full sort."""
    order = np.lexsort((np.arange(sims.size), -sims))
    return order[: min(k, sims.size)]


def naive_f1(gold: np.ndarray, pred: np.ndarray):
    """(micro-F1, macro-F1) by a per-class loop; a zero denominator gives 0
    and the macro average runs over every class."""

    def f1(tp, fp, fn):
        p = tp / (tp + fp) if tp + fp else 0.0
        r = tp / (tp + fn) if tp + fn else 0.0
        return 2 * p * r / (p + r) if p + r else 0.0

    total = [0, 0, 0]
    per_class = []
    for c in range(gold.shape[1]):
        tp = fp = fn = 0
        for g, p in zip(gold[:, c], pred[:, c]):
            tp += int(g == 1 and p == 1)
            fp += int(g == 0 and p == 1)
            fn += int(g == 1 and p == 0)
        total = [total[0] + tp, total[1] + fp, total[2] + fn]
        per_class.append(f1(tp, fp, fn))
    return f1(*total), sum(per_class) / len(per_class)


# -- checks ---------------------------------------------------------------------


def check_forward(record: dict, emb: np.ndarray, y_clf: np.ndarray, keys: np.ndarray) -> list[str]:
    """The record's classifier probabilities and neighbor similarities match
    the benchmark's own forward pass and cosine."""
    errors = []
    got = np.asarray(record["y_clf"], dtype=np.float64)
    if got.shape != y_clf.shape or not np.allclose(got, y_clf, rtol=0.0, atol=FORWARD_TOL):
        errors.append(f"{record['id']}: y_clf differs from the oracle forward pass")
    idx = [n["index"] for n in record["neighbors"]]
    if idx:
        sims = cosine_to_keys(keys[idx], emb)
        rec_sims = np.asarray([n["similarity"] for n in record["neighbors"]])
        if not np.allclose(rec_sims, sims, rtol=0.0, atol=FORWARD_TOL):
            errors.append(f"{record['id']}: neighbor similarities differ from the oracle cosine")
    return errors


def check_topk(record: dict, emb: np.ndarray, keys: np.ndarray, k: int) -> list[str]:
    """Neighbor indices equal a full-sort oracle's, except for swaps among
    similarities equal within TIE_TOL; equal recorded similarities come in
    ascending index order."""
    sims = cosine_to_keys(keys, emb)
    want = full_sort_topk(sims, k)
    got = np.asarray([n["index"] for n in record["neighbors"]], dtype=np.int64)
    rid = record["id"]
    if got.size != want.size:
        return [f"{rid}: {got.size} neighbors, expected {want.size}"]
    if np.unique(got).size != got.size or got.min() < 0 or got.max() >= sims.size:
        return [f"{rid}: neighbor indices repeat or fall outside the store"]
    errors = []
    if np.any(np.abs(sims[got] - sims[want]) > TIE_TOL):
        errors.append(f"{rid}: neighbors differ from the full-sort oracle beyond ties")
    rec_sims = [n["similarity"] for n in record["neighbors"]]
    for a in range(got.size - 1):
        if rec_sims[a] < rec_sims[a + 1] or (rec_sims[a] == rec_sims[a + 1] and got[a] > got[a + 1]):
            errors.append(f"{rid}: neighbors out of (similarity desc, index asc) order at rank {a}")
            break
    return errors


def check_denn(record: dict, store_labels: np.ndarray, tau2: float, gamma: float, threshold: float) -> list[str]:
    """The DENN rule on one record: neighbor vote, lambda, combination and
    decisions, each recomputed from the record's own inputs."""
    rid = record["id"]
    errors = []
    y_clf = np.asarray(record["y_clf"], dtype=np.float64)
    y_knn = np.asarray(record["y_knn"], dtype=np.float64)
    y_final = np.asarray(record["y_final"], dtype=np.float64)
    lam = record["lambda"]

    sims = np.asarray([n["similarity"] for n in record["neighbors"]], dtype=np.float64)
    z = sims / tau2
    beta = np.exp(z - z.max())
    beta /= beta.sum()
    vote = beta @ store_labels[[n["index"] for n in record["neighbors"]]].astype(np.float64)
    if not np.allclose(y_knn, vote, rtol=0.0, atol=DENN_TOL):
        errors.append(f"{rid}: y_knn is not softmax(sims/tau2) over the neighbors' labels")

    confident = y_knn[y_clf >= gamma]
    want_lam = float(confident.min()) if confident.size else 0.0
    if abs(lam - want_lam) > DENN_TOL:
        errors.append(f"{rid}: lambda {lam} != min y_knn over confident labels {want_lam}")

    want_final = lam * y_knn + (1.0 - lam) * y_clf
    if not np.allclose(y_final, want_final, rtol=0.0, atol=DENN_TOL):
        errors.append(f"{rid}: y_final is not lambda*y_knn + (1-lambda)*y_clf")

    want_pred = (y_final >= threshold).astype(np.int64).tolist()
    if list(record["y_pred"]) != want_pred:
        errors.append(f"{rid}: y_pred is not y_final >= threshold")
    return errors


def check_store_entry(key: np.ndarray, label_row: np.ndarray, emb: np.ndarray, gold_labels: np.ndarray, index: int) -> list[str]:
    """A stored key equals the float32 rounding of the oracle embedding (one
    float32 ulp allowed, for float64 values that differ in their last bits
    next to a rounding midpoint) and its label row equals the gold labels."""
    errors = []
    want = emb.astype(np.float32)
    if np.any(np.abs(key.astype(np.float64) - want.astype(np.float64)) > np.spacing(np.abs(want)).astype(np.float64)):
        errors.append(f"store entry {index}: key is not the float32 rounding of the oracle embedding")
    if not np.array_equal(label_row, gold_labels):
        errors.append(f"store entry {index}: label row differs from the training labels")
    return errors


def check_f1(gold: np.ndarray, records: list[dict], report: dict) -> list[str]:
    pred = np.asarray([r["y_pred"] for r in records], dtype=np.int64)
    micro, macro = naive_f1(gold, pred)
    errors = []
    if abs(report["micro_f1"] - micro) > F1_TOL:
        errors.append(f"eval micro-F1 {report['micro_f1']} != naive {micro}")
    if abs(report["macro_f1"] - macro) > F1_TOL:
        errors.append(f"eval macro-F1 {report['macro_f1']} != naive {macro}")
    return errors
