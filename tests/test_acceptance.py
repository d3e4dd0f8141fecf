"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The toy-scale reproduction criteria (7 and 9) share one five-seed
pipeline fixture that mirrors configs/default.json.
"""
import json
import time
from pathlib import Path

import numpy as np
import pytest

from knnmlc.data import DatasetConfig, generate_synthetic
from knnmlc.datastore import Datastore, DatastoreFormatError, build, load, save, search
from knnmlc.encoder import (
    CheckpointError,
    EncoderConfig,
    init_state,
    load_checkpoint,
    save_checkpoint,
)
from knnmlc.gradcheck import run_gradcheck_suite
from knnmlc.inference import InferenceConfig, _combine, _debiased_lambda, predict
from knnmlc.losses import contrastive_loss_from_similarities
from knnmlc.mathops import make_rng
from knnmlc.metrics import confusion, macro_prf, micro_prf
from knnmlc.training import TrainConfig, Trainer
from oracles import contrastive_loss, label_similarity_matrix, pij

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_CONFIG = json.loads((REPO_ROOT / "configs" / "default.json").read_text())


def report(criterion: int, message: str) -> None:
    print(f"ACCEPTANCE {criterion:>2} PASS: {message}")


def random_views(rng, n, num_classes=5, dim=4):
    """(2n view embeddings, the (n, C) labels of their n samples)."""
    emb = rng.normal(size=(2 * n, dim))
    labels = np.zeros((n, num_classes), dtype=np.int8)
    for i in range(n):
        labels[i, rng.integers(num_classes)] = 1
        labels[i] |= (rng.random(num_classes) < 0.35).astype(np.int8)
    return emb, labels


# -- criterion 1: gradient correctness --------------------------------------


def test_criterion_01_gradient_correctness():
    start = time.time()
    reports = run_gradcheck_suite(num_configs=20, seed=100, step=1e-5)
    elapsed = time.time() - start
    worst = max(r.max_rel_error for r in reports)
    assert all(r.passed for r in reports), f"worst relative error {worst:.3e}"
    assert elapsed < 10.0, f"gradient check took {elapsed:.1f}s (budget 10s)"
    report(1, f"20 random configs within 1e-4 rel / 1e-7 abs (worst {worst:.2e}, {elapsed:.1f}s)")


# -- criterion 2: gradient identities ----------------------------------------


def test_criterion_02_gradient_identities():
    rng = make_rng(200)
    worst_identity = 0.0
    worst_pij = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 7))
        emb, labels = random_views(rng, n)
        tau1 = float(rng.uniform(0.02, 1.0))
        _, grad = contrastive_loss(emb, labels, tau1)
        for i in range(2 * n):
            pos = (i + n) % (2 * n)
            neg = [j for j in range(2 * n) if j not in (i, pos)]
            gap = abs(grad[i, pos] + grad[i, neg].sum())
            worst_identity = max(worst_identity, gap)
            assert gap <= 1e-12
            # the batch's own softmax shares, reconstructed from the gradient
            # (negatives carry share/tau; the positive carries (share-1)/tau)
            row_sum = tau1 * (grad[i, neg].sum() + grad[i, pos]) + 1.0
            gap = abs(row_sum - 1.0)
            worst_pij = max(worst_pij, gap)
            assert gap <= 1e-9

        m = int(rng.integers(2, 12))
        shares = pij(rng.uniform(-1, 1, m), rng.uniform(1, 2, m), tau1)
        gap = abs(shares.sum() - 1.0)
        worst_pij = max(worst_pij, gap)
        assert gap <= 1e-9
    report(2, f"positive-gradient identity (worst {worst_identity:.1e} <= 1e-12) and "
              f"share normalization (worst {worst_pij:.1e} <= 1e-9) on 100 random batches")


# -- criterion 3: weight/gradient ordering ------------------------------------


def test_criterion_03_weight_gradient_ordering():
    rng = make_rng(300)
    checked = 0
    for _ in range(100):
        n = int(rng.integers(2, 6))
        num_classes = int(rng.integers(3, 8))
        labels = np.zeros((n, num_classes), dtype=np.int8)
        for i in range(n):
            labels[i, rng.choice(num_classes, size=int(rng.integers(1, num_classes)), replace=False)] = 1
        labels2 = np.vstack([labels, labels])
        sims = np.full((2 * n, 2 * n), float(rng.uniform(-0.5, 0.9)))
        l = label_similarity_matrix(labels2)
        _, grad = contrastive_loss_from_similarities(sims, labels, tau1=0.1, variant="dcl")
        for i in range(2 * n):
            pos = (i + n) % (2 * n)
            negs = [j for j in range(2 * n) if j not in (i, pos)]
            for a in negs:
                for b in negs:
                    if l[i, a] < l[i, b]:
                        assert abs(grad[i, a]) > abs(grad[i, b])
                        checked += 1
    assert checked > 0
    report(3, f"lower label similarity => strictly larger negative gradient ({checked} ordered pairs)")


# -- criterion 4: retrieval exactness ------------------------------------------


def test_criterion_04_retrieval_exactness():
    rng = make_rng(400)
    tie_trials = 0
    for trial in range(1000):
        count = int(rng.integers(1, 80))
        dim = int(rng.integers(2, 7))
        keys = rng.normal(size=(count, dim))
        # engineered ties: duplicates scaled by a power of two share the
        # duplicate's unit vector exactly; other scales give near-ties
        for i in range(count):
            if count > 1 and rng.random() < 0.25:
                j = int(rng.integers(count))
                scale = float(rng.choice([0.5, 2.0, 4.0])) if rng.random() < 0.5 else float(rng.uniform(0.5, 2.0))
                keys[i] = keys[j] * scale
        values = (rng.random((count, 3)) < 0.5).astype(np.int8)
        store = Datastore(keys=keys, values=values)
        query = rng.normal(size=dim)
        k = int(rng.integers(1, count + 5))

        # the store's similarities, from its float32 keys: unit keys times
        # the unit query, summed along each row
        stored = store.keys.astype(np.float64)
        unit = stored / np.sqrt((stored * stored).sum(axis=1))[:, None]
        sims = np.clip((unit * (query / np.sqrt((query * query).sum()))).sum(axis=1), -1.0, 1.0)
        oracle = sorted(range(count), key=lambda i: (-sims[i], i))[: min(k, count)]
        indices, got_sims = search(store, query[None], k)
        assert indices[0].tolist() == oracle
        assert got_sims[0].tolist() == [float(sims[i]) for i in oracle]
        if np.unique(sims).size < count:
            tie_trials += 1
    assert tie_trials > 100
    report(4, f"1000 randomized trials match the full-sort oracle exactly ({tie_trials} with exact ties)")


# -- criterion 5: confidence pipeline ------------------------------------------


def test_criterion_05_confidence_pipeline():
    y_clf = np.array([0.9, 0.75, 0.3])
    y_knn = np.array([0.8, 0.5, 0.1])
    mask = y_clf >= 0.7
    np.testing.assert_array_equal(mask, [1, 1, 0])
    lam = _debiased_lambda(y_knn, mask)
    assert lam == 0.5
    y_final = _combine(lam, y_knn, y_clf)
    np.testing.assert_array_equal(y_final, np.clip(lam * y_knn + (1 - lam) * y_clf, 0, 1))
    np.testing.assert_allclose(y_final, [0.85, 0.625, 0.2], atol=1e-15)

    rng = make_rng(500)
    for _ in range(10_000):
        C = int(rng.integers(1, 12))
        yk = rng.random(C)
        yc = rng.random(C)
        g1, g2 = sorted(rng.uniform(0.05, 0.95, size=2))
        m1 = yc >= g1
        m2 = yc >= g2
        assert np.all(m2 <= m1)  # raising gamma never adds labels
        l1 = _debiased_lambda(yk, m1)
        l2 = _debiased_lambda(yk, m2)
        assert 0.0 <= l1 <= 1.0 and 0.0 <= l2 <= 1.0
        yf = _combine(l1, yk, yc)
        assert np.all(yf >= 0.0) and np.all(yf <= 1.0)
        if m2.sum() > 0:
            assert l2 >= l1  # min over a shrinking nonempty set
    report(5, "hand-computed bundle exact; bounds and gamma-monotonicity on 10^4 random inputs")


# -- criterion 6: metric oracle -------------------------------------------------


def test_criterion_06_metric_oracle():
    from test_metrics import naive_metrics  # the independent triple-loop oracle

    rng = make_rng(600)
    for _ in range(100):
        n = int(rng.integers(1, 40))
        C = int(rng.integers(1, 9))
        gold = (rng.random((n, C)) < 0.4).astype(np.int8)
        pred = (rng.random((n, C)) < 0.4).astype(np.int8)
        counts = confusion(gold, pred)
        (tp, fp, fn), micro, macro = naive_metrics(gold.tolist(), pred.tolist())
        np.testing.assert_array_equal(counts.tp, tp)
        np.testing.assert_array_equal(counts.fp, fp)
        np.testing.assert_array_equal(counts.fn, fn)
        assert micro_prf(counts) == micro
        assert macro_prf(counts) == pytest.approx(macro, abs=1e-15)
    report(6, "micro/macro P/R/F1 match the naive loop oracle on 100 random instances")


# -- criteria 7 and 9: toy-scale pipeline reproduction ---------------------------


def _pipeline_configs():
    d = DEFAULT_CONFIG
    dataset = DatasetConfig(**d["dataset"])
    encoder = d["encoder"]
    train_cfg = TrainConfig(**d["train"])
    infer = InferenceConfig(**d["inference"])
    return dataset, encoder, train_cfg, infer


def _score(state, store, samples, infer_cfg, mode):
    cfg = InferenceConfig(**{**infer_cfg.__dict__, "mode": mode})
    pred = np.stack([predict(state, store, row, cfg).decisions(cfg.decision_threshold) for row in samples])
    counts = confusion(samples.labels, pred)
    return micro_prf(counts)[2], macro_prf(counts)[2]


@pytest.fixture(scope="module")
def five_seed_run():
    dataset_cfg, encoder_section, train_cfg, infer_cfg = _pipeline_configs()
    results = []
    for seed in range(5):
        start = time.time()
        dcfg = DatasetConfig(**{**dataset_cfg.__dict__, "seed": seed})
        train_s, valid_s, test_s = generate_synthetic(dcfg)
        ecfg = EncoderConfig(
            input_dim=dcfg.vocab_size,
            hidden_dim=encoder_section["hidden_dim"],
            embed_dim=encoder_section["embed_dim"],
            num_classes=dcfg.num_classes,
            activation=encoder_section.get("activation", "tanh"),
            dropout_rate=encoder_section.get("dropout_rate", 0.1),
        )
        tcfg = TrainConfig(**{**train_cfg.__dict__, "seed": seed})
        trainer = Trainer(train_s, valid_s, init_state(ecfg, seed=seed), tcfg)
        trainer.run()
        best = trainer.best_state()
        store_full = build(best, train_s)
        store_fifth = build(best, train_s, fraction=0.2)
        row = {
            "classifier_only": _score(best, store_full, test_s, infer_cfg, "classifier_only"),
            "knn_only": _score(best, store_full, test_s, infer_cfg, "knn_only"),
            "denn": _score(best, store_full, test_s, infer_cfg, "denn"),
            "denn_20pct": _score(best, store_fifth, test_s, infer_cfg, "denn"),
            "seconds": time.time() - start,
        }
        results.append(row)
    return results


def test_criterion_07_toy_scale_margins(five_seed_run):
    micro = {m: np.mean([r[m][0] for r in five_seed_run]) for m in ("classifier_only", "knn_only", "denn")}
    macro = {m: np.mean([r[m][1] for r in five_seed_run]) for m in ("classifier_only", "knn_only", "denn")}
    micro_margin = micro["denn"] - micro["classifier_only"]
    macro_margin = macro["denn"] - macro["classifier_only"]
    slowest = max(r["seconds"] for r in five_seed_run)
    assert micro_margin >= 0.005, f"micro margin {100 * micro_margin:+.2f} points < +0.5"
    assert macro_margin >= 0.005, f"macro margin {100 * macro_margin:+.2f} points < +0.5"
    assert slowest <= 60.0, f"slowest seed took {slowest:.1f}s (budget 60s)"
    report(
        7,
        f"5-seed means micro clf {micro['classifier_only']:.4f} / knn {micro['knn_only']:.4f} / "
        f"denn {micro['denn']:.4f} (margin {100 * micro_margin:+.2f} pts), "
        f"macro margin {100 * macro_margin:+.2f} pts, slowest seed {slowest:.1f}s",
    )


def test_criterion_09_datastore_size_sweep(five_seed_run):
    full = np.mean([r["denn"][0] for r in five_seed_run])
    fifth = np.mean([r["denn_20pct"][0] for r in five_seed_run])
    assert full >= fifth, f"micro-F1 at 100% ({full:.4f}) < at 20% ({fifth:.4f})"
    report(9, f"mean micro-F1 {full:.4f} at 100% store >= {fifth:.4f} at 20% store")


# -- criterion 8: contrastive variant sanity -------------------------------------


def test_criterion_08_variant_sanity():
    dataset_cfg, encoder_section, train_cfg, _ = _pipeline_configs()
    train_s, valid_s, _ = generate_synthetic(dataset_cfg)
    ecfg = EncoderConfig(
        input_dim=dataset_cfg.vocab_size,
        hidden_dim=encoder_section["hidden_dim"],
        embed_dim=encoder_section["embed_dim"],
        num_classes=dataset_cfg.num_classes,
        dropout_rate=encoder_section.get("dropout_rate", 0.1),
    )
    finals = {}
    for variant in ("ucl", "scl", "wscl", "dcl"):
        tcfg = TrainConfig(**{**train_cfg.__dict__, "variant": variant})
        trainer = Trainer(train_s, valid_s, init_state(ecfg, seed=tcfg.seed), tcfg)
        history = trainer.run()
        assert all(np.isfinite(r["total"]) and np.isfinite(r["con"]) for r in history), variant
        finals[variant] = history[-1]["total"]

    # forcing every label similarity to 1 (identical label rows) makes the
    # debiased weights collapse to 1, reproducing the unweighted loss bitwise
    rng = make_rng(800)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        emb = rng.normal(size=(2 * n, 5))
        labels = np.tile((rng.random(4) < 0.5).astype(np.int8) | np.array([1, 0, 0, 0], dtype=np.int8), (n, 1))
        tau1 = float(rng.uniform(0.02, 0.5))
        loss_dcl, grad_dcl = contrastive_loss(emb, labels, tau1, "dcl")
        loss_ucl, grad_ucl = contrastive_loss(emb, labels, tau1, "ucl")
        assert loss_dcl == loss_ucl
        np.testing.assert_array_equal(grad_dcl, grad_ucl)
    report(8, "ucl/scl/wscl/dcl all train to finite losses; dcl with unit label "
              f"similarity equals ucl bit-for-bit (final totals {finals})")


# -- criterion 10: persistence ----------------------------------------------------


def test_criterion_10_persistence(tmp_path):
    state = init_state(EncoderConfig(9, 7, 5, 4, dropout_rate=0.2), seed=42)
    ck = tmp_path / "model.json"
    save_checkpoint(state, ck)
    loaded = load_checkpoint(ck)
    for (name, a), (_, b) in zip(state.param_items(), loaded.param_items()):
        np.testing.assert_array_equal(a, b), name
    assert loaded.config == state.config

    bad_ck = tmp_path / "bad_model.json"
    bad_ck.write_text('{"format": "not-a-checkpoint"}')
    with pytest.raises(CheckpointError):
        load_checkpoint(bad_ck)

    rng = make_rng(1000)
    store = Datastore(
        keys=rng.normal(size=(37, 5)), values=(rng.random((37, 11)) < 0.5).astype(np.int8)
    )
    sp = tmp_path / "store.bin"
    save(store, sp)
    loaded_store = load(sp)
    np.testing.assert_array_equal(loaded_store.keys, store.keys.astype(np.float32).astype(np.float64))
    np.testing.assert_array_equal(loaded_store.values, store.values)
    assert sp.stat().st_size == 22 + 37 * (4 * 5 + (11 + 7) // 8)

    blob = bytearray(sp.read_bytes())
    blob[2] ^= 0x55
    sp.write_bytes(bytes(blob))
    with pytest.raises(DatastoreFormatError):
        load(sp)
    report(10, "checkpoint and datastore round-trips exact; corrupted headers rejected")
