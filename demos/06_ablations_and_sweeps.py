"""Ablations and hyperparameter sweeps as data tables.

Three questions, answered on one small dataset: which inference mode wins
(classifier only, neighbors only, fixed mix, adaptive mix); which contrastive
weighting trains the most retrieval-friendly embedding space (unweighted,
supervised multi-positive, weighted supervised, debiased); and how the
neighbor count k, the confidence threshold gamma, and the datastore size move
the needle.
"""
import numpy as np

from knnmlc.data import DatasetConfig, generate_synthetic
from knnmlc.datastore import build
from knnmlc.encoder import EncoderConfig, init_state
from knnmlc.inference import InferenceConfig, predict
from knnmlc.metrics import confusion, macro_prf, micro_prf
from knnmlc.training import TrainConfig, Trainer

dcfg = DatasetConfig(train_size=1000, valid_size=250, test_size=250, seed=0)
train, valid, test = generate_synthetic(dcfg)
gold = test.labels
ecfg = EncoderConfig(input_dim=dcfg.vocab_size, hidden_dim=16, embed_dim=12, num_classes=dcfg.num_classes)


def scores(state, store, **cfg_kw):
    cfg = InferenceConfig(**{"k": 20, "tau2": 0.05, "gamma": 0.7, **cfg_kw})
    pred = np.stack([predict(state, store, test[i], cfg).decisions() for i in range(len(test))])
    counts = confusion(gold, pred)
    return micro_prf(counts)[2], macro_prf(counts)[2]


def train_variant(variant):
    tcfg = TrainConfig(learning_rate=5e-3, alpha=0.3, max_iters=200, seed=0, variant=variant)
    trainer = Trainer(train, valid, init_state(ecfg, seed=0), tcfg)
    trainer.run()
    best = trainer.best_state()
    return best, build(best, train)


# --- inference modes (one model, trained with the debiased weighting) --------------

state, store = train_variant("dcl")
print(f"{'inference mode':<20} {'micro-F1':>9} {'macro-F1':>9}")
for mode in ("classifier_only", "knn_only", "fixed_lambda", "denn"):
    mi, ma = scores(state, store, mode=mode, fixed_lambda_value=0.5)
    print(f"{mode:<20} {mi:>9.4f} {ma:>9.4f}")

# --- contrastive weighting variants, each trained from scratch ----------------------

print(f"\n{'training variant':<20} {'micro-F1':>9} {'macro-F1':>9}   (adaptive mode)")
for variant in ("ucl", "scl", "wscl", "dcl"):
    v_state, v_store = train_variant(variant)
    mi, ma = scores(v_state, v_store, mode="denn")
    print(f"{variant:<20} {mi:>9.4f} {ma:>9.4f}")

# --- sweeps over k, gamma, and datastore size ----------------------------------------

print(f"\n{'k':>4} {'micro-F1':>9} {'macro-F1':>9}")
for k in (1, 5, 10, 20, 40):
    mi, ma = scores(state, store, mode="denn", k=k)
    print(f"{k:>4} {mi:>9.4f} {ma:>9.4f}")

print(f"\n{'gamma':>6} {'micro-F1':>9} {'macro-F1':>9}")
for gamma in (0.5, 0.6, 0.7, 0.8, 0.9):
    mi, ma = scores(state, store, mode="denn", gamma=gamma)
    print(f"{gamma:>6.1f} {mi:>9.4f} {ma:>9.4f}")

print(f"\n{'store':>6} {'micro-F1':>9} {'macro-F1':>9}")
for fraction in (0.2, 0.4, 0.6, 0.8, 1.0):
    part = build(state, train, fraction=fraction)
    mi, ma = scores(state, part, mode="denn")
    print(f"{fraction:>6.0%} {mi:>9.4f} {ma:>9.4f}")
