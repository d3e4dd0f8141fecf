"""Adaptive combination: when to trust the neighbors, sample by sample.

The classifier and the neighbor vote each produce a probability vector. The
mixing weight lambda is estimated per sample: take the labels the classifier
is confident about (probability >= gamma), and use the minimum neighbor-vote
probability on those labels. If the neighbors are unanimous about everything
the classifier is sure of, lambda is near 1 and the vote dominates; if the
neighborhood is inconsistent, lambda drops and the classifier stands.
"""
import numpy as np

from knnmlc.data import DatasetConfig, generate_synthetic
from knnmlc.datastore import build
from knnmlc.encoder import EncoderConfig, init_state
from knnmlc.inference import InferenceConfig, predict, predict_batch
from knnmlc.metrics import confusion, macro_prf, micro_prf
from knnmlc.training import TrainConfig, Trainer

dcfg = DatasetConfig(seed=0)
train, valid, test = generate_synthetic(dcfg)
ecfg = EncoderConfig(input_dim=dcfg.vocab_size, hidden_dim=16, embed_dim=12, num_classes=dcfg.num_classes)
tcfg = TrainConfig(learning_rate=5e-3, alpha=0.3, max_iters=300, seed=0)
trainer = Trainer(train, valid, init_state(ecfg, seed=0), tcfg)
trainer.run()
state = trainer.best_state()
store = build(state, train)

# --- one sample in detail --------------------------------------------------------

cfg = InferenceConfig(k=30, tau2=0.05, gamma=0.7, mode="denn")
sample = test[4]  # a batch of one: the row's arrays, viewed
bundle = predict(state, store, sample, cfg)
print(f"sample {sample.ids[0]}, gold labels {np.flatnonzero(sample.labels[0]).tolist()}")
print(f"  classifier probabilities: {np.round(bundle.y_clf, 3).tolist()}")
print(f"  neighbor vote:            {np.round(bundle.y_knn, 3).tolist()}")
print(f"  high-confidence labels (>= {cfg.gamma}): {np.flatnonzero(bundle.high_conf_mask).tolist()}")
print(f"  lambda = min neighbor vote on those labels = {bundle.lam:.3f}")
print(f"  combined:                 {np.round(bundle.y_final, 3).tolist()}")
print(f"  decisions at 0.5:         {bundle.decisions().tolist()}")
print(f"  from neighbors {bundle.neighbor_indices[:5].tolist()}... "
      f"with similarities {np.round(bundle.neighbor_sims[:5], 3).tolist()}...")

# --- lambda varies per sample -----------------------------------------------------

# one batch: every field gains a leading row axis, lam is one value per sample
lams = predict_batch(state, store, test[:200], cfg).lam
print(f"\nlambda over 200 test samples: mean {np.mean(lams):.3f}, "
      f"min {np.min(lams):.3f}, max {np.max(lams):.3f}")
print("  (a fixed mixing weight would treat all of these alike)")

# --- mode comparison on the full test split ---------------------------------------

gold = test.labels
print(f"\n{'mode':<18} {'micro-F1':>9} {'macro-F1':>9}")
for mode in ("classifier_only", "knn_only", "fixed_lambda", "denn"):
    mode_cfg = InferenceConfig(k=30, tau2=0.05, gamma=0.7, mode=mode, fixed_lambda_value=0.5)
    pred_rows = predict_batch(state, store, test, mode_cfg).decisions()
    counts = confusion(gold, pred_rows)
    print(f"{mode:<18} {micro_prf(counts)[2]:>9.4f} {macro_prf(counts)[2]:>9.4f}")
