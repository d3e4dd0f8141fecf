"""Validating the hand-derived gradients against finite differences.

Everything in the backward pass is written out by hand: the classification
gradient through the sigmoid, the contrastive gradient through the weighted
softmax and the cosine similarity, the dropout masks, and the layer chain
down to the sparse input weights. The check freezes one set of dropout masks
and compares each analytic parameter gradient with a central finite
difference of the same objective.
"""
import numpy as np

from knnmlc.gradcheck import gradient_check, random_gradcheck_problem, run_gradcheck_suite
from knnmlc.losses import contrastive_loss_from_similarities
from knnmlc.mathops import make_rng, unit_rows

# --- one problem in detail ----------------------------------------------------

state, views, masks, alpha, tau1, variant = random_gradcheck_problem(seed=7)
cfg = state.config
print(
    f"config: input {cfg.input_dim}, hidden {cfg.hidden_dim}, embed {cfg.embed_dim}, "
    f"classes {cfg.num_classes}, views {len(views)}, dropout {cfg.dropout_rate}, "
    f"alpha {alpha}, tau {tau1}, variant {variant}"
)
report = gradient_check(state, views, masks, alpha, tau1, variant)
print(f"passed: {report.passed} over {report.num_params} parameters")
for name, err in report.per_param.items():
    print(f"  {name:<6} worst relative error {err:.3e}")

# --- a batch of random configurations ------------------------------------------

reports = run_gradcheck_suite(num_configs=10, seed=123)
worst = max(r.max_rel_error for r in reports)
print(f"\n10 random configurations, all passed: {all(r.passed for r in reports)}")
print(f"worst relative error anywhere: {worst:.3e} (tolerance 1e-4 relative, 1e-7 floor)")

# --- structural identities of the contrastive gradient --------------------------

# the gradient on each anchor's positive similarity equals the negated sum of
# its negatives' gradients, and the negative gradients are proportional to
# weighted softmax shares (so they sum to a normalized total)
rng = make_rng(5)
# 2N = 8 views: rows i and (i + N) % 2N are the two views of one sample
emb = rng.normal(size=(8, 6))
labels = (rng.random((4, 5)) < 0.4).astype(np.int8)
labels[:, 0] = 1
# the similarities a training step hands the loss: cosines of the unit rows
unit, _ = unit_rows(emb)
# the loss takes the 4 samples' labels: views i and i + 4 share row i
_, grad = contrastive_loss_from_similarities((unit @ unit.T).clip(-1.0, 1.0), labels, tau1=0.05)
gaps = []
for i in range(8):
    pos = (i + 4) % 8
    neg_sum = sum(grad[i, j] for j in range(8) if j not in (i, pos))
    gaps.append(abs(grad[i, pos] + neg_sum))
print(f"\npositive-vs-negatives gradient identity, worst gap over anchors: {max(gaps):.2e}")
