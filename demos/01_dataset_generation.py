"""Synthetic multi-label data: cluster structure, noise knobs, file format.

The generator builds samples around label clusters: each sample picks one
cluster and takes a noisy copy of that cluster's label set, while its sparse
features are token counts drawn mostly from vocabulary blocks tied to the
cluster. Sibling clusters share a core label and a feature block, so they are
easy to confuse from features alone -- the regime where neighbor retrieval
has something to add over a plain classifier.
"""
import collections
import tempfile

import numpy as np

from knnmlc.data import (
    DatasetConfig,
    cluster_layout,
    frequency_groups,
    generate_synthetic,
    label_frequencies,
    load_packed,
    save_synthetic,
)

# --- generate the default dataset, as gen-data writes it ----------------------

cfg = DatasetConfig(seed=0)
with tempfile.TemporaryDirectory() as tmp:
    paths = save_synthetic(cfg, tmp)
    with open(paths["train"], encoding="utf-8") as fh:
        first_two = [fh.readline().rstrip("\n") for _ in range(2)]
    print("file format (header line, then one record per sample):")
    for line in first_two:
        print(" ", line[:100] + ("..." if len(line) > 100 else ""))
    # every split is read into CSR arrays (a PackedSamples); the first read
    # parses the file and keeps a packed copy beside it for the next one
    train, valid, test = (load_packed(paths[name])[0] for name in ("train", "valid", "test"))
print(f"\nsplits: {len(train)} train / {len(valid)} valid / {len(test)} test")
print(f"classes: {cfg.num_classes}, clusters: {cfg.num_clusters}, vocab: {cfg.vocab_size}")
in_memory = generate_synthetic(cfg)[0]
fields = ("indptr", "indices", "values", "labels", "ids")
same = all(np.array_equal(getattr(in_memory, f), getattr(train, f)) for f in fields)
print(f"generate_synthetic gives the same arrays in memory: {same}")

first = train[0]  # one sample is a batch of one: views of row 0 of each array
print(f"sample {first.ids[0]}: features {dict(zip(first.indices.tolist(), first.values.tolist()))}, "
      f"labels {np.flatnonzero(first.labels[0]).tolist()}")

label_sets, own_blocks, pair_blocks, priors = cluster_layout(cfg)
print("\ncluster label sets (first label of each pair is the shared core):")
for g, ls in enumerate(label_sets):
    print(f"  cluster {g}: labels {ls.tolist()}  prior {priors[g]:.3f}")

# --- label statistics -------------------------------------------------------

counts = train.labels.sum(axis=1)
print(f"\npositives per sample: mean {counts.mean():.2f}, min {counts.min()}, max {counts.max()}")
print("  (every sample has at least one positive label by construction)")

freqs = label_frequencies(train)
print("\nlabel frequencies in train:", freqs.tolist())
print("  skewed cluster priors make the later clusters' labels rare")

# --- frequency groups -------------------------------------------------------

groups = frequency_groups(train, num_groups=4)
by_group = collections.defaultdict(list)
for label, g in groups.items():
    by_group[g].append(label)
print("\nautomatic frequency groups (descending frequency, near-equal sizes):")
for g in sorted(by_group):
    print(f"  group {g}: labels {sorted(by_group[g])}")

# explicit boundaries are also supported, e.g. the classic >4500 / >1700 / >870 split
# for corpus-scale frequency tables: frequency_groups(train, thresholds=[4500, 1700, 870])
