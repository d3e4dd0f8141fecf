"""The embedding datastore: build, exact top-k retrieval, binary persistence.

After training, every training sample is embedded once (dropout off) and
stored as a float32 key alongside its label vector; each key is checked and
normalized once, when the store is made. Retrieval takes a block of queries
and is exact cosine top-k with deterministic tie-breaking, so a brute-force
sort reproduces it entry for entry. On disk, keys are float32 and labels
packed to bits.
"""
import tempfile
from pathlib import Path

import numpy as np

from knnmlc.data import DatasetConfig, generate_synthetic
from knnmlc.datastore import Datastore, build, load, save, search
from knnmlc.encoder import EncoderConfig, init_state, rowwise_layers
from knnmlc.training import TrainConfig, Trainer

dcfg = DatasetConfig(train_size=600, valid_size=100, test_size=100, seed=3)
train, valid, test = generate_synthetic(dcfg)
ecfg = EncoderConfig(input_dim=dcfg.vocab_size, hidden_dim=16, embed_dim=12, num_classes=dcfg.num_classes)
trainer = Trainer(train, valid, init_state(ecfg, seed=3), TrainConfig(learning_rate=5e-3, alpha=0.3, max_iters=120, seed=3))
trainer.run()
state = trainer.best_state()

# --- build ---------------------------------------------------------------------

store = build(state, train)
print(f"datastore: {store.count} entries, key dim {store.dim}, {store.num_classes} classes")

# a fractional build keeps the leading prefix, so smaller stores nest inside larger ones
fifth = build(state, train, fraction=0.2)
print(f"20% store: {fifth.count} entries, prefix of the full store: "
      f"{np.array_equal(fifth.keys, store.keys[:fifth.count])}")

# --- retrieval ------------------------------------------------------------------

# one block of queries, embedded by the dropout-off pass that made the keys:
# row i holds test sample i's neighbors as (indices, sims) arrays
queries = rowwise_layers(state, test)
indices, sims = search(store, queries, k=8)
query_sample = test[0]  # a batch of one
print(f"\nquery {query_sample.ids()[0]} with labels {np.flatnonzero(query_sample.labels[0]).tolist()}")
print("nearest neighbors (similarity, stored labels):")
for index, sim in zip(indices[0], sims[0]):
    print(f"  #{index:<5} sim {sim:+.4f}  labels {np.flatnonzero(store.values[index]).tolist()}")

# exactness: a plain full sort of the same cosines (unit keys times the unit
# query, summed row by row) gives the identical ranking
unit = store.keys.astype(np.float64)
unit /= np.linalg.norm(unit, axis=1)[:, None]
query = queries[0] / np.linalg.norm(queries[:1], axis=1)
cos = np.clip((unit * query).sum(axis=1), -1, 1)
oracle = sorted(range(store.count), key=lambda i: (-cos[i], i))[:8]
print(f"matches a brute-force sort exactly: {indices[0].tolist() == oracle}")

# the k-th similarity is bounded from strided groups of keys, so a store
# sorted by label, whose similar keys sit side by side, gives the
# brute-force neighbors too (a full sort of every query's cosines)
order = np.lexsort(store.values.T[::-1])
by_label = Datastore(keys=store.keys[order], values=store.values[order])
unit = by_label.keys.astype(np.float64)
unit /= np.linalg.norm(unit, axis=1)[:, None]
cos = np.clip((unit * (queries / np.linalg.norm(queries, axis=1)[:, None])[:, None]).sum(axis=2), -1, 1)
brute = np.stack([np.lexsort((np.arange(store.count), -row))[:8] for row in cos])
print(f"label-sorted store matches a brute-force sort: {np.array_equal(search(by_label, queries, k=8)[0], brute)}")

# a row does not depend on the block it was retrieved in
alone = search(store, queries[:1], k=8)
print(f"query alone gives the same bytes: {all(np.array_equal(a[0], b[0]) for a, b in zip(alone, (indices, sims)))}")

# --- persistence ----------------------------------------------------------------

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "store.bin"
    save(store, path)
    size = path.stat().st_size
    expected = 22 + store.count * (4 * store.dim + (store.num_classes + 7) // 8)
    print(f"\nfile size {size} bytes == header + count*(4d + ceil(C/8)) = {expected}: {size == expected}")
    reloaded = load(path)
    print(f"labels exact after reload: {np.array_equal(reloaded.values, store.values)}")
    print(f"float32 keys bit-identical after reload: {np.array_equal(reloaded.keys, store.keys)}")
    same_topk = np.array_equal(search(reloaded, queries, k=8)[0], indices)
    print(f"top-8 retrieval unchanged after reload: {same_topk}")
