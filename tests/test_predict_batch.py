"""Batched exact inference against the per-query reference.

The reference below is the per-query code the package used before a block
of queries became the unit of work: a forward pass through the BLAS batch
path for one sample, a retrieval that recomputed every key norm and ranked
the cosines of the raw keys, a neighbor list of objects, and a scalar vote,
lambda and combination. It is kept here as the oracle. The batched path
computes cosines from unit vectors by row-local sums, so values are compared
to 1e-12 absolute; neighbor indices and decisions must match exactly.
"""
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knnmlc import cli, datastore
from knnmlc.cli import EXIT_OK, main
from knnmlc.data import DatasetConfig, generate_synthetic, load_jsonl, pack_samples
from knnmlc.datastore import Datastore, build, load, retrieve_topk
from knnmlc.encoder import EncoderConfig, forward_batch, forward_rowwise, init_state, load_checkpoint
from knnmlc.inference import InferenceConfig, predict, predict_batch
from knnmlc.mathops import make_rng, sigmoid, softmax_temp
from oracles import Sample, pack
from test_datastore import rescored_sims  # the store's similarity, by its definition

DEFAULT_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "default.json"
ABS_TOL = 1e-12
BUNDLE_FIELDS = ("y_clf", "y_knn", "high_conf_mask", "lam", "y_final", "neighbor_indices", "neighbor_sims")

# -- per-query reference -------------------------------------------------------


@dataclass
class Neighbor:
    index: int
    similarity: float
    labels: np.ndarray


def ref_retrieve_topk(store, query, k):
    keys = store.keys.astype(np.float64)
    q = np.asarray(query, dtype=np.float64)
    sims = np.clip((keys @ q) / (np.linalg.norm(keys, axis=1) * np.linalg.norm(q)), -1.0, 1.0)
    n = store.count
    k_eff = min(k, n)
    if k_eff < n:
        cand = np.argpartition(-sims, k_eff - 1)[:k_eff]
        cand = np.flatnonzero(sims >= sims[cand].min())
    else:
        cand = np.arange(n)
    order = cand[np.lexsort((cand, -sims[cand]))][:k_eff]
    return [Neighbor(int(i), float(sims[i]), store.values[i]) for i in order]


def ref_knn_predict(neighbors, tau2):
    sims = np.array([n.similarity for n in neighbors])
    beta = softmax_temp(sims, tau2)
    return np.clip(beta @ np.stack([n.labels for n in neighbors]).astype(np.float64), 0.0, 1.0)


def ref_predict(state, store, sample, cfg):
    trace = forward_batch(state, pack_samples(sample, state.config.input_dim), masks=np.ones((1, state.config.hidden_dim)))
    y_clf = sigmoid(trace.logits[0])
    neighbors = ref_retrieve_topk(store, trace.embedding[0], cfg.k)
    y_knn = ref_knn_predict(neighbors, cfg.tau2)
    selected = y_knn[y_clf >= cfg.gamma]
    lam = float(selected.min()) if selected.size else 0.0
    y_final = np.clip(lam * y_knn + (1.0 - lam) * y_clf, 0.0, 1.0)
    return dict(y_clf=y_clf, y_knn=y_knn, lam=lam, y_final=y_final, neighbors=neighbors)


# -- helpers ---------------------------------------------------------------------


def assert_same_bundle(a, b, what):
    for name in BUNDLE_FIELDS:
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name), err_msg=f"{what}: {name}")


def random_setup(seed, count, hidden, embed, classes, input_dim=60):
    rng = make_rng(seed)
    config = EncoderConfig(input_dim, hidden, embed, classes, activation=("tanh", "relu")[seed % 2])
    state = init_state(config, seed=seed)

    def sample(i):
        nnz = int(rng.integers(0, 12))
        idx = rng.choice(input_dim, size=nnz, replace=False)
        labels = (rng.random(classes) < 0.4).astype(np.int8)
        return Sample({int(j): float(v) for j, v in zip(idx, rng.uniform(0.2, 3.0, nnz))}, labels, f"s{i}")

    train = [sample(i) for i in range(count)]
    # repeated training samples give exactly tied keys
    for i in range(0, count, 7):
        train[i] = Sample(dict(train[0].features), train[i].labels, f"s{i}")
    queries = pack([sample(count + i) for i in range(40)], input_dim)
    return state, build(state, pack(train, input_dim)), queries, rng


def near_tie_keys(rng, count, dim, eps):
    """Keys in a few tight bundles around random directions, so that many
    cosines agree to about eps and float32 rounding can reorder them."""
    centers = rng.normal(size=(max(1, count // 8), dim))
    keys = centers[rng.integers(centers.shape[0], size=count)]
    return keys + eps * rng.normal(size=(count, dim))


# -- row stability ---------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**20),
    count=st.sampled_from([3, 25, 400]),
    k=st.sampled_from([1, 5, 30, 500]),
    dims=st.sampled_from([(4, 3, 2), (16, 12, 12), (64, 32, 48)]),
    mode=st.sampled_from(["denn", "classifier_only", "knn_only", "fixed_lambda"]),
    block=st.integers(1, 40),
)
def test_every_row_equals_the_sample_alone(seed, count, k, dims, mode, block):
    # k < count and k >= count; rows drawn in random order, with repeats
    state, store, queries, rng = random_setup(seed, count, *dims)
    cfg = InferenceConfig(k=k, mode=mode)
    rows = rng.integers(len(queries), size=block)
    batch = predict_batch(state, store, queries.take(rows), cfg)
    assert batch.neighbor_indices.shape == (block, min(k, count))
    for j, i in enumerate(rows):
        assert_same_bundle(batch.row(j), predict(state, store, queries[i], cfg), f"row {j} (sample {i})")


def test_query_blocks_give_the_bytes_of_one_block(monkeypatch):
    # blocks of 3 queries against one block of all 40: the same bytes, and
    # the small blocks really were several
    state, store, queries, _ = random_setup(3, 300, 16, 12, 12)
    embeddings = forward_rowwise(state, pack_samples(queries, state.config.input_dim)).embedding
    whole = retrieve_topk(store, embeddings, 30)
    blocks = []
    real_block = datastore._topk_block

    def spy(store, q, k):
        blocks.append(q.shape[0])
        return real_block(store, q, k)

    monkeypatch.setattr(datastore, "_topk_block", spy)
    monkeypatch.setattr(datastore, "_QUERY_BLOCK_BYTES", 3 * 4 * store.count)
    split = retrieve_topk(store, embeddings, 30)
    assert blocks == [3] * 13 + [1]
    for got, want in zip(split, whole):
        np.testing.assert_array_equal(got, want)


# -- exactness -------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**20),
    count=st.integers(1, 300),
    dim=st.integers(1, 40),
    k=st.integers(1, 40),
    eps=st.sampled_from([0.0, 1e-9, 1e-7, 1e-5, 1e-3, 1.0]),
    n=st.integers(1, 20),
)
def test_retrieval_equals_a_full_sort_of_the_rescored_similarities(seed, count, dim, k, eps, n):
    rng = make_rng(seed)
    store = Datastore(keys=near_tie_keys(rng, count, dim, eps), values=np.zeros((count, 1), dtype=np.int8))
    # queries near the bundles too, so the k-th cosine sits among near-ties
    queries = near_tie_keys(rng, n, dim, eps) if rng.random() < 0.5 else rng.normal(size=(n, dim))
    queries[0] = store.keys[0]
    indices, sims = retrieve_topk(store, queries, k)
    for row, query in enumerate(queries):
        full = rescored_sims(store.keys, query)
        order = np.lexsort((np.arange(count), -full))[: min(k, count)]
        np.testing.assert_array_equal(indices[row], order)
        np.testing.assert_array_equal(sims[row], full[order])


def test_kth_similarity_at_minus_one_keeps_every_candidate():
    # a k-th similarity of -1 puts the cutoff at or below -1, where every key
    # is a candidate: the keys whose cosine clips to -1 tie, ranked by index
    keys = np.array([[1.0, 0.0], [-1.0, 0.0], [-2.0, 0.0], [-1.0, 1e-9], [-4.0, 0.0], [0.0, 1.0]])
    store = Datastore(keys=keys, values=np.zeros((6, 1), dtype=np.int8))
    indices, sims = retrieve_topk(store, np.array([[1.0, 0.0]]), 4)
    np.testing.assert_array_equal(indices[0], [0, 5, 1, 2])
    np.testing.assert_array_equal(sims[0], [1.0, 0.0, -1.0, -1.0])


# -- against the per-query path and the CLI --------------------------------------------


@pytest.fixture(scope="module")
def default_run(tmp_path_factory):
    """configs/default.json, seed 0, through the CLI: data, model, store and
    the predictions of the whole test file in one batch."""
    root = tmp_path_factory.mktemp("default")
    config = str(DEFAULT_CONFIG)
    data, model, store, preds = root / "data", root / "model", root / "store.bin", root / "preds.jsonl"
    assert main(["--config", config, "--seed", "0", "gen-data", "--out", str(data)]) == EXIT_OK
    assert main(["--config", config, "--seed", "0", "train", "--data", str(data), "--out", str(model)]) == EXIT_OK
    assert main([
        "--config", config, "build-store", "--checkpoint", str(model / "model.json"),
        "--train-file", str(data / "train.jsonl"), "--out", str(store),
    ]) == EXIT_OK
    assert main([
        "--config", config, "predict", "--checkpoint", str(model / "model.json"), "--store", str(store),
        "--test-file", str(data / "test.jsonl"), "--out", str(preds),
    ]) == EXIT_OK
    with open(DEFAULT_CONFIG, "r", encoding="utf-8") as fh:
        cfg = InferenceConfig(**json.load(fh)["inference"])
    with open(preds, "r", encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    return load_checkpoint(model / "model.json"), load(store), load_jsonl(data / "test.jsonl")[0], cfg, records, root


def test_cli_chunks_give_the_bytes_of_one_batch(default_run, monkeypatch):
    *_, root = default_run
    monkeypatch.setattr(cli, "_PREDICT_CHUNK", 7)
    assert main([
        "--config", str(DEFAULT_CONFIG), "predict", "--checkpoint", str(root / "model" / "model.json"),
        "--store", str(root / "store.bin"), "--test-file", str(root / "data" / "test.jsonl"),
        "--out", str(root / "chunked" / "preds.jsonl"),
    ]) == EXIT_OK
    assert (root / "chunked" / "preds.jsonl").read_bytes() == (root / "preds.jsonl").read_bytes()


def test_cli_records_equal_library_predictions_bit_for_bit(default_run):
    state, store, test, cfg, records, _ = default_run
    assert len(records) == len(test) == 500
    batch = predict_batch(state, store, test, cfg)
    for i, record in enumerate(records):
        bundle = predict(state, store, test[i], cfg)
        assert_same_bundle(bundle, batch.row(i), f"row {i}")
        assert record["id"] == test.ids[i]
        assert bundle.y_clf.tolist() == record["y_clf"]
        assert bundle.y_knn.tolist() == record["y_knn"]
        assert bundle.lam == record["lambda"]
        assert bundle.y_final.tolist() == record["y_final"]
        assert bundle.decisions(cfg.decision_threshold).tolist() == record["y_pred"]
        pairs = [(n["index"], n["similarity"]) for n in record["neighbors"]]
        assert list(zip(bundle.neighbor_indices.tolist(), bundle.neighbor_sims.tolist())) == pairs


def test_batch_path_matches_the_per_query_path(default_run):
    state, store, test, cfg, _, _ = default_run
    batch = predict_batch(state, store, test, cfg)
    for i, sample in enumerate(test):
        want = ref_predict(state, store, sample, cfg)
        np.testing.assert_array_equal(batch.neighbor_indices[i], [n.index for n in want["neighbors"]])
        np.testing.assert_allclose(batch.neighbor_sims[i], [n.similarity for n in want["neighbors"]], rtol=0, atol=ABS_TOL)
        for name in ("y_clf", "y_knn", "lam", "y_final"):
            np.testing.assert_allclose(getattr(batch, name)[i], want[name], rtol=0, atol=ABS_TOL, err_msg=name)
        np.testing.assert_array_equal(batch.decisions()[i], (want["y_final"] >= 0.5).astype(np.int8))


def test_batch_path_matches_the_per_query_path_on_random_stores():
    dcfg = DatasetConfig(num_classes=6, num_clusters=2, train_size=120, valid_size=10, test_size=60, vocab_size=30, seed=5)
    train, _, test = generate_synthetic(dcfg)
    state = init_state(EncoderConfig(input_dim=30, hidden_dim=8, embed_dim=5, num_classes=6), seed=5)
    store = build(state, train)
    for k in (1, 10, 200):
        cfg = InferenceConfig(k=k)
        batch = predict_batch(state, store, test, cfg)
        for i, sample in enumerate(test):
            want = ref_predict(state, store, sample, cfg)
            np.testing.assert_array_equal(batch.neighbor_indices[i], [n.index for n in want["neighbors"]])
            np.testing.assert_allclose(batch.y_final[i], want["y_final"], rtol=0, atol=ABS_TOL)
