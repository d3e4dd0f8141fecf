"""Datastore build, exact retrieval, and binary persistence."""
from pathlib import Path

import numpy as np
import pytest

from knnmlc.data import DatasetConfig, generate_synthetic
from knnmlc import datastore
from knnmlc.datastore import Datastore, DatastoreFormatError, NonFiniteQueryError, build, load, retrieve_topk, save
from knnmlc.cli import _encoder_config, load_config
from knnmlc.encoder import EncoderConfig, init_state
from knnmlc.inference import predict
from knnmlc.mathops import make_rng
from knnmlc.training import Trainer

DEFAULT_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "default.json"

HEADER_BYTES = 22  # 4s magic + u16 version + u32 dim + u32 classes + u64 count


def brute_force_topk(keys, values, query, k):
    """Independent selection oracle: plain full sort by (similarity desc,
    index asc) over the same cosine values the store computes."""
    sims = np.clip(
        (keys @ query) / (np.linalg.norm(keys, axis=1) * np.linalg.norm(query)), -1.0, 1.0
    )
    order = sorted(range(len(keys)), key=lambda i: (-sims[i], i))[: min(k, len(keys))]
    return [(i, float(sims[i])) for i in order]


def random_store(rng, count=50, dim=5, num_classes=4):
    keys = rng.normal(size=(count, dim))
    values = (rng.random((count, num_classes)) < 0.4).astype(np.int8)
    return Datastore(keys=keys, values=values)


@pytest.fixture(scope="module")
def trained_setup():
    dcfg = DatasetConfig(
        num_classes=6, num_clusters=2, train_size=60, valid_size=10, test_size=10,
        vocab_size=30, seed=1,
    )
    train, _, _ = generate_synthetic(dcfg)
    ecfg = EncoderConfig(input_dim=30, hidden_dim=8, embed_dim=5, num_classes=6)
    state = init_state(ecfg, seed=1)
    return state, train


class TestBuild:
    def test_one_entry_per_sample_in_order(self, trained_setup):
        state, train = trained_setup
        store = build(state, train)
        assert store.count == len(train)
        np.testing.assert_array_equal(store.values, np.stack([s.labels for s in train]))

    def test_rebuild_is_bit_identical(self, trained_setup):
        state, train = trained_setup
        a = build(state, train)
        b = build(state, train)
        np.testing.assert_array_equal(a.keys, b.keys)

    def test_fraction_is_entrywise_prefix(self, trained_setup):
        state, train = trained_setup
        full = build(state, train)
        part = build(state, train, fraction=0.2)
        assert part.count == int(np.ceil(0.2 * len(train)))
        np.testing.assert_array_equal(part.keys, full.keys[: part.count])
        np.testing.assert_array_equal(part.values, full.values[: part.count])

    def test_prefix_blocks_are_blocks_of_the_full_build(self, trained_setup, monkeypatch):
        # blocks of 7 rows, and fractions that end inside a block: the prefix
        # must be embedded by the very matrix products of the full build (a
        # BLAS product may round a row differently for a different row count)
        state, train = trained_setup
        monkeypatch.setattr(datastore, "_BUILD_BLOCK_BYTES", 7 * 8 * state.config.input_dim)
        blocks = []
        real_forward = datastore.forward_batch

        def spy(state, batch, *args, **kwargs):
            blocks.append(batch.to_dense())
            return real_forward(state, batch, *args, **kwargs)

        monkeypatch.setattr(datastore, "forward_batch", spy)
        full = build(state, train)
        full_blocks = list(blocks)
        for fraction in (0.01, 0.05, 0.2, 0.25, 0.5, 0.9):
            blocks.clear()
            part = build(state, train, fraction=fraction)
            assert len(blocks) == -(-part.count // 7)
            for got, want in zip(blocks, full_blocks):
                np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(part.keys, full.keys[: part.count])

    def test_keys_are_quantized_to_float32(self, trained_setup):
        state, train = trained_setup
        keys = build(state, train).keys
        np.testing.assert_array_equal(keys, keys.astype(np.float32).astype(np.float64))

    def test_empty_input_rejected(self, trained_setup):
        state, _ = trained_setup
        with pytest.raises(ValueError):
            build(state, [])

    def test_bad_fraction_rejected(self, trained_setup):
        state, train = trained_setup
        with pytest.raises(ValueError):
            build(state, train, fraction=0.0)
        with pytest.raises(ValueError):
            build(state, train, fraction=1.5)


class TestRetrieve:
    def test_k_at_least_count_returns_everything_sorted(self):
        rng = make_rng(2)
        store = random_store(rng, count=12)
        query = rng.normal(size=5)
        out = retrieve_topk(store, query, k=50)
        assert len(out) == 12
        sims = [n.similarity for n in out]
        assert sims == sorted(sims, reverse=True)

    def test_exact_query_is_first_with_similarity_one(self):
        rng = make_rng(3)
        store = random_store(rng, count=20)
        query = store.keys[7] * 2.5  # same direction
        out = retrieve_topk(store, query, k=3)
        assert out[0].index == 7
        assert out[0].similarity == pytest.approx(1.0, abs=1e-12)

    def test_matches_brute_force_oracle(self):
        rng = make_rng(4)
        for trial in range(50):
            count = int(rng.integers(1, 60))
            dim = int(rng.integers(2, 6))
            store = random_store(rng, count=count, dim=dim)
            query = rng.normal(size=dim)
            k = int(rng.integers(1, count + 4))
            got = [(n.index, n.similarity) for n in retrieve_topk(store, query, k)]
            assert got == brute_force_topk(store.keys, store.values, query, k)

    def test_ties_break_by_ascending_index(self):
        base = np.array([1.0, 0.0, 0.0])
        keys = np.stack([base, [0.0, 1.0, 0.0], base, base * 3.0, [0.0, 0.0, 1.0]])
        values = np.zeros((5, 2), dtype=np.int8)
        store = Datastore(keys=keys, values=values)
        out = retrieve_topk(store, np.array([1.0, 0.0, 0.0]), k=3)
        assert [n.index for n in out] == [0, 2, 3]

    def test_neighbors_carry_labels(self):
        rng = make_rng(5)
        store = random_store(rng, count=9)
        out = retrieve_topk(store, rng.normal(size=5), k=4)
        for n in out:
            np.testing.assert_array_equal(n.labels, store.values[n.index])

    def test_zero_norm_query_rejected(self):
        rng = make_rng(6)
        store = random_store(rng)
        with pytest.raises(ValueError):
            retrieve_topk(store, np.zeros(5), k=3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_query_rejected(self, bad):
        rng = make_rng(6)
        store = random_store(rng)
        query = rng.normal(size=5)
        query[2] = bad
        with pytest.raises(NonFiniteQueryError, match="NaN or inf"):
            retrieve_topk(store, query, k=3)

    def test_bad_k_and_dim(self):
        rng = make_rng(7)
        store = random_store(rng)
        with pytest.raises(ValueError):
            retrieve_topk(store, rng.normal(size=5), k=0)
        with pytest.raises(ValueError):
            retrieve_topk(store, rng.normal(size=4), k=3)


class TestPersistence:
    def test_round_trip(self, tmp_path):
        rng = make_rng(8)
        store = random_store(rng, count=33, dim=6, num_classes=11)
        path = tmp_path / "store.bin"
        save(store, path)
        loaded = load(path)
        np.testing.assert_array_equal(loaded.keys, store.keys.astype(np.float32).astype(np.float64))
        np.testing.assert_array_equal(loaded.values, store.values)

    def test_file_size_formula(self, tmp_path):
        rng = make_rng(9)
        for count, dim, C in [(10, 4, 3), (7, 5, 8), (21, 2, 16)]:
            store = random_store(rng, count=count, dim=dim, num_classes=C)
            path = tmp_path / f"s{count}_{dim}_{C}.bin"
            save(store, path)
            assert path.stat().st_size == HEADER_BYTES + count * (4 * dim + (C + 7) // 8)

    def test_corrupted_magic_rejected(self, tmp_path):
        rng = make_rng(10)
        path = tmp_path / "store.bin"
        save(random_store(rng), path)
        blob = bytearray(path.read_bytes())
        blob[0] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(DatastoreFormatError, match="magic"):
            load(path)

    def test_wrong_version_rejected(self, tmp_path):
        rng = make_rng(11)
        path = tmp_path / "store.bin"
        save(random_store(rng), path)
        blob = bytearray(path.read_bytes())
        blob[4] = 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(DatastoreFormatError, match="version"):
            load(path)

    def test_truncated_file_rejected(self, tmp_path):
        rng = make_rng(12)
        path = tmp_path / "store.bin"
        save(random_store(rng), path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 5])
        with pytest.raises(DatastoreFormatError, match="size"):
            load(path)

    def test_retrieval_consistent_after_reload(self, tmp_path):
        # well-separated similarities survive float32 key quantization
        rng = make_rng(13)
        store = random_store(rng, count=40)
        path = tmp_path / "store.bin"
        save(store, path)
        loaded = load(path)
        for _ in range(20):
            query = rng.normal(size=5)
            a = [n.index for n in retrieve_topk(store, query, k=5)]
            b = [n.index for n in retrieve_topk(loaded, query, k=5)]
            assert a == b


def test_saved_store_gives_bit_identical_bundles(tmp_path):
    # the library path (in-memory store) and the CLI path (loaded store)
    # must search the same keys: every bundle equal bit for bit
    dataset_cfg, encoder_section, train_cfg, infer_cfg = load_config(str(DEFAULT_CONFIG))
    train, valid, test = generate_synthetic(dataset_cfg)
    ecfg = _encoder_config(encoder_section, dataset_cfg.vocab_size, dataset_cfg.num_classes)
    trainer = Trainer(train, valid, init_state(ecfg, seed=train_cfg.seed), train_cfg)
    trainer.run()
    state = trainer.best_state()
    store = build(state, train)
    save(store, tmp_path / "store.bin")
    loaded = load(tmp_path / "store.bin")
    np.testing.assert_array_equal(loaded.keys, store.keys)
    for sample in test:
        a = predict(state, store, sample, infer_cfg)
        b = predict(state, loaded, sample, infer_cfg)
        for field in ("y_clf", "y_knn", "y_final"):
            np.testing.assert_array_equal(getattr(a, field), getattr(b, field))
        assert a.lam == b.lam
        assert [(n.index, n.similarity) for n in a.neighbors] == [(n.index, n.similarity) for n in b.neighbors]
