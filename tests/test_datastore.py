"""Datastore build, exact retrieval, and binary persistence."""
import re
from pathlib import Path

import numpy as np
import pytest

from knnmlc.data import DatasetConfig, generate_synthetic
from knnmlc import datastore, encoder
from knnmlc.datastore import (
    Datastore,
    DatastoreFormatError,
    InvalidKeyError,
    NonFiniteQueryError,
    build,
    load,
    save,
    search,
)
from knnmlc.cli import _encoder_config, load_config
from knnmlc.encoder import EncoderConfig, init_state, rowwise_layers, weight_rows
from knnmlc.inference import predict
from knnmlc.mathops import make_rng
from knnmlc.training import Trainer
from oracles import forward_rowwise, take

DEFAULT_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "default.json"

HEADER_BYTES = 22  # 4s magic + u16 version + u32 dim + u32 classes + u64 count


def rescored_sims(keys, query):
    """The cosine values the store ranks by: float64 unit keys times the unit
    query, summed along each row (norms too are row sums, not BLAS dots)."""
    keys = np.asarray(keys, dtype=np.float64)
    unit = keys / np.sqrt((keys * keys).sum(axis=1))[:, None]
    q = np.asarray(query, dtype=np.float64)
    return np.clip((unit * (q / np.sqrt((q * q).sum()))).sum(axis=1), -1.0, 1.0)


def brute_force_topk(keys, values, query, k):
    """Independent selection oracle: plain full sort by (similarity desc,
    index asc) over the same cosine values the store computes."""
    sims = rescored_sims(keys, query)
    order = sorted(range(len(keys)), key=lambda i: (-sims[i], i))[: min(k, len(keys))]
    return [(i, float(sims[i])) for i in order]


def topk_pairs(store, query, k):
    """One query's neighbors as (index, similarity) pairs."""
    indices, sims = search(store, np.asarray(query)[None], k)
    return list(zip(indices[0].tolist(), sims[0].tolist()))


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
        np.testing.assert_array_equal(store.values, train.labels)

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
        out = topk_pairs(store, query, k=50)
        assert len(out) == 12
        sims = [sim for _, sim in out]
        assert sims == sorted(sims, reverse=True)

    def test_exact_query_is_first_with_similarity_one(self):
        rng = make_rng(3)
        store = random_store(rng, count=20)
        query = store.keys[7] * 2.5  # same direction
        out = topk_pairs(store, query, k=3)
        assert out[0][0] == 7
        assert out[0][1] == pytest.approx(1.0, abs=1e-12)

    def test_matches_brute_force_oracle(self):
        rng = make_rng(4)
        for trial in range(50):
            count = int(rng.integers(1, 60))
            dim = int(rng.integers(2, 6))
            store = random_store(rng, count=count, dim=dim)
            query = rng.normal(size=dim)
            k = int(rng.integers(1, count + 4))
            assert topk_pairs(store, query, k) == brute_force_topk(store.keys, store.values, query, k)

    def test_ties_break_by_ascending_index(self):
        base = np.array([1.0, 0.0, 0.0])
        keys = np.stack([base, [0.0, 1.0, 0.0], base, base * 3.0, [0.0, 0.0, 1.0]])
        values = np.zeros((5, 2), dtype=np.int8)
        store = Datastore(keys=keys, values=values)
        out = topk_pairs(store, np.array([1.0, 0.0, 0.0]), k=3)
        assert [index for index, _ in out] == [0, 2, 3]

    def test_neighbors_carry_labels(self):
        # the labels a neighbor carries are its store row, as in the oracle
        rng = make_rng(5)
        store = random_store(rng, count=9)
        query = rng.normal(size=5)
        indices, _ = search(store, query[None], k=4)
        want = [i for i, _ in brute_force_topk(store.keys, store.values, query, 4)]
        np.testing.assert_array_equal(store.values[indices[0]], store.values[want])

    def test_zero_norm_query_rejected(self):
        # its unit vector would be 0/0: no similarity to rank by
        rng = make_rng(6)
        store = random_store(rng)
        queries = rng.normal(size=(4, 5))
        queries[2] = 0.0
        queries[3] = 0.0
        with pytest.raises(NonFiniteQueryError, match="^row 2: cannot retrieve with a zero-norm query$") as got:
            search(store, queries, k=3)
        assert got.value.row == 2

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_query_rejected(self, bad):
        rng = make_rng(6)
        store = random_store(rng)
        queries = rng.normal(size=(3, 5))
        queries[1, 2] = bad
        with pytest.raises(NonFiniteQueryError, match="^row 1: cannot retrieve with a query that holds NaN or inf$"):
            search(store, queries, k=3)

    def test_a_query_whose_norm_overflows_is_rejected_without_a_warning(self):
        # finite entries whose sum of squares overflows: the check reports
        # it, and no overflow warning (an error under pytest) escapes
        rng = make_rng(6)
        store = random_store(rng)
        queries = rng.normal(size=(3, 5))
        queries[2] = 1e200
        with pytest.raises(NonFiniteQueryError, match="^row 2: .*NaN or inf"):
            search(store, queries, k=3)

    def test_a_query_past_the_overflow_bound_with_a_finite_norm_is_served(self):
        # entries above sqrt(max / 2d) take the guarded sum; scaled by a power
        # of two the unit query, and so the result, keeps its bits
        rng = make_rng(7)
        store = random_store(rng)
        query = np.array([[1.0, 0.5, -0.25, 0.125, 0.0]])
        big = query * 2.0**511
        assert np.abs(big).max() > np.sqrt(np.finfo(np.float64).max / 10)
        for got, want in zip(search(store, big, k=4), search(store, query, k=4)):
            assert got.tobytes() == want.tobytes()

    def test_bad_k_and_dim(self):
        rng = make_rng(7)
        store = random_store(rng)
        with pytest.raises(ValueError):
            search(store, rng.normal(size=(1, 5)), k=0)
        with pytest.raises(ValueError):
            search(store, rng.normal(size=(1, 4)), k=3)
        with pytest.raises(ValueError):
            search(store, rng.normal(size=5), k=3)


class TestLabelChecks:
    @pytest.mark.parametrize("bad", [2, -1, 0.5, 1.7, 257])
    def test_a_label_value_other_than_0_or_1_is_rejected_naming_it(self, tmp_path, bad):
        # an int8 cast would make 0.5 a 0, 1.7 and 257 a 1 and keep 2, while
        # the file holds one bit per label: the store and its saved copy
        # would vote differently
        keys = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 7.0]])
        values = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        values[1, 0] = bad
        with pytest.raises(ValueError, match=re.escape(f"label values must be 0 or 1, got {values[1, 0]}")):
            Datastore(keys=keys, values=values)
        values[1, 0] = 1.0
        store = Datastore(keys=keys, values=values)
        assert store.values.dtype == np.int8 and store.values.tolist() == [[1, 0], [1, 1], [1, 0]]
        save(store, tmp_path / "store.bin")
        np.testing.assert_array_equal(load(tmp_path / "store.bin").values, store.values)


class TestKeyChecks:
    @pytest.mark.parametrize("bad", [0.0, np.nan, np.inf])
    def test_bad_key_rejected_when_the_store_is_made(self, bad):
        rng = make_rng(14)
        keys = rng.normal(size=(6, 4))
        keys[3] = bad
        with pytest.raises(InvalidKeyError, match="index 3"):
            Datastore(keys=keys, values=np.zeros((6, 2), dtype=np.int8))

    def test_build_rejects_zero_embeddings(self, trained_setup):
        state, train = trained_setup
        broken = state.copy()
        broken.w_emb[:] = 0.0
        broken.b_emb[:] = 0.0
        with pytest.raises(InvalidKeyError):
            build(broken, train)

    def test_build_rejects_non_finite_embeddings(self, trained_setup):
        state, train = trained_setup
        broken = state.copy()
        broken.b_emb[1] = np.nan
        with pytest.raises(InvalidKeyError):
            build(broken, train)

    def test_load_rejects_a_zero_key_row(self, tmp_path):
        rng = make_rng(15)
        path = tmp_path / "store.bin"
        save(random_store(rng, count=5, dim=3), path)
        blob = bytearray(path.read_bytes())
        row = 2
        blob[HEADER_BYTES + row * 12 : HEADER_BYTES + (row + 1) * 12] = bytes(12)
        path.write_bytes(bytes(blob))
        with pytest.raises(DatastoreFormatError, match="zero norm"):
            load(path)


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
            assert topk_pairs(store, query, k=5) == topk_pairs(loaded, query, k=5)


@pytest.fixture(scope="module")
def default_run():
    """The shipped config at its seed 0: the trained state, the packed
    training split, and the test split with the inference config."""
    dataset_cfg, encoder_section, train_cfg, infer_cfg = load_config(str(DEFAULT_CONFIG))
    train, valid, test = generate_synthetic(dataset_cfg)
    ecfg = _encoder_config(encoder_section, dataset_cfg.vocab_size, dataset_cfg.num_classes)
    trainer = Trainer(train, valid, init_state(ecfg, seed=train_cfg.seed), train_cfg)
    trainer.run()
    return trainer.best_state(), train, test, infer_cfg


@pytest.mark.parametrize("gather_rows,build_rows", [(None, None), (1, None), (7, None), (None, 5)])
def test_store_keys_are_the_query_path_embeddings(default_run, monkeypatch, gather_rows, build_rows):
    # key i is the float32 of the dropout-off pass on sample i alone (the
    # pass predict runs on a query; here its reference form), for the full
    # store and for prefixes that end inside a block, with the module's
    # block sizes, with gather blocks of 1 and 7 rows, and with build ranges
    # of 5 rows
    state, train, _, _ = default_run
    cfg = state.config
    singles = np.stack([forward_rowwise(state, take(train, [i])).embedding[0] for i in range(len(train))])
    want = singles.astype(np.float32)
    n, nnz = len(train), train.indices.size
    if gather_rows is not None:
        # the smallest block size that gives the whole split gather_rows rows
        monkeypatch.setattr(encoder, "_GATHER_BLOCK_BYTES", -(-gather_rows * 8 * cfg.hidden_dim * nnz // n))
    if build_rows is not None:
        row_bytes = 8 * (4 * cfg.hidden_dim + cfg.embed_dim + cfg.num_classes)
        monkeypatch.setattr(datastore, "_BUILD_TRACE_BYTES", build_rows * row_bytes)
    calls = []
    real_gather = encoder._gather_rows

    def spy(w_rows, batch):
        calls.append(len(batch))
        return real_gather(w_rows, batch)

    monkeypatch.setattr(encoder, "_gather_rows", spy)
    # before the float32 rounding too
    assert rowwise_layers(state, train, weight_rows(state, nnz)).tobytes() == singles.tobytes()
    if gather_rows is not None:
        assert calls[0] == gather_rows and len(calls) == -(-n // gather_rows)
    assert build(state, train).keys.tobytes() == want.tobytes()
    for fraction in (0.01, 0.05, 0.2, 0.25, 0.5, 0.9):
        part = build(state, train, fraction=fraction)
        assert part.count % 7 and part.keys.tobytes() == want[: part.count].tobytes(), fraction


def test_saved_store_gives_bit_identical_bundles(tmp_path, default_run):
    # the library path (in-memory store) and the CLI path (loaded store)
    # must search the same keys: every bundle equal bit for bit
    state, train, test, infer_cfg = default_run
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
        np.testing.assert_array_equal(a.neighbor_indices, b.neighbor_indices)
        np.testing.assert_array_equal(a.neighbor_sims, b.neighbor_sims)
