"""Datastore build, exact retrieval, and binary persistence."""
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from knnmlc.encoder import EncoderConfig, init_state, rowwise_layers
from knnmlc.inference import predict
from knnmlc.mathops import _row_norms, make_rng
from knnmlc.training import Trainer
import oracles
from oracles import forward_rowwise, store_file_bytes, take

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


def layout_keys(rng, layout, count, dim, queries, k):
    """(count, dim) keys laid out as ``layout`` names: ``random``;
    ``label-sorted`` (keys of one cluster next to each other, as a store
    sorted by label holds them); ``period`` (the keys of k - 1 stride classes
    of the 8k groups, at least one, near the first query: the top keys fill
    fewer than k groups, so the group bound falls below them all);
    ``duplicates`` (a few distinct keys repeated, so that similarities tie
    at the cutoff)."""
    if layout == "label-sorted":
        centers = rng.normal(size=(4, dim))
        return centers[np.sort(rng.integers(4, size=count))] + 0.3 * rng.normal(size=(count, dim))
    keys = rng.normal(size=(count, dim))
    if layout == "period":
        near = np.arange(count) % (datastore._GROUPS_PER_NEIGHBOR * k) < max(1, k - 1)
        keys[near] = queries[0] + 0.05 * rng.normal(size=(near.sum(), dim))
    elif layout == "duplicates":
        keys = keys[rng.integers(min(3, count), size=count)]
    return keys


class Spy:
    """Counts the calls of one ``datastore`` function while installed."""

    def __init__(self, monkeypatch, name):
        self.calls, real = [], getattr(datastore, name)

        def spy(approx, k, *rest):
            self.calls.append(approx.shape[0])
            return real(approx, k, *rest)

        monkeypatch.setattr(datastore, name, spy)


class TestGroupBound:
    """The k-th similarity bounded by strided group maxima: the same bits as
    the full-partition oracle (``oracles._retrieve_topk``)."""

    # print_blob: a failure prints the @reproduce_failure blob that replays it
    @settings(max_examples=60, deadline=None, print_blob=True)
    @given(
        seed=st.integers(0, 2**20),
        k_base=st.sampled_from([1, 2, 3, 7]),
        strides=st.integers(1, 40),
        offset=st.sampled_from([-1, 0, 1, "below"]),
        k_pick=st.sampled_from(["base", "count - 1", "count"]),
        layout=st.sampled_from(["random", "label-sorted", "period", "duplicates"]),
        n=st.integers(1, 16),
        dim=st.sampled_from([2, 5, 12]),
    )
    def test_every_count_layout_and_k_equals_the_full_partition_oracle(
        self, seed, k_base, strides, offset, k_pick, layout, n, dim
    ):
        # counts of g s - 1, g s and g s + 1 for g = 8 k groups, and below g;
        # every block of queries takes the group path where 8 k < count
        rng = make_rng(seed)
        groups = datastore._GROUPS_PER_NEIGHBOR * k_base
        count = int(rng.integers(1, groups)) if offset == "below" else max(1, groups * strides + offset)
        k = {"base": k_base, "count - 1": max(1, count - 1), "count": count}[k_pick]
        queries = rng.normal(size=(n, dim))
        store = Datastore(keys=layout_keys(rng, layout, count, dim, queries, k_base), values=np.zeros((count, 1)))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(datastore, "_BOUND_MIN_ENTRIES", 0)
            bounded = Spy(mp, "_group_bound")
            got = search(store, queries, k)
        want = oracles._retrieve_topk(store, queries, k)
        for a, b in zip(got, want):
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
        assert bool(bounded.calls) == (datastore._GROUPS_PER_NEIGHBOR * min(k, count) < count)

    @pytest.mark.parametrize("layout", ["random", "label-sorted", "period", "duplicates"])
    def test_a_block_past_the_entry_threshold_equals_the_oracle_at_the_real_settings(self, monkeypatch, layout):
        # 13 queries against 2000 keys at k = 30: the group path without any
        # patched threshold; the period layout (29 of every 240 keys near
        # the queries) and the tied keys take the fallback
        rng = make_rng(31)
        k = 30
        queries = rng.normal(size=(13, 12))
        queries[1:] = queries[0] + 0.05 * rng.normal(size=(12, 12))
        store = Datastore(keys=layout_keys(rng, layout, 2000, 12, queries, k), values=np.zeros((2000, 1)))
        bounded, exact = Spy(monkeypatch, "_group_bound"), Spy(monkeypatch, "_kth_largest")
        got = search(store, queries, k)
        want = oracles._retrieve_topk(store, queries, k)
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()
        assert bounded.calls == [13]
        assert bool(exact.calls) == (layout in ("period", "duplicates"))

    @pytest.mark.parametrize("layout", ["random", "label-sorted", "period", "duplicates"])
    def test_a_default_block_of_rows_with_unequal_candidate_counts_equals_the_oracle(self, monkeypatch, layout):
        # 131 queries against 2000 keys at d = 12, k = 30: one whole block of
        # the default workload, whose rows hold different numbers of
        # candidates, so each row's scores are padded before the sort
        rng = make_rng(34)
        k = 30
        queries = rng.normal(size=(131, 12))
        store = Datastore(keys=layout_keys(rng, layout, 2000, 12, queries, k), values=np.zeros((2000, 1)))
        assert datastore._QUERY_BLOCK_BYTES // (4 * store.count) == 131
        counts, real = [], datastore._candidates

        def candidates(approx, kth, d):
            flat, bounds = real(approx, kth, d)
            counts.append(np.diff(bounds))
            return flat, bounds

        monkeypatch.setattr(datastore, "_candidates", candidates)
        got = search(store, queries, k)
        want = oracles._retrieve_topk(store, queries, k)
        for a, b in zip(got, want):
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
        assert counts[-1].size == 131 and counts[-1].min() < counts[-1].max()

    @pytest.mark.parametrize("k", [30, 1000, 2000])
    def test_tied_similarities_of_one_query_come_out_in_ascending_index_order(self, k):
        # three distinct keys, each repeated at random places among 2000
        # entries, so each key's copies tie: past the nearest key's copies
        # the candidates mix two or three tied runs, which an unstable sort
        # would reorder
        rng = make_rng(35)
        queries = rng.normal(size=(1, 12))
        keys = layout_keys(rng, "duplicates", 2000, 12, queries, k)
        store = Datastore(keys=keys, values=np.zeros((2000, 1)))
        got = search(store, queries, k)
        want = oracles._retrieve_topk(store, queries, k)
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()
        # each key's copies in index order, the nearest key's first
        distinct, which = np.unique(keys, axis=0, return_inverse=True)
        nearest_first = np.argsort(-rescored_sims(distinct, queries[0]))
        runs = np.concatenate([np.flatnonzero(which.ravel() == w) for w in nearest_first])
        assert len(distinct) == 3 and got[0][0].tolist() == runs[:k].tolist()

    def test_a_row_whose_bound_admits_too_many_candidates_takes_the_exact_kth_value(self, monkeypatch):
        # rows 0 and 2 look at the period keys, row 1 away from them: only
        # rows 0 and 2 fall back, and the bits hold
        rng = make_rng(32)
        k, dim = 5, 6
        count = 30 * datastore._GROUPS_PER_NEIGHBOR * k + 7
        queries = rng.normal(size=(3, dim))
        queries[1] = -queries[0]
        queries[2] = queries[0] + 0.01 * rng.normal(size=dim)
        store = Datastore(keys=layout_keys(rng, "period", count, dim, queries, k), values=np.zeros((count, 1)))
        monkeypatch.setattr(datastore, "_BOUND_MIN_ENTRIES", 0)
        exact = Spy(monkeypatch, "_kth_largest")
        got = search(store, queries, k)
        want = oracles._retrieve_topk(store, queries, k)
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()
        assert exact.calls == [2]

    @pytest.mark.parametrize("count, rows, taken", [
        (8, 600, False), (9, 600, True), (4095, 1, False), (4096, 1, True), (2048, 2, True), (315, 13, False), (316, 13, True),
    ])
    def test_the_bound_is_taken_from_the_entry_threshold_on(self, monkeypatch, count, rows, taken):
        # a block's shape picks the form of the k-th value: at k = 1, more
        # than 8 keys and at least 4096 similarities (rows x count) take the
        # bound; a single query against a small store keeps the partition
        assert (datastore._GROUPS_PER_NEIGHBOR, datastore._BOUND_MIN_ENTRIES) == (8, 4096)
        rng = make_rng(33)
        store = Datastore(keys=rng.normal(size=(count, 4)), values=np.zeros((count, 1)))
        bounded = Spy(monkeypatch, "_group_bound")
        search(store, rng.normal(size=(rows, 4)), 1)
        assert bounded.calls == ([rows] if taken else [])

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**20),
        rows=st.integers(1, 4),
        k=st.integers(1, 9),
        extra=st.integers(1, 200),
        levels=st.sampled_from([3, 50, None]),
    )
    def test_the_kth_largest_group_maximum_is_at_most_the_kth_largest_entry(self, seed, rows, k, extra, levels):
        # the lemma: against a sort, and the groups against i mod g by hand;
        # few levels give ties
        rng = make_rng(seed)
        groups = 8 * k
        count = groups + extra
        approx = rng.normal(size=(rows, count)).astype(np.float32)
        if levels:
            approx = np.round(approx * levels / 4).astype(np.float32)
        before = approx.copy()
        bound = datastore._group_bound(approx, k, groups)
        assert approx.tobytes() == before.tobytes()  # the similarities are left as they are
        kth = np.sort(approx, axis=1)[:, count - k]
        assert (bound <= kth).all()
        maxima = np.stack([approx[:, np.arange(count) % groups == g].max(axis=1) for g in range(groups)], axis=1)
        assert bound.tobytes() == np.sort(maxima, axis=1)[:, groups - k].tobytes()

    @pytest.mark.parametrize("count", [1, 2, 2047, 2048, 2049, 4097, 6143])
    def test_unit_columns_are_the_float32_of_the_float64_quotients(self, count):
        # column blocks of _COLUMN_BLOCK keys, counts off a multiple of it
        rng = make_rng(34)
        keys = (rng.normal(size=(count, 7)) * rng.uniform(0.1, 10.0, size=(count, 1))).astype(np.float32)
        norms = datastore._key_norms(keys)
        got = datastore._unit_columns(keys, norms)
        want = (keys.T.astype(np.float64) / norms).astype(np.float32)
        assert got.dtype == np.float32 and got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("rescore_bytes", [1, 8 * 5 * 7])
    def test_rescoring_in_chunks_gives_the_bits_of_one_chunk(self, monkeypatch, rescore_bytes):
        # chunks of one candidate (a budget below one key's operands) and of 7
        rng = make_rng(36)
        store = Datastore(keys=rng.normal(size=(300, 5)), values=np.zeros((300, 1)))
        queries = rng.normal(size=(9, 5))
        whole = search(store, queries, 40)
        monkeypatch.setattr(datastore, "_RESCORE_BYTES", rescore_bytes)
        for a, b in zip(search(store, queries, 40), whole):
            assert a.tobytes() == b.tobytes()

    def test_search_memory_stays_near_the_block_size_whatever_k(self):
        # a 20000 x 32 store and 13 queries: with k near the count every key
        # is a candidate, and the blocks and the rescoring chunks keep the
        # traced peak, beyond the result itself, near two query blocks
        rng = make_rng(35)
        count, dim = 20000, 32
        store = Datastore(keys=rng.normal(size=(count, dim)), values=np.zeros((count, 1)))
        store.unit_t
        queries = rng.normal(size=(13, dim))
        results = {}
        for k in (30, count - 1, count):
            tracemalloc.start()
            try:
                results[k] = search(store, queries, k)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            result_bytes = sum(a.nbytes for a in results[k])
            assert peak - result_bytes < 2 * datastore._QUERY_BLOCK_BYTES, (k, peak - result_bytes)
        # the exact top k of every k is a prefix of the full sort
        for k in (30, count - 1):
            for a, b in zip(results[k], results[count]):
                assert a.tobytes() == b[:, :k].tobytes()


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

    @pytest.mark.parametrize("first,later", [(-1, 2), (2, -1)])
    def test_int8_labels_name_the_first_bad_value(self, first, later):
        # int8 labels are checked by one unsigned maximum, which sees -1 as
        # 255; the error still names the first bad value in row order
        keys = np.ones((4, 2))
        values = np.zeros((4, 3), dtype=np.int8)
        values[1, 2], values[3, 0] = first, later
        with pytest.raises(ValueError, match=re.escape(f"label values must be 0 or 1, got {first}")):
            Datastore(keys=keys, values=values)
        values[1, 2], values[3, 0] = 1, 0
        assert Datastore(keys=keys, values=values).values is values
        with pytest.raises(ValueError, match=re.escape("got 0.5")):
            Datastore(keys=keys, values=np.where(values == 1, 0.5, 0.0))


class TestKeyChecks:
    # counts 1, R - 1, R, R + 1 and 2R + 3 for a range of R rows
    @pytest.mark.parametrize("ranges,extra", [(0, 1), (1, -1), (1, 0), (1, 1), (2, 3)])
    def test_norms_formed_in_ranges_are_the_whole_array_norms(self, ranges, extra):
        dim = 16
        count = ranges * (datastore._NORM_RANGE_BYTES // (8 * dim)) + extra
        rng = make_rng(16)
        # magnitudes from 1e-20 to 1e20, so the float64 squares span 80 decades
        scale = 10.0 ** rng.uniform(-20, 20, size=(count, 1))
        keys = (rng.normal(size=(count, dim)) * scale).astype(np.float32)
        want = _row_norms(keys.astype(np.float64))
        assert datastore._key_norms(keys).tobytes() == want.tobytes()
        assert Datastore(keys=keys, values=np.zeros((count, 1), dtype=np.int8)).norms.tobytes() == want.tobytes()

    def test_a_bad_key_in_a_later_range_is_named(self):
        dim = 4
        r = datastore._NORM_RANGE_BYTES // (8 * dim)
        keys = make_rng(18).normal(size=(3 * r, dim))
        keys[2 * r + 5] = 0.0
        keys[3 * r - 1, 1] = np.nan
        with pytest.raises(InvalidKeyError, match=re.escape(f"2 key(s) with zero norm or NaN/inf entries (first at index {2 * r + 5})")):
            Datastore(keys=keys, values=np.zeros((3 * r, 2), dtype=np.int8))


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

    @pytest.mark.parametrize("count,dim,classes", [(1, 1, 1), (33, 6, 11), (7, 5, 8), (21, 2, 16), (5, 3, 17)])
    def test_saved_bytes_are_the_reference_writer_bytes(self, tmp_path, count, dim, classes):
        rng = make_rng(19)
        store = random_store(rng, count=count, dim=dim, num_classes=classes)
        want = store_file_bytes(store.keys, store.values)
        save(store, tmp_path / "store.bin")
        assert (tmp_path / "store.bin").read_bytes() == want
        # F-ordered keys are used as given and written in C order; a loaded
        # store's keys are a read-only view of the file's bytes
        save(Datastore(keys=np.asfortranarray(store.keys), values=store.values), tmp_path / "f.bin")
        save(load(tmp_path / "store.bin"), tmp_path / "again.bin")
        assert (tmp_path / "f.bin").read_bytes() == want and (tmp_path / "again.bin").read_bytes() == want

    def test_making_saving_and_loading_a_store_allocate_under_one_keys_worth(self, tmp_path):
        # no float64 copy of the keys, no bytes copy of them on save, one
        # label unpack on load: beyond what the two stores hold at the end,
        # the peak stays under the keys' own bytes
        count, dim, classes = 65536, 16, 8
        rng = make_rng(20)
        keys = rng.normal(size=(count, dim)).astype(np.float32)
        values = (rng.random((count, classes)) < 0.3).astype(np.int8)
        tracemalloc.start()
        try:
            store = Datastore(keys=keys, values=values)
            save(store, tmp_path / "store.bin")
            loaded = load(tmp_path / "store.bin")
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert loaded.keys.tobytes() == store.keys.tobytes() and loaded.values.tobytes() == values.tobytes()
        assert peak - held < keys.nbytes, (peak - held) / keys.nbytes

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
    # the rows of each gathered range: _gather_range runs once per range
    calls = []
    real_range = encoder._gather_range

    def range_spy(w_in, indices, starts, factors, positions, out):
        calls.append(len(starts))
        return real_range(w_in, indices, starts, factors, positions, out)

    monkeypatch.setattr(encoder, "_gather_range", range_spy)
    # before the float32 rounding too
    assert rowwise_layers(state, train).tobytes() == singles.tobytes()
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
