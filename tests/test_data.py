"""Synthetic generator, JSONL persistence, frequency grouping."""
import hashlib
import json
import math
import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import oracles
import pytest
from hypothesis import given
from hypothesis import strategies as st

from knnmlc import copies, data
from knnmlc.cli import EXIT_OK, main
from knnmlc.data import (
    DataFormatError,
    DatasetConfig,
    PackedSamples,
    _index,
    cluster_layout,
    frequency_groups,
    generate_synthetic,
    label_frequencies,
    load_jsonl,
    load_packed,
    save_splits,
)

REPO = Path(__file__).resolve().parents[1]


def small_cfg(**kw):
    base = dict(train_size=200, valid_size=40, test_size=40, seed=7)
    base.update(kw)
    return DatasetConfig(**base)


def same_split(a: PackedSamples, b: PackedSamples) -> bool:
    """The same ids, input_dim and arrays, with the same dtypes and bits."""

    def fields(split):
        arrays = (split.indptr, split.indices, split.values, split.labels, split.id_offsets, split.id_bytes)
        return [split.input_dim, split.ids()] + [(x.dtype, x.shape, x.tobytes()) for x in arrays]

    return fields(a) == fields(b)


class TestGenerator:
    def test_deterministic_given_seed(self):
        a = generate_synthetic(small_cfg())
        b = generate_synthetic(small_cfg())
        for split_a, split_b in zip(a, b):
            assert same_split(split_a, split_b)

    def test_different_seeds_differ(self):
        a = generate_synthetic(small_cfg(seed=1))[0]
        b = generate_synthetic(small_cfg(seed=2))[0]
        assert not np.array_equal(a.labels, b.labels)

    def test_noiseless_labels_equal_cluster_sets(self):
        cfg = small_cfg(label_noise=0.0)
        label_sets, _, _, _ = cluster_layout(cfg)
        cluster_sets = [frozenset(int(c) for c in ls) for ls in label_sets]
        for split in generate_synthetic(cfg):
            for labels in split.labels:
                assert frozenset(np.flatnonzero(labels).tolist()) in cluster_sets

    def test_default_mean_labels_in_range(self):
        # brute-force count over the generator's own output
        train, _, _ = generate_synthetic(DatasetConfig(seed=0))
        mean = int(train.labels.sum()) / len(train)
        assert 2.0 <= mean <= 4.0

    def test_every_sample_has_a_positive_label(self):
        for split in generate_synthetic(small_cfg(label_noise=0.4)):
            assert (split.labels.sum(axis=1) >= 1).all()

    def test_feature_indices_within_vocab(self):
        cfg = small_cfg()
        for split in generate_synthetic(cfg):
            assert split.input_dim == cfg.vocab_size
            assert 0 <= split.indices.min() and split.indices.max() < cfg.vocab_size

    def test_split_sizes(self):
        cfg = small_cfg()
        train, valid, test = generate_synthetic(cfg)
        assert (len(train), len(valid), len(test)) == (200, 40, 40)

    def test_tight_vocab_still_gives_nonempty_blocks(self):
        # vocab barely above the minimum must not squeeze any cluster's own
        # block to zero (the 40% shared split is clamped)
        cfg = DatasetConfig(
            num_classes=18, num_clusters=12, vocab_size=18,
            train_size=100, valid_size=5, test_size=5, cluster_skew=1.0, seed=0,
        )
        _, own_blocks, pair_blocks, _ = cluster_layout(cfg)
        assert all(b.size > 0 for b in own_blocks)
        assert all(b.size > 0 for b in pair_blocks)
        train, _, _ = generate_synthetic(cfg)
        assert len(train) == 100

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            generate_synthetic(small_cfg(num_clusters=20))
        with pytest.raises(ValueError):
            generate_synthetic(small_cfg(label_noise=1.5))
        with pytest.raises(ValueError):
            generate_synthetic(small_cfg(train_size=0))
        # every cluster needs a shared core plus at least one own label
        with pytest.raises(ValueError):
            generate_synthetic(small_cfg(num_classes=5, num_clusters=4))
        # an index into the vocabulary is drawn below 2**32
        with pytest.raises(ValueError, match="vocab_size must be below 2\\*\\*32"):
            small_cfg(vocab_size=2**32).validate()
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            generate_synthetic(small_cfg(seed=-1))


GENERATOR_CONFIGS = [
    {},
    {"num_clusters": 1, "num_classes": 3},  # one cluster whose label set is every label
    {"num_clusters": 1, "num_classes": 5},
    {"label_noise": 0.0},
    {"label_noise": 1.0},
    {"feature_noise": 1.0},
    {"feature_noise": 0.0},
    {"shared_feature_frac": 0.0},
    {"shared_feature_frac": 1.0},
    {"cluster_skew": 1.0, "num_clusters": 5, "num_classes": 9},
    {"num_classes": 48, "num_clusters": 16, "vocab_size": 2000},
    {"tokens_per_sample": 7},
    {"tokens_per_sample": 1},
    # every token block holds one index
    {"num_classes": 18, "num_clusters": 12, "vocab_size": 18, "cluster_skew": 1.0},
]


@pytest.mark.parametrize("overrides", GENERATOR_CONFIGS)
@pytest.mark.parametrize("seed", [0, 1, 5])
def test_generator_matches_the_per_sample_reference(overrides, seed):
    cfg = small_cfg(**{**overrides, "seed": seed})
    for got, want in zip(generate_synthetic(cfg), oracles.generate_synthetic(cfg)):
        assert same_split(got, oracles.pack(want, cfg.vocab_size))


@pytest.mark.parametrize("overrides", GENERATOR_CONFIGS)
@pytest.mark.parametrize("seed", [0, 1, 5])
def test_generated_splits_are_the_packed_files_of_save_splits(tmp_path, overrides, seed):
    cfg = small_cfg(**{**overrides, "seed": seed})
    paths = save_splits(generate_synthetic(cfg), tmp_path)
    for split, path in zip(generate_synthetic(cfg), paths.values()):
        loaded, num_classes, vocab_size = load_jsonl(path)
        assert (num_classes, vocab_size) == (cfg.num_classes, cfg.vocab_size)
        assert same_split(split, loaded)
        assert same_split(load_packed(path)[0], loaded)


def test_the_tight_vocab_config_has_one_index_blocks():
    _, own_blocks, pair_blocks, _ = cluster_layout(small_cfg(**GENERATOR_CONFIGS[-1]))
    assert {b.size for b in own_blocks} == {b.size for b in pair_blocks} == {1}


@pytest.mark.parametrize("overrides", GENERATOR_CONFIGS)
@pytest.mark.parametrize("seed", [0, 1, 5])
def test_save_splits_writes_the_bytes_of_the_scalar_draws(tmp_path, overrides, seed):
    cfg = small_cfg(**{**overrides, "seed": seed})
    paths = save_splits(generate_synthetic(cfg), tmp_path)
    for (name, path), split in zip(paths.items(), oracles.generate_synthetic(cfg)):
        ref = tmp_path / f"{name}.ref"
        oracles.save_jsonl(split, ref, cfg.num_classes, cfg.vocab_size)
        assert Path(path).read_bytes() == ref.read_bytes(), name


# -- the generator's rates ----------------------------------------------------
# Fixed-seed counts over generate_synthetic's packed output against the rates
# cluster_layout implies, each within 5 binomial standard deviations.


def within_5_sd(hits, trials: int, p: float) -> bool:
    return abs(int(hits) - trials * p) <= 5.0 * math.sqrt(trials * p * (1.0 - p))


def block_owners(cfg):
    """Per vocabulary index: the cluster whose own block holds it and the
    pair whose shared block holds it (-1 for none)."""
    _, own_blocks, pair_blocks, _ = cluster_layout(cfg)
    own, pair = np.full(cfg.vocab_size, -1), np.full(cfg.vocab_size, -1)
    for g, block in enumerate(own_blocks):
        own[block] = g
    for j, block in enumerate(pair_blocks):
        pair[block] = j
    return own, pair


@pytest.mark.parametrize(
    "overrides",
    [{"num_classes": 16, "num_clusters": 4, "label_noise": 0.3, "cluster_skew": 0.8},
     {"num_classes": 3, "num_clusters": 1, "label_noise": 0.6}],  # no out-label: the fallback is frequent
    ids=["four-clusters", "one-cluster"],
)
def test_label_keep_leak_and_fallback_rates(overrides):
    # every token comes from the cluster's own block, so the tokens name the cluster
    cfg = DatasetConfig(**overrides, feature_noise=0.0, shared_feature_frac=0.0,
                        train_size=4000, valid_size=1, test_size=1, seed=11)
    train = generate_synthetic(cfg)[0]
    entry_cluster = block_owners(cfg)[0][train.indices]
    cluster = entry_cluster[train.indptr[:-1]]
    assert np.array_equal(entry_cluster, cluster.repeat(np.diff(train.indptr)))
    p = cfg.label_noise
    for g, in_labels in enumerate(cluster_layout(cfg)[0]):
        rows = train.labels[cluster == g].astype(np.int64)
        n = len(rows)
        assert n > 500
        out = np.setdiff1d(np.arange(cfg.num_classes), in_labels)
        leak = min(1.0, p * in_labels.size / out.size) if out.size else 0.0
        # a sample that lost every label keeps its core label, in_labels[0]
        lost_all = p**in_labels.size * (1.0 - leak) ** out.size
        assert within_5_sd(rows[:, in_labels[0]].sum(), n, 1.0 - p + lost_all)
        assert within_5_sd(rows[:, in_labels[1:]].sum(), n * (in_labels.size - 1), 1.0 - p)
        assert within_5_sd(rows[:, out].sum(), n * out.size, leak)


@pytest.mark.parametrize(
    "overrides",
    [{"cluster_skew": 0.8}, {"num_classes": 9, "num_clusters": 5, "cluster_skew": 1.0}],  # 5: a pair of one
    ids=["four-clusters", "five-clusters"],
)
def test_cluster_shares_and_token_rates_of_the_noise_pair_and_own_draws(overrides):
    # without label noise the label set names the cluster
    cfg = DatasetConfig(**overrides, label_noise=0.0, feature_noise=0.3, shared_feature_frac=0.6,
                        train_size=3000, valid_size=1, test_size=1, seed=12)
    train = generate_synthetic(cfg)[0]
    label_sets, own_blocks, pair_blocks, priors = cluster_layout(cfg)
    names = {tuple(labels.tolist()): g for g, labels in enumerate(label_sets)}
    cluster = np.array([names[tuple(np.flatnonzero(row).tolist())] for row in train.labels])
    entry_cluster = cluster.repeat(np.diff(train.indptr))
    own, pair = block_owners(cfg)
    f, s = cfg.feature_noise, cfg.shared_feature_frac
    for g in range(cfg.num_clusters):
        assert within_5_sd((cluster == g).sum(), len(train), priors[g])
        idx, counts = train.indices[entry_cluster == g], train.values[entry_cluster == g]
        trials = int((cluster == g).sum()) * cfg.tokens_per_sample
        assert trials > 10_000 and counts.sum() == trials
        in_own, in_pair = counts[own[idx] == g].sum(), counts[pair[idx] == g // 2].sum()
        # a noise token is uniform over the vocabulary, so it lands in a block by the block's share
        o, q = own_blocks[g].size / cfg.vocab_size, pair_blocks[g // 2].size / cfg.vocab_size
        assert within_5_sd(in_own, trials, f * o + (1 - f) * (1 - s))
        assert within_5_sd(in_pair, trials, f * q + (1 - f) * s)
        assert within_5_sd(trials - in_own - in_pair, trials, f * (1 - o - q))


# SHA-256 of gen-data's files for configs/default.json at seed 1: the bytes
# depend on the PCG64 raw words alone, so they stay pinned whatever numpy's
# Generator methods do
DEFAULT_SEED1_SHA256 = {
    "train": "b759c28fbf129cc7a40b634941cf5e9ba9e35f47e496ae868b7f4be710f414aa",
    "valid": "1802b8ddef899bb56f83f2716f1845e4b6ba017b116f05b53b95c357a4177674",
    "test": "1b3b0685f8148c6f63a961e67a745850e708b03974d56bba90e3b55c516fef59",
}


def test_gen_data_bytes_are_pinned(tmp_path):
    argv = ["--config", str(REPO / "configs" / "default.json"), "--seed", "1", "gen-data", "--out", str(tmp_path)]
    assert main(argv) == EXIT_OK
    digests = {name: hashlib.sha256((tmp_path / f"{name}.jsonl").read_bytes()).hexdigest() for name in DEFAULT_SEED1_SHA256}
    assert digests == DEFAULT_SEED1_SHA256


def test_the_first_read_after_gen_data_is_served_from_its_copy(tmp_path, monkeypatch):
    argv = ["--config", str(REPO / "configs" / "default.json"), "--seed", "3", "gen-data", "--out", str(tmp_path)]
    assert main(argv) == EXIT_OK
    paths = [tmp_path / f"{name}.jsonl" for name in ("train", "valid", "test")]
    parsed = [load_jsonl(path) for path in paths]

    def no_parse(path):
        raise AssertionError(f"{path} was parsed")

    monkeypatch.setattr(data, "load_jsonl", no_parse)
    for path, (want, num_classes, vocab_size) in zip(paths, parsed):
        got, c, v = load_packed(path)
        assert (c, v) == (num_classes, vocab_size)
        assert same_split(got, want)


@pytest.mark.parametrize("rows, lines", [(1, 1), (7, 7), (None, 10_000)], ids=["1-row", "7-rows", "all-rows"])
def test_row_block_and_line_chunk_sizes_change_no_split_and_no_file(tmp_path, monkeypatch, rows, lines):
    cfg = small_cfg(tokens_per_sample=7)
    want = generate_synthetic(cfg)
    want_files = {name: Path(p).read_bytes() for name, p in save_splits(generate_synthetic(cfg), tmp_path).items()}
    per_sample = 1 + cfg.num_classes + 3 * cfg.tokens_per_sample
    monkeypatch.setattr(data, "_BLOCK_WORDS", per_sample * (rows or cfg.train_size))
    monkeypatch.setattr(data, "_CHUNK_LINES", lines)
    for got, split in zip(generate_synthetic(cfg), want):
        assert same_split(got, split)
    out = tmp_path / "blocks"
    out.mkdir()
    assert {name: Path(p).read_bytes() for name, p in save_splits(generate_synthetic(cfg), out).items()} == want_files


def test_a_block_smaller_than_one_row_still_draws_a_row(monkeypatch):
    cfg = small_cfg(train_size=3, valid_size=1, test_size=1)
    want = generate_synthetic(cfg)
    monkeypatch.setattr(data, "_BLOCK_WORDS", 1)
    for got, split in zip(generate_synthetic(cfg), want):
        assert same_split(got, split)


@pytest.mark.parametrize("size", [0, 1, 99_999, 100_000, 100_001])
def test_split_ids_are_the_packed_zero_padded_names(size):
    # at 100 000 an id widens to six digits
    for name in ("train", "valid"):
        got = data._split_ids(name, size)
        want = copies.pack_strings([f"{name}-{i:05d}" for i in range(size)])
        assert [(x.dtype, x.tobytes()) for x in got] == [(x.dtype, x.tobytes()) for x in want]


@given(
    words=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=20),
    size=st.one_of(st.integers(1, 2000), st.integers(2**31, 2**32 - 1)),
)
def test_an_index_is_the_exact_high_word_of_the_product(words, size):
    got = _index(np.array(words, dtype=np.uint64), np.uint64(size))
    assert got.dtype == np.uint64
    assert got.tolist() == [word * size >> 64 for word in words]


def test_an_index_steps_up_exactly_at_the_first_word_of_the_next_index():
    # index i starts at word ceil(i * 2**64 / size): the word before it gives i - 1
    for size in (3, 2000, 2**32 - 1):
        steps = range(1, min(size, 50))
        firsts = [-(-i * 2**64 // size) for i in steps]
        words = np.array([w for first in firsts for w in (first - 1, first)], dtype=np.uint64)
        assert _index(words, np.uint64(size)).tolist() == [i - d for i in steps for d in (1, 0)]


# -- the word layout, on hand-built words -------------------------------------
# generate_synthetic run on a bit generator that hands out given raw words, so
# each rule of the 1 + C + 3T layout is checked at its exact threshold.

TOP = 2**64 - 1  # u = 1 - 2**-53, and the last index of any block


def word(u: float) -> int:
    """The raw word that reads as u (a multiple of 2**-53 in [0, 1))."""
    return int(u * 2**53) << 11


def below(u: float) -> int:
    """The raw word that reads as the probability just under u."""
    return word(u) - (1 << 11)


class RawWords:
    """A bit generator stand-in whose random_raw hands out the given words in order."""

    def __init__(self, words):
        self.words, self.at = np.array(words, dtype=np.uint64), 0

    def random_raw(self, size):
        n = int(np.prod(size))
        out = self.words[self.at : self.at + n]
        self.at += n
        return out.reshape(size)


def layout_cfg(train_size: int, tokens: int) -> DatasetConfig:
    return DatasetConfig(num_classes=6, num_clusters=3, vocab_size=12, cluster_skew=0.5, label_noise=0.25,
                         feature_noise=0.5, shared_feature_frac=0.5, tokens_per_sample=tokens,
                         train_size=train_size, valid_size=1, test_size=1)


def generate_from_words(monkeypatch, cfg, rows):
    """generate_synthetic(cfg) reading the given rows (cluster word, C label
    words, then noise, block and index words per token), one row a sample of
    train, valid and test in turn; every word is read."""
    assert all(len(r) == 1 + cfg.num_classes + 3 * cfg.tokens_per_sample for r in rows)
    words = RawWords([w for r in rows for w in r])
    monkeypatch.setattr(data, "make_rng", lambda seed: SimpleNamespace(bit_generator=words))
    splits = generate_synthetic(cfg)
    assert words.at == words.words.size
    return splits


def test_the_hand_built_words_config_has_the_layout_the_tests_name():
    label_sets, own_blocks, pair_blocks, priors = cluster_layout(layout_cfg(1, 1))
    assert [s.tolist() for s in label_sets] == [[0, 2, 3], [0, 4], [1, 5]]
    assert [b.tolist() for b in pair_blocks] == [[0, 1], [2, 3]]
    assert [b.tolist() for b in own_blocks] == [[4, 5, 6], [7, 8, 9], [10, 11]]
    assert priors.tolist() == [4 / 7, 2 / 7, 1 / 7]


def test_the_cluster_word_picks_the_first_cdf_entry_above_it(monkeypatch):
    cfg = layout_cfg(6, 1)
    cdf = cluster_layout(cfg)[3].cumsum()
    cdf /= cdf[-1]
    # no label drawn (the core label stays), one token at the first index of the own block
    rest = [TOP] * cfg.num_classes + [TOP, TOP, 0]
    cluster_words = [0, below(cdf[0]), word(cdf[0]), below(cdf[1]), word(cdf[1]), TOP]
    train, _, _ = generate_from_words(monkeypatch, cfg, [[w] + rest for w in cluster_words] + [[0] + rest] * 2)
    assert train.indices.tolist() == [4, 4, 7, 7, 10, 10]
    assert np.flatnonzero(train.labels).tolist() == [0, 6, 12, 18, 25, 31]


def test_an_in_label_is_kept_below_one_minus_label_noise_and_an_out_label_leaks_below_its_rate(monkeypatch):
    cfg = layout_cfg(2, 1)
    token = [TOP, TOP, 0]
    # cluster 0: in-labels 0, 2, 3 kept below 0.75; out-labels 1, 4, 5 leak below 0.25 * 3 / 3
    first = [0, word(0.75), word(0.25), below(0.75), 0, below(0.25), TOP] + token
    # cluster 1: in-labels 0, 4 kept below 0.75; out-labels 1, 2, 3, 5 leak below 0.25 * 2 / 4
    second = [word(0.75), below(0.75), below(0.125), word(0.125), 0, word(0.75), TOP] + token
    train, _, _ = generate_from_words(monkeypatch, cfg, [first, second, first, first])
    assert train.labels.tolist() == [[0, 0, 1, 1, 1, 0], [1, 1, 0, 1, 0, 0]]


def test_a_sample_left_without_labels_keeps_its_clusters_core_label(monkeypatch):
    cfg = layout_cfg(3, 1)
    token = [TOP, TOP, 0]
    # cluster 2 (core label 1): nothing drawn, an out-label leaks alone, an in-label kept alone
    rows = [[TOP] * 7 + token, [TOP, 0] + [TOP] * 5 + token, [TOP] * 6 + [0] + token]
    train, _, _ = generate_from_words(monkeypatch, cfg, rows + rows[:2])
    assert train.labels.tolist() == [[0, 1, 0, 0, 0, 0], [1, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 1]]


def test_a_token_reads_its_noise_block_and_index_words_in_that_order(monkeypatch):
    cfg = layout_cfg(1, 6)
    # cluster 2: shared block [2, 3], own block [10, 11]; a noise token ignores its block word
    tokens = [
        (0, 0, 0),  # noise: vocabulary index 0
        (below(0.5), 0, TOP),  # noise: vocabulary index 11
        (word(0.5), 0, 0),  # shared block, first
        (word(0.5), below(0.5), TOP),  # shared block, last
        (word(0.5), word(0.5), 0),  # own block, first
        (TOP, TOP, TOP),  # own block, last
    ]
    row = [TOP] * 7 + [w for t in tokens for w in t]
    train, _, _ = generate_from_words(monkeypatch, cfg, [row] * 3)
    # a sample's features are its distinct tokens, ascending, valued by their count
    assert (train.indices.tolist(), train.values.tolist()) == ([0, 2, 3, 10, 11], [1.0, 1.0, 1.0, 1.0, 2.0])


def test_the_splits_read_consecutive_rows_of_one_stream(monkeypatch):
    cfg = layout_cfg(2, 1)
    labels = [TOP] * cfg.num_classes
    rows = [[g] + labels + [TOP, TOP, i] for g, i in [(0, 0), (word(0.75), 0), (TOP, 0), (0, TOP)]]
    splits = generate_from_words(monkeypatch, cfg, rows)
    assert [(s.ids(), s.indices.tolist()) for s in splits] == [
        (["train-00000", "train-00001"], [4, 7]), (["valid-00000"], [10]), (["test-00000"], [6])
    ]


def test_no_generator_method_draws_a_split(monkeypatch):
    cfg = small_cfg(tokens_per_sample=7)
    want = generate_synthetic(cfg)
    # a bare PCG64 has random_raw and no Generator method
    monkeypatch.setattr(data, "make_rng", lambda seed: SimpleNamespace(bit_generator=np.random.PCG64(seed)))
    for got, split in zip(generate_synthetic(cfg), want):
        assert same_split(got, split)


def records_of(split: PackedSamples):
    """The rows of a packed split as sample records, keys in row order."""
    bounds, ids = split.indptr.tolist(), split.ids()
    return [
        oracles.Sample(dict(zip(split.indices[lo:hi].tolist(), split.values[lo:hi].tolist())), split.labels[i], ids[i])
        for i, (lo, hi) in enumerate(zip(bounds, bounds[1:]))
    ]


# -- save_splits on hand-built splits -----------------------------------------
# (id, features, positive labels) per row, C = 5 and V = 10 000: ids that
# json.dumps escapes (a quote, a backslash, control characters, DEL, text
# beyond ASCII, a lone surrogate), rows without labels, 4-digit keys with
# counts of 10 and more, a record without features, and counts past 2**53
HAND_BUILT_CLASSES, HAND_BUILT_VOCAB = 5, 10_000
HAND_BUILT = [
    [
        ('a"b', {3: 1.0, 1017: 12.0}, []),
        ("back\\slash", {}, [0]),
        ("tab\tand\x01ctrl\n", {9999: 1234.0}, [1, 4]),
        ("café", {0: 2.0, 10: 10.0, 4321: 3.0}, [4]),
        ("日本\x7f\ud800", {5: 0.0}, []),
    ] + [(f"row-{i}", {i: 1.0, 1000 + i: float(i + 9)}, [i % 5]) for i in range(8)],
    [("plain-0", {1000: 10.0}, []), ("plain-1", {2: 1.0, 3: 11.0}, [0, 1, 2, 3, 4])],
    [("big-0", {7: 2.0**60, 8: 1e300}, [2]), ("big-1", {7: 2.0**60}, []), ("big-2", {}, [])],
]


def hand_built_splits(rows=HAND_BUILT):
    return [
        oracles.pack([oracles.Sample(f, np.isin(np.arange(HAND_BUILT_CLASSES), c), i) for i, f, c in split], HAND_BUILT_VOCAB)
        for split in rows
    ]


@pytest.mark.parametrize("pair_codes", [data._PAIR_CODES, 0], ids=["bincount", "unique"])
@pytest.mark.parametrize("lines", [1, 7, data._CHUNK_LINES])
def test_save_splits_writes_the_json_dumps_bytes_of_any_split(tmp_path, monkeypatch, lines, pair_codes):
    monkeypatch.setattr(data, "_CHUNK_LINES", lines)
    # 0: every split finds its (key, count) pairs by np.unique; at the shipped
    # bound only the valid split (counts up to 11) counts them with np.bincount
    monkeypatch.setattr(data, "_PAIR_CODES", pair_codes)
    splits = hand_built_splits()
    paths = save_splits(splits, tmp_path)
    for (name, path), split in zip(paths.items(), splits):
        ref = tmp_path / f"{name}.ref"
        oracles.save_jsonl(records_of(split), ref, HAND_BUILT_CLASSES, HAND_BUILT_VOCAB)
        assert Path(path).read_bytes() == ref.read_bytes(), name
        # the copy written beside the file stands for its bytes
        assert same_split(load_packed(path)[0], load_jsonl(path)[0])
        assert same_split(load_jsonl(path)[0], split)


@pytest.mark.parametrize("odd_id", ['a"b', "back\\slash", "del\x7f", "unit\x1fsep", "café", ""])
def test_one_id_that_json_dumps_escapes_is_escaped_among_plain_ids(tmp_path, odd_id):
    rows = [[("plain-0", {1: 1.0}, [0]), (odd_id, {2: 1.0}, [1]), ("plain-2", {3: 2.0}, [])]] * 3
    splits = hand_built_splits(rows)
    path = save_splits(splits, tmp_path)["train"]
    oracles.save_jsonl(records_of(splits[0]), tmp_path / "ref", HAND_BUILT_CLASSES, HAND_BUILT_VOCAB)
    assert Path(path).read_bytes() == (tmp_path / "ref").read_bytes()


def test_a_row_without_labels_is_written_with_an_empty_label_list(tmp_path):
    path = save_splits(hand_built_splits(), tmp_path)["valid"]
    assert Path(path).read_text().splitlines()[1] == '{"id": "plain-0", "features": {"1000": 10.0}, "labels": []}'


@pytest.mark.parametrize("value", [2.5, -1.0, -0.0, math.nan, math.inf])
def test_save_splits_refuses_a_value_that_is_no_whole_count_before_writing_a_byte(tmp_path, value):
    rows = [HAND_BUILT[0], HAND_BUILT[1], [("c-0", {1: 3.0}, [0]), ("c-1", {2: 1.0, 3: value}, [1])]]
    with pytest.raises(ValueError, match=rf"^test row 1: feature value {re.escape(repr(value))} is not a whole count"):
        save_splits(hand_built_splits(rows), tmp_path)
    assert list(tmp_path.iterdir()) == []


class TestJsonl:
    def test_round_trip_identity(self, tmp_path):
        cfg = small_cfg()
        train, _, _ = oracles.generate_synthetic(cfg)
        path = tmp_path / "train.jsonl"
        oracles.save_jsonl(train, path, cfg.num_classes, cfg.vocab_size)
        loaded, num_classes, vocab_size = load_jsonl(path)
        assert num_classes == cfg.num_classes
        assert vocab_size == cfg.vocab_size
        assert same_split(loaded, oracles.pack(train, cfg.vocab_size))
        assert records_of(loaded) == train

    def test_save_after_load_is_byte_identical(self, tmp_path):
        # the packed split keeps every id, key order, value and label of the file
        cfg = small_cfg()
        p1 = save_splits(generate_synthetic(cfg), tmp_path)["train"]
        p2 = tmp_path / "b.jsonl"
        loaded, c, v = load_jsonl(p1)
        oracles.save_jsonl(records_of(loaded), p2, c, v)
        assert Path(p1).read_bytes() == p2.read_bytes()

    def test_empty_body_with_header(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text('{"num_classes": 4, "vocab_size": 9}\n')
        samples, num_classes, vocab_size = load_jsonl(path)
        assert len(samples) == 0 and samples.labels.shape == (0, 4) and (num_classes, vocab_size) == (4, 9)

    def test_malformed_line_names_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"num_classes": 3, "vocab_size": 5}\n'
            '{"id": "a", "features": {"0": 1.0}, "labels": [0]}\n'
            "{not json}\n"
        )
        with pytest.raises(DataFormatError, match="line 3"):
            load_jsonl(path)

    def test_label_out_of_range(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"num_classes": 3, "vocab_size": 5}\n'
            '{"id": "a", "features": {"0": 1.0}, "labels": [3]}\n'
        )
        with pytest.raises(DataFormatError, match="label index 3"):
            load_jsonl(path)

    def test_feature_out_of_range(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"num_classes": 3, "vocab_size": 5}\n'
            '{"id": "a", "features": {"5": 1.0}, "labels": [0]}\n'
        )
        with pytest.raises(DataFormatError, match="feature index 5"):
            load_jsonl(path)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("")
        with pytest.raises(DataFormatError):
            load_jsonl(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"vocab_size": 5}\n')
        with pytest.raises(DataFormatError, match="line 1"):
            load_jsonl(path)


def _samples_with_frequencies(freqs):
    """One single-label sample per count unit; label c appears freqs[c] times."""
    labels = np.eye(len(freqs), dtype=np.int8).repeat(freqs, axis=0)
    return oracles.pack([oracles.Sample({0: 1.0}, row) for row in labels], 1)


class TestFrequencyGroups:
    def test_single_group(self):
        samples = _samples_with_frequencies([4, 2, 9])
        assert frequency_groups(samples.labels, num_groups=1) == {0: 0, 1: 0, 2: 0}

    def test_tie_break_lower_index_earlier(self):
        samples = _samples_with_frequencies([5, 5, 5, 5])
        groups = frequency_groups(samples.labels, num_groups=2)
        assert groups == {0: 0, 1: 0, 2: 1, 3: 1}

    def test_partition_property(self):
        train, _, _ = generate_synthetic(small_cfg())
        for n in (1, 2, 3, 4, 7):
            groups = frequency_groups(train.labels, num_groups=n)
            assert sorted(groups) == list(range(12))
            assert set(groups.values()) == set(range(min(n, 12)))

    def test_descending_frequency_order(self):
        train, _, _ = generate_synthetic(small_cfg())
        freqs = label_frequencies(train.labels)
        groups = frequency_groups(train.labels, num_groups=3)
        for a in range(12):
            for b in range(12):
                if groups[a] < groups[b]:
                    assert freqs[a] >= freqs[b]

    def test_more_groups_than_labels(self):
        samples = _samples_with_frequencies([3, 1])
        groups = frequency_groups(samples.labels, num_groups=10)
        assert sorted(groups) == [0, 1]

    def test_the_dict_lists_labels_by_descending_frequency(self):
        # eval's group report lists each group's labels in this order
        samples = _samples_with_frequencies([1, 5, 3, 5])
        assert list(frequency_groups(samples.labels, num_groups=2).items()) == [(1, 0), (3, 0), (2, 1), (0, 1)]

    def test_a_group_count_below_one_is_refused(self):
        with pytest.raises(ValueError, match="num_groups must be >= 1"):
            frequency_groups(_samples_with_frequencies([1, 2]).labels, num_groups=0)
