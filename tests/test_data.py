"""Synthetic generator, JSONL persistence, frequency grouping."""
import hashlib
import json
from pathlib import Path

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knnmlc.cli import EXIT_OK, main
from knnmlc.data import (
    DataFormatError,
    DatasetConfig,
    Sample,
    _below,
    _WordReader,
    cluster_layout,
    frequency_groups,
    generate_synthetic,
    label_frequencies,
    load_jsonl,
    save_jsonl,
    save_synthetic,
)
from knnmlc.mathops import make_rng

REPO = Path(__file__).resolve().parents[1]


def small_cfg(**kw):
    base = dict(train_size=200, valid_size=40, test_size=40, seed=7)
    base.update(kw)
    return DatasetConfig(**base)


class TestGenerator:
    def test_deterministic_given_seed(self):
        a = generate_synthetic(small_cfg())
        b = generate_synthetic(small_cfg())
        for split_a, split_b in zip(a, b):
            assert split_a == split_b

    def test_different_seeds_differ(self):
        a = generate_synthetic(small_cfg(seed=1))[0]
        b = generate_synthetic(small_cfg(seed=2))[0]
        assert a != b

    def test_noiseless_labels_equal_cluster_sets(self):
        cfg = small_cfg(label_noise=0.0)
        label_sets, _, _, _ = cluster_layout(cfg)
        cluster_sets = [frozenset(int(c) for c in ls) for ls in label_sets]
        for split in generate_synthetic(cfg):
            for s in split:
                assert frozenset(s.positive_labels()) in cluster_sets

    def test_default_mean_labels_in_range(self):
        # brute-force count over the generator's own output
        train, _, _ = generate_synthetic(DatasetConfig(seed=0))
        total = sum(int(s.labels.sum()) for s in train)
        mean = total / len(train)
        assert 2.0 <= mean <= 4.0

    def test_every_sample_has_a_positive_label(self):
        for split in generate_synthetic(small_cfg(label_noise=0.4)):
            for s in split:
                assert int(s.labels.sum()) >= 1

    def test_feature_indices_within_vocab(self):
        cfg = small_cfg()
        for split in generate_synthetic(cfg):
            for s in split:
                assert all(0 <= k < cfg.vocab_size for k in s.features)

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


def ref_draw_sample(cfg, rng, layout, sample_id):
    """The per-sample draw before per-cluster work moved out of it: the
    cluster by ``rng.choice(p=priors)`` and the out-label set and leak rate
    worked out again for every sample. Kept as the generator's oracle."""
    label_sets, own_blocks, pair_blocks, priors = layout
    g = int(rng.choice(cfg.num_clusters, p=priors))
    in_labels = label_sets[g]
    s = len(in_labels)

    labels = np.zeros(cfg.num_classes, dtype=np.int8)
    labels[in_labels] = (rng.random(s) >= cfg.label_noise).astype(np.int8)
    out_labels = np.setdiff1d(np.arange(cfg.num_classes), in_labels, assume_unique=True)
    if out_labels.size:
        add_p = min(1.0, cfg.label_noise * s / out_labels.size)
        labels[out_labels] = (rng.random(out_labels.size) < add_p).astype(np.int8)
    if labels.sum() == 0:
        labels[in_labels[0]] = 1

    features = {}
    own = own_blocks[g]
    shared = pair_blocks[g // 2]
    for _ in range(cfg.tokens_per_sample):
        r = rng.random()
        if r < cfg.feature_noise:
            idx = int(rng.integers(cfg.vocab_size))
        elif rng.random() < cfg.shared_feature_frac:
            idx = int(shared[rng.integers(shared.size)])
        else:
            idx = int(own[rng.integers(own.size)])
        features[idx] = features.get(idx, 0.0) + 1.0
    return Sample(features=features, labels=labels, sample_id=sample_id)


def ref_generate(cfg):
    rng = make_rng(cfg.seed)
    layout = cluster_layout(cfg)
    return tuple(
        [ref_draw_sample(cfg, rng, layout, f"{name}-{i:05d}") for i in range(size)]
        for name, size in (("train", cfg.train_size), ("valid", cfg.valid_size), ("test", cfg.test_size))
    )


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
    # every token block holds one index, so each block draw is integers(1)
    {"num_classes": 18, "num_clusters": 12, "vocab_size": 18, "cluster_skew": 1.0},
]


@pytest.mark.parametrize("overrides", GENERATOR_CONFIGS)
@pytest.mark.parametrize("seed", [0, 1, 5])
def test_generator_matches_the_per_sample_reference(overrides, seed):
    cfg = small_cfg(**{**overrides, "seed": seed})
    # the same features, with keys in ascending index order (as saved)
    for got, want in zip(generate_synthetic(cfg), ref_generate(cfg)):
        assert got == want
        assert [list(s.features) for s in got] == [sorted(s.features) for s in want]


def test_the_tight_vocab_config_has_one_index_blocks():
    _, own_blocks, pair_blocks, _ = cluster_layout(small_cfg(**GENERATOR_CONFIGS[-1]))
    assert {b.size for b in own_blocks} == {b.size for b in pair_blocks} == {1}


@pytest.mark.parametrize("overrides", GENERATOR_CONFIGS)
@pytest.mark.parametrize("seed", [0, 1, 5])
def test_save_synthetic_writes_the_bytes_of_the_scalar_draws(tmp_path, overrides, seed):
    cfg = small_cfg(**{**overrides, "seed": seed})
    paths = save_synthetic(cfg, tmp_path)
    for (name, path), split in zip(paths.items(), oracles.generate_synthetic(cfg)):
        ref = tmp_path / f"{name}.ref"
        oracles.save_jsonl(split, ref, cfg.num_classes, cfg.vocab_size)
        assert Path(path).read_bytes() == ref.read_bytes(), name


# SHA-256 of gen-data's files for configs/default.json at seed 1, as written by
# scalar Generator calls: the bytes stay pinned whatever numpy's Generator does
DEFAULT_SEED1_SHA256 = {
    "train": "4233b1a1934908078bd21ed8951c0ede5c0f3f5a3dc553d4c6e236bedc357de7",
    "valid": "f102762136d8b9b861689f0b4b0168b3178f2cdc0bbc375d22822fb5165e3334",
    "test": "50e33830cf102ecb29e1f7ae3e1b1c6bcb79ba1b5edd870a092b039493f0844d",
}


def test_gen_data_bytes_are_pinned(tmp_path):
    argv = ["--config", str(REPO / "configs" / "default.json"), "--seed", "1", "gen-data", "--out", str(tmp_path)]
    assert main(argv) == EXIT_OK
    digests = {name: hashlib.sha256((tmp_path / f"{name}.jsonl").read_bytes()).hexdigest() for name in DEFAULT_SEED1_SHA256}
    assert digests == DEFAULT_SEED1_SHA256


WORD_READER_RANGES = [1, 2, 7, 2000, 2**31 + 1, 3 * 2**30, 2**32 - 1, 2**32]
WORD_READER_CALLS = st.one_of(
    st.just(("random", None)),
    st.tuples(st.just("random"), st.integers(0, 50)),
    st.tuples(st.just("integers"), st.sampled_from(WORD_READER_RANGES)),
)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    block=st.sampled_from([1, 2, 3, 4096]),
    kept_half=st.booleans(),
    calls=st.lists(WORD_READER_CALLS, max_size=80),
)
def test_word_reader_gives_numpys_draws(seed, block, kept_half, calls):
    rng, source = make_rng(seed), make_rng(seed)
    if kept_half:  # a 32-bit draw leaves the high half of its word kept
        assert rng.integers(7) == source.integers(7)
    reader = _WordReader(source, block=block)
    for method, arg in calls:
        if method == "random":
            want = rng.random() if arg is None else rng.random(arg).tolist()
            assert reader.random(arg) == want
        else:
            assert reader.integers(arg) == rng.integers(arg)


def test_word_reader_rejects_what_it_cannot_read():
    reader = _WordReader(make_rng(0))
    for n in (0, 2**32 + 1):
        with pytest.raises(ValueError, match="2\\*\\*32"):
            reader.integers(n)
    with pytest.raises(TypeError, match="PCG64"):
        _WordReader(np.random.Generator(np.random.MT19937(0)))


@given(p=st.floats(0.0, 1.0), word=st.integers(0, 2**64 - 1))
def test_a_word_is_below_the_bound_exactly_when_its_draw_is(p, word):
    bound = _below(p)
    # the words next to the bound, and an arbitrary one
    for w in (word, bound - 1, bound, bound + 2047):
        if 0 <= w < 2**64:
            assert (w < bound) == ((w >> 11) * 2**-53 < p)


class TestJsonl:
    def test_round_trip_identity(self, tmp_path):
        cfg = small_cfg()
        train, _, _ = generate_synthetic(cfg)
        path = tmp_path / "train.jsonl"
        save_jsonl(train, path, cfg.num_classes, cfg.vocab_size)
        loaded, num_classes, vocab_size = load_jsonl(path)
        assert num_classes == cfg.num_classes
        assert vocab_size == cfg.vocab_size
        assert loaded == train

    def test_save_after_load_is_byte_identical(self, tmp_path):
        cfg = small_cfg()
        train, _, _ = generate_synthetic(cfg)
        p1 = tmp_path / "a.jsonl"
        p2 = tmp_path / "b.jsonl"
        save_jsonl(train, p1, cfg.num_classes, cfg.vocab_size)
        loaded, c, v = load_jsonl(p1)
        save_jsonl(loaded, p2, c, v)
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_body_with_header(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text('{"num_classes": 4, "vocab_size": 9}\n')
        samples, num_classes, vocab_size = load_jsonl(path)
        assert samples == [] and num_classes == 4 and vocab_size == 9

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
    C = len(freqs)
    out = []
    for c, f in enumerate(freqs):
        for _ in range(f):
            labels = np.zeros(C, dtype=np.int8)
            labels[c] = 1
            out.append(Sample(features={0: 1.0}, labels=labels))
    return out


class TestFrequencyGroups:
    def test_explicit_thresholds_reproduce_reference_grouping(self):
        # frequencies straddling the 4500/1700/870 boundaries
        freqs = [5000, 4500, 3000, 1701, 1700, 871, 870, 3]
        samples = _samples_with_frequencies(freqs)
        groups = frequency_groups(samples, thresholds=[4500, 1700, 870])
        assert groups == {0: 0, 1: 1, 2: 1, 3: 1, 4: 2, 5: 2, 6: 3, 7: 3}

    def test_single_group(self):
        samples = _samples_with_frequencies([4, 2, 9])
        assert frequency_groups(samples, num_groups=1) == {0: 0, 1: 0, 2: 0}

    def test_tie_break_lower_index_earlier(self):
        samples = _samples_with_frequencies([5, 5, 5, 5])
        groups = frequency_groups(samples, num_groups=2)
        assert groups == {0: 0, 1: 0, 2: 1, 3: 1}

    def test_partition_property(self):
        train, _, _ = generate_synthetic(small_cfg())
        for n in (1, 2, 3, 4, 7):
            groups = frequency_groups(train, num_groups=n)
            assert sorted(groups) == list(range(12))
            assert set(groups.values()) == set(range(min(n, 12)))

    def test_descending_frequency_order(self):
        train, _, _ = generate_synthetic(small_cfg())
        freqs = label_frequencies(train)
        groups = frequency_groups(train, num_groups=3)
        for a in range(12):
            for b in range(12):
                if groups[a] < groups[b]:
                    assert freqs[a] >= freqs[b]

    def test_bad_thresholds(self):
        samples = _samples_with_frequencies([1, 2])
        with pytest.raises(ValueError):
            frequency_groups(samples, thresholds=[10, 10])

    def test_more_groups_than_labels(self):
        samples = _samples_with_frequencies([3, 1])
        groups = frequency_groups(samples, num_groups=10)
        assert sorted(groups) == [0, 1]
