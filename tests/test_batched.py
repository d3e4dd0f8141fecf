"""The batched training step against the per-view reference.

The reference below is the per-view code the package used before the batch
became the unit of work: one forward and one backward call per view, one BCE
call per view, a per-anchor loop over positive sets in the contrastive
loss, and the embedding gradient that recomputed the cosine pieces. It is
kept here as the oracle. The batched path reorders sums (matrix
products instead of accumulated outer products), so losses and gradients are
compared to 1e-12 relative; dropout masks must match bit for bit.
"""
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unittest import mock

from knnmlc import encoder
from knnmlc.encoder import EncoderConfig, ParameterGradients, forward_batch, init_state, rowwise_layers, rowwise_logits
from knnmlc.losses import (
    CONTRASTIVE_VARIANTS,
    bce_loss,
    contrastive_embedding_grads,
    contrastive_loss_from_similarities,
    total_loss,
)
from knnmlc.mathops import make_rng, sigmoid, unit_rows
from knnmlc.training import batch_gradients, batch_objective
from oracles import Sample, column_gather, cosine_sim_matrix, label_similarity_matrix, pack, take, weight_matrix

REL_TOL = 1e-12

# -- per-view reference ------------------------------------------------------


def ref_forward(state, sample, dropout_mode="off", rng=None, mask_override=None):
    cfg = state.config
    idx = np.fromiter(sample.features.keys(), dtype=np.int64, count=len(sample.features))
    val = np.fromiter(sample.features.values(), dtype=np.float64, count=len(sample.features))
    pre_hidden = state.b_in + val @ state.w_in[idx]
    hidden = np.tanh(pre_hidden) if cfg.activation == "tanh" else np.maximum(pre_hidden, 0.0)
    if mask_override is not None:
        mask = np.asarray(mask_override, dtype=np.float64)
    elif dropout_mode == "on" and cfg.dropout_rate > 0.0:
        mask = (rng.random(cfg.hidden_dim) >= cfg.dropout_rate).astype(np.float64) / (1.0 - cfg.dropout_rate)
    else:
        mask = np.ones(cfg.hidden_dim)
    embedding = state.b_emb + state.w_emb @ (hidden * mask)
    logits = state.b_clf + state.w_clf @ embedding
    return dict(idx=idx, val=val, pre_hidden=pre_hidden, hidden=hidden, mask=mask, embedding=embedding, logits=logits)


def ref_backward(state, trace, grad_embedding, grad_logits, grads):
    cfg = state.config
    d_embedding = grad_embedding + state.w_clf.T @ grad_logits
    grads.w_clf += np.outer(grad_logits, trace["embedding"])
    grads.b_clf += grad_logits
    grads.w_emb += np.outer(d_embedding, trace["hidden"] * trace["mask"])
    grads.b_emb += d_embedding
    d_hidden = (state.w_emb.T @ d_embedding) * trace["mask"]
    if cfg.activation == "tanh":
        d_pre = d_hidden * (1.0 - trace["hidden"] ** 2)
    else:
        d_pre = d_hidden * (trace["pre_hidden"] > 0.0)
    grads.b_in += d_pre
    if trace["idx"].size:
        grads.w_in[trace["idx"]] += np.outer(trace["val"], d_pre)


def ref_positive_sets(labels, variant):
    n2 = labels.shape[0]
    partners = (np.arange(n2) + n2 // 2) % n2
    if variant in ("dcl", "ucl"):
        return [np.array([partners[i]]) for i in range(n2)]
    positives = []
    for i in range(n2):
        same = np.flatnonzero(np.all(labels == labels[i], axis=1))
        positives.append(np.union1d(same[same != i], [partners[i]]))
    return positives


def ref_contrastive_from_similarities(s, labels, tau1, variant):
    n2 = s.shape[0]
    if variant in ("dcl", "wscl"):
        w = weight_matrix(label_similarity_matrix(labels))
    else:
        w = np.ones((n2, n2))
    loss = 0.0
    grad = np.zeros((n2, n2))
    for i, pos in enumerate(ref_positive_sets(labels, variant)):
        others = np.array([j for j in range(n2) if j != i])
        z = np.log(w[i, others]) + s[i, others] / tau1
        z_max = z.max()
        e = np.exp(z - z_max)
        loss += np.log(e.sum()) + z_max - float(np.mean(s[i, pos])) / tau1
        grad[i, others] = e / e.sum() / tau1
        grad[i, pos] -= 1.0 / (len(pos) * tau1)
    return loss, grad


def ref_contrastive_embedding_grads(embeddings, grad_sims):
    h = np.asarray(embeddings, dtype=np.float64)
    g = np.asarray(grad_sims, dtype=np.float64)
    norms = np.linalg.norm(h, axis=1)
    if np.any(norms == 0.0):
        raise ValueError("cosine gradients are undefined for zero-norm embeddings")
    u = h / norms[:, None]
    s = u @ u.T
    m = g + g.T
    np.fill_diagonal(m, 0.0)
    return (m @ u - np.sum(m * s, axis=1)[:, None] * u) / norms[:, None]


def ref_batch_gradients(state, views, alpha, tau1, variant, rng=None, masks=None):
    traces = [
        ref_forward(state, v, "on", rng, None if masks is None else masks[i]) for i, v in enumerate(views)
    ]
    labels = np.stack([v.labels for v in views])
    embeddings = np.stack([t["embedding"] for t in traces])
    bce = 0.0
    logit_grads = []
    for i, t in enumerate(traces):
        loss_i, grad_i = bce_loss(sigmoid(t["logits"]), labels[i])
        bce += loss_i
        logit_grads.append(grad_i)
    con, grad_sims = ref_contrastive_from_similarities(cosine_sim_matrix(embeddings), labels, tau1, variant)
    emb_grads = alpha * ref_contrastive_embedding_grads(embeddings, grad_sims)
    grads = ParameterGradients.zeros_like(state)
    for i, t in enumerate(traces):
        ref_backward(state, t, emb_grads[i], logit_grads[i], grads)
    return bce, con, total_loss(bce, con, alpha), grads, np.stack([t["mask"] for t in traces])


# -- helpers -----------------------------------------------------------------


def assert_close(actual, expected, what):
    actual = np.asarray(actual, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    assert actual.shape == expected.shape, what
    scale = float(np.max(np.abs(expected))) if expected.size else 0.0
    err = float(np.max(np.abs(actual - expected))) if expected.size else 0.0
    assert err <= REL_TOL * scale, f"{what}: max error {err:.3e} against scale {scale:.3e}"


def random_problem(seed, n, activation, dropout_rate, empty_rows=()):
    rng = make_rng(seed)
    input_dim = int(rng.integers(4, 40))
    config = EncoderConfig(
        input_dim=input_dim,
        hidden_dim=int(rng.integers(2, 10)),
        embed_dim=int(rng.integers(2, 8)),
        num_classes=int(rng.integers(2, 7)),
        activation=activation,
        dropout_rate=dropout_rate,
    )
    state = init_state(config, seed=seed)
    samples = []
    for i in range(n):
        if i in empty_rows:
            features = {}
        else:
            nnz = int(rng.integers(1, min(input_dim, 8) + 1))
            idx = rng.choice(input_dim, size=nnz, replace=False)
            features = {int(k): float(v) for k, v in zip(idx, rng.uniform(0.2, 3.0, nnz))}
        labels = (rng.random(config.num_classes) < 0.4).astype(np.int8)
        labels[rng.integers(config.num_classes)] = 1
        samples.append(Sample(features=features, labels=labels, sample_id=f"b{i}"))
    # a repeated sample gives scl/wscl positives beyond the twin view
    if n >= 3:
        samples[2] = Sample(dict(samples[0].features), samples[0].labels.copy(), "b2")
    return state, samples, rng


# -- equivalence ---------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**20),
    n=st.integers(1, 6),
    variant=st.sampled_from(CONTRASTIVE_VARIANTS),
    activation=st.sampled_from(["tanh", "relu"]),
    dropout=st.sampled_from(["off", "on", "frozen"]),
    empty_first=st.booleans(),
    alpha=st.sampled_from([0.0, 0.1, 1.0]),
    tau1=st.sampled_from([0.05, 0.3]),
)
def test_batched_step_matches_per_view(seed, n, variant, activation, dropout, empty_first, alpha, tau1):
    rate = 0.0 if dropout == "off" else 0.3
    state, samples, rng = random_problem(seed, n, activation, rate, empty_rows={0} if empty_first else ())
    views = samples + samples
    hidden = state.config.hidden_dim
    masks = (rng.random((2 * n, hidden)) >= rate).astype(np.float64) / (1.0 - rate) if dropout == "frozen" else None

    want = ref_batch_gradients(state, views, alpha, tau1, variant, rng=make_rng(seed), masks=masks)
    # the batch is the n samples; the step forms their 2n views
    packed = pack(samples, state.config.input_dim)
    got = batch_gradients(state, packed, alpha, tau1, variant, rng=make_rng(seed), masks=masks)

    for name, a, b in zip(("bce", "con", "total"), got[:3], want[:3]):
        assert_close(a, b, name)
    for name, g in got[3].dense().param_items():
        assert_close(g, getattr(want[3], name), name)
    np.testing.assert_array_equal(got[4], want[4])
    if masks is not None:
        assert_close(batch_objective(state, packed, masks, alpha, tau1, variant), want[2], "objective")


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**20),
    n=st.integers(1, 8),
    variant=st.sampled_from(CONTRASTIVE_VARIANTS),
    tau1=st.sampled_from([0.02, 0.1, 1.0]),
)
def test_positive_mask_loss_matches_per_anchor_loop(seed, n, variant, tau1):
    rng = make_rng(seed)
    labels = (rng.random((n, 4)) < 0.5).astype(np.int8)
    labels[:, 0] |= (rng.random(n) < 0.5).astype(np.int8)
    sims = np.clip(rng.uniform(-1.0, 1.0, size=(2 * n, 2 * n)), -1.0, 1.0)
    loss, grad = contrastive_loss_from_similarities(sims, labels, tau1, variant)
    ref_loss, ref_grad = ref_contrastive_from_similarities(sims, np.vstack([labels, labels]), tau1, variant)
    assert_close(loss, ref_loss, "loss")
    assert_close(grad, ref_grad, "grad")


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**20), n2=st.sampled_from([2, 4, 6, 64, 256]), d=st.integers(1, 40))
def test_embedding_grads_from_step_pieces_are_bit_identical(seed, n2, d):
    # the step forms norms, unit rows and the cosine matrix once; the
    # gradient built from them equals the formula that recomputed them
    rng = make_rng(seed)
    h = rng.normal(size=(n2, d)) * rng.uniform(0.1, 10.0, size=(n2, 1))
    g = rng.normal(size=(n2, n2))
    unit, norms = unit_rows(h)
    cos = unit @ unit.T
    np.testing.assert_array_equal(np.clip(cos, -1.0, 1.0), cosine_sim_matrix(h))
    want = ref_contrastive_embedding_grads(h, g)
    np.testing.assert_array_equal(contrastive_embedding_grads(unit, norms, cos, g), want)
    # its (2N, 2N) terms in a caller's array, stale from another step
    got = contrastive_embedding_grads(unit, norms, cos, g, out=np.full((n2, n2), np.nan))
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("activation", ["tanh", "relu"])
@pytest.mark.parametrize("features", [{}, {1: 2.0, 3: 0.5}])
def test_single_sample_forward_matches_reference(activation, features):
    # a batch of one through the row-stable pass and through forward_batch
    # (its first view) with masks of ones and with drawn masks
    state, _, _ = random_problem(3, 1, activation, 0.2)
    sample = Sample(features=features, labels=np.ones(state.config.num_classes, dtype=np.int8))
    batch = pack([sample], state.config.input_dim)
    embedding = rowwise_layers(state, batch)
    want = ref_forward(state, sample, "off")
    assert_close(embedding[0], want["embedding"], "rowwise embedding")
    assert_close(rowwise_logits(state, embedding)[0], want["logits"], "rowwise logits")
    traces = {
        "off": ("off", forward_batch(state, batch, masks=np.ones((2, state.config.hidden_dim)))),
        "on": ("on", forward_batch(state, batch, rng=make_rng(5))),
    }
    for name, (mode, got) in traces.items():
        want = ref_forward(state, sample, mode, rng=make_rng(5))
        np.testing.assert_array_equal(got.mask[0], want["mask"])
        for field in ("pre_hidden", "hidden", "embedding", "logits"):
            assert_close(getattr(got, field)[0], want[field], f"{name} {field}")
        if not features:
            np.testing.assert_array_equal(got.pre_hidden[0], state.b_in)


def test_gathered_and_dense_input_layers_match_reference():
    # 3 features against input_dim 30: a batch of one gathers w_in rows,
    # a batch of 12 (36 features) goes through the dense rows
    state = init_state(EncoderConfig(input_dim=30, hidden_dim=7, embed_dim=4, num_classes=3), seed=8)
    sample = Sample({4: 1.5, 17: 2.0, 29: 0.25}, np.array([1, 0, 1], dtype=np.int8))
    want = ref_forward(state, sample)
    for n in (1, 12):
        trace = forward_batch(state, pack([sample] * n, 30), masks=np.ones((2 * n, 7)))
        for i in range(n):
            assert_close(trace.pre_hidden[i], want["pre_hidden"], f"n={n} row {i} pre_hidden")
            assert_close(trace.embedding[i], want["embedding"], f"n={n} row {i} embedding")


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**20),
    lengths=st.lists(st.integers(0, 24), min_size=1, max_size=12),
    input_dim=st.integers(24, 400),
    activation=st.sampled_from(["tanh", "relu"]),
    block_bytes=st.integers(1, 1 << 14),
)
def test_shared_row_gather_equals_the_column_gather(seed, lengths, input_dim, activation, block_bytes):
    # the row gather of the dropout-off pass against the column gather the
    # training pass used before, bit for bit: featureless rows (length 0),
    # segments longer than 8, values other than 1.0, both activations, any
    # gather block
    rng = make_rng(seed)
    hidden = int(rng.integers(1, 10))
    state = init_state(EncoderConfig(input_dim, hidden, 3, 2, activation=activation, dropout_rate=0.0), seed=seed)
    samples = [
        Sample(
            dict(zip(rng.choice(input_dim, size=m, replace=False).tolist(), (rng.normal(size=m) * 3.0).tolist())),
            np.ones(2, dtype=np.int8),
        )
        for m in lengths
    ]
    batch = pack(samples, input_dim)
    want = column_gather(state.w_in.T, batch)
    got = np.empty(want.shape)
    encoder._gather_range(state.w_in, batch.indices, batch.indptr[:-1], batch.values[:, None], None, got)
    assert got.tobytes() == want.tobytes()
    hidden = encoder._activate(state.config, want + state.b_in)
    with mock.patch.object(encoder, "_GATHER_BLOCK_BYTES", block_bytes):
        # the gather in row ranges, and the dropout-off pass built on it
        assert encoder._input_layer(state, batch).tobytes() == want.tobytes()
        embedding = rowwise_layers(state, batch)
    # einsum on C-contiguous operands, as the pass runs it (want is a transpose)
    assert embedding.tobytes() == (np.einsum("ij,kj->ik", np.ascontiguousarray(hidden), state.w_emb) + state.b_emb).tobytes()
    if batch.indices.size < input_dim:
        # below one entry per input row forward_batch multiplies only the
        # rows the batch touches
        trace = forward_batch(state, batch)
        cols = np.unique(batch.indices)
        # C-ordered, as the trace holds it (a column gather is F-ordered)
        dense_c = np.ascontiguousarray(batch.to_dense()[:, cols])
        pre_hidden = dense_c @ state.w_in[cols] + state.b_in
        assert trace.pre_hidden.tobytes() == pre_hidden.tobytes()
        assert trace.hidden.tobytes() == encoder._activate(state.config, pre_hidden).tobytes()


# how many of the batch's feature values are other than 1.0, against the
# 1-in-_SCALE_ALL_SHARE share at which the ranged gather scales every row
NON_UNIT_COUNTS = {
    "all unit": lambda nnz: 0,
    "one": lambda nnz: 1,
    "just below the share": lambda nnz: -(-nnz // encoder._SCALE_ALL_SHARE) - 1,
    "at the share": lambda nnz: -(-nnz // encoder._SCALE_ALL_SHARE),
    "a quarter": lambda nnz: nnz // 4,
    "none unit": lambda nnz: nnz,
}


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("share", NON_UNIT_COUNTS)
def test_the_ranged_gather_equals_the_column_gather_on_both_scaling_branches(share, seed):
    # _input_layer in ranges of 4 rows, bit for bit against the column
    # gather, which scales every entry: below the share only the non-unit
    # entries are scaled, from the share up every entry is. The non-unit
    # values hold 0.0, -0.0, negative, non-integer and next-to-1.0 values;
    # in a mix they sit in the first half of the entries, so later ranges
    # hold none
    rng = make_rng(seed)
    input_dim, hidden, n = 60, 5, 41
    state = init_state(EncoderConfig(input_dim, hidden, 3, 2, dropout_rate=0.0), seed=seed)
    lengths = rng.integers(1, 9, size=n)
    nnz = int(lengths.sum())
    count = NON_UNIT_COUNTS[share](nnz)
    values = np.ones(nnz)
    where = rng.choice(nnz if count == nnz else nnz // 2, size=count, replace=False)
    values[where] = np.resize([0.0, -0.0, -1.0, -2.5, 0.3, 1.75, 3.0, np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0)], count)
    samples = [Sample({}, np.ones(2, dtype=np.int8)) for _ in range(n)]
    batch = dataclasses.replace(
        pack(samples, input_dim),
        indptr=np.concatenate([[0], np.cumsum(lengths)]),
        indices=np.concatenate([rng.choice(input_dim, size=m, replace=False) for m in lengths]),
        values=values,
    )
    want = column_gather(state.w_in.T, batch)
    ranges = []
    real_range = encoder._gather_range

    def spy(w_in, indices, starts, factors, positions, out):
        ranges.append(None if positions is None else positions.size)
        return real_range(w_in, indices, starts, factors, positions, out)

    block_bytes = -(-4 * 8 * hidden * nnz // n)
    with mock.patch.object(encoder, "_GATHER_BLOCK_BYTES", block_bytes), mock.patch.object(encoder, "_gather_range", spy):
        assert encoder._input_layer(state, batch).tobytes() == want.tobytes()
    assert len(ranges) == -(-n // 4)
    if encoder._SCALE_ALL_SHARE * count >= nnz:
        assert ranges == [None] * len(ranges)
    else:
        assert sum(ranges) == count and 0 in ranges


def test_empty_feature_rows_inside_a_batch():
    # empty rows at the start, middle and end of the CSR arrays
    state, samples, _ = random_problem(11, 6, "tanh", 0.0, empty_rows={0, 3, 5})
    trace = forward_batch(state, pack(samples, state.config.input_dim))
    for i, sample in enumerate(samples):
        want = ref_forward(state, sample)
        assert_close(trace.pre_hidden[i], want["pre_hidden"], f"row {i}")
        assert_close(trace.embedding[i], want["embedding"], f"row {i}")
    np.testing.assert_array_equal(trace.pre_hidden[[0, 3, 5]], np.tile(state.b_in, (3, 1)))


def test_empty_sample_packs_as_one_explicit_zero():
    packed = pack([Sample({}, np.ones(2, dtype=np.int8)), Sample({2: 1.0}, np.ones(2, dtype=np.int8))], 5)
    np.testing.assert_array_equal(packed.indptr, [0, 1, 2])
    np.testing.assert_array_equal(packed.indices, [0, 2])
    np.testing.assert_array_equal(packed.values, [0.0, 1.0])
    np.testing.assert_array_equal(packed.to_dense(), [[0, 0, 0, 0, 0], [0, 0, 1, 0, 0]])


@pytest.mark.parametrize("n,hidden", [(1, 5), (64, 24), (256, 24), (7, 64)])
def test_one_uniform_block_equals_sequential_draws(n, hidden):
    block = make_rng(42).random((n, hidden))
    rng = make_rng(42)
    np.testing.assert_array_equal(block, np.stack([rng.random(hidden) for _ in range(n)]))


def test_take_selects_rows():
    state, samples, _ = random_problem(4, 5, "tanh", 0.0, empty_rows={2})
    packed = pack(samples, state.config.input_dim)
    rows = np.array([4, 2, 0, 4])
    np.testing.assert_array_equal(
        take(packed, rows).to_dense(),
        pack([samples[i] for i in rows], state.config.input_dim).to_dense(),
    )
    np.testing.assert_array_equal(take(packed, rows).labels, packed.labels[rows])
    # a slice is a range of rows as views: the rows take gives
    sliced, taken = packed[1:4], take(packed, [1, 2, 3])
    for name in ("indptr", "indices", "values", "labels", "id_offsets", "id_bytes"):
        np.testing.assert_array_equal(getattr(sliced, name), getattr(taken, name))
