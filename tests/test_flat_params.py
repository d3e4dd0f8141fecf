"""One flat buffer per parameter set: every constructor of a state or
gradients hands out views of its owner's buffer, the Adam moments are two
flat buffers of the same layout, a field rebound to another array is
refused by name, and the flat Adam step and the flat-writing backward equal
the per-tensor forms in ``tests/oracles.py`` bit for bit."""
import copy
import os
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from knnmlc import copies
from knnmlc.data import DatasetConfig, generate_synthetic
from knnmlc.encoder import (
    EncoderConfig,
    EncoderState,
    ParameterGradients,
    _flat_views,
    backward,
    forward_batch,
    init_state,
    load_checkpoint,
    save_checkpoint,
    state_from_payload,
    state_to_payload,
)
from knnmlc.mathops import make_rng
from knnmlc.training import AdamState, TrainConfig, Trainer, adam_step
from oracles import Sample, pack

NAMES = ("w_in", "b_in", "w_emb", "b_emb", "w_clf", "b_clf")
# +-0.0, the smallest subnormal, a mid-range subnormal, the smallest normal,
# and values whose square overflows
SPECIAL = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 2.2250738585072014e-308, 1e300, -1e300, 1.7e308])


def assert_views_of(flat, arrays):
    """Each array is a writable view of ``flat``, back to back in order, and
    together they cover it."""
    assert flat.dtype == np.float64 and flat.ndim == 1
    assert flat.flags.c_contiguous and flat.flags.writeable
    start = flat.__array_interface__["data"][0]
    offset = 0
    for arr in arrays:
        assert arr.flags.writeable and arr.flags.c_contiguous
        assert arr.__array_interface__["data"][0] == start + 8 * offset
        assert np.shares_memory(arr, flat)
        offset += arr.size
    assert offset == flat.size


def assert_flat(owner):
    assert_views_of(owner.flat, [getattr(owner, name) for name in NAMES])


def assert_flat_moments(adam, state):
    """Both moments are writable 1-d C-contiguous float64 buffers laid out as
    the parameters, apart from each other."""
    for flat in (adam.m_flat, adam.v_flat):
        assert_views_of(flat, _flat_views(flat, state.shapes))
    assert not np.shares_memory(adam.m_flat, adam.v_flat)


def small_state(seed=0, dims=(7, 5, 3, 4)):
    return init_state(EncoderConfig(*dims, dropout_rate=0.0), seed=seed)


def tiny_split(n=40):
    cfg = DatasetConfig(num_classes=4, num_clusters=2, train_size=n, valid_size=10, test_size=10, vocab_size=20)
    return generate_synthetic(cfg)


# -- every constructor hands out views ---------------------------------------


class TestViews:
    def test_init_state_and_copy(self):
        state = small_state()
        assert_flat(state)
        assert state.shapes == tuple(getattr(state, name).shape for name in NAMES)
        twin = state.copy()
        assert_flat(twin)
        assert not np.shares_memory(twin.flat, state.flat)
        assert twin.flat.tobytes() == state.flat.tobytes()

    def test_constructors_copy_the_arrays_they_are_given(self):
        state = small_state()
        arrays = {name: getattr(state, name).copy() for name in NAMES}
        built = EncoderState(config=state.config, **arrays)
        grads = ParameterGradients(**arrays)
        assert_flat(built)
        assert_flat(grads)
        for name, arr in arrays.items():
            for owner in (built.flat, grads.flat):
                assert not np.shares_memory(arr, owner)
        assert built.flat.tobytes() == grads.flat.tobytes() == state.flat.tobytes()

    def test_adam_state_keeps_the_buffers_it_is_given(self):
        state = small_state()
        m, v = np.zeros_like(state.flat), np.zeros_like(state.flat)
        adam = AdamState(m, v, step=3)
        assert adam.m_flat is m and adam.v_flat is v and adam.step == 3
        assert_flat_moments(adam, state)

    def test_zeros_like(self):
        state = small_state()
        grads = ParameterGradients.zeros_like(state)
        adam = AdamState.zeros_like(state)
        assert_flat(grads)
        assert_flat_moments(adam, state)
        assert grads.shapes == state.shapes
        assert not grads.flat.any() and not adam.m_flat.any() and not adam.v_flat.any()

    def test_state_from_payload(self):
        state = small_state()
        loaded = state_from_payload(state_to_payload(state))
        assert_flat(loaded)
        assert loaded.flat.tobytes() == state.flat.tobytes()

    def test_deepcopy_and_pickle_rebuild_the_views(self):
        state = small_state()
        grads = ParameterGradients.zeros_like(state)
        grads.flat[:] = np.arange(grads.flat.size)
        adam = AdamState.zeros_like(state)
        adam.m_flat[:] = 1.5
        adam.step = 4
        for clone in (copy.deepcopy, lambda obj: pickle.loads(pickle.dumps(obj))):
            for owner in (state, grads):
                twin = clone(owner)
                assert type(twin) is type(owner)
                assert_flat(twin)
                assert not np.shares_memory(twin.flat, owner.flat)
                assert twin.flat.tobytes() == owner.flat.tobytes()
            twin_state, twin_adam = clone(state), clone(adam)
            assert twin_state.config == state.config and twin_state.init_seed == state.init_seed
            assert_flat_moments(twin_adam, state)
            assert not np.shares_memory(twin_adam.m_flat, adam.m_flat)
            assert twin_adam.step == 4 and twin_adam.m_flat.tobytes() == adam.m_flat.tobytes()
            # an Adam step on the clones moves what forward reads
            adam_step(twin_state, clone(grads), twin_adam, lr=0.1)
            assert not np.array_equal(twin_state.w_in, state.w_in)

    def test_in_place_writes_reach_the_buffer(self):
        state = small_state()
        grads = ParameterGradients.zeros_like(state)
        grads.w_clf[...] = 2.5
        adam = AdamState.zeros_like(state)
        _flat_views(adam.m_flat, state.shapes)[0][...] = 1.0
        start = sum(getattr(state, name).size for name in NAMES[:4])
        assert (grads.flat[start : start + state.w_clf.size] == 2.5).all()
        assert grads.flat[:start].tobytes() == bytes(8 * start)
        assert (adam.m_flat[: state.w_in.size] == 1.0).all() and not adam.m_flat[state.w_in.size :].any()

    def test_backward_writes_one_flat_buffer(self):
        state = small_state()
        batch = pack([Sample({0: 1.0, 3: -2.0}, [1, 0, 1, 0]), Sample({5: 0.5}, [0, 1, 0, 0])], 7)
        trace = forward_batch(state, batch)
        grads = backward(state, trace, np.ones((2, 3)), np.ones((2, 4)))
        assert_flat(grads)
        assert grads.shapes == state.shapes
        assert not np.shares_memory(grads.flat, state.flat)

    def test_checkpoint_parse_and_copy_hit(self, tmp_path, monkeypatch):
        state = small_state(seed=3)
        written, read = [], []
        write_copy, read_copy = copies.write_copy, copies.read_copy

        def spy_write(path, version, digest, arrays):
            written.append(arrays)
            return write_copy(path, version, digest, arrays)

        def spy_read(*args):
            arrays = read_copy(*args)
            read.append(arrays)
            return arrays

        monkeypatch.setattr(copies, "write_copy", spy_write)
        monkeypatch.setattr(copies, "read_copy", spy_read)
        path = tmp_path / "model.json"
        save_checkpoint(state, path)
        # the copy is written from the state's own buffer
        assert written[-1]["params"] is state.flat

        # a hit: the copy's params member is the loaded state's buffer
        hit = load_checkpoint(path)
        assert read[-1] is not None and hit.flat is read[-1]["params"]
        assert_flat(hit)
        assert hit.flat.tobytes() == state.flat.tobytes()

        # a parse (no copy): views of a new buffer, and the rewritten copy is that buffer
        os.remove(copies._copy_path(path))
        parsed = load_checkpoint(path)
        assert read[-1] is None
        assert_flat(parsed)
        assert written[-1]["params"] is parsed.flat
        assert parsed.flat.tobytes() == state.flat.tobytes()

    def test_trainer_load_checkpoint(self, tmp_path, monkeypatch):
        train_s, valid_s, _ = tiny_split()
        cfg = TrainConfig(batch_size=4, learning_rate=1e-2, max_iters=10, seed=1, eval_every=2)
        trainer = Trainer(train_s, valid_s, init_state(EncoderConfig(20, 6, 5, 4), seed=1), cfg)
        trainer.run(num_iters=5)
        path = tmp_path / "trainer.json"
        written, read = [], []
        write_archive, read_archive = copies.write_archive, copies.read_archive
        monkeypatch.setattr(copies, "write_archive", lambda *args: written.append(args[1]) or write_archive(*args))
        monkeypatch.setattr(copies, "read_archive", lambda *args: read.append(read_archive(*args)) or read[-1])
        trainer.save_checkpoint(path)
        # the flat members are written from the trainer's own buffers
        members = written[-1]
        assert members["params"] is trainer.state.flat and members["best_params"] is trainer.best_state().flat
        assert members["adam_m"] is trainer.adam.m_flat and members["adam_v"] is trainer.adam.v_flat
        loaded = Trainer.load_checkpoint(path, train_s, valid_s)
        # and read back as the loaded trainer's buffers, no copies
        arrays = read[-1]
        assert loaded.state.flat is arrays["params"] and loaded.best_state().flat is arrays["best_params"]
        assert loaded.adam.m_flat is arrays["adam_m"] and loaded.adam.v_flat is arrays["adam_v"]
        assert_flat(loaded.state)
        assert_flat(loaded.best_state())
        assert_flat_moments(loaded.adam, loaded.state)
        assert loaded.adam.step == trainer.adam.step
        assert loaded.adam.m_flat.tobytes() == trainer.adam.m_flat.tobytes()
        assert loaded.adam.v_flat.tobytes() == trainer.adam.v_flat.tobytes()
        assert loaded.state.flat.tobytes() == trainer.state.flat.tobytes()


# -- a rebound field is refused by name ---------------------------------------


@pytest.mark.parametrize("owner", ["parameter", "gradient"])
@pytest.mark.parametrize("name", NAMES)
def test_rebound_field_of_the_right_shape_is_refused(owner, name):
    state = small_state()
    grads = ParameterGradients.zeros_like(state)
    grads.flat[:] = 0.5
    adam = AdamState.zeros_like(state)
    foreign = np.zeros(getattr(state, name).shape)
    setattr(state if owner == "parameter" else grads, name, foreign)
    before = state.flat.copy()
    with pytest.raises(ValueError, match=rf"{owner} {name} was rebound"):
        adam_step(state, grads, adam, lr=0.1)
    # nothing was updated
    assert state.flat.tobytes() == before.tobytes()
    assert adam.step == 0 and not adam.m_flat.any() and not adam.v_flat.any()


def test_gradients_of_other_shapes_are_refused():
    state = small_state()
    other = ParameterGradients.zeros_like(small_state(dims=(7, 5, 3, 5)))
    with pytest.raises(ValueError, match="gradient shape"):
        adam_step(state, other, AdamState.zeros_like(state), lr=0.1)
    with pytest.raises(ValueError, match=r"Adam m shape"):
        adam_step(state, ParameterGradients.zeros_like(state), AdamState.zeros_like(small_state(dims=(6, 5, 3, 4))), lr=0.1)
    short = AdamState(np.zeros_like(state.flat), np.zeros(state.flat.size - 1))
    with pytest.raises(ValueError, match=r"Adam v shape"):
        adam_step(state, ParameterGradients.zeros_like(state), short, lr=0.1)
    assert short.step == 0 and not short.m_flat.any()


def test_a_buffer_that_is_not_flat_float64_is_refused():
    cfg = EncoderConfig(3, 2, 2, 2)
    size = init_state(cfg).flat.size
    for bad in (np.zeros(size, dtype=np.float32), np.zeros((size, 2))[:, 0], np.zeros(size + 1)):
        with pytest.raises(ValueError):
            EncoderState.on_buffer(cfg, bad)
    frozen = np.zeros(size)
    frozen.flags.writeable = False
    with pytest.raises(ValueError, match="writable"):
        EncoderState.on_buffer(cfg, frozen)


# -- the flat Adam step against the per-tensor oracle -------------------------


def _gradients(rng, state, special_share):
    """Normal gradients at a random scale, with a share of entries replaced
    by +-0.0, subnormals and values near the top of the float64 range."""
    flat = 10.0 ** rng.integers(-8, 4) * rng.standard_normal(state.flat.size)
    pick = rng.random(flat.size) < special_share
    flat[pick] = rng.choice(SPECIAL, size=int(pick.sum()))
    arrays, start = {}, 0
    for name, shape in zip(NAMES, state.shapes):
        arrays[name] = flat[start : start + int(np.prod(shape))].reshape(shape)
        start += arrays[name].size
    return ParameterGradients(**arrays)


@settings(max_examples=120, deadline=None)
@given(
    dims=st.tuples(*[st.integers(1, 6)] * 4),
    b1=st.floats(0.0, 1.0, exclude_max=True),
    b2=st.floats(0.0, 1.0, exclude_max=True),
    eps=st.sampled_from([0.0, 1e-300, 1e-12, 1e-8, 1e-3, 1.0]) | st.floats(0.0, 1.0),
    lr=st.floats(0.0, 10.0),
    steps=st.integers(1, 50),
    special_share=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_flat_adam_is_bit_identical_to_the_per_tensor_step(dims, b1, b2, eps, lr, steps, special_share, seed):
    cfg = EncoderConfig(*dims, dropout_rate=0.0)
    state, ref_state = init_state(cfg, seed=seed % 1000), init_state(cfg, seed=seed % 1000)
    adam, ref_adam = AdamState.zeros_like(state), AdamState.zeros_like(ref_state)
    rng = np.random.default_rng(seed)
    with np.errstate(all="ignore"):
        for step in range(steps):
            grads = _gradients(rng, state, special_share)
            adam_step(state, grads, adam, lr=lr, betas=(b1, b2), eps=eps)
            oracles.adam_step(ref_state, grads, ref_adam, lr=lr, betas=(b1, b2), eps=eps)
            assert adam.step == ref_adam.step == step + 1
            views = [_flat_views(flat, state.shapes) for flat in (adam.m_flat, adam.v_flat, ref_adam.m_flat, ref_adam.v_flat)]
            for name, m, v, ref_m, ref_v in zip(NAMES, *views):
                assert getattr(state, name).tobytes() == getattr(ref_state, name).tobytes(), (step, name)
                assert m.tobytes() == ref_m.tobytes(), (step, name)
                assert v.tobytes() == ref_v.tobytes(), (step, name)


# -- the flat-writing backward against the per-array oracle -------------------


@settings(max_examples=150, deadline=None)
@given(
    dense=st.booleans(),
    n=st.integers(1, 6),
    hidden=st.integers(1, 5),
    embed=st.integers(1, 4),
    classes=st.integers(1, 4),
    activation=st.sampled_from(["tanh", "relu"]),
    dropout=st.sampled_from([0.0, 0.3]),
    with_embedding=st.booleans(),
    with_logits=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_backward_is_bit_identical_to_the_per_array_form(
    dense, n, hidden, embed, classes, activation, dropout, with_embedding, with_logits, seed
):
    rng = np.random.default_rng(seed)
    if dense:
        # every row holds every feature: at least input_dim entries, one BLAS product
        input_dim = int(rng.integers(1, 5))
        rows = [{int(k): float(v) for k, v in enumerate(rng.standard_normal(input_dim))} for _ in range(n)]
    else:
        # at most two features per row (none for some) over a wider vocabulary: the gather
        input_dim = 2 * n + int(rng.integers(1, 6))
        rows = [
            {int(k): float(rng.standard_normal()) for k in rng.choice(input_dim, size=int(rng.integers(0, 3)), replace=False)}
            for _ in range(n)
        ]
    samples = [Sample(f, rng.integers(0, 2, classes)) for f in rows]
    cfg = EncoderConfig(input_dim, hidden, embed, classes, activation=activation, dropout_rate=dropout)
    state = init_state(cfg, seed=seed % 1000)
    trace = forward_batch(state, pack(samples, input_dim), rng=make_rng(seed))
    assert (trace.dense is not None) == dense
    grad_embedding = rng.standard_normal((n, embed)) if with_embedding else None
    grad_logits = rng.standard_normal((n, classes)) if with_logits else None
    got = backward(state, trace, grad_embedding, grad_logits)
    want = oracles.backward(state, trace, grad_embedding, grad_logits)
    for name in NAMES:
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
