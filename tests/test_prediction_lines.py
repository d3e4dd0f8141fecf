"""The predictions file writer (``cli._prediction_lines``) against the
record-per-line oracle (``json.dumps`` with every float as ``'%.16e'`` and
a three-digit exponent): the same bytes for any finite values, any ids, any
neighbor count (none too) and any row count (none too) around the block
size."""
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from knnmlc import cli, floatrepr
from knnmlc.datastore import Datastore
from knnmlc.encoder import EncoderConfig, init_state
from knnmlc.inference import InferenceConfig, PredictionBundle, predict_batch
from oracles import Sample, pack, prediction_lines

# the writers take finite floats only; the ones whose text is easiest to get
# wrong (a tie at the 17th digit among them), then any finite float
SPECIAL_FLOATS = [-0.0, 0.0, 5e-324, 1e16, 1e-5, 0.1, 1.0, 0.5, float(np.nextafter(1.0, 0.0)), float(np.nextafter(1.0, 2.0))]
SPECIAL_FLOATS += [1e17, float(np.nextafter(1e17, 0.0)), 1e300, 1528906662046067.75]
FLOATS = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats(allow_nan=False, allow_infinity=False))
# quotes, backslashes, control characters, non-ASCII text and lone surrogates
SPECIAL_IDS = ["test-00000", "", 'a"b', "back\\slash", "\x00\t\n\x1f\x7f", "héllo 漢字 😀", "\ud800", "x\udfffy\ud83d"]
IDS = st.one_of(
    st.sampled_from(SPECIAL_IDS),
    st.text(st.characters(categories=["L", "N", "P", "S", "Z", "Cc", "Cs"])),
)


def bundle_of(n, c, k, floats, indices, lam):
    """A bundle whose float arrays are ``floats`` (y_clf, y_knn, y_final and
    the neighbor similarities), with (n, k) ``indices`` and (n,) ``lam``."""
    y_clf, y_knn, y_final, sims = floats
    return PredictionBundle(
        y_clf=y_clf,
        y_knn=y_knn,
        high_conf_mask=np.zeros((n, c), dtype=np.int8),
        lam=lam,
        y_final=y_final,
        neighbor_indices=indices.reshape(n, k),
        neighbor_sims=sims.reshape(n, k),
    )


def written(ids, bundle, y_pred, block):
    """The writer's bytes with blocks of ``block`` rows, checking that no
    block it yields holds more lines."""
    c, k = bundle.y_clf.shape[1], bundle.neighbor_indices.shape[1]
    with mock.patch.object(floatrepr, "BLOCK", block * (3 * c + 1 + 2 * k)):
        blocks = list(cli._prediction_lines(np.array(ids, dtype=object), bundle, y_pred))
    assert all(0 < chunk.count(b"\n") <= block for chunk in blocks)
    return b"".join(blocks)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), n=st.integers(0, 9), c=st.integers(1, 5), k=st.sampled_from([0, 1, 30]), block=st.sampled_from([1, 2, 4]))
def test_the_writer_gives_the_bytes_of_one_record_per_line(data, n, c, k, block):
    floats = [data.draw(hnp.arrays(np.float64, shape, elements=FLOATS)) for shape in [(n, c)] * 3 + [(n * k,)]]
    indices = data.draw(hnp.arrays(np.int64, (n * k,), elements=st.integers(0, 2**63 - 1)))
    lam = data.draw(hnp.arrays(np.float64, (n,), elements=FLOATS))
    y_pred = data.draw(hnp.arrays(np.int8, (n, c), elements=st.integers(0, 1)))
    ids = data.draw(st.lists(IDS, min_size=n, max_size=n))
    bundle = bundle_of(n, c, k, floats, indices, lam)
    assert written(ids, bundle, y_pred, block) == prediction_lines(ids, bundle, y_pred)


def test_row_counts_around_the_shipped_block_size():
    rng = np.random.default_rng(0)
    c, k = 7, 30
    block = floatrepr.BLOCK // (3 * c + 1 + 2 * k)
    for n in (block - 1, block, block + 1, 2 * block + 1):
        floats = [rng.random((n, c)) for _ in range(3)] + [rng.uniform(-1.0, 1.0, n * k)]
        bundle = bundle_of(n, c, k, floats, rng.integers(0, 20000, n * k), rng.random(n))
        y_pred = (bundle.y_final >= 0.5).astype(np.int8)
        ids = [f"test-{i:05d}" for i in range(n)]
        want = prediction_lines(ids, bundle, y_pred)
        assert written(ids, bundle, y_pred, block) == want


def test_classifier_only_lines_have_no_neighbors():
    # classifier_only never retrieves: k = 0, y_knn all zeros, lambda 0
    state = init_state(EncoderConfig(5, 4, 3, 2), seed=0)
    samples = [Sample({i: 1.0, 4: 0.5}, np.array([1, 0], dtype=np.int8), f"s{i}") for i in range(3)]
    batch = pack(samples, 5)
    bundle = predict_batch(state, None, batch, InferenceConfig(mode="classifier_only"))
    y_pred = bundle.decisions()
    got = b"".join(cli._prediction_lines(batch.ids(), bundle, y_pred))
    assert got == prediction_lines(batch.ids(), bundle, y_pred)
    assert b'"neighbors": []}\n' in got


@pytest.mark.parametrize("value", [1, 0, np.float32(0.3)])
def test_a_fixed_lambda_setting_of_another_kind_is_written_as_a_float(value):
    # an integer or float32 setting passes the config's kind check; lambda
    # is a float64 row all the same, so the file holds 1.0000000000000000e+000, not 1
    state = init_state(EncoderConfig(5, 4, 3, 2), seed=0)
    rng = np.random.default_rng(1)
    store = Datastore(keys=rng.normal(size=(6, 3)), values=rng.integers(0, 2, (6, 2)))
    samples = [Sample({i: 1.0, 4: 0.5}, np.array([1, 0], dtype=np.int8), f"s{i}") for i in range(3)]
    batch = pack(samples, 5)
    bundle = predict_batch(state, store, batch, InferenceConfig(k=2, mode="fixed_lambda", fixed_lambda_value=value))
    assert bundle.lam.dtype == np.float64
    y_pred = bundle.decisions()
    assert b"".join(cli._prediction_lines(batch.ids(), bundle, y_pred)) == prediction_lines(batch.ids(), bundle, y_pred)
