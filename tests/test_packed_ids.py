"""Sample ids held packed (``PackedSamples.id_offsets`` and ``id_bytes``)
against the object array of str they replaced: the same ids through every
way a split is cut or read, the same predictions file bytes, and the same
``eval`` row checks, for ids that include "", NUL, non-ASCII characters and
lone surrogates."""
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knnmlc import cli, copies, data, floatrepr
from knnmlc.data import DataFormatError, load_jsonl, load_packed
from knnmlc.inference import PredictionBundle
from oracles import Sample, check_prediction_rows, pack, take, unpack_strings_checked

SPECIAL_IDS = ["", "\x00", "nul\x00id", "héllo 漢字 😀", "\ud800", "x\udfffy\ud83d", "😀", 'a"b\\c', "€"]
IDS = st.one_of(
    st.sampled_from(SPECIAL_IDS),
    st.text(st.characters(categories=["L", "N", "P", "S", "Z", "Cc", "Cs"]), max_size=6),
)
ID_LISTS = st.lists(IDS, min_size=1, max_size=12)


def split_of(ids) -> data.PackedSamples:
    """A packed split of one feature and one label per row, with these ids."""
    samples = [Sample({i % 3: 1.0}, np.array([i % 2, 1], dtype=np.int8), sample_id) for i, sample_id in enumerate(ids)]
    return pack(samples, 3)


def assert_packed_ids(split: data.PackedSamples, want: list):
    """``split`` holds the ids ``want`` as ``pack_strings`` packs them, offsets from 0."""
    offsets, blob = copies.pack_strings(want)
    assert split.id_offsets.dtype == np.int64 and split.id_bytes.dtype == np.uint8
    assert split.id_offsets.tobytes() == offsets.tobytes() and split.id_bytes.tobytes() == blob.tobytes()
    assert split.ids() == want


@settings(max_examples=60, deadline=None)
@given(ids=ID_LISTS, data_=st.data())
def test_slices_rows_and_takes_give_the_object_array_ids(ids, data_):
    split, old = split_of(ids), np.array(ids, dtype=object)
    n = len(ids)
    assert_packed_ids(split, old.tolist())
    a, b = data_.draw(st.integers(-n - 2, n + 2)), data_.draw(st.integers(-n - 2, n + 2))
    assert_packed_ids(split[a:b], old[a:b].tolist())
    for i in range(-n, n):
        assert_packed_ids(split[i], [old[i]])
    rows = data_.draw(st.lists(st.integers(0, n - 1), max_size=2 * n))
    assert_packed_ids(take(split, rows), old[np.array(rows, dtype=np.int64)].tolist())
    assert [row.ids()[0] for row in split] == old.tolist()


@settings(max_examples=40, deadline=None)
@given(ids=ID_LISTS)
def test_the_copy_round_trip_keeps_the_ids(ids):
    split = split_of(ids)
    arrays = data._to_copy((split, 2, 3))
    assert arrays["id_offsets"] is split.id_offsets and arrays["id_bytes"] is split.id_bytes
    back, _, _ = data._from_copy(arrays)
    assert_packed_ids(back, ids)
    assert unpack_strings_checked(arrays["id_offsets"], arrays["id_bytes"]) == ids


@settings(max_examples=40, deadline=None)
@given(ids=ID_LISTS)
def test_a_file_parsed_and_its_copy_give_the_ids_json_wrote(tmp_path_factory, ids):
    path = tmp_path_factory.mktemp("ids") / "split.jsonl"
    lines = [json.dumps({"num_classes": 2, "vocab_size": 3})]
    lines += [json.dumps({"id": sample_id, "features": {"0": 1.0}, "labels": [1]}) for sample_id in ids]
    path.write_text("\n".join(lines) + "\n")
    assert_packed_ids(load_jsonl(path)[0], ids)
    assert_packed_ids(load_packed(path)[0], ids)  # a miss: parsed, copy written
    assert_packed_ids(load_packed(path)[0], ids)  # a hit


@settings(max_examples=200, deadline=None)
@given(
    blob=st.binary(max_size=12),
    cuts=st.lists(st.integers(-1, 14), max_size=5),
)
def test_the_id_check_of_a_copy_accepts_what_one_decode_per_id_does(blob, cuts):
    """Any offsets over any bytes: valid exactly when every id decodes on its own, to the same strings."""
    blob = np.frombuffer(blob, dtype=np.uint8)
    offsets = np.array([0, *cuts, blob.size], dtype=np.int64)
    want = unpack_strings_checked(offsets, blob)
    assert copies.strings_valid(offsets, blob) == (want is not None)
    if want is not None:
        assert copies.unpack_strings(offsets, blob) == want


@settings(max_examples=30, deadline=None)
@given(ids=ID_LISTS, block=st.sampled_from([1, 2, 5]))
def test_the_prediction_lines_are_those_of_the_object_array_ids(ids, block):
    split, old = split_of(ids), np.array(ids, dtype=object)
    n, c = len(ids), 2
    rng = np.random.default_rng(len(ids))
    bundle = PredictionBundle(
        y_clf=rng.random((n, c)),
        y_knn=rng.random((n, c)),
        high_conf_mask=np.zeros((n, c), dtype=np.int8),
        lam=rng.random(n),
        y_final=rng.random((n, c)),
        neighbor_indices=rng.integers(0, 9, (n, 2)),
        neighbor_sims=rng.random((n, 2)),
    )
    y_pred = (bundle.y_final >= 0.5).astype(np.int8)
    # a block of ``block`` rows: each row holds 3c + 1 + 2k = 11 numbers
    real = floatrepr.BLOCK
    try:
        floatrepr.BLOCK = 11 * block
        got = b"".join(cli._prediction_lines(split.ids(), bundle, y_pred))
        want = b"".join(cli._prediction_lines(old, bundle, y_pred))
    finally:
        floatrepr.BLOCK = real
    assert got == want
    assert [json.loads(line)["id"] for line in got.decode().splitlines()] == ids


def outcome(fn):
    try:
        fn()
    except DataFormatError as exc:
        return str(exc)
    return None


@st.composite
def prediction_rows(draw):
    """(prediction ids, gold ids, y_pred): each prediction id the gold one,
    "" or another id; now and then a row with a decision of 2."""
    gold = draw(ID_LISTS)
    pred = [draw(st.sampled_from([g, g, ""]) | IDS) for g in gold]
    y_pred = np.array([[draw(st.sampled_from([0, 1, 1, 1, 1, 2])), 0] for _ in gold], dtype=np.int8)
    return pred, gold, y_pred


@settings(max_examples=200, deadline=None)
@given(rows=prediction_rows())
def test_eval_rejects_the_row_the_loop_over_decoded_ids_rejects(rows):
    pred_ids, gold_ids, y_pred = rows
    offsets, blob = copies.pack_strings(pred_ids)
    preds = {"y_pred": y_pred, "id_offsets": offsets, "id_bytes": blob}
    got = outcome(lambda: cli._check_predictions("preds.jsonl", preds, split_of(gold_ids)))
    assert got == outcome(lambda: check_prediction_rows("preds.jsonl", pred_ids, gold_ids, y_pred))


@pytest.mark.parametrize(
    "pred_id,gold_id", [("\ud800", "\udc00"), ("e\u0301", "\u00e9"), ("a\x00", "a"), ("\ud83d\ude00", "\U0001f600")]
)
def test_eval_names_a_mismatched_id_as_the_loop_does(pred_id, gold_id):
    gold = ["g0", gold_id, "g2"]
    pred = ["g0", pred_id, ""]
    y_pred = np.ones((3, 2), dtype=np.int8)
    offsets, blob = copies.pack_strings(pred)
    preds = {"y_pred": y_pred, "id_offsets": offsets, "id_bytes": blob}
    with pytest.raises(DataFormatError) as got:
        cli._check_predictions("p", preds, split_of(gold))
    assert str(got.value) == f"record 1: prediction id {pred_id!r} != gold id {gold_id!r}"
    assert str(got.value) == outcome(lambda: check_prediction_rows("p", pred, gold, y_pred))
