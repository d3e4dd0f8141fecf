"""The array kernel (``floatrepr``) against ``'%.16e' % v`` with a
three-digit exponent, and the JSON writers built on it against the
reference texts in ``oracles``: the same bytes, and every number read back
as its own bits."""
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from knnmlc import cli, floatrepr
from knnmlc.encoder import CheckpointError, EncoderConfig, init_state, load_checkpoint, save_checkpoint
from knnmlc.inference import PredictionBundle
from oracles import checkpoint_text, fixed_float


def texts(values) -> np.ndarray:
    """The (n, SLOT) slots of ``values`` by the reference, one
    ``fixed_float`` each, NUL-padded on the left."""
    encoded = [fixed_float(v).encode("ascii").rjust(floatrepr.SLOT, b"\0") for v in np.asarray(values).tolist()]
    return np.array(encoded, dtype=f"S{floatrepr.SLOT}").view(np.uint8).reshape(-1, floatrepr.SLOT)


def read_back(slots: np.ndarray) -> np.ndarray:
    """The float64 values ``json.loads`` reads from slots."""
    return np.array(json.loads("[" + ", ".join(row.tobytes().replace(b"\0", b"").decode() for row in slots) + "]"))


def same_bits(a, b) -> bool:
    return np.array_equal(np.asarray(a, dtype=np.float64).view(np.int64), np.asarray(b, dtype=np.float64).view(np.int64))


def neighbours(value: float, steps: int = 3) -> list[float]:
    out, down, up = [value], value, value
    for _ in range(steps):
        down, up = math.nextafter(down, -math.inf), math.nextafter(up, math.inf)
        out += [down, up]
    return out


def ties(rng, count: int) -> list[float]:
    """Doubles m * 2**-j (m odd) whose exact decimal has 18 significant
    digits ending in 5: a tie at the 17th digit, which '%.16e' rounds to
    even."""
    out = []
    for j in range(2, 26):
        lo, hi = -(-10**17 // 5**j), min(10**18 // 5**j, 2**53)
        m = rng.integers(lo, hi, count) | 1
        out += np.ldexp(m[m < hi].astype(np.float64), -j).tolist()
    return out


EDGES = (
    [0.0, 5e-324, 1e-323, 2.2250738585072014e-308, 2.225073858507201e-308]
    + [1e-300, 1e-280, 1e280, 1.7976931348623157e308]
    + [2.0**e for e in range(-1074, 1024, 7)]
    + [v for base in (1e-5, 1e-4, 1e16, 1e17, 1e-3, 0.1, 1.0) for v in neighbours(base)]
    # the 17-digit tie between ...067.7 and ...067.8
    + [1528906662046067.75, 1234567890123456.7, 1.2345678901234567e-100, 0.0001234567890123456]
    # the decade edges, where k is one off or the digits round up to 1e17
    + [v for p in range(-323, 309) for v in neighbours(float(f"1e{p}"), 2)]
)


def test_the_slots_are_the_fixed_text_of_random_bit_patterns_and_the_edges():
    rng = np.random.default_rng(20240)
    bits = rng.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max, 201_000, dtype=np.int64, endpoint=True)
    x = bits.view(np.float64)
    x = x[np.isfinite(x)][:200_000]
    assert x.size == 200_000
    # subnormals and ties with their neighbours
    subnormal = rng.integers(1, 2**52, 5_000, dtype=np.int64).view(np.float64)
    near_ties = [v for tie in ties(rng, 40) for v in neighbours(tie, 2)]
    edges = np.concatenate([EDGES, subnormal, near_ties])
    x = np.concatenate([x, edges, -edges])
    slots = floatrepr.float_slots(x)
    assert np.array_equal(slots, texts(x))
    assert same_bits(read_back(slots), x)


# the slot's digit words split the 17 digits after the first two, at
# 10**7 and into 4-digit groups: values whose digits carry across those
# edges, at the three-digit exponents of both signs
WORD_EDGES = (
    [
        v
        for base in (1e8, 99999999.99999999, 1.0000000100000001, 10000000000000002.0, 9.999999999999999e-05, 0.0001)
        + (1e100, 1e-100, 9.999999999999999e99, 1.2345678912345678e250, 9.87654321e-250, 1.0000000000000001e-123)
        for v in neighbours(base)
    ]
    # runs of nines, and two ones with zeros between, ending at every place
    + [float(f"{d}e{e}") for e in (-120, -5, 0, 8, 120) for p in range(1, 18) for d in ("9" * p, "1" + "0" * (p - 2) + "1")]
)


def test_the_slots_are_the_fixed_text_of_values_at_the_digit_word_edges():
    x = np.array(WORD_EDGES)
    x = np.concatenate([x, -x])
    assert np.array_equal(floatrepr.float_slots(x), texts(x))


def test_the_slots_are_the_fixed_text_of_values_the_writers_see():
    rng = np.random.default_rng(7)
    x = np.concatenate(
        [rng.random(20_000), rng.normal(size=20_000) * 0.05, np.round(rng.random(5_000), 3), rng.random(5_000) ** 20]
    )
    x[::9] = 0.0
    assert np.array_equal(floatrepr.float_slots(x.reshape(100, -1)), texts(x))


def test_only_ties_and_values_out_of_range_go_to_the_formatter():
    # a tie at the 17th digit, four values out of range, a zero and two the
    # kernel writes itself
    hard = np.array([1528906662046067.75, 1e-300, 1e300, 5e-324, 1.7976931348623157e308, 0.0, 0.1, 1e16])
    *_, fallback = floatrepr._digits(hard)
    assert fallback.tolist() == [True] * 5 + [False] * 3
    rng = np.random.default_rng(3)
    tied = np.array(ties(rng, 20))
    assert floatrepr._digits(tied)[2].all()
    # rare among values in range, and each one written by '%.16e' itself
    x = rng.integers(0, 2**63, 50_000, dtype=np.int64).view(np.float64)
    a = x[(x >= 1e-280) & (x <= 1e280)]
    *_, fallback = floatrepr._digits(a)
    assert fallback.sum() < 0.001 * a.size
    assert np.array_equal(floatrepr.float_slots(tied), texts(tied))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_nan_and_inf_raise(bad):
    with pytest.raises(ValueError, match="NaN or inf"):
        floatrepr.float_slots(np.array([0.5, bad]))


def test_int_slots_are_the_decimal_digits():
    v = np.array([0, 1, 9, 10, 99, 100, 12345678, 10**16, 2**63 - 1], dtype=np.int64)
    got = [row.tobytes().replace(b"\0", b"") for row in floatrepr.int_slots(v)]
    assert got == [str(i).encode() for i in v.tolist()]
    # as wide as the largest needs, in whole 4-digit groups
    assert floatrepr.int_slots(v[:6]).shape == (6, 4)
    assert floatrepr.int_slots(np.zeros(0, dtype=np.int64)).shape == (0, 4)


@pytest.mark.parametrize(
    "dims",
    [
        (120, 16, 12, 12),  # the default and wide-batch workloads
        (2000, 64, 32, 48),  # large
        (1, 1, 1, 1),
        (20000, 2, 3, 2),  # a row longer than a block
    ],
)
def test_model_json_is_the_checkpoint_text(tmp_path, dims):
    state = init_state(EncoderConfig(*dims), seed=1)
    # small exponents, negative zero and powers of two among the values
    state.flat[::5] *= 1e-6
    state.flat[1] = -0.0
    state.flat[-1] = 0.25
    path = tmp_path / "model.json"
    save_checkpoint(state, path)
    assert path.read_bytes() == checkpoint_text(state).encode("utf-8")


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(1, 4), c=st.integers(1, 4), k=st.integers(0, 3))
def test_every_number_the_writers_write_reads_back_as_its_bits(data, n, c, k):
    state = init_state(EncoderConfig(3, 2, 2, c), seed=0)
    state.flat[:] = data.draw(hnp.arrays(np.float64, state.flat.size, elements=FINITE))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        save_checkpoint(state, path)
        params = json.loads(path.read_text(encoding="utf-8"))["params"]
    assert same_bits(np.concatenate([np.ravel(params[name]) for name, _ in state.param_items()]), state.flat)

    y_clf, y_knn, y_final = (data.draw(hnp.arrays(np.float64, (n, c), elements=FINITE)) for _ in range(3))
    sims = data.draw(hnp.arrays(np.float64, (n, k), elements=FINITE))
    lam = data.draw(hnp.arrays(np.float64, n, elements=FINITE))
    bundle = PredictionBundle(
        y_clf=y_clf,
        y_knn=y_knn,
        high_conf_mask=np.zeros((n, c), dtype=np.int8),
        lam=lam,
        y_final=y_final,
        neighbor_indices=np.arange(n * k).reshape(n, k),
        neighbor_sims=sims,
    )
    ids = np.array([f"s{i}" for i in range(n)], dtype=object)
    lines = b"".join(cli._prediction_lines(ids, bundle, np.zeros((n, c), dtype=np.int8))).splitlines()
    records = [json.loads(line) for line in lines]
    for field, want in [("y_clf", y_clf), ("y_knn", y_knn), ("y_final", y_final)]:
        assert same_bits([r[field] for r in records], want), field
    assert same_bits([r["lambda"] for r in records], lam)
    assert same_bits([[p["similarity"] for p in r["neighbors"]] for r in records], sims)


def test_a_non_finite_parameter_is_refused_before_any_byte_is_written(tmp_path):
    path = tmp_path / "model.json"
    save_checkpoint(init_state(EncoderConfig(3, 2, 2, 2), seed=0), path)
    before = path.read_bytes(), (tmp_path / "model.json.packed").read_bytes()
    state = init_state(EncoderConfig(3, 2, 2, 2), seed=1)
    state.w_clf[0, 0] = math.nan
    with pytest.raises(CheckpointError, match="parameter w_clf holds a NaN or inf"):
        save_checkpoint(state, path)
    assert (path.read_bytes(), (tmp_path / "model.json.packed").read_bytes()) == before
    load_checkpoint(path)
