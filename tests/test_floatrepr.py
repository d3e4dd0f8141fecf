"""The array ``repr`` kernel (``floatrepr``) against ``float.__repr__``, and
the JSON writers built on it against ``json.dumps``."""
import json
import math

import numpy as np
import pytest

from knnmlc import floatrepr
from knnmlc.encoder import CheckpointError, EncoderConfig, init_state, load_checkpoint, save_checkpoint
from oracles import state_to_payload


def reprs(values) -> np.ndarray:
    """The (n, SLOT) NUL-padded reprs of ``values``, one ``repr`` each."""
    encoded = [repr(v).encode("ascii") for v in np.asarray(values, dtype=np.float64).tolist()]
    return np.array(encoded, dtype=f"S{floatrepr.SLOT}").view(np.uint8).reshape(-1, floatrepr.SLOT)


def neighbours(value: float, steps: int = 3) -> list[float]:
    out, down, up = [value], value, value
    for _ in range(steps):
        down, up = math.nextafter(down, -math.inf), math.nextafter(up, math.inf)
        out += [down, up]
    return out


EDGES = (
    [0.0, 5e-324, 1e-323, 2.2250738585072014e-308, 2.225073858507201e-308]
    + [1e-300, 1e-280, 1e280, 1.7976931348623157e308]
    + [2.0**e for e in range(-1074, 1024, 7)]
    + [v for base in (1e-5, 1e-4, 1e16, 1e17, 1e-3, 0.1, 1.0) for v in neighbours(base)]
    # the 17-digit tie between ...067.7 and ...067.8, and the widest slots
    + [1528906662046067.75, 1234567890123456.7, 1.2345678901234567e-100, 0.0001234567890123456]
)


def test_the_slots_are_the_reprs_of_random_bit_patterns_and_the_edges():
    rng = np.random.default_rng(20240)
    bits = rng.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max, 200_000, dtype=np.int64, endpoint=True)
    x = bits.view(np.float64)
    x = np.concatenate([x[np.isfinite(x)], EDGES, np.negative(EDGES)])
    assert np.array_equal(floatrepr.float_slots(x), reprs(x))


# the source row's digit words split the 17-place digits at 10**8 and into
# 4-digit groups: values whose digits carry across those edges, where the
# exponent form starts, and with three-digit exponents of both signs
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


def test_the_slots_are_the_reprs_of_values_at_the_digit_word_edges():
    x = np.array(WORD_EDGES)
    x = np.concatenate([x, -x])
    assert np.array_equal(floatrepr.float_slots(x), reprs(x))


def test_the_slots_are_the_reprs_of_values_the_writers_see():
    rng = np.random.default_rng(7)
    x = np.concatenate(
        [rng.random(20_000), rng.normal(size=20_000) * 0.05, np.round(rng.random(5_000), 3), rng.random(5_000) ** 20]
    )
    assert np.array_equal(floatrepr.float_slots(x.reshape(100, -1)), reprs(x))


def test_values_sent_back_to_repr_are_counted_and_still_right():
    # a tie at the final digit, an even-significand value on its rounding
    # boundary, and a value the exact path decides
    hard = np.array([1528906662046067.75, 3.506864851944427e16, 0.1])
    *_, fallback = floatrepr._shortest(hard, np.frexp(hard)[1])
    assert fallback.tolist() == [True, True, False]
    rng = np.random.default_rng(3)
    x = rng.integers(0, 2**63, 50_000, dtype=np.int64).view(np.float64)
    a = x[(x >= 1e-280) & (x <= 1e280) & (np.frexp(x)[0] != 0.5)]
    *_, fallback = floatrepr._shortest(a, np.frexp(a)[1])
    # rare, and each one written by repr itself
    assert 0 < fallback.sum() < 0.01 * a.size
    assert np.array_equal(floatrepr.float_slots(a[fallback]), reprs(a[fallback]))


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
def test_model_json_is_json_dumps_of_the_payload(tmp_path, dims):
    state = init_state(EncoderConfig(*dims), seed=1)
    # exponent forms, negative zero and powers of two among the values
    state.flat[::5] *= 1e-6
    state.flat[1] = -0.0
    state.flat[-1] = 0.25
    path = tmp_path / "model.json"
    save_checkpoint(state, path)
    assert path.read_bytes() == json.dumps(state_to_payload(state)).encode("utf-8")


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
