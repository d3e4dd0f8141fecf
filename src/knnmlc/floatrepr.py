"""Every element of a float64 array as the text of a JSON number, computed
on the whole array, so the JSON writers (``model.json``, ``preds.jsonl``)
can lay numbers out as arrays.

``float_slots`` returns one row of ``SLOT`` bytes per value: the text of
``'%.16e' % v`` with its exponent widened to three digits
(``7.2999999999999998e-001``, ``-0.0000000000000000e+000``,
``4.9406564584124654e-324``), a NUL first where a positive value has no
sign. A writer lays its literal pieces and the slots out in one uint8
matrix and drops every NUL in one pass (``lay_out``); no JSON text holds a
NUL byte (json escapes one in a string as ``\\u0000``).

Seventeen significant digits, correctly rounded, read back as the same
binary64 value (IEEE 754-2008, 5.12.2), so a correctly rounding JSON
reader (Python's ``json`` is one) returns each value's bits. The digits are those of Y, the integer nearest to
y = |x| * 10**(16 - k) with k = floor(log10 |x|). For |x| in
[1e-280, 1e280], y is formed as a double-double (Dekker's exact product
with a (hi, lo) pair for 10**p): an int64 plus a fraction, good to about
1e-14. Three kinds of value are written by ``'%.16e'`` itself, one at a
time: |x| outside that range (but zero, whose text is fixed); a Y outside
[1e16, 1e17) (k one off at a decade's edge, or rounding up to 1e17); and
a fraction within 1e-9 of .5, where the double-double cannot tell which
way the value rounds.
"""
from __future__ import annotations

import numpy as np

__all__ = ["BLOCK", "SLOT", "float_slots", "int_slots", "lay_out"]

# '-' or NUL, d, '.', 16 digits, 'e' and a signed 3-digit exponent
SLOT = 24
# values a writer lays out per kernel call, which bounds its temporaries
BLOCK = 1 << 13
_SEPARATOR = np.frombuffer(b", ", dtype=np.uint8)
# the kernel's range, and the distance of a fraction from .5 below which a
# value goes to '%.16e' (the double-double error is ~1e-14)
_LOW, _HIGH = 1e-280, 1e280
_MARGIN = 1e-9
# the k of every value in that range, and 10**p for every p = 16 - k
_K_MIN, _K_MAX = -281, 281
_P_MIN, _P_MAX = 16 - _K_MAX, 16 - _K_MIN


def _pow10_pairs() -> tuple[np.ndarray, np.ndarray]:
    """10**p as the double nearest it and the double nearest the rest, for p
    in [_P_MIN, _P_MAX], from exact integer ratios (int / int rounds
    correctly)."""
    hi, lo = [], []
    for p in range(_P_MIN, _P_MAX + 1):
        num, den = (10**p, 1) if p >= 0 else (1, 10**-p)
        high = num / den
        n, d = high.as_integer_ratio()
        hi.append(high)
        lo.append((num * d - n * den) / (den * d))
    return np.array(hi), np.array(lo)


_TEN_HI, _TEN_LO = _pow10_pairs()


def _split(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split of doubles into two 26-bit halves."""
    c = v * 134217729.0
    high = c - (c - v)
    return high, v - high


_TEN_HI_HIGH, _TEN_HI_LOW = _split(_TEN_HI)
_PLACES = 10 ** np.arange(20, dtype=np.uint64)
# "0000" ... "9999" as 4 ASCII bytes each, one uint32 per group (filled by
# broadcasting, which makes no temporaries)
_GROUPS = np.empty((10, 10, 10, 10, 4), dtype=np.uint8)
for _place, _shape in enumerate([(10, 1, 1, 1), (10, 1, 1), (10, 1), (10,)]):
    _GROUPS[..., _place] = np.frombuffer(b"0123456789", dtype=np.uint8).reshape(_shape)
_GROUPS = _GROUPS.view(np.uint32).ravel()
# a slot is six 4-byte words: the sign, the first digit, '.' and the second
# digit (row sign * 100 + the first two digits); three 4-digit groups; the
# last three digits and 'e'; the exponent
_LEADS = np.frombuffer(
    b"".join(sign + b"%d.%d" % divmod(d, 10) for sign in (b"\0", b"-") for d in range(100)), dtype=np.uint32
)
_TAILS = np.frombuffer(b"".join(b"%03de" % d for d in range(1000)), dtype=np.uint32)
_EXPONENTS = np.frombuffer(b"".join(b"%+04d" % k for k in range(_K_MIN, _K_MAX + 1)), dtype=np.uint32)


def _put_digits(out: np.ndarray, v: np.ndarray) -> None:
    """Write the ASCII digits of the non-negative int64 ``v`` (below
    10**w), zero-padded, into the (n, w) uint8 ``out``, w a multiple of 4,
    one 4-digit group at a time."""
    for at in range(out.shape[1] - 4, -1, -4):
        high = v // 10_000 if at else v
        out[:, at : at + 4] = _GROUPS.take(v - high * 10_000 if at else v).view(np.uint8).reshape(-1, 4)
        v = high


def _digits(a: np.ndarray):
    """(digits, k, fallback) for non-negative doubles ``a``: the 17
    correctly rounded significant digits of each value as an int64 in
    [1e16, 1e17) and the decimal exponent k of the first, both 0 for a
    zero; ``fallback`` marks the values whose digits are left 0 for
    ``'%.16e'`` to write: out of range, Y outside [1e16, 1e17), or a
    fraction too near .5 to round."""
    zero = a == 0.0
    clipped = np.clip(a, _LOW, _HIGH)
    _, e = np.frexp(clipped)
    # the value lies in [2**(e - 1), 2**e), so floor(log10) is k or k + 1
    k = np.floor((e - 1) * 0.30102999566398120).astype(np.int64)
    del e
    k += clipped * _TEN_HI.take(_K_MAX - k) >= 1e17
    row = _K_MAX - k
    y = clipped * _TEN_HI.take(row)
    high, low = _split(clipped)
    # y + t is clipped * 10**(16 - k): y is an integer (>= 2**53); with
    # clipped = h + l and 10**p = th + tl + lo (th + tl its double, split),
    # t sums ((h*th - y) + h*tl + l*th) + l*tl + clipped*lo in that order
    t = high * _TEN_HI_HIGH.take(row)
    t -= y
    t += high * _TEN_HI_LOW.take(row)
    t += low * _TEN_HI_HIGH.take(row)
    t += low * _TEN_HI_LOW.take(row)
    t += clipped * _TEN_LO.take(row)
    del high, low, row
    big = y.astype(np.int64)
    del y
    frac = t
    t = np.floor(frac)
    big += t.astype(np.int64)
    frac -= t
    digits = big + (frac > 0.5)
    fallback = clipped != a
    fallback |= big < 10**16
    fallback |= digits >= 10**17
    fallback |= np.abs(frac - 0.5) <= _MARGIN
    fallback &= ~zero
    np.copyto(digits, 0, where=zero | fallback)
    np.copyto(k, 0, where=zero)
    return digits, k, fallback


def float_slots(values) -> np.ndarray:
    """The (n, SLOT) uint8 matrix whose row i holds the text of
    ``'%.16e' % v_i`` with a three-digit exponent, NUL-padded on the left,
    for the n values of ``values`` (float64, read in C order); ValueError
    for a NaN or inf."""
    x = np.ascontiguousarray(values, dtype=np.float64).ravel()
    if not np.isfinite(x).all():
        raise ValueError("cannot write NaN or inf as a JSON number")
    digits, k, fallback = _digits(np.abs(x))
    lead = digits // 10**15
    rest = digits - lead * 10**15
    lead += np.signbit(x) * 100
    # the 3rd to 10th digits and the 11th to 17th, each below 2**32
    high = rest // 10**7
    low = (rest - high * 10**7).astype(np.uint32)
    high = high.astype(np.uint32)
    top, mid = high // 10_000, low // 1000
    words = np.empty((x.size, SLOT // 4), dtype=np.uint32)
    words[:, 0] = _LEADS.take(lead)
    words[:, 1] = _GROUPS.take(top)
    words[:, 2] = _GROUPS.take(high - top * 10_000)
    words[:, 3] = _GROUPS.take(mid)
    words[:, 4] = _TAILS.take(low - mid * 1000)
    words[:, 5] = _EXPONENTS.take(k - _K_MIN)
    out = words.view(np.uint8)
    rows = np.flatnonzero(fallback)
    for i, v in zip(rows.tolist(), x.take(rows).tolist()):
        mantissa, exponent = ("%.16e" % v).split("e")
        text = ("%se%+04d" % (mantissa, int(exponent))).encode("ascii")
        out[i] = np.frombuffer(text.rjust(SLOT, b"\0"), dtype=np.uint8)
    return out


def int_slots(values) -> np.ndarray:
    """The (n, w) uint8 matrix whose row i holds the decimal digits of the
    non-negative int64 ``v_i`` at its end, NUL before them; w is a multiple
    of 4 that holds the largest."""
    v = np.ascontiguousarray(values, dtype=np.int64).ravel()
    groups = -(-len(str(v.max(initial=0))) // 4)
    out = np.empty((v.size, 4 * groups), dtype=np.uint8)
    _put_digits(out, v)
    # a leading zero is a column whose place value exceeds v; the last digit stays
    out[:, :-1][v.astype(np.uint64)[:, None] < _PLACES[4 * groups - 1 : 0 : -1]] = 0
    return out


def _width(piece) -> int:
    """The columns a ``lay_out`` piece takes."""
    if isinstance(piece, str):
        return len(piece)
    if isinstance(piece, tuple):
        count, parts = piece
        return count * (sum(map(_width, parts)) + 2) if count else 0
    return piece.shape[-1]


def _fill(view: np.ndarray, pieces) -> None:
    """Write ``pieces`` left to right into the last axis of ``view``."""
    at = 0
    for piece in pieces:
        width = _width(piece)
        if isinstance(piece, str):
            view[..., at : at + width] = np.frombuffer(piece.encode("ascii"), dtype=np.uint8)
        elif isinstance(piece, tuple) and width:
            count, parts = piece
            group = view[..., at : at + width].reshape(*view.shape[:-1], count, width // count)
            _fill(group[..., :-2], parts)
            group[..., :-1, -2:] = _SEPARATOR
        elif not isinstance(piece, tuple):
            view[..., at : at + width] = piece
        at += width


def lay_out(rows: int, pieces) -> bytes:
    """The bytes of ``rows`` lines laid out from ``pieces`` left to right in
    one uint8 matrix, every NUL dropped. A piece is a str (the same ASCII
    text in every row), a (rows, w) uint8 array (NUL-padded slots, one per
    row), or a tuple (count, parts): ``parts`` laid out ``count`` times with
    ", " between them, its arrays (rows, count, w)."""
    matrix = np.zeros((rows, sum(map(_width, pieces))), dtype=np.uint8)
    _fill(matrix, pieces)
    flat = matrix.ravel()
    return flat[flat != 0].tobytes()
