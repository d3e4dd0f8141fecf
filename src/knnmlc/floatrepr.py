"""CPython's ``repr`` of every element of a float64 array, computed on the
whole array: the text ``json`` writes for a finite float, so the JSON
writers (``model.json``, ``preds.jsonl``) can lay numbers out as arrays.

``float_slots`` returns one row of ``SLOT`` bytes per value: the bytes of
``float.__repr__`` from the left, NUL after them. A writer lays its literal
pieces and the slots out in one uint8 matrix and drops every NUL in one
pass (``lay_out``); no JSON text holds a NUL byte (json escapes one in a
string as ``\\u0000``).

The digits are the shortest ones that read back as the value, and among
those the nearest, as ``repr`` prints them (Steele and White's criterion;
the method is Loitsch's Grisu3, PLDI 2010: a fast exact path that hands
every value it cannot decide back to the exact printer). For |x| in
[1e-280, 1e280] that is not a power of two, y = |x| * 10**(16 - k) with
k = floor(log10 |x|) is formed as a double-double (Dekker's exact product
with a (hi, lo) pair for 10**p), so y lies in [1e16, 1e17) as an int64 Y
plus a fraction r, good to about 1e-14. h, half an ulp of x in the units
of Y, lies in (0.55, 11.2]. The digits are those of the nearest multiple
of 10**j to y for the largest j whose nearest multiple lies within h of y;
whether one does only gets easier as j falls, so the test runs at j = 1 on
every value, at j = 2 on those it holds for, and at j = 3 ... 17 at once on
the few left. A value any of whose decisions (within h or not, which
multiple is nearer) lies within 1e-9 relative of its threshold is sent
back to ``repr``; so are the values outside that range.
Zero and the powers of two (whose rounding interval is asymmetric) take
one ``repr`` per distinct value in a call.
"""
from __future__ import annotations

import itertools

import numpy as np

__all__ = ["BLOCK", "SLOT", "float_slots", "int_slots", "lay_out"]

# the widest repr: '-', 17 digits, '.', 'e-' and a 3-digit exponent
SLOT = 24
# values a writer lays out per kernel call, which bounds its temporaries
BLOCK = 1 << 13
_SEPARATOR = np.frombuffer(b", ", dtype=np.uint8)
# the exact path's range, and the relative distance from a threshold below
# which a decision goes back to repr (the double-double error is ~1e-14 / h)
_LOW, _HIGH = 1e-280, 1e280
_MARGIN = 1e-9
_STAND_IN = 1.0000000000000002
# 10**p as hi + lo for every p = 16 - k the exact path can ask for
_P_MIN, _P_MAX = 16 - 281, 16 + 281


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
_POW10 = 10 ** np.arange(19, dtype=np.int64)
_PLACES = 10 ** np.arange(20, dtype=np.uint64)
# "0000" ... "9999" as 4 ASCII bytes each, one uint32 per group (filled by
# broadcasting, which makes no temporaries)
_GROUPS = np.empty((10, 10, 10, 10, 4), dtype=np.uint8)
for _place, _shape in enumerate([(10, 1, 1, 1), (10, 1, 1), (10, 1), (10,)]):
    _GROUPS[..., _place] = np.frombuffer(b"0123456789", dtype=np.uint8).reshape(_shape)
_GROUPS = _GROUPS.view(np.uint32).ravel()

# a slot's layout: the column of the value's source row (``_source``) that
# each of its SLOT bytes copies. A source row is eight 4-byte words: five of
# digits (3 zeros, then the value's digits scaled to 17 places), the
# constants, the exponent's sign and last three digits, and NULs.
_MINUS, _DOT, _ZERO, _E, _ESIGN, _NUL = 20, 21, 22, 23, 24, 28
_SOURCE = 32
# slots laid out per gather, which bounds its index
_GATHER_ROWS = 2048
_CONSTANTS = np.frombuffer(b"-.0e", dtype=np.uint32)[0]
# the exponent word of each decimal exponent from -300 on: "-300" ... "+300"
_EXPONENTS = np.frombuffer(b"".join(b"%+04d" % p for p in range(-300, 301)), dtype=np.uint32)
# the decimal point positions (decpt: the value is 0.d1d2... * 10**decpt)
# that repr writes without an exponent; the cases past them are the
# exponent form with a 2-digit and with a 3-digit exponent
_FIXED = range(-3, 17)
_CASES = len(_FIXED) + 2


def _layout(negative: bool, nd: int, case: int) -> list[int]:
    """The source columns of a slot for ``nd`` digits with decpt ``case``
    (in ``_FIXED``), or in exponent form (``case`` 17 and 18), as repr lays
    them out."""
    digits = list(range(3, 3 + nd))
    out = [_MINUS] if negative else []
    if case in _FIXED and case <= 0:
        out += [_ZERO, _DOT] + [_ZERO] * -case + digits
    elif case in _FIXED and case >= nd:
        out += digits + [_ZERO] * (case - nd) + [_DOT, _ZERO]
    elif case in _FIXED:
        out += digits[:case] + [_DOT] + digits[case:]
    else:
        exponent = list(range(_ESIGN + 1, _NUL))[1 if case == _FIXED.stop else 0 :]
        out += digits[:1] + ([_DOT] + digits[1:] if nd > 1 else []) + [_E, _ESIGN] + exponent
    return out + [_NUL] * (SLOT - len(out))


# the layout of each (negative, nd, case), row (negative * 17 + nd - 1) *
# _CASES + case + 3
_LAYOUTS = np.frombuffer(
    b"".join(bytes(_layout(*key)) for key in itertools.product((False, True), range(1, 18), range(-3, 19))),
    dtype=np.uint8,
).reshape(-1, SLOT)
# by the j of a value's digits: (nd - 1) * _CASES and 10**(17 - nd); by the
# decimal exponent of its first digit (decpt - 1) from -300 on: case + 3
_J_LAYOUT = np.array([(max(17 - j, 1) - 1) * _CASES for j in range(18)])
_J_SCALE = _POW10[np.minimum(np.arange(18), 16)]
_EXPONENT_CASE = np.array(
    [p + 1 - _FIXED.start if p + 1 in _FIXED else _CASES - 2 + (abs(p) >= 100) for p in range(-300, 301)]
)


def _nearest(big, frac, half_ulp, scale):
    """For y = big + frac and the multiples of ``scale`` (a power of ten, or
    a row of them) around it: the lower one's quotient, the distances down
    and up, whether the nearer lies within ``half_ulp``, and whether that
    lies too close to call."""
    q = big // scale
    rem = big - q * scale
    down = rem + frac
    up = (scale - rem) - frac
    del rem
    near = np.minimum(down, up)
    inside = near < half_ulp
    near -= half_ulp
    return q, down, up, inside, np.abs(near, out=near) <= _MARGIN * half_ulp


def _shortest(a: np.ndarray, e: np.ndarray):
    """(digits, j, k, fallback) for positive finite doubles ``a`` in
    [_LOW, _HIGH] that are not powers of two, with ``e`` their frexp
    exponents: the int64 ``digits`` of the shortest nearest form of each
    value and the decimal exponent of its last digit, ``j + k - 16``;
    ``fallback`` marks the values whose decisions came within ``_MARGIN``
    of a threshold, whose digits are meaningless."""
    # a lies in [2**(e - 1), 2**e), so floor(log10 a) is k or k + 1
    k = np.floor((e - 1) * 0.30102999566398120).astype(np.int64)
    k += a * _TEN_HI.take(16 - _P_MIN - k) >= 1e17
    row = 16 - _P_MIN - k
    ten_hi = _TEN_HI.take(row)
    y = a * ten_hi
    half_ulp = np.ldexp(ten_hi, e - 54)
    del ten_hi
    ah, al = _split(a)
    # y + t is a * 10**(16 - k) to ~1e-14: y is an integer (>= 2**53); t
    # sums ((ah*th - y) + ah*tl + al*th) + al*tl + a*lo in that order, in
    # place, each array freed once used (this stage holds the most)
    t = ah * _TEN_HI_HIGH.take(row)
    t -= y
    t += ah * _TEN_HI_LOW.take(row)
    del ah
    t += al * _TEN_HI_HIGH.take(row)
    t += al * _TEN_HI_LOW.take(row)
    del al
    t += a * _TEN_LO.take(row)
    del row
    big = y.astype(np.int64)
    del y
    frac = t
    t = np.floor(frac)
    big += t.astype(np.int64)
    frac -= t
    del t
    # j = 0: the nearest integer always lies within h (> 0.55); a tie
    # between two multiples matters only at the final j
    digits = big + (frac > 0.5)
    tie = np.abs(frac - 0.5) <= _MARGIN
    # j = 1 on every value and 2 on those it holds for; then 3 ... 17 at
    # once on the few left: it holds for every j up to the last one's and
    # for none past it
    q, down, up, inside, unsure = _nearest(big, frac, half_ulp, _POW10[1])
    fallback = unsure | (big < _POW10[16]) | (big >= _POW10[17])
    inside &= ~fallback
    q += up < down
    np.copyto(digits, q, where=inside)
    del q
    down -= up
    np.copyto(tie, np.abs(down, out=down) <= _MARGIN * 10, where=inside)
    del down, up
    j = inside.astype(np.int64)
    live = np.flatnonzero(inside)
    q, down, up, inside, unsure = _nearest(big.take(live), frac.take(live), half_ulp.take(live), _POW10[2])
    fallback[live[unsure]] = True
    keep = np.flatnonzero(inside & ~unsure)
    live, q, down, up = live.take(keep), q.take(keep), down.take(keep), up.take(keep)
    digits[live] = q + (up < down)
    tie[live] = np.abs(down - up) <= _MARGIN * 100
    j[live] = 2
    scales = _POW10[3:18]
    q, down, up, inside, unsure = _nearest(
        big.take(live)[:, None], frac.take(live)[:, None], half_ulp.take(live)[:, None], scales
    )
    further = np.logical_and.accumulate(inside, axis=1).sum(axis=1)
    # the decisions taken: each j up to the first that fails
    fallback[live[(unsure & (np.arange(scales.size) <= further[:, None])).any(axis=1)]] = True
    moved = np.flatnonzero(further)
    at = further.take(moved) - 1
    q, down, up = q[moved, at], down[moved, at], up[moved, at]
    live = live.take(moved)
    digits[live] = q + (up < down)
    tie[live] = np.abs(down - up) <= _MARGIN * scales.take(at)
    j[live] = at + 3
    fallback |= tie
    return digits, j, k, fallback


def _put_digits(out: np.ndarray, v: np.ndarray) -> None:
    """Write the ASCII digits of the non-negative int64 ``v`` (below
    10**w), zero-padded, into the (n, w) uint8 ``out``, w a multiple of 4,
    one 4-digit group at a time."""
    for at in range(out.shape[1] - 4, -1, -4):
        high = v // 10_000 if at else v
        out[:, at : at + 4] = _GROUPS.take(v - high * 10_000 if at else v).view(np.uint8).reshape(-1, 4)
        v = high


def _source(scaled: np.ndarray, exponent: np.ndarray) -> np.ndarray:
    """The (n, 32) uint8 source rows that the layouts index, for the int64
    digits scaled to 17 places and the decimal exponents of the first
    digit, written as (n, 8) uint32 words."""
    words = np.empty((scaled.size, _SOURCE // 4), dtype=np.uint32)
    # split once into the first 9 digits and the last 8, each below 2**32;
    # then the 4-digit groups "000d", dddd, dddd | dddd, dddd in uint32
    high = scaled // 100_000_000
    low = (scaled - high * 100_000_000).astype(np.uint32)
    high = high.astype(np.uint32)
    top, mid = high // 10_000, low // 10_000
    first = top // 10_000
    words[:, 0] = _GROUPS.take(first)
    words[:, 1] = _GROUPS.take(top - first * 10_000)
    words[:, 2] = _GROUPS.take(high - top * 10_000)
    words[:, 3] = _GROUPS.take(mid)
    words[:, 4] = _GROUPS.take(low - mid * 10_000)
    words[:, 5] = _CONSTANTS
    words[:, 6] = _EXPONENTS.take(exponent + 300)
    words[:, 7] = 0
    return words.view(np.uint8)


def float_slots(values) -> np.ndarray:
    """The (n, SLOT) uint8 matrix whose row i holds ``repr(float(v_i))``
    from its first byte, NUL after it, for the n values of ``values``
    (float64, read in C order); ValueError for a NaN or inf."""
    x = np.ascontiguousarray(values, dtype=np.float64).ravel()
    if not np.isfinite(x).all():
        raise ValueError("cannot write NaN or inf as a JSON number")
    a = np.abs(x)
    mantissa, e = np.frexp(a)
    exact = mantissa == 0.5
    del mantissa
    exact |= a == 0.0
    outside = ((a < _LOW) | (a > _HIGH)) & ~exact
    # the exact path runs on every value, the rest stood in for by a value
    # whose 17 digits it settles at j = 1 (1.0000000000000002)
    other = exact | outside
    stand_in = other.any()
    if stand_in:
        a[other] = _STAND_IN
        e[other] = 1
    digits, j, k, fallback = _shortest(a, e)
    del a, e, other
    # the digits at j are 17 - j digits (none ending in 0), or 1 at j = 17
    exponent = k + (j == 17)
    del k
    layout = np.signbit(x) * (17 * _CASES)
    layout += _J_LAYOUT.take(j)
    layout += _EXPONENT_CASE.take(exponent + 300)
    digits *= _J_SCALE.take(j)
    del j
    source = _source(digits, exponent).ravel()
    del digits, exponent
    out = np.empty((x.size, SLOT), dtype=np.uint8)
    # the (rows, SLOT) intp index of a layout gather is 8 bytes per slot byte
    for lo in range(0, x.size, _GATHER_ROWS):
        block = layout[lo : lo + _GATHER_ROWS]
        first = np.arange(lo * _SOURCE, (lo + block.size) * _SOURCE, _SOURCE)
        source.take(_LAYOUTS[block] + first[:, None], out=out[lo : lo + _GATHER_ROWS])
    if stand_in:
        # zero and the powers of two: one repr per distinct value, keyed by
        # sign and frexp exponent (0 for a zero, e + 1074 >= 1 for 2**(e - 1))
        rows = np.flatnonzero(exact)
        mantissa, e = np.frexp(x.take(rows))
        key = np.where(mantissa == 0.0, 0, e + 1074) + np.signbit(mantissa) * 2100
        # a row holding each key's value, and each key's row of the table
        holder = np.full(2 * 2100, -1)
        holder[key] = rows
        distinct = np.flatnonzero(holder >= 0)
        table = [repr(v).encode("ascii") for v in x.take(holder.take(distinct)).tolist()]
        holder[distinct] = np.arange(distinct.size)
        out[rows] = np.array(table, dtype=f"S{SLOT}").view(np.uint8).reshape(-1, SLOT)[holder.take(key)]
        fallback |= outside
    # the rest is repr's own: out of range, or a decision too close to call
    for i in np.flatnonzero(fallback).tolist():
        written = repr(float(x[i])).encode("ascii")
        out[i] = 0
        out[i, : len(written)] = np.frombuffer(written, dtype=np.uint8)
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
