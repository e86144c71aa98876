"""Byte renderer of float64 arrays: the bytes of ``"%.17g" % v`` (the
CSVs) or of ``repr(v)`` (the state JSON) for whole arrays at a time.

A finite nonzero |v| = m 2^e (m in [0.5, 1)) has the 17 significant digits
D = round(|v| 10^(16 - x10)), 10^16 <= D < 10^17, where x10 is its decimal
exponent.  The product m 2^e 10^k is formed as a double-double (Dekker)
from 10^k = (hi + lo) 2^s, with hi and lo correctly rounded from Python
integers; its error is below 1e-14 in units of D.  A value whose scaled
magnitude lies within _GUARD of a rounding tie or of a point where the
rounded exponent changes, and NaN and the infinities, are written by the
per-value format itself, so every byte matches it.

repr writes the shortest digits that read back as v, the nearest to v when
two of that length do.  Every decimal within half an ulp of v reads back
as v (a quarter below a power of two), which is 0.55 to 11.1 units of the
17th digit, so the shortest digits are D itself, or the multiple of 10 or
of 100 next to v that lies in that interval, trailing zeros dropped.
Values within _GUARD of an interval edge or of a tie between two
candidates, and subnormals, are written by repr itself.

Each value is laid out in a cell of CELL bytes, four 8-byte words in which
0 is a pad byte: word 0 holds the sign, the "0.000" lead-in of
1e-4 <= |v| < 1, the first digit and a '.'-or-pad slot after it; words 1
and 2 hold the other 16 digits, one a byte; word 3 holds the exponent and,
last, the separator.  A fixed value of 10 or more with digits after its
'.' has them moved one byte on, past the '.', the last into the first
byte of word 3, which has no exponent then.  Trailing zeros are pads,
which the writers delete.
"""

from __future__ import annotations

import numpy as np

CELL = 32
_GUARD = 2.0**-20


def _words(table) -> np.ndarray:
    """Rows of 8 bytes as one uint64 each, for whole-word gathers."""
    return np.ascontiguousarray(table, dtype=np.uint8).view(np.uint64).ravel()


# by decimal exponent x10 + _X0 (finite doubles have -324 <= x10 <= 308)
_X0 = 330
_X10 = np.arange(-_X0, _X0 + 1)
_FIXED = (_X10 >= -4) & (_X10 < 17)  # "%g" writes these without an exponent
_POINT = np.where(_FIXED & (_X10 >= 0), _X10, 0)  # the '.' follows digit _POINT
_LEAD20 = np.where(_FIXED & (_X10 < 0), -20 * _X10, 0)  # 20 x the lead-in below
_DOT0 = _POINT + _LEAD20 == 0  # the '.' follows the first digit: in word 0
_TAIL = np.zeros((_X10.size, 8), dtype=np.uint8)
_TAIL[:, 0] = ord("e")
_TAIL[:, 1] = np.where(_X10 < 0, ord("-"), ord("+"))
_TAIL[:, 2] = np.where(abs(_X10) >= 100, 48 + abs(_X10) // 100, 0)
_TAIL[:, 3] = 48 + abs(_X10) // 10 % 10
_TAIL[:, 4] = 48 + abs(_X10) % 10
_TAIL[_FIXED] = 0
_TAIL = _words(_TAIL)

# word 0 by 100 sign + 20 lead + 2 first digit + dot, where lead is the
# lead-in "0." and lead - 1 zeros of 1e-4 <= |v| < 1
_H = np.arange(200)
_HEAD = np.zeros((200, 8), dtype=np.uint8)
_HEAD[:, 0] = np.where(_H >= 100, ord("-"), 0)
_HEAD[:, 1:6] = np.frombuffer(
    b"\0\0\0\0\0" b"0.\0\0\0" b"0.0\0\0" b"0.00\0" b"0.000", dtype=np.uint8
).reshape(5, 5)[_H // 20 % 5]
_HEAD[:, 6] = 48 + _H // 2 % 10
_HEAD[:, 7] = np.where(_H % 2, ord("."), 0)
_HEAD = _words(_HEAD)

# a quad is four digits q = 0..9999 in the low four bytes of a word; quad
# g (0..3) holds digits 4g + 1 .. 4g + 4 of the 17, quads 0 and 2 in the
# low half of words 1 and 2, quads 1 and 3 in the high half
_QDIGITS = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T
_QLOW = np.zeros((10000, 8), dtype=np.uint8)
_QLOW[:, :4] = 48 + _QDIGITS
_QLOW = _words(_QLOW)
_BYTES = _words(np.where(np.arange(8) < np.arange(9)[:, None], 255, 0))  # keep k bytes
_KEEPMASK = _BYTES[np.clip(np.arange(17) - 8 * np.arange(2)[:, None], 0, 8)]  # [word, digits kept]
_QPOS = np.max((_QDIGITS > 0) * np.arange(1, 5, dtype=np.int8), axis=1)  # 0 for q = 0
_QLAST = np.where(_QPOS > 0, _QPOS + 4 * np.arange(4, dtype=np.int8)[:, None], 0).astype(np.int8)
_QBASE = 10000 * np.arange(4)[:, None]
_DOT = np.zeros((17, 16), dtype=np.uint8)
_DOT[np.arange(16), np.arange(16)] = ord(".")
_DOT = _words(_DOT).reshape(17, 2).T  # [word, k]: a '.' after digit k of words 1 and 2


# 10^k = (hi + lo) 2^s with 0.5 <= hi <= 1, row k + _K0, and hi's Dekker
# halves; each row is filled when a value first needs it and is a pure
# function of k.  The exponents are int32, as np.frexp's, for np.ldexp's
# int32 loop.
_K0 = 300
_POW_HI = np.full(2 * _K0 + 50, np.nan)
_POW_LO = np.zeros_like(_POW_HI)
_POW_HH = np.zeros_like(_POW_HI)
_POW_HL = np.zeros_like(_POW_HI)
_POW_EXP = np.zeros(_POW_HI.size, dtype=np.int32)


def _split(a):
    c = 134217729.0 * a  # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _fill_pow(k: int) -> None:
    s = (10**k).bit_length() if k >= 0 else 1 - (10**-k).bit_length()
    num = 10 ** max(k, 0) << max(-s, 0)
    den = 10 ** max(-k, 0) << max(s, 0)
    hi = num / den  # int / int is correctly rounded
    hn, hd = hi.as_integer_ratio()
    _POW_HI[k + _K0] = hi
    _POW_LO[k + _K0] = (num * hd - hn * den) / (den * hd)
    _POW_HH[k + _K0], _POW_HL[k + _K0] = _split(hi)
    _POW_EXP[k + _K0] = s


def _scaled(m: np.ndarray, e: np.ndarray, x10: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """m 2^e 10^(16 - x10) as an integer-valued float64 and a small remainder."""
    row = 16 - x10 + _K0
    hi = _POW_HI[row]
    if np.isnan(hi).any():
        for k in np.unique(row[np.isnan(hi)] - _K0).tolist():
            _fill_pow(k)
        hi = _POW_HI[row]
    p = m * hi
    mh, ml = _split(m)
    hh, hl = _POW_HH[row], _POW_HL[row]
    err = ((mh * hh - p) + mh * hl + ml * hh) + ml * hl + m * _POW_LO[row]
    shift = e + _POW_EXP[row]
    return np.ldexp(p, shift), np.ldexp(err, shift)


def digits(a: np.ndarray, shortest: bool = False) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """D, x10 and whether D is certain, for finite a > 0.  With ``shortest``
    D holds the fewest digits that read back as a, then zeros up to 17
    digits, and x10 is their exponent."""
    m, e = np.frexp(a)
    x10 = np.floor(np.log10(a)).astype(np.int64)  # may be off by one
    big, rem = _scaled(m, e, x10)
    # x10 is right when the scaled value rounds into [10^16, 10^17); just
    # below 10^16 it rounds to 10^16 at either exponent
    low = (big - 1e16) + rem + 0.05
    high = (big - 1e17) + rem + 0.5
    fix = np.flatnonzero((low < 0) | (high >= 0))
    if fix.size:
        x10[fix] += np.where(low[fix] < 0, -1, 1)
        big[fix], rem[fix] = _scaled(m[fix], e[fix], x10[fix])
        low[fix] = (big[fix] - 1e16) + rem[fix] + 0.05
        high[fix] = (big[fix] - 1e17) + rem[fix] + 0.5
    near = np.floor(rem + 0.5)
    ok = (low >= _GUARD) & (high <= -_GUARD) & (np.abs(rem - near) < 0.5 - _GUARD)
    d = big.astype(np.int64) + near.astype(np.int64)
    if not shortest:
        return d, x10, ok
    # in units of the 17th digit a is d + r, and every decimal less than h
    # above a or lo below it reads back as a: h = ulp / 2, and lo = h / 2
    # at a power of two (except 2^-1022, whose gap below is a whole ulp)
    r = rem - near
    h = big / (m * 2.0**54)
    lo = np.where((m == 0.5) & (e > -1021), 0.5 * h, h)
    # d itself reads back, and 15 digits or fewer need a multiple of 100 in
    # the interval, which is under 23 units wide: at most one, the nearest
    t100 = d % 100
    under, over = t100 + r, (100 - t100) - r
    at100 = (under < lo) | (over < h)
    # of the multiples of 10 either side of a the nearer one that reads back
    t10 = t100 % 10
    under10, over10 = t10 + r, (10 - t10) - r
    in_under, in_over = under10 < lo, over10 < h
    up10 = in_over & (~in_under | (over10 < np.abs(under10)))
    d = np.where(at100, d - t100 + 100 * (over < h),
                 np.where(in_under | in_over, d - t10 + 10 * up10, d))
    # edges and ties within _GUARD, and subnormals, whose ulp is fixed
    ok &= (np.abs(under - lo) >= _GUARD) & (np.abs(over - h) >= _GUARD)
    ok &= (np.abs(under10 - lo) >= _GUARD) & (np.abs(over10 - h) >= _GUARD)
    ok &= ~(in_under & in_over) | (np.abs(np.abs(under10) - over10) >= _GUARD)
    ok &= e >= -1021
    carry = d == 10**17
    return np.where(carry, 10**16, d), x10 + carry, ok


def cells(values, shortest: bool = False, out: np.ndarray | None = None) -> np.ndarray:
    """The (N, CELL) uint8 cells of the N values, separators still pads:
    the bytes of ``"%.17g" % v``, or with ``shortest`` those of ``repr(v)``.
    With ``out``, an (N, CELL // 8) uint64 array whose rows may be strided
    and unaligned (a word view of a row buffer), the cells are written there
    and its bytes are returned."""
    v = np.asarray(values, dtype=np.float64).ravel()
    a = np.abs(v)
    plain = np.isfinite(a) & (a > 0)
    d, x10, ok = digits(np.where(plain, a, 1.0), shortest)
    ok &= plain
    if shortest:
        ok &= x10 != 16  # repr writes 1e16 <= |v| < 1e17 with an exponent
    d *= ok  # zero is "0" (or "-0"); the other cells not ok are rewritten below
    x10 *= ok
    ok |= a == 0
    row = x10 + _X0
    point = _POINT[row]
    # the last digit kept at least: repr writes a fixed integral value with ".0"
    least = point + (_FIXED[row] & (x10 >= 0)) if shortest else point
    # d is the first digit and the quads q[0..3]: [hi8, lo8] = divmod(d, 10^8),
    # then [rest, lo8] = [hi8 % 10^8, lo8] is split by 10^4 in one pass
    halves = np.empty((2, v.size), dtype=np.int64)
    np.floor_divide(d, 10**8, out=halves[0])
    np.subtract(d, halves[0] * 10**8, out=halves[1])
    first = halves[0] // 10**8
    halves[0] -= first * 10**8
    q = np.empty((4, v.size), dtype=np.int64)
    np.floor_divide(halves, 10**4, out=q[::2])
    np.subtract(halves, q[::2] * 10**4, out=q[1::2])
    keep = np.maximum(_QLAST.ravel()[q + _QBASE].max(axis=0), least)  # last digit kept
    words = np.empty((v.size, CELL // 8), dtype=np.uint64) if out is None else out
    head = _LEAD20[row]
    head += 2 * first
    head += (keep > 0) & _DOT0[row]
    head += 100 * np.signbit(v)
    words[:, 0] = _HEAD[head]
    digit_words = _QLOW[q[::2]]
    digit_words |= _QLOW[q[1::2]] << 32
    digit_words &= np.take(_KEEPMASK, keep, axis=1)
    tail = _TAIL[row]
    if point.any():
        # a '.' after digit k > 0 (fixed |v| >= 10 with digits after it):
        # digits k + 1 .. 16 move one byte on, the last into word 3, whose
        # exponent bytes a fixed value leaves empty; k = 16 moves nothing
        at = np.where((keep > point) & (point > 0), point, 16)
        stay = np.take(_KEEPMASK, at, axis=1)
        moved = digit_words & ~stay
        digit_words &= stay
        digit_words |= np.take(_DOT, at, axis=1)
        digit_words |= moved << 8
        digit_words[1] |= moved[0] >> 56
        tail |= moved[1] >> 56
    words[:, 1:3] = digit_words.T
    words[:, 3] = tail
    cell = words.view(np.uint8)
    for i in np.flatnonzero(~ok).tolist():
        text = (repr(float(v[i])) if shortest else "%.17g" % v[i]).encode()
        cell[i] = 0
        cell[i, : len(text)] = np.frombuffer(text, dtype=np.uint8)
    return cell
