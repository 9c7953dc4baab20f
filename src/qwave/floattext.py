"""Exact text of float64 columns, formatted in numpy: the bytes of "%.17g"
(CSV) or of repr, the shortest digits that round-trip (JSON).

For |v| = m 2^(e-53) (np.frexp), k = floor(log10 |v|) and s = 16 - k,
v 10^s = m 5^s / 2^r, r = 53 - e - s, with m 5^s exact in two uint64 limbs.
Its integer part N and remainder give the 17 digits rounded half to even,
as C's printf rounds.  repr takes the shortest decimal in v's rounding
interval, the nearest of that length.  Half an ulp, 5^s/2^(r+1) units of
the 17th digit (half that below a power of two), is under half the
15-digit spacing, so a decimal of at most 15 digits in the interval is
the nearest 15-digit one: N is rounded half to even at 15 digits, then at
16, each tested against the interval in exact integers, else 17 are kept.
A 16-digit decimal need not be the nearest in the lopsided interval of a
power of two, so one without a 15-digit form is left to repr.

Digits are read through a table of the digits of 0..9999 (its second half
with trailing zeros as NUL), fields are laid out by one slice copy per
decimal exponent into slots between the row's literal text, and the NULs
are dropped.  "%" or repr writes what the kernel does not prove: zero,
inf, nan, |v| outside [1e-11, 2^51) (r < 1 there, so no positive exponent
form is met), and digits outside [1e16, 1e17) (log10 one off, or a carry
into the next decade).  Integer operands are np.uint64 or integer arrays,
so numpy 1's casting computes as numpy 2's; np.unique (its first call
imports numpy.ma) and uint64 divmod (~15x //) are not used.
"""

from __future__ import annotations

import numpy as np

_U, _LOW32 = np.uint64, np.uint64(0xFFFFFFFF)
_P5 = _U(5) ** np.arange(28, dtype=_U)  # 5^s, s = 0..27: the largest below 2^63
_P5_HI, _P5_LO = _P5 >> _U(32), _P5 & _LOW32
# the four ASCII digits of 0..9999, then with trailing zeros as NUL, as uint32
_DIGITS = (np.indices((10, 10, 10, 10)).reshape(4, -1).T + 48).astype(np.uint8)
_TRAILING = np.arange(10000)[:, None] % np.array([10000, 1000, 100, 10]) == 0
_QUADS = np.concatenate([_DIGITS, _DIGITS * ~_TRAILING]).view(np.uint32).ravel()
_WIDTH = 24  # the longest text, as -2.2250738585072014e-308


def _scaled(a: np.ndarray) -> tuple[np.ndarray, ...]:
    """(ok, m, s, r, n, rem): where ok, a = m 2^(e-53), a 10^s = n + rem/2^r, rem < 2^r."""
    ok = (a >= 1e-11) & (a < 2.0 ** 51)  # false for nan
    a = np.where(ok, a, 1.0)
    f, e = np.frexp(a)
    s = np.clip(16 - np.floor(np.log10(a)).astype(np.intp), 0, 27)
    r = 53 - e - s  # <= 62 for a >= 1e-11
    ok, r = ok & (r >= 1), r.astype(_U)
    m = (f * 2.0 ** 53).astype(_U)
    mh, ml, ph, pl = m >> _U(32), m & _LOW32, _P5_HI[s], _P5_LO[s]
    mid, lo = mh * pl + ml * ph, ml * pl  # m 5^s = mh ph 2^64 + mid 2^32 + lo
    low = lo + (mid << _U(32))
    high = mh * ph + (mid >> _U(32)) + (low < lo).astype(_U)
    n = (high << (_U(64) - r)) | (low >> r)
    ok &= n >= _U(10 ** 16)  # unrounded: 10^16 - 1/2 rounds up to 10^16 with k one too high
    return ok, m, s, r, n, low & ((_U(1) << r) - _U(1))


def _digits(a: np.ndarray, shortest: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(ok, k, N): where ok, a = N 10^(k-16), N the 17 digits rounded half to
    even or, if shortest, repr's digits (trailing zeros included)."""
    ok, m, s, r, n, rem = _scaled(a)
    bump = (rem + (n & _U(1))) > (_U(1) << (r - _U(1)))  # half to even: up at a tie when n is odd
    n, bump = n.view(np.int64), bump.view(np.int8)
    n = n + (_shortest(ok, m, s, r, n, rem, bump) if shortest else bump)
    return ok & (n < 10 ** 17), 16 - s, n  # not at a carry into the next decade


def _shortest(ok, m, s, r, n, rem, bump):
    """The step from n to repr's digits of n + rem/2^r = v 10^s, in units of the
    17th digit (bump where 17 are kept); clears ok at a power of two without
    a 15-digit form."""
    # v's interval is n + rem/2^r + [-lower, upper], 2^(r+1) upper = 5^s = 2^(r+1) lower but
    # halved at a power of two (both < 6), so n + step is in it iff step <= (5^s + 2 rem) >>
    # (r+1) and -step <= (5^s - 2 rem) >> (r+1).  No end (2m +- 1) 2^-j has under 17 digits.
    p5, shift, twice_rem, pow2 = _P5[s], r + _U(1), rem << _U(1), m == _U(2 ** 52)
    most = ((p5 + twice_rem) >> shift).astype(np.int16)
    lower = ((p5 >> pow2.astype(_U)) - twice_rem).view(np.int64) >> shift.view(np.int64)
    least = (-lower).astype(np.int16)
    last2 = (n - n // 100 * 100).astype(np.int16)  # 15 digits tie 50 units off: never fits
    step15 = (last2 >= 50) * np.int16(100) - last2
    tens = last2 // 10
    last1 = last2 - tens * 10
    up16 = (last1 > 5) | ((last1 == 5) & ((rem != _U(0)) | (tens & 1).astype(bool)))
    step16 = up16 * np.int16(10) - last1
    fits15 = (least <= step15) & (step15 <= most)
    ok &= fits15 | ~pow2
    return np.where(fits15, step15, np.where((least <= step16) & (step16 <= most), step16, bump))


def _ascii(n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The first digit of each 17-digit n and its other 16, trailing zeros as NUL."""
    top, lead = n // 10 ** 8, n // 10 ** 16
    eights = np.column_stack([top - lead * 10 ** 8, n - top * 10 ** 8]).astype(np.int32)
    fours = eights // 10 ** 4
    quads = np.stack([fours, eights - fours * 10 ** 4], 2).reshape(-1, 4)
    zero, tail = quads == 0, np.ones(quads.shape, bool)
    for j in (2, 1, 0):  # a quad that only zero quads follow takes its blanked form
        tail[:, j] = tail[:, j + 1] & zero[:, j + 1]
    rest = _QUADS.take(quads + tail * np.int32(10000), mode="clip").view(np.uint8)
    return (lead + 48).astype(np.uint8), rest


def _layout(columns: tuple[np.ndarray, ...], template: bytes, shortest: bool) -> str:
    """template % (v0, v1, ...) for each row of the n-row columns, each v
    written as "%.17g" % v or, if shortest, repr(v); template has one %s per column."""
    values = np.column_stack(columns).ravel()
    ok, k, n = _digits(np.abs(values), shortest)
    order = np.argsort(k.astype(np.int8), kind="stable")  # a radix sort: exponents in runs
    k, neg, (lead, rest) = k[order], np.signbit(values)[order], _ascii(n[order])
    parts = template.split(b"%s")  # each slot: the literal before a field, the field, the end
    before, after = parts[:-1], [b""] * (len(columns) - 1) + parts[-1:]
    width = [max(map(len, side)) for side in (before, after)]
    slots = np.zeros((len(n), width[0] + _WIDTH + width[1]), np.uint8)
    text = slots[:, width[0]:width[0] + _WIDTH]  # the fields, in exponent order
    text[:, 0] = neg * 45  # "-"
    starts = np.flatnonzero(np.diff(k, prepend=k[:1] - 1)).tolist()
    for lo, hi in zip(starts, [*starts[1:], len(k)]):
        x, rows = int(k[lo]), slice(lo, hi)
        if -4 <= x < 0:  # 0.000ddd
            text[rows, 1:2 - x] = np.frombuffer(b"0." + b"0" * (-1 - x), np.uint8)
            text[rows, 2 - x] = lead[rows]
            text[rows, 3 - x:19 - x] = rest[rows]
            continue
        p = max(x, 0)  # ddd.ddd or d.ddde-XX; a NUL before the point is a "0" again
        text[rows, 1] = lead[rows]
        text[rows, 2:p + 2] = rest[rows, :p] | 48
        # repr writes ".0" after an integer in fixed form, %.17g "." only before a digit
        point = shortest and x >= 0
        text[rows, p + 2] = 46 if point else (rest[rows, p] != 0) * 46
        text[rows, p + 3:19] = rest[rows, p:]
        text[rows, p + 3] |= 48 * point
        if x < -4:
            text[rows, 19:23] = np.frombuffer(b"e-%02d" % -x, np.uint8)
    inverse = np.empty_like(order)
    inverse[order] = np.arange(len(order))
    slots = slots.take(inverse, axis=0)
    literals = b"".join(b.ljust(width[0], b"\0") + bytes(_WIDTH) + a.ljust(width[1], b"\0")
                        for b, a in zip(before, after))
    slots.reshape(-1, len(literals))[:] |= np.frombuffer(literals, np.uint8)
    for i in np.flatnonzero(~ok).tolist():
        spelled = (repr(float(values[i])) if shortest else "%.17g" % values[i]).encode()
        slots[i, width[0]:width[0] + _WIDTH] = np.frombuffer(spelled.ljust(_WIDTH, b"\0"), np.uint8)
    return slots.tobytes().translate(None, b"\0").decode("ascii")


def rows_text(*columns: np.ndarray) -> str:
    """("%.17g,...,%.17g\\n" * n) % the interleaved values of the n-row columns."""
    return _layout(columns, b",".join([b"%s"] * len(columns)) + b"\n", False)


def records_text(names: tuple[str, ...], *columns: np.ndarray) -> str:
    """The records ',\\n {\\n  "name": repr(v),\\n  ...\\n }' of the n-row
    columns: json.dumps(records, indent=1) of finite values, without its
    "[" and "]" and with a "," before the first record.  Each name is
    written in double quotes as it stands."""
    fields = b",\n".join(b'  "%s": %%s' % name.encode() for name in names)
    return _layout(columns, b",\n {\n" + fields + b"\n }", True)
