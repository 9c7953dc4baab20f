"""Exact "%.17g" text of float64 columns, formatted in numpy.

For |v| = m 2^(e-53) (np.frexp), k = floor(log10 |v|) and s = 16 - k, the
17 digits are N = m 5^s / 2^r, r = 53 - e - s, rounded half to even as
C's printf rounds, with m 5^s exact in two uint64 limbs.  N is read through
a table of the digits of 0..9999 (its second half with trailing zeros as
NUL), fields are laid out by one slice copy per decimal exponent, and the
NULs are dropped from the joined rows.  "%" formats what the kernel does
not prove: zero, inf, nan, |v| outside [1e-11, 1e17), r < 1, and an
unrounded N outside [1e16, 1e17) (log10 one off next to a power of ten).
Integer operands are np.uint64 or integer arrays, so numpy 1's casting
computes as numpy 2's.  np.unique (its first call imports numpy.ma) and
uint64 divmod (~15x //) are not used.
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
_WIDTH = 24  # the longest %.17g text, as -2.2250738585072014e-308


def _digits(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(ok, k, N): N = a 10^(16-k) rounded half to even, the 17 digits of
    a = |v| where ok."""
    ok = (a >= 1e-11) & (a < 1e17)  # false for nan
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
    rem, half = low & ((_U(1) << r) - _U(1)), _U(1) << (r - _U(1))
    n += ((rem + (n & _U(1))) > half).astype(_U)  # half to even: up at a tie when n is odd
    return ok & (n < _U(10 ** 17)), 16 - s, n.view(np.int64)


def rows_text(*columns: np.ndarray) -> str:
    """The text of ("%.17g,...,%.17g\\n" * n) % the interleaved values of
    the n-row columns."""
    values = np.column_stack(columns).ravel()
    ok, k, n = _digits(np.abs(values))
    order = np.argsort(k.astype(np.int8), kind="stable")  # a radix sort: exponents in runs
    k, n, neg = k[order], n[order], np.signbit(values)[order]
    top, lead = n // 10 ** 8, n // 10 ** 16
    eights = np.column_stack([top - lead * 10 ** 8, n - top * 10 ** 8]).astype(np.int32)
    fours = eights // 10 ** 4
    quads = np.stack([fours, eights - fours * 10 ** 4], 2).reshape(-1, 4)
    zero, tail = quads == 0, np.ones(quads.shape, bool)
    for j in (2, 1, 0):  # a quad that only zero quads follow takes its blanked form
        tail[:, j] = tail[:, j + 1] & zero[:, j + 1]
    digits = np.column_stack([(lead + 48).astype(np.uint8),
                              _QUADS.take(quads + 10000 * tail).view(np.uint8)])
    text = np.zeros((len(n), _WIDTH + 1), np.uint8)
    text[:, 0] = neg * 45  # "-"
    starts = np.flatnonzero(np.diff(k, prepend=k[:1] - 1)).tolist()
    for lo, hi in zip(starts, [*starts[1:], len(k)]):
        x, rows = int(k[lo]), slice(lo, hi)
        if -4 <= x < 0:  # 0.000ddd
            text[rows, 1:2 - x] = np.frombuffer(b"0." + b"0" * (-1 - x), np.uint8)
            text[rows, 2 - x:19 - x] = digits[rows]
            continue
        p = max(x, 0)  # ddd.ddd or d.ddde-XX; a NUL before the point is a "0" again
        text[rows, 1:p + 2] = digits[rows, :p + 1] | 48
        if p < 16:
            text[rows, p + 2] = (digits[rows, p + 1] != 0) * 46  # "." if a digit follows
            text[rows, p + 3:19] = digits[rows, p + 1:]
        if x < -4:
            text[rows, 19:23] = np.frombuffer(b"e-%02d" % -x, np.uint8)
    text = text.take(np.argsort(order, kind="stable"), axis=0)
    seps = np.frombuffer(b"," * (len(columns) - 1) + b"\n", np.uint8)
    text.reshape(-1, len(columns), _WIDTH + 1)[:, :, _WIDTH] = seps
    for i in np.flatnonzero(~ok).tolist():
        text[i, :_WIDTH] = np.frombuffer((b"%.17g" % values[i]).ljust(_WIDTH, b"\0"), np.uint8)
    return text.tobytes().translate(None, b"\0").decode("ascii")
