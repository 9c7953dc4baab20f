"""Stable q-deformed exponentials and first-order jets in eps = q - 1.

The q-exponential is e_q(z) = [1 + (1-q) z]**(1/(1-q)) on the principal
branch, with e_1(z) = exp(z).  Writing w = (1-q) z, the exponent is

    log1p(w) / (1-q) = z * S(w),        S(w) = log1p(w) / w,

so the 1/(1-q) pole never appears explicitly and q - 1 as small as 1e-12
costs no precision.  S is evaluated by an alternating series for |w| below
SERIES_RADIUS and through a compensated complex log1p otherwise; the two
paths agree to ~1e-15 across the switch.

modulus_ratio forms the deviation ratio |approx|/|exact| of either wave
family over arrays, in real log-modulus arithmetic.

Jets are truncated first-order Taylor pairs (value at q = 1, d/dq at q = 1)
with ring arithmetic.  They mechanize the first-order expansions the wave
modules need and serve as oracles for the closed forms implemented there.

Frozen is the immutable base of every value type (QJet, PlaneWave, Check, ...).
"""

from __future__ import annotations

import cmath
import math
from typing import TYPE_CHECKING

from .errors import BranchCutViolation, DivisionByZeroJet, NonFiniteInput, NonFiniteResult

if TYPE_CHECKING:
    import numpy as np

# Below this |w| the S and E series are exact to double precision with the
# term counts used; above it the compensated direct forms are.
SERIES_RADIUS = 1e-4


def _as_finite_complex(value, name: str) -> complex:
    z = complex(value)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise NonFiniteInput(f"{name} must be finite, got {value!r}")
    return z


def _require_off_cut(v: complex, context: str) -> None:
    # Principal branch cut: the closed negative real axis, zero included.
    if v.imag == 0.0 and v.real <= 0.0:
        raise BranchCutViolation(f"{context}: {v!r} lies on the branch cut")


def complex_log1p(w: complex) -> complex:
    """log(1 + w) on the principal branch, accurate for small |w|.

    Uses the compensated form log(u) * w / (u - 1) with u = 1 + w, which
    evaluates the logarithm at the rounded point and rescales by the exact
    argument, keeping full relative precision down to |w| ~ eps.
    """
    u = 1.0 + w
    if u == 1.0 + 0.0j:
        return complex(w)
    d = u - 1.0
    if d == w:
        return cmath.log(u)
    return cmath.log(u) * (w / d)


def complex_expm1(z: complex) -> complex:
    """exp(z) - 1 without cancellation for small |z|."""
    re = math.expm1(z.real) * math.cos(z.imag) - 2.0 * math.sin(0.5 * z.imag) ** 2
    im = math.exp(z.real) * math.sin(z.imag)
    return complex(re, im)


def _log1p_over_w_series(w: complex) -> complex:
    # S(w) = sum_{j=0..7} (-w)^j / (j+1); |w| < 1e-4 makes the tail < 1e-33.
    acc = 1.0 / 8.0
    for k in range(7, 0, -1):
        acc = 1.0 / k - w * acc
    return acc


_INV_FACTORIALS = (1.0, 1 / 2.0, 1 / 6.0, 1 / 24.0, 1 / 120.0, 1 / 720.0, 1 / 5040.0, 1 / 40320.0)


def _expm1_over_w_series(w: complex) -> complex:
    # E(w) = sum_{j=0..7} w^j / (j+1)!
    acc = _INV_FACTORIALS[-1]
    for coef in reversed(_INV_FACTORIALS[:-1]):
        acc = coef + w * acc
    return acc


def _log1p_over_w(w: complex) -> complex:
    # S(w) for a finite w off the branch cut; callers check w first.
    # w = 0 needs no case of its own: the series gives exactly 1
    if abs(w) < SERIES_RADIUS:
        return _log1p_over_w_series(w)
    return complex_log1p(w) / w


def stable_expm1_over_w(w) -> complex:
    """expm1(w)/w with the removable singularity at w = 0 filled with 1."""
    w = _as_finite_complex(w, "w")
    if w == 0:
        return 1.0 + 0.0j
    if abs(w) < SERIES_RADIUS:
        return _expm1_over_w_series(w)
    return complex_expm1(w) / w


def q_pow(z, q: float, scale: float = 1.0) -> complex:
    """[1 + (1-q) z]**(scale/(1-q)) on the principal branch.

    The exponent is computed as scale * z * S((1-q) z), so any power whose
    exponent numerator is known in closed form (1, q, 2q-1, ...) shares one
    cancellation-free code path.  q = 1 is the w = 0 case: exp(scale * z).
    A power beyond the double range raises NonFiniteResult.
    """
    z = _as_finite_complex(z, "z")
    if not math.isfinite(q):
        raise NonFiniteInput(f"q must be finite, got {q!r}")
    w = (1.0 - q) * z
    if not cmath.isfinite(w):
        raise NonFiniteResult(f"(1-q) z overflows at q-1 = {q - 1.0!r}")
    _require_off_cut(1.0 + w, "q_pow base")
    try:
        return cmath.exp(scale * z * _log1p_over_w(w))
    except OverflowError:
        raise NonFiniteResult(f"q_pow overflows the double range at q-1 = {q - 1.0!r}") from None


def _log_abs_1p(w: np.ndarray) -> np.ndarray:
    """log|1 + w| over a complex array, to full precision near w = 0 and
    near 1 + w = 0, where log1p(2 Re w + |w|^2)/2 would square the
    cancellation."""
    import numpy as np

    # |w| < 1/2 keeps 1 + Re w > 1/2
    near = np.log1p(w.real) + 0.5 * np.log1p(np.square(w.imag / (1.0 + w.real)))
    return np.where(np.abs(w) < 0.5, near, np.log(np.abs(1.0 + w)))


def modulus_ratio(c, g0, g, q: float) -> np.ndarray:
    """|(1 + c) e^{-g0}| / |e_q(-g)| elementwise, formed in real arithmetic as
    exp(log|1 + c| - Re g0 + log|1 + (q-1) g| / (q-1)), with Re g for the
    last term at q = 1, so neither modulus overflows or vanishes on its own.

    A non-finite q raises NonFiniteInput; a non-finite c, g0 or (q-1) g, or
    an R beyond the double range, NonFiniteResult; a base 1 + (q-1) g on the
    branch cut BranchCutViolation.  No inf or nan is ever returned.
    """
    import numpy as np

    if not math.isfinite(q):
        raise NonFiniteInput(f"q must be finite, got {q!r}")
    eps = q - 1.0
    with np.errstate(all="ignore"):
        c, g0, g = (np.asarray(v, dtype=complex) for v in (c, g0, g))
        w = eps * g
        if not (np.isfinite(c).all() and np.isfinite(g0).all() and np.isfinite(w).all()):
            raise NonFiniteResult("a term of the ratio overflows the double range")
        base = 1.0 + w
        if ((base.imag == 0.0) & (base.real <= 0.0)).any():
            raise BranchCutViolation("q-power base: a point lies on the branch cut")
        exact = g.real if eps == 0.0 else _log_abs_1p(w) / eps
        r = np.exp(_log_abs_1p(c) - g0.real + exact)
    if not np.isfinite(r).all():
        raise NonFiniteResult("ratio R overflows the double range")
    return r


def q_exp(z, q: float) -> complex:
    """q-deformed exponential [1 + (1-q) z]**(1/(1-q)); exp(z) at q = 1."""
    return q_pow(z, q, 1.0)


class Frozen:
    """A record whose fields are the __slots__ of its class and its bases, set
    once in __init__, by _set or (in hot types) object.__setattr__.  Instances
    compare, hash and repr by field; assigning or deleting one raises AttributeError."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        cls._fields = cls._fields + cls.__dict__.get("__slots__", ())

    def _set(self, *values) -> None:
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return type(self), self._values()


class QJet(Frozen):
    """First-order Taylor pair (value at q = 1, d/dq at q = 1)."""

    __slots__ = ("v0", "v1")

    def __init__(self, v0: complex, v1: complex):
        object.__setattr__(self, "v0", _as_finite_complex(v0, "v0"))
        object.__setattr__(self, "v1", _as_finite_complex(v1, "v1"))

    def __add__(self, other) -> "QJet":
        o = as_jet(other)
        return QJet(self.v0 + o.v0, self.v1 + o.v1)

    __radd__ = __add__

    def __neg__(self) -> "QJet":
        return QJet(-self.v0, -self.v1)

    def __sub__(self, other) -> "QJet":
        o = as_jet(other)
        return QJet(self.v0 - o.v0, self.v1 - o.v1)

    def __rsub__(self, other) -> "QJet":
        return as_jet(other) - self

    def __mul__(self, other) -> "QJet":
        o = as_jet(other)
        return QJet(self.v0 * o.v0, self.v0 * o.v1 + self.v1 * o.v0)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "QJet":
        o = as_jet(other)
        if o.v0 == 0:
            raise DivisionByZeroJet("jet division by a jet with zero value part")
        v0 = self.v0 / o.v0
        return QJet(v0, (self.v1 - v0 * o.v1) / o.v0)

    def __rtruediv__(self, other) -> "QJet":
        return as_jet(other) / self


def as_jet(value) -> QJet:
    """Coerce a scalar to a constant jet; pass jets through."""
    if isinstance(value, QJet):
        return value
    return QJet(complex(value), 0.0)


def jet_exp(a: QJet) -> QJet:
    e = cmath.exp(a.v0)
    return QJet(e, a.v1 * e)


def jet_ln(a: QJet) -> QJet:
    """Principal-branch logarithm of a jet."""
    if a.v0 == 0:
        raise DivisionByZeroJet("jet logarithm of a jet with zero value part")
    _require_off_cut(a.v0, "jet_ln")
    return QJet(cmath.log(a.v0), a.v1 / a.v0)


def log1p_over_w_jet(lead) -> QJet:
    """Jet of S(w) = log1p(w)/w along a path w(q) = (q-1)*lead + O((q-1)^2).

    S(0) = 1 and S'(0) = -1/2, so the chain rule gives (1, -lead/2).  This is
    how the wave modules absorb the 1/(q-1) poles of their exponents into
    plain jet arithmetic.
    """
    return QJet(1.0, -0.5 * complex(lead))


def expm1_over_w_jet(lead) -> QJet:
    """Jet of E(w) = expm1(w)/w along w(q) = (q-1)*lead + O((q-1)^2)."""
    return QJet(1.0, 0.5 * complex(lead))
