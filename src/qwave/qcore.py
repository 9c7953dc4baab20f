"""Stable q-deformed exponentials and first-order jets in eps = q - 1.

The q-exponential is e_q(z) = [1 + (1-q) z]**(1/(1-q)) on the principal
branch, with e_1(z) = exp(z).  Writing w = (1-q) z, the exponent is

    log1p(w) / (1-q) = z * S(w),        S(w) = log1p(w) / w,

so the 1/(1-q) pole never appears explicitly and q - 1 as small as 1e-12
costs no precision.  S and its counterpart E(w) = expm1(w) / w each have
one path, the compensated complex log1p or expm1 over w, with only the
removable point w = 0 filled with 1.  q_pow is e_q at a complex z, for
the packet; phase_pow is e_q(i s)**k at a real phase s, in real arithmetic,
for every plane wave and separated factor.

first_order_pow powers every first-order wave along its continuous log;
_ratio forms the packet's |approx|/|exact| in real log-modulus arithmetic,
one formula on Python numbers (_ON_NUMBERS: the per-point entries and a
one-block sweep) or numpy arrays (_on_arrays: a longer sweep), at the eps its
entry or sweep gives; the plane wave's kernel in u takes the same functions.

Jets are truncated first-order Taylor pairs (value at q = 1, d/dq at q = 1)
with ring arithmetic.  They mechanize the first-order expansions the wave
modules need and serve as oracles for the closed forms implemented there.
A jet enters as QJet(v0, v1), which refuses a non-finite part; jet arithmetic
is unchecked, and each function that hands jets out refuses a non-finite part
once, as a result (finite_result).  finite is the only code that raises
NonFiniteInput, naming the argument.  A value computed from finite arguments
is refused as a NonFiniteResult (finite_result).

Frozen is the immutable base of every value type (QJet, PlaneWave, Check, ...).
"""

from __future__ import annotations

import cmath
import math

from .errors import BranchCutViolation, DivisionByZeroJet, NonFiniteInput, NonFiniteResult


def finite(value, name: str):
    """value, a float or complex, unless it is a NaN or an infinity: then
    NonFiniteInput, naming the argument."""
    if not cmath.isfinite(value):
        raise NonFiniteInput(f"{name} must be finite, got {value!r}")
    return value


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


def finite_result(*values: complex) -> tuple[complex, ...]:
    """The values, unless one has left the double range (or is a NaN from
    one): then NonFiniteResult, for a caller whose inputs are all finite."""
    for value in values:  # a plain loop: half the cost of all(map(...)) on one or two values
        if not cmath.isfinite(value):
            raise NonFiniteResult(f"a result leaves the double range: {values!r}")
    return values


def checked_exp(z: complex) -> complex:
    """cmath.exp(z), raising NonFiniteResult where z or it leaves the double range."""
    try:
        if cmath.isfinite(z):
            return cmath.exp(z)
    except OverflowError:
        pass
    raise NonFiniteResult(f"exp leaves the double range at {z!r}")


def first_order_pow(phase: complex, c: complex, s: float) -> complex:
    """[e^phase (1 + c)]**s of a first-order wave, along its continuous logarithm
    phase + log1p(c): the wrapped principal log of the value would pick up
    spurious e^{2 pi i k s} factors once |Im phase| > pi.  A c that has left
    the double range raises NonFiniteResult, as it lies on no branch cut."""
    finite_result(c)
    _require_off_cut(1.0 + c, "first-order amplitude 1 + c")
    return checked_exp(s * (phase + complex_log1p(c)))


def complex_expm1(z: complex) -> complex:
    """exp(z) - 1 without cancellation for small |z|; a Re z where exp
    overflows raises NonFiniteResult."""
    try:
        re = math.expm1(z.real) * math.cos(z.imag) - 2.0 * math.sin(0.5 * z.imag) ** 2
        im = math.exp(z.real) * math.sin(z.imag)
    except OverflowError:
        raise NonFiniteResult(f"a result leaves the double range: expm1 at {z!r}") from None
    return complex(re, im)


def _log1p_over_w(w: complex) -> complex:
    # S(w) for a finite w off the branch cut; callers check w first.
    if w == 0:
        return 1.0 + 0.0j
    return complex_log1p(w) / w


def stable_expm1_over_w(w) -> complex:
    """expm1(w)/w with the removable singularity at w = 0 filled with 1."""
    w = finite(complex(w), "w")
    if w == 0:
        return 1.0 + 0.0j
    return complex_expm1(w) / w


def q_pow(z, q: float) -> complex:
    """The q-exponential e_q(z) = [1 + (1-q) z]**(1/(1-q)) on the principal
    branch, the exponent computed as z * S((1-q) z); exp(z) at q = 1.  A
    power beyond the double range raises NonFiniteResult."""
    z, q = finite(complex(z), "z"), finite(q, "q")
    w = (1.0 - q) * z
    if not cmath.isfinite(w):
        raise NonFiniteResult(f"(1-q) z overflows at q-1 = {q - 1.0!r}")
    _require_off_cut(1.0 + w, "q_pow base")
    return checked_exp(z * _log1p_over_w(w))


def phase_pow(s: float, q: float, k: float) -> complex:
    """e_q(i s)**k = [1 + (1-q) i s]**(k/(1-q)) at a real phase s, in real
    arithmetic: with y = (1-q) s, the modulus exponent is k s log1p(y^2)/(2y)
    (k (s/y) log|y| past |y| = 1e150, where y^2 overflows), the argument
    k s atan(y)/y, and exp(i k s) at y = 0.  The base has real part 1, never
    on the branch cut.  checked_exp refuses a power beyond the double range,
    and an s beyond it (an inf or nan exponent), as NonFiniteResult."""
    q = finite(q, "q")
    ks, y = k * s, (1.0 - q) * s
    if y == 0.0:
        return checked_exp(complex(0.0, ks))
    log_modulus = 0.5 * math.log1p(y * y) if abs(y) <= 1e150 else math.log(abs(y))
    return checked_exp(complex(ks * (log_modulus / y), ks * (math.atan(y) / y)))


def _exp(v: float) -> float:
    try:
        return math.exp(v)
    except OverflowError:  # numpy's exp gives inf here, which the kernel refuses
        return math.inf


# The elementwise (all_finite, any, abs, log1p, log, exp, where) of the ratio
# kernel on Python numbers: total where numpy's are (|z| and exp overflow to
# inf, log(0) is -inf), and where(cond, near, far, *args) calls only the
# branch it picks, so the branch left out cannot divide by zero.
_ON_NUMBERS = (cmath.isfinite, bool, lambda z: math.hypot(z.real, z.imag), math.log1p,
               lambda v: math.log(v) if v > 0.0 else -math.inf, _exp,
               lambda cond, near, far, *args: near(*args) if cond else far(*args))


def _on_arrays(np):
    """The kernel's elementwise functions, as _ON_NUMBERS, on numpy arrays;
    where evaluates only one branch when every element picks it."""

    def where(cond, near, far, *args):
        if cond.all():
            return near(*args)
        if not cond.any():
            return far(*args)
        return np.where(cond, near(*args), far(*args))

    return (lambda v: bool(np.isfinite(v).all()), np.any, np.abs, np.log1p, np.log, np.exp, where)


def _log_abs_1p(w, functions):
    """log|1 + w| elementwise, to full precision near w = 0 and near
    1 + w = 0, where log1p(2 Re w + |w|^2)/2 would square the
    cancellation; functions as in _ratio."""
    _, _, abs_, _, _, _, where = functions
    return where(abs_(w) < 0.5, _log_abs_1p_near, _log_abs_1p_far, w, functions)


def _log_abs_1p_near(w, functions):
    _, _, _, log1p, _, _, _ = functions
    y = w.imag / (1.0 + w.real)  # |w| < 1/2 keeps 1 + Re w > 1/2
    return log1p(w.real) + 0.5 * log1p(y * y)


def _log_abs_1p_far(w, functions):
    _, _, abs_, _, log, _, _ = functions
    return log(abs_(1.0 + w))


def _ratio(c, g0, g, eps: float, functions):
    """|(1 + c) e^{-g0}| / |e_q(-g)| elementwise at eps = q - 1, formed in real
    arithmetic as exp(log|1 + c| - Re g0 + log|1 + eps g| / eps), with Re g for
    the last term at eps = 0, so neither modulus overflows or vanishes on its own.
    functions = (all_finite, any, abs, log1p, log, exp, where) are _ON_NUMBERS
    on Python complex numbers, _on_arrays(numpy) on complex arrays (under
    np.errstate(all="ignore")); libm and numpy round exp and log1p differently,
    which the 1/eps of the last term magnifies.  A non-finite c, g0 or eps g,
    or an R beyond the double range, raises NonFiniteResult, a base 1 + eps g
    on the branch cut BranchCutViolation: no inf or nan is ever returned."""
    all_finite, any_, _, _, _, exp, _ = functions
    w = eps * g
    if not (all_finite(c) and all_finite(g0) and all_finite(w)):
        raise NonFiniteResult("a term of the ratio overflows the double range")
    base = 1.0 + w
    if any_((base.imag == 0.0) & (base.real <= 0.0)):
        raise BranchCutViolation("q-power base: a point lies on the branch cut")
    exact = g.real if eps == 0.0 else _log_abs_1p(w, functions) / eps
    r = exp(_log_abs_1p(c, functions) - g0.real + exact)
    if not all_finite(r):
        raise NonFiniteResult("ratio R overflows the double range")
    return r


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
    """First-order Taylor pair (value at q = 1, d/dq at q = 1), refusing a
    non-finite part; the operators build their jets unchecked (_jet)."""

    __slots__ = ("v0", "v1")

    def __init__(self, v0: complex, v1: complex):
        self._set(finite(complex(v0), "v0"), finite(complex(v1), "v1"))

    def __add__(self, other) -> "QJet":
        o = as_jet(other)
        return _jet(self.v0 + o.v0, self.v1 + o.v1)

    __radd__ = __add__

    def __neg__(self) -> "QJet":
        return _jet(-self.v0, -self.v1)

    def __sub__(self, other) -> "QJet":
        o = as_jet(other)
        return _jet(self.v0 - o.v0, self.v1 - o.v1)

    def __rsub__(self, other) -> "QJet":
        return as_jet(other) - self

    def __mul__(self, other) -> "QJet":
        o = as_jet(other)
        return _jet(self.v0 * o.v0, self.v0 * o.v1 + self.v1 * o.v0)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "QJet":
        o = as_jet(other)
        if o.v0 == 0:
            raise DivisionByZeroJet("jet division by a jet with zero value part")
        v0 = self.v0 / o.v0
        return _jet(v0, (self.v1 - v0 * o.v1) / o.v0)

    def __rtruediv__(self, other) -> "QJet":
        return as_jet(other) / self


def _jet(v0: complex, v1: complex) -> QJet:
    jet = object.__new__(QJet)  # computed from jets, so unchecked
    object.__setattr__(jet, "v0", v0)
    object.__setattr__(jet, "v1", v1)
    return jet


def as_jet(value) -> QJet:
    """Coerce a scalar to a constant jet; pass jets through."""
    if isinstance(value, QJet):
        return value
    return _jet(complex(value), 0j)


def jet_exp(a: QJet) -> QJet:
    e = checked_exp(a.v0)
    return _jet(e, a.v1 * e)


def jet_ln(a: QJet) -> QJet:
    """Principal-branch logarithm of a jet."""
    if a.v0 == 0:
        raise DivisionByZeroJet("jet logarithm of a jet with zero value part")
    _require_off_cut(a.v0, "jet_ln")
    return _jet(cmath.log(a.v0), a.v1 / a.v0)


def log1p_over_w_jet(lead) -> QJet:
    """Jet of S(w) = log1p(w)/w along a path w(q) = (q-1)*lead + O((q-1)^2).

    S(0) = 1 and S'(0) = -1/2, so the chain rule gives (1, -lead/2).  This is
    how the wave modules absorb the 1/(q-1) poles of their exponents into
    plain jet arithmetic.
    """
    return _jet(1 + 0j, -0.5 * complex(lead))


def expm1_over_w_jet(lead) -> QJet:
    """Jet of E(w) = expm1(w)/w along w(q) = (q-1)*lead + O((q-1)^2)."""
    return _jet(1 + 0j, 0.5 * complex(lead))
