"""Plane waves of the nonlinear q-Schrodinger and q-Klein-Gordon equations.

In natural units (hbar = c = 1) both equations are solved by the
q-exponential of the phase z = i(px - Et), with k = p and omega = E, so
this module is the one place that evaluates a plane wave (PlaneWave) and
kleingordon keeps only its equation.  The Schrodinger equation is
i d/dt(psi^q) = -(1/2m) d2/dx2(psi), free on E = p^2/(2m).
This module provides the exact wave and its q-th and (2q-1)-th powers
(qcore.phase_pow at the phase u), its first-order expansion around q = 1,
closed-form derivatives for both, the addends of the Schrodinger equation,
and the ratio R = |approx/exact| of the deviation sweeps, in real arithmetic
from the phase u alone (_phase_ratio: ratio_R at a point, and the sweeps).
The truncated forms share one bracket (bracket_wave), and ratio_terms gives
the approximant's terms (c, g0), powered by qcore.first_order_pow;
kleingordon uses both.

Each equation is given by its addends, and its residual is their sum.
Two residual notions coexist, the two families of schrodinger_terms:

* "exact" writes both addends in closed form as multiples of
  exact_psi_2qm1, so they cancel on E = p^2/2m whatever that power is;
  the check planewave.exact_fd reads them back as FD derivatives of the
  exact wave and its q-th power.
* "approx" inserts the first-order wave into the full nonlinear equation
  and leaves a genuine O((q-1)^2) remainder, which is what the
  order-of-convergence certification measures.

A value that leaves the double range for finite inputs, such as c once u^2
overflows, raises NonFiniteResult (qcore.finite_result): no function here
returns inf or nan.
"""

from __future__ import annotations

import cmath
import math

from . import qcore
from .errors import NonFiniteResult
from .qcore import finite


class PlaneWave(qcore.Frozen):
    """Plane-wave parameters: momentum p, energy E, mass m (k = p, omega = E)."""

    __slots__ = ("p", "E", "m")

    def __init__(self, p: float, E: float, m: float):
        self._set(finite(p, "p"), finite(E, "E"), finite(m, "m"))


class SchrodingerWave(PlaneWave):
    """Schrodinger plane wave: positive mass."""

    __slots__ = ()

    def __init__(self, p: float, E: float, m: float):
        super().__init__(p, E, m)
        if self.m <= 0:
            raise ValueError(f"mass must be positive, got {self.m!r}")

    @classmethod
    def free(cls, p: float, m: float) -> "SchrodingerWave":
        """Wave with the free-particle dispersion E = p^2/(2m) built in; an E
        beyond the double range is a NonFiniteResult."""
        p, m = finite(p, "p"), finite(m, "m")
        if m <= 0:  # before E, which divides by m
            raise ValueError(f"mass must be positive, got {m!r}")
        return cls(p=p, E=qcore.finite_result(p * p / (2.0 * m))[0], m=m)


class PhasePoint(qcore.Frozen):
    """A spacetime sample point (x, t), two Python floats."""

    __slots__ = ("x", "t")

    def __init__(self, x: float, t: float = 0.0):
        object.__setattr__(self, "x", finite(float(x), "x"))
        object.__setattr__(self, "t", finite(float(t), "t"))


def phase(pt: PhasePoint, w: PlaneWave) -> float:
    """Dimensionless phase u = p x - E t; one beyond the double range is a NonFiniteResult."""
    u = w.p * pt.x - w.E * pt.t
    return u if math.isfinite(u) else qcore.finite_result(u)[0]


def bracket_wave(u: float, q: float, coef: complex) -> complex:
    """coef e^{iu} [q + 2i(q-1)u - (q-1)u^2/2], the one bracket of the truncated
    forms of d2x psi, dt psi^q and the Klein-Gordon d2x F, d2t F, q F^(2q-1).
    q passes qcore.finite; u and coef are computed by the callers, so a
    non-finite one is refused with the value, as a NonFiniteResult."""
    bracket = finite(q, "q") + 2j * (q - 1.0) * u - (q - 1.0) * u * u / 2.0
    return qcore.finite_result(coef * cmath.exp(1j * u) * bracket)[0]


def exact_psi(pt: PhasePoint, w: PlaneWave, q: float) -> complex:
    """Exact wave: q-exponential of i*u."""
    return qcore.phase_pow(phase(pt, w), q, 1.0)


def exact_psi_q(pt: PhasePoint, w: PlaneWave, q: float) -> complex:
    """q-th power of the exact wave, [1 + (1-q) i u]**(q/(1-q))."""
    return qcore.phase_pow(phase(pt, w), q, q)


def exact_psi_2qm1(pt: PhasePoint, w: PlaneWave, q: float) -> complex:
    """(2q-1)-th power of the exact wave, [1 + (1-q) i u]**((2q-1)/(1-q)),
    onto which the exact terms of both equations reduce."""
    return qcore.phase_pow(phase(pt, w), q, 2.0 * q - 1.0)


def approx_psi(pt: PhasePoint, w: PlaneWave, q: float) -> complex:
    """First-order wave e^{iu} [1 + (1-q) u^2/2], from the terms of ratio_terms."""
    c, g0 = ratio_terms(pt, w, q)
    return qcore.finite_result(cmath.exp(-g0) * (1.0 + c))[0]


def approx_psi_q(pt: PhasePoint, w: PlaneWave, q: float) -> complex:
    """First-order expansion of psi^q: e^{iu} [1 + (q-1)(iu - u^2/2)]."""
    u, eps = phase(pt, w), finite(q, "q") - 1.0
    return qcore.finite_result(cmath.exp(1j * u) * (1.0 + eps * (1j * u - u * u / 2.0)))[0]


def d2x_approx_psi(pt: PhasePoint, w: PlaneWave, q: float) -> complex:
    """Exact d2/dx2 of the first-order wave."""
    return bracket_wave(phase(pt, w), q, -(w.p * w.p))


def dt_approx_psi_q(pt: PhasePoint, w: PlaneWave, q: float) -> complex:
    """Exact d/dt of the first-order psi^q."""
    return bracket_wave(phase(pt, w), q, -(1j * w.E))


def schrodinger_terms(
    pt: PhasePoint, w: SchrodingerWave, q: float, family: str
) -> tuple[complex, complex]:
    """The two addends (i dt psi^q, (1/2m) d2x psi); their sum is the residual.

    family "exact" uses the closed-form derivatives of the exact wave;
    family "approx" treats the first-order wave as a bona fide candidate
    solution, powering it along its continuous logarithm.
    """
    if family == "exact":
        g = exact_psi_2qm1(pt, w, q)
        term_t = 1j * (-(1j * q * w.E) * g)
        term_x = (1.0 / (2.0 * w.m)) * (-(q * w.p * w.p) * g)
        return qcore.finite_result(term_t, term_x)
    if family == "approx":
        c, g0 = ratio_terms(pt, w, q)
        # i d/dt psi^q = q E psi^q (1 + i (q-1) u / (1 + c)) in closed form
        term_t = q * w.E * qcore.first_order_pow(-g0, c, q) * (1.0 - (q - 1.0) * g0 / (1.0 + c))
        term_x = (1.0 / (2.0 * w.m)) * d2x_approx_psi(pt, w, q)
        return qcore.finite_result(term_t, term_x)
    raise ValueError(f"family must be 'exact' or 'approx', got {family!r}")


def ratio_terms(pt: PhasePoint, w: PlaneWave, q: float):
    """(c, g0) such that approx_psi = (1 + c) e^{-g0} and exact_psi = e_q(-g0):
    c = (1-q) u^2/2 and g0 = -iu at the phase u."""
    u = phase(pt, w)
    return (1.0 - finite(q, "q")) * u * u / 2.0, -1j * u


# The branches of _phase_ratio, as qcore._log_abs_1p_near and _far are those of
# _ratio: log|1 + v| at a real |v| < 1/2, and log|1 + iy| at a real y either side
# of |y| = 1/2 (log|1 + v| beyond it is qcore._log_abs_1p_far itself).
def _log1p_near(v, functions):
    _, _, _, log1p, _, _, _ = functions
    return log1p(v)


def _log_abs_1p_i_near(y, functions):
    _, _, _, log1p, _, _, _ = functions
    return 0.5 * log1p(y * y)


def _log_abs_1p_i_far(y, functions):
    return qcore._log_abs_1p_far(1j * y, functions)


def _phase_ratio(u, eps: float, functions):
    """R at the phase u and eps = q - 1 in qcore._ratio's form and functions:
    c = -eps u^2/2 and y = eps u are real, so R = exp(log|1 + c| + log|1 + iy| / eps),
    the last term dropped at eps = 0.  Each log splits at |w| < 1/2 (w^2 < 1/4)
    as qcore._log_abs_1p, whose near branch is log1p(w) at a real w, bit for
    bit.  A non-finite c, y or R raises NonFiniteResult."""
    all_finite, _, _, _, _, exp, where = functions
    c, y = -eps * u * u / 2.0, eps * u
    if not (all_finite(c) and all_finite(y)):
        raise NonFiniteResult("a term of the ratio overflows the double range")
    log_r = where(c * c < 0.25, _log1p_near, qcore._log_abs_1p_far, c, functions)
    if eps != 0.0:
        log_r = log_r + where(y * y < 0.25, _log_abs_1p_i_near, _log_abs_1p_i_far,
                              y, functions) / eps
    r = exp(log_r)
    if not all_finite(r):
        raise NonFiniteResult("ratio R overflows the double range")
    return r


def ratio_R(pt: PhasePoint, w: PlaneWave, q: float) -> float:
    """Deviation diagnostic R = |approx_psi| / |exact_psi| at pt, a function of
    the phase u alone, on Python floats.  A non-finite q raises NonFiniteInput."""
    return _phase_ratio(phase(pt, w), finite(q, "q") - 1.0, qcore._ON_NUMBERS)
