"""Plane-wave solutions of the nonlinear q-Schrodinger equation.

The equation is i*hbar d/dt(psi^q) = -(hbar^2/2m) d2/dx2(psi), whose exact
free-particle solution is the q-exponential of the phase z = i(px - Et)/hbar.
This module provides the exact wave, its first-order expansion around q = 1,
closed-form derivatives for both, the self-consistency residuals, and the
ratio R = |approx/exact| used for the deviation sweeps.

Two residual notions coexist and both are exposed:

* residual_schrodinger inserts a wave family into the full nonlinear
  equation.  The exact family cancels to round-off for a free particle at
  any q; the approximant leaves a genuine O((q-1)^2) remainder, which is
  what the order-of-convergence certification measures.
* expansion_terms gives the truncated first-order derivative expansions
  of the two sides.  Their (q-1) brackets are identical, so for a free
  particle their sum vanishes identically; this is the first-order
  cancellation statement, checked pointwise at round-off level.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import qcore
from .errors import BranchCutViolation, NonFiniteInput, NonFiniteResult


@dataclass(frozen=True)
class SchrodingerWave:
    """Free-particle wave parameters: momentum, energy, mass, hbar."""

    p: float
    E: float
    m: float
    hbar: float = 1.0
    free_particle: bool = False

    def __post_init__(self):
        for name in ("p", "E", "m", "hbar"):
            if not math.isfinite(getattr(self, name)):
                raise NonFiniteInput(f"{name} must be finite")
        if self.m <= 0:
            raise ValueError(f"mass must be positive, got {self.m!r}")
        if self.hbar <= 0:
            raise ValueError(f"hbar must be positive, got {self.hbar!r}")
        if self.free_particle and self.E != self.p * self.p / (2.0 * self.m):
            raise ValueError("free_particle waves require E = p^2/(2m) exactly")

    @classmethod
    def free(cls, p: float, m: float, hbar: float = 1.0) -> "SchrodingerWave":
        """Wave with the free-particle dispersion E = p^2/(2m) built in."""
        return cls(p=p, E=p * p / (2.0 * m), m=m, hbar=hbar, free_particle=True)


@dataclass(frozen=True)
class PhasePoint:
    """A spacetime sample point (x, t); ratio_R also takes an array of x."""

    x: float | np.ndarray
    t: float = 0.0

    def __post_init__(self):
        if isinstance(self.x, np.ndarray):
            x_finite = bool(np.isfinite(self.x).all())
        else:
            x_finite = math.isfinite(self.x)
        if not (x_finite and math.isfinite(self.t)):
            raise NonFiniteInput(f"phase point must be finite, got {self!r}")


def phase(pt: PhasePoint, w: SchrodingerWave) -> float:
    """Dimensionless phase u = (p x - E t) / hbar."""
    return (w.p * pt.x - w.E * pt.t) / w.hbar


def exact_psi(pt: PhasePoint, w: SchrodingerWave, q: float) -> complex:
    """Exact wave: q-exponential of i*u."""
    return qcore.q_exp(1j * phase(pt, w), q)


def exact_psi_q(pt: PhasePoint, w: SchrodingerWave, q: float) -> complex:
    """q-th power of the exact wave, [1 + (1-q) i u]**(q/(1-q))."""
    return qcore.q_pow(1j * phase(pt, w), q, q)


def approx_psi(pt: PhasePoint, w: SchrodingerWave, q: float) -> complex:
    """First-order wave e^{iu} [1 + (1-q) u^2/2]."""
    u = phase(pt, w)
    return cmath.exp(1j * u) * (1.0 + (1.0 - q) * u * u / 2.0)


def approx_psi_q(pt: PhasePoint, w: SchrodingerWave, q: float) -> complex:
    """First-order expansion of psi^q: e^{iu} [1 + (q-1)(iu - u^2/2)]."""
    u = phase(pt, w)
    return cmath.exp(1j * u) * (1.0 + (q - 1.0) * (1j * u - u * u / 2.0))


def _bracket(u: float, q: float) -> complex:
    # shared by d2x_approx_psi and dt_approx_psi_q
    return q + 2j * (q - 1.0) * u - (q - 1.0) * u * u / 2.0


def d2x_approx_psi(pt: PhasePoint, w: SchrodingerWave, q: float) -> complex:
    """Exact d2/dx2 of the first-order wave."""
    u = phase(pt, w)
    return -(w.p * w.p / (w.hbar * w.hbar)) * cmath.exp(1j * u) * _bracket(u, q)


def dt_approx_psi_q(pt: PhasePoint, w: SchrodingerWave, q: float) -> complex:
    """Exact d/dt of the first-order psi^q."""
    u = phase(pt, w)
    return -(1j * w.E / w.hbar) * cmath.exp(1j * u) * _bracket(u, q)


def _amp_pow(u: float, q: float, exponent: float) -> float:
    """Real amplitude factor [1 + (1-q) u^2/2]**exponent of the approximant.

    Powers of the approximant must follow its continuous logarithm
    iu + log1p((1-q) u^2/2), never the wrapped principal log of the value,
    otherwise they pick up spurious e^{2 pi i k (q-1)} factors for |u| > pi.
    This helper supplies the amplitude part; callers attach the phase.
    """
    amp = 1.0 + (1.0 - q) * u * u / 2.0
    if amp <= 0.0:
        raise BranchCutViolation(
            f"approximant amplitude 1 + (1-q) u^2/2 = {amp!r} is not positive"
        )
    return math.exp(exponent * math.log1p((1.0 - q) * u * u / 2.0))


def schrodinger_terms(
    pt: PhasePoint, w: SchrodingerWave, q: float, family: str = "exact"
) -> tuple[complex, complex]:
    """The two sides of the equation as (i hbar dt psi^q, (hbar^2/2m) d2x psi).

    family "exact" uses the closed-form derivatives of the exact wave;
    family "approx" treats the first-order wave as a bona fide candidate
    solution, powering it along the unwrapped logarithm.
    """
    if family == "exact":
        g = qcore.q_pow(1j * phase(pt, w), q, 2.0 * q - 1.0)
        term_t = 1j * w.hbar * (-(1j * q * w.E / w.hbar) * g)
        term_x = (w.hbar * w.hbar / (2.0 * w.m)) * (
            -(q * w.p * w.p / (w.hbar * w.hbar)) * g
        )
        return term_t, term_x
    if family == "approx":
        u = phase(pt, w)
        eps = q - 1.0
        amp = 1.0 - eps * u * u / 2.0
        # i hbar d/dt (psi_approx^q) in closed form
        term_t = q * w.E * cmath.exp(1j * q * u) * _amp_pow(u, q, q - 1.0) * (
            amp + 1j * eps * u
        )
        term_x = (w.hbar * w.hbar / (2.0 * w.m)) * d2x_approx_psi(pt, w, q)
        return term_t, term_x
    raise ValueError(f"family must be 'exact' or 'approx', got {family!r}")


def residual_schrodinger(
    pt: PhasePoint, w: SchrodingerWave, q: float, family: str = "exact"
) -> complex:
    """Residual i hbar dt(psi^q) + (hbar^2/2m) d2x(psi) of a wave family.

    For a free particle the exact family cancels to round-off at any q;
    the approx family leaves an O((q-1)^2) remainder.
    """
    term_t, term_x = schrodinger_terms(pt, w, q, family)
    return term_t + term_x


def expansion_terms(
    pt: PhasePoint, w: SchrodingerWave, q: float
) -> tuple[complex, complex]:
    """Truncated first-order forms of i hbar dt(psi^q) and (hbar^2/2m) d2x(psi).

    Both terms carry one and the same (q-1) bracket, so with E = p^2/(2m)
    their sum cancels identically: the first-order expansion is
    self-consistent.  Returned as a pair for relative-scale reporting.
    """
    term_t = 1j * w.hbar * dt_approx_psi_q(pt, w, q)
    term_x = (w.hbar * w.hbar / (2.0 * w.m)) * d2x_approx_psi(pt, w, q)
    return term_t, term_x


def ratio_R(pt: PhasePoint, w: SchrodingerWave, q: float) -> float | np.ndarray:
    """Deviation diagnostic R = |approx_psi| / |exact_psi|.

    With an array pt.x the whole sweep is one numpy pass through
    qcore.q_pow_array and an array comes back; a float pt.x is the
    one-point case of the same code, so both give identical values.
    """
    u = np.atleast_1d(phase(pt, w))
    exact = qcore.q_pow_array(1j * u, q)
    if not exact.all():
        raise ZeroDivisionError("exact wave vanishes at this point")
    with np.errstate(all="ignore"):
        approx = np.exp(1j * u) * (1.0 + (1.0 - q) * u * u / 2.0)
        r = np.abs(approx) / np.abs(exact)
    if not np.isfinite(r).all():
        raise NonFiniteResult("ratio R overflows the double range")
    return r if np.ndim(pt.x) else float(r[0])
