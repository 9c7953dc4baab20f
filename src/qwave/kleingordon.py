"""The nonlinear q-Klein-Gordon equation and its plane-wave residuals.

In natural units (hbar = c = 1) the equation is

    d2/dt2 F - d2/dx2 F + q m^2 F^(2q-1) = 0,

solved exactly by the q-exponential of the phase u = kx - wt, which is the
plane wave of planewave at p = k, E = omega: KGWave is a planewave.PlaneWave
and this module evaluates no wave of its own.  The closed-form second
derivatives both collapse onto q F^(2q-1) (planewave.exact_psi_2qm1):

    d2/dx2 F = -k^2 q [1+i(1-q)u]^((2q-1)/(1-q)),
    d2/dt2 F = -w^2 q [same],

so the exact residual is q F^(2q-1) (-w^2 + k^2 + m^2), zero precisely on
the dispersion relation w^2 = k^2 + m^2.
The equation never states that relation; it is what the residual engine
derives, exposed as dispersion_omega (E = hypot(k, m)).

The exact addends of kg_terms therefore check the dispersion relation
only; the check kleingordon.exact_fd reads d2t F and -d2x F back as FD
derivatives of the exact wave.  kg_terms with family="approx" inserts the
approximant into the full equation (powered by qcore.first_order_pow) and
leaves a genuine O((q-1)^2) remainder.  First order in (q-1), the
truncated d2x F, d2t F and q F^(2q-1) share one bracket
q + 2i(q-1)u - (q-1)u^2/2 (planewave.bracket_wave).  The approximant F,
its terms (c, g0) and its d2/dx2 are planewave.approx_psi, ratio_terms
and d2x_approx_psi.
"""

from __future__ import annotations

import math

from . import planewave as pw
from .qcore import finite, finite_result, first_order_pow


def dispersion_omega(k: float, m: float) -> float:
    """Positive root of w^2 = k^2 + m^2."""
    return math.hypot(finite(k, "k"), finite(m, "m"))


class KGWave(pw.PlaneWave):
    """Relativistic plane wave: p = k, E = omega, nonnegative mass."""

    __slots__ = ()

    def __init__(self, p: float, E: float, m: float):
        super().__init__(p, E, m)
        if self.m < 0:
            raise ValueError(f"mass must be nonnegative, got {self.m!r}")

    @classmethod
    def on_shell(cls, k: float, m: float) -> "KGWave":
        """Wave with the dispersion relation built in; an E beyond the double
        range is a NonFiniteResult."""
        return cls(p=k, E=finite_result(dispersion_omega(k, m))[0], m=m)


def d2t_approx_F(pt: pw.PhasePoint, w: KGWave, q: float) -> complex:
    """Exact d2/dt2 of the first-order wave."""
    return pw.bracket_wave(pw.phase(pt, w), q, -(w.E * w.E))


def approx_qF2qm1(pt: pw.PhasePoint, w: KGWave, q: float) -> complex:
    """First-order expansion of q F^(2q-1): e^{iu} times the shared bracket."""
    return pw.bracket_wave(pw.phase(pt, w), q, 1.0)


def kg_terms(
    pt: pw.PhasePoint, w: KGWave, q: float, family: str
) -> tuple[complex, complex, complex]:
    """The three equation addends (d2t F, -d2x F, mass term).

    family "exact" uses the closed forms; family "approx" inserts the
    first-order wave, powered by qcore.first_order_pow so that F^(2q-1)
    never crosses the principal branch cut for |u| > pi.
    """
    mass_coef = w.m * w.m
    if family == "exact":
        g2 = pw.exact_psi_2qm1(pt, w, q)
        term_tt = -(w.E * w.E) * q * g2
        term_xx = (w.p * w.p) * q * g2
        term_mass = mass_coef * q * g2
        return finite_result(term_tt, term_xx, term_mass)
    if family == "approx":
        c, g0 = pw.ratio_terms(pt, w, q)
        term_tt = d2t_approx_F(pt, w, q)
        term_xx = -pw.d2x_approx_psi(pt, w, q)
        term_mass = mass_coef * q * first_order_pow(-g0, c, 2.0 * q - 1.0)
        return finite_result(term_tt, term_xx, term_mass)
    raise ValueError(f"family must be 'exact' or 'approx', got {family!r}")


def residual_kg(x: float, t: float, w: KGWave, q: float, family: str) -> complex:
    """Residual of the q-Klein-Gordon equation for a wave family at (x, t).

    On shell the exact family cancels to round-off at any q; the approx
    family leaves an O((q-1)^2) remainder.  Off shell both grow with the
    dispersion violation, which is the sensitivity check in the tests.
    The checks sum kg_terms themselves; this wrapper is kept because the
    benchmark times it.
    """
    term_tt, term_xx, term_mass = kg_terms(pw.PhasePoint(x, t), w, q, family)
    return term_tt + term_xx + term_mass
