"""Time-dependent q-Gaussian packet and its first-order expansion.

The packet is

    psi(x,t) = {1 + (q-1)[a(t) x^2 + b(t) x + c(t)]}^(1/(1-q))

with coefficients (natural units hbar = 1, the convention m q alpha = 1
baked in)

    a(t) = m q / D,   b(t) = 1 / (beta D),   D = 1 + i (q+1) t,

and c(t) the integral of its Riccati-type ODE with c(0) = 0.  The printed
closed form of c pairs 1/(q-1) against 1/(1-q) and cancels only
analytically; evaluated literally it destroys every significant digit by
q-1 = 1e-6.  Here the pair is folded into expm1:

    c = (L/(q+1)) * expm1(M)/M - kq e^M + kq / D,
    L = Log D,  M = (q-1) L / (q+1),  kq = 1/(4 m q beta^2),

which is exact at t = 0 (all three terms cancel, c(0) = 0 recovers
psi(0,0) = 1) and smooth through q = 1.  Substituting the ansatz into the
wave equation reduces it to the polynomial identity
-i q G' = (1/2m)[(1 + (q-1)G) Gxx - q Gx^2], G = ax^2+bx+c, and
the coefficient ODEs this implies are solved by the forms above, so the
packet is an exact solution, not merely a first-order one.

Everything q-dependent is exposed three ways: exact (coeffs_exact,
exact_qgaussian), first-order closed forms (coeffs_first_order,
approx_qgaussian), and mechanically derived jets (wavefunction_jet),
which arbitrate between the other two in the tests.
"""

from __future__ import annotations

import cmath
import math
from typing import TYPE_CHECKING

from . import qcore, verify
from .errors import (
    BranchCutViolation,
    InvalidQ,
    NonFiniteInput,
    StepTooCoarse,
)
from .qcore import QJet, as_jet, jet_exp, jet_ln, log1p_over_w_jet, expm1_over_w_jet

if TYPE_CHECKING:
    import numpy as np

FD_TOL = 1e-6  # largest FD error estimate of gaussian_terms, relative to its larger term


class GaussianParams(qcore.Frozen):
    """Packet parameters: mass, width parameter beta, q."""

    __slots__ = ("m", "beta", "q")

    def __init__(self, m: float, beta: float, q: float):
        self._set(m, beta, q)
        for name in self._fields:
            if not math.isfinite(getattr(self, name)):
                raise NonFiniteInput(f"{name} must be finite")
        if self.m <= 0:
            raise ValueError(f"mass must be positive, got {self.m!r}")
        if self.beta == 0:
            raise ValueError("beta must be nonzero")
        # the coefficient formulas divide by q and by q+1
        if self.q == 0.0:
            raise InvalidQ("q = 0 breaks the c(t) formula (divides by q)")
        if self.q == -1.0:
            raise InvalidQ("q = -1 breaks the coefficient denominators (q+1)")


class GaussianCoeffSet(qcore.Frozen):
    """Exact coefficient values a(t), b(t), c(t) at one time."""

    __slots__ = ("a", "b", "c")

    def __init__(self, a: complex, b: complex, c: complex):
        self._set(a, b, c)


class GaussianCoeffJet(qcore.Frozen):
    """First-order splits a = a1 + (q-1) a2 etc. at one time, all complex."""

    __slots__ = ("a1", "a2", "b1", "b2", "c1", "c2")

    def __init__(self, a1, a2, b1, b2, c1, c2):
        self._set(a1, a2, b1, b2, c1, c2)


def _denominator(t: float, params: GaussianParams) -> complex:
    return 1.0 + 1j * (params.q + 1.0) * t


def coeffs_exact(t: float, params: GaussianParams) -> GaussianCoeffSet:
    """Exact a(t), b(t), c(t); c via the expm1 pairing described above."""
    if not math.isfinite(t):
        raise NonFiniteInput(f"t must be finite, got {t!r}")
    q = params.q
    D = _denominator(t, params)
    a = params.m * q / D
    b = 1.0 / (params.beta * D)
    kq = 1.0 / (4.0 * params.m * q * params.beta * params.beta)
    L = cmath.log(D)  # Re D = 1, so the principal log is the smooth branch
    M = (q - 1.0) * L / (q + 1.0)
    c = (L / (q + 1.0)) * qcore.stable_expm1_over_w(M) - kq * cmath.exp(M) + kq / D
    return GaussianCoeffSet(a=a, b=b, c=c)


def exponent(x, t: float, params: GaussianParams):
    """G = a x^2 + b x + c of the exact packet e_q(-G), at a float or an array of x."""
    cs = coeffs_exact(t, params)
    return cs.a * x * x + cs.b * x + cs.c


def coeffs_first_order(t: float, params: GaussianParams) -> GaussianCoeffJet:
    """Closed-form first-order splits of the coefficients."""
    if not math.isfinite(t):
        raise NonFiniteInput(f"t must be finite, got {t!r}")
    m, beta = params.m, params.beta
    D0 = 1.0 + 2j * t
    L0 = cmath.log(D0)
    kappa = 1.0 / (4.0 * m * beta * beta)
    a1 = m / D0
    a2 = m * (1.0 + 1j * t) / (D0 * D0)
    b1 = 1.0 / (beta * D0)
    b2 = -1j * t / (beta * D0 * D0)
    c1 = L0 / 2.0 - 1j * t / (2.0 * m * beta * beta * D0)
    c2 = (
        kappa
        + 1j * t / (2.0 * D0)
        - kappa * (1.0 + 3j * t) / (D0 * D0)
        + L0 * L0 / 8.0
        - (1.0 + 2.0 * m * beta * beta) / (8.0 * m * beta * beta) * L0
    )
    return GaussianCoeffJet(a1=a1, a2=a2, b1=b1, b2=b2, c1=c1, c2=c2)


def first_order_exponents(x, t: float, params: GaussianParams):
    """G0 = a1 x^2 + b1 x + c1 and G1 = a2 x^2 + b2 x + c2 of the first-order
    packet {1 - (q-1)(G1 - G0^2/2)} e^{-G0}, at a float or an array of x."""
    j = coeffs_first_order(t, params)
    return j.a1 * x * x + j.b1 * x + j.c1, j.a2 * x * x + j.b2 * x + j.c2


def _coeff_jets(t: float, params: GaussianParams) -> tuple[QJet, QJet, QJet]:
    """Coefficient jets in eps = q-1 derived mechanically from the formulas.

    This is the independent derivation: no copied first-order algebra, just
    jet arithmetic applied to a = mq/D, b = 1/(beta D) and the expm1 form
    of c.  The eps-linear factors of D and M are absorbed by the
    dedicated pole jets (log1p_over_w_jet, expm1_over_w_jet).
    """
    m, beta = params.m, params.beta
    # D = 1 + i (2+eps) t
    D = QJet(1.0 + 2j * t, 1j * t)
    a = QJet(m, m) / D  # numerator m q = m (1 + eps)
    b = 1.0 / (beta * D)
    kappa = 1.0 / (4.0 * m * beta * beta)
    kq = as_jet(kappa) / QJet(1.0, 1.0)  # kappa / q
    mu = jet_ln(D) / QJet(2.0, 1.0)  # L / (q+1); M = eps * mu
    c = mu * expm1_over_w_jet(mu.v0) - kq * QJet(1.0, mu.v0) + kq / D
    return a, b, c


def wavefunction_jet(x: float, t: float, params: GaussianParams) -> QJet:
    """eps-jet of the packet at a point, from the coefficient jets alone."""
    if not (math.isfinite(x) and math.isfinite(t)):
        raise NonFiniteInput(f"point must be finite, got {(x, t)!r}")
    a, b, c = _coeff_jets(t, params)
    G = a * (x * x) + b * x + c
    # ln psi = -G * S(eps G) with S = log1p(w)/w
    return jet_exp(-(G * log1p_over_w_jet(G.v0)))


def _log_psi(x: float, t: float, params: GaussianParams, family: str) -> complex:
    """Continuous-branch log of the packet, the safe base for q-th powers."""
    q = params.q
    if family == "exact":
        G = exponent(x, t, params)
        return -G * qcore.stable_log1p_over_w((q - 1.0) * G)
    if family == "approx":
        G0, G1 = first_order_exponents(x, t, params)
        corr = -(q - 1.0) * (G1 - 0.5 * G0 * G0)
        if corr == -1.0:
            raise BranchCutViolation("first-order packet vanishes here")
        return -G0 + qcore.complex_log1p(corr)
    raise ValueError(f"family must be 'exact' or 'approx', got {family!r}")


def exact_qgaussian(x: float, t: float, params: GaussianParams) -> complex:
    """Exact packet value; branch checks live in the q-power core."""
    if not (math.isfinite(x) and math.isfinite(t)):
        raise NonFiniteInput(f"point must be finite, got {(x, t)!r}")
    G = exponent(x, t, params)
    # {1+(q-1)G}^{1/(1-q)} = e_q(-G): the sign convention of this packet
    # is opposite to the plane-wave phase argument
    return qcore.q_exp(-G, params.q)


def approx_qgaussian(x: float, t: float, params: GaussianParams) -> complex:
    """First-order packet assembled from the closed-form coefficient splits.

    {1 - (q-1)[a2 x^2 + b2 x + c2 - (a1 x^2 + b1 x + c1)^2 / 2]} e^{-(a1 x^2 + b1 x + c1)}

    This reading of the squared bracket is the one certified against
    wavefunction_jet.
    """
    if not (math.isfinite(x) and math.isfinite(t)):
        raise NonFiniteInput(f"point must be finite, got {(x, t)!r}")
    G0, G1 = first_order_exponents(x, t, params)
    return (1.0 - (params.q - 1.0) * (G1 - 0.5 * G0 * G0)) * cmath.exp(-G0)


def ratio_terms(x, t: float, params: GaussianParams):
    """(c, G0, G) such that approx_qgaussian = (1 + c) e^{-G0} and
    exact_qgaussian = e_q(-G): c = -(q-1)(G1 - G0^2/2), at a float or an
    array of x."""
    G0, G1 = first_order_exponents(x, t, params)
    return -(params.q - 1.0) * (G1 - 0.5 * G0 * G0), G0, exponent(x, t, params)


def ratio_gaussian(x, t: float, params: GaussianParams) -> float | np.ndarray:
    """Modulus ratio |approx| / |exact|, the packet's deviation diagnostic.

    qcore.modulus_ratio forms it from the terms (c, G0, G) of ratio_terms
    in real log-modulus arithmetic.  x may be an array: both coefficient
    sets are computed once for the time t.  A float x is the one-point
    case of the same code, so both give identical values.
    """
    import numpy as np

    xs = np.asarray(x, dtype=float)
    if not (np.isfinite(xs).all() and math.isfinite(t)):
        raise NonFiniteInput("packet sweep points must be finite")
    with np.errstate(all="ignore"):  # an overflowing term is refused by the kernel
        r = qcore.modulus_ratio(*ratio_terms(xs, t, params), params.q)
    return r if np.ndim(x) else float(r)


def gaussian_terms(
    x: float, t: float, params: GaussianParams, family: str
) -> tuple[complex, complex]:
    """FD-evaluated equation terms (i dt psi^q, (1/2m) d2x psi).

    The packet has no closed-form derivative API, so both terms come from
    Richardson-extrapolated finite differences on the continuous-branch
    log representation.  Raises StepTooCoarse when the FD error estimate
    exceeds FD_TOL relative to the larger term: a residual smaller than
    the differencing noise would otherwise masquerade as zero.
    """
    if family not in ("exact", "approx"):
        raise ValueError(f"family must be 'exact' or 'approx', got {family!r}")
    q, m = params.q, params.m

    def psi_q_of_t(tv: float) -> complex:
        return cmath.exp(q * _log_psi(x, tv, params, family))

    def psi_of_x(xv: float) -> complex:
        return cmath.exp(_log_psi(xv, t, params, family))

    dt_val, dt_err = verify.fd_derivative(psi_q_of_t, t, verify.default_scheme(deriv=1), deriv=1)
    d2x_val, d2x_err = verify.fd_derivative(psi_of_x, x, verify.default_scheme(deriv=2), deriv=2)
    term_t = 1j * dt_val
    term_x = (1.0 / (2.0 * m)) * d2x_val
    scale = max(abs(term_t), abs(term_x))
    noise = dt_err + (1.0 / (2.0 * m)) * d2x_err
    if scale > 0.0 and noise > FD_TOL * scale:
        raise StepTooCoarse(
            f"FD error {noise:.3e} exceeds {FD_TOL:.1e} of term scale {scale:.3e}"
        )
    return term_t, term_x


def residual_qgaussian(x: float, t: float, params: GaussianParams, family: str) -> complex:
    """FD residual i dt(psi^q) + (1/2m) d2x(psi) of a packet family."""
    term_t, term_x = gaussian_terms(x, t, params, family)
    return term_t + term_x
