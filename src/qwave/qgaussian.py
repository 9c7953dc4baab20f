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
wave equation i dt(psi^q) + (1/2m) d2x(psi) = 0 and dividing out the
common factor psi^(2q-1) leaves the polynomial identity

    -i q G_t = (1/2m)[(1 + (q-1)G) G_xx - q G_x^2],   G = ax^2+bx+c,

whose coefficient ODEs the forms above solve, so the packet is an exact
solution, not merely a first-order one.  Their rates (rates_exact) carry
no 1/(q-1):

    a_t = -i(q+1) a/D,  b_t = -i(q+1) b/D,
    c_t = i e^M/D - i(q-1) kq e^M/D - i(q+1) kq/D^2.

Everything q-dependent is exposed three ways: exact (coeffs_exact,
rates_exact, exact_qgaussian), first-order closed forms
(coeffs_first_order, approx_qgaussian), and mechanically derived jets
(wavefunction_jet, and rates_first_order, the jets of the exact rates),
which arbitrate between the other two in the tests.  gaussian_terms
gives the equation terms of either family in closed form.
"""

from __future__ import annotations

import cmath
import math
from typing import TYPE_CHECKING

from . import qcore
from .errors import BranchCutViolation, InvalidQ, NonFiniteInput
from .qcore import QJet, jet_exp, jet_ln, log1p_over_w_jet, expm1_over_w_jet

if TYPE_CHECKING:
    import numpy as np


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
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)


class GaussianCoeffJet(qcore.Frozen):
    """First-order splits a = a1 + (q-1) a2 etc. at one time, all complex."""

    __slots__ = ("a1", "a2", "b1", "b2", "c1", "c2")

    def __init__(self, a1, a2, b1, b2, c1, c2):
        object.__setattr__(self, "a1", a1)
        object.__setattr__(self, "a2", a2)
        object.__setattr__(self, "b1", b1)
        object.__setattr__(self, "b2", b2)
        object.__setattr__(self, "c1", c1)
        object.__setattr__(self, "c2", c2)


def _exact_parts(t: float, params: GaussianParams):
    """(q, D, a, b, kq, L, M) at time t, shared by the coefficients and their rates."""
    if not math.isfinite(t):
        raise NonFiniteInput(f"t must be finite, got {t!r}")
    q = params.q
    D = 1.0 + 1j * (q + 1.0) * t
    kq = 1.0 / (4.0 * params.m * q * params.beta * params.beta)
    L = cmath.log(D)  # Re D = 1, so the principal log is the smooth branch
    return q, D, params.m * q / D, 1.0 / (params.beta * D), kq, L, (q - 1.0) * L / (q + 1.0)


def _rates(q, D, a, b, kq, eM):
    """(a_t, b_t, c_t) as in the module docstring.  Numbers give the exact
    rates; eps-jets (q = QJet(1, 1)) the rates of the first-order splits."""
    k = -1j * (q + 1.0) / D
    return k * a, k * b, 1j * (1.0 - (q - 1.0) * kq) * eM / D + k * kq / D


def coeffs_exact(t: float, params: GaussianParams) -> GaussianCoeffSet:
    """Exact a(t), b(t), c(t); c via the expm1 pairing described above."""
    q, D, a, b, kq, L, M = _exact_parts(t, params)
    c = (L / (q + 1.0)) * qcore.stable_expm1_over_w(M) - kq * cmath.exp(M) + kq / D
    return GaussianCoeffSet(a=a, b=b, c=c)


def rates_exact(t: float, params: GaussianParams) -> GaussianCoeffSet:
    """Exact time derivatives (a_t, b_t, c_t) of the coefficients."""
    q, D, a, b, kq, _, M = _exact_parts(t, params)
    return GaussianCoeffSet(*_rates(q, D, a, b, kq, cmath.exp(M)))


def exponent(x, t: float, params: GaussianParams, cs=None):
    """G = a x^2 + b x + c of the exact packet e_q(-G), at a float or an array
    of x; cs is coeffs_exact(t, params), when the caller has it already."""
    cs = coeffs_exact(t, params) if cs is None else cs
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


def first_order_exponents(x, t: float, params: GaussianParams, j=None):
    """G0 = a1 x^2 + b1 x + c1 and G1 = a2 x^2 + b2 x + c2 of the first-order
    packet {1 - (q-1)(G1 - G0^2/2)} e^{-G0}, at a float or an array of x;
    j is coeffs_first_order(t, params), when the caller has it already."""
    j = coeffs_first_order(t, params) if j is None else j
    return j.a1 * x * x + j.b1 * x + j.c1, j.a2 * x * x + j.b2 * x + j.c2


def _jet_parts(t: float, params: GaussianParams):
    """(q, D, a, b, kq, mu) as eps-jets at time t, M = eps * mu, shared by the
    coefficient jets and the rate jets."""
    m, beta = params.m, params.beta
    q = QJet(1.0, 1.0)
    # D = 1 + i (2+eps) t
    D = QJet(1.0 + 2j * t, 1j * t)
    kq = 1.0 / (4.0 * m * beta * beta) / q
    return q, D, m * q / D, 1.0 / (beta * D), kq, jet_ln(D) / (q + 1.0)


def _coeff_jets(t: float, params: GaussianParams) -> tuple[QJet, QJet, QJet]:
    """Coefficient jets in eps = q-1 derived mechanically from the formulas.

    This is the independent derivation: no copied first-order algebra, just
    jet arithmetic applied to a = mq/D, b = 1/(beta D) and the expm1 form
    of c.  The eps-linear factors of D and M are absorbed by the
    dedicated pole jets (log1p_over_w_jet, expm1_over_w_jet).
    """
    _, D, a, b, kq, mu = _jet_parts(t, params)
    c = mu * expm1_over_w_jet(mu.v0) - kq * QJet(1.0, mu.v0) + kq / D
    return a, b, c


def rates_first_order(t: float, params: GaussianParams) -> GaussianCoeffJet:
    """Time derivatives (a1_t, a2_t, b1_t, b2_t, c1_t, c2_t) of the
    first-order splits: the eps-jets of the exact rates, by the jet
    arithmetic of _coeff_jets."""
    q, D, a, b, kq, mu = _jet_parts(t, params)
    jets = _rates(q, D, a, b, kq, QJet(1.0, mu.v0))  # e^M = 1 + eps mu + ...
    return GaussianCoeffJet(*(v for jet in jets for v in (jet.v0, jet.v1)))


def wavefunction_jet(x: float, t: float, params: GaussianParams) -> QJet:
    """eps-jet of the packet at a point, from the coefficient jets alone."""
    if not (math.isfinite(x) and math.isfinite(t)):
        raise NonFiniteInput(f"point must be finite, got {(x, t)!r}")
    a, b, c = _coeff_jets(t, params)
    G = a * (x * x) + b * x + c
    # ln psi = -G * S(eps G) with S = log1p(w)/w
    return jet_exp(-(G * log1p_over_w_jet(G.v0)))


def exact_qgaussian(x: float, t: float, params: GaussianParams, cs=None) -> complex:
    """Exact packet value (cs as in exponent); branch checks live in the q-power core."""
    if not (math.isfinite(x) and math.isfinite(t)):
        raise NonFiniteInput(f"point must be finite, got {(x, t)!r}")
    G = exponent(x, t, params, cs)
    # {1+(q-1)G}^{1/(1-q)} = e_q(-G): the sign convention of this packet
    # is opposite to the plane-wave phase argument
    return qcore.q_exp(-G, params.q)


def approx_qgaussian(x: float, t: float, params: GaussianParams, j=None) -> complex:
    """First-order packet assembled from the closed-form coefficient splits.

    {1 - (q-1)[a2 x^2 + b2 x + c2 - (a1 x^2 + b1 x + c1)^2 / 2]} e^{-(a1 x^2 + b1 x + c1)}

    This reading of the squared bracket is the one certified against
    wavefunction_jet.  j as in first_order_exponents.
    """
    if not (math.isfinite(x) and math.isfinite(t)):
        raise NonFiniteInput(f"point must be finite, got {(x, t)!r}")
    G0, G1 = first_order_exponents(x, t, params, j)
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
    """Closed-form equation terms of a packet family, whose sum is its residual.

    exact: the two sides of the identity the equation reduces to once the
    common factor psi^(2q-1) is divided out, -i q G_t and
    (1/2m)[q G_x^2 - (1 + (q-1)G) G_xx], with G_t from rates_exact.
    approx: (i dt psi^q, (1/2m) d2x psi) of psi = P e^{-G0},
    P = 1 - (q-1)(G1 - G0^2/2), with the rates from rates_first_order.
    """
    q, m = params.q, params.m
    if family == "exact":
        cs, rs = coeffs_exact(t, params), rates_exact(t, params)
        G = exponent(x, t, params, cs)
        Gx = 2.0 * cs.a * x + cs.b
        Gt = rs.a * x * x + rs.b * x + rs.c
        return -1j * q * Gt, (q * Gx * Gx - (1.0 + (q - 1.0) * G) * 2.0 * cs.a) / (2.0 * m)
    if family != "approx":
        raise ValueError(f"family must be 'exact' or 'approx', got {family!r}")
    j, r, eps = coeffs_first_order(t, params), rates_first_order(t, params), q - 1.0
    G0, G1 = first_order_exponents(x, t, params, j)
    G0x, G1x = 2.0 * j.a1 * x + j.b1, 2.0 * j.a2 * x + j.b2
    G0t, G1t = r.a1 * x * x + r.b1 * x + r.c1, r.a2 * x * x + r.b2 * x + r.c2
    corr = -eps * (G1 - 0.5 * G0 * G0)  # P = 1 + corr
    if corr == -1.0:
        raise BranchCutViolation("first-order packet vanishes here")
    P, Pt = 1.0 + corr, -eps * (G1t - G0 * G0t)
    Px, Pxx = -eps * (G1x - G0 * G0x), -eps * (2.0 * j.a2 - G0x * G0x - 2.0 * j.a1 * G0)
    # psi^q on the continuous branch of log psi = -G0 + log1p(corr)
    psi_q = cmath.exp(q * (qcore.complex_log1p(corr) - G0))
    d2x = (Pxx - 2.0 * Px * G0x + P * (G0x * G0x - 2.0 * j.a1)) * cmath.exp(-G0)
    return 1j * q * psi_q * (Pt / P - G0t), d2x / (2.0 * m)
