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
solution, not merely a first-order one.  Their rates carry no 1/(q-1):

    a_t = -i(q+1) a/D,  b_t = -i(q+1) b/D,
    c_t = i e^M/D - i(q-1) kq e^M/D - i(q+1) kq/D^2.

Everything q-dependent is exposed three ways: exact (coeffs_exact,
exact_qgaussian), first-order closed forms (coeffs_first_order,
approx_qgaussian), and eps-jets (wavefunction_jet, rates_first_order),
which arbitrate between the other two in the tests.  A coefficient set
is the plain tuple (a, b, c), its first-order splits the pairs
((a1, a2), (b1, b2), (c1, c2)) with a = a1 + (q-1) a2.
The jets are no second derivation: _coeffs_and_rates states the formulas
above once and evaluates them on numbers or on jets.  gaussian_terms
gives the equation terms of either family in closed form; the first-order
packet is (1 + c) e^{-G0} with (c, G0) from first_order_parts, and its
q-th power is qcore.first_order_pow.  A function of (x, t) takes the sets
of t it reads (cs, j, jets, coeffs) from a caller that has them already.
"""

from __future__ import annotations

import cmath
import math

from . import qcore
from .errors import InvalidQ
from .qcore import QJet, finite, finite_result, jet_exp, jet_ln, log1p_over_w_jet, expm1_over_w_jet


class GaussianParams(qcore.Frozen):
    """Packet parameters: mass, width parameter beta, q."""

    __slots__ = ("m", "beta", "q")

    def __init__(self, m: float, beta: float, q: float):
        self._set(finite(m, "m"), finite(beta, "beta"), finite(q, "q"))
        if self.m <= 0:
            raise ValueError(f"mass must be positive, got {self.m!r}")
        if self.beta == 0:
            raise ValueError("beta must be nonzero")
        # the coefficient formulas divide by q and by q+1
        if self.q == 0.0:
            raise InvalidQ("q = 0 breaks the c(t) formula (divides by q)")
        if self.q == -1.0:
            raise InvalidQ("q = -1 breaks the coefficient denominators (q+1)")
        for q in (self.q, 1.0):  # kq of the exact coefficients, and of the splits at q = 1
            scale = 4.0 * self.m * q * self.beta * self.beta
            finite_result(1.0 / scale if scale else math.inf)  # kq, inf where scale underflows


# (log, exp, E) of the coefficient formulas: on numbers, where an M or e^M
# beyond the double range is a NonFiniteResult, and on eps-jets, where
# M = eps L/(q+1) has value part 0, so E(M) is the pole jet
_EXACT = (cmath.log, qcore.checked_exp, lambda M: qcore.stable_expm1_over_w(*finite_result(M)))
_JETS = (jet_ln, jet_exp, lambda M: expm1_over_w_jet(M.v1))


def _coeffs_and_rates(t: float, params: GaussianParams, q, functions):
    """((a, b, c), (a_t, b_t, c_t)) at time t as in the module docstring,
    with (log, exp, E) = functions.  Numbers (q = params.q, _EXACT) give the
    exact values; eps-jets (q = QJet(1, 1), _JETS) their first-order splits."""
    finite(t, "t")
    log, exp, expm1_over_w = functions
    D = 1.0 + 1j * (q + 1.0) * t
    kq = 1.0 / (4.0 * params.m * q * params.beta * params.beta)
    L = log(D)  # Re D = 1, so the principal log is the smooth branch
    M = (q - 1.0) * L / (q + 1.0)
    a, b, eM = params.m * q / D, 1.0 / (params.beta * D), exp(M)
    c = (L / (q + 1.0)) * expm1_over_w(M) - kq * eM + kq / D
    k = -1j * (q + 1.0) / D
    return (a, b, c), (k * a, k * b, 1j * (1.0 - (q - 1.0) * kq) * eM / D + k * kq / D)


def coeffs_exact(t: float, params: GaussianParams) -> tuple[complex, complex, complex]:
    """Exact (a, b, c) at time t; c via the expm1 pairing described above."""
    return _coeffs_and_rates(t, params, params.q, _EXACT)[0]


def exponent(x, t: float, params: GaussianParams, cs=None):
    """G = a x^2 + b x + c of the exact packet e_q(-G), at a float or an array
    of x; cs is coeffs_exact(t, params), when the caller has it already."""
    a, b, c = coeffs_exact(t, params) if cs is None else cs
    return a * x * x + b * x + c


def coeffs_first_order(t: float, params: GaussianParams):
    """Closed-form first-order splits ((a1, a2), (b1, b2), (c1, c2)) of the
    coefficients, a = a1 + (q-1) a2 and so on."""
    finite(t, "t")
    m, beta = params.m, params.beta
    D0 = 1.0 + 2j * t
    L0 = cmath.log(D0)
    kappa = 1.0 / (4.0 * m * beta * beta)
    a1 = m / D0
    a2 = m * (1.0 + 1j * t) / (D0 * D0)
    b1 = 1.0 / (beta * D0)
    b2 = -1j * t / (beta * D0 * D0)
    c1 = L0 / 2.0 - 2j * t * kappa / D0
    c2 = (
        kappa
        + 1j * t / (2.0 * D0)
        - kappa * (1.0 + 3j * t) / (D0 * D0)
        + L0 * L0 / 8.0
        - (0.25 + 0.5 * kappa) * L0
    )
    return (a1, a2), (b1, b2), (c1, c2)


def first_order_parts(x, t: float, params: GaussianParams, j=None):
    """(c, G0) of the first-order packet (1 + c) e^{-G0}, c = -(q-1)(G1 - G0^2/2),
    with G0 = a1 x^2 + b1 x + c1 and G1 = a2 x^2 + b2 x + c2, at a float or an
    array of x; j is coeffs_first_order(t, params), when the caller has it already."""
    (a1, a2), (b1, b2), (c1, c2) = coeffs_first_order(t, params) if j is None else j
    G0, G1 = a1 * x * x + b1 * x + c1, a2 * x * x + b2 * x + c2
    return -(params.q - 1.0) * (G1 - 0.5 * G0 * G0), G0


def _coeff_jets(t: float, params: GaussianParams) -> tuple[QJet, QJet, QJet]:
    """Coefficient jets in eps = q-1: coeffs_exact's formulas evaluated on
    jets, with no first-order algebra of their own, so they check the
    shipped formulas against the closed-form splits."""
    jets = _coeffs_and_rates(t, params, QJet(1.0, 1.0), _JETS)[0]
    for jet in jets:
        finite_result(jet.v0, jet.v1)
    return jets


def rates_first_order(t: float, params: GaussianParams):
    """Time derivatives ((a1_t, a2_t), (b1_t, b2_t), (c1_t, c2_t)) of the
    first-order splits: the shipped rate formulas of _coeffs_and_rates
    evaluated on jets, as in _coeff_jets."""
    jets = _coeffs_and_rates(t, params, QJet(1.0, 1.0), _JETS)[1]
    return tuple(finite_result(jet.v0, jet.v1) for jet in jets)


def wavefunction_jet(x: float, t: float, params: GaussianParams, jets=None) -> QJet:
    """eps-jet of the packet at a point from its coefficient jets = _coeff_jets(t, params)."""
    finite(x, "x"), finite(t, "t")
    a, b, c = _coeff_jets(t, params) if jets is None else jets
    G = a * (x * x) + b * x + c
    # ln psi = -G * S(eps G) with S = log1p(w)/w
    psi = jet_exp(-(G * log1p_over_w_jet(G.v0)))
    finite_result(psi.v0, psi.v1)
    return psi


def exact_qgaussian(x: float, t: float, params: GaussianParams, cs=None) -> complex:
    """Exact packet value (cs as in exponent); branch checks live in the q-power core."""
    finite(x, "x"), finite(t, "t")
    G = finite_result(exponent(x, t, params, cs))[0]
    # {1+(q-1)G}^{1/(1-q)} = e_q(-G): the sign convention of this packet
    # is opposite to the plane-wave phase argument
    return qcore.q_pow(-G, params.q)


def approx_qgaussian(x: float, t: float, params: GaussianParams, j=None) -> complex:
    """First-order packet assembled from the closed-form coefficient splits.

    {1 - (q-1)[a2 x^2 + b2 x + c2 - (a1 x^2 + b1 x + c1)^2 / 2]} e^{-(a1 x^2 + b1 x + c1)}

    This reading of the squared bracket is the one certified against
    wavefunction_jet.  j and (c, G0) as in first_order_parts.
    """
    finite(x, "x"), finite(t, "t")
    c, G0 = first_order_parts(x, t, params, j)
    return qcore.finite_result((1.0 + c) * qcore.checked_exp(-G0))[0]


def ratio_terms(x, t: float, params: GaussianParams, cs=None, j=None):
    """(c, G0, G) such that approx_qgaussian = (1 + c) e^{-G0} and
    exact_qgaussian = e_q(-G), (c, G0) from first_order_parts, at a float or
    an array of x; cs and j as in exponent and first_order_parts."""
    return (*first_order_parts(x, t, params, j), exponent(x, t, params, cs))


def ratio_gaussian(x: float, t: float, params: GaussianParams, cs=None, j=None) -> float:
    """Modulus ratio |approx| / |exact|, the packet's deviation diagnostic.

    qcore._ratio forms it from the terms (c, G0, G) of ratio_terms in real
    log-modulus arithmetic, on Python floats: x and t become floats, and a
    non-finite one raises NonFiniteInput.  cs and j are coeffs_exact(t, params)
    and coeffs_first_order(t, params), computed here when not given; a sweep
    computes them once for the time t and calls qcore._ratio on these terms itself.
    """
    x, t = finite(float(x), "x"), finite(float(t), "t")
    return qcore._ratio(*ratio_terms(x, t, params, cs, j), params.q - 1.0, qcore._ON_NUMBERS)


def terms_coeffs(t: float, params: GaussianParams, family: str):
    """The sets of t that gaussian_terms reads: exact ((a, b, c), (a_t, b_t, c_t)),
    approx (coeffs_first_order, rates_first_order), which do not depend on q."""
    if family == "exact":
        return _coeffs_and_rates(t, params, params.q, _EXACT)
    return coeffs_first_order(t, params), rates_first_order(t, params)


def gaussian_terms(
    x: float, t: float, params: GaussianParams, family: str, coeffs=None
) -> tuple[complex, complex]:
    """Closed-form equation terms of a packet family, whose sum is its residual.

    exact: the two sides of the identity the equation reduces to once the
    common factor psi^(2q-1) is divided out, -i q G_t and
    (1/2m)[q G_x^2 - (1 + (q-1)G) G_xx], with the exact rates of
    _coeffs_and_rates.
    approx: (i dt psi^q, (1/2m) d2x psi) of psi = P e^{-G0},
    P = 1 - (q-1)(G1 - G0^2/2), with the rates from rates_first_order.
    coeffs is terms_coeffs(t, params, family), when the caller has it already.
    """
    if family not in ("exact", "approx"):
        raise ValueError(f"family must be 'exact' or 'approx', got {family!r}")
    q, m = params.q, params.m
    coeffs = terms_coeffs(t, params, family) if coeffs is None else coeffs
    if family == "exact":
        (a, b, c), (a_t, b_t, c_t) = coeffs
        G, Gx, Gt = a * x * x + b * x + c, 2.0 * a * x + b, a_t * x * x + b_t * x + c_t
        return qcore.finite_result(-1j * q * Gt,
                                   (q * Gx * Gx - (1.0 + (q - 1.0) * G) * 2.0 * a) / (2.0 * m))
    (j, rates), eps = coeffs, q - 1.0
    (a1, a2), (b1, b2), _ = j
    (a1_t, a2_t), (b1_t, b2_t), (c1_t, c2_t) = rates
    corr, G0 = first_order_parts(x, t, params, j)  # P = 1 + corr
    G0x, G1x = 2.0 * a1 * x + b1, 2.0 * a2 * x + b2
    G0t, G1t = a1_t * x * x + b1_t * x + c1_t, a2_t * x * x + b2_t * x + c2_t
    P, Pt = 1.0 + corr, -eps * (G1t - G0 * G0t)
    Px, Pxx = -eps * (G1x - G0 * G0x), -eps * (2.0 * a2 - G0x * G0x - 2.0 * a1 * G0)
    psi_q = qcore.first_order_pow(-G0, corr, q)  # refuses P on the branch cut
    d2x = (Pxx - 2.0 * Px * G0x + P * (G0x * G0x - 2.0 * a1)) * qcore.checked_exp(-G0)
    return qcore.finite_result(1j * q * psi_q * (Pt / P - G0t), d2x / (2.0 * m))
