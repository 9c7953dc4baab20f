"""Separated product solutions psi(x,t) = f(t) g(x) of the q-Schrodinger equation.

In natural units (hbar = 1, and m = 1 for the factors here), (fg)^q =
f^q g^q splits the nonlinear equation into a pair sharing one separation
constant lam:

    i d/dt (f^q) = lam f,
    -(1/2) d2/dx2 (g) = lam g^q.

The exact factors are

    f(t) = [1 + i (1-q) E t / q]^(1/(q-1)),
    g(x) = [1 + i (1-q) p x / sqrt(2(q+1))]^(2/(1-q)),

self-consistent with lam = E = p^2/2.  Each exact factor and its q-th
power is one qcore.q_pow: f = q_pow(iEt/q, q, -1), f^q with scale -q,
g = q_pow(i mu x, q, 2) with mu = p/sqrt(2(q+1)), g^q with scale 2q.
Both satisfy closed-form derivative identities, d/dt (f^q) = -iE f and
d2/dx2 (g) = -p^2 g^q, so the exact residuals, with lam = E for f and
lam = p^2/2 for g, cancel with no branch bookkeeping at all.

Each equation is given by its addends, as in the plane-wave module:
f_terms and g_terms insert a whole factor family, and their sum is the
residual (the approximants, powered by qcore.first_order_pow, leave
genuine O((q-1)^2) remainders); an addend or a lam beyond the double
range is a NonFiniteResult (qcore.finite_result).  The truncated pairs
(dt_approx_f_q, approx_f) and (d2x_approx_g, approx_g_q) have coinciding
brackets, so they cancel identically at the eigenvalue.

The factor f is undefined at q = 0 (its formula divides by q) and g needs
q + 1 > 0 (the formula divides by sqrt(2(q+1))); both are rejected with
InvalidQ rather than left to raise arithmetic errors mid-formula.
"""

from __future__ import annotations

import cmath
import math

from .errors import InvalidQ
from .qcore import finite, finite_result, first_order_pow, q_pow


def _check_q_for_f(q: float) -> None:
    if q == 0.0:
        raise InvalidQ("f(t) is undefined at q = 0 (formula divides by q)")


def _check_q_for_g(q: float) -> None:
    if q <= -1.0:
        raise InvalidQ(f"g(x) needs q + 1 > 0, got q = {q!r}")


# -- time factor --------------------------------------------------------


def exact_f(t: float, E: float, q: float) -> complex:
    """Exact time factor; q -> 1 limit is e^{-iEt}."""
    t, E, q = finite(t, "t"), finite(E, "E"), finite(q, "q")
    _check_q_for_f(q)
    return q_pow(1j * E * t / q, q, -1.0)


def exact_f_q(t: float, E: float, q: float) -> complex:
    """q-th power of the exact time factor."""
    t, E, q = finite(t, "t"), finite(E, "E"), finite(q, "q")
    _check_q_for_f(q)
    return q_pow(1j * E * t / q, q, -q)


def approx_f(t: float, E: float, q: float) -> complex:
    """First-order time factor e^{-i tau}[1 + (q-1)(i tau + tau^2/2)], tau = Et."""
    t, E, q = finite(t, "t"), finite(E, "E"), finite(q, "q")
    tau = E * t
    return cmath.exp(-1j * tau) * (1.0 + (q - 1.0) * (1j * tau + tau * tau / 2.0))


def approx_f_q(t: float, E: float, q: float) -> complex:
    """First-order expansion of f^q: the i*tau term cancels, leaving tau^2/2."""
    t, E, q = finite(t, "t"), finite(E, "E"), finite(q, "q")
    tau = E * t
    return cmath.exp(-1j * tau) * (1.0 + (q - 1.0) * tau * tau / 2.0)


def dt_approx_f_q(t: float, E: float, q: float) -> complex:
    """Exact d/dt of the first-order f^q."""
    t, E, q = finite(t, "t"), finite(E, "E"), finite(q, "q")
    tau = E * t
    bracket = 1.0 + (q - 1.0) * tau * tau / 2.0 + (q - 1.0) * 1j * tau
    return -(1j * E) * cmath.exp(-1j * tau) * bracket


def f_terms(t: float, E: float, q: float, *, family: str) -> tuple[complex, complex]:
    """The two addends (i d/dt f^q, -E f) of the time equation at lam = E.

    family "exact" uses the closed-form derivative of f^q; family "approx"
    treats the first-order factor as a bona fide candidate, powered by
    qcore.first_order_pow along its continuous logarithm.
    """
    if family == "exact":
        f = exact_f(t, E, q)
        # d/dt f^q = -iE f for every q
        return finite_result(1j * (-(1j * E) * f), -E * f)
    if family == "approx":
        t, E, q = finite(t, "t"), finite(E, "E"), finite(q, "q")
        tau, eps = E * t, q - 1.0
        # restated: the equation sees f's amplitude only via its rate, so approx_f's would cancel
        corr = eps * (1j * tau + tau * tau / 2.0)
        rate = eps * (1j * E + E * E * t)
        # i d/dt [e^{-i tau}(1 + corr)]^q assembled in closed form
        term_t = q * first_order_pow(-1j * tau, corr, q) * (E + 1j * rate / (1.0 + corr))
        return finite_result(term_t, -E * approx_f(t, E, q))
    raise ValueError(f"family must be 'exact' or 'approx', got {family!r}")


def residual_f(t: float, E: float, q: float, *, family: str) -> complex:
    """Residual i d/dt(f^q) - E f, the sum of f_terms.  The checks sum the
    addends themselves; this wrapper is kept because the benchmark times it."""
    return sum(f_terms(t, E, q, family=family))


# -- space factor -------------------------------------------------------


def exact_g(x: float, p: float, q: float) -> complex:
    """Exact space factor; q -> 1 limit is e^{ipx}."""
    x, p, q = finite(x, "x"), finite(p, "p"), finite(q, "q")
    _check_q_for_g(q)
    mu = p / math.sqrt(2.0 * (q + 1.0))
    return q_pow(1j * mu * x, q, 2.0)


def exact_g_q(x: float, p: float, q: float) -> complex:
    """q-th power of the exact space factor."""
    x, p, q = finite(x, "x"), finite(p, "p"), finite(q, "q")
    _check_q_for_g(q)
    mu = p / math.sqrt(2.0 * (q + 1.0))
    return q_pow(1j * mu * x, q, 2.0 * q)


def _g_correction(xi: float, q: float) -> complex:
    """c = (1-q)/4 (i xi + xi^2) of the first-order space factor e^{i xi}(1 + c)."""
    return (1.0 - q) / 4.0 * (1j * xi + xi * xi)


def approx_g(x: float, p: float, q: float) -> complex:
    """First-order space factor e^{i xi}[1 + (1-q)/4 (i xi + xi^2)], xi = px."""
    x, p, q = finite(x, "x"), finite(p, "p"), finite(q, "q")
    xi = p * x
    return cmath.exp(1j * xi) * (1.0 + _g_correction(xi, q))


def approx_g_q(x: float, p: float, q: float) -> complex:
    """First-order expansion of g^q: e^{i xi}[1 + 3(q-1)/4 i xi - (q-1)/4 xi^2]."""
    x, p, q = finite(x, "x"), finite(p, "p"), finite(q, "q")
    xi = p * x
    bracket = 1.0 + 3.0 * (q - 1.0) / 4.0 * 1j * xi - (q - 1.0) / 4.0 * xi * xi
    return cmath.exp(1j * xi) * bracket


def d2x_approx_g(x: float, p: float, q: float) -> complex:
    """Exact d2/dx2 of the first-order space factor."""
    x, p, q = finite(x, "x"), finite(p, "p"), finite(q, "q")
    xi = p * x
    bracket = 1.0 - 3.0 * (1.0 - q) / 4.0 * 1j * xi + (1.0 - q) / 4.0 * xi * xi
    return -(p * p) * cmath.exp(1j * xi) * bracket


def g_terms(x: float, p: float, q: float, *, family: str) -> tuple[complex, complex]:
    """The two addends (-(1/2) d2/dx2 g, -lam g^q) of the space equation at
    lam = p^2/2.  Families as in f_terms.
    """
    x, p, q = finite(x, "x"), finite(p, "p"), finite(q, "q")
    lam = finite_result(p * p / 2.0)[0]
    if family == "exact":
        g_q = exact_g_q(x, p, q)
        # d2x g = -p^2 g^q for every q
        return finite_result(-0.5 * (-(p * p) * g_q), -lam * g_q)
    if family == "approx":
        term_x = -0.5 * d2x_approx_g(x, p, q)
        xi = p * x
        return finite_result(term_x, -lam * first_order_pow(1j * xi, _g_correction(xi, q), q))
    raise ValueError(f"family must be 'exact' or 'approx', got {family!r}")
