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

As in the plane-wave module, residual_f / residual_g insert a whole wave
family into its governing equation (the approximants leave genuine
O((q-1)^2) remainders), while expansion_residual_f / expansion_residual_g
combine the truncated first-order forms, whose brackets coincide and
cancel identically at the eigenvalue.

The factor f is undefined at q = 0 (its formula divides by q) and g needs
q + 1 > 0 (the formula divides by sqrt(2(q+1))); both are rejected with
InvalidQ rather than left to raise arithmetic errors mid-formula.
"""

from __future__ import annotations

import cmath
import math

from .errors import BranchCutViolation, InvalidQ, NonFiniteInput
from .qcore import q_pow


def _require_finite(**values: float) -> None:
    for name, value in values.items():
        if not math.isfinite(value):
            raise NonFiniteInput(f"{name} must be finite, got {value!r}")


def _check_q_for_f(q: float) -> None:
    if q == 0.0:
        raise InvalidQ("f(t) is undefined at q = 0 (formula divides by q)")


def _check_q_for_g(q: float) -> None:
    if q <= -1.0:
        raise InvalidQ(f"g(x) needs q + 1 > 0, got q = {q!r}")


# -- time factor --------------------------------------------------------


def exact_f(t: float, E: float, q: float) -> complex:
    """Exact time factor; q -> 1 limit is e^{-iEt}."""
    _require_finite(t=t, E=E, q=q)
    _check_q_for_f(q)
    return q_pow(1j * E * t / q, q, -1.0)


def exact_f_q(t: float, E: float, q: float) -> complex:
    """q-th power of the exact time factor."""
    _require_finite(t=t, E=E, q=q)
    _check_q_for_f(q)
    return q_pow(1j * E * t / q, q, -q)


def exact_dt_f_q(t: float, E: float, q: float) -> complex:
    """d/dt of f^q, which collapses to -iE f for every q."""
    return -(1j * E) * exact_f(t, E, q)


def approx_f(t: float, E: float, q: float) -> complex:
    """First-order time factor e^{-i tau}[1 + (q-1)(i tau + tau^2/2)], tau = Et."""
    _require_finite(t=t, E=E, q=q)
    tau = E * t
    return cmath.exp(-1j * tau) * (1.0 + (q - 1.0) * (1j * tau + tau * tau / 2.0))


def approx_f_q(t: float, E: float, q: float) -> complex:
    """First-order expansion of f^q: the i*tau term cancels, leaving tau^2/2."""
    _require_finite(t=t, E=E, q=q)
    tau = E * t
    return cmath.exp(-1j * tau) * (1.0 + (q - 1.0) * tau * tau / 2.0)


def dt_approx_f_q(t: float, E: float, q: float) -> complex:
    """Exact d/dt of the first-order f^q."""
    _require_finite(t=t, E=E, q=q)
    tau = E * t
    bracket = 1.0 + (q - 1.0) * tau * tau / 2.0 + (q - 1.0) * 1j * tau
    return -(1j * E) * cmath.exp(-1j * tau) * bracket


def residual_f(t: float, E: float, q: float, *, family: str) -> complex:
    """Residual i d/dt(f^q) - E f of a time-factor family.

    The exact family cancels identically; the approx family treats the
    first-order factor as a bona fide candidate and leaves an O((q-1)^2)
    remainder, powering 1 + (q-1)A along its continuous logarithm.
    """
    if family == "exact":
        return 1j * exact_dt_f_q(t, E, q) - E * exact_f(t, E, q)
    if family == "approx":
        _require_finite(t=t, E=E, q=q)
        tau = E * t
        eps = q - 1.0
        amp = 1.0 + eps * (1j * tau + tau * tau / 2.0)
        amp_dot = eps * (1j * E + E * E * t)
        if amp == 0.0:
            raise BranchCutViolation("first-order time factor vanishes here")
        # i d/dt [e^{-iq tau} amp^q] assembled in closed form
        term_t = (
            q
            * cmath.exp(-1j * q * tau)
            * cmath.exp((q - 1.0) * cmath.log(amp))
            * (E * amp + 1j * amp_dot)
        )
        return term_t - E * approx_f(t, E, q)
    raise ValueError(f"family must be 'exact' or 'approx', got {family!r}")


def expansion_residual_f(t: float, E: float, q: float) -> complex:
    """Residual from the truncated pair (approx_f, dt_approx_f_q).

    At lam = E the two first-order brackets are the same polynomial in
    tau, so this vanishes identically, not merely to O((q-1)^2).
    """
    return 1j * dt_approx_f_q(t, E, q) - E * approx_f(t, E, q)


# -- space factor -------------------------------------------------------


def exact_g(x: float, p: float, q: float) -> complex:
    """Exact space factor; q -> 1 limit is e^{ipx}."""
    _require_finite(x=x, p=p, q=q)
    _check_q_for_g(q)
    mu = p / math.sqrt(2.0 * (q + 1.0))
    return q_pow(1j * mu * x, q, 2.0)


def exact_g_q(x: float, p: float, q: float) -> complex:
    """q-th power of the exact space factor."""
    _require_finite(x=x, p=p, q=q)
    _check_q_for_g(q)
    mu = p / math.sqrt(2.0 * (q + 1.0))
    return q_pow(1j * mu * x, q, 2.0 * q)


def exact_d2x_g(x: float, p: float, q: float) -> complex:
    """d2/dx2 of g, which collapses to -p^2 g^q for every q."""
    return -(p * p) * exact_g_q(x, p, q)


def approx_g(x: float, p: float, q: float) -> complex:
    """First-order space factor e^{i xi}[1 + (1-q)/4 (i xi + xi^2)], xi = px."""
    _require_finite(x=x, p=p, q=q)
    xi = p * x
    return cmath.exp(1j * xi) * (1.0 + (1.0 - q) / 4.0 * (1j * xi + xi * xi))


def approx_g_q(x: float, p: float, q: float) -> complex:
    """First-order expansion of g^q: e^{i xi}[1 + 3(q-1)/4 i xi - (q-1)/4 xi^2]."""
    _require_finite(x=x, p=p, q=q)
    xi = p * x
    bracket = 1.0 + 3.0 * (q - 1.0) / 4.0 * 1j * xi - (q - 1.0) / 4.0 * xi * xi
    return cmath.exp(1j * xi) * bracket


def d2x_approx_g(x: float, p: float, q: float) -> complex:
    """Exact d2/dx2 of the first-order space factor."""
    _require_finite(x=x, p=p, q=q)
    xi = p * x
    bracket = 1.0 - 3.0 * (1.0 - q) / 4.0 * 1j * xi + (1.0 - q) / 4.0 * xi * xi
    return -(p * p) * cmath.exp(1j * xi) * bracket


def residual_g(x: float, p: float, q: float, *, family: str) -> complex:
    """Residual -(1/2) d2/dx2(g) - lam g^q of a space-factor family, lam = p^2/2.

    Families as in residual_f.
    """
    lam = p * p / 2.0
    _require_finite(lam=lam)
    if family == "exact":
        return -0.5 * exact_d2x_g(x, p, q) - lam * exact_g_q(x, p, q)
    if family == "approx":
        _require_finite(x=x, p=p, q=q)
        xi = p * x
        amp = 1.0 + (1.0 - q) / 4.0 * (1j * xi + xi * xi)
        if amp == 0.0:
            raise BranchCutViolation("first-order space factor vanishes here")
        # unwrapped q-th power of the approximant e^{i xi} amp
        gq = cmath.exp(1j * q * xi + q * cmath.log(amp))
        return -0.5 * d2x_approx_g(x, p, q) - lam * gq
    raise ValueError(f"family must be 'exact' or 'approx', got {family!r}")


def expansion_residual_g(x: float, p: float, q: float) -> complex:
    """Residual from the truncated pair (d2x_approx_g, approx_g_q).

    Identically zero at lam = p^2/2: the brackets of the two truncated
    forms are equal term by term.
    """
    lam = p * p / 2.0
    _require_finite(lam=lam)
    return -0.5 * d2x_approx_g(x, p, q) - lam * approx_g_q(x, p, q)
