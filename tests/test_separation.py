"""Separated time and space factors f(t), g(x): exact eigen-relations,
first-order pair cancellation, and the q-derivative closed forms."""

import cmath
import itertools
import math
from functools import partial

import numpy as np
import pytest

from qwave import checks
from qwave import separation as sep
from qwave import verify
from qwave.errors import InvalidQ, NonFiniteInput, QWaveError

E = 0.845
P = 1.3
TS = tuple(np.linspace(0.0, 4.0, 17))
XS = tuple(np.linspace(-6.0, 6.0, 17))


def test_initial_values():
    for q in (0.9, 1.0, 1.2):
        assert sep.exact_f(0.0, E, q) == 1.0
        assert sep.exact_g(0.0, P, q) == 1.0


@pytest.mark.parametrize("q", [0.999, 1.001, 1.1, 1.5])
def test_exact_f_eigenrelation(q):
    worst = checks.exact_residual(partial(sep.f_terms, E=E), TS, q)
    assert worst <= 1e-10, worst


@pytest.mark.parametrize("q", [0.999, 1.001, 1.1, 1.5])
def test_exact_g_eigenrelation(q):
    worst = checks.exact_residual(partial(sep.g_terms, p=P), XS, q)
    assert worst <= 1e-10, worst


def test_f_jets_against_closed_forms():
    for t in TS:
        tau = E * t
        phase = cmath.exp(-1j * tau)
        fd = verify.jet_from_fd(lambda q, t=t: sep.exact_f(t, E, q))
        closed = (1j * tau + tau * tau / 2.0) * phase
        assert abs(fd.v1 - closed) <= 1e-10 * max(1.0, abs(closed))
        fd = verify.jet_from_fd(lambda q, t=t: sep.exact_f_q(t, E, q))
        closed = (tau * tau / 2.0) * phase
        assert abs(fd.v1 - closed) <= 1e-8 * max(1.0, abs(closed))


def test_g_jets_against_closed_forms():
    for x in XS:
        xi = P * x
        phase = cmath.exp(1j * xi)
        fd = verify.jet_from_fd(lambda q, x=x: sep.exact_g(x, P, q))
        closed = -0.25 * (1j * xi + xi * xi) * phase
        assert abs(fd.v1 - closed) <= 1e-10 * max(1.0, abs(closed))
        fd = verify.jet_from_fd(lambda q, x=x: sep.exact_g_q(x, P, q))
        closed = (0.75j * xi - 0.25 * xi * xi) * phase
        assert abs(fd.v1 - closed) <= 1e-8 * max(1.0, abs(closed))


def test_first_order_derivative_forms_against_fd():
    worst = max(checks.sep_fd(sep.dt_approx_f_q, sep.approx_f_q, TS[1::2], E, 1, 1.02),
                checks.sep_fd(sep.d2x_approx_g, sep.approx_g, XS[1::2], P, 2, 1.02))
    assert worst <= 1e-8, worst


def test_product_differs_from_planewave_approximant():
    # the first-order coefficient of f(t)g(x) is not -(u^2/2): separation
    # distributes the correction differently between the factors
    x, t = 0.7, 0.9
    tau, xi = E * t, P * x
    u = xi - tau
    coef_fg = (1j * tau + tau * tau / 2.0) - 0.25 * (1j * xi + xi * xi)
    coef_pw = -u * u / 2.0
    assert abs(coef_fg - coef_pw) > 1e-2 * max(abs(coef_fg), abs(coef_pw))


def test_product_check_reads_the_hand_coefficients_from_the_approximants():
    # the registry check takes both coefficients from the approx_* jets;
    # they agree with the hand-typed ones to round-off
    x, t = 0.7, 0.9
    tau, xi = E * t, P * x
    coef_fg = (1j * tau + tau * tau / 2.0) - 0.25 * (1j * xi + xi * xi)
    coef_pw = -(xi - tau) ** 2 / 2.0
    hand = abs(coef_fg - coef_pw) / max(abs(coef_fg), abs(coef_pw))
    measured = checks.REGISTRY["separation.product_not_planewave"].measure()
    assert abs(measured - hand) <= 1e-14 * hand


def test_non_finite_argument_is_refused():
    with pytest.raises(NonFiniteInput, match="t must be finite"):
        sep.exact_f(math.nan, E, 1.1)


def test_terms_raise_only_typed_errors_on_extremes():
    # f_terms and g_terms at finite extremes of E and p return finite values or
    # raise a QWaveError: never a builtin error, a silent NaN or inf, or
    # NonFiniteInput, since every input here is finite (lam = p^2/2 overflows
    # from p ~ 1.9e154, and the exact f_terms reach nan at E = 1e300, q = 3)
    magnitudes = (1e-300, 1e-160, 1e-20, 1e-3, 1.0, 7.0, 1e20, 1e160, 1e300)
    qs = (1 + 1e-12, 1.001, 0.7, 1.5, 3.0, -0.5)
    for terms, family, value, q, at in itertools.product(
            (sep.f_terms, sep.g_terms), ("exact", "approx"),
            (*magnitudes, *(-v for v in magnitudes)), qs, (0.5, 2.0)):
        try:
            values = terms(at, value, q, family=family)
        except NonFiniteInput:
            raise
        except QWaveError:
            continue
        assert all(map(cmath.isfinite, values)), (terms, family, value, q, at, values)


def test_unknown_family_rejected():
    with pytest.raises(ValueError):
        sep.f_terms(0.0, E, 1.1, family="bogus")
    with pytest.raises(ValueError):
        sep.g_terms(0.0, P, 1.1, family="bogus")


def test_invalid_q_domains():
    with pytest.raises(InvalidQ):
        sep.exact_f(1.0, E, 0.0)  # exponent q in f's argument
    with pytest.raises(InvalidQ):
        sep.exact_g(1.0, P, -1.0)  # mu has sqrt(2(q+1))
    with pytest.raises(InvalidQ):
        sep.exact_g(1.0, P, -2.0)
