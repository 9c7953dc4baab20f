"""Plane-wave family: exact self-consistency, first-order pair
cancellation, genuine insertion order, and the ratio diagnostic."""

import cmath

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qwave import planewave as pw
from qwave import checks, qcore, verify
from qwave.errors import BranchCutViolation, NonFiniteInput, NonFiniteResult

WAVE = pw.SchrodingerWave.free(p=1.3, m=1.0)
XS = tuple(np.linspace(-6.0, 6.0, 25))
TS = tuple(np.linspace(0.0, 3.0, 5))


def test_free_constructor():
    w = pw.SchrodingerWave.free(p=2.0, m=4.0)
    assert w.E == 0.5  # p^2 / 2m exactly


def test_constructor_validation():
    with pytest.raises(NonFiniteInput):
        pw.SchrodingerWave(p=float("nan"), E=1.0, m=1.0)
    with pytest.raises(ValueError):
        pw.SchrodingerWave(p=1.0, E=1.0, m=0.0)


def test_phase():
    w = pw.SchrodingerWave(p=2.0, E=3.0, m=1.0)
    assert pw.phase(pw.PhasePoint(1.5, 0.5), w) == 2.0 * 1.5 - 3.0 * 0.5


@pytest.mark.parametrize("q", [0.999, 1.001, 1.1])
def test_exact_residual_machine_zero(q):
    residual = checks.pw_exact_residual(q, XS, TS)
    assert residual <= checks.REGISTRY[f"planewave.exact_residual_q{q:g}"].tolerance, residual


def test_exact_residual_needs_free_particle():
    # E != p^2/2m must show as a nonzero residual even on the exact family
    w = pw.SchrodingerWave(p=1.3, E=1.0, m=1.0)
    r = pw.residual_schrodinger(pw.PhasePoint(0.7, 0.4), w, 1.1, "exact")
    assert abs(r) > 1e-3


def test_expansion_pair_cancels_identically():
    # 101 x 11 grid per the stated invariant, at q - 1 = 1e-3, 1e-6 and
    # 1e-9; scale-relative bound 1e-12
    worst = checks.pw_pair_cancellation(np.linspace(-8.0, 8.0, 101), np.linspace(0.0, 5.0, 11))
    assert worst <= 1e-12, worst


def test_genuine_insertion_second_order():
    fit = verify.order_of_convergence(lambda eps: checks.pw_approx_norm(eps, XS, TS))
    assert fit.slope >= 1.9, fit
    assert fit.r_squared >= 0.999, fit


def test_approx_error_second_order():
    fit = verify.order_of_convergence(
        lambda eps: checks.pw_error_norm(eps, XS, TS), (1e-2, 1e-3, 1e-4, 1e-5)
    )
    assert fit.slope >= 1.9, fit


def test_modulus_identity():
    worst = checks.pw_modulus_identity(1.37, XS, TS)
    assert worst <= 1e-12, worst


def test_psi_q_jet_matches_closed_coefficient():
    # psi^q = exp(q * iu * S(w)); assembling the exponent jet from the pole
    # absorber avoids jet_ln's winding loss at |u| > pi
    for x in XS:
        for t in TS:
            u = pw.phase(pw.PhasePoint(x, t), WAVE)
            exponent = qcore.QJet(1.0, 1.0) * (
                qcore.as_jet(1j * u) * qcore.log1p_over_w_jet(-1j * u)
            )
            jet = qcore.jet_exp(exponent)
            closed = pw.approx_psi_q(pw.PhasePoint(x, t), WAVE, 2.0)  # eps = 1
            # approx_psi_q = e^{iu}(1 + eps(iu - u^2/2)); eps=1 isolates v0+v1
            assert abs((jet.v0 + jet.v1) - closed) <= 1e-12 * max(1.0, abs(closed))


def test_exact_psi_q_fd_in_q():
    for x in XS[::4]:
        for t in TS:
            pt = pw.PhasePoint(x, t)
            fd = verify.jet_from_fd(lambda q, pt=pt: pw.exact_psi_q(pt, WAVE, q))
            u = pw.phase(pt, WAVE)
            closed = (1j * u - u * u / 2.0) * cmath.exp(1j * u)
            assert abs(fd.v1 - closed) <= 1e-6 * max(1.0, abs(closed))


def test_ratio_is_one_at_q1():
    for x in (-3.0, 0.0, 0.7, 5.0):
        assert pw.ratio_R(pw.PhasePoint(x, 1.2), WAVE, 1.0) == 1.0


def test_ratio_even_in_x_at_t0():
    q = 1.0 + 1e-4
    for x in (0.1, 0.9, 2.3, 5.5):
        r_plus = pw.ratio_R(pw.PhasePoint(x, 0.0), WAVE, q)
        r_minus = pw.ratio_R(pw.PhasePoint(-x, 0.0), WAVE, q)
        assert abs(r_plus - r_minus) <= 1e-13


def test_ratio_underflow_guard():
    # q = 1.5 pushes |exact_psi| ~ |u|^{-2} below the double range at
    # u ~ 1.3e200, and (1-q) u^2/2 overflows: the true R ~ 1e799 is refused
    with pytest.raises(NonFiniteResult):
        pw.ratio_R(pw.PhasePoint(1e200, 0.0), WAVE, 1.5)


def test_branch_cut_in_approx_family():
    # amplitude 1 - (q-1) u^2/2 crosses zero: u = 3, q - 1 = 0.5
    with pytest.raises(BranchCutViolation):
        pw.residual_schrodinger(pw.PhasePoint(3.0 / WAVE.p, 0.0), WAVE, 1.5, "approx")


def test_unknown_family_rejected():
    with pytest.raises(ValueError):
        pw.schrodinger_terms(pw.PhasePoint(0.0, 0.0), WAVE, 1.1, "bogus")


@settings(deadline=None, max_examples=60)
@given(
    st.floats(min_value=-20.0, max_value=20.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    st.floats(min_value=-1e-3, max_value=1e-3, allow_nan=False),
)
def test_ratio_positive_and_near_one_for_small_eps(x, t, eps):
    r = pw.ratio_R(pw.PhasePoint(x, t), WAVE, 1.0 + eps)
    assert r > 0.0
    # |u| <= 28.6 and |eps| <= 1e-3: the moduli differ at second order
    assert abs(r - 1.0) < 0.5
