"""Plane-wave family: exact self-consistency, genuine insertion order, and
the ratio diagnostic."""

from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qwave import planewave as pw
from qwave import qgaussian as qg
from qwave import checks, verify
from qwave.errors import BranchCutViolation, NonFiniteResult

WAVE = pw.SchrodingerWave.free(p=1.3, m=1.0)
XS = tuple(np.linspace(-6.0, 6.0, 25))
TS = tuple(np.linspace(0.0, 3.0, 5))
POINTS = checks.grid(XS, TS)
TERMS = partial(pw.schrodinger_terms, w=WAVE)


def test_free_constructor():
    w = pw.SchrodingerWave.free(p=2.0, m=4.0)
    assert w.E == 0.5  # p^2 / 2m exactly


def test_constructor_validation():
    with pytest.raises(ValueError):
        pw.SchrodingerWave(p=1.0, E=1.0, m=0.0)
    # free refuses the mass before it forms E = p^2/2m (was a builtin ZeroDivisionError)
    with pytest.raises(ValueError, match="mass must be positive"):
        pw.SchrodingerWave.free(p=1.0, m=0.0)


def test_phase():
    w = pw.SchrodingerWave(p=2.0, E=3.0, m=1.0)
    assert pw.phase(pw.PhasePoint(1.5, 0.5), w) == 2.0 * 1.5 - 3.0 * 0.5


def test_numpy_scalars_become_python_floats():
    """Both ratio entries take one point of Python floats: a Python or numpy
    number or a 0-d array is a Python float and gives one, equal to the call
    on the float; a list is refused.  A PhasePoint holds two Python floats."""
    pt = pw.PhasePoint(np.float64(0.5), np.float64(0.0))
    assert type(pt.x) is float and type(pt.t) is float and pt.x == 0.5
    for x in (1, np.array(0.5)):
        pt = pw.PhasePoint(x, 0)
        assert type(pt.x) is float and type(pt.t) is float and pt.x == float(x)
    packet = qg.GaussianParams(m=1.0, beta=1.0, q=1.001)
    for ratio in (lambda x: pw.ratio_R(pw.PhasePoint(x, 0.0), WAVE, 1.001),
                  lambda x: qg.ratio_gaussian(x, 0.0, packet)):
        for x in (1, np.float64(0.5), np.array(0.5)):
            r = ratio(x)
            assert type(r) is float and r == ratio(float(x))
        with pytest.raises(TypeError):
            ratio([0.1, 0.2])


@pytest.mark.parametrize("q", [0.999, 1.001, 1.1])
def test_exact_residual_machine_zero(q):
    residual = checks.exact_residual(TERMS, POINTS, q)
    assert residual <= checks.REGISTRY[f"planewave.exact_residual_q{q:g}"].tolerance, residual


def test_exact_residual_needs_free_particle():
    # E != p^2/2m must show as a nonzero residual even on the exact family
    w = pw.SchrodingerWave(p=1.3, E=1.0, m=1.0)
    r = sum(pw.schrodinger_terms(pw.PhasePoint(0.7, 0.4), w, 1.1, "exact"))
    assert abs(r) > 1e-3


def test_genuine_insertion_second_order():
    fit = verify.order_of_convergence(partial(checks.approx_norm, terms=TERMS, points=POINTS))
    assert fit.slope >= 1.9, fit
    assert fit.r_squared >= 0.999, fit


def test_approx_error_second_order():
    fit = verify.order_of_convergence(partial(checks.pw_error_norm, points=POINTS),
                                      (1e-2, 1e-3, 1e-4, 1e-5))
    assert fit.slope >= 1.9, fit


def test_modulus_identity():
    worst = checks.pw_modulus_identity(1.37, POINTS)
    assert worst <= 1e-12, worst


def test_psi_q_jet_matches_closed_coefficient():
    worst = checks.pw_psi_q_jet(POINTS)
    assert worst <= 1e-12, worst


def test_exact_psi_q_fd_in_q():
    worst = checks.pw_approx_jet_fd([pw.PhasePoint(x, t) for x in XS[::4] for t in TS])
    assert worst <= 1e-6, worst


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
    # p = 1, t = 0: u = x, and at q - 1 = 0.5 the amplitude 1 - (q-1) u^2/2
    # is exactly 0 at u = 2 and negative beyond; qcore.first_order_pow refuses it
    wave = pw.SchrodingerWave.free(p=1.0, m=1.0)
    for u in (2.0, 3.0, -5.0):
        with pytest.raises(BranchCutViolation, match="first-order amplitude"):
            pw.schrodinger_terms(pw.PhasePoint(u, 0.0), wave, 1.5, "approx")


def test_overflowed_amplitude_is_a_result_fault_not_the_branch_cut():
    # E = p^2/2m = 5e259 makes u^2 and so c = (1-q) u^2/2 overflow to -inf,
    # which is out of the double range, not on the cut of the amplitude 1 + c
    wave, pt = pw.SchrodingerWave.free(p=1e-20, m=1e-300), pw.PhasePoint(0.5, 0.5)
    for fn in (pw.approx_psi, pw.approx_psi_q, pw.d2x_approx_psi, pw.dt_approx_psi_q):
        with pytest.raises(NonFiniteResult):
            fn(pt, wave, 1 + 1e-12)
    with pytest.raises(NonFiniteResult):
        pw.schrodinger_terms(pt, wave, 1 + 1e-12, "approx")


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
