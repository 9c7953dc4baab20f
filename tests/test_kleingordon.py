"""q-deformed Klein-Gordon plane waves: dispersion gating, the truncated
derivatives, and insertion orders."""

import cmath
import math

import numpy as np
import pytest

from qwave import checks
from qwave import kleingordon as kg
from qwave import planewave as pw
from qwave import verify
from qwave.errors import BranchCutViolation, NonFiniteInput

WAVE = kg.KGWave.on_shell(k=1.1, m=1.0)
XS = tuple(np.linspace(-4.0, 4.0, 17))
TS = tuple(np.linspace(0.0, 3.0, 5))


def test_dispersion_omega():
    assert kg.dispersion_omega(1.1, 1.0) == math.hypot(1.1, 1.0)
    # massless: omega = |k|
    assert kg.dispersion_omega(-2.0, 0.0) == 2.0


def test_on_shell_constructor():
    w = kg.KGWave.on_shell(k=0.7, m=1.3)
    assert isinstance(w, pw.PlaneWave)
    assert (w.p, w.E, w.m) == (0.7, kg.dispersion_omega(0.7, 1.3), 1.3)
    with pytest.raises(ValueError):
        kg.KGWave(p=0.7, E=1.0, m=-1.0)
    with pytest.raises(NonFiniteInput):
        kg.KGWave(p=float("inf"), E=1.0, m=1.0)


@pytest.mark.parametrize("x, t", [(math.nan, 0.0), (0.0, math.inf)])
def test_non_finite_point_rejected(x, t):
    with pytest.raises(NonFiniteInput):
        kg.residual_kg(x, t, WAVE, 1.1, "approx")


@pytest.mark.parametrize("q", [0.999, 1.001, 1.1, 1.4])
def test_exact_residual_zero_iff_on_shell(q):
    assert checks.kg_exact_residual(q, WAVE, XS, TS) <= 1e-10
    off = kg.KGWave(p=WAVE.p, E=WAVE.E * 1.01, m=WAVE.m)
    assert checks.kg_exact_residual(q, off, XS, TS) > 1e-6


def test_dispersion_sensitivity_factor():
    on = checks.kg_exact_residual(1.1, WAVE, XS, TS)
    off = checks.kg_exact_residual(
        1.1, kg.KGWave(p=WAVE.p, E=WAVE.E * 1.01, m=WAVE.m), XS, TS
    )
    assert off >= 1e4 * max(on, 1e-300)


def test_massless_wave_on_shell():
    w = kg.KGWave.on_shell(k=2.0, m=0.0)
    assert checks.kg_exact_residual(1.2, w, XS, TS) <= 1e-10


@pytest.mark.parametrize("x", [2.0, 3.0, -5.0])
def test_branch_cut_in_approx_family(x):
    # massless, omega = k = 1, t = 0: u = x, and at q = 1.5 the amplitude
    # 1 - (q-1) u^2/2 is exactly 0 at x = 2 and negative beyond; the mass
    # term's qcore.first_order_pow refuses it
    wave = kg.KGWave.on_shell(k=1.0, m=0.0)
    with pytest.raises(BranchCutViolation, match="first-order amplitude"):
        kg.residual_kg(x, 0.0, wave, 1.5, "approx")


def test_genuine_insertion_second_order():
    fit = verify.order_of_convergence(lambda eps: checks.kg_approx_norm(eps, XS, TS))
    assert fit.slope >= 1.9, fit
    assert fit.r_squared >= 0.999, fit


def test_qF_power_jet_against_fd():
    for x in XS[::4]:
        for t in TS:
            pt = pw.PhasePoint(x, t)
            u = pw.phase(pt, WAVE)
            closed = (1.0 + 2j * u - u * u / 2.0) * cmath.exp(1j * u)
            fd = verify.jet_from_fd(lambda q, pt=pt: q * pw.exact_psi_2qm1(pt, WAVE, q))
            assert abs(fd.v1 - closed) <= 1e-6 * max(1.0, abs(closed))


def test_first_order_derivatives_against_fd():
    # d2x and d2t of the approximant
    worst = checks.kg_d2_fd(1.02, XS[::4], TS)
    assert worst <= 1e-8, worst


def test_exact_reduces_to_classical_at_q1():
    # at q = 1 the equation is the classical KG equation and F = e^{iu};
    # 2q - 1 = 1 there, so F^(2q-1) is F itself
    for x in (0.3, 1.7):
        for t in (0.0, 1.1):
            pt = pw.PhasePoint(x, t)
            assert pw.exact_psi_2qm1(pt, WAVE, 1.0) == cmath.exp(1j * pw.phase(pt, WAVE))
    assert checks.kg_exact_residual(1.0, WAVE, XS, TS) <= 1e-15


def test_unknown_family_rejected():
    with pytest.raises(ValueError):
        kg.kg_terms(pw.PhasePoint(0.0, 0.0), WAVE, 1.1, "bogus")


@pytest.mark.parametrize("family", ["exact", "approx"])
def test_residual_kg_is_the_sum_of_kg_terms(family):
    # the (x, t) wrapper the benchmark times, at its q: the addends of
    # kg_terms at the PhasePoint (x, t), summed in order
    for x in XS[::4]:
        for t in TS:
            term_tt, term_xx, term_mass = kg.kg_terms(pw.PhasePoint(x, t), WAVE, 1.001, family)
            want = term_tt + term_xx + term_mass
            got = kg.residual_kg(x, t, WAVE, 1.001, family)
            assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())
