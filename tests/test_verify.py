"""The FD oracles are themselves checked against functions with known
derivatives, and the order fit against synthetic residual norms and
against np.polyfit, the fit it replaced."""

import cmath
import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from qwave import checks, scenarios, verify
from qwave import kleingordon as kg
from qwave import planewave as pw
from qwave import qgaussian as qg
from qwave import separation as sep
from qwave.errors import DegenerateFit, StencilEvaluationFailed


def test_fd_first_derivative_of_exp():
    scheme = verify.default_scheme(deriv=1)
    value = verify.fd_derivative(cmath.exp, 0.3, scheme, deriv=1)
    true = cmath.exp(0.3)
    assert abs(value - true) / abs(true) < 1e-11


def test_fd_second_derivative_of_sin():
    scheme = verify.default_scheme(deriv=2)
    value = verify.fd_derivative(math.sin, 0.8, scheme, deriv=2)
    assert abs(value - (-math.sin(0.8))) < 1e-10


def test_fd_oscillatory_complex():
    k = 3.0
    fn = lambda x: cmath.exp(1j * k * x)
    scheme = verify.default_scheme(1.0 / k, deriv=2)
    value = verify.fd_derivative(fn, 0.5, scheme, deriv=2)
    true = -k * k * cmath.exp(1j * k * 0.5)
    assert abs(value - true) / abs(true) < 1e-9


def test_richardson_error_decreases_with_levels():
    # step coarse enough that each level stays above the round-off floor:
    # the errors measure about 8.6e-6, 1.9e-9 and 6.9e-14
    errs = []
    for levels in (1, 2, 3):
        scheme = verify.FDScheme(step=0.5, richardson_levels=levels)
        value = verify.fd_derivative(math.exp, 1.0, scheme, deriv=1)
        errs.append(abs(value - math.e))
    assert errs[0] > errs[1] > errs[2]


def test_scheme_validation():
    with pytest.raises(ValueError):
        verify.FDScheme(step=0.0)
    with pytest.raises(ValueError):
        verify.FDScheme(step=1e-3, richardson_levels=0)
    with pytest.raises(ValueError):
        verify.FDScheme(step=1e-3, richardson_levels=-1)
    with pytest.raises(ValueError):
        verify.fd_derivative(math.exp, 0.0, verify.FDScheme(step=1e-3), deriv=3)


def test_stencil_failure_wrapped():
    def bad(x):
        raise RuntimeError("boom")

    with pytest.raises(StencilEvaluationFailed):
        verify.fd_derivative(bad, 0.0, verify.FDScheme(step=1e-3))
    with pytest.raises(StencilEvaluationFailed):
        verify.fd_derivative(lambda x: float("nan"), 0.0, verify.FDScheme(step=1e-3))


@pytest.mark.parametrize("deriv, levels", [(1, 1), (1, 3), (2, 1), (2, 2)])
def test_fd_evaluates_each_stencil_point_once(deriv, levels):
    # a halved step's points at +- 2 (h/2) are those at +- h: each level
    # after the first adds two points, and the center is a point of d2 only
    calls = []

    def fn(x):
        calls.append(x)
        return cmath.exp(1j * x)

    verify.fd_derivative(fn, 0.3, verify.FDScheme(step=0.1, richardson_levels=levels), deriv)
    assert len(calls) == len(set(calls)) == 4 + 2 * levels + (deriv == 2)


def test_first_failing_stencil_point_is_the_one_reported():
    # the points are evaluated at +2h, +h, -h, ...: -h is the first to fail
    def fn(x):
        if x < 0.3:
            raise RuntimeError("left of 0.3")
        return x

    with pytest.raises(StencilEvaluationFailed, match=re.escape(f"point {0.3 - 0.1!r} failed")):
        verify.fd_derivative(fn, 0.3, verify.FDScheme(step=0.1, richardson_levels=2))


def test_jet_from_fd_on_known_function():
    # f(q) = exp(3(q-1)) + i(q-1)^2: value 1, slope 3
    jet = verify.jet_from_fd(lambda q: math.exp(3.0 * (q - 1.0)) + 1j * (q - 1.0) ** 2)
    assert abs(jet.v0 - 1.0) == 0.0
    assert abs(jet.v1 - 3.0) < 1e-10


def test_order_fit_synthetic_quadratic():
    fit = verify.order_of_convergence(lambda e: 7.3 * e * e)
    assert abs(fit.slope - 2.0) < 1e-8
    assert fit.r_squared > 0.999999
    assert fit.epsilons == verify.DEFAULT_EPSILONS


def test_order_fit_identically_zero():
    fit = verify.order_of_convergence(lambda e: 0.0)
    assert math.isinf(fit.slope)
    assert fit.r_squared == 1.0


def test_order_fit_mixed_zero_raises():
    with pytest.raises(DegenerateFit):
        verify.order_of_convergence(lambda e: 0.0 if e < 1e-3 else e * e)


def test_order_fit_ladder_validation():
    with pytest.raises(ValueError):
        verify.order_of_convergence(lambda e: e, epsilons=(1e-2, 1e-3))
    with pytest.raises(ValueError):
        verify.order_of_convergence(lambda e: e, epsilons=(1e-3, 1e-2, 1e-4))
    with pytest.raises(ValueError):
        # only one decade of span
        verify.order_of_convergence(lambda e: e, epsilons=(1e-2, 3e-3, 1e-3))


def test_order_fit_non_finite_norm_raises():
    with pytest.raises(DegenerateFit):
        verify.order_of_convergence(lambda e: float("inf"))


def polyfit_reference(fit):
    """Slope and r^2 of a fit's norms by np.polyfit, as the fit was computed before."""
    logx, logy = np.log(fit.epsilons), np.log(fit.residual_norms)
    slope, intercept = np.polyfit(logx, logy, 1)
    ss_tot = np.sum((logy - logy.mean()) ** 2)
    ss_res = np.sum((logy - (slope * logx + intercept)) ** 2)
    return float(slope), float(1.0 - ss_res / ss_tot)


def assert_matches_polyfit(fit):
    slope, r_squared = polyfit_reference(fit)
    assert math.isclose(fit.slope, slope, rel_tol=1e-12), (fit.slope, slope)
    assert math.isclose(fit.r_squared, r_squared, rel_tol=1e-12), (fit.r_squared, r_squared)


def test_order_fit_matches_polyfit_on_registry_fits(monkeypatch):
    fits = []
    real_fit = verify.order_of_convergence
    monkeypatch.setattr(
        verify, "order_of_convergence", lambda *a: fits.append(real_fit(*a)) or fits[-1]
    )
    slopes = [c for c in checks.REGISTRY.values() if c.key.endswith("_order")]
    for entry in checks.REGISTRY.values():
        if "_order" in entry.key:
            entry.measure()
    assert len(fits) == len(slopes) == 6  # five @order_fit pairs and approx_error_order
    for fit in fits:
        assert_matches_polyfit(fit)


@settings(deadline=None)
@given(
    st.floats(1e-6, 1e6),
    st.floats(0.5, 4.0),
    st.lists(st.floats(0.8, 1.25), min_size=5, max_size=5),
)
@example(7.3, 2.0, [1.0] * 5)
def test_order_fit_matches_polyfit_on_power_laws(c, k, jitter):
    factor = dict(zip(verify.DEFAULT_EPSILONS, jitter))
    assert_matches_polyfit(verify.order_of_convergence(lambda e: c * e**k * factor[e]))


finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(deadline=None)
@given(finite, finite, st.integers(2, 500))
@example(0.0, 2e-323, 10)  # a subnormal span: the step rounds to zero
@example(-6.0, 6.0, 31)
@example(0.0, 1.0, 2001)  # the grids of the figures' one-block sweeps
@example(0.0, 4.0, 1001)
def test_checks_grid_is_linspace_bit_for_bit(lo, hi, n):
    lo, hi = sorted((lo, hi))
    assume(lo < hi and math.isfinite(hi - lo))  # linspace of an overflowing span is nan
    with np.errstate(over="ignore"):  # near the double range, (n-1) step + lo may overflow
        reference = np.linspace(lo, hi, n).tolist()  # before linspace sets the last point to hi
    assert [v.hex() for v in scenarios.linspace(lo, hi, n)] == [v.hex() for v in reference]


def test_max_rel_reduces_pairs():
    assert checks.max_rel([(1.0, 4.0), (6.0, 2.0), (0.0, 1.0)]) == 3.0
    assert checks.max_rel([(0.0, 0.0), (0.0, 1.0)]) == 0.0
    assert checks.max_rel([(0.0, 0.0), (1e-300, 0.0)]) == math.inf


_SEP_TERMS = {name: terms for name, terms, _ in checks._SEP_FACTORS}


@pytest.mark.parametrize("terms, direct, points", [
    pytest.param(checks._PW_TERMS,
                 lambda pt: pw.schrodinger_terms(pt, checks._PW_WAVE, 1.1, "exact"),
                 checks.grid(checks._PW_XS[::5], checks._PW_TS[::2]), id="planewave"),
    pytest.param(checks._KG_TERMS, lambda pt: kg.kg_terms(pt, checks._KG_WAVE, 1.1, "exact"),
                 checks.grid(checks._KG_XS[::4], checks._KG_TS[::2]), id="kleingordon"),
    pytest.param(_SEP_TERMS["f"], lambda t: sep.f_terms(t, checks._SEP_E, 1.1, family="exact"),
                 checks._SEP_TS, id="f"),
    pytest.param(_SEP_TERMS["g"], lambda x: sep.g_terms(x, checks._SEP_P, 1.1, family="exact"),
                 checks._SEP_XS, id="g"),
    pytest.param(checks.qg_terms,
                 lambda pt: qg.gaussian_terms(*pt, qg.GaussianParams(1.0, 1.0, 1.1), "exact"),
                 checks._QG_POINTS, id="packet"),
])
def test_exact_residual_is_point_by_point(terms, direct, points):
    # the worst of the point-by-point ratios of each equation's own addends,
    # not the worst residual on the grid over the largest addend on the grid
    pairs = [checks.residual_pair(direct(pt)) for pt in points]
    expected = max(d / s for d, s in pairs)
    assert checks.exact_residual(terms, points, 1.1) == expected
    if terms is checks._PW_TERMS:  # where the two reductions differ by more than rounding
        assert expected > max(d for d, _ in pairs) / max(s for _, s in pairs)


@pytest.mark.parametrize("q", [0.999, 1.02, 1.1, 0.7, 0.95, 1.2])
def test_exact_addends_are_fd_derivatives_of_the_exact_waves(q):
    # the exact residual checks sum addends built from closed-form
    # derivative identities, so a wrong identity cancels there by
    # construction; the exact_fd checks read each addend back as a
    # derivative of the exact wave, here at q away from the registry's
    gaps = {fd.__name__: fd(q) for fd in (checks.pw_exact_fd, checks.kg_exact_fd,
                                          checks.sep_exact_fd)}
    assert max(gaps.values()) <= 1e-8, gaps


def test_default_scheme_second_derivative_step():
    # eps/h^2 round-off would eat a 1e-5 step alive on deriv=2
    assert verify.default_scheme(deriv=2).step > 100 * verify.default_scheme(deriv=1).step


# Every verify value as measured when this table was last set.  A
# change that moves a value past the bounds below must reset the table and
# say in CHANGES.md which value moved and why.
PINNED = {
    "planewave.exact_residual_q0.999": 1.7634237052388905e-16,
    "planewave.exact_residual_q1.001": 0.0,
    "planewave.exact_residual_q1.1": 1.6891796220374123e-16,
    "planewave.exact_fd": 9.861624472926337e-10,
    "planewave.approx_order": 2.0008707392680045,
    "planewave.approx_order_r2": 0.9999999444965734,
    "planewave.approx_error_order": 1.9763034402651427,
    "planewave.modulus_identity": 1.8583863085044295e-15,
    "planewave.psi_q_jet": 2.350007834493068e-16,
    "planewave.approx_jet_fd": 4.527227204161252e-13,
    "planewave.d2x_approx_fd": 2.7051790316161625e-10,
    "planewave.dt_approx_q_fd": 2.189619796632323e-10,
    "separation.exact_residual_f": 0.0,
    "separation.exact_residual_g": 0.0,
    "separation.exact_fd": 3.8802843182750185e-10,
    "separation.pair_cancellation": 2.6262803163569244e-16,
    "separation.f_order": 2.000746878676632,
    "separation.f_order_r2": 0.9999999483551865,
    "separation.g_order": 1.9992084371102263,
    "separation.g_order_r2": 0.9999999358876778,
    "separation.f_jet": 7.67044020694589e-13,
    "separation.f_q_jet": 1.0529281327962938e-12,
    "separation.g_jet": 8.421942772536044e-13,
    "separation.g_q_jet": 4.984315381614497e-13,
    "separation.dt_f_q_fd": 8.628829072980856e-11,
    "separation.d2x_g_fd": 2.2271739063045684e-10,
    "separation.product_not_planewave": 1.0033657451674263,
    "gaussian.c_at_zero": 0.0,
    "gaussian.psi_origin": 0.0,
    "gaussian.coeff_jets": 7.076311083754595e-17,
    "gaussian.jet_authority": 1.3916797781259665e-15,
    "gaussian.coeff_fd": 5.690417917854175e-13,
    "gaussian.approx_order": 1.998583838405712,
    "gaussian.approx_order_r2": 0.9999998294321978,
    "gaussian.exact_residual": 1.2181130364225856e-15,
    "gaussian.ratio_kernel": 7.407493498476559e-12,
    "kleingordon.exact_residual_q0.999": 1.955961707335161e-16,
    "kleingordon.exact_residual_q1.1": 3.029982217458847e-16,
    "kleingordon.exact_fd": 4.626955999092601e-10,
    "kleingordon.dispersion_sensitivity": 65029921560412.33,
    "kleingordon.approx_order": 1.9991184682254755,
    "kleingordon.approx_order_r2": 0.9999998574366472,
    "kleingordon.qF_jet": 9.40074626796345e-13,
    "kleingordon.d2_approx_fd": 4.812205239851067e-10,
}


def test_verify_values_do_not_erode():
    # a residual that grows from 1e-16 to 1e-11 still passes a 1e-10
    # tolerance; here it fails.  An upper-bound value may at most double
    # (or reach 4.4e-16, two ulps at 1), a slope may drop by 0.02, an r^2
    # by 1e-4, and any other lower-bound value may halve
    assert set(PINNED) == set(checks.REGISTRY)
    eroded = {}
    for key, entry in checks.REGISTRY.items():  # registry order: each _r2 reuses its slope's fit
        value, pinned = entry.measure(), PINNED[key]
        if entry.sense == "le":
            kept = value <= max(2.0 * pinned, 4.4e-16)
        elif key.endswith("_r2"):
            kept = value >= pinned - 1e-4
        elif key.endswith("_order"):
            kept = value >= pinned - 0.02
        else:
            kept = value >= pinned / 2.0
        if not kept:
            eroded[key] = (pinned, value)
    assert not eroded, eroded
