"""Oracles and algebraic properties for the q-exponential, the ratio
kernel and the jets.

Frozen reference values were computed once with mpmath at 50 digits and
pasted in; the ratio kernel is held to a 50-digit mpmath oracle of the
figures' closed forms, evaluated here.
"""

import cmath
import math
import sys
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from qwave import kleingordon as kg
from qwave import planewave as pw
from qwave import qcore, scenarios
from qwave import qgaussian as qg
from qwave import separation as sep
from qwave.errors import (
    BranchCutViolation,
    DivisionByZeroJet,
    NonFiniteInput,
    NonFiniteResult,
    QWaveError,
)

# mpmath, mp.dps=50: (1 - 0.15j)**(-10) = e_q(1.5j) at q=1.1
Q_EXP_15J_11 = 0.073192239193782492005 + 0.89171353487106878592j
Q_EXP_15J_11_ABS = 0.89471231809473634722


def rel(a, b):
    return abs(a - b) / abs(b)


def test_q_pow_frozen_oracle():
    v = qcore.q_pow(1.5j, 1.1)
    assert rel(v, Q_EXP_15J_11) < 1e-15
    assert abs(abs(v) - Q_EXP_15J_11_ABS) < 1e-15


@pytest.mark.parametrize(
    "z,q,expected",
    [
        (0.5, 2.0, 2.0),            # [1 - 0.5]**(-1)
        (1.0, 0.0, 2.0),            # [1 + 1]**1
        (-0.75, 3.0, 2.5 ** -0.5),  # [1 + 1.5]**(-1/2)
    ],
)
def test_q_pow_hand_values(z, q, expected):
    assert rel(qcore.q_pow(z, q), expected) < 1e-15


def test_q_pow_at_q1_is_exp():
    for z in (0.0, 1.7, -2.0 + 3.0j, 10.0j):
        assert qcore.q_pow(z, 1.0) == cmath.exp(z)


def test_phase_pow_matches_principal_power():
    # base 1 - 0.03j is close to 1, the principal power is unambiguous
    v = qcore.phase_pow(0.3, 1.1, 1.2)
    assert rel(v, (1.0 - 0.03j) ** -12.0) < 1e-14


def test_phase_pow_powers_compose():
    s, q = 0.8, 1.05
    base = qcore.q_pow(1j * s, q)
    assert rel(qcore.phase_pow(s, q, 1.0), base) < 1e-15
    assert rel(qcore.phase_pow(s, q, q), base ** q) < 1e-14
    assert rel(qcore.phase_pow(s, q, 2.0 * q - 1.0), base ** (2.0 * q - 1.0)) < 1e-14


def _power_error(got, s, q, k):
    """The error of got = e_q(i s)^k against 50 digits, relative (or to the least normal
    double, where the power underflows), over 1 + |L| with L the exponent
    (k/(1-q)) log(1 + (1-q) i s), unwrapped, |L| <= |k s|: rounding the
    exponent costs each value about an ulp of |L|."""
    import mpmath as mp

    with mp.workdps(50):
        e = 1 - mp.mpf(q)  # the exact double offset
        L = mp.mpf(k) / e * mp.log(1 + e * mp.mpc(0, s))
        want = mp.exp(L)
        scale = max(abs(want), sys.float_info.min)
        return float(abs(got - want) / scale / (1 + abs(L)))


def test_phase_pow_against_50_digit_oracle():
    # the seven powers e_q(i s)^k of the plane waves and separated factors, at
    # |s| from 1e-3 to 1e3 and q - 1 from +-1e-12 out to -0.7 and 0.9; q_pow, at
    # k = 1, meets the same bound
    import random

    rng = random.Random(20110401)
    worst = worst_q_pow = 0.0
    for n in range(3000):
        s = math.copysign(10.0 ** rng.uniform(-3.0, 3.0), rng.uniform(-1.0, 1.0))
        reach = math.log10(0.9 if n % 2 else 0.7)
        q = 1.0 + (1.0 if n % 2 else -1.0) * 10.0 ** rng.uniform(-12.0, reach)
        k = rng.choice((1.0, q, 2.0 * q - 1.0, -1.0, -q, 2.0, 2.0 * q))
        try:
            worst = max(worst, _power_error(qcore.phase_pow(s, q, k), s, q, k))
        except NonFiniteResult:  # the power leaves the double range: |L| > 709
            assert abs(k * s) > 709.0
            continue
        if k == 1.0:
            worst_q_pow = max(worst_q_pow, _power_error(qcore.q_pow(1j * s, q), s, q, k))
    print(f"worst error / (1 + |L|): phase_pow {worst:.2e}, q_pow {worst_q_pow:.2e}")
    assert worst <= 1e-15
    assert worst_q_pow <= 1e-15


@pytest.mark.parametrize("s, q, k", [
    (5e149, -1.0, -1.0), (-5e149, -1.0, -1.0),  # y = (1-q) s = +-1e150, the last near point
    (5.000000001e149, -1.0, -1.0), (-1e160, -1.0, -1.0),  # log|y| for y^2, which overflows
    (4e150, 0.5, -1.0), (1e155, 5.0, 1.0), (1e300, 3.0, 1.0), (1e141, 1e10, 1.0),
])
def test_phase_pow_beyond_y_squared(s, q, k):
    assert abs((1.0 - q) * s) >= 1e150
    assert _power_error(qcore.phase_pow(s, q, k), s, q, k) <= 1e-15


@pytest.mark.parametrize("s, q", [(0.0, 1.1), (0.0, -3.0), (2.5, 1.0), (-1e300, 1.0)])
def test_phase_pow_at_y_zero_is_exp_iks(s, q):
    for k in (1.0, q, 2.0 * q - 1.0, -1.0, 2.0):
        assert qcore.phase_pow(s, q, k) == cmath.exp(complex(0.0, k * s))


@pytest.mark.parametrize("s", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("q", [1.0, 1.5, 0.5])
def test_phase_pow_refuses_a_non_finite_phase_as_a_result(s, q):
    # every s is formed from finite arguments; one beyond the double range makes
    # the exponent inf or nan, which checked_exp refuses
    with pytest.raises(NonFiniteResult):
        qcore.phase_pow(s, q, 1.0)


@settings(deadline=None)
@given(st.floats(min_value=-1e3, max_value=1e3), st.floats(min_value=1.0, max_value=1.9))
def test_phase_pow_duality(s, q):
    # e_{2-q}(-i s) = 1/e_q(i s) (Tsallis): 2 - q (exact here, by Sterbenz) flips
    # the sign of y = (1-q) s, so the modulus exponent flips and the argument stays
    v, dual = qcore.phase_pow(s, q, 1.0), qcore.phase_pow(s, 2.0 - q, 1.0)
    assert abs(v * dual.conjugate() - 1.0) <= 2e-15


def test_q_pow_tiny_eps_no_cancellation():
    # at q - 1 = 1e-12 the naive log(1+w)/(1-q) form loses ~4 digits;
    # the S(w) form must stay at machine precision: e_q(iu) has modulus
    # [1 + eps^2 u^2]^(-1/(2 eps)) ~ exp(-eps u^2 / 2)
    u, eps = 7.5, 1e-12
    v = qcore.q_pow(1j * u, 1.0 + eps)
    expected_mod = math.exp(-math.log1p(eps * eps * u * u) / (2.0 * eps))
    # a few ulp of slack for the abs() and the reference's own rounding;
    # the naive form would sit at ~1e-12 here
    assert abs(abs(v) - expected_mod) / expected_mod < 5e-15


def test_pole_absorbers_against_40_digit_oracle():
    # S(w) = log1p(w)/w and E(w) = expm1(w)/w have one path each, the
    # compensated log1p or expm1 over w; hold both to full precision from
    # |w| = 1e-300 to 1e-1, at random angles and on the axes
    import random

    import mpmath as mp

    rng = random.Random(20110401)
    angles = (0.0, 0.5 * math.pi, math.pi, -0.5 * math.pi)
    worst_s = worst_e = 0.0
    with mp.workdps(40):
        for k in range(2000):
            radius = 10.0 ** rng.uniform(-300.0, -1.0)
            theta = angles[k % 4] if k % 5 == 0 else rng.uniform(-math.pi, math.pi)
            w = cmath.rect(radius, theta)
            mw = mp.mpc(w)
            want_s, want_e = mp.log1p(mw) / mw, mp.expm1(mw) / mw
            worst_s = max(worst_s, float(abs(qcore._log1p_over_w(w) - want_s) / abs(want_s)))
            worst_e = max(worst_e, float(abs(qcore.stable_expm1_over_w(w) - want_e) / abs(want_e)))
    print(f"max rel error: S {worst_s:.2e}, E {worst_e:.2e}")
    assert worst_s <= 1e-15, worst_s
    assert worst_e <= 1e-15, worst_e


def test_stable_helpers_fill_singularity():
    assert qcore._log1p_over_w(0.0) == 1.0
    assert qcore.stable_expm1_over_w(0.0) == 1.0
    assert rel(qcore._log1p_over_w(1.0), math.log(2.0)) < 1e-15
    assert rel(qcore.stable_expm1_over_w(1.0), math.e - 1.0) < 1e-15


def test_limit_consistency_quadratic():
    # |e_q(z) - (1 + eps z^2/2) e^z| must shrink like eps^2: the halving
    # ratio sits near 4 for every eps in the ladder
    zs = (2.0, -1.5j, 2.0 + 1.0j, -1.0 + 2.5j, 5.0j, 3.0)

    def dev(eps):
        return max(
            abs(qcore.q_pow(z, 1.0 + eps) - (1.0 + eps * z * z / 2.0) * cmath.exp(z))
            for z in zs
        )

    for eps in (1e-3, 1e-4, 1e-5):
        ratio = dev(eps) / dev(eps / 2.0)
        assert 3.5 < ratio < 4.5, f"eps={eps}: halving ratio {ratio}"


def test_branch_cut_raises():
    with pytest.raises(BranchCutViolation):
        qcore.q_pow(-4.0, 0.5)  # 1 + w = -1
    with pytest.raises(BranchCutViolation):
        qcore.q_pow(2.0, 2.0)  # 1 + w = -1
    with pytest.raises(BranchCutViolation):
        qcore.q_pow(-2.0, 0.5)  # 1 + w = 0, pole on the cut


def test_first_order_pow_follows_the_continuous_log():
    # at u = 4 > pi the principal log of e^{iu}(1 + c) wraps by -2 pi i, which
    # flips the sign of the square root; first_order_pow keeps the phase whole
    u, s = 4.0, 0.5
    want = cmath.exp(s * 1j * u) * 1.25**s
    assert abs(qcore.first_order_pow(1j * u, 0.25, s) - want) <= 1e-15
    assert abs((cmath.exp(1j * u) * 1.25) ** s + want) <= 1e-15
    for c in (-1.0, -2.5, -1.0 + 0.0j):  # 1 + c = 0 or negative real
        with pytest.raises(BranchCutViolation, match="first-order amplitude"):
            qcore.first_order_pow(1j * u, c, s)


@pytest.mark.parametrize("entry, args", [
    (pw.SchrodingerWave.free, (1e200, 1.0)),  # E = p^2/2m
    (kg.KGWave.on_shell, (1.7e308, 1.7e308)),  # E = hypot(k, m)
    (partial(sep.g_terms, family="exact"), (0.5, 1e200, 1.1)),  # lam = p^2/2
    (partial(sep.g_terms, family="approx"), (0.5, 1e200, 1.1)),
    (qg.GaussianParams, (1e-320, 1.0, 1.001)),  # kq = 1/(4 m q beta^2)
    # the grid of finite endpoints whose span overflows: NaN and inf, in one block or more
    *((lambda n: scenarios.run_ratio_sweep(scenarios.ParticleScenario.from_mev(
        "electron", 1.0, 1e-9, x_range=(-1.7e308, 1.7e308, n))), (n,))
      for n in (3, scenarios.BLOCK_ROWS + 1)),
    *((partial(scenarios.run_gaussian_sweep, qg.GaussianParams(1.0, 1.0, 1.001)),
       ((-1.7e308, 1.7e308, n),)) for n in (3, scenarios.BLOCK_ROWS + 1)),
    # exp(1000) - 1, where math.expm1 and math.exp overflow
    (qcore.complex_expm1, (1000.0,)),
    (qcore.stable_expm1_over_w, (1000.0,)),
], ids=["SchrodingerWave.free", "KGWave.on_shell", "g_terms-exact", "g_terms-approx",
        "GaussianParams", "run_ratio_sweep-grid", "run_ratio_sweep-blocks",
        "run_gaussian_sweep-grid", "run_gaussian_sweep-blocks", "complex_expm1",
        "stable_expm1_over_w"])
def test_a_value_computed_from_finite_arguments_is_refused_as_a_result(entry, args):
    # NonFiniteInput is for an argument, NonFiniteResult for what is formed from finite ones
    with pytest.raises(NonFiniteResult, match="^a result leaves the double range"):
        entry(*args)


_HUGE_POINT, _HUGE_WAVES = pw.PhasePoint(1e300, 0.0), (pw.SchrodingerWave.free(1e20, 1.0),
                                                       kg.KGWave.on_shell(1e20, 1.0))
_HUGE_TIME, _HUGE_SPACE = dict(t=1e300, E=1e20, q=1.5), dict(x=1e300, p=1e20, q=1.5)


@pytest.mark.parametrize("entry, args", [
    *((fn, (_HUGE_POINT, _HUGE_WAVES[0], 1.5))
      for fn in (pw.exact_psi, pw.exact_psi_q, pw.exact_psi_2qm1)),
    (partial(pw.schrodinger_terms, family="exact"), (_HUGE_POINT, _HUGE_WAVES[0], 1.5)),
    (partial(kg.kg_terms, family="exact"), (_HUGE_POINT, _HUGE_WAVES[1], 1.5)),
    *((partial(fn, **_HUGE_TIME), ()) for fn in (sep.exact_f, sep.exact_f_q)),
    (partial(sep.f_terms, **_HUGE_TIME, family="exact"), ()),
    *((partial(fn, **_HUGE_SPACE), ()) for fn in (sep.exact_g, sep.exact_g_q)),
    (partial(sep.g_terms, **_HUGE_SPACE, family="exact"), ()),
], ids=["exact_psi", "exact_psi_q", "exact_psi_2qm1", "schrodinger_terms", "kg_terms",
        "exact_f", "exact_f_q", "f_terms", "exact_g", "exact_g_q", "g_terms"])
def test_an_overflowed_phase_is_refused_as_a_result(entry, args):
    # u = p x = 1e320 (or E t, or mu x) is formed from finite arguments, so the
    # exact power refuses it as a result, not as a non-finite argument
    with pytest.raises(NonFiniteResult):
        entry(*args)


# -- ratio kernel --------------------------------------------------------


def _kernel_points(q):
    """Imaginary axis, the packet's left half-plane, w = 0, and the small
    |w| = 1e-4 along directions where |e_q| stays finite."""
    zs = [1j * y for y in np.linspace(-40.0, 40.0, 81)]
    zs += [complex(re, im) for re in np.linspace(-20.0, 0.0, 11) for im in (-7.0, -0.5, 0.0, 3.0)]
    zs.append(0.0)
    if q != 1.0:
        for direction in (1j, -1j, -1.0, (-1.0 + 1j) / math.sqrt(2.0)):
            zs.append(direction * 1e-4 / abs(1.0 - q))
    return np.array(zs, dtype=complex)


def _terms(z, q):
    """(c, g0, g) of the ratio (1 + c) e^{z} / e_q(z) with c = (q-1) z."""
    return (q - 1.0) * z, -z, -z


# The packet kernel qcore._ratio at arbitrary terms, on each of its two paths
def _ratio_on_numbers(c, g0, g, eps):
    return qcore._ratio(complex(c), complex(g0), complex(g), eps, qcore._ON_NUMBERS)


def _ratio_on_arrays(c, g0, g, eps):
    with np.errstate(all="ignore"):
        c, g0, g = (np.asarray(v, dtype=complex) for v in (c, g0, g))
        return qcore._ratio(c, g0, g, eps, qcore._on_arrays(np))


# Each family's kernel on a numpy array of x, as a sweep of more than one block
# evaluates it; the per-point entries ratio_R and ratio_gaussian are its float side
def _plane_wave_on_arrays(xs, t, w, q):
    with np.errstate(all="ignore"):
        return pw._phase_ratio(w.p * np.asarray(xs, dtype=float) - w.E * t, q - 1.0,
                               qcore._on_arrays(np))


def _packet_on_arrays(xs, t, params):
    with np.errstate(all="ignore"):
        return qcore._ratio(*qg.ratio_terms(np.asarray(xs, dtype=float), t, params),
                            params.q - 1.0, qcore._on_arrays(np))


@pytest.mark.parametrize("eps", [1e-3, -1e-3, 1e-6, 1e-9, 1e-12, 0.0])
def test_modulus_ratio_matches_scalar(eps):
    q = 1.0 + eps
    zs, want = [], []
    for z in _kernel_points(q).tolist():
        approx = abs((1.0 + _terms(z, q)[0]) * cmath.exp(z))
        exact = abs(qcore.q_pow(z, q))
        if approx > 0.0 and exact > 0.0:  # else a modulus underflows; the kernel's logs do not
            zs.append(z)
            want.append(approx / exact)
    got = _ratio_on_arrays(*_terms(np.array(zs), q), q - 1.0)
    for z, g, r in zip(zs, got.tolist(), want):
        assert abs(g - r) <= 4e-15 * max(1.0, abs(z)) * r, z
        assert abs(_ratio_on_numbers(*_terms(z, q), q - 1.0) - r) <= 4e-15 * max(1.0, abs(z)) * r, z


# The float path (math) and the array path (numpy's ufuncs) of each ratio
# kernel round exp, log and log1p differently: numpy's vectorized exp is
# within 0.71 ulp where math.exp is correctly rounded, and the 1/(q-1) of
# log|1 + (q-1) g| / (q-1) magnifies a 1-ulp gap in the log.  Measured
# worst over the grids below: 3.6e-15 (the packet figure), 1.2e-16 on the
# plane wave's.
PATH_GAP = 1e-14

UNIT_PHASE = pw.PlaneWave(p=1.0, E=0.0, m=1.0)  # u = x at t = 0


def _plane_wave_paths(w, q):
    """(on_arrays, on_numbers) of the plane wave's R at t = 0."""
    return (partial(_plane_wave_on_arrays, t=0.0, w=w, q=q),
            lambda x: pw.ratio_R(pw.PhasePoint(x), w, q))


def _path_cases():
    """(on_arrays, on_numbers, columns): a ratio kernel's array and float paths
    and the arguments over which they are compared.  The plane wave's R runs
    over its four figures' grids and the packet's ratio over its figure's,
    each as a sweep evaluates it on arrays and as its per-point entry
    (ratio_R, ratio_gaussian) on floats; the plane wave's R also over the
    phases Im z of _kernel_points, and qcore._ratio over the packet figure's
    terms and those of _kernel_points."""
    cases = []
    for species in ("electron", "proton"):
        for qm1 in (1e-9, 1e-12):
            wave = scenarios.wave_for(scenarios.ParticleScenario.from_mev(species, 1.0, qm1))
            cases.append((*_plane_wave_paths(wave, 1.0 + qm1), (np.linspace(0.0, 1.0, 2001),)))
    params = qg.GaussianParams(m=1.0, beta=1.0, q=1.0 + 1e-3)
    cases.append((partial(_packet_on_arrays, t=0.0, params=params),
                  partial(qg.ratio_gaussian, t=0.0, params=params),
                  (np.linspace(0.0, 4.0, 1001),)))
    cases.append((partial(_ratio_on_arrays, eps=params.q - 1.0),
                  partial(_ratio_on_numbers, eps=params.q - 1.0),
                  qg.ratio_terms(np.linspace(0.0, 4.0, 1001), 0.0, params)))
    for q in (1.001, 0.999, 1.0 + 1e-9, 1.0):
        zs = _kernel_points(q)
        cases.append((*_plane_wave_paths(UNIT_PHASE, q), (zs.imag,)))
        cases.append((partial(_ratio_on_arrays, eps=q - 1.0),
                      partial(_ratio_on_numbers, eps=q - 1.0), _terms(zs, q)))
    return cases


def test_modulus_ratio_paths_agree_within_a_bound():
    worst = 0.0
    for on_arrays, on_numbers, columns in _path_cases():
        whole = on_arrays(*columns)
        columns = [np.broadcast_to(v, whole.shape).tolist() for v in columns]
        for k, point in enumerate(zip(*columns)):
            one = on_numbers(*point)
            assert type(one) is float
            worst = max(worst, abs(one - whole[k]) / whole[k])
    print(f"worst relative gap between the float and the array path: {worst:.3g}")
    assert worst <= PATH_GAP


@pytest.mark.parametrize(
    "c, g0, g, q",
    [
        (0.0, -1e3 + 1j, 0.0, 1.0 + 1e-9),  # R = e^{1000}
        (math.inf, 0.0, 0.0, 1.5),  # an infinite c
        (0.0, 0.0, 1e308, 11.0),  # (q-1) g beyond the double range
        (0.0, 0.0, 2.0, 0.5),  # 1 + (q-1) g = 0: on the cut
        (0.0, 0.0, 4.0 + 0.0j, 0.5),  # 1 + (q-1) g = -1
        (0.0, 0.0, 0.0, math.nan),  # eps g is nan
        (-1.0, 0.0, 0.0, 1.1),  # 1 + c = 0: R = 0
        (0.0, 0.0, complex(-1.5e308, -1.5e308), 0.0),  # |1 + (q-1) g| overflows: R = 0
        (0.0, 0.0, complex(1.5e308, 1.5e308), 2.0),  # and R = inf
        (0.4, 0.0, complex(3.0, 1e-300), 0.5),  # 1 + (q-1) g = -0.5 - 5e-301j, just off the cut
    ],
)
def test_modulus_ratio_paths_refuse_alike(c, g0, g, q):
    # a value within PATH_GAP, or the same error type and message, on both paths
    outcomes = []
    for ratio, point in ((_ratio_on_numbers, (c, g0, g)),
                         (_ratio_on_arrays, tuple(np.array([v]) for v in (c, g0, g)))):
        try:
            outcomes.append(float(np.asarray(ratio(*point, q - 1.0)).item()))
        except QWaveError as exc:
            outcomes.append((type(exc), str(exc)))
    one, whole = outcomes
    if isinstance(whole, float):
        assert abs(one - whole) <= PATH_GAP * whole
    else:
        assert one == whole


@pytest.mark.parametrize("g", [2.0, 2.001])
def test_modulus_ratio_refuses_the_cut_on_both_paths(g):
    # at q = 0.5 the base 1 - g/2 is 0 at g = 2 and -5e-4 at g = 2.001; a
    # guard shifted by 1e-3 would return R = 4.0e6 for the second
    for ratio, point in ((_ratio_on_numbers, (0.0, 0.0, g)),
                         (_ratio_on_arrays, tuple(np.array([v]) for v in (0.0, 0.0, g)))):
        with pytest.raises(BranchCutViolation, match="branch cut"):
            ratio(*point, 0.5 - 1.0)


NEAR_W = [0.0, 1e-300, -1e-17j, 0.3 - 0.2j, -0.4999, 0.49999999999999994j]
FAR_W = [0.5, -0.5j, 0.3 + 0.4j, -0.99 + 1e-3j, -1.0 + 1e-300j, 2.5 - 7.0j, 1e200]


@pytest.mark.parametrize("w, branches", [
    (NEAR_W, {"near"}), (FAR_W, {"far"}), (NEAR_W + FAR_W, {"near", "far"}),
])
def test_array_where_evaluates_only_the_branches_it_picks(w, branches):
    # |w| < 0.5 picks the near branch (log1p) and the rest the far one (log);
    # a block on one side evaluates only that side, bit for bit as np.where
    functions = list(qcore._on_arrays(np))
    calls = set()
    log1p, log = functions[3], functions[4]
    functions[3] = lambda v: calls.add("near") or log1p(v)
    functions[4] = lambda v: calls.add("far") or log(v)
    w = np.array(w, dtype=complex)
    arrays = qcore._on_arrays(np)
    with np.errstate(all="ignore"):  # as in scenarios._blockwise_sweep
        got = qcore._log_abs_1p(w, tuple(functions))
        expected = np.where(abs(w) < 0.5, qcore._log_abs_1p_near(w, arrays),
                            qcore._log_abs_1p_far(w, arrays))
    assert calls == branches
    assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "z,q,error",
    [
        (-4.0, 0.5, BranchCutViolation),  # 1 + w = -1
        (2.0, 2.0, BranchCutViolation),  # 1 + w = -1
        (-2.0, 0.5, BranchCutViolation),  # 1 + w = 0
        (complex("nan"), 1.1, NonFiniteInput),
        (complex(1.0, math.inf), 1.1, NonFiniteInput),
        (1.0, math.inf, NonFiniteInput),
        (800.0, 1.0, NonFiniteResult),  # exp(800)
        (complex(50, 1.175494351e-38), 1.02, NonFiniteResult),  # |1 + w| ~ 2e-40, power ~ 1e2000
        (-1e300, 1.0 + 1e300, OverflowError),  # (1-q) z
    ],
)
def test_q_pow_raises_typed(z, q, error):
    with pytest.raises(error):
        qcore.q_pow(z, q)


def test_modulus_ratio_overflow_is_typed():
    # R = e^{1000}; an infinite c; (q-1) g beyond the double range
    for c, g0, g, q in [
        (0.0, np.array([0.0, -1e3 + 1j]), 0.0, 1.0 + 1e-9),
        (np.array([0.0, math.inf]), 0.0, 0.0, 1.5),
        (0.0, 0.0, np.array([1.0, 1e308]), 11.0),
    ]:
        with pytest.raises(NonFiniteResult):
            _ratio_on_arrays(c, g0, g, q - 1.0)


PACKET = qg.GaussianParams(m=1.0, beta=1.0, q=1.001)
WAVE = pw.SchrodingerWave.free(p=1.3, m=1.0)


def _packet_sweep(params, t=0.0, start=0.0):
    # the packet sweep at BLOCK_ROWS + 1 points over [start, 4], evaluated on numpy arrays
    return lambda: scenarios.run_gaussian_sweep(params, (start, 4.0, scenarios.BLOCK_ROWS + 1), t)


def _plane_wave_sweep(t=0.0, start=0.0):
    # the electron's ratio sweep at BLOCK_ROWS + 1 points over [start, 4], on numpy arrays
    return lambda: scenarios.run_ratio_sweep(scenarios.ParticleScenario.from_mev(
        "electron", 1.0, 1e-3, x_range=(start, 4.0, scenarios.BLOCK_ROWS + 1), t=t))


@pytest.mark.parametrize(
    "ratio, error",
    [
        # a non-finite x on the array path: the sweeps refuse the grid's end
        (_packet_sweep(PACKET, start=math.nan), NonFiniteInput),
        (_plane_wave_sweep(start=math.nan), NonFiniteInput),
        # 1 + (q-1) G = 1 - (x^2/2 + x)/2 is on the cut beyond x = sqrt(5) - 1
        (_packet_sweep(qg.GaussianParams(m=1.0, beta=1.0, q=0.5)), BranchCutViolation),
        # G0^2/2 overflows in c at x = 4
        (_packet_sweep(qg.GaussianParams(m=1e300, beta=1.0, q=1.001)), NonFiniteResult),
        # kq = 1/(4 m q beta^2) is not finite: GaussianParams refuses it as a result
        (lambda: _packet_sweep(qg.GaussianParams(m=1.0, beta=1e-160, q=1.001), 0.5)(),
         NonFiniteResult),
        (lambda: _packet_sweep(qg.GaussianParams(m=1e-320, beta=1.0, q=1.001), 0.5)(),
         NonFiniteResult),
        # the same refusals at a float x, which the kernel evaluates without numpy
        (lambda: qg.ratio_gaussian(4.0, 0.0, qg.GaussianParams(m=1.0, beta=1.0, q=0.5)),
         BranchCutViolation),
        (lambda: qg.ratio_gaussian(4.0, 0.0, qg.GaussianParams(m=1e300, beta=1.0, q=1.001)),
         NonFiniteResult),
        (lambda: pw.ratio_R(pw.PhasePoint(1e200), WAVE, 1.5), NonFiniteResult),
        # the plane wave's sweep, in one block and on numpy arrays
        *((lambda n=n: scenarios.run_ratio_sweep(scenarios.ParticleScenario.from_mev(
            "electron", 1.0, 0.5, x_range=(0.0, 1e200, n))), NonFiniteResult)
          for n in (3, scenarios.BLOCK_ROWS + 1)),
        # the packet's sweep at a non-finite t
        (_packet_sweep(PACKET, math.nan), NonFiniteInput),
        # both entries take one point of floats: a list is refused before any
        # ratio is formed, and a 0-d array is a float
        (lambda: pw.ratio_R(pw.PhasePoint([0.0, math.nan]), WAVE, 1.001), TypeError),
        (lambda: qg.ratio_gaussian([0.0, math.nan], 0.0, PACKET), TypeError),
        (lambda: qg.ratio_gaussian(np.array(math.nan), 0.0, PACKET), NonFiniteInput),
    ],
    ids=["nan-x-packet", "nan-x-plane-wave", "packet-cut", "packet-overflow", "packet-tiny-beta",
         "packet-tiny-m", "packet-cut-float", "packet-overflow-float", "plane-wave-overflow-float",
         "ratio-sweep-overflow-float", "ratio-sweep-overflow", "nan-t-packet", "nan-list-plane-wave",
         "nan-list-packet", "nan-0d-packet"],
)
def test_ratio_refusals_are_typed(ratio, error):
    with pytest.raises(error):
        ratio()


def _entries_at(x, t):
    # the per-point entries at one point of floats
    return (lambda: pw.ratio_R(pw.PhasePoint(x, t), WAVE, 1.001),
            lambda: qg.ratio_gaussian(x, t, PACKET))


def _sweeps_from(x, t):
    # both sweeps on numpy arrays, from x at time t
    return _plane_wave_sweep(t, start=x), _packet_sweep(PACKET, t, start=x)


@pytest.mark.parametrize(
    "x, t, name, ratios",
    [(math.nan, 0.0, "x", _entries_at), (0.5, -math.inf, "t", _entries_at),
     (math.inf, 0.0, "x_range start", _sweeps_from), (0.0, math.nan, "t", _sweeps_from)],
    ids=["nan-x-float", "inf-t-float", "inf-x-array", "nan-t-array"],
)
def test_both_entries_refuse_a_point_in_one_text(x, t, name, ratios):
    # qcore.finite refuses a non-finite x or t, by name, for both families:
    # at a point through the per-point entries, on arrays through the sweeps
    texts = []
    for ratio in ratios(x, t):
        with pytest.raises(NonFiniteInput, match=f"^{name} must be finite, got ") as refusal:
            ratio()
        texts.append(str(refusal.value))
    assert texts[0] == texts[1]


# Grids of the figures' ratios at t = 0 and their bounds against a 50-digit
# oracle: 2e-13 where the ratio is well conditioned, 1e-9 on the grids that
# cross a zero of the first-order amplitude 1 + c or end 8e-8 short of the
# packet's cut at x = sqrt(5) - 1, where rounding the inputs alone costs up
# to that much.  Each zero of 1 + c is approached to 1e-4, 1e-5 and 1e-6 of
# its x from both sides.
ORACLE_GRIDS = [
    *[(species, eps, 1.0, 2e-13) for species in ("electron", "proton")
      for eps in (1e-12, 1e-9, 1e-3)],
    ("packet", 1e-3, 4.0, 2e-13),
    ("packet", -1e-3, 4.0, 2e-13),
    ("packet", 0.5, 20.0, 2e-13),
    ("packet", -0.05, 3.0, 1e-9),
    ("packet", -0.5, 1.2360679, 1e-9),
    ("electron", 0.3, 2.0, 1e-9),
]


@pytest.mark.parametrize("family, q_minus_1, xmax, bound", ORACLE_GRIDS)
def test_ratio_against_50_digit_oracle(family, q_minus_1, xmax, bound):
    import mpmath as mp

    q = 1.0 + q_minus_1
    if family == "packet":
        params = qg.GaussianParams(m=1.0, beta=1.0, q=q)

        def ratio(xs):
            return _packet_on_arrays(xs, 0.0, params)

        def ratio_one(x):
            return qg.ratio_gaussian(x, 0.0, params)

        def terms(x):
            # t = 0: a = m q, b = 1/beta, c = 0; a1 = a2 = m, b1 = 1/beta, the rest 0
            x = mp.mpf(x)
            g0 = x * x + x
            return 1 - eps * (x * x - g0 * g0 / 2), g0, mp.mpf(q) * x * x + x

    else:
        wave = scenarios.wave_for(scenarios.ParticleScenario.from_mev(family, 1.0, q_minus_1))

        def ratio(xs):
            return _plane_wave_on_arrays(xs, 0.0, wave, q)

        def ratio_one(x):
            return pw.ratio_R(pw.PhasePoint(x), wave, q)

        def terms(x):
            u = mp.mpf(wave.p * x)  # the double phase p x at t = 0
            return 1 - eps * u * u / 2, 0, mp.mpc(0, -u)

    with mp.workdps(50):
        eps = mp.mpf(q) - 1  # the exact double offset
        xs = np.linspace(0.0, xmax, 201).tolist()
        amp = [terms(x)[0] for x in xs]
        for i in range(len(xs) - 1):
            if amp[i] * amp[i + 1] < 0:
                x0 = mp.findroot(lambda x: terms(x)[0], (xs[i], xs[i + 1]), solver="anderson")
                xs += [float(x0 * (1 + s * mp.mpf(10) ** -k)) for s in (-1, 1) for k in (4, 5, 6)]
        worst = 0.0
        # the whole-array kernel (a longer sweep's) and the float call of each
        # point (a one-block sweep's)
        for x, *rs in zip(xs, ratio(xs).tolist(), map(ratio_one, xs)):
            one_plus_c, g0, g = terms(x)
            oracle = abs(one_plus_c) * mp.exp(-mp.re(g0) + mp.log(abs(1 + eps * g)) / eps)
            worst = max(worst, *(float(abs(r - oracle) / oracle) for r in rs))
    print(f"{family} q-1 = {q_minus_1:g} on [0, {xmax}]: max rel error {worst:.3e}")
    assert worst <= bound


# -- jet ring ------------------------------------------------------------

finite_part = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)
complexes = st.builds(complex, finite_part, finite_part)
jets = st.builds(qcore.QJet, complexes, complexes)


def _mag(j):
    return 1.0 + abs(j.v0) + abs(j.v1)


def jets_close(a, b, tol):
    return abs(a.v0 - b.v0) <= tol and abs(a.v1 - b.v1) <= tol


@settings(deadline=None)
@given(jets, jets)
def test_jet_add_mul_commute(a, b):
    assert a + b == b + a
    assert a * b == b * a


@settings(deadline=None)
@given(jets, jets, jets)
def test_jet_associativity(a, b, c):
    scale = _mag(a) * _mag(b) * _mag(c)
    assert jets_close((a + b) + c, a + (b + c), 1e-13 * scale)
    assert jets_close((a * b) * c, a * (b * c), 1e-13 * scale)


@settings(deadline=None)
@given(jets, jets, jets)
def test_jet_distributivity(a, b, c):
    scale = _mag(a) * _mag(b) * _mag(c)
    assert jets_close(a * (b + c), a * b + a * c, 1e-13 * scale)


@settings(deadline=None)
@given(jets)
def test_jet_neutral_elements(a):
    one = qcore.as_jet(1.0)
    zero = qcore.as_jet(0.0)
    assert a * one == a
    assert a + zero == a
    assert a - a == zero


@settings(deadline=None)
@given(jets, jets)
def test_jet_division_inverts_multiplication(a, b):
    assume(abs(b.v0) > 1e-3)
    scale = _mag(a) * _mag(b) ** 2 / abs(b.v0) ** 2
    assert jets_close((a * b) / b, a, 1e-12 * scale)


def test_jet_division_by_zero_value_part():
    with pytest.raises(DivisionByZeroJet):
        qcore.QJet(1.0, 0.0) / qcore.QJet(0.0, 5.0)
    # the mixin keeps except ZeroDivisionError handlers working
    assert issubclass(DivisionByZeroJet, ZeroDivisionError)


@settings(deadline=None)
@given(
    st.builds(
        qcore.QJet,
        st.builds(
            complex,
            st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
            st.floats(min_value=-2.9, max_value=2.9, allow_nan=False),
        ),
        complexes,
    )
)
def test_jet_ln_inverts_exp(a):
    # |Im v0| < pi keeps exp(a).v0 off the principal cut and unwrapped
    back = qcore.jet_ln(qcore.jet_exp(a))
    assert jets_close(back, a, 1e-12 * _mag(a))


@settings(deadline=None)
@given(complexes, st.floats(min_value=0.5, max_value=2.0, allow_nan=False))
def test_q_pow_conjugation_symmetry(z, q):
    try:
        v = qcore.q_pow(z, q)
    except (BranchCutViolation, NonFiniteResult):  # a value beyond the double range has no conjugate
        assume(False)
    v_conj = qcore.q_pow(z.conjugate(), q)
    assert abs(v_conj - v.conjugate()) <= 1e-13 * max(1.0, abs(v))


@settings(deadline=None)
@given(st.floats(min_value=-10.0, max_value=10.0, allow_nan=False))
def test_q_pow_at_zero_argument(q):
    assert qcore.q_pow(0.0, q) == 1.0


def test_pole_absorber_jets():
    # S(w) = 1 - w/2 + ... along w = eps*lead gives (1, -lead/2); the
    # expm1 counterpart flips the sign
    lead = 0.7 - 1.1j
    assert qcore.log1p_over_w_jet(lead) == qcore.QJet(1.0, -0.5 * lead)
    assert qcore.expm1_over_w_jet(lead) == qcore.QJet(1.0, 0.5 * lead)
    # cross-check against FD along the actual path
    h = 1e-6
    s_plus = qcore._log1p_over_w(h * lead)
    s_minus = qcore._log1p_over_w(-h * lead)
    fd = (s_plus - s_minus) / (2.0 * h)
    assert abs(fd - (-0.5 * lead)) < 1e-9
