"""Oracles and algebraic properties for the q-exponential, the ratio
kernel and the jets.

Frozen reference values were computed once with mpmath at 50 digits and
pasted in; the ratio kernel is held to a 50-digit mpmath oracle of the
figures' closed forms, evaluated here.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from qwave import planewave as pw
from qwave import qcore, scenarios
from qwave import qgaussian as qg
from qwave.errors import (
    BranchCutViolation,
    DivisionByZeroJet,
    NonFiniteInput,
    NonFiniteResult,
)

# mpmath, mp.dps=50: (1 - 0.15j)**(-10) = e_q(1.5j) at q=1.1
Q_EXP_15J_11 = 0.073192239193782492005 + 0.89171353487106878592j
Q_EXP_15J_11_ABS = 0.89471231809473634722


def rel(a, b):
    return abs(a - b) / abs(b)


def test_q_exp_frozen_oracle():
    v = qcore.q_exp(1.5j, 1.1)
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
def test_q_exp_hand_values(z, q, expected):
    assert rel(qcore.q_exp(z, q), expected) < 1e-15


def test_q_exp_at_q1_is_exp():
    for z in (0.0, 1.7, -2.0 + 3.0j, 10.0j):
        assert qcore.q_exp(z, 1.0) == cmath.exp(z)


def test_q_pow_matches_principal_power():
    # base 1 - 0.03j is close to 1, the principal power is unambiguous
    v = qcore.q_pow(0.3j, 1.1, scale=1.2)
    assert rel(v, (1.0 - 0.03j) ** -12.0) < 1e-14


def test_q_pow_scale_composes():
    z, q = 0.8 - 0.4j, 1.05
    base = qcore.q_exp(z, q)
    assert rel(qcore.q_pow(z, q, scale=q), base ** q) < 1e-14
    assert rel(qcore.q_pow(z, q, scale=2.0 * q - 1.0), base ** (2.0 * q - 1.0)) < 1e-14


def test_q_exp_tiny_eps_no_cancellation():
    # at q - 1 = 1e-12 the naive log(1+w)/(1-q) form loses ~4 digits;
    # the S(w) form must stay at machine precision: e_q(iu) has modulus
    # [1 + eps^2 u^2]^(-1/(2 eps)) ~ exp(-eps u^2 / 2)
    u, eps = 7.5, 1e-12
    v = qcore.q_exp(1j * u, 1.0 + eps)
    expected_mod = math.exp(-math.log1p(eps * eps * u * u) / (2.0 * eps))
    # a few ulp of slack for the abs() and the reference's own rounding;
    # the naive form would sit at ~1e-12 here
    assert abs(abs(v) - expected_mod) / expected_mod < 5e-15


def test_series_seam_continuity():
    # S(w) switches from series to compensated log at |w| = SERIES_RADIUS;
    # the two paths must agree through the seam
    r = qcore.SERIES_RADIUS
    for theta in (0.0, 0.7, 2.1, -1.3, 3.1):
        for bump in (0.999999, 1.000001):
            w_in = r * bump * 0.9999 * cmath.exp(1j * theta)
            w_out = r * bump * 1.0001 * cmath.exp(1j * theta)
            s_in = qcore._log1p_over_w(w_in)
            s_out = qcore._log1p_over_w(w_out)
            # intrinsic change over the gap is ~1e-8; path mismatch would
            # show up far above the 1e-12 band
            assert abs(s_in - s_out) / abs(s_out) < 1e-7
    # direct spot value on each side of the seam against the hand series
    for w in (5e-5 + 3e-5j, 2e-4 - 1e-4j):
        hand = 1.0 - w / 2.0 + w * w / 3.0 - w ** 3 / 4.0 + w ** 4 / 5.0
        assert rel(qcore._log1p_over_w(w), hand) < 1e-15


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
            abs(qcore.q_exp(z, 1.0 + eps) - (1.0 + eps * z * z / 2.0) * cmath.exp(z))
            for z in zs
        )

    for eps in (1e-3, 1e-4, 1e-5):
        ratio = dev(eps) / dev(eps / 2.0)
        assert 3.5 < ratio < 4.5, f"eps={eps}: halving ratio {ratio}"


def test_branch_cut_raises():
    with pytest.raises(BranchCutViolation):
        qcore.q_exp(-4.0, 0.5)  # 1 + w = -1
    with pytest.raises(BranchCutViolation):
        qcore.q_exp(2.0, 2.0)  # 1 + w = -1
    with pytest.raises(BranchCutViolation):
        qcore.q_exp(-2.0, 0.5)  # 1 + w = 0, pole on the cut


def test_non_finite_rejected():
    with pytest.raises(NonFiniteInput):
        qcore.q_exp(float("nan"), 1.1)
    with pytest.raises(NonFiniteInput):
        qcore.q_exp(1.0, float("inf"))
    with pytest.raises(NonFiniteInput):
        qcore.QJet(complex("nan"), 0.0)


# -- ratio kernel --------------------------------------------------------


def _kernel_points(q):
    """Imaginary axis, the packet's left half-plane, and w = 0 and |w| just
    below and above SERIES_RADIUS along directions where |e_q| stays finite."""
    zs = [1j * y for y in np.linspace(-40.0, 40.0, 81)]
    zs += [complex(re, im) for re in np.linspace(-20.0, 0.0, 11) for im in (-7.0, -0.5, 0.0, 3.0)]
    zs.append(0.0)
    if q != 1.0:
        for direction in (1j, -1j, -1.0, (-1.0 + 1j) / math.sqrt(2.0)):
            for factor in (1.0 - 1e-9, 1.0 + 1e-9):
                zs.append(direction * factor * qcore.SERIES_RADIUS / abs(1.0 - q))
    return np.array(zs, dtype=complex)


def _terms(z, q):
    """(c, g0, g) of the ratio (1 + c) e^{z} / e_q(z) with c = (q-1) z."""
    return (q - 1.0) * z, -z, -z


@pytest.mark.parametrize("eps", [1e-3, -1e-3, 1e-6, 1e-9, 1e-12, 0.0])
def test_modulus_ratio_matches_scalar(eps):
    q = 1.0 + eps
    zs, want = [], []
    for z in _kernel_points(q).tolist():
        approx = abs((1.0 + _terms(z, q)[0]) * cmath.exp(z))
        exact = abs(qcore.q_exp(z, q))
        if approx > 0.0 and exact > 0.0:  # else a modulus underflows; the kernel's logs do not
            zs.append(z)
            want.append(approx / exact)
    got = qcore.modulus_ratio(*_terms(np.array(zs), q), q)
    for z, g, r in zip(zs, got.tolist(), want):
        assert abs(g - r) <= 4e-15 * max(1.0, abs(z)) * r, z


def test_modulus_ratio_one_point_is_the_sweep():
    q = 1.0 + 1e-3
    zs = _kernel_points(q)
    got = qcore.modulus_ratio(*_terms(zs, q), q)
    for k, z in enumerate(zs.tolist()):
        assert qcore.modulus_ratio(*_terms(z, q), q) == got[k]


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
            qcore.modulus_ratio(c, g0, g, q)


PACKET = qg.GaussianParams(m=1.0, beta=1.0, q=1.001)
WAVE = pw.SchrodingerWave.free(p=1.3, m=1.0)


@pytest.mark.parametrize(
    "ratio, error",
    [
        (lambda: qg.ratio_gaussian(np.array([0.0, math.nan]), 0.0, PACKET), NonFiniteInput),
        (lambda: pw.ratio_R(pw.PhasePoint(np.array([0.0, math.nan])), WAVE, 1.001), NonFiniteInput),
        (lambda: qcore.modulus_ratio(0.0, 0.0, 0.0, math.nan), NonFiniteInput),
        # 1 + (q-1) G = 1 - (x^2/2 + x)/2 is on the cut beyond x = sqrt(5) - 1
        (lambda: qg.ratio_gaussian(np.linspace(0.0, 4.0, 9), 0.0,
                                   qg.GaussianParams(m=1.0, beta=1.0, q=0.5)), BranchCutViolation),
        # G0^2/2 overflows in c at x = 4
        (lambda: qg.ratio_gaussian(np.linspace(0.0, 4.0, 3), 0.0,
                                   qg.GaussianParams(m=1e300, beta=1.0, q=1.001)), NonFiniteResult),
    ],
    ids=["nan-x-packet", "nan-x-plane-wave", "nan-q", "packet-cut", "packet-overflow"],
)
def test_ratio_refusals_are_typed(ratio, error):
    with pytest.raises(error):
        ratio()


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
            return qg.ratio_gaussian(xs, 0.0, params)

        def terms(x):
            # t = 0: a = m q, b = 1/beta, c = 0; a1 = a2 = m, b1 = 1/beta, the rest 0
            x = mp.mpf(x)
            g0 = x * x + x
            return 1 - eps * (x * x - g0 * g0 / 2), g0, mp.mpf(q) * x * x + x

    else:
        wave = scenarios.wave_for(scenarios.ParticleScenario.from_mev(family, 1.0, q_minus_1))

        def ratio(xs):
            return pw.ratio_R(pw.PhasePoint(xs), wave, q)

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
        for x, r in zip(xs, ratio(np.array(xs)).tolist()):
            one_plus_c, g0, g = terms(x)
            oracle = abs(one_plus_c) * mp.exp(-mp.re(g0) + mp.log(abs(1 + eps * g)) / eps)
            worst = max(worst, float(abs(r - oracle) / oracle))
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
def test_q_exp_conjugation_symmetry(z, q):
    try:
        v = qcore.q_exp(z, q)
    except (BranchCutViolation, NonFiniteResult):  # a value beyond the double range has no conjugate
        assume(False)
    v_conj = qcore.q_exp(z.conjugate(), q)
    assert abs(v_conj - v.conjugate()) <= 1e-13 * max(1.0, abs(v))


@settings(deadline=None)
@given(st.floats(min_value=-10.0, max_value=10.0, allow_nan=False))
def test_q_exp_at_zero_argument(q):
    assert qcore.q_exp(0.0, q) == 1.0


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
