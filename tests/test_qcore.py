"""Oracles and algebraic properties for the q-exponential and the jets.

Frozen reference values were computed once with mpmath at 50 digits and
pasted in.  The ratio kernel is held in test_ratio.
"""

import cmath
import math
import sys

import pytest
from hypothesis import assume, given, settings, strategies as st

from qwave import qcore
from qwave.errors import BranchCutViolation, NonFiniteResult

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


def test_first_order_pow_follows_the_continuous_log():
    # at u = 4 > pi the principal log of e^{iu}(1 + c) wraps by -2 pi i, which
    # flips the sign of the square root; first_order_pow keeps the phase whole
    u, s = 4.0, 0.5
    want = cmath.exp(s * 1j * u) * 1.25**s
    assert abs(qcore.first_order_pow(1j * u, 0.25, s) - want) <= 1e-15
    assert abs((cmath.exp(1j * u) * 1.25) ** s + want) <= 1e-15


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
