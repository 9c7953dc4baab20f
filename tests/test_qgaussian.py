"""Spreading q-Gaussian packet: coefficient closed forms, their jets,
the first-order assembly, the closed-form equation terms, and the
gaussian checks that a patched formula must fail."""

import cmath
import math

import numpy as np
import pytest

from qwave import checks, qcore
from qwave import qgaussian as qg
from qwave import verify
from qwave.errors import BranchCutViolation, InvalidQ, NonFiniteResult

XS = tuple(np.linspace(-3.0, 3.0, 13))
TS = tuple(np.linspace(0.0, 2.0, 5))


def params_for(q, m=1.0, beta=1.0):
    return qg.GaussianParams(m=m, beta=beta, q=q)


def test_params_validation():
    with pytest.raises(ValueError):
        params_for(1.1, m=0.0)
    with pytest.raises(ValueError):
        params_for(1.1, beta=0.0)
    with pytest.raises(InvalidQ):
        params_for(0.0)  # kappa_q has 1/q
    with pytest.raises(InvalidQ):
        params_for(-1.0)  # D(t) degenerates, M has 1/(q+1)


def test_beta_whose_kq_overflows_is_refused():
    # kq = 1/(4 m q beta^2) = 5e319 at beta = 1e-160: approx_qgaussian(0.5, 0.5)
    # returned nan+nanj with no error before GaussianParams refused it, as a
    # value computed from finite parameters
    with pytest.raises(NonFiniteResult, match=r"\(inf,\)"):
        params_for(0.5, beta=1e-160)
    params_for(0.5, beta=1e-150)  # kq = 5e299


def test_params_whose_kq_divides_by_zero_are_refused():
    # 4 m q beta^2 underflows to 0 at m = beta = 1e-300, where approx_qgaussian
    # and exact_qgaussian raised a builtin ZeroDivisionError
    with pytest.raises(NonFiniteResult, match=r"\(inf,\)"):
        params_for(1.001, m=1e-300, beta=1e-300)
    # the first-order splits take kq at q = 1: inf at m = 1e-300, beta = 1e-5,
    # where the exact coefficients' kq at q = 1e10 is 2.5e299
    assert math.isfinite(1.0 / (4.0 * 1e-300 * 1e10 * 1e-5 * 1e-5))
    with pytest.raises(NonFiniteResult, match=r"\(inf,\)"):
        params_for(1e10, m=1e-300, beta=1e-5)


@pytest.mark.parametrize("m, beta", [(1.0, 1e-150), (1e-160, 1e20)])
def test_first_order_packet_overflow_is_typed(m, beta):
    # e^{-G0} of the first-order packet leaves the double range at (0.5, 0.5),
    # where exact_qgaussian is 0j: a typed refusal, not cmath.exp's builtin
    # OverflowError ("math range error")
    params = params_for(1.001, m=m, beta=beta)
    assert qg.exact_qgaussian(0.5, 0.5, params) == 0j
    with pytest.raises(NonFiniteResult):
        qg.approx_qgaussian(0.5, 0.5, params)
    with pytest.raises(NonFiniteResult):
        qg.gaussian_terms(0.5, 0.5, params, "approx")
    # the jet's exp overflows at the second pair; at the first, its v1 does:
    # a result, not an input fault
    with pytest.raises(NonFiniteResult):
        qg.wavefunction_jet(0.5, 0.5, params)


def test_coefficients_at_t0():
    # a = m q, b = 1/beta, c = 0
    p = params_for(1.3, m=2.0, beta=0.5)
    assert qg.coeffs_exact(0.0, p) == (2.6, 2.0, 0.0)
    assert qg.coeffs_first_order(0.0, p) == ((2.0, 2.0), (2.0, 0.0), (0.0, 0.0))


def test_first_order_splits_finite_for_huge_beta():
    # 8 m beta^2 overflows from |beta| ~ 4.7e153, so c1 and c2 are formed
    # from kappa = 1/(4 m beta^2), which only underflows towards its limit 0
    for t in (0.5, 1.7):
        want = qg.coeffs_first_order(t, params_for(1.0, beta=1e150))[2]
        for beta in (5e153, -5e153, 1e154, 1e200, 1e300):
            got = qg.coeffs_first_order(t, params_for(1.0, beta=beta))[2]
            for name, w, g in zip(("c1", "c2"), want, got):
                assert abs(g - w) <= 1e-15 * abs(w), (beta, name, g, w)


def test_packet_normalized_at_origin():
    for q in (0.999, 1.001, 1.1):
        assert qg.exact_qgaussian(0.0, 0.0, params_for(q)) == 1.0
        assert abs(qg.coeffs_exact(0.0, params_for(q))[2]) == 0.0


def test_c_exact_at_q1_limit_form():
    # at q = 1: c = ln(D0)/2 - i hbar t / (2 m beta^2 D0), D0 = 1 + 2i hbar t
    for m, beta in ((1.0, 1.0), (2.0, 0.7)):
        for t in TS:
            c = qg.coeffs_exact(t, params_for(1.0, m=m, beta=beta))[2]
            D0 = 1.0 + 2j * t
            closed = 0.5 * cmath.log(D0) - 1j * t / (2.0 * m * beta * beta * D0)
            assert abs(c - closed) <= 1e-14 * max(1.0, abs(closed))
            # and the q -> 1 approach is continuous through the expm1 pairing
            c_near = qg.coeffs_exact(t, params_for(1.0 + 1e-9, m=m, beta=beta))[2]
            assert abs(c_near - closed) <= 1e-7 * max(1.0, abs(closed))


@pytest.mark.parametrize("m, beta", [(1.4, 0.8), (0.3, 2.7), (5.0, 0.2)])
def test_coeff_jets_match_closed_splits(m, beta):
    worst = checks.qg_coeff_jets(params_for(1.001, m=m, beta=beta))
    assert worst <= 1e-11, worst


def test_coeff_splits_against_fd_in_q():
    for t in TS:
        for i, (closed0, closed1) in enumerate(qg.coeffs_first_order(t, params_for(1.0))):
            fd = verify.jet_from_fd(lambda q, t=t, i=i: qg.coeffs_exact(t, params_for(q))[i])
            assert abs(fd.v0 - closed0) <= 1e-12 * max(1.0, abs(closed0))
            assert abs(fd.v1 - closed1) <= 1e-6 * max(1.0, abs(closed1))


def test_wavefunction_jet_matches_assembled_forms():
    # at q = 1.001
    worst = checks.qg_jet_authority(XS, TS)
    assert worst <= 1e-11, worst


def test_approx_packet_consistent_with_jet():
    # approx(eps) = v0 + eps v1 by construction of the default reading
    p = params_for(1.0 + 1e-3)
    for x in (0.4, 1.1,(2.2)):
        for t in (0.0, 0.9):
            jet = qg.wavefunction_jet(x, t, p)
            direct = qg.approx_qgaussian(x, t, p)
            linear = jet.v0 + 1e-3 * jet.v1
            # the assembled form differs from the pure jet at O(eps^2)
            assert abs(direct - linear) <= 1e-5 * abs(linear)


def test_literal_typo_reading_differs():
    # a transcription slip seen in print reads the squared bracket as
    # a1 x^2 + b1 x c1, a product swallowing the "+".  At t = 0, c1 = 0
    # makes that product vanish while the correct bracket keeps b1 x, so
    # the two readings split for x != 0
    p = params_for(1.01)

    def typo(x, t):
        (a1, a2), (b1, b2), (c1, c2) = qg.coeffs_first_order(t, p)
        G0 = a1 * x * x + b1 * x + c1
        G1 = a2 * x * x + b2 * x + c2
        squared = a1 * x * x + b1 * x * c1
        return (1.0 - (p.q - 1.0) * (G1 - 0.5 * squared * squared)) * cmath.exp(-G0)

    good = qg.approx_qgaussian(1.3, 0.0, p)
    assert abs(good - typo(1.3, 0.0)) > 1e-5 * abs(good)
    assert qg.approx_qgaussian(0.0, 0.0, p) == typo(0.0, 0.0)


def test_exact_packet_residual_fd_floor():
    # the exact packet solves its identity to rounding also at q the
    # registry leaves out: far from 1, and next to it
    worst = max(checks.exact_residual(checks.qg_terms, checks._QG_POINTS, q)
                for q in (0.7, 1.0 + 1e-9))
    assert worst <= 1e-14, worst


@pytest.mark.parametrize("q", [1.02, 0.7])
def test_approx_terms_match_fd(q):
    # the closed-form terms against Richardson FD of approx_qgaussian; at
    # the registry's probes the principal power psi^q is the continuous one
    p = params_for(q)
    for x, t in checks._QG_PROBES:
        gap_t = checks.fd_gap(lambda tv: qg.gaussian_terms(x, tv, p, "approx")[0] / 1j,
                              lambda tv: qg.approx_qgaussian(x, tv, p) ** q, (t,), 1.0, 1)
        gap_x = checks.fd_gap(lambda xv: 2.0 * p.m * qg.gaussian_terms(xv, t, p, "approx")[1],
                              lambda xv: qg.approx_qgaussian(xv, t, p), (x,), 1.0, 2)
        assert max(gap_t, gap_x) <= 1e-8, (x, t, gap_t, gap_x)


def test_approx_packet_insertion_order():
    # the registry's own probes: x in (0.3, 0.9, 1.6), t in (0.2, 0.8)
    slope = checks.REGISTRY["gaussian.approx_order"].measure()
    r_squared = checks.REGISTRY["gaussian.approx_order_r2"].measure()
    assert slope >= 1.9, slope
    assert r_squared >= 0.999, r_squared


def test_approx_error_second_order():
    def norm(eps):
        p = params_for(1.0 + eps)
        return max(
            abs(qg.approx_qgaussian(x, t, p) - qg.exact_qgaussian(x, t, p))
            for x in (0.4, 1.2)
            for t in (0.0, 0.7)
        )

    fit = verify.order_of_convergence(norm, (1e-2, 1e-3, 1e-4, 1e-5))
    assert fit.slope >= 1.9, fit


def test_ratio_band_at_desk_scale():
    # frozen band: the eps = 1e-3, m = beta = 1, t = 0 sweep peaks at
    # |ratio - 1| = 0.0127 at the x = 4 end of the default range
    from qwave.scenarios import run_gaussian_sweep

    rows = run_gaussian_sweep(params_for(1.001))
    worst = float(np.abs(np.asarray(rows.columns["ratio"]) - 1.0).max())
    assert worst <= 0.1
    assert 0.0125 <= worst <= 0.0130, worst


@pytest.mark.parametrize("t", [0.7, 3.0])
@pytest.mark.parametrize("q", [1.001, 0.999, 1.3])
def test_ratio_matches_scalar_packets(q, t):
    # the kernel on numpy arrays (a sweep's) and ratio_gaussian at each float
    p = params_for(q)
    xs = np.linspace(-4.0, 4.0, 81)
    with np.errstate(all="ignore"):
        whole = qcore._ratio(*qg.ratio_terms(xs, t, p), p.q - 1.0, qcore._on_arrays(np))
    for x, r in zip(xs.tolist(), whole.tolist()):
        want = abs(qg.approx_qgaussian(x, t, p)) / abs(qg.exact_qgaussian(x, t, p))
        for got in (r, qg.ratio_gaussian(x, t, p)):
            assert abs(got - want) <= 1e-13 * want, x


def test_approx_terms_refuse_amplitude_on_branch_cut():
    # at t = 0 the packet is real, and at q = 0.5, x = 1.5 its first-order
    # amplitude 1 + c is -1.390625: psi^q has no real continuation there
    p = params_for(0.5)
    c, _ = qg.first_order_parts(1.5, 0.0, p)
    assert 1.0 + c == -1.390625
    with pytest.raises(BranchCutViolation, match="first-order amplitude"):
        qg.gaussian_terms(1.5, 0.0, p, "approx")


def test_unknown_family_rejected():
    with pytest.raises(ValueError):
        qg.gaussian_terms(0.0, 0.0, params_for(1.1), family="bogus")
    # also when the caller passes the coefficients of a family
    coeffs = qg.terms_coeffs(0.0, params_for(1.1), "exact")
    with pytest.raises(ValueError):
        qg.gaussian_terms(0.0, 0.0, params_for(1.1), family="bogus", coeffs=coeffs)


@pytest.mark.parametrize("q", [1.001, 0.7])
def test_sets_passed_in_give_the_same_bits(q):
    # a caller that computes the sets of t once gets the values of a call
    # that computes them itself, to the last bit
    p = params_for(q)
    for t in (0.0, 0.8):
        jets = qg._coeff_jets(t, p)
        coeffs = {family: qg.terms_coeffs(t, p, family) for family in ("exact", "approx")}
        for x in (-1.3, 0.0, 0.9):
            assert qg.wavefunction_jet(x, t, p, jets) == qg.wavefunction_jet(x, t, p)
            for family, given in coeffs.items():
                assert qg.gaussian_terms(x, t, p, family, given) == qg.gaussian_terms(x, t, p, family)


def test_one_verify_pass_computes_each_coefficient_set_once(monkeypatch):
    # a, b, c and their rates depend on t (and q) but not on x: the gaussian
    # measures of one pass need 87 distinct sets (505 calls when each grid
    # point computed its own)
    calls = []
    shipped = qg._coeffs_and_rates
    monkeypatch.setattr(qg, "_coeffs_and_rates", lambda *a: calls.append(a) or shipped(*a))
    for entry in checks.REGISTRY.values():
        entry.measure()
    assert len(calls) <= 87, len(calls)


def test_gaussian_measures_carry_no_state():
    # each gaussian measure alone (in reverse order, so each _r2 fits afresh)
    # reads the bits it reads in a full pass in registry order
    gaussian = [key for key, entry in checks.REGISTRY.items() if entry.suite == "gaussian"]
    alone = {key: float(checks.REGISTRY[key].measure()).hex() for key in reversed(gaussian)}
    in_order = {key: float(entry.measure()).hex() for key, entry in checks.REGISTRY.items()}
    assert alone == {key: in_order[key] for key in gaussian}
