"""Spreading q-Gaussian packet: coefficient closed forms, their jets,
the first-order assembly, the closed-form equation terms, and the
gaussian checks that a patched formula must fail."""

import cmath
import math

import numpy as np
import pytest

from qwave import checks, cli
from qwave import qgaussian as qg
from qwave import verify
from qwave.errors import InvalidQ, NonFiniteInput

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


@pytest.mark.parametrize("fn, point", [
    (qg.coeffs_exact, (math.nan,)),
    (qg.wavefunction_jet, (math.inf, 0.0)),
    (qg.exact_qgaussian, (0.0, math.nan)),
    (qg.approx_qgaussian, (-math.inf, 0.0)),
])
def test_non_finite_point_is_refused(fn, point):
    with pytest.raises(NonFiniteInput):
        fn(*point, params_for(1.1))


def test_coefficients_at_t0():
    p = params_for(1.3, m=2.0, beta=0.5)
    cs = qg.coeffs_exact(0.0, p)
    assert cs.a == 2.0 * 1.3  # m q
    assert cs.b == 2.0  # 1/beta
    assert cs.c == 0.0
    split = qg.coeffs_first_order(0.0, p)
    assert (split.a1, split.a2) == (2.0, 2.0)
    assert (split.b1, split.b2) == (2.0, 0.0)
    assert (split.c1, split.c2) == (0.0, 0.0)


def test_packet_normalized_at_origin():
    for q in (0.999, 1.001, 1.1):
        assert qg.exact_qgaussian(0.0, 0.0, params_for(q)) == 1.0
        assert abs(qg.coeffs_exact(0.0, params_for(q)).c) == 0.0


def test_c_exact_at_q1_limit_form():
    # at q = 1: c = ln(D0)/2 - i hbar t / (2 m beta^2 D0), D0 = 1 + 2i hbar t
    for m, beta in ((1.0, 1.0), (2.0, 0.7)):
        for t in TS:
            c = qg.coeffs_exact(t, params_for(1.0, m=m, beta=beta)).c
            D0 = 1.0 + 2j * t
            closed = 0.5 * cmath.log(D0) - 1j * t / (2.0 * m * beta * beta * D0)
            assert abs(c - closed) <= 1e-14 * max(1.0, abs(closed))
            # and the q -> 1 approach is continuous through the expm1 pairing
            c_near = qg.coeffs_exact(t, params_for(1.0 + 1e-9, m=m, beta=beta)).c
            assert abs(c_near - closed) <= 1e-7 * max(1.0, abs(closed))


def test_coeff_jets_match_closed_splits():
    worst = checks.qg_coeff_jets(params_for(1.001, m=1.4, beta=0.8))
    assert worst <= 1e-11, worst


def test_coeff_splits_against_fd_in_q():
    for t in TS:
        split = qg.coeffs_first_order(t, params_for(1.0))
        picks = (
            (lambda cs: cs.a, split.a1, split.a2),
            (lambda cs: cs.b, split.b1, split.b2),
            (lambda cs: cs.c, split.c1, split.c2),
        )
        for pick, closed0, closed1 in picks:
            fd = verify.jet_from_fd(
                lambda q, t=t, pick=pick: pick(qg.coeffs_exact(t, params_for(q)))
            )
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
        j = qg.coeffs_first_order(t, p)
        G0 = j.a1 * x * x + j.b1 * x + j.c1
        G1 = j.a2 * x * x + j.b2 * x + j.c2
        squared = j.a1 * x * x + j.b1 * x * j.c1
        return (1.0 - (p.q - 1.0) * (G1 - 0.5 * squared * squared)) * cmath.exp(-G0)

    good = qg.approx_qgaussian(1.3, 0.0, p)
    assert abs(good - typo(1.3, 0.0)) > 1e-5 * abs(good)
    assert qg.approx_qgaussian(0.0, 0.0, p) == typo(0.0, 0.0)


def test_exact_packet_residual_fd_floor():
    # the exact packet solves its identity to rounding also at q the
    # registry leaves out: far from 1, and next to it
    worst = checks.qg_exact_residual((0.7, 1.0 + 1e-9))
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
    worst = float(np.abs(rows.values - 1.0).max())
    assert worst <= 0.1
    assert 0.0125 <= worst <= 0.0130, worst


@pytest.mark.parametrize("t", [0.7, 3.0])
@pytest.mark.parametrize("q", [1.001, 0.999, 1.3])
def test_ratio_matches_scalar_packets(q, t):
    p = params_for(q)
    xs = np.linspace(-4.0, 4.0, 81)
    for x, r in zip(xs.tolist(), qg.ratio_gaussian(xs, t, p).tolist()):
        want = abs(qg.approx_qgaussian(x, t, p)) / abs(qg.exact_qgaussian(x, t, p))
        assert abs(r - want) <= 1e-13 * want, x


def test_unknown_family_rejected():
    with pytest.raises(ValueError):
        qg.gaussian_terms(0.0, 0.0, params_for(1.1), family="bogus")


def scaled(fn, **factors):
    """fn with the named fields of its returned coefficient set scaled."""

    def patched(t, params):
        out = fn(t, params)
        return type(out)(*(getattr(out, f) * factors.get(f, 1.0) for f in out._fields))

    return patched


# One shipped formula patched per row, and the gaussian checks it must fail.
# A 0.1% error in the eps-coefficient of c_t (c2_t) fails no check: |c2_t|
# is only 0.04-0.07 at the approx_order probes.  test_approx_terms_match_fd
# catches it.
MUTATIONS = [
    ("coeffs_exact", {"c": 1.0 + 1e-6}, {"gaussian.exact_residual"}),
    ("rates_exact", {"c": 1.001}, {"gaussian.exact_residual"}),
    ("rates_first_order", {"a2": 1.001},
     {"gaussian.approx_order", "gaussian.approx_order_r2"}),
]


@pytest.mark.parametrize("target, factors, must_fail", MUTATIONS)
def test_patched_formula_fails_its_checks(monkeypatch, capsys, target, factors, must_fail):
    monkeypatch.setattr(qg, target, scaled(getattr(qg, target), **factors))
    assert cli.main(["verify", "--suite", "gaussian"]) == cli.EXIT_FAIL
    failed = {line.split()[0] for line in capsys.readouterr().out.splitlines()
              if " FAIL " in line}
    assert must_fail <= failed, failed
