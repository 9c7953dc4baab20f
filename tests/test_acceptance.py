"""Release gate: the headline guarantees, one test per criterion.

Each test measures exactly what it promises at the pinned tolerance,
prints a single verdict line (shown under -s and in failure reports),
and asserts both the bound and, where one is stated, the runtime
budget.  Finer-grained diagnostics live in the per-module suites; a
failure here means a shipped guarantee is broken, not that a detail
drifted.
"""

import math
import subprocess
import sys
import time
from functools import partial

import numpy as np

from qwave import checks
from qwave import kleingordon as kg
from qwave import qgaussian as qg
from qwave import scenarios
from qwave import separation as sep
from qwave import verify


def _gate(label: str, detail: str, ok: bool) -> None:
    print(f"criterion {label}: {detail} [{'PASS' if ok else 'FAIL'}]")
    assert ok, f"criterion {label}: {detail}"


def test_criterion_1_exact_planewave_residual():
    start = time.perf_counter()
    xs = np.linspace(-8.0, 8.0, 2001)
    ts = np.linspace(0.0, 5.0, 11)
    points = checks.grid(xs, ts)
    worst, tol = 0.0, math.inf
    for q in (1.0 - 1e-3, 1.0 + 1e-3, 1.1):
        worst = max(worst, checks.exact_residual(checks._PW_TERMS, points, q))
        tol = min(tol, checks.REGISTRY[f"planewave.exact_residual_q{q:g}"].tolerance)
    elapsed = time.perf_counter() - start
    _gate(
        "1 exact plane-wave residual",
        f"max rel residual {worst:.3e} (tol {tol:g}) on 2001x11 grid, "
        f"{elapsed:.2f} s (budget 1 s)",
        worst <= tol and elapsed < 1.0,
    )


def test_criterion_2_first_order_convergence():
    start = time.perf_counter()
    xs = np.linspace(-6.0, 6.0, 13)
    ts = np.linspace(0.0, 3.0, 5)
    f_ts = np.linspace(0.0, 4.0, 17)
    E, P = 0.845, 1.3
    points = checks.grid(xs, ts)
    equations = {  # key: the equation's terms, and its points
        "planewave.approx_order": (checks._PW_TERMS, points),
        "separation.f_order": (partial(sep.f_terms, E=E), f_ts),
        "separation.g_order": (partial(sep.g_terms, p=P), xs),
        "kleingordon.approx_order": (checks._KG_TERMS, points),
    }
    fits = {key: verify.order_of_convergence(partial(checks.approx_norm, terms=terms, points=pts))
            for key, (terms, pts) in equations.items()}
    elapsed = time.perf_counter() - start
    detail = ", ".join(
        f"{key} slope {fit.slope:.3f} r2 {fit.r_squared:.5f}" for key, fit in fits.items()
    )
    ok = all(
        fit.slope >= checks.REGISTRY[key].tolerance
        and fit.r_squared >= checks.REGISTRY[key + "_r2"].tolerance
        for key, fit in fits.items()
    )
    _gate(
        "2 first-order residual convergence",
        f"{detail}, {elapsed:.2f} s (budget 5 s)",
        ok and elapsed < 5.0,
    )


def test_criterion_3_closed_forms_vs_oracles():
    start = time.perf_counter()
    # on the registry's waves, |u| <= 9.7 (plane wave) and 8.9 (Klein-Gordon)
    xs7, ts3 = np.linspace(-5.5, 5.5, 7), (0.0, 1.5, 3.0)
    sep_ts, sep_xs = np.linspace(0.0, 4.0, 9), np.linspace(-6.0, 6.0, 9)
    E, P = 0.845, 1.3

    # Part A: each shipped first-order form is the q-jet of its exact form,
    # measured by FD in q at q = 1.
    worst_coeff = max(
        checks.pw_approx_jet_fd(checks.grid(xs7, ts3)),
        checks.kg_qF_jet(checks.grid(xs7, ts3)),
        checks.sep_jet_gap(sep.exact_f, sep.approx_f, sep_ts, E),
        checks.sep_jet_gap(sep.exact_f_q, sep.approx_f_q, sep_ts, E),
        checks.sep_jet_gap(sep.exact_g, sep.approx_g, sep_xs, P),
        checks.sep_jet_gap(sep.exact_g_q, sep.approx_g_q, sep_xs, P),
    )

    # Part B: each closed-form x/t derivative of a first-order wave
    # against Richardson FD at fixed q, stepping on the wave's length scale.
    q, xs8, ts2 = 1.05, np.linspace(-5.5, 5.5, 8), (0.4, 2.1)
    worst_deriv = max(
        checks.pw_d2x_fd(q, xs8, ts2),
        checks.pw_dt_q_fd(q, xs8, ts2),
        checks.kg_d2_fd(q, xs8, ts2),
        checks.sep_fd(sep.dt_approx_f_q, sep.approx_f_q, np.linspace(0.0, 4.0, 8), E, 1, q),
        checks.sep_fd(sep.d2x_approx_g, sep.approx_g, np.linspace(-6.0, 6.0, 8), P, 2, q),
    )

    elapsed = time.perf_counter() - start
    _gate(
        "3 closed forms vs FD oracles",
        f"coefficients vs FD-in-q {worst_coeff:.3e} (tol 1e-6), "
        f"derivatives vs Richardson FD {worst_deriv:.3e} (tol 1e-8), "
        f"{elapsed:.2f} s (budget 5 s)",
        worst_coeff <= 1e-6 and worst_deriv <= 1e-8 and elapsed < 5.0,
    )


def test_criterion_4_figure_bands():
    start = time.perf_counter()

    def electron(qm1):
        scn = scenarios.ParticleScenario.from_mev(
            "electron", 1.0, qm1, x_range=(-1.0, 1.0, 401)
        )
        return scenarios.run_ratio_sweep(scn)

    rows9 = np.asarray(electron(1e-9).columns["R"])  # one block: an array.array
    rows12 = np.asarray(electron(1e-12).columns["R"])
    worst9 = float(np.abs(rows9 - 1.0).max())
    closer = bool((np.abs(rows12 - 1.0) <= np.abs(rows9 - 1.0)).all())
    params = qg.GaussianParams(m=1.0, beta=1.0, q=1.0 + 1e-3)
    ratios = np.asarray(scenarios.run_gaussian_sweep(params).columns["ratio"])
    lo, hi = float(ratios.min()), float(ratios.max())
    elapsed = time.perf_counter() - start
    _gate(
        "4 ratio figure bands",
        f"electron q-1=1e-9 max|R-1| {worst9:.3e} (tol 1e-6), "
        f"q-1=1e-12 pointwise closer: {closer}, "
        f"packet ratio range [{lo:.4f}, {hi:.4f}] (band [0.9, 1.1]), "
        f"{elapsed:.2f} s (budget 2 s)",
        worst9 <= 1e-6
        and closer
        and 0.9 <= lo
        and hi <= 1.1
        and elapsed < 2.0,
    )


def test_criterion_5_gaussian_jet_authority():
    worst = checks.qg_jet_authority(np.linspace(-3.0, 3.0, 25), (0.0, 0.4, 1.1, 2.0))
    c0 = checks.REGISTRY["gaussian.c_at_zero"].measure()
    psi00 = checks.REGISTRY["gaussian.psi_origin"].measure()
    _gate(
        "5 packet jet vs closed forms",
        f"jet mismatch {worst:.3e} (tol 1e-11), |c(0)| {c0:.1e} and "
        f"|psi(0,0)-1| {psi00:.1e} (tol 1e-13)",
        worst <= 1e-11 and c0 <= 1e-13 and psi00 <= 1e-13,
    )


def test_criterion_6_kg_dispersion():
    k, m = 1.1, 1.0
    on = kg.KGWave.on_shell(k=k, m=m)
    off = kg.KGWave(p=k, E=1.01 * kg.dispersion_omega(k, m), m=m)
    xs = np.linspace(-4.0, 4.0, 41)
    points = checks.grid(xs, np.linspace(0.0, 3.0, 9))

    def rel(wave, q):
        return checks.exact_residual(partial(kg.kg_terms, w=wave), points, q)

    qs = (0.999, 1.001, 1.1)
    worst_on = max(rel(on, q) for q in qs)
    floor_off = min(rel(off, q) for q in qs)
    sensitivity = min(rel(off, q) / max(rel(on, q), 1e-300) for q in qs)
    _gate(
        "6 dispersion gate",
        f"on-shell max rel {worst_on:.3e} (tol 1e-10), off-shell floor "
        f"{floor_off:.3e} (> 1e-10), sensitivity {sensitivity:.1e}x (>= 1e4x)",
        worst_on <= 1e-10 and floor_off > 1e-10 and sensitivity >= 1e4,
    )


def test_criterion_7_precision_floor():
    import mpmath as mp

    from qwave import qcore

    q = 1.0 + 1e-12
    pcs = [
        scenarios.momentum_from_energy(
            scenarios.ParticleScenario.from_mev(species, 1.0, 1e-12)
        )
        for species in ("electron", "proton")
    ]
    worst = 0.0
    with mp.workdps(50):
        one_minus_q = mp.mpf(1.0) - mp.mpf(q)  # the exact double offset
        for pc in pcs:
            for x in np.linspace(-1.0, 1.0, 21):
                u = pc * x
                got = qcore.phase_pow(u, q, 1.0)  # the exact plane wave at phase u
                w = one_minus_q * mp.mpc(0, u)
                oracle = mp.exp(mp.log(1 + w) / one_minus_q)
                err = abs(mp.mpc(got) - oracle) / abs(oracle)
                worst = max(worst, float(err))
    _gate(
        "7 cancellation floor at q-1 = 1e-12",
        f"max rel error vs 50-digit oracle {worst:.3e} (tol 1e-13)",
        worst <= 1e-13,
    )


def test_criterion_8_byte_determinism():
    cmd = [
        sys.executable, "-m", "qwave", "ratio",
        "--points", "301", "--q-minus-1", "1e-9",
    ]

    def run_once():
        res = subprocess.run(cmd, capture_output=True)
        assert res.returncode == 0, res.stderr.decode()
        return res.stdout

    first = run_once()
    repeat = run_once()
    _gate(
        "8 byte determinism",
        f"{len(first)} output bytes, repeat identical: {first == repeat}",
        len(first) > 0 and first == repeat,
    )
