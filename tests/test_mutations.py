"""Mutation table: one shipped formula edited per row, and the exact set of
verify checks that the edit must fail.

A row names the mutation, the function it edits ("module.function"), one
snippet of that function's source and its replacement.  The edited source
is compiled in the module's namespace and its code object is swapped into
the shipped function, so every caller sees the mutant, including the
checks that bound the function when the registry was built.  Then every
registry check is measured in-process, and the checks that fail must be
exactly the row's set: a check that stops failing, or starts failing, is
a change to what the suite can detect.

Mutants that no check catches are not rows.  One is known: the
eps-coefficient of c_t (c2_t of qgaussian.rates_first_order) scaled by
1.001, which is only 0.04-0.07 at the gaussian.approx_order probes
(test_qgaussian's test_approx_terms_match_fd catches it).

Every registry check fails under some row, or is in UNKILLED with the
reason no row fails it, so a new check comes with the row it kills.
"""

import __future__
import importlib
import inspect

import pytest

from qwave import checks

MUTATIONS = [
    # name, target, source snippet, replacement, checks that must fail
    ("coeffs_and_rates_c", "qgaussian._coeffs_and_rates",
     "(a, b, c), (k * a", "(a, b, c * (1.0 + 1e-6)), (k * a",
     {"gaussian.coeff_jets", "gaussian.exact_residual", "gaussian.jet_authority"}),
    ("coeffs_and_rates_c0", "qgaussian._coeffs_and_rates",
     "+ kq / D", "+ 1.000001 * kq / D",
     {"gaussian.c_at_zero", "gaussian.psi_origin", "gaussian.coeff_jets",
      "gaussian.exact_residual", "gaussian.jet_authority"}),
    ("coeffs_and_rates_c_t", "qgaussian._coeffs_and_rates",
     "1j * (1.0 - (q - 1.0) * kq) * eM / D + k * kq / D",
     "(1j * (1.0 - (q - 1.0) * kq) * eM / D + k * kq / D) * 1.001",
     {"gaussian.approx_order", "gaussian.approx_order_r2", "gaussian.exact_residual"}),
    ("coeffs_and_rates_D", "qgaussian._coeffs_and_rates",
     "1.0 + 1j * (q + 1.0) * t", "1.0 + 1.001j * (q + 1.0) * t",
     {"gaussian.approx_order", "gaussian.approx_order_r2", "gaussian.coeff_fd",
      "gaussian.coeff_jets", "gaussian.jet_authority"}),
    ("rates_first_order_a2_t", "qgaussian.rates_first_order",
     "(jet.v0, jet.v1)", "(jet.v0, jet.v1 * (1.001 if jet is jets[0] else 1.0))",
     {"gaussian.approx_order", "gaussian.approx_order_r2"}),
    ("coeffs_first_order_c2", "qgaussian.coeffs_first_order",
     "return (a1, a2), (b1, b2), (c1, c2)", "return (a1, a2), (b1, b2), (c1, 1.001 * c2)",
     {"gaussian.coeff_jets", "gaussian.jet_authority", "gaussian.coeff_fd"}),
    ("first_order_parts_G0sq", "qgaussian.first_order_parts",
     "0.5 * G0 * G0", "0.501 * G0 * G0",
     {"gaussian.jet_authority"}),
    ("approx_f_q_tau2", "separation.approx_f_q",
     "(q - 1.0) * tau * tau / 2.0", "1.001 * (q - 1.0) * tau * tau / 2.0",
     {"separation.dt_f_q_fd", "separation.f_q_jet"}),
    ("approx_g_q_i_xi", "separation.approx_g_q",
     "3.0 * (q - 1.0) / 4.0", "1.001 * 3.0 * (q - 1.0) / 4.0",
     {"separation.g_q_jet", "separation.pair_cancellation"}),
    ("d2x_approx_g_xi2", "separation.d2x_approx_g",
     "(1.0 - q) / 4.0 * xi * xi", "1.001 * (1.0 - q) / 4.0 * xi * xi",
     {"separation.d2x_g_fd", "separation.pair_cancellation"}),
    ("approx_g_xi2", "separation._g_correction",
     "(1j * xi + xi * xi)", "(1j * xi + 1.001 * xi * xi)",
     {"separation.g_jet", "separation.d2x_g_fd", "separation.g_order", "separation.g_order_r2"}),
    ("dt_approx_f_q_i_tau", "separation.dt_approx_f_q",
     "(q - 1.0) * 1j * tau", "(q - 1.0) * 1.001j * tau",
     {"separation.pair_cancellation", "separation.dt_f_q_fd"}),
    ("approx_f_i_tau", "separation.approx_f",
     "(1j * tau + tau * tau / 2.0)", "(1.001j * tau + tau * tau / 2.0)",
     {"separation.pair_cancellation", "separation.f_order", "separation.f_order_r2",
      "separation.f_jet"}),
    ("bracket_wave_2i", "planewave.bracket_wave",
     "2j * (q - 1.0) * u", "2.001j * (q - 1.0) * u",
     {"planewave.d2x_approx_fd", "planewave.dt_approx_q_fd", "kleingordon.qF_jet",
      "kleingordon.d2_approx_fd"}),
    ("approx_psi_c", "planewave.approx_psi",
     "(1.0 + c)", "(1.0 + 1.001 * c)",
     {"kleingordon.d2_approx_fd", "planewave.approx_error_order", "planewave.approx_jet_fd",
      "planewave.d2x_approx_fd", "gaussian.ratio_kernel"}),
    ("approx_psi_q_iu", "planewave.approx_psi_q",
     "(1j * u - u * u / 2.0)", "(1.001j * u - u * u / 2.0)",
     {"planewave.psi_q_jet", "planewave.approx_jet_fd", "planewave.dt_approx_q_fd"}),
    ("first_order_pow_s", "qcore.first_order_pow",
     "checked_exp(s * (", "checked_exp(1.001 * s * (",
     {"planewave.approx_order", "planewave.approx_order_r2", "kleingordon.approx_order",
      "kleingordon.approx_order_r2", "gaussian.approx_order", "gaussian.approx_order_r2",
      "separation.f_order", "separation.f_order_r2", "separation.g_order",
      "separation.g_order_r2"}),
    ("first_order_pow_log1p", "qcore.first_order_pow",
     "complex_log1p(c)", "1.001 * complex_log1p(c)",
     {"gaussian.approx_order", "gaussian.approx_order_r2", "separation.f_order",
      "separation.f_order_r2", "separation.g_order", "separation.g_order_r2"}),
    ("log1p_over_w", "qcore._log1p_over_w",
     "complex_log1p(w) / w", "complex_log1p(w) / w + 1e-4 * w",
     {"gaussian.ratio_kernel"}),
    ("q_pow_scale", "qcore.q_pow",
     "checked_exp(z * ", "checked_exp(1.001 * z * ",
     {"gaussian.ratio_kernel"}),
    ("phase_pow_modulus", "qcore.phase_pow",
     "ks * (log_modulus / y)", "1.001 * ks * (log_modulus / y)",
     {"kleingordon.exact_fd", "kleingordon.qF_jet", "planewave.approx_error_order",
      "planewave.approx_jet_fd", "planewave.exact_fd", "planewave.modulus_identity",
      "separation.exact_fd", "separation.f_jet", "separation.f_q_jet", "separation.g_jet",
      "separation.g_q_jet", "gaussian.ratio_kernel"}),
    ("phase_pow_argument", "qcore.phase_pow",
     "ks * (math.atan(y) / y)", "1.001 * ks * (math.atan(y) / y)",
     {"kleingordon.exact_fd", "kleingordon.qF_jet", "planewave.approx_error_order",
      "planewave.approx_jet_fd", "planewave.exact_fd", "separation.exact_fd",
      "separation.f_jet", "separation.f_q_jet", "separation.g_jet", "separation.g_q_jet"}),
    ("expm1_over_w", "qcore.stable_expm1_over_w",
     "complex_expm1(w) / w", "complex_expm1(w) / w + 1e-4 * w",
     {"gaussian.coeff_fd", "gaussian.exact_residual"}),
    ("ratio_packet", "qcore._ratio",
     "r = exp(", "r = 1.001 * exp(",
     {"gaussian.ratio_kernel"}),
    ("phase_ratio_near_half", "planewave._log_abs_1p_i_near",
     "0.5 * log1p(y * y)", "1.001 * 0.5 * log1p(y * y)",
     {"gaussian.ratio_kernel"}),
    ("log_abs_1p_near_half", "qcore._log_abs_1p_near",
     "0.5 * log1p(y * y)", "0.5005 * log1p(y * y)",
     {"gaussian.ratio_kernel"}),
]

_DISPERSION_ONLY = "sums two multiples of one computed value: it checks the dispersion relation only"
_BY_CONSTRUCTION = ("its addends are closed-form multiples of one exact factor, so they cancel by "
                    "construction; separation.exact_fd reads them as derivatives")

# Registry checks that no row fails, and why
UNKILLED = {
    "planewave.exact_residual_q0.999": _DISPERSION_ONLY,
    "planewave.exact_residual_q1.001": _DISPERSION_ONLY,
    "planewave.exact_residual_q1.1": _DISPERSION_ONLY,
    "separation.exact_residual_f": _BY_CONSTRUCTION,
    "separation.exact_residual_g": _BY_CONSTRUCTION,
    "kleingordon.exact_residual_q0.999": _DISPERSION_ONLY,
    "kleingordon.exact_residual_q1.1": _DISPERSION_ONLY,
    "kleingordon.dispersion_sensitivity": "tests the test setup (an off-shell wave), "
                                          "not a shipped formula",
    "separation.product_not_planewave": "tests the test setup (f g is not the plane wave), "
                                        "not a shipped formula",
}


def _mutant_code(fn, old: str, new: str):
    """The code object of fn's source with the one occurrence of old replaced."""
    source = inspect.getsource(fn)
    assert source.count(old) == 1, f"{old!r} is not one snippet of {fn.__qualname__}"
    namespace = dict(fn.__globals__)
    exec(compile(source.replace(old, new), fn.__code__.co_filename, "exec",
                 flags=__future__.annotations.compiler_flag, dont_inherit=True), namespace)
    return namespace[fn.__name__].__code__


def _failing_checks() -> set[str]:
    failed = set()
    for key, entry in checks.REGISTRY.items():  # registry order: each _r2 reuses its slope's fit
        value = entry.measure()
        if not (value <= entry.tolerance if entry.sense == "le" else value >= entry.tolerance):
            failed.add(key)
    return failed


@pytest.mark.parametrize(
    "target, old, new, must_fail", [pytest.param(*row[1:], id=row[0]) for row in MUTATIONS]
)
def test_mutant_fails_exactly_its_checks(monkeypatch, target, old, new, must_fail):
    module, name = target.rsplit(".", 1)
    fn = getattr(importlib.import_module(f"qwave.{module}"), name)
    monkeypatch.setattr(fn, "__code__", _mutant_code(fn, old, new))
    assert _failing_checks() == must_fail


def test_every_check_fails_some_row_or_is_exempt():
    killed = set().union(*(row[-1] for row in MUTATIONS))
    assert set(checks.REGISTRY) - killed == UNKILLED.keys()
