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
"""

import __future__
import importlib
import inspect

import pytest

from qwave import checks

MUTATIONS = [
    # name, target, source snippet, replacement, checks that must fail
    ("coeffs_exact_c", "qgaussian.coeffs_exact",
     "c=c)", "c=c * (1.0 + 1e-6))",
     {"gaussian.exact_residual"}),
    ("rates_exact_c_t", "qgaussian.rates_exact",
     "GaussianCoeffSet(*_rates(q, D, a, b, kq, cmath.exp(M)))",
     "GaussianCoeffSet(*(r * s for r, s in zip(_rates(q, D, a, b, kq, cmath.exp(M)),"
     " (1.0, 1.0, 1.001))))",
     {"gaussian.exact_residual"}),
    ("rates_first_order_a2_t", "qgaussian.rates_first_order",
     "(jet.v0, jet.v1)", "(jet.v0, jet.v1 * (1.001 if jet is jets[0] else 1.0))",
     {"gaussian.approx_order", "gaussian.approx_order_r2"}),
    ("coeffs_first_order_c2", "qgaussian.coeffs_first_order",
     "c2=c2)", "c2=1.001 * c2)",
     {"gaussian.coeff_jets", "gaussian.jet_authority", "gaussian.coeff_fd"}),
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
    ("approx_psi_q_iu", "planewave.approx_psi_q",
     "(1j * u - u * u / 2.0)", "(1.001j * u - u * u / 2.0)",
     {"planewave.psi_q_jet", "planewave.approx_jet_fd", "planewave.dt_approx_q_fd"}),
    ("first_order_pow_s", "qcore.first_order_pow",
     "cmath.exp(s * (", "cmath.exp(1.001 * s * (",
     {"planewave.approx_order", "planewave.approx_order_r2", "kleingordon.approx_order",
      "kleingordon.approx_order_r2", "gaussian.approx_order", "gaussian.approx_order_r2",
      "separation.f_order", "separation.f_order_r2", "separation.g_order",
      "separation.g_order_r2"}),
    ("first_order_pow_log1p", "qcore.first_order_pow",
     "complex_log1p(c)", "1.001 * complex_log1p(c)",
     {"gaussian.approx_order", "gaussian.approx_order_r2", "separation.f_order",
      "separation.f_order_r2", "separation.g_order", "separation.g_order_r2"}),
    ("log1p_over_w_series", "qcore._log1p_over_w_series",
     "return acc", "return acc + 1e-4 * w",
     {"planewave.approx_jet_fd", "separation.f_jet", "separation.f_q_jet"}),
]


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
