"""Finite-difference oracles, Richardson extrapolation, and convergence fits.

Everything here is deliberately independent of the closed forms implemented
by the wave modules: fourth-order central stencils differentiate black-box
callables, Richardson extrapolation sharpens them, and least-squares fits
of log(residual norm) against log(q - 1) certify the order of a
first-order approximant (slope ~2 means the linear coefficient of the
residual vanishes).  The fits are closed-form least squares summed with
math.fsum, so verification runs without numpy.
Residuals are reduced in one place, qwave.checks.max_rel.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

from .errors import DegenerateFit, StencilEvaluationFailed
from .qcore import Frozen, QJet

# eps ladder for order fits: five points spanning exactly two decades.
DEFAULT_EPSILONS = (1e-2, 10 ** -2.5, 1e-3, 10 ** -3.5, 1e-4)


class FDScheme(Frozen):
    """Fourth-order central finite-difference scheme: base step and the
    number of Richardson halvings (at least one)."""

    __slots__ = ("step", "richardson_levels")

    def __init__(self, step: float, richardson_levels: int = 1):
        self._set(step, richardson_levels)
        if not (step > 0 and math.isfinite(step)):
            raise ValueError(f"step must be positive and finite, got {step!r}")
        if richardson_levels < 1:
            raise ValueError("richardson_levels must be >= 1")


def default_scheme(char_scale: float = 1.0, deriv: int = 1) -> FDScheme:
    """Reasonable scheme for a function varying on the given scale.

    Second derivatives need a much larger step than first ones: round-off
    grows like eps/h**2, so the 1e-5 step that is right for d/dx would lose
    ten digits on d2/dx2.
    """
    step = 1e-5 if deriv == 1 else 5e-3
    return FDScheme(step=step * char_scale)


# Scheme for d/dq of expansion coefficients at q = 1; deep extrapolation
# because some coefficients have fast-growing higher q-derivatives.
Q_DERIV_SCHEME = FDScheme(step=1e-3, richardson_levels=2)


def _eval(fn: Callable[[float], complex], x: float) -> complex:
    try:
        y = complex(fn(x))
    except Exception as exc:
        raise StencilEvaluationFailed(f"stencil point {x!r} failed: {exc}") from exc
    if not (math.isfinite(y.real) and math.isfinite(y.imag)):
        raise StencilEvaluationFailed(f"stencil point {x!r} returned non-finite {y!r}")
    return y


def _stencil(f, at: float, h: float, deriv: int) -> complex:
    if deriv == 1:
        return (-f(at + 2 * h) + 8.0 * f(at + h) - 8.0 * f(at - h) + f(at - 2 * h)) / (12.0 * h)
    if deriv == 2:
        return (
            -f(at + 2 * h) + 16.0 * f(at + h) - 30.0 * f(at) + 16.0 * f(at - h) - f(at - 2 * h)
        ) / (12.0 * h * h)
    raise ValueError(f"deriv must be 1 or 2, got {deriv!r}")


def fd_derivative(
    fn: Callable[[float], complex],
    at: float,
    scheme: FDScheme,
    deriv: int = 1,
) -> complex:
    """Derivative of fn at a point: the diagonal of a Richardson triangle
    built from step halvings.  fn is evaluated once per distinct point, as
    the halved step's at +- 2 (h/2) are the points at +- h, bit for bit."""
    values: dict[float, complex] = {}

    def f(x: float) -> complex:
        if x not in values:
            values[x] = _eval(fn, x)
        return values[x]

    h, levels = scheme.step, scheme.richardson_levels
    rows = [[_stencil(f, at, h, deriv)]]
    for j in range(1, levels + 1):
        row = [_stencil(f, at, h / 2.0 ** j, deriv)]
        for k in range(1, j + 1):
            # the fourth-order central stencils have even error series: h^4, h^6, ...
            fac = 2.0 ** (4 + 2 * (k - 1))
            row.append(row[k - 1] + (row[k - 1] - rows[j - 1][k - 1]) / (fac - 1.0))
        rows.append(row)
    return rows[levels][levels]


def jet_from_fd(fn_of_q: Callable[[float], complex]):
    """First-order jet (f(1), df/dq at 1) measured by finite differences
    with Q_DERIV_SCHEME."""
    return QJet(complex(fn_of_q(1.0)), fd_derivative(fn_of_q, 1.0, Q_DERIV_SCHEME, deriv=1))


class OrderFit(Frozen):
    """Least-squares fit of log(residual norm) against log(eps)."""

    __slots__ = ("epsilons", "residual_norms", "slope", "r_squared")

    def __init__(self, epsilons: tuple, residual_norms: tuple, slope: float, r_squared: float):
        self._set(epsilons, residual_norms, slope, r_squared)


def order_of_convergence(
    residual_norm_fn: Callable[[float], float],
    epsilons: Sequence[float] = DEFAULT_EPSILONS,
) -> OrderFit:
    """Fit the convergence order of a residual norm as eps -> 0.

    Requires at least three strictly decreasing positive epsilons spanning
    two decades or more.  An identically zero residual is reported with an
    infinite slope; mixed zero and nonzero norms raise DegenerateFit.
    """
    eps = tuple(float(e) for e in epsilons)
    if len(eps) < 3:
        raise ValueError("need at least 3 epsilons for an order fit")
    if any(e <= 0 for e in eps) or any(a <= b for a, b in zip(eps, eps[1:])):
        raise ValueError("epsilons must be positive and strictly decreasing")
    if eps[0] / eps[-1] < 100.0 * (1.0 - 1e-12):
        raise ValueError("epsilons must span at least two decades")
    norms = tuple(float(residual_norm_fn(e)) for e in eps)
    if any(n < 0 or not math.isfinite(n) for n in norms):
        raise DegenerateFit(f"residual norms must be finite and >= 0, got {norms!r}")
    if all(n == 0.0 for n in norms):
        return OrderFit(eps, norms, float("inf"), 1.0)
    if any(n == 0.0 for n in norms):
        raise DegenerateFit(f"mixed zero and nonzero residual norms: {norms!r}")
    # closed-form least squares of y = slope * x + intercept, x = log eps, y = log norm
    logx = [math.log(e) for e in eps]
    logy = [math.log(n) for n in norms]
    mean_x = math.fsum(logx) / len(eps)
    mean_y = math.fsum(logy) / len(eps)
    dx = [x - mean_x for x in logx]
    slope = math.fsum(d * y for d, y in zip(dx, logy)) / math.fsum(d * d for d in dx)
    intercept = mean_y - slope * mean_x
    ss_tot = math.fsum((y - mean_y) ** 2 for y in logy)
    ss_res = math.fsum((y - (slope * x + intercept)) ** 2 for x, y in zip(logx, logy))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return OrderFit(eps, norms, slope, r2)
