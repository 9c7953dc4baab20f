"""The check registry: one declaration per numerical check of ``qwave verify``.

Each Check has a key ("suite.name"; the suite is the prefix), the claim it
certifies, a default tolerance, a sense ("le": measured <= tolerance, "ge":
measured >= tolerance) and measure(), which returns one float.  The @check
decorator declares a function as the measure of a check; REGISTRY holds the
checks in declaration order, which is the order ``qwave verify`` prints
them in.

A measure that the tests also take is public, a function of the points or
q that some caller varies, each parameter defaulting to the registry's
value, as in pw_d2x_fd(q, xs, ts, w).  The tests call it with their own
bounds instead of restating it, so each claim is measured by one piece of
code.

Two measures serve every equation, given as terms(pt, q=..., family=...),
its *_terms with the wave or eigenvalue bound by partial: exact_residual
(terms, points, q) and approx_norm(eps, terms, points).  The points are
grid(xs, ts), a separated factor's s values, or the packet's (x, t) pairs.

The repeated patterns are helpers: max_rel reduces (difference, scale)
pairs; fd_gap(closed, fn, ats, scale, deriv) gives the worst relative gap
of closed(a) against the Richardson FD of fn at a over ats, and pw_fd_gap
runs it along one axis of a plane wave's PhasePoint grid; approx_jet_gap
compares the FD-in-q jet of each exact form with the jet of its shipped
approximant, so the jet checks read every first-order coefficient from the
approx_* forms; and @order_fit turns one convergence fit of a residual
norm into a slope check and its _r2 fit-quality check.

A packet measure computes each coefficient set once per t, or once per
(t, q), never per x, and passes it in (cs, j, jets, coeffs of qgaussian);
no set outlives one measure call, so each measure reads the shipped code.
"""

from __future__ import annotations

import math
from functools import cache, partial
from typing import Callable, Iterable

from . import kleingordon as kg
from . import planewave as pw
from . import qcore
from . import qgaussian as qg
from . import separation as sep
from . import verify
from .scenarios import linspace


class Check(qcore.Frozen):
    """One registry entry; sense is "le" or "ge"."""

    __slots__ = ("key", "claim", "tolerance", "sense", "measure")

    def __init__(self, key: str, claim: str, tolerance: float, sense: str, measure: Callable):
        self._set(key, claim, tolerance, sense, measure)

    @property
    def suite(self) -> str:
        return self.key.partition(".")[0]


REGISTRY: dict[str, Check] = {}


def _register(*entries: Check) -> None:
    for entry in entries:
        if entry.key in REGISTRY:
            raise ValueError(f"duplicate check key {entry.key!r}")
        REGISTRY[entry.key] = entry


def check(key: str, claim: str, tolerance: float, sense: str = "le"):
    """Declare the decorated function as the measure of a check.

    check(...)(measure) declares a measure written as an expression.
    """

    def declare(measure: Callable[[], float]):
        _register(Check(key, claim, tolerance, sense, measure))
        return measure

    return declare


def order_fit(key: str, claim: str, per_fit: Callable[[], dict] = dict):
    """Declare the order fit of the decorated norm(eps) as two checks: the
    slope (>= 1.9, first order leaves O(eps^2)) and key_r2 (>= 0.999).

    One fit per run: the slope check fits and leaves the fit to the _r2
    check after it, which takes it away (or fits afresh if measured alone).
    per_fit() gives the keyword arguments of norm that eps leaves fixed, once per fit.
    """

    def declare(norm: Callable[..., float]):
        fit: list[verify.OrderFit] = []

        def slope() -> float:
            fit[:] = [verify.order_of_convergence(partial(norm, **per_fit()))]
            return fit[0].slope

        def r_squared() -> float:
            fitted = fit.pop() if fit else verify.order_of_convergence(partial(norm, **per_fit()))
            return fitted.r_squared

        _register(
            Check(key, claim, 1.9, "ge", slope),
            Check(key + "_r2", "order fit quality", 0.999, "ge", r_squared),
        )
        return norm

    return declare


# -- helpers ---------------------------------------------------------------


def max_rel(pairs: Iterable[tuple[float, float]]) -> float:
    """Worst d / s over (abs difference d, scale s) pairs; 0 / 0 counts as 0."""
    return max(d / s if s > 0 else (0.0 if d == 0 else math.inf) for d, s in pairs)


def residual_pair(terms) -> tuple[float, float]:
    """|sum of an equation's addends| and the largest addend, for max_rel."""
    return abs(sum(terms)), max(map(abs, terms))


def grid(xs, ts) -> tuple[pw.PhasePoint, ...]:
    """The PhasePoints of xs x ts, x-major."""
    return tuple(pw.PhasePoint(x, t) for x in xs for t in ts)


def exact_residual(terms, points, q: float) -> float:
    """Exact solution in its equation, given by its addends terms(pt, q=...,
    family=...): the worst |residual| over its largest addend, point by point."""
    return max_rel(residual_pair(terms(pt, q=q, family="exact")) for pt in points)


def approx_norm(eps: float, terms, points) -> float:
    """Largest |residual| of the first-order solution at q = 1 + eps, in the
    equation given by its addends terms, over the points."""
    return max(abs(sum(terms(pt, q=1.0 + eps, family="approx"))) for pt in points)


def fd_gap(closed, fn, ats, scale: float, deriv: int) -> float:
    """Worst |closed(a) - FD of fn at a| / |closed(a)| over ats: a closed-form
    x or t derivative of order deriv against Richardson FD, stepping as
    verify.default_scheme does for a function varying on the length scale."""
    scheme = verify.default_scheme(scale, deriv=deriv)

    def pair(at):
        value = closed(at)
        return abs(value - verify.fd_derivative(fn, at, scheme, deriv=deriv)), abs(value)

    return max_rel(map(pair, ats))


def pw_fd_gap(closed, fn, axis: str, xs, ts, w: pw.PlaneWave, deriv: int) -> float:
    """fd_gap of closed(pt) against the FD of fn(pt) over the PhasePoints of
    xs x ts: axis "x" in x at each t, on the length 1/p, or axis "t" in t at
    each x, on the time 1/E."""
    if axis == "x":
        return max(fd_gap(lambda x: closed(pw.PhasePoint(x, t)), lambda x: fn(pw.PhasePoint(x, t)),
                          xs, 1.0 / w.p, deriv) for t in ts)
    return max(fd_gap(lambda t: closed(pw.PhasePoint(x, t)), lambda t: fn(pw.PhasePoint(x, t)),
                      ts, 1.0 / w.E, deriv) for x in xs)


def approx_jet(approx: Callable[[float], complex]) -> qcore.QJet:
    """The q-jet (approx(1), approx(2) - approx(1)) of an approximant given as
    a function of q, exact because every approx_* is linear in q."""
    v0 = approx(1.0)
    return qcore.QJet(v0, approx(2.0) - v0)


def approx_jet_gap(pairs) -> float:
    """Worst gap of the FD-in-q jet of each exact form against the jet of its
    approximant.  pairs are (exact fn of q, approx fn of q); each gap is
    relative to max(1, |approximant jet|)."""

    def pair(exact, approx):
        fd, jet = verify.jet_from_fd(exact), approx_jet(approx)
        gap = max(abs(fd.v0 - jet.v0), abs(fd.v1 - jet.v1))
        return gap, max(1.0, abs(jet.v0), abs(jet.v1))

    return max_rel(pair(*p) for p in pairs)


# -- planewave -------------------------------------------------------------

_PW_WAVE = pw.SchrodingerWave.free(p=1.3, m=1.0)
_PW_XS = linspace(-6.0, 6.0, 31)
_PW_TS = linspace(0.0, 3.0, 5)
_PW_POINTS = grid(_PW_XS, _PW_TS)
_PW_TERMS = partial(pw.schrodinger_terms, w=_PW_WAVE)

for _q in (0.999, 1.001, 1.1):
    check(
        f"planewave.exact_residual_q{_q:g}",
        f"exact addends cancel on E = p^2/2m, q={_q:g}",
        1e-10,
    )(partial(exact_residual, _PW_TERMS, _PW_POINTS, _q))


def pw_exact_fd(q: float, xs=_PW_XS[::3], ts=_PW_TS) -> float:
    """pw_fd_gap of the exact addends as derivatives of the exact wave: i dt
    psi^q in t, and (1/2m) d2x psi in x."""
    w = _PW_WAVE
    terms = partial(pw.schrodinger_terms, w=w, q=q, family="exact")
    return max(pw_fd_gap(lambda pt: terms(pt)[0] / 1j, partial(pw.exact_psi_q, w=w, q=q), "t",
                         xs, ts, w, 1),
               pw_fd_gap(lambda pt: 2.0 * w.m * terms(pt)[1], partial(pw.exact_psi, w=w, q=q), "x",
                         xs, ts, w, 2))


check("planewave.exact_fd", "exact addends are FD derivatives of the exact wave, q=1.1", 1e-8)(
    partial(pw_exact_fd, 1.1)
)


order_fit("planewave.approx_order", "approximant inserted in the full equation leaves O(eps^2)")(
    partial(approx_norm, terms=_PW_TERMS, points=grid(_PW_XS[::2], _PW_TS))
)


def pw_error_norm(eps: float, points=grid(_PW_XS[::2], _PW_TS)) -> float:
    """Largest |approx_psi - exact_psi| at q = 1 + eps."""
    q = 1.0 + eps
    return max(abs(pw.approx_psi(pt, _PW_WAVE, q) - pw.exact_psi(pt, _PW_WAVE, q)) for pt in points)


@check("planewave.approx_error_order", "approx_psi - exact_psi shrinks as eps^2", 1.9, "ge")
def _pw_error_order() -> float:
    return verify.order_of_convergence(pw_error_norm, (1e-2, 1e-3, 1e-4, 1e-5)).slope


@check("planewave.modulus_identity", "|exact_psi|^2 = [1+(1-q)^2 u^2]^{1/(1-q)}", 1e-12)
def pw_modulus_identity(q: float = 1.37, points=_PW_POINTS) -> float:
    """Worst relative gap of |exact_psi|^2 against its closed form."""

    def pair(pt):
        u = pw.phase(pt, _PW_WAVE)
        closed = math.exp(math.log1p((1.0 - q) ** 2 * u * u) / (1.0 - q))
        return abs(abs(pw.exact_psi(pt, _PW_WAVE, q)) ** 2 - closed), abs(closed)

    return max_rel(map(pair, points))


@check(
    "planewave.psi_q_jet",
    "jet of psi^q reproduces the expansion coefficient of approx_psi_q",
    1e-12,
)
def pw_psi_q_jet(points=_PW_POINTS) -> float:
    """Worst gap of the jet of psi^q against the jet of approx_psi_q at the PhasePoints."""

    def pair(pt):
        # psi^q = exp(q * iu * S(w)); build the exponent jet directly,
        # jet_ln of e^{iu} would lose the winding for |u| > pi
        u = pw.phase(pt, _PW_WAVE)
        exponent = qcore.QJet(1.0, 1.0) * (
            qcore.as_jet(1j * u) * qcore.log1p_over_w_jet(-1j * u)
        )
        closed = approx_jet(partial(pw.approx_psi_q, pt, _PW_WAVE)).v1
        return abs(qcore.jet_exp(exponent).v1 - closed), max(1.0, abs(closed))

    return max_rel(pair(pt) for pt in points)


@check("planewave.approx_jet_fd", "approx_psi, approx_psi_q are q-jets of the exact forms", 1e-6)
def pw_approx_jet_fd(points=_PW_POINTS[::3]) -> float:
    """approx_jet_gap of approx_psi and approx_psi_q at the PhasePoints."""
    return approx_jet_gap(
        (partial(exact, pt, _PW_WAVE), partial(approx, pt, _PW_WAVE))
        for pt in points
        for exact, approx in ((pw.exact_psi, pw.approx_psi), (pw.exact_psi_q, pw.approx_psi_q))
    )


@check("planewave.d2x_approx_fd", "closed-form d2x of the approximant against FD", 1e-8)
def pw_d2x_fd(
    q: float = 1.02, xs=_PW_XS[::3], ts=_PW_TS, w: pw.PlaneWave = _PW_WAVE
) -> float:
    """pw_fd_gap of d2x_approx_psi of the wave w, in x."""
    return pw_fd_gap(partial(pw.d2x_approx_psi, w=w, q=q), partial(pw.approx_psi, w=w, q=q), "x",
                     xs, ts, w, 2)


@check(
    "planewave.dt_approx_q_fd",
    "closed-form dt of the approximant's q-th power against FD",
    1e-8,
)
def pw_dt_q_fd(q: float = 1.02, xs=_PW_XS[::3], ts=_PW_TS) -> float:
    """pw_fd_gap of dt_approx_psi_q, in t."""
    w = _PW_WAVE
    return pw_fd_gap(partial(pw.dt_approx_psi_q, w=w, q=q), partial(pw.approx_psi_q, w=w, q=q), "t",
                     xs, ts, w, 1)


# -- separation ------------------------------------------------------------

_SEP_E = 0.845
_SEP_P = 1.3
_SEP_TS = linspace(0.0, 4.0, 17)
_SEP_XS = linspace(-6.0, 6.0, 17)
_PAIR_EPSILONS = (1e-3, 1e-6, 1e-9)


# each factor's equation, its terms with the eigenvalue bound, on its grid of s (t or x)
_SEP_FACTORS = (("f", partial(sep.f_terms, E=_SEP_E), _SEP_TS),
                ("g", partial(sep.g_terms, p=_SEP_P), _SEP_XS))

for _name, _terms, _points in _SEP_FACTORS:
    check(f"separation.exact_residual_{_name}",
          f"exact addends of {_name} cancel by construction (exact_fd reads them), q=1.1",
          1e-10)(partial(exact_residual, _terms, _points, 1.1))


def sep_fd(closed, fn, grid, k: float, deriv: int, q: float) -> float:
    """fd_gap of closed(s, k, q) against the FD of fn(s, k, q) over s in grid,
    on the scale 1/k."""
    return fd_gap(lambda s: closed(s, k, q), lambda s: fn(s, k, q), grid, 1.0 / k, deriv)


def sep_exact_fd(q: float, ts=_SEP_TS[::2], xs=_SEP_XS[::2]) -> float:
    """sep_fd of the exact addends as derivatives of the exact factors:
    i dt f^q in t, and -(1/2) d2x g in x."""
    return max(
        sep_fd(lambda t, E, q: sep.f_terms(t, E, q, family="exact")[0] / 1j, sep.exact_f_q,
               ts, _SEP_E, 1, q),
        sep_fd(lambda x, p, q: -2.0 * sep.g_terms(x, p, q, family="exact")[0], sep.exact_g,
               xs, _SEP_P, 2, q),
    )


check("separation.exact_fd", "exact addends are FD derivatives of the exact f and g, q=1.1",
      1e-8)(partial(sep_exact_fd, 1.1))


@check(
    "separation.pair_cancellation",
    "truncated pairs for f and g cancel identically at lam = p^2/2",
    1e-12,
)
def sep_pair_cancellation() -> float:
    """Worst residual_pair of the truncated pairs (i dt_approx_f_q, -E approx_f)
    and (-(1/2) d2x_approx_g, -(p^2/2) approx_g_q)."""
    E, p, lam = _SEP_E, _SEP_P, _SEP_P * _SEP_P / 2.0
    return max_rel(
        residual_pair(terms)
        for q in (1.0 + eps for eps in _PAIR_EPSILONS)
        for terms in (*((1j * sep.dt_approx_f_q(t, E, q), -E * sep.approx_f(t, E, q))
                        for t in _SEP_TS),
                      *((-0.5 * sep.d2x_approx_g(x, p, q), -lam * sep.approx_g_q(x, p, q))
                        for x in _SEP_XS))
    )


for _name, _terms, _points in _SEP_FACTORS:
    order_fit(f"separation.{_name}_order", f"first-order {_name} inserted in its equation")(
        partial(approx_norm, terms=_terms, points=_points)
    )


def sep_jet_gap(exact, approx, grid, k: float) -> float:
    """approx_jet_gap of approx(s, k) against exact(s, k) over s in grid."""
    return approx_jet_gap((partial(exact, s, k), partial(approx, s, k)) for s in grid)


for _key, _exact, _approx, _grid_s, _k, _tol in (
    ("f_jet", sep.exact_f, sep.approx_f, _SEP_TS, _SEP_E, 1e-10),
    ("f_q_jet", sep.exact_f_q, sep.approx_f_q, _SEP_TS, _SEP_E, 1e-8),
    ("g_jet", sep.exact_g, sep.approx_g, _SEP_XS, _SEP_P, 1e-10),
    ("g_q_jet", sep.exact_g_q, sep.approx_g_q, _SEP_XS, _SEP_P, 1e-8),
):
    check(
        f"separation.{_key}", f"{_approx.__name__} is the q-jet of {_exact.__name__}", _tol
    )(partial(sep_jet_gap, _exact, _approx, _grid_s, _k))


check("separation.dt_f_q_fd", "closed-form dt of the first-order f^q against FD", 1e-8)(
    partial(sep_fd, sep.dt_approx_f_q, sep.approx_f_q, _SEP_TS, _SEP_E, 1, 1.02)
)
check("separation.d2x_g_fd", "closed-form d2x of the first-order g against FD", 1e-8)(
    partial(sep_fd, sep.d2x_approx_g, sep.approx_g, _SEP_XS, _SEP_P, 2, 1.02)
)


@check(
    "separation.product_not_planewave",
    "first-order f*g differs from the plane-wave approximant",
    1e-2,
    "ge",
)
def _sep_product_not_planewave(x0: float = 0.7, t0: float = 0.9) -> float:
    # f(t)g(x) is a different first-order solution than the plane wave;
    # their eps-coefficients v1/v0 must not be conflated
    wave = pw.SchrodingerWave.free(p=_SEP_P, m=1.0)
    fg = approx_jet(partial(sep.approx_f, t0, wave.E)) * approx_jet(
        partial(sep.approx_g, x0, _SEP_P)
    )
    psi = approx_jet(partial(pw.approx_psi, pw.PhasePoint(x0, t0), wave))
    coef_fg, coef_pw = fg.v1 / fg.v0, psi.v1 / psi.v0
    return abs(coef_fg - coef_pw) / max(abs(coef_fg), abs(coef_pw))


# -- gaussian --------------------------------------------------------------

_QG_XS = linspace(-3.0, 3.0, 13)
_QG_TS = linspace(0.0, 2.0, 5)
_QG_QS = (0.999, 1.001, 1.1)
_QG_POINTS = tuple((x, t) for x in _QG_XS for t in _QG_TS)
_QG_PROBES = tuple((x, t) for x in (0.3, 0.9, 1.6) for t in (0.2, 0.8))


def _qg_params(q: float) -> qg.GaussianParams:
    return qg.GaussianParams(m=1.0, beta=1.0, q=q)


def qg_terms(pt, q: float, family: str, coeffs=None) -> tuple[complex, complex]:
    """gaussian_terms of the packet at pt = (x, t), as exact_residual and
    approx_norm take them; coeffs, when given, is qg_coeffs(family, points, q)."""
    return qg.gaussian_terms(*pt, _qg_params(q), family, coeffs and coeffs[pt[1]])


def qg_coeffs(family: str, points, q: float = 1.001) -> dict:
    """{t: terms_coeffs of the family at q} for each t of the (x, t) points, for qg_terms."""
    return {t: qg.terms_coeffs(t, _qg_params(q), family) for t in {t for _, t in points}}


_QG_PARAMS = _qg_params(1.001)


check("gaussian.c_at_zero", "c(0) = 0 exactly", 1e-13)(
    lambda: max(abs(qg.coeffs_exact(0.0, _qg_params(q))[2]) for q in _QG_QS)
)
check("gaussian.psi_origin", "psi(0,0) = 1 exactly", 1e-13)(
    lambda: max(abs(qg.exact_qgaussian(0.0, 0.0, _qg_params(q)) - 1.0) for q in _QG_QS)
)


@check("gaussian.coeff_jets", "mechanical coefficient jets match the closed-form splits", 1e-11)
def qg_coeff_jets(params: qg.GaussianParams = _QG_PARAMS) -> float:
    """Worst gap of the coefficient jets against coeffs_first_order."""

    def pairs(t):
        for jet, (v0, v1) in zip(qg._coeff_jets(t, params), qg.coeffs_first_order(t, params)):
            yield abs(jet.v0 - v0), max(1.0, abs(v0))
            yield abs(jet.v1 - v1), max(1.0, abs(v1))

    return max(max_rel(pairs(t)) for t in _QG_TS)


@check("gaussian.jet_authority", "packet jet equals the jet of the shipped approx_qgaussian", 1e-11)
def qg_jet_authority(xs=_QG_XS, ts=_QG_TS) -> float:
    """Worst gap of the packet jet at q = 1.001 against the jet of the
    shipped approx_qgaussian."""

    def pairs(x, t, jets, j):
        jet = qg.wavefunction_jet(x, t, _QG_PARAMS, jets)
        closed = approx_jet(lambda q: qg.approx_qgaussian(x, t, _qg_params(q), j))
        scale = max(abs(closed.v0), abs(closed.v1))
        yield abs(jet.v0 - closed.v0), scale
        yield abs(jet.v1 - closed.v1), scale

    sets = {t: (qg._coeff_jets(t, _QG_PARAMS), qg.coeffs_first_order(t, _QG_PARAMS)) for t in ts}
    return max(max_rel(pairs(x, t, *sets[t])) for x in xs for t in ts)


@check("gaussian.coeff_fd", "FD-in-q jets of the exact a, b, c match their first-order splits",
       1e-6)
def _qg_coeff_fd() -> float:
    def pairs(t):
        exact = cache(lambda q: qg.coeffs_exact(t, _qg_params(q)))  # one set per q, for a, b and c
        for i, (v0, v1) in enumerate(qg.coeffs_first_order(t, _QG_PARAMS)):
            yield (lambda q, i=i: exact(q)[i],
                   lambda q, v0=v0, v1=v1: v0 + (q - 1.0) * v1)

    return approx_jet_gap(pair for t in _QG_TS for pair in pairs(t))


order_fit("gaussian.approx_order", "first-order packet inserted in the full equation",
          lambda: {"terms": partial(qg_terms, coeffs=qg_coeffs("approx", _QG_PROBES))})(
    partial(approx_norm, points=_QG_PROBES)
)
check(
    "gaussian.exact_residual",
    "exact packet solves -i q G_t = (1/2m)[(1+(q-1)G) G_xx - q G_x^2] in closed form",
    1e-13,
)(lambda: max(exact_residual(partial(qg_terms, coeffs=qg_coeffs("exact", _QG_POINTS, q)),
                             _QG_POINTS, q) for q in (*_QG_QS, 1.5)))


@check("gaussian.ratio_kernel", "the printed R is |approx| / |exact| of the packet and the plane "
       "wave, to 1e-6 of R - 1", 1e-6)
def qg_ratio_kernel(qs=(0.7, 0.9, 1.1, 1.3)) -> float:
    """Worst gap of the ratio kernel's R against the quotient |approx| / |exact|,
    relative to |R - 1|: the packet at t = 0.7, the plane wave at t = 0 with
    its phase u kept away from 0, where R - 1 vanishes."""

    def pairs(q):
        params, t, w = _qg_params(q), 0.7, _PW_WAVE
        cs, j = qg.coeffs_exact(t, params), qg.coeffs_first_order(t, params)
        for x in linspace(0.0, 2.0, 41):
            approx, exact = (qg.approx_qgaussian(x, t, params, j),
                             qg.exact_qgaussian(x, t, params, cs))
            yield qg.ratio_gaussian(x, t, params, cs, j), abs(approx) / abs(exact)
        for pt in map(pw.PhasePoint, linspace(0.5, 2.5, 41)):
            approx, exact = pw.approx_psi(pt, w, q), pw.exact_psi(pt, w, q)
            yield pw.ratio_R(pt, w, q), abs(approx) / abs(exact)

    return max_rel((abs(r - quotient), abs(r - 1.0)) for q in qs for r, quotient in pairs(q))


# -- kleingordon -----------------------------------------------------------

_KG_WAVE = kg.KGWave.on_shell(k=1.1, m=1.0)
_KG_XS = linspace(-4.0, 4.0, 17)
_KG_TS = linspace(0.0, 3.0, 5)
_KG_POINTS = grid(_KG_XS, _KG_TS)
_KG_TERMS = partial(kg.kg_terms, w=_KG_WAVE)

for _q in (0.999, 1.1):
    check(
        f"kleingordon.exact_residual_q{_q:g}",
        f"exact addends cancel on w^2 = k^2 + m^2, q={_q:g}",
        1e-10,
    )(partial(exact_residual, _KG_TERMS, _KG_POINTS, _q))


def kg_exact_fd(q: float, xs=_KG_XS[::2], ts=_KG_TS) -> float:
    """pw_fd_gap of the exact addends as derivatives of the exact wave: d2t F
    in t, and -d2x F in x."""
    w = _KG_WAVE
    terms, psi = partial(kg.kg_terms, w=w, q=q, family="exact"), partial(pw.exact_psi, w=w, q=q)
    return max(pw_fd_gap(lambda pt: terms(pt)[0], psi, "t", xs, ts, w, 2),
               pw_fd_gap(lambda pt: -terms(pt)[1], psi, "x", xs, ts, w, 2))


check("kleingordon.exact_fd", "exact addends are FD derivatives of the exact wave, q=1.1", 1e-8)(
    partial(kg_exact_fd, 1.1)
)


@check(
    "kleingordon.dispersion_sensitivity",
    "1% omega perturbation inflates the residual",
    1e4,
    "ge",
)
def _kg_dispersion_sensitivity() -> float:
    off = kg.KGWave(p=_KG_WAVE.p, E=_KG_WAVE.E * 1.01, m=_KG_WAVE.m)
    on_res = exact_residual(_KG_TERMS, _KG_POINTS, 1.1)
    off_res = exact_residual(partial(kg.kg_terms, w=off), _KG_POINTS, 1.1)
    return off_res / on_res if on_res > 0 else math.inf


order_fit("kleingordon.approx_order", "approximant inserted in the full equation leaves O(eps^2)")(
    partial(approx_norm, terms=_KG_TERMS, points=grid(_KG_XS[::2], _KG_TS))
)


@check("kleingordon.qF_jet", "approx_qF2qm1 is the q-jet of q F^{2q-1}", 1e-6)
def kg_qF_jet(points=grid(_KG_XS[::2], _KG_TS)) -> float:
    """approx_jet_gap of approx_qF2qm1 against q F^{2q-1}."""
    return approx_jet_gap(
        (lambda q, pt=pt: q * pw.exact_psi_2qm1(pt, _KG_WAVE, q),
         partial(kg.approx_qF2qm1, pt, _KG_WAVE))
        for pt in points
    )


@check(
    "kleingordon.d2_approx_fd",
    "closed-form second derivatives of the approximant against FD",
    1e-8,
)
def kg_d2_fd(q: float = 1.02, xs=_KG_XS[::3], ts=_KG_TS) -> float:
    """pw_d2x_fd of the Klein-Gordon wave and pw_fd_gap of its d2t_approx_F."""
    w = _KG_WAVE
    return max(pw_d2x_fd(q, xs, ts, w),
               pw_fd_gap(partial(kg.d2t_approx_F, w=w, q=q), partial(pw.approx_psi, w=w, q=q), "t",
                         xs, ts, w, 2))


SUITES: tuple[str, ...] = tuple(dict.fromkeys(entry.suite for entry in REGISTRY.values()))
