"""The check registry: one declaration per numerical check of ``qwave verify``.

Each Check has a key ("suite.name"; the suite is the prefix), the claim it
certifies, a default tolerance, a sense ("le": measured <= tolerance, "ge":
measured >= tolerance) and measure(), which returns one float.  The @check
decorator declares a function as the measure of a check; REGISTRY holds the
checks in declaration order, which is the order ``qwave verify`` prints
them in.

A measure that the tests also take is public, a function of the grid or
q that some caller varies, each parameter defaulting to the registry's
value, as in pw_exact_residual(q, xs, ts).  The tests call it with their
own bounds instead of restating it, so each claim is measured by one
piece of code.

The repeated patterns are helpers: max_rel reduces (difference, scale)
pairs; fd_gap(closed, fn, ats, scale, deriv) gives the worst relative gap
of closed(a) against the Richardson FD of fn at a over ats; approx_jet_gap
compares the FD-in-q jet of each exact form with the jet of its shipped
approximant, so the jet checks read every first-order coefficient from the
approx_* forms; and @order_fit turns one convergence fit of a residual
norm into a slope check and its _r2 fit-quality check.
"""

from __future__ import annotations

import cmath
import math
from functools import partial
from typing import Callable, Iterable

from . import kleingordon as kg
from . import planewave as pw
from . import qcore
from . import qgaussian as qg
from . import separation as sep
from . import verify


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


def order_fit(key: str, claim: str):
    """Declare the order fit of the decorated norm(eps) as two checks: the
    slope (>= 1.9, first order leaves O(eps^2)) and key_r2 (>= 0.999).

    One fit per run: the slope check fits and leaves the fit to the _r2
    check after it, which takes it away (or fits afresh if measured alone).
    """

    def declare(norm: Callable[[float], float]):
        fit: list[verify.OrderFit] = []

        def slope() -> float:
            fit[:] = [verify.order_of_convergence(norm)]
            return fit[0].slope

        def r_squared() -> float:
            return (fit.pop() if fit else verify.order_of_convergence(norm)).r_squared

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


def fd_gap(closed, fn, ats, scale: float, deriv: int) -> float:
    """Worst |closed(a) - FD of fn at a| / |closed(a)| over ats: a closed-form
    x or t derivative of order deriv against Richardson FD, stepping as
    verify.default_scheme does for a function varying on the length scale."""
    scheme = verify.default_scheme(scale, deriv=deriv)

    def pair(at):
        value = closed(at)
        return abs(value - verify.fd_derivative(fn, at, scheme, deriv=deriv)), abs(value)

    return max_rel(map(pair, ats))


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


def _grid(lo: float, hi: float, n: int) -> tuple[float, ...]:
    """n points from lo to hi, equal bit for bit to np.linspace(lo, hi, n)."""
    delta = hi - lo
    step = delta / (n - 1)
    if step == 0.0:  # a subnormal spacing: linspace scales i / (n - 1) by delta instead
        return tuple([i / (n - 1) * delta + lo for i in range(n - 1)] + [hi])
    return tuple([i * step + lo for i in range(n - 1)] + [hi])


_PAIR_EPSILONS = (1e-3, 1e-6, 1e-9)

# -- planewave -------------------------------------------------------------

_PW_WAVE = pw.SchrodingerWave.free(p=1.3, m=1.0)
_PW_XS = _grid(-6.0, 6.0, 31)
_PW_TS = _grid(0.0, 3.0, 5)
_PW_POINTS = tuple(pw.PhasePoint(x, t) for x in _PW_XS for t in _PW_TS)


def pw_exact_residual(q: float, xs=_PW_XS, ts=_PW_TS) -> float:
    """Exact plane wave in its equation: the worst |residual| over its
    largest addend, point by point."""
    return max_rel(
        residual_pair(pw.schrodinger_terms(pw.PhasePoint(x, t), _PW_WAVE, q, "exact"))
        for x in xs
        for t in ts
    )


for _q in (0.999, 1.001, 1.1):
    check(
        f"planewave.exact_residual_q{_q:g}",
        f"exact wave inserted with closed-form derivatives, q={_q:g}",
        1e-10,
    )(partial(pw_exact_residual, _q))


@check(
    "planewave.pair_cancellation",
    "truncated dt(psi^q) and d2x(psi) brackets cancel identically",
    1e-12,
)
def pw_pair_cancellation(xs=_PW_XS, ts=_PW_TS) -> float:
    """Worst truncated dt(psi^q) + d2x(psi) pair over its larger term."""
    return max_rel(
        residual_pair(pw.expansion_terms(pw.PhasePoint(x, t), _PW_WAVE, 1.0 + eps))
        for eps in _PAIR_EPSILONS
        for x in xs
        for t in ts
    )


@order_fit("planewave.approx_order", "approximant inserted in the full equation leaves O(eps^2)")
def pw_approx_norm(eps: float, xs=_PW_XS[::2], ts=_PW_TS) -> float:
    """Largest |residual| of the first-order plane wave at q = 1 + eps."""
    return max(
        abs(sum(pw.schrodinger_terms(pw.PhasePoint(x, t), _PW_WAVE, 1.0 + eps, "approx")))
        for x in xs
        for t in ts
    )


def pw_error_norm(eps: float, xs=_PW_XS[::2], ts=_PW_TS) -> float:
    """Largest |approx_psi - exact_psi| at q = 1 + eps."""
    q = 1.0 + eps
    return max(
        abs(pw.approx_psi(pt, _PW_WAVE, q) - pw.exact_psi(pt, _PW_WAVE, q))
        for pt in (pw.PhasePoint(x, t) for x in xs for t in ts)
    )


@check("planewave.approx_error_order", "approx_psi - exact_psi shrinks as eps^2", 1.9, "ge")
def _pw_error_order() -> float:
    return verify.order_of_convergence(pw_error_norm, (1e-2, 1e-3, 1e-4, 1e-5)).slope


@check("planewave.modulus_identity", "|exact_psi|^2 = [1+(1-q)^2 u^2]^{1/(1-q)}", 1e-12)
def pw_modulus_identity(q: float = 1.37, xs=_PW_XS, ts=_PW_TS) -> float:
    """Worst relative gap of |exact_psi|^2 against its closed form."""

    def pair(pt):
        u = pw.phase(pt, _PW_WAVE)
        closed = math.exp(math.log1p((1.0 - q) ** 2 * u * u) / (1.0 - q))
        return abs(abs(pw.exact_psi(pt, _PW_WAVE, q)) ** 2 - closed), abs(closed)

    return max_rel(pair(pw.PhasePoint(x, t)) for x in xs for t in ts)


@check(
    "planewave.psi_q_jet",
    "jet of psi^q reproduces the expansion coefficient of approx_psi_q",
    1e-12,
)
def _pw_psi_q_jet() -> float:
    def pair(pt):
        # psi^q = exp(q * iu * S(w)); build the exponent jet directly,
        # jet_ln of e^{iu} would lose the winding for |u| > pi
        u = pw.phase(pt, _PW_WAVE)
        exponent = qcore.QJet(1.0, 1.0) * (
            qcore.as_jet(1j * u) * qcore.log1p_over_w_jet(-1j * u)
        )
        closed = approx_jet(partial(pw.approx_psi_q, pt, _PW_WAVE)).v1
        return abs(qcore.jet_exp(exponent).v1 - closed), max(1.0, abs(closed))

    return max_rel(pair(pt) for pt in _PW_POINTS)


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
    """fd_gap of d2x_approx_psi of the wave w, in x at each t."""

    def at_t(t):
        return fd_gap(lambda x: pw.d2x_approx_psi(pw.PhasePoint(x, t), w, q),
                      lambda x: pw.approx_psi(pw.PhasePoint(x, t), w, q), xs, 1.0 / w.p, 2)

    return max(map(at_t, ts))


@check(
    "planewave.dt_approx_q_fd",
    "closed-form dt of the approximant's q-th power against FD",
    1e-8,
)
def pw_dt_q_fd(q: float = 1.02, xs=_PW_XS[::3], ts=_PW_TS) -> float:
    """fd_gap of dt_approx_psi_q, in t at each x."""

    def at_x(x):
        return fd_gap(lambda t: pw.dt_approx_psi_q(pw.PhasePoint(x, t), _PW_WAVE, q),
                      lambda t: pw.approx_psi_q(pw.PhasePoint(x, t), _PW_WAVE, q),
                      ts, 1.0 / _PW_WAVE.E, 1)

    return max(map(at_x, xs))


# -- separation ------------------------------------------------------------

_SEP_E = 0.845
_SEP_P = 1.3
_SEP_TS = _grid(0.0, 4.0, 17)
_SEP_XS = _grid(-6.0, 6.0, 17)


@check(
    "separation.exact_residual_f",
    "exact time factor satisfies its separated equation, q=1.1",
    1e-10,
)
def sep_exact_residual_f(q: float = 1.1) -> float:
    """Worst residual_pair of the exact time factor."""
    return max_rel(residual_pair(sep.f_terms(t, _SEP_E, q, family="exact")) for t in _SEP_TS)


@check(
    "separation.exact_residual_g",
    "exact space factor satisfies its separated equation, q=1.1",
    1e-10,
)
def sep_exact_residual_g(q: float = 1.1) -> float:
    """Worst residual_pair of the exact space factor."""
    return max_rel(residual_pair(sep.g_terms(x, _SEP_P, q, family="exact")) for x in _SEP_XS)


@check(
    "separation.pair_cancellation",
    "truncated pairs for f and g cancel identically at lam = p^2/2",
    1e-12,
)
def sep_pair_cancellation() -> float:
    """Worst residual_pair of the truncated pairs of f and of g."""
    return max_rel(
        residual_pair(terms)
        for eps in _PAIR_EPSILONS
        for terms in (*(sep.expansion_terms_f(t, _SEP_E, 1.0 + eps) for t in _SEP_TS),
                      *(sep.expansion_terms_g(x, _SEP_P, 1.0 + eps) for x in _SEP_XS))
    )


@order_fit("separation.f_order", "first-order f inserted in its equation")
def sep_f_norm(eps: float, ts=_SEP_TS) -> float:
    """Largest |residual| of the first-order time factor at q = 1 + eps."""
    return max(abs(sum(sep.f_terms(t, _SEP_E, 1.0 + eps, family="approx"))) for t in ts)


@order_fit("separation.g_order", "first-order g inserted in its equation")
def sep_g_norm(eps: float, xs=_SEP_XS) -> float:
    """Largest |residual| of the first-order space factor at q = 1 + eps."""
    return max(abs(sum(sep.g_terms(x, _SEP_P, 1.0 + eps, family="approx"))) for x in xs)


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


@check("separation.dt_f_q_fd", "closed-form dt of the first-order f^q against FD", 1e-8)
def sep_dt_f_q_fd(q: float = 1.02, ts=_SEP_TS) -> float:
    """fd_gap of dt_approx_f_q."""
    return fd_gap(lambda t: sep.dt_approx_f_q(t, _SEP_E, q),
                  lambda t: sep.approx_f_q(t, _SEP_E, q), ts, 1.0 / _SEP_E, 1)


@check("separation.d2x_g_fd", "closed-form d2x of the first-order g against FD", 1e-8)
def sep_d2x_g_fd(q: float = 1.02, xs=_SEP_XS) -> float:
    """fd_gap of d2x_approx_g."""
    return fd_gap(lambda x: sep.d2x_approx_g(x, _SEP_P, q),
                  lambda x: sep.approx_g(x, _SEP_P, q), xs, 1.0 / _SEP_P, 2)


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

_QG_XS = _grid(-3.0, 3.0, 13)
_QG_TS = _grid(0.0, 2.0, 5)
_QG_QS = (0.999, 1.001, 1.1)
_QG_PROBES = tuple((x, t) for x in (0.3, 0.9, 1.6) for t in (0.2, 0.8))


def _qg_params(q: float) -> qg.GaussianParams:
    return qg.GaussianParams(m=1.0, beta=1.0, q=q)


_QG_PARAMS = _qg_params(1.001)


check("gaussian.c_at_zero", "c(0) = 0 exactly", 1e-13)(
    lambda: max(abs(qg.coeffs_exact(0.0, _qg_params(q)).c) for q in _QG_QS)
)
check("gaussian.psi_origin", "psi(0,0) = 1 exactly", 1e-13)(
    lambda: max(abs(qg.exact_qgaussian(0.0, 0.0, _qg_params(q)) - 1.0) for q in _QG_QS)
)


@check("gaussian.coeff_jets", "mechanical coefficient jets match the closed-form splits", 1e-11)
def qg_coeff_jets(params: qg.GaussianParams = _QG_PARAMS) -> float:
    """Worst gap of the coefficient jets against coeffs_first_order."""

    def pairs(t):
        split = qg.coeffs_first_order(t, params)
        for jet, c0, c1 in zip(
            qg._coeff_jets(t, params),
            (split.a1, split.b1, split.c1),
            (split.a2, split.b2, split.c2),
        ):
            yield abs(jet.v0 - c0), max(1.0, abs(c0))
            yield abs(jet.v1 - c1), max(1.0, abs(c1))

    return max(max_rel(pairs(t)) for t in _QG_TS)


@check("gaussian.jet_authority", "packet jet equals the assembled first-order closed forms", 1e-11)
def qg_jet_authority(xs=_QG_XS, ts=_QG_TS) -> float:
    """Worst gap of the packet jet at q = 1.001 against the first-order
    closed forms assembled from first_order_exponents."""

    def pairs(x, t):
        jet = qg.wavefunction_jet(x, t, _QG_PARAMS)
        G0, G1 = qg.first_order_exponents(x, t, _QG_PARAMS)
        assembled0 = cmath.exp(-G0)
        assembled1 = -(G1 - 0.5 * G0 * G0) * assembled0
        scale = max(abs(assembled0), abs(assembled1))
        yield abs(jet.v0 - assembled0), scale
        yield abs(jet.v1 - assembled1), scale

    return max(max_rel(pairs(x, t)) for x in xs for t in ts)


@check("gaussian.coeff_fd", "FD-in-q jets of the exact a, b, c match their first-order splits",
       1e-6)
def _qg_coeff_fd() -> float:
    def pairs(t):
        split = qg.coeffs_first_order(t, _QG_PARAMS)
        for name, v0, v1 in (("a", split.a1, split.a2), ("b", split.b1, split.b2),
                             ("c", split.c1, split.c2)):
            yield (lambda q, name=name: getattr(qg.coeffs_exact(t, _qg_params(q)), name),
                   lambda q, v0=v0, v1=v1: v0 + (q - 1.0) * v1)

    return approx_jet_gap(pair for t in _QG_TS for pair in pairs(t))


@order_fit("gaussian.approx_order", "first-order packet inserted in the full equation")
def _qg_packet_norm(eps: float) -> float:
    params = _qg_params(1.0 + eps)
    return max(
        abs(sum(qg.gaussian_terms(x, t, params, family="approx"))) for x, t in _QG_PROBES
    )


@check(
    "gaussian.exact_residual",
    "exact packet solves -i q G_t = (1/2m)[(1+(q-1)G) G_xx - q G_x^2] in closed form",
    1e-13,
)
def qg_exact_residual(qs=(*_QG_QS, 1.5), xs=_QG_XS, ts=_QG_TS) -> float:
    """Worst gap of the exact packet's identity over its larger side,
    point by point, at each q of qs."""
    return max_rel(
        residual_pair(qg.gaussian_terms(x, t, params, family="exact"))
        for params in map(_qg_params, qs)
        for x in xs
        for t in ts
    )


@check(
    "gaussian.ratio_band",
    "packet ratio stays within [0.9, 1.1] over the default sweep",
    0.1,
)
def _qg_ratio_band() -> float:
    cs, j = qg.coeffs_exact(0.0, _QG_PARAMS), qg.coeffs_first_order(0.0, _QG_PARAMS)
    return max(abs(abs(qg.approx_qgaussian(x, 0.0, _QG_PARAMS, j))
                   / abs(qg.exact_qgaussian(x, 0.0, _QG_PARAMS, cs)) - 1.0)
               for x in _grid(0.0, 4.0, 1001))


# -- kleingordon -----------------------------------------------------------

_KG_WAVE = kg.KGWave.on_shell(k=1.1, m=1.0)
_KG_XS = _grid(-4.0, 4.0, 17)
_KG_TS = _grid(0.0, 3.0, 5)


def kg_exact_residual(q: float, wave: kg.KGWave = _KG_WAVE, xs=_KG_XS, ts=_KG_TS) -> float:
    """Exact Klein-Gordon wave in its equation: the worst |residual| over
    its largest addend, point by point."""
    return max_rel(residual_pair(kg.kg_terms(x, t, wave, q, "exact")) for x in xs for t in ts)


for _q in (0.999, 1.1):
    check(
        f"kleingordon.exact_residual_q{_q:g}", f"exact wave on shell, q={_q:g}", 1e-10
    )(partial(kg_exact_residual, _q))


@check(
    "kleingordon.dispersion_sensitivity",
    "1% omega perturbation inflates the residual",
    1e4,
    "ge",
)
def _kg_dispersion_sensitivity() -> float:
    off = kg.KGWave(p=_KG_WAVE.p, E=_KG_WAVE.E * 1.01, m=_KG_WAVE.m)
    on_res = kg_exact_residual(1.1)
    return kg_exact_residual(1.1, off) / on_res if on_res > 0 else math.inf


@check(
    "kleingordon.bracket_identity",
    "d2x, d2t and qF^{2q-1} expansions share one bracket",
    1e-14,
)
def kg_bracket_identity(q: float = 1.2) -> float:
    """Worst gap of the d2x and d2t brackets against the qF^{2q-1} one."""

    def pair(x, t):
        pt = pw.PhasePoint(x, t)
        u = pw.phase(pt, _KG_WAVE)
        eiu = complex(math.cos(u), math.sin(u))
        bx = pw.d2x_approx_psi(pt, _KG_WAVE, q) / (-_KG_WAVE.p**2 * eiu)
        bt = kg.d2t_approx_F(x, t, _KG_WAVE, q) / (-_KG_WAVE.E**2 * eiu)
        bm = kg.approx_qF2qm1(x, t, _KG_WAVE, q) / eiu
        return max(abs(bx - bm), abs(bt - bm)), abs(bm)

    return max_rel(pair(x, t) for x in _KG_XS for t in _KG_TS)


@check("kleingordon.pair_cancellation", "truncated expansions cancel identically on shell", 1e-12)
def kg_pair_cancellation() -> float:
    """Worst sum of the truncated expansions over their largest term."""
    return max_rel(
        residual_pair(kg.expansion_terms_kg(x, t, _KG_WAVE, 1.0 + eps))
        for eps in _PAIR_EPSILONS
        for x in _KG_XS
        for t in _KG_TS
    )


@order_fit(
    "kleingordon.approx_order", "approximant inserted in the full equation leaves O(eps^2)"
)
def kg_approx_norm(eps: float, xs=_KG_XS[::2], ts=_KG_TS) -> float:
    """Largest |residual| of the first-order Klein-Gordon wave at q = 1 + eps."""
    return max(
        abs(sum(kg.kg_terms(x, t, _KG_WAVE, 1.0 + eps, "approx"))) for x in xs for t in ts
    )


@check("kleingordon.qF_jet", "approx_qF2qm1 is the q-jet of q F^{2q-1}", 1e-6)
def kg_qF_jet(xs=_KG_XS[::2], ts=_KG_TS) -> float:
    """approx_jet_gap of approx_qF2qm1 against q F^{2q-1}."""
    return approx_jet_gap(
        (
            lambda q, x=x, t=t: q * pw.exact_psi_2qm1(pw.PhasePoint(x, t), _KG_WAVE, q),
            partial(kg.approx_qF2qm1, x, t, _KG_WAVE),
        )
        for x in xs
        for t in ts
    )


@check(
    "kleingordon.d2_approx_fd",
    "closed-form second derivatives of the approximant against FD",
    1e-8,
)
def kg_d2_fd(q: float = 1.02, xs=_KG_XS[::3], ts=_KG_TS) -> float:
    """pw_d2x_fd of the Klein-Gordon wave and fd_gap of its d2t_approx_F."""

    def d2t_at_x(x):
        return fd_gap(lambda t: kg.d2t_approx_F(x, t, _KG_WAVE, q),
                      lambda t: pw.approx_psi(pw.PhasePoint(x, t), _KG_WAVE, q),
                      ts, 1.0 / _KG_WAVE.E, 2)

    return max(pw_d2x_fd(q, xs, ts, _KG_WAVE), *map(d2t_at_x, xs))


SUITES: tuple[str, ...] = tuple(dict.fromkeys(entry.suite for entry in REGISTRY.values()))
