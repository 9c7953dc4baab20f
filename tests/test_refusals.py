"""The refusal contract of every public entry, generated from its signature: a
NaN or infinite argument is a NonFiniteInput that names it; at finite extremes
an entry returns finite parts, or raises a QWaveError other than NonFiniteInput
or a value type's domain ValueError (DOMAIN; exit 3 in the CLI), never another
builtin error.  Each parameter is filled by its name from NOMINAL; a compound
one is built from its constructor's fields (BUILDERS), which are crossed in turn.

The refusal table, REFUSED, holds the calls that must be refused at finite
arguments, one a row: the error class (which keeps its builtin base) and the
start of its message.  Its domain ValueError texts are DOMAIN."""

import cmath
import inspect
import itertools
import math
import operator
from functools import cache, partial
from typing import NamedTuple

import pytest

from qwave import kleingordon as kg, planewave as pw, qcore, qgaussian as qg, scenarios, separation, verify
from qwave.errors import (BranchCutViolation, DegenerateFit, DivisionByZeroJet, InvalidQ, NonFiniteInput,
                          NonFiniteResult, QWaveError)

MODULES = (qcore, pw, kg, separation, qg, scenarios)
NOMINAL = dict(x=0.5, t=0.5, p=1.0, E=0.5, m=1.0, k=1.0, q=1.1, beta=1.0, s=0.5, z=0.5j, w=0.5, v0=1.0,
               v1=2.0, u=0.5, coef=1.0, mass_kg=scenarios.M_ELECTRON_KG, kinetic_mev=1.0, q_minus_1=1e-9,
               species="electron", momentum_model="relativistic", x_range=(0.0, 1.0, 3))
# each value type is built once for its fields, as it is immutable
BUILDERS = dict(pt=cache(pw.PhasePoint), params=cache(qg.GaussianParams),
                scn=cache(scenarios.ParticleScenario))
WAVES = {pw: cache(pw.SchrodingerWave.free), kg: cache(kg.KGWave.on_shell)}  # in qcore, w is complex

_RESULT = "takes a value its caller computed, and refuses it as a result (NonFiniteResult)"
_JETS = "unchecked jet arithmetic: each function that hands jets out refuses them as results"
_TERMS = "a term helper on a float or an array: the ratio kernel refuses its terms"
EXEMPT = {  # entry, or entry-argument: why the contract does not cover it
    "qcore.finite": "the refusal of an argument itself",
    "qcore.finite_result": "the refusal of a result itself",
    **dict.fromkeys(("qcore.checked_exp", "qcore.first_order_pow", "qcore.phase_pow-k",
                     "planewave.bracket_wave-u", "planewave.bracket_wave-coef"), _RESULT),
    "qcore.phase_pow-s": f"{_RESULT}; REFUSED's phase_pow rows",
    **dict.fromkeys(("qcore.as_jet", "qcore.jet_exp", "qcore.jet_ln", "qcore.log1p_over_w_jet",
                     "qcore.expm1_over_w_jet"), _JETS),
    **dict.fromkeys(("qgaussian.exponent", "qgaussian.first_order_parts", "planewave.ratio_terms",
                     "qgaussian.ratio_terms"), _TERMS),
    **dict.fromkeys(("qcore.Frozen", "scenarios.Sweep"), "a value type without floats"),
    "scenarios.linspace": "the grid of a sweep, which refuses its endpoints and span first",
}


def _cross(names, *axes):
    """The product of the axes as dicts of arguments; a tuple fills several (a point)."""
    rows = (sum((v if isinstance(v, tuple) else (v,) for v in row), ()) for row in itertools.product(*axes))
    return [dict(zip(names.split(), row)) for row in rows]


MAG = (1e-300, 1e-160, 1e-20, 1e-3, 1.0, 7.0, 1e20, 1e160, 1e300)
SIGNED = MAG + tuple(-v for v in MAG)
QS = (1 + 1e-12, 1.001, 0.7, 1.5, 3.0, -0.5, -1.5, 1e300, 1.7e308, -1.7e308)
POINTS = ((0.5, 0.5), (2.0, 0.0))
# An argument's finite extremes, crossed with the arguments crossed with it;
# any other argument takes SIGNED (q: QS) one at a time.
CROSS = {
    "p": _cross("p m q x t", MAG, MAG, QS[:7], POINTS) + _cross("p q x", SIGNED, QS[:7], (0.5, 2.0)),
    "k": _cross("k m q x t", MAG, MAG, QS[:7], POINTS),
    "E": _cross("E q t", SIGNED, QS[:7], (0.5, 2.0)),
    # a point argument with the wave fields that scale it in the phase p x - E t (a free
    # or on-shell wave forms E from p or k)
    "x": _cross("x p", SIGNED, SIGNED) + _cross("x k", SIGNED, SIGNED),
    "t": _cross("t E", SIGNED, SIGNED) + _cross("t p", SIGNED, SIGNED) + _cross("t k", SIGNED, SIGNED),
    "m": _cross("m q", SIGNED, QS),
    "beta": _cross("m beta q x t", MAG, MAG, QS[:7], POINTS + ((0.5, 1e308), (1e200, 0.5))),
    "kinetic_mev": _cross("mass_kg kinetic_mev momentum_model",
                          (1e-320, 1e-300, scenarios.M_ELECTRON_KG, 1.0, 1e300),
                          (1e-300, 1e-20, 1.0, 1e20, 1e160, 1e300, 1e308), scenarios.MOMENTUM_MODELS),
}


@cache
def _parameters(fn):
    names = [p.name for p in inspect.signature(fn).parameters.values()
             if p.kind not in (p.VAR_POSITIONAL, p.VAR_KEYWORD)
             and (p.default is p.empty or p.name in NOMINAL)]
    if fn == scenarios.ParticleScenario.from_mev:  # *args, **kwargs: the constructor's after mass_kg
        names += _parameters(scenarios.ParticleScenario)[2:]
    return names


def _leaves(builders, fn):
    return [leaf for name in _parameters(fn)
            for leaf in (_parameters(builders[name]) if builders.get(name) else [name])]


def _call(builders, fn, values):
    return fn(**{name: builders[name](*[values[leaf] for leaf in _parameters(builders[name])])
                 if builders.get(name) else values[name] for name in _parameters(fn)})


def _entries():
    """(label, builders, callable) of each public callable and classmethod, one per family."""
    for module in MODULES:
        builders = {**BUILDERS, "w": WAVES.get(module)}
        for name, obj in vars(module).items():
            if name.startswith("_") or not callable(obj) or obj.__module__ != module.__name__:
                continue
            label = f"{module.__name__.removeprefix('qwave.')}.{name}"
            methods = [(f"{label}.{n}", getattr(obj, n)) for n, v in vars(obj).items()
                       if isinstance(v, classmethod) and not n.startswith("_")] if isinstance(obj, type) else []
            for label, fn in [(label, obj), *methods]:
                families = ("exact", "approx") if "family" in inspect.signature(fn).parameters else ()
                yield from ([(f"{label}[{f}]", builders, partial(fn, family=f)) for f in families]
                            or [(label, builders, fn)])


ENTRIES = list(_entries())
ARGUMENTS = [(label.split("[")[0], label, builders, fn, leaf) for label, builders, fn in ENTRIES
             for leaf in _leaves(builders, fn) if isinstance(NOMINAL.get(leaf), (float, complex))]
CASES = [pytest.param(builders, fn, leaf, id=f"{label}-{leaf}")
         for entry, label, builders, fn, leaf in ARGUMENTS
         if entry not in EXEMPT and f"{entry}-{leaf}" not in EXEMPT]


def _parts(value):
    """The numbers of a value: its items, fields (a QJet's v0 and v1) and columns, all the way down."""
    if isinstance(value, (int, float, complex)):
        return [value]
    if isinstance(value, qcore.Frozen):
        value = value._values()
    return [part for item in (value.values() if isinstance(value, dict) else value)
            if not isinstance(item, str) for part in _parts(item)]


@pytest.mark.parametrize("builders, fn, leaf", CASES)
def test_refusal_contract(builders, fn, leaf):
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(NonFiniteInput, match=f"^{leaf} must be finite, got "):
            _call(builders, fn, {**NOMINAL, leaf: bad})
    leaves = set(_leaves(builders, fn))
    rows = CROSS.get(leaf) or [{leaf: v} for v in (QS if leaf == "q" else SIGNED)]
    for row in dict.fromkeys(tuple((k, v) for k, v in row.items() if k in leaves) for row in rows):
        try:
            value = _call(builders, fn, {**NOMINAL, **dict(row)})
        except QWaveError as error:
            assert not isinstance(error, NonFiniteInput), (row, error)
            continue
        except ValueError as error:
            assert str(error).startswith(DOMAIN), (row, error)
            continue
        assert all(map(cmath.isfinite, _parts(value))), (row, value)


def test_every_public_entry_is_covered_or_exempt():
    # a new entry fails here until a case covers it or EXEMPT gives the reason
    covered = {case.id.split("[")[0].split("-")[0] for case in CASES}
    public = {label.split("[")[0] for label, _, _ in ENTRIES}
    assert sorted(public - covered) == sorted(key for key in EXEMPT if "-" not in key)
    assert {key for key in EXEMPT if "-" in key} <= {f"{a[0]}-{a[-1]}" for a in ARGUMENTS}


# -- the refusal table: one call a row ---------------------------------------


class Refused(NamedTuple):
    id: str
    fn: object  # a library callable
    args: tuple  # its arguments: finite, but for a few the generated contract does not form
    error: type  # a qwave.errors class, or ValueError for a value type's domain
    text: str  # the start of the message; a domain text ends before the value it names


RESULT, EXP = "a result leaves the double range: ", "exp leaves the double range at "
CUT, FAMILY = "first-order amplitude 1 + c: ", "family must be 'exact' or 'approx', got "
_HUGE_POINT, _HUGE_WAVE = pw.PhasePoint(1e300, 0.0), pw.SchrodingerWave.free(1e20, 1.0)
_HUGE_TIME, _HUGE_SPACE = dict(t=1e300, E=1e20, q=1.5), dict(x=1e300, p=1e20, q=1.5)
_AMPLITUDE = (pw.PhasePoint(0.5, 0.5), pw.SchrodingerWave.free(1e-20, 1e-300), 1 + 1e-12)
_SPAN = (-1.7e308, 1.7e308)
_PACKET = qg.GaussianParams(1.0, 1.0, 1.1)

REFUSED = [
    # q_pow: 1 + w = -1 at two q, and 0, the pole on the cut; a complex z with a
    # non-finite part, which the contract's NaN and inf do not form
    *(Refused(f"q_pow-cut-{name}", qcore.q_pow, (z, q), BranchCutViolation,
              f"q_pow base: {base} lies on the branch cut")
      for name, z, q, base in (("q<1", -4.0, 0.5, "(-1+0j)"), ("q>1", 2.0, 2.0, "(-1+0j)"),
                               ("pole", -2.0, 0.5, "0j"))),
    *(Refused(f"q_pow-{name}", qcore.q_pow, args, NonFiniteInput, text) for name, args, text in (
        ("z-nan", (complex("nan"), 1.1), "z must be finite, got (nan+0j)"),
        ("z-infj", (complex(1.0, math.inf), 1.1), "z must be finite, got (1+infj)"),
        ("q-inf", (1.0, math.inf), "q must be finite, got inf"))),
    Refused("q_pow-exp(800)", qcore.q_pow, (800.0, 1.0), NonFiniteResult, EXP + "(800+0j)"),
    # |1 + w| ~ 2e-40, power ~ 1e2000
    Refused("q_pow-near-pole", qcore.q_pow, (complex(50, 1.175494351e-38), 1.02), NonFiniteResult,
            EXP + "(1732.86"),
    Refused("q_pow-(1-q)z", qcore.q_pow, (-1e300, 1 + 1e300), NonFiniteResult,
            "(1-q) z overflows at q-1 = 1e+300"),
    # first_order_pow: 1 + c = 0 or negative real
    *(Refused(f"first_order_pow-c={c}", qcore.first_order_pow, (4j, c, 0.5), BranchCutViolation,
              f"{CUT}{one_plus_c} lies on the branch cut")
      for c, one_plus_c in ((-1.0, "0.0"), (-2.5, "-1.5"), (-1.0 + 0j, "0j"))),
    # NonFiniteInput is for an argument, NonFiniteResult for what is formed from finite ones
    Refused("free-E", pw.SchrodingerWave.free, (1e200, 1.0), NonFiniteResult,
            RESULT + "(inf,)"),  # E = p^2/2m
    Refused("on_shell-E", kg.KGWave.on_shell, (1.7e308, 1.7e308), NonFiniteResult,
            RESULT + "(inf,)"),  # E = hypot(k, m)
    *(Refused(f"g_terms[{f}]-lam", partial(separation.g_terms, family=f), (0.5, 1e200, 1.1),
              NonFiniteResult, RESULT + "(inf,)") for f in ("exact", "approx")),  # lam = p^2/2
    # exp(1000) - 1, where math.expm1 and math.exp overflow
    Refused("complex_expm1", qcore.complex_expm1, (1000.0,), NonFiniteResult,
            RESULT + "expm1 at 1000.0"),
    Refused("stable_expm1_over_w", qcore.stable_expm1_over_w, (1000.0,), NonFiniteResult,
            RESULT + "expm1 at (1000+0j)"),
    # the grid of finite endpoints whose span overflows: NaN and inf, in one block or more
    *(Refused(f"{fn.__name__}-span{blocks}", fn, args, NonFiniteResult, RESULT + "(inf,)")
      for n, blocks in ((3, ""), (scenarios.BLOCK_ROWS + 1, "-blocks"))
      for fn, args in ((scenarios.run_ratio_sweep, (scenarios.ParticleScenario.from_mev(
                            "electron", 1.0, 1e-9, x_range=(*_SPAN, n)),)),
                       (scenarios.run_gaussian_sweep, (qg.GaussianParams(1.0, 1.0, 1.001), (*_SPAN, n))))),
    # u = p x = 1e320 (or E t, or mu x) is formed from finite arguments, so
    # planewave.phase or the exact power refuses it as a result, not as an argument
    *(Refused(f"{fn.__name__}-phase", fn, (_HUGE_POINT, _HUGE_WAVE, 1.5), NonFiniteResult,
              RESULT + "(inf,)") for fn in (pw.exact_psi, pw.exact_psi_q, pw.exact_psi_2qm1)),
    *(Refused(f"{fn.__name__}[exact]-phase", fn, (_HUGE_POINT, w, 1.5, "exact"), NonFiniteResult,
              RESULT + "(inf,)")
      for fn, w in ((pw.schrodinger_terms, _HUGE_WAVE), (kg.kg_terms, kg.KGWave.on_shell(1e20, 1.0)))),
    *(Refused(f"{name}-phase", partial(fn, **point), (), NonFiniteResult, EXP + "(nan+nanj)")
      for name, fn, point in (
          ("exact_f", separation.exact_f, _HUGE_TIME), ("exact_f_q", separation.exact_f_q, _HUGE_TIME),
          ("f_terms[exact]", partial(separation.f_terms, family="exact"), _HUGE_TIME),
          ("exact_g", separation.exact_g, _HUGE_SPACE), ("exact_g_q", separation.exact_g_q, _HUGE_SPACE),
          ("g_terms[exact]", partial(separation.g_terms, family="exact"), _HUGE_SPACE))),
    # every s is formed from finite arguments; one beyond the double range makes
    # the exponent inf or nan, which checked_exp refuses
    *(Refused(f"phase_pow-s={s}-q={q}", qcore.phase_pow, (s, q, 1.0), NonFiniteResult,
              EXP + "(nan+nanj)") for q in (1.0, 1.5, 0.5) for s in (math.inf, -math.inf, math.nan)),
    Refused("QJet-divided-by-zero-value", operator.truediv, (qcore.QJet(1.0, 0.0), qcore.QJet(0.0, 5.0)),
            DivisionByZeroJet, "jet division by a jet with zero value part"),
    # planewave: free refuses the mass before it forms E = p^2/2m
    *(Refused(f"{name}-m=0", fn, args, ValueError, "mass must be positive, got ")
      for name, fn, args in (("SchrodingerWave", pw.SchrodingerWave, (1.0, 1.0, 0.0)),
                             ("free", pw.SchrodingerWave.free, (1.0, 0.0)))),
    # p = 1, t = 0: u = x, and at q - 1 = 0.5 the amplitude 1 - (q-1) u^2/2
    # is exactly 0 at u = 2 and negative beyond; qcore.first_order_pow refuses it
    *(Refused(f"schrodinger_terms[approx]-cut-u={u}", pw.schrodinger_terms,
              (pw.PhasePoint(u, 0.0), pw.SchrodingerWave.free(1.0, 1.0), 1.5, "approx"),
              BranchCutViolation, f"{CUT}{c} lies on the branch cut")
      for u, c in ((2.0, 0.0), (3.0, -1.25), (-5.0, -5.25))),
    # E = p^2/2m = 5e259 makes u^2 and so c = (1-q) u^2/2 overflow to -inf,
    # which is out of the double range, not on the cut of the amplitude 1 + c
    *(Refused(f"{fn.__name__}-amplitude", fn, _AMPLITUDE, NonFiniteResult, RESULT + value)
      for fn, value in ((pw.approx_psi, "((-inf+infj),)"), (pw.approx_psi_q, "((nan+nanj),)"),
                        (pw.d2x_approx_psi, "((inf-infj),)"), (pw.dt_approx_psi_q, "((nan+infj),)"))),
    Refused("schrodinger_terms[approx]-amplitude", pw.schrodinger_terms, (*_AMPLITUDE, "approx"),
            NonFiniteResult, RESULT + "(-inf,)"),
    Refused("schrodinger_terms-bogus", pw.schrodinger_terms,
            (pw.PhasePoint(0.0, 0.0), pw.SchrodingerWave.free(1.3, 1.0), 1.1, "bogus"), ValueError, FAMILY),
    # kleingordon: massless, omega = k = 1, t = 0: u = x, and at q = 1.5 the
    # amplitude 1 - (q-1) u^2/2 is exactly 0 at x = 2 and negative beyond; the
    # mass term's qcore.first_order_pow refuses it
    *(Refused(f"residual_kg[approx]-cut-x={x}", kg.residual_kg,
              (x, 0.0, kg.KGWave.on_shell(1.0, 0.0), 1.5, "approx"), BranchCutViolation,
              f"{CUT}{c} lies on the branch cut") for x, c in ((2.0, 0.0), (3.0, -1.25), (-5.0, -5.25))),
    Refused("kg_terms-bogus", kg.kg_terms,
            (pw.PhasePoint(0.0, 0.0), kg.KGWave.on_shell(1.1, 1.0), 1.1, "bogus"), ValueError, FAMILY),
    Refused("KGWave-m=-1", kg.KGWave, (0.7, 1.0, -1.0), ValueError, "mass must be nonnegative, got "),
    # qgaussian (m, beta, q): kappa_q has 1/q; at q = -1 D(t) degenerates and M has 1/(q+1)
    Refused("GaussianParams-m=0", qg.GaussianParams, (0.0, 1.0, 1.1), ValueError,
            "mass must be positive, got "),
    Refused("GaussianParams-beta=0", qg.GaussianParams, (1.0, 0.0, 1.1), ValueError, "beta must be nonzero"),
    Refused("GaussianParams-q=0", qg.GaussianParams, (1.0, 1.0, 0.0), InvalidQ,
            "q = 0 breaks the c(t) formula (divides by q)"),
    Refused("GaussianParams-q=-1", qg.GaussianParams, (1.0, 1.0, -1.0), InvalidQ,
            "q = -1 breaks the coefficient denominators (q+1)"),
    # kq = 1/(4 m q beta^2): 5e319 at beta = 1e-160, and at m = 1e-320; a division by
    # zero where 4 m q beta^2 underflows at m = beta = 1e-300; the first-order splits
    # take kq at q = 1: inf at m = 1e-300, beta = 1e-5, where the exact coefficients'
    # kq at q = 1e10 is 2.5e299
    *(Refused(f"GaussianParams-kq-{name}", qg.GaussianParams, args, NonFiniteResult, RESULT + "(inf,)")
      for name, args in (("beta=1e-160", (1.0, 1e-160, 0.5)), ("m=1e-320", (1e-320, 1.0, 1.001)),
                         ("underflow", (1e-300, 1e-300, 1.001)), ("q=1", (1e-300, 1e-5, 1e10)))),
    # e^{-G0} of the first-order packet leaves the double range at (0.5, 0.5), where
    # exact_qgaussian is 0j: a typed refusal, not cmath.exp's builtin OverflowError
    # ("math range error"); the jet's exp overflows at the second (m, beta), and at
    # the first its v1 does: a result, not an input fault
    *(Refused(f"{name}-G0-{m},{beta}", fn, (0.5, 0.5, qg.GaussianParams(m, beta, 1.001)),
              NonFiniteResult, text)
      for m, beta, G0, terms in ((1.0, 1e-150, "(1.249", RESULT + "((nan+nanj),)"),
                                 (1e-160, 1e20, "(1.25e+119", EXP + "(1.25125e+119"))
      for name, fn, text in (("approx_qgaussian", qg.approx_qgaussian, EXP + G0),
                             ("gaussian_terms[approx]", partial(qg.gaussian_terms, family="approx"), terms),
                             ("wavefunction_jet", qg.wavefunction_jet, EXP + G0))),
    # at t = 0 the packet is real, and at q = 0.5, x = 1.5 its first-order
    # amplitude 1 + c is -1.390625: psi^q has no real continuation there
    Refused("gaussian_terms[approx]-cut", qg.gaussian_terms,
            (1.5, 0.0, qg.GaussianParams(1.0, 1.0, 0.5), "approx"), BranchCutViolation,
            CUT + "(-1.390625+0j) lies on the branch cut"),
    # also when the caller passes the coefficients of a family
    Refused("gaussian_terms-bogus", qg.gaussian_terms, (0.0, 0.0, _PACKET, "bogus"), ValueError, FAMILY),
    Refused("gaussian_terms-bogus-coeffs", qg.gaussian_terms,
            (0.0, 0.0, _PACKET, "bogus", qg.terms_coeffs(0.0, _PACKET, "exact")), ValueError, FAMILY),
    # separation: an exponent with an infinite part (cmath.exp's builtin ValueError,
    # or nan), and the first-order factors' nan or inf parts
    Refused("approx_qgaussian-x=1.7e308", qg.approx_qgaussian,
            (1.7e308, 1e300, qg.GaussianParams(1.0, 1.0, 1.001)), NonFiniteResult, EXP + "(-345.48"),
    *(Refused(f"exact_g-x=1.7e308-q={q}", separation.exact_g, (1.7e308, 2.0, q), NonFiniteResult,
              EXP + value) for q, value in ((0.999, "(inf+infj)"), (1.0, "infj"))),
    *(Refused(f"{fn.__name__}-{huge}=1e300", fn, args, NonFiniteResult, RESULT + value)
      for fn, huge, args, value in ((separation.approx_f, "t", (1e300, 0.5, 1.0), "((nan+nanj),)"),
                                    (separation.approx_f_q, "t", (1e300, 0.5, 1.5), "((inf+infj),)"),
                                    (separation.dt_approx_f_q, "t", (1e300, 0.5, 1.5), "((inf-infj),)"),
                                    (separation.approx_g, "x", (1e300, 0.5, 1.0), "((nan+nanj),)"),
                                    (separation.approx_g_q, "x", (1e300, 0.5, 1.5), "((-inf+infj),)"),
                                    (separation.d2x_approx_g, "p", (0.0, 1e300, 1.0), "((nan+nanj),)"))),
    *(Refused(f"{fn.__name__}-bogus", partial(fn, family="bogus"), (0.0, e_or_p, 1.1), ValueError, FAMILY)
      for fn, e_or_p in ((separation.f_terms, 0.845), (separation.g_terms, 1.3))),
    # the exponent q in f's argument; mu has sqrt(2(q+1))
    Refused("exact_f-q=0", separation.exact_f, (1.0, 0.845, 0.0), InvalidQ,
            "f(t) is undefined at q = 0 (formula divides by q)"),
    *(Refused(f"exact_g-q={q}", separation.exact_g, (1.0, 1.3, q), InvalidQ,
              f"g(x) needs q + 1 > 0, got q = {q}") for q in (-1.0, -2.0)),
    # scenarios: 1e308 MeV is a valid scenario; its momentum pc overflows to inf,
    # a value computed from finite arguments
    Refused("wave_for-1e308-MeV", scenarios.wave_for, (scenarios.ParticleScenario.from_mev(
        "electron", 1e308, 1e-9),), NonFiniteResult, RESULT + "(inf,)"),
    *(Refused(f"from_mev-{name}", partial(scenarios.ParticleScenario.from_mev, **kwargs), args, ValueError,
              text)
      for name, args, kwargs, text in (
          ("muon", ("muon", 1.0, 1e-9), {}, "unknown species "),
          ("T=-1", ("electron", -1.0, 1e-9), {}, "kinetic energy must be positive"),
          ("warp", ("electron", 1.0, 1e-9), dict(momentum_model="warp"),
           "momentum_model must be one of ('relativistic', 'nonrelativistic'), got "),
          ("1-point", ("electron", 1.0, 1e-9), dict(x_range=(0.0, 1.0, 1)),
           "x_range needs at least 2 points, got "))),
    # verify
    Refused("FDScheme-step=0", verify.FDScheme, (0.0,), ValueError, "step must be positive and finite, got "),
    *(Refused(f"FDScheme-levels={n}", verify.FDScheme, (1e-3, n), ValueError,
              "richardson_levels must be >= 1") for n in (0, -1)),
    Refused("fd_derivative-deriv=3", verify.fd_derivative, (math.exp, 0.0, verify.FDScheme(1e-3), 3),
            ValueError, "deriv must be 1 or 2, got "),
    *(Refused(f"order_of_convergence-{name}", verify.order_of_convergence, args, error, text)
      for name, args, error, text in (
          ("2-epsilons", (lambda e: e, (1e-2, 1e-3)), ValueError,
           "need at least 3 epsilons for an order fit"),
          ("unsorted", (lambda e: e, (1e-3, 1e-2, 1e-4)), ValueError,
           "epsilons must be positive and strictly decreasing"),
          ("one-decade", (lambda e: e, (1e-2, 3e-3, 1e-3)), ValueError,
           "epsilons must span at least two decades"),
          ("mixed-zero", (lambda e: 0.0 if e < 1e-3 else e * e,), DegenerateFit,
           "mixed zero and nonzero residual norms: (0.0001, 1e-05, 1e-06, 0.0, 0.0)"),
          ("inf", (lambda e: math.inf,), DegenerateFit,
           "residual norms must be finite and >= 0, got (inf, inf, inf, inf, inf)"))),
    # a point's coordinate, passed by position (the contract passes it by name)
    Refused("PhasePoint-x=nan", pw.PhasePoint, (math.nan,), NonFiniteInput, "x must be finite, got nan"),
    Refused("PhasePoint-t=inf", pw.PhasePoint, (1.0, math.inf), NonFiniteInput, "t must be finite, got inf"),
]
DOMAIN = tuple(row.text for row in REFUSED if row.error is ValueError)
# the builtin base each error class keeps, so that an except clause of the builtin still catches it
BUILTIN = {NonFiniteResult: OverflowError, DivisionByZeroJet: ZeroDivisionError,
           **dict.fromkeys((NonFiniteInput, BranchCutViolation, InvalidQ), ValueError)}


@pytest.mark.parametrize("row", REFUSED, ids=[row.id for row in REFUSED])
def test_refused_call(row):
    with pytest.raises(row.error) as refusal:
        row.fn(*row.args)
    assert type(refusal.value) is row.error and issubclass(row.error, BUILTIN.get(row.error, Exception))
    assert str(refusal.value).startswith(row.text), refusal.value
