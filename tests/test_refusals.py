"""The refusal contract of every public entry, generated from its signature: a
NaN or infinite argument is a NonFiniteInput that names it; at finite extremes
an entry returns finite parts, or raises a QWaveError other than NonFiniteInput
or a value type's domain ValueError (DOMAIN; exit 3 in the CLI), never another
builtin error.  Each parameter is filled by its name from NOMINAL; a compound
one is built from its constructor's fields (BUILDERS), which are crossed in turn."""

import cmath
import inspect
import itertools
import math
from functools import cache, partial

import pytest

from qwave import kleingordon as kg, planewave as pw, qcore, qgaussian as qg, scenarios, separation
from qwave.errors import NonFiniteInput, QWaveError

MODULES = (qcore, pw, kg, separation, qg, scenarios)
NOMINAL = dict(x=0.5, t=0.5, p=1.0, E=0.5, m=1.0, k=1.0, q=1.1, beta=1.0, s=0.5, z=0.5j, w=0.5, v0=1.0,
               v1=2.0, u=0.5, coef=1.0, mass_kg=scenarios.M_ELECTRON_KG, kinetic_mev=1.0, q_minus_1=1e-9,
               species="electron", momentum_model="relativistic", x_range=(0.0, 1.0, 3))
DOMAIN = ("mass must be", "beta must be", "kinetic energy must be")
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
    "qcore.phase_pow-s": f"{_RESULT}; test_phase_pow_refuses_a_non_finite_phase_as_a_result",
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
