"""The value types: immutable __slots__ classes on qcore.Frozen that compare,
hash and repr by field."""

import copy
import importlib
import math
import pickle
import pkgutil

import numpy as np
import pytest

import qwave
from qwave import checks, qcore, scenarios, verify
from qwave import kleingordon as kg
from qwave import planewave as pw
from qwave import qgaussian as qg
from qwave.errors import NonFiniteInput


# each class: two calls that build equal values, then one that differs in a field
VALUES = {
    "PlaneWave": lambda v=1.0: pw.PlaneWave(p=v, E=2.0, m=3.0),
    "SchrodingerWave": lambda v=1.0: pw.SchrodingerWave.free(p=v, m=1.0),
    "KGWave": lambda v=1.0: kg.KGWave.on_shell(k=v, m=1.0),
    "PhasePoint": lambda v=1.0: pw.PhasePoint(v, 0.5),
    "QJet": lambda v=1.0: qcore.QJet(v, 2j),
    "GaussianParams": lambda v=1.0: qg.GaussianParams(m=v, beta=1.0, q=1.1),
    "ParticleScenario": lambda v=1.0: scenarios.ParticleScenario.from_mev("proton", v, 1e-9),
    "FDScheme": lambda v=1.0: verify.FDScheme(step=v),
    "OrderFit": lambda v=1.0: verify.OrderFit((1e-2, 1e-4), (v, 1e-8), 2.0, 1.0),
    "Check": lambda v=1.0: checks.Check("suite.name", "a claim", v, "le", float),
}


def test_every_value_type_has_a_row():
    # Sweep compares by identity (test_sweeps_compare_by_identity); __main__ runs the CLI
    for module in pkgutil.iter_modules(qwave.__path__):
        if module.name != "__main__":
            importlib.import_module(f"qwave.{module.name}")
    found, todo = set(), [qcore.Frozen]
    while todo:
        for cls in todo.pop().__subclasses__():
            todo.append(cls)
            if cls.__module__.startswith("qwave."):
                found.add(cls.__name__)
    assert found - {"Sweep"} == set(VALUES)


@pytest.mark.parametrize("name", VALUES)
def test_values_compare_by_field(name):
    make = VALUES[name]
    a, b, other = make(), make(), make(2.0)
    assert a is not b
    assert a == b and not a != b
    assert a != other and not a == other
    assert a != (a.__class__.__name__, *(getattr(a, f) for f in a._fields))
    assert hash(a) == hash(b)
    assert copy.copy(a) == a and copy.deepcopy(a) == a
    assert pickle.loads(pickle.dumps(a)) == a


@pytest.mark.parametrize("name", VALUES)
def test_values_are_immutable(name):
    value = VALUES[name]()
    field = value._fields[0]
    before = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, before)
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1.0
    assert getattr(value, field) == before
    assert not hasattr(value, "__dict__")


def test_hash_keys_equal_values_together():
    params = {qg.GaussianParams(m=1.0, beta=1.0, q=1.1), qg.GaussianParams(1.0, 1.0, 1.1)}
    jets = {qcore.QJet(1, 0), qcore.QJet(1.0, 0.0), qcore.QJet(1 + 0j, -0.0)}
    assert len(params) == 1 and len(jets) == 1
    assert qcore.QJet(1.0, 2.0) in {qcore.QJet(1 + 0j, 2 + 0j)}


def test_subclasses_and_bases_are_unequal():
    fields = dict(p=1.0, E=2.0, m=3.0)
    assert pw.PlaneWave(**fields) != pw.SchrodingerWave(**fields)
    assert pw.SchrodingerWave(**fields) != kg.KGWave(**fields)
    assert pw.SchrodingerWave(**fields)._fields == ("p", "E", "m")


def test_repr_lists_the_fields():
    assert repr(qg.GaussianParams(m=1.0, beta=2.0, q=1.1)) == \
        "GaussianParams(m=1.0, beta=2.0, q=1.1)"
    assert repr(kg.KGWave(1.0, 2.0, 0.0)) == "KGWave(p=1.0, E=2.0, m=0.0)"
    assert repr(qcore.QJet(1, 2)) == "QJet(v0=(1+0j), v1=(2+0j))"
    assert repr(verify.FDScheme(0.5)) == "FDScheme(step=0.5, richardson_levels=1)"


def test_phase_point_refusal_names_its_coordinate():
    with pytest.raises(NonFiniteInput, match=r"^x must be finite, got nan$"):
        pw.PhasePoint(math.nan)
    with pytest.raises(NonFiniteInput, match=r"^t must be finite, got inf$"):
        pw.PhasePoint(1.0, math.inf)


def test_sweeps_compare_by_identity():
    x = np.linspace(0.0, 1.0, 3)
    a, b = scenarios.Sweep({"x": x, "R": x}), scenarios.Sweep({"x": x, "R": x})
    assert a == a and a != b
    assert len({a, b}) == 2
    with pytest.raises(AttributeError):
        a.columns = {"x": x}
