"""Laboratory units to dimensionless phase: constants, momentum models,
and the sweep drivers behind the figures."""

import math
from array import array

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qwave import scenarios
from qwave.errors import NonFiniteInput, NonFiniteResult
from qwave.planewave import PhasePoint, _phase_ratio, ratio_R
from qwave.qcore import _on_arrays, _ratio
from qwave.qgaussian import GaussianParams, ratio_gaussian, ratio_terms

# published rest energies, used as independent anchors for the kg masses
ELECTRON_MC2_MEV = 0.51099895000
PROTON_MC2_MEV = 938.27208816

# sqrt(T^2 + 2 T mc^2) at T = 1 MeV from the anchors above
PC_ELECTRON_1MEV = 1.421969725416
# sqrt(2 mc^2 T), nonrelativistic model
PC_PROTON_1MEV_NONREL = 43.319097131866


def test_mass_energy_anchors():
    assert abs(scenarios.mass_energy_mev(scenarios.M_ELECTRON_KG) - ELECTRON_MC2_MEV) < 1e-8
    assert abs(scenarios.mass_energy_mev(scenarios.M_PROTON_KG) - PROTON_MC2_MEV) < 1e-5


def test_momentum_relativistic_electron():
    scn = scenarios.ParticleScenario.from_mev("electron", 1.0, 1e-9)
    pc = scenarios.momentum_from_energy(scn)
    assert abs(pc - PC_ELECTRON_1MEV) / PC_ELECTRON_1MEV < 1e-9


def test_momentum_nonrelativistic_proton():
    scn = scenarios.ParticleScenario.from_mev(
        "proton", 1.0, 1e-9, momentum_model="nonrelativistic"
    )
    pc = scenarios.momentum_from_energy(scn)
    assert abs(pc - PC_PROTON_1MEV_NONREL) / PC_PROTON_1MEV_NONREL < 1e-9


def test_momentum_models_agree_at_low_energy():
    # for the proton at 1 MeV the models differ only at the T/mc^2 level
    rel = scenarios.ParticleScenario.from_mev("proton", 1.0, 0.0)
    non = scenarios.ParticleScenario.from_mev(
        "proton", 1.0, 0.0, momentum_model="nonrelativistic"
    )
    a = scenarios.momentum_from_energy(rel)
    b = scenarios.momentum_from_energy(non)
    assert abs(a - b) / b < 1e-3


@settings(deadline=None, max_examples=50)
@given(st.floats(min_value=1e-6, max_value=1e6, allow_nan=False))
def test_kinetic_energy_is_stored_as_given(e_mev):
    # no unit round trip: the scenario keeps the very float it was given
    assert scenarios.ParticleScenario.from_mev("electron", e_mev, 1e-9).kinetic_mev == e_mev


def test_momentum_overflow_is_typed():
    # 1e308 MeV is a valid scenario; its momentum pc overflows to inf, a value
    # computed from finite arguments
    scn = scenarios.ParticleScenario.from_mev("electron", 1e308, 1e-9)
    with pytest.raises(NonFiniteResult):
        scenarios.wave_for(scn)


def test_wave_for_satisfies_free_relation():
    scn = scenarios.ParticleScenario.from_mev("electron", 1.0, 1e-9)
    w = scenarios.wave_for(scn)
    assert w.E == w.p * w.p / (2.0 * w.m)
    # mass slot carries the rest energy in MeV
    assert abs(w.m - ELECTRON_MC2_MEV) / ELECTRON_MC2_MEV < 1e-8


def test_ratio_sweep_shape_and_trivial_q():
    scn = scenarios.ParticleScenario.from_mev(
        "electron", 1.0, 0.0, x_range=(0.0, 1.0, 11)
    )
    rows = scenarios.run_ratio_sweep(scn)
    assert len(rows) == 11
    assert list(rows.columns) == ["x", "R"]
    assert rows.columns["x"][0] == 0.0 and rows.columns["x"][-1] == 1.0
    assert rows.columns["R"].tolist() == [1.0] * 11


# q - 1 where R varies over the grid, t = 0 and not, one block and more
SWEEP_CASES = [(qm1, t, n) for qm1 in (1e-3, -0.3) for t in (0.0, 0.7)
               for n in (29, scenarios.BLOCK_ROWS + 3)]


def on_arrays(kernel):
    """kernel(functions) on numpy arrays, as a sweep of more than one block runs it."""
    with np.errstate(all="ignore"):
        return kernel(_on_arrays(np))


def test_ratio_sweep_matches_pointwise_calls():
    # one block is one call of ratio_R per point; a longer sweep is the kernel
    # on numpy arrays over its whole grid, bit for bit
    for qm1, t, n in SWEEP_CASES:
        scn = scenarios.ParticleScenario.from_mev("proton", 1.0, qm1, x_range=(-1.0, 1.0, n), t=t)
        w, q = scenarios.wave_for(scn), 1.0 + qm1
        sweep = scenarios.run_ratio_sweep(scn)
        xs, rs = sweep.columns["x"], sweep.columns["R"]
        reference = (array("d", [ratio_R(PhasePoint(x, t), w, q) for x in xs])
                     if n <= scenarios.BLOCK_ROWS
                     else on_arrays(lambda functions: _phase_ratio(w.p * xs - w.E * t, q - 1.0,
                                                                   functions)))
        assert rs.tobytes() == reference.tobytes()
        assert len(set(rs.tolist())) > n // 2  # R varies, so a wrong phase or eps shows


def test_gaussian_sweep_matches_pointwise_calls():
    for qm1, t, n in SWEEP_CASES:
        params = GaussianParams(m=1.0, beta=1.0, q=1.0 + qm1)
        # at q - 1 = -0.3 the base 1 + (q-1) G meets the branch cut at x = -3.0 and 1.57
        x_range = (-3.0, 4.0, n) if qm1 > 0 else (-2.5, 1.5, n)
        sweep = scenarios.run_gaussian_sweep(params, x_range, t)
        xs, rs = sweep.columns["x"], sweep.columns["ratio"]
        reference = (array("d", [ratio_gaussian(x, t, params) for x in xs])
                     if n <= scenarios.BLOCK_ROWS
                     else on_arrays(lambda functions: _ratio(*ratio_terms(xs, t, params),
                                                             params.q - 1.0, functions)))
        assert rs.tobytes() == reference.tobytes()
        assert len(set(rs.tolist())) > n // 2


@pytest.mark.parametrize("sweep", [
    lambda x_range: scenarios.run_ratio_sweep(
        scenarios.ParticleScenario.from_mev("electron", 1.0, 1e-9, x_range=x_range)),
    lambda x_range: scenarios.run_gaussian_sweep(GaussianParams(1.0, 1.0, 1.001), x_range),
], ids=["planewave", "packet"])
@pytest.mark.parametrize("x_range, name", [((math.nan, 1.0, 3), "start"),
                                           ((0.0, math.inf, 3), "stop")])
def test_sweep_refuses_a_non_finite_endpoint_by_name(sweep, x_range, name):
    with pytest.raises(NonFiniteInput, match=f"^x_range {name} must be finite"):
        sweep(x_range)


def test_gaussian_sweep_range():
    rows = scenarios.run_gaussian_sweep(GaussianParams(m=1.0, beta=1.0, q=1.001))
    assert len(rows) == 1001
    assert list(rows.columns) == ["x", "ratio"]
    assert (rows.columns["x"][0], rows.columns["ratio"][0]) == (0.0, 1.0)
    assert rows.columns["x"][-1] == 4.0


def test_scenario_validation():
    with pytest.raises(ValueError):
        scenarios.ParticleScenario.from_mev("muon", 1.0, 1e-9)
    with pytest.raises(ValueError):
        scenarios.ParticleScenario.from_mev("electron", -1.0, 1e-9)
    with pytest.raises(ValueError):
        scenarios.ParticleScenario.from_mev("electron", 1.0, 1e-9, momentum_model="warp")
    with pytest.raises(ValueError):
        scenarios.ParticleScenario.from_mev("electron", 1.0, 1e-9, x_range=(0.0, 1.0, 1))
