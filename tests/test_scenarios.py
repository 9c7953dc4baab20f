"""Laboratory units to dimensionless phase: constants, momentum models,
and the sweep drivers behind the figures."""

from hypothesis import given, settings, strategies as st

from qwave import scenarios
from qwave.qgaussian import GaussianParams

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


def test_gaussian_sweep_range():
    rows = scenarios.run_gaussian_sweep(GaussianParams(m=1.0, beta=1.0, q=1.001))
    assert len(rows) == 1001
    assert list(rows.columns) == ["x", "ratio"]
    assert (rows.columns["x"][0], rows.columns["ratio"][0]) == (0.0, 1.0)
    assert rows.columns["x"][-1] == 4.0


