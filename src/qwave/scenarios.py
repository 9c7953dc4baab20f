"""Physical constants and the desk-scale figure scenarios.

The deviation-ratio figures sweep R = |approx/exact| for a 1 MeV electron
or proton over laboratory distances.  Carried out in SI units the phase
u = px/hbar reaches ~1e13 at x = 1 m and the sweep probes nothing but the
tails of the q-power; the curves of interest live where u is order unity.
The sweeps therefore use "figure units": energies in MeV (p as pc, E as
p^2 c^2 / 2 mc^2, m as mc^2), hbar = 1, and x in meters entering the
phase as a plain number.  The SI constants and MeV converters are still
here for the kinematics (momentum from kinetic energy) and for callers
who want real conversions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteInput
from .kleingordon import KGWave
from .planewave import PhasePoint, SchrodingerWave, ratio_R
from .qgaussian import GaussianParams, ratio_gaussian

# CODATA 2018.  c and e are exact by SI definition; the masses carry
# experimental uncertainty.
C_M_PER_S = 299792458.0  # m / s
EV_J = 1.602176634e-19  # J
M_ELECTRON_KG = 9.1093837015e-31  # kg
M_PROTON_KG = 1.67262192369e-27  # kg

SPECIES_MASS_KG = {
    "electron": M_ELECTRON_KG,
    "proton": M_PROTON_KG,
}

MOMENTUM_MODELS = ("relativistic", "nonrelativistic")


def mev_to_joule(energy_mev: float) -> float:
    return energy_mev * 1.0e6 * EV_J


def joule_to_mev(energy_j: float) -> float:
    return energy_j / (1.0e6 * EV_J)


def mass_energy_mev(mass_kg: float) -> float:
    """Rest energy m c^2 in MeV."""
    return joule_to_mev(mass_kg * C_M_PER_S * C_M_PER_S)


@dataclass(frozen=True)
class ParticleScenario:
    """One ratio-figure configuration.

    Kinetic energy is stored in SI (joules); use from_mev for the usual
    construction.  x_range is (start, stop, npoints) in meters.
    """

    species: str
    mass_kg: float
    kinetic_energy_j: float
    q_minus_1: float
    momentum_model: str = "relativistic"
    x_range: tuple[float, float, int] = (0.0, 1.0, 2001)
    t: float = 0.0

    def __post_init__(self):
        for name in ("mass_kg", "kinetic_energy_j", "q_minus_1", "t"):
            if not math.isfinite(getattr(self, name)):
                raise NonFiniteInput(f"{name} must be finite")
        if self.mass_kg <= 0:
            raise ValueError(f"mass must be positive, got {self.mass_kg!r}")
        if self.kinetic_energy_j <= 0:
            raise ValueError("kinetic energy must be positive")
        if self.momentum_model not in MOMENTUM_MODELS:
            raise ValueError(
                f"momentum_model must be one of {MOMENTUM_MODELS}, "
                f"got {self.momentum_model!r}"
            )
        start, stop, npoints = self.x_range
        if not (math.isfinite(start) and math.isfinite(stop)):
            raise NonFiniteInput("x_range bounds must be finite")
        if npoints < 2:
            raise ValueError(f"x_range needs at least 2 points, got {npoints!r}")

    @classmethod
    def from_mev(
        cls,
        species: str,
        kinetic_mev: float,
        q_minus_1: float,
        momentum_model: str = "relativistic",
        x_range: tuple[float, float, int] = (0.0, 1.0, 2001),
        t: float = 0.0,
        mass_kg: float | None = None,
    ) -> "ParticleScenario":
        """Scenario for a named species ("electron", "proton") or, with
        mass_kg given, any custom species label."""
        if mass_kg is None:
            try:
                mass_kg = SPECIES_MASS_KG[species]
            except KeyError:
                raise ValueError(
                    f"unknown species {species!r}; pass mass_kg for a custom one"
                ) from None
        return cls(
            species=species,
            mass_kg=mass_kg,
            kinetic_energy_j=mev_to_joule(kinetic_mev),
            q_minus_1=q_minus_1,
            momentum_model=momentum_model,
            x_range=x_range,
            t=t,
        )


def momentum_from_energy(scn: ParticleScenario) -> float:
    """Momentum as pc in MeV for the scenario's kinematic model.

    relativistic: pc = sqrt(T^2 + 2 T mc^2); nonrelativistic:
    pc = sqrt(2 mc^2 T) (i.e. p = sqrt(2mT) scaled by c).
    """
    T = joule_to_mev(scn.kinetic_energy_j)
    mc2 = mass_energy_mev(scn.mass_kg)
    if scn.momentum_model == "relativistic":
        return math.sqrt(T * T + 2.0 * T * mc2)
    return math.sqrt(2.0 * mc2 * T)


def wave_for(scn: ParticleScenario) -> SchrodingerWave:
    """Free-particle wave in figure units (MeV energies, hbar = 1)."""
    pc = momentum_from_energy(scn)
    return SchrodingerWave.free(p=pc, m=mass_energy_mev(scn.mass_kg), hbar=1.0)


def kg_wave_for(scn: ParticleScenario) -> KGWave:
    """On-shell relativistic wave in the same figure units (c = 1)."""
    pc = momentum_from_energy(scn)
    return KGWave.on_shell(k=pc, m=mass_energy_mev(scn.mass_kg), c=1.0, hbar=1.0)


@dataclass(frozen=True, eq=False)
class Sweep:
    """A ratio sweep as two arrays; iterates and indexes as (x, value) rows."""

    x: np.ndarray
    values: np.ndarray

    def __len__(self) -> int:
        return len(self.x)

    def __iter__(self):
        return zip(self.x.tolist(), self.values.tolist())

    def __getitem__(self, i: int) -> tuple[float, float]:
        return float(self.x[i]), float(self.values[i])


def run_ratio_sweep(scn: ParticleScenario) -> Sweep:
    """x and R of a plane-wave ratio figure, one array pass."""
    w = wave_for(scn)
    q = 1.0 + scn.q_minus_1
    xs = np.linspace(*scn.x_range)
    return Sweep(xs, ratio_R(PhasePoint(xs, scn.t), w, q))


def run_gaussian_sweep(
    params: GaussianParams,
    x_range: tuple[float, float, int] = (0.0, 4.0, 1001),
    t: float = 0.0,
) -> Sweep:
    """x and ratio of a packet ratio figure (natural units), one array pass."""
    xs = np.linspace(*x_range)
    return Sweep(xs, ratio_gaussian(xs, t, params))
