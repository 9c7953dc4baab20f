"""Physical constants and the desk-scale figure scenarios.

The deviation-ratio figures sweep R = |approx/exact| for a 1 MeV electron
or proton in "figure units": energies in MeV (p as pc, E as
p^2 c^2 / 2 mc^2, m as mc^2) and hbar = 1, so the phase is u = pc x and x
is in units of hbar c/MeV = 197.327 fm; one metre is 5.068e12 of them.
The default x range 0..1 (about 200 fm) keeps u of order unity, where the
curves of interest live; at x = 1 m a 1 MeV electron's phase is ~7e12 and
a sweep would probe nothing but the tails of the q-power.  The SI
constants and joule_to_mev are here for the rest energies (mc^2 in MeV)
and for callers who want real conversions.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .errors import NonFiniteInput
from .planewave import PhasePoint, SchrodingerWave, ratio_R
from .qcore import Frozen
from .qgaussian import GaussianParams, ratio_gaussian

if TYPE_CHECKING:
    import numpy as np

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


def joule_to_mev(energy_j: float) -> float:
    return energy_j / (1.0e6 * EV_J)


def mass_energy_mev(mass_kg: float) -> float:
    """Rest energy m c^2 in MeV."""
    return joule_to_mev(mass_kg * C_M_PER_S * C_M_PER_S)


class ParticleScenario(Frozen):
    """One ratio-figure configuration.

    Kinetic energy is stored in MeV, as given; the mass in kg.  Use
    from_mev for a named species.  x_range is (start, stop, npoints) in
    units of hbar c/MeV.
    """

    __slots__ = ("species", "mass_kg", "kinetic_mev", "q_minus_1", "momentum_model", "x_range", "t")

    def __init__(self, species: str, mass_kg: float, kinetic_mev: float, q_minus_1: float,
                 momentum_model: str = "relativistic",
                 x_range: tuple[float, float, int] = (0.0, 1.0, 2001), t: float = 0.0):
        self._set(species, mass_kg, kinetic_mev, q_minus_1, momentum_model, x_range, t)
        for name in ("mass_kg", "kinetic_mev", "q_minus_1", "t"):
            if not math.isfinite(getattr(self, name)):
                raise NonFiniteInput(f"{name} must be finite")
        if self.mass_kg <= 0:
            raise ValueError(f"mass must be positive, got {self.mass_kg!r}")
        if self.kinetic_mev <= 0:
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
    def from_mev(cls, species: str, *args, **kwargs) -> "ParticleScenario":
        """Scenario for a named species, "electron" or "proton"; the other
        arguments are the constructor's after mass_kg."""
        if species not in SPECIES_MASS_KG:
            raise ValueError(f"unknown species {species!r}")
        return cls(species, SPECIES_MASS_KG[species], *args, **kwargs)


def momentum_from_energy(scn: ParticleScenario) -> float:
    """Momentum as pc in MeV for the scenario's kinematic model.

    relativistic: pc = sqrt(T^2 + 2 T mc^2); nonrelativistic:
    pc = sqrt(2 mc^2 T) (i.e. p = sqrt(2mT) scaled by c).
    """
    T = scn.kinetic_mev
    mc2 = mass_energy_mev(scn.mass_kg)
    if scn.momentum_model == "relativistic":
        return math.sqrt(T * T + 2.0 * T * mc2)
    return math.sqrt(2.0 * mc2 * T)


def wave_for(scn: ParticleScenario) -> SchrodingerWave:
    """Free-particle wave in figure units (MeV energies, hbar = 1)."""
    pc = momentum_from_energy(scn)
    return SchrodingerWave.free(p=pc, m=mass_energy_mev(scn.mass_kg))


# Rows per block of a sweep.  The ratio kernels and the CLI writers take a
# sweep this many points at a time, so their temporaries stay in the cache
# and are reused instead of spanning the whole grid; 512 and 65,536 rows
# measured slower on 200,001-point sweeps.
BLOCK_ROWS = 2048


class Sweep(Frozen):
    """A ratio sweep as two arrays: the grid x and the ratio at each x."""

    __slots__ = ("x", "values")
    __eq__, __hash__ = object.__eq__, object.__hash__  # by identity, not by the arrays

    def __init__(self, x: np.ndarray, values: np.ndarray):
        self._set(x, values)

    def __len__(self) -> int:
        return len(self.x)

    def blocks(self) -> list[Sweep]:
        """Consecutive views of BLOCK_ROWS rows each (the last may be shorter)."""
        return [Sweep(self.x[i:i + BLOCK_ROWS], self.values[i:i + BLOCK_ROWS])
                for i in range(0, len(self), BLOCK_ROWS)]


def _blockwise_sweep(x_range: tuple[float, float, int], ratio) -> Sweep:
    """The sweep of ratio(xs) over xs = np.linspace(*x_range), block by block.

    ratio is elementwise and each block is a view of the one grid, so the
    values are those of a single whole-grid call, bit for bit.
    """
    import numpy as np

    with np.errstate(all="ignore"):  # a non-finite x is refused by ratio
        xs = np.linspace(*x_range)
    sweep = Sweep(xs, np.empty_like(xs))
    for block in sweep.blocks():
        block.values[:] = ratio(block.x)
    return sweep


def run_ratio_sweep(scn: ParticleScenario) -> Sweep:
    """x and R of a plane-wave ratio figure."""
    w = wave_for(scn)
    q = 1.0 + scn.q_minus_1
    return _blockwise_sweep(scn.x_range, lambda xs: ratio_R(PhasePoint(xs, scn.t), w, q))


def run_gaussian_sweep(
    params: GaussianParams,
    x_range: tuple[float, float, int] = (0.0, 4.0, 1001),
    t: float = 0.0,
) -> Sweep:
    """x and ratio of a packet ratio figure (natural units)."""
    return _blockwise_sweep(x_range, lambda xs: ratio_gaussian(xs, t, params))
