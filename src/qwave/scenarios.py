"""Physical constants and the desk-scale figure scenarios.

The deviation-ratio figures sweep R = |approx/exact| for a 1 MeV electron
or proton in "figure units": energies in MeV (p as pc, E as
p^2 c^2 / 2 mc^2, m as mc^2) and hbar = 1, so the phase is u = pc x and x
is in units of hbar c/MeV = 197.327 fm; one metre is 5.068e12 of them.
The default x range 0..1 (about 200 fm) keeps u of order unity, where the
curves of interest live; at x = 1 m a 1 MeV electron's phase is ~7e12 and
a sweep would probe nothing but the tails of the q-power.  The SI
constants are here for the rest energies (mc^2 in MeV).

A sweep is the one place that picks Python floats or numpy arrays for R
(_blockwise_sweep).  It calls its family's ratio kernel, planewave._phase_ratio
or qcore._ratio, at the eps (and the plane wave's p and E) that the per-point
entries planewave.ratio_R and qgaussian.ratio_gaussian form, so a one-block
sweep's values are theirs bit for bit; what those entries check per call, it
checks once.
"""

from __future__ import annotations

import math
from array import array
from typing import TYPE_CHECKING

from .planewave import SchrodingerWave, _phase_ratio
from .qcore import _ON_NUMBERS, Frozen, _on_arrays, _ratio, finite, finite_result
from .qgaussian import GaussianParams, coeffs_exact, coeffs_first_order, ratio_terms

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


def mass_energy_mev(mass_kg: float) -> float:
    """Rest energy m c^2 in MeV."""
    return finite_result(finite(mass_kg, "mass_kg") * C_M_PER_S * C_M_PER_S / (1.0e6 * EV_J))[0]


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
        self._set(species, finite(mass_kg, "mass_kg"), finite(kinetic_mev, "kinetic_mev"),
                  finite(q_minus_1, "q_minus_1"), momentum_model, x_range, finite(t, "t"))
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
        finite(start, "x_range start"), finite(stop, "x_range stop")
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
    pc = sqrt(2 mc^2 T) (i.e. p = sqrt(2mT) scaled by c).  A pc beyond the
    double range is a NonFiniteResult.
    """
    T = scn.kinetic_mev
    mc2 = mass_energy_mev(scn.mass_kg)
    if scn.momentum_model == "relativistic":
        return finite_result(math.sqrt(T * T + 2.0 * T * mc2))[0]
    return finite_result(math.sqrt(2.0 * mc2 * T))[0]


def wave_for(scn: ParticleScenario) -> SchrodingerWave:
    """Free-particle wave in figure units (MeV energies, hbar = 1)."""
    pc = momentum_from_energy(scn)
    return SchrodingerWave.free(p=pc, m=mass_energy_mev(scn.mass_kg))


# Rows per block of a sweep.  A sweep of at most this many points is one
# block, evaluated and written on Python floats without loading numpy, as
# every figure and both CLI defaults are; a longer one is evaluated in numpy
# and written by qwave.floattext this many rows at a time.  Median wall ms
# of 31 fresh 200,001-point runs (2-core AMD EPYC), by rows per block:
#   rows             2,048  4,096  8,192  16,384
#   planewave_json    93.6   89.4   87.4   86.8   (16,384 rows outgrows the
#   packet_csv        92.3   87.5   85.1   86.0    tests' 8 MB traced bound)
BLOCK_ROWS = 8192


def linspace(lo: float, hi: float, n: int) -> tuple[float, ...]:
    """n points from lo to hi, equal bit for bit to np.linspace(lo, hi, n)."""
    if n < 2:
        return (lo,) * n
    delta = hi - lo
    step = delta / (n - 1)
    if step == 0.0:  # a subnormal spacing: linspace scales i / (n - 1) by delta instead
        return tuple([i / (n - 1) * delta + lo for i in range(n - 1)] + [hi])
    return tuple([i * step + lo for i in range(n - 1)] + [hi])


class Sweep(Frozen):
    """A ratio sweep as named columns in order, the grid first whatever its name,
    each array.array("d") for one block of Python floats, else a numpy array."""

    __slots__ = ("columns",)
    __eq__, __hash__ = object.__eq__, object.__hash__  # by identity, not by the arrays

    def __init__(self, columns: dict[str, array | np.ndarray]):
        self._set(columns)

    def __len__(self) -> int:
        return len(next(iter(self.columns.values())))

    def blocks(self) -> list[Sweep]:
        """Consecutive slices of BLOCK_ROWS rows each (the last may be shorter)."""
        return [Sweep({name: c[i:i + BLOCK_ROWS] for name, c in self.columns.items()})
                for i in range(0, len(self), BLOCK_ROWS)]


def _blockwise_sweep(x_range: tuple[float, float, int], name: str, kernel) -> Sweep:
    """The sweep of columns x = np.linspace(*x_range) and name = kernel(x, functions),
    checked once: an endpoint that is not finite is a NonFiniteInput, a grid
    whose span stop - start overflows (every point lies between the ends of a
    grid of finite span) a NonFiniteResult.  One block runs point by point on
    the floats of linspace with functions qcore._ON_NUMBERS; a longer sweep
    block by block on views of one np.linspace grid, with qcore._on_arrays(numpy)
    under one np.errstate(all="ignore") (the kernels refuse a term that
    overflows), equal bit for bit to one call on it.

    Before the grid, a longer sweep allocates and frees one untouched 4 MiB
    buffer (BLOCK_ROWS * 512 bytes; a block's largest allocation is its 0.64 MB
    of JSON slots).  That raises glibc's adaptive mmap threshold to its size
    and the trim threshold to twice that, so the heap pages each block frees
    are reused, not trimmed and faulted in again (over 10,000 fewer faults on
    a 200,001-point sweep).  Other allocators ignore it.
    """
    start, stop, npoints = x_range
    finite_result(finite(stop, "x_range stop") - finite(start, "x_range start"))
    if npoints <= BLOCK_ROWS:
        xs = array("d", linspace(start, stop, npoints))
        return Sweep({"x": xs, name: array("d", [kernel(x, _ON_NUMBERS) for x in xs])})
    import numpy as np

    np.empty(BLOCK_ROWS * 512, np.uint8)  # freed at once: see the docstring
    xs = np.linspace(start, stop, npoints)
    sweep, functions = Sweep({"x": xs, name: np.empty_like(xs)}), _on_arrays(np)
    with np.errstate(all="ignore"):
        for block in sweep.blocks():
            block.columns[name][:] = kernel(block.columns["x"], functions)
    return sweep


def run_ratio_sweep(scn: ParticleScenario) -> Sweep:
    """x and R of a plane-wave ratio figure: the kernel of planewave.ratio_R."""
    w, t, eps = wave_for(scn), scn.t, (1.0 + scn.q_minus_1) - 1.0
    p, E = w.p, w.E
    return _blockwise_sweep(scn.x_range, "R",
                            lambda x, functions: _phase_ratio(p * x - E * t, eps, functions))


def run_gaussian_sweep(
    params: GaussianParams,
    x_range: tuple[float, float, int] = (0.0, 4.0, 1001),
    t: float = 0.0,
) -> Sweep:
    """x and ratio of a packet ratio figure (natural units): the kernel of
    qgaussian.ratio_gaussian."""
    cs, j, eps = coeffs_exact(t, params), coeffs_first_order(t, params), params.q - 1.0
    return _blockwise_sweep(x_range, "ratio", lambda x, functions: _ratio(
        *ratio_terms(x, t, params, cs, j), eps, functions))
