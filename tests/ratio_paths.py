"""The three paths of each ratio R = |approx|/|exact|: the per-point entry on
Python floats (planewave.ratio_R, qgaussian.ratio_gaussian), the family kernel
on a numpy array of x under np.errstate(all="ignore"), as a sweep of more than
one block evaluates it, and the sweep.  Terms is qcore._ratio itself at given
terms (c, g0, g), on numbers and on arrays.  test_ratio holds the paths to one
table, and no other test module names the kernels or their functions."""

import cmath
from array import array

import numpy as np

from qwave import planewave as pw
from qwave import qcore, scenarios
from qwave import qgaussian as qg

B = scenarios.BLOCK_ROWS
# the edges of BLOCK_ROWS and of 2,048-row blocks; below BLOCK_ROWS the latter run as one
# float block, whose bytes differ from the numpy path in about a tenth of the rows
BLOCK_EDGES = sorted({2, 2047, 2048, 2049, 4097, B - 1, B, B + 1, 2 * B + 1})


class _Family:
    def path(self, x_range):
        """The values of the sweep over x_range by the path it takes: one entry
        call per point for one block, else the kernel on the whole numpy grid."""
        xs = np.linspace(*x_range)
        return array("d", map(self.at, xs.tolist())) if x_range[2] <= B else self.kernel(xs)


class PlaneWave(_Family):
    """R of a species' plane wave at 1 MeV (or of a given PlaneWave) at q = 1 + (q-1)
    and time t: ratio_R, planewave._phase_ratio and run_ratio_sweep."""

    column = "R"

    def __init__(self, q_minus_1, t=0.0, wave=None):
        self.q_minus_1, self.q, self.t, self.species = q_minus_1, 1.0 + q_minus_1, t, wave or "electron"
        self.wave = wave if isinstance(wave, pw.PlaneWave) else scenarios.wave_for(
            scenarios.ParticleScenario.from_mev(self.species, 1.0, q_minus_1))

    def at(self, x):
        return pw.ratio_R(pw.PhasePoint(x, self.t), self.wave, self.q)

    def kernel(self, xs):
        with np.errstate(all="ignore"):
            return pw._phase_ratio(self.wave.p * np.asarray(xs, dtype=float) - self.wave.E * self.t,
                                   self.q - 1.0, qcore._on_arrays(np))

    def sweep(self, x_range):
        return scenarios.run_ratio_sweep(scenarios.ParticleScenario.from_mev(
            self.species, 1.0, self.q_minus_1, x_range=x_range, t=self.t))


class Packet(_Family):
    """The packet's ratio at (m, beta) = wave, (1, 1) by default, q = 1 + (q-1) and
    time t: ratio_gaussian, qcore._ratio of ratio_terms and run_gaussian_sweep."""

    column = "ratio"

    def __init__(self, q_minus_1, t=0.0, wave=None):
        self.q, self.t = 1.0 + q_minus_1, t
        self.params = qg.GaussianParams(*(wave or (1.0, 1.0)), q=self.q)

    def at(self, x):
        return qg.ratio_gaussian(x, self.t, self.params)

    def kernel(self, xs):
        with np.errstate(all="ignore"):
            return qcore._ratio(*qg.ratio_terms(np.asarray(xs, dtype=float), self.t, self.params),
                                self.params.q - 1.0, qcore._on_arrays(np))

    def sweep(self, x_range):
        return scenarios.run_gaussian_sweep(self.params, x_range, self.t)

    def modulus(self, x):
        """(|approx|, |exact|, the scale of the row's bound) at x."""
        return (abs(qg.approx_qgaussian(x, self.t, self.params)),
                abs(qg.exact_qgaussian(x, self.t, self.params)), 1.0)


class Terms:
    """qcore._ratio at points (c, g0, g) and eps = q - 1, on Python complex
    numbers and on complex arrays; it has no sweep."""

    def __init__(self, q_minus_1, t=0.0, wave=None):
        self.q = 1.0 + q_minus_1

    def at(self, point):
        return qcore._ratio(*map(complex, point), self.q - 1.0, qcore._ON_NUMBERS)

    def kernel(self, points):
        with np.errstate(all="ignore"):
            return qcore._ratio(*np.array(points, dtype=complex).T, self.q - 1.0,
                                qcore._on_arrays(np))

    def modulus(self, point):
        """|(1 + c) e^{-g0}|, |e_q(-g)| and the bound's scale max(1, |g|): rounding
        the exponent g costs each value about an ulp of it."""
        c, g0, g = point
        return abs((1.0 + c) * cmath.exp(-g0)), abs(qcore.q_pow(-g, self.q)), max(1.0, abs(g))
