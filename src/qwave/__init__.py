"""Exact and first-order solutions of q-deformed wave equations.

The deformed exponential [1 + (1-q)z]^{1/(1-q)} replaces e^z in the
nonlinear Schrodinger and Klein-Gordon equations studied here.  qcore
evaluates it stably through the q -> 1 pole and carries first-order jets
in (q - 1); planewave, separation, qgaussian and kleingordon hold the
closed-form solutions and their first-order approximants; verify holds
the finite-difference and order-of-convergence oracles; scenarios maps
laboratory particle parameters onto the dimensionless phase units the
ratio figures use.
"""

from .errors import (
    BranchCutViolation,
    DegenerateFit,
    DivisionByZeroJet,
    InvalidQ,
    NonFiniteInput,
    NonFiniteResult,
    QWaveError,
    StencilEvaluationFailed,
    StepTooCoarse,
)
from .qcore import (
    SERIES_RADIUS,
    QJet,
    as_jet,
    jet_exp,
    jet_ln,
    jet_pow_linear,
    q_exp,
    q_exp_jet,
    q_pow,
    q_pow_array,
)
from .planewave import PhasePoint, SchrodingerWave, ratio_R, residual_schrodinger
from .separation import residual_f, residual_g
from .qgaussian import GaussianParams, exact_qgaussian, ratio_gaussian
from .kleingordon import KGWave, dispersion_omega, residual_kg
from .verify import (
    FDScheme,
    OrderFit,
    ResidualReport,
    fd_derivative,
    grid_residual,
    jet_from_fd,
    order_of_convergence,
)
from .scenarios import ParticleScenario, run_gaussian_sweep, run_ratio_sweep

__version__ = "0.1.0"

__all__ = [
    "BranchCutViolation",
    "DegenerateFit",
    "DivisionByZeroJet",
    "FDScheme",
    "GaussianParams",
    "InvalidQ",
    "KGWave",
    "NonFiniteInput",
    "NonFiniteResult",
    "OrderFit",
    "ParticleScenario",
    "PhasePoint",
    "QJet",
    "QWaveError",
    "ResidualReport",
    "SERIES_RADIUS",
    "SchrodingerWave",
    "StencilEvaluationFailed",
    "StepTooCoarse",
    "as_jet",
    "dispersion_omega",
    "exact_qgaussian",
    "fd_derivative",
    "grid_residual",
    "jet_exp",
    "jet_from_fd",
    "jet_ln",
    "jet_pow_linear",
    "order_of_convergence",
    "q_exp",
    "q_exp_jet",
    "q_pow",
    "q_pow_array",
    "ratio_R",
    "ratio_gaussian",
    "residual_f",
    "residual_g",
    "residual_kg",
    "residual_schrodinger",
    "run_gaussian_sweep",
    "run_ratio_sweep",
    "__version__",
]
