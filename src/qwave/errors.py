"""Typed exceptions shared across the package."""


class QWaveError(Exception):
    """Base class for every error raised by qwave."""


class NonFiniteInput(QWaveError, ValueError):
    """An argument carried a NaN or an infinity."""


class BranchCutViolation(QWaveError, ValueError):
    """A complex power or logarithm landed on the principal branch cut."""


class NonFiniteResult(QWaveError, OverflowError):
    """A computed value left the double range (overflow, or NaN from one)."""


class InvalidQ(QWaveError, ValueError):
    """The deformation parameter sits on a pole of the requested formula."""


class DivisionByZeroJet(QWaveError, ZeroDivisionError):
    """Jet division or jet logarithm with a zero leading value."""


class StencilEvaluationFailed(QWaveError):
    """A finite-difference stencil point could not be evaluated."""


class DegenerateFit(QWaveError):
    """An order-of-convergence fit received unusable residual norms."""
