"""Exception types shared across the package."""


class PtspecError(Exception):
    """Base class for all package errors."""


class DomainError(PtspecError):
    """A parameter lies outside the mathematical domain of an operation."""


class SingularPoint(PtspecError):
    """Potential evaluated at its singular point x = 0."""


class FallToCenter(PtspecError):
    """Centrifugal strength below the collapse threshold; no real L exists."""


class SingularL(PtspecError):
    """Effective angular momentum L is an integer (excluded singular value)."""


class UnsupportedGeometry(PtspecError):
    """Contour/mass combination outside the supported classification table."""


class GeometryError(PtspecError):
    """Grid or contour geometry unusable for discretization."""


class ConvergenceFailure(PtspecError):
    """Iterative eigensolver did not converge within its iteration cap."""

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class FitError(PtspecError):
    """Tail fit impossible (underflowed or empty fit window)."""
