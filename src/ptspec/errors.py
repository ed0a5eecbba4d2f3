"""Exception types shared across the package, and the scalar checks that raise them.

Every scalar refusal of the package goes through check_finite, check_count or
check_sign, so a rule and its message live in one place.
"""

import math
import numbers

__all__ = ["PtspecError", "DomainError", "SingularL", "GeometryError", "ConvergenceFailure"]


class PtspecError(Exception):
    """Base class for all package errors."""


class DomainError(PtspecError):
    """A parameter, or a value formed from it, lies outside the domain of an operation."""


class SingularL(PtspecError):
    """Effective angular momentum L is an integer (excluded singular value)."""


class GeometryError(PtspecError):
    """Grid, contour or contour/mass combination the operation does not support."""


class ConvergenceFailure(PtspecError):
    """Iterative eigensolver did not converge within its iteration cap."""

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


def _shown(value) -> str:
    """str(value), or the size of an integer too long for Python to print (past 4,300 digits)."""
    try:
        return str(value)
    except ValueError:
        return f"{'a negative' if value < 0 else 'an'} integer of {value.bit_length()} bits"


def check_finite(name: str, value: float, *fields) -> None:
    """DomainError unless value is finite as a float: NaN, +-inf and an integer
    past the float range are refused.

    name.format(*fields) names the value, formatted only on refusal: a check
    inside a sweep costs no string formatting.
    """
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an integer past the float range: infinite as a float
        finite = False
    if not finite:
        name = name.format(*map(_shown, fields))
        raise DomainError(f"{name} must be finite, got {_shown(value)}")


def check_count(name: str, value: int, minimum: int) -> None:
    """DomainError unless value is an integer, minimum <= value <= 2**53; a bool is refused.

    A count must fit a float exactly (every integer up to 2**53 does), so the
    floats formed from it stay finite.
    """
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise DomainError(f"{name} must be >= {minimum}, got {_shown(value)}")
    if value > 2**53:
        raise DomainError(f"{name} must be <= 2**53, got {_shown(value)}")


def check_sign(name: str, value: int) -> None:
    """DomainError unless value is +1 or -1; a bool is refused."""
    if isinstance(value, bool) or value not in (1, -1):
        raise DomainError(f"{name} must be +1 or -1, got {_shown(value)}")
