"""Exception types shared across the package, the scalar checks that raise them,
and the base of the validated input records.

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


class _Record:
    """Base of the seven validated input records: the two contours, the two
    potentials, Reparametrization, GridSpec and DiscretizedOperator.

    Its fields are the names a subclass annotates; the subclass's __init__
    checks its arguments and stores them in __dict__.  Two records are equal
    when they are of one type and their fields are equal, so
    StraightLine(0.0) != UShaped(0.0).  A record hashes by its fields, shows
    as Type(field=value, ...), and refuses assignment and deletion; a
    DiscretizedOperator compares its array fields by value and has no hash.
    Written out rather than generated by dataclasses, whose import loads
    inspect, which the closed-form commands otherwise never load.
    """

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__annotations__)

    def _values(self) -> tuple:
        return tuple(self.__dict__[name] for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        shown = ", ".join(f"{name}={self.__dict__[name]!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


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
