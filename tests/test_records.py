"""The package's 15 record types behave as value objects.

One parametrized test per record type pins construction (positional,
keyword, defaults), equality and hashing by value, immutability, the repr
text and the refusals of the validated inputs.  The seven validated inputs
(contours, potentials, Reparametrization, GridSpec, DiscretizedOperator)
also compare unequal to anything of another type with the same values.
"""

import math
import types
from typing import NamedTuple

import numpy as np
import pytest

from ptspec.analytic import Figure3Row, Level, Reparametrization
from ptspec.contour import StraightLine, UShaped
from ptspec.errors import DomainError
from ptspec.model import CoulombKratzer, Oscillator, StabilityVerdict
from ptspec.solver import (
    BoundStateProblem, DiscretizedOperator, GridSpec, LevelResult, SpectrumResult,
    TargetedResult, TwoGridConvergence,
)


class Case(NamedTuple):
    cls: type
    fields: tuple  # field names, in order
    args: tuple  # one value per field
    defaults: dict  # field -> default, for the trailing fields that have one
    shown: str  # repr of cls(*args)
    other: tuple = None  # args of an unequal record; None where arrays would be compared
    hashable: bool = True
    validated: bool = False  # an input record: equality includes the type
    refused: tuple = ()  # (args, exception, message) triples


_LEVEL = Level(0, -1, -2.5, 1.5)
_GRID = GridSpec(15.0, 4000)
_VECTOR = np.array([1.0 + 0j, 0j])
_BANDS = (np.array([1.0 + 0j, 2.0]), np.array([3.0 + 0j]), np.array([4.0 + 0j]))
_EMPTY = SpectrumResult([], _GRID)

CASES = [
    Case(Level, ("n", "sigma", "energy", "kappa"), (0, -1, -2.5, 1.5), {},
         "Level(n=0, sigma=-1, energy=-2.5, kappa=1.5)", other=(1, -1, -2.5, 1.5)),
    Case(Figure3Row, ("two_L_plus_1", "n", "sigma", "minus_kappa"), (1.5, 0, -1, None), {},
         "Figure3Row(two_L_plus_1=1.5, n=0, sigma=-1, minus_kappa=None)",
         other=(1.5, 0, -1, -2.0)),
    Case(StabilityVerdict, ("bounded_below", "narrative"), (True, "stable"), {},
         "StabilityVerdict(bounded_below=True, narrative='stable')", other=(False, "stable")),
    Case(TargetedResult, ("eigenvalue", "eigenvector", "iterations", "residual"),
         (-0.25 + 0j, _VECTOR, 3, 1e-12), {},
         "TargetedResult(eigenvalue=(-0.25+0j), eigenvector=array([1.+0.j, 0.+0.j]), "
         "iterations=3, residual=1e-12)",
         other=(-0.5 + 0j, _VECTOR, 3, 1e-12), hashable=False),
    Case(LevelResult, ("level", "eigenvalue", "reason", "residual", "iterations", "tail"),
         (_LEVEL, -2.5 + 0j, None, 1e-9, 4, 1e-3),
         {"residual": None, "iterations": None, "tail": None},
         "LevelResult(level=Level(n=0, sigma=-1, energy=-2.5, kappa=1.5), "
         "eigenvalue=(-2.5+0j), reason=None, residual=1e-09, iterations=4, tail=0.001)",
         other=(_LEVEL, None, "no convergence", None, 200, None)),
    Case(TwoGridConvergence, ("error_ratios", "order_estimate", "fine"),
         ({(0, -1): 16.0}, 4.0, _EMPTY), {},
         "TwoGridConvergence(error_ratios={(0, -1): 16.0}, order_estimate=4.0, "
         "fine=SpectrumResult(levels=[], grid=GridSpec(S=15.0, N=4000, stretched=False), "
         "convergence=None))",
         other=({(0, -1): 16.0}, None, _EMPTY), hashable=False),
    Case(SpectrumResult, ("levels", "grid", "convergence"), ([], _GRID, None),
         {"convergence": None},
         "SpectrumResult(levels=[], grid=GridSpec(S=15.0, N=4000, stretched=False), "
         "convergence=None)",
         other=([], GridSpec(30.0, 8000), None), hashable=False),
    Case(BoundStateProblem, ("contour", "potential", "L", "mass_sign"),
         (UShaped(1.0), CoulombKratzer(1.0), 0.3, -1), {},
         "BoundStateProblem(contour=UShaped(epsilon=1.0), potential=CoulombKratzer(Z=1.0), "
         "L=0.3, mass_sign=-1)",
         other=(StraightLine(0.0), Oscillator(), 0.0, 1)),
    Case(StraightLine, ("phi",), (0.5,), {"phi": 0.0}, "StraightLine(phi=0.5)",
         other=(0.0,), validated=True,
         refused=(((math.nan,), DomainError, "phi must be finite, got nan"),)),
    Case(UShaped, ("epsilon",), (2.0,), {"epsilon": 1.0}, "UShaped(epsilon=2.0)",
         other=(1.0,), validated=True,
         refused=(((-1.0,), DomainError, "epsilon must be >= 0, got -1.0"),
                  ((math.inf,), DomainError, "epsilon must be finite, got inf"))),
    Case(CoulombKratzer, ("Z",), (1.0,), {}, "CoulombKratzer(Z=1.0)",
         other=(-1.0,), validated=True,
         refused=(((math.inf,), DomainError, "Z must be finite, got inf"),)),
    Case(Oscillator, (), (), {}, "Oscillator()", validated=True,
         refused=(((1.0,), TypeError, None),)),
    Case(Reparametrization, ("M0", "alpha"), (1, 0.5), {}, "Reparametrization(M0=1, alpha=0.5)",
         other=(2, 0.5), validated=True,
         refused=(((-1, 0.5), DomainError, "M0 must be >= 0, got -1"),
                  ((0, 0.0), DomainError,
                   "residuum angle must lie strictly inside (0, pi/2), got 0.0"))),
    Case(GridSpec, ("S", "N", "stretched"), (15.0, 4000, True), {"stretched": False},
         "GridSpec(S=15.0, N=4000, stretched=True)",
         other=(15.0, 4000, False), validated=True,
         refused=(((0.0, 100), DomainError, "S must be > 0, got 0.0"),
                  ((15.0, 8), DomainError, "N must be >= 16, got 8"),
                  ((15.0, 100, 1), DomainError, "stretched must be True or False, got 1"))),
    Case(DiscretizedOperator, ("diag", "sub", "sup"), _BANDS, {},
         "DiscretizedOperator(diag=array([1.+0.j, 2.+0.j]), sub=array([3.+0.j]), "
         "sup=array([4.+0.j]))",
         hashable=False, validated=True,
         refused=((([1.0], [], []), DomainError, "N must be >= 2, got 1"),
                  (([1.0, 2.0], [1.0, 2.0], [1.0]), DomainError,
                   "off-diagonal bands must have length N-1"))),
]


@pytest.mark.parametrize("case", CASES, ids=lambda case: case.cls.__name__)
def test_record_is_a_value(case):
    cls, fields, args = case.cls, case.fields, case.args
    record = cls(*args)
    assert [getattr(record, name) for name in fields] == list(args)
    assert repr(record) == case.shown

    # keyword construction, and the defaults of the trailing fields
    assert cls(**dict(zip(fields, args))) == record
    required = len(fields) - len(case.defaults)
    short = cls(*args[:required])
    for name, default in case.defaults.items():
        assert getattr(short, name) == default
    assert short == cls(*args[:required], *case.defaults.values())
    with pytest.raises(TypeError):
        cls(*args, None)

    # equality and hash by value
    twin = cls(*args)
    assert twin == record and not twin != record
    if case.hashable:
        assert hash(twin) == hash(record)
    else:
        with pytest.raises(TypeError):
            hash(record)
    if case.other is not None:
        assert cls(*case.other) != record

    if case.validated:
        # equality includes the type: the same values in another type differ
        assert record != tuple(args)
        assert record != types.SimpleNamespace(**dict(zip(fields, args)))

    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    for name in fields:
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert repr(record) == case.shown

    for bad, error, message in case.refused:
        with pytest.raises(error) as info:
            cls(*bad)
        if message is not None:
            assert str(info.value) == message


def test_input_records_of_two_types_differ():
    assert StraightLine(0.0) != UShaped(0.0)
    assert UShaped(1.0) != CoulombKratzer(1.0)
    assert len({StraightLine(0.0), UShaped(0.0), StraightLine(0.0)}) == 2
