"""Potential families and the asymptotic classification that decides stability.

Internal units fix hbar = 1 and |m| = 1/2, so the kinetic prefactor
hbar^2/(2m) is exactly the bare-mass sign, a plain mass_sign = +1 or -1
in every API.  All energies produced by the package are reported in these
units.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .contour import Contour, StraightLine, UShaped
from .errors import (
    DomainError, GeometryError, SingularL, _Record, check_count, check_finite, check_sign,
)

__all__ = [
    "CoulombKratzer",
    "Oscillator",
    "Potential",
    "StabilityVerdict",
    "DECAYING_PAIR",
    "PLANE_WAVE_PAIR",
    "evaluate_potential",
    "effective_L",
    "classify_asymptotics",
    "stability_verdict",
]

DECAYING_PAIR = "decaying_pair"
PLANE_WAVE_PAIR = "plane_wave_pair"

INTEGER_L_TOL = 1e-12  # the collapse rule's one tolerance, see collapses


class CoulombKratzer(_Record):
    """V(x) = i*Z/x.

    The Kratzer term F/x^2 is carried by the centrifugal strength L,
    L(L+1) = ell(ell+1) + F (effective_L).
    """

    Z: float

    def __init__(self, Z: float):
        check_finite("Z", Z)
        self.__dict__["Z"] = Z


class Oscillator(_Record):
    """V(x) = x^2."""


Potential = CoulombKratzer | Oscillator


class StabilityVerdict(NamedTuple):
    bounded_below: bool
    narrative: str


def collapses(den: float) -> bool:
    """True when a level denominator 2L+1+sigma(2n+1) = 2(L - k) is 0: |L - k| < INTEGER_L_TOL."""
    return abs(den) < 2.0 * INTEGER_L_TOL


def integer_L(L: float) -> bool:
    """True when L is an integer: 2L+1 - (2k+1), k = round(L), collapses as in analytic._ratio."""
    return collapses(2.0 * L + 1.0 - (2 * round(L) + 1))


def check_L(L: float) -> None:
    """The one check of L: DomainError unless finite, SingularL at integer L (integer_L)."""
    check_finite("L", L)
    if integer_L(L):
        raise SingularL(f"integer L = {L} excluded for the Coulomb-Kratzer model")


def evaluate_potential(p: Potential, x):
    """Evaluate the potential at complex x (scalar or array).

    Raises DomainError at x = 0 for the Coulomb-Kratzer potential.  Both
    potentials are rational, so no branch choice enters.
    """
    import numpy as np  # deferred: import ptspec loads no numpy

    arr = np.asarray(x, dtype=complex)
    scalar = arr.ndim == 0
    if isinstance(p, CoulombKratzer):
        if np.any(arr == 0):
            raise DomainError("Coulomb-Kratzer potential evaluated at x = 0")
        v = 1j * p.Z / arr
    else:
        v = arr * arr
    return complex(v) if scalar else v


def effective_L(ell: int, F: float) -> float:
    """Solve L(L+1) = ell(ell+1) + F on the branch continuously connected to L = ell.

    Raises DomainError for a non-finite F and below the collapse threshold
    (ell + 1/2)^2 + F <= 0.
    An integer L is returned as it is: every consumer of L but figure3_data
    refuses it (check_L).
    """
    check_count("ell", ell, 0)
    check_finite("F", F)
    disc = (ell + 0.5) ** 2 + F
    if disc <= 0:
        raise DomainError(
            f"(ell+1/2)^2 + F = {disc} <= 0: no real effective L exists"
        )
    return -0.5 + math.sqrt(disc)


def _kinetic_orientation(contour: Contour) -> int:
    """+1 where the asymptotic kinetic term keeps its textbook sign, -1 where it flips.

    It is exp(2i*phi) for asymptotes at angle phi (pi/2 on the U path, 0 on
    the real line), so times the bare-mass sign it is the sign of the
    asymptotic effective mass exp(2i*phi) * m.
    """
    if isinstance(contour, UShaped):
        return -1
    if isinstance(contour, StraightLine) and contour.phi == 0.0:
        return 1
    raise GeometryError(
        "asymptotic classification supports the U path and the phi=0 line only"
    )


def classify_asymptotics(mass_sign: int, contour: Contour, E: float) -> str:
    """Label the free asymptotic solution pair at energy E: DECAYING_PAIR or PLANE_WAVE_PAIR.

    With the effective sign (mass sign times contour orientation) positive the
    textbook rule applies: E < 0 gives a decaying pair, E > 0 plane waves.
    A negative effective sign swaps the two.  E = 0 is the threshold and is
    not classified.
    """
    check_sign("mass sign", mass_sign)
    effective = mass_sign * _kinetic_orientation(contour)
    if E == 0:
        raise DomainError("threshold E = 0 is not classified")
    return DECAYING_PAIR if E * effective < 0 else PLANE_WAVE_PAIR


# (mass sign, kinetic orientation) -> narrative
_STABILITY_NARRATIVES = {
    (-1, -1): (
        "Negative bare mass on the U path: the continuum is nonnegative "
        "and the discrete levels accumulate at zero from below, so the "
        "spectrum is bounded from below and the system is stable."
    ),
    (1, 1): (
        "Textbook kinetic term on the real line: with a confining or "
        "decaying real potential the spectrum is bounded from below."
    ),
    (1, -1): (
        "Positive bare mass on the U path flips the kinetic sign along both "
        "asymptotes: free waves exist at every negative energy, the spectrum "
        "has no lower bound, and small perturbations destabilize the system."
    ),
    (-1, 1): (
        "Negative bare mass on the real line flips the kinetic sign: free "
        "waves exist at every negative energy and the spectrum has no lower "
        "bound."
    ),
}


def stability_verdict(mass_sign: int, contour: Contour) -> StabilityVerdict:
    """Decide whether the spectrum is bounded from below for this geometry.

    It is exactly when negative energies carry a decaying asymptotic pair,
    not free waves: classify_asymptotics at E = -1, which holds the sign
    rule and checks the mass sign before the contour.
    """
    bounded_below = classify_asymptotics(mass_sign, contour, -1.0) == DECAYING_PAIR
    return StabilityVerdict(
        bounded_below=bounded_below,
        narrative=_STABILITY_NARRATIVES[mass_sign, _kinetic_orientation(contour)],
    )
