"""Complexified coordinate contours.

Two path families are supported: straight lines through the origin whose
half-branches rise at a slope +/-phi, and U-shaped paths that descend along
the upper imaginary axis, circle below the origin at radius epsilon, and
ascend again.  Both satisfy the left-right symmetry x(-s) = -x*(s).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, check_finite

__all__ = [
    "StraightLine",
    "UShaped",
    "Contour",
    "evaluate",
    "derivatives",
    "pt_residual",
]


@dataclass(frozen=True)
class StraightLine:
    """Two half-lines from the origin: s*exp(i*phi) for s >= 0, s*exp(-i*phi) below."""

    phi: float = 0.0

    def __post_init__(self):
        check_finite("phi", self.phi)


@dataclass(frozen=True)
class UShaped:
    """Arc-length parametrized U path of width epsilon >= 0.

    epsilon = 0 is the degenerate fold (both branches on the upper imaginary
    axis); it is supported for evaluation and plotting only, not for
    discretization.
    """

    epsilon: float = 1.0

    def __post_init__(self):
        check_finite("epsilon", self.epsilon)
        if self.epsilon < 0:
            raise DomainError(f"epsilon must be >= 0, got {self.epsilon}")

    @property
    def junction(self) -> float:
        """|s| value where the arc meets the straight branches."""
        return 0.5 * math.pi * self.epsilon


Contour = StraightLine | UShaped


def _as_array(s):
    import numpy as np  # deferred: import ptspec loads no numpy

    arr = np.asarray(s, dtype=float)
    return arr, arr.ndim == 0


def _path(contour: Contour, arr):
    """Branchwise analytic (x, x') at the real parameters arr (an array); see derivatives."""
    import numpy as np  # deferred: see _as_array

    if isinstance(contour, StraightLine):
        xp = np.where(arr >= 0, np.exp(1j * contour.phi), np.exp(-1j * contour.phi))
        return arr * xp, xp
    eps = contour.epsilon
    if eps == 0.0:
        return 1j * np.abs(arr), np.where(arr >= 0, 1j, -1j)
    c = contour.junction
    x = np.empty(arr.shape, dtype=complex)
    xp = np.empty(arr.shape, dtype=complex)
    left, right = arr < -c, arr > c
    arc = ~(left | right)
    x[left] = -1j * (arr[left] + c) - eps
    x[right] = 1j * (arr[right] - c) + eps
    xp[left] = -1j
    xp[right] = 1j
    u = arr[arc] / eps
    sin_u, cos_u = np.sin(u), np.cos(u)
    # eps*exp(i(u - pi/2)) written in components so that the
    # reflection s -> -s conjugates the value exactly in floats
    x[arc] = eps * (sin_u - 1j * cos_u)
    xp[arc] = cos_u + 1j * sin_u
    return x, xp


def evaluate(contour: Contour, s):
    """Map the real path parameter s to the complex coordinate x(s).

    Accepts a scalar or array s and returns a matching complex result.
    """
    arr, scalar = _as_array(s)
    x, _ = _path(contour, arr)
    return complex(x) if scalar else x


def derivatives(contour: Contour, s):
    """First derivative x'(s) of the path, scalar or array like s.

    Branchwise analytic values.  At the junctions |s| = pi*eps/2 the arc-side
    value is reported; at the fold of a degenerate contour (eps = 0, s = 0)
    the upper-branch value is used.
    """
    arr, scalar = _as_array(s)
    _, xp = _path(contour, arr)
    return complex(xp) if scalar else xp


def pt_residual(contour: Contour, s):
    """|x(-s) + x*(s)|, zero exactly when the path is PT symmetric at s."""
    import numpy as np  # deferred: see _as_array

    arr, scalar = _as_array(s)
    r = np.abs(evaluate(contour, -arr) + np.conj(evaluate(contour, arr)))
    return float(r) if scalar else r

