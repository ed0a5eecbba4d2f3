"""Complexified coordinate contours.

Two path families are supported: straight lines through the origin whose
half-branches rise at a slope +/-phi, and U-shaped paths that descend along
the upper imaginary axis, circle below the origin at radius epsilon, and
ascend again.  Both satisfy the left-right symmetry x(-s) = -x*(s).
"""

from __future__ import annotations

import cmath
import math

from .errors import DomainError, _Record, check_finite

__all__ = [
    "StraightLine",
    "UShaped",
    "Contour",
    "evaluate",
    "derivatives",
    "pt_residual",
]


class StraightLine(_Record):
    """Two half-lines from the origin: s*exp(i*phi) for s >= 0, s*exp(-i*phi) below."""

    phi: float

    def __init__(self, phi: float = 0.0):
        check_finite("phi", phi)
        self.__dict__["phi"] = phi


class UShaped(_Record):
    """Arc-length parametrized U path of width epsilon >= 0.

    epsilon = 0 is the degenerate fold (both branches on the upper imaginary
    axis); it is supported for evaluation and plotting only, not for
    discretization.
    """

    epsilon: float

    def __init__(self, epsilon: float = 1.0):
        check_finite("epsilon", epsilon)
        if epsilon < 0:
            raise DomainError(f"epsilon must be >= 0, got {epsilon}")
        self.__dict__["epsilon"] = epsilon

    @property
    def junction(self) -> float:
        """|s| value where the arc meets the straight branches."""
        return 0.5 * math.pi * self.epsilon


Contour = StraightLine | UShaped


def _as_array(s):
    import numpy as np  # deferred: see _arc

    arr = np.asarray(s, dtype=float)
    return arr, arr.ndim == 0


# The branches of the paths.  Each takes s, a float or a float array, and
# returns the parts (re x, im x, re x', im x') of its complex formula, formed
# with float operations alone, so a float and an array get the same bits on
# any platform (no fused complex product moves the sign of a zero).  The
# signed zeros are those of the textbook complex product, with a real operand
# promoted to complex with a +0 imaginary part.


def _line(s, unit):
    """x = s*unit, the product (s + 0i)(unit) written out; x' = unit."""
    c, sn = unit.real, unit.imag
    return s * c - 0.0 * sn, s * sn + 0.0 * c, c, sn


def _fold(s, unit):
    """x = i|s| on the width-zero U path; x' = unit (+-i)."""
    return 0.0, abs(s), unit.real, unit.imag


def _left(s, c, eps):
    """x = -i(s + c) - eps, below the arc; x' = -i."""
    return -eps, -(s + c), -0.0, -1.0


def _right(s, c, eps):
    """x = i(s - c) + eps, above the arc; x' = i."""
    return eps, s - c, 0.0, 1.0


def _arc(s, eps):
    """x = eps*exp(i(u - pi/2)) at u = s/eps, in components, so that the
    reflection s -> -s conjugates it exactly in floats; x' = exp(iu).  The
    + 0.0 turns the -0.0 at s = -0.0 into the +0.0 of the complex product."""
    u = s / eps
    if isinstance(u, float):
        sin_u, cos_u = math.sin(u), math.cos(u)
    else:
        import numpy as np  # deferred: only an array needs numpy, a float runs on math and cmath

        sin_u, cos_u = np.sin(u), np.cos(u)
    return eps * sin_u + 0.0, -eps * cos_u, cos_u, sin_u + 0.0


def _join(s, branches):
    """(x, x') from the first branch whose test holds at s; the last, (None, ...), takes the rest.

    A branch is (test, formula, *arguments); a float is evaluated by one
    formula, an array by each formula on the elements its test picks.
    """
    if isinstance(s, float):
        for test, formula, *args in branches:
            if test is None or test:
                re_x, im_x, re_dx, im_dx = formula(s, *args)
                return complex(re_x, im_x), complex(re_dx, im_dx)
    import numpy as np  # deferred: see _arc

    x = np.empty(s.shape, dtype=complex)
    xp = np.empty(s.shape, dtype=complex)
    rest = np.ones(s.shape, dtype=bool)
    for test, formula, *args in branches:
        mask = rest if test is None else test & rest
        rest = rest & ~mask
        x.real[mask], x.imag[mask], xp.real[mask], xp.imag[mask] = formula(s[mask], *args)
    return x, xp


def _path(contour: Contour, s):
    """Branchwise analytic (x, x') at s, a float or a float array; see derivatives.

    A float is evaluated with math and cmath and loads no numpy.
    """
    if isinstance(contour, StraightLine):
        ahead, back = cmath.exp(1j * contour.phi), cmath.exp(-1j * contour.phi)
        return _join(s, [(s >= 0, _line, ahead), (None, _line, back)])
    eps = contour.epsilon
    if eps == 0.0:
        return _join(s, [(s >= 0, _fold, 1j), (None, _fold, -1j)])
    c = contour.junction
    return _join(s, [(s < -c, _left, c, eps), (s > c, _right, c, eps), (None, _arc, eps)])


def _point(contour: Contour, s) -> tuple:
    """(x, x') at s: two complex for a scalar s, two arrays for an array."""
    if isinstance(s, (int, float)):  # numpy's float64 is a float
        return _path(contour, float(s))
    arr, scalar = _as_array(s)
    x, xp = _path(contour, arr)
    return (complex(x), complex(xp)) if scalar else (x, xp)


def evaluate(contour: Contour, s):
    """Map the real path parameter s to the complex coordinate x(s).

    Accepts a scalar or array s and returns a matching complex result.
    """
    return _point(contour, s)[0]


def derivatives(contour: Contour, s):
    """First derivative x'(s) of the path, scalar or array like s.

    Branchwise analytic values.  At the junctions |s| = pi*eps/2 the arc-side
    value is reported; at the fold of a degenerate contour (eps = 0, s = 0)
    the upper-branch value is used.
    """
    return _point(contour, s)[1]


def pt_residual(contour: Contour, s):
    """|x(-s) + x*(s)|, zero exactly when the path is PT symmetric at s."""
    import numpy as np  # deferred: see _arc

    arr, scalar = _as_array(s)
    r = np.abs(evaluate(contour, -arr) + np.conj(evaluate(contour, arr)))
    return float(r) if scalar else r

