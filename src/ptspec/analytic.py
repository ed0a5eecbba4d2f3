"""Closed-form discrete spectra of the Coulomb-Kratzer model.

Levels are indexed by a radial quantum number n >= 0 and a branch sigma = +/-1:

    E(n, sigma) = mass_sign * (Z / (2L + 1 + sigma*(2n + 1)))^2

so the positive-mass model has an all-positive point spectrum and the
negative-mass model an all-negative one accumulating at zero.  A level is
keyed by (n, sigma), never by its energy ordering, which changes with L.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import DomainError, _Record, check_count, check_finite, check_sign
from .model import check_L, collapses

__all__ = [
    "Level",
    "Reparametrization",
    "Figure3Row",
    "level",
    "spectrum_table",
    "figure3_data",
    "ground_state_compact_formula",
    "ground_state_bruteforce",
    "ground_state_comparison",
]


class Level(NamedTuple):
    """One discrete eigenvalue: index n, branch sigma, energy, decay rate kappa."""

    n: int
    sigma: int
    energy: float
    kappa: float


class Reparametrization(_Record):
    """2L+1 split into its integer part M0 and a residuum angle alpha.

    2L + 1 = M0 + cos^2(alpha) with M0 >= 0 and alpha in the open interval
    (0, pi/2), so the residuum cos^2(alpha) stays strictly inside (0, 1).
    """

    M0: int
    alpha: float

    def __init__(self, M0: int, alpha: float):
        check_count("M0", M0, 0)
        if not 0.0 < alpha < 0.5 * math.pi:
            raise DomainError(f"residuum angle must lie strictly inside (0, pi/2), got {alpha}")
        self.__dict__.update(M0=M0, alpha=alpha)

    @property
    def two_L_plus_1(self) -> float:
        return self.M0 + math.cos(self.alpha) ** 2

    @property
    def L(self) -> float:
        return 0.5 * (self.two_L_plus_1 - 1.0)


class Figure3Row(NamedTuple):
    """One sweep sample; minus_kappa is None on a gap record (singular point)."""

    two_L_plus_1: float
    n: int
    sigma: int
    minus_kappa: float | None


def _ratio(Z: float, t: float, n: int, sigma: int) -> float | None:
    """Z / (t + sigma(2n+1)) at t = 2L+1, kappa in size; None where model.collapses it."""
    den = t + sigma * (2 * n + 1)
    if collapses(den):
        return None
    try:
        return Z / den
    except OverflowError:  # an integer Z past the float range: infinite as a float
        return (math.inf if Z > 0 else -math.inf) / den


def level(Z: float, L: float, n: int, sigma: int, mass_sign: int) -> Level:
    """Single level of the closed-form spectrum.

    Raises SingularL at integer L, where one denominator 2L+1+sigma(2n+1)
    vanishes, whichever level (n, sigma) is asked for (model.check_L), and
    DomainError where the energy is not finite (a NaN Z, or Z^2 overflowing).
    """
    check_count("n", n, 0)
    check_sign("sigma", sigma)
    check_sign("mass sign", mass_sign)
    check_L(L)
    ratio = _ratio(Z, 2.0 * L + 1.0, n, sigma)
    energy = mass_sign * ratio * ratio
    check_finite("E(n={}, sigma={}) at Z = {}", energy, n, sigma, Z)  # and so kappa = sqrt|E|
    return Level(n=n, sigma=sigma, energy=energy, kappa=abs(ratio))


# The most rows spectrum_table or figure3_data builds: `spectrum analytic` at
# 10**6 rows peaks at 0.44 GB and takes 4.3 s on a 2-vCPU x86-64 machine.
MAX_ROWS = 10**6


def check_table(rows: int, source: str, *fields) -> None:
    """DomainError past MAX_ROWS rows; source.format(*fields) names what makes
    the table, formatted only on refusal."""
    if rows > MAX_ROWS:
        source = source.format(*fields)
        raise DomainError(f"{source} makes a table of {rows} rows, more than {MAX_ROWS}")


def check_rows(n_max: int, points: int = 1) -> None:
    """DomainError unless n_max is a count and `points` samples of the levels
    n <= n_max, both branches, make a table of at most MAX_ROWS rows."""
    check_count("n_max", n_max, 0)
    over = " over {} points" if points != 1 else ""
    check_table(points * 2 * (n_max + 1), "n_max = {}" + over, n_max, points)


def spectrum_table(Z: float, L: float, n_max: int, mass_sign: int) -> list[Level]:
    """All levels with n <= n_max, both branches, sorted by energy ascending.

    Raises SingularL at integer L (level), for every n_max, and DomainError
    past MAX_ROWS rows (check_rows).
    """
    check_rows(n_max)
    levels = [level(Z, L, n, sigma, mass_sign) for n in range(n_max + 1) for sigma in (1, -1)]
    levels.sort(key=lambda lv: (lv.energy, lv.n, lv.sigma))
    return levels


def figure3_data(Z: float, grid_of_2Lp1, n_max: int = 4) -> list[Figure3Row]:
    """-kappa(n, sigma) sampled over a grid of 2L+1 values.

    Emits one row per (grid point, n, sigma) in input order.  Where the level
    collapses (model.collapses, by which level refuses integer L), the row is
    an explicit gap record (minus_kappa None), so the collapse asymptotes stay
    visible in the output.  A non-finite 2L+1 or kappa raises DomainError, and
    so does a table of more than MAX_ROWS rows (check_rows).
    """
    grid = list(grid_of_2Lp1)
    check_rows(n_max, len(grid))
    rows = []
    for t in grid:
        check_finite("2L+1", t)
        t = float(t)
        for n in range(n_max + 1):
            for sigma in (1, -1):
                ratio = _ratio(Z, t, n, sigma)
                if ratio is not None:
                    name = "kappa(n={}, sigma={}) at 2L+1 = {}, Z = {}"
                    check_finite(name, ratio, n, sigma, t, Z)
                rows.append(Figure3Row(t, n, sigma, None if ratio is None else -abs(ratio)))
    return rows


def ground_state_compact_formula(Z: float, rep: Reparametrization) -> float:
    """Compact ground-state closed form -Z^2 / d^2 of the negative-mass table.

    d is the distance from 2L+1 = M0 + cos^2(alpha) to the nearest odd
    integer, the smallest |2L+1 + sigma(2n+1)|: sin^2(alpha) for even M0 (the
    odd integer M0+1 lies above), cos^2(alpha) for odd M0 (M0 itself lies
    below).  ground_state_bruteforce, the minimum over the level table, is
    the oracle it is checked against (ground_state_comparison).
    """
    d = math.sin(rep.alpha) ** 2 if rep.M0 % 2 == 0 else math.cos(rep.alpha) ** 2
    if d * d == 0.0:
        raise DomainError("residuum angle at an excluded limiting value")
    return -Z * Z / (d * d)


def ground_state_bruteforce(Z: float, L: float, n_max: int = 10) -> Level:
    """Minimum-energy level of the negative-mass table up to n_max (the oracle)."""
    return spectrum_table(Z, L, n_max, mass_sign=-1)[0]


def ground_state_comparison(Z: float, rep: Reparametrization, n_max: int = 10) -> dict:
    """Evaluate both ground-state routes on the same reparametrized coupling.

    Returns the compact-formula value, the brute-force Level, and their
    absolute difference.  The difference is at rounding level once n_max
    reaches n = M0 // 2, the level (n, -1) whose denominator is +-d.
    """
    brute = ground_state_bruteforce(Z, rep.L, n_max)
    compact = ground_state_compact_formula(Z, rep)
    return {
        "two_L_plus_1": rep.two_L_plus_1,
        "compact_formula": compact,
        "bruteforce": brute,
        "abs_difference": abs(compact - brute.energy),
    }
