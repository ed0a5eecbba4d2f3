import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ptspec.analytic import (
    MAX_ROWS,
    Reparametrization,
    check_rows,
    figure3_data,
    ground_state_bruteforce,
    ground_state_comparison,
    ground_state_compact_formula,
    level,
    spectrum_table,
)
from ptspec.contour import StraightLine, UShaped
from ptspec.errors import DomainError, SingularL
from ptspec.model import CoulombKratzer, classify_asymptotics, integer_L, stability_verdict
from ptspec.solver import GridSpec, discretize


def test_level_deep_negative_mass():
    lv = level(Z=1.0, L=0.3, n=0, sigma=-1, mass_sign=-1)
    assert lv.energy == pytest.approx(-(1 / 0.6) ** 2, rel=1e-12)
    assert lv.kappa == pytest.approx(1 / 0.6, rel=1e-12)


def test_level_zero_coupling():
    assert level(Z=0.0, L=0.77, n=3, sigma=1, mass_sign=-1).energy == 0.0


def test_level_positive_mass_mirror():
    lv = level(Z=1.0, L=0.3, n=0, sigma=-1, mass_sign=1)
    assert lv.energy == pytest.approx(+(1 / 0.6) ** 2, rel=1e-12)


def test_level_singular_coupling():
    # 2L+1 = 3 collides with sigma=-1, n=1; every other level at L = 1 is refused too
    for n, sigma in [(1, -1), (0, -1), (0, 1), (4, 1)]:
        with pytest.raises(SingularL):
            level(Z=1.0, L=1.0, n=n, sigma=sigma, mass_sign=-1)


@pytest.mark.parametrize("mass_sign", [
    0, 2, -2, 0.5, math.nan, True,
    # Python prints no integer past 4,300 digits: the refusal names its size
    pytest.param(10**5000, id="10**5000"),
])
def test_mass_sign_outside_domain(mass_sign):
    # every sign, one table: the mass sign and sigma (errors.check_sign), a bool refused
    shown = "an integer of 16610 bits" if mass_sign == 10**5000 else mass_sign
    grid = GridSpec(12.0, 128)
    calls = [
        ("mass sign", lambda: level(Z=1.0, L=0.3, n=0, sigma=-1, mass_sign=mass_sign)),
        ("mass sign", lambda: spectrum_table(Z=1.0, L=0.3, n_max=1, mass_sign=mass_sign)),
        ("mass sign", lambda: discretize(UShaped(1.0), CoulombKratzer(1.0), 0.3, mass_sign, grid)),
        ("mass sign", lambda: classify_asymptotics(mass_sign, UShaped(1.0), -1.0)),
        ("mass sign", lambda: stability_verdict(mass_sign, StraightLine(0.0))),
        ("sigma", lambda: level(Z=1.0, L=0.3, n=0, sigma=mass_sign, mass_sign=-1)),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name, call in calls:
            with pytest.raises(DomainError, match=f"^{name} must be \\+1 or -1, got {shown}$"):
                call()


def test_level_kappa_energy_consistency():
    lv = level(Z=2.0, L=1.2, n=2, sigma=1, mass_sign=-1)
    assert lv.kappa**2 == pytest.approx(abs(lv.energy), rel=1e-12)


def test_spectrum_table_frozen_values():
    # denominators 0.6, -1.4, 2.6, 4.6 squared and negated, ascending
    table = spectrum_table(Z=1.0, L=0.3, n_max=1, mass_sign=-1)
    energies = [lv.energy for lv in table]
    expected = [-(1 / 0.6) ** 2, -(1 / 1.4) ** 2, -(1 / 2.6) ** 2, -(1 / 4.6) ** 2]
    np.testing.assert_allclose(energies, expected, rtol=1e-12)
    assert [(lv.n, lv.sigma) for lv in table] == [(0, -1), (1, -1), (0, 1), (1, 1)]


def test_spectrum_table_accumulates_at_zero():
    table = spectrum_table(Z=1.0, L=0.3, n_max=400, mass_sign=-1)
    assert max(lv.energy for lv in table) > -1e-4
    assert all(lv.energy < 0 for lv in table)


def test_spectrum_table_refuses_integer_L():
    # refused whether or not the collapsing level lies within n_max, with no warning first
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for L, n_max in [(1.0, 2), (5.0, 1)]:
            with pytest.raises(SingularL, match="integer L"):
                spectrum_table(Z=1.0, L=L, n_max=n_max, mass_sign=-1)


def test_tables_refused_past_max_rows():
    # spectrum_table and figure3_data share one bound, checked before any row
    # is built: exactly MAX_ROWS rows pass, one level more is refused
    check_rows(MAX_ROWS // 2 - 1)
    check_rows(0, MAX_ROWS // 2)
    with pytest.raises(DomainError, match=f"^n_max = {MAX_ROWS // 2} makes a table of"):
        spectrum_table(Z=1.0, L=0.3, n_max=MAX_ROWS // 2, mass_sign=-1)
    with pytest.raises(DomainError, match="over 3 points makes a table of 1000002 rows"):
        figure3_data(1.0, iter([0.5, 1.5, 2.5]), n_max=166666)


def test_spectrum_table_z_scaling():
    t1 = spectrum_table(Z=1.0, L=0.3, n_max=2, mass_sign=-1)
    t2 = spectrum_table(Z=2.0, L=0.3, n_max=2, mass_sign=-1)
    for a, b in zip(t1, t2):
        assert (a.n, a.sigma) == (b.n, b.sigma)
        assert b.energy == pytest.approx(4.0 * a.energy, rel=1e-12)


def test_monotone_within_subfamilies_single_accumulation():
    L = 2.3
    table = spectrum_table(Z=1.0, L=L, n_max=30, mass_sign=-1)
    groups = {}
    for lv in table:
        den = 2 * L + 1 + lv.sigma * (2 * lv.n + 1)
        groups.setdefault((lv.sigma, den > 0), []).append(lv)
    for (_, _), members in groups.items():
        members.sort(key=lambda lv: lv.n)
        mags = [abs(lv.energy) for lv in members]
        diffs = np.diff(mags)
        assert np.all(diffs > 0) or np.all(diffs < 0)


def test_branches_distinct_for_generic_L():
    table = spectrum_table(Z=1.0, L=0.3, n_max=6, mass_sign=-1)
    plus = {lv.energy for lv in table if lv.sigma == 1}
    minus = {lv.energy for lv in table if lv.sigma == -1}
    for a in plus:
        for b in minus:
            assert abs(a - b) > 1e-9


@given(
    Z=st.floats(min_value=-4, max_value=4),
    L=st.floats(min_value=-0.45, max_value=6.0),
    n=st.integers(0, 8),
    sigma=st.sampled_from([1, -1]),
)
@settings(max_examples=400, deadline=None)
@example(Z=1.0, L=0.0, n=2, sigma=1)  # integer L, though this level does not collapse
def test_sign_split_property(Z, L, n, sigma):
    if integer_L(L):
        with pytest.raises(SingularL):
            level(Z, L, n, sigma, mass_sign=-1)
        return
    den = 2 * L + 1 + sigma * (2 * n + 1)
    assume(abs(den) > 1e-6)
    assume(abs(Z) > 1e-8)
    assert level(Z, L, n, sigma, mass_sign=-1).energy < 0
    assert level(Z, L, n, sigma, mass_sign=1).energy > 0
    # energy is even in Z
    assert level(-Z, L, n, sigma, -1).energy == level(Z, L, n, sigma, -1).energy


class TestFigure3:
    def test_spot_value_deep_branch(self):
        rows = figure3_data(1.0, [1.6], n_max=0)
        got = {(r.n, r.sigma): r.minus_kappa for r in rows}
        assert got[(0, -1)] == pytest.approx(-1 / 0.6, rel=1e-12)

    def test_spot_value_plus_branch(self):
        rows = figure3_data(1.0, [2.0], n_max=0)
        got = {(r.n, r.sigma): r.minus_kappa for r in rows}
        assert got[(0, 1)] == pytest.approx(-1 / 3, rel=1e-12)

    def test_ten_curves(self):
        rows = figure3_data(1.0, np.linspace(0.1, 5.9, 25), n_max=4)
        assert len({(r.n, r.sigma) for r in rows}) == 10

    def test_gap_records_at_singular_points(self):
        rows = figure3_data(1.0, [1.0, 3.0, 5.0], n_max=4)
        gaps = [(r.two_L_plus_1, r.n, r.sigma) for r in rows if r.minus_kappa is None]
        assert gaps == [(1.0, 0, -1), (3.0, 1, -1), (5.0, 2, -1)]
        # all other rows carry finite values
        assert all(
            r.minus_kappa is not None
            for r in rows
            if (r.two_L_plus_1, r.n, r.sigma) not in gaps
        )

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_2L_plus_1_refused(self, t):
        # neither a value nor a gap record: refused, naming the value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=f"2L\\+1 must be finite, got {t}"):
                figure3_data(1.0, [1.5, t], 0)

    def test_rows_in_input_order(self):
        ts = [2.5, 0.7, 4.1]
        rows = figure3_data(1.0, ts, n_max=1)
        assert [r.two_L_plus_1 for r in rows[::4]] == ts


class TestGroundState:
    def test_compact_formula_at_pi_over_four(self):
        # 2L+1 = 1.5, half a unit from the odd integer 1: -1 / 0.5^2
        rep = Reparametrization(M0=1, alpha=math.pi / 4)
        assert ground_state_compact_formula(1.0, rep) == pytest.approx(-4.0, rel=1e-12)

    def test_compact_formula_z_scaling(self):
        rep = Reparametrization(M0=1, alpha=math.pi / 4)
        assert ground_state_compact_formula(2.0, rep) == pytest.approx(-16.0, rel=1e-12)

    def test_compact_formula_diverges_near_edges(self):
        rep = Reparametrization(M0=0, alpha=1e-8)
        assert ground_state_compact_formula(1.0, rep) < -1e15

    def test_edge_angles_rejected(self):
        with pytest.raises(DomainError):
            Reparametrization(M0=0, alpha=0.0)
        with pytest.raises(DomainError):
            Reparametrization(M0=0, alpha=math.pi / 2)
        with pytest.raises(DomainError):
            Reparametrization(M0=-1, alpha=0.3)

    def test_bruteforce_known_values(self):
        lv = ground_state_bruteforce(1.0, 0.3, n_max=10)
        assert (lv.n, lv.sigma) == (0, -1)
        assert lv.energy == pytest.approx(-(1 / 0.6) ** 2, rel=1e-12)

    def test_bruteforce_near_odd_integer(self):
        # 2L+1 = 3.98: nearest odd denominator is |3.98 - 3| = 0.98
        lv = ground_state_bruteforce(1.0, 1.49, n_max=10)
        assert lv.energy == pytest.approx(-(1 / 0.98) ** 2, rel=1e-12)

    def test_bruteforce_zero_coupling(self):
        assert ground_state_bruteforce(0.0, 0.3, n_max=5).energy == 0.0

    def test_bruteforce_is_table_minimum(self):
        for L in (0.3, 1.49, 2.71):
            lv = ground_state_bruteforce(1.0, L, n_max=12)
            table = spectrum_table(1.0, L, 12, mass_sign=-1)
            assert lv.energy <= min(m.energy for m in table) + 0.0
            assert lv.energy == min(m.energy for m in table)

    def test_comparison_reports_discrepancy(self):
        # parity-resolved brute force: -(Z/sin^2 a)^2 for even M0, -(Z/cos^2 a)^2 odd
        for M0, alpha in ((0, 0.9), (1, 0.4), (2, 1.1), (3, 0.7)):
            rep = Reparametrization(M0=M0, alpha=alpha)
            report = ground_state_comparison(1.0, rep, n_max=12)
            residuum = (
                math.sin(alpha) ** 2 if M0 % 2 == 0 else math.cos(alpha) ** 2
            )
            assert report["bruteforce"].energy == pytest.approx(
                -1.0 / residuum**2, rel=1e-12
            )
            assert report["compact_formula"] == pytest.approx(
                report["bruteforce"].energy, rel=1e-12
            )
            assert report["abs_difference"] <= 1e-12 * abs(report["compact_formula"])

    @given(
        M0=st.integers(0, 5),
        alpha=st.floats(min_value=0.15, max_value=math.pi / 2 - 0.15),
        Z=st.floats(min_value=0.1, max_value=3.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_bruteforce_lower_bound_property(self, M0, alpha, Z):
        rep = Reparametrization(M0=M0, alpha=alpha)
        lv = ground_state_bruteforce(Z, rep.L, n_max=M0 + 8)
        table = spectrum_table(Z, rep.L, M0 + 8, mass_sign=-1)
        assert all(lv.energy <= other.energy for other in table)
