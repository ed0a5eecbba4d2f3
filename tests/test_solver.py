import importlib.machinery
import math
import re
import sys
import textwrap
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ptspec.analytic import Level, Reparametrization, figure3_data, level, spectrum_table
from ptspec.contour import StraightLine, UShaped, derivatives, evaluate
from ptspec.errors import ConvergenceFailure, DomainError, GeometryError, PtspecError, SingularL
from ptspec import analytic, solver
from ptspec.model import CoulombKratzer, Oscillator, effective_L, evaluate_potential, integer_L
from ptspec.solver import (
    DENSE_CEILING,
    BoundStateProblem,
    DiscretizedOperator,
    GridSpec,
    _residual_bound,
    _seeds,
    _shifted_solver,
    _spectral_edge,
    _verdict,
    TargetedResult,
    aligned_grid,
    auto_box,
    discretize,
    eigenvector_asymptotics,
    find_bound_states,
    full_spectrum,
    oscillator_problem,
    positive_mass_instability_probe,
    targeted_eigenvalue,
)

DEEP = -((1 / 0.6) ** 2)  # n=0, sigma=-1 level at Z=1, L=0.3


def ck_problem(Z=1.0, L=0.3, eps=1.0):
    return BoundStateProblem(UShaped(eps), CoulombKratzer(Z), L, -1)


class TestGridSpec:
    def test_step(self):
        g = GridSpec(S=10.0, N=1999)
        assert g.h == pytest.approx(20.0 / 2000)

    def test_nodes_mirror_symmetry_bitwise(self):
        for N in (100, 101):
            s = GridSpec(S=7.0, N=N).nodes()
            np.testing.assert_array_equal(s, -s[::-1])

    def test_midpoints_mirror_symmetry_bitwise(self):
        for N in (100, 101):
            m = GridSpec(S=7.0, N=N).midpoints()
            np.testing.assert_array_equal(m, -m[::-1])

    def test_validation(self):
        with pytest.raises(DomainError):
            GridSpec(S=0.0, N=100)
        with pytest.raises(DomainError):
            GridSpec(S=5.0, N=15)
        with pytest.raises(DomainError):
            GridSpec(15.0, 4000, 8.0)  # a stretch value where the flag goes
        for S, N in ((15.0, 40.0), (15.0, True), (math.inf, 100), (math.nan, 100)):
            with pytest.raises(DomainError):
                GridSpec(S, N)
        assert GridSpec(15.0, np.int64(40)).N == 40  # numpy integers pass

    def test_stretched_path_positions(self):
        g = GridSpec(S=15.0, N=101, stretched=True)
        assert solver.STRETCH == 4.0
        assert g.reach == pytest.approx(4.0 * math.sinh(15.0 / 4.0), rel=1e-15)
        assert GridSpec(S=15.0, N=101).reach == 15.0
        for t in (g.nodes(), g.midpoints()):
            s, ds = g.on_path(t)
            np.testing.assert_array_equal(s, -s[::-1])
            np.testing.assert_array_equal(ds, ds[::-1])
            np.testing.assert_allclose(s, 4.0 * np.sinh(t / 4.0), rtol=1e-15)
            np.testing.assert_allclose(ds, np.cosh(t / 4.0), rtol=1e-15)
        t = GridSpec(S=15.0, N=101).nodes()
        assert GridSpec(S=15.0, N=101).on_path(t) == (t, None)


class TestAlignedGrid:
    @given(
        epsilon=st.floats(min_value=0.1, max_value=3.0),
        S=st.floats(min_value=3.0, max_value=60.0),
        N=st.integers(min_value=16, max_value=20000),
    )
    @example(epsilon=1.0, S=15.0, N=4000)  # the acceptance grids
    @example(epsilon=1.0, S=30.0, N=8000)
    @settings(max_examples=200, deadline=None)
    def test_junction_on_a_node_within_the_box(self, epsilon, S, N):
        grid = aligned_grid(UShaped(epsilon), GridSpec(S, N))
        assert grid.N == N and grid.stretched
        assert grid.S <= S and grid.h <= 2.0 * S / (N + 1)
        t_j = solver.STRETCH * math.asinh(0.5 * math.pi * epsilon / solver.STRETCH)
        if t_j < grid.S:
            k = (t_j + grid.S) / grid.h  # 1-based index of the junction's node
            assert abs(k - round(k)) <= 1e-9 * N
        # the largest such T: one more node between the junction and the end
        # would push the end past S
        j = t_j * (N + 1) / (2.0 * grid.S)
        assert j <= 1.0 or t_j * (N + 1) / (2.0 * (j - 1.0)) > S

    @pytest.mark.parametrize(
        "coarse",
        [aligned_grid(UShaped(1.0), GridSpec(15.0, N)) for N in (4000, 4001)]
        + [aligned_grid(UShaped(1.0), GridSpec(15.0, 4000)).refined()],  # the next rung
        ids=["4000", "4001", "8001"],
    )
    def test_halved_step_keeps_every_node(self, coarse):
        fine = coarse.refined()
        assert (fine.S, fine.N, fine.stretched) == (coarse.S, 2 * coarse.N + 1, True)
        np.testing.assert_allclose(fine.nodes()[1::2], coarse.nodes(), rtol=0, atol=1e-12)
        assert fine.h == coarse.h / 2

    def test_width_zero_contour_keeps_the_box(self):
        grid = aligned_grid(UShaped(0.0), GridSpec(15.0, 100))
        assert grid == GridSpec(15.0, 100, stretched=True)


def _plain_discretize(contour, potential, L, mass_sign, grid):
    """discretize's formula in one pass, on fresh arrays, with no shared state.

    The oracle for the shared-geometry assembly: every band is one
    expression, and the Coulomb-Kratzer term i*Z/x is written out, not
    taken from evaluate_potential.
    """
    s, ds = grid.on_path(grid.nodes())
    x, xp = evaluate(contour, s), derivatives(contour, s)
    m, dm = grid.on_path(grid.midpoints())
    xp_mid = derivatives(contour, m)
    if ds is not None:
        xp, xp_mid = xp * ds, xp_mid * dm
    w_node, w_mid = 1.0 / xp, 1.0 / xp_mid
    if isinstance(potential, CoulombKratzer):
        coeff = 1j * potential.Z / x
    else:
        coeff = evaluate_potential(potential, x)
    lam = L * (L + 1.0)
    if lam != 0.0:
        coeff = coeff + lam / (x * x)
    h2 = grid.h * grid.h
    diag = mass_sign * (w_node * (w_mid[1:] + w_mid[:-1]) / h2 + coeff)
    sub = mass_sign * (-(w_node[1:] * w_mid[1:-1]) / h2)
    sup = mass_sign * (-(w_node[:-1] * w_mid[1:-1]) / h2)
    return DiscretizedOperator(diag=diag, sub=sub, sup=sup)


def _assert_same_bits(op, expected):
    # tobytes tells -0.0 from 0.0, which array equality does not
    for band, want in zip((op.diag, op.sub, op.sup), (expected.diag, expected.sub, expected.sup)):
        assert band.dtype == want.dtype and band.shape == want.shape
        assert band.tobytes() == want.tobytes()


class TestDiscretize:
    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    @pytest.mark.parametrize("aligned", [False, True], ids=["plain", "aligned"])
    @pytest.mark.parametrize("mass_sign", [1, -1])
    @pytest.mark.parametrize("Z", [1.0, -1.0])
    @pytest.mark.parametrize("L", [0.3, -0.4, 2.2])
    def test_same_bits_as_plain_assembly(self, L, Z, mass_sign, aligned, warm):
        contour, grid = UShaped(1.0), GridSpec(15.0, 401)
        if aligned:
            grid = aligned_grid(contour, grid)
        if warm:  # the other host is assembled first, from the same geometry tuple
            geometry = solver._geometry(contour, mass_sign, grid)
            solver._assemble(geometry, CoulombKratzer(-Z), L, mass_sign)
            op = solver._assemble(geometry, CoulombKratzer(Z), L, mass_sign)
        else:
            op = discretize(contour, CoulombKratzer(Z), L, mass_sign, grid)
        _assert_same_bits(op, _plain_discretize(contour, CoulombKratzer(Z), L, mass_sign, grid))

    @pytest.mark.parametrize(
        "contour, potential, L, mass_sign, grid",
        [
            (StraightLine(0.0), Oscillator(), 0.0, 1, GridSpec(10.0, 800)),
            (StraightLine(0.0), Oscillator(), 0.0, 1, GridSpec(6.0, 201, stretched=True)),
            # the Kratzer term F = 0.5 at ell = 0, carried by L
            (UShaped(0.5), CoulombKratzer(1.0), effective_L(0, 0.5), -1, GridSpec(15.0, 400)),
        ],
        ids=["oscillator", "stretched oscillator", "kratzer term"],
    )
    def test_same_bits_as_plain_assembly_off_the_search(self, contour, potential, L, mass_sign, grid):
        op = discretize(contour, potential, L, mass_sign, grid)
        _assert_same_bits(op, _plain_discretize(contour, potential, L, mass_sign, grid))

    def test_hosts_share_read_only_bands(self):
        contour, grid = UShaped(1.0), aligned_grid(UShaped(1.0), GridSpec(15.0, 400))
        geometry = solver._geometry(contour, -1, grid)
        before = [part.tobytes() for part in geometry]
        a = solver._assemble(geometry, CoulombKratzer(1.0), 0.3, -1)
        b = solver._assemble(geometry, CoulombKratzer(-1.0), 0.3, -1)
        assert a.sub is b.sub and a.sup is b.sup
        assert not np.array_equal(a.diag, b.diag)
        for band in (a.sub, a.sup):
            with pytest.raises(ValueError, match="read-only"):
                band[0] = 0.0
        # assembling a host leaves the tuple as it was
        assert [part.tobytes() for part in geometry] == before
        # discretize builds its own bands at every call
        c = discretize(contour, CoulombKratzer(1.0), 0.3, -1, grid)
        assert not np.shares_memory(c.sub, a.sub) and not c.sub.flags.writeable
        d = discretize(contour, CoulombKratzer(1.0), 0.3, -1, grid)
        assert not np.shares_memory(c.sub, d.sub) and not np.shares_memory(c.sup, d.sup)

    def test_tridiagonal_shape(self):
        op = discretize(UShaped(1.0), CoulombKratzer(1.0), 0.3, -1, GridSpec(10.0, 64))
        assert op.diag.shape == (64,)
        assert op.sub.shape == (63,)
        assert op.sup.shape == (63,)
        dense = op.to_dense()
        off = dense - np.diag(np.diag(dense)) - np.diag(np.diag(dense, 1), 1) - np.diag(
            np.diag(dense, -1), -1
        )
        assert np.all(off == 0)

    def test_discrete_pt_identity_exact(self):
        op = discretize(UShaped(1.0), CoulombKratzer(1.0), 0.3, -1, GridSpec(15.0, 501))
        assert op.pt_defect() == 0.0

    def test_discrete_pt_identity_positive_mass(self):
        op = discretize(UShaped(0.5), CoulombKratzer(2.0), 1.2, 1, GridSpec(12.0, 300))
        assert op.pt_defect() == 0.0

    @given(
        model=st.sampled_from(["coulomb-kratzer", "oscillator"]),
        grid_kind=st.sampled_from(["plain", "stretched", "aligned"]),
        epsilon=st.floats(min_value=0.05, max_value=3.0),
        S=st.floats(min_value=2.0, max_value=60.0),
        N=st.integers(min_value=16, max_value=DENSE_CEILING),
        L=st.floats(min_value=-0.45, max_value=3.0),
        Z=st.floats(min_value=-3.0, max_value=3.0),
        mass_sign=st.sampled_from([1, -1]),
    )
    # eps = 2/pi puts the junctions at |s| = 1, and S=10 with N=19 puts nodes there
    @example(model="coulomb-kratzer", grid_kind="plain", epsilon=2 / math.pi, S=10.0, N=19,
             L=0.3, Z=1.0, mass_sign=-1)
    @settings(max_examples=200, deadline=None)
    def test_discrete_pt_identity_exact_on_every_grid(
        self, model, grid_kind, epsilon, S, N, L, Z, mass_sign
    ):
        # the contract full_spectrum rests on: it folds every operator that
        # discretize builds, odd and even N, on every grid, for both mass signs
        if model == "oscillator":
            contour, potential = StraightLine(0.0), Oscillator()
        else:
            contour, potential = UShaped(epsilon), CoulombKratzer(Z)
        try:
            grid = GridSpec(S, N, grid_kind != "plain")
            if grid_kind == "aligned":
                grid = aligned_grid(UShaped(epsilon), grid)
            op = discretize(contour, potential, L, mass_sign, grid)
        except PtspecError:  # an input the solver refuses: integer L, x = 0, ...
            assume(False)
        assert op.pt_defect() == 0.0

    @given(
        epsilon=st.floats(min_value=0.1, max_value=3.0),
        S=st.floats(min_value=2.0, max_value=40.0),
        N=st.integers(min_value=16, max_value=600),
        L=st.floats(min_value=-0.45, max_value=3.0),
        Z=st.floats(min_value=-3.0, max_value=3.0),
        mass_sign=st.sampled_from([1, -1]),
    )
    @settings(max_examples=100, deadline=None)
    def test_discrete_pt_identity_exact_on_stretched_grids(
        self, epsilon, S, N, L, Z, mass_sign
    ):
        assume(abs(L - round(L)) > 1e-6)
        grid = aligned_grid(UShaped(epsilon), GridSpec(S, N))
        op = discretize(UShaped(epsilon), CoulombKratzer(Z), L, mass_sign, grid)
        assert op.pt_defect() == 0.0

    def test_stretched_oscillator_levels(self):
        # the chain rule through s = g(t): the stretched grid reaches s = 8.5
        # with step h near the origin and keeps the levels 2n+1 to h^2
        grid = GridSpec(6.0, 2001, stretched=True)
        res = find_bound_states(oscillator_problem(), grid, n_max=4, two_grid=True)
        assert res.matched == res.levels
        np.testing.assert_allclose([r.eigenvalue for r in res.levels], [1, 3, 5, 7, 9], atol=2e-4)
        ratios = list(res.convergence.error_ratios.values())
        assert len(ratios) == 5 and all(3.9 <= r <= 4.1 for r in ratios)

    def test_oscillator_matrix_is_real_symmetric(self):
        op = discretize(StraightLine(0.0), Oscillator(), 0.0, 1, GridSpec(10.0, 200))
        assert np.all(op.diag.imag == 0)
        np.testing.assert_array_equal(op.sub, op.sup)

    def test_width_zero_contour_rejected(self):
        with pytest.raises(GeometryError):
            discretize(UShaped(0.0), CoulombKratzer(1.0), 0.3, -1, GridSpec(10.0, 64))

    def test_integer_L_rejected_for_coulomb(self):
        with pytest.raises(SingularL):
            discretize(UShaped(1.0), CoulombKratzer(1.0), 1.0, -1, GridSpec(10.0, 64))

    def test_node_on_junction_is_regular(self):
        # eps = 2/pi puts the junctions at |s| = 1, where S=15 with N=3989 and
        # N=7979 puts nodes; x' is continuous there, so the deep level moves
        # continuously with eps and keeps its h^2 error
        eps = 2.0 / math.pi

        def deep(epsilon, N):
            op = discretize(UShaped(epsilon), CoulombKratzer(-1.0), 0.3, -1, GridSpec(15.0, N))
            return targeted_eigenvalue(op, DEEP).eigenvalue

        on_node = deep(eps, 3989)
        assert abs(deep(eps * (1 + 1e-9), 3989) - on_node) <= 1e-8
        error = abs(on_node - DEEP)
        assert error <= 1e-3
        assert 3.9 <= error / abs(deep(eps, 7979) - DEEP) <= 4.1

    def test_mass_sign_flips_whole_operator(self):
        g = GridSpec(12.0, 128)
        pos = discretize(UShaped(1.0), CoulombKratzer(1.0), 0.3, 1, g)
        neg = discretize(UShaped(1.0), CoulombKratzer(1.0), 0.3, -1, g)
        np.testing.assert_allclose(pos.diag, -neg.diag, rtol=1e-15)
        np.testing.assert_allclose(pos.sub, -neg.sub, rtol=1e-15)

    @pytest.mark.parametrize("mass_sign", [0, 2, -2, 0.5, math.nan])
    def test_mass_sign_outside_domain(self, mass_sign):
        # the operator's mass sign is the model's (errors.check_sign)
        match = f"^mass sign must be \\+1 or -1, got {mass_sign}$"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=match):
                discretize(UShaped(1.0), CoulombKratzer(1.0), 0.3, mass_sign, GridSpec(12.0, 128))


def _pairing_distance(a, b):
    """Largest distance in the one-to-one pairing of a with b of least total distance."""
    from scipy.optimize import linear_sum_assignment

    distance = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(distance)
    return distance[rows, cols].max()


def _pt_operator(n, rng, real):
    """A random tridiagonal operator with M = J conj(M) J exactly."""

    def draw(k):
        return rng.standard_normal(k) + (0.0 if real else 1j * rng.standard_normal(k))

    diag = draw(n).astype(complex)
    diag[n - n // 2:] = np.conj(diag[: n // 2][::-1])
    if n % 2:
        diag[n // 2] = diag[n // 2].real
    sub = draw(n - 1)
    return DiscretizedOperator(diag=diag, sub=sub, sup=np.conj(sub[::-1]))


@st.composite
def _real_pt_operators(draw):
    """A real tridiagonal operator with M = J M J, symmetric (sub == sup) or not."""
    n = draw(st.integers(min_value=2, max_value=40))
    value = st.floats(min_value=-10.0, max_value=10.0)
    half = draw(st.lists(value, min_size=n - n // 2, max_size=n - n // 2))
    if draw(st.booleans()):  # a palindromic sub, so sup = sub[::-1] equals it
        head = draw(st.lists(value, min_size=n // 2, max_size=n // 2))
        sub = head + head[: (n - 1) // 2][::-1]
    else:
        sub = draw(st.lists(value, min_size=n - 1, max_size=n - 1))
    return DiscretizedOperator(diag=half + half[: n // 2][::-1], sub=sub, sup=sub[::-1])


def _non_pt(op):
    """op with 1e-3j added to its first diagonal entry: no longer PT-symmetric."""
    diag = op.diag.copy()
    diag[0] += 1e-3j
    return DiscretizedOperator(diag=diag, sub=op.sub, sup=op.sup)


_NOT_PT = "^only PT-symmetric operators, as discretize builds them, are folded$"


def _assert_refused_before_the_loader(op):
    with mock.patch.object(solver, "_lapack", side_effect=AssertionError("loader asked")):
        with pytest.raises(DomainError, match=_NOT_PT):
            full_spectrum(op)


class TestDiscretizedOperator:
    @pytest.mark.parametrize("N", [0, 1])
    def test_fewer_than_two_nodes_rejected(self, N):
        with pytest.raises(DomainError, match="N must be >= 2"):
            DiscretizedOperator(diag=np.ones(N), sub=[], sup=[])

    def test_band_lengths_checked(self):
        with pytest.raises(DomainError, match="length N-1"):
            DiscretizedOperator(diag=np.ones(3), sub=np.ones(2), sup=np.ones(3))


class TestFullSpectrum:
    def test_two_by_two_symmetric(self):
        op = DiscretizedOperator(diag=[2.0, 2.0], sub=[1.0], sup=[1.0])
        np.testing.assert_allclose(full_spectrum(op).real, [1.0, 3.0], atol=1e-14)

    def test_fd_laplacian_closed_form(self):
        # -d2/ds2 with Dirichlet ends: exact discrete eigenvalues (2/h^2)(1-cos(k pi/(N+1)))
        S, N = 5.0, 40
        h = 2 * S / (N + 1)
        op = DiscretizedOperator(
            diag=np.full(N, 2.0 / h**2),
            sub=np.full(N - 1, -1.0 / h**2),
            sup=np.full(N - 1, -1.0 / h**2),
        )
        k = np.arange(1, N + 1)
        expected = (2.0 / h**2) * (1.0 - np.cos(k * np.pi / (N + 1)))
        np.testing.assert_allclose(full_spectrum(op).real, np.sort(expected), rtol=1e-12)

    def test_fd_laplacian_via_discretize(self):
        # same operator out of the assembly path (free potential, no L term)
        S, N = 5.0, 64
        op = discretize(StraightLine(0.0), CoulombKratzer(0.0), 0.0, 1, GridSpec(S, N))
        h = 2 * S / (N + 1)
        k = np.arange(1, N + 1)
        expected = (2.0 / h**2) * (1.0 - np.cos(k * np.pi / (N + 1)))
        np.testing.assert_allclose(full_spectrum(op).real, np.sort(expected), rtol=1e-12)

    def test_sorted_by_real_then_imag(self):
        op = discretize(UShaped(1.0), CoulombKratzer(1.0), 0.3, -1, GridSpec(12.0, 150))
        vals = full_spectrum(op)
        order = np.lexsort((vals.imag, vals.real))
        np.testing.assert_array_equal(order, np.arange(len(vals)))

    @pytest.mark.parametrize("N", [127, 199])
    def test_in_place_dense_route_matches_copying_route(self, N):
        # an A5 grid's operator: the column-major folded matrix that dgeev
        # overwrites gives the same eigenvalue bits as a C-ordered copy of
        # it, which eigvals copies
        import scipy.linalg

        op = discretize(UShaped(1.0), CoulombKratzer(1.0), 0.3, -1, GridSpec(15.0, N))
        folded = solver._folded_matrix(*solver._fold(op))
        assert folded.flags.f_contiguous
        vals = scipy.linalg.eigvals(np.ascontiguousarray(folded))
        np.testing.assert_array_equal(full_spectrum(op), vals[np.lexsort((vals.imag, vals.real))])
        # broken out of PT symmetry, it is refused before the loader is asked
        # for a routine; its to_dense() is the tests' reference matrix
        broken = _non_pt(op)
        assert broken.pt_defect() > 0.0
        summed = np.diag(broken.diag) + np.diag(broken.sub, -1) + np.diag(broken.sup, 1)
        dense = broken.to_dense()
        assert dense.flags.f_contiguous
        np.testing.assert_array_equal(dense, summed)
        _assert_refused_before_the_loader(broken)

    @pytest.mark.parametrize("mass_sign", [1, -1])
    @pytest.mark.parametrize("N", [127, 199])
    def test_folded_spectrum_matches_complex_qr(self, N, mass_sign):
        # the A5 grids: the fold's real QR against complex QR of the operator itself
        import scipy.linalg

        op = discretize(UShaped(1.0), CoulombKratzer(1.0), 0.3, mass_sign, GridSpec(15.0, N))
        assert _pairing_distance(full_spectrum(op), scipy.linalg.eigvals(op.to_dense())) <= 1e-8

    def test_real_non_pt_operator_is_refused(self):
        # real symmetric, but its mirror image differs: not folded, and not
        # sent to the tridiagonal route either
        op = DiscretizedOperator(
            diag=[1.0, 2.0, 3.0, 4.0, 5.0], sub=[0.5, 0.25, 1.0, 2.0], sup=[0.5, 0.25, 1.0, 2.0]
        )
        assert op.pt_defect() > 0.0
        _assert_refused_before_the_loader(op)

    def test_discretized_operators_never_reach_complex_qr(self, monkeypatch):
        # complex PT (the A5 grid), real symmetric (the oscillator) and real
        # non-symmetric (the oscillator on a stretched grid) operators, then a
        # non-PT one, refused: the routines each takes from the loader, in order
        lapack, taken = solver._lapack(), []

        class Recording:
            def __getattr__(self, name):
                taken[-1].append(name)
                return getattr(lapack, name)

        monkeypatch.setattr(solver, "_lapack", Recording)
        osc = oscillator_problem()
        ops = [
            discretize(UShaped(1.0), CoulombKratzer(1.0), 0.3, -1, GridSpec(15.0, 127)),
            discretize(osc.contour, osc.potential, osc.L, osc.mass_sign, GridSpec(10.0, 200)),
            discretize(
                osc.contour, osc.potential, osc.L, osc.mass_sign,
                GridSpec(10.0, 201, stretched=True),
            ),
        ]
        for op in ops:
            assert op.pt_defect() == 0.0
            taken.append([])
            assert full_spectrum(op).shape == (op.size,)
        non_pt = _non_pt(ops[0])
        assert non_pt.pt_defect() > 0.0
        taken.append([])
        with pytest.raises(DomainError, match=_NOT_PT):
            full_spectrum(non_pt)
        # the A5 grid's fold and the stretched oscillator's, whose halves are
        # not symmetric, take real QR; the plain oscillator's symmetric halves
        # take dsterf each; the non-PT operator takes nothing
        assert taken == [
            ["dgeev_lwork", "dgeev"], ["dsterf", "dsterf"], ["dgeev_lwork", "dgeev"], [],
        ]

    @given(op=_real_pt_operators())
    @example(op=DiscretizedOperator(diag=[1.0, 2.0, 1.0], sub=[0.5, 0.25], sup=[0.25, 0.5]))
    @example(op=DiscretizedOperator(diag=[1.0, 2.0, 2.0, 1.0], sub=[0.5, 3.0, 0.5],
                                    sup=[0.5, 3.0, 0.5]))
    @settings(max_examples=200, deadline=None)
    def test_real_pt_route_is_read_off_the_operator(self, op):
        # dsterf on each parity half of more than one row exactly when
        # sub == sup, real QR of the fold otherwise
        assert op.pt_defect() == 0.0
        lapack, taken = solver._lapack(), []

        class Recording:
            def __getattr__(self, name):
                taken.append(name)
                return getattr(lapack, name)

        with mock.patch.object(solver, "_lapack", Recording):
            assert full_spectrum(op).shape == (op.size,)
        if np.array_equal(op.sub, op.sup):
            n = op.size
            assert taken == ["dsterf"] * ((n - n // 2 > 1) + (n // 2 > 1))
        else:
            assert taken == ["dgeev_lwork", "dgeev"]

    def test_same_bits_as_scipy_linalg_before_it_loads(self, fresh_json):
        # a fresh interpreter: a non-PT operator is refused before the loader
        # runs, the dense spectra run before import scipy.linalg, then
        # scipy.linalg's own routines give the reference, with sterf named,
        # since the default tridiagonal driver differs between releases
        out = fresh_json(textwrap.dedent("""
            import json, sys
            import numpy as np
            from ptspec import solver
            from ptspec.contour import UShaped
            from ptspec.errors import DomainError
            from ptspec.model import CoulombKratzer

            a5 = solver.discretize(
                UShaped(1.0), CoulombKratzer(1.0), 0.3, -1, solver.GridSpec(15.0, 127))
            diag = a5.diag.copy()
            diag[0] += 1e-3j
            try:
                solver.full_spectrum(solver.DiscretizedOperator(diag=diag, sub=a5.sub, sup=a5.sup))
            except DomainError as exc:
                refused = [str(exc), "scipy.linalg._flapack" in sys.modules]

            osc = solver.oscillator_problem()
            cases = {  # name: (operator, the route full_spectrum takes)
                f"A5 N={N} mass {m}": (solver.discretize(
                    UShaped(1.0), CoulombKratzer(1.0), 0.3, m, solver.GridSpec(15.0, N)), "dgeev")
                for N in (127, 199) for m in (1, -1)
            }
            cases["oscillator N=2000"] = (solver.discretize(
                osc.contour, osc.potential, osc.L, osc.mass_sign, solver.GridSpec(10.0, 2000)),
                "dsterf")
            cases["stretched oscillator N=201"] = (solver.discretize(
                osc.contour, osc.potential, osc.L, osc.mass_sign,
                solver.GridSpec(10.0, 201, stretched=True)), "dgeev")
            cases["symmetric N=2"] = (solver.DiscretizedOperator(
                diag=[2.0, 2.0], sub=[1.0], sup=[1.0]), "dsterf")
            cases["symmetric N=3"] = (solver.DiscretizedOperator(
                diag=[1.0, 2.0, 1.0], sub=[0.5, 0.5], sup=[0.5, 0.5]), "dsterf")
            cases["complex PT N=2"] = (solver.DiscretizedOperator(
                diag=[1 + 2j, 1 - 2j], sub=[0.5 + 0.1j], sup=[0.5 - 0.1j]), "dgeev")
            cases["complex PT N=3"] = (solver.DiscretizedOperator(
                diag=[1 + 2j, 3.0, 1 - 2j], sub=[0.5 + 0.1j, 0.7 - 0.3j],
                sup=[0.7 + 0.3j, 0.5 - 0.1j]), "dgeev")
            got = {name: solver.full_spectrum(op) for name, (op, _) in cases.items()}
            cold = [m for m in ("scipy", "scipy.linalg", "scipy.sparse") if m in sys.modules]

            import scipy.linalg

            def reference(op, route):
                if route == "dgeev":
                    vals = scipy.linalg.eigvals(solver._folded_matrix(*solver._fold(op)))
                else:
                    vals = np.concatenate([
                        scipy.linalg.eigvalsh_tridiagonal(d.real, e.real, lapack_driver="sterf")
                        for d, e, _ in solver._fold(op)
                    ]).astype(complex)
                return vals[np.lexsort((vals.imag, vals.real))]

            def bits(vals):
                return [[v.real.hex(), v.imag.hex()] for v in vals]

            print(json.dumps({"refused": refused, "cold": cold, "differ": [
                name for name, (op, route) in cases.items()
                if bits(got[name]) != bits(reference(op, route))
            ], "sizes": [got[name].size for name in cases]}))
        """))
        assert out["refused"] == [
            "only PT-symmetric operators, as discretize builds them, are folded", False,
        ]
        assert out["cold"] == []
        assert out["differ"] == []
        assert out["sizes"] == [127, 127, 199, 199, 2000, 201, 2, 3, 2, 3]

    @pytest.mark.parametrize("routine", ["dsterf", "dgeev"])
    def test_lapack_failure_is_a_convergence_failure(self, monkeypatch, routine):
        lapack = solver._lapack()

        class Failing:  # the routine's own outputs, with info = 7
            def __getattr__(self, name):
                real = getattr(lapack, name)
                return real if name != routine else lambda *a, **k: (*real(*a, **k)[:-1], 7)

        monkeypatch.setattr(solver, "_lapack", Failing)
        op = {
            "dsterf": DiscretizedOperator(diag=[2.0] * 4, sub=[1.0] * 3, sup=[1.0] * 3),
            "dgeev": _pt_operator(16, np.random.default_rng(16), False),
        }[routine]
        with pytest.raises(ConvergenceFailure, match=f"routine {routine} failed \\(info=7\\)"):
            full_spectrum(op)

    @pytest.mark.parametrize("op", [
        # odd N: the fold scales the middle couplings by sqrt2 (real QR); the
        # row sums stay finite, since the middle row holds neither sup[0] nor
        # its mirror sub[1].  An even N's fold adds the corner coupling to the
        # diagonal, which its row sum bounds: such an operator is refused
        # when it is built (test_row_sum_past_the_float_range_is_refused)
        DiscretizedOperator(diag=[1 + 1j, 2.0, 1 - 1j], sub=[1.0, 1.5e308], sup=[1.5e308, 1.0]),
    ], ids=["odd"])
    def test_overflowing_fold_is_refused(self, op):
        # LAPACK given the overflowed entries returns numbers, not an error
        assert op.pt_defect() == 0.0
        with pytest.raises(DomainError, match="PT fold overflows"):
            full_spectrum(op)

    def test_ceiling_enforced(self):
        def zeros(n):
            return DiscretizedOperator(diag=np.zeros(n), sub=np.zeros(n - 1), sup=np.zeros(n - 1))

        with pytest.raises(DomainError):
            full_spectrum(zeros(DENSE_CEILING + 1))
        assert full_spectrum(zeros(DENSE_CEILING)).shape == (DENSE_CEILING,)


class TestFold:
    @pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
    @pytest.mark.parametrize("N", [2, 3, 16, 17, 127, 200])
    def test_folded_matrix_is_the_explicit_similarity(self, N, real):
        op = _pt_operator(N, np.random.default_rng(N), real)
        assert op.pt_defect() == 0.0
        m, p = N // 2, N - N // 2
        q = np.zeros((N, N), dtype=complex)
        for i in range(m):
            q[i, i] = q[N - 1 - i, i] = 1.0 / math.sqrt(2.0)
            q[i, p + i], q[N - 1 - i, p + i] = 1j / math.sqrt(2.0), -1j / math.sqrt(2.0)
        if N % 2:
            q[m, m] = 1.0
        dense = op.to_dense()
        explicit = q.conj().T @ dense @ q
        folded = solver._folded_matrix(*solver._fold(op))
        assert folded.dtype == float and folded.flags.f_contiguous
        tol = 16 * np.finfo(float).eps * np.abs(dense).max()
        np.testing.assert_allclose(explicit.imag, 0.0, rtol=0, atol=tol)
        np.testing.assert_allclose(folded, explicit.real, rtol=0, atol=tol)
        if real:
            assert not folded[:p, p:].any() and not folded[p:, :p].any()

    def test_real_halves_are_the_parity_blocks(self):
        import scipy.linalg

        osc = oscillator_problem()
        op = discretize(osc.contour, osc.potential, osc.L, osc.mass_sign, GridSpec(10.0, 2000))
        halves = solver._fold(op)
        assert [half[0].size for half in halves] == [1000, 1000]
        vals = []
        for diag, sub, sup in halves:
            assert not (diag.imag.any() or sub.imag.any())
            np.testing.assert_array_equal(sub, sup)
            vals.append(scipy.linalg.eigvalsh_tridiagonal(diag.real, sub.real))
        whole = scipy.linalg.eigvalsh_tridiagonal(op.diag.real, op.sub.real)
        tol = 64 * np.finfo(float).eps * op.norm_inf
        np.testing.assert_allclose(np.sort(np.concatenate(vals)), whole, rtol=0, atol=tol)
        np.testing.assert_allclose(full_spectrum(op).real, whole, rtol=0, atol=tol)

    @pytest.mark.parametrize("N", [2, 3, 16])
    def test_complex_operators_give_exact_conjugate_pairs(self, N):
        # a real operator with sub != sup (from N = 3) takes the same fold and real QR
        import scipy.linalg

        for real in (False, True):
            op = _pt_operator(N, np.random.default_rng(7), real)
            vals = full_spectrum(op)
            assert _pairing_distance(vals, scipy.linalg.eigvals(op.to_dense())) <= 1e-12
            np.testing.assert_array_equal(np.sort_complex(vals.conj()), vals)


class TestTargeted:
    def test_exact_shift_returns_quickly(self):
        op = DiscretizedOperator(diag=[1.0, 2.0, 3.0], sub=[0.0, 0.0], sup=[0.0, 0.0])
        res = targeted_eigenvalue(op, 2.0)
        assert res.eigenvalue == pytest.approx(2.0, abs=1e-10)
        assert res.iterations <= 2

    def test_oscillator_ground_state_from_offset_shift(self):
        op = discretize(StraightLine(0.0), Oscillator(), 0.0, 1, GridSpec(10.0, 800))
        res = targeted_eigenvalue(op, 0.9)
        assert res.eigenvalue.real == pytest.approx(1.0, abs=1e-3)
        assert abs(res.eigenvalue.imag) < 1e-10

    def test_deep_ck_level_acceptance_grid(self):
        op = discretize(UShaped(1.0), CoulombKratzer(-1.0), 0.3, -1, GridSpec(15.0, 4000))
        res = targeted_eigenvalue(op, DEEP)
        assert abs(res.eigenvalue - DEEP) < 1e-3
        assert res.residual <= 1e-10 * max(1.0, abs(res.eigenvalue))

    def test_eigenvector_normalized_and_phase_fixed(self):
        op = discretize(UShaped(1.0), CoulombKratzer(-1.0), 0.3, -1, GridSpec(15.0, 400))
        res = targeted_eigenvalue(op, DEEP)
        v = res.eigenvector
        assert np.linalg.norm(v) == pytest.approx(1.0, rel=1e-12)
        mags = np.abs(v)
        first = np.nonzero(mags >= 1e-6 * mags.max())[0][0]
        assert v[first].imag == pytest.approx(0.0, abs=1e-14)
        assert v[first].real > 0

    def test_repeat_runs_bit_identical(self):
        op = discretize(UShaped(1.0), CoulombKratzer(-1.0), 0.3, -1, GridSpec(15.0, 400))
        start = solver._start_vector(op.size)  # both searches start from this one array
        before = start.copy()
        a = targeted_eigenvalue(op, DEEP, start)
        b = targeted_eigenvalue(op, DEEP, start)
        assert not start.flags.writeable
        assert (a.eigenvalue, a.iterations, a.residual) == (b.eigenvalue, b.iterations, b.residual)
        np.testing.assert_array_equal(a.eigenvector, b.eigenvector)
        np.testing.assert_array_equal(start, before)
        # the LAPACK wrapper's overwrite_b ignores the read-only flag, so the
        # solve checks it: a stray in-place solve of the start vector raises
        _, solve = _shifted_solver(op, DEEP)
        with pytest.raises(ValueError, match="read-only"):
            solve(start)
        np.testing.assert_array_equal(start, before)

    # the loader's banded LU routines (_shifted_solver) and dense ones (full_spectrum)
    ROUTINES = ("zgbtrf", "zgbtrs", "dsterf", "dgeev", "dgeev_lwork")

    def assert_scipys(self, lapack):
        import scipy.linalg

        for name in self.ROUTINES:
            assert getattr(lapack, name) is getattr(scipy.linalg.lapack, name), name

    def test_banded_lapack_is_scipys(self):
        lapack = solver._lapack()
        assert lapack is sys.modules["scipy.linalg._flapack"]
        self.assert_scipys(lapack)

    def test_banded_lapack_falls_back_without_the_extension_spec(self, monkeypatch):
        import scipy.linalg

        find_spec, asked = importlib.machinery.PathFinder.find_spec, []

        def no_flapack(name, path=None, target=None):
            if name == "scipy.linalg._flapack":
                asked.append(name)
                return None
            return find_spec(name, path, target)

        monkeypatch.setattr(importlib.machinery.PathFinder, "find_spec", no_flapack)
        solver._lapack.cache_clear()
        try:
            lapack = solver._lapack()
        finally:
            solver._lapack.cache_clear()
        assert asked == ["scipy.linalg._flapack"]
        assert lapack is scipy.linalg.lapack
        self.assert_scipys(lapack)

    @pytest.mark.parametrize("step", ["create_module", "exec_module"])
    @pytest.mark.parametrize("error", [ImportError, OSError])
    def test_banded_lapack_falls_back_when_the_extension_fails_to_load(
        self, monkeypatch, step, error
    ):
        # where scipy's __init__ sets up DLL paths, loading the extension
        # without it can fail
        import scipy.linalg

        loaded, raised = sys.modules["scipy.linalg._flapack"], []

        def fail(self, arg):
            raised.append(self.name)
            raise error(f"cannot load {self.name}")

        monkeypatch.setattr(importlib.machinery.ExtensionFileLoader, step, fail)
        solver._lapack.cache_clear()
        try:
            lapack = solver._lapack()
        finally:
            solver._lapack.cache_clear()
        assert raised == ["scipy.linalg._flapack"]
        assert lapack is scipy.linalg.lapack
        self.assert_scipys(lapack)
        assert sys.modules["scipy.linalg._flapack"] is loaded

    def test_banded_lapack_without_scipy_names_it(self, fresh_json):
        # a fresh interpreter whose path finder does not see scipy, as where
        # it is not installed: find_spec("scipy") returns None, and the
        # fallback import raises
        out = fresh_json(textwrap.dedent("""
            import importlib.machinery, importlib.util, json, sys

            class NoScipy(importlib.machinery.PathFinder):
                @classmethod
                def find_spec(cls, name, path=None, target=None):
                    if name.partition(".")[0] == "scipy":
                        return None
                    return super().find_spec(name, path, target)

            sys.meta_path[:] = [
                NoScipy if f is importlib.machinery.PathFinder else f for f in sys.meta_path
            ]
            from ptspec import solver
            spec = importlib.util.find_spec("scipy")
            try:
                solver._lapack()
            except ModuleNotFoundError as exc:
                print(json.dumps({"spec": repr(spec), "name": exc.name, "message": str(exc)}))
        """))
        assert out == {"spec": "None", "name": "scipy", "message": "No module named 'scipy'"}

    def test_banded_lapack_before_or_after_scipy_linalg(self, fresh_json):
        # a fresh interpreter, since this process has scipy.linalg loaded: a
        # search run before import scipy.linalg gives the bits of one run after
        search = textwrap.dedent("""
            from ptspec import solver
            from ptspec.contour import UShaped
            from ptspec.model import CoulombKratzer
            problem = solver.BoundStateProblem(UShaped(1.0), CoulombKratzer(1.0), 0.3, -1)
            res = solver.find_bound_states(problem, solver.GridSpec(15.0, 400), 2)
            cold = "scipy.linalg" not in sys.modules
        """)
        report = textwrap.dedent("""
            import scipy.linalg
            lapack = solver._lapack()
            print(json.dumps({
                "cold": cold,
                "same": lapack.zgbtrf is scipy.linalg.lapack.zgbtrf
                and lapack.zgbtrs is scipy.linalg.lapack.zgbtrs,
                "levels": [None if r.eigenvalue is None else
                           [r.eigenvalue.real.hex(), r.eigenvalue.imag.hex()] for r in res.levels],
            }))
        """)
        after = fresh_json("import json, sys\n" + search + report)
        before = fresh_json("import json, sys\nimport scipy.linalg\n" + search + report)
        assert (after["cold"], before["cold"]) == (True, False)
        assert after["same"] is True and before["same"] is True
        assert after["levels"] == before["levels"]
        assert any(level is not None for level in after["levels"])

    @pytest.mark.parametrize("case", ["A1 deep level", "oscillator", "iteration cap"])
    def test_same_bits_as_plain_loop(self, case):
        if case == "A1 deep level":
            op = discretize(UShaped(1.0), CoulombKratzer(-1.0), 0.3, -1, GridSpec(15.0, 4000))
            shift = DEEP
        elif case == "oscillator":
            op = discretize(StraightLine(0.0), Oscillator(), 0.0, 1, GridSpec(10.0, 800))
            shift = 2.9
        else:  # level (1, +1) at L = 1.65 stalls near residual 1e-2
            problem, grid = ck_problem(L=1.65), GridSpec(30.0, 2000)
            lv, host = next(s for s in _seeds(problem, grid, 2) if (s[0].n, s[0].sigma) == (1, 1))
            op = discretize(problem.contour, host, problem.L, problem.mass_sign, grid)
            shift = lv.energy
        capped = _assert_same_bits_as_plain_loop(op, shift)
        assert capped == (case == "iteration cap")

    @given(
        Z=st.sampled_from([1.0, -1.0, 0.5, -2.0]),
        two_L_plus_1=st.one_of(
            st.floats(min_value=0.05, max_value=6.0),
            # within 0.05 of an integer, where two levels of one host nearly
            # coincide and the searches stall
            st.builds(
                lambda k, d: k + d,
                st.integers(min_value=1, max_value=5),
                st.floats(min_value=-0.05, max_value=0.05),
            ),
        ),
        epsilon=st.floats(min_value=0.5, max_value=2.0),
        S=st.floats(min_value=10.0, max_value=30.0),
        N=st.one_of(st.integers(min_value=200, max_value=4000), st.just(16001)),
        tol=st.sampled_from([solver.RESIDUAL_TOL, 1e-30]),  # 1e-30: only the floor stops
        pick=st.integers(min_value=0, max_value=11),
    )
    @example(Z=1.0, two_L_plus_1=2.0, epsilon=1.0, S=14.0, N=501, tol=1e-10, pick=4)  # 183 steps
    @example(Z=1.0, two_L_plus_1=2.0, epsilon=1.0, S=14.0, N=501, tol=1e-10, pick=2)  # the cap
    @example(Z=1.0, two_L_plus_1=1.6, epsilon=1.0, S=30.0, N=16001, tol=1e-30, pick=0)
    @settings(max_examples=25, deadline=None)
    def test_screened_steps_keep_the_plain_loops_bits(self, Z, two_L_plus_1, epsilon, S, N, tol, pick):
        # the steps that skip op v, lambda and the residual are exactly steps
        # at which the plain loop does not stop
        L = (two_L_plus_1 - 1.0) / 2.0
        assume(not integer_L(L))
        problem = ck_problem(Z=Z, L=L, eps=epsilon)
        grid = aligned_grid(problem.contour, GridSpec(S, N))
        seeds = _seeds(problem, grid, 2)
        assume(seeds)
        lv, host = seeds[pick % len(seeds)]
        op = discretize(problem.contour, host, problem.L, problem.mass_sign, grid)
        with mock.patch.object(solver, "RESIDUAL_TOL", tol):
            _assert_same_bits_as_plain_loop(op, lv.energy)

    def test_a_step_that_cannot_stop_forms_no_residual(self, monkeypatch):
        # refine-ladder's coupling: (1, +1) stops at step 2, and step 1's
        # screen shows that it cannot stop, so op v is formed once
        problem = ck_problem()
        grid = aligned_grid(problem.contour, GridSpec(30.0, 8000))
        lv, host = next(s for s in _seeds(problem, grid, 2) if (s[0].n, s[0].sigma) == (1, 1))
        op = discretize(problem.contour, host, problem.L, problem.mass_sign, grid)
        matvec, calls = DiscretizedOperator._matvec_into, []

        def counted(self, *args):
            calls.append(self)
            return matvec(self, *args)

        monkeypatch.setattr(DiscretizedOperator, "_matvec_into", counted)
        res = targeted_eigenvalue(op, lv.energy)
        assert res.iterations == 2
        assert len(calls) == 1

    def test_dirichlet_ends_small(self):
        op = discretize(UShaped(1.0), CoulombKratzer(-1.0), 0.3, -1, GridSpec(15.0, 2000))
        v = targeted_eigenvalue(op, DEEP).eigenvector
        rel = np.abs(v) / np.abs(v).max()
        assert rel[0] <= 1e-8
        assert rel[-1] <= 1e-8

    def test_agrees_with_dense_spectrum(self):
        op = discretize(UShaped(1.0), CoulombKratzer(-1.0), 0.3, -1, GridSpec(15.0, 199))
        lam = targeted_eigenvalue(op, DEEP).eigenvalue
        dense = full_spectrum(op)
        assert np.min(np.abs(dense - lam)) < 1e-8

    def test_convergence_failure_reports_residual(self, monkeypatch):
        monkeypatch.setattr("ptspec.solver.RESIDUAL_TOL", 1e-30)
        monkeypatch.setattr("ptspec.solver.INVERSE_ITERATION_CAP", 2)
        op = discretize(UShaped(1.0), CoulombKratzer(-1.0), 0.3, -1, GridSpec(15.0, 400))
        with pytest.raises(ConvergenceFailure) as excinfo:
            targeted_eigenvalue(op, DEEP)
        assert excinfo.value.residual is not None
        assert excinfo.value.iterations == 2
        assert "rounding floor" in str(excinfo.value)

    def test_unreachable_tolerance_stops_at_rounding_floor(self, monkeypatch):
        monkeypatch.setattr("ptspec.solver.RESIDUAL_TOL", 1e-30)
        monkeypatch.setattr("ptspec.solver.INVERSE_ITERATION_CAP", 1000)
        op = discretize(UShaped(1.0), CoulombKratzer(-1.0), 0.3, -1, GridSpec(15.0, 400))
        row_sum = np.abs(op.to_dense()).sum(axis=1).max()
        assert op.norm_inf == pytest.approx(row_sum, rel=1e-14)
        floor = np.finfo(float).eps * row_sum
        res = targeted_eigenvalue(op, DEEP)
        assert res.residual <= floor
        assert res.iterations < 1000

    @pytest.mark.parametrize(
        "problem, grid",
        [
            (ck_problem(Z), grid)
            for Z in (1.0, -1.0)  # both host coupling signs
            for grid in (
                GridSpec(15.0, 4000),  # acceptance grids
                GridSpec(30.0, 8000),
                GridSpec(auto_box(1.0, 0.3, 2), 4000),  # --S auto golden
                GridSpec(auto_box(1.0, 0.3, 2), 8001),  # and its --order grid
            )
        ]
        + [(oscillator_problem(), GridSpec(10.0, N)) for N in (2000, 4001)],
    )
    def test_rounding_floor_below_tolerance_on_reference_grids(self, problem, grid):
        # there the stopping rule reduces to tol * max(1, |lambda|), as before
        # the floor term existed, so the outputs on these grids cannot move
        op = discretize(problem.contour, problem.potential, problem.L, problem.mass_sign, grid)
        assert np.finfo(float).eps * op.norm_inf < 1e-10


def _assert_same_bits_as_plain_loop(op, shift) -> bool:
    """targeted_eigenvalue gives _plain_inverse_iteration's bits; True if both hit the cap."""
    lam, vector, iterations, residual = _plain_inverse_iteration(op, shift)
    if lam is None:
        assert iterations == solver.INVERSE_ITERATION_CAP
        with pytest.raises(ConvergenceFailure) as excinfo:
            targeted_eigenvalue(op, shift)
        assert (excinfo.value.iterations, excinfo.value.residual) == (iterations, residual)
        return True
    res = targeted_eigenvalue(op, shift)
    assert (res.eigenvalue, res.iterations, res.residual) == (lam, iterations, residual)
    np.testing.assert_array_equal(res.eigenvector, vector)
    return False


def _plain_inverse_iteration(op, shift):
    """targeted_eigenvalue's arithmetic with fresh arrays at every step.

    The oracle for its buffered loop: the start vector a + 1j*b is drawn
    anew, op v is formed band by band, and the norms are np.linalg.norm.
    Returns (eigenvalue, eigenvector, iterations, residual); eigenvalue and
    eigenvector are None when the iteration cap is hit.
    """
    shift, solve = _shifted_solver(op, shift)
    rng = np.random.default_rng(solver._START_SEED)
    v = rng.standard_normal(op.size) + 1j * rng.standard_normal(op.size)
    v /= np.linalg.norm(v)
    lam = complex(shift)
    for iteration in range(1, solver.INVERSE_ITERATION_CAP + 1):
        w = solve(v)
        v = w / np.linalg.norm(w)
        hv = op.diag * v
        hv[1:] += op.sub * v[:-1]
        hv[:-1] += op.sup * v[1:]
        lam = complex(np.vdot(v, hv))
        residual = float(np.linalg.norm(hv - lam * v))
        if residual <= max(_residual_bound(lam, op)):
            mags = np.abs(v)
            first = np.nonzero(mags >= 1e-6 * mags.max())[0][0]
            return lam, v * (np.conj(v[first]) / mags[first]), iteration, residual
    return None, None, iteration, residual


class TestEigenvectorAsymptotics:
    def test_deep_level_rates_near_kappa(self):
        grid = GridSpec(15.0, 4000)
        op = discretize(UShaped(1.0), CoulombKratzer(-1.0), 0.3, -1, grid)
        v = targeted_eigenvalue(op, DEEP).eigenvector
        rates = eigenvector_asymptotics(v, grid)
        kappa = math.sqrt(-DEEP)
        assert rates["left_rate"] == pytest.approx(kappa, rel=0.05)
        assert rates["right_rate"] == pytest.approx(kappa, rel=0.05)

    def test_plane_wave_rates_near_zero(self):
        grid = GridSpec(15.0, 1000)
        s = grid.nodes()
        wave = np.exp(1j * 2.0 * s)
        rates = eigenvector_asymptotics(wave, grid)
        assert abs(rates["left_rate"]) < 1e-6
        assert abs(rates["right_rate"]) < 1e-6

    def test_underflow_raises(self):
        grid = GridSpec(15.0, 1000)
        dead = np.zeros(1000)
        dead[400:600] = 1.0
        with pytest.raises(DomainError, match="tail magnitudes underflow"):
            eigenvector_asymptotics(dead, grid)

    def test_length_mismatch(self):
        with pytest.raises(DomainError):
            eigenvector_asymptotics(np.ones(10), GridSpec(15.0, 1000))


class TestFindBoundStates:
    def test_oscillator_five_matches(self):
        for N in (2000, 4001):
            grid = GridSpec(10.0, N)
            res = find_bound_states(oscillator_problem(), grid, n_max=4)
            assert res.grid == grid  # the oscillator's plain grid is used as given
            assert [(r.level.n, r.level.sigma) for r in res.levels] == [(n, 1) for n in range(5)]
            assert res.matched == res.levels
            got = [r.eigenvalue.real for r in res.levels]
            np.testing.assert_allclose(got, [1, 3, 5, 7, 9], atol=1e-3)
            # every search gets the end check: these levels end at rounding level
            assert all(r.tail <= 1e-12 for r in res.levels), [r.tail for r in res.levels]

    def test_deep_level_matched_on_acceptance_grid(self):
        res = find_bound_states(ck_problem(), GridSpec(15.0, 4000), n_max=0)
        deep = [m for m in res.matched if (m.level.n, m.level.sigma) == (0, -1)]
        assert len(deep) == 1
        assert deep[0].residual <= 1e-3
        assert deep[0].tail <= 1e-8  # decayed to rounding level by the ends

    def test_both_n0_levels_matched_on_wide_grid(self):
        res = find_bound_states(ck_problem(), GridSpec(30.0, 4000), n_max=0)
        keys = {(m.level.n, m.level.sigma) for m in res.matched}
        assert keys == {(0, -1), (0, 1)}

    @pytest.mark.parametrize(
        "problem", [oscillator_problem(), ck_problem()], ids=["oscillator", "coulomb-kratzer"]
    )
    def test_negative_n_max_refused(self, problem):
        with pytest.raises(DomainError, match=r"n_max must be >= 0, got -1"):
            find_bound_states(problem, GridSpec(10.0, 64), n_max=-1)

    def test_zero_coupling_empty(self):
        res = find_bound_states(ck_problem(Z=0.0), GridSpec(15.0, 100), n_max=3)
        assert res.levels == [] and res.matched == [] and res.unmatched == []

    def test_shallow_levels_not_seeded_on_small_box(self):
        # kappa(0, +1) = 1/2.6 needs a reach >= 7.8; S = 5 reaches 4 sinh(5/4) = 6.4,
        # so it seeds only the deep level
        res = find_bound_states(ck_problem(), GridSpec(5.0, 300), n_max=0)
        seeded = {(m.level.n, m.level.sigma) for m in res.matched} | {
            (u.level.n, u.level.sigma) for u in res.unmatched
        }
        assert seeded == {(0, -1)}

    def test_unsupported_model_rejected(self):
        bad = BoundStateProblem(UShaped(1.0), CoulombKratzer(1.0), 0.3, 1)
        with pytest.raises(GeometryError, match="bound-state search supports"):
            find_bound_states(bad, GridSpec(10.0, 64), 0)
        bent = BoundStateProblem(StraightLine(0.4), Oscillator(), 0.0, 1)
        # L = -1 has the same L(L+1) = 0, but the benchmark is oscillator_problem() only
        centrifugal = BoundStateProblem(StraightLine(0.0), Oscillator(), -1.0, 1)
        inverted = BoundStateProblem(StraightLine(0.0), Oscillator(), 0.0, -1)
        for problem in (bent, centrifugal, inverted):
            with pytest.raises(GeometryError, match="bound-state search supports"):
                find_bound_states(problem, GridSpec(10.0, 64), 0)

    def test_two_grid_order_near_two(self):
        # the junction sits on a node of both grids, so no junction phase
        # modulates the h^2 constant and the ratio is 4 to within 1e-3
        res = find_bound_states(ck_problem(), GridSpec(15.0, 4000), n_max=0, two_grid=True)
        conv = res.convergence
        assert conv is not None
        assert conv.fine.grid.h == res.grid.h / 2
        assert set(conv.error_ratios) == {(0, -1), (0, 1)}
        for ratio in conv.error_ratios.values():
            assert 3.996 <= ratio <= 4.004

    def test_finer_grid_keeps_matched_levels(self):
        # at h ~ 1.3e-3 the residual floor eps * ||H|| exceeds 1e-10; seeds
        # must stop there instead of burning the iteration cap
        coarse_grid = GridSpec(30.0, 22627)
        res = find_bound_states(ck_problem(), coarse_grid, n_max=2, two_grid=True)
        fine_grid = coarse_grid.refined()
        fine = find_bound_states(ck_problem(), fine_grid, n_max=2)
        for run in (res, fine):
            reasons = [u.reason for u in run.unmatched]
            assert not [r for r in reasons if r.startswith("no convergence")], reasons
        coarse_keys = {(m.level.n, m.level.sigma) for m in res.matched}
        assert coarse_keys
        assert coarse_keys <= {(m.level.n, m.level.sigma) for m in fine.matched}
        assert set(res.convergence.error_ratios) == coarse_keys

    def test_levels_in_seed_order(self):
        grid = GridSpec(30.0, 2000)
        res = find_bound_states(ck_problem(), grid, n_max=1)
        reach = aligned_grid(UShaped(1.0), grid).reach
        seeded = [lv for lv in spectrum_table(1.0, 0.3, 1, -1) if 3.0 / lv.kappa <= reach]
        assert [r.level for r in res.levels] == seeded
        assert res.matched == [r for r in res.levels if r.reason is None]
        assert res.unmatched == [r for r in res.levels if r.reason is not None]
        for r in res.levels:
            no_convergence = r.reason is not None and r.reason.startswith("no convergence")
            assert (r.eigenvalue is None) == no_convergence
            assert (r.residual is not None) == r.matched
            if r.matched:
                assert r.residual == abs(r.eigenvalue - r.level.energy)

    def test_nonconverged_seed_kept_in_place(self, monkeypatch):
        import ptspec.solver as solver

        real = solver.targeted_eigenvalue
        deep = spectrum_table(1.0, 0.3, 1, -1)[0]

        def stall_on_deep(op, shift, start):
            if shift == deep.energy:
                raise ConvergenceFailure("stalled", iterations=200)
            return real(op, shift, start)

        monkeypatch.setattr(solver, "targeted_eigenvalue", stall_on_deep)
        res = find_bound_states(ck_problem(), GridSpec(30.0, 2000), n_max=1)
        first = res.levels[0]
        assert first.level == deep
        assert first.eigenvalue is None and first.residual is None
        assert first.reason == "no convergence: stalled" and first.iterations == 200
        assert all(r.eigenvalue is not None for r in res.levels[1:])

    def test_host_by_host_search_matches_one_search_per_seed(self):
        # at L = 1.3 the table order alternates hosts (-Z, Z, -Z, Z, ...), and
        # both host operators share one geometry and start vector; no result
        # may move from one plain assembly and one search per seed
        problem = ck_problem(L=1.3)
        grid = aligned_grid(problem.contour, GridSpec(30.0, 2000))
        seeds = _seeds(problem, grid, 2)
        assert [host.Z for _, host in seeds][:4] == [-1.0, 1.0, -1.0, 1.0]
        expected = []
        for lv, host in seeds:
            op = _plain_discretize(problem.contour, host, problem.L, problem.mass_sign, grid)
            bands = (op.diag.copy(), op.sub.copy(), op.sup.copy())
            expected.append(_verdict(lv, targeted_eigenvalue(op, lv.energy), grid))
            # the banded LU and the iteration run in place, never on the operator
            for band, before in zip((op.diag, op.sub, op.sup), bands):
                np.testing.assert_array_equal(band, before)
        assert find_bound_states(problem, GridSpec(30.0, 2000), 2).levels == expected

    def test_hosts_share_one_geometry_and_start_vector(self, monkeypatch):
        real, draw, geometry = solver.targeted_eigenvalue, solver._start_vector, solver._geometry
        searched, starts, draws, grids = {}, [], [], []

        def record(op, shift, start):
            searched[id(op)] = op
            starts.append(start)
            return real(op, shift, start)

        def record_draw(n):
            draws.append(draw(n))
            return draws[-1]

        def record_geometry(contour, mass_sign, grid):
            grids.append(grid)
            return geometry(contour, mass_sign, grid)

        def no_discretize(*args):
            raise AssertionError("a search assembles its hosts from one geometry")

        monkeypatch.setattr(solver, "targeted_eigenvalue", record)
        monkeypatch.setattr(solver, "_start_vector", record_draw)
        monkeypatch.setattr(solver, "_geometry", record_geometry)
        monkeypatch.setattr(solver, "discretize", no_discretize)
        problem, grid = ck_problem(L=1.3), GridSpec(30.0, 2000)
        find_bound_states(problem, grid, 2)
        a, b = searched.values()  # one operator per coupling-sign host
        assert a.sub is b.sub and a.sup is b.sup
        # one geometry and one draw for the grid; every search of both hosts
        # starts from that one read-only array
        aligned = aligned_grid(problem.contour, grid)
        assert grids == [aligned] and [v.size for v in draws] == [aligned.N]
        assert len(starts) > len(searched)
        assert all(v is draws[0] for v in starts) and not draws[0].flags.writeable
        # two grids, two of each: the fine run draws its own start vector
        for seen in (grids, draws, starts):
            seen.clear()
        find_bound_states(problem, grid, 2, two_grid=True)
        assert grids == [aligned, aligned.refined()]
        assert [v.size for v in draws] == [aligned.N, aligned.refined().N]
        assert all(v is draws[0] for v in starts if v.size == aligned.N)
        assert all(v is draws[1] for v in starts if v.size != aligned.N)

    def test_two_grid_keeps_fine_run(self):
        # at L = 2.2 the (0,-1) and (1,-1) seeds stay unmatched on both grids
        problem, grid = ck_problem(L=2.2), GridSpec(30.0, 2000)
        res = find_bound_states(problem, grid, n_max=1, two_grid=True)
        assert res.grid == aligned_grid(problem.contour, grid)
        assert res.convergence.fine.grid == res.grid.refined()  # same T, h/2
        fine = find_bound_states(problem, res.grid.refined(), n_max=1)
        assert res.convergence.fine.levels == fine.levels
        assert fine.unmatched  # the unmatched seeds are kept too
        # the two runs pair level by level: the same seeds in the same order
        assert [r.level for r in fine.levels] == [r.level for r in res.levels]

    def test_small_epsilon_reach_below_S_refused(self):
        # the junction at eps = 0.001 lies under one step of the origin, so the
        # aligned T drops to 6.28 and the reach g(T) = 9.2 falls short of S
        grid = GridSpec(auto_box(1.0, 0.3, 2), 4000)  # --S auto: 19.8
        aligned = aligned_grid(UShaped(0.001), grid)
        assert aligned.reach < grid.S
        with pytest.raises(GeometryError) as info:
            find_bound_states(ck_problem(eps=0.001), grid, n_max=2)
        message = str(info.value)
        for value in ("epsilon = 0.001", f"S = {grid.S}", "N = 4000",
                      f"T = {aligned.S:.4g}", f"g(T) = {aligned.reach:.4g}"):
            assert value in message, (value, message)

    def test_small_epsilon_reach_past_S_searched(self):
        # at eps = 0.01 T = 12.57 and the reach 46 > S, so every requested level
        # with 3/kappa <= S is seeded
        grid = GridSpec(auto_box(1.0, 0.3, 2), 4000)
        res = find_bound_states(ck_problem(eps=0.01), grid, n_max=2)
        assert res.grid.S < grid.S <= res.grid.reach
        assert len(res.levels) == 6


class TestOneCollapseRule:
    """Every consumer of the closed form decides a collapse alike (model.collapses).

    Each case is (L, 2L+1); the collapsing level there is (n, sigma) = (1, -1).
    """

    COLLAPSED = [(1.0 + 7e-13, 2.0 * (1.0 + 7e-13) + 1.0), (0.5 * (2.0 + 1.5e-12), 3.0 + 1.5e-12)]
    REGULAR = [(0.5 * (2.0 + 1e-10), 3.0 + 1e-10), (1.0 + 1e-9, 2.0 * (1.0 + 1e-9) + 1.0)]

    @staticmethod
    def verdicts(L: float, t: float) -> dict:
        """Whether each consumer refuses, or leaves out, the level (1, -1)."""

        def refuses(call, error) -> bool:
            try:
                call()
            except error:
                return True
            return False

        L_eff = effective_L(0, L * (L + 1.0))
        assert L_eff == pytest.approx(L, abs=1e-15)
        rows = figure3_data(1.0, [t], n_max=2)
        return {
            "effective_L": integer_L(L_eff),
            "level": refuses(lambda: level(1.0, L, 1, -1, -1), SingularL),
            "spectrum_table": refuses(lambda: spectrum_table(1.0, L, 2, -1), SingularL),
            "figure3_data": any(
                (r.n, r.sigma) == (1, -1) and r.minus_kappa is None for r in rows
            ),
            "discretize": refuses(
                lambda: discretize(UShaped(1.0), CoulombKratzer(1.0), L, -1, GridSpec(10.0, 64)),
                SingularL,
            ),
            "auto_box": refuses(lambda: auto_box(1.0, L, 2), SingularL),
            "find_bound_states": refuses(
                lambda: find_bound_states(ck_problem(L=L), GridSpec(15.0, 400), n_max=2),
                SingularL,
            ),
        }

    @pytest.mark.parametrize("L, t", COLLAPSED)
    def test_collapsed_everywhere(self, L, t):
        got = self.verdicts(L, t)
        assert all(got.values()), got

    @pytest.mark.parametrize("L, t", REGULAR)
    def test_regular_everywhere(self, L, t):
        got = self.verdicts(L, t)
        assert not any(got.values()), got

    def test_window_edges_agree(self):
        # integer L forms the collapsing level's denominator as figure3's gap
        # does, so the two agree even within one rounding of 2L+1 of the edge
        for k in (-2, -1, 0, 1, 2):
            n, sigma = (k, -1) if k >= 0 else (-k - 1, 1)
            for L in [k + d + j * 2e-17 for d in (-1e-12, 1e-12) for j in range(-20, 21)]:
                rows = figure3_data(1.0, [2.0 * L + 1.0], n_max=n)
                gap = [r.minus_kappa is None for r in rows if (r.n, r.sigma) == (n, sigma)]
                assert gap == [integer_L(L)], L

    @pytest.mark.parametrize("Z, L", [(1.0, 1.0 + 4e-13), (1.0, 1.0 + 7e-13), (0.0, 1.0)])
    def test_search_refuses_before_any_level_table(self, Z, L):
        # one SingularL at any Z, and no warning before it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularL):
                auto_box(Z, L, 2)
            with pytest.raises(SingularL):
                find_bound_states(ck_problem(Z=Z, L=L), GridSpec(15.0, 400), n_max=2)


# every finite rule, one table: (name in the message, call); errors.check_finite
_FINITE = {
    "level": ("L", lambda L: level(1.0, L, 0, 1, -1)),
    "spectrum_table": ("L", lambda L: spectrum_table(1.0, L, 1, -1)),
    "auto_box": ("L", lambda L: auto_box(1.0, L, 2)),
    "discretize": (
        "L", lambda L: discretize(UShaped(1.0), CoulombKratzer(1.0), L, -1, GridSpec(10.0, 64))
    ),
    "find_bound_states": (
        "L", lambda L: find_bound_states(ck_problem(L=L), GridSpec(15.0, 400), n_max=2)
    ),
    "discretize_oscillator": (
        "L", lambda L: discretize(StraightLine(0.0), Oscillator(), L, 1, GridSpec(10.0, 64))
    ),
    "discretize_zero_coupling": (
        "L", lambda L: discretize(UShaped(1.0), CoulombKratzer(0.0), L, -1, GridSpec(10.0, 64))
    ),
    "phi": ("phi", StraightLine),
    "epsilon": ("epsilon", UShaped),
    "S": ("S", lambda S: GridSpec(S, 64)),
    "2L+1": ("2L+1", lambda t: figure3_data(1.0, [1.5, t], 0)),
    "Z": ("Z", CoulombKratzer),
    "F": ("F", lambda F: effective_L(0, F)),
    # a closed form at a non-finite Z has a non-finite value: refused, naming Z
    "level_Z": ("E(n=0, sigma=1) at Z = ", lambda Z: level(Z, 0.3, 0, 1, -1)),
    "figure3_data_Z": (
        "kappa(n=0, sigma=1) at 2L+1 = 1.5, Z = ", lambda Z: figure3_data(Z, [1.5], 0)
    ),
    "auto_box_Z": ("at Z = ", lambda Z: auto_box(Z, 0.3, 1)),
}


# Python prints no integer past 4,300 digits: a refusal names its size instead
_UNPRINTABLE = {10**5000: "an integer of 16610 bits", -(10**5000): "a negative integer of 16610 bits"}


@pytest.mark.parametrize("value", [
    math.nan, math.inf, -math.inf,
    # integers past the float range are infinite as floats
    pytest.param(10**400, id="10**400"), pytest.param(-(10**5000), id="-10**5000"),
])
@pytest.mark.parametrize("entry", _FINITE.values(), ids=_FINITE)
def test_non_finite_L_is_a_domain_error(entry, value):
    # L and every other finite rule: refused before any NaN band or numpy warning
    name, call = entry
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=re.escape(name) + ".* must be finite, got ") as exc:
            call(value)
    assert _UNPRINTABLE.get(value, "") in str(exc.value)


_BAD_COUNTS = (-1, 1.5, 2.0, True, "2", -(10**5000))
# past 2**53 a count no longer fits a float exactly (10**400 none at all); the
# n_max of a table is tried in tests/test_cli.py, in a memory-capped process
_TOO_BIG = (2**53 + 1, 10**160, 10**400, 10**5000)
# every count, one table: (name, minimum, call, bad values); errors.check_count
_COUNTS = {
    "spectrum_table": ("n_max", 0, lambda n: spectrum_table(1.0, 0.3, n, -1), _BAD_COUNTS),
    "figure3_data": ("n_max", 0, lambda n: figure3_data(1.0, [1.6], n), _BAD_COUNTS),
    "find_bound_states": (
        "n_max", 0, lambda n: find_bound_states(oscillator_problem(), GridSpec(10.0, 64), n),
        _BAD_COUNTS,
    ),
    "N": ("N", 16, lambda N: GridSpec(10.0, N), _BAD_COUNTS + (15,) + _TOO_BIG),
    # an operator's size is an array size: never a fraction, a bool or text
    "operator_size": (
        "N", 2, lambda n: DiscretizedOperator(np.ones(n), np.ones(n - 1), np.ones(n - 1)), (1,)
    ),
    "n": ("n", 0, lambda n: level(1.0, 0.3, n, 1, -1), _BAD_COUNTS + _TOO_BIG),
    "M0": ("M0", 0, lambda M0: Reparametrization(M0=M0, alpha=0.3), _BAD_COUNTS + _TOO_BIG),
    "ell": ("ell", 0, lambda ell: effective_L(ell, 0.5), _BAD_COUNTS + _TOO_BIG),
}


@pytest.mark.parametrize("entry", _COUNTS.values(), ids=_COUNTS)
def test_n_max_checked_once(entry):
    # n_max and every other count: an integer >= its minimum and <= 2**53, a bool refused
    name, minimum, call, bad_values = entry
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in bad_values:
            shown = _UNPRINTABLE.get(bad, bad)
            if type(bad) is int and bad > 2**53:
                match = f"^{name} must be <= 2\\*\\*53, got {shown}$"
            elif type(bad) is int:
                match = f"{name} must be >= {minimum}, got {shown}"
            else:
                match = re.escape(f"{name} must be an integer, got {bad!r}")
            with pytest.raises(DomainError, match=match):
                call(bad)
        call(np.int64(minimum))  # numpy integers are integers


class TestSizeAndFiniteBounds:
    """Sizes no grid holds and operators no search can use, refused with DomainError."""

    def test_grid_past_the_ceiling(self):
        GridSpec(10.0, 10**6)  # the ceiling itself forms no node here
        with pytest.raises(DomainError, match=r"^N must be <= 1000000, got 1000001$"):
            GridSpec(10.0, 10**6 + 1)
        assert solver.GRID_CEILING == analytic.MAX_ROWS == 10**6

    @pytest.mark.parametrize("problem, S", [(oscillator_problem(), 10.0), (ck_problem(), 15.0)])
    def test_refined_grid_past_the_ceiling_before_any_search(self, monkeypatch, problem, S):
        def no_search(*args):
            raise AssertionError("searched before the fine grid was formed")

        monkeypatch.setattr(solver, "_search", no_search)
        with pytest.raises(DomainError, match=r"^N must be <= 1000000, got 1000001$"):
            find_bound_states(problem, GridSpec(S, 500000), 0, two_grid=True)

    def test_oscillator_seeds_past_the_table_bound(self, monkeypatch):
        def no_search(*args):
            raise AssertionError("searched past the table bound")

        monkeypatch.setattr(solver, "targeted_eigenvalue", no_search)
        message = "n_max = 1000000 makes a table of 1000001 rows, more than 1000000"
        with pytest.raises(DomainError, match=f"^{message}$"):
            find_bound_states(oscillator_problem(), GridSpec(10.0, 64), 10**6)

    @pytest.mark.parametrize("S", [1e-300, 1e308, 1e200], ids=["h2-underflows", "2S-overflows",
                                                             "x2-overflows"])
    def test_non_finite_operator_without_a_warning(self, S):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="^the operator's diagonal is not finite$"):
                discretize(StraightLine(0.0), Oscillator(), 0.0, 1, GridSpec(S, 100))
            with pytest.raises(DomainError, match="^the operator's diagonal is not finite$"):
                find_bound_states(oscillator_problem(), GridSpec(S, 100), 0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, complex(0.0, -math.inf)])
    @pytest.mark.parametrize("band", ["diagonal", "subdiagonal", "superdiagonal"])
    def test_operator_refuses_a_non_finite_band(self, band, value):
        bands = {"diagonal": np.ones(5, dtype=complex), "subdiagonal": np.ones(4, dtype=complex),
                 "superdiagonal": np.ones(4, dtype=complex)}
        bands[band][2] = value
        with pytest.raises(DomainError, match=f"^the operator's {band} is not finite$"):
            DiscretizedOperator(*bands.values())

    def test_row_sum_past_the_float_range_is_refused(self):
        # finite bands whose largest row sum overflows: norm_inf read
        # "overflow encountered in add", in targeted_eigenvalue too
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=re.escape(
                "the operator's largest row sum |diag| + |sub| + |sup| is not finite"
            )):
                DiscretizedOperator(diag=[1e308, 1e308], sub=[1e308], sup=[1e308])

    def test_overflowing_pt_defect_reads_as_non_pt(self):
        # the mirror difference 1e308 - (-1e308) overflows: pt_defect and
        # full_spectrum read "overflow encountered in subtract"
        op = DiscretizedOperator(diag=[1e308, -1e308], sub=[1.0], sup=[1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert op.pt_defect() == math.inf
            _assert_refused_before_the_loader(op)

    def test_every_band_is_read_only(self):
        # a writable diagonal let norm_inf, cached at its first read, go
        # stale: 714.6 after op.diag[:] *= 1e6, against a row-sum maximum of 3.57e8
        op = discretize(UShaped(1.0), CoulombKratzer(1.0), 0.3, -1, GridSpec(15.0, 400))
        norm = op.norm_inf
        for band in (op.diag, op.sub, op.sup):
            with pytest.raises(ValueError, match="read-only"):
                band[:] *= 1e6
        row_sum = np.abs(op.to_dense()).sum(axis=1).max()
        assert op.norm_inf == norm == pytest.approx(row_sum, rel=1e-14)
        # a caller's writable array is copied, not frozen, and so is a
        # read-only view, whose base may still be written; a read-only array
        # that owns its data is kept
        diag, sub, base = np.ones(3, dtype=complex), np.ones(2, dtype=complex), np.ones(2) + 0j
        sub.flags.writeable = False
        sup = base[:]
        sup.flags.writeable = False
        op = DiscretizedOperator(diag=diag, sub=sub, sup=sup)
        assert diag.flags.writeable and not np.shares_memory(op.diag, diag)
        assert op.sub is sub and not np.shares_memory(op.sup, base)
        diag *= 1e6
        base *= 1e6
        assert op.norm_inf == 3.0 and op.diag.tolist() == [1.0, 1.0, 1.0]

    @pytest.mark.parametrize("shape", [(399,), (401,), (400, 1)])
    def test_start_vector_of_another_shape(self, shape):
        op = discretize(UShaped(1.0), CoulombKratzer(-1.0), 0.3, -1, GridSpec(15.0, 400))
        with mock.patch.object(solver, "_shifted_solver", side_effect=AssertionError("factored")):
            with pytest.raises(DomainError, match=re.escape(f"start vector of shape {shape}")):
                targeted_eigenvalue(op, DEEP, np.ones(shape, dtype=complex))
        # the default start is a fresh draw of the one start vector
        a = targeted_eigenvalue(op, DEEP)
        b = targeted_eigenvalue(op, DEEP, solver._start_vector(op.size))
        assert (a.eigenvalue, a.iterations, a.residual) == (b.eigenvalue, b.iterations, b.residual)
        assert a.eigenvector.tobytes() == b.eigenvector.tobytes()

    @pytest.mark.parametrize("shift", [
        math.nan, math.inf, -math.inf, complex(DEEP, math.nan), complex(DEEP, -math.inf),
    ], ids=["nan", "inf", "-inf", "nan-imag", "-inf-imag"])
    def test_non_finite_shift_is_refused_before_the_lu(self, shift):
        # each ended as "degenerate vector" (ConvergenceFailure, CLI exit 2)
        op = discretize(UShaped(1.0), CoulombKratzer(-1.0), 0.3, -1, GridSpec(15.0, 400))
        with mock.patch.object(solver, "_shifted_solver", side_effect=AssertionError("factored")):
            with pytest.raises(DomainError, match=r"^shift .* is not finite$"):
                targeted_eigenvalue(op, shift)

    @pytest.mark.parametrize("entry", [0.0, math.nan, complex(0.0, math.inf), 1e200],
                             ids=["zero", "nan", "inf", "norm-overflows"])
    def test_degenerate_start_vector_is_refused_before_the_lu(self, entry):
        # zero and NaN starts each ended as "degenerate vector"
        op = discretize(UShaped(1.0), CoulombKratzer(-1.0), 0.3, -1, GridSpec(15.0, 400))
        start = np.zeros(op.size, dtype=complex) if entry == 0.0 else solver._start_vector(op.size)
        start = start.copy()
        start[7] = entry
        with mock.patch.object(solver, "_shifted_solver", side_effect=AssertionError("factored")):
            with pytest.raises(DomainError, match="^start vector with a zero or non-finite norm$"):
                targeted_eigenvalue(op, DEEP, start)


def _keys(levels) -> set:
    return {(r.level.n, r.level.sigma) for r in levels}


class TestEndCheck:
    """The Coulomb-Kratzer match's continuum check on the eigenvector's ends."""

    GRID = aligned_grid(UShaped(1.0), GridSpec(15.0, 4000))
    LEVEL = spectrum_table(1.0, 0.3, 0, -1)[0]

    def judge(self, vector):
        res = TargetedResult(self.LEVEL.energy, vector / np.linalg.norm(vector), 1, 0.0)
        return _verdict(self.LEVEL, res, self.GRID)

    def test_plane_wave_is_continuum(self):
        s, _ = self.GRID.on_path(self.GRID.nodes())
        verdict = self.judge(np.exp(2j * s))
        assert not verdict.matched and "continuum" in verdict.reason
        assert verdict.tail == pytest.approx(1.0)

    @pytest.mark.parametrize("k, end", [(0.05, 0.81), (0.2, 0.58), (1.0, 0.16)])
    def test_box_modes_are_continuum(self, k, end):
        # Dirichlet box modes sin(k(s + g(T))) end 3 to 16 times above 0.05
        s, _ = self.GRID.on_path(self.GRID.nodes())
        verdict = self.judge(np.sin(k * (s + self.GRID.reach)).astype(complex))
        assert not verdict.matched and "continuum" in verdict.reason
        assert verdict.tail == pytest.approx(end, abs=0.01)
        assert verdict.tail > solver.CONTINUUM_END_FRACTION

    def test_shallow_bound_state_ends_below_the_bound(self):
        # the highest end of an in-tolerance level on the seed-1 validate-sweep
        # grids: (2,+1) at L = 1.483, kappa * g(T) = 9.5, ends at 7.3e-3
        res = find_bound_states(ck_problem(L=1.483), GridSpec(15.0, 4000), n_max=2)
        (shallow,) = [r for r in res.levels if (r.level.n, r.level.sigma) == (2, 1)]
        assert shallow.matched
        assert 1e-3 < shallow.tail < solver.CONTINUUM_END_FRACTION / 5

    def test_deep_level_on_a_rounding_plateau_matches(self):
        # (0,-1) at L = 0.0287 (E = -303.5, kappa = 17.4) has fallen to
        # rounding level long before the ends.  On the plain (15, 4000) grid
        # the tail fit reads rates near 0 on that plateau, which the former
        # rate filter took for a plane wave and discarded a level found to 1e-12
        problem, grid = ck_problem(L=0.0287), GridSpec(15.0, 4000)
        lv, host = _seeds(problem, grid, 0)[0]
        assert (lv.n, lv.sigma) == (0, -1)
        res = targeted_eigenvalue(discretize(problem.contour, host, problem.L, -1, grid), lv.energy)
        assert abs(res.eigenvalue - lv.energy) < 1e-11
        rates = eigenvector_asymptotics(res.eigenvector, grid)
        assert max(rates.values()) < 0.05 * lv.kappa
        deep = find_bound_states(problem, grid, 0).levels[0]
        assert deep.level == lv and deep.matched and deep.tail < 1e-8


@given(
    L=st.floats(min_value=-0.45, max_value=2.45),
    epsilon=st.floats(min_value=0.5, max_value=2.0),
    S=st.floats(min_value=15.0, max_value=30.0),
    n=st.integers(min_value=2000, max_value=4000),
)
@example(L=0.3, epsilon=1.0, S=15.0, n=1999)  # N = 3999
@settings(max_examples=12, deadline=None)
def test_matched_stays_matched_at_smaller_step_and_wider_box(L, epsilon, S, n):
    # N odd, so that N -> 2N+1 at 2T keeps h and still puts the junction on a
    # node.  The grids are those of the acceptance criteria and the sweep, h
    # at most 0.015.  Two known defects of the search are kept out (CHANGES.md):
    # - near an integer 2L+1 two levels of one host nearly coincide, e.g.
    #   (1,+1) and (3,-1) at L = 0.5.  Inverse iteration from the closed-form
    #   shift then stalls near its cap on some grids and not on others, and
    #   on some grids the discrete pair has merged into a complex-conjugate
    #   pair equidistant from the shift;
    # - on coarse grids (h near 0.05) an error not yet in its h^2 regime can
    #   pass 5 h^2 |E| at h and fail it at h/2.
    assume(abs(2 * L + 1 - round(2 * L + 1)) > 0.01)
    problem, N = ck_problem(L=L, eps=epsilon), 2 * n + 1
    grid = aligned_grid(problem.contour, GridSpec(S, N))
    matched = _keys(find_bound_states(problem, grid, 2).matched)
    finer = grid.refined()  # h halves
    wider = GridSpec(2 * grid.S, 2 * N + 1, grid.stretched)  # S doubles at fixed h
    assert wider.h == grid.h
    for other in (finer, wider):
        assert matched <= _keys(find_bound_states(problem, other, 2).matched)


@pytest.mark.xfail(
    strict=True,
    reason="box-limited (2,+1) and the iteration stall: ROADMAP open items 1-2",
)
@pytest.mark.parametrize("L, S, N", [(2.25, 15.875, 5807), (2.3125, 15.5, 7395)])
def test_matched_stays_matched_at_smaller_step_box_limited_draw(L, S, N):
    # draws on which the property above fails, at epsilon = 0.5.  Both 2L+1
    # are outside its integer exclusion.
    # - 2L+1 = 5.5: on the aligned grid (T = 15.849, N = 5807), (2,+1) is
    #   matched through the 1e-3 floor after 12 steps; on the refined grid
    #   (N = 11615) inverse iteration reaches its 200-step cap at residual
    #   2.7e-10, against a tolerance of 1.0e-10.
    # - 2L+1 = 5.625 (n = 3697): (2,+1) is matched on the aligned grid and on
    #   the wider box; on the refined grid it is off by 1.002e-3, just above
    #   the 1e-3 floor, after 22 steps.
    problem = ck_problem(L=L, eps=0.5)
    grid = aligned_grid(problem.contour, GridSpec(S, N))
    assert (2, 1) in _keys(find_bound_states(problem, grid, 2).matched)
    assert (2, 1) in _keys(find_bound_states(problem, grid.refined(), 2).matched)


def test_two_grid_working_set():
    # one grid at a time: its host operators, their shared bands and start
    # vector, the in-place banded LU and a few N-vectors; the traced peak of
    # a two-grid search stays near 12.4 vectors of the fine grid, and nothing
    # of size N outlives the call
    import tracemalloc

    grid = GridSpec(15.0, 2000)
    # load the lazy imports on another grid, so that state kept from an
    # identical call cannot lower the peak
    find_bound_states(ck_problem(), GridSpec(15.0, 1000), n_max=2, two_grid=True)
    tracemalloc.start()
    try:
        result = find_bound_states(ck_problem(), grid, n_max=2, two_grid=True)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.convergence is not None
    vector = 16 * (2 * grid.N + 1)  # bytes of one complex vector on the fine grid
    assert peak <= 13 * vector, f"peak {peak / vector:.1f} fine-grid vectors"
    assert held <= 0.5 * vector, f"{held / vector:.2f} fine-grid vectors held after the call"


def test_instability_probe_trend():
    probe = positive_mass_instability_probe(grids=((8.0, 299), (16.0, 599)))
    assert probe[1]["min_real"] < probe[0]["min_real"]


def test_instability_probe_rejects_a_fractional_grid_size():
    # the grid is built from N as given, as GridSpec(15.0, 499.7) itself is
    with pytest.raises(DomainError, match="N must be an integer"):
        positive_mass_instability_probe(grids=((15.0, 499.7),))


class TestInstabilityProbeEdge:
    """The probe's O(N) spectral edge against the dense spectrum."""

    @given(
        Z=st.floats(min_value=0.5, max_value=2.0),
        L=st.floats(min_value=-0.45, max_value=2.4, exclude_min=True, exclude_max=True),
        epsilon=st.floats(min_value=0.5, max_value=1.5),
        S=st.floats(min_value=5.0, max_value=30.0),
        N=st.sampled_from([99, 151, 299]),
    )
    @example(Z=1.0, L=0.3, epsilon=1.0, S=15.0, N=499)  # the A6 grid
    @settings(max_examples=40, deadline=None)
    def test_edge_matches_dense_spectrum(self, Z, L, epsilon, S, N):
        assume(abs(L - round(L)) > 1e-6)
        (record,) = positive_mass_instability_probe(Z, L, epsilon, grids=((S, N),))
        op = discretize(UShaped(epsilon), CoulombKratzer(Z), L, 1, GridSpec(S, N))
        dense = full_spectrum(op).real.min()
        assert record["min_real"] == pytest.approx(dense, rel=1e-9)
        # the shift is the Gershgorin bound, left of every eigenvalue
        assert record["min_real"] >= -op.norm_inf

    def test_gives_up_at_the_iteration_cap(self, monkeypatch):
        # a coarse wide box crowds the edge eigenvalues: one Arnoldi pass is short
        monkeypatch.setattr("ptspec.solver.INVERSE_ITERATION_CAP", 1)
        with pytest.raises(ConvergenceFailure) as info:
            positive_mass_instability_probe(1.0, 2.2, 0.5, grids=((30.0, 99),))
        assert info.value.iterations == 1

    def test_arnoldi_starts_from_a_fresh_start_vector(self, monkeypatch):
        import scipy.sparse.linalg

        real = scipy.sparse.linalg.eigs
        starts = []

        def record(*args, v0, **kwargs):
            starts.append((v0, v0.copy()))
            return real(*args, v0=v0, **kwargs)

        monkeypatch.setattr(scipy.sparse.linalg, "eigs", record)
        op = discretize(UShaped(1.0), CoulombKratzer(1.0), 0.3, 1, GridSpec(8.0, 299))
        _spectral_edge(op)
        ((v0, given),) = starts
        # the read-only unit start vector, which ARPACK copies and leaves as it was
        assert not v0.flags.writeable
        assert v0.tobytes() == given.tobytes() == solver._start_vector(op.size).tobytes()
        assert np.linalg.norm(v0) == pytest.approx(1.0, rel=1e-15)

    def test_shift_on_an_eigenvalue_is_nudged_off(self):
        # diagonal operator: the Gershgorin shift -||op||_inf = -1 is itself an eigenvalue
        diag = np.array([-1.0, -0.5, -0.25, 0.0, 0.25, 0.5, 0.75, 1.0])
        op = DiscretizedOperator(diag=diag, sub=np.zeros(7), sup=np.zeros(7))
        assert _spectral_edge(op) == pytest.approx(-1.0, abs=1e-10)


def test_conjugation_closure_moderate_grids():
    for N in (127, 199):
        op = discretize(UShaped(1.0), CoulombKratzer(1.0), 0.3, -1, GridSpec(15.0, N))
        vals = full_spectrum(op)
        gap = np.max(np.min(np.abs(vals[None, :] - np.conj(vals[:, None])), axis=1))
        assert gap == 0.0
