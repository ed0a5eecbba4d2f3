"""Finite-difference discretization along a contour and eigenvalue extraction.

The Schrodinger operator is discretized in a grid parameter t, uniform on
[-S, S], whose nodes sit on the path at s = g(t): g(t) = t on a plain grid,
g(t) = a*sinh(t/a), a = STRETCH, on a stretched one.  With
x = x(g(t)) the chain rule turns the kinetic term into

    d^2/dx^2 = (1/x_t) d/dt (1/x_t) d/dt,   x_t = x'(g(t)) g'(t),

and this conservative form is the one discretized: second-order flux
differences with 1/x_t sampled at the cell midpoints, Dirichlet ends.  The
conservative form is essential on the U path, where x'' jumps at the arc
junctions; expanding it into a first-derivative term and applying plain
central differences there loses an order of eigenvalue accuracy (measured:
the deep level stalls near 4e-3 instead of converging ~h^2).

The assembled operator is the bare-mass sign times the full positive-mass
Hamiltonian,

    H = mass_sign * (-d^2/dx^2 + L(L+1)/x^2 + V(x)),

because the negative-mass amendment is exactly an overall sign flip; the
point spectrum is insensitive to the accompanying coupling-sign change.

Grid nodes and midpoints are constructed mirror-symmetrically
(t[N-1-k] == -t[k] bitwise, and so g(t) too), which makes the discrete
conjugate-reflection identity of PT-symmetric inputs exact in floating point.
"""

from __future__ import annotations

import cmath
import importlib.machinery
import importlib.util
import math
import os
import sys
from functools import cache, cached_property
from typing import NamedTuple, Optional

import numpy as np

from . import analytic
from .analytic import Level
# evaluate is not called here, but stays importable as ptspec.solver.evaluate,
# the name the bench tracer wraps
from .contour import Contour, StraightLine, UShaped, _path, derivatives, evaluate  # noqa: F401
from .errors import (
    ConvergenceFailure, DomainError, GeometryError, _Record, check_count, check_finite,
    check_sign,
)
from .model import CoulombKratzer, Oscillator, Potential, check_L, evaluate_potential

__all__ = [
    "GridSpec",
    "DiscretizedOperator",
    "BoundStateProblem",
    "LevelResult",
    "TwoGridConvergence",
    "SpectrumResult",
    "oscillator_problem",
    "discretize",
    "full_spectrum",
    "targeted_eigenvalue",
    "TargetedResult",
    "find_bound_states",
    "eigenvector_asymptotics",
    "positive_mass_instability_probe",
    "auto_box",
    "aligned_grid",
]

DENSE_CEILING = 2000  # largest size full_spectrum accepts
# The largest N a GridSpec accepts, as large as analytic.MAX_ROWS.  Searches
# at it, on a 2-vCPU x86-64 machine: `solve oscillator --N 1000000 --nmax 0`
# (one seed, run to the iteration cap) peaks at 221 MB and takes 13.5 s;
# `spectrum numeric --Z 1 --L 0.3 --N 1000000 --nmax 0` (two hosts, two
# seeds, one capped) peaks at 237 MB and takes 21.6 s.
GRID_CEILING = 10**6
INVERSE_ITERATION_CAP = 200
RESIDUAL_TOL = 1e-10  # relative part of the stopping rule, see _residual_bound
EDGE_BLOCK = 4  # two conjugate pairs at the left edge, see _spectral_edge
MATCH_ABS_TOL = 1e-3
CONTINUUM_END_FRACTION = 0.05  # see _verdict
MIN_DECAY_LENGTHS = 3.0  # seed a level only when its reach is >= 3 / kappa
MIN_AUTO_BOX = 15.0
STRETCH = 4.0  # a in the Coulomb-Kratzer search's path map s = a*sinh(t/a)
_START_SEED = 0x5EED
_EPS = float(np.finfo(float).eps)  # read once: _residual_bound runs at every step


class GridSpec(_Record):
    """N interior nodes uniform in t on [-S, S], step h = 2S/(N+1), Dirichlet ends.

    The node at t sits on the path at s = t, or, when stretched, at
    s = g(t) = a*sinh(t/a), a = STRETCH: near the origin the step in s is
    about h, and it grows like e^(|t|/a) outward, so the ends reach much
    farther than S.
    """

    S: float
    N: int
    stretched: bool

    def __init__(self, S: float, N: int, stretched: bool = False):
        check_finite("S", S)
        if not S > 0:
            raise DomainError(f"S must be > 0, got {S}")
        check_count("N", N, 16)
        if N > GRID_CEILING:
            raise DomainError(f"N must be <= {GRID_CEILING}, got {N}")
        if not isinstance(stretched, bool):
            raise DomainError(f"stretched must be True or False, got {stretched!r}")
        self.__dict__.update(S=S, N=N, stretched=stretched)
        try:  # past S = 4 asinh(max/4) ~ 2836.36 the reach overflows
            reach = self.reach
        except OverflowError:
            reach = math.inf
        check_finite("the reach g(S) of a stretched grid at S = {}", reach, S)

    @property
    def h(self) -> float:
        return 2.0 * self.S / (self.N + 1)

    def refined(self) -> GridSpec:
        """The same [-S, S] and path map at N -> 2N+1: h halves, every node stays."""
        return GridSpec(self.S, 2 * self.N + 1, self.stretched)

    @property
    def reach(self) -> float:
        """|s| at the Dirichlet ends: g(S)."""
        return STRETCH * math.sinh(self.S / STRETCH) if self.stretched else self.S

    def nodes(self) -> np.ndarray:
        t = -self.S + self.h * np.arange(1, self.N + 1)
        return _mirrored(t)

    def midpoints(self) -> np.ndarray:
        """The N+1 cell midpoints bracketing the nodes."""
        t = self.nodes()
        m = np.empty(self.N + 1)
        m[0] = t[0] - 0.5 * self.h
        m[1:] = t + 0.5 * self.h
        return _mirrored(m)

    def on_path(self, t: np.ndarray) -> tuple:
        """(s, ds/dt) at the grid parameters t; ds/dt is None on a plain grid.

        Formed from |t|, so mirrored t give mirrored s and even ds/dt bitwise.
        """
        if not self.stretched:
            return t, None
        u = np.abs(t) / STRETCH
        return np.copysign(STRETCH * np.sinh(u), t), np.cosh(u)


def aligned_grid(contour: UShaped, grid: GridSpec) -> GridSpec:
    """The stretched grid that the Coulomb-Kratzer search runs on for (S, N).

    Nodes uniform in t on [-T, T], placed at s = STRETCH*sinh(t/STRETCH).
    T is the largest value <= S that puts the arc junction, at
    t_J = STRETCH*asinh(pi*eps/(2*STRETCH)), on a node: node k sits at
    t = 2jT/(N+1) with j = k - (N+1)/2, so T = t_J(N+1)/(2j) for the
    smallest j >= t_J(N+1)/(2S) that makes k an integer.  The step never
    exceeds 2S/(N+1), and N -> 2N+1 at the same T keeps every node, the
    junction's included (GridSpec.refined).  The width-zero contour has no
    junction: T = S.
    """
    t_j = STRETCH * math.asinh(contour.junction / STRETCH)
    if t_j == 0.0:
        return GridSpec(S=grid.S, N=grid.N, stretched=True)
    half = 0.5 * (grid.N + 1)
    index = t_j * half / grid.S  # the junction's node index from the centre, at T = S
    if not math.isfinite(index):
        raise GeometryError(
            f"epsilon = {contour.epsilon}: the aligned grid for S = {grid.S}, N = {grid.N} "
            f"puts the arc junction at node index {index} from the centre; raise S"
        )
    j = half + math.ceil(index - half)
    return GridSpec(S=t_j * half / j, N=grid.N, stretched=True)


def _dense(diag: np.ndarray, sub: np.ndarray, sup: np.ndarray) -> np.ndarray:
    """The tridiagonal matrix of three bands in their dtype, column-major."""
    n = diag.size
    m = np.zeros((n, n), dtype=np.result_type(diag, sub, sup), order="F")
    i = np.arange(n)
    m[i, i] = diag
    m[i[1:], i[:-1]] = sub
    m[i[:-1], i[1:]] = sup
    return m


def _mirrored(values: np.ndarray) -> np.ndarray:
    """Force exact reflection antisymmetry: values[-1-k] == -values[k] bitwise."""
    out = values.copy()
    n = out.size
    half = n // 2
    out[:half] = -out[n - half:][::-1]
    if n % 2 == 1:
        out[half] = 0.0
    return out


class DiscretizedOperator(_Record):
    """Complex tridiagonal matrix: diag (N >= 2), sub (N-1, row i+1 col i), sup (N-1).

    A band may be read-only and shared with other operators: discretize's
    off-diagonal bands are, since they depend only on the path, the grid and
    the mass sign (_geometry), and the hosts of one _search share them.  A
    band with a NaN or infinite entry raises DomainError: no search or
    spectrum of such an operator means anything.
    """

    diag: np.ndarray
    sub: np.ndarray
    sup: np.ndarray

    def __init__(self, diag: np.ndarray, sub: np.ndarray, sup: np.ndarray):
        diag = np.asarray(diag, dtype=complex)
        sub = np.asarray(sub, dtype=complex)
        sup = np.asarray(sup, dtype=complex)
        n = diag.size
        check_count("N", n, 2)
        if sub.size != n - 1 or sup.size != n - 1:
            raise DomainError("off-diagonal bands must have length N-1")
        for name, band in (("diagonal", diag), ("subdiagonal", sub), ("superdiagonal", sup)):
            if not np.isfinite(band).all():
                raise DomainError(f"the operator's {name} is not finite")
        self.__dict__.update(diag=diag, sub=sub, sup=sup)

    @property
    def size(self) -> int:
        return self.diag.size

    def to_dense(self) -> np.ndarray:
        """The full matrix, column-major so LAPACK takes it without a copy."""
        return _dense(self.diag, self.sub, self.sup)

    def matvec(self, v: np.ndarray) -> np.ndarray:
        n = self.size
        return self._matvec_into(v, np.empty(n, dtype=complex), np.empty(n, dtype=complex))

    def _matvec_into(self, v: np.ndarray, out: np.ndarray, work: np.ndarray) -> np.ndarray:
        """op @ v written into out, with work holding the off-diagonal products."""
        np.multiply(self.diag, v, out=out)
        out[1:] += np.multiply(self.sub, v[:-1], out=work[1:])
        out[:-1] += np.multiply(self.sup, v[1:], out=work[:-1])
        return out

    @cached_property
    def norm_inf(self) -> float:
        """Largest absolute row sum, max_i |diag_i| + |sub_{i-1}| + |sup_i|.

        Cached: find_bound_states targets several seeds on one operator.
        """
        rows = np.abs(self.diag)
        rows[1:] += np.abs(self.sub)
        rows[:-1] += np.abs(self.sup)
        return float(rows.max())

    def pt_defect(self) -> float:
        """Max entrywise violation of M[i,j] = conj(M[N-1-i, N-1-j])."""
        d = np.max(np.abs(self.diag - np.conj(self.diag[::-1])))
        return float(max(d, np.max(np.abs(self.sub - np.conj(self.sup[::-1])))))


class BoundStateProblem(NamedTuple):
    """Model bundle fed to find_bound_states."""

    contour: Contour
    potential: Potential
    L: float
    mass_sign: int


def oscillator_problem() -> BoundStateProblem:
    """V = x^2 on the real line, positive mass, no centrifugal term.

    Exact eigenvalues 2n+1 in internal units; used as the solver benchmark.
    """
    return BoundStateProblem(
        contour=StraightLine(0.0),
        potential=Oscillator(),
        L=0.0,
        mass_sign=1,
    )


def discretize(
    contour: Contour,
    potential: Potential,
    L: float,
    mass_sign: int,
    grid: GridSpec,
) -> DiscretizedOperator:
    """Assemble the tridiagonal operator for the given model on the grid.

    On a stretched grid x and x_t = x'(g(t)) g'(t) are taken at s = g(t)
    (see GridSpec.on_path).  A node may sit on a U-path junction: x' is
    continuous there and x'' is never sampled.  _geometry checks the mass
    sign (DomainError unless +1 or -1) and refuses the width-zero contour
    (GeometryError); _assemble then checks L: a non-finite L is refused for
    every potential, an integer L (model.check_L) only in a Coulomb-Kratzer
    run, Z != 0, since the oscillator benchmark runs at L = 0.  A band that
    is not finite raises DomainError (DiscretizedOperator).
    """
    return _assemble(_geometry(contour, mass_sign, grid), potential, L, mass_sign)


def _geometry(contour: Contour, mass_sign: int, grid: GridSpec) -> tuple:
    """(x, kinetic diagonal, sub, sup) of discretize: the part no potential enters.

    x is the path at the nodes.  -(1/x_t) d/dt (1/x_t) d/dt in conservative
    form, with w = 1/x_t at the nodes and midpoints, has row j
    -(w_node[j]/h^2) * (w_mid[j+1]*(v[j+1]-v[j]) - w_mid[j]*(v[j]-v[j-1])):
    the kinetic diagonal w_node (w_mid[1:] + w_mid[:-1]) / h^2, and the
    off-diagonal bands, which carry the mass sign and are made read-only, so
    the hosts _assemble builds from one tuple share them.  Runs without numpy
    warnings: a non-finite band is refused by DiscretizedOperator instead.
    """
    check_sign("mass sign", mass_sign)
    if isinstance(contour, UShaped) and not contour.epsilon:
        raise GeometryError("width-zero contour is evaluation-only, not discretizable")
    with np.errstate(all="ignore"):
        s, ds = grid.on_path(grid.nodes())
        x, xp = _path(contour, s)  # x and x' at the nodes
        m, dm = grid.on_path(grid.midpoints())
        xp_mid = derivatives(contour, m)  # x' at the N+1 flux midpoints
        if ds is not None:
            xp *= ds
            xp_mid *= dm
        w_node = np.divide(1.0, xp, out=xp)  # 1/x_t, in place of x_t
        w_mid = np.divide(1.0, xp_mid, out=xp_mid)

        h2 = grid.h * grid.h
        kinetic = w_node * (w_mid[1:] + w_mid[:-1]) / h2
        sub = mass_sign * (-(w_node[1:] * w_mid[1:-1]) / h2)
        sup = mass_sign * (-(w_node[:-1] * w_mid[1:-1]) / h2)
    sub.flags.writeable = sup.flags.writeable = False
    return x, kinetic, sub, sup


def _assemble(
    geometry: tuple, potential: Potential, L: float, mass_sign: int
) -> DiscretizedOperator:
    """discretize's operator for one potential on a _geometry tuple, left as it was.

    Checks L (see discretize), then forms the diagonal mass_sign * (kinetic +
    V(x) + L(L+1)/x^2), without numpy warnings as _geometry does; the
    off-diagonal bands are the tuple's own read-only arrays.
    """
    check_finite("L", L)
    if isinstance(potential, CoulombKratzer) and potential.Z != 0.0:
        check_L(L)
    x, kinetic, sub, sup = geometry
    with np.errstate(all="ignore"):
        coeff = evaluate_potential(potential, x)
        lam = L * (L + 1.0)
        if lam != 0.0:
            if np.any(x == 0):
                raise DomainError("centrifugal term evaluated at x = 0")
            coeff = coeff + lam / (x * x)
        diag = mass_sign * (kinetic + coeff)
    return DiscretizedOperator(diag=diag, sub=sub, sup=sup)


def full_spectrum(op: DiscretizedOperator) -> np.ndarray:
    """All eigenvalues of the tridiagonal matrix, sorted by (real, imag).

    A PT-symmetric operator (pt_defect() == 0, as every discretize output
    is) is folded into real arithmetic first (_fold, after A. Lee, Linear
    Algebra Appl. 29, 205, 1980): a real operator whose two parity halves
    are symmetric takes dsterf on each half, of size about N/2, and every
    other one becomes one real matrix of size N, whose real Hessenberg QR
    (dgeev) returns the eigenvalues in exact conjugate pairs; a fold that
    overflows raises DomainError.  A non-PT operator gets complex QR (zgeev)
    of to_dense().  The routines come from _lapack and are called as
    scipy.linalg's eigvalsh_tridiagonal(d, e, lapack_driver='sterf') and
    eigvals(a, overwrite_a=True) call them, with the same bits.  Every
    route inherits LAPACK's 30*N sweep budget; exceeding it raises
    ConvergenceFailure.  Sizes above DENSE_CEILING raise DomainError.
    """
    n = op.size
    if n > DENSE_CEILING:
        raise DomainError(
            f"matrix size {n} exceeds the dense-solver ceiling {DENSE_CEILING}; "
            "use targeted_eigenvalue"
        )
    lapack = _lapack()

    def run(name: str, *args, **kwargs) -> list:  # a routine's outputs, its info checked
        *out, info = getattr(lapack, name)(*args, **kwargs)
        if info != 0:
            raise ConvergenceFailure(f"dense eigenvalue routine {name} failed (info={info})")
        return out

    def geev(kind: str, a: np.ndarray) -> np.ndarray:  # in a's own storage, no eigenvectors
        work = run(f"{kind}geev_lwork", a.shape[0], compute_vl=0, compute_vr=0)[0]
        w = run(f"{kind}geev", a, compute_vl=0, compute_vr=0, lwork=int(work.real), overwrite_a=1)
        return w[0] if kind == "z" else w[0] + 1j * w[1]

    if op.pt_defect() != 0.0:
        vals = geev("z", op.to_dense())
    else:
        with np.errstate(over="ignore"):  # refused below
            halves = _fold(op)
        if not all(np.isfinite(band).all() for half in halves for band in half):
            raise DomainError("the operator's PT fold overflows")
        if all(
            np.array_equal(sub, sup) and not (diag.imag.any() or sub.imag.any())
            for diag, sub, sup in halves
        ):
            vals = np.concatenate([  # dsterf refuses the empty e of a 1 x 1 half
                diag.real if diag.size == 1 else run("dsterf", diag.real, sub.real)[0]
                for diag, sub, _ in halves
            ]).astype(complex)
        else:
            vals = geev("d", _folded_matrix(*halves))
    return vals[np.lexsort((vals.imag, vals.real))]


def _fold(op: DiscretizedOperator) -> tuple:
    """The band sets (diag, sub, sup) of the two halves P and K of a PT fold.

    For M = J conj(M) J with J the N x N reversal, m = N//2 and
    Q = (1/sqrt2)[[I, iI], [J, -iJ]] (one more real unit middle row and
    column when N is odd), Q^H M Q = [[Re A, -Im B], [Im A, Re B]] with
    A = M11 + M13 J and B = M11 - M13 J, M11 the leading m x m block and M13
    the trailing m columns of the leading m rows.  For a tridiagonal M the
    only entry M13 J adds is the corner M[m-1, m], and only when N is even.
    P is A, of size N - m: when N is odd it is bordered by the middle row
    and column, which couple to M11 through sqrt2 M[m-1, m] and
    sqrt2 M[m, m-1].  K is B, of size m.  _folded_matrix assembles Q^H M Q
    from them; for a real M it is diag(P, K), so P and K are the even and odd
    parity blocks.
    """
    n = op.size
    m = n // 2
    p = n - m
    P = (op.diag[:p].copy(), op.sub[: p - 1].copy(), op.sup[: p - 1].copy())
    K = (op.diag[:m].copy(), op.sub[: m - 1], op.sup[: m - 1])
    if n % 2 == 0:
        P[0][m - 1] += op.sup[m - 1]
        K[0][m - 1] -= op.sup[m - 1]
    else:
        P[1][m - 1] *= math.sqrt(2.0)
        P[2][m - 1] *= math.sqrt(2.0)
    return P, K


def _folded_matrix(P: tuple, K: tuple) -> np.ndarray:
    """Q^H M Q = [[Re P, -Im B], [Im A, Re K]] from _fold's halves, real and column-major.

    The off-diagonal blocks are read off P's bands: Im A is P's first m
    rows, and Im B is P's first m columns with K's diagonal, since A and B
    differ only there, in the even case's corner.  When N is odd they carry
    the middle's imaginary couplings.  The complex N x N matrix is never
    formed.
    """
    p, m = P[0].size, K[0].size
    r = np.zeros((p + m, p + m), order="F")
    r[:p, :p] = _dense(*(b.real for b in P))
    r[p:, p:] = _dense(*(b.real for b in K))
    im = _dense(*(b.imag for b in P))
    r[p:, :p] = im[:m]
    r[:p, p:] = -im[:, :m]
    i = np.arange(m)
    r[i, p + i] = -K[0].imag
    return r


class TargetedResult(NamedTuple):
    eigenvalue: complex
    eigenvector: np.ndarray
    iterations: int
    residual: float


@cache
def _lapack():
    """scipy's LAPACK extension module, loaded without running any of scipy's __init__.

    import scipy.linalg would cost a cold solving command about half its
    time, and even scipy's top-level __init__ loads test and version helpers
    a solve never uses.  _shifted_solver and full_spectrum take their
    routines from scipy.linalg._flapack: importlib.util.find_spec locates
    scipy without running it, and the extension is loaded from there on its
    own and entered in sys.modules, where a later import scipy.linalg finds
    it.  The fallback is scipy.linalg.lapack, the same function objects: when
    scipy has no spec (it raises ModuleNotFoundError), when the extension is
    not where expected, or when loading it raises ImportError or OSError, as
    it can where scipy's __init__ sets up DLL paths (Windows).
    """
    name = "scipy.linalg._flapack"
    scipy = importlib.util.find_spec("scipy")  # locates the package, runs none of it
    spec = None if scipy is None else importlib.machinery.PathFinder.find_spec(
        name, [os.path.join(scipy.submodule_search_locations[0], "linalg")]
    )
    if spec is not None:
        try:  # an extension runs its init code in module_from_spec already
            flapack = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(flapack)
        except (ImportError, OSError):
            pass
        else:
            return sys.modules.setdefault(name, flapack)
    # _flapack is private: a scipy release or an editable install that moves
    # it should cost speed, not correctness
    from scipy.linalg import lapack

    return lapack


def _shifted_solver(op: DiscretizedOperator, shift: complex):
    """One banded LU of (op - shift*I); returns the shift used and solve(v).

    LAPACK gbtrf with partial pivoting, in place on column-major band
    storage.  A shift that is exactly an eigenvalue makes the factor
    singular: it is nudged off the singularity once and the band, which the
    failed factorization overwrote, is rebuilt and refactored.  solve(v)
    applies (op - shift*I)^-1 in O(N) by gbtrs, in v's own storage: v is
    overwritten with the result, which is returned.  A read-only v raises
    ValueError (gbtrs would write through the flag); either LAPACK failure
    raises ConvergenceFailure.
    """
    gbtrf, gbtrs = _lapack().zgbtrf, _lapack().zgbtrs

    def factor(shift: complex) -> tuple:
        # 2*kl + ku + 1 rows for kl = ku = 1; column-major, so gbtrf factors it in place
        ab = np.zeros((4, op.size), dtype=complex, order="F")
        ab[1, 1:] = op.sup
        np.subtract(op.diag, shift, out=ab[2])
        ab[3, :-1] = op.sub
        return gbtrf(ab, 1, 1, overwrite_ab=1)

    lu, piv, info = factor(shift)
    if info > 0:
        shift = shift + 1e-12 * (1.0 + abs(shift))
        lu, piv, info = factor(shift)
    if info != 0:
        raise ConvergenceFailure(f"banded LU factorization failed (info={info})")

    def solve(v: np.ndarray) -> np.ndarray:
        if not v.flags.writeable:
            raise ValueError("solve(v) overwrites v, which is read-only")
        w, solve_info = gbtrs(lu, 1, 1, v, piv, overwrite_b=1)
        if solve_info != 0:
            raise ConvergenceFailure(f"banded solve failed (info={solve_info})")
        return w

    return shift, solve


def _start_vector(n: int) -> np.ndarray:
    """Unit complex Gaussian start vector from the fixed seed, read-only: runs repeat bitwise.

    The real parts are drawn before the imaginary parts.  Every call draws
    afresh; _search draws once per grid and hands the one array to every
    seed's targeted_eigenvalue, which iterates on a copy.
    """
    rng = np.random.default_rng(_START_SEED)
    v = np.empty(n, dtype=complex)
    v.real = rng.standard_normal(n)
    v.imag = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    v.flags.writeable = False
    return v


def _residual_bound(lam: complex, op: DiscretizedOperator) -> tuple:
    """(tolerance, rounding floor) for a unit eigenvector estimate of lam.

    The estimate is accepted once its residual is at most the larger of
    RESIDUAL_TOL * max(1, |lam|) and eps * ||op||_inf (see targeted_eigenvalue).
    """
    return RESIDUAL_TOL * max(1.0, abs(lam)), _EPS * op.norm_inf


def targeted_eigenvalue(
    op: DiscretizedOperator, shift: complex, start: Optional[np.ndarray] = None
) -> TargetedResult:
    """Shift-invert inverse iteration toward the eigenvalue nearest `shift`.

    One banded LU factorization of (op - shift*I), then O(N) solves per
    iteration.  The eigenvalue estimate is the Rayleigh quotient of the
    current iterate; convergence is declared when the 2-norm residual
    ||op v - lambda v|| drops to max(RESIDUAL_TOL * max(1, |lambda|),
    eps * ||op||_inf), within INVERSE_ITERATION_CAP steps.
    The second term is the rounding floor, below which the computed residual
    of a unit vector is noise (backward-error stopping criterion; Higham,
    Accuracy and Stability of Numerical Algorithms, 2002); it grows like
    4/h^2, so only fine grids stop on it.  The returned eigenvector has unit
    norm and its first significant component is made real positive, which
    pins the overall phase across repeated runs.

    Every search starts from a copy of `start`, by default a fresh
    _start_vector(N), so a result depends only on the operator and the
    shift; a caller that runs many searches of one size (_search) draws it
    once and passes it.  A shift that is not finite, or a start of another
    shape than (N,) or whose squared norm is not finite and positive, raises
    DomainError before any work.  A step allocates
    nothing of size N: the solve works in the iterate's storage, two
    buffers made once per search hold the unit iterate u the step starts
    from, op v and op v - lambda v, each 2-norm is sqrt(re.re + im.im), the
    sum np.linalg.norm forms, and the iterate is scaled by 1/norm as numpy's
    division by a real scales it.

    A step that cannot stop forms neither op v, lambda nor the residual.
    With w = (op - shift)^-1 u, norm = ||w|| and v = w / norm,
    (op - shift) v = u / norm, so ||op v - lambda v|| = sqrt(1 - |v^H u|^2)
    / norm exactly (Ipsen, SIAM Rev. 39, 254, 1997), and |lambda| <=
    |shift| + 1/norm.  Below the cap, a step whose gap 1 - |v^H u|^2
    exceeds 1e-8 and whose screen sqrt(gap) / norm exceeds four times the
    stopping rule at |shift| + 1/norm, plus 64 eps (||op||_inf + |shift|)
    for the banded LU's backward error (Higham, as above), goes straight to
    the next solve.  The iterates do not depend on lambda, so the results
    are the bits the plain matvec/norm/divide loop gives, which forms the
    residual at every step.
    """
    n = op.size
    if not cmath.isfinite(shift):
        raise DomainError(f"shift {shift} is not finite")
    if start is not None and np.shape(start) != (n,):
        raise DomainError(f"start vector of shape {np.shape(start)} for an operator of size {n}")
    if start is not None and not 0.0 < np.vdot(start, start).real < math.inf:  # NaN fails too
        raise DomainError("start vector with a zero or non-finite norm")
    # formed (and cached) before the LU and the buffers below hold memory:
    # at the first step's _residual_bound its temporaries would add to them
    op.norm_inf
    shift, solve = _shifted_solver(op, shift)
    margin = 64.0 * _EPS * (op.norm_inf + abs(shift))  # the banded LU's backward error
    v = np.array(_start_vector(n) if start is None else start, dtype=complex)  # a copy
    hv = np.empty(n, dtype=complex)  # op v, then op v - lambda v
    work = np.empty(n, dtype=complex)  # u, then off-diagonal products, then lambda v
    lam = complex(shift)
    residual = math.inf
    for iteration in range(1, INVERSE_ITERATION_CAP + 1):
        np.copyto(work, v)  # u, the unit iterate this step starts from
        v = solve(v)  # in place: the iterate's storage now holds (op - shift)^-1 u
        v_re, v_im = v.real, v.imag
        norm = math.sqrt(v_re.dot(v_re) + v_im.dot(v_im))
        if not math.isfinite(norm) or norm == 0.0:
            raise ConvergenceFailure("inverse iteration produced a degenerate vector")
        # v / norm as numpy divides by a real: both parts times 1 / norm (its
        # extra re*0 and im*0 terms can change only the sign of a zero part)
        parts = v.view(float)
        np.multiply(parts, 1.0 / norm, out=parts)
        if iteration < INVERSE_ITERATION_CAP:  # the screen: can this step stop?
            gap = 1.0 - abs(np.vdot(v, work)) ** 2
            bound = max(_residual_bound(abs(shift) + 1.0 / norm, op))
            if gap > 1e-8 and math.sqrt(gap) / norm > 4.0 * bound + margin:
                continue
        op._matvec_into(v, hv, work)
        lam = complex(np.vdot(v, hv))
        hv -= np.multiply(lam, v, out=work)
        residual = math.sqrt(hv.real.dot(hv.real) + hv.imag.dot(hv.imag))
        if residual <= max(_residual_bound(lam, op)):
            break
    else:
        tol, floor = _residual_bound(lam, op)
        raise ConvergenceFailure(
            f"inverse iteration did not converge in {INVERSE_ITERATION_CAP} steps "
            f"(final residual {residual:.1e}; tolerance {tol:.1e}, rounding floor {floor:.1e})",
            residual=residual,
            iterations=INVERSE_ITERATION_CAP,
        )

    del hv, work  # released before |v| is formed
    mags = np.abs(v)
    significant = int(np.argmax(mags >= 1e-6 * mags.max()))
    v *= np.conj(v[significant]) / mags[significant]
    return TargetedResult(
        eigenvalue=lam, eigenvector=v, iterations=iteration, residual=residual
    )


def eigenvector_asymptotics(eigenvector: np.ndarray, grid: GridSpec) -> dict:
    """Exponential decay rates fitted on the outer quarters of the grid.

    Least squares on log|psi| against the path parameter s of the nodes,
    separately for each tail.  Nodes in the outermost tenth of each window
    are dropped (the Dirichlet end bends the tail there), as are underflowed
    magnitudes.  For a bound state of energy -kappa^2 both rates approach
    kappa while the tail stays above rounding level.  The bound-state search
    does not call it: it judges a tail by its end magnitude (_verdict).
    """
    v = np.asarray(eigenvector)
    if v.size != grid.N:
        raise DomainError("eigenvector length does not match the grid")
    s, _ = grid.on_path(grid.nodes())
    mag = np.abs(v)
    window = grid.N // 4
    trim = window // 10

    def _fit(idx: np.ndarray) -> float:
        m = mag[idx]
        keep = m > 1e-280
        if keep.sum() < 3:
            raise DomainError("tail magnitudes underflow")
        slope = np.polyfit(s[idx][keep], np.log(m[keep]), 1)[0]
        return float(slope)

    left = np.arange(trim, window)
    right = np.arange(grid.N - window, grid.N - trim)
    return {"left_rate": _fit(left), "right_rate": -_fit(right)}


class LevelResult(NamedTuple):
    """The search for one seeded level: what it found and, unless matched, why not.

    eigenvalue is None when the search did not converge; residual |lambda - E|
    is set only on a match; tail, the larger of the eigenvector's two end
    magnitudes over its peak magnitude, once the eigenvalue is in tolerance.
    """

    level: Level
    eigenvalue: Optional[complex]
    reason: Optional[str]
    residual: Optional[float] = None
    iterations: Optional[int] = None
    tail: Optional[float] = None

    @property
    def matched(self) -> bool:
        return self.reason is None


class TwoGridConvergence(NamedTuple):
    error_ratios: dict
    order_estimate: Optional[float]
    fine: SpectrumResult


class SpectrumResult(NamedTuple):
    """One LevelResult per seeded level, in closed-form table order, and their grid."""

    levels: list
    grid: GridSpec
    convergence: Optional[TwoGridConvergence] = None

    @property
    def matched(self) -> list:
        return [r for r in self.levels if r.matched]

    @property
    def unmatched(self) -> list:
        return [r for r in self.levels if not r.matched]


def auto_box(Z: float, L: float, n_max: int) -> float:
    """Half-width S that seeds every negative-mass level up to n_max; SingularL at integer L.

    The largest of MIN_AUTO_BOX and MIN_DECAY_LENGTHS / kappa over the levels.
    A search whose reach g(T) (aligned_grid) falls below S is refused
    (find_bound_states), so the seeding rule in _seeds admits each of them.
    """
    table = analytic.spectrum_table(Z, L, n_max, mass_sign=-1)
    return max([MIN_AUTO_BOX] + [MIN_DECAY_LENGTHS / lv.kappa for lv in table if lv.kappa > 0])


def _seeds(problem: BoundStateProblem, grid: GridSpec, n_max: int) -> list:
    """(level, host potential) pairs to search, in closed-form table order.

    A Coulomb-Kratzer level is seeded only when the grid's reach is at least
    MIN_DECAY_LENGTHS / kappa, and is hosted by the coupling sign under which
    it decays (_host_coupling).  The oscillator benchmark is exactly
    oscillator_problem(), its one definition; its n_max + 1 seeds are held
    to analytic.MAX_ROWS, as the Coulomb-Kratzer table is (spectrum_table).
    """
    p, L = problem.potential, problem.L
    if problem == oscillator_problem():
        analytic.check_table(n_max + 1, "n_max = {}", n_max)  # one seed per level
        return [
            (Level(n=n, sigma=1, energy=float(2 * n + 1), kappa=math.sqrt(2 * n + 1)), p)
            for n in range(n_max + 1)
        ]
    if not (
        isinstance(p, CoulombKratzer)
        and isinstance(problem.contour, UShaped)
        and problem.mass_sign == -1
    ):
        raise GeometryError(
            "bound-state search supports the negative-mass Coulomb-Kratzer model "
            "on the U path and the oscillator benchmark only"
        )
    return [
        (lv, CoulombKratzer(Z=_host_coupling(p.Z, L, lv)))
        for lv in analytic.spectrum_table(p.Z, L, n_max, mass_sign=-1)
        if lv.kappa > 0 and MIN_DECAY_LENGTHS / lv.kappa <= grid.reach
    ]


def _host_coupling(Z: float, L: float, lv: Level) -> float:
    """Coupling sign under which the level's eigenfunction decays on the U path.

    The two coupling signs are spectrally equivalent (energies go as Z^2) and
    describe the same model, but the terminating eigenfunction of level
    (n, sigma) decays along the upward asymptotes only when
    Z * sigma * (2L+1+sigma(2n+1)) > 0; the search targets each level in its
    hosting convention.
    """
    return Z if lv.sigma * analytic._ratio(Z, 2.0 * L + 1.0, lv.n, lv.sigma) > 0 else -Z


def _verdict(lv: Level, res: TargetedResult, grid: GridSpec) -> LevelResult:
    """Match a converged search to its seed: the tolerance first, then the end check.

    The end check rejects an eigenvector whose magnitude at either Dirichlet
    end exceeds CONTINUUM_END_FRACTION of its peak: a state that has not
    decayed by the ends of the grid is a box mode of the continuum.  On the
    stretched seed-1 validate-sweep grids every in-tolerance bound state
    ends at or below 7.3e-3 of its peak, while a plane wave ends near 1 and
    the box modes sin(k(s + g(T))) at (15, 4000) end at 0.16 to 0.81 for
    k = 1 to 0.05.  Decay rates fitted to the tail (eigenvector_asymptotics)
    cannot judge this: a deep level's tail falls to a rounding plateau long
    before the ends, and the rate fitted on the plateau reads near 0.  The
    oscillator's levels, judged the same way, end at rounding level.
    """
    found = {"level": lv, "eigenvalue": res.eigenvalue, "iterations": res.iterations}
    delta = abs(res.eigenvalue - lv.energy)
    tol = max(MATCH_ABS_TOL, 5.0 * grid.h * grid.h * abs(lv.energy))
    if delta > tol:
        return LevelResult(**found, reason=f"nearest eigenvalue off by {delta:.3e} (> {tol:.3e})")
    v = res.eigenvector
    tail = float(max(abs(v[0]), abs(v[-1])) / np.abs(v).max())
    if tail > CONTINUUM_END_FRACTION:
        return LevelResult(
            **found, tail=tail,
            reason=f"eigenvector end at {tail:.2e} of its peak (continuum artifact)",
        )
    return LevelResult(**found, tail=tail, reason=None, residual=delta)


def _search(problem: BoundStateProblem, grid: GridSpec, n_max: int) -> list:
    """One LevelResult per seed on one grid, in closed-form table order.

    The path geometry is formed once (_geometry), every coupling-sign host
    is assembled from it (_assemble) before the first search, and the tuple
    is dropped before any LU holds memory: all that the hosts keep of it is
    its read-only off-diagonal bands.  The start vector is drawn once, and
    every seed's search starts from that read-only array.  A seed's search
    depends only on its host and its shift, so the results are those of one
    discretize and one targeted_eigenvalue(op, shift) per seed.
    """
    seeds = _seeds(problem, grid, n_max)
    if not seeds:
        return []
    geometry = _geometry(problem.contour, problem.mass_sign, grid)
    ops = {
        host: _assemble(geometry, host, problem.L, problem.mass_sign)
        for host in dict.fromkeys(host for _, host in seeds)
    }
    del geometry  # the path and kinetic diagonal, before any LU holds memory
    start = _start_vector(grid.N)
    return [_search_level(ops[host], lv, grid, start) for lv, host in seeds]


def _search_level(
    op: DiscretizedOperator, lv: Level, grid: GridSpec, start: np.ndarray
) -> LevelResult:
    """Target one seed on its host operator from `start` and judge the search (_verdict).

    A function of its own, so that a search's eigenvector is released before
    the next seed's search starts.
    """
    try:
        res = targeted_eigenvalue(op, lv.energy, start)
    except ConvergenceFailure as exc:
        return LevelResult(lv, None, f"no convergence: {exc}", iterations=exc.iterations)
    return _verdict(lv, res, grid)


def find_bound_states(
    problem: BoundStateProblem,
    grid: GridSpec,
    n_max: int,
    two_grid: bool = False,
) -> SpectrumResult:
    """Seed shift-invert searches at the closed-form level energies.

    Returns one LevelResult per seeded level, in closed-form table order, and
    the grid they were computed on.  A Coulomb-Kratzer search given a plain
    grid runs on aligned_grid(contour, grid), whose ends reach far past S
    unless epsilon puts the arc junction within a few steps of the origin:
    a reach g(T) below S raises GeometryError.  A stretched grid is used as
    given, as is the oscillator's grid.  Levels
    whose decay length 1/kappa exceeds a third of the reach are not seeded
    (the Dirichlet truncation error would dominate them).  Each level is
    targeted in the coupling-sign convention that hosts its decaying
    eigenfunction (see _host_coupling).  A search that hits the iteration
    cap (see targeted_eigenvalue) gets the reason "no convergence: ...".  A
    numeric eigenvalue matches its seed when |delta| <= max(1e-3, 5 h^2 |E|),
    h the step in t, unless its eigenvector has not decayed by the ends of
    the grid (see _verdict: a continuum artifact).  With two_grid=True the
    run is repeated on grid.refined(), which halves h and keeps every node
    (a refined N past GRID_CEILING is refused before the coarse run), and
    that run, the per-level error ratios |delta| coarse / fine, and
    order_estimate, the median of log2 over the positive ratios, are
    attached.  order_estimate is an order of convergence only where every
    level's error shrinks as a power of h; it is not a Richardson estimate.
    """
    check_count("n_max", n_max, 0)
    if isinstance(problem.contour, UShaped) and not grid.stretched:
        aligned = aligned_grid(problem.contour, grid)
        if aligned.reach < grid.S:
            raise GeometryError(
                f"epsilon = {problem.contour.epsilon}: the aligned grid for S = {grid.S}, "
                f"N = {grid.N} has T = {aligned.S:.4g} and reach g(T) = "
                f"{aligned.reach:.4g} < S; raise N or epsilon"
            )
        grid = aligned
    fine_grid = grid.refined() if two_grid else None
    levels = _search(problem, grid, n_max)
    if fine_grid is None:
        return SpectrumResult(levels=levels, grid=grid)

    # the same S and path map seed the same levels in the same order
    fine = find_bound_states(problem, fine_grid, n_max)
    ratios = {}
    orders = []
    for coarse, other in zip(levels, fine.levels, strict=True):
        if not (coarse.matched and other.matched) or other.residual == 0.0:
            continue
        ratio = coarse.residual / other.residual
        ratios[(coarse.level.n, coarse.level.sigma)] = ratio
        if ratio > 0:
            orders.append(math.log2(ratio))
    convergence = TwoGridConvergence(
        error_ratios=ratios,
        order_estimate=float(np.median(orders)) if orders else None,
        fine=fine,
    )
    return SpectrumResult(levels=levels, grid=grid, convergence=convergence)


def _spectral_edge(op: DiscretizedOperator) -> complex:
    """Eigenvalue of least real part, by shift-invert Arnoldi at the Gershgorin bound.

    Every eigenvalue has Re >= -||op||_inf (Gershgorin), so the eigenvalues
    nearest that real shift sit at the left edge of the spectrum.  They give
    the eigenvalues of largest magnitude of (op + ||op||_inf I)^-1, which one
    banded LU applies in O(N) per step.  ARPACK's implicitly restarted Arnoldi (Lehoucq, Sorensen &
    Yang, ARPACK Users' Guide, 1998) computes the EDGE_BLOCK = 4 nearest, and
    the edge is the one of least real part: distance from a real shift also
    counts |Im lambda|, and the leftmost eigenvalues of a PT-symmetric
    operator come in conjugate pairs, so four hold the two leftmost pairs.
    A Krylov space and not block inverse iteration, because the edge is a
    band edge: its eigenvalues lie ~1/S^2 apart while the shift can sit O(1)
    to their left, where inverse iteration separates them at a rate near 1
    and runs into its cap.  Arnoldi starts from targeted_eigenvalue's start
    vector (_start_vector), which ARPACK copies.  The Ritz pair of least real
    part is accepted when its residual meets targeted_eigenvalue's rule
    (_residual_bound).  The one caller in ptspec that imports a scipy
    package: scipy.sparse.linalg, for ARPACK, which loads scipy.linalg too.
    """
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigs  # deferred

    n = op.size
    shift, solve = _shifted_solver(op, -op.norm_inf)
    # ARPACK hands matvec a view of its workspace, which solve must not overwrite
    inverse = LinearOperator((n, n), matvec=lambda x: solve(x.copy()), dtype=complex)
    try:
        mu, vectors = eigs(
            inverse, k=EDGE_BLOCK, v0=_start_vector(n), maxiter=INVERSE_ITERATION_CAP
        )
    except ArpackNoConvergence as exc:
        raise ConvergenceFailure(
            f"Arnoldi iteration did not converge in {INVERSE_ITERATION_CAP} restarts",
            iterations=INVERSE_ITERATION_CAP,
        ) from exc
    lams = shift + 1.0 / mu
    k = int(np.argmin(lams.real))
    lam = complex(lams[k])
    v = vectors[:, k] / np.linalg.norm(vectors[:, k])
    residual = float(np.linalg.norm(op.matvec(v) - lam * v))
    bound = max(_residual_bound(lam, op))
    if residual > bound:
        raise ConvergenceFailure(
            f"spectral edge residual {residual:.1e} above {bound:.1e}",
            residual=residual,
        )
    return lam


def positive_mass_instability_probe(
    Z: float = 1.0,
    L: float = 0.3,
    epsilon: float = 1.0,
    grids: tuple = ((15.0, 499), (30.0, 999)),
) -> list:
    """Spectral edge min Re(lambda) of the positive-mass model on growing domains.

    The edge is found in O(N) by shift-invert Arnoldi from the Gershgorin
    bound -||H||_inf (see _spectral_edge), not from a dense spectrum, so any
    grid size runs.  The two default grids share the same step h, so the
    downward drift of the minimum real part with S exposes the missing lower
    bound without a resolution confound.  Returns one record per grid.
    """
    out = []
    for S, N in grids:
        grid = GridSpec(S, N)
        op = discretize(UShaped(epsilon), CoulombKratzer(Z), L, 1, grid)
        edge = _spectral_edge(op)
        out.append({"S": grid.S, "N": grid.N, "min_real": edge.real})
    return out
