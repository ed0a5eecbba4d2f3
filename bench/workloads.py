"""Seeded workloads for the ptspec benchmark: inputs, the timed call, output checks.

Every workload is a closed loop with one caller in one process: the next
operation is sent only after the previous one returned.  A run replays a fixed
list of inputs (one "pass"), generated from the seed, as many whole times as
fit in the measuring time, so per-pass counts repeat exactly for one seed.

An operation is one CLI invocation (``cli-cold``), one ``find_bound_states``
call (``validate-sweep``, ``refine-ladder``) or one dense-spectrum call
(``dense-probe``).  Its output is checked outside the timed region against
values the benchmark computes itself from the closed forms in the README:

    E(n, sigma) = -(Z / (2L + 1 + sigma (2n + 1)))^2   (negative bare mass)
    E_n = 2n + 1                                       (oscillator, x^2 well)

The checks accept any level the program matches within its documented
tolerance and never require a level to stay unmatched, so a later change that
fixes a level does not trip them.

Each workload also has a reference unit: a fixed piece of work of the same
kind as its operations (a cold interpreter, banded inverse iteration, dense
QR) that does not call ptspec.  The runner times it between operations, so a
rate per reference unit measures ptspec's cost on the host's speed of the
moment; see README.md.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
import subprocess
import sys
from contextlib import redirect_stdout
from dataclasses import dataclass, field

NMAX = 2  # find_bound_states(nmax=2), the README's numeric default
MATCH_ABS_TOL = 1e-3  # README: matched at |delta| <= max(1e-3, 5 h^2 |E|)
OSC_TOL = 1e-3  # A3: lowest oscillator levels within 1e-3 of 2n+1
MIN_DECAY_LENGTHS = 3.0  # a level is seeded when 3/kappa <= S (--S auto: max(15, 3/kappa_min))
CLI_TIMEOUT_S = 120


class CheckFailed(Exception):
    """The program returned, but its output is wrong or malformed."""


@dataclass(frozen=True)
class Outcome:
    """What one checked operation contributed: seeded levels and matches."""

    seeded: int = 0
    matched: int = 0
    bytes_out: int = 0


def closed_form(Z: float, L: float, n: int, sigma: int) -> float:
    """Negative-mass Coulomb-Kratzer level, computed independently of ptspec."""
    den = 2.0 * L + 1.0 + sigma * (2 * n + 1)
    return -((Z / den) ** 2)


def match_tol(h: float, energy: float) -> float:
    return max(MATCH_ABS_TOL, 5.0 * h * h * abs(energy))


def _stratified(rng: random.Random, lo: float, hi: float, k: int) -> list:
    """One uniform draw from each of k equal strata of [lo, hi)."""
    width = (hi - lo) / k
    return [lo + (i + rng.random()) * width for i in range(k)]


def _non_integer(L: float) -> bool:
    # ptspec rejects integer L for the Coulomb-Kratzer model (INTEGER_L_TOL)
    return abs(L - round(L)) >= 1e-9


def check_levels(result, Z: float, L: float, nmax: int, S: float, h: float) -> Outcome:
    """Matched levels within tolerance of the closed form; no level reported twice.

    Every level whose decay length 1/kappa fits MIN_DECAY_LENGTHS times into
    the box half-width S must be seeded (the solver's documented rule), so a
    change cannot raise matched_frac by seeding fewer levels; seeding more is
    allowed.
    """
    expected = {
        (n, s): closed_form(Z, L, n, s) for n in range(nmax + 1) for s in (1, -1)
    }
    seen = set()
    for entry in list(result.matched) + list(result.unmatched):
        key = (entry.level.n, entry.level.sigma)
        if key not in expected or key in seen:
            raise CheckFailed(f"unexpected or repeated level {key}")
        seen.add(key)
        if not math.isclose(entry.level.energy, expected[key], rel_tol=1e-9):
            raise CheckFailed(
                f"level {key} seeded at {entry.level.energy!r}, closed form {expected[key]!r}"
            )
    required = {
        key for key, E in expected.items()
        if MIN_DECAY_LENGTHS / math.sqrt(-E) <= S * (1.0 - 1e-9)
    }
    if not required <= seen:
        raise CheckFailed(f"levels {sorted(required - seen)} inside the box were not seeded")
    for m in result.matched:
        E = expected[(m.level.n, m.level.sigma)]
        delta = abs(complex(m.eigenvalue) - E)
        if not delta <= match_tol(h, E):
            raise CheckFailed(
                f"matched level ({m.level.n},{m.level.sigma}) off by {delta:.3e} "
                f"(tolerance {match_tol(h, E):.3e})"
            )
    return Outcome(seeded=len(seen), matched=len(result.matched))


def _reference_tridiagonal(n: int):
    """A fixed, well-conditioned complex tridiagonal matrix: diagonal and off-diagonal."""
    import numpy as np

    return 2.0 + 0.5j + np.linspace(0.0, 1.0, n), np.full(n - 1, -1.0 + 0.3j)


def check_oscillator_values(lowest) -> Outcome:
    for n, value in enumerate(lowest):
        if not abs(complex(value) - (2 * n + 1)) <= OSC_TOL:
            raise CheckFailed(f"oscillator level {n} = {value!r}, expected {2 * n + 1}")
    return Outcome(seeded=len(lowest), matched=len(lowest))


# --------------------------------------------------------------------------
# in-process solver workloads


@dataclass(frozen=True)
class SolveInput:
    Z: float
    L: float
    S: float
    N: int
    two_grid: bool

    @property
    def h(self) -> float:
        return 2.0 * self.S / (self.N + 1)


class _SolveWorkload:
    in_process = True
    # reference unit: inverse iteration at the workload's grid sizes, ~40 ms
    REF_N, REF_STEPS = 8000, 100

    def setup(self, seed: int):
        import ptspec.solver  # noqa: F401  (the import is part of set-up)

        inputs = self.inputs(seed)
        return State(inputs=inputs, warmup=inputs[0])

    def call(self, state, item: SolveInput):
        # module attributes are looked up per call, so the traced run's
        # wrappers (installed on these modules) see every call
        from ptspec import contour, model, solver

        problem = solver.BoundStateProblem(
            contour=contour.UShaped(1.0),
            potential=model.CoulombKratzer(item.Z),
            L=item.L,
            mass_sign=-1,
        )
        grid = solver.GridSpec(S=item.S, N=item.N)
        return solver.find_bound_states(problem, grid, NMAX, two_grid=item.two_grid)

    def reference(self, state):
        """Shift-invert inverse iteration as the solver does it, on a fixed matrix."""
        import numpy as np
        import scipy.linalg

        d, off = _reference_tridiagonal(self.REF_N)
        ab = np.zeros((4, self.REF_N), dtype=complex)
        ab[1, 1:], ab[2], ab[3, :-1] = off, d - 0.1, off
        gbtrf, gbtrs = scipy.linalg.get_lapack_funcs(("gbtrf", "gbtrs"), (ab,))
        lu, piv, _ = gbtrf(ab, 1, 1)
        v = np.ones(self.REF_N, dtype=complex)
        for _ in range(self.REF_STEPS):
            w = gbtrs(lu, 1, 1, v.reshape(-1, 1), piv)[0][:, 0]
            v = w / np.linalg.norm(w)
            hv = d * v
            hv[1:] += off * v[:-1]
            hv[:-1] += off * v[1:]
            np.vdot(v, hv)

    def check(self, state, item: SolveInput, result) -> Outcome:
        if item.two_grid and result.convergence is None:
            raise CheckFailed("two_grid run returned no convergence record")
        return check_levels(result, item.Z, item.L, NMAX, item.S, item.h)


class ValidateSweep(_SolveWorkload):
    """find_bound_states(nmax=2) along the figure 3 sweep at the acceptance grids.

    The couplings are the ones figure 3 plots, checked numerically: Z = 1
    (the README's default and the paper's reference coupling) and 2L+1
    stratified over the README's figure3 sweep range [0.05, 6], that is
    L in [-0.475, 2.5).  Integer L, the sweep's gap records, is excluded by
    contract.  The grids (S=15, N=4000) and (S=30, N=8000) are the acceptance
    grids; at the acceptance coupling Z=1, L=0.3 they match 6 of 11 seeded
    levels, and this sweep matches about the same share.
    """

    name = "validate-sweep"
    COUPLINGS = 64
    GRIDS = ((15.0, 4000), (30.0, 8000))
    Z = 1.0
    TWO_L_PLUS_1 = (0.05, 6.0)  # README: figure3 --grid-min 0.05 --grid-max 6

    def inputs(self, seed: int) -> list:
        rng = random.Random(seed)
        items = []
        for t in _stratified(rng, *self.TWO_L_PLUS_1, self.COUPLINGS):
            L = (t - 1.0) / 2.0
            if not _non_integer(L):  # measure-zero; shift off the excluded value
                L += 1e-6
            items.extend(SolveInput(self.Z, L, S, N, False) for S, N in self.GRIDS)
        return items


class RefineLadder(_SolveWorkload):
    """The --order path (two_grid=True) down an h ladder at S=30, fine grid to N=45255.

    The coupling is the paper's reference case Z=1, L=0.3 (acceptance A1/A4)
    for every seed.  Past N~16000 the cost of a call is set by how many seeds
    stall at the 200-step iteration cap, and that flips between neighbouring
    couplings on rounding-level residuals, so a seeded coupling would make
    the run-to-run spread a property of the seed rather than of the program.
    Coupling variety is validate-sweep's job; the seed only orders the rungs.
    """

    name = "refine-ladder"
    Z, L, S = 1.0, 0.3, 30.0
    RUNGS = (8000, 16000, 22627)  # h halves, then shrinks by sqrt(2)
    REF_N, REF_STEPS = 32000, 25  # the fine grids reach N = 45255

    def inputs(self, seed: int) -> list:
        rungs = list(self.RUNGS)
        random.Random(seed).shuffle(rungs)
        return [SolveInput(self.Z, self.L, self.S, N, True) for N in rungs]

    def setup(self, seed: int):
        state = super().setup(seed)
        state.warmup = min(state.inputs, key=lambda item: item.N)
        return state


# --------------------------------------------------------------------------
# dense spectra


@dataclass(frozen=True)
class DenseInput:
    kind: str  # "probe", "a5" or "oscillator"
    N: int = 0
    Z: float = 1.0
    L: float = 0.3
    epsilon: float = 1.0


class DenseProbe:
    """The positive-mass instability probe plus the A5 and A3 dense spectra."""

    name = "dense-probe"
    in_process = True
    A5_S = 15.0
    A5_SIZES = (127, 199)
    OSC_S, OSC_N, OSC_LEVELS = 10.0, 2000, 5
    REF_N = 700  # reference dense QR, ~1 s; the probe's largest matrix has N = 999

    def inputs(self, seed: int) -> list:
        # dense QR cost does not depend on the entries, so the seed moves the
        # model parameters a little around the acceptance values
        rng = random.Random(seed)
        Z, L, eps = rng.uniform(0.9, 1.1), rng.uniform(0.25, 0.35), rng.uniform(0.9, 1.1)
        return [
            DenseInput("probe", Z=Z, L=L, epsilon=eps),
            *(DenseInput("a5", N=N, Z=Z, L=L, epsilon=eps) for N in self.A5_SIZES),
            DenseInput("oscillator", N=self.OSC_N),
        ]

    def setup(self, seed: int):
        import ptspec.solver  # noqa: F401

        inputs = self.inputs(seed)
        return State(inputs=inputs, warmup=inputs[1])

    def call(self, state, item: DenseInput):
        from ptspec import contour, model, solver

        if item.kind == "probe":
            return solver.positive_mass_instability_probe(
                Z=item.Z, L=item.L, epsilon=item.epsilon
            )
        if item.kind == "a5":
            op = solver.discretize(
                contour.UShaped(item.epsilon),
                model.CoulombKratzer(item.Z),
                item.L,
                -1,
                solver.GridSpec(self.A5_S, item.N),
            )
        else:
            osc = solver.oscillator_problem()
            op = solver.discretize(
                osc.contour, osc.potential, osc.L, osc.mass_sign,
                solver.GridSpec(self.OSC_S, item.N),
            )
        return solver.full_spectrum(op)

    def reference(self, state):
        """Dense QR of a fixed complex tridiagonal matrix, as full_spectrum does it."""
        import numpy as np
        import scipy.linalg

        d, off = _reference_tridiagonal(self.REF_N)
        scipy.linalg.eigvals(np.diag(d) + np.diag(off, 1) + np.diag(off.conj(), -1))

    def check(self, state, item: DenseInput, output) -> Outcome:
        if item.kind == "probe":
            mins = [rec["min_real"] for rec in output]
            if len(mins) != 2 or not all(math.isfinite(m) for m in mins):
                raise CheckFailed(f"probe returned {output!r}")
            if not mins[1] < mins[0]:
                raise CheckFailed(f"probe min Re did not fall as S doubled: {mins}")
            return Outcome()
        if len(output) != item.N or not all(map(math.isfinite, output.real)):
            raise CheckFailed(f"dense spectrum of size {len(output)}, expected {item.N}")
        if item.kind == "a5":
            return Outcome()
        # the only levels of this workload, and each must match: matched_frac
        # reads 1.0 here by construction and is not a measure of this workload
        return check_oscillator_values(list(output[: self.OSC_LEVELS]))


# --------------------------------------------------------------------------
# cold CLI


@dataclass(frozen=True)
class CliInput:
    command: str  # metric-safe command name, e.g. "spectrum_numeric_order"
    schema: str  # README artifact schema the output must follow
    argv: tuple
    Z: float = 1.0
    L: float = 0.3
    nmax: int = 4


class CliCold:
    """Each README command in a fresh interpreter: python -m ptspec.cli ..."""

    name = "cli-cold"
    in_process = False
    NUMERIC_N, NUMERIC_NMAX, OSC_NMAX = 4000, 2, 4
    CONTOUR_N, CONTOUR_SMIN, CONTOUR_SMAX = 400, -10.0, 10.0
    FIG3_MIN, FIG3_MAX, FIG3_N, FIG3_NMAX = 0.05, 6.0, 400, 4

    def inputs(self, seed: int) -> list:
        # Z and L near the README's Z=1, L=0.3, where `spectrum numeric` leaves
        # 3 of 6 levels unmatched for every draw: a wider range would make
        # matched_frac a property of the seed, and the call cost is import-bound.
        # The seed draws nmax for the analytic table only, so every pass seeds
        # the same 12 Coulomb-Kratzer levels.
        rng = random.Random(seed)
        Z = float(f"{rng.uniform(0.9, 1.1):.4f}")  # four decimals, as typed
        L = float(f"{rng.uniform(0.25, 0.35):.4f}")
        nmax = rng.choice((3, 4, 5))
        z, l, n = f"{Z}", f"{L}", f"{nmax}"
        nn, no = f"{self.NUMERIC_NMAX}", f"{self.OSC_NMAX}"
        numeric = ("spectrum", "numeric", "--Z", z, "--L", l, "--epsilon", "1",
                   "--S", "auto", "--N", f"{self.NUMERIC_N}", "--nmax", nn)
        return [
            CliInput("contour_sample", "contour_sample",
                     ("contour", "sample", "--kind", "ushaped", "--epsilon", "1",
                      "--smin", "-10", "--smax", "10", "--n", "400")),
            CliInput("spectrum_analytic", "spectrum_analytic",
                     ("spectrum", "analytic", "--Z", z, "--L", l, "--nmax", n,
                      "--mass", "neg", "--format", "csv"), Z, L, nmax),
            CliInput("spectrum_numeric", "spectrum_numeric", numeric, Z, L, self.NUMERIC_NMAX),
            CliInput("figure3", "figure3",
                     ("figure3", "--Z", z, "--grid-min", "0.05", "--grid-max", "6",
                      "--grid-n", "400"), Z, L, self.FIG3_NMAX),
            CliInput("stability", "stability",
                     ("stability", "--mass-sign", "neg", "--contour", "ushaped")),
            CliInput("solve_oscillator", "solve_oscillator",
                     ("solve", "oscillator", "--nmax", no), nmax=self.OSC_NMAX),
            CliInput("spectrum_numeric_order", "spectrum_numeric", numeric + ("--order",),
                     Z, L, self.NUMERIC_NMAX),
            CliInput("solve_oscillator_order", "solve_oscillator",
                     ("solve", "oscillator", "--nmax", no, "--order"), nmax=self.OSC_NMAX),
        ]

    def setup(self, seed: int):
        inputs = self.inputs(seed)
        return State(inputs=inputs, warmup=inputs[0])

    def call(self, state, item: CliInput) -> bytes:
        proc = subprocess.run(
            [sys.executable, "-m", "ptspec.cli", *item.argv],
            capture_output=True,
            timeout=CLI_TIMEOUT_S,
        )
        if proc.returncode != 0:
            err = proc.stderr.decode(errors="replace").strip()[-300:]
            raise RuntimeError(f"exit status {proc.returncode}: {err}")
        return proc.stdout

    def reference(self, state):
        """A cold interpreter that imports what ptspec imports, and runs nothing."""
        subprocess.run([sys.executable, "-c", "import numpy, scipy.linalg"],
                       capture_output=True, timeout=CLI_TIMEOUT_S, check=True)

    def call_in_process(self, state, item: CliInput) -> bytes:
        """The same command through ptspec.cli.main, for the traced run."""
        import ptspec.cli

        buf = io.StringIO()
        with redirect_stdout(buf):
            code = ptspec.cli.main(list(item.argv))
        if code != 0:
            raise RuntimeError(f"exit status {code}")
        return buf.getvalue().encode()

    def check(self, state, item: CliInput, output: bytes) -> Outcome:
        first = state.first_output.setdefault(item.argv, output)
        if output != first:
            raise CheckFailed(f"{item.command}: output differs from the first run")
        try:
            text = output.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CheckFailed(f"{item.command}: not UTF-8") from exc
        outcome = getattr(self, "_check_" + item.schema)(item, text)
        return Outcome(outcome.seeded, outcome.matched, bytes_out=len(output))

    # one checker per README artifact schema -------------------------------

    @staticmethod
    def _csv_rows(text: str, header: str) -> list:
        lines = text.split("\n")
        if lines[0] != header or lines[-1] != "":
            raise CheckFailed(f"CSV header {lines[0]!r}, expected {header!r}")
        width = header.count(",") + 1
        rows = list(csv.reader(lines[1:-1]))
        if any(len(r) != width for r in rows):
            raise CheckFailed(f"CSV row without {width} fields under {header!r}")
        return rows

    @staticmethod
    def _json(text: str, keys: tuple) -> dict:
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CheckFailed(f"artifact is not JSON: {exc}") from exc
        if not isinstance(obj, dict) or any(k not in obj for k in keys):
            raise CheckFailed(f"JSON artifact lacks one of {keys}")
        return obj

    def _check_contour_sample(self, item, text) -> Outcome:
        rows = [[float(v) for v in r] for r in self._csv_rows(text, "s,re_x,im_x,re_dx,im_dx")]
        if len(rows) != self.CONTOUR_N:
            raise CheckFailed(f"contour sample has {len(rows)} rows")
        if rows[0][0] != self.CONTOUR_SMIN or rows[-1][0] != self.CONTOUR_SMAX:
            raise CheckFailed("contour sample does not span [smin, smax]")
        for a, b in zip(rows, reversed(rows)):  # PT: x(-s) = -conj(x(s))
            if abs(a[1] + b[1]) > 1e-9 or abs(a[2] - b[2]) > 1e-9:
                raise CheckFailed(f"contour sample breaks x(-s) = -x*(s) at s={a[0]}")
        return Outcome()

    def _check_spectrum_analytic(self, item, text) -> Outcome:
        rows = self._csv_rows(text, "n,sigma,energy,kappa")
        if len(rows) != 2 * (item.nmax + 1):
            raise CheckFailed(f"analytic table has {len(rows)} rows")
        energies = []
        for n, sigma, energy, kappa in rows:
            E = closed_form(item.Z, item.L, int(n), int(sigma))
            if not (math.isclose(float(energy), E, rel_tol=1e-12)
                    and math.isclose(float(kappa), math.sqrt(-E), rel_tol=1e-12)):
                raise CheckFailed(f"analytic level ({n},{sigma}) = {energy}, expected {E!r}")
            energies.append(float(energy))
        if energies != sorted(energies):
            raise CheckFailed("analytic table not sorted by energy")
        return Outcome()

    def _levels_json(self, item, text) -> tuple:
        obj = self._json(text, ("levels", "order_estimate"))
        order = obj["order_estimate"]
        wants_order = "--order" in item.argv
        if not wants_order and order is not None:
            raise CheckFailed("order_estimate set without --order")
        if order is not None and not isinstance(order, (int, float)):
            raise CheckFailed(f"order_estimate {order!r} is not a number")
        keys = ("n", "sigma", "analytic", "numeric_re", "numeric_im", "residual", "matched")
        levels = obj["levels"]
        if not isinstance(levels, list) or any(
            not isinstance(r, dict) or any(k not in r for k in keys) for r in levels
        ):
            raise CheckFailed("level rows do not follow the README schema")
        return levels

    def _check_spectrum_numeric(self, item, text) -> Outcome:
        levels = self._levels_json(item, text)
        expected = {
            (n, s): closed_form(item.Z, item.L, n, s)
            for n in range(item.nmax + 1) for s in (1, -1)
        }
        # README: --S auto picks max(15, 3/kappa_min) over the requested levels,
        # so every requested level is seeded and has a row
        S = max(15.0, MIN_DECAY_LENGTHS / min(math.sqrt(-E) for E in expected.values()))
        h = 2.0 * S / (self.NUMERIC_N + 1)
        seen, matched = set(), 0
        for r in levels:
            key = (r["n"], r["sigma"])
            if key not in expected or key in seen:
                raise CheckFailed(f"unexpected or repeated level {key}")
            seen.add(key)
            E = expected[key]
            if not math.isclose(r["analytic"], E, rel_tol=1e-9):
                raise CheckFailed(f"level {key} analytic {r['analytic']!r}, expected {E!r}")
            if r["matched"]:
                delta = abs(complex(r["numeric_re"], r["numeric_im"]) - E)
                if not delta <= match_tol(h, E):
                    raise CheckFailed(f"matched level {key} off by {delta:.3e}")
                matched += 1
        if seen != set(expected):
            raise CheckFailed(f"levels {sorted(set(expected) - seen)} have no row")
        return Outcome(seeded=len(seen), matched=matched)

    def _check_solve_oscillator(self, item, text) -> Outcome:
        levels = self._levels_json(item, text)
        if sorted(r["n"] for r in levels) != list(range(item.nmax + 1)):
            raise CheckFailed("oscillator levels do not cover n = 0..nmax")
        values = {}
        for r in levels:
            if r["numeric_re"] is None:
                raise CheckFailed(f"oscillator level {r['n']} has no numeric value")
            values[r["n"]] = complex(r["numeric_re"], r["numeric_im"])
        check_oscillator_values([values[n] for n in sorted(values)])
        # every oscillator level must match, so counting them would only add a
        # constant to cli-cold's matched_frac: it counts Coulomb-Kratzer levels
        return Outcome()

    def _check_figure3(self, item, text) -> Outcome:
        rows = self._csv_rows(text, "two_L_plus_1,n,sigma,minus_kappa")
        ts = set()
        for t, n, sigma, minus_kappa in rows:
            t, n, sigma = float(t), int(n), int(sigma)
            ts.add(t)
            den = t + sigma * (2 * n + 1)
            if abs(den) < 1e-9:
                if minus_kappa != "":
                    raise CheckFailed(f"figure3 lacks the gap record at 2L+1={t}")
            elif minus_kappa == "" or not math.isclose(
                float(minus_kappa), -abs(item.Z / den), rel_tol=1e-9
            ):
                raise CheckFailed(f"figure3 value at 2L+1={t}, ({n},{sigma}) is {minus_kappa!r}")
        odd = {float(t) for t in range(1, int(self.FIG3_MAX) + 1, 2) if self.FIG3_MIN < t}
        if len(ts) < self.FIG3_N or not odd <= ts:
            raise CheckFailed("figure3 sweep misses grid points or odd-integer gaps")
        if len(rows) != len(ts) * 2 * (self.FIG3_NMAX + 1):
            raise CheckFailed(f"figure3 has {len(rows)} rows for {len(ts)} grid points")
        return Outcome()

    def _check_stability(self, item, text) -> Outcome:
        obj = self._json(text, ("bounded_below", "narrative"))
        if obj["bounded_below"] is not True or not isinstance(obj["narrative"], str):
            raise CheckFailed(f"stability (neg, ushaped) gave {obj!r}, expected bounded")
        return Outcome()


@dataclass
class State:
    inputs: list
    warmup: object
    first_output: dict = field(default_factory=dict)


WORKLOADS = {wl.name: wl for wl in (CliCold(), ValidateSweep(), RefineLadder(), DenseProbe())}
