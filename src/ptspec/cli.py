"""Command-line front end: deterministic CSV/JSON emission for every module.

Exit status: 0 on success, 1 on a validation/usage problem, 2 on a numerical
failure.  CSV floats are rendered with 17 significant digits; JSON uses the
shortest round-trip representation.  Output is byte-identical for identical
configuration on the same platform.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Callable, NamedTuple

from . import analytic
# evaluate and derivatives are not called here, but stay importable as
# ptspec.cli.evaluate and ptspec.cli.derivatives, the names the bench tracer wraps
from .contour import StraightLine, UShaped, _path, derivatives, evaluate  # noqa: F401
from .errors import ConvergenceFailure, PtspecError, check_count
from .model import CoulombKratzer, stability_verdict

__all__ = ["load_config", "main"]


class UsageError(Exception):
    """Bad flags, bad config file, or bad parameter values."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); validation failures exit 1
        raise UsageError(message)


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, int):
        return str(v)
    return _fmt(v)


def _table(fmt: str, key: str, columns: tuple, rows, **extra) -> str:
    """Render rows as CSV under a header, or as JSON records under `key`.

    `extra` holds top-level JSON fields that have no CSV column.
    """
    if fmt == "csv":
        lines = [",".join(columns)] + [",".join(map(_cell, row)) for row in rows]
        return "\n".join(lines) + "\n"
    records = [dict(zip(columns, row)) for row in rows]
    return json.dumps({key: records, **extra}, indent=2) + "\n"


_SIGN = {"pos": 1, "neg": -1}
_KINDS = ("ushaped", "line")


def _pick_contour(kind: str, epsilon: float = 1.0, phi: float = 0.0):
    return UShaped(epsilon) if kind == "ushaped" else StraightLine(phi)


def _linspace(lo: float, hi: float, n: int) -> list:
    """np.linspace(lo, hi, n) for n >= 1, bit for bit, without loading numpy."""
    delta = hi - lo
    if n == 1:  # lo, formed as numpy forms it: 0*delta + lo
        return [0.0 * delta + lo]
    step = delta / (n - 1)
    if step == 0:  # a subnormal step underflows: numpy scales by i/(n-1) first
        grid = [i / (n - 1) * delta + lo for i in range(n)]
    else:
        grid = [i * step + lo for i in range(n)]
    grid[-1] = hi
    return grid


def _run_contour_sample(p: dict) -> str:
    contour = _pick_contour(p["kind"], p["epsilon"], p["phi"])
    check_count("n", p["n"], 1)
    analytic.check_table(p["n"], "n = {}", p["n"])  # one row per sample
    if not p["smax"] > p["smin"]:
        raise UsageError("smax must exceed smin")
    # one float at a time: a float's path runs on math and cmath, without
    # numpy, and one _path call gives both x and x'
    points = ((s, *_path(contour, s)) for s in _linspace(p["smin"], p["smax"], p["n"]))
    rows = ((s, x.real, x.imag, dx.real, dx.imag) for s, x, dx in points)
    return _table(p["format"], "rows", ("s", "re_x", "im_x", "re_dx", "im_dx"), rows)


def _run_spectrum_analytic(p: dict) -> str:
    table = analytic.spectrum_table(p["Z"], p["L"], p["nmax"], _SIGN[p["mass"]])
    rows = ((lv.n, lv.sigma, lv.energy, lv.kappa) for lv in table)
    return _table(p["format"], "levels", ("n", "sigma", "energy", "kappa"), rows)


def _solve(problem, S: float, p: dict) -> str:
    """Run the bound-state search; levels are emitted in closed-form energy order."""
    from . import solver  # deferred, in each solving runner: numpy loads here, scipy at the solve

    grid = solver.GridSpec(S=S, N=p["N"])
    result = solver.find_bound_states(problem, grid, p["nmax"], two_grid=p["order"])
    rows = []
    for r in result.levels:
        re_im = (None, None) if r.eigenvalue is None else (r.eigenvalue.real, r.eigenvalue.imag)
        rows.append((r.level.n, r.level.sigma, r.level.energy, *re_im, r.residual, r.matched))
    order = None
    if result.convergence is not None:
        order = result.convergence.order_estimate
    columns = ("n", "sigma", "analytic", "numeric_re", "numeric_im", "residual", "matched")
    return _table(p["format"], "levels", columns, rows, order_estimate=order)


def _run_spectrum_numeric(p: dict) -> str:
    from . import solver

    S = p["S"]
    if S == "auto":
        S = solver.auto_box(p["Z"], p["L"], p["nmax"])
    problem = solver.BoundStateProblem(
        contour=UShaped(p["epsilon"]),
        potential=CoulombKratzer(p["Z"]),
        L=p["L"],
        mass_sign=-1,
    )
    return _solve(problem, S, p)


def _run_figure3(p: dict) -> str:
    check_count("grid_n", p["grid_n"], 2)
    analytic.check_rows(p["nmax"], p["grid_n"])  # before the grid is built
    if not 0 < p["grid_min"] < p["grid_max"]:
        raise UsageError("require 0 < grid_min < grid_max")
    base = _linspace(p["grid_min"], p["grid_max"], p["grid_n"])
    # keep the collapse points visible: splice in each 2n+1, n <= nmax, inside
    # the sweep, where the level (n, -1) has a vanishing denominator
    odd = range(1, min(2 * p["nmax"] + 2, math.ceil(p["grid_max"])), 2)
    ts = sorted(set(base).union(float(t) for t in odd if p["grid_min"] < t))
    rows = (
        (r.two_L_plus_1, r.n, r.sigma, r.minus_kappa)
        for r in analytic.figure3_data(p["Z"], ts, p["nmax"])
    )
    columns = ("two_L_plus_1", "n", "sigma", "minus_kappa")
    return _table(p["format"], "rows", columns, rows)


def _run_stability(p: dict) -> str:
    contour = _pick_contour(p["contour"])
    verdict = stability_verdict(_SIGN[p["mass_sign"]], contour)
    return json.dumps(
        {"bounded_below": verdict.bounded_below, "narrative": verdict.narrative},
        indent=2,
    ) + "\n"


def _run_solve_oscillator(p: dict) -> str:
    from . import solver

    return _solve(solver.oscillator_problem(), p["S"], p)


# ---------------------------------------------------------------------------
# The flag table: the one source of every flag and config-file key.
# Flags arrive as text, config-file values as JSON scalars; the converters
# hold a file value to what the flag accepts: text for text, no true/false
# for a number, no fraction for an integer.


def _flag_bool(raw) -> bool:
    if not isinstance(raw, bool):
        raise ValueError("expected true/false")
    return raw


def _text(raw) -> str:
    if not isinstance(raw, str):
        raise ValueError("expected text")
    return raw


def _int(raw) -> int:
    if isinstance(raw, bool) or (isinstance(raw, float) and not raw.is_integer()):
        raise ValueError("expected an integer")
    return int(raw)


def _float(raw) -> float:
    if isinstance(raw, bool):
        raise ValueError("expected a number")
    return float(raw)


def _box_width(raw):
    """A half-width S, or 'auto' to let solver.auto_box choose it."""
    if raw == "auto":
        return raw
    try:
        return _float(raw)
    except (TypeError, ValueError):
        raise ValueError("expected a number or 'auto'") from None


class _Flag(NamedTuple):
    """One flag: `--<name>` on the command line, `<name>` in a config file."""

    convert: Callable
    default: object = None
    choices: tuple = ()
    required: bool = False
    help: str = ""


class _Command(NamedTuple):
    help: str
    runner: Callable
    flags: dict


_GROUP_HELP = {
    "contour": "contour geometry outputs",
    "spectrum": "discrete spectra",
    "solve": "solver fixtures",
}
_OUT = _Flag(_text, help="write the artifact here instead of standard output")
_Z = _Flag(_float, 1.0, help="Coulomb coupling Z")
_L = _Flag(_float, required=True, help="effective angular momentum L (not an integer)")
_EPSILON = _Flag(_float, 1.0, help="U-path width")
_ORDER = _Flag(_flag_bool, False, help="also run the halved-step grid and report the order")


def _format(default: str) -> _Flag:
    return _Flag(_text, default, ("csv", "json"), help="artifact format")


def _nmax(default: int) -> _Flag:
    return _Flag(_int, default, help="highest level index n")


_COMMANDS = {
    ("contour", "sample"): _Command("sample x(s) and x'(s) to CSV", _run_contour_sample, {
        "kind": _Flag(_text, "ushaped", _KINDS, help="contour family"),
        "epsilon": _EPSILON,
        "phi": _Flag(_float, 0.0, help="straight-line angle phi"),
        "smin": _Flag(_float, -10.0, help="first path parameter"),
        "smax": _Flag(_float, 10.0, help="last path parameter"),
        "n": _Flag(_int, 400, help="number of samples"),
        "format": _format("csv"),
        "out": _OUT,
    }),
    ("spectrum", "analytic"): _Command("closed-form level table", _run_spectrum_analytic, {
        "Z": _Z,
        "L": _L,
        "nmax": _nmax(4),
        "mass": _Flag(_text, "neg", tuple(_SIGN), help="bare-mass sign"),
        "format": _format("csv"),
        "out": _OUT,
    }),
    ("spectrum", "numeric"): _Command(
        "finite-difference validation run", _run_spectrum_numeric, {
            "Z": _Z,
            "L": _L,
            "epsilon": _EPSILON,
            "S": _Flag(_box_width, "auto", help="half-width, or 'auto'"),
            "N": _Flag(_int, 4000, help="interior grid nodes"),
            "nmax": _nmax(2),
            "order": _ORDER,
            "format": _format("json"),
            "out": _OUT,
        }),
    ("figure3",): _Command("level sweep over 2L+1", _run_figure3, {
        "Z": _Z,
        "grid_min": _Flag(_float, 0.05, help="smallest 2L+1"),
        "grid_max": _Flag(_float, 6.0, help="largest 2L+1"),
        "grid_n": _Flag(_int, 400, help="uniform samples of 2L+1"),
        "nmax": _nmax(4),
        "format": _format("csv"),
        "out": _OUT,
    }),
    ("stability",): _Command("bounded-below verdict as JSON", _run_stability, {
        "mass_sign": _Flag(_text, None, tuple(_SIGN), required=True, help="bare-mass sign"),
        "contour": _Flag(_text, None, _KINDS, required=True, help="contour family"),
        "out": _OUT,
    }),
    ("solve", "oscillator"): _Command("quadratic-well benchmark", _run_solve_oscillator, {
        "nmax": _nmax(4),
        "S": _Flag(_float, 10.0, help="half-width"),
        "N": _Flag(_int, 2000, help="interior grid nodes"),
        "order": _ORDER,
        "format": _format("json"),
        "out": _OUT,
    }),
}


def load_config(path: str) -> dict:
    """Flat JSON key-value file with the same keys as the command flags."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(
            f"malformed config file {path}: line {exc.lineno}: {exc.msg}"
        ) from exc
    if not isinstance(data, dict):
        raise UsageError(f"config file {path} must hold a flat JSON object")
    return data


def _value(name: str, flag: _Flag, raw):
    """Convert and check one flag or config-file value against its table entry."""
    try:
        value = flag.convert(raw)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad value for key {name}: {raw!r} ({exc})") from exc
    if flag.choices and value not in flag.choices:
        raise UsageError(
            f"bad value for key {name}: {raw!r} (choose from {', '.join(flag.choices)})"
        )
    if isinstance(value, float) and not math.isfinite(value):
        raise UsageError(f"parameter {name} must be finite, got {value}")
    return value


def _merge(command: tuple, flags: dict, file_values: dict) -> dict:
    """Flags win over file values, file values over the table's defaults."""
    table = _COMMANDS[command].flags
    for key in file_values:
        if key not in table:
            raise UsageError(f"unknown key: {key}")
    params = {}
    for name, flag in table.items():
        if flags.get(name) is not None:
            params[name] = _value(name, flag, flags[name])
        elif name in file_values:
            params[name] = _value(name, flag, file_values[name])
        elif flag.required:
            raise UsageError(f"missing required parameter: {name}")
        else:
            params[name] = flag.default
    return params


def _build_parser() -> _Parser:
    """Flags arrive as raw text: _value checks them exactly as it checks a file."""
    top = _Parser(prog="ptspec", description=__doc__)
    sub = top.add_subparsers(dest="cmd", required=True)
    groups = {}
    for command, spec in _COMMANDS.items():
        parent = sub
        if len(command) == 2:
            if command[0] not in groups:
                group = sub.add_parser(command[0], help=_GROUP_HELP[command[0]])
                groups[command[0]] = group.add_subparsers(dest="subcmd", required=True)
            parent = groups[command[0]]
        p = parent.add_parser(command[-1], help=spec.help)
        p.set_defaults(command=command)
        for name, flag in spec.flags.items():
            option = "--" + name.replace("_", "-")
            text = flag.help + (f" {{{','.join(flag.choices)}}}" if flag.choices else "")
            if flag.convert is _flag_bool:
                p.add_argument(option, dest=name, action="store_true", default=None,
                               help=text)
            else:
                p.add_argument(option, dest=name, help=text)
        p.add_argument("--config", help="flat JSON object with the same keys as the flags")
    return top


def main(argv=None) -> int:
    try:
        ns = _build_parser().parse_args(argv)
        file_values = load_config(ns.config) if ns.config else {}
        params = _merge(ns.command, vars(ns), file_values)
        artifact = _COMMANDS[ns.command].runner(params)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ConvergenceFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except PtspecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    out = params.get("out")
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(artifact)
        except OSError as exc:
            print(f"error: cannot write {out}: {exc}", file=sys.stderr)
            return 1
    else:
        sys.stdout.write(artifact)
    return 0


if __name__ == "__main__":
    sys.exit(main())
