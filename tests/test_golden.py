"""Golden CLI outputs: the README commands and their format variants.

The files under tests/golden/ were written by the CLI before its flag table,
table emitter and seeding rule were each derived from one source; a refactor
must leave every output unchanged.  Closed-form commands are compared byte
for byte.  The two solver commands go through LAPACK, whose last bits differ
between builds, so they are compared on structure (keys, row order, matched
flags, nulls, integers) exactly and on floats to a relative 1e-12.
"""

import csv
import json
import math
from pathlib import Path

import pytest

from ptspec.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"

_CONTOUR = ("contour", "sample", "--kind", "ushaped", "--epsilon", "1",
            "--smin", "-10", "--smax", "10", "--n", "400")
_ANALYTIC = ("spectrum", "analytic", "--Z", "1", "--L", "0.3", "--nmax", "4")
_NUMERIC = ("spectrum", "numeric", "--Z", "1", "--L", "0.3", "--epsilon", "1",
            "--S", "auto", "--N", "4000", "--nmax", "2")
_FIGURE3 = ("figure3", "--Z", "1", "--grid-min", "0.05", "--grid-max", "6",
            "--grid-n", "400")
_OSCILLATOR = ("solve", "oscillator", "--nmax", "4")

# file name -> argv; a name starting with "solver_" goes through LAPACK
GOLDEN = {
    "contour_sample.csv": _CONTOUR,
    "contour_sample.json": _CONTOUR + ("--format", "json"),
    "spectrum_analytic_neg.csv": _ANALYTIC + ("--mass", "neg", "--format", "csv"),
    "spectrum_analytic_pos.json": _ANALYTIC + ("--mass", "pos", "--format", "json"),
    "figure3.csv": _FIGURE3,
    "figure3.json": _FIGURE3 + ("--format", "json"),
    "stability_neg_ushaped.json": ("stability", "--mass-sign", "neg", "--contour", "ushaped"),
    "stability_pos_line.json": ("stability", "--mass-sign", "pos", "--contour", "line"),
    "stability_pos_ushaped.json": ("stability", "--mass-sign", "pos", "--contour", "ushaped"),
    "stability_neg_line.json": ("stability", "--mass-sign", "neg", "--contour", "line"),
    "solver_spectrum_numeric.json": _NUMERIC,
    "solver_spectrum_numeric.csv": _NUMERIC + ("--format", "csv"),
    "solver_spectrum_numeric_order.json": _NUMERIC + ("--order",),
    "solver_oscillator.json": _OSCILLATOR,
    "solver_oscillator.csv": _OSCILLATOR + ("--format", "csv"),
    "solver_oscillator_order.json": _OSCILLATOR + ("--order",),
}

REL_TOL = 1e-12
_INT_COLUMNS = ("n", "sigma", "matched")


def _close(a: float, b: float) -> bool:
    # an imaginary part of ~1e-16 is rounding noise: hold it to an absolute 1e-12
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=REL_TOL)


def _same_json(got, want, path="$"):
    if isinstance(want, float) or isinstance(got, float):
        ok = (
            type(got) in (int, float) and not isinstance(got, bool)
            and type(want) in (int, float) and not isinstance(want, bool)
            and _close(got, want)
        )
        assert ok, f"{path}: {got!r} != {want!r}"
    elif isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), f"{path}: keys differ"
        for key in want:
            _same_json(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), f"{path}: length differs"
        for i, (g, w) in enumerate(zip(got, want)):
            _same_json(g, w, f"{path}[{i}]")
    else:  # int, bool, str, None: exact, type included
        assert type(got) is type(want) and got == want, f"{path}: {got!r} != {want!r}"


def _same_csv(got: str, want: str):
    got_rows = list(csv.reader(got.splitlines()))
    want_rows = list(csv.reader(want.splitlines()))
    header = want_rows[0]
    assert got_rows[0] == header
    assert len(got_rows) == len(want_rows)
    for line, (g_row, w_row) in enumerate(zip(got_rows[1:], want_rows[1:]), start=2):
        assert len(g_row) == len(w_row), f"line {line}: width differs"
        for column, g, w in zip(header, g_row, w_row):
            if column in _INT_COLUMNS or "" in (g, w):  # integers and nulls: exact
                assert g == w, f"line {line} {column}: {g!r} != {w!r}"
            else:
                assert _close(float(g), float(w)), f"line {line} {column}: {g!r} != {w!r}"


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_output(capsys, name):
    code = main(list(GOLDEN[name]))
    out = capsys.readouterr().out
    assert code == 0
    want = (GOLDEN_DIR / name).read_bytes().decode("utf-8")
    if not name.startswith("solver_"):
        assert out == want
    elif name.endswith(".json"):
        _same_json(json.loads(out), json.loads(want))
    else:
        _same_csv(out, want)
