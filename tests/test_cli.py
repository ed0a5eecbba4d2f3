import json
import textwrap
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ptspec.cli import _linspace, main
from ptspec.errors import ConvergenceFailure

_HUGE = "1" + "0" * 400  # a count no float holds


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestContourSample:
    def test_csv_shape_and_header(self, capsys):
        code, out, _ = run_cli(
            capsys, "contour", "sample", "--kind", "ushaped", "--epsilon", "1",
            "--smin", "-10", "--smax", "10", "--n", "400",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "s,re_x,im_x,re_dx,im_dx"
        assert len(lines) == 401

    def test_pt_residual_from_emitted_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "contour", "sample", "--epsilon", "0.5",
            "--smin", "-6", "--smax", "6", "--n", "241",
        )
        assert code == 0
        rows = np.array(
            [[float(v) for v in line.split(",")] for line in out.strip().split("\n")[1:]]
        )
        x = rows[:, 1] + 1j * rows[:, 2]
        # the sample grid is symmetric: row k reflects row N-1-k
        residual = np.abs(x[::-1] + np.conj(x))
        assert residual.max() <= 1e-12

    def test_seventeen_digit_rendering(self, capsys):
        from ptspec.cli import _fmt

        assert _fmt(1 / 3) == "0.33333333333333331"
        # every emitted float round-trips through its text exactly
        _, out, _ = run_cli(
            capsys, "contour", "sample", "--smin", "-2", "--smax", "2", "--n", "7",
        )
        for line in out.strip().split("\n")[1:]:
            for token in line.split(","):
                assert _fmt(float(token)) == token

    def test_line_kind(self, capsys):
        code, out, _ = run_cli(
            capsys, "contour", "sample", "--kind", "line", "--phi", "0",
            "--smin", "0", "--smax", "2", "--n", "3",
        )
        assert code == 0
        assert "1,1,0,1,0" in out

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "contour", "sample", "--n", "5", "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert len(data["rows"]) == 5
        assert set(data["rows"][0]) == {"s", "re_x", "im_x", "re_dx", "im_dx"}

    def test_bad_kind_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "contour", "sample", "--kind", "wiggly")
        assert code == 1
        assert "error" in err.lower()


class TestSpectrumAnalytic:
    def test_csv_values(self, capsys):
        code, out, _ = run_cli(
            capsys, "spectrum", "analytic", "--Z", "1", "--L", "0.3",
            "--nmax", "1", "--mass", "neg",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "n,sigma,energy,kappa"
        assert len(lines) == 5
        first = lines[1].split(",")
        assert (first[0], first[1]) == ("0", "-1")
        assert float(first[2]) == pytest.approx(-(1 / 0.6) ** 2, rel=1e-12)

    def test_missing_L_rejected(self, capsys):
        code, _, err = run_cli(capsys, "spectrum", "analytic", "--Z", "1")
        assert code == 1
        assert "L" in err

    def test_positive_mass_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "spectrum", "analytic", "--L", "0.3", "--mass", "pos",
            "--nmax", "0", "--format", "json",
        )
        assert code == 0
        levels = json.loads(out)["levels"]
        assert all(lv["energy"] > 0 for lv in levels)


class TestSpectrumNumeric:
    def test_deep_level_matched_with_defaults(self, capsys):
        code, out, _ = run_cli(
            capsys, "spectrum", "numeric", "--Z", "1", "--L", "0.3", "--nmax", "0",
        )
        assert code == 0
        data = json.loads(out)
        assert set(data) == {"levels", "order_estimate"}
        deep = [r for r in data["levels"] if r["n"] == 0 and r["sigma"] == -1][0]
        assert deep["matched"] is True
        assert deep["residual"] <= 1e-3
        assert deep["numeric_re"] == pytest.approx(-(1 / 0.6) ** 2, abs=1e-3)

    def test_explicit_small_grid_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "spectrum", "numeric", "--Z", "1", "--L", "0.3", "--nmax", "0",
            "--S", "15", "--N", "800", "--format", "csv",
        )
        assert code == 0
        assert out.startswith("n,sigma,analytic,numeric_re,numeric_im,residual,matched")

    def test_bad_S_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "spectrum", "numeric", "--L", "0.3", "--S", "wide",
        )
        assert code == 1
        assert "auto" in err

    @pytest.mark.parametrize("argv, reason", [
        (("spectrum", "numeric", "--Z", "1", "--L", "1.0000000000007", "--N", "400"), "integer L"),
        (("spectrum", "numeric", "--Z", "1", "--L", "1.0000000000004", "--N", "400"), "integer L"),
        (("spectrum", "numeric", "--Z", "1", "--L", "0.3", "--epsilon", "0.001"), "reach g(T)"),
        (("spectrum", "analytic", "--Z", "1", "--L", "1", "--nmax", "1"), "integer L"),
        (("solve", "oscillator", "--nmax", "-1"), "n_max must be >= 0"),
        # an overflowed closed form is not a value: no -Infinity is written
        (("spectrum", "analytic", "--Z", "1e200", "--L", "0.3", "--nmax", "0",
          "--format", "json"), "E(n=0, sigma=1) at Z = 1e+200 must be finite, got -inf"),
        (("spectrum", "numeric", "--Z", "1e200", "--L", "0.3", "--N", "100", "--nmax", "0"),
         "E(n=0, sigma=1) at Z = 1e+200 must be finite, got -inf"),
        (("figure3", "--Z", "1e308", "--grid-n", "2", "--grid-min", "0.5", "--grid-max", "0.6",
          "--nmax", "0", "--format", "json"),
         "kappa(n=0, sigma=-1) at 2L+1 = 0.5, Z = 1e+308 must be finite, got -inf"),
        # a table past 10**6 rows is refused before it is built
        (("spectrum", "analytic", "--Z", "1", "--L", "0.3", "--nmax", "500000"),
         "n_max = 500000 makes a table of 1000002 rows, more than 1000000"),
        (("spectrum", "analytic", "--Z", "1", "--L", "0.3", "--nmax", "100000000"),
         "n_max = 100000000 makes a table of 200000002 rows, more than 1000000"),
        # 1000 x 2(499 + 1) rows pass the check before the grid is built, but
        # the three spliced collapse points 1, 3, 5 take the table past it
        (("figure3", "--grid-n", "1000", "--nmax", "499"),
         "n_max = 499 over 1003 points makes a table of 1003000 rows, more than 1000000"),
        (("figure3", "--grid-n", "100000000", "--nmax", "0"),
         "n_max = 0 over 100000000 points makes a table of 200000000 rows, more than 1000000"),
        (("figure3", "--grid-n", "2", "--nmax", "100000000"),
         "n_max = 100000000 over 2 points makes a table of 400000004 rows, more than 1000000"),
        (("contour", "sample", "--n", "1000001"),
         "n = 1000001 makes a table of 1000001 rows, more than 1000000"),
        # a grid past solver.GRID_CEILING, refused before any node is formed
        (("spectrum", "numeric", "--Z", "1", "--L", "0.3", "--N", "10000000000000", "--nmax", "0"),
         "N must be <= 1000000, got 10000000000000"),
        (("solve", "oscillator", "--N", "10000000000000", "--nmax", "0"),
         "N must be <= 1000000, got 10000000000000"),
        # an operator that under- or overflows: h^2, 2S and x^2 in turn
        (("solve", "oscillator", "--N", "100", "--nmax", "0", "--S", "1e-300"),
         "the operator's diagonal is not finite"),
        (("solve", "oscillator", "--N", "100", "--nmax", "0", "--S", "1e308"),
         "the operator's diagonal is not finite"),
        (("solve", "oscillator", "--N", "100", "--nmax", "0", "--S", "1e200"),
         "the operator's diagonal is not finite"),
        (("figure3", "--grid-n", "100000000"),
         "n_max = 4 over 100000000 points makes a table of 1000000000 rows, more than 1000000"),
        # a span, a junction index and a reach that overflow
        (("contour", "sample", "--smin=-1e308", "--smax=1e308", "--n", "3", "--format", "json"),
         "smax - smin must be finite, got inf"),
        (("spectrum", "numeric", "--Z", "1", "--L", "0.3", "--S", "1e-308", "--N", "100",
          "--nmax", "0"),
         "the aligned grid for S = 1e-308, N = 100 puts the arc junction at node index inf"),
        (("spectrum", "numeric", "--Z", "1", "--L", "0.3", "--S", "10000", "--N", "100000",
          "--nmax", "0"),
         "the reach g(S) of a stretched grid at S = 9017.692176946908 must be finite, got inf"),
        (("contour", "sample", "--smin", "1", "--smax", "1"), "smax must exceed smin"),
        (("figure3", "--grid-min", "0"), "require 0 < grid_min < grid_max"),
    ])
    def test_refused_search_is_one_error_line(self, capsys, argv, reason):
        # a collapsed L, a reach below S, a negative n_max, an overflowed value,
        # a table past its bound and an empty range, in the search and the
        # closed form alike: exit 1, one line, no warning before it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert reason in err


# a count no float holds, refused before any table, grid or float is formed
_PAST_2_53 = [
    (("spectrum", "analytic", "--Z", "1", "--L", "0.3", "--nmax", _HUGE), "n_max"),
    (("figure3", "--nmax", _HUGE), "n_max"),
    (("figure3", "--grid-n", _HUGE), "grid_n"),
    (("contour", "sample", "--n", _HUGE), "n"),
    (("spectrum", "numeric", "--Z", "1", "--L", "0.3", "--N", _HUGE), "N"),
    (("solve", "oscillator", "--nmax", _HUGE), "n_max"),
]


@pytest.mark.parametrize("argv, message", [
    (("spectrum", "numeric", "--Z", "1", "--L", "0.3", "--N", "10000000000000", "--nmax", "0"),
     "N must be <= 1000000, got 10000000000000"),
    (("solve", "oscillator", "--N", "1000001", "--nmax", "0"), "N must be <= 1000000, got 1000001"),
    # the fine grid of --order, 2N+1 nodes, is refused before the coarse run
    (("solve", "oscillator", "--N", "500000", "--nmax", "0", "--order"),
     "N must be <= 1000000, got 1000001"),
    (("spectrum", "numeric", "--Z", "1", "--L", "0.3", "--N", "500000", "--nmax", "0", "--order"),
     "N must be <= 1000000, got 1000001"),
    # the oscillator's n_max + 1 seeds are bounded like a closed-form table
    (("solve", "oscillator", "--nmax", "100000000", "--N", "100"),
     "n_max = 100000000 makes a table of 100000001 rows, more than 1000000"),
    *(pytest.param(argv, f"{name} must be <= 2**53, got {_HUGE}",
                   id=f"{argv[0]}-{name}-past-2**53") for argv, name in _PAST_2_53),
])
def test_size_past_its_bound_is_refused_at_once(fresh_python, argv, message):
    # refused before any grid, seed list or search is formed: the memory cap
    # and the timeout turn a large allocation, a walk or a search into a failure
    proc = fresh_python("-W", "error", "-m", "ptspec.cli", *argv, timeout=5)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == f"error: {message}\n"


class TestFigure3:
    def test_ten_curves_and_gap_records(self, capsys):
        code, out, _ = run_cli(capsys, "figure3", "--Z", "1")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "two_L_plus_1,n,sigma,minus_kappa"
        curves = set()
        gaps = []
        for line in lines[1:]:
            t, n, sigma, mk = line.split(",")
            curves.add((n, sigma))
            if mk == "":
                gaps.append((float(t), int(n), int(sigma)))
        assert len(curves) == 10
        assert set(gaps) == {(1.0, 0, -1), (3.0, 1, -1), (5.0, 2, -1)}

    def test_spot_values(self, capsys):
        _, out, _ = run_cli(
            capsys, "figure3", "--Z", "1", "--grid-min", "1.6", "--grid-max", "2.0",
            "--grid-n", "2", "--nmax", "0",
        )
        table = {}
        for line in out.strip().split("\n")[1:]:
            t, n, sigma, mk = line.split(",")
            table[(float(t), int(n), int(sigma))] = float(mk)
        assert table[(1.6, 0, -1)] == pytest.approx(-1 / 0.6, rel=1e-12)
        assert table[(2.0, 0, 1)] == pytest.approx(-1 / 3, rel=1e-12)

    @staticmethod
    def _sweep(out):
        return sorted({float(line.split(",")[0]) for line in out.strip().split("\n")[1:]})

    def test_only_collapse_points_of_the_table_spliced(self, capsys):
        # the splice adds each 2n+1, n <= nmax, inside (grid_min, grid_max):
        # 9 = 2*4+1 lies beyond nmax = 3, and 1 below grid_min
        _, out, _ = run_cli(
            capsys, "figure3", "--grid-min", "2", "--grid-max", "12", "--grid-n", "2",
            "--nmax", "3",
        )
        assert self._sweep(out) == [2.0, 3.0, 5.0, 7.0, 12.0]
        # far from one no level collapses, so nothing is spliced
        code, out, _ = run_cli(
            capsys, "figure3", "--grid-min", "1e12", "--grid-max", "1000000000004",
            "--grid-n", "2", "--nmax", "0",
        )
        assert code == 0
        assert self._sweep(out) == [1e12, 1e12 + 4]

    def test_widest_sweep_ends_at_once(self, fresh_python):
        # a splice of every odd integer below 1e308 would never end; the memory
        # cap turns such a walk into a quick failure, not a hang
        argv = ["figure3", "--grid-min", "0.05", "--grid-max", "1e308", "--grid-n", "3"]
        proc = fresh_python("-m", "ptspec.cli", *argv, timeout=5)
        assert proc.returncode == 0, proc.stderr
        assert self._sweep(proc.stdout) == [0.05, 1.0, 3.0, 5.0, 7.0, 9.0, 5e307, 1e308]

    def test_json_gap_is_null(self, capsys):
        _, out, _ = run_cli(
            capsys, "figure3", "--grid-min", "0.5", "--grid-max", "1.5",
            "--grid-n", "2", "--nmax", "0", "--format", "json",
        )
        rows = json.loads(out)["rows"]
        gap = [r for r in rows if r["two_L_plus_1"] == 1.0 and r["sigma"] == -1]
        assert gap and gap[0]["minus_kappa"] is None


_FINITE = st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True)


@given(lo=_FINITE, hi=_FINITE, n=st.integers(1, 2000))
@example(lo=5e-324, hi=1e-322, n=100)  # the step underflows to 0
@example(lo=-1e-322, hi=-5e-324, n=100)
@example(lo=0.05, hi=1e308, n=3)
@example(lo=0.05, hi=6.0, n=400)  # figure3's default sweep
@example(lo=-10.0, hi=10.0, n=400)  # contour sample's
@example(lo=-0.0, hi=1.0, n=1)  # numpy's one point is 0*(hi-lo) + lo, so 0.0
@example(lo=-1e308, hi=1e308, n=1)  # hi - lo overflows: numpy's one point is NaN
@settings(max_examples=500, deadline=None)
def test_figure3_grid_is_numpy_linspace_bit_for_bit(lo, hi, n):
    # the grid of figure3 and of contour sample: finite lo < hi, n >= 1
    assume(lo != hi)
    lo, hi = min(lo, hi), max(lo, hi)
    with np.errstate(over="ignore", invalid="ignore"):  # near the top of the range
        want = np.linspace(lo, hi, n)  # hi - lo or (n-1)*step rounds to inf, and
    grid = np.array(_linspace(lo, hi, n))  # numpy warns; the last point is hi in both
    assert grid.dtype == np.float64
    np.testing.assert_array_equal(grid.view(np.uint64), want.view(np.uint64))


class TestStability:
    @pytest.mark.parametrize(
        "mass,contour,expected",
        [
            ("pos", "ushaped", False),
            ("neg", "ushaped", True),
            ("pos", "line", True),
        ],
    )
    def test_truth_table(self, capsys, mass, contour, expected):
        code, out, _ = run_cli(
            capsys, "stability", "--mass-sign", mass, "--contour", contour,
        )
        assert code == 0
        data = json.loads(out)
        assert data["bounded_below"] is expected
        assert data["narrative"]


class TestSolveOscillator:
    def test_five_levels(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "oscillator", "--nmax", "4")
        assert code == 0
        data = json.loads(out)
        rows = [r for r in data["levels"] if r["matched"]]
        assert len(rows) == 5
        np.testing.assert_allclose(
            sorted(r["numeric_re"] for r in rows), [1, 3, 5, 7, 9], atol=1e-3
        )

    def test_numerical_failure_exits_2(self, capsys, monkeypatch):
        # no input reaches this today (each level's search catches its own
        # ConvergenceFailure), so the search is made to raise one
        from ptspec import solver

        def fail(*args, **kwargs):
            raise ConvergenceFailure("no convergence: forced")

        monkeypatch.setattr(solver, "find_bound_states", fail)
        code, out, err = run_cli(capsys, "solve", "oscillator", "--nmax", "0", "--N", "16")
        assert (code, out, err) == (2, "", "numerical failure: no convergence: forced\n")


class TestConfigFile:
    def test_merge_and_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"Z": 1, "L": 0.3, "nmax": 4}))
        code, out, _ = run_cli(
            capsys, "spectrum", "analytic", "--config", str(cfg), "--nmax", "0",
        )
        assert code == 0
        assert len(out.strip().split("\n")) == 3  # header + two levels: flag wins

    def test_unknown_key(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"Q": 5}))
        code, _, err = run_cli(
            capsys, "spectrum", "analytic", "--config", str(cfg), "--L", "0.3",
        )
        assert code == 1
        assert "unknown key: Q" in err

    def test_malformed_document(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text("{not json")
        out_path = tmp_path / "result.csv"
        code, _, err = run_cli(
            capsys, "spectrum", "analytic", "--config", str(cfg),
            "--L", "0.3", "--out", str(out_path),
        )
        assert code == 1
        assert "line 1" in err
        assert not out_path.exists()

    def test_nonfinite_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"Z": 1e400}))
        code, _, err = run_cli(
            capsys, "spectrum", "analytic", "--config", str(cfg), "--L", "0.3",
        )
        assert code == 1
        assert "finite" in err

    @pytest.mark.parametrize("value", [None, 5, True])
    def test_out_must_be_text(self, capsys, tmp_path, monkeypatch, value):
        monkeypatch.chdir(tmp_path)  # a stray output file would land here
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"out": value}))
        code, out, err = run_cli(
            capsys, "spectrum", "analytic", "--config", str(cfg), "--L", "0.3",
        )
        assert code == 1
        assert out == ""
        assert "bad value for key out" in err
        assert list(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize("key,value", [("nmax", 4.7), ("nmax", True), ("Z", True)])
    def test_numbers_checked_as_the_flag_is(self, capsys, tmp_path, key, value):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({key: value}))
        code, out, err = run_cli(
            capsys, "spectrum", "analytic", "--config", str(cfg), "--L", "0.3",
        )
        assert code == 1
        assert out == ""
        assert f"bad value for key {key}" in err

    def test_format_outside_choices(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"format": "xml"}))
        code, out, err = run_cli(
            capsys, "spectrum", "analytic", "--config", str(cfg), "--L", "0.3",
        )
        assert code == 1
        assert out == ""
        assert "bad value for key format" in err

    def test_order_must_be_true_or_false(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"order": "yes"}))
        code, out, err = run_cli(capsys, "solve", "oscillator", "--config", str(cfg))
        assert code == 1
        assert out == ""
        assert "bad value for key order: 'yes' (expected true/false)" in err

    @pytest.mark.parametrize("text, message", [
        (None, "cannot read config file"),  # no file there
        ("[1, 2]", "must hold a flat JSON object"),
    ])
    def test_unusable_file(self, capsys, tmp_path, text, message):
        cfg = tmp_path / "run.json"
        if text is not None:
            cfg.write_text(text)
        code, out, err = run_cli(
            capsys, "spectrum", "analytic", "--config", str(cfg), "--L", "0.3",
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize("kind", ["u", "straightline"])
    @pytest.mark.parametrize(
        "argv,key",
        [(("stability", "--mass-sign", "neg"), "contour"), (("contour", "sample"), "kind")],
    )
    def test_contour_kind_checked_as_the_flag_is(self, capsys, tmp_path, argv, key, kind):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({key: kind}))
        code, out, err = run_cli(capsys, *argv, "--config", str(cfg))
        assert code == 1
        assert out == ""
        assert f"bad value for key {key}" in err
        code, _, _ = run_cli(capsys, *argv, "--" + key, kind)
        assert code == 1


class TestDeterminismAndOutput:
    def test_byte_identical_repeat(self, capsys):
        _, first, _ = run_cli(capsys, "figure3", "--grid-n", "50")
        _, second, _ = run_cli(capsys, "figure3", "--grid-n", "50")
        assert first == second

    def test_out_path(self, capsys, tmp_path):
        target = tmp_path / "sample.csv"
        code, out, _ = run_cli(
            capsys, "contour", "sample", "--n", "10", "--out", str(target),
        )
        assert code == 0
        assert out == ""
        content = target.read_text()
        assert content.startswith("s,re_x,im_x,re_dx,im_dx")
        assert len(content.strip().split("\n")) == 11

    def test_unwritable_out_path_is_usage_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.csv"
        code, out, err = run_cli(
            capsys, "contour", "sample", "--n", "10", "--out", str(target),
        )
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: cannot write {target}")
        assert not target.parent.exists()


_WATCHED = (
    "numpy", "ptspec.solver", "scipy", "scipy.linalg", "scipy.linalg._flapack", "scipy.sparse",
    "dataclasses", "inspect",
)
# whether importing numpy loads these depends on numpy's version (2.4.6 loads
# inspect), so a command that loads numpy is not held to either
_NUMPY_MAY_LOAD = {"dataclasses", "inspect"}


def _cli(command: str) -> str:
    """Code that runs one CLI command in-process, its stdout discarded."""
    return textwrap.dedent(f"""
        import contextlib, io
        import ptspec.cli
        with contextlib.redirect_stdout(io.StringIO()):
            assert ptspec.cli.main({command.split()!r}) == 0
    """)


@pytest.mark.parametrize("code,loaded", [
    ("import ptspec", set()),
    (_cli("spectrum analytic --Z 1 --L 0.3 --nmax 4 --mass neg --format csv"), set()),
    (_cli("figure3 --Z 1 --grid-min 0.05 --grid-max 6 --grid-n 400"), set()),
    (_cli("stability --mass-sign neg --contour ushaped"), set()),
    (_cli("contour sample --kind ushaped --epsilon 1 --smin -10 --smax 10 --n 400"), set()),
    (_cli("solve oscillator --nmax 0 --N 16"), {"numpy", "ptspec.solver", "scipy.linalg._flapack"}),
    ("import ptspec; ptspec.evaluate(ptspec.UShaped(1.0), 0.5); "
     "ptspec.derivatives(ptspec.UShaped(1.0), -2.0)", set()),
], ids=["import", "analytic", "figure3", "stability", "contour_sample", "solve", "path_of_a_float"])
def test_what_each_command_loads(fresh_json, code, loaded):
    """Cold start: the closed forms and the path of a float load neither numpy,
    the solver, dataclasses nor inspect, and scipy loads only for a solve,
    which also shows that the check sees a load.  A solve loads scipy's LAPACK
    extension alone: neither scipy's own package init, scipy.linalg nor
    scipy.sparse.  A fresh interpreter, since this one has them all loaded."""
    report = f"import json, sys; print(json.dumps([m for m in {_WATCHED!r} if m in sys.modules]))"
    got = set(fresh_json(f"{code}\n{report}"))
    if "numpy" in loaded:
        got -= _NUMPY_MAY_LOAD
    assert got == loaded
