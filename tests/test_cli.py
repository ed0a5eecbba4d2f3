import json
import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest

from ptspec.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"


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
    ])
    def test_refused_search_is_one_error_line(self, capsys, argv, reason):
        # a collapsed L, a reach below S and a negative n_max, in the search and
        # the closed form alike: exit 1, one line, no warning before it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert reason in err


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

    def test_odd_integers_spliced_far_from_one(self, capsys):
        # the splice walks only the odd integers inside (grid_min, grid_max),
        # so a sweep near 2L+1 = 1e12 costs what one near 1 does
        code, out, _ = run_cli(
            capsys, "figure3", "--grid-min", "1e12", "--grid-max", "1000000000004",
            "--grid-n", "2", "--nmax", "0",
        )
        assert code == 0
        table = {}
        for line in out.strip().split("\n")[1:]:
            t, n, sigma, mk = line.split(",")
            table[(int(float(t)), int(n), int(sigma))] = float(mk)
        ts = sorted({t for t, _, _ in table})
        assert ts == [10**12, 10**12 + 1, 10**12 + 3, 10**12 + 4]
        for t in (10**12 + 1, 10**12 + 3):
            assert table[(t, 0, 1)] == pytest.approx(-1 / (t + 1), rel=1e-12)
            assert table[(t, 0, -1)] == pytest.approx(-1 / (t - 1), rel=1e-12)

    def test_json_gap_is_null(self, capsys):
        _, out, _ = run_cli(
            capsys, "figure3", "--grid-min", "0.5", "--grid-max", "1.5",
            "--grid-n", "2", "--nmax", "0", "--format", "json",
        )
        rows = json.loads(out)["rows"]
        gap = [r for r in rows if r["two_L_plus_1"] == 1.0 and r["sigma"] == -1]
        assert gap and gap[0]["minus_kappa"] is None


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


def test_closed_form_commands_never_load_scipy():
    """Cold start: the closed-form commands and `import ptspec` need only numpy.

    Runs in a fresh interpreter, since this test process has scipy loaded.  The
    final solve shows that the check sees scipy when a command does load it.
    """
    script = textwrap.dedent("""
        import contextlib, io, sys
        import ptspec, ptspec.cli

        def scipy_modules():
            return [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]

        commands = [
            "contour sample --kind ushaped --epsilon 1 --smin -10 --smax 10 --n 400",
            "spectrum analytic --Z 1 --L 0.3 --nmax 4 --mass neg --format csv",
            "figure3 --Z 1 --grid-min 0.05 --grid-max 6 --grid-n 400",
            "stability --mass-sign neg --contour ushaped",
        ]
        for command in commands:
            with contextlib.redirect_stdout(io.StringIO()):
                assert ptspec.cli.main(command.split()) == 0, command
        assert not scipy_modules(), scipy_modules()
        with contextlib.redirect_stdout(io.StringIO()):
            assert ptspec.cli.main("solve oscillator --nmax 0 --N 16".split()) == 0
        assert "scipy.linalg" in sys.modules
    """)
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
