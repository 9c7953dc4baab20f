"""CLI contract: flag/config merging, deterministic writers, plot
emission, exit codes, and the verify table."""

import json
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qwave import cli, scenarios
from qwave import qgaussian as qg


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- helpers -------------------------------------------------------------


def test_read_config(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# comment\n\nspecies = proton\nenergy-mev=2.5\n")
    assert cli.read_config(str(path)) == {"species": "proton", "energy_mev": "2.5"}
    path.write_text("not a pair\n")
    with pytest.raises(ValueError):
        cli.read_config(str(path))


def test_csv_formatting_17_digits():
    text = cli.format_rows_csv(("x", "R"), [(1.0 / 3.0, 0.1234567890123456789)])
    assert text == "x,R\n0.33333333333333331,0.12345678901234568\n"


# -- writers on Sweep input ---------------------------------------------

EDGE_DOUBLES = [5e-324, 1.7976931348623157e308, -0.0, 0.1 + 0.2, 1e-05, 1e16, 1e22]


def csv_reference(header, xs, vs):
    lines = [",".join(header)] + ["%.17g,%.17g" % row for row in zip(xs, vs)]
    return "\n".join(lines) + "\n"


def json_reference(header, xs, vs):
    records = [{header[0]: x, header[1]: v} for x, v in zip(xs, vs)]
    return json.dumps(records, indent=1) + "\n"


def check_writers(xs, vs):
    sweep = scenarios.Sweep(np.array(xs, dtype=float), np.array(vs, dtype=float))
    assert cli.format_rows_csv(("x", "R"), sweep) == csv_reference(("x", "R"), xs, vs)
    assert cli.format_rows_json(("x", "ratio"), sweep) == json_reference(("x", "ratio"), xs, vs)


def test_writers_on_edge_doubles():
    edges = EDGE_DOUBLES + [-v for v in EDGE_DOUBLES]
    check_writers(edges, edges[::-1])


finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(deadline=None)
@given(st.lists(st.tuples(finite, finite), max_size=20))
def test_writers_on_finite_doubles(rows):
    check_writers([x for x, _ in rows], [v for _, v in rows])


def test_writers_on_empty_sweep():
    empty = scenarios.Sweep(np.array([]), np.array([]))
    assert cli.format_rows_csv(("x", "R"), empty) == "x,R\n"
    assert cli.format_rows_json(("x", "R"), empty) == "[]\n"


def polyline_reference(sweep):
    """The polyline points of emit_plot_svg, formatted point by point."""
    width, height, ml, mr, mt, mb = 800.0, 500.0, 75.0, 20.0, 45.0, 55.0
    xmin, xmax = float(sweep.x.min()), float(sweep.x.max())
    ymin, ymax = float(sweep.values.min()), float(sweep.values.max())
    pad = (ymax - ymin) or abs(ymax) or 1.0
    ymin, ymax = ymin - 0.05 * pad, ymax + 0.05 * pad
    sx = ml + (sweep.x - xmin) / (xmax - xmin) * (width - ml - mr)
    sy = height - mb - (sweep.values - ymin) / (ymax - ymin) * (height - mt - mb)
    return " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(sx.tolist(), sy.tolist()))


@pytest.mark.parametrize("figure", ["packet", "electron"])
def test_svg_polyline_matches_pointwise_form(figure, tmp_path):
    if figure == "packet":
        params = qg.GaussianParams(m=1.0, beta=1.0, q=1.001)
        sweep = scenarios.run_gaussian_sweep(params, (0.0, 4.0, 1001))
    else:
        scn = scenarios.ParticleScenario.from_mev("electron", 1.0, 1e-3, x_range=(0.0, 1.0, 2001))
        sweep = scenarios.run_ratio_sweep(scn)
    path = tmp_path / "fig.svg"
    cli.emit_plot_svg(sweep, {"title": "t", "xlabel": "x", "ylabel": "y"}, str(path))
    points = re.search(r'<polyline points="([^"]*)"', path.read_text()).group(1)
    assert points == polyline_reference(sweep)


# -- ratio ---------------------------------------------------------------


def test_ratio_stdout_csv(capsys):
    code, out, _ = run(["ratio", "--points", "5", "--q-minus-1", "0"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "x,R"
    assert len(lines) == 6
    assert all(line.endswith(",1") for line in lines[1:])


def test_ratio_gaussian_header(capsys):
    code, out, _ = run(["ratio", "--gaussian", "--points", "3"], capsys)
    assert code == 0
    assert out.splitlines()[0] == "x,ratio"


def test_ratio_json(capsys):
    code, out, _ = run(["ratio", "--points", "3", "--format", "json"], capsys)
    assert code == 0
    records = json.loads(out)
    assert [r["x"] for r in records] == [0.0, 0.5, 1.0]
    assert all(set(r) == {"x", "R"} for r in records)
    assert out == json.dumps(records, indent=1) + "\n"
    rows = [(5e-324, 1.7976931348623157e308), (-0.0, 0.1 + 0.2), (1e-05, 123456789.0)]
    records = [{"x": x, "ratio": v} for x, v in rows]
    assert cli.format_rows_json(("x", "ratio"), rows) == json.dumps(records, indent=1) + "\n"
    assert cli.format_rows_json(("x", "R"), []) == json.dumps([], indent=1) + "\n"


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_ratio_refuses_non_finite_values(fmt, capsys):
    # (1-q) x^2 overflows the double range at q - 1 = 1e300
    code, out, err = run(
        ["ratio", "--gaussian", "--q-minus-1", "1e300", "--points", "5", "--format", fmt],
        capsys,
    )
    assert code == 3
    assert out == ""
    assert "numeric failure" in err


@pytest.mark.parametrize("xmax", ["inf", "nan", "-inf"])
def test_non_finite_xmax_is_usage_error(xmax, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["ratio", "--xmax", xmax])
    assert exc.value.code == 2
    assert "Warning" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv", [["ratio", "--xmax", "inf"], ["verify", "--tol", "no-equals-sign"]]
)
def test_usage_error_shows_subcommand_usage(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith(f"usage: qwave {argv[0]}")


@pytest.mark.parametrize(
    "mode, flag",
    [("--no-gaussian", "--q-minus-1"), ("--gaussian", "--q-minus-1"), ("--gaussian", "--t")],
)
def test_negative_exponent_form_is_a_value(mode, flag, capsys):
    base = ["ratio", mode, "--points", "5"]
    assert cli.main(base + [flag, "-1e-3"]) == 0
    spaced = capsys.readouterr().out
    assert cli.main(base + [f"{flag}=-1e-3"]) == 0
    assert spaced == capsys.readouterr().out


def test_points_bound_is_checked_before_allocating(capsys):
    for points in (10**11, cli.MAX_POINTS + 1):
        with pytest.raises(SystemExit) as exc:
            cli.main(["ratio", "--points", str(points)])
        assert exc.value.code == 2
    assert str(cli.MAX_POINTS) in capsys.readouterr().err


def test_config_layering(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("points=7\nxmax=2.0\n")
    code, out, _ = run(["ratio", "--config", str(cfg), "--points", "5"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 6  # explicit flag beats config
    assert lines[-1].startswith("2,")  # config beats hard default


def test_unknown_config_key_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("warp=9\n")
    with pytest.raises(SystemExit) as exc:
        cli.main(["ratio", "--config", str(cfg)])
    assert exc.value.code == 2


def test_bad_flag_value_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["ratio", "--species", "muon"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["ratio", "--points", "1"])
    assert exc.value.code == 2


def test_output_file_and_determinism(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert cli.main(["ratio", "--points", "64", "--out", str(a)]) == 0
    assert cli.main(["ratio", "--points", "64", "--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    assert b"\r" not in a.read_bytes()


def test_plot_script_emission(tmp_path, capsys):
    out = tmp_path / "fig.csv"
    code = cli.main(
        ["ratio", "--points", "10", "--out", str(out), "--plot", "script"]
    )
    capsys.readouterr()
    assert code == 0
    script = tmp_path / "fig_plot.py"
    assert script.exists()
    body = script.read_text()
    assert "fig.csv" in body and "matplotlib" in body


def test_plot_svg_emission(tmp_path, capsys):
    out = tmp_path / "fig.csv"
    code = cli.main(
        ["ratio", "--gaussian", "--points", "40", "--out", str(out), "--plot", "svg"]
    )
    capsys.readouterr()
    assert code == 0
    svg = (tmp_path / "fig.svg").read_text()
    assert svg.startswith("<svg ")
    assert "polyline" in svg


def test_plot_requires_out_and_csv(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["ratio", "--plot", "svg"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["ratio", "--plot", "script", "--format", "json", "--out", "x.json"])
    assert exc.value.code == 2


def test_plot_script_refuses_empty_csv(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("x,R\n")
    with pytest.raises(ValueError):
        cli.emit_plot_script(str(empty), {"title": "t", "xlabel": "x", "ylabel": "y"})
    with pytest.raises(ValueError):
        cli.emit_plot_svg([], {"title": "t", "xlabel": "x", "ylabel": "y"}, str(tmp_path / "e.svg"))


# -- verify --------------------------------------------------------------


def test_verify_single_suite_passes(capsys):
    code, out, _ = run(["verify", "--suite", "separation"], capsys)
    assert code == 0
    assert "separation.exact_residual_f" in out
    assert "FAIL" not in out
    assert "0 failed" in out.strip().splitlines()[-1]


def test_verify_tol_override_can_fail(capsys):
    code, out, _ = run(
        ["verify", "--suite", "planewave", "--tol", "planewave.modulus_identity=1e-20"],
        capsys,
    )
    assert code == 1
    assert "FAIL" in out


def test_verify_bad_tol_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--tol", "no-equals-sign"])
    assert exc.value.code == 2


def test_verify_report_row_never_fails(capsys):
    code, out, _ = run(["verify", "--suite", "gaussian"], capsys)
    assert code == 0
    report_lines = [l for l in out.splitlines() if "INFO" in l]
    assert len(report_lines) == 1
    assert "exact packet residual" in report_lines[0]
