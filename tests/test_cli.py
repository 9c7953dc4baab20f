"""CLI contract: flags and config files as one declaration, deterministic
writers, SVG plots, exit codes, and the verify table."""

import argparse
import contextlib
import errno
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import qwave
from qwave import checks, cli, scenarios
from qwave import planewave as pw
from qwave import qgaussian as qg
from qwave.errors import BranchCutViolation


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- helpers -------------------------------------------------------------


def test_read_config(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# comment\n\nspecies = proton\nenergy-mev=2.5\n")
    assert cli.read_config(str(path)) == [("species", "proton"), ("energy_mev", "2.5")]
    path.write_text("not a pair\n")
    with pytest.raises(ValueError):
        cli.read_config(str(path))


def test_csv_formatting_17_digits():
    rows = scenarios.Sweep(np.array([1.0 / 3.0]), np.array([0.1234567890123456789]))
    text = cli.format_rows_csv(("x", "R"), rows)
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
    sweep = scenarios.Sweep(*np.array(rows).T)
    assert cli.format_rows_json(("x", "ratio"), sweep) == json.dumps(records, indent=1) + "\n"
    empty = scenarios.Sweep(np.array([]), np.array([]))
    assert cli.format_rows_json(("x", "R"), empty) == json.dumps([], indent=1) + "\n"


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


MAX = "1.7976931348623157e308"


@pytest.mark.parametrize(
    "argv, named",
    [
        (["--points", "8", f"--t={MAX}"], "phase p x - E t is not finite at --t 1.797"),
        (["--points", "39", f"--xmax={MAX}"], "phase p x - E t is not finite at --xmax 1.797"),
        (["--gaussian", "--points", "39", f"--xmax={MAX}"], "exponent is not finite at --xmax"),
        (["--gaussian", "--points", "8", f"--t={MAX}"], "exponent is not finite at --t 1.797"),
        (["--gaussian", "--points", "3", "--t=-inf"], "exponent is not finite at --t -inf"),
        (["--points", "3", "--energy-mev", "1e308"], "momentum is not finite at --energy-mev 1e"),
        (["--gaussian", "--points", "3", "--beta", "1e-320"], "exponent is not finite at --beta"),
        (["--gaussian", "--points", "3", "--m", "1e-320"], "exponent is not finite at --m 1e-32"),
        (["--gaussian", "--points", "3", "--m", "1e308"], "exponent is not finite at --m 1e+308"),
        (["--points", "3", "--t=-inf"], "phase p x - E t is not finite at --t -inf"),
        (["--gaussian", "--points", "3", "--beta", "1e200"], "exponent is not finite at --beta 1e+200"),
        (["--gaussian", "--points", "3", "--m", "1e300"], "first-order term is not finite at --m 1e+300"),
        (["--q-minus-1", "0.5", "--xmax", "1e200", "--points", "3"],
         "first-order term is not finite at --xmax 1e+200"),
        # the first block meets the branch cut, a later one the overflow
        (["--gaussian", "--q-minus-1", "-0.5", "--xmax", "1e79", "--points", "1000000"],
         "first-order term is not finite at --xmax 1e+79"),
        # --q-minus-1 is set last, on top of the mode's defaults
        (["--q-minus-1", "1e308", "--points", "3"], "is not finite at --q-minus-1 1e+308"),
        (["--gaussian", "--q-minus-1", "1e308"], "is not finite at --q-minus-1 1e+308"),
        (["--q-minus-1", "nan", "--points", "3"], "is not finite at --q-minus-1 nan"),
        (["--gaussian", "--q-minus-1", "inf"], "is not finite at --q-minus-1 inf"),
        (["--gaussian", "--q-minus-1", "1e300", "--points", "5"],
         "argument (q-1) G is not finite at --q-minus-1 1e+300"),
        # a q < 1 packet at t = 0 has compact support: the base reaches the
        # cut at sqrt(5) - 1, where (q-1) G = -1
        (["--gaussian", "--q-minus-1", "-0.5"],
         "branch cut where (q-1) G = -1: set --xmax below x_c = 1.236067977499789"),
    ],
)
def test_overflow_refusal_names_the_flag(argv, named, capsys):
    code, out, err = run(["ratio", *argv], capsys)
    assert code == 3
    assert out == ""
    assert named in err
    assert "must be finite" not in err


@pytest.mark.parametrize("flags", [["--xmax", "1.2"], ["--t", "0.3"]])
def test_q_below_one_packet_inside_its_cutoff_is_not_refused(flags, capsys):
    # below x_c = sqrt(5) - 1, or off t = 0 where the base leaves the real axis
    code, out, err = run(["ratio", "--gaussian", "--q-minus-1", "-0.5", *flags], capsys)
    assert (code, err) == (0, "")
    assert out.startswith("x,ratio\n")


@pytest.mark.parametrize("xmax", ["inf", "nan", "-inf", "-nan", "-INF", "-NaN", "-Infinity"])
def test_non_finite_xmax_is_usage_error(xmax, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["ratio", "--xmax", xmax])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--xmax must be finite and positive" in err
    assert "Warning" not in err


@pytest.mark.parametrize("spelling", ["-inf", "-nan"])
def test_negative_non_finite_t_is_numeric_failure(spelling, capsys):
    assert cli.main(["ratio", "--points", "3", "--t", spelling]) == 3
    spaced = capsys.readouterr()
    assert cli.main(["ratio", "--points", "3", f"--t={spelling}"]) == 3
    assert spaced == capsys.readouterr()
    assert spaced.out == "" and "numeric failure" in spaced.err


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


@pytest.mark.parametrize("mode, qm1", [("--no-gaussian", "1e-17"), ("--gaussian", "-1e-17")])
@pytest.mark.parametrize("via_config", [False, True])
def test_q_minus_1_that_rounds_away_is_usage_error(mode, qm1, via_config, tmp_path, capsys):
    # 1.0 + 1e-17 == 1.0 in double: the sweep would run the undeformed q = 1
    cfg = tmp_path / "q.cfg"
    cfg.write_text(f"q-minus-1={qm1}\n")
    given = ["--config", str(cfg)] if via_config else ["--q-minus-1", qm1]
    with pytest.raises(SystemExit) as exc:
        cli.main(["ratio", mode, "--points", "3", "--xmax", "1e6", *given])
    assert exc.value.code == 2
    assert "--q-minus-1" in capsys.readouterr().err.splitlines()[-1]


def test_zero_q_minus_1_is_not_refused(capsys):
    code, out, err = run(["ratio", "--points", "3", "--q-minus-1", "0"], capsys)
    assert (code, err) == (0, "")
    assert out.splitlines()[1:] == ["0,1", "0.5,1", "1,1"]


def test_ratio_help_shows_both_modes_defaults(capsys):
    # each flag's help reads its plane-wave and packet defaults from _MODE_DEFAULTS
    with pytest.raises(SystemExit) as exc:
        cli.main(["ratio", "--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    for key in ("q_minus_1", "xmax", "points"):
        flag = "--" + key.replace("_", "-")
        plane, packet = (re.escape(f"{cli._MODE_DEFAULTS[g][key]:g}") for g in (False, True))
        assert re.search(rf"{flag} [A-Z_0-9]+ [^-]*default {plane}; {packet} packet", text), key


def test_points_bound_is_checked_before_allocating(capsys):
    for points in (10**11, cli.MAX_POINTS + 1):
        with pytest.raises(SystemExit) as exc:
            cli.main(["ratio", "--points", str(points)])
        assert exc.value.code == 2
    assert str(cli.MAX_POINTS) in capsys.readouterr().err


# -- the exit-code contract under hostile values --------------------------

HOSTILE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e-300, 1e300, -1e300,
                  1.7976931348623157e308, -1.7976931348623157e308,
                  math.inf, -math.inf, math.nan, 1.0, -1e-3, 1e-9, -0.5, 0.5]
FLOAT_FLAGS = ("--energy-mev", "--q-minus-1", "--xmax", "--t", "--m", "--beta")


def main_in_process(argv, config, tmp_path_factory):
    """Exit code and stderr of cli.main(argv), with config as a --config file:
    None for no file, "missing" for a path that does not exist, else its lines."""
    if config is not None:
        path = tmp_path_factory.getbasetemp() / "contract.cfg"
        if config == "missing":
            path.unlink(missing_ok=True)
        else:
            path.write_text("\n".join(config) + "\n")
        argv = [*argv, "--config", str(path)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


# no out= line: a drawn config must not write files
RATIO_CONFIG_LINES = ["points=5", "points=abc", "gaussian=yes", "gaussian=off", "gaussian=maybe",
                      "species=proton", "species=muon", "momentum_model=nonrelativistic",
                      "format=json", "format=xml", "plot=svg", "plot=script", "no-gaussian=1",
                      "config=other.cfg", "help=1", "warp=9", "tol=x=1", "no equals sign", "=1",
                      "# comment", ""]
hostile_config_lines = st.builds(
    lambda flag, value: f"{flag[2:]}={value!r}",
    st.sampled_from(FLOAT_FLAGS),
    st.sampled_from(HOSTILE_FLOATS),
)


@st.composite
def ratio_argvs(draw):
    argv = ["ratio", "--points", str(draw(st.integers(2, 40)))]
    argv += ["--format", draw(st.sampled_from(["csv", "json"]))]
    argv.append(draw(st.sampled_from(["--gaussian", "--no-gaussian"])))
    for flag in FLOAT_FLAGS:
        if draw(st.booleans()):
            text = repr(draw(st.sampled_from(HOSTILE_FLOATS) | st.floats()))
            argv += [f"{flag}={text}"] if draw(st.booleans()) else [flag, text]
    lines = st.sampled_from(RATIO_CONFIG_LINES) | hostile_config_lines
    config = draw(st.none() | st.just("missing") | st.lists(lines, max_size=4))
    return argv, config


@settings(deadline=None, max_examples=200)
@example((["ratio", "--points", "8", "--t=1.7976931348623157e308"], None))
@example((["ratio", "--points", "39", "--xmax=1.7976931348623157e308"], None))
@example((["ratio", "--points", "39", "--xmax=1.7976931348623157e308", "--gaussian"], None))
@given(ratio_argvs())
def test_ratio_exit_code_contract(tmp_path_factory, drawn):
    # in process; a warning is an error here, so one printed to stderr fails
    code, err = main_in_process(*drawn, tmp_path_factory)
    assert code in (cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_NUMERIC), (code, err)


SUITE_CHOICES = (*checks.SUITES, "all")
TOL_KEYS = list(checks.REGISTRY)
TOL_VALUES = ["1e-3", "0", "-1", "1e400", "nan", "inf", "-inf", "abc", ""]
CONFIG_LINES = ["suite=planewave", "suite = separation", "suite=bogus", "warp=9",
                "no equals sign", "=1", "# comment", ""]


@st.composite
def verify_argvs(draw):
    argv = ["verify"]
    if draw(st.booleans()):
        argv += ["--suite", draw(st.sampled_from(SUITE_CHOICES))]
    for _ in range(draw(st.integers(0, 3))):
        key = draw(
            st.sampled_from(TOL_KEYS)
            | st.sampled_from(["planewave.nope", ""])
        )
        value = draw(st.sampled_from(TOL_VALUES) | st.floats().map(repr))
        argv += ["--tol", f"{key}={value}" if draw(st.booleans()) else key]
    config = draw(st.none() | st.just("missing") | st.lists(st.sampled_from(CONFIG_LINES)))
    return argv, config


@settings(deadline=None, max_examples=60)
@given(verify_argvs())
def test_verify_exit_code_contract(tmp_path_factory, drawn):
    # in process; every suite is cheap enough to run once per example
    code, err = main_in_process(*drawn, tmp_path_factory)
    assert code in (cli.EXIT_OK, cli.EXIT_FAIL, cli.EXIT_USAGE), (code, err)


def test_config_layering(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("xmax=3.0\npoints=7\nxmax=2.0\n")
    code, out, _ = run(["ratio", "--config", str(cfg), "--points", "5"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 6  # explicit flag beats config
    assert lines[-1].startswith("2,")  # config beats hard default; its last xmax line wins


def test_unknown_config_key_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("warp=9\n")
    with pytest.raises(SystemExit) as exc:
        cli.main(["ratio", "--config", str(cfg)])
    assert exc.value.code == 2


def subcommand_parser(name):
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices[name]


# a non-default value of every ratio flag but --config, with the flags that
# make it show in the output
RATIO_FLAG_CASES = [
    (["--species", "proton"], ["--q-minus-1", "0.01"]),
    (["--energy-mev", "2.5"], ["--q-minus-1", "0.01"]),
    (["--q-minus-1", "1e-6"], []),
    (["--xmax", "0.5"], ["--q-minus-1", "0.01"]),
    (["--points", "7"], []),
    (["--t", "0.25"], ["--q-minus-1", "0.01"]),
    (["--momentum-model", "nonrelativistic"], ["--q-minus-1", "0.01"]),
    (["--gaussian"], []),
    (["--m", "2.0"], ["--gaussian"]),
    (["--beta", "0.5"], ["--gaussian"]),
    (["--out", "sweep.csv"], []),
    (["--format", "json"], []),
    (["--plot", "svg"], ["--out", "sweep.csv"]),
]


def test_ratio_flag_cases_cover_every_flag():
    ratio = subcommand_parser("ratio")
    flags = {a.option_strings[0] for a in ratio._actions} - {"-h", "--config"}
    assert {flag[0] for flag, _ in RATIO_FLAG_CASES} == flags


@pytest.mark.parametrize("flag, context", RATIO_FLAG_CASES, ids=lambda v: " ".join(v))
def test_config_line_equals_flag(flag, context, tmp_path, monkeypatch, capsys):
    """A config line gives the same stdout and files as the flag itself."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{flag[0][2:]}={flag[1] if len(flag) > 1 else 'yes'}\n")
    base = ["ratio", *context] + ([] if flag[0] == "--points" else ["--points", "5"])
    results = {}
    for how, extra in (("flag", flag), ("config", ["--config", str(cfg)]), ("neither", [])):
        workdir = tmp_path / how
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        code = cli.main([*base, *extra])
        files = {p.name: p.read_bytes() for p in workdir.iterdir()}
        results[how] = (code, capsys.readouterr().out, files)
    assert results["flag"][0] == 0
    assert results["config"] == results["flag"]
    assert results["neither"] != results["flag"]


def test_flag_overrides_config(tmp_path, capsys):
    cfg_ratio = tmp_path / "ratio.cfg"
    cfg_ratio.write_text("species=proton\nq-minus-1=0.01\n")
    base = ["ratio", "--points", "5"]
    _, layered, _ = run([*base, "--config", str(cfg_ratio), "--species", "electron"], capsys)
    _, electron, _ = run([*base, "--species", "electron", "--q-minus-1", "0.01"], capsys)
    _, proton, _ = run([*base, "--species", "proton", "--q-minus-1", "0.01"], capsys)
    assert layered == electron != proton
    cfg_verify = tmp_path / "verify.cfg"
    cfg_verify.write_text("suite=gaussian\n")
    code, out, _ = run(["verify", "--config", str(cfg_verify), "--suite", "separation"], capsys)
    assert code == 0
    assert {line.split(".")[0] for line in out.splitlines()[1:-1]} == {"separation"}


@pytest.mark.parametrize(
    "value, header",
    [(v, "x,ratio") for v in ("true", "yes", "on", "1", "TRUE", "Yes")]
    + [(v, "x,R") for v in ("false", "no", "off", "0", "FALSE", "Off")],
)
def test_config_gaussian_spellings(value, header, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"gaussian={value}\n")
    code, out, _ = run(["ratio", "--points", "3", "--config", str(cfg)], capsys)
    assert code == 0
    assert out.splitlines()[0] == header


@pytest.mark.parametrize("value", ["maybe", "2", "", "y"])
def test_config_gaussian_other_value_is_usage_error(value, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"gaussian={value}\n")
    with pytest.raises(SystemExit) as exc:
        cli.main(["ratio", "--config", str(cfg)])
    assert exc.value.code == 2
    assert "gaussian: expected a boolean" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["ratio", "verify"])
@pytest.mark.parametrize("line", ["config=other.cfg", "help=1", "warp=9", "no-gaussian=1",
                                  "spec=proton", "suit=all"])
def test_config_key_that_is_no_flag_is_refused(command, line, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--config", str(cfg)])
    assert exc.value.code == 2
    assert "unknown config key" in capsys.readouterr().err


def test_bad_config_value_gets_the_flags_message(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("points=abc\n")
    with pytest.raises(SystemExit) as exc:
        cli.main(["ratio", "--config", str(cfg), "--points", "5"])
    assert exc.value.code == 2
    assert "argument --points: invalid int value: 'abc'" in capsys.readouterr().err


def test_verify_config_tol_is_the_tol_flag(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("tol=planewave.modulus_identity=1e-20\ntol=planewave.psi_q_jet=1e-20\n")
    code, out, _ = run(["verify", "--suite", "planewave", "--config", str(cfg)], capsys)
    assert (code, out.count(" FAIL ")) == (1, 2)  # each line applies, as repeated --tol flags do
    cfg.write_text("tol=planewave.nope=1\n")
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--config", str(cfg)])
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


def test_plot_script_is_usage_error(tmp_path, capsys):
    out = tmp_path / "fig.csv"
    with pytest.raises(SystemExit) as exc:
        cli.main(["ratio", "--points", "10", "--out", str(out), "--plot", "script"])
    assert exc.value.code == 2
    assert "invalid choice: 'script'" in capsys.readouterr().err
    assert not out.exists()


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


def test_plot_svg_refuses_an_svg_out(tmp_path, capsys):
    out = tmp_path / "fig.svg"
    with pytest.raises(SystemExit) as exc:
        cli.main(["ratio", "--points", "3", "--out", str(out), "--plot", "svg"])
    assert exc.value.code == 2
    assert "--out" in capsys.readouterr().err
    assert not out.exists()


def test_unwritable_out_is_usage_error(tmp_path, capsys):
    code, _, err = run(["ratio", "--points", "3", "--out", str(tmp_path)], capsys)
    assert code == cli.EXIT_USAGE
    assert "cannot write output" in err


def test_failed_plot_write_leaves_no_data_file(tmp_path, capsys):
    (tmp_path / "fig.svg").mkdir()
    out = tmp_path / "fig.csv"
    code, _, err = run(["ratio", "--points", "3", "--out", str(out), "--plot", "svg"], capsys)
    assert code == cli.EXIT_USAGE
    assert "cannot write output: --plot svg" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fig.svg"]


def test_plot_failing_after_the_data_file_removes_it(tmp_path, monkeypatch, capsys):
    out = tmp_path / "fig.csv"
    out.write_text("old\n")

    def no_space(rows, meta, out_path):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(cli, "emit_plot_svg", no_space)
    code, _, err = run(["ratio", "--points", "3", "--out", str(out), "--plot", "svg"], capsys)
    assert code == cli.EXIT_USAGE
    assert "No space left on device" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("plot", ["none", "svg"])
def test_failed_data_write_removes_the_partial_file(plot, tmp_path, monkeypatch, capsys):
    written = []

    def write_then_fail(out, text):
        if written:
            raise OSError(errno.ENOSPC, "No space left on device")
        written.append(out.write(text))

    monkeypatch.setattr(cli, "_write_output", write_then_fail)
    out = tmp_path / "fig.json"
    argv = ["ratio", "--points", str(2 * B), "--format", "json", "--out", str(out), "--plot", plot]
    code, _, err = run(argv, capsys)
    assert code == cli.EXIT_USAGE and written
    assert list(tmp_path.iterdir()) == []


def test_failed_write_keeps_what_is_not_a_regular_file(tmp_path, capsys):
    if not os.path.exists("/dev/full"):
        pytest.skip("needs /dev/full")
    link = tmp_path / "full.csv"
    link.symlink_to("/dev/full")
    code, _, err = run(["ratio", "--points", "3", "--out", str(link)], capsys)
    assert code == cli.EXIT_USAGE
    assert "cannot write output" in err
    assert link.is_symlink() and os.readlink(link) == "/dev/full"


@pytest.mark.parametrize("where, flag", [
    ("dir", "--out"), ("missing/fig.csv", "--out"), ("file/fig.csv", "--out"),
    ("fig.csv", "--plot svg"),
])
def test_unusable_out_is_refused_before_the_sweep(where, flag, tmp_path, monkeypatch, capsys):
    def not_called(*args):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(scenarios, "run_ratio_sweep", not_called)
    (tmp_path / "dir").mkdir()
    (tmp_path / "fig.svg").mkdir()
    (tmp_path / "file").write_text("")
    before = sorted(p.name for p in tmp_path.iterdir())
    argv = ["ratio", "--points", "2000001", "--out", str(tmp_path / where)]
    code, _, err = run(argv + (["--plot", "svg"] if flag == "--plot svg" else []), capsys)
    assert code == cli.EXIT_USAGE
    assert f"cannot write output: {flag} " in err
    assert sorted(p.name for p in tmp_path.iterdir()) == before
    assert (tmp_path / "file").read_text() == ""


def test_plot_requires_out_and_csv(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["ratio", "--plot", "svg"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["ratio", "--plot", "script", "--format", "json", "--out", "x.json"])
    assert exc.value.code == 2


def test_plot_svg_refuses_empty_rows(tmp_path):
    with pytest.raises(ValueError):
        cli.emit_plot_svg([], {"title": "t", "xlabel": "x", "ylabel": "y"}, str(tmp_path / "e.svg"))


# -- sweeps are evaluated and written in blocks ---------------------------

B = scenarios.BLOCK_ROWS


def whole_grid_sweeps(n):
    """(CLI flags, header, Sweep, values of one whole-array ratio call) for
    the plane wave and the packet at n points."""
    scn = scenarios.ParticleScenario.from_mev("electron", 1.0, 1e-3, x_range=(0.0, 1.0, n))
    params = qg.GaussianParams(m=1.0, beta=1.0, q=1.001)
    xs_pw, xs_pk = np.linspace(0.0, 1.0, n), np.linspace(0.0, 4.0, n)
    return [
        (["--q-minus-1", "1e-3"], ("x", "R"), scenarios.run_ratio_sweep(scn),
         pw.ratio_R(pw.PhasePoint(xs_pw), scenarios.wave_for(scn), 1.001)),
        (["--gaussian"], ("x", "ratio"), scenarios.run_gaussian_sweep(params, (0.0, 4.0, n)),
         qg.ratio_gaussian(xs_pk, 0.0, params)),
    ]


@pytest.mark.parametrize("n", [2, B - 1, B, B + 1, 2 * B + 1])
def test_block_boundaries_keep_values_and_bytes(n, tmp_path, capsys):
    for flags, header, sweep, whole in whole_grid_sweeps(n):
        assert sweep.values.tobytes() == whole.tobytes()
        xs, vs = sweep.x.tolist(), whole.tolist()
        for fmt, reference in (("csv", csv_reference), ("json", json_reference)):
            expected = reference(header, xs, vs)
            argv = ["ratio", *flags, "--points", str(n), "--format", fmt]
            assert run(argv, capsys) == (0, expected, "")
            path = tmp_path / f"sweep.{fmt}"
            assert run([*argv, "--out", str(path)], capsys) == (0, "", "")
            assert path.read_text() == expected


def test_refusal_in_the_last_block_writes_nothing(tmp_path, capsys):
    # 1 - 0.5 G reaches the branch cut at x = sqrt(5) - 1 = 1.236, which the
    # 5,000-point grid over [0, 1.25] reaches only in its last block
    params = qg.GaussianParams(m=1.0, beta=1.0, q=0.5)
    xs = np.linspace(0.0, 1.25, 5000)
    qg.ratio_gaussian(xs[: 2 * B], 0.0, params)
    with pytest.raises(BranchCutViolation):
        qg.ratio_gaussian(xs[2 * B:], 0.0, params)
    out = tmp_path / "sweep.csv"
    argv = ["ratio", "--gaussian", "--q-minus-1", "-0.5", "--xmax", "1.25", "--points", "5000",
            "--out", str(out)]
    refusal = (3, "", "qwave: numeric failure: the packet's q-power base 1 + (q-1) G reaches the "
               "branch cut where (q-1) G = -1: set --xmax below x_c = 1.2360679774997896 "
               "(got --xmax 1.25)\n")
    assert run(argv, capsys) == refusal
    assert not out.exists()
    out.write_text("earlier run\n")
    os.utime(out, ns=(1, 1))
    assert run(argv, capsys) == refusal
    assert out.read_text() == "earlier run\n"
    assert out.stat().st_mtime_ns == 1


def test_benchmark_sweeps_hold_no_whole_grid_temporaries(tmp_path, capsys):
    """The 200,001-point sweeps keep their two grid arrays (3.2 MB) and one
    block of temporaries and text at a time; formatting the whole file at
    once peaked at about 30 MB."""
    commands = [
        ["ratio", "--species", "electron", "--energy-mev", "1.0", "--q-minus-1", "1e-9",
         "--format", "json"],
        ["ratio", "--gaussian", "--q-minus-1", "1e-3", "--m", "1.0", "--beta", "1.0",
         "--xmax", "4.0", "--format", "csv"],
    ]
    for argv in commands:
        out = str(tmp_path / "sweep")
        assert cli.main([*argv, "--points", "3", "--out", out]) == 0  # loads what the run imports
        tracemalloc.start()
        try:
            assert cli.main([*argv, "--points", "200001", "--out", out]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6, (argv, peak)
    assert capsys.readouterr() == ("", "")


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


def test_verify_tol_that_is_not_a_number_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--tol", "planewave.pair_cancellation=abc"])
    assert exc.value.code == 2
    assert "not a number" in capsys.readouterr().err


def test_verify_unknown_tol_key_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--suite", "planewave", "--tol", "planewave.pair_cancelation=1e-30"])
    assert exc.value.code == 2
    assert "'planewave.pair_cancelation'" in capsys.readouterr().err


def test_verify_tol_for_unselected_suite_is_accepted(capsys):
    code, out, _ = run(
        ["verify", "--suite", "planewave", "--tol", "separation.f_jet=1e-30"], capsys
    )
    assert code == 0
    assert out.strip().splitlines()[-1].startswith("12 checks: 12 passed, 0 failed")


@pytest.mark.parametrize("value", ["nan", "-inf", "inf", "NaN"])
def test_verify_non_finite_tol_is_usage_error(value, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--suite", "planewave", "--tol", f"planewave.pair_cancellation={value}"])
    assert exc.value.code == 2
    assert "planewave.pair_cancellation: must be finite" in capsys.readouterr().err


def test_verify_runs_every_registry_entry_in_order(capsys):
    code, out, _ = run(["verify"], capsys)
    lines = out.strip().splitlines()
    assert code == 0
    assert lines[-1].startswith("44 checks: 44 passed, 0 failed")
    assert [line.split()[0] for line in lines[1:-1]] == list(checks.REGISTRY)
    assert len(checks.REGISTRY) == 44
    suite = next(a for a in subcommand_parser("verify")._actions if a.dest == "suite")
    assert set(suite.choices) == {c.key.split(".")[0] for c in checks.REGISTRY.values()} | {"all"}


def test_registry_size_matches_the_benchmark_gate():
    # perfbench/run.py fails a verify_session run whose table does not list
    # exactly VERIFY_CHECKS checks; a new check must update both together
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench", "run.py")
    with open(path, encoding="utf-8") as fh:
        gate = re.search(r"^VERIFY_CHECKS = (\d+)$", fh.read(), re.MULTILINE)
    assert gate is not None
    assert len(checks.REGISTRY) == int(gate.group(1))


def test_verify_fits_each_order_once_per_run(monkeypatch, capsys):
    fits = []
    real_fit = checks.verify.order_of_convergence
    monkeypatch.setattr(
        checks.verify, "order_of_convergence", lambda *a: fits.append(a) or real_fit(*a)
    )
    for runs in (1, 2):
        code, out, _ = run(["verify", "--suite", "separation"], capsys)
        assert code == 0
        assert len(fits) == 2 * runs  # f_order and g_order, each fitted afresh per run


# -- numpy is loaded by the sweep path only -------------------------------

NUMPY_PROBE = """
import sys
preloaded = set(sys.modules)  # a site hook may load some of these itself

def loaded(*names):
    return [name for name in names if name in sys.modules and name not in preloaded]

import qwave
assert "numpy" not in sys.modules, "import qwave"
from qwave import cli
assert "numpy" not in sys.modules, "import qwave.cli"
NEVER = ("dataclasses", "inspect", "json", "qwave.csvtext")
assert not loaded(*NEVER), loaded(*NEVER)
assert cli.main(["verify"]) == 0
assert "numpy" not in sys.modules, "qwave verify"
assert not loaded(*NEVER), loaded(*NEVER)
assert cli.main(["ratio", "--points", "3"]) == 0
assert "numpy" in sys.modules, "qwave ratio"
assert "qwave.csvtext" in sys.modules, "a CSV sweep did not use the numpy formatter"
assert not loaded("json", "numpy.ma"), loaded("json", "numpy.ma")
"""


def test_only_the_sweep_path_imports_numpy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(qwave.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_PROBE],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "44 checks: 44 passed, 0 failed" in proc.stdout


def test_run_figures_script_writes_every_figure(tmp_path):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "scripts", "run_figures.py"),
         "--points", "21", "--outdir", str(tmp_path)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    names = [f"ratio_{species}_qm1_{qm1}" for species in ("electron", "proton")
             for qm1 in ("1e-9", "1e-12")] + ["ratio_gaussian_qm1_1e-3"]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        name + suffix for name in names for suffix in (".csv", ".svg"))
    for name in names:
        header = (tmp_path / f"{name}.csv").read_text().partition("\n")[0]
        assert header == ("x,ratio" if "gaussian" in name else "x,R")
        assert (tmp_path / f"{name}.svg").read_text().startswith("<svg ")
