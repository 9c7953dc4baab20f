"""CLI contract: each invocation's exit code, output and files in one table
(CONTRACT), flags and argument files as one declaration, deterministic
writers, SVG plots and the verify table."""

import argparse
import ast
import contextlib
import errno
import gc
import io
import json
import math
import os
import platform
import re
import subprocess
import sys
import tracemalloc
from array import array
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import qwave
from qwave import checks, cli, scenarios
from qwave import qgaussian as qg
from qwave.errors import BranchCutViolation
from ratio_paths import BLOCK_EDGES, Packet, PlaneWave


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- helpers -------------------------------------------------------------


def test_csv_formatting_17_digits():
    rows = scenarios.Sweep({"x": np.array([1.0 / 3.0]), "R": np.array([0.1234567890123456789])})
    text = cli.format_rows_csv(("x", "R"), rows)
    assert text == "x,R\n0.33333333333333331,0.12345678901234568\n"


# -- writers on Sweep input ---------------------------------------------

B = scenarios.BLOCK_ROWS
EDGE_DOUBLES = [5e-324, 1.7976931348623157e308, -0.0, 0.1 + 0.2, 1e-05, 1e16, 1e22]


def csv_reference(header, *columns):
    lines = [",".join(header)] + [",".join(["%.17g"] * len(row)) % row for row in zip(*columns)]
    return "\n".join(lines) + "\n"


def json_reference(header, *columns):
    records = [dict(zip(header, row)) for row in zip(*columns)]
    return json.dumps(records, indent=1) + "\n"


# numpy columns go to qwave.floattext, the array.array of a one-block sweep to "%"
COLUMN_KINDS = (lambda v: np.array(v, dtype=float), lambda v: array("d", v))


def check_writers(xs, vs, ws):
    """Both writers on a three-column sweep: a header prints the columns it
    names, all three or two of them, in its own order."""
    for column in COLUMN_KINDS:
        sweep = scenarios.Sweep({"x": column(xs), "R": column(vs), "w": column(ws)})
        for header, columns in ((("x", "R", "w"), (xs, vs, ws)), (("x", "R"), (xs, vs)),
                                (("w", "x"), (ws, xs))):
            assert cli.format_rows_csv(header, sweep) == csv_reference(header, *columns)
            assert cli.format_rows_json(header, sweep) == json_reference(header, *columns)


def test_writers_on_edge_doubles():
    edges = EDGE_DOUBLES + [-v for v in EDGE_DOUBLES]
    check_writers(edges, edges[::-1], edges[1:] + edges[:1])


finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(deadline=None)
@given(st.lists(st.tuples(finite, finite, finite), max_size=20))
def test_writers_on_finite_doubles(rows):
    check_writers(*([row[i] for row in rows] for i in range(3)))


def test_writers_on_empty_sweep():
    for column in COLUMN_KINDS:
        empty = scenarios.Sweep({"x": column([]), "R": column([])})
        assert cli.format_rows_csv(("x", "R"), empty) == "x,R\n"
        assert cli.format_rows_json(("x", "R"), empty) == "[]\n"


# a float block of B rows and numpy blocks past it, and both kinds shorter than a block
@pytest.mark.parametrize("n, column", [(2048, COLUMN_KINDS[1]), (4101, COLUMN_KINDS[0]),
                                       (B, COLUMN_KINDS[1]), (2 * B + 5, COLUMN_KINDS[0])])
def test_three_column_sweep_writes_and_plots_block_by_block(n, column, tmp_path):
    """A sweep with a third column needs nothing new of the writers or the
    plot: written block by block it has the bytes of the whole file, and a
    header picks out the columns it names, and the plot the first after x."""
    xs = np.linspace(0.0, 1.0, n).tolist()
    vs, ws = [math.cos(x) for x in xs], [-x / 3.0 for x in xs]
    sweep = scenarios.Sweep({"x": column(xs), "R": column(vs), "w": column(ws)})
    blocks = sweep.blocks()
    assert [len(b) for b in blocks] == [min(B, n - i) for i in range(0, n, B)]
    for name, values in (("x", xs), ("R", vs), ("w", ws)):
        assert [v for b in blocks for v in b.columns[name].tolist()] == values
    header = ("x", "R", "w")
    for fmt, format_rows, reference in (("csv", cli.format_rows_csv, csv_reference),
                                        ("json", cli.format_rows_json, json_reference)):
        out = io.StringIO()
        cli._write_sweep(out, fmt, sweep)
        assert out.getvalue() == format_rows(header, sweep) == reference(header, xs, vs, ws)
        assert format_rows(("w", "x"), sweep) == reference(("w", "x"), ws, xs)
    path = tmp_path / "w.svg"
    w_first = scenarios.Sweep({name: sweep.columns[name] for name in ("x", "w", "R")})
    cli.emit_plot_svg(w_first, {"title": "t", "xlabel": "x"}, str(path))
    svg = path.read_text()
    assert re.search(r'<polyline points="([^"]*)"', svg).group(1) == polyline_reference(xs, ws)
    assert svg.endswith(">w</text>\n</svg>\n")


def polyline_reference(xs, vs):
    """The polyline points of emit_plot_svg, scaled in numpy and formatted
    point by point."""
    width, height, ml, mr, mt, mb = 800.0, 500.0, 75.0, 20.0, 45.0, 55.0
    xs, vs = np.asarray(xs), np.asarray(vs)
    xmin, xmax = float(xs.min()), float(xs.max())
    ymin, ymax = float(vs.min()), float(vs.max())
    pad = (ymax - ymin) or abs(ymax) or 1.0
    ymin, ymax = ymin - 0.05 * pad, ymax + 0.05 * pad
    sx = ml + (xs - xmin) / (xmax - xmin) * (width - ml - mr)
    sy = height - mb - (vs - ymin) / (ymax - ymin) * (height - mt - mb)
    return " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(sx.tolist(), sy.tolist()))


@pytest.mark.parametrize("figure", ["packet", "electron", "multi-block"])
def test_svg_polyline_matches_pointwise_form(figure, tmp_path):
    if figure == "packet":
        params = qg.GaussianParams(m=1.0, beta=1.0, q=1.001)
        sweep = scenarios.run_gaussian_sweep(params, (0.0, 4.0, 1001))
    else:
        n = 2001 if figure == "electron" else 2 * scenarios.BLOCK_ROWS + 1
        scn = scenarios.ParticleScenario.from_mev("electron", 1.0, 1e-3, x_range=(0.0, 1.0, n))
        sweep = scenarios.run_ratio_sweep(scn)
    path = tmp_path / "fig.svg"
    cli.emit_plot_svg(sweep, {"title": "t", "xlabel": "x"}, str(path))
    svg = path.read_text()
    points = re.search(r'<polyline points="([^"]*)"', svg).group(1)
    assert points == polyline_reference(*sweep.columns.values())
    # the grid is the first column, whatever its name: a sweep over u plots the same
    over_u = scenarios.Sweep(dict(zip(("u", *list(sweep.columns)[1:]), sweep.columns.values())))
    assert len(over_u) == len(sweep)
    cli.emit_plot_svg(over_u, {"title": "t", "xlabel": "x"}, str(path))
    assert path.read_text() == svg


# -- ratio ---------------------------------------------------------------


def test_ratio_json(capsys):
    code, out, _ = run(["ratio", "--points", "3", "--format", "json"], capsys)
    assert code == 0
    records = json.loads(out)
    assert [r["x"] for r in records] == [0.0, 0.5, 1.0]
    assert all(set(r) == {"x", "R"} for r in records)
    assert out == json.dumps(records, indent=1) + "\n"
    rows = [(5e-324, 1.7976931348623157e308), (-0.0, 0.1 + 0.2), (1e-05, 123456789.0)]
    records = [{"x": x, "ratio": v} for x, v in rows]
    sweep = scenarios.Sweep(dict(zip(("x", "ratio"), np.array(rows).T)))
    assert cli.format_rows_json(("x", "ratio"), sweep) == json.dumps(records, indent=1) + "\n"
    empty = scenarios.Sweep({"x": np.array([]), "R": np.array([])})
    assert cli.format_rows_json(("x", "R"), empty) == json.dumps([], indent=1) + "\n"


def test_ratio_gaussian_huge_beta_is_its_limit(capsys):
    # 8 m beta^2 overflows from |beta| ~ 4.7e153, where the first-order c2 must
    # keep its -L0/4 term; the beta -> inf limit is reached by 1e150
    code, want, err = run(["ratio", "--gaussian", "--t", "0.5", "--beta", "1e150", "--points", "3"],
                          capsys)
    assert (code, err) == (0, "")
    for beta in ("5e153", "1e154", "1e200"):
        argv = ["ratio", "--gaussian", "--t", "0.5", "--beta", beta, "--points", "3"]
        assert run(argv, capsys) == (0, want, ""), beta
    assert run(["ratio", "--gaussian", "--beta", "1e200", "--points", "3"], capsys)[0] == 0


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


# -- the exit-code contract under hostile values --------------------------

HOSTILE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e-300, 1e300, -1e300,
                  1.7976931348623157e308, -1.7976931348623157e308,
                  math.inf, -math.inf, math.nan, 1.0, -1e-3, 1e-9, -0.5, 0.5]
FLOAT_FLAGS = ("--energy-mev", "--q-minus-1", "--xmax", "--t", "--m", "--beta")


def main_in_process(argv, lines, directory):
    """Exit code, stdout and stderr of cli.main(argv) with an argument file in
    directory after argv: None for no file, "missing" for a path that does not
    exist, "directory" for a directory, else the file's lines (str or bytes;
    SELF names the file)."""
    if lines is not None:
        path = directory / "contract.args"
        path.unlink(missing_ok=True)
        if lines == "directory":
            path = path.parent
        elif lines != "missing":
            path.write_bytes(b"".join(
                line + b"\n" if isinstance(line, bytes) else
                f"{line.replace(SELF, f'@{path}')}\n".encode() for line in lines))
        argv = [*argv, f"@{path}"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


NUMERIC, ERROR = "qwave: numeric failure: ", "qwave: error: "
RATIO_ERROR, VERIFY_ERROR = "qwave ratio: error: ", "qwave verify: error: "
UNWRITABLE = "qwave: cannot write output: "
PREFIXES = (NUMERIC, ERROR, RATIO_ERROR, VERIFY_ERROR, UNWRITABLE)  # the CLI's refusals


def check_streams(code, out, err):
    """Exit 0 or 1 writes nothing to stderr; exit 2 or 3 writes nothing to
    stdout, and stderr's last line is one of the CLI's refusals, not a traceback."""
    if code in (cli.EXIT_OK, cli.EXIT_FAIL):
        assert err == "", (code, err)
    else:
        assert out == "" and (err.splitlines() or [""])[-1].startswith(PREFIXES), (code, out, err)


SELF = "@SELF"  # a line that names its own file
# no --out line: a drawn file must not write files
RATIO_FILE_LINES = ["--points=5", "--points=abc", "--points", "5", "--gaussian", "--no-gaussian",
                    "--species=proton", "--species=muon", "--momentum-model=nonrelativistic",
                    "--format=json", "--format=xml", "--plot=svg", "--plot=script",
                    "--config=other.args", "--gauss", "--warp=9", "--tol=x=1", "ratio",
                    "@missing.args", "# comment", "", SELF]
hostile_file_lines = st.builds(
    lambda flag, value: f"{flag}={value!r}",
    st.sampled_from(FLOAT_FLAGS),
    st.sampled_from(HOSTILE_FLOATS),
)
file_contents = st.none() | st.sampled_from(["missing", "directory"])


@st.composite
def ratio_argvs(draw):
    # one block, evaluated point by point on floats, or two, in numpy
    points = draw(st.integers(2, 40) | st.just(scenarios.BLOCK_ROWS + 1))
    argv = ["ratio", "--points", str(points)]
    argv += ["--format", draw(st.sampled_from(["csv", "json"]))]
    argv.append(draw(st.sampled_from(["--gaussian", "--no-gaussian"])))
    for flag in FLOAT_FLAGS:
        if draw(st.booleans()):
            text = repr(draw(st.sampled_from(HOSTILE_FLOATS) | st.floats()))
            argv += [f"{flag}={text}"] if draw(st.booleans()) else [flag, text]
    lines = st.sampled_from(RATIO_FILE_LINES) | hostile_file_lines
    return argv, draw(file_contents | st.lists(lines, max_size=4))


@settings(deadline=None, max_examples=200)
@example((["ratio", "--points", "8", "--t=1.7976931348623157e308"], None))
@example((["ratio", "--points", "39", "--xmax=1.7976931348623157e308"], None))
@example((["ratio", "--points", "39", "--xmax=1.7976931348623157e308", "--gaussian"], None))
@example((["ratio", "--points", "3"], [b"--points=\xff"]))
@example((["ratio", "--points", "3"], [SELF]))
@given(ratio_argvs())
def test_ratio_exit_code_contract(tmp_path_factory, drawn):
    # in process; a warning is an error here, so one printed to stderr fails
    code, out, err = main_in_process(*drawn, tmp_path_factory.getbasetemp())
    assert code in (cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_NUMERIC), (code, err)
    assert "division by zero" not in err
    check_streams(code, out, err)


log_uniform = st.builds(lambda sign, k: sign * 10.0 ** k, st.sampled_from([1.0, -1.0]),
                        st.floats(-320.0, 308.0))


@settings(deadline=None, max_examples=150)
@example(["--gaussian", "--m=1e-300", "--beta=1e-300"])
@example(["--gaussian", "--m=1e-300", "--beta=1e-5", "--q-minus-1=1e10"])
@given(st.builds(
    lambda gaussian, values: [gaussian] + [f"{flag}={v!r}" for flag, v in zip(FLOAT_FLAGS, values)
                              if v is not None],
    st.sampled_from(["--gaussian", "--no-gaussian"]),
    st.tuples(*[st.none() | log_uniform] * len(FLOAT_FLAGS)),
))
def test_no_division_by_zero_is_left_to_catch(tmp_path_factory, argv):
    # the sweep's and _overflow_refusal's except clauses catch qwave's typed
    # errors only: a builtin ZeroDivisionError from a sweep, its parameters or
    # the refusals would reach main as "numeric failure: ... division by zero"
    code, out, err = main_in_process(["ratio", "--points", "5", *argv], None,
                                     tmp_path_factory.getbasetemp())
    assert code in (cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_NUMERIC), (code, err)
    assert "division by zero" not in err
    check_streams(code, out, err)


SUITE_CHOICES = (*checks.SUITES, "all")
TOL_KEYS = list(checks.REGISTRY)
TOL_VALUES = ["1e-3", "0", "-1", "1e400", "nan", "inf", "-inf", "abc", ""]
VERIFY_FILE_LINES = ["--suite=planewave", "--suite", "separation", "--suite=bogus", "--su=all",
                     "--warp=9", "--tol=planewave.nope=1", "--tol", "# comment", "", SELF]


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
    return argv, draw(file_contents | st.lists(st.sampled_from(VERIFY_FILE_LINES)))


@settings(deadline=None, max_examples=60)
@example((["verify"], [b"--suite=\xff"]))
@example((["verify"], [SELF]))
@given(verify_argvs())
def test_verify_exit_code_contract(tmp_path_factory, drawn):
    # in process; every suite is cheap enough to run once per example
    code, out, err = main_in_process(*drawn, tmp_path_factory.getbasetemp())
    assert code in (cli.EXIT_OK, cli.EXIT_FAIL, cli.EXIT_USAGE), (code, err)
    check_streams(code, out, err)


def subcommand_parser(name):
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices[name]


# a non-default value of every ratio flag, with the flags that
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
    flags = {a.option_strings[0] for a in ratio._actions} - {"-h"}
    assert {flag[0] for flag, _ in RATIO_FLAG_CASES} == flags


@pytest.mark.parametrize("flag, context", RATIO_FLAG_CASES, ids=lambda v: " ".join(v))
def test_file_line_equals_flag(flag, context, tmp_path, monkeypatch, capsys):
    """A line of an argument file gives the same stdout and files as the flag itself."""
    path = tmp_path / "run.args"
    path.write_text("=".join(flag) + "\n")
    base = ["ratio", *context] + ([] if flag[0] == "--points" else ["--points", "5"])
    results = {}
    for how, extra in (("flag", flag), ("file", [f"@{path}"]), ("neither", [])):
        workdir = tmp_path / how
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        code = cli.main([*base, *extra])
        files = {p.name: p.read_bytes() for p in workdir.iterdir()}
        results[how] = (code, capsys.readouterr().out, files)
    assert results["flag"][0] == 0
    assert results["file"] == results["flag"]
    assert results["neither"] != results["flag"]


def test_a_later_flag_wins(tmp_path, capsys):
    # a file's lines stand in its place on the command line
    path = tmp_path / "ratio.args"
    path.write_text("--species=proton\n--q-minus-1=0.01\n--xmax=3.0\n--xmax=2.0\n")
    base = ["ratio", "--points", "5", "--q-minus-1", "0.01", "--xmax", "2.0"]
    _, electron, _ = run([*base, "--species", "electron"], capsys)
    _, proton, _ = run([*base, "--species", "proton"], capsys)
    _, after, _ = run(["ratio", "--points", "5", f"@{path}", "--species", "electron"], capsys)
    _, before, _ = run(["ratio", "--points", "5", "--species", "electron", f"@{path}"], capsys)
    assert after == electron != proton == before  # and of the file's two --xmax, the last
    path = tmp_path / "verify.args"
    path.write_text("--suite=gaussian\n")
    code, out, _ = run(["verify", f"@{path}", "--suite", "separation"], capsys)
    assert code == 0
    assert {line.split(".")[0] for line in out.splitlines()[1:-1]} == {"separation"}


# -- the CLI contract: one invocation a row -------------------------------


class Call(NamedTuple):
    id: str
    argv: str  # the arguments after "qwave", split at spaces
    code: int
    text: str = ""  # the start of stderr's last line; exit 0 and 1 write no stderr
    out: str = ""  # a pattern for the whole of stdout (re.fullmatch)
    lines: object = None  # an argument file after argv, as main_in_process takes it
    files: tuple = ()  # (name, pattern of its text) of each file the call adds


UNRECOGNIZED = f"{ERROR}unrecognized arguments: "
MAX = "1.7976931348623157e308"
GAUSSIAN_VALUE = f"{RATIO_ERROR}argument --gaussian/--no-gaussian: ignored explicit argument"
ANY_LINES = r"(.*\n)*"
FIXTURES = {"dir": None, "file": b"", "taken.svg": None}  # each call's working directory


def csv(header, n):
    """The pattern of a CSV text of n rows under its header."""
    return header + r"\n(.*,.*\n){%d}" % n


def verify_table(checks_run, failed):
    """The pattern of verify's table, whose time invoke masks."""
    return f"{ANY_LINES}{checks_run} checks: {checks_run - failed} passed, {failed} failed \\[s\\]\n"


# exit 3: an overflow names its quantity and the flag at whose value it occurred;
# --q-minus-1 is set last, on top of the mode's defaults. A row (flags, text before
# its id, id, text after it) pins the whole message; its test id is argvN-id
PACKET, FIRST, BASE = "packet ", "first-order term ", "packet's q-power base 1 + (q-1) G reaches the "
OVERFLOW = [Call(named, f"ratio {flags}", 3, f"{NUMERIC}the {before}{named}{after}")
            for flags, before, named, after in [
    (f"--points 8 --t={MAX}", "", "phase p x - E t is not finite at --t 1.797", ""),
    (f"--points 39 --xmax={MAX}", "", "phase p x - E t is not finite at --xmax 1.797", ""),
    (f"--gaussian --points 39 --xmax={MAX}", PACKET, "exponent is not finite at --xmax", " 1.797"),
    (f"--gaussian --points 8 --t={MAX}", PACKET, "exponent is not finite at --t 1.797", ""),
    ("--gaussian --points 3 --t=-inf", PACKET, "exponent is not finite at --t -inf", ""),
    ("--points 3 --energy-mev 1e308", "", "momentum is not finite at --energy-mev 1e", "+308"),
    ("--gaussian --points 3 --beta 1e-320", PACKET, "exponent is not finite at --beta", " 1e-320"),
    ("--gaussian --points 3 --m 1e-320", PACKET, "exponent is not finite at --m 1e-32", "0"),
    ("--gaussian --points 3 --m 1e308", PACKET, "exponent is not finite at --m 1e+308", ""),
    ("--points 3 --t=-inf", "", "phase p x - E t is not finite at --t -inf", ""),
    # 1/beta is finite, kappa = 1/(4 m beta^2) is not
    ("--gaussian --points 3 --beta 1e-160", PACKET, "exponent is not finite at --beta 1e-160", ""),
    ("--gaussian --points 3 --m 1e300", "", "first-order term is not finite at --m 1e+300", ""),
    ("--q-minus-1 0.5 --xmax 1e200 --points 3", "", "first-order term is not finite at --xmax 1e+200", ""),
    # the first block meets the branch cut, a later one the overflow
    ("--gaussian --q-minus-1 -0.5 --xmax 1e79 --points 1000000", "",
     "first-order term is not finite at --xmax 1e+79", ""),
    ("--q-minus-1 1e308 --points 3", FIRST, "is not finite at --q-minus-1 1e+308", ""),
    ("--gaussian --q-minus-1 1e308", PACKET + "exponent ", "is not finite at --q-minus-1 1e+308", ""),
    ("--q-minus-1 nan --points 3", FIRST, "is not finite at --q-minus-1 nan", ""),
    ("--gaussian --q-minus-1 inf", FIRST, "is not finite at --q-minus-1 inf", ""),
    # (1-q) x^2 overflows the double range at q - 1 = 1e300, in each format (below)
    ("--gaussian --q-minus-1 1e300 --points 5", "q-exponential ",
     "argument (q-1) G is not finite at --q-minus-1 1e+300", ""),
    # a q < 1 packet at t = 0 has compact support: the base reaches the cut at sqrt(5) - 1;
    # R overflows just before the cut at x_c = 31.14, which the one-block float path meets first
    *((flags, BASE, f"branch cut where (q-1) G = -1: set --xmax below x_c = {x_c}", "")
      for flags, x_c in (("--gaussian --q-minus-1 -0.5", "1.236067977499789"),
                         ("--gaussian --q-minus-1 -1e-3 --xmax 40", "31.142057894041514"))),
    # -inf and -nan are numbers, spaced or after an equals sign
    *((f"--points 3 --t{sep}{v}", "", f"phase p x - E t is not finite at --t {float(v)!r}", "")
      for sep, v in (("=", "-nan"), (" ", "-inf"), (" ", "-nan"))),
    *((f"--gaussian --q-minus-1 1e300 --points 5 --format {fmt}", "q-exponential ",
       "argument (q-1) G is not finite at --q-minus-1 1e+300", "") for fmt in ("csv", "json"))]]


CONTRACT = [
    # stdout: R = 1 at q - 1 = 0; the packet's header; a q < 1 packet inside its
    # cutoff x_c = sqrt(5) - 1, or off t = 0, where the base leaves the real axis
    Call("csv-stdout", "ratio --points 5 --q-minus-1 0", 0,
         out=r"x,R\n0,1\n0\.25,1\n0\.5,1\n0\.75,1\n1,1\n"),
    Call("zero-q-minus-1-is-not-refused", "ratio --points 3 --q-minus-1 0", 0,
         out=r"x,R\n0,1\n0\.5,1\n1,1\n"),
    Call("gaussian-header", "ratio --gaussian --points 3", 0, out=csv("x,ratio", 3)),
    *(Call(f"q-below-one-packet-inside-its-cutoff-{flags}",
           f"ratio --gaussian --q-minus-1 -0.5 {flags}", 0, out=csv("x,ratio", 1001))
      for flags in ("--xmax 1.2", "--t 0.3")),
    Call("out-path-starting-with-at-after-an-equals-sign", "ratio --points 3 --out=@x.csv", 0,
         files=(("@x.csv", csv("x,R", 3)),)),
    # exit 2, bad values: a non-finite --xmax in any spelling; a nonzero --q-minus-1
    # that rounds away in q = 1 + (q-1), typed or in a file; --points out of its
    # bounds, checked before the grid is allocated; a bad choice; a bad value,
    # though a later one is good
    *(Call(f"xmax-{value}{mode}", f"ratio{mode} --xmax {value}", 2,
           f"{RATIO_ERROR}--xmax must be finite and positive, got {float(value)}")
      for value, mode in [(v, "") for v in ("inf", "nan", "-inf", "-nan", "-INF", "-NaN", "-Infinity")]
      + [("inf", " --gaussian")]),
    *(Call(f"q-minus-1-rounds-away{mode}{'-in-a-file' if lines else ''}",
           f"ratio {mode} --points 3 --xmax 1e6" + ("" if lines else f" --q-minus-1 {qm1}"), 2,
           f"{RATIO_ERROR}--q-minus-1 {qm1} rounds away: 1 + (q-1) == 1 in double", lines=lines)
      for mode, qm1 in (("--no-gaussian", "1e-17"), ("--gaussian", "-1e-17"))
      for lines in (None, [f"--q-minus-1={qm1}"])),
    *(Call(f"points-{points}", f"ratio --points {points}", 2,
           f"{RATIO_ERROR}--points must be at most {cli.MAX_POINTS}, got {points}")
      for points in (10**11, cli.MAX_POINTS + 1)),
    Call("points-1", "ratio --points 1", 2, f"{RATIO_ERROR}--points must be at least 2, got 1"),
    Call("species-muon", "ratio --species muon", 2,
         f"{RATIO_ERROR}argument --species: invalid choice: 'muon'"),
    Call("bad-value-before-a-good-one", "ratio --points=abc --points 5", 2,
         f"{RATIO_ERROR}argument --points: invalid int value: 'abc'"),
    # one spelling per option, in a file too: an abbreviation would also change
    # its meaning when a flag sharing its prefix is added
    *(Call(f"abbreviated-{argv}", argv, 2, UNRECOGNIZED + argv.partition(" ")[2])
      for argv in ("ratio --gauss", "ratio --poi 3", "verify --su planewave")),
    # argument files
    Call("file-missing", "ratio", 2, f"{ERROR}[Errno 2] No such file or directory: ", lines="missing"),
    Call("file-directory", "ratio", 2, f"{ERROR}[Errno 21] Is a directory: ", lines="directory"),
    # not UTF-8: Python 3.12 reads the byte as a lone surrogate, a flag of no option, and
    # earlier versions raise UnicodeDecodeError, which main refuses: the texts share their start
    Call("file-not-utf-8", "ratio", 2, ERROR, lines=[b"--\xff"]),
    Call("file-self", "ratio", 2, f"{ERROR}argument files nest without end: does one name itself?",
         lines=[SELF]),
    *(Call(f"file-{line}", "ratio", 2, UNRECOGNIZED + line, lines=[line])
      for line in ("--energy=2.5", "--gauss")),
    # every line is one argument: a comment or a blank line names none; --config is
    # gone; a flag of no value takes none, nor has the mode a boolean spelling
    *(Call(f"{command}-file-line-{line or 'blank'}", command, 2,
           f"qwave {command}: error: argument -h/--help: ignored explicit argument '1'"
           if line == "--help=1"
           else f"{GAUSSIAN_VALUE} '1'" if (command, line) == ("ratio", "--no-gaussian=1")
           else UNRECOGNIZED + line, lines=[line])
      for command in ("ratio", "verify")
      for line in ("--config=other.args", "--help=1", "--warp=9", "--no-gaussian=1", "--spec=proton",
                   "--suit=all", "# comment", "")),
    *(Call(f"ratio-file-line-{line}", "ratio", 2, f"{GAUSSIAN_VALUE} {line.partition('=')[2]!r}",
           lines=[line])
      for line in ("--gaussian=yes", "--gaussian=1", "--no-gaussian=off", "--gaussian=")),
    # the last mode line of a file picks the mode
    *(Call(f"last-file-line-picks-the-mode-{' '.join(lines)}", "ratio --points 3", 0,
           out=csv(header, 3), lines=lines) for lines, header in (
        (["--gaussian"], "x,ratio"), (["--no-gaussian"], "x,R"),
        (["--gaussian", "--no-gaussian"], "x,R"), (["--no-gaussian", "--gaussian"], "x,ratio"))),
    Call("verify-file-tol-for-no-check", "verify", 2,
         f"{VERIFY_ERROR}--tol: no check named 'planewave.nope'", lines=["--tol=planewave.nope=1"]),
    # output paths, refused before the sweep, in a working directory that holds FIXTURES
    *(Call(name, argv, 2, f"{RATIO_ERROR}argument --plot: invalid choice: 'script'") for name, argv in (
        ("plot-script", "ratio --points 10 --out fig.csv --plot script"),
        ("plot-script-with-json", "ratio --plot script --format json --out x.json"))),
    Call("plot-requires-out", "ratio --plot svg", 2, f"{RATIO_ERROR}--plot requires --out"),
    Call("plot-svg-refuses-an-svg-out", "ratio --points 3 --out fig.svg --plot svg", 2,
         f"{RATIO_ERROR}--plot svg writes its plot to --out 'fig.svg': give --out another suffix"),
    *(Call(name, f"ratio --points {points} {flags}", 2, UNWRITABLE + text)
      for name, points, flags, text in (
          ("out-is-the-working-directory", 3, "--out .", "--out '.' is a directory"),
          ("plot-path-is-a-directory", 3, "--out taken.csv --plot svg",
           "--plot svg 'taken.svg' is a directory"),
          ("out-is-a-directory", 2000001, "--out dir", "--out 'dir' is a directory"),
          *((f"out-in-{parent}", 2000001, f"--out {parent}/fig.csv",
             f"--out '{parent}/fig.csv' is in '{parent}', which is no directory")
            for parent in ("missing", "file")),
          ("plot-path-is-a-directory-before-a-long-sweep", 2000001, "--out taken.csv --plot svg",
           "--plot svg 'taken.svg' is a directory"),
          ("empty-out", 2000000, "--out=", "--out '' names no file"))),
    # verify: a --tol can fail a check, and one for a suite not selected is accepted
    Call("verify-single-suite", "verify --suite separation", 0,
         out=f"check .*\n{ANY_LINES}separation\\.exact_residual_f .* PASS .*\n{verify_table(15, 0)}"),
    Call("verify-tol-override-can-fail",
         "verify --suite planewave --tol planewave.modulus_identity=1e-20", 1,
         out=f"{ANY_LINES}planewave\\.modulus_identity .* FAIL .*\n{verify_table(12, 1)}"),
    Call("verify-repeated-tol", "verify --suite planewave --tol planewave.modulus_identity=1e-20 "
         "--tol planewave.psi_q_jet=1e-20", 1, out=verify_table(12, 2)),
    Call("verify-tol-for-unselected-suite", "verify --suite planewave --tol separation.f_jet=1e-30", 0,
         out=verify_table(12, 0)),
    *(Call(name, f"verify {flags}", 2, VERIFY_ERROR + text) for name, flags, text in (
        ("verify-tol-without-equals-sign", "--tol no-equals-sign",
         "--tol expects CHECK=VALUE, got 'no-equals-sign'"),
        ("verify-suite-and-tol-without-equals-sign", "--suite planewave --tol no-equals-sign",
         "--tol expects CHECK=VALUE, got 'no-equals-sign'"),
        ("verify-tol-not-a-number", "--tol planewave.exact_fd=abc",
         "--tol planewave.exact_fd: not a number: 'abc'"),
        ("verify-unknown-tol-key", "--suite planewave --tol planewave.modulus_identiy=1e-30",
         "--tol: no check named 'planewave.modulus_identiy'"),
        *((f"verify-tol-{v}", f"--suite planewave --tol planewave.exact_fd={v}",
           f"--tol planewave.exact_fd: must be finite, got '{v}'")
          for v in ("nan", "-inf", "inf", "NaN")))),
]


def invoke(argv, lines, where, monkeypatch):
    """(code, stdout, stderr, files) of one call in a new working directory
    where that holds FIXTURES; files maps each path under it to its bytes
    (None for a directory), and verify's time reads [s]."""
    where.mkdir()
    for name, data in FIXTURES.items():
        (where / name).mkdir() if data is None else (where / name).write_bytes(data)
    monkeypatch.chdir(where)
    code, out, err = main_in_process(argv, lines, where.parent)
    files = {str(p.relative_to(where)): None if p.is_dir() else p.read_bytes()
             for p in where.rglob("*")}
    return code, re.sub(r"\[\d+\.\d\d s\]\n\Z", "[s]\n", out), err, files


def argparse_usage(prog):
    """The usage that argparse prints before its error line in prog's name."""
    parser = cli.build_parser() if prog == "qwave" else subcommand_parser(prog.split()[1])
    return parser.format_usage()


@pytest.mark.parametrize("row", CONTRACT, ids=[row.id for row in CONTRACT])
def test_cli_contract(row, tmp_path, monkeypatch):
    """One invocation: its exit code, stdout, stderr's last line (after argparse's usage
    for its errors) and added files; exit 2 runs no sweep; a ratio refused with exit 3 is
    refused alike in numpy blocks; typed arguments give the same result from a file."""
    argv = row.argv.split(" ")
    if row.code == cli.EXIT_USAGE:  # refused before the sweep
        for name in ("run_ratio_sweep", "run_gaussian_sweep"):
            monkeypatch.setattr(scenarios, name, lambda *args: pytest.fail("the sweep ran"))
    code, out, err, files = result = invoke(argv, row.lines, tmp_path / "typed", monkeypatch)
    assert code == row.code, err
    assert re.fullmatch(row.out, out), out
    check_streams(code, out, err)  # exit 0 and 1: no stderr; exit 2 and 3: no stdout
    last = (err.splitlines() or [""])[-1]
    assert last.startswith(row.text), last
    prog, usage_error, _ = last.partition(": error: ")
    assert err == ((argparse_usage(prog) if usage_error else "") + last + "\n" if err else "")
    added = {name: data for name, data in files.items() if name not in FIXTURES}
    assert files == {**FIXTURES, **added} and added.keys() == dict(row.files).keys()
    assert all(re.fullmatch(pattern, added[name].decode()) for name, pattern in row.files)
    if argv[0] == "ratio" and code == cli.EXIT_NUMERIC:  # the float path and the numpy blocks
        blocks = invoke([*argv, "--points", str(B + 1)], row.lines, tmp_path / "blocks", monkeypatch)
        assert blocks == result
    if row.lines is None:
        assert invoke(argv[:1], argv[1:], tmp_path / "from-file", monkeypatch) == result


@pytest.mark.parametrize("row", OVERFLOW, ids=[f"argv{i}-{row.id}" for i, row in enumerate(OVERFLOW)])
def test_overflow_refusal_names_the_flag(row, tmp_path, monkeypatch):
    test_cli_contract(row, tmp_path, monkeypatch)


def test_output_file_and_determinism(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert cli.main(["ratio", "--points", "64", "--out", str(a)]) == 0
    assert cli.main(["ratio", "--points", "64", "--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    assert b"\r" not in a.read_bytes()


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


def test_plot_svg_refuses_empty_rows(tmp_path):
    with pytest.raises(ValueError):
        cli.emit_plot_svg([], {"title": "t", "xlabel": "x"}, str(tmp_path / "e.svg"))


# -- sweeps are evaluated and written in blocks ---------------------------


def reference_sweeps(n):
    """(CLI flags, header, x, R by the path the sweep takes) for the plane wave
    and the packet at n points (test_ratio holds each sweep to its path)."""
    return [(flags, ("x", family.column), np.linspace(*x_range).tolist(), family.path(x_range))
            for flags, family, x_range in ((["--q-minus-1", "1e-3"], PlaneWave(1e-3), (0.0, 1.0, n)),
                                           (["--gaussian"], Packet(1e-3), (0.0, 4.0, n)))]


@pytest.mark.parametrize("n", BLOCK_EDGES)
def test_block_boundaries_keep_values_and_bytes(n, tmp_path, capsys):
    for flags, header, xs, reference_values in reference_sweeps(n):
        vs = reference_values.tolist()
        for fmt, reference in (("csv", csv_reference), ("json", json_reference)):
            expected = reference(header, xs, vs)
            argv = ["ratio", *flags, "--points", str(n), "--format", fmt]
            assert run(argv, capsys) == (0, expected, "")
            path = tmp_path / f"sweep.{fmt}"
            assert run([*argv, "--out", str(path)], capsys) == (0, "", "")
            assert path.read_text() == expected


def test_refusal_in_the_last_block_writes_nothing(tmp_path, capsys):
    # 1 - 0.5 G reaches the branch cut at x = sqrt(5) - 1 = 1.236, which the
    # 5 B / 2-point grid over [0, 1.25] reaches only in its last block (row 2 B is at x = 1.0)
    packet = Packet(-0.5)
    n = 5 * B // 2
    xs = np.linspace(0.0, 1.25, n)
    packet.kernel(xs[: 2 * B])
    with pytest.raises(BranchCutViolation):
        packet.kernel(xs[2 * B:])
    out = tmp_path / "sweep.csv"
    argv = ["ratio", "--gaussian", "--q-minus-1", "-0.5", "--xmax", "1.25", "--points", str(n),
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
    once peaked at about 30 MB.  Each file holds the library's sweep in
    %.17g (CSV) or in the shortest round-trip digits of json.dumps (JSON)."""
    n = 200001
    electron = scenarios.ParticleScenario.from_mev("electron", 1.0, 1e-9, x_range=(0.0, 1.0, n))
    packet = qg.GaussianParams(m=1.0, beta=1.0, q=1.001)
    commands = [
        (["ratio", "--species", "electron", "--energy-mev", "1.0", "--q-minus-1", "1e-9",
          "--format", "json"], json_reference, ("x", "R"),
         lambda: scenarios.run_ratio_sweep(electron)),
        (["ratio", "--gaussian", "--q-minus-1", "1e-3", "--m", "1.0", "--beta", "1.0",
          "--xmax", "4.0", "--format", "csv"], csv_reference, ("x", "ratio"),
         lambda: scenarios.run_gaussian_sweep(packet, (0.0, 4.0, n))),
    ]
    for argv, reference, header, sweep in commands:
        out = str(tmp_path / "sweep")
        assert cli.main([*argv, "--points", "3", "--out", out]) == 0  # loads what the run imports
        tracemalloc.start()
        try:
            assert cli.main([*argv, "--points", str(n), "--out", out]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6, (argv, peak)
        columns = sweep().columns
        with open(out, encoding="utf-8") as fh:
            assert fh.read() == reference(header, *(columns[name].tolist() for name in header))
    assert capsys.readouterr() == ("", "")


def test_the_benchmark_tracer_calls_keep_working(tmp_path, monkeypatch, capsys):
    """The calls that perfbench/traced.py makes: it wraps the writers as
    f(header, rows) and _write_output as f(out, text), both positional, and
    reads header[1] and len(rows); it calls the sweeps and the plot directly."""
    rows, written = [], []

    def wrap(fn, info):
        def wrapped(*args, **kwargs):
            info(*args)
            return fn(*args, **kwargs)
        return wrapped

    def rows_info(header, block):
        rows.append((header[1], len(block)))

    for name in ("format_rows_csv", "format_rows_json"):
        monkeypatch.setattr(cli, name, wrap(getattr(cli, name), rows_info))
    monkeypatch.setattr(cli, "_write_output",
                        wrap(cli._write_output, lambda out, text: written.append(len(text))))
    for flags, column in ((["--gaussian"], "ratio"), ([], "R")):
        for fmt in ("csv", "json"):
            rows.clear()
            assert cli.main(["ratio", *flags, "--points", str(2 * B + 1), "--format", fmt]) == 0
            assert {name for name, _ in rows} == {column}
            assert len(rows) > 1  # the multi-block writers, not the one-block float path
            assert sum(n for _, n in rows) == 2 * B + 1
            assert sum(written) == len(capsys.readouterr().out)
            written.clear()

    scn = scenarios.ParticleScenario.from_mev("electron", 1.0, 1e-9, x_range=(0.0, 1.0, 2001))
    params = qg.GaussianParams(m=1.0, beta=1.0, q=1.001)
    cli.format_rows_json(("x", "R"), scenarios.run_ratio_sweep(scn))
    cli.format_rows_csv(("x", "ratio"), scenarios.run_gaussian_sweep(params, (0.0, 4.0, 2001), 0.0))
    path = tmp_path / "probe.svg"
    meta = {"title": "probe", "xlabel": "x (m)", "ylabel": "R"}
    cli.emit_plot_svg(scenarios.run_ratio_sweep(scn), meta, str(path))
    assert path.read_text().endswith(">R</text>\n</svg>\n")


def _child_page_faults(argv, env):
    """Minor page faults of one child process, from os.wait4."""
    pid = os.posix_spawn(sys.executable, [sys.executable, *argv], env,
                         file_actions=[(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)])
    _, status, usage = os.wait4(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0, argv
    return usage.ru_minflt


@pytest.mark.skipif(sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
                    reason="counts the page faults of glibc's malloc on Linux")
@pytest.mark.parametrize("argv", [
    ["--gaussian", "--q-minus-1", "1e-3", "--m", "1.0", "--beta", "1.0", "--xmax", "4.0",
     "--format", "csv"],
    ["--species", "electron", "--energy-mev", "1.0", "--q-minus-1", "1e-9", "--format", "json"],
])
def test_benchmark_sweeps_reuse_their_heap_pages(tmp_path, argv):
    # a 200,001-point sweep takes about 1,400 page faults more than importing
    # numpy; when glibc trimmed each block's freed temporaries and text back to
    # the kernel, every block faulted them in again: 11,000 to 17,000 more
    src = os.path.dirname(os.path.dirname(os.path.abspath(qwave.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = {k: v for k, v in os.environ.items() if not k.startswith("MALLOC_")}
    env["PYTHONPATH"] = path
    numpy_faults = _child_page_faults(["-c", "import numpy"], env)
    sweep_faults = _child_page_faults(["-m", "qwave", "ratio", *argv, "--points", "200001",
                                       "--out", str(tmp_path / "sweep")], env)
    assert sweep_faults - numpy_faults <= 4000, (sweep_faults, numpy_faults)


# -- verify --------------------------------------------------------------


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


# -- numpy is loaded by the multi-block sweep path only -------------------

NUMPY_PROBE = """
import os, runpy, sys
out, figures = sys.argv[1:]
preloaded = set(sys.modules)  # a site hook may load some of these itself

def loaded(*names):
    return [name for name in names if name in sys.modules and name not in preloaded]

import qwave
assert "numpy" not in sys.modules, "import qwave"
from qwave import cli, scenarios
assert "numpy" not in sys.modules, "import qwave.cli"
NEVER = ("dataclasses", "inspect", "json", "qwave.floattext")
assert not loaded(*NEVER), loaded(*NEVER)
assert cli.main(["verify"]) == 0
assert not loaded("numpy", *NEVER), ("qwave verify", loaded("numpy", *NEVER))
one_block = [["--format", "json"], ["--gaussian"], ["--plot", "svg", "--format", "json"]]
one_block += [[*family, "--points", str(scenarios.BLOCK_ROWS), "--format", fmt]
              for family in ([], ["--gaussian"]) for fmt in ("csv", "json")]
for i, argv in enumerate(one_block):
    assert cli.main(["ratio", *argv, "--out", os.path.join(out, f"one{i}")]) == 0
    assert not loaded("numpy", *NEVER), (argv, loaded("numpy", *NEVER))
sys.argv = [figures, "--outdir", os.path.join(out, "figures")]
try:
    runpy.run_path(figures, run_name="__main__")
except SystemExit as exc:
    assert exc.code == 0, exc.code
assert not loaded("numpy", *NEVER), ("run_figures.py", loaded("numpy", *NEVER))
for fmt in ("json", "csv"):
    sys.modules.pop("qwave.floattext", None)
    argv = ["ratio", "--points", str(scenarios.BLOCK_ROWS + 1), "--format", fmt]
    assert cli.main([*argv, "--out", os.path.join(out, f"long.{fmt}")]) == 0
    assert loaded("numpy", "qwave.floattext") == ["numpy", "qwave.floattext"], fmt
    assert not loaded("json", "numpy.ma"), loaded("json", "numpy.ma")
"""


def test_only_the_sweep_path_imports_numpy(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(qwave.__file__)))
    figures = os.path.join(os.path.dirname(src), "scripts", "run_figures.py")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_PROBE, str(tmp_path), figures],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "44 checks: 44 passed, 0 failed" in proc.stdout


def test_src_modules_read_every_name_they_import():
    # CI runs no linter: each name an import binds in src/qwave/*.py must be
    # read in its module (from __future__ import annotations aside)
    src = os.path.dirname(os.path.abspath(qwave.__file__))
    for name in sorted(os.listdir(src)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(src, name), encoding="utf-8") as handle:
            tree = ast.parse(handle.read())
        imported = {alias.asname or alias.name.split(".")[0]
                    for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                    for alias in node.names
                    if not (isinstance(node, ast.ImportFrom) and node.module == "__future__"
                            and alias.name == "annotations")}
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert imported <= read, (name, sorted(imported - read))


def test_only_qcore_finite_raises_non_finite_input():
    # one refusal of a non-finite argument, in one text ("<name> must be finite,
    # got <value>"): every other entry refuses its arguments through qcore.finite
    src = os.path.dirname(os.path.abspath(qwave.__file__))
    sites = []
    for name in sorted(os.listdir(src)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(src, name), encoding="utf-8") as handle:
            tree = ast.parse(handle.read())
        functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None and any(
                    "NonFiniteInput" in (getattr(part, "id", None), getattr(part, "attr", None))
                    for part in ast.walk(node.exc)):
                enclosing = [f for f in functions if f.lineno <= node.lineno <= f.end_lineno]
                sites.append((name, max(enclosing, key=lambda f: f.lineno).name
                              if enclosing else None))
    assert sites == [("qcore.py", "finite")]


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


# -- a qwave process runs main() without the cyclic collector -------------

POLICY_PROBE = """
import atexit, gc, runpy, sys
from qwave import cli

build_parser = cli.build_parser

def observed():  # main() builds its parser first
    print("collector on in main:", gc.isenabled())
    return build_parser()

cli.build_parser = observed
atexit.register(lambda: print("frozen at exit:", gc.get_freeze_count() > 0))
entry, sys.argv = sys.argv[1], ["qwave", *sys.argv[2:]]
if entry == "python -m qwave":
    runpy.run_module("qwave", run_name="__main__", alter_sys=True)
else:
    cli.run()
"""


@pytest.mark.parametrize("entry, argv, code", [
    ("python -m qwave", ["ratio", "--points", "3"], cli.EXIT_OK),
    ("python -m qwave", ["verify", "--tol", "planewave.exact_fd=1e-300"], cli.EXIT_FAIL),
    ("python -m qwave", ["ratio", "--xmax", "inf"], cli.EXIT_USAGE),
    ("python -m qwave", ["ratio", "--gaussian", "--m", "1e300", "--points", "3"],
     cli.EXIT_NUMERIC),
    ("cli.run", ["ratio", "--points", "3"], cli.EXIT_OK),
])
def test_process_entry_runs_main_without_the_collector(entry, argv, code):
    # the exit codes of main() hold through the process entry point, which
    # turns the collector off before main() and freezes the heap after it,
    # a usage error (raised inside main() by argparse) included
    src = os.path.dirname(os.path.dirname(os.path.abspath(qwave.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", POLICY_PROBE, entry, *argv],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == code, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "collector on in main: False"
    assert lines[-1] == "frozen at exit: True"


def test_in_process_main_leaves_the_collector_alone(capsys):
    frozen = gc.get_freeze_count()
    assert gc.isenabled()
    assert run(["ratio", "--points", "3"], capsys)[0] == cli.EXIT_OK
    assert gc.isenabled()
    assert gc.get_freeze_count() == frozen


def test_console_script_enters_through_run():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "pyproject.toml"), encoding="utf-8") as fh:
        scripts = fh.read().partition("[project.scripts]")[2].partition("[")[0]
    assert scripts.split() == ["qwave", "=", '"qwave.cli:run"']
