"""Command-line front end.

Two subcommands:

* ``qwave ratio`` sweeps the approximate/exact deviation ratio over x and
  writes CSV (or JSON), optionally with a companion plot script or SVG.
* ``qwave verify`` measures the checks declared in ``qwave.checks``
  (residual grids, jet-vs-FD cross-checks, order-of-convergence fits),
  selected by suite, and prints a claim/measured/tolerance table.

Only ``qwave ratio`` loads numpy: the sweeps and the writers below import
it in the functions that build or take arrays.  Importing this module and
running ``qwave verify`` load none.

Exit codes: 0 success, 1 verify found a failing check, 2 bad flags or
config (including a --tol for no check, for a report-only check or with a
non-finite value), 3 numeric failure while computing (an overflow of the
momentum, phase or packet exponent names --energy-mev, --t or --xmax).

Output determinism: CSV prints floats with 17 significant digits (%.17g),
JSON with the shortest repr that round-trips, and lines end in "\n" on
every platform, so repeated runs write identical bytes.  Each output file
is formatted in one pass: a row template repeated once per row, filled by
one % operation from the interleaved (x, value) floats.  The bytes are the
same as formatting row by row.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import re
import sys
import time
from typing import TYPE_CHECKING

from . import checks
from . import planewave as pw
from . import qgaussian as qg
from . import scenarios
from .errors import NonFiniteInput, NonFiniteResult, QWaveError

if TYPE_CHECKING:
    import numpy as np

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3

# Largest --points accepted; checked before the grid is allocated.
MAX_POINTS = 10_000_000


# -- config file ---------------------------------------------------------


def read_config(path: str) -> dict[str, str]:
    """key=value lines; blank lines and # comments ignored."""
    options: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, eq, value = line.partition("=")
            if not eq or not key.strip():
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            options[key.strip().replace("-", "_")] = value.strip()
    return options


def _cast_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _cast_choice(options: tuple[str, ...]):
    def cast(text: str) -> str:
        if text not in options:
            raise ValueError(f"expected one of {options}, got {text!r}")
        return text

    return cast


_RATIO_CASTS = {
    "species": _cast_choice(("electron", "proton")),
    "energy_mev": float,
    "q_minus_1": float,
    "xmax": float,
    "points": int,
    "t": float,
    "momentum_model": _cast_choice(scenarios.MOMENTUM_MODELS),
    "gaussian": _cast_bool,
    "m": float,
    "beta": float,
    "out": str,
    "format": _cast_choice(("csv", "json")),
    "plot": _cast_choice(("none", "script", "svg")),
}

_SUITE_CHOICES = (*checks.SUITES, "all")
_VERIFY_CASTS = {"suite": _cast_choice(_SUITE_CHOICES)}


def _merge_options(args, parser, casts) -> dict:
    """Hard defaults < config file < explicit flags, with typed casting."""
    merged: dict = {}
    config = {}
    if args.config is not None:
        try:
            config = read_config(args.config)
        except OSError as exc:
            parser.error(f"cannot read config: {exc}")
        except ValueError as exc:
            parser.error(str(exc))
    for key, value in config.items():
        if key not in casts:
            parser.error(f"unknown config key {key!r} in {args.config}")
        try:
            merged[key] = casts[key](value)
        except ValueError as exc:
            parser.error(f"config {args.config}: {key}: {exc}")
    for key in casts:
        explicit = getattr(args, key, None)
        if explicit is not None:
            merged[key] = explicit
    return merged


# -- ratio subcommand ----------------------------------------------------


def _columns(rows) -> tuple[np.ndarray, np.ndarray]:
    """x and value arrays of a Sweep or of any sequence of (x, value) pairs."""
    if isinstance(rows, scenarios.Sweep):
        return rows.x, rows.values
    import numpy as np

    return np.asarray(rows, dtype=float).reshape(-1, 2).T


def _interleaved(xs: np.ndarray, ys: np.ndarray) -> tuple[float, ...]:
    """x0, y0, x1, y1, ... as Python floats (%r of an np.float64 is not a number)."""
    import numpy as np

    return tuple(np.column_stack((xs, ys)).ravel().tolist())


def format_rows_csv(header: tuple[str, str], rows) -> str:
    """CSV text of (x, value) rows: a Sweep or any sequence of pairs."""
    values = _interleaved(*_columns(rows))
    return ",".join(header) + "\n" + ("%.17g,%.17g\n" * (len(values) // 2)) % values


def format_rows_json(header: tuple[str, str], rows) -> str:
    """The bytes of json.dumps(records, indent=1) + "\n" for the records
    {header[0]: x, header[1]: value}, written without building them."""
    values = _interleaved(*_columns(rows))
    if not values:
        return "[]\n"
    # repr of a finite float is its shortest round-trip form, as json writes it
    record = " {\n  %s: %%r,\n  %s: %%r\n }" % (json.dumps(header[0]), json.dumps(header[1]))
    return ("[\n" + ",\n".join([record] * (len(values) // 2)) + "\n]\n") % values


def _write_output(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def emit_plot_script(csv_path: str, meta: dict[str, str]) -> str:
    """Write a self-contained matplotlib script next to the CSV."""
    with open(csv_path, encoding="utf-8") as fh:
        lines = [line for line in fh.read().splitlines() if line]
    if len(lines) < 2:
        raise ValueError(f"{csv_path} has no data rows to plot")
    base, _ = os.path.splitext(csv_path)
    script_path = base + "_plot.py"
    csv_name = os.path.basename(csv_path)
    body = f'''#!/usr/bin/env python3
"""Plot {meta["title"]}."""

import csv
import os

import matplotlib.pyplot as plt

csv_path = os.path.join(os.path.dirname(os.path.abspath(__file__)), {csv_name!r})
xs, ys = [], []
with open(csv_path, newline="") as fh:
    reader = csv.DictReader(fh)
    ycol = reader.fieldnames[1]
    for row in reader:
        xs.append(float(row["x"]))
        ys.append(float(row[ycol]))

fig, ax = plt.subplots(figsize=(7.0, 4.5))
ax.plot(xs, ys, lw=1.2)
ax.set_xlabel({meta["xlabel"]!r})
ax.set_ylabel({meta["ylabel"]!r})
ax.set_title({meta["title"]!r})
ax.grid(True, alpha=0.3)
fig.tight_layout()
out = os.path.splitext(csv_path)[0] + ".png"
fig.savefig(out, dpi=150)
print("wrote", out)
'''
    with open(script_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(body)
    return script_path


def emit_plot_svg(rows, meta: dict[str, str], out_path: str) -> None:
    """Hand-rolled SVG line plot; no plotting dependency at run time."""
    if not len(rows):
        raise ValueError("no data rows to plot")
    width, height = 800.0, 500.0
    ml, mr, mt, mb = 75.0, 20.0, 45.0, 55.0
    xs, ys = _columns(rows)
    xmin, xmax = float(xs.min()), float(xs.max())
    ymin, ymax = float(ys.min()), float(ys.max())
    if xmax == xmin:
        xmax = xmin + 1.0
    pad = (ymax - ymin) or abs(ymax) or 1.0
    ymin -= 0.05 * pad
    ymax += 0.05 * pad

    def sx(x):
        return ml + (x - xmin) / (xmax - xmin) * (width - ml - mr)

    def sy(y):
        return height - mb - (y - ymin) / (ymax - ymin) * (height - mt - mb)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect width="{width:.0f}" height="{height:.0f}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="25" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{meta["title"]}</text>',
    ]
    for i in range(5):
        xv = xmin + i * (xmax - xmin) / 4.0
        yv = ymin + i * (ymax - ymin) / 4.0
        parts.append(
            f'<line x1="{sx(xv):.2f}" y1="{height - mb:.2f}" x2="{sx(xv):.2f}" '
            f'y2="{mt:.2f}" stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<line x1="{ml:.2f}" y1="{sy(yv):.2f}" x2="{width - mr:.2f}" '
            f'y2="{sy(yv):.2f}" stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{sx(xv):.2f}" y="{height - mb + 18:.2f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{xv:.4g}</text>'
        )
        parts.append(
            f'<text x="{ml - 8:.2f}" y="{sy(yv) + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{yv:.6g}</text>'
        )
    parts.append(
        f'<rect x="{ml:.2f}" y="{mt:.2f}" width="{width - ml - mr:.2f}" '
        f'height="{height - mt - mb:.2f}" fill="none" stroke="black"/>'
    )
    points = " ".join(["%.2f,%.2f"] * len(xs)) % _interleaved(sx(xs), sy(ys))
    parts.append(
        f'<polyline points="{points}" fill="none" stroke="#1f6fb2" stroke-width="1.3"/>'
    )
    parts.append(
        f'<text x="{(ml + width - mr) / 2:.1f}" y="{height - 12:.1f}" '
        f'text-anchor="middle" font-family="sans-serif" font-size="13">'
        f'{meta["xlabel"]}</text>'
    )
    parts.append(
        f'<text x="18" y="{(mt + height - mb) / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 18 {(mt + height - mb) / 2:.1f})">{meta["ylabel"]}</text>'
    )
    parts.append("</svg>")
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(parts) + "\n")


def _overflow_refusal(opt: dict, model) -> NonFiniteResult | None:
    """The refusal of a sweep that met a non-finite value, naming a flag.

    It names the first of --energy-mev, --t and --xmax at whose value, with
    the ones before it, the model's argument is not finite: the plane wave's
    momentum or its phase p x - E t, or the packet's exponent a x^2 + b x + c.
    None when the fault lies elsewhere.
    """
    if isinstance(model, qg.GaussianParams):
        quantity, argument = "packet exponent", lambda x, t: qg.exponent(x, t, model)
    else:
        try:
            wave = scenarios.wave_for(model)
        except NonFiniteInput:
            return NonFiniteResult(
                f"the momentum is not finite at --energy-mev {opt['energy_mev']!r}"
            )
        quantity, argument = "phase p x - E t", lambda x, t: pw.phase(pw.PhasePoint(x, t), wave)

    def finite(x: float, t: float) -> bool:
        try:
            return cmath.isfinite(argument(x, t))
        except NonFiniteInput:
            return False

    if not finite(0.0, 0.0):
        return None
    for flag, key, x in (("--t", "t", 0.0), ("--xmax", "xmax", opt["xmax"])):
        if not finite(x, opt["t"]):
            return NonFiniteResult(f"the {quantity} is not finite at {flag} {opt[key]!r}")
    return None


def cmd_ratio(args, parser) -> int:
    opt = _merge_options(args, parser, _RATIO_CASTS)
    gaussian = opt.get("gaussian", False)
    opt.setdefault("species", "electron")
    opt.setdefault("energy_mev", 1.0)
    opt.setdefault("q_minus_1", 1e-9 if not gaussian else 1e-3)
    opt.setdefault("xmax", 4.0 if gaussian else 1.0)
    opt.setdefault("points", 1001 if gaussian else 2001)
    opt.setdefault("t", 0.0)
    opt.setdefault("momentum_model", "relativistic")
    opt.setdefault("m", 1.0)
    opt.setdefault("beta", 1.0)
    opt.setdefault("out", None)
    opt.setdefault("format", "csv")
    opt.setdefault("plot", "none")

    if opt["points"] < 2:
        parser.error(f"--points must be at least 2, got {opt['points']}")
    if opt["points"] > MAX_POINTS:
        parser.error(f"--points must be at most {MAX_POINTS}, got {opt['points']}")
    if not (math.isfinite(opt["xmax"]) and opt["xmax"] > 0):
        parser.error(f"--xmax must be finite and positive, got {opt['xmax']}")
    if not gaussian and opt["energy_mev"] <= 0:
        parser.error(f"--energy-mev must be positive, got {opt['energy_mev']}")
    if gaussian and opt["m"] <= 0:
        parser.error(f"--m must be positive, got {opt['m']}")
    if gaussian and opt["beta"] == 0:
        parser.error("--beta must be nonzero")
    if opt["plot"] != "none" and opt["out"] is None:
        parser.error("--plot requires --out")
    if opt["plot"] == "script" and opt["format"] != "csv":
        parser.error("--plot script reads the CSV, use --format csv")

    x_range = (0.0, opt["xmax"], opt["points"])
    if gaussian:
        model = qg.GaussianParams(m=opt["m"], beta=opt["beta"], q=1.0 + opt["q_minus_1"])
        header = ("x", "ratio")
        meta = {
            "title": (
                f"q-Gaussian ratio vs. x: m={opt['m']:g}, beta={opt['beta']:g}, "
                f"q-1={opt['q_minus_1']:g}"
            ),
            "xlabel": "x (natural units)",
            "ylabel": "ratio",
        }
    else:
        model = scenarios.ParticleScenario.from_mev(
            species=opt["species"],
            kinetic_mev=opt["energy_mev"],
            q_minus_1=opt["q_minus_1"],
            momentum_model=opt["momentum_model"],
            x_range=x_range,
            t=opt["t"],
        )
        header = ("x", "R")
        meta = {
            "title": (
                f"Ratio R vs. x: {opt['energy_mev']:g} MeV {opt['species']}, "
                f"q-1={opt['q_minus_1']:g}"
            ),
            "xlabel": "x (m)",
            "ylabel": "R",
        }
    try:
        if gaussian:
            sweep = scenarios.run_gaussian_sweep(model, x_range, opt["t"])
        else:
            sweep = scenarios.run_ratio_sweep(model)
    except (NonFiniteInput, NonFiniteResult) as exc:
        refusal = _overflow_refusal(opt, model)
        if refusal is None:
            raise
        raise refusal from exc

    if opt["format"] == "csv":
        text = format_rows_csv(header, sweep)
    else:
        text = format_rows_json(header, sweep)
    try:
        _write_output(opt["out"], text)
        if opt["plot"] == "script":
            emit_plot_script(opt["out"], meta)
        elif opt["plot"] == "svg":
            base, _ = os.path.splitext(opt["out"])
            emit_plot_svg(sweep, meta, base + ".svg")
    except OSError as exc:
        print(f"qwave: cannot write output: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


# -- verify subcommand ---------------------------------------------------


def _parse_tol_overrides(entries, parser) -> dict[str, float]:
    overrides: dict[str, float] = {}
    for entry in entries or ():
        key, eq, value = entry.partition("=")
        key = key.strip()
        if not eq:
            parser.error(f"--tol expects CHECK=VALUE, got {entry!r}")
        if key not in checks.REGISTRY or checks.REGISTRY[key].sense == "report":
            parser.error(f"--tol: no check with a tolerance named {key!r}")
        try:
            overrides[key] = float(value)
        except ValueError:
            parser.error(f"--tol {key}: not a number: {value!r}")
        if not math.isfinite(overrides[key]):
            parser.error(f"--tol {key}: must be finite, got {value!r}")
    return overrides


def cmd_verify(args, parser) -> int:
    opt = _merge_options(args, parser, _VERIFY_CASTS)
    suite = opt.get("suite", "all")
    tol = _parse_tol_overrides(args.tol, parser)
    selected = [c for c in checks.REGISTRY.values() if suite in ("all", c.suite)]
    started = time.perf_counter()
    measured = [check.measure() for check in selected]
    elapsed = time.perf_counter() - started

    width = max(len(check.key) for check in selected)
    print(f"{'check':<{width}}  {'measured':>12}  {'tolerance':>12}  status  claim")
    failed = 0
    for check, value in zip(selected, measured):
        if check.sense == "report":
            tol_text, status = "-", "INFO"
        else:
            tolerance = tol.get(check.key, check.tolerance)
            tol_text = f"{'<=' if check.sense == 'le' else '>='}{tolerance:g}"
            passed = value <= tolerance if check.sense == "le" else value >= tolerance
            status = "PASS" if passed else "FAIL"
            failed += 0 if passed else 1
        print(
            f"{check.key:<{width}}  {value:>12.3e}  {tol_text:>12}  "
            f"{status:<6}  {check.claim}"
        )
    print(
        f"{len(selected)} checks: {len(selected) - failed} passed, {failed} failed "
        f"[{elapsed:.2f} s]"
    )
    return EXIT_OK if failed == 0 else EXIT_FAIL


# -- entry point ---------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qwave",
        description="Exact and first-order q-deformed wave solutions: "
        "figure sweeps and verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ratio = sub.add_parser("ratio", help="sweep the approx/exact ratio over x")
    ratio.add_argument("--species", choices=("electron", "proton"))
    ratio.add_argument("--energy-mev", type=float, help="kinetic energy in MeV")
    ratio.add_argument("--q-minus-1", type=float)
    ratio.add_argument("--xmax", type=float)
    ratio.add_argument(
        "--points", type=int, help=f"grid points, 2 to {MAX_POINTS} (default 2001; 1001 packet)"
    )
    ratio.add_argument("--t", type=float)
    ratio.add_argument("--momentum-model", choices=scenarios.MOMENTUM_MODELS)
    ratio.add_argument(
        "--gaussian",
        action=argparse.BooleanOptionalAction,
        help="sweep the packet ratio instead of the plane wave",
    )
    ratio.add_argument("--m", type=float, help="packet mass (gaussian mode)")
    ratio.add_argument("--beta", type=float, help="packet width (gaussian mode)")
    ratio.add_argument("--out", help="output path (default: stdout)")
    ratio.add_argument("--format", choices=("csv", "json"))
    ratio.add_argument("--plot", choices=("none", "script", "svg"))
    ratio.add_argument("--config", help="key=value defaults, overridden by flags")
    # Python 3.11's argparse takes "-1e-3" for an option; later versions use
    # this rule: an argument starting "-digit" or "-.digit" is a number.
    # -inf and -nan, in any case, are numbers too, as float() reads them.
    ratio._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)
    ratio.set_defaults(func=cmd_ratio, parser=ratio)

    verify_p = sub.add_parser("verify", help="run the self-consistency suites")
    verify_p.add_argument("--suite", choices=_SUITE_CHOICES)
    verify_p.add_argument(
        "--tol",
        action="append",
        metavar="CHECK=VALUE",
        help="override one check's tolerance (repeatable)",
    )
    verify_p.add_argument("--config", help="key=value defaults, overridden by flags")
    verify_p.set_defaults(func=cmd_verify, parser=verify_p)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, args.parser)
    except (QWaveError, ArithmeticError, ValueError) as exc:
        print(f"qwave: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
