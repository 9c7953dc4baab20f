"""Command-line front end.

Two subcommands:

* ``qwave ratio`` sweeps the approximate/exact deviation ratio over x and
  writes CSV (or JSON), optionally with a companion plot script or SVG.
* ``qwave verify`` runs the self-consistency suites (residual grids,
  jet-vs-FD cross-checks, order-of-convergence fits) and prints a
  claim/measured/tolerance table.

Exit codes: 0 success, 1 verify found a failing check, 2 bad flags or
config, 3 numeric failure while computing.

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
from dataclasses import dataclass

import numpy as np

from . import kleingordon as kg
from . import planewave as pw
from . import qcore
from . import qgaussian as qg
from . import scenarios
from . import separation as sep
from . import verify
from .errors import NonFiniteResult, QWaveError

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

_VERIFY_CASTS = {
    "suite": _cast_choice(("planewave", "separation", "gaussian", "kleingordon", "all")),
}


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
    return np.asarray(rows, dtype=float).reshape(-1, 2).T


def _interleaved(xs: np.ndarray, ys: np.ndarray) -> tuple[float, ...]:
    """x0, y0, x1, y1, ... as Python floats (%r of an np.float64 is not a number)."""
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
        params = qg.GaussianParams(m=opt["m"], beta=opt["beta"], q=1.0 + opt["q_minus_1"])
        sweep = scenarios.run_gaussian_sweep(params, x_range, opt["t"])
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
        scn = scenarios.ParticleScenario.from_mev(
            species=opt["species"],
            kinetic_mev=opt["energy_mev"],
            q_minus_1=opt["q_minus_1"],
            momentum_model=opt["momentum_model"],
            x_range=x_range,
            t=opt["t"],
        )
        sweep = scenarios.run_ratio_sweep(scn)
        header = ("x", "R")
        meta = {
            "title": (
                f"Ratio R vs. x: {opt['energy_mev']:g} MeV {opt['species']}, "
                f"q-1={opt['q_minus_1']:g}"
            ),
            "xlabel": "x (m)",
            "ylabel": "R",
        }
    bad = np.count_nonzero(~np.isfinite(sweep.values))
    if bad:
        raise NonFiniteResult(f"{bad} of {len(sweep)} {header[1]} values are not finite")

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


@dataclass(frozen=True)
class CheckRow:
    """One verification table line."""

    key: str
    claim: str
    measured: float
    tolerance: float
    sense: str  # "le", "ge", or "report"

    @property
    def passed(self) -> bool:
        if self.sense == "le":
            return self.measured <= self.tolerance
        if self.sense == "ge":
            return self.measured >= self.tolerance
        return True  # report-only rows never fail


def _rel(diff: float, scale: float) -> float:
    return diff / scale if scale > 0 else (0.0 if diff == 0 else math.inf)


def _max_rel(pairs) -> float:
    """pairs of (abs difference, scale) -> worst relative deviation."""
    return max(_rel(d, s) for d, s in pairs)


_PW_WAVE = pw.SchrodingerWave.free(p=1.3, m=1.0)
_PW_XS = tuple(float(x) for x in np.linspace(-6.0, 6.0, 31))
_PW_TS = tuple(float(t) for t in np.linspace(0.0, 3.0, 5))
_PAIR_EPSILONS = (1e-3, 1e-6, 1e-9)


def _suite_planewave(tol) -> list[CheckRow]:
    rows = []
    for q in (0.999, 1.001, 1.1):
        def fn(x, t, q=q):
            term_t, term_x = pw.schrodinger_terms(
                pw.PhasePoint(x, t), _PW_WAVE, q, "exact"
            )
            return term_t + term_x, max(abs(term_t), abs(term_x))

        report = verify.grid_residual(fn, _PW_XS, _PW_TS)
        key = f"planewave.exact_residual_q{q:g}"
        rows.append(
            CheckRow(
                key,
                f"exact wave inserted with closed-form derivatives, q={q:g}",
                report.max_rel,
                tol.get(key, 1e-10),
                "le",
            )
        )

    pairs = []
    for eps in _PAIR_EPSILONS:
        for x in _PW_XS:
            for t in _PW_TS:
                pt = pw.PhasePoint(x, t)
                term_t, term_x = pw.expansion_terms(pt, _PW_WAVE, 1.0 + eps)
                pairs.append(
                    (abs(term_t + term_x), max(abs(term_t), abs(term_x)))
                )
    key = "planewave.pair_cancellation"
    rows.append(
        CheckRow(
            key,
            "truncated dt(psi^q) and d2x(psi) brackets cancel identically",
            _max_rel(pairs),
            tol.get(key, 1e-12),
            "le",
        )
    )

    def genuine_norm(eps: float) -> float:
        q = 1.0 + eps
        return max(
            abs(pw.residual_schrodinger(pw.PhasePoint(x, t), _PW_WAVE, q, "approx"))
            for x in _PW_XS[::2]
            for t in _PW_TS
        )

    fit = verify.order_of_convergence(genuine_norm)
    key = "planewave.approx_order"
    rows.append(
        CheckRow(
            key,
            "approximant inserted in the full equation leaves O(eps^2)",
            fit.slope,
            tol.get(key, 1.9),
            "ge",
        )
    )
    key = "planewave.approx_order_r2"
    rows.append(CheckRow(key, "order fit quality", fit.r_squared, tol.get(key, 0.999), "ge"))

    def error_norm(eps: float) -> float:
        q = 1.0 + eps
        return max(
            abs(
                pw.approx_psi(pw.PhasePoint(x, t), _PW_WAVE, q)
                - pw.exact_psi(pw.PhasePoint(x, t), _PW_WAVE, q)
            )
            for x in _PW_XS[::2]
            for t in _PW_TS
        )

    fit = verify.order_of_convergence(error_norm, (1e-2, 1e-3, 1e-4, 1e-5))
    key = "planewave.approx_error_order"
    rows.append(
        CheckRow(
            key,
            "approx_psi - exact_psi shrinks as eps^2",
            fit.slope,
            tol.get(key, 1.9),
            "ge",
        )
    )

    q = 1.37
    pairs = []
    for x in _PW_XS:
        for t in _PW_TS:
            u = pw.phase(pw.PhasePoint(x, t), _PW_WAVE)
            direct = abs(pw.exact_psi(pw.PhasePoint(x, t), _PW_WAVE, q)) ** 2
            closed = math.exp(math.log1p((1.0 - q) ** 2 * u * u) / (1.0 - q))
            pairs.append((abs(direct - closed), abs(closed)))
    key = "planewave.modulus_identity"
    rows.append(
        CheckRow(
            key,
            "|exact_psi|^2 = [1+(1-q)^2 u^2]^{1/(1-q)}",
            _max_rel(pairs),
            tol.get(key, 1e-12),
            "le",
        )
    )

    pairs = []
    for x in _PW_XS:
        for t in _PW_TS:
            pt = pw.PhasePoint(x, t)
            u = pw.phase(pt, _PW_WAVE)
            # psi^q = exp(q * iu * S(w)); build the exponent jet directly,
            # jet_ln of e^{iu} would lose the winding for |u| > pi
            exponent = qcore.QJet(1.0, 1.0) * (
                qcore.as_jet(1j * u) * qcore.log1p_over_w_jet(-1j * u)
            )
            jet = qcore.jet_exp(exponent)
            # eps-coefficient of the closed-form psi^q expansion
            closed = (1j * u - u * u / 2.0) * complex(math.cos(u), math.sin(u))
            pairs.append((abs(jet.v1 - closed), max(1.0, abs(closed))))
    key = "planewave.psi_q_jet"
    rows.append(
        CheckRow(
            key,
            "jet of psi^q reproduces the closed-form expansion coefficient",
            _max_rel(pairs),
            tol.get(key, 1e-12),
            "le",
        )
    )

    zs = (0.0, 1.0, 1.5j, -0.8 + 1.2j, 2.5 - 2.0j, 4.0j)
    pairs = []
    for z in zs:
        jet = qcore.q_exp_jet(z)
        fd = verify.jet_from_fd(lambda q, z=z: qcore.q_exp(z, q))
        pairs.append((abs(fd.v1 - jet.v1), max(1.0, abs(jet.v1))))
    key = "planewave.q_exp_jet_fd"
    rows.append(
        CheckRow(
            key,
            "q_exp_jet.v1 = (z^2/2)e^z against FD in q",
            _max_rel(pairs),
            tol.get(key, 1e-6),
            "le",
        )
    )

    q = 1.02
    scheme_x = verify.default_scheme(_PW_WAVE.hbar / _PW_WAVE.p, deriv=2)
    scheme_t = verify.default_scheme(_PW_WAVE.hbar / _PW_WAVE.E, deriv=1)
    pairs = []
    for x in _PW_XS[::3]:
        for t in _PW_TS:
            closed = pw.d2x_approx_psi(pw.PhasePoint(x, t), _PW_WAVE, q)
            fd, _ = verify.fd_derivative(
                lambda xv, t=t: pw.approx_psi(pw.PhasePoint(xv, t), _PW_WAVE, q),
                x,
                scheme_x,
                deriv=2,
            )
            pairs.append((abs(closed - fd), abs(closed)))
    key = "planewave.d2x_approx_fd"
    rows.append(
        CheckRow(
            key,
            "closed-form d2x of the approximant against FD",
            _max_rel(pairs),
            tol.get(key, 1e-8),
            "le",
        )
    )
    pairs = []
    for x in _PW_XS[::3]:
        for t in _PW_TS:
            closed = pw.dt_approx_psi_q(pw.PhasePoint(x, t), _PW_WAVE, q)
            fd, _ = verify.fd_derivative(
                lambda tv, x=x: pw.approx_psi_q(pw.PhasePoint(x, tv), _PW_WAVE, q),
                t,
                scheme_t,
                deriv=1,
            )
            pairs.append((abs(closed - fd), abs(closed)))
    key = "planewave.dt_approx_q_fd"
    rows.append(
        CheckRow(
            key,
            "closed-form dt of the approximant's q-th power against FD",
            _max_rel(pairs),
            tol.get(key, 1e-8),
            "le",
        )
    )
    return rows


_SEP_E = 0.845
_SEP_P = 1.3
_SEP_TS = tuple(float(t) for t in np.linspace(0.0, 4.0, 17))
_SEP_XS = tuple(float(x) for x in np.linspace(-6.0, 6.0, 17))


def _suite_separation(tol) -> list[CheckRow]:
    rows = []
    q = 1.1
    pairs = [
        (
            abs(sep.residual_f(t, _SEP_E, q, family="exact")),
            abs(_SEP_E * sep.exact_f(t, _SEP_E, q)),
        )
        for t in _SEP_TS
    ]
    key = "separation.exact_residual_f"
    rows.append(
        CheckRow(
            key,
            "exact time factor satisfies its separated equation, q=1.1",
            _max_rel(pairs),
            tol.get(key, 1e-10),
            "le",
        )
    )
    lam = _SEP_P * _SEP_P / 2.0
    pairs = [
        (
            abs(sep.residual_g(x, _SEP_P, None, q, family="exact")),
            abs(lam * sep.exact_g_q(x, _SEP_P, q)),
        )
        for x in _SEP_XS
    ]
    key = "separation.exact_residual_g"
    rows.append(
        CheckRow(
            key,
            "exact space factor satisfies its separated equation, q=1.1",
            _max_rel(pairs),
            tol.get(key, 1e-10),
            "le",
        )
    )

    pairs = []
    for eps in _PAIR_EPSILONS:
        qq = 1.0 + eps
        for t in _SEP_TS:
            pairs.append(
                (
                    abs(sep.expansion_residual_f(t, _SEP_E, qq)),
                    abs(_SEP_E * sep.approx_f(t, _SEP_E, qq)),
                )
            )
        for x in _SEP_XS:
            pairs.append(
                (
                    abs(sep.expansion_residual_g(x, _SEP_P, None, qq)),
                    abs(lam * sep.approx_g_q(x, _SEP_P, qq)),
                )
            )
    key = "separation.pair_cancellation"
    rows.append(
        CheckRow(
            key,
            "truncated pairs for f and g cancel identically at lam = p^2/2m",
            _max_rel(pairs),
            tol.get(key, 1e-12),
            "le",
        )
    )

    def f_norm(eps: float) -> float:
        return max(
            abs(sep.residual_f(t, _SEP_E, 1.0 + eps, family="approx"))
            for t in _SEP_TS
        )

    fit = verify.order_of_convergence(f_norm)
    key = "separation.f_order"
    rows.append(
        CheckRow(key, "first-order f inserted in its equation", fit.slope, tol.get(key, 1.9), "ge")
    )
    key = "separation.f_order_r2"
    rows.append(CheckRow(key, "order fit quality", fit.r_squared, tol.get(key, 0.999), "ge"))

    def g_norm(eps: float) -> float:
        return max(
            abs(sep.residual_g(x, _SEP_P, None, 1.0 + eps, family="approx"))
            for x in _SEP_XS
        )

    fit = verify.order_of_convergence(g_norm)
    key = "separation.g_order"
    rows.append(
        CheckRow(key, "first-order g inserted in its equation", fit.slope, tol.get(key, 1.9), "ge")
    )
    key = "separation.g_order_r2"
    rows.append(CheckRow(key, "order fit quality", fit.r_squared, tol.get(key, 0.999), "ge"))

    pairs_f, pairs_fq = [], []
    for t in _SEP_TS:
        tau = _SEP_E * t
        phase = complex(math.cos(tau), -math.sin(tau))
        fd = verify.jet_from_fd(lambda q, t=t: sep.exact_f(t, _SEP_E, q))
        closed = (1j * tau + tau * tau / 2.0) * phase
        pairs_f.append((abs(fd.v1 - closed), max(1.0, abs(closed))))
        fd = verify.jet_from_fd(lambda q, t=t: sep.exact_f_q(t, _SEP_E, q))
        closed = (tau * tau / 2.0) * phase
        pairs_fq.append((abs(fd.v1 - closed), max(1.0, abs(closed))))
    key = "separation.f_jet"
    rows.append(
        CheckRow(
            key,
            "q-derivative of exact f matches (i tau + tau^2/2)e^{-i tau}",
            _max_rel(pairs_f),
            tol.get(key, 1e-10),
            "le",
        )
    )
    key = "separation.f_q_jet"
    rows.append(
        CheckRow(
            key,
            "q-derivative of exact f^q keeps only the tau^2/2 term",
            _max_rel(pairs_fq),
            tol.get(key, 1e-8),
            "le",
        )
    )

    pairs_g, pairs_gq = [], []
    for x in _SEP_XS:
        xi = _SEP_P * x
        phase = complex(math.cos(xi), math.sin(xi))
        fd = verify.jet_from_fd(lambda q, x=x: sep.exact_g(x, _SEP_P, q))
        closed = -0.25 * (1j * xi + xi * xi) * phase
        pairs_g.append((abs(fd.v1 - closed), max(1.0, abs(closed))))
        fd = verify.jet_from_fd(lambda q, x=x: sep.exact_g_q(x, _SEP_P, q))
        closed = (0.75j * xi - 0.25 * xi * xi) * phase
        pairs_gq.append((abs(fd.v1 - closed), max(1.0, abs(closed))))
    key = "separation.g_jet"
    rows.append(
        CheckRow(
            key,
            "q-derivative of exact g matches -(i xi + xi^2)/4 e^{i xi}",
            _max_rel(pairs_g),
            tol.get(key, 1e-10),
            "le",
        )
    )
    key = "separation.g_q_jet"
    rows.append(
        CheckRow(
            key,
            "q-derivative of exact g^q matches (3 i xi - xi^2)/4 e^{i xi}",
            _max_rel(pairs_gq),
            tol.get(key, 1e-8),
            "le",
        )
    )

    q = 1.02
    scheme_t = verify.default_scheme(1.0 / _SEP_E, deriv=1)
    pairs = []
    for t in _SEP_TS:
        closed = sep.dt_approx_f_q(t, _SEP_E, q)
        fd, _ = verify.fd_derivative(
            lambda tv: sep.approx_f_q(tv, _SEP_E, q), t, scheme_t, deriv=1
        )
        pairs.append((abs(closed - fd), abs(closed)))
    key = "separation.dt_f_q_fd"
    rows.append(
        CheckRow(
            key,
            "closed-form dt of the first-order f^q against FD",
            _max_rel(pairs),
            tol.get(key, 1e-8),
            "le",
        )
    )
    scheme_x = verify.default_scheme(1.0 / _SEP_P, deriv=2)
    pairs = []
    for x in _SEP_XS:
        closed = sep.d2x_approx_g(x, _SEP_P, q)
        fd, _ = verify.fd_derivative(
            lambda xv: sep.approx_g(xv, _SEP_P, q), x, scheme_x, deriv=2
        )
        pairs.append((abs(closed - fd), abs(closed)))
    key = "separation.d2x_g_fd"
    rows.append(
        CheckRow(
            key,
            "closed-form d2x of the first-order g against FD",
            _max_rel(pairs),
            tol.get(key, 1e-8),
            "le",
        )
    )

    # f(t)g(x) is a different first-order solution than the plane wave;
    # their eps-coefficients must not be conflated
    x0, t0 = 0.7, 0.9
    wave = pw.SchrodingerWave.free(p=_SEP_P, m=1.0)
    tau = wave.E * t0
    xi = _SEP_P * x0
    u = xi - tau
    coef_fg = (1j * tau + tau * tau / 2.0) - 0.25 * (1j * xi + xi * xi)
    coef_pw = -u * u / 2.0
    key = "separation.product_not_planewave"
    rows.append(
        CheckRow(
            key,
            "first-order f*g differs from the plane-wave approximant",
            abs(coef_fg - coef_pw) / max(abs(coef_fg), abs(coef_pw)),
            tol.get(key, 1e-2),
            "ge",
        )
    )
    return rows


_QG_XS = tuple(float(x) for x in np.linspace(-3.0, 3.0, 13))
_QG_TS = tuple(float(t) for t in np.linspace(0.0, 2.0, 5))


def _qg_params(q: float) -> qg.GaussianParams:
    return qg.GaussianParams(m=1.0, beta=1.0, q=q)


def _suite_gaussian(tol) -> list[CheckRow]:
    rows = []
    measured = max(
        abs(qg.coeffs_exact(0.0, _qg_params(q)).c) for q in (0.999, 1.001, 1.1)
    )
    key = "gaussian.c_at_zero"
    rows.append(CheckRow(key, "c(0) = 0 exactly", measured, tol.get(key, 1e-13), "le"))
    measured = max(
        abs(qg.exact_qgaussian(0.0, 0.0, _qg_params(q)) - 1.0)
        for q in (0.999, 1.001, 1.1)
    )
    key = "gaussian.psi_origin"
    rows.append(CheckRow(key, "psi(0,0) = 1 exactly", measured, tol.get(key, 1e-13), "le"))

    pairs = []
    for t in _QG_TS:
        jets = qg._coeff_jets(t, _qg_params(1.001))
        closed = qg.coeffs_first_order(t, _qg_params(1.001))
        for jet, c0, c1 in (
            (jets[0], closed.a1, closed.a2),
            (jets[1], closed.b1, closed.b2),
            (jets[2], closed.c1, closed.c2),
        ):
            pairs.append((abs(jet.v0 - c0), max(1.0, abs(c0))))
            pairs.append((abs(jet.v1 - c1), max(1.0, abs(c1))))
    key = "gaussian.coeff_jets"
    rows.append(
        CheckRow(
            key,
            "mechanical coefficient jets match the closed-form splits",
            _max_rel(pairs),
            tol.get(key, 1e-11),
            "le",
        )
    )

    pairs = []
    params = _qg_params(1.001)
    for x in _QG_XS:
        for t in _QG_TS:
            jet = qg.wavefunction_jet(x, t, params)
            split = qg.coeffs_first_order(t, params)
            G0 = split.a1 * x * x + split.b1 * x + split.c1
            G1 = split.a2 * x * x + split.b2 * x + split.c2
            assembled0 = cmath.exp(-G0)
            assembled1 = -(G1 - 0.5 * G0 * G0) * assembled0
            scale = max(abs(assembled0), abs(assembled1))
            pairs.append((abs(jet.v0 - assembled0), scale))
            pairs.append((abs(jet.v1 - assembled1), scale))
    key = "gaussian.jet_authority"
    rows.append(
        CheckRow(
            key,
            "packet jet equals the assembled first-order closed forms",
            _max_rel(pairs),
            tol.get(key, 1e-11),
            "le",
        )
    )

    pairs = []
    for t in _QG_TS:
        split = qg.coeffs_first_order(t, _qg_params(1.001))
        for pick, closed1 in (
            (lambda cs: cs.a, split.a2),
            (lambda cs: cs.b, split.b2),
            (lambda cs: cs.c, split.c2),
        ):
            fd = verify.jet_from_fd(
                lambda q, t=t, pick=pick: pick(qg.coeffs_exact(t, _qg_params(q)))
            )
            pairs.append((abs(fd.v1 - closed1), max(1.0, abs(closed1))))
    key = "gaussian.coeff_fd"
    rows.append(
        CheckRow(
            key,
            "FD in q of the exact coefficients matches (a2, b2, c2)",
            _max_rel(pairs),
            tol.get(key, 1e-6),
            "le",
        )
    )

    def packet_norm(eps: float) -> float:
        params = _qg_params(1.0 + eps)
        return max(
            abs(qg.residual_qgaussian(x, t, params, family="approx"))
            for x in (0.3, 0.9, 1.6)
            for t in (0.2, 0.8)
        )

    fit = verify.order_of_convergence(packet_norm)
    key = "gaussian.approx_order"
    rows.append(
        CheckRow(
            key,
            "first-order packet inserted in the full equation",
            fit.slope,
            tol.get(key, 1.9),
            "ge",
        )
    )
    key = "gaussian.approx_order_r2"
    rows.append(CheckRow(key, "order fit quality", fit.r_squared, tol.get(key, 0.999), "ge"))

    params = _qg_params(1.001)
    measured = 0.0
    for x in (0.3, 0.9, 1.6):
        for t in (0.2, 0.8):
            term_t, term_x = qg.gaussian_terms(x, t, params, family="exact")
            measured = max(
                measured,
                _rel(abs(term_t + term_x), max(abs(term_t), abs(term_x))),
            )
    key = "gaussian.exact_residual_report"
    rows.append(
        CheckRow(
            key,
            "exact packet residual at q=1.001 (FD-limited, reported only)",
            measured,
            math.nan,
            "report",
        )
    )

    band = max(
        abs(r - 1.0) for _, r in scenarios.run_gaussian_sweep(_qg_params(1.001))
    )
    key = "gaussian.ratio_band"
    rows.append(
        CheckRow(
            key,
            "packet ratio stays within [0.9, 1.1] over the default sweep",
            band,
            tol.get(key, 0.1),
            "le",
        )
    )
    return rows


_KG_WAVE = kg.KGWave.on_shell(k=1.1, m=1.0)
_KG_XS = tuple(float(x) for x in np.linspace(-4.0, 4.0, 17))
_KG_TS = tuple(float(t) for t in np.linspace(0.0, 3.0, 5))


def _kg_rel_residual(wave: kg.KGWave, q: float) -> float:
    measured = 0.0
    for x in _KG_XS:
        for t in _KG_TS:
            terms = kg.kg_terms(x, t, wave, q, "exact")
            measured = max(
                measured, _rel(abs(sum(terms)), max(abs(v) for v in terms))
            )
    return measured


def _suite_kleingordon(tol) -> list[CheckRow]:
    rows = []
    for q in (0.999, 1.1):
        key = f"kleingordon.exact_residual_q{q:g}"
        rows.append(
            CheckRow(
                key,
                f"exact wave on shell, q={q:g}",
                _kg_rel_residual(_KG_WAVE, q),
                tol.get(key, 1e-10),
                "le",
            )
        )

    off = kg.KGWave(k=_KG_WAVE.k, omega=_KG_WAVE.omega * 1.01, m=_KG_WAVE.m)
    on_res = _kg_rel_residual(_KG_WAVE, 1.1)
    off_res = _kg_rel_residual(off, 1.1)
    key = "kleingordon.dispersion_sensitivity"
    rows.append(
        CheckRow(
            key,
            "1% omega perturbation inflates the residual",
            off_res / on_res if on_res > 0 else math.inf,
            tol.get(key, 1e4),
            "ge",
        )
    )

    q = 1.2
    pairs = []
    for x in _KG_XS:
        for t in _KG_TS:
            u = kg.phase(x, t, _KG_WAVE)
            eiu = complex(math.cos(u), math.sin(u))
            bx = kg.d2x_approx_F(x, t, _KG_WAVE, q) / (-_KG_WAVE.k**2 * eiu)
            bt = kg.d2t_approx_F(x, t, _KG_WAVE, q) / (-_KG_WAVE.omega**2 * eiu)
            bm = kg.approx_qF2qm1(x, t, _KG_WAVE, q) / eiu
            pairs.append((max(abs(bx - bm), abs(bt - bm)), abs(bm)))
    key = "kleingordon.bracket_identity"
    rows.append(
        CheckRow(
            key,
            "d2x, d2t and qF^{2q-1} expansions share one bracket",
            _max_rel(pairs),
            tol.get(key, 1e-14),
            "le",
        )
    )

    pairs = []
    for eps in _PAIR_EPSILONS:
        qq = 1.0 + eps
        for x in _KG_XS:
            for t in _KG_TS:
                terms = kg.expansion_terms_kg(x, t, _KG_WAVE, qq)
                pairs.append((abs(sum(terms)), max(abs(v) for v in terms)))
    key = "kleingordon.pair_cancellation"
    rows.append(
        CheckRow(
            key,
            "truncated expansions cancel identically on shell",
            _max_rel(pairs),
            tol.get(key, 1e-12),
            "le",
        )
    )

    def kg_norm(eps: float) -> float:
        q = 1.0 + eps
        return max(
            abs(kg.residual_kg(x, t, _KG_WAVE, q, "approx"))
            for x in _KG_XS[::2]
            for t in _KG_TS
        )

    fit = verify.order_of_convergence(kg_norm)
    key = "kleingordon.approx_order"
    rows.append(
        CheckRow(
            key,
            "approximant inserted in the full equation leaves O(eps^2)",
            fit.slope,
            tol.get(key, 1.9),
            "ge",
        )
    )
    key = "kleingordon.approx_order_r2"
    rows.append(CheckRow(key, "order fit quality", fit.r_squared, tol.get(key, 0.999), "ge"))

    pairs = []
    for x in _KG_XS[::2]:
        for t in _KG_TS:
            u = kg.phase(x, t, _KG_WAVE)
            eiu = complex(math.cos(u), math.sin(u))
            closed = (1.0 + 2j * u - u * u / 2.0) * eiu
            fd = verify.jet_from_fd(
                lambda q, x=x, t=t: q * kg.exact_F_2qm1(x, t, _KG_WAVE, q)
            )
            pairs.append((abs(fd.v1 - closed), max(1.0, abs(closed))))
    key = "kleingordon.qF_jet"
    rows.append(
        CheckRow(
            key,
            "q-derivative of qF^{2q-1} matches e^{iu}(1 + 2iu - u^2/2)",
            _max_rel(pairs),
            tol.get(key, 1e-6),
            "le",
        )
    )

    q = 1.02
    scheme_x = verify.default_scheme(1.0 / _KG_WAVE.k, deriv=2)
    scheme_t = verify.default_scheme(1.0 / _KG_WAVE.omega, deriv=2)
    pairs = []
    for x in _KG_XS[::3]:
        for t in _KG_TS:
            closed = kg.d2x_approx_F(x, t, _KG_WAVE, q)
            fd, _ = verify.fd_derivative(
                lambda xv, t=t: kg.approx_F(xv, t, _KG_WAVE, q), x, scheme_x, deriv=2
            )
            pairs.append((abs(closed - fd), abs(closed)))
            closed = kg.d2t_approx_F(x, t, _KG_WAVE, q)
            fd, _ = verify.fd_derivative(
                lambda tv, x=x: kg.approx_F(x, tv, _KG_WAVE, q), t, scheme_t, deriv=2
            )
            pairs.append((abs(closed - fd), abs(closed)))
    key = "kleingordon.d2_approx_fd"
    rows.append(
        CheckRow(
            key,
            "closed-form second derivatives of the approximant against FD",
            _max_rel(pairs),
            tol.get(key, 1e-8),
            "le",
        )
    )
    return rows


_SUITES = {
    "planewave": _suite_planewave,
    "separation": _suite_separation,
    "gaussian": _suite_gaussian,
    "kleingordon": _suite_kleingordon,
}


def _parse_tol_overrides(entries, parser) -> dict[str, float]:
    overrides: dict[str, float] = {}
    for entry in entries or ():
        key, eq, value = entry.partition("=")
        if not eq:
            parser.error(f"--tol expects CHECK=VALUE, got {entry!r}")
        try:
            overrides[key.strip()] = float(value)
        except ValueError:
            parser.error(f"--tol {key}: not a number: {value!r}")
    return overrides


def cmd_verify(args, parser) -> int:
    opt = _merge_options(args, parser, _VERIFY_CASTS)
    suite = opt.get("suite", "all")
    tol = _parse_tol_overrides(args.tol, parser)
    names = list(_SUITES) if suite == "all" else [suite]
    started = time.perf_counter()
    rows: list[CheckRow] = []
    for name in names:
        rows.extend(_SUITES[name](tol))
    elapsed = time.perf_counter() - started

    width = max(len(row.key) for row in rows)
    print(f"{'check':<{width}}  {'measured':>12}  {'tolerance':>12}  status  claim")
    failed = 0
    for row in rows:
        if row.sense == "report":
            tol_text, status = "-", "INFO"
        else:
            cmp = "<=" if row.sense == "le" else ">="
            tol_text = f"{cmp}{row.tolerance:g}"
            status = "PASS" if row.passed else "FAIL"
            failed += 0 if row.passed else 1
        print(
            f"{row.key:<{width}}  {row.measured:>12.3e}  {tol_text:>12}  "
            f"{status:<6}  {row.claim}"
        )
    print(
        f"{len(rows)} checks: {len(rows) - failed} passed, {failed} failed "
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
    # this rule: an argument starting "-digit" or "-.digit" is a number
    ratio._negative_number_matcher = re.compile(r"-\.?\d")
    ratio.set_defaults(func=cmd_ratio, parser=ratio)

    verify_p = sub.add_parser("verify", help="run the self-consistency suites")
    verify_p.add_argument(
        "--suite",
        choices=("planewave", "separation", "gaussian", "kleingordon", "all"),
    )
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
