"""Command-line front end.

Two subcommands:

* ``qwave ratio`` sweeps the approximate/exact deviation ratio over x and
  writes CSV (or JSON), optionally with an SVG plot.
* ``qwave verify`` measures the checks declared in ``qwave.checks``
  (residual grids, jet-vs-FD cross-checks, order-of-convergence fits),
  selected by suite, and prints a claim/measured/tolerance table.

Only a ``qwave ratio`` sweep longer than one block (scenarios.BLOCK_ROWS
points) loads numpy, and only its CSV and JSON writers load
qwave.floattext: each is imported in the functions that use it.  A sweep
of one block, as both defaults and every figure are, is evaluated and
written on Python floats.  Importing this module and running ``qwave
verify`` load neither, nor json or inspect: the value types are
immutable __slots__ classes on qcore.Frozen.

Each option is declared once, on the subcommand's argparse parser, and has
one spelling: an abbreviated flag is refused.  An argument @FILE is
replaced by the file's lines, one argument each (argparse's
fromfile_prefix_chars), so a file holds the flags themselves and position
decides: of two values of a flag, the later one wins.

Exit codes: 0 success, 1 verify found a failing check, 2 bad flags or an
unreadable argument file (including a --tol for no check or with a
non-finite value, and a nonzero --q-minus-1 that rounds away in
q = 1 + (q-1)), 3 numeric failure while computing (an overflow of the
momentum, phase or packet exponent names the flag at whose value it
occurred).

Output determinism: CSV prints floats with the bytes of %.17g (17
significant digits), JSON with the shortest repr that round-trips, and
lines end in "\n" on every platform, so repeated runs write identical
bytes.  A sweep is evaluated in full, then formatted and written: a
writer's row template (one %s per column) is filled by "%" for one block,
else block by block (scenarios.BLOCK_ROWS rows) by qwave.floattext.text
in numpy from exact integer digits, with "%" or repr for the values it
does not prove (zero, inf, nan, |v| outside [1e-11, 2^51) and a few more).
Nothing is written for a refused sweep, nor for an --out or plot path that
is a directory or lies in none (refused before the sweep), and a failed
write removes the data file and its plot: both or neither remain.

A qwave process (the console script, python -m qwave and
scripts/run_figures.py) enters through run(), not main(): it runs without
the cyclic garbage collector and freezes its heap before it exits.  Its
work makes almost no reference cycles, so the collector's passes during a
run free next to nothing, and the full collections of interpreter shutdown
would walk numpy's whole import heap to free none of it either; both cost a
one-shot sweep ~30 ms.  main() itself leaves the collector as it finds
it, so a caller that runs it in-process, such as the tests, keeps its own.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import functools
import gc
import math
import os
import re
import sys
import time
from array import array
from typing import TextIO

from . import checks
from . import planewave as pw
from . import qgaussian as qg
from . import scenarios
from .errors import BranchCutViolation, NonFiniteInput, NonFiniteResult, QWaveError

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3

# Largest --points accepted; checked before the grid is allocated.
MAX_POINTS = 10_000_000


# -- ratio subcommand ----------------------------------------------------


# Both writers format a whole file, or one block of its rows: first=False
# leaves out what opens the file and last=False what closes it, so the
# texts of consecutive non-empty blocks concatenate to the whole file.
# Each builds its row template from the header's column names, and _text fills it.


def _text(template: str, columns: tuple, shortest: bool) -> str:
    """template % (v0, v1, ...) for each row of the columns, concatenated,
    each %s filled with "%.17g" % v or, if shortest, repr(v): by "%" itself
    on the array.array columns of a one-block sweep, else by qwave.floattext."""
    if isinstance(columns[0], array):
        row = template.replace("%s", "%r" if shortest else "%.17g")
        return (row * len(columns[0])) % tuple(v for values in zip(*columns) for v in values)
    from .floattext import text

    return text(columns, template, shortest)


def format_rows_csv(header: tuple[str, ...], rows: scenarios.Sweep, *, first: bool = True,
                    last: bool = True) -> str:
    """CSV text of the sweep's columns that the header names, in its order.
    first=False leaves out the header; CSV has no closing text to leave out."""
    columns = tuple(rows.columns[name] for name in header)
    text = ",".join(header) + "\n" if first else ""
    return text + _text(",".join(["%s"] * len(header)) + "\n", columns, False)


def format_rows_json(header: tuple[str, ...], rows: scenarios.Sweep, *, first: bool = True,
                     last: bool = True) -> str:
    """The bytes of json.dumps(records, indent=1) + "\n" for the records
    {name: value, ...} of the sweep's columns that the header names, in its
    order, written without building them (repr is json's text of a finite
    float).  first=False starts with the "," after the previous block
    instead of "["; last=False leaves out the closing "]"."""
    if not len(rows):
        return "[]\n" if first and last else ""
    record = ",\n {\n" + ",\n".join(f'  "{name}": %s' for name in header) + "\n }"
    text = _text(record, tuple(rows.columns[name] for name in header), True)
    return ("[" + text[1:] if first else text) + ("\n]\n" if last else "")


@contextlib.contextmanager
def _written(path: str):
    """path opened for writing; if the block or the close fails, a regular
    file there is removed again, so a failed write leaves no partial file."""
    fh = open(path, "w", encoding="utf-8", newline="")
    try:
        with fh:
            yield fh
    except BaseException:
        if os.path.isfile(path) and not os.path.islink(path):
            os.remove(path)
        raise


def _write_output(out: TextIO, text: str) -> None:
    """Write one formatted block: the write stage that perfbench times."""
    out.write(text)


def _write_sweep(out: TextIO, fmt: str, sweep: scenarios.Sweep) -> None:
    """Format all the sweep's columns block by block, writing each block before the next."""
    format_rows = format_rows_csv if fmt == "csv" else format_rows_json
    header, blocks = tuple(sweep.columns), sweep.blocks()
    for i, block in enumerate(blocks):
        _write_output(out, format_rows(header, block, first=i == 0, last=i == len(blocks) - 1))


def emit_plot_svg(rows: scenarios.Sweep, meta: dict[str, str], out_path: str) -> None:
    """Hand-rolled SVG line plot of the second column over the first; no plotting dependency."""
    if not len(rows):
        raise ValueError("no data rows to plot")
    grid, name = list(rows.columns)[:2]
    width, height = 800.0, 500.0
    ml, mr, mt, mb = 75.0, 20.0, 45.0, 55.0
    xs, ys = rows.columns[grid].tolist(), rows.columns[name].tolist()
    xmin, xmax = min(xs), max(xs)
    ymin, ymax = min(ys), max(ys)
    if xmax == xmin:
        xmax = xmin + 1.0
    pad = (ymax - ymin) or abs(ymax) or 1.0
    ymin -= 0.05 * pad
    ymax += 0.05 * pad

    def sx(values):
        span, size = xmax - xmin, width - ml - mr
        return [ml + (x - xmin) / span * size for x in values]

    def sy(values):
        span, size = ymax - ymin, height - mt - mb
        return [height - mb - (y - ymin) / span * size for y in values]

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect width="{width:.0f}" height="{height:.0f}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="25" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{meta["title"]}</text>',
    ]
    xticks = [xmin + i * (xmax - xmin) / 4.0 for i in range(5)]
    yticks = [ymin + i * (ymax - ymin) / 4.0 for i in range(5)]
    for xv, yv, px, py in zip(xticks, yticks, sx(xticks), sy(yticks)):
        parts.append(
            f'<line x1="{px:.2f}" y1="{height - mb:.2f}" x2="{px:.2f}" '
            f'y2="{mt:.2f}" stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<line x1="{ml:.2f}" y1="{py:.2f}" x2="{width - mr:.2f}" '
            f'y2="{py:.2f}" stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{px:.2f}" y="{height - mb + 18:.2f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{xv:.4g}</text>'
        )
        parts.append(
            f'<text x="{ml - 8:.2f}" y="{py + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{yv:.6g}</text>'
        )
    parts.append(
        f'<rect x="{ml:.2f}" y="{mt:.2f}" width="{width - ml - mr:.2f}" '
        f'height="{height - mt - mb:.2f}" fill="none" stroke="black"/>'
    )
    points = ("%.2f,%.2f " * len(xs) % tuple(v for xy in zip(sx(xs), sy(ys)) for v in xy))[:-1]
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
        f'transform="rotate(-90 18 {(mt + height - mb) / 2:.1f})">{name}</text>'
    )
    parts.append("</svg>")
    with _written(out_path) as fh:
        fh.write("\n".join(parts) + "\n")


# --q-minus-1, --xmax and --points when not given: plane wave, packet (--gaussian).
_MODE_DEFAULTS = {
    False: {"q_minus_1": 1e-9, "xmax": 1.0, "points": 2001},
    True: {"q_minus_1": 1e-3, "xmax": 4.0, "points": 1001},
}


def _defaults_help(key: str) -> str:
    """The help text's defaults of one flag, read from _MODE_DEFAULTS."""
    return "default {:g}; {:g} packet".format(*(_MODE_DEFAULTS[g][key] for g in (False, True)))


def _overflow_refusal(args) -> NonFiniteResult | None:
    """The refusal of a sweep that met a non-finite value, naming a flag.

    Starting from the mode's defaults (x = --xmax and q - 1 = --q-minus-1
    of _MODE_DEFAULTS, t = 0, unit energy, mass and width), the flags take
    the user's values one at a time until one of the model's terms is not
    finite: for the plane wave its momentum (--energy-mev), its phase
    p x - E t or its first-order term (1-q) u^2/2 (--t, --xmax); for the
    packet its exponents G0, G, its first-order term c of
    qgaussian.ratio_terms or the q-exponential's argument (q-1) G (--t,
    --xmax, --m, --beta); --q-minus-1 comes last.  The message names the
    first such term and the flag set last.  None when the fault lies
    elsewhere.
    """
    values = {key: _MODE_DEFAULTS[args.gaussian][key] for key in ("xmax", "q_minus_1")}
    if args.gaussian:
        steps = [(key, "packet exponent") for key in ("t", "xmax", "m", "beta")]

        def terms(xmax, q_minus_1, m=1.0, beta=1.0, t=0.0):
            c, g0, g = qg.ratio_terms(xmax, t, qg.GaussianParams(m=m, beta=beta, q=1 + q_minus_1))
            return [("packet exponent", g0), ("packet exponent", g), ("first-order term", c),
                    ("q-exponential argument (q-1) G", q_minus_1 * g)]

    else:
        steps = [("energy_mev", "momentum"), ("t", "phase p x - E t"), ("xmax", "phase p x - E t")]

        def terms(xmax, q_minus_1, energy_mev=1.0, t=0.0):
            scn = scenarios.ParticleScenario.from_mev(
                args.species, energy_mev, q_minus_1, args.momentum_model
            )
            point = pw.PhasePoint(xmax, t)
            c, g0 = pw.ratio_terms(point, scenarios.wave_for(scn), 1 + q_minus_1)
            return [("phase p x - E t", g0), ("first-order term", c)]

    def non_finite(quantity) -> str | None:
        """The first term that is not finite at values; quantity when one
        cannot be evaluated."""
        try:
            return next((name for name, v in terms(**values) if not cmath.isfinite(v)), None)
        except (NonFiniteInput, NonFiniteResult):
            return quantity

    if non_finite("reference point"):
        return None
    for key, quantity in [*steps, ("q_minus_1", "first-order term")]:
        values[key] = getattr(args, key)
        name = non_finite(quantity)
        if name:
            flag = "--" + key.replace("_", "-")
            return NonFiniteResult(f"the {name} is not finite at {flag} {values[key]!r}")
    return None


def _cutoff_refusal(args) -> BranchCutViolation | None:
    """The refusal of a packet sweep whose grid reaches the branch cut of its
    base 1 + (q-1) G, naming x_c and --xmax.  With real a, b, c (t = 0) the
    base first meets the cut at the least root x_c in [0, --xmax] of
    (q-1)(a x^2 + b x + c) = -1, the edge of a q < 1 packet's support."""
    params = qg.GaussianParams(m=args.m, beta=args.beta, q=1.0 + args.q_minus_1)
    (a, b, c), eps = qg.coeffs_exact(args.t, params), params.q - 1.0
    A, B, C = eps * a, eps * b, 1.0 + eps * c
    disc = (B * B - 4.0 * A * C).real
    if any(v.imag for v in (A, B, C)) or disc < 0.0:
        return None
    s = -(B.real + math.copysign(math.sqrt(disc), B.real)) / 2.0  # roots s/A, C/s
    roots = (s / A.real, C.real / s) if A.real else (C.real / s,) if s else ()  # linear if A = 0
    x_c = min((r for r in roots if 0.0 <= r <= args.xmax), default=None)
    return None if x_c is None else BranchCutViolation(
        f"the packet's q-power base 1 + (q-1) G reaches the branch cut where (q-1) G = -1: "
        f"set --xmax below x_c = {x_c!r} (got --xmax {args.xmax!r})"
    )


def cmd_ratio(args, parser) -> int:
    gaussian = args.gaussian
    for key, default in _MODE_DEFAULTS[gaussian].items():
        if getattr(args, key) is None:
            setattr(args, key, default)

    if args.points < 2:
        parser.error(f"--points must be at least 2, got {args.points}")
    if args.points > MAX_POINTS:
        parser.error(f"--points must be at most {MAX_POINTS}, got {args.points}")
    if not (math.isfinite(args.xmax) and args.xmax > 0):
        parser.error(f"--xmax must be finite and positive, got {args.xmax}")
    if args.q_minus_1 != 0 and 1.0 + args.q_minus_1 == 1.0:
        parser.error(f"--q-minus-1 {args.q_minus_1!r} rounds away: 1 + (q-1) == 1 in double")
    if not gaussian and args.energy_mev <= 0:
        parser.error(f"--energy-mev must be positive, got {args.energy_mev}")
    if gaussian and args.m <= 0:
        parser.error(f"--m must be positive, got {args.m}")
    if gaussian and args.beta == 0:
        parser.error("--beta must be nonzero")
    if args.plot != "none" and args.out is None:
        parser.error("--plot requires --out")
    svg_path = None if args.plot == "none" else os.path.splitext(args.out)[0] + ".svg"
    if svg_path is not None and svg_path == args.out:
        parser.error(f"--plot svg writes its plot to --out {args.out!r}: give --out another suffix")
    for flag, path in (("--out", args.out), ("--plot svg", svg_path)):  # before the sweep
        parent = os.path.dirname(path or "") or os.curdir
        problem = ("is a directory" if os.path.isdir(path or "") else
                   None if os.path.isdir(parent) else f"is in {parent!r}, which is no directory")
        if path is not None and problem:
            print(f"qwave: cannot write output: {flag} {path!r} {problem}", file=sys.stderr)
            return EXIT_USAGE

    x_range = (0.0, args.xmax, args.points)
    try:
        if gaussian:
            meta = {"title": f"q-Gaussian ratio vs. x: m={args.m:g}, beta={args.beta:g}, "
                             f"q-1={args.q_minus_1:g}", "xlabel": "x (natural units)"}
            params = qg.GaussianParams(m=args.m, beta=args.beta, q=1.0 + args.q_minus_1)
            sweep = scenarios.run_gaussian_sweep(params, x_range, args.t)
        else:
            meta = {"title": f"Ratio R vs. x: {args.energy_mev:g} MeV {args.species}, "
                             f"q-1={args.q_minus_1:g}", "xlabel": "x (hbar c/MeV)"}
            scn = scenarios.ParticleScenario.from_mev(
                args.species, args.energy_mev, args.q_minus_1, args.momentum_model, x_range, args.t
            )
            sweep = scenarios.run_ratio_sweep(scn)
    except (NonFiniteInput, NonFiniteResult, BranchCutViolation) as exc:
        # the sweep stops at its first failing block (one block at its first
        # failing point), so the fault it meets first depends on the path: the
        # refusal is read from the flags instead, an overflow before the cut
        refusal = _overflow_refusal(args)
        if refusal is None and gaussian:
            refusal = _cutoff_refusal(args)
        if refusal is None:
            raise
        raise refusal from exc

    try:  # the data file and its plot are written both or neither
        with (_written(args.out) if args.out is not None
              else contextlib.nullcontext(sys.stdout)) as out:
            _write_sweep(out, args.format, sweep)
            if svg_path is not None:
                out.flush()  # a failed data write shows before the plot is written
                emit_plot_svg(sweep, meta, svg_path)
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
        if key not in checks.REGISTRY:
            parser.error(f"--tol: no check named {key!r}")
        try:
            overrides[key] = float(value)
        except ValueError:
            parser.error(f"--tol {key}: not a number: {value!r}")
        if not math.isfinite(overrides[key]):
            parser.error(f"--tol {key}: must be finite, got {value!r}")
    return overrides


def cmd_verify(args, parser) -> int:
    tol = _parse_tol_overrides(args.tol, parser)
    selected = [c for c in checks.REGISTRY.values() if args.suite in ("all", c.suite)]
    started = time.perf_counter()
    measured = [check.measure() for check in selected]
    elapsed = time.perf_counter() - started

    width = max(len(check.key) for check in selected)
    print(f"{'check':<{width}}  {'measured':>12}  {'tolerance':>12}  status  claim")
    failed = 0
    for check, value in zip(selected, measured):
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


@functools.cache  # one parser per process, shared, so read-only: main() may run many times
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qwave",
        description="Exact and first-order q-deformed wave solutions: "
        "figure sweeps and verification suites.",
        fromfile_prefix_chars="@",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ratio = sub.add_parser("ratio", help="sweep the approx/exact ratio over x", allow_abbrev=False)
    ratio.add_argument("--species", choices=tuple(scenarios.SPECIES_MASS_KG), default="electron")
    ratio.add_argument("--energy-mev", type=float, default=1.0, help="kinetic energy in MeV")
    ratio.add_argument("--q-minus-1", type=float, help=_defaults_help("q_minus_1"))
    ratio.add_argument("--xmax", type=float, help=_defaults_help("xmax"))
    ratio.add_argument(
        "--points", type=int, help=f"grid points, 2 to {MAX_POINTS} ({_defaults_help('points')})"
    )
    ratio.add_argument("--t", type=float, default=0.0)
    ratio.add_argument("--momentum-model", choices=scenarios.MOMENTUM_MODELS,
                       default="relativistic")
    ratio.add_argument("--gaussian", action=argparse.BooleanOptionalAction, default=False,
                       help="sweep the packet ratio instead of the plane wave")
    ratio.add_argument("--m", type=float, default=1.0, help="packet mass (gaussian mode)")
    ratio.add_argument("--beta", type=float, default=1.0, help="packet width (gaussian mode)")
    ratio.add_argument("--out", help="output path (default: stdout)")
    ratio.add_argument("--format", choices=("csv", "json"), default="csv")
    ratio.add_argument("--plot", choices=("none", "svg"), default="none")
    # Python 3.11's argparse takes "-1e-3" for an option; later versions use
    # this rule: an argument starting "-digit" or "-.digit" is a number.
    # -inf and -nan, in any case, are numbers too, as float() reads them.
    ratio._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)
    ratio.set_defaults(func=cmd_ratio, parser=ratio)

    verify_p = sub.add_parser("verify", help="run the self-consistency suites", allow_abbrev=False)
    verify_p.add_argument("--suite", choices=(*checks.SUITES, "all"), default="all")
    verify_p.add_argument("--tol", action="append", metavar="CHECK=VALUE",
                          help="override one check's tolerance (repeatable)")
    verify_p.set_defaults(func=cmd_verify, parser=verify_p)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UnicodeDecodeError as exc:  # raised by argparse's @file reader before 3.12
        parser.error(f"cannot decode an argument file: {exc}")
    except RecursionError:
        parser.error("argument files nest without end: does one name itself?")
    try:
        return args.func(args, args.parser)
    except (QWaveError, ArithmeticError, ValueError) as exc:
        print(f"qwave: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def run(entry=main):
    """Run entry() as the whole process and exit with its status: the cyclic
    collector is off while it runs, and the heap is frozen after it, so that
    shutdown's collections skip it (see the module docstring)."""
    gc.disable()
    try:
        raise SystemExit(entry())
    finally:
        gc.freeze()
