#!/usr/bin/env python3
"""Traced child process of the qwave benchmark.

Two modes, each writing one JSON trace file at exit:

* ``traced.py --out FILE -- qwave ARGS...`` (or ``-- SCRIPT ARGS...``)
  imports qwave, wraps its public functions from outside, and runs one
  CLI invocation (or script) in-process, exactly as ``python -m qwave``
  (or ``python SCRIPT``) would.  Spans and counts stay in memory.
* ``traced.py --out FILE --probe N`` times direct calls into each
  module's public functions at fixed inputs (the figure parameters), the
  same inputs on every workload.

Spans are ``[name, parent index, start, end, info]`` with raw times from
``time.perf_counter``; ``loop_s`` holds the calibration loop's times at start
and exit, for scaling them (clock.py).  Reported timings are scaled.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import io
import json
import os
import runpy
import statistics
import sys
import time

import clock  # perfbench/ is sys.path[0]; stdlib only, so it does not disturb the import timing

LOOPS_AT_START = clock.edge()
_t0 = time.perf_counter()
import qwave  # noqa: E402  (timed: this is qwave.import_s)

IMPORT_S = clock.scaled(time.perf_counter() - _t0, LOOPS_AT_START + clock.edge())

import numpy as np  # noqa: E402

from qwave import (  # noqa: E402
    cli,
    kleingordon as kg,
    planewave as pw,
    qcore,
    qgaussian as qg,
    scenarios,
    separation as sep,
    verify,
)

import gate  # noqa: E402


class Tracer:
    """Spans and counts recorded around calls into qwave, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: collections.Counter = collections.Counter()
        self.command = "-"
        self.ratio_started: float | None = None

    def begin(self, name: str, info: dict | None = None) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, parent, time.perf_counter(), None, info or {}])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def end(self, index: int) -> None:
        self.spans[index][3] = time.perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, **info):
        index = self.begin(name, info)
        try:
            yield
        finally:
            self.end(index)

    def wrap_span(self, module, attr: str, info=None) -> None:
        """Record a span around every call of module.attr."""
        fn = getattr(module, attr)
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"

        def wrapped(*args, **kwargs):
            index = self.begin(name, info(*args) if info else None)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(index)

        setattr(module, attr, wrapped)

    def wrap_count(self, fn, name: str, first_eval: bool = False) -> None:
        """Count calls of fn under every name a qwave module binds it to."""
        counts = self.counts

        def wrapped(*args, **kwargs):
            counts[f"{self.command}|{name}"] += 1
            if first_eval and self.ratio_started is not None:
                # the grid is built between cmd_ratio entry and the first evaluation
                self.spans.append(["cli.grid", self.stack[-1], self.ratio_started,
                                   time.perf_counter(), {}])
                self.ratio_started = None
            return fn(*args, **kwargs)

        for mod_name, module in list(sys.modules.items()):
            if mod_name == "qwave" or mod_name.startswith("qwave."):
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, attr, wrapped)

    def wrap_command(self, attr: str) -> None:
        """Span a CLI subcommand and label the counts made beneath it."""
        fn = getattr(cli, attr)
        name = f"cli.{attr}"

        def wrapped(args, parser):
            self.command = name
            self.ratio_started = time.perf_counter() if attr == "cmd_ratio" else None
            try:
                with self.span(name):
                    return fn(args, parser)
            finally:
                self.command, self.ratio_started = "-", None

        setattr(cli, attr, wrapped)

    def install(self) -> None:
        """Wrap the CLI stages and count the evaluation calls beneath them."""
        self.wrap_command("cmd_ratio")
        self.wrap_command("cmd_verify")
        rows_info = lambda header, rows: {"rows": len(rows), "column": header[1]}  # noqa: E731
        self.wrap_span(cli, "format_rows_csv", rows_info)
        self.wrap_span(cli, "format_rows_json", rows_info)
        self.wrap_span(cli, "_write_output", lambda path, text: {"bytes": len(text.encode())})
        self.wrap_span(cli, "emit_plot_svg")
        self.wrap_count(pw.ratio_R, "planewave.ratio_R", first_eval=True)
        self.wrap_count(qg.ratio_gaussian, "qgaussian.ratio_gaussian", first_eval=True)
        self.wrap_count(qcore.q_pow, "qcore.q_pow")
        self.wrap_count(qg.coeffs_exact, "qgaussian.coeffs_exact")
        self.wrap_count(qg.coeffs_first_order, "qgaussian.coeffs_first_order")


def run_invocation(tracer: Tracer, argv: list[str]) -> int:
    """Run `qwave ARGS` or `SCRIPT ARGS` in-process; returns the exit code."""
    tracer.install()
    if argv[0] == "qwave":
        with tracer.span("invocation", argv=argv):
            return cli.main(argv[1:])
    sys.argv = list(argv)
    with tracer.span("invocation", argv=argv):
        try:
            runpy.run_path(argv[0], run_name="__main__")
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 1
    return 0


def probe(tracer: Tracer, n: int, tmp: str) -> dict[str, float]:
    """Per-call costs of each module's public functions at fixed inputs."""
    metrics: dict[str, float] = {}

    def timed(name: str, fn, units: int, scale: float = 1e6, reps: int = 3):
        times = []
        for _ in range(reps):
            before = clock.edge()
            index = tracer.begin(name, {"units": units})
            fn()
            tracer.end(index)
            span = tracer.spans[index]
            times.append(clock.scaled(span[3] - span[2], before + clock.edge()))
        metrics[name] = statistics.median(times) * scale / units

    q_pw, q_pk = 1.0 + 1e-9, 1.0 + 1e-3
    scn = scenarios.ParticleScenario.from_mev("electron", 1.0, 1e-9, x_range=(0.0, 1.0, n))
    wave = scenarios.wave_for(scn)
    pts = [pw.PhasePoint(float(x)) for x in np.linspace(0.0, 1.0, n)]
    zs = [1j * pw.phase(p, wave) for p in pts]
    params = qg.GaussianParams(m=1.0, beta=1.0, q=q_pk)
    xg = [float(x) for x in np.linspace(0.0, 4.0, n)]
    jets = [qcore.QJet(complex(-x), complex(x * x)) for x in xg]

    timed("planewave.ratio_R_us_per_pt", lambda: [pw.ratio_R(p, wave, q_pw) for p in pts], n)
    timed("planewave.exact_psi_us_per_pt", lambda: [pw.exact_psi(p, wave, q_pw) for p in pts], n)
    timed("planewave.approx_psi_us_per_pt", lambda: [pw.approx_psi(p, wave, q_pw) for p in pts], n)
    timed("qcore.q_pow_us_per_call", lambda: [qcore.q_pow(z, q_pw) for z in zs], n)
    timed("qcore.jet_exp_us_per_call", lambda: [qcore.jet_exp(j) for j in jets], n)
    timed("qgaussian.ratio_us_per_pt", lambda: [qg.ratio_gaussian(x, 0.0, params) for x in xg], n)
    timed("qgaussian.coeffs_exact_us", lambda: [qg.coeffs_exact(0.0, params) for _ in xg], n)
    timed("qgaussian.coeffs_first_order_us",
          lambda: [qg.coeffs_first_order(0.0, params) for _ in xg], n)
    timed("scenarios.run_ratio_sweep_us_per_pt", lambda: scenarios.run_ratio_sweep(scn), n)
    timed("scenarios.run_gaussian_sweep_us_per_pt",
          lambda: scenarios.run_gaussian_sweep(params, (0.0, 4.0, n), 0.0), n)

    rows_pw = scenarios.run_ratio_sweep(scn)
    rows_pk = scenarios.run_gaussian_sweep(params, (0.0, 4.0, n), 0.0)
    timed("cli.format_json_us_per_row", lambda: cli.format_rows_json(("x", "R"), rows_pw), n)
    timed("cli.format_csv_us_per_row", lambda: cli.format_rows_csv(("x", "ratio"), rows_pk), n)
    figure = scenarios.run_ratio_sweep(
        scenarios.ParticleScenario.from_mev("electron", 1.0, 1e-9, x_range=(0.0, 1.0, 2001))
    )
    meta = {"title": "probe", "xlabel": "x (m)", "ylabel": "R"}
    svg_path = os.path.join(tmp, "probe.svg")
    timed("cli.svg_s", lambda: cli.emit_plot_svg(figure, meta, svg_path), 1, scale=1.0)

    run = passed = 0
    for suite in ("planewave", "separation", "gaussian", "kleingordon"):
        out = io.StringIO()

        def verify_suite(suite=suite, out=out):
            out.seek(0)
            out.truncate()
            with contextlib.redirect_stdout(out):
                if cli.main(["verify", "--suite", suite]) != 0:
                    raise gate.GateError(f"verify --suite {suite} failed")

        timed(f"cli.verify_{suite}_s", verify_suite, 1, scale=1.0)
        total, ok, _ = map(int, gate.VERIFY_SUMMARY.search(out.getvalue()).groups())
        run, passed = run + total, passed + ok
    metrics["verify.checks_run"] = run
    metrics["verify.checks_passed"] = passed

    fd_wave = pw.SchrodingerWave.free(p=1.3, m=1.0)
    scheme = verify.default_scheme(deriv=2)
    fd_fn = lambda xv: pw.approx_psi(pw.PhasePoint(xv, 0.5), fd_wave, 1.001)  # noqa: E731
    xs_small = xg[:: max(1, n // 500)]
    timed("verify.fd_derivative_us_per_call",
          lambda: [verify.fd_derivative(fd_fn, x, scheme, deriv=2) for x in xs_small],
          len(xs_small))
    timed("separation.residual_f_us_per_call",
          lambda: [sep.residual_f(x, 0.845, 1.1, family="exact") for x in xg], n)
    kg_wave = kg.KGWave.on_shell(k=1.1, m=1.0)
    timed("kleingordon.residual_kg_us_per_call",
          lambda: [kg.residual_kg(x, 0.5, kg_wave, 1.001, "approx") for x in xg], n)
    return metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, help="trace file to write at exit")
    ap.add_argument("--probe", type=int, metavar="N", help="probe size in points")
    ap.add_argument("argv", nargs="*", help="qwave ARGS... or SCRIPT ARGS...")
    args = ap.parse_args()
    tracer = Tracer()
    code, metrics = 0, {}
    try:
        if args.probe:
            metrics = probe(tracer, args.probe, os.path.dirname(os.path.abspath(args.out)))
        else:
            code = run_invocation(tracer, args.argv)
    finally:
        with open(args.out, "w", encoding="utf-8") as fh:
            loop_s = LOOPS_AT_START + clock.edge()
            json.dump({"import_s": IMPORT_S, "loop_s": loop_s, "spans": tracer.spans,
                       "counts": dict(tracer.counts), "metrics": metrics}, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
