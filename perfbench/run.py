#!/usr/bin/env python3
"""qwave benchmark: drive the qwave CLI as a user would and gate its output.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload invocation is one or two child processes started from this
single process, one at a time; nothing here runs in parallel.  The
swept physics is fixed at the figure parameters, so every seed does the
same work; the seed picks only the rows checked against the 50-digit
oracle.  Every invocation must pass the correctness gate (gate.py).

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced invocations (traced.py) and prints the per-layer metrics.  The last
line of standard output is the JSON result; the line before it records the
machine and source the numbers come from.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"  # before numpy is imported, here and in every child

import numpy as np  # noqa: E402

import clock  # noqa: E402  (perfbench/ is sys.path[0])
import gate  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SWEEP_POINTS = 200_001
FIGURE_POINTS = 2001  # scripts/run_figures.py default for the plane-wave figures
PACKET_FIGURE_POINTS = 1001  # the packet figure keeps the CLI default
VERIFY_CHECKS = 44
ORACLE_ROWS = 128  # per sweep output, drawn from the seed
MIN_INVOCATIONS = 3
MIN_SETUPS = 15  # an import takes ~0.15 s, so take more samples than rounds give
CHILD_TIMEOUT_S = 150.0
PROBE_POINTS = 20_001


@dataclass
class Proc:
    """One finished child process."""

    code: int
    wall_s: float
    core_s: float  # wall_s scaled to the reference core speed (clock.py)
    rss_mb: float
    stdout: str


@dataclass
class Session:
    """One workload invocation (one or two processes) and its gate verdict."""

    wall_s: float = 0.0
    core_s: float = 0.0
    rss_mb: float = 0.0
    points: int = 0
    margins: list[float] = field(default_factory=list)
    max_rel_err: float = 0.0
    error: str | None = None
    traces: list[str] = field(default_factory=list)


def child_env() -> dict[str, str]:
    """Environment of every child: this checkout's src, one thread, no pool."""
    env = dict(os.environ)
    env.pop("QWAVE_THREADS", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # import from cached bytecode, as users do
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env.update({var: "1" for var in THREAD_VARS})
    return env


def spawn(cmd: list[str], output_path: str) -> Proc:
    """Run cmd from the checkout root; wall time from start to exit, peak RSS."""
    with open(output_path, "wb") as out, clock.CoreSampler() as core:
        started = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=out,
                                stderr=subprocess.STDOUT)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted or terminated: leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(output_path, encoding="utf-8", errors="replace") as fh:
        text = fh.read()
    return Proc(proc.returncode, wall, clock.scaled(wall, core.loops),
                usage.ru_maxrss / 1024.0, text)


def time_setup(tmp: str) -> Proc:
    """Seconds for a fresh interpreter to start and finish `import qwave`."""
    proc = spawn([sys.executable, "-c", "import qwave"], os.path.join(tmp, "setup.out"))
    if proc.code != 0:
        raise RuntimeError(f"`import qwave` failed: {proc.stdout.strip()[-300:]}")
    return proc


def command(argv: list[str], trace_path: str | None) -> list[str]:
    """Child command line for `qwave ARGS` or `SCRIPT ARGS`, traced or not."""
    if trace_path is not None:
        return [sys.executable, os.path.join(HERE, "traced.py"), "--out", trace_path,
                "--", *argv]
    if argv[0] == "qwave":
        return [sys.executable, "-m", "qwave", *argv[1:]]
    return [sys.executable, *argv]


class Workload:
    """A fixed CLI session plus the gate for its outputs."""

    name = ""

    def __init__(self, points: int):
        self.points = points

    def steps(self, out: str) -> list[list[str]]:
        raise NotImplementedError

    def check(self, out: str, procs: list[Proc], rng, session: Session) -> None:
        raise NotImplementedError

    def run(self, tmp: str, rng, traced: bool) -> Session:
        """Run one invocation in a fresh output directory, gate it, clean up."""
        out = tempfile.mkdtemp(prefix="inv-", dir=tmp)
        session = Session()
        try:
            procs = []
            for i, argv in enumerate(self.steps(out)):
                trace = os.path.join(out, f"trace{i}.json") if traced else None
                proc = spawn(command(argv, trace), os.path.join(out, f"stdout{i}.txt"))
                procs.append(proc)
                session.wall_s += proc.wall_s
                session.core_s += proc.core_s
                session.rss_mb = max(session.rss_mb, proc.rss_mb)
                if trace is not None and os.path.exists(trace):
                    with open(trace, encoding="utf-8") as fh:
                        session.traces.append(fh.read())
            for argv, proc in zip(self.steps(out), procs):
                if proc.code != 0:
                    tail = proc.stdout.strip().splitlines()[-1:] or [""]
                    raise gate.GateError(f"{argv[0]} exited {proc.code}: {tail[0]}")
            self.check(out, procs, rng, session)
        except (gate.GateError, OSError) as exc:
            session.error = str(exc)
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return session


def digits(rel_err: float) -> float:
    """-log10 of a relative error; errors below the reference's accuracy are not resolved."""
    return -math.log10(max(rel_err, gate.REF_TOL))


def margin(rel_err: float) -> float:
    """Decades between the gate's tolerance and a relative error."""
    return math.log10(gate.REL_TOL) + digits(rel_err)


def _sample(rng, n: int) -> np.ndarray:
    return rng.choice(n, size=min(n, ORACLE_ROWS), replace=False)


class Sweep(Workload):
    """One `qwave ratio` process writing a 200,001-point sweep to a file."""

    family: gate.PlaneWave | gate.Packet
    fmt = ""
    flags: tuple[str, ...] = ()

    def steps(self, out):
        path = os.path.join(out, f"sweep.{self.fmt}")
        return [["qwave", "ratio", *self.flags, "--points", str(self.points),
                 "--format", self.fmt, "--out", path]]

    def check(self, out, procs, rng, session):
        path = os.path.join(out, f"sweep.{self.fmt}")
        session.max_rel_err = gate.check_sweep(path, self.fmt, self.family, self.points,
                                               _sample(rng, self.points))
        session.points = self.points
        session.margins = [margin(session.max_rel_err)]


class PlanewaveJson(Sweep):
    name = "planewave_json"
    family = gate.PlaneWave("electron", 1.0, 1e-9)
    fmt = "json"
    flags = ("--species", "electron", "--energy-mev", "1.0", "--q-minus-1", "1e-9")


class PacketCsv(Sweep):
    name = "packet_csv"
    family = gate.Packet(1e-3)
    fmt = "csv"
    flags = ("--gaussian", "--q-minus-1", "1e-3", "--m", "1.0", "--beta", "1.0",
             "--xmax", "4.0")


FIGURES = [
    (f"ratio_{species}_qm1_{qm1}.csv", gate.PlaneWave(species, 1.0, float(qm1)))
    for species in ("electron", "proton")
    for qm1 in ("1e-9", "1e-12")
] + [("ratio_gaussian_qm1_1e-3.csv", gate.Packet(1e-3))]


class VerifySession(Workload):
    """`qwave verify` then `scripts/run_figures.py`, as two processes."""

    name = "verify_session"

    def steps(self, out):
        return [["qwave", "verify"],
                ["scripts/run_figures.py", "--outdir", os.path.join(out, "figures"),
                 "--points", str(self.points)]]

    def check(self, out, procs, rng, session):
        session.margins = gate.check_verify(procs[0].code, procs[0].stdout, VERIFY_CHECKS)
        for name, family in FIGURES:
            points = PACKET_FIGURE_POINTS if isinstance(family, gate.Packet) else self.points
            csv_path = os.path.join(out, "figures", name)
            err = gate.check_sweep(csv_path, "csv", family, points, _sample(rng, points))
            with open(csv_path[:-4] + ".svg", encoding="utf-8") as fh:
                if not fh.read().startswith("<svg"):
                    raise gate.GateError(f"{name[:-4]}.svg is not an SVG")
            session.points += points
            session.max_rel_err = max(session.max_rel_err, err)
        session.margins.append(margin(session.max_rel_err))


WORKLOADS = {w.name: w for w in (PlanewaveJson, PacketCsv, VerifySession)}


def end_to_end(sessions: list[Session], setups: list[Proc]) -> dict[str, float]:
    good = [s for s in sessions if s.error is None]
    timed = good or sessions
    return {
        "wall_s": statistics.median(s.core_s for s in timed),
        "points_per_s": statistics.median(s.points / s.core_s for s in timed),
        "setup_s": statistics.median(p.core_s for p in setups),
        "peak_rss_mb": statistics.median(s.rss_mb for s in timed),
        "ok_frac": len(good) / len(sessions),
        # precision of outputs that passed the gate; 0 when none did
        "oracle_digits": min((digits(s.max_rel_err) for s in good), default=0.0),
        "min_margin_dec": min((m for s in good for m in s.margins), default=0.0),
    }


def per_layer(untraced: list[Session], traced: list[Session], probe: dict) -> dict:
    """Per-layer metrics from the traced invocations and the probe."""
    traces = [json.loads(text) for s in traced for text in s.traces]
    durations: dict[str, list[float]] = {}
    for t in traces:
        for name, _parent, start, end, _info in t["spans"]:
            durations.setdefault(name, []).append(clock.scaled(end - start, t["loop_s"]))

    def median_s(name: str) -> float:
        return statistics.median(durations.get(name, [0.0]))

    # counts of one invocation: every traced invocation does identical work
    first = [json.loads(text) for text in traced[0].traces]
    counts: dict[str, int] = {}
    for t in first:
        for key, n in t["counts"].items():
            counts[key] = counts.get(key, 0) + n
    written = [info for t in first for name, _p, _s, _e, info in t["spans"]
               if name == "cli._write_output"]
    packet_rows = sum(info["rows"] for t in first for name, _p, _s, _e, info in t["spans"]
                      if name.startswith("cli.format_rows") and info["column"] == "ratio")
    coeff_calls = sum(n for key, n in counts.items()
                      if key.startswith("cli.cmd_ratio|qgaussian.coeffs_"))
    metrics = {
        "qwave.import_s": statistics.median(t["import_s"] for t in traces),
        "cli.grid_s": median_s("cli.grid"),
        "cli.write_s": median_s("cli._write_output"),
        "cli.bytes_written": sum(info["bytes"] for info in written),
        "qcore.q_pow_calls": sum(n for key, n in counts.items() if key.endswith("|qcore.q_pow")),
        "qgaussian.coeff_calls_per_pt": coeff_calls / packet_rows if packet_rows else 0.0,
        "trace.overhead_s": statistics.median(s.core_s for s in traced)
        - statistics.median(s.core_s for s in untraced),
    }
    metrics.update(probe)
    return metrics


def source_id() -> dict[str, str]:
    """Commit (when the checkout has git metadata) and a hash of the sources."""
    digest = hashlib.sha256()
    for sub in ("src", "scripts"):
        for dirpath, _dirnames, filenames in sorted(os.walk(os.path.join(ROOT, sub))):
            for fn in sorted(filenames):
                if fn.endswith(".py"):
                    path = os.path.join(dirpath, fn)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as fh:
                        digest.update(fh.read())
    commit = "unknown"
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.isfile(ref_path):
                with open(ref_path, encoding="utf-8") as fh:
                    commit = fh.read().strip()
    return {"commit": commit, "source_sha256": digest.hexdigest()}


def machine() -> dict[str, object]:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, **source_id()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--points", type=int, help="sweep size (smoke tests only)")
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "qwave", "cli.py")):
        print(f"perfbench: no qwave sources under {ROOT}/src", file=sys.stderr)
        return 2

    default_points = FIGURE_POINTS if args.workload == "verify_session" else SWEEP_POINTS
    workload = WORKLOADS[args.workload](args.points or default_points)
    rng = np.random.default_rng(args.seed)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    clock.pin_to_one_core()
    tmp = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        time_setup(tmp)  # warm-up: writes bytecode caches, fills the page cache
        setups, untraced, traced = [], [], []
        started = time.perf_counter()
        while True:
            setups.append(time_setup(tmp))
            untraced.append(workload.run(tmp, rng, traced=False))
            if args.trace:
                traced.append(workload.run(tmp, rng, traced=True))
            elapsed = time.perf_counter() - started
            # start another round only if it is expected to end within --seconds
            if (len(untraced) >= MIN_INVOCATIONS
                    and elapsed * (len(untraced) + 1) / len(untraced) > args.seconds):
                break
        while len(setups) < MIN_SETUPS:
            setups.append(time_setup(tmp))
        sessions = untraced + traced
        if args.trace:
            probe_path = os.path.join(tmp, "probe.json")
            proc = spawn([sys.executable, os.path.join(HERE, "traced.py"), "--out", probe_path,
                          "--probe", str(min(PROBE_POINTS, workload.points))],
                         os.path.join(tmp, "probe.out"))
            if proc.code != 0:
                raise RuntimeError(f"layer probe failed: {proc.stdout.strip()[-300:]}")
            with open(probe_path, encoding="utf-8") as fh:
                metrics = per_layer(untraced, traced, json.load(fh)["metrics"])
            units = {m["name"]: m["unit"] for m in declared()["per_layer"]}
        else:
            metrics = end_to_end(sessions, setups)
            units = {m["name"]: m["unit"] for m in declared()["end_to_end"]}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    for s in sessions:
        if s.error is not None:
            print(f"perfbench: gate rejected an invocation: {s.error}", file=sys.stderr)
    failed = sum(s.error is not None for s in sessions)
    samples = {"wall_s": [s.wall_s for s in untraced],
               "core_s": [s.core_s for s in untraced],
               "setup_wall_s": [p.wall_s for p in setups],
               "setup_core_s": [p.core_s for p in setups]}
    print(json.dumps({"machine": machine(), "samples": samples}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(sessions),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


def declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


if __name__ == "__main__":
    raise SystemExit(main())
