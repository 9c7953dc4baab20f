"""Self-tests of the qwave benchmark and its correctness gate.

Run from the root of a checkout:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import mpmath
import numpy as np
import pytest

import gate
import run

SMALL = 2001


def bench(*args: str, cwd: str = run.ROOT) -> subprocess.CompletedProcess:
    script = os.path.join(cwd, "perfbench", "run.py")
    return subprocess.run([sys.executable, script, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_smoke_run_emits_every_declared_metric(workload, trace):
    out = bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace,
                "--points", str(SMALL))
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = run.declared()["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for metric in result["metrics"].values():
        assert math.isfinite(metric["value"])


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = bench("--workload", "packet_csv", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=str(tmp_path))
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Small CLI outputs of both sweep workloads, produced as the benchmark does."""
    out = str(tmp_path_factory.mktemp("sweeps"))
    made = {}
    for cls in (run.PlanewaveJson, run.PacketCsv):
        workload = cls(SMALL)
        (argv,) = workload.steps(out)
        proc = run.spawn(run.command(argv, None), os.path.join(out, "stdout.txt"))
        assert proc.code == 0, proc.stdout
        made[cls.name] = (argv[-1], workload)
    return made


def _gate(path, workload, sample=range(0, SMALL, 97)):
    return gate.check_sweep(path, workload.fmt, workload.family, workload.points, sample)


def _rewrite(path, workload, mutate):
    """Apply mutate(xs, values) -> (xs, values) and write the file back."""
    column = workload.family.column
    xs, vals = gate.read_columns(path, workload.fmt, ("x", column))
    xs, vals = mutate(list(xs), list(vals))
    with open(path, "w", encoding="utf-8") as fh:
        if workload.fmt == "json":
            json.dump([{"x": x, column: v} for x, v in zip(xs, vals)], fh, indent=1)
        else:
            fh.write(f"x,{column}\n")
            fh.writelines(f"{x!r},{v!r}\n" for x, v in zip(xs, vals))


def _tenth_digit_changed(value: float) -> float:
    text = f"{value:.16e}"  # d.ddddddddddddddde+XX: text[10] is the 10th digit
    digit = (int(text[10]) + 5) % 10
    return float(text[:10] + str(digit) + text[11:])


@pytest.mark.parametrize("name", ["planewave_json", "packet_csv"])
def test_gate_accepts_output_and_one_ulp_changes(outputs, tmp_path, name):
    path, workload = outputs[name]
    assert _gate(path, workload) < 1e-13
    copy = str(tmp_path / os.path.basename(path))
    shutil.copy(path, copy)
    _rewrite(copy, workload, lambda xs, vs: (
        xs, [float(np.nextafter(v, 2.0)) if i % 7 == 0 else v for i, v in enumerate(vs)]))
    _gate(copy, workload)


@pytest.mark.parametrize("name", ["planewave_json", "packet_csv"])
def test_gate_rejects_one_value_changed_in_the_10th_digit(outputs, tmp_path, name):
    path, workload = outputs[name]
    row = SMALL // 3 + 1  # not among the oracle rows: the full-grid reference must catch it
    copy = str(tmp_path / os.path.basename(path))
    shutil.copy(path, copy)

    def mutate(xs, vals):
        vals[row] = _tenth_digit_changed(vals[row])
        return xs, vals

    _rewrite(copy, workload, mutate)
    with pytest.raises(gate.GateError, match=rf"\[{row}\]"):
        _gate(copy, workload, sample=[0])


@pytest.mark.parametrize("mutate", [
    lambda xs, vs: (xs[:-1], vs[:-1]),
    lambda xs, vs: (xs[:5] + [xs[5] * (1 + 1e-15)] + xs[6:], vs),
], ids=["missing_row", "x_off_linspace"])
def test_gate_rejects_bad_rows_and_grid(outputs, tmp_path, mutate):
    path, workload = outputs["packet_csv"]
    copy = str(tmp_path / "sweep.csv")
    shutil.copy(path, copy)
    _rewrite(copy, workload, mutate)
    with pytest.raises(gate.GateError):
        _gate(copy, workload)


def test_gate_finds_columns_by_name(outputs, tmp_path):
    path, workload = outputs["packet_csv"]
    xs, vals = gate.read_columns(path, "csv", ("x", "ratio"))
    copy = tmp_path / "sweep.csv"
    copy.write_text("x,ratio,dev\n" + "".join(f"{x!r},{v!r},{v - 1.0!r}\n"
                                              for x, v in zip(xs, vals)))
    _gate(str(copy), workload)


def test_gate_rejects_a_nonzero_exit(tmp_path):
    class BadPacket(run.PacketCsv):
        flags = run.PacketCsv.flags + ("--beta", "0")  # usage error: exit 2

    session = BadPacket(SMALL).run(str(tmp_path), np.random.default_rng(0), traced=False)
    assert session.error is not None and "exited 2" in session.error


def test_gate_rejects_a_failing_verify(tmp_path):
    argv = ["qwave", "verify", "--tol", "planewave.modulus_identity=1e-30"]
    proc = run.spawn(run.command(argv, None), str(tmp_path / "verify.txt"))
    assert proc.code == 1
    with pytest.raises(gate.GateError, match="exited 1"):
        gate.check_verify(proc.code, proc.stdout, run.VERIFY_CHECKS)
    with pytest.raises(gate.GateError, match="expected all"):
        gate.check_verify(0, proc.stdout, run.VERIFY_CHECKS)


@pytest.mark.parametrize("family", [f for _, f in run.FIGURES], ids=[n for n, _ in run.FIGURES])
def test_reference_agrees_with_the_oracle(family):
    xs = np.random.default_rng(7).uniform(0.0, family.xmax, 40)
    ref = gate.reference(family, xs)
    with mpmath.workdps(gate.ORACLE_DPS):
        for x, r in zip(xs, ref):
            exact = gate.oracle(family, float(x))
            assert abs((mpmath.mpf(str(r)) - exact) / exact) <= gate.REF_TOL
