"""Correctness gate for qwave CLI outputs, independent of qwave itself.

Every timed invocation must pass it.  A sweep output passes when

* it has exactly the requested number of rows,
* its ``x`` column equals ``numpy.linspace`` bit for bit,
* every value of its ratio column lies within ``REL_TOL`` of a closed-form
  reference evaluated here in extended precision (numpy ``longdouble``),
* at the sampled rows, the output lies within ``REL_TOL`` and the
  reference within ``REF_TOL`` of a 50-digit mpmath oracle.

The reference is what makes the worst error over every row cheap to
measure; the oracle is what makes the reference trustworthy.  Columns are
found by header name, so extra columns are ignored.  Byte hashes are never
compared: a change of one ulp in some values is not a failure, a change in
the 10th significant digit of one value is.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field

import mpmath
import numpy as np

REL_TOL = 1e-12
REF_TOL = 1e-17
ORACLE_DPS = 50

# CODATA 2018, as in qwave.scenarios (c and e are exact).
_C = "299792458"
_EV_J = "1.602176634e-19"
_MASS_KG = {"electron": "9.1093837015e-31", "proton": "1.67262192369e-27"}

VERIFY_SUMMARY = re.compile(r"^(\d+) checks: (\d+) passed, (\d+) failed", re.M)
_VERIFY_ROW = re.compile(r"^(\S+)\s+(\S+)\s+(<=|>=)(\S+)\s+(\S+)\s", re.M)

if np.finfo(np.longdouble).eps > 1e-18:
    raise ImportError("the gate's reference needs an extended-precision numpy longdouble")


class GateError(Exception):
    """An output that the gate rejects."""


def _ld(value) -> np.longdouble:
    return np.longdouble(mpmath.nstr(value, 30, strip_zeros=False))


@dataclass(frozen=True)
class PlaneWave:
    """Ratio R of a figure plane wave: species at a kinetic energy, t = 0."""

    species: str
    energy_mev: float
    q_minus_1: float
    xmax: float = 1.0
    column: str = "R"
    pc: mpmath.mpf = field(init=False, repr=False)

    def __post_init__(self):
        with mpmath.workdps(ORACLE_DPS):
            c = mpmath.mpf(_C)
            mc2 = mpmath.mpf(_MASS_KG[self.species]) * c * c / (10**6 * mpmath.mpf(_EV_J))
            t = mpmath.mpf(self.energy_mev)
            # relativistic momentum pc = sqrt(T^2 + 2 T mc^2), in MeV
            object.__setattr__(self, "pc", mpmath.sqrt(t * t + 2 * t * mc2))

    def value(self, x, eps, lib):
        """|1 + (1-q)u^2/2| / |1 + i(1-q)u|^(1/(1-q)) with u = pc x."""
        u = (self.pc if lib is mpmath else _ld(self.pc)) * x
        return (1 - eps * u * u / 2) * lib.exp(lib.log1p(eps * eps * u * u) / (2 * eps))


@dataclass(frozen=True)
class Packet:
    """Ratio of the first-order to the exact q-Gaussian packet at t = 0."""

    q_minus_1: float
    m: float = 1.0
    beta: float = 1.0
    xmax: float = 4.0
    column: str = "ratio"

    def value(self, x, eps, lib):
        """|1 - eps(G1 - G0^2/2)| e^{-G0} / e_q(-G); a = mq, b = 1/beta, c = 0."""
        g0 = self.m * x * x + x / self.beta
        g1 = self.m * x * x
        g = self.m * (1 + eps) * x * x + x / self.beta
        return abs(1 - eps * (g1 - g0 * g0 / 2)) * lib.exp(-g0 + lib.log1p(eps * g) / eps)


def _eps(family) -> float:
    return (1.0 + family.q_minus_1) - 1.0  # q - 1 exactly as the CLI forms it


def reference(family, xs: np.ndarray) -> np.ndarray:
    """Extended-precision values of the family at float64 points xs."""
    return family.value(xs.astype(np.longdouble), np.longdouble(_eps(family)), np)


def oracle(family, x: float) -> mpmath.mpf:
    """50-digit value of the family at the float64 point x."""
    with mpmath.workdps(ORACLE_DPS):
        return family.value(mpmath.mpf(x), mpmath.mpf(_eps(family)), mpmath)


def read_columns(path: str, fmt: str, names: tuple[str, ...]) -> list[list[float]]:
    """The named columns of a CSV or JSON sweep output, as lists of floats."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if fmt == "json":
        try:
            records = json.loads(text)
            return [[float(r[name]) for r in records] for name in names]
        except (ValueError, KeyError, TypeError) as exc:
            raise GateError(f"{path}: unreadable JSON sweep ({exc!r})") from None
    lines = text.splitlines()
    header = lines[0].split(",") if lines else []
    try:
        cols = [header.index(name) for name in names]
        rows = [line.split(",") for line in lines[1:]]
        return [[float(fields[c]) for fields in rows] for c in cols]
    except (ValueError, IndexError) as exc:
        raise GateError(f"{path}: unreadable CSV sweep ({exc!r})") from None


def check_sweep(path: str, fmt: str, family, points: int, sample) -> float:
    """Gate one sweep output and return its worst relative error.

    Raises GateError.  sample lists the rows checked against the oracle.
    """
    xs, vals = (np.array(c) for c in read_columns(path, fmt, ("x", family.column)))
    if len(xs) != points:
        raise GateError(f"{path}: {len(xs)} rows, expected {points}")
    grid = np.linspace(0.0, family.xmax, points)
    if not np.array_equal(xs, grid):
        bad = int(np.flatnonzero(xs != grid)[0])
        raise GateError(f"{path}: x[{bad}] = {xs[bad]!r}, linspace gives {grid[bad]!r}")
    ref = reference(family, xs)
    rel = np.abs((vals - ref) / ref)
    worst = int(np.argmax(rel))
    if not rel[worst] <= REL_TOL:
        raise GateError(
            f"{path}: {family.column}[{worst}] = {vals[worst]!r} is {float(rel[worst]):.3e} "
            f"from the reference (tolerance {REL_TOL:g})"
        )
    with mpmath.workdps(ORACLE_DPS):
        for i in sample:
            exact = oracle(family, float(xs[i]))
            got = abs((mpmath.mpf(float(vals[i])) - exact) / exact)
            ref_err = abs((mpmath.mpf(str(ref[i])) - exact) / exact)
            if not (got <= REL_TOL and ref_err <= REF_TOL):
                raise GateError(
                    f"{path}: row {i}: output {float(got):.3e} and reference "
                    f"{float(ref_err):.3e} from the mpmath oracle"
                )
    return float(rel[worst])


def check_verify(returncode: int, stdout: str, expected_checks: int) -> list[float]:
    """Gate a `qwave verify` run; returns the margins of its upper-bound checks.

    A margin is log10(tolerance / measured) in decades, read from the
    printed table for every gated "<=" row with a nonzero measurement.
    """
    if returncode != 0:
        raise GateError(f"qwave verify exited {returncode}")
    match = VERIFY_SUMMARY.search(stdout)
    if match is None:
        raise GateError("qwave verify printed no summary line")
    if tuple(map(int, match.groups())) != (expected_checks, expected_checks, 0):
        raise GateError(f"verify printed {match.group(0)!r}, expected all "
                        f"{expected_checks} checks to pass")
    margins = []
    for key, measured, sense, tol, status in _VERIFY_ROW.findall(stdout):
        if status != "PASS":
            raise GateError(f"verify row {key} reads {status}")
        if sense == "<=" and float(measured) > 0.0:
            margins.append(math.log10(float(tol) / float(measured)))
    if not margins:
        raise GateError("verify table has no gated rows")
    return margins
