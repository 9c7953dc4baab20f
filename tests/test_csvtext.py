"""The numpy CSV formatter writes exactly the bytes of "%.17g".

csvtext.rows_text is checked against Python's "%" on over a million
doubles: every exponent and sign, both benchmark sweeps, the powers of ten
the exponent estimate can miss, and exact decimal ties, where only
round-half-to-even gives the bytes of "%".
"""

import decimal
import inspect

import numpy as np
import pytest

from qwave import csvtext, scenarios
from qwave import qgaussian as qg

CHUNK = 65_536  # values per rows_text call, so the kernel's temporaries stay small


def reference(values: np.ndarray) -> str:
    return ("%.17g\n" * len(values)) % tuple(values.tolist())


def mismatches(values: np.ndarray) -> list[tuple[str, str]]:
    """(kernel, %) text of each value on which the two differ."""
    bad = []
    for i in range(0, len(values), CHUNK):
        chunk = values[i:i + CHUNK]
        got, want = csvtext.rows_text(chunk), reference(chunk)
        if got != want:
            bad += [(g, w) for g, w in zip(got.split("\n"), want.split("\n")) if g != w]
    return bad


def random_patterns(rng, n: int, exponents: tuple[int, int] = (0, 2048)) -> np.ndarray:
    """Doubles from random 64-bit patterns, the biased exponent drawn from exponents."""
    bits = rng.integers(0, 2 ** 64, size=n, dtype=np.uint64)
    exponent = rng.integers(*exponents, size=n).astype(np.uint64)
    bits = (bits & np.uint64(0x800F_FFFF_FFFF_FFFF)) | (exponent << np.uint64(52))
    return bits.view(np.float64)


def powers_of_ten() -> np.ndarray:
    powers = np.array([float(f"1e{k}") for k in range(-12, 18)])
    return np.concatenate([np.nextafter(powers, 0.0), powers, np.nextafter(powers, np.inf)])


def ties(rng, per_exponent: int = 200) -> np.ndarray:
    """Doubles j 2^-(s+1), j odd, whose exact expansion is N + 1/2 times
    10^-s with N of 17 digits: a tie at the 17th significant digit."""
    out = []
    for s in range(1, 25):
        lo, hi = -(-2 * 10 ** 16 // 5 ** s), min(2 * 10 ** 17 // 5 ** s, 2 ** 53)
        for j in rng.integers(lo, hi, size=per_exponent).tolist():
            out.append(float(j | 1) / 2.0 ** (s + 1))
    return np.array(out)


def tie_digit(v: float) -> int | None:
    """The 17th significant digit of v when its exact expansion ties there."""
    digits = decimal.Decimal(v).normalize(decimal.Context(prec=1000)).as_tuple().digits
    return digits[16] if len(digits) == 18 and digits[17] == 5 else None


EDGES = np.array([0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
                  1.7976931348623157e308, -1.7976931348623157e308, np.inf, -np.inf, np.nan])


def sweep_values() -> np.ndarray:
    packet = scenarios.run_gaussian_sweep(qg.GaussianParams(m=1.0, beta=1.0, q=1.001),
                                          (0.0, 4.0, 200_001))
    plane = scenarios.run_ratio_sweep(
        scenarios.ParticleScenario.from_mev("electron", 1.0, 1e-9, x_range=(0.0, 1.0, 200_001)))
    return np.concatenate([packet.x, packet.values, plane.x, plane.values])


def test_kernel_writes_the_bytes_of_percent_17g():
    rng = np.random.default_rng(20261018)
    subnormals = random_patterns(rng, 1000, (0, 1))
    tie_values = ties(rng)
    groups = {
        "random 64-bit patterns": random_patterns(rng, 2 ** 18),
        "patterns in the kernel's range": random_patterns(rng, 2 ** 18, (1023 - 40, 1023 + 60)),
        "sweeps": sweep_values(),
        "powers of ten": powers_of_ten(),
        "ties": np.concatenate([tie_values, -tie_values]),
        "edges and subnormals": np.concatenate([EDGES, subnormals]),
    }
    assert sum(map(len, groups.values())) >= 10 ** 6
    for name, values in groups.items():
        assert mismatches(values) == [], name


def test_ties_round_half_to_even_and_half_up_would_fail(monkeypatch):
    rng = np.random.default_rng(7)
    values = ties(rng, per_exponent=20)
    digits = [tie_digit(v) for v in values.tolist()]
    assert None not in digits
    assert {d % 2 for d in digits} == {0, 1}  # even and odd 17th digits
    assert mismatches(values) == []

    source = inspect.getsource(csvtext._digits)
    half_even = "(rem + (n & _U(1))) > half"
    assert source.count(half_even) == 1
    namespace = dict(vars(csvtext))
    exec(source.replace(half_even, "rem >= half"), namespace)
    monkeypatch.setattr(csvtext, "_digits", namespace["_digits"])
    bad = mismatches(values)
    assert bad and len(bad) < len(values)  # only the ties on an even digit move


@pytest.mark.parametrize("columns", [1, 2, 3])
def test_rows_join_columns_like_the_percent_template(columns):
    values = np.random.default_rng(columns).normal(size=(100, columns)) * 10.0 ** np.arange(columns)
    row = ",".join(["%.17g"] * columns) + "\n"
    assert csvtext.rows_text(*values.T) == (row * 100) % tuple(values.ravel().tolist())
    assert csvtext.rows_text(*values[:0].T) == ""
