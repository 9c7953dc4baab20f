"""The numpy float formatter writes exactly the bytes of "%.17g" (CSV) and
of repr (JSON).

floattext.text(columns, template, shortest) fills a row template, one %s
per column.  Its "%.17g" fields are checked against Python's "%" on over a
million doubles: every exponent and sign, both benchmark sweeps, the
powers of ten the exponent estimate can miss, and exact decimal ties, where
only round-half-to-even gives the bytes of "%".  Its shortest fields, in
the writer's JSON records, are checked against repr on over a million
doubles: shortest forms of 15, 16 and 17 digits, every power of two, the
neighbours of the powers of ten where the fixed and exponent forms meet,
and roundings that carry into the next decade.  cli._text fills the same
templates by "%" on the array.array columns of a one-block sweep; both
paths write the same bytes for one to three columns.
"""

import decimal
import inspect
from array import array

import numpy as np
import pytest

from qwave import cli, floattext, scenarios
from qwave import qgaussian as qg

CHUNK = 65_536  # values per kernel call, so the kernel's temporaries stay small


def reference(values: np.ndarray) -> str:
    return ("%.17g\n" * len(values)) % tuple(values.tolist())


RECORD = ',\n {\n  "v": %s\n }'  # a JSON record of the writer, as cli.format_rows_json builds it


def json_reference(values: np.ndarray) -> str:
    return ',\n {\n  "v": %r\n }' * len(values) % tuple(values.tolist())


def mismatches(values: np.ndarray, shortest: bool = False) -> list[tuple[str, str]]:
    """(kernel, reference) text of each value on which the two differ: "%.17g",
    or repr in the JSON records if shortest."""
    bad = []
    for i in range(0, len(values), CHUNK):
        chunk = values[i:i + CHUNK]
        if shortest:
            got, want, cut = floattext.text((chunk,), RECORD, True), json_reference(chunk), " }"
        else:
            got, want, cut = floattext.text((chunk,), "%s\n", False), reference(chunk), "\n"
        if got != want:
            bad += [(g, w) for g, w in zip(got.split(cut), want.split(cut)) if g != w]
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


def ties(rng, per_exponent: int = 200, digits: int = 17) -> np.ndarray:
    """Doubles j 2^-(s+1), j odd, whose exact expansion is N + 1/2 times
    10^-s with N of the given number of digits: a tie at the next digit."""
    out = []
    for s in range(1, 25):
        lo = -(-2 * 10 ** (digits - 1) // 5 ** s)
        hi = min(2 * 10 ** digits // 5 ** s, 2 ** 53)
        for j in rng.integers(lo, hi, size=per_exponent).tolist() if lo < hi else []:
            out.append(float(j | 1) / 2.0 ** (s + 1))
    return np.array(out)


def tie_digit(v: float) -> int | None:
    """The 17th significant digit of v when its exact expansion ties there."""
    digits = decimal.Decimal(v).normalize(decimal.Context(prec=1000)).as_tuple().digits
    return digits[16] if len(digits) == 18 and digits[17] == 5 else None


EDGES = np.array([0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
                  1.7976931348623157e308, -1.7976931348623157e308, np.inf, -np.inf, np.nan])


def plane_wave_sweep() -> scenarios.Sweep:
    """The default plane-wave sweep at 200,001 points, as `qwave ratio` writes it."""
    return scenarios.run_ratio_sweep(
        scenarios.ParticleScenario.from_mev("electron", 1.0, 1e-9, x_range=(0.0, 1.0, 200_001)))


def sweep_values() -> np.ndarray:
    packet = scenarios.run_gaussian_sweep(qg.GaussianParams(m=1.0, beta=1.0, q=1.001),
                                          (0.0, 4.0, 200_001))
    plane = plane_wave_sweep()
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

    source = inspect.getsource(floattext._digits)
    half_even = "(rem + (n & _U(1))) >"
    assert source.count(half_even) == 1
    namespace = dict(vars(floattext))
    exec(source.replace(half_even, "rem >="), namespace)
    monkeypatch.setattr(floattext, "_digits", namespace["_digits"])
    bad = mismatches(values)
    assert bad and len(bad) < len(values)  # only the ties on an even digit move


@pytest.mark.parametrize("columns", [1, 2, 3])
def test_rows_join_columns_like_the_percent_template(columns):
    """Both writers' templates of one to three columns: floattext.text writes
    the bytes of "%" with "%.17g" (CSV) or "%r" (JSON) in each slot, and
    cli._text writes the same bytes on numpy columns and on array.array ones."""
    values = np.random.default_rng(columns).normal(size=(100, columns)) * 10.0 ** np.arange(columns)
    names = ["x", "R", "dev"][:columns]
    csv = ",".join(["%s"] * columns) + "\n"
    record = ",\n {\n" + ",\n".join(f'  "{name}": %s' for name in names) + "\n }"
    for template, shortest, field in ((csv, False, "%.17g"), (record, True, "%r")):
        want = (template.replace("%s", field) * 100) % tuple(values.ravel().tolist())
        assert floattext.text(tuple(values.T), template, shortest) == want
        assert cli._text(template, tuple(values.T), shortest) == want
        assert cli._text(template, tuple(array("d", c) for c in values.T), shortest) == want
        assert floattext.text(tuple(values[:0].T), template, shortest) == ""


def shortest_length(v: float) -> int:
    """The number of significant digits in repr(v)."""
    return len(repr(v).partition("e")[0].replace("-", "").replace(".", "").strip("0"))


def with_shortest_length(values: np.ndarray, length: int) -> np.ndarray:
    return values[[shortest_length(v) == length for v in values.tolist()]]


def neighbours(centres, steps: int = 40) -> np.ndarray:
    """The doubles within steps ulps of each centre, both signs."""
    out = []
    for centre in centres:
        below = above = centre
        for _ in range(steps):
            below, above = np.nextafter(below, 0.0), np.nextafter(above, np.inf)
            out += [below, above]
        out.append(centre)
    values = np.array(out)
    return np.concatenate([values, -values])


def test_kernel_writes_the_bytes_of_repr():
    rng = np.random.default_rng(20261019)
    in_range = random_patterns(rng, 3 * 2 ** 17, (1023 - 40, 1023 + 53))
    rounded = {d: np.array([float("%.*e" % (d - 1, v)) for v in in_range[:2 ** 17].tolist()])
               for d in (15, 16)}
    decades = [float(f"1e{k}") for k in range(-11, 17)]
    carries = neighbours(decades, 60)
    groups = {
        "random 64-bit patterns": random_patterns(rng, 2 ** 18),
        "patterns in the kernel's range": in_range,
        "15 digits": with_shortest_length(rounded[15], 15),
        "16 digits": with_shortest_length(rounded[16], 16),
        "17 digits": with_shortest_length(in_range, 17),
        "powers of two": np.array([s * 2.0 ** i for s in (1, -1) for i in range(-1074, 1024)]),
        "powers of ten": neighbours([1e-5, 1e-4, 1e15, 1e16]),
        "carries into the next decade": carries,
        "linspace": np.linspace(0.0, 1.0, 200_001),
        "ties at 16 and 17 digits": np.concatenate([ties(rng, 2000, 16), ties(rng)]),
        "edges and subnormals": np.concatenate([EDGES, random_patterns(rng, 1000, (0, 1))]),
    }
    assert sum(map(len, groups.values())) >= 10 ** 6
    assert min(len(groups[f"{d} digits"]) for d in (15, 16, 17)) > 10 ** 5
    for d in (15, 16):  # roundings at d digits that reach the next power of ten
        up = [v for v in carries.tolist() if abs(v) not in decades
              and float("%.*e" % (d - 1, abs(v))) in decades]
        assert len(up) > 20, d
    for name, values in groups.items():
        assert mismatches(values, shortest=True) == [], name


def test_power_of_two_without_a_15_digit_form_is_left_to_repr(monkeypatch):
    """Below a power of two the ulp halves, so the nearest 16-digit decimal
    may lie outside the interval while another one lies inside.  2^-24 is
    exactly 5.9604644775390625e-08; its nearest 16 digits (a tie, rounded to
    even) are 5.960464477539062e-08, below it and outside, and repr writes
    5.960464477539063e-08.  The kernel leaves it to repr; without that it
    would write the 17 digits."""
    powers = np.array([2.0 ** i for i in range(-36, 51)])
    assert mismatches(powers, shortest=True) == []
    source = inspect.getsource(floattext._shortest)
    unproven = "ok &= fits15 | ~pow2"
    assert source.count(unproven) == 1
    namespace = dict(vars(floattext))
    exec(source.replace(unproven, "pass"), namespace)
    monkeypatch.setattr(floattext, "_shortest", namespace["_shortest"])
    assert mismatches(powers, shortest=True)


def test_16_digit_ties_round_half_to_even(monkeypatch):
    """Where both 16-digit neighbours of a tie read back to v, repr takes
    the even one; rounding ties up writes the odd one instead."""
    values = ties(np.random.default_rng(16), 200, 16)
    assert mismatches(values, shortest=True) == []
    source = inspect.getsource(floattext._shortest)
    half_even = "(tens & 1).astype(bool)"
    assert source.count(half_even) == 1
    namespace = dict(vars(floattext))
    exec(source.replace(half_even, "True"), namespace)
    monkeypatch.setattr(floattext, "_shortest", namespace["_shortest"])
    bad = mismatches(values, shortest=True)
    assert bad and len(bad) < len(values)

