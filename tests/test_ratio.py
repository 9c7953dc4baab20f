"""The ratio contract: R = |approx|/|exact| of each family on its three paths
(ratio_paths: the per-point entry on floats, the family kernel on a numpy array
of x, the sweep), held over one table of rows with one test per property:

* sweep: a sweep equals its path bit for bit, and R varies over it;
* gap: the float path is within PATH_GAP of the array path;
* modulus: both paths equal |approx|/|exact| within the row's bound;
* oracle: both paths meet the row's bound against a 50-digit oracle;
* refusal: a hostile input raises the row's error type in one text on both paths
  (qcore._ratio on numbers and on arrays, a sweep in one block and in more), or
  at one point of floats in the per-point entry.
"""

import ast
import math
import os
from array import array
from typing import NamedTuple

import numpy as np
import pytest

from qwave import planewave as pw
from qwave import qcore
from qwave import qgaussian as qg
from qwave.errors import BranchCutViolation, NonFiniteInput, NonFiniteResult
from ratio_paths import B, BLOCK_EDGES, Packet, PlaneWave, Terms

# The float path (math) and the array path (numpy's ufuncs) of each ratio
# kernel round exp, log and log1p differently: numpy's vectorized exp is
# within 0.71 ulp where math.exp is correctly rounded, and the 1/(q-1) of
# log|1 + (q-1) g| / (q-1) magnifies a 1-ulp gap in the log.  Measured
# worst over the gap rows: 3.6e-15 (the packet figure), 1.2e-16 on the
# plane wave's.
PATH_GAP = 1e-14

UNIT_PHASE = pw.PlaneWave(p=1.0, E=0.0, m=1.0)  # u = x at t = 0
WAVE = pw.SchrodingerWave.free(p=1.3, m=1.0)


class Row(NamedTuple):
    check: str  # the property: sweep, gap, modulus, oracle or refusal
    family: type  # PlaneWave, Packet or Terms of ratio_paths
    q_minus_1: float
    t: float
    # a grid (start, stop, n) or the points; a refusal's range (start, stop), swept in one
    # block and in more, or its point, at which the entry (Terms: both paths) is called
    x: object
    bound: object = None  # the relative bound, or the error type of a refusal
    wave: object = None  # the plane wave's species or PlaneWave, the packet's (m, beta)
    text: str | None = None  # a pattern the refusal's text matches (re.search)


def _kernel_points(q):
    """Imaginary axis, the packet's left half-plane, w = 0, and the small
    |w| = 1e-4 along directions where |e_q| stays finite."""
    zs = [1j * y for y in np.linspace(-40.0, 40.0, 81)]
    zs += [complex(re, im) for re in np.linspace(-20.0, 0.0, 11) for im in (-7.0, -0.5, 0.0, 3.0)]
    zs.append(0.0)
    if q != 1.0:
        for direction in (1j, -1j, -1.0, (-1.0 + 1j) / math.sqrt(2.0)):
            zs.append(direction * 1e-4 / abs(1.0 - q))
    return np.array(zs, dtype=complex)


def _terms(q_minus_1):
    """The points (c, g0, g) = ((q-1) z, -z, -z) of (1 + c) e^{z} / e_q(z) at _kernel_points."""
    q = 1.0 + q_minus_1
    return [((q - 1.0) * z, -z, -z) for z in _kernel_points(q).tolist()]


def _not_finite(name, value):
    return f"^{name} must be finite, got {value!r}$"


FIGURE_TERMS = list(zip(*(np.broadcast_to(v, 1001).tolist() for v in qg.ratio_terms(
    np.linspace(0.0, 4.0, 1001), 0.0, Packet(1e-3).params))))
CUT = "q-power base: a point lies on the branch cut"

TABLE = [
    # sweep: the proton's plane wave and the packet where R varies (at q - 1 = -0.3 the packet's
    # base 1 + (q-1) G meets the branch cut at x = -3.0 and 1.57), at t = 0 and not, in one block
    # and more; and the CLI's defaults at the block edges
    *(Row("sweep", PlaneWave, qm1, t, (-1.0, 1.0, n), wave="proton")
      for qm1 in (1e-3, -0.3) for t in (0.0, 0.7) for n in (29, B + 3)),
    *(Row("sweep", Packet, qm1, t, (-3.0, 4.0, n) if qm1 > 0 else (-2.5, 1.5, n))
      for qm1 in (1e-3, -0.3) for t in (0.0, 0.7) for n in (29, B + 3)),
    *(Row("sweep", family, 1e-3, 0.0, (0.0, xmax, n))
      for family, xmax in ((PlaneWave, 1.0), (Packet, 4.0)) for n in BLOCK_EDGES),
    # gap: the plane wave's four figures and the packet's; qcore._ratio over the packet
    # figure's terms; the plane wave over the phases Im z and qcore._ratio over the terms of
    # _kernel_points; terms where R = 0 (1 + c = 0; |1 + (q-1) g| overflows) or where
    # 1 + (q-1) g = -0.5 - 5e-301j is just off the cut
    *(Row("gap", PlaneWave, qm1, 0.0, (0.0, 1.0, 2001), PATH_GAP, species)
      for species in ("electron", "proton") for qm1 in (1e-9, 1e-12)),
    Row("gap", Packet, 1e-3, 0.0, (0.0, 4.0, 1001), PATH_GAP),
    Row("gap", Terms, 1e-3, 0.0, FIGURE_TERMS, PATH_GAP),
    *(row for qm1 in (1e-3, -1e-3, 1e-9, 0.0) for row in (
        Row("gap", PlaneWave, qm1, 0.0, _kernel_points(1.0 + qm1).imag.tolist(), PATH_GAP,
            UNIT_PHASE),
        Row("gap", Terms, qm1, 0.0, _terms(qm1), PATH_GAP))),
    *(Row("gap", Terms, qm1, 0.0, [point], PATH_GAP) for point, qm1 in (
        ((-1.0, 0.0, 0.0), 0.1), ((0.0, 0.0, complex(-1.5e308, -1.5e308)), -1.0),
        ((0.4, 0.0, complex(3.0, 1e-300)), -0.5))),
    # modulus: qcore._ratio against q_pow, to 4e-15 max(1, |z|); the packet against
    # approx_qgaussian and exact_qgaussian
    *(Row("modulus", Terms, qm1, 0.0, _terms(qm1), 4e-15)
      for qm1 in (1e-3, -1e-3, 1e-6, 1e-9, 1e-12, 0.0)),
    *(Row("modulus", Packet, qm1, t, (-4.0, 4.0, 81), 1e-13)
      for qm1 in (1e-3, -1e-3, 0.3) for t in (0.7, 3.0)),
    # oracle, at t = 0: 2e-13 where the ratio is well conditioned, 1e-9 on the grids that
    # cross a zero of the first-order amplitude 1 + c or end 8e-8 short of the packet's cut
    # at x = sqrt(5) - 1, where rounding the inputs alone costs up to that much
    *(Row("oracle", PlaneWave, qm1, 0.0, (0.0, 1.0, 201), 2e-13, species)
      for species in ("electron", "proton") for qm1 in (1e-12, 1e-9, 1e-3)),
    *(Row("oracle", Packet, qm1, 0.0, (0.0, xmax, 201), bound) for qm1, xmax, bound in (
        (1e-3, 4.0, 2e-13), (-1e-3, 4.0, 2e-13), (0.5, 20.0, 2e-13), (-0.05, 3.0, 1e-9),
        (-0.5, 1.2360679, 1e-9))),
    Row("oracle", PlaneWave, 0.3, 0.0, (0.0, 2.0, 201), 1e-9, "electron"),
    # refusal, of terms: R = e^{1000}; an infinite c; (q-1) g beyond the double range; eps g
    # is nan; R = inf; 1 + (q-1) g = 0, -5e-4 (a guard shifted by 1e-3 would return R = 4.0e6)
    # and -1, on the cut
    *(Row("refusal", Terms, qm1, 0.0, point, NonFiniteResult) for point, qm1 in (
        ((0.0, -1e3 + 1j, 0.0), 1e-9), ((math.inf, 0.0, 0.0), 0.5), ((0.0, 0.0, 1e308), 10.0),
        ((0.0, 0.0, 0.0), math.nan), ((0.0, 0.0, complex(1.5e308, 1.5e308)), 1.0))),
    *(Row("refusal", Terms, -0.5, 0.0, (0.0, 0.0, g), BranchCutViolation, text=CUT)
      for g in (2.0, 2.001, 4.0 + 0.0j)),
    # of a sweep: a non-finite end or t, by name; the packet's base on the cut beyond
    # x = sqrt(5) - 1; G0^2/2 overflowing in c at x = 4; a kq = 1/(4 m q beta^2) that
    # GaussianParams refuses as a result; the plane wave's (1-q) u^2/2 overflowing
    *(Row("refusal", family, qm1, t, x, NonFiniteInput, text=_not_finite(name, value))
      for family, qm1, t, x, name, value in (
          (PlaneWave, 1e-3, 0.0, (math.nan, 4.0), "x_range start", math.nan),
          (Packet, 1e-3, 0.0, (math.nan, 4.0), "x_range start", math.nan),
          (PlaneWave, 1e-9, 0.0, (math.nan, 1.0), "x_range start", math.nan),
          (Packet, 1e-3, 0.0, (math.nan, 1.0), "x_range start", math.nan),
          (PlaneWave, 1e-9, 0.0, (0.0, math.inf), "x_range stop", math.inf),
          (Packet, 1e-3, 0.0, (0.0, math.inf), "x_range stop", math.inf),
          (PlaneWave, 1e-3, 0.0, (math.inf, 4.0), "x_range start", math.inf),
          (Packet, 1e-3, 0.0, (math.inf, 4.0), "x_range start", math.inf),
          (PlaneWave, 1e-3, math.nan, (0.0, 4.0), "t", math.nan),
          (Packet, 1e-3, math.nan, (0.0, 4.0), "t", math.nan))),
    Row("refusal", Packet, -0.5, 0.0, (0.0, 4.0), BranchCutViolation, text=CUT),
    Row("refusal", Packet, 1e-3, 0.0, (0.0, 4.0), NonFiniteResult, (1e300, 1.0)),
    Row("refusal", Packet, 1e-3, 0.0, (0.5, 4.0), NonFiniteResult, (1.0, 1e-160)),
    Row("refusal", Packet, 1e-3, 0.0, (0.5, 4.0), NonFiniteResult, (1e-320, 1.0)),
    Row("refusal", PlaneWave, 0.5, 0.0, (0.0, 1e200), NonFiniteResult),
    # of a per-point entry: the same refusals at x = 4; the plane wave's R ~ 1e799 at
    # u = 1.3e200, where |exact_psi| ~ |u|^{-2} underflows at q = 1.5; a non-finite x or t,
    # by name; a list is no float, and a 0-d array is one
    Row("refusal", Packet, -0.5, 0.0, 4.0, BranchCutViolation, text=CUT),
    Row("refusal", Packet, 1e-3, 0.0, 4.0, NonFiniteResult, (1e300, 1.0)),
    Row("refusal", PlaneWave, 0.5, 0.0, 1e200, NonFiniteResult, WAVE),
    *(row for family, wave in ((PlaneWave, WAVE), (Packet, None)) for row in (
        Row("refusal", family, 1e-3, 0.0, math.nan, NonFiniteInput, wave,
            _not_finite("x", math.nan)),
        Row("refusal", family, 1e-3, -math.inf, 0.5, NonFiniteInput, wave,
            _not_finite("t", -math.inf)),
        Row("refusal", family, 1e-3, 0.0, [0.0, math.nan], TypeError, wave))),
    Row("refusal", Packet, 1e-3, 0.0, np.array(math.nan), NonFiniteInput),
]


def _rows(check):
    return [row for row in TABLE if row.check == check]


def _id(row):
    x, wave = row.x, row.wave
    if isinstance(x, np.ndarray):
        x = f"array({x})"
    elif isinstance(x, list) and len(x) > 3:
        x = f"{len(x)}-points"
    elif isinstance(x, tuple) and row.family is not Terms:
        x = ":".join(map(str, x))
    if isinstance(wave, pw.PlaneWave):
        wave = f"p={wave.p!r}"
    elif isinstance(wave, tuple):
        wave = "{!r},{!r}".format(*wave)  # (m, beta)
    wave = "" if wave is None else f"-{wave}"
    return f"{row.family.__name__}{wave}-{row.q_minus_1:g}-t{row.t:g}-{x}"


def _family(row):
    return row.family(row.q_minus_1, row.t, row.wave)


def _points(row):
    return np.linspace(*row.x).tolist() if isinstance(row.x, tuple) else row.x


@pytest.mark.parametrize("row", _rows("sweep"), ids=_id)
def test_a_sweep_is_its_path_bit_for_bit(row):
    family, n = _family(row), row.x[2]
    sweep = family.sweep(row.x)
    assert list(sweep.columns) == ["x", family.column]
    xs, rs = sweep.columns.values()
    assert isinstance(rs, array) == (n <= B)
    assert xs.tobytes() == np.linspace(*row.x).tobytes()
    assert rs.tobytes() == family.path(row.x).tobytes()
    assert len(set(rs.tolist())) > n // 2  # R varies, so a wrong phase or eps shows


@pytest.mark.parametrize("row", _rows("gap"), ids=_id)
def test_the_float_path_is_within_path_gap_of_the_array_path(row):
    family, points = _family(row), _points(row)
    for point, whole in zip(points, family.kernel(points).tolist()):
        one = family.at(point)
        assert type(one) is float
        assert abs(one - whole) <= row.bound * whole, point


@pytest.mark.parametrize("row", _rows("modulus"), ids=_id)
def test_both_paths_are_the_modulus_ratio(row):
    family = _family(row)
    # a modulus that underflows has no ratio; the kernel's logs do not underflow
    cases = [(point, family.modulus(point)) for point in _points(row)]
    cases = [(point, approx / exact, scale) for point, (approx, exact, scale) in cases
             if approx > 0.0 and exact > 0.0]
    whole = family.kernel([point for point, _, _ in cases]).tolist()
    for (point, want, scale), r in zip(cases, whole):
        for got in (r, family.at(point)):
            assert abs(got - want) <= row.bound * scale * want, point


@pytest.mark.parametrize("row", _rows("oracle"), ids=_id)
def test_both_paths_meet_the_50_digit_oracle(row):
    import mpmath as mp

    family = _family(row)

    def terms(x):
        """(1 + c, g0, g) at t = 0, in 50 digits from the double inputs."""
        if row.family is Packet:
            # a = m q, b = 1/beta, c = 0; a1 = a2 = m, b1 = 1/beta, the rest 0
            x = mp.mpf(x)
            g0 = x * x + x
            return 1 - eps * (x * x - g0 * g0 / 2), g0, mp.mpf(family.q) * x * x + x
        u = mp.mpf(family.wave.p * x)  # the double phase p x
        return 1 - eps * u * u / 2, 0, mp.mpc(0, -u)

    with mp.workdps(50):
        eps = mp.mpf(family.q) - 1  # the exact double offset
        xs = _points(row)
        # each zero of 1 + c is approached to 1e-4, 1e-5 and 1e-6 of its x from both sides
        amp = [terms(x)[0] for x in xs]
        for i in range(len(xs) - 1):
            if amp[i] * amp[i + 1] < 0:
                x0 = mp.findroot(lambda x: terms(x)[0], (xs[i], xs[i + 1]), solver="anderson")
                xs += [float(x0 * (1 + s * mp.mpf(10) ** -k)) for s in (-1, 1) for k in (4, 5, 6)]
        worst = 0.0
        for x, *rs in zip(xs, family.kernel(xs).tolist(), map(family.at, xs)):
            one_plus_c, g0, g = terms(x)
            oracle = abs(one_plus_c) * mp.exp(-mp.re(g0) + mp.log(abs(1 + eps * g)) / eps)
            worst = max(worst, *(float(abs(r - oracle) / oracle) for r in rs))
    print(f"{_id(row)}: max rel error {worst:.3e}")
    assert worst <= row.bound


@pytest.mark.parametrize("row", _rows("refusal"), ids=_id)
def test_a_hostile_input_is_refused_alike_on_both_paths(row):
    if row.family is Terms:
        paths = (lambda: _family(row).at(row.x), lambda: _family(row).kernel([row.x]))
    elif isinstance(row.x, tuple):
        paths = [lambda n=n: _family(row).sweep((*row.x, n)) for n in (3, B + 1)]
    else:
        paths = [lambda: _family(row).at(row.x)]
    texts = set()
    for path in paths:
        with pytest.raises(row.bound, match=row.text) as refusal:
            path()
        texts.add(str(refusal.value))
    assert len(texts) == 1


NEAR_W = [0.0, 1e-300, -1e-17j, 0.3 - 0.2j, -0.4999, 0.49999999999999994j]
FAR_W = [0.5, -0.5j, 0.3 + 0.4j, -0.99 + 1e-3j, -1.0 + 1e-300j, 2.5 - 7.0j, 1e200]


@pytest.mark.parametrize("w, branches", [
    (NEAR_W, {"near"}), (FAR_W, {"far"}), (NEAR_W + FAR_W, {"near", "far"}),
])
def test_array_where_evaluates_only_the_branches_it_picks(w, branches):
    # |w| < 0.5 picks the near branch (log1p) and the rest the far one (log);
    # a block on one side evaluates only that side, bit for bit as np.where
    functions = list(qcore._on_arrays(np))
    calls = set()
    log1p, log = functions[3], functions[4]
    functions[3] = lambda v: calls.add("near") or log1p(v)
    functions[4] = lambda v: calls.add("far") or log(v)
    w = np.array(w, dtype=complex)
    arrays = qcore._on_arrays(np)
    with np.errstate(all="ignore"):  # as in scenarios._blockwise_sweep
        got = qcore._log_abs_1p(w, tuple(functions))
        expected = np.where(abs(w) < 0.5, qcore._log_abs_1p_near(w, arrays),
                            qcore._log_abs_1p_far(w, arrays))
    assert calls == branches
    assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()


def test_only_the_contract_names_the_ratio_kernels():
    # a change to a kernel or to its functions edits the contract alone; a name in a
    # string (test_mutations' targets) is no use of it
    here = os.path.dirname(os.path.abspath(__file__))
    users = set()
    for name in sorted(os.listdir(here)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(here, name), encoding="utf-8") as handle:
            tree = ast.parse(handle.read())
        for node in ast.walk(tree):
            names = ([node.attr] if isinstance(node, ast.Attribute) else
                     [alias.name for alias in node.names] if isinstance(node, ast.ImportFrom) else [])
            if any(n in ("_phase_ratio", "_ratio", "_on_arrays", "_ON_NUMBERS")
                   or n.startswith("_log_abs_1p") for n in names):
                users.add(name)
    assert sorted(users) == ["ratio_paths.py", "test_ratio.py"]
