"""Fourier mode sums against the loop they replaced.

``reference_mode_sum`` is ``generators.mode_sum`` as it was: every wave's
phase is ``kx*x + ky*y`` over the broadcast of both coordinates, and the
terms are summed as complex numbers before one final ``np.real``.  The
current loop takes an axial wave's phase over its own axis only, forms a
term whose coefficient is real or imaginary from ``cos`` or ``sin`` of the
phase, and adds each term's real part into a float sum.  At finite points
both must give the same bits: equal ``tobytes()`` once broadcast to the
points' shape, signs of zero and inf/nan positions included.

The generators are ``round`` on both sides of its threshold, fields with
the shapes of spec-sweep's Fourier templates (sine modes, ``cos(2*pi*x)``
and (1, -1) waves), axial waves with complex amplitudes, single axial
waves, and phase-shifted waves, whose general complex coefficients keep the
complex product at every order; the z = 100..260 grids, where the kernel
overflows, keep it too.  The points are the dense and open grids of
``tests/test_open_axes.py`` (exact +-0.0 axes, and z from 100 to 260 where
the field overflows), the 1-D point arrays of the oracle and of Newton,
scalar points, and scalars beside arrays: there an axial wave along the
scalar's axis must keep the full phase, as numpy's scalar complex product
differs from its array product in the last bit for complex amplitudes.

``reference_sinh_kernel`` is ``extension._sinh_kernel`` as it was: the
order-0 series ``z + k*k*z**3/6`` over the whole array, picked by
``np.where``.  The current kernel computes the series only where
``|k*z| < _SMALL_KZ``; both must give the same type, shape and bits, and so
must the fields built on them.
"""

import itertools
import json
import math

import numpy as np
import pytest

from trapnet import PlanarJet, catalog, null_lines, parse_fourier, synthesize
from trapnet import extension, generators
from trapnet.algebra import check_order
from trapnet.cli import main
from trapnet.verify import sample_points
from test_open_axes import WINDOWS_2D, WINDOWS_3D, _grids

PERIODS = (2.0, 2.0)
EXPRESSIONS = [
    "(cos(pi*x) + 0.8*cos(pi*y))^7",
    "(cos(pi*x) + 1.1*sin(pi*y) + 0.7*cos(pi*(x + y)))^5",
    "(sin(pi*x) + 1.3*cos(pi*(x - y)))^6",
    "(cos(pi*x) - cos(pi*y))^4 * (0.9 + sin(pi*(x - y)))^3 + 1.2*cos(pi*(2*x))",
    "sin(pi*y)^2 + 0.6*sin(pi*(2*x - y)) - 0.4*cos(pi*(x + 2*y))",
    "cos(pi*x) + 0.7*sin(pi*x) + 0.3*cos(pi*y) - 1.3*sin(pi*y)",
    "cos(pi*x)",
    "sin(pi*y)",
    # phase-shifted waves: general complex coefficients at every order
    "cos(pi*x + 0.3) - 0.4*sin(pi*(x + y) - 1.1)",
]
GENERATORS = {f"round c={c}": catalog("round", {"c": c}).compile() for c in (0.2, 0.25, 0.37)}
GENERATORS.update({expr: parse_fourier(expr, PERIODS) for expr in EXPRESSIONS})
ORDERS_2D = [o for o in itertools.product(range(4), repeat=2) if sum(o) <= 3]
ORDERS_3D = [o for o in itertools.product(range(4), repeat=3) if sum(o) <= 3]


def reference_mode_sum(waves, orders, x, y, kernel=None) -> list:
    for order in orders:
        check_order(order)
    accs = [0.0] * len(orders)
    for kx, ky, amp in waves:
        coeffs = []
        for i, order in enumerate(orders):
            factor = (1j * kx) ** order[0] * (1j * ky) ** order[1]
            if factor != 0:
                coeffs.append((i, amp * factor, order))
        if not coeffs:
            continue
        wave = [np.exp(1j * (kx * x + ky * y))] * len(coeffs)
        for i, coeff, order in coeffs:
            accs[i] = accs[i] + (coeff * wave.pop() if kernel is None
                                 else coeff * kernel(kx, ky, order) * wave.pop())
    return [float(r) if np.ndim(r) == 0 else r for r in map(np.real, accs)]


@pytest.fixture
def use_reference(monkeypatch):
    """Call to route every mode sum through ``reference_mode_sum``."""
    def patch():
        monkeypatch.setattr(generators, "mode_sum", reference_mode_sum)
        monkeypatch.setattr(extension, "mode_sum", reference_mode_sum)
    return patch


def _assert_same_bits(got, want, coords):
    """Each result broadcasts to the points' shape, where its bits are the reference's."""
    shape = np.broadcast_shapes(*map(np.shape, coords))
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert type(g) is type(w)
        assert np.broadcast_shapes(np.shape(g), shape) == shape
        assert np.broadcast_to(g, shape).tobytes() == np.broadcast_to(w, shape).tobytes()


def _point_sets():
    """(label, x, y, z) point sets: grids, 1-D point arrays, scalars and mixes."""
    sets = []
    for window, counts in WINDOWS_3D + WINDOWS_2D:
        for kind, coords in zip(("dense", "open"), _grids(window, counts)):
            sets.append((f"{kind} {window}", *coords))
    pts = sample_points((-1.5, 1.5, -1.5, 1.5, -0.5, 0.5), 40, 3)
    sets.append(("oracle samples", *pts.T))
    star = pts[:, None] + np.concatenate([np.zeros((1, 3)), 1e-4 * np.eye(3), -1e-4 * np.eye(3)])
    sets.append(("oracle stars", *np.moveaxis(star, -1, 0)))
    seeds = np.stack(np.meshgrid(np.linspace(-1.5, 1.5, 7), np.linspace(-1.5, 1.5, 6)), -1)
    sets.append(("newton seeds", *seeds.reshape(-1, 2).T, 0.0))
    for point in [(0.3, -0.7, 0.25), (-0.0, 0.0, -0.0), (1.0, -0.0, 0.0), (0.5, 1.0, 150.0)]:
        sets.append((f"point {point}", *point))
    sets.append(("numpy scalars", np.float64(0.4), np.float64(-0.2), np.float64(0.1)))
    xs = np.linspace(-1.0, 1.0, 33)
    sets += [("array and scalars", xs, 0.4321, 0.25), ("scalar and arrays", 0.6789, xs, xs[::-1]),
             ("0-d array and array", np.asarray(-0.5309), xs, 0.1),
             ("near the plane", xs, xs[::-1], np.linspace(-5e-5, 5e-5, 33))]
    return sets


POINT_SETS = _point_sets()


@pytest.mark.parametrize("label, x, y, z", POINT_SETS, ids=[s[0] for s in POINT_SETS])
@pytest.mark.parametrize("name", GENERATORS)
def test_mode_sums_match_the_reference_loop(use_reference, name, label, x, y, z):
    gen = GENERATORS[name]
    fld = synthesize(gen)
    with np.errstate(all="ignore"):
        got = (gen.partials(ORDERS_2D, x, y), fld.partials(ORDERS_3D, x, y, z),
               [fld.pseudopotential(x, y, z)])
        use_reference()
        want = (gen.partials(ORDERS_2D, x, y), fld.partials(ORDERS_3D, x, y, z),
                [fld.pseudopotential(x, y, z)])
    _assert_same_bits(got[0], want[0], (x, y))
    _assert_same_bits(got[1], want[1], (x, y, z))
    _assert_same_bits(got[2], want[2], (x, y, z))


def test_far_window_checks_non_finite_values():
    """So the test above checks where inf and nan fall, not only that they do."""
    (x, y, z), _ = _grids(*WINDOWS_3D[-1])
    fld = synthesize(GENERATORS["round c=0.25"])
    with np.errstate(all="ignore"):
        d, upp = fld.partials(ORDERS_3D, x, y, z), fld.pseudopotential(x, y, z)
    assert all(np.isfinite(v).any() and np.isnan(v).any() for v in d)
    assert np.isinf(upp).any()


def test_real_terms_rest_on_these_identities():
    """``mode_sum`` forms a term with a real or imaginary coefficient c as
    ``(c.real*K)*cos(p)`` or ``(-c.imag*K)*sin(p)``, in place of
    ``(c*K*exp(1j*p)).real``.  That keeps the bits only while numpy's ``cos``
    and ``sin`` are the parts of its complex ``exp``, and while its complex
    product rounds a real part once when one part of c is zero; a numpy or
    libm upgrade that breaks either fails here by name."""
    rng = np.random.default_rng(7)
    p = np.concatenate([[5e-324, -5e-324, 1e-300, 1e15, -1e15],
                        rng.uniform(-7.0, 7.0, 4000), rng.uniform(-1e5, 1e5, 4000)])
    wave = np.exp(1j * p)
    assert wave.real.tobytes() == np.cos(p).tobytes()
    assert wave.imag.tobytes() == np.sin(p).tobytes()
    # at p = -0.0 the sine is -0.0 and the exponential's imaginary part +0.0;
    # a zero term cannot reach an output, as every sum starts from +0.0
    zero = np.exp(1j * np.array(-0.0)).imag
    assert zero == np.sin(-0.0) and not np.signbit(zero) and np.signbit(np.sin(-0.0))
    assert not np.signbit(0.0 + np.sin(-0.0))
    # compared as added to +0.0, as a sum takes them: a term that underflows
    # to zero, as 0.37 * sin(5e-324) does, may differ in its sign only
    kernel = rng.uniform(-50.0, 50.0, p.size)
    for c in (0.37 + 0j, -2.9e3 + 0j, 0.37j, -2.9e3j, -1.7e-3 - 0j):
        scale, part = (c.real, np.cos(p)) if c.imag == 0 else (-c.imag, np.sin(p))
        assert (0.0 + (c * wave).real).tobytes() == (0.0 + scale * part).tobytes(), c
        assert ((0.0 + (c * kernel * wave).real).tobytes()
                == (0.0 + (scale * kernel) * part).tobytes()), c


# ----------------------------------------------------------------------
# the sinh kernel against its whole-array series
# ----------------------------------------------------------------------

def reference_sinh_kernel(k: float, z, order: int):
    kz = k * np.asarray(z, dtype=float)
    if order % 2 == 1:
        return k ** (order - 1) * np.cosh(kz)
    if order == 0:
        series = np.asarray(z, dtype=float) + k * k * np.asarray(z, dtype=float) ** 3 / 6.0
        return np.where(np.abs(kz) < extension._SMALL_KZ, series, np.sinh(kz) / k)
    return k ** (order - 1) * np.sinh(kz)


@pytest.fixture
def use_reference_kernel(monkeypatch):
    """Call to route every sinh kernel through ``reference_sinh_kernel``."""
    def patch():
        monkeypatch.setattr(extension, "_sinh_kernel", reference_sinh_kernel)
    return patch


# |k*z| < 1e-4 at 1e-7, 3e-6 and 1e-5 for every k below, at 3e-5 for k = pi only
EDGE_ZS = np.array([-0.0, 0.0, 1e-7, -3e-6, 1e-5, 3e-5, 0.3, -0.7,
                    np.nan, np.inf, -np.inf, 300.0, -299.5])
WIDE_ZS = np.linspace(0.1, 1.5, 6)  # no |k*z| below 1e-4
KERNEL_INPUTS = [
    ("1-D with small", EDGE_ZS),
    ("1-D without small", WIDE_ZS),
    ("dense with small", np.meshgrid(WIDE_ZS[:3], WIDE_ZS[:2], EDGE_ZS, indexing="ij")[2]),
    ("dense without small", np.meshgrid(WIDE_ZS[:3], WIDE_ZS[:2], WIDE_ZS, indexing="ij")[2]),
    ("open with small", EDGE_ZS[None, None, :]),
    ("open without small", WIDE_ZS[None, None, :]),
    *((f"float {z!r}", float(z)) for z in EDGE_ZS),
    ("numpy scalar small", np.float64(2e-5)),
    ("numpy scalar", np.float64(0.4)),
    ("0-d small", np.asarray(-2e-5)),
    ("0-d", np.asarray(0.4)),
    ("0-d nan", np.asarray(np.nan)),
]


@pytest.mark.parametrize("label, z", KERNEL_INPUTS, ids=[s[0] for s in KERNEL_INPUTS])
@pytest.mark.parametrize("k", [math.pi, math.pi * math.sqrt(2.0), 2.0 * math.pi, 3.0 * math.pi])
def test_sinh_kernel_matches_the_reference(k, label, z):
    for order in range(4):
        with np.errstate(all="ignore"):
            got, want = extension._sinh_kernel(k, z, order), reference_sinh_kernel(k, z, order)
        assert type(got) is type(want), order
        assert np.shape(got) == np.shape(want) and got.dtype == want.dtype, order
        assert got.tobytes() == want.tobytes(), order


@pytest.mark.parametrize("label, x, y, z", POINT_SETS, ids=[s[0] for s in POINT_SETS])
@pytest.mark.parametrize("name", GENERATORS)
def test_fourier_fields_match_the_reference_kernel(use_reference_kernel, name, label, x, y, z):
    fld = synthesize(GENERATORS[name])
    with np.errstate(all="ignore"):
        got = fld.partials(ORDERS_3D, x, y, z), [fld.pseudopotential(x, y, z)]
        use_reference_kernel()
        want = fld.partials(ORDERS_3D, x, y, z), [fld.pseudopotential(x, y, z)]
    _assert_same_bits(got[0], want[0], (x, y, z))
    _assert_same_bits(got[1], want[1], (x, y, z))


# ----------------------------------------------------------------------
# a generator whose waves all run along one axis
# ----------------------------------------------------------------------

AXIAL = parse_fourier("cos(pi*x)", PERIODS)


@pytest.mark.parametrize("window, res", [((-1.5, 1.5, -1.5, 1.5), 40),
                                         ((-0.0, 1.3, -1.1, -0.0), 33)])
@pytest.mark.parametrize("expr", ["cos(pi*x)", "sin(pi*y)"])
def test_axial_null_lines_match_the_reference(use_reference, expr, window, res):
    gen = GENERATORS[expr]
    got = null_lines(gen, window, res)
    use_reference()
    want = null_lines(gen, window, res)
    assert got and repr(got) == repr(want)


def test_axial_field_values_and_gradients_have_the_points_shape():
    fld = synthesize(AXIAL)
    xs, ys, zs = np.linspace(-1.0, 1.0, 5), np.linspace(-0.5, 0.5, 4), np.linspace(0.0, 0.3, 3)
    cases = [(xs, xs, xs), np.meshgrid(xs, ys, zs, indexing="ij"),
             np.meshgrid(xs, ys, zs, indexing="ij", sparse=True),
             (xs, 0.5, 0.25), (0.5, ys, 0.25), (0.5, 0.5, zs), (xs[:, None], ys, 0.0)]
    for x, y, z in cases:
        shape = np.broadcast_shapes(np.shape(x), np.shape(y), np.shape(z))
        assert np.shape(fld.value(x, y, z)) == shape
        assert np.shape(fld.gradient(x, y, z)) == (3, *shape)
        assert np.shape(fld.pseudopotential(x, y, z)) == shape


def test_axial_planar_values_broadcast_beside_a_scalar():
    # a scalar coordinate beside an array keeps the full phase, so the
    # result has the array's shape as before; open axes keep their own axis
    xs, ys = np.linspace(-1.0, 1.0, 5), np.linspace(-0.5, 0.5, 4)
    jet_x, jet_y = PlanarJet(AXIAL), PlanarJet(GENERATORS["sin(pi*y)"])
    assert np.shape(jet_x.value(0.5, ys)) == (4,)
    assert np.shape(jet_y.value(xs, 0.5)) == (5,)
    assert np.shape(jet_x.value(xs, 0.5)) == (5,)
    gx, gy = np.meshgrid(xs, ys, indexing="ij", sparse=True)
    assert np.shape(AXIAL.eval(gx, gy)) == (5, 1)
    assert np.shape(GENERATORS["sin(pi*y)"].eval(gx, gy)) == (1, 4)
    # the front ends return the points' broadcast shape
    assert np.shape(jet_x.value(gx, gy)) == np.shape(jet_y.value(gx, gy)) == (5, 4)


@pytest.mark.parametrize("quantity, window", [
    ("p", "-1,1,-1.5,0.5"),
    ("phi", "-1,1,-1.5,0.5,-0.5,0.5"),
    ("upp", "-1,1,-1.5,0.5,-0.5,0.5"),
    ("grad_norm", "-1,1,-1.5,0.5,-0.5,0.5"),
])
def test_axial_sample_output_matches_the_reference(use_reference, tmp_path, quantity, window):
    spec = tmp_path / "axial.json"
    spec.write_text(json.dumps({"kind": "fourier", "expr": "cos(pi*x)", "periods": list(PERIODS)}))
    argv = ["sample", str(spec), "--quantity", quantity, f"--window={window}"]
    assert main([*argv, "--out", str(tmp_path / "got.csv")]) == 0
    use_reference()
    assert main([*argv, "--out", str(tmp_path / "want.csv")]) == 0
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
