"""Fourier mode sums at a point against the same point as 1-element arrays.

At scalar or 0-d coordinates ``generators.mode_sum`` forms its sums in one
array pass over the waves (``generators._point_sum``); arrays go through the
loop over waves.  Both read one complex array of coefficients per call, and
the point pass takes numpy's array complex product for every term, which the
loop takes for a general complex coefficient and which rounds as the loop's
real forms do for a real or imaginary one.  So a point must give the bits of
the same point as 1-element arrays, compared as ``float.hex``, for every
generator and every amplitude; where every amplitude is real or imaginary
those are also the bits of the real forms that points took before.

The generators are round, spec-sweep's four Fourier templates at seed 0, a
phase-shifted generator and random Hermitian mode sets, with general complex
amplitudes, subnormals and a wave whose factor ``(1j*kx)**n`` overflows.  The
orders are every order up to ``MULTIPOLE_MAX_ORDER``.  The points put x or y
at +-0.0, and z at +-0, inside ``_SMALL_KZ`` and at 300, where the sinh kernel
overflows.  Only a point beside an array of z values is left to the loop.

The loop and the point pass read one memoized table of wave factors per
wavevectors and orders: points, arrays and Newton's batches of one generator
share it, and so do int and numpy integer orders, whose counts are taken as
ints.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trapnet import FourierGen, FourierMode, PlanarJet, catalog, parse_fourier, synthesize
from trapnet import generators
from trapnet.analysis import _NEWTON_ORDERS, MULTIPOLE_MAX_ORDER, _refine_newton
from test_open_axes import SPEC_SWEEP
from test_oracle import coeffs, coords, hermitian_modes

GENERATORS = {"round": catalog("round").compile()}
GENERATORS.update({text: parse_fourier(text, (2.0, 2.0))
                   for family, text in SPEC_SWEEP if family == "fourier"})
GENERATORS["phase-shifted"] = parse_fourier("cos(pi*x + 0.3) - 0.4*sin(pi*(x + y) - 1.1)",
                                            (2.0, 2.0))


def _general_complex(gen) -> bool:
    return any(mode.amp.real != 0 and mode.amp.imag != 0 for mode in gen.modes)


ORDERS_2D = [o for o in itertools.product(range(MULTIPOLE_MAX_ORDER + 1), repeat=2)
             if sum(o) <= MULTIPOLE_MAX_ORDER]
ORDERS_3D = [o for o in itertools.product(range(MULTIPOLE_MAX_ORDER + 1), repeat=3)
             if sum(o) <= MULTIPOLE_MAX_ORDER]
POINTS = [(0.3, -0.7), (-0.0, 0.5), (0.5, 0.0), (-0.0, -0.0), (1.0, -0.0), (0.0, 1.0),
          (1.37, -1.91), (-0.61, 0.04)]
# |k*z| < 1e-4 for every mode at 1e-5 and -3e-6; the kernel overflows at 300
ZS = [0.0, -0.0, 1e-5, -3e-6, 0.25, 300.0]


@pytest.fixture
def passes(monkeypatch):
    """Whether each ``_point_sum`` call formed the sums (True) or left them to the loop."""
    taken = []

    def recorded(*args):
        sums = point_sum(*args)
        taken.append(sums is not None)
        return sums
    point_sum = generators._point_sum
    monkeypatch.setattr(generators, "_point_sum", recorded)
    return taken


def test_two_generators_have_general_complex_amplitudes():
    # the phase-shifted one and the template with a shifted sine
    assert sum(map(_general_complex, GENERATORS.values())) == 2


def _hex(values):
    return [float(np.reshape(v, -1)[0]).hex() if np.ndim(v) else v.hex() for v in values]


def assert_point_is_1_element_arrays(gen, points, zs):
    """``PlanarJet.partials`` and ``Field.partials`` at each point, as floats and as
    0-d arrays, give the bits of the same point as 1-element arrays."""
    jet, fld = PlanarJet(gen), synthesize(gen)
    for x, y in points:
        with np.errstate(all="ignore"):  # an overflowing factor makes inf and nan
            want = _hex(jet.partials(ORDERS_2D, np.array([x]), np.array([y])))
            at_point = jet.partials(ORDERS_2D, x, y)
            at_0d = jet.partials(ORDERS_2D, np.asarray(x), np.asarray(y))
        assert all(type(v) is float for v in at_point)
        assert _hex(at_point) == want, (x, y)
        assert _hex(at_0d) == want, (x, y)
        for z in zs:
            with np.errstate(all="ignore"):  # and so does the kernel at z = 300
                want = _hex(fld.partials(ORDERS_3D, *(np.array([c]) for c in (x, y, z))))
                at_point = fld.partials(ORDERS_3D, x, y, z)
                at_0d = fld.partials(ORDERS_3D, *map(np.asarray, (x, y, z)))
            assert all(type(v) is float for v in at_point)
            assert _hex(at_point) == want, (x, y, z)
            assert _hex(at_0d) == want, (x, y, z)


@pytest.mark.parametrize("name", GENERATORS)
def test_a_point_has_the_bits_of_1_element_arrays(passes, name):
    assert_point_is_1_element_arrays(GENERATORS[name], POINTS, ZS)
    # every point takes the point pass, at every z; arrays never reach it
    assert passes == [True, True] * len(POINTS) * (1 + len(ZS))


@st.composite
def overflowing_modes(draw):
    """A random Hermitian mode set with general complex amplitudes and subnormals,
    and one pair of modes whose wavevector's fourth power overflows."""
    gen = draw(hermitian_modes())
    m = draw(st.sampled_from([10**78, 3 * 10**80]))
    amp = complex(draw(coeffs), draw(coeffs.filter(bool)))
    return FourierGen(gen.periods, [*gen.modes, FourierMode(m, 0, amp),
                                    FourierMode(-m, 0, amp.conjugate())])


@settings(max_examples=60, deadline=None)
@given(st.one_of(hermitian_modes(), overflowing_modes()), coords, coords,
       st.one_of(coords, st.floats(-1e-5, 1e-5)))
def test_random_mode_sets_at_a_point_have_the_bits_of_1_element_arrays(gen, x, y, z):
    assert_point_is_1_element_arrays(gen, [(x, y)], [z])


def test_an_overflowing_factor_is_summed_at_a_point(passes):
    gen = FourierGen((2.0, 2.0), [FourierMode(1, 1, 0.5 - 0.25j), FourierMode(-1, -1, 0.5 + 0.25j),
                                  FourierMode(10**78, 0, 1e-300 + 2j),
                                  FourierMode(-10**78, 0, 1e-300 - 2j)])
    table = generators._PointTable([wave[:2] for wave in gen.waves], tuple(ORDERS_2D))
    assert not np.isfinite(table.f).all()
    assert_point_is_1_element_arrays(gen, POINTS, ZS)
    assert all(passes)


@pytest.mark.parametrize("name", GENERATORS)
def test_a_point_beside_a_z_array_is_left_to_the_loop(passes, name):
    fld = synthesize(GENERATORS[name])
    waves = len(fld._engine._waves)
    # as many z values as waves, so that a wave array times z would broadcast
    zs = np.linspace(-0.3, 0.4, waves)
    got = fld.partials(ORDERS_3D, 0.3, -0.7, zs)
    assert passes == [False]
    want = [fld.partials(ORDERS_3D, 0.3, -0.7, z) for z in zs.tolist()]
    for values, at_points in zip(got, zip(*want)):
        assert [v.hex() for v in values.tolist()] == [v.hex() for v in at_points]


def test_each_set_of_orders_has_its_own_table(passes):
    gen = GENERATORS["phase-shifted"]
    for order in ORDERS_2D:  # as many sets of one order, on one set of waves
        want = _hex(gen.partials([order], np.array([0.3]), np.array([-0.7])))
        assert _hex(gen.partials([order], 0.3, -0.7)) == want, order
    assert passes == [True] * len(ORDERS_2D)


def test_numpy_integer_orders_take_the_int_bits(passes):
    gen = GENERATORS["phase-shifted"]
    orders = [(np.int64(nx), ny) for nx, ny in ORDERS_2D]
    assert _hex(gen.partials(orders, 0.3, -0.7)) == _hex(gen.partials(ORDERS_2D, 0.3, -0.7))
    assert passes == [True, True]
    xs, ys = np.linspace(-1.9, 1.7, 7), np.linspace(0.6, -1.3, 7)
    for got, want in zip(gen.partials(orders, xs, ys), gen.partials(ORDERS_2D, xs, ys)):
        assert got.tobytes() == want.tobytes()
    with pytest.raises(ValueError, match="non-negative integers"):
        gen.partials([(1, 0), (-1, 0)], 0.3, -0.7)
    with pytest.raises(ValueError, match="non-negative integers"):
        gen.partials([(1.0, 0)], 0.3, -0.7)


@pytest.fixture
def tables(monkeypatch):
    """A fresh memo; called, the wave tables it holds, by key."""
    memo = generators._Memo(generators._MEMO_WEIGHT)
    monkeypatch.setattr(generators, "_MEMO", memo)
    return lambda: {key: value for key, (value, _) in memo._entries.items()
                    if key[0] is generators._PointTable}


def test_int_and_numpy_integer_orders_share_one_table(tables):
    gen = GENERATORS["phase-shifted"]
    orders = [(np.int64(nx), ny) for nx, ny in ORDERS_2D]
    gen.partials(orders, np.array([0.3]), np.array([-0.7]))
    gen.partials(ORDERS_2D, 0.3, -0.7)
    (key, table), = tables().items()
    assert all(type(n) is int for order in key[2] for n in order)
    for w, row, terms in zip(table.rows, table.f.tolist(), table.terms):
        kx, ky = key[1][w]
        # every count is an int, and takes Python's complex power
        want = [(1j * kx) ** nx * (1j * ky) ** ny for nx, ny in key[2]]
        assert [(f.real.hex(), f.imag.hex()) for f in row] == \
            [(f.real.hex(), f.imag.hex()) for f in want], w
        assert terms == [(i, order) for i, (f, order) in enumerate(zip(want, key[2])) if f], w


def test_points_arrays_and_newton_share_one_table(tables, passes):
    gen = GENERATORS["phase-shifted"]
    _refine_newton(PlanarJet(gen), np.array([(0.1, 0.2), (-0.9, 0.95)]), 2.6)
    (key, table), = tables().items()
    assert key[2] == _NEWTON_ORDERS
    gen.partials(_NEWTON_ORDERS, np.linspace(0, 1, 5), np.linspace(-1, 0, 5))
    gen.partials(_NEWTON_ORDERS, 0.3, -0.7)
    assert passes == [True]
    assert tables() == {key: table}
