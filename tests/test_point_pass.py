"""Fourier mode sums at a point, in one array pass, against the per-term loop.

At finite scalar or 0-d coordinates ``generators.mode_sum`` forms its sums in
one array pass over the waves (``generators._point_sum``); arrays, and points
where a coefficient or kernel value is not finite, go through the per-term
loop.  Both must give the same bits, compared as ``float.hex``.

The front ends take a point as 0-d float64 arrays, so a float point and the
same point as 0-d arrays both take the point pass.  The reference is the loop
at that point, forced by a ``_point_sum`` that leaves every sum to it, with
numpy's 0-d arithmetic; the point pass must equal it for every generator.
As 1-element arrays the points take the loop over arrays, where numpy's
complex product may fuse its multiply and subtraction; that equals the point
pass where every amplitude is real or imaginary, so only those generators
are compared with it.

The generators are round, spec-sweep's four Fourier templates at seed 0 and
a phase-shifted generator; the orders are every order up to
``MULTIPOLE_MAX_ORDER``.  The points put x or y at +-0.0, and z at +-0, inside
``_SMALL_KZ`` and at 300, where the sinh kernel overflows and the loop runs.
A point (x, y) beside an array of z values is left to the loop as well.

The loop and the point pass read one memoized table of wave factors per
wavevectors and orders: points, arrays and Newton's batches of one generator
share it, and so do int and numpy integer orders, whose counts are taken as
ints.
"""

import itertools

import numpy as np
import pytest

from trapnet import PlanarJet, catalog, parse_fourier, synthesize
from trapnet import generators
from trapnet.analysis import _NEWTON_ORDERS, MULTIPOLE_MAX_ORDER, _refine_newton
from test_open_axes import SPEC_SWEEP

GENERATORS = {"round": catalog("round").compile()}
GENERATORS.update({text: parse_fourier(text, (2.0, 2.0))
                   for family, text in SPEC_SWEEP if family == "fourier"})
GENERATORS["phase-shifted"] = parse_fourier("cos(pi*x + 0.3) - 0.4*sin(pi*(x + y) - 1.1)",
                                            (2.0, 2.0))


def _real_or_imaginary(gen) -> bool:
    return all(mode.amp.real == 0 or mode.amp.imag == 0 for mode in gen.modes)


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


def _by_the_loop(monkeypatch, compute):
    """``compute()`` with every point's sums left to the per-term loop."""
    with monkeypatch.context() as patch:
        patch.setattr(generators, "_point_sum", lambda *args: None)
        return compute()


def test_two_generators_have_general_complex_amplitudes():
    # the phase-shifted one and the template with a shifted sine
    assert sum(not _real_or_imaginary(gen) for gen in GENERATORS.values()) == 2


def _hex(values):
    return [float(np.reshape(v, -1)[0]).hex() if np.ndim(v) else v.hex() for v in values]


@pytest.mark.parametrize("name", GENERATORS)
def test_point_pass_matches_the_loop(passes, monkeypatch, name):
    gen = GENERATORS[name]
    jet, fld = PlanarJet(gen), synthesize(gen)
    real_or_imaginary = _real_or_imaginary(gen)
    for x, y in POINTS:
        at_point = jet.partials(ORDERS_2D, x, y)
        assert passes.pop() and all(type(v) is float for v in at_point)
        # a point as 0-d arrays takes the point pass too
        assert _hex(jet.partials(ORDERS_2D, np.asarray(x), np.asarray(y))) == _hex(at_point)
        assert passes.pop()
        want = _hex(_by_the_loop(monkeypatch, lambda: jet.partials(ORDERS_2D, x, y)))
        assert _hex(at_point) == want, (x, y)
        if real_or_imaginary:
            assert _hex(jet.partials(ORDERS_2D, np.array([x]), np.array([y]))) == want, (x, y)
        for z in ZS:
            with np.errstate(all="ignore"):
                at_point = fld.partials(ORDERS_3D, x, y, z)
                # the kernel overflows at z = 300, and the loop forms the sums
                assert passes.pop() == (z != 300.0)
                got = fld.partials(ORDERS_3D, np.asarray(x), np.asarray(y), np.asarray(z))
                assert _hex(got) == _hex(at_point) and passes.pop() == (z != 300.0)
                want = _hex(_by_the_loop(monkeypatch,
                                         lambda: fld.partials(ORDERS_3D, x, y, z)))
                assert _hex(at_point) == want, (x, y, z)
                if real_or_imaginary:
                    got = fld.partials(ORDERS_3D, np.array([x]), np.array([y]), np.array([z]))
                    assert _hex(got) == want, (x, y, z)
    assert not passes  # arrays never reach the point pass


@pytest.mark.parametrize("name", [name for name, gen in GENERATORS.items()
                                  if _real_or_imaginary(gen)])
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
        want = _hex(gen.partials([order], np.asarray(0.3), np.asarray(-0.7)))
        assert _hex(gen.partials([order], 0.3, -0.7)) == want, order
    assert all(passes)


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
    assert table.usable and all(type(n) is int for order in key[2] for n in order)
    for w, factors in zip(table.rows, table.factors):
        kx, ky = key[1][w]
        for i, factor, order in factors:
            # every count is an int, and takes Python's complex power
            want = (1j * kx) ** order[0] * (1j * ky) ** order[1]
            assert type(factor) is complex
            assert (factor.real.hex(), factor.imag.hex()) == \
                (want.real.hex(), want.imag.hex()), (w, i)


def test_points_arrays_and_newton_share_one_table(tables, passes):
    gen = GENERATORS["phase-shifted"]
    _refine_newton(PlanarJet(gen), np.array([(0.1, 0.2), (-0.9, 0.95)]), 2.6)
    (key, table), = tables().items()
    assert key[2] == _NEWTON_ORDERS
    gen.partials(_NEWTON_ORDERS, np.linspace(0, 1, 5), np.linspace(-1, 0, 5))
    gen.partials(_NEWTON_ORDERS, 0.3, -0.7)
    assert passes == [True]
    assert tables() == {key: table}
