"""What Fourier mode sums rest on, and the shapes of axial waves' values.

``generators.mode_sum`` forms a term whose coefficient is real or imaginary
from ``cos`` or ``sin`` of its phase, where the sum of complex terms took the
real part of ``exp``; the numpy identities that keep its bits are pinned here.
A wave that runs along one axis takes its phase over that axis only, so its
values must still come back in the points' shape.  Their values are checked
against the exact ones in ``tests/test_oracle.py``.
"""

import numpy as np

from trapnet import PlanarJet, parse_fourier, synthesize

PERIODS = (2.0, 2.0)
GENERATORS = {expr: parse_fourier(expr, PERIODS) for expr in ("cos(pi*x)", "sin(pi*y)")}


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
# a generator whose waves all run along one axis
# ----------------------------------------------------------------------

AXIAL = parse_fourier("cos(pi*x)", PERIODS)


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
