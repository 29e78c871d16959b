"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines on stdout; the test names mirror the criteria one to one.
"""

import functools
import math

import numpy as np
import pytest

import test_properties
from conftest import random_poly
from trapnet import (Field, Poly2, ZSeries, catalog, check_boundary, check_gradient,
                     check_laplace, classify_node, multipole_order, null_lines,
                     odd_extend, parse_fourier, parse_polynomial, quadratic_part,
                     sample_points, synthesize, threshold_scan, transverse_confinement)
from trapnet.analysis import PlanarJet

PI2 = math.pi**2
ROUND_EXPR = "cos(pi*x) + cos(pi*y) + c*((cos(pi*x) - cos(pi*y))^2 - 4)"


def criterion(num, label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num} ({label}): FAIL")
                raise
            print(f"criterion {num} ({label}): PASS")
        return wrapper
    return deco


def round_gen(c):
    return catalog("round", {"c": c}).compile()


@criterion(1, "cusp closed form")
def test_criterion_1_cusp_closed_form():
    for alpha in (1.0, 0.5, 2.0):
        p = parse_polynomial("y^2 - alpha^2*x^3", {"alpha": alpha})
        s = odd_extend(p)
        assert sorted(s.layers) == [1, 3]
        want1 = {(0, 2): 1.0, (3, 0): -alpha**2}
        want3 = {(1, 0): 6.0 * alpha**2, (0, 0): -2.0}
        for key, value in want1.items():
            assert abs(s.layer(1).coeff(*key) - value) <= 1e-12
        for key, value in want3.items():
            assert abs(s.layer(3).coeff(*key) - value) <= 1e-12
        assert set(s.layer(1).terms) == set(want1)
        assert set(s.layer(3).terms) == set(want3)
        # value form z*(y^2 - a^2 x^3) + z^3*(a^2 x - 1/3)
        rng = np.random.default_rng(1)
        for x, y, z in rng.uniform(-1.5, 1.5, size=(20, 3)):
            want = z * (y**2 - alpha**2 * x**3) + z**3 * (alpha**2 * x - 1.0 / 3.0)
            assert abs(s.eval(x, y, z) - want) <= 1e-12 * max(1.0, abs(want))


@criterion(2, "round Fourier expansion")
def test_criterion_2_round_fourier_expansion():
    for c in (0.1, 0.25, 0.4):
        g = parse_fourier(ROUND_EXPR, (2.0, 2.0), {"c": c})
        amps = g.cosine_amplitudes()
        expected = {(0, 0): -3 * c, (1, 0): 1.0, (0, 1): 1.0, (2, 0): c / 2,
                    (0, 2): c / 2, (1, 1): -c, (1, -1): -c}
        assert len(amps) == 7
        assert set(amps) == set(expected)
        for key, want in expected.items():
            assert abs(amps[key] - want) <= 1e-12


@criterion(3, "node quadratic form")
def test_criterion_3_node_quadratic_form():
    for c in np.linspace(0.0, 0.45, 10):
        _, grad, q2 = quadratic_part(round_gen(float(c)), (1.0, 0.0))
        assert np.abs(grad).max() < 1e-10
        assert abs(q2.xx - PI2 * (0.5 - 2 * c)) <= 1e-10
        assert abs(q2.yy - (-PI2 * (0.5 + 2 * c))) <= 1e-10
        assert abs(q2.xy) <= 1e-10


@criterion(4, "connectivity threshold")
def test_criterion_4_connectivity_threshold():
    t = threshold_scan(round_gen, (1.0, 0.0), (0.0, 0.5))
    assert abs(t - 0.25) <= 1e-6
    assert classify_node(round_gen(0.2), (1.0, 0.0)).kind == "crossing"
    assert classify_node(round_gen(0.3), (1.0, 0.0)).kind == "isolated"
    assert classify_node(round_gen(0.25), (1.0, 0.0)).kind == "degenerate"


@criterion(5, "hexapole node")
def test_criterion_5_hexapole_node():
    fld = synthesize(round_gen(0.25))
    assert multipole_order(fld, (1.0, 0.0, 0.0)) == 3
    hess = fld.pseudopotential_hessian(1.0, 0.0, 0.0)
    assert np.abs(hess).max() <= 1e-9


@criterion(6, "harmonicity and boundary conditions")
def test_criterion_6_harmonicity_and_boundary():
    box = (-0.75, 0.75) * 3
    pts = sample_points(box, 60, seed=0)
    rng = np.random.default_rng(12345)
    fields = [(random_poly(rng, max_degree=10), None) for _ in range(50)]
    fields.append((round_gen(0.25), "fourier"))
    for gen, kind in fields:
        fld = synthesize(gen)
        assert check_laplace(fld, pts) < 1e-6
        max_value, max_slope = check_boundary(fld, gen, pts[:, :2])
        assert max_value < 1e-12
        assert max_slope < 1e-7
    # fault injection: perturbing one layer must be detected
    s = odd_extend(Poly2({(0, 2): 1.0, (3, 0): -1.0}))
    corrupted = Field(ZSeries({1: s.layer(1), 3: s.layer(3) + Poly2.const(0.1)}))
    assert check_laplace(corrupted, pts) > 1e-2


@criterion(7, "null-line fidelity")
def test_criterion_7_null_line_fidelity():
    cusp = catalog("cusp").compile()
    window = (-0.5, 2.5, -3.0, 3.0)
    ts = np.linspace(-1.6, 1.6, 20001)
    cx, cy = ts**2, ts**3

    def worst(res):
        lines = null_lines(cusp, window, res)
        assert len(lines) == 1
        return max(float(np.sqrt((px - cx) ** 2 + (py - cy) ** 2).min())
                   for px, py in lines[0].points)

    w400 = worst(400)
    cell_diag = math.hypot(3.0 / 399, 6.0 / 399)
    assert w400 <= 2 * cell_diag
    w800 = worst(800)
    assert w800 <= 0.6 * w400


@criterion(8, "guide confinement")
def test_criterion_8_guide_confinement():
    lin = catalog("linear").compile()
    flin = synthesize(lin)
    assert transverse_confinement(flin, lin, (0.0, 0.3)) == (2.0, 2.0)

    rng = np.random.default_rng(99)
    cusp = catalog("cusp").compile()
    r0 = round_gen(0.0)
    cases = [(lin, [(0.0, float(u)) for u in rng.uniform(-2, 2, 20)]),
             (cusp, [(float(t**2), float(t**3)) for t in rng.uniform(0.3, 1.3, 20)]),
             (r0, [(float(t), float(1.0 - t)) for t in rng.uniform(0.1, 0.9, 20)])]
    for gen, points in cases:
        fld = synthesize(gen)
        jet = PlanarJet(gen)
        for point in points:
            g = jet.grad(*point)
            want = 2.0 * float(g @ g)
            lam_n, lam_z = transverse_confinement(fld, gen, point)
            assert abs(lam_n - want) <= 1e-6 * want
            assert abs(lam_z - want) <= 1e-6 * want


@criterion(9, "property suite")
def test_criterion_9_property_suite():
    # hypothesis-driven invariants, >= 100 cases each (see test_properties)
    test_properties.test_odd_extension_antisymmetry()
    test_properties.test_odd_extension_linearity()
    test_properties.test_extension_recursion_identity()
    test_properties.test_node_classification_rotation_equivariance()
    test_properties.test_node_classification_scaling_invariance()
