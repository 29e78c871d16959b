"""Closed-form reference fields for the catalog generators.

The benchmark checks trapnet's outputs against these formulas.  They use
numpy and math only and never import trapnet, so an agreement is evidence
rather than the same code compared with itself.

Each reference gives the plane generator P with what the checks need of
it: its gradient, Hessian and nodes, and for the generators that the
sample-grid workload samples in 3-D, the odd harmonic continuation phi with
its gradient:

* cusp   P = y^2 - a^2 x^3,  phi = z P - z^3 (2 - 6 a^2 x) / 6
* cross  P = x y
* round  P = -3c + sum_k a_k cos(k.r) over six cosine modes, and
         phi = -3c z + sum_k a_k cos(k.r) sinh(|k| z) / |k|
"""

from __future__ import annotations

import math

import numpy as np

PI = math.pi


class Cusp:
    def __init__(self, alpha: float):
        self.a2 = alpha * alpha

    def p(self, x, y):
        return y * y - self.a2 * x ** 3

    def grad_p(self, x, y):
        return -3.0 * self.a2 * x * x, 2.0 * y

    def hess_p(self, x, y):
        return -6.0 * self.a2 * x, 0.0, 2.0

    def second_bound(self, window) -> float:
        """Largest |P_xx| or |P_yy| over a window."""
        return max(6.0 * self.a2 * max(abs(window[0]), abs(window[1])), 2.0)

    def phi(self, x, y, z):
        return z * self.p(x, y) - z ** 3 * (2.0 - 6.0 * self.a2 * x) / 6.0

    def grad_phi(self, x, y, z):
        return (-3.0 * self.a2 * x * x * z + self.a2 * z ** 3,
                2.0 * y * z,
                self.p(x, y) - z * z * (2.0 - 6.0 * self.a2 * x) / 2.0)

    def nodes(self, window):
        return [(0.0, 0.0)]


class Cross:
    def p(self, x, y):
        return x * y

    def grad_p(self, x, y):
        return y, x

    def hess_p(self, x, y):
        return 0.0, 1.0, 0.0

    def second_bound(self, window) -> float:
        return 0.0

    def nodes(self, window):
        return [(0.0, 0.0)]


class Round:
    """Rounded-square lattice generator, expanded by hand into cosines.

    cos(pi x) + cos(pi y) + c ((cos(pi x) - cos(pi y))^2 - 4) equals
    -3c + cos(pi x) + cos(pi y) + c/2 cos(2 pi x) + c/2 cos(2 pi y)
    - c cos(pi (x + y)) - c cos(pi (x - y)).
    """

    def __init__(self, c: float):
        self.c = c
        self.a0 = -3.0 * c
        self.modes = [(1.0, PI, 0.0), (1.0, 0.0, PI),
                      (c / 2, 2 * PI, 0.0), (c / 2, 0.0, 2 * PI),
                      (-c, PI, PI), (-c, PI, -PI)]

    def p(self, x, y):
        return self.a0 + sum(a * np.cos(kx * x + ky * y) for a, kx, ky in self.modes)

    def grad_p(self, x, y):
        s = [(a * np.sin(kx * x + ky * y), kx, ky) for a, kx, ky in self.modes]
        return -sum(v * kx for v, kx, _ in s), -sum(v * ky for v, _, ky in s)

    def hess_p(self, x, y):
        cs = [(a * np.cos(kx * x + ky * y), kx, ky) for a, kx, ky in self.modes]
        return (-sum(v * kx * kx for v, kx, _ in cs),
                -sum(v * kx * ky for v, kx, ky in cs),
                -sum(v * ky * ky for v, _, ky in cs))

    def second_bound(self, window) -> float:
        return PI * PI * (1.0 + 4.0 * abs(self.c))

    def phi(self, x, y, z):
        out = self.a0 * z
        for a, kx, ky in self.modes:
            k = math.hypot(kx, ky)
            out = out + a * np.cos(kx * x + ky * y) * np.sinh(k * z) / k
        return out

    def grad_phi(self, x, y, z):
        gx = gy = 0.0
        gz = self.a0
        for a, kx, ky in self.modes:
            k = math.hypot(kx, ky)
            s = a * np.sin(kx * x + ky * y) * np.sinh(k * z) / k
            gx = gx - kx * s
            gy = gy - ky * s
            gz = gz + a * np.cos(kx * x + ky * y) * np.cosh(k * z)
        return gx, gy, gz

    def nodes(self, window):
        """Lattice nodes: one coordinate an odd integer, the other even."""
        x0, x1, y0, y1 = window
        return [(float(i), float(j))
                for i in range(math.ceil(x0), math.floor(x1) + 1)
                for j in range(math.ceil(y0), math.floor(y1) + 1)
                if (i + j) % 2 == 1]


def for_catalog(name: str, params: dict):
    if name == "cusp":
        return Cusp(params.get("alpha", 1.0))
    if name == "cross":
        return Cross()
    if name == "round":
        return Round(params.get("c", 0.25))
    raise KeyError(name)


def quantity(ref, name: str, x, y, z):
    """A sampled quantity with kappa = 1: phi, upp, grad_norm or p."""
    if name == "p":
        return ref.p(x, y)
    if name == "phi":
        return ref.phi(x, y, z)
    gx, gy, gz = ref.grad_phi(x, y, z)
    sq = gx * gx + gy * gy + gz * gz
    return sq if name == "upp" else np.sqrt(sq)


def node_form(ref, x, y, degenerate_tol: float = 1e-9):
    """Kind, crossing angle and eigenvalues of half the Hessian of P at a node."""
    hxx, hxy, hyy = (float(v) for v in ref.hess_p(x, y))
    mean = 0.25 * (hxx + hyy)
    rad = math.hypot(0.25 * (hxx - hyy), 0.5 * hxy)
    lo, hi = mean - rad, mean + rad
    scale = max(abs(lo), abs(hi))
    if scale == 0.0 or min(abs(lo), abs(hi)) <= degenerate_tol * scale:
        return "degenerate", None, (lo, hi)
    if lo < 0.0 < hi:
        angle = 2.0 * math.atan(math.sqrt(hi / -lo))
        return "crossing", min(angle, PI - angle), (lo, hi)
    return "isolated", None, (lo, hi)
