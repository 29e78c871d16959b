"""Exact values of trapnet's front-end quantities at float points, with their scale.

A float is an exact binary fraction, so at a float point the partial
derivatives of a polynomial generator P, of its odd continuation and the
pseudopotential ``kappa * |grad phi|**2`` are rational numbers, computed here
with ``fractions.Fraction`` arithmetic (integers over one common denominator).
The continuation's layers are built from P's coefficients, ``layer_1 = P`` and
``layer_{n+2} = -lap(layer_n)``, never read from trapnet.  A Fourier generator's
values take cos, sin, sinh and cosh of its stored float wavevectors and
amplitudes: ``decimal`` at 50 digits, with a 50-digit pi and Taylor series
after argument reduction, gives them to about 1e-45 of their scale.

Each value comes with its scale, the magnitude that Higham's running error
bound sums (*Accuracy and Stability of Numerical Algorithms*, 2nd ed., SIAM
2002, sections 4.2 and 5.1): |t| over the terms t of the sum, and |s| over its
partial sums s in the order the sum is defined, since recursive summation
rounds each partial sum.  A polynomial's terms are taken by layer n, then by
exponents (i, j), as ``c * x**i * y**j * z**n / n!``, and each term's
magnitude comes from the continuation of |P|, every coordinate in absolute
value, so that a cancellation in a Laplacian still counts.  A Fourier sum's
terms are taken in wave order, and each term's magnitude is ``(|Re a| + |Im a|)
* |kx**nx * ky**ny * K|``, with K the sinh kernel's factor, weighted by ``1 +
|kx*x| + |ky*y| + |k*z|``: the phase and the kernel's argument are rounded too,
and cos, sin, sinh and cosh pass that rounding on in proportion to their
argument.  A float result is correct when it lies within ``K * (eps * scale +
TINY)`` of the exact value, TINY being the bound's term for underflow; the
tests take K = 8.  Without the partial sums the bound does not hold: spec-sweep's
polynomials of degree 18 and 24, sums of 190 and 169 terms, are off by up to
7.2 times eps times the sum of |terms| at 600 seeded points.

``sinh_kernel`` and ``gradient_norm`` give the sinh kernel of the
continuation alone and ``|grad phi|``, with scales of the same kind.

Only the standard library is imported: the oracle shares no code with trapnet
and reads only a generator's ``terms`` (a Poly2) or ``waves`` (a FourierGen).
"""

import decimal
import functools
import math
from decimal import Decimal
from fractions import Fraction

EPS = Fraction(2) ** -52
# the underflow term of the bound: Higham's model adds at most 2**-1074 for an
# operation below the normal range, and TINY, the smallest normal number, is
# 2**52 of those; it moves no bound of a value above about 1e-290
TINY = Fraction(2) ** -1022
# the bound's multiple of eps * scale that every front end keeps
K = 8

_CONTEXT = decimal.Context(prec=50)
_PI = Decimal("3.1415926535897932384626433832795028841971693993751")
_HALF_PI = _PI / 2
_ONE = Decimal(1)


def partials(generator, orders, x, y, z=None) -> list:
    """(exact value, scale) of each partial derivative at a float point: an (nx, ny)
    order of the generator P when z is None, else an (nx, ny, nz) order of P's odd
    continuation.  Values and scales are (numerator, denominator) pairs of
    integers for a polynomial, left unreduced, since a gcd of integers of tens of
    thousands of bits costs more than the rest of the oracle, and Decimals for a
    Fourier generator."""
    orders = tuple(map(tuple, orders))
    if hasattr(generator, "waves"):
        with decimal.localcontext(_CONTEXT):
            return list(_fourier(generator.waves, orders, x, y, z))
    return _polynomial(generator.terms, orders, x, y, z)


def pseudopotential(gradient, kappa=1.0) -> tuple:
    """(exact value, scale) of ``kappa * |grad phi|**2`` from the (value, scale)
    pairs of the three gradient components.

    A component g computed within ``K * eps * S`` of its exact value has a square
    within ``K * eps * S * (2|g| + S)`` of g**2, as ``K * eps`` is below 1, so
    the scale is ``kappa * sum S * (2|g| + S)`` over the three components.  Both
    are unreduced (numerator, denominator) pairs.
    """
    num, den, snum, sden = 0, 1, 0, 1
    for g, s in gradient:
        (a, b), (c, d) = ratio(g), ratio(s)
        # g = a/b adds a*a / (b*b), and S = c/d adds c * (2|a|d + cb) / (b*d*d)
        num, den = num * b * b + a * a * den, den * b * b
        snum, sden = snum * b * d * d + c * (2 * abs(a) * d + c * b) * sden, sden * b * d * d
    k, m = Fraction(kappa).as_integer_ratio()
    return (k * num, m * den), (k * snum, m * sden)


def gradient_norm(gradient) -> tuple:
    """(value, scale) of ``|grad phi|`` from the (value, scale) pairs of the three
    gradient components, the value to 50 digits.

    Components within ``K * eps * S`` of their exact values have a norm within
    ``K * eps * sum S`` of the exact norm, by the triangle inequality, and the
    squares, their sum and the square root round it by a few eps relative, so
    the scale is ``sum S`` plus the norm.
    """
    (num, den), _ = pseudopotential(gradient)
    with decimal.localcontext(_CONTEXT):
        norm = (Decimal(num) / den).sqrt()
    return norm, sum(Fraction(*ratio(s)) for _, s in gradient) + Fraction(norm)


def sinh_kernel(k: float, z: float, order: int) -> tuple:
    """(value, scale) of the order-th z-derivative of ``sinh(k*z) / k`` at a float
    k > 0 and a finite float z, with a Fourier term's scale: the value's magnitude
    weighted by ``1 + |k*z|``, as ``k*z`` is rounded before sinh or cosh."""
    with decimal.localcontext(_CONTEXT):
        k, z = Decimal(k), Decimal(z)
        value = _kernel(k, z, order)
        return value, abs(value) * (1 + abs(k * z))


def error(got: float, exact: tuple) -> float:
    """|got - value| in units of ``eps * scale + TINY``; inf where got is not finite."""
    if not math.isfinite(got):
        return math.inf
    (n, d), (s, e) = map(ratio, exact)
    a, b = float(got).as_integer_ratio()
    try:  # in integers: a Fraction quotient would reduce every operand by its gcd
        return (abs(a * d - n * b) * e << 1022) / (b * d * ((s << 970) + e))
    except OverflowError:
        return math.inf


def ratio(value) -> tuple:
    """(numerator, denominator) of an exact value: a pair as it is, else its ratio."""
    return value if isinstance(value, tuple) else Fraction(value).as_integer_ratio()


# ----------------------------------------------------------------------
# polynomials
# ----------------------------------------------------------------------

def _laplacian(q: dict) -> dict:
    out = {}
    for (i, j), c in q.items():
        if i > 1:
            out[i - 2, j] = out.get((i - 2, j), 0) + c * i * (i - 1)
        if j > 1:
            out[i, j - 2] = out.get((i, j - 2), 0) + c * j * (j - 1)
    return out


@functools.lru_cache(maxsize=1 << 8)
def _layers(key: tuple) -> tuple:
    """(shift, imax, jmax, layers) of the odd continuation of the polynomial whose
    sorted terms are ``key``: layers of (n, [(i, [(j, C, A), ...]), ...]) for the
    terms ``x**i * y**j`` of each layer n, in order of n, i and j, with C the exact
    coefficient and A that of the continuation of |P|, both integers over
    ``2**shift`` (every coefficient is an integer combination of P's)."""
    shift = max((Fraction(c).denominator.bit_length() - 1 for _, c in key), default=0)
    p = {ij: int(Fraction(c) * 2 ** shift) for ij, c in key}
    a = {ij: abs(c) for ij, c in p.items()}
    layers, n = [], 1
    while a:  # the magnitudes outlast any exact cancellation in p
        rows = {}
        for (i, j), m in sorted(a.items()):
            rows.setdefault(i, []).append((j, p.get((i, j), 0), m))
        layers.append((n, list(rows.items())))
        p = {ij: -c for ij, c in _laplacian(p).items()}
        a = _laplacian(a)
        n += 2
    imax = max((i for (i, _), _ in key), default=0)
    return shift, imax, max((j for (_, j), _ in key), default=0), layers


@functools.lru_cache(maxsize=1 << 12)
def _powers(v: float, top: int, k: int, factorial: bool = False) -> tuple:
    """(T, e): ``T[m]`` is the k-th derivative of ``v**m``, or of ``v**m / m!``, as
    an integer over ``2**e``, or over ``2**e * top!``, for m up to ``top``."""
    num, den = v.as_integer_ratio()
    bits = den.bit_length() - 1
    scale = [math.factorial(top) // math.factorial(m - k) if factorial else math.perm(m, k)
             for m in range(k, top + 1)]
    return (0,) * min(k, top + 1) + tuple(
        f * num ** (m - k) << bits * (top - m + k) for m, f in zip(range(k, top + 1), scale)
    ), bits * top


@functools.lru_cache(maxsize=1 << 16)
def _plane_sums(key: tuple, planar: bool, x: float, y: float, nx: int, ny: int) -> tuple:
    """(e, sums): for each layer n, of P alone if ``planar``, the (nx, ny) derivative
    of its plane polynomial at (x, y) and the magnitudes of its terms and partial
    sums, as (n, sum, magnitudes), integers over ``2**e``."""
    shift, imax, jmax, layers = _layers(key)
    xs, ex = _powers(x, imax, nx)
    ys, ey = _powers(y, jmax, ny)
    sums = []
    for n, rows in layers[:1] if planar else layers:
        run = mags = 0
        for i, row in rows:
            xi = xs[i]
            if xi:
                row_mags = 0
                for j, c, a in row:
                    if ys[j]:
                        run += xi * (c * ys[j])
                        mags += abs(run)
                        row_mags += a * abs(ys[j])
                mags += abs(xi) * row_mags
        sums.append((n, run, mags))
    return shift + ex + ey, tuple(sums)


def _polynomial(terms, orders, x, y, z) -> list:
    key = tuple(sorted(terms.items()))
    nmax = _layers(key)[3][-1][0] if terms else 0
    out = []
    for order in orders:
        e, sums = _plane_sums(key, z is None, float(x), float(y), order[0], order[1])
        if z is None:  # P is layer 1, whose z-derivative at z = 0 it is
            zs, ez, den = (0, 1), 0, 1
        else:
            zs, ez = _powers(float(z), nmax, order[2], factorial=True)
            den = math.factorial(nmax)
        total = scale = 0
        for n, run, mags in sums:
            if zs[n]:
                total += zs[n] * run
                scale += abs(zs[n]) * mags + abs(total)
        den <<= e + ez
        out.append(((total, den), (scale, den)))
    return out


# ----------------------------------------------------------------------
# Fourier generators
# ----------------------------------------------------------------------

def _series(t: Decimal, first: int, sign: int) -> Decimal:
    """Sum of ``sign**k * t**(first + 2k) / (first + 2k)!`` over k >= 0, to the
    context's precision."""
    term = t if first else _ONE
    total, n, t2 = term, first, t * t
    while True:
        term = sign * term * t2 / ((n + 1) * (n + 2))
        n += 2
        if total + term == total:
            return total
        total += term


@functools.lru_cache(maxsize=1 << 16)
def _cos_sin(t: Decimal) -> tuple:
    """cos and sin of t, from Taylor series on t reduced by multiples of pi/2."""
    q = (t / _HALF_PI).to_integral_value()
    r = t - q * _HALF_PI
    c, s = _series(r, 0, -1), _series(r, 1, -1)
    return ((c, s), (-s, c), (-c, -s), (s, -c))[int(q) % 4]


@functools.lru_cache(maxsize=1 << 16)
def _cosh_sinh(t: Decimal) -> tuple:
    """cosh and sinh of t: Taylor series below |t| = 1, exponentials above."""
    if abs(t) < 1:
        return _series(t, 0, 1), _series(t, 1, 1)
    e = t.exp()
    return (e + 1 / e) / 2, (e - 1 / e) / 2


def _kernel(k: Decimal, z: Decimal, nz: int) -> Decimal:
    """The nz-th z-derivative of sinh(k*z) / k."""
    cosh, sinh = _cosh_sinh(k * z)
    return sinh / k if nz == 0 else k ** (nz - 1) * (cosh if nz % 2 else sinh)


@functools.lru_cache(maxsize=1 << 10)
def _hypot(kx: Decimal, ky: Decimal) -> Decimal:
    return (kx * kx + ky * ky).sqrt()


@functools.lru_cache(maxsize=1 << 12)
def _fourier(waves, orders, x, y, z) -> tuple:
    x, y = Decimal(x), Decimal(y)
    planar = z is None
    z = Decimal(0) if planar else Decimal(z)
    value = [Decimal(0)] * len(orders)
    scale = [Decimal(0)] * len(orders)
    p00 = Decimal(0)
    for kx, ky, amp in waves:
        ar, ai = Decimal(amp.real), Decimal(amp.imag)
        if kx == ky == 0 and not planar:
            p00 = ar  # the mean mode continues as p00 * z, added after the waves
            continue
        kx, ky = Decimal(kx), Decimal(ky)
        px, py = kx * x, ky * y
        cos, sin = _cos_sin(px + py)
        turn = ((ar * cos - ai * sin), (ar * sin + ai * cos))  # amp * exp(i*phase)
        weight = 1 + abs(px) + abs(py)
        if not planar:
            k = _hypot(kx, ky)
            weight += abs(k * z)
        for o, order in enumerate(orders):
            nx, ny = order[0], order[1]
            factor = (kx ** nx if nx else _ONE) * (ky ** ny if ny else _ONE)
            if not factor:
                continue
            if not planar:
                factor *= _kernel(k, z, order[2])
            # the real part of i**(nx + ny) * amp * exp(i*phase)
            value[o] += factor * (turn[0], -turn[1], -turn[0], turn[1])[(nx + ny) % 4]
            scale[o] += (abs(ar) + abs(ai)) * abs(factor) * weight + abs(value[o])
    for o, order in enumerate(orders):
        if not planar and order[0] == order[1] == 0 and order[2] < 2:
            term = p00 * z if order[2] == 0 else p00
            value[o] += term
            scale[o] += abs(term) + abs(value[o])
    return tuple(zip(value, scale))
