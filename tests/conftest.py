"""Shared strategies and helpers for the test suite."""

import numpy as np
from hypothesis import strategies as st

from trapnet import Poly2
from trapnet import generators

finite_coeffs = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)


@st.composite
def polys(draw, max_degree=8, max_terms=6, coeffs=finite_coeffs):
    """Random sparse Poly2 up to the given total degree."""
    n = draw(st.integers(1, max_terms))
    terms = {}
    for _ in range(n):
        i = draw(st.integers(0, max_degree))
        j = draw(st.integers(0, max_degree - i))
        terms[(i, j)] = terms.get((i, j), 0.0) + draw(coeffs)
    return Poly2(terms)


def random_poly(rng: np.random.Generator, max_degree=10, max_terms=12) -> Poly2:
    """Random sparse polynomial with coefficients in [-1, 1] (numpy RNG)."""
    nterms = rng.integers(3, max_terms + 1)
    terms = {}
    for _ in range(nterms):
        i = int(rng.integers(0, max_degree + 1))
        j = int(rng.integers(0, max_degree + 1 - i))
        terms[(i, j)] = float(rng.uniform(-1.0, 1.0))
    return Poly2(terms)


class OnePassParser(generators._Parser):
    """The reference compile: one pass, each parameter's value bound as it is
    read, so no value depends on a step and no step is recorded."""

    def __init__(self, src, family, params):
        super().__init__(src, family, params)
        self.params = params

    def parameter(self, tok):
        return generators._number(self.family.number, tok, self.params)
