"""Field-free RF guide networks from planar generating functions.

The zero set of an analytic plane function P(x, y) becomes a network of
field-free guide lines once P is continued into three dimensions as the odd
harmonic extension: the continuation solves Laplace's equation, vanishes on
the plane z=0, and its ponderomotive pseudopotential vanishes exactly on
P=0.  This package parses generator expressions, builds the continuation
for polynomial and periodic data, analyzes the resulting network (null
lines, nodes, crossing angles, confinement), and cross-checks every field
with an independent finite-difference oracle.
"""

from .algebra import ONE, Poly2, SymMat2, X, Y, ZSeries
from .analysis import (AnalysisError, CriticalPoint, NoTransitionError, NodeReport,
                       NotALinePointError, NotANodeError, PlanarJet, Polyline,
                       classify_node, critical_points, multipole_order, null_lines,
                       quadratic_part, threshold_scan, transverse_confinement)
from .extension import (Field, FourierField, TrapParams, cauchy_extend, even_extend,
                        odd_extend, odd_extend_fourier, synthesize)
from .generators import (FourierGen, FourierMode, GeneratorError, GeneratorSpec,
                         ParseError, catalog, catalog_names, load_spec,
                         parse_fourier, parse_polynomial)
from .verify import (VerifyConfig, VerifyReport, check_boundary, check_gradient,
                     check_laplace, run_checks, sample_points)

__version__ = "0.1.0"

__all__ = [
    "Poly2", "ZSeries", "SymMat2", "X", "Y", "ONE",
    "GeneratorError", "ParseError", "FourierMode", "FourierGen", "GeneratorSpec",
    "parse_polynomial", "parse_fourier", "catalog", "catalog_names", "load_spec",
    "TrapParams", "Field", "FourierField", "odd_extend", "even_extend",
    "cauchy_extend", "odd_extend_fourier", "synthesize",
    "AnalysisError", "NotANodeError", "NotALinePointError", "NoTransitionError",
    "Polyline", "CriticalPoint", "NodeReport", "PlanarJet", "null_lines",
    "critical_points", "quadratic_part", "classify_node", "multipole_order",
    "transverse_confinement", "threshold_scan",
    "VerifyConfig", "VerifyReport", "sample_points", "check_gradient",
    "check_laplace", "check_boundary", "run_checks",
]
