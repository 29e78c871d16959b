"""The benchmark workloads, each a fixed cycle of seeded jobs.

A job is one unit of user work: a ``trapnet`` command run in-process through
``trapnet.cli.main``, or the library calls that the experiment scripts make.
Every workload is a fixed list of job slots.  The seed draws each slot's
parameters, windows and expressions but never its shape (generator, grid
size, output format, template), so all seeds run the same mix of work and
their figures can be compared.

A job has a timed ``run`` and an untimed ``check``.  The check compares the
output with the closed forms in ``reference.py`` and returns the bytes that
the digest covers plus a problem string, or None when the output is right.
Jobs marked ``known_defect`` probe a robustness hole that the seed commit
has; they fail until it is fixed and stay in the cycle after that.
"""

from __future__ import annotations

import io
import json
import math
import random
from collections import namedtuple
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable

import numpy as np

import reference
from trapnet import analysis, cli, extension
from trapnet.generators import GeneratorError, GeneratorSpec, catalog

WORKLOADS = ("sample-grid", "network-map", "spec-sweep")


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    check: Callable[[object], tuple]
    known_defect: str | None = None


CliResult = namedtuple("CliResult", "code text")


class Raised:
    """What ``run`` raised, handed to ``check`` in place of a result."""

    def __init__(self, exc: BaseException):
        self.exc = exc

    def describe(self) -> str:
        return f"{type(self.exc).__name__}: {self.exc}"


def build(workload: str, seed: int) -> list[Job]:
    rng = random.Random(f"{workload}:{seed}")
    makers = {"sample-grid": _sample_grid, "network-map": _network_map,
              "spec-sweep": _spec_sweep}
    return makers[workload](rng)


# ----------------------------------------------------------------------
# shared helpers
# ----------------------------------------------------------------------

def _cli(argv: list[str]) -> Callable[[], CliResult]:
    def run():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
        return CliResult(code, out.getvalue())
    return run


def _raised(raw: Raised) -> tuple:
    return raw.describe().encode(), f"raised {raw.describe()}"


def _close(got: float, want: float, scale: float, rtol: float = 1e-9) -> bool:
    return abs(got - want) <= rtol * (1.0 + scale)


def _window_arg(window) -> str:
    return "--window=" + ",".join(repr(v) for v in window)


def _jitter(rng, base, amount: float) -> tuple:
    return tuple(round(v + rng.uniform(-amount, amount), 3) for v in base)


def _cusp_alpha(rng) -> float:
    return round(rng.uniform(0.95, 1.05), 4)


def _round_c(rng, kind: str) -> float:
    # clear of the 1/4 threshold so the node kind is unambiguous
    lo = 0.12 if kind == "crossing" else 0.37
    return round(rng.uniform(lo, lo + 0.01), 4)


def _draw_params(rng, gen: str, round_kind: str | None) -> dict:
    if gen == "cusp":
        return {"alpha": _cusp_alpha(rng)}
    if gen == "round":
        return {"c": _round_c(rng, round_kind)}
    return {}


def _param_args(params: dict) -> list[str]:
    return [a for k, v in params.items() for a in ("--param", f"{k}={v!r}")]


# ----------------------------------------------------------------------
# sample-grid: `trapnet sample` on 3-D and 2-D grids, CSV and JSON
# ----------------------------------------------------------------------

# (generator, quantity, dimensions, points per axis, format); the sizes are
# chosen so that every job costs a few hundred ms, which keeps the median
# and the tail from resting on the few samples of one outlying job shape
SAMPLE_SLOTS = [
    ("cusp", "upp", 3, 64, "json"),
    ("round", "p", 2, 256, "csv"),
    ("cusp", "upp", 3, 48, "csv"),
    ("round", "upp", 3, 48, "json"),
    ("cusp", "p", 2, 256, "csv"),
    ("cusp", "phi", 3, 48, "json"),
    ("round", "upp", 2, 256, "csv"),
    ("round", "phi", 3, 48, "json"),
    ("cusp", "upp", 2, 256, "csv"),
    ("cusp", "grad_norm", 3, 64, "json"),
    ("round", "grad_norm", 3, 48, "json"),
]
_SAMPLE_WINDOWS = {"cusp": (-0.5, 2.5, -3.0, 3.0, -1.0, 1.0),
                   "round": (-1.0, 1.0, -1.0, 1.0, -0.5, 0.5)}
SPOT_ROWS = 12


def _sample_grid(rng) -> list[Job]:
    jobs = []
    for idx, (gen, qty, ndim, res, fmt) in enumerate(SAMPLE_SLOTS):
        params = {"alpha": _cusp_alpha(rng)} if gen == "cusp" else \
            {"c": round(rng.uniform(0.1, 0.4), 4)}
        window = _jitter(rng, _SAMPLE_WINDOWS[gen][:2 * ndim], 0.1)
        counts = (res,) * ndim
        rows = sorted(rng.sample(range(res ** ndim), SPOT_ROWS))
        argv = ["sample", gen, *_param_args(params), "--quantity", qty,
                _window_arg(window), "--res", str(res), "--format", fmt]
        ref = reference.for_catalog(gen, params)
        jobs.append(Job(f"{idx:02d}:{gen}-{qty}-{res}^{ndim}-{fmt}", _cli(argv),
                        _sample_check(ref, qty, window, counts, fmt, rows)))
    return jobs


def _sample_check(ref, qty, window, counts, fmt, rows):
    ndim = len(counts)
    axes = [np.linspace(window[2 * a], window[2 * a + 1], counts[a]) for a in range(ndim)]
    header = "x,y,value" if ndim == 2 else "x,y,z,value"
    total = math.prod(counts)

    def check(raw):
        if isinstance(raw, Raised):
            return _raised(raw)
        code, text = raw
        data = text.encode()
        if code != 0:
            return data, f"exit code {code}"
        if any(tok in text for tok in ("nan", "inf", "NaN", "Infinity")):
            return data, "non-finite value in output"
        expected = [tuple(float(axes[a][i]) for a, i in
                          enumerate(np.unravel_index(r, counts))) for r in rows]
        if fmt == "csv":
            lines = text.split("\n")
            if lines[0] != header or len(lines) != total + 2 or lines[-1] != "":
                return data, "CSV header or row count is wrong"
            got = []
            for r in rows:
                vals = [float(v) for v in lines[r + 1].split(",")]
                if tuple(vals[:ndim]) != expected[len(got)]:
                    return data, f"row {r} has coordinates {vals[:ndim]}"
                got.append(vals[ndim])
        else:
            payload = json.loads(text)
            values = payload["values"]
            if (payload["counts"] != list(counts) or payload["quantity"] != qty
                    or len(values) != total):
                return data, "JSON counts, quantity or length is wrong"
            got = [values[r] for r in rows]
        want = []
        for pt in expected:
            x, y = pt[0], pt[1]
            z = pt[2] if ndim == 3 else 0.0
            want.append(float(reference.quantity(ref, qty, x, y, z)))
        scale = max(abs(w) for w in want)
        for r, g, w in zip(rows, got, want):
            if not _close(g, w, scale):
                return data, f"row {r}: {qty} is {g!r}, reference {w!r}"
        return data, None
    return check


# ----------------------------------------------------------------------
# network-map: the cusp_guide.py pipeline on cusp, cross and round
# ----------------------------------------------------------------------

# (generator, null-line resolution, Newton seed grid, node kind for round);
# every job costs a few hundred ms, as in sample-grid
NETWORK_SLOTS = [
    ("cusp", 400, 12, None),
    ("round", 300, 10, "crossing"),
    ("cross", 400, 16, None),
    ("cusp", 300, 16, None),
    ("round", 200, 12, "isolated"),
    ("cross", 400, 24, None),
    ("round", 400, 8, "crossing"),
    ("cusp", 400, 10, None),
    ("round", 300, 12, "isolated"),
]
_NETWORK_WINDOWS = {"cusp": (-0.5, 2.5, -3.0, 3.0),
                    "cross": (-1.0, 1.0, -1.0, 1.0),
                    "round": (-1.3, 1.3, -1.3, 1.3)}
NODE_TOL = 1e-6


def _network_map(rng) -> list[Job]:
    jobs = []
    for idx, (gen, res, seeds, kind) in enumerate(NETWORK_SLOTS):
        params = _draw_params(rng, gen, kind)
        # small draws: Newton's iteration count, and so the job's cost,
        # depends on the parameters and on where the seeds fall
        window = _jitter(rng, _NETWORK_WINDOWS[gen], 0.02)
        jobs.append(Job(f"{idx:02d}:{gen}-res{res}-seeds{seeds}",
                        _network_run(gen, params, window, res, seeds),
                        _network_check(reference.for_catalog(gen, params), window, res)))
    return jobs


def _network_run(gen, params, window, res, seeds):
    def run():
        generator = catalog(gen, params).compile()
        lines = analysis.null_lines(generator, window, res)
        cps = analysis.critical_points(generator, window, seeds)
        fld = extension.synthesize(generator)
        reports = [analysis.classify_node(generator, (cp.x, cp.y), field=fld)
                   for cp in cps if cp.is_node]
        return lines, cps, reports
    return run


def _network_check(ref, window, res):
    x0, x1, y0, y1 = window
    h = max(x1 - x0, y1 - y0) / (res - 1)
    # linear interpolation along a cell edge misses the root by at most
    # max|P''| h^2 / 8 in value
    bound = ref.second_bound(window) * h * h / 8.0 + 1e-10
    expected_nodes = ref.nodes(window)

    def check(raw):
        if isinstance(raw, Raised):
            return _raised(raw)
        lines, cps, reports = raw
        data = json.dumps({
            "polylines": [[pl.closed, pl.points] for pl in lines],
            "critical": [[cp.x, cp.y, cp.value, cp.grad_norm, cp.is_node] for cp in cps],
            "nodes": [[r.x, r.y, r.kind, r.angle, list(r.gradient),
                       [r.q2.xx, r.q2.xy, r.q2.yy], r.multipole_order] for r in reports],
        }, sort_keys=True).encode()
        if not lines:
            return data, "no null lines found"
        for pl in lines:
            for px, py in pl.points:
                if not (x0 <= px <= x1 and y0 <= py <= y1):
                    return data, f"vertex ({px}, {py}) lies outside the window"
                if abs(float(ref.p(px, py))) > bound:
                    return data, f"|P| = {abs(float(ref.p(px, py))):.3g} at vertex " \
                                 f"({px}, {py}) exceeds {bound:.3g}"
        if len(reports) != len(expected_nodes):
            return data, f"found {len(reports)} nodes, expected {len(expected_nodes)}"
        for ex, ey in expected_nodes:
            match = [r for r in reports if math.hypot(r.x - ex, r.y - ey) < NODE_TOL]
            if len(match) != 1:
                return data, f"node ({ex}, {ey}) found {len(match)} times"
            kind, angle, _ = reference.node_form(ref, ex, ey)
            rep = match[0]
            if rep.kind != kind:
                return data, f"node ({ex}, {ey}) is {rep.kind}, reference {kind}"
            if kind == "crossing" and not abs(rep.angle - angle) <= 1e-9:
                return data, f"node ({ex}, {ey}) angle {rep.angle}, reference {angle}"
            if isinstance(ref, reference.Cross) and not abs(rep.angle - math.pi / 2) <= 1e-12:
                return data, f"cross angle {rep.angle} is not pi/2"
        return data, None
    return check


# ----------------------------------------------------------------------
# spec-sweep: seeded expressions through compile, synthesize, evaluation
# ----------------------------------------------------------------------

# Expressions are small trees so that the benchmark can print them for the
# parser and evaluate them itself.  ("cos", m, n) is cos(pi*(m*x + n*y)),
# which lies on the lattice of periods (2, 2).

def _render(node) -> str:
    op = node[0]
    if op == "num":
        return repr(node[1])
    if op in ("x", "y"):
        return op
    if op in ("+", "-", "*"):
        return f"({_render(node[1])} {op} {_render(node[2])})"
    if op == "^":
        return f"{_render(node[1])}^{node[2]}"
    m, n = node[1], node[2]
    arg = f"{m}*x" if n == 0 else f"{m}*x {'+' if n > 0 else '-'} {abs(n)}*y"
    return f"{op}(pi*({arg}))"


def _value(node, x: float, y: float) -> float:
    op = node[0]
    if op == "num":
        return node[1]
    if op == "x":
        return x
    if op == "y":
        return y
    if op == "+":
        return _value(node[1], x, y) + _value(node[2], x, y)
    if op == "-":
        return _value(node[1], x, y) - _value(node[2], x, y)
    if op == "*":
        return _value(node[1], x, y) * _value(node[2], x, y)
    if op == "^":
        return _value(node[1], x, y) ** node[2]
    fn = math.cos if op == "cos" else math.sin
    return fn(math.pi * (node[1] * x + node[2] * y))


def _magnitude(node, x: float, y: float) -> float:
    """Bound on the sum of |terms| of the expanded expression at (x, y)."""
    op = node[0]
    if op == "num":
        return abs(node[1])
    if op == "x":
        return abs(x)
    if op == "y":
        return abs(y)
    if op in ("+", "-"):
        return _magnitude(node[1], x, y) + _magnitude(node[2], x, y)
    if op == "*":
        return _magnitude(node[1], x, y) * _magnitude(node[2], x, y)
    if op == "^":
        return _magnitude(node[1], x, y) ** node[2]
    return 1.0


def _coef(rng) -> tuple:
    return ("num", round(rng.uniform(0.5, 1.5), 3))


X, Y = ("x",), ("y",)


def _add(*terms):
    out = terms[0]
    for t in terms[1:]:
        out = ("+", out, t)
    return out


def _mul(a, b):
    return ("*", a, b)


def _poly_degree24(r):
    return ("^", _add(_mul(_coef(r), ("^", X, 2)), _mul(_coef(r), _mul(X, Y)),
                      _mul(_coef(r), ("^", Y, 2)), ("num", 1.0)), 12)


# (family, template); a template maps an rng to an expression tree
SPEC_TEMPLATES = [
    ("polynomial", "linear^12 * linear^6", lambda r: _mul(
        ("^", _add(_mul(_coef(r), X), _mul(_coef(r), Y), _coef(r)), 12),
        ("^", ("-", X, _mul(_coef(r), Y)), 6))),
    ("fourier", "(2 waves)^7", lambda r: (
        "^", _add(("cos", 1, 0), _mul(_coef(r), ("cos", 0, 1))), 7)),
    ("polynomial", "quadric^8 + c*bilinear^5", lambda r: _add(
        ("^", ("-", _add(("^", X, 2), _mul(_coef(r), ("^", Y, 2))), _coef(r)), 8),
        _mul(_coef(r), ("^", ("-", _mul(X, Y), _coef(r)), 5)))),
    ("fourier", "(3 waves)^5", lambda r: (
        "^", _add(("cos", 1, 0), _mul(_coef(r), ("sin", 0, 1)),
                  _mul(_coef(r), ("cos", 1, 1))), 5)),
    ("polynomial", "quadratic form^12", _poly_degree24),
    ("polynomial", "shifted products", lambda r: _mul(
        _mul(("^", ("-", X, _coef(r)), 4), ("^", _add(Y, _coef(r)), 4)),
        ("^", _add(_mul(X, Y), _coef(r)), 3))),
    ("fourier", "(2 waves)^6", lambda r: (
        "^", _add(("sin", 1, 0), _mul(_coef(r), ("cos", 1, -1))), 6)),
    ("polynomial", "cubic^6", lambda r: (
        "^", _add(("-", _mul(_coef(r), ("^", X, 3)), _mul(_coef(r), ("^", Y, 2))),
                  _coef(r)), 6)),
    ("fourier", "diff^4 * shifted sin^3 + cos", lambda r: _add(
        _mul(("^", ("-", ("cos", 1, 0), ("cos", 0, 1)), 4),
             ("^", _add(_coef(r), ("sin", 1, -1)), 3)),
        _mul(_coef(r), ("cos", 2, 0)))),
]
_SPEC_WINDOW = (-1.0, 1.0, -1.0, 1.0, -0.5, 0.5)
PERIODS = (2.0, 2.0)
GRID = 16
VALUE_POINTS = 6
ROUND_THRESHOLD = 0.25

# inputs that must be refused with a GeneratorError (CLI exit code 2)
MALFORMED = [
    ("polynomial", "(x + 1"),
    ("polynomial", "cos(pi*x) + y"),
    ("fourier", "x + cos(pi*y)"),
    ("fourier", "cos(0.7*x)"),
    ("polynomial", "x^2.5"),
    ("polynomial", "y + k*x"),
    ("cli", ["sample", "cusp", "--param", "alpha=abc", "--window=0,1,0,1"]),
    ("cli", ["nulllines", "cusp", "--window=0,1,0", "--res", "16"]),
]
MALFORMED_PER_CYCLE = 2


def _round_family(c):
    return catalog("round", {"c": c}).compile()


def _spec_sweep(rng) -> list[Job]:
    jobs = []
    for idx, (family, label, template) in enumerate(SPEC_TEMPLATES):
        tree = template(rng)
        window = _jitter(rng, _SPEC_WINDOW, 0.1)
        bracket = (round(rng.uniform(0.02, 0.2), 4), round(rng.uniform(0.3, 0.48), 4))
        points = [(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
                  for _ in range(VALUE_POINTS)]
        jobs.append(Job(f"{idx:02d}:{family}-{label}",
                        _spec_run(family, _render(tree), window, bracket),
                        _spec_check(tree, points)))
    jobs.append(_round_verify_job(rng, len(jobs)))
    for choice in rng.sample(MALFORMED, MALFORMED_PER_CYCLE):
        jobs.append(_malformed_job(len(jobs), *choice))
    jobs.extend(_robustness_probes(rng, len(jobs)))
    return jobs


def _spec_run(family, text, window, bracket):
    periods = PERIODS if family == "fourier" else None
    axes = [np.linspace(window[2 * a], window[2 * a + 1], GRID) for a in range(3)]
    gx, gy, gz = np.meshgrid(*axes, indexing="ij")

    def run():
        generator = GeneratorSpec(family, text, {}, periods).compile()
        fld = extension.synthesize(generator)
        upp = np.asarray(fld.pseudopotential(gx, gy, gz), dtype=float)
        threshold = analysis.threshold_scan(_round_family, (1.0, 0.0), bracket)
        return generator, upp, threshold
    return run


def _spec_check(tree, points):
    def check(raw):
        if isinstance(raw, Raised):
            return _raised(raw)
        generator, upp, threshold = raw
        data = json.dumps({"generator": repr(generator), "upp": upp.ravel().tolist(),
                           "threshold": threshold}).encode()
        for x, y in points:
            got = float(generator.eval(x, y))
            want = _value(tree, x, y)
            if not _close(got, want, _magnitude(tree, x, y)):
                return data, f"compiled value {got!r} at ({x}, {y}), direct {want!r}"
        if upp.shape != (GRID,) * 3 or not np.all(np.isfinite(upp)):
            return data, "pseudopotential grid is not finite"
        if not abs(threshold - ROUND_THRESHOLD) <= 2e-6:
            return data, f"round threshold {threshold}, expected {ROUND_THRESHOLD}"
        return data, None
    return check


def _expect_refusal(raw) -> tuple:
    """Pass when the input was refused with a typed error (exit code 2)."""
    if isinstance(raw, Raised):
        data = raw.describe().encode()
        if isinstance(raw.exc, GeneratorError):
            return data, None
        return data, f"raised untyped {raw.describe()}"
    code, text = raw
    data = f"exit {code}\n{text}".encode()
    return data, None if code == 2 else f"exit code {code}, expected 2"


def _malformed_job(idx, family, text) -> Job:
    if family == "cli":
        return Job(f"{idx:02d}:malformed-cli", _cli(text), _expect_refusal)
    periods = PERIODS if family == "fourier" else None

    def run():
        return GeneratorSpec(family, text, {}, periods).compile()
    return Job(f"{idx:02d}:malformed-{family}", run, _expect_refusal)


def _verify_check(samples):
    """Pass when `trapnet verify` exits 0 with a pass verdict on every sample."""
    def check(raw):
        if isinstance(raw, Raised):
            return _raised(raw)
        code, text = raw
        data = text.encode()
        if code != 0:
            return data, f"exit code {code}"
        payload = json.loads(text)
        if payload["pass"] is not True or payload["samples"] != samples:
            return data, f"verify verdict {payload['pass']} on {payload['samples']} samples"
        return data, None
    return check


NEST_DEPTH = 5000


VERIFY_NEAR_LINE = ("verify's gradient check divides by the gradient, which vanishes "
                    "near a null line: a sample landing there fails the verdict "
                    "(cusp at 500 samples: about 1 seed in 20)")
# a `trapnet verify cusp --samples 500` seed whose sample set shows that defect
NEAR_LINE_SEED = 4


def _round_verify_job(rng, idx) -> Job:
    """The oracle on round, the field whose scalar evaluation costs most."""
    argv = ["verify", "round", "--param", f"c={_round_c(rng, 'crossing')!r}",
            "--samples", "200", "--seed", str(rng.randrange(1 << 30))]
    return Job(f"{idx:02d}:verify-round-200", _cli(argv), _verify_check(200),
               known_defect=VERIFY_NEAR_LINE)


def _robustness_probes(rng, start) -> list[Job]:
    """The robustness holes of ROADMAP item 4, as expected-refusal jobs, and
    the oracle's two false verdicts."""
    deep = "(" * NEST_DEPTH + "x" + ")" * NEST_DEPTH

    def nested():
        return GeneratorSpec("polynomial", deep).compile()

    nan_window = ["nulllines", "cusp", "--window=nan,1,-1,1", "--res",
                  str(rng.choice((32, 48, 64)))]
    z0 = round(299.0 + rng.uniform(0.0, 0.5), 3)
    far_z = ["sample", "round", _window_arg((-1.0, 1.0, -1.0, 1.0, z0, z0 + 2.0)),
             "--res", "4"]
    verify_flat = ["verify", rng.choice(("cross", "linear")), "--samples", "200",
                   "--seed", str(rng.randrange(1 << 30))]
    near_line = ["verify", "cusp", "--samples", "500", "--seed", str(NEAR_LINE_SEED)]
    return [
        Job(f"{start:02d}:probe-deep-nesting", nested, _expect_refusal,
            known_defect="5000-deep nesting raises an untyped RecursionError"),
        Job(f"{start + 1:02d}:probe-nan-window", _cli(nan_window), _expect_refusal,
            known_defect="a nan window bound is accepted and polylines are written"),
        # cosh(k z) overflows near z = 300, so no finite output is right
        Job(f"{start + 2:02d}:probe-far-z-window", _cli(far_z), _expect_refusal,
            known_defect="sample round at z near 300 writes nan rows"),
        Job(f"{start + 3:02d}:probe-verify-flat", _cli(verify_flat), _verify_check(200),
            known_defect="verify fails exactly harmonic fields whose second derivatives "
                         "all vanish (cross, linear): the Laplace residual is divided by "
                         "round-off"),
        Job(f"{start + 4:02d}:probe-verify-near-line", _cli(near_line), _verify_check(500),
            known_defect=VERIFY_NEAR_LINE),
    ]
