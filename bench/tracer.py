"""Per-layer spans recorded from outside trapnet.

``install`` replaces the public names that trapnet's modules call across a
layer boundary (``cli.main``, ``GeneratorSpec.compile``, ``Field.derivative``,
``analysis.null_lines`` and so on) with wrappers that time each call.  The
package source is not changed: the wrappers are set on the loaded modules
and classes, in every module namespace that imported the name.

A span has a name, a start, an end, a parent and a job.  The span name's
prefix is its layer.  A span's self time is its duration minus the time
covered by its child spans, so the self times of all layers add up to the
wall time of the jobs.  Coarse spans (one per call of a pipeline stage) are
kept in memory and written out at exit; calls made thousands of times per
job (field and series evaluation, Fourier derivatives) are summed in place,
and ``PlanarJet.deriv`` and ``Poly2.eval`` are only counted: a scalar call
of either costs about as much as a timer around it, so their time is left
in the caller's self time.
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np

LAYERS = ("cli", "generators", "algebra", "extension", "analysis", "verify", "bench")


class Bucket:
    """Sums over all jobs of one slot."""

    def __init__(self):
        self.jobs = 0
        self.wall = 0.0
        self.incl = defaultdict(float)   # name -> seconds inside spans of that name
        self.self_s = defaultdict(float)  # name -> self seconds
        self.counts = defaultdict(float)


class Tracer:
    def __init__(self):
        self.frames = []   # open spans: [child seconds, recorded span index or -1]
        self.spans = []    # recorded spans: [name, start, end, parent index, job]
        self.active = defaultdict(int)
        self.buckets: dict[str, Bucket] = {}
        self.bucket = Bucket()
        self.job = -1
        self.patches = []  # (namespace, attribute, original, wrapper)

    def enable(self, on: bool) -> None:
        """Put the wrappers in place, or the original functions back."""
        for namespace, attr, original, wrapper in self.patches:
            setattr(namespace, attr, wrapper if on else original)

    def wrap(self, name, fn, record=False, after=None):
        """Time fn as a span; a call made inside a span of the same name is
        part of that span and is not timed again."""
        frames, active, perf = self.frames, self.active, time.perf_counter

        def traced(*args, **kwargs):
            if active[name]:
                return fn(*args, **kwargs)
            active[name] = 1
            index = -1
            if record:
                index = len(self.spans)
                parent = next((f[1] for f in reversed(frames) if f[1] >= 0), -1)
                self.spans.append([name, 0.0, 0.0, parent, self.job])
            frame = [0.0, index]
            frames.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                frames.pop()
                active[name] = 0
                dur = end - start
                bucket = self.bucket
                bucket.incl[name] += dur
                bucket.self_s[name] += dur - frame[0]
                if frames:
                    frames[-1][0] += dur
                if record:
                    self.spans[index][1:3] = start, end
            if after is not None:
                after(self, args, result, dur)
            return result
        traced.__wrapped__ = fn
        return traced

    def count(self, name, fn):
        def counted(*args, **kwargs):
            self.bucket.counts[name] += 1
            return fn(*args, **kwargs)
        counted.__wrapped__ = fn
        return counted

    def run_job(self, job_index: int, slot: str, fn):
        """Run one job inside a root span and return its result."""
        self.job = job_index
        self.bucket = self.buckets.setdefault(slot, Bucket())
        root = self.wrap("bench.job", fn, record=True)
        start = time.perf_counter()
        try:
            return root()
        finally:
            self.bucket.jobs += 1
            self.bucket.wall += time.perf_counter() - start


# ----------------------------------------------------------------------
# what to wrap
# ----------------------------------------------------------------------

def _after_compile(tr, args, result, dur):
    if hasattr(result, "modes"):
        tr.bucket.counts["generators.fourier_modes"] += len(result.modes)
    else:
        tr.bucket.counts["algebra.poly_terms"] += len(result.terms)


def _after_odd_extend(tr, args, result, dur):
    tr.bucket.counts["algebra.series_layers"] += len(result.layers)


def _after_null_lines(tr, args, result, dur):
    res = args[2]
    tr.bucket.counts["analysis.grid_cells"] += (res - 1) ** 2
    tr.bucket.counts["analysis.polyline_vertices"] += sum(len(pl.points) for pl in result)


def _after_chain(tr, args, result, dur):
    tr.bucket.counts["analysis.segments"] += len(args[0])


def _after_critical(tr, args, result, dur):
    res = args[2] if len(args) > 2 else 48
    tr.bucket.counts["analysis.seed_grid"] += res * res
    tr.bucket.counts["analysis.critical_found"] += len(result)


def _after_newton(tr, args, result, dur):
    tr.bucket.counts["analysis.newton_seeds"] += 1
    tr.bucket.counts["analysis.newton_converged"] += result is not None


def _after_run_checks(tr, args, result, dur):
    tr.bucket.counts["verify.runs"] += 1
    tr.bucket.counts["verify.samples"] += result.samples
    tr.bucket.counts["verify.passed"] += bool(result.passed)


def _eval_after(x_index, extra=None):
    def after(tr, args, result, dur):
        if extra is not None:
            extra(tr, dur)
        x = args[x_index]
        counts = tr.bucket.counts
        if isinstance(x, np.ndarray) and x.size > 1:
            counts["extension.bulk_s"] += dur
            counts["extension.bulk_points"] += x.size
        else:
            counts["extension.scalar_s"] += dur
            counts["extension.scalar_eval_calls"] += 1
    return after


def _deriv_in_critical(tr, args, result, dur):
    if tr.active["analysis.critical_points"]:
        tr.bucket.counts["generators.deriv_in_critical_s"] += dur


def _verify_value(tr, dur):
    if tr.active["verify.run_checks"]:
        tr.bucket.counts["verify.value_calls"] += 1


def install(tracer: Tracer) -> None:
    import trapnet
    from trapnet import algebra, analysis, cli, extension, generators, verify

    modules = (trapnet, cli, analysis, extension, generators, verify, algebra)

    def function(module, attr, name, **kw):
        fn = getattr(module, attr)
        wrapped = tracer.wrap(name, fn, **kw)
        for mod in modules:
            for key in [k for k, v in vars(mod).items() if v is fn]:
                tracer.patches.append((mod, key, fn, wrapped))

    def method(cls, attr, name, **kw):
        fn = cls.__dict__[attr]
        tracer.patches.append((cls, attr, fn, tracer.wrap(name, fn, **kw)))

    function(cli, "main", "cli.main", record=True)
    for attr in ("parse_polynomial", "parse_fourier"):
        function(generators, attr, "generators.compile", record=True, after=_after_compile)
    method(generators.GeneratorSpec, "compile", "generators.compile", record=True,
           after=_after_compile)
    method(generators.FourierGen, "deriv", "generators.deriv", after=_deriv_in_critical)
    method(generators.FourierGen, "eval", "generators.eval")
    method(algebra.ZSeries, "eval", "algebra.eval")
    for attr in ("__mul__", "__rmul__", "__pow__", "laplacian", "taylor_shift"):
        method(algebra.Poly2, attr, "algebra.arith")
    function(extension, "synthesize", "extension.synthesize", record=True)
    function(extension, "odd_extend", "extension.odd_extend", after=_after_odd_extend)
    function(extension, "odd_extend_fourier", "extension.odd_extend")
    field = extension.Field
    method(field, "derivative", "extension.eval", after=_eval_after(4))
    method(field, "value", "extension.eval", after=_eval_after(1, _verify_value))
    for attr in ("gradient", "hessian", "third", "pseudopotential",
                 "pseudopotential_gradient"):
        method(field, attr, "extension.eval", after=_eval_after(1))
    method(field, "pseudopotential_hessian", "extension.eval", after=_eval_after(1))
    # a scalar call of either costs about as much as a timer around it
    for cls, attr, name in ((analysis.PlanarJet, "deriv", "analysis.planar_jet_calls"),
                            (algebra.Poly2, "eval", "algebra.poly_eval_calls")):
        fn = cls.__dict__[attr]
        tracer.patches.append((cls, attr, fn, tracer.count(name, fn)))
    function(analysis, "null_lines", "analysis.null_lines", record=True,
             after=_after_null_lines)
    function(analysis, "_chain_segments", "analysis.chain", record=True, after=_after_chain)
    function(analysis, "critical_points", "analysis.critical_points", record=True,
             after=_after_critical)
    function(analysis, "_refine_newton", "analysis.newton", after=_after_newton)
    function(analysis, "quadratic_part", "analysis.quadratic_part")
    function(analysis, "classify_node", "analysis.classify_node", record=True)
    function(analysis, "multipole_order", "analysis.multipole", record=True)
    function(analysis, "threshold_scan", "analysis.threshold_scan", record=True)
    function(verify, "run_checks", "verify.run_checks", record=True,
             after=_after_run_checks)
    tracer.enable(True)


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------

# metric -> inclusive span time, in ms per job
_INCLUSIVE = {
    "generators.compile_ms": "generators.compile",
    "extension.synthesize_ms": "extension.synthesize",
    "generators.deriv_ms": "generators.deriv",
    "algebra.eval_ms": "algebra.eval",
    "analysis.null_lines_ms": "analysis.null_lines",
    "analysis.chain_ms": "analysis.chain",
    "analysis.critical_points_ms": "analysis.critical_points",
    "analysis.newton_ms": "analysis.newton",
    "analysis.classify_node_ms": "analysis.classify_node",
    "analysis.multipole_ms": "analysis.multipole",
    "analysis.threshold_scan_ms": "analysis.threshold_scan",
    "verify.run_checks_ms": "verify.run_checks",
}
# metric -> counter, per job (a name ending in _ms holds seconds)
_COUNTS = {
    "generators.fourier_modes": "generators.fourier_modes",
    "algebra.poly_terms": "algebra.poly_terms",
    "algebra.series_layers": "algebra.series_layers",
    "extension.bulk_eval_ms": "extension.bulk_s",
    "extension.bulk_points": "extension.bulk_points",
    "extension.scalar_eval_ms": "extension.scalar_s",
    "extension.scalar_eval_calls": "extension.scalar_eval_calls",
    "analysis.planar_jet_calls": "analysis.planar_jet_calls",
    "algebra.poly_eval_calls": "algebra.poly_eval_calls",
    "analysis.grid_cells": "analysis.grid_cells",
    "analysis.polyline_vertices": "analysis.polyline_vertices",
    "analysis.newton_seeds": "analysis.newton_seeds",
    "verify.samples": "verify.samples",
    "verify.value_calls": "verify.value_calls",
    "cli.output_bytes": "cli.output_bytes",
}
# metric -> (numerator counter, denominator counter)
_RATIOS = {
    "analysis.crossed_cell_ratio": ("analysis.segments", "analysis.grid_cells"),
    "analysis.newton_converged_ratio": ("analysis.newton_converged", "analysis.newton_seeds"),
    "analysis.critical_found_ratio": ("analysis.critical_found", "analysis.seed_grid"),
    "verify.pass_ratio": ("verify.passed", "verify.runs"),
}


def total(buckets) -> Bucket:
    out = Bucket()
    for b in buckets:
        out.jobs += b.jobs
        out.wall += b.wall
        for src, dst in ((b.incl, out.incl), (b.self_s, out.self_s), (b.counts, out.counts)):
            for k, v in src.items():
                dst[k] += v
    return out


def layer_self_ms(b: Bucket) -> dict[str, float]:
    """Self time per layer, in ms per job."""
    out = dict.fromkeys(LAYERS, 0.0)
    for name, seconds in b.self_s.items():
        out[name.split(".", 1)[0]] += seconds
    return {layer: 1000.0 * s / max(b.jobs, 1) for layer, s in out.items()}


def metrics(b: Bucket) -> dict[str, float]:
    """Every per-layer metric; times and counts are means per job."""
    jobs = max(b.jobs, 1)
    out = {}
    for metric, name in _INCLUSIVE.items():
        out[metric] = 1000.0 * b.incl.get(name, 0.0) / jobs
    for metric, name in _COUNTS.items():
        scale = 1000.0 if metric.endswith("_ms") else 1.0
        out[metric] = scale * b.counts.get(name, 0.0) / jobs
    for metric, (num, den) in _RATIOS.items():
        d = b.counts.get(den, 0.0)
        out[metric] = b.counts.get(num, 0.0) / d if d else 0.0
    for layer, ms in layer_self_ms(b).items():
        out[f"{layer}.self_ms"] = ms
    return out
