"""Command-line interface.

Subcommands::

    sample     evaluate a field quantity on a grid (CSV or JSON)
    nulllines  extract the guide network as polylines (JSON)
    analyze    classify a point of the network (node or line report, JSON)
    verify     run the finite-difference oracle battery (JSON)
    catalog    list the built-in generators

Exit codes: 0 success, 2 generator/spec error, 3 I/O error, 4 analysis
precondition failure.  Identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys

import numpy as np

from .analysis import (AnalysisError, PlanarJet, classify_node, grid_axes, null_lines,
                       transverse_confinement)
from .extension import TrapParams, synthesize
from .generators import GeneratorError, catalog, catalog_names, load_spec
from .verify import VerifyConfig, run_checks

EXIT_OK = 0
EXIT_SPEC = 2
EXIT_IO = 3
EXIT_ANALYSIS = 4

QUANTITIES = ("phi", "upp", "grad_norm", "p")


def _parse_floats(text: str, counts: tuple[int, ...], what: str) -> tuple:
    try:
        values = tuple(float(v) for v in text.split(","))
    except ValueError:
        raise GeneratorError(f"cannot parse {what} {text!r}") from None
    if len(values) not in counts:
        raise GeneratorError(
            f"{what} needs {' or '.join(map(str, counts))} comma-separated values")
    return values


def _parse_counts(text: str, counts: tuple[int, ...], what: str) -> tuple[int, ...]:
    values = _parse_floats(text, counts, what)
    if not all(v.is_integer() for v in values):
        raise GeneratorError(f"{what} needs whole numbers, got {text!r}")
    return tuple(int(v) for v in values)


def _parse_params(items) -> dict:
    out = {}
    for item in items or []:
        name, sep, value = item.partition("=")
        if not sep or not name:
            raise GeneratorError(f"--param expects name=value, got {item!r}")
        try:
            out[name] = float(value)
        except ValueError:
            raise GeneratorError(f"parameter {name!r} has non-numeric value {value!r}") from None
    return out


def _generator(args):
    if os.path.exists(args.spec):
        spec = load_spec(args.spec)
    elif args.spec in catalog_names():
        spec = catalog(args.spec)
    else:
        raise GeneratorError(f"{args.spec!r} is neither a spec file nor a built-in generator")
    return spec.with_params(_parse_params(args.param)).compile()


def _trap_params(args) -> TrapParams:
    return TrapParams(charge=args.charge, mass=args.mass, omega=args.omega)


def _write_text(text: str, out_path: str | None):
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w") as fh:
            fh.write(text)


def _json_dump(obj) -> str:
    try:
        return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError:
        raise ValueError("the result holds a value that is not finite: an input is "
                         "out of float range") from None


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def cmd_sample(args) -> int:
    generator = _generator(args)
    window = _parse_floats(args.window, (4, 6), "--window")
    res = _parse_counts(args.res, (1, 2, 3), "--res")
    ndim = len(window) // 2
    counts = res * ndim if len(res) == 1 else res
    if len(counts) != ndim:
        raise GeneratorError(f"--res gives {len(counts)} counts for a {ndim}-D window")
    axes = grid_axes(window, counts)
    if args.quantity == "p" and ndim == 3:
        raise GeneratorError("quantity 'p' is planar; use a 4-value window")

    coords = np.meshgrid(*axes, indexing="ij")
    x, y = coords[0], coords[1]
    z = coords[2] if ndim == 3 else np.zeros_like(x)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, with no warnings
        if args.quantity == "p":
            data = PlanarJet(generator).value(x, y)
        else:
            fld = synthesize(generator, _trap_params(args))
            if args.quantity == "phi":
                data = fld.value(x, y, z)
            elif args.quantity == "upp":
                data = fld.pseudopotential(x, y, z)
            else:
                data = np.sqrt(sum(c ** 2 for c in fld.gradient(x, y, z)))
    data = np.broadcast_to(np.asarray(data, dtype=float), x.shape)
    if not np.isfinite(data).all():
        raise ValueError(f"{args.quantity} is not finite on this grid: the window is out of range")
    values = data.ravel().tolist()

    if args.format == "json":
        payload = {
            "quantity": args.quantity,
            "window": list(window),
            "counts": list(counts),
            "order": "x-major" + ("" if ndim == 2 else ", z fastest"),
            "values": values,
        }
        _write_text(_json_dump(payload), args.out)
    else:
        # product() walks the axes in the same C order as ravel()
        points = itertools.product(*(a.tolist() for a in axes))
        rows = (",".join(map(repr, (*point, v))) for point, v in zip(points, values))
        header = "x,y,value" if ndim == 2 else "x,y,z,value"
        _write_text("\n".join([header, *rows]) + "\n", args.out)
    return EXIT_OK


def cmd_nulllines(args) -> int:
    generator = _generator(args)
    window = _parse_floats(args.window, (4,), "--window")
    (res,) = _parse_counts(args.res, (1,), "--res")
    lines = null_lines(generator, window, res)
    payload = {
        "window": list(window),
        "resolution": res,
        "polylines": [
            {"closed": pl.closed, "points": [[px, py] for px, py in pl.points]}
            for pl in lines
        ],
    }
    _write_text(_json_dump(payload), args.out)
    return EXIT_OK


def cmd_analyze(args) -> int:
    generator = _generator(args)
    x, y = _parse_floats(args.point, (2,), "--point")
    fld = synthesize(generator, _trap_params(args))
    # where P or its derivatives overflow, the point is refused as off the network
    # (exit 4) or its report as not finite (exit 2), with no numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            report = classify_node(generator, (x, y), field=fld)
        except AnalysisError:
            # NotALinePointError propagates to the exit-code handler (code 4)
            lam_n, lam_z = transverse_confinement(fld, generator, (x, y))
            jet = PlanarJet(generator)
            grad = jet.grad(x, y)
            grad_sq = float(grad @ grad)
            payload = {
                "point": [x, y],
                "kind": "line",
                "lambda_normal": lam_n,
                "lambda_z": lam_z,
                "grad_norm": float(np.sqrt(grad_sq)),
                "expected_curvature": 2.0 * fld.kappa * grad_sq,
            }
        else:
            q2 = report.q2
            payload = {
                "point": [report.x, report.y],
                "kind": report.kind,
                "angle": report.angle,
                "p_value": report.value,
                "gradient": list(report.gradient),
                "q2": [[q2.xx, q2.xy], [q2.xy, q2.yy]],
                "eigenvalues": [float(v) for v in q2.eigenvalues()],
                "multipole_order": report.multipole_order,
            }
    _write_text(_json_dump(payload), args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    generator = _generator(args)
    fld = synthesize(generator, _trap_params(args))
    window = _parse_floats(args.window, (6,), "--window") if args.window else \
        VerifyConfig().window
    config = VerifyConfig(samples=args.samples, seed=args.seed, h=args.h, window=window)
    report = run_checks(fld, generator, config)
    _write_text(_json_dump(report.to_dict()), args.out)
    return EXIT_OK


def cmd_catalog(args) -> int:
    entries = {name: catalog(name).to_dict() for name in catalog_names()}
    if args.format == "json":
        _write_text(_json_dump(entries), args.out)
    else:
        lines = []
        for name, entry in entries.items():
            params = ", ".join(f"{k}={v:g}" for k, v in sorted(entry["params"].items()))
            suffix = f" [{params}]" if params else ""
            periods = entry.get("periods")
            if periods:
                suffix += f" periods=({periods[0]:g}, {periods[1]:g})"
            lines.append(f"{name}: {entry['kind']}  {entry['expr']}{suffix}")
        _write_text("\n".join(lines) + "\n", args.out)
    return EXIT_OK


# ----------------------------------------------------------------------
# argument parsing and dispatch
# ----------------------------------------------------------------------

def _add_generator_args(sub):
    sub.add_argument("spec", help="generator spec file (JSON) or built-in name")
    sub.add_argument("--param", action="append", metavar="NAME=VALUE",
                     help="override a generator parameter (repeatable)")
    sub.add_argument("--out", default=None, help="output path (default: stdout)")


def _add_trap_args(sub):
    sub.add_argument("--charge", type=float, default=None, help="charge [C]")
    sub.add_argument("--mass", type=float, default=None, help="mass [kg]")
    sub.add_argument("--omega", type=float, default=None,
                     help="RF angular frequency [rad/s]")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trapnet",
        description="Synthesize and analyze field-free RF guide networks.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("sample", help="evaluate a quantity on a grid")
    _add_generator_args(p)
    _add_trap_args(p)
    p.add_argument("--quantity", choices=QUANTITIES, default="upp")
    p.add_argument("--window", required=True, metavar="x0,x1,y0,y1[,z0,z1]")
    p.add_argument("--res", default="64", metavar="N[,N,N]")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_sample)

    p = subs.add_parser("nulllines", help="extract the guide network")
    _add_generator_args(p)
    p.add_argument("--window", required=True, metavar="x0,x1,y0,y1")
    p.add_argument("--res", default="256", metavar="N")
    p.set_defaults(func=cmd_nulllines)

    p = subs.add_parser("analyze", help="classify a network point")
    _add_generator_args(p)
    _add_trap_args(p)
    p.add_argument("--point", required=True, metavar="x,y")
    p.set_defaults(func=cmd_analyze)

    p = subs.add_parser("verify", help="finite-difference oracle checks")
    _add_generator_args(p)
    _add_trap_args(p)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--h", type=float, default=1e-4, help="stencil step")
    p.add_argument("--window", default=None, metavar="x0,x1,y0,y1,z0,z1")
    p.set_defaults(func=cmd_verify)

    p = subs.add_parser("catalog", help="list built-in generators")
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_catalog)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except AnalysisError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ANALYSIS
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:  # GeneratorError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SPEC


def run():
    sys.exit(main())
