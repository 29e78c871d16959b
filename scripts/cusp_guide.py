#!/usr/bin/env python3
"""Cusp guide experiment: a field-free guide line that is not smooth.

Builds the odd continuation of y^2 - alpha^2*x^3, cross-checks it with the
finite-difference oracle, extracts the null line, classifies the cusp node,
and tabulates how the transverse confinement decays on the approach to the
tip (the gradient vanishes there, so the leading-order stiffness drops to
zero; the script reports the measured rate without asserting one).

Outputs: cusp_nulllines.json and cusp_upp.csv, each written by the CLI
(``trapnet nulllines`` and ``trapnet sample --quantity upp --format csv``),
and a printed summary.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from trapnet import (VerifyConfig, catalog, classify_node, cli, critical_points, run_checks,
                     synthesize, transverse_confinement)
from trapnet.analysis import PlanarJet


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--alpha", type=float, default=1.0, help="cusp steepness")
    ap.add_argument("--res", type=int, default=400, help="null-line grid resolution")
    ap.add_argument("--out-dir", default="out", help="output directory")
    args = ap.parse_args()

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    spec = catalog("cusp", {"alpha": args.alpha})
    gen = spec.compile()
    fld = synthesize(gen)
    window = (-0.5, 2.5, -3.0, 3.0)

    report = run_checks(fld, gen, VerifyConfig(samples=300))
    print(f"oracle checks: pass={report.passed}  "
          f"grad={report.max_gradient_error:.2e}  "
          f"laplace={report.max_laplace_residual:.2e}")

    bounds = ",".join(map(repr, window))
    common = ["cusp", f"--param=alpha={args.alpha!r}", f"--window={bounds}"]
    for argv in (["nulllines", *common, "--res", str(args.res),
                  "--out", str(out / "cusp_nulllines.json")],
                 ["sample", *common, "--quantity", "upp", "--res", "101", "--format", "csv",
                  "--out", str(out / "cusp_upp.csv")]):
        code = cli.main(argv)
        if code:
            sys.exit(code)
    lines = json.loads((out / "cusp_nulllines.json").read_text())["polylines"]
    print(f"null lines: {len(lines)} polyline(s), "
          f"{sum(len(pl['points']) for pl in lines)} vertices")

    nodes = [cp for cp in critical_points(gen, window, 32) if cp.is_node]
    for cp in nodes:
        rep = classify_node(gen, (cp.x, cp.y), field=fld)
        print(f"node at ({cp.x:+.2e}, {cp.y:+.2e}): {rep.kind}, "
              f"multipole order {rep.multipole_order}")

    # confinement decay along the approach: both transverse stiffnesses equal
    # 2*kappa*|grad P|^2, and |grad P| -> 0 as t -> 0 at the tip
    jet = PlanarJet(gen)
    print("\n  t      |grad P|     stiffness (normal, z)")
    for t in (1.0, 0.5, 0.25, 0.125, 0.0625):
        point = (t**2, args.alpha * t**3)
        lam_n, lam_z = transverse_confinement(fld, gen, point)
        gnorm = float(np.linalg.norm(jet.grad(*point)))
        print(f"  {t:<7g}{gnorm:<13.4e}({lam_n:.4e}, {lam_z:.4e})")

    print(f"\nwrote {out / 'cusp_nulllines.json'} and {out / 'cusp_upp.csv'}")


if __name__ == "__main__":
    main()
