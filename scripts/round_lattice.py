#!/usr/bin/env python3
"""Square-lattice trap network: connectivity threshold and node structure.

Sweeps the rounding parameter of the periodic generator, classifies the
edge-midpoint node at each value, locates the crossing/isolated transition
by bisection, and confirms the hexapole structure (no quadratic term, no
first-order confinement) at the node.

Outputs: round_scan.json and a printed summary.
"""

import argparse
import json
from pathlib import Path

import numpy as np

from trapnet import (VerifyConfig, catalog, classify_node, multipole_order,
                     run_checks, synthesize, threshold_scan)

NODE = (1.0, 0.0)


def family(c):
    return catalog("round", {"c": c}).compile()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--c-values", default="0.0,0.1,0.2,0.25,0.3,0.4",
                    help="comma-separated rounding parameters to classify")
    ap.add_argument("--out-dir", default="out", help="output directory")
    args = ap.parse_args()

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    records = []
    print("  c      kind        angle [rad]  multipole")
    for c in (float(v) for v in args.c_values.split(",")):
        rep = classify_node(family(c), NODE)
        angle = "-" if rep.angle is None else f"{rep.angle:.6f}"
        print(f"  {c:<7g}{rep.kind:<12}{angle:<13}{rep.multipole_order}")
        records.append({"c": c, "kind": rep.kind, "angle": rep.angle,
                        "multipole_order": rep.multipole_order,
                        "eigenvalues": [float(v) for v in rep.q2.eigenvalues()]})

    threshold = threshold_scan(family, NODE, (0.0, 0.5))
    print(f"\nconnectivity threshold: c = {threshold:.6f}")

    gen = family(threshold)
    fld = synthesize(gen)
    hess = fld.pseudopotential_hessian(*NODE, 0.0)
    print(f"node multipole order at threshold: {multipole_order(fld, (*NODE, 0.0))}")
    print(f"max |pseudopotential Hessian| at node: {np.abs(hess).max():.2e}")

    report = run_checks(fld, gen, VerifyConfig(samples=300))
    print(f"oracle checks: pass={report.passed}")

    (out / "round_scan.json").write_text(json.dumps({
        "node": list(NODE), "threshold": threshold, "classifications": records,
        "verify": report.to_dict(),
    }, indent=2))
    print(f"wrote {out / 'round_scan.json'}")


if __name__ == "__main__":
    main()
