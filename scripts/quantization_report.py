#!/usr/bin/env python3
"""Quantize a smooth matrix-valued field at several accuracy targets.

Builds a smooth field of 2x2 SPD matrices on a square grid, approximates
it by finitely many values at each requested eps, and prints one row per
run: the target, the measured error, the number of distinct values, and
the per-step error budget usage.  Optionally dumps the rows as JSON.
"""

from __future__ import annotations

import argparse
import json

import numpy as np

from metriclp import Domain, MeasurableMap, fields, make_space
from metriclp.quantize import almost_simple_approx


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--grid", type=int, default=64, help="cells per axis")
    ap.add_argument("--space", default="spd2")
    ap.add_argument("--p", type=float, default=2.0)
    ap.add_argument("--eps", type=float, nargs="+", default=[0.5, 0.2, 0.1, 0.05, 0.02])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--json-out", help="write the rows to this JSON file")
    args = ap.parse_args()

    space = make_space(args.space)
    domain = Domain.grid(2, args.grid)
    rng = np.random.default_rng(args.seed)
    f = fields.smooth_field(domain, space, rng)
    base = MeasurableMap.constant(domain, space, f.values[0])

    rows = []
    print(f"{args.space} field on {args.grid}x{args.grid}, p={args.p:g}")
    print(f"{'eps':>8} {'error':>12} {'values':>8}  step errors (each must stay < eps/3)")
    for eps in args.eps:
        g, rep = almost_simple_approx(f, base, args.p, eps)
        steps = ", ".join(f"{k}={v:.3e}" for k, v in rep.step_breakdown.items())
        print(f"{eps:8.3f} {rep.achieved_error:12.6f} {rep.range_size:8d}  {steps}")
        rows.append(
            {
                "eps": eps,
                "achieved_error": rep.achieved_error,
                "range_size": rep.range_size,
                "steps": rep.step_breakdown,
            }
        )
    if args.json_out:
        with open(args.json_out, "w") as fh:
            json.dump(rows, fh, indent=1)
        print(f"wrote {args.json_out}")


if __name__ == "__main__":
    main()
