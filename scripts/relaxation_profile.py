#!/usr/bin/env python3
"""Relax a two-plateau step profile and emit the resulting 1-D curves.

Builds a simple map with two value plateaus on a 1-D grid, relaxes it
continuously and with order-1/order-2 smoothing, prints the error and
modulus numbers for each order, and writes a CSV with one column per
order for external plotting.
"""

from __future__ import annotations

import argparse
import csv

import numpy as np

from metriclp import Domain, SimpleMap, fields, make_space
from metriclp.relax import adjacent_difference_report, error_bound, smooth_from_simple


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--cells", type=int, default=2048)
    ap.add_argument("--eps", type=float, default=0.1)
    ap.add_argument("--p", type=float, default=1.0)
    ap.add_argument("--csv-out", default="relaxation_profile.csv")
    args = ap.parse_args()

    space = make_space("euclidean1")
    domain = Domain.grid(1, args.cells)
    b1 = fields.band_labels(domain.geometry, 0.3, 0.08)
    b2 = fields.band_labels(domain.geometry, 0.7, 0.08)
    labels = np.where(b1 == 1, 1, np.where(b2 == 1, 2, 0))
    g = SimpleMap(domain, space, labels, np.array([[0.0], [1.0], [-0.5]]))
    background = [0.0]

    curves = {}
    for order in (0, 1, 2):
        field = smooth_from_simple(g, background, args.p, args.eps, order=order)
        rep = adjacent_difference_report(field)
        print(
            f"order {order}: error {field.achieved_error:.6f} "
            f"(bound {error_bound(field):.6f}, target {args.eps:g}), "
            f"max adjacent step {rep['max_difference']:.3e} "
            f"<= {rep['max_bound']:.3e}, guarantee={field.flags['guarantee_holds']}"
        )
        curves[f"order{order}"] = field.values.ravel()

    xs = (np.arange(args.cells) + 0.5) * domain.geometry.cell_size
    with open(args.csv_out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "input"] + list(curves))
        for i in range(args.cells):
            writer.writerow(
                [f"{xs[i]:.6f}", f"{g.value_table[labels[i], 0]:g}"]
                + [f"{curves[k][i]:.9f}" for k in curves]
            )
    print(f"wrote {args.csv_out}")


if __name__ == "__main__":
    main()
