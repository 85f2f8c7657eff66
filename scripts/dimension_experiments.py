#!/usr/bin/env python3
"""Box-counting dimension sweep over the function catalog.

For each surface the script samples a square grid, fits the lower
oscillation count against 1/delta on a halving ladder, and prints one
row per surface.  The smoothed rows re-run the fit on the half-order
integral of the same surface, shifted into the operator domain when the
seed box touches the axes.  Slopes near 2 are the bounded-variation
story; the raw Weierstrass row sits above 2 and drops back once
integrated.
"""
import argparse
import csv
import sys
import time

from fracdim2d import (
    FracOrder,
    GridSpec,
    QuadratureSpec,
    default_box,
    default_deltas,
    dimension_fit,
    katugampola_2d_grid,
    make_source,
    positive_source,
    sample,
)

SURFACES = ["plane", "sinxy", "t-parabola-sine", "weierstrass"]
SMOOTHED = ["plane", "weierstrass"]


def fit_row(label, grid, spec):
    t0 = time.perf_counter()
    fit = dimension_fit(grid, default_deltas(spec), "lower")
    return {
        "surface": label,
        "side": spec.m,
        "slope": round(fit.slope, 4),
        "r_squared": round(fit.r_squared, 5),
        "deltas": len(fit.points),
        "seconds": round(time.perf_counter() - t0, 2),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--side", type=int, default=1025, help="grid nodes per axis")
    ap.add_argument("--panels", type=int, default=16384, help="quadrature panels for the smoothed rows")
    ap.add_argument("--out", help="also write the rows to this CSV file")
    args = ap.parse_args(argv)

    rows = []
    for name in SURFACES:
        src = make_source(name)
        box = src.domain if src.domain is not None else default_box(name)
        spec = GridSpec(box, args.side, args.side)
        rows.append(fit_row(name, sample(src, spec), spec))
    for name in SMOOTHED:
        src, box = positive_source(name)
        spec = GridSpec(box, args.side, args.side)
        grid = katugampola_2d_grid(
            src, spec, FracOrder(0.5, 0.5), QuadratureSpec(panels=args.panels), method="separable"
        )
        rows.append(fit_row(f"{name} (integrated)", grid, spec))

    width = max(len(r["surface"]) for r in rows)
    print(f"{'surface':<{width}}  {'side':>5}  {'slope':>7}  {'r^2':>8}  {'deltas':>6}  {'sec':>6}")
    for r in rows:
        print(
            f"{r['surface']:<{width}}  {r['side']:>5}  {r['slope']:>7.4f}  "
            f"{r['r_squared']:>8.5f}  {r['deltas']:>6}  {r['seconds']:>6.2f}"
        )
    if args.out:
        with open(args.out, "w", newline="") as fh:
            w = csv.DictWriter(fh, fieldnames=list(rows[0]))
            w.writeheader()
            w.writerows(rows)
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
