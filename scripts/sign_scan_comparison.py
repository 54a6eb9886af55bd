#!/usr/bin/env python3
"""How many levels can a sign scan of the quantization function F find?

Scans F on a uniform double-precision grid and compares, decade by decade,
against the level count from the zero flows.  Past the first handful of
levels the zeros and poles of F coagulate tighter than machine precision and
the sign changes disappear, while the flows keep resolving every level.
The scan (measure._sign_flips) evaluates F only in the cells of a
Sturm-count subgrid that hold a zero of P_depth: the flips are those of
every grid point, at about depth * sqrt(points * zeros) cost.  The grid
(measure._Linspace) computes each point of np.linspace by index as the
scan reads it, so memory grows with sqrt(points * zeros) as well.

Example:
    python3 scripts/sign_scan_comparison.py --kappa 0.5 --x-max 100
"""

import argparse

import numpy as np

from zeroflow import displaced_recurrence, run_flows
from zeroflow.measure import _Linspace, _sign_flips
from zeroflow.recurrence import _frozen_counts


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--kappa", type=float, default=0.5)
    ap.add_argument("--x-max", type=float, default=100.0)
    ap.add_argument("--points", type=int, default=200_001)
    args = ap.parse_args()

    rec = displaced_recurrence(args.kappa)
    total = int(_frozen_counts(rec, np.array([args.x_max]))[0])
    result = run_flows(rec, total, tol=1e-8)
    xi = result.xi

    depth = total + 60
    grid = _Linspace(-args.kappa**2 - 0.2, args.x_max, args.points)
    # F falls through its zeros (+ to -) and jumps from - to + at its poles
    flip_pos = _sign_flips(rec, grid, depth)

    print(f"levels below {args.x_max}: {total} (all converged: {result.complete})")
    print(f"F zero crossings (+ to -) on a {args.points}-point grid at depth {depth}: {flip_pos.size}")
    print()
    print(" level range   true   detected")
    edges = list(range(0, total, 10)) + [total]
    for lo, hi in zip(edges, edges[1:]):
        lo_x = xi[lo] - 0.5
        hi_x = xi[hi - 1] + 0.5
        seen = np.count_nonzero((flip_pos >= lo_x) & (flip_pos < hi_x))
        print(f"  {lo + 1:4d}-{hi:4d}   {hi - lo:4d}   {min(seen, hi - lo):8d}")


if __name__ == "__main__":
    main()
