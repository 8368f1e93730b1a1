#!/usr/bin/env python3
"""How ellipsoid solves end, against matrix size.

For each n the script draws a random Gaussian-integer C and asks
`crawford` for chi(k, C), k = ceil(||C||_F) + 1, so that chi >= 1, at
fixed eps.  Each row reports the value, the steps taken next to the
volume bound's iteration cap, the number of eigen-solves of the dual
pencil cos t A + sin t B (the steps of the one ascent in t from the
centre G's density, Newton steps and Wolfe steps alike), the kind of
certificate that holds the final value (feasible or dual; see
`crawford.ellipsoid`), the set-up's time in microseconds (`setup_s` of
`solver_stats`: the translation, the Frobenius bound, `scaled_instance`
and `certified_ball` with its chart), the solve's wall time and its
microseconds per step, all read off `solver_stats`.  With the ascent
these solves end at their first step, closed by a density of the dual
bound's eigenvectors, so the step count says how soon the certificates
met, not how fast the volume bound shrinks.  (About the centre 0, random
C with n >= 3 almost always have chi = 0, and those solves end at their
first step too, on Wolfe steps over the pencil's support points around
0.)  Every value is cross-checked against the support-function search.
"""

import argparse
import csv
import sys

import numpy as np

from crawford.api import CrawfordQuery, crawford
from crawford.linalg import ComplexMatrix, GaussianRational, frobenius_ceiling
from crawford.oracle import support_search


def random_matrix(rng: np.random.Generator, n: int, lo: int, hi: int) -> ComplexMatrix:
    ints = rng.integers(lo, hi + 1, size=(n, n, 2))
    return ComplexMatrix(
        [
            [GaussianRational(int(ints[i, j, 0]), int(ints[i, j, 1])) for j in range(n)]
            for i in range(n)
        ]
    )


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--eps", type=float, default=1e-3)
    ap.add_argument("--n-min", type=int, default=2)
    ap.add_argument("--n-max", type=int, default=8)
    ap.add_argument("--trials", type=int, default=3, help="instances per size")
    ap.add_argument("--seed", type=int, default=123)
    ap.add_argument("--entry-bound", type=int, default=3)
    ap.add_argument("--csv", type=str, default="", help="optional CSV output path")
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    rows = []
    print(
        f"eps = {args.eps:g}, {args.trials} instance(s) per size, "
        "each C - kI with k = ceil(||C||_F) + 1 (chi >= 1)"
    )
    print(
        f"{'n':>3} {'d':>4} {'chi':>10} {'iters':>8} {'cap':>8} {'dual_solves':>11}"
        f" {'closed_by':>9} {'setup_us':>9} {'seconds':>8} {'us/iter':>8} {'|sdp-oracle|':>13}"
    )
    for n in range(args.n_min, args.n_max + 1):
        for trial in range(args.trials):
            c = random_matrix(rng, n, -args.entry_bound, args.entry_bound)
            if c.is_zero():
                continue
            centre = GaussianRational(frobenius_ceiling(c) + 1, 0)
            res = crawford(CrawfordQuery(matrix=c, center=centre, epsilon=args.eps))
            stats = res.solver_stats
            value = res.chi
            iterations = stats["iterations"]
            setup_us = 1e6 * stats["setup_s"]
            dt = stats["solve_s"]
            us_per_iter = 1e6 * dt / iterations
            line = (
                f"{n:>3} {n * n:>4} {value:>10.6f} {iterations:>8} {stats['iteration_cap']:>8}"
                f" {stats['dual_solves']:>11} {stats['closed_by']:>9} {setup_us:>9.1f}"
                f" {dt:>8.3f} {us_per_iter:>8.1f}"
            )
            gap = abs(value - support_search(c.translate(centre), args.eps).chi)
            print(line + f" {gap:>13.2e}")
            if gap > 2 * args.eps:
                print(f"cross-check failure at n={n}: gap {gap:g}", file=sys.stderr)
                sys.exit(1)
            row = {
                "n": n,
                "trial": trial,
                "dim": n * n,
                "iterations": iterations,
                "cap": stats["iteration_cap"],
                "dual_solves": stats["dual_solves"],
                "closed_by": stats["closed_by"],
                "value": value,
                "setup_us": setup_us,
                "seconds": dt,
                "us_per_iter": us_per_iter,
                "oracle_gap": gap,
            }
            rows.append(row)

    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            writer.writerows(rows)
        print(f"wrote {args.csv}")


if __name__ == "__main__":
    main()
