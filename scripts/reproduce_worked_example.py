#!/usr/bin/env python3
"""Reproduce the 2x2 reference computation end to end.

Runs chi for C = [[0,-4i],[2,0]] about the center -3-i through both the
ellipsoid SDP and the support-function search, prints the certified
numbers side by side, and writes boundary artifacts (CSV + SVG with the
minimizing point marked) for the translated matrix.
"""

import argparse
import time
from pathlib import Path

from crawford.api import CrawfordQuery, Method, crawford
from crawford.cli import parse_gaussian
from crawford.linalg import ComplexMatrix
from crawford.oracle import sample_boundary, write_boundary_csv, write_boundary_svg


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--eps", type=float, default=1e-4)
    ap.add_argument("--samples", type=int, default=720)
    ap.add_argument(
        "--out-dir", type=Path, default=Path("out"), help="artifact directory"
    )
    args = ap.parse_args()

    c_tilde = ComplexMatrix(
        [
            [parse_gaussian("0"), parse_gaussian("-4i")],
            [parse_gaussian("2"), parse_gaussian("0")],
        ]
    )
    center = parse_gaussian("-3-i")

    print(f"matrix  [[0, -4i], [2, 0]], center -3-i, eps = {args.eps:g}")
    for method in (Method.SDP_ELLIPSOID, Method.ORACLE_SWEEP):
        t0 = time.time()
        res = crawford(
            CrawfordQuery(
                matrix=c_tilde, center=center, epsilon=args.eps, method=method
            )
        )
        dt = time.time() - t0
        z = res.nearest_point
        print(
            f"{method.value:>6}: chi = {res.chi:.10f}   "
            f"z = {z.real:+.6f}{z.imag:+.6f}i   ({dt:.3f} s)"
        )
        if method is Method.SDP_ELLIPSOID:
            stats = res.solver_stats
            print(
                f"        iterations {stats['iterations']}, "
                f"feasibility cuts {stats['cuts_feasibility']}, "
                f"objective cuts {stats['cuts_objective']}, "
                f"certified lower bound {stats['lower_bound']:.10f}"
            )
            marker = z

    args.out_dir.mkdir(parents=True, exist_ok=True)
    translated = c_tilde.translate(center)
    csv_path = args.out_dir / "boundary.csv"
    svg_path = args.out_dir / "boundary.svg"
    points = sample_boundary(translated, args.samples)
    write_boundary_csv(points, csv_path)
    write_boundary_svg(points, svg_path, marker=marker)
    best = min(points, key=abs)
    print(f"boundary: {len(points)} samples, min modulus {abs(best):.6f}")
    print(f"wrote {csv_path} and {svg_path}")


if __name__ == "__main__":
    main()
