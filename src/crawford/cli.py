"""Command line front end.

Matrix files are JSON {"n": int, "entries": [[string, ...], ...]} where
each entry string is a Gaussian rational: "2", "-4i", "3+i", "1/2-2/3i".

Commands: chi (compute), export (write the SDP in SDPA sparse
format), range (sample the numerical-range boundary to CSV/SVG),
verify (run both methods plus invariant spot checks).

Exit codes: 0 ok, 2 parse error, 3 solver diagnostic, 4 I/O error,
5 verify invariant violation.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import oracle, sdp
from .api import CrawfordQuery, Method, crawford, sdp_instance
from .linalg import ComplexMatrix, GaussianRational
# unused here; perfbench/tracing.py patches these names on this module
from .linalg import clear_denominators, frobenius_ceiling, hermitian_split  # noqa: F401


class MatrixParseError(ValueError):
    pass


_NUM = r"\d+(?:/\d+)?"
_RE_BOTH = re.compile(rf"([+-]?{_NUM})\s*([+-])\s*({_NUM})?\s*i")
_RE_IMAG = re.compile(rf"([+-]?)({_NUM})?\s*i")
_RE_REAL = re.compile(rf"[+-]?{_NUM}")


def parse_gaussian(s: str) -> GaussianRational:
    """Parse "a/b+c/d i" with optional parts; bare "i"/"-i" allowed."""
    txt = s.strip()
    try:
        m = _RE_BOTH.fullmatch(txt)
        if m:
            mag = Fraction(m.group(3)) if m.group(3) else Fraction(1)
            return GaussianRational(
                Fraction(m.group(1)), mag if m.group(2) == "+" else -mag
            )
        m = _RE_IMAG.fullmatch(txt)
        if m:
            mag = Fraction(m.group(2)) if m.group(2) else Fraction(1)
            return GaussianRational(0, -mag if m.group(1) == "-" else mag)
        if _RE_REAL.fullmatch(txt):
            return GaussianRational(Fraction(txt), 0)
    except ZeroDivisionError:
        raise MatrixParseError(f"zero denominator in {s!r}") from None
    raise MatrixParseError(f"cannot parse Gaussian rational {s!r}")


def load_matrix(path) -> ComplexMatrix:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as e:
        raise OSError(f"cannot read matrix file {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise MatrixParseError(f"{path}: not valid JSON: {e}") from e
    if not isinstance(doc, dict) or "n" not in doc or "entries" not in doc:
        raise MatrixParseError(f'{path}: need an object with "n" and "entries"')
    n = doc["n"]
    rows = doc["entries"]
    if type(n) is not int or n < 1:
        raise MatrixParseError(f"{path}: n must be a positive integer")
    if not (
        isinstance(rows, list)
        and len(rows) == n
        and all(isinstance(r, list) and len(r) == n for r in rows)
        and all(isinstance(x, str) for r in rows for x in r)
    ):
        raise MatrixParseError(f"{path}: entries must be {n} lists of {n} strings")
    try:
        return ComplexMatrix([[parse_gaussian(x) for x in row] for row in rows])
    except MatrixParseError as e:
        raise MatrixParseError(f"{path}: {e}") from e


def _fmt_complex(z: complex) -> str:
    return f"{z.real:.10g} {'+' if z.imag >= 0 else '-'} {abs(z.imag):.10g}i"


def cmd_chi(args) -> int:
    c = load_matrix(args.matrix)
    result = crawford(
        CrawfordQuery(
            matrix=c,
            center=parse_gaussian(args.center),
            epsilon=args.eps,
            method=Method(args.method),
        )
    )
    stats = result.solver_stats
    if args.json:
        z = result.nearest_point
        doc = {
            "chi": result.chi,
            "z": [z.real, z.imag],
            "method": args.method,
            "epsilon": args.eps,
            **stats,
        }
        # scale_factor, an exact Fraction, as its string "p" or "p/q"
        print(json.dumps(doc, default=str))
        return 0
    print(f"chi = {result.chi:.10g}")
    if "short_circuit" in stats:
        print(f"note: {stats['short_circuit']}, chi is exact")
    print(f"nearest point (translated frame) = {_fmt_complex(result.nearest_point)}")
    print(f"nearest point (original frame)   = {_fmt_complex(result.nearest_point_original)}")
    print(f"scale factor s = {result.scale_factor}")
    if "cuts_feasibility" in stats:
        print(
            f"iterations = {stats['iterations']} "
            f"(feasibility cuts {stats['cuts_feasibility']}, "
            f"objective cuts {stats['cuts_objective']})"
        )
    if "evaluations" in stats:
        print(f"oracle evaluations = {stats['evaluations']}")
    if "oracle_value" in stats:
        print(
            f"oracle cross-check = {stats['oracle_value']:.10g} "
            f"(discrepancy {stats['discrepancy']:.3g})"
        )
    return 0


def cmd_export(args) -> int:
    out_path = args.out or str(Path(args.matrix).with_suffix(".dat-s"))
    t = load_matrix(args.matrix).translate(parse_gaussian(args.center))
    if t.is_zero():
        raise MatrixParseError("matrix is zero after translation; chi = 0, nothing to export")
    inst, _, scale = sdp_instance(t)
    b_last = [float(b) for b in sdp.export_sdpa(inst, out_path)[-2:]]
    bs = inst.block_sizes
    print(f"wrote {out_path}")
    print(f"N = {inst.N}, mDIM = {inst.m}, blocks = {bs[0]} {bs[1]} {bs[2]}")
    print(f"b: {inst.m - 2} zeros then {b_last[0]:g} {b_last[1]:g}")
    if scale != 1:
        print(f"note: instance is for l*C with l = {scale}")
    return 0


def cmd_range(args) -> int:
    if args.samples < 3:
        raise MatrixParseError("--samples must be at least 3")
    out = Path(args.out or str(Path(args.matrix).with_suffix("")) + "_range.csv")
    c = load_matrix(args.matrix).translate(parse_gaussian(args.center))
    points = oracle.sample_boundary(c, args.samples)
    k_min = min(range(len(points)), key=lambda k: abs(points[k]))
    if out.suffix.lower() == ".svg":
        oracle.write_boundary_svg(points, out, marker=points[k_min])
    else:
        oracle.write_boundary_csv(points, out)
    print(f"wrote {out} ({args.samples} samples)")
    print(
        f"minimum modulus sample: |z| = {abs(points[k_min]):.10g} "
        f"at node {k_min} (z = {_fmt_complex(points[k_min])})"
    )
    return 0


def cmd_verify(args) -> int:
    # raises ValueError, exit 2, on a negative seed before any solve
    rng = np.random.default_rng(args.seed)
    c = load_matrix(args.matrix)
    eps = args.eps
    failures = []

    def check(name: str, ok: bool, detail: str):
        print(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})")
        if not ok:
            failures.append(name)

    center = parse_gaussian(args.center)
    # crawford raises, exit 3, on a value above ||C - cI||_F + eps
    result = crawford(
        CrawfordQuery(matrix=c, center=center, epsilon=eps, method=Method.BOTH)
    )
    stats = result.solver_stats
    print(f"SDP value    = {result.chi:.10g}")
    if "oracle_value" in stats:
        print(f"oracle value = {stats['oracle_value']:.10g}")
        diff = stats["discrepancy"]
        check("sdp_vs_oracle", diff <= 1.5 * eps + 1e-9, f"|diff| = {diff:.3g}")
    else:
        print("oracle value = (zero matrix short circuit)")

    ball = result.ball                  # None only on the zero short circuit
    if ball is not None:
        chart = ball.chart
        r_in = float(ball.inner_r)
        # 20 points on the inner sphere, assembled as one (20, m, m) batch;
        # Z's blocks, 2n, 2 and 1, each one eigvalsh over all of them
        w = rng.standard_normal((20, chart.dim))
        zs = chart.point(r_in * (w / np.linalg.norm(w, axis=1, keepdims=True)))
        k = 2 * chart.n
        worst = min(
            float(np.linalg.eigvalsh(zs[:, :k, :k]).min()),
            float(np.linalg.eigvalsh(zs[:, k : k + 2, k : k + 2]).min()),
            float(zs[:, k + 2, k + 2].min()),
        )
        check("inner_ball", worst >= -1e-9, f"min eigenvalue {worst:.3g}")
        # the centres the solve visited, and the witness's Z(X*, |w(X*)|)
        x, inst = result.witness_X, chart.inst
        zx = sdp.assemble_feasible_point(inst, x, math.hypot(*inst.pencil_values(x)))
        g = np.zeros_like(zx)
        for i, j, v in ball.center:
            g[i, j] = g[j, i] = float(v)
        d = max(stats["max_feasible_distance"], float(np.linalg.norm(zx - g)))
        big_r = float(ball.outer_R)
        check("outer_ball", d <= big_r + 1e-6, f"max distance {d:.6g} vs R {big_r:g}")

        # chi(i c, i C) = chi(c, C) through a different SDP instance:
        # (A, B) becomes (-B, A)
        i = GaussianRational(0, 1)
        r_rot = crawford(
            CrawfordQuery(matrix=c.scale(i), center=i * center, epsilon=eps)
        )
        d_rot = abs(r_rot.chi - result.chi)
        check("rotation_identity", d_rot <= 2 * eps + 1e-9, f"|diff| = {d_rot:.3g}")

        # chi(0, 3t) = 3 chi(0, t); a power of two would solve the same
        # instance t/s again.  Each value is within its eps of its chi, so
        # they differ by at most eps + 3 eps
        t = c.translate(center)
        r_scaled = crawford(CrawfordQuery(matrix=t.scale(3), epsilon=eps))
        d_sc = abs(r_scaled.chi - 3 * result.chi)
        check("scaling_identity", d_sc <= 4 * eps + 1e-9, f"|diff| = {d_sc:.3g}")
    if failures:
        print("verify FAILED:", ", ".join(failures), file=sys.stderr)
        return 5
    print("verify OK")
    return 0


_COMMANDS = {
    "chi": (cmd_chi, "compute chi(c, C)"),
    "export": (cmd_export, "write the SDP instance (.dat-s)"),
    "range": (cmd_range, "sample the numerical range boundary"),
    "verify": (cmd_verify, "cross-check both methods and invariants"),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # built on the first call and reused: parse_args keeps no state
    ap = argparse.ArgumentParser(
        prog="crawford",
        description="Crawford number chi(c, C) via certified SDP / ellipsoid "
        "solving with a support-function cross-check",
        epilog="commands: " + "; ".join(f"{k}: {v}" for k, (_, v) in _COMMANDS.items()),
    )
    ap.add_argument("command", choices=list(_COMMANDS), help="what to run (see below)")
    ap.add_argument("matrix", help="matrix JSON file")
    ap.add_argument("--center", default="0", help="Gaussian rational c for chi(c, C)")
    ap.add_argument("--eps", type=float, default=1e-6, help="accuracy (default 1e-6)")
    ap.add_argument("--method", choices=[m.value for m in Method], default="sdp")
    ap.add_argument("--samples", type=int, default=360, help="boundary sample count")
    ap.add_argument("--json", action="store_true", help="machine-readable output")
    ap.add_argument("--out", default=None, help="output file path")
    ap.add_argument("--seed", type=int, default=0, help="seed for randomized checks")
    return ap


def _merge_center(argv):
    # argparse mistakes center values like "-3-i" for option strings;
    # fold the value into --center=... before parsing
    out, i = [], 0
    while i < len(argv):
        if argv[i] == "--center" and i + 1 < len(argv):
            out.append(f"--center={argv[i + 1]}")
            i += 2
        else:
            out.append(argv[i])
            i += 1
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(_merge_center(argv))
    try:
        if not 0.0 < args.eps < 1.0:
            raise ValueError("epsilon must lie in (0, 1)")
        return _COMMANDS[args.command][0](args)
    except (MatrixParseError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except RuntimeError as e:
        # EllipsoidCapExceeded, ChartError and crawford's bound check
        print(f"solver error: {e}", file=sys.stderr)
        return 3
    except OverflowError as e:
        # exact input is accepted at any size; the float solvers are not
        print(f"solver error: a value exceeds the float64 range ({e})", file=sys.stderr)
        return 3
    except OSError as e:
        print(f"io error: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
