"""Seeded input generators and the numpy reference for the benchmark.

Nothing here imports the package under test: the program only ever sees
the matrix files written below (JSON in the CLI grammar) and the query
arguments of each op.  The reference value of chi comes from
`chi_reference`, an independent support-function evaluation that shares
no code with `crawford.oracle`.

A workload is one *round*: a fixed list of ops (its slots) drawn from
the seed.  The closed loop repeats the round, and each slot's latency is
the median of its repeats (see README.md for why).
"""

from __future__ import annotations

import json
import math
import zlib
from fractions import Fraction
from pathlib import Path

import numpy as np

# Slots per round, by matrix size.  op_p50_s and op_tail_s are taken over
# the slots (each slot's median latency), so each gated mix puts the median
# slot in its cheap class and has 11 or more slots in one dearer class: the
# 11th-largest slot, the tail, then lies in that class for every seed.
FAR_SDP_MIX = {6: 1, 5: 1, 4: 11, 3: 18}
VERIFY_MIX = {4: 1, 3: 11, 2: 14}
# large_export runs two CLI exports, then one library solve, eight times:
# 24 slots, so the 11th-largest slot is not the median one.
LARGE_EXPORT_SIZES = (16, 14, 11, 11, 11, 11, 11, 11, 10, 10, 10, 10, 10, 10, 10, 10)
LARGE_SOLVE_SIZE = 12
RATIONAL_SIZES = (2, 3, 4)
RATIONAL_KINDS = ("rational", "scaled", "center_frac")
# instances per kind, side and size
RATIONAL_COPIES = {2: 2, 3: 2, 4: 4}

# Cost control, so that every seed gives ops of like cost.  far_sdp's
# iteration count grows with the outer radius R = 12 + 4*ceil(||C - cI||_F);
# verify_cli's oracle grid has 2*pi*L/eps nodes, L = ||A||_F + ||B||_F of
# the translated matrix.  Each instance is redrawn until that norm lies
# within COST_BAND of its median for the size (medians measured over 150
# and 60 draws of the unbanded generator; verify_cli entries lie in
# [-1, 1]).  verify_cli also needs center + 1 inside W(C), so that all
# four SDP queries of a verify have chi = 0 and cost alike.
FAR_FRO_MEDIAN = {3: 12.25, 4: 17.42, 5: 22.06, 6: 27.1}
VERIFY_BOUND = 1
VERIFY_L_MEDIAN = {2: 3.45, 3: 4.86, 4: 6.27}
COST_BAND = 0.05
# an inside center lies this far inside W(C): reference value <= -0.25
INSIDE_MARGIN = 0.25

FAR_EPS = 1e-4
VERIFY_EPS = 1e-4
LARGE_EPS = 1e-3
RATIONAL_EPS = 1e-4
SCALE_1E3 = 1000

WORKLOADS = ("far_sdp", "verify_cli", "large_export", "rational_cli")


# --- reference ---------------------------------------------------------

def to_complex(entries) -> np.ndarray:
    """Float matrix from a list of rows of (re, im) Fractions."""
    return np.array(
        [[complex(float(re), float(im)) for re, im in row] for row in entries]
    )


def support_min(t: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """lambda_min(cos(th) A + sin(th) B) for C = A + iB, at every theta."""
    a = 0.5 * (t + t.conj().T)
    b = -0.5j * (t - t.conj().T)
    h = np.cos(thetas)[:, None, None] * a + np.sin(thetas)[:, None, None] * b
    return np.linalg.eigvalsh(h)[:, 0]


def _ternary_max(f, lo: float, hi: float, iters: int = 90):
    for _ in range(iters):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if f(m1) < f(m2):
            lo = m1
        else:
            hi = m2
    mid = 0.5 * (lo + hi)
    return f(mid)


def chi_reference(c: np.ndarray, center: complex, nodes: int = 4096) -> float:
    """max over theta of lambda_min(cos A + sin B) for C - center*I, before
    clamping at 0: positive is the distance to W(C), non-positive means
    the center lies in W(C).

    A uniform grid, then a ternary search around each of the three best
    nodes (the function is unimodal near its positive maximum)."""
    t = c - center * np.eye(c.shape[0])
    thetas = 2.0 * math.pi * np.arange(nodes) / nodes
    g = support_min(t, thetas)
    step = 2.0 * math.pi / nodes
    best = float(g.max())
    for k in np.argsort(g)[-3:]:
        th = thetas[k]
        val = _ternary_max(
            lambda x: float(support_min(t, np.array([x]))[0]), th - step, th + step
        )
        best = max(best, val)
    return best


def support_max(c: np.ndarray, theta: float) -> float:
    """Support function of W(C) in direction e^{i theta}."""
    return -float(support_min(-c, np.array([theta]))[0])


# --- exact entries and the CLI grammar ---------------------------------

def fmt_gaussian(re: Fraction, im: Fraction) -> str:
    if im == 0:
        return str(re)
    if re == 0:
        return f"{im}i"
    return f"{re}{'+' if im > 0 else '-'}{abs(im)}i"


def write_matrix(path: Path, entries) -> None:
    doc = {
        "n": len(entries),
        "entries": [[fmt_gaussian(re, im) for re, im in row] for row in entries],
    }
    path.write_text(json.dumps(doc, indent=1) + "\n")


def _int_entries(rng, n: int, bound: int = 3, scale: int = 1):
    re = rng.integers(-bound, bound + 1, (n, n))
    im = rng.integers(-bound, bound + 1, (n, n))
    return [
        [(Fraction(int(re[i, j]) * scale), Fraction(int(im[i, j]) * scale)) for j in range(n)]
        for i in range(n)
    ]


def _rational_entries(rng, n: int, dens=(2, 3, 5, 7), bound: int = 3):
    out = []
    for _ in range(n):
        row = []
        for _ in range(n):
            a, b = (int(v) for v in rng.integers(-bound, bound + 1, 2))
            p, q = (int(v) for v in rng.choice(dens, 2))
            row.append((Fraction(a, p), Fraction(b, q)))
        out.append(row)
    return out


def _round_to(z: complex, q: int = 1, scale: int = 1):
    """Nearest point of the lattice (scale/q)(Z + iZ), as exact parts."""
    return (
        Fraction(round(z.real * q / scale) * scale, q),
        Fraction(round(z.imag * q / scale) * scale, q),
    )


def _inside_center(c, q: int = 1, scale: int = 1):
    """tr(C)/n rounded to the lattice, if it lies in W(C) with a margin
    (reference value <= -INSIDE_MARGIN*scale); None otherwise."""
    n = c.shape[0]
    ctr = _round_to(np.trace(c) / n, q, scale)
    g = chi_reference(c, complex(float(ctr[0]), float(ctr[1])))
    return (ctr, g) if g <= -INSIDE_MARGIN * scale else None


def _outside_center(rng, c, q: int = 1, scale: int = 1, min_chi: float = 0.5):
    """A lattice point 1 to 2 (times scale) beyond the support line of
    W(C) in a random direction, with reference chi >= min_chi*scale."""
    th = float(rng.uniform(0.0, 2.0 * math.pi))
    d = float(rng.uniform(1.0, 2.0)) * scale
    z = (support_max(c, th) + d) * complex(math.cos(th), math.sin(th))
    ctr = _round_to(z, q, scale)
    g = chi_reference(c, complex(float(ctr[0]), float(ctr[1])))
    return (ctr, g) if g >= min_chi * scale else None


def _draw(rng, make_entries, pick_center):
    """Redraw until the center rule accepts; returns (entries, center, ref)."""
    while True:
        entries = make_entries()
        c = to_complex(entries)
        got = pick_center(c)
        if got is not None:
            return entries, got[0], got[1]


# --- workloads ---------------------------------------------------------

class _Writer:
    """Writes each instance to its own numbered matrix file."""

    def __init__(self, workdir: Path):
        self.dir = workdir
        self.count = 0

    def matrix(self, entries) -> str:
        path = self.dir / f"m{self.count:04d}.json"
        self.count += 1
        write_matrix(path, entries)
        return path.name


def _op(kind, file, n, center, ref, eps):
    return {
        "kind": kind,
        "file": file,
        "n": n,
        "center": fmt_gaussian(*center),
        "center_parts": [str(center[0]), str(center[1])],
        "ref": ref,
        "eps": eps,
        "tol": 2.0 * eps,
    }


def _mix(mix: dict):
    return [n for n, count in mix.items() for _ in range(count)]


def _translated(c, center) -> np.ndarray:
    return c - complex(float(center[0]), float(center[1])) * np.eye(c.shape[0])


def _lipschitz(t) -> float:
    return float(np.linalg.norm(t + t.conj().T) + np.linalg.norm(t - t.conj().T)) / 2


def _in_band(value: float, median: float) -> bool:
    return abs(value / median - 1.0) <= COST_BAND


def _far_sdp(rng, w: _Writer):
    def pick(c):
        got = _outside_center(rng, c)
        if got is None:
            return None
        fro = float(np.linalg.norm(_translated(c, got[0])))
        return got if _in_band(fro, FAR_FRO_MEDIAN[c.shape[0]]) else None

    ops = []
    for n in _mix(FAR_SDP_MIX):
        entries, ctr, ref = _draw(rng, lambda: _int_entries(rng, n), pick)
        ops.append(_op("lib_chi", w.matrix(entries), n, ctr, ref, FAR_EPS))
    return ops


def _verify_cli(rng, w: _Writer):
    def pick(c):
        n = c.shape[0]
        ctr = _round_to(np.trace(c) / n)
        if not _in_band(_lipschitz(_translated(c, ctr)), VERIFY_L_MEDIAN[n]):
            return None
        z = complex(float(ctr[0]), float(ctr[1]))
        # verify's translation check also solves at center + 1.  A coarse
        # grid max is a lower bound of the reference, so it may reject.
        coarse = 2.0 * math.pi * np.arange(256) / 256
        for zz in (z, z + 1):
            if support_min(c - zz * np.eye(n), coarse).max() > -INSIDE_MARGIN:
                return None
        ref = chi_reference(c, z)
        if max(ref, chi_reference(c, z + 1)) > -INSIDE_MARGIN:
            return None
        return ctr, ref

    ops = []
    for n in _mix(VERIFY_MIX):
        entries, ctr, ref = _draw(rng, lambda: _int_entries(rng, n, VERIFY_BOUND), pick)
        ops.append(_op("cli_verify", w.matrix(entries), n, ctr, ref, VERIFY_EPS))
    return ops


def _large_export(rng, w: _Writer):
    zero = (Fraction(0), Fraction(0))

    def at_zero(c):
        g = chi_reference(c, 0j, nodes=1024)
        return (zero, g) if g <= -0.25 else None

    def op(kind, n):
        entries, ctr, ref = _draw(rng, lambda: _int_entries(rng, n), at_zero)
        return _op(kind, w.matrix(entries), n, ctr, ref, LARGE_EPS)

    ops = []
    for i in range(0, len(LARGE_EXPORT_SIZES), 2):
        ops += [op("cli_export", n) for n in LARGE_EXPORT_SIZES[i:i + 2]]
        ops.append(op("lib_chi", LARGE_SOLVE_SIZE))
    return ops


def _rational_op(rng, w: _Writer, kind: str, n: int, inside: bool):
    scale = SCALE_1E3 if kind == "scaled" else 1
    q = int(rng.choice((2, 3, 4, 5))) if kind == "center_frac" else 1

    def make():
        if kind == "rational":
            return _rational_entries(rng, n)
        return _int_entries(rng, n, scale=scale)

    def pick(c):
        if inside:
            return _inside_center(c, q, scale)
        return _outside_center(rng, c, q, scale)

    entries, ctr, ref = _draw(rng, make, pick)
    op = _op("cli_chi", w.matrix(entries), n, ctr, ref, RATIONAL_EPS * scale)
    op["input_kind"] = kind
    return op


def _rational_cli(rng, w: _Writer):
    return [
        _rational_op(rng, w, kind, n, inside)
        for n in RATIONAL_SIZES
        for _ in range(RATIONAL_COPIES[n])
        for kind in RATIONAL_KINDS
        for inside in (True, False)
    ]


_GENERATORS = {
    "far_sdp": _far_sdp,
    "verify_cli": _verify_cli,
    "large_export": _large_export,
    "rational_cli": _rational_cli,
}


def generate(workload: str, seed: int, workdir: Path) -> dict:
    """Write the matrix files of one workload and return its manifest:
    {"workload", "seed", "ops": [op, ...]}, the ops of one round.  The
    same seed always gives byte-identical files and manifest."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}")
    workdir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, zlib.crc32(workload.encode())])
    ops = _GENERATORS[workload](rng, _Writer(workdir))
    return {"workload": workload, "seed": seed, "ops": ops}
