"""Independent verification path for the Crawford number.

Writes chi as a one-dimensional search over support directions:

    dist(0, W(C)) = max(0, max_theta g(theta)),
    g(theta) = lambda_min(cos theta A + sin theta B),

which holds because W(C) is compact convex and its support function in
direction e^{i theta} is lambda_max of the rotated Hermitian part.  g is
L-Lipschitz with L = ||C||_F >= |g'|, so a Piyavskii-Shubert search over
theta certifies the value, and shares no logic with the SDP construction
or the ellipsoid method.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .linalg import ComplexMatrix


@dataclass(frozen=True)
class OracleSearch:
    chi: float
    theta: float          # direction of the best evaluation
    gmax: float           # g at that direction, before clamping at 0
    grid_size: int        # number of evaluations of g: solver_stats'
                          # "evaluations"; perfbench/tracing.py reads this name


def hermitian_parts(c: ComplexMatrix):
    """A = (F + F*)/2 and B = (F - F*)/(2i) of F = C in floats."""
    f = c.to_complex()
    fs = f.conj().T
    return 0.5 * (f + fs), -0.5j * (f - fs)


def _gmin_at(a_f: np.ndarray, b_f: np.ndarray, theta: float) -> float:
    return float(np.linalg.eigvalsh(math.cos(theta) * a_f + math.sin(theta) * b_f)[0])


def support_search(c: ComplexMatrix, delta: float) -> OracleSearch:
    """From the four quarter-turn arcs, split the arc with the highest cone
    peak (g_lo + g_hi)/2 + L (hi - lo)/2 at the peak's angle until no peak
    exceeds max(0, best + delta); all peaks <= 0 certify chi = 0 exactly."""
    if not (math.isfinite(delta) and delta > 0.0):
        raise ValueError("delta must be finite and positive")
    a_f, b_f = hermitian_parts(c)
    lip = math.sqrt(float(c.frobenius_sq()))
    nodes = [0.5 * math.pi * k for k in range(4)]
    vals = [_gmin_at(a_f, b_f, t) for t in nodes]
    best, theta = max(zip(vals, nodes))
    evals = 4
    heap = []

    def push(lo, g_lo, hi, g_hi):
        peak = 0.5 * (g_lo + g_hi) + 0.5 * lip * (hi - lo)
        # the stop threshold never decreases, so an arc already below it
        # would never be popped; the heap keeps only arcs still to split
        if peak > max(0.0, best + delta):
            heapq.heappush(heap, (-peak, lo, g_lo, hi, g_hi))

    for k in range(4):
        push(nodes[k], vals[k], nodes[k] + 0.5 * math.pi, vals[(k + 1) % 4])
    while heap and -heap[0][0] > max(0.0, best + delta):
        _, lo, g_lo, hi, g_hi = heapq.heappop(heap)
        t = 0.5 * (lo + hi) + (g_hi - g_lo) / (2.0 * lip)
        if not lo < t < hi:
            continue  # a peak at an end of its arc is popped only by rounding
        g_t = _gmin_at(a_f, b_f, t)
        evals += 1
        if g_t > best:
            best, theta = g_t, t
        push(lo, g_lo, t, g_t)
        push(t, g_t, hi, g_hi)
    return OracleSearch(chi=max(0.0, best), theta=theta, gmax=best, grid_size=evals)


def sample_boundary(c: ComplexMatrix, m: int):
    """m boundary points z_k = x_k* C x_k with x_k a top eigenvector of
    the support direction theta_k = 2 pi k / m.  Exact members of W(C);
    their hull converges to W(C) as m grows."""
    if m < 3:
        raise ValueError("need at least 3 samples")
    a_f, b_f = hermitian_parts(c)
    cf = c.to_complex()
    out = []
    for k in range(m):
        t = 2.0 * math.pi * k / m
        _, vec = np.linalg.eigh(math.cos(t) * a_f + math.sin(t) * b_f)
        x = vec[:, -1]
        out.append(complex(x.conj() @ cf @ x))
    return out


def minimizing_witness(a_f: np.ndarray, b_f: np.ndarray, theta: float):
    """Unit vector x whose range value z = x*Cx realizes the support
    point at direction theta with zero tangential drift when possible.

    Within the lambda_min eigenspace the tangential coordinate is the
    compressed quadratic form of dH/dtheta; mixing its extreme
    eigenvectors places the drift exactly at 0 when 0 lies between them
    (always the case at the true optimal direction).
    """
    h = math.cos(theta) * a_f + math.sin(theta) * b_f
    w, v = np.linalg.eigh(h)
    tol = 1e-12 + 1e-9 * float(np.abs(w).max())
    space = v[:, w <= w[0] + tol]
    if space.shape[1] == 1:
        return space[:, 0]
    hp = -math.sin(theta) * a_f + math.cos(theta) * b_f
    k = space.conj().T @ hp @ space
    k = 0.5 * (k + k.conj().T)
    wk, vk = np.linalg.eigh(k)
    if wk[0] <= 0.0 <= wk[-1] and wk[-1] > wk[0]:
        alpha = wk[-1] / (wk[-1] - wk[0])
        y = math.sqrt(alpha) * vk[:, 0] + math.sqrt(1.0 - alpha) * vk[:, -1]
    else:
        y = vk[:, int(np.argmin(np.abs(wk)))]
    x = space @ y
    return x / np.linalg.norm(x)


def write_boundary_csv(points, path) -> None:
    """CSV "theta,re,im", one row per point of sample_boundary(c, len(points))."""
    lines = ["theta,re,im"]
    for k, z in enumerate(points):
        t = 2.0 * math.pi * k / len(points)
        lines.append(f"{t!r},{z.real!r},{z.imag!r}")
    try:
        with open(path, "w", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as e:
        raise OSError(f"cannot write CSV {path}: {e}") from e


def write_boundary_svg(points, path, marker=None) -> None:
    """Plain polyline of the sampled hull, optional circle marker at the
    minimizing point.  No styling beyond stroke/fill attributes."""
    xs = [z.real for z in points]
    ys = [z.imag for z in points]
    if marker is not None:
        xs.append(marker.real)
        ys.append(marker.imag)
    xs.append(0.0)
    ys.append(0.0)
    lo_x, hi_x = min(xs), max(xs)
    lo_y, hi_y = min(ys), max(ys)
    span = max(hi_x - lo_x, hi_y - lo_y, 1e-9)
    pad = 0.08 * span
    size = 640.0
    scale = size / (span + 2 * pad)

    def px(z):
        return (z.real - lo_x + pad) * scale, (hi_y - z.imag + pad) * scale

    pts = " ".join("%.2f,%.2f" % px(z) for z in list(points) + points[:1])
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {size:g} {size:g}">',
        f'<polyline points="{pts}" fill="none" stroke="black" stroke-width="1.5"/>',
    ]
    ox, oy = px(0j)
    parts.append(
        f'<line x1="{ox - 6:.2f}" y1="{oy:.2f}" x2="{ox + 6:.2f}" y2="{oy:.2f}" stroke="gray"/>'
    )
    parts.append(
        f'<line x1="{ox:.2f}" y1="{oy - 6:.2f}" x2="{ox:.2f}" y2="{oy + 6:.2f}" stroke="gray"/>'
    )
    if marker is not None:
        mx, my = px(marker)
        parts.append(f'<circle cx="{mx:.2f}" cy="{my:.2f}" r="4" fill="red"/>')
    parts.append("</svg>")
    try:
        with open(path, "w", newline="\n") as fh:
            fh.write("\n".join(parts) + "\n")
    except OSError as e:
        raise OSError(f"cannot write SVG {path}: {e}") from e
