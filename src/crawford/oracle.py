"""Independent verification path for the Crawford number.

Writes chi as a one-dimensional search over support directions:

    dist(0, W(C)) = max(0, max_theta lambda_min(cos theta A + sin theta B))

which holds because W(C) is compact convex and its support function in
direction e^{i theta} is lambda_max of the rotated Hermitian part.  The
search grid is certified through the Lipschitz bound L = ||A||_F + ||B||_F
on g(theta), so none of this shares logic with the SDP construction or
the ellipsoid method.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import ComplexMatrix, hermitian_split

_CHUNK = 32768
_GOLDEN_ITERS = 40
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class SupportProfile:
    thetas: np.ndarray
    gmin: np.ndarray
    lipschitz_L: float


@dataclass(frozen=True)
class OracleSearch:
    chi: float
    theta: float          # argmax direction (refined)
    gmax: float           # g at that direction, before clamping at 0
    grid_size: int


def _float_parts(c: ComplexMatrix):
    pen = hermitian_split(c)
    return pen.a.to_complex(), pen.b.to_complex()


def _gmin_grid(a_f: np.ndarray, b_f: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """lambda_min(cos t A + sin t B) on all grid nodes, vectorized."""
    n = a_f.shape[0]
    cos, sin = np.cos(thetas), np.sin(thetas)
    if n == 1:
        return cos * a_f[0, 0].real + sin * b_f[0, 0].real
    if n == 2:
        h11 = cos * a_f[0, 0].real + sin * b_f[0, 0].real
        h22 = cos * a_f[1, 1].real + sin * b_f[1, 1].real
        h12 = cos * a_f[0, 1] + sin * b_f[0, 1]
        return 0.5 * (h11 + h22) - np.hypot(0.5 * (h11 - h22), np.abs(h12))
    out = np.empty(thetas.shape[0])
    for lo in range(0, thetas.shape[0], _CHUNK):
        hi = min(lo + _CHUNK, thetas.shape[0])
        h = (
            cos[lo:hi, None, None] * a_f[None, :, :]
            + sin[lo:hi, None, None] * b_f[None, :, :]
        )
        out[lo:hi] = np.linalg.eigvalsh(h)[:, 0]
    return out


def _gmin_at(a_f: np.ndarray, b_f: np.ndarray, theta: float) -> float:
    h = math.cos(theta) * a_f + math.sin(theta) * b_f
    if h.shape[0] == 1:
        return h[0, 0].real
    return float(np.linalg.eigvalsh(h)[0])


def support_profile(c: ComplexMatrix, delta: float) -> SupportProfile:
    """Uniform grid with spacing fine enough that the grid max of g is
    within delta/2 of the true max."""
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    a_f, b_f = _float_parts(c)
    lip = float(np.linalg.norm(a_f) + np.linalg.norm(b_f))
    m = math.ceil(2.0 * math.pi * lip / delta) + 8
    thetas = 2.0 * math.pi * np.arange(m) / m
    return SupportProfile(
        thetas=thetas, gmin=_gmin_grid(a_f, b_f, thetas), lipschitz_L=lip
    )


def _golden_max(f, lo: float, hi: float):
    a, b = lo, hi
    c1 = b - _INVPHI * (b - a)
    c2 = a + _INVPHI * (b - a)
    f1, f2 = f(c1), f(c2)
    for _ in range(_GOLDEN_ITERS):
        if f1 >= f2:
            b, c2, f2 = c2, c1, f1
            c1 = b - _INVPHI * (b - a)
            f1 = f(c1)
        else:
            a, c1, f1 = c1, c2, f2
            c2 = a + _INVPHI * (b - a)
            f2 = f(c2)
    return (c1, f1) if f1 >= f2 else (c2, f2)


def support_search(c: ComplexMatrix, delta: float) -> OracleSearch:
    """Grid sweep plus golden-section refinement on the winning bracket."""
    prof = support_profile(c, delta)
    a_f, b_f = _float_parts(c)
    m = prof.thetas.shape[0]
    k = int(np.argmax(prof.gmin))
    step = 2.0 * math.pi / m
    t0 = prof.thetas[k]
    theta, gref = _golden_max(
        lambda t: _gmin_at(a_f, b_f, t), t0 - step, t0 + step
    )
    gmax = max(float(prof.gmin[k]), gref)
    if gref < prof.gmin[k]:
        theta = t0
    return OracleSearch(
        chi=max(0.0, gmax), theta=theta % (2.0 * math.pi), gmax=gmax, grid_size=m
    )


def chi_oracle(c: ComplexMatrix, delta: float) -> float:
    """chi(C) to within delta, independently of the SDP route."""
    return support_search(c, delta).chi


def sample_boundary(c: ComplexMatrix, m: int):
    """m boundary points z_k = x_k* C x_k with x_k a top eigenvector of
    the support direction theta_k = 2 pi k / m.  Exact members of W(C);
    their hull converges to W(C) as m grows."""
    if m < 3:
        raise ValueError("need at least 3 samples")
    a_f, b_f = _float_parts(c)
    cf = c.to_complex()
    out = []
    for k in range(m):
        t = 2.0 * math.pi * k / m
        h = math.cos(t) * a_f + math.sin(t) * b_f
        if h.shape[0] == 1:
            x = np.array([1.0 + 0.0j])
        else:
            _, vec = np.linalg.eigh(h)
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


def _fmt(v: float) -> str:
    return repr(float(v))


def write_boundary_csv(c: ComplexMatrix, m: int, path) -> list:
    """CSV "theta,re,im", one row per sample node."""
    points = sample_boundary(c, m)
    lines = ["theta,re,im"]
    for k, z in enumerate(points):
        t = 2.0 * math.pi * k / m
        lines.append(f"{_fmt(t)},{_fmt(z.real)},{_fmt(z.imag)}")
    try:
        with open(path, "w", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as e:
        raise OSError(f"cannot write CSV {path}: {e}") from e
    return points


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
