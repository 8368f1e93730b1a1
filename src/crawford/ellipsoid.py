"""Deep-cut ellipsoid method for the block-diagonal SDP, run in an
orthonormal chart of the affine constraint subspace and seeded by the
explicit strictly-feasible ball data (G, r, R).

The solver keeps three quantities per run:

  best       lowest objective value among visited PSD-feasible centers,
  best_cert  lowest *certified* value: each improving center is repaired
             into an exactly-structured feasible point whose objective is
             a genuine upper bound on the optimum,
  lb         a certified lower bound, max over iterations of
             min(best, obj(center_k) - sqrt(g' P_k g)), valid because the
             cut rules never discard a feasible point with objective
             below the current best.

Each step keeps the part of the ellipsoid E on the far side of a deep
cut {x : g.(x - z) <= -depth} (Bland, Goldfarb & Todd, Oper. Res. 29(6),
1981, section 3):

  feasibility  the eigenvector cut at the violated block, backed off by
               the PSD tolerance, depth = -lambda_min - tol,
  objective    the level set obj <= best, depth = obj(z) - best
               (0 on an improving step, a central cut).

Neither discards a feasible point with objective below best.  When a cut
leaves nothing of E (alpha = depth / sqrt(g' P g) >= 1), no feasible
point has objective below best, so best is a certified lower bound: lb
becomes best, and the run ends, with a value if the gap is closed and
with EllipsoidCapExceeded if not.

Termination: best_cert - lb <= eps, so the reported value is within eps
of the true optimum in both directions (up to float evaluation noise).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .linalg import ComplexMatrix
from .sdp import BlockDiagSymmetric, SdpInstance, annihilators, hat_projection


class ChartError(RuntimeError):
    """Rank defect while building the affine chart; construction bug."""


class EllipsoidCapExceeded(RuntimeError):
    """Iteration cap hit before the certified gap closed.

    Carries the best value seen and the lower bound; usually means the
    requested epsilon is below what float64 can certify here.
    """

    def __init__(self, message, best, lower_bound, iterations):
        super().__init__(message)
        self.best = best
        self.lower_bound = lower_bound
        self.iterations = iterations


@dataclass(frozen=True)
class CertifiedBall:
    """Strictly feasible center with certified inner/outer radii:
    the radius-inner_r ball around G inside the affine subspace is
    feasible, and the whole feasible set lies within outer_R of G."""

    center: BlockDiagSymmetric          # exact G = diag((1/n) I, S, 1)
    s_block: np.ndarray                 # exact 2x2 S
    inner_r: Fraction                   # 1/n
    outer_R: Fraction                   # 12 + 4 frob_ceiling
    trace_center: tuple                 # (x, y) = (1/n) tr C, exact


@dataclass(frozen=True)
class AffineChart:
    """Orthonormal basis (rows, flat block coordinates) of the homogeneous
    solution space of all equality constraints, with origin G."""

    n: int
    basis: np.ndarray                   # (d, D) float, d = n^2
    origin: BlockDiagSymmetric          # float G
    origin_flat: np.ndarray

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def point(self, z: np.ndarray) -> BlockDiagSymmetric:
        return BlockDiagSymmetric.from_flat(self.n, self.origin_flat + z @ self.basis)


@dataclass(frozen=True)
class Cut:
    """The halfspace {x : normal.(x - z) <= -depth} that keeps every
    feasible chart point with objective below the current best."""

    kind: str                           # feasible_improving | feasibility | objective
    normal: np.ndarray                  # chart coordinates
    min_eig: float
    objective: float
    depth: float                        # >= 0; 0 is a cut through z


@dataclass(frozen=True)
class SolveResult:
    value: float
    Z: BlockDiagSymmetric
    iterations: int
    cap: int                            # iteration cap of the volume bound
    cuts_feasibility: int
    cuts_objective: int
    certified_gap: float
    lower_bound: float
    max_feasible_distance: float


def _ball_center(inst: SdpInstance) -> BlockDiagSymmetric:
    """Exact G = diag((1/n) I_{2n}, S, 1) recovered from instance data.

    tr Ahat = -tr(F_{N+1} big block) and similarly for Bhat, so the
    (x, y) entering S need no access to the original matrix.
    """
    n = inst.n
    c = inst.frob_ceiling
    x = sum(inst.ahat[i, i] for i in range(2 * n)) / (2 * n)
    y = sum(inst.bhat[i, i] for i in range(2 * n)) / (2 * n)
    yb = np.full((2 * n, 2 * n), Fraction(0), dtype=object)
    for i in range(2 * n):
        yb[i, i] = Fraction(1, n)
    s = np.array(
        [[c + 1 + x, y], [y, c + 1 - x]], dtype=object
    )
    return BlockDiagSymmetric(y=yb, uv=s, t=Fraction(1))


def certified_ball(inst: SdpInstance, c_matrix: ComplexMatrix) -> CertifiedBall:
    """The explicit ball data: G strictly feasible, inner radius 1/n
    inside the affine subspace, outer radius 12 + 4*frob_ceiling."""
    n = inst.n
    g = _ball_center(inst)
    tr = c_matrix.trace()
    x, y = tr.re / n, tr.im / n
    s = g.uv
    if s[0, 0] != inst.frob_ceiling + 1 + x or s[0, 1] != y:
        raise ValueError("instance was not built from this matrix")
    # S - I PSD, exact: diagonal and determinant conditions
    c = Fraction(inst.frob_ceiling)
    assert c + x >= 0 and c - x >= 0 and (c + x) * (c - x) - y * y >= 0
    # G satisfies every equality constraint, exact
    for f, b in inst.tails:
        assert f.inner(g) == b
    return CertifiedBall(
        center=g,
        s_block=s,
        inner_r=Fraction(1, n),
        outer_R=Fraction(12 + 4 * inst.frob_ceiling),
        trace_center=(x, y),
    )


def _equality_rows(inst: SdpInstance) -> np.ndarray:
    """Every homogeneous equality constraint as a row in flat block
    coordinates: the block-internal annihilator entries, the four tails
    (row-normalized), and the symmetry of the stored y and uv blocks."""
    n = inst.n
    index = BlockDiagSymmetric.flat_index
    d_flat = 4 * n * n + 5
    rows = []
    for ann in annihilators(n):
        row = np.zeros(d_flat)
        for i, j, v in ann:
            if index(n, i, j) is not None:
                row[index(n, i, j)] = row[index(n, j, i)] = v
        if row.any():
            rows.append(row)
    tails = np.array([f.flat() for f, _ in inst.tails])
    # normalize rows so the rank test is meaningful when ||Ahat|| is huge
    rows.extend(tails / np.linalg.norm(tails, axis=1, keepdims=True))
    m = inst.ambient_dim
    for i in range(m):
        for j in range(i + 1, m):
            if index(n, i, j) is not None:
                row = np.zeros(d_flat)
                row[index(n, i, j)], row[index(n, j, i)] = 1.0, -1.0
                rows.append(row)
    return np.array(rows)


def build_chart(inst: SdpInstance) -> AffineChart:
    """Orthonormal chart of the d = n^2 dimensional homogeneous equality
    space: the SVD null space of every equality constraint."""
    n = inst.n
    rows = _equality_rows(inst)
    _, sv, vt = np.linalg.svd(rows, full_matrices=True)
    if sv[-1] <= 1e-8 * sv[0]:
        raise ChartError("equality constraints are rank-deficient")
    basis = vt[rows.shape[0] :]
    if basis.shape[0] != n * n:
        raise ChartError(f"chart dimension {basis.shape[0]}, expected {n * n}")
    g = _ball_center(inst).to_float()
    return AffineChart(n=n, basis=basis, origin=g, origin_flat=g.flat())


def _min_eig_2x2(t: np.ndarray):
    (a, b), (_, c) = t.tolist()
    lam = 0.5 * (a + c) - math.hypot(0.5 * (a - c), b)
    if b == 0.0:
        return lam, np.array([1.0, 0.0]) if a <= c else np.array([0.0, 1.0])
    # take the row of T - lam I whose difference does not cancel:
    # lam - c is pure round-off when a > c and |b| is tiny
    p, q = (b, lam - a) if a > c else (lam - c, b)
    return lam, np.array([p, q]) / math.hypot(p, q)


def separation_oracle(
    chart: AffineChart,
    z_point: BlockDiagSymmetric,
    best_value: float,
    obj_normal: Optional[np.ndarray] = None,
) -> Cut:
    """Classify a chart point: PSD and improving, PSD but not improving
    (objective cut along F_0 at depth obj - best_value), or not PSD
    (eigenvector cut -vv' on the violated block at depth -lambda_min - tol).
    PSD tolerance is tol = 1e-9 (1 + ||Z||_F)."""
    kk = 4 * chart.n * chart.n
    y, uv, t = z_point.y, z_point.uv, float(z_point.t)
    # the chart keeps Y symmetric to rounding; eigh reads one triangle
    wy, qy = np.linalg.eigh(y)
    lam_t, v_t = _min_eig_2x2(uv)
    # ||Y||_F^2 is the sum of the squared eigenvalues of Y
    tol = 1e-9 * (1.0 + math.sqrt(float(wy @ wy) + float(np.vdot(uv, uv)) + t * t))
    lam_y = float(wy[0])
    worst = min(lam_y, lam_t, t)
    objective = 0.5 * float(uv[0, 0] + uv[1, 1])

    if worst >= -tol:
        if obj_normal is None:
            obj_normal = 0.5 * (chart.basis[:, kk] + chart.basis[:, kk + 3])
        improving = objective < best_value
        return Cut(
            kind="feasible_improving" if improving else "objective",
            normal=obj_normal,
            min_eig=worst,
            objective=objective,
            depth=0.0 if improving else objective - best_value,
        )

    # only the violated block's columns of the basis meet vv'
    if worst == lam_y:
        v = qy[:, 0]
        normal = -(chart.basis[:, :kk] @ np.outer(v, v).ravel())
    elif worst == lam_t:
        normal = -(chart.basis[:, kk : kk + 4] @ np.outer(v_t, v_t).ravel())
    else:
        normal = -chart.basis[:, -1]
    return Cut(
        kind="feasibility",
        normal=normal,
        min_eig=worst,
        objective=objective,
        depth=max(0.0, -worst - tol),
    )


def repair_point(
    inst: SdpInstance, y_block: np.ndarray
):
    """Round a nearly-feasible big block into an exactly structured
    certificate.

    Clip Y to the PSD cone, project it onto the hat subspace (an average
    of two congruent copies, so still PSD), rescale to trace 2, then
    rebuild the 2x2 and scalar blocks from the encoded point z = x + iy.
    The returned objective r = |z| is a true numerical-range modulus,
    hence an upper bound on the optimum regardless of how rough Y was.
    """
    w, q = np.linalg.eigh(0.5 * (y_block + y_block.T))
    yh = hat_projection((q * np.clip(w, 0.0, None)) @ q.T)
    tr = float(np.trace(yh))
    if tr <= 1e-6:
        raise ChartError("repair collapsed the trace; point was garbage")
    yh *= 2.0 / tr
    xs, vs = (0.5 * np.tensordot(inst.hats_float, yh)).tolist()
    rr = math.hypot(xs, vs)
    uv = np.array([[rr + xs, vs], [vs, rr - xs]])
    t = max(inst.frob_ceiling + 2.0 - rr, 0.0)
    return rr, BlockDiagSymmetric(y=yh, uv=uv, t=t)


def _shrink(z: np.ndarray, p_mat: np.ndarray, b: np.ndarray, alpha: float) -> None:
    """Replace E = {x : (x - z)' P^-1 (x - z) <= 1}, in place, by the
    smallest ellipsoid holding the part of E where
    g.(x - z) <= -alpha sqrt(g'Pg), with b = P g / sqrt(g'Pg) and
    0 <= alpha < 1."""
    d = z.shape[0]
    if d == 1:
        # E is an interval; the generic update is singular at d = 1
        z -= 0.5 * (1.0 + alpha) * b
        p_mat *= 0.25 * (1.0 - alpha) ** 2
        return
    tau = (1.0 + d * alpha) / (d + 1.0)
    sigma = 2.0 * tau / (1.0 + alpha)
    z -= tau * b
    p_mat -= (sigma * b)[:, None] * b
    p_mat *= d * d * (1.0 - alpha * alpha) / (d * d - 1.0)


def solve(
    inst: SdpInstance,
    ball: CertifiedBall,
    eps: float,
    record: Optional[list] = None,
) -> SolveResult:
    """Minimize <F_0, Z> over the feasible region to certified accuracy eps.

    Deterministic.  `record`, if given, collects the sequence of accepted
    improving objective values (non-increasing by construction).
    """
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    chart = build_chart(inst)
    d = chart.dim
    big_r = float(ball.outer_R)
    small_r = float(ball.inner_r)

    f0_flat = inst.f0.flat()
    g_obj = chart.basis @ f0_flat
    if np.linalg.norm(g_obj) < 1e-12:
        raise ChartError("objective is constant on the chart; construction bug")
    f0n = max(1.0, float(np.linalg.norm(f0_flat)))
    cap = math.ceil(2 * d * (d + 1) * math.log(3.0 * big_r * f0n / (small_r * eps))) + 64

    z = np.zeros(d)
    p_mat = np.eye(d) * big_r * big_r
    best = math.inf
    best_cert = math.inf
    best_z: Optional[BlockDiagSymmetric] = None
    # diagonal entries of a PSD matrix are nonnegative, so (u+w)/2 >= 0
    # on the whole cone; 0 is a certified lower bound from the start
    lb = 0.0
    n_feas = n_obj = 0
    max_dist = 0.0

    def result(it):
        return SolveResult(
            value=best_cert,
            Z=best_z,
            iterations=it,
            cap=cap,
            cuts_feasibility=n_feas,
            cuts_objective=n_obj,
            certified_gap=best_cert - lb,
            lower_bound=lb,
            max_feasible_distance=max_dist,
        )

    for it in range(1, cap + 1):
        zb = chart.point(z)
        cut = separation_oracle(chart, zb, best, obj_normal=g_obj)
        obj_center = cut.objective

        if cut.kind != "feasibility":
            max_dist = max(max_dist, math.sqrt(z @ z))
            if obj_center < best:
                best = obj_center
                if record is not None:
                    record.append(best)
                val, zrep = repair_point(inst, zb.y)
                if val < best_cert:
                    best_cert = val
                    best_z = zrep

        p_obj = p_mat @ g_obj
        width = math.sqrt(max(float(g_obj @ p_obj), 0.0))
        lb = max(lb, min(best, obj_center - width))
        if best_cert - lb <= eps:
            return result(it)

        if cut.kind == "feasibility":
            pg = p_mat @ cut.normal
            n_feas += 1
        else:
            pg = p_obj
            n_obj += 1
        gpg = float(cut.normal @ pg)
        if not math.isfinite(gpg) or gpg <= 0.0:
            raise EllipsoidCapExceeded(
                "ellipsoid degenerated (numerical breakdown); "
                f"best {best_cert:.6g}, lower bound {lb:.6g}",
                best_cert, lb, it,
            )
        root = math.sqrt(gpg)
        alpha = cut.depth / root
        if alpha >= 1.0:
            # the cut leaves nothing of E: no feasible point has
            # objective below best, so best bounds the optimum from below
            if best < math.inf:
                lb = max(lb, best)
                if best_cert - lb <= eps:
                    return result(it)
            raise EllipsoidCapExceeded(
                f"deep cut emptied the ellipsoid at iteration {it} before the "
                f"gap closed; best {best_cert:.9g}, certified lower bound {lb:.9g}",
                best_cert, lb, it,
            )
        _shrink(z, p_mat, pg / root, alpha)
        if it % 50 == 0:
            p_mat = 0.5 * (p_mat + p_mat.T)

    raise EllipsoidCapExceeded(
        f"iteration cap {cap} exceeded (volume bound exhausted); "
        f"eps={eps:g} is likely below float64 resolution for this instance; "
        f"best {best_cert:.9g}, certified lower bound {lb:.9g}",
        best_cert, lb, cap,
    )
