"""Deep-cut ellipsoid method for the block-diagonal SDP, run in an
orthonormal chart of the affine constraint subspace, centred at the
explicit strictly feasible point G = Z(I/n, c + 1) (`sdp.ball_center`,
exact and sparse) and started from the Loewner ellipsoid of a cylinder
that provably holds the feasible set.

The chart is closed-form.  Every equality-feasible point is
Z(X, r) = diag(hat X, [[r + <A,X>, <B,X>], [<B,X>, r - <A,X>]], c + 2 - r)
with X Hermitian of trace 1 (`sdp.assemble_feasible_point`, a dense
float array), so the subspace has dimension d = n^2.  The solver itself
works on X and r alone.  Write X = I/n + sum_k xi_k H_k over a
Frobenius-orthonormal basis H_k of the traceless Hermitian matrices, and
r = c + 1 + rho; xi = 0, rho = 0 is the ball center G.  A step
(dX, dr) moves Z by

  ||dZ||_F^2 = 2 ||dX||_F^2 + 2 <A,dX>^2 + 2 <B,dX>^2 + 3 dr^2,

with no cross term, so u = (L' xi, sqrt(3) rho), where L L' =
2 (I + a a' + b b') is the Cholesky factor of the xi part
(a_k = <A, H_k>, b_k = <B, H_k>), has ||u|| = ||dZ||_F.  The chart is an
isometry of R^d onto the affine subspace with 0 -> G, so the inner ball
is the 1/n-ball in u, as in any orthonormal chart; the ellipsoid method
is affine-invariant (Groetschel, Lovasz & Schrijver 1988).  The
objective r = c + 1 + u_d / sqrt(3) depends on u_d alone.

E_0 holds every feasible point, and nothing larger is needed:

  X   X is PSD with trace 1, so tr X^2 <= 1 and
      ||xi||^2 = ||X - I/n||_F^2 = tr X^2 - 1/n <= 1 - 1/n;
  r   the 2x2 block is PSD, so r >= |<A,X> + i<B,X>| >= 0, and
      t = c + 2 - r >= 0, so 0 <= r <= c + 2 and |u_d| <= sqrt(3)(c + 1).

With m = d - 1 and u_x = L' xi, that is the cylinder
{u_x' (L'L)^-1 u_x <= 1 - 1/n} x {|u_d| <= sqrt(3)(c + 1)}, whose
minimum-volume (Loewner) ellipsoid centred at G is

  P_0 = blockdiag(((m + 1)/m)(1 - 1/n) L'L, (m + 1) 3 (c + 1)^2):

for the unit cylinder, |x|^2/p + y^2/q <= 1 holds it iff 1/p + 1/q <= 1,
and p^(m/2) q^(1/2) is least at p = (m + 1)/m, q = m + 1; an affine map
carries that to P_0.  At n = 1 (m = 0) E_0 is the interval itself,
P_0 = 3 (c + 1)^2.  The R-ball of `CertifiedBall.outer_R` holds the
feasible set too, but with radius 12 + 4c in every direction.

Iteration cap: each step shrinks the volume of E by at least
exp(-1/(2(d + 1))), and while the gap is open E keeps a ball of radius
r_in eps / (3 ||F_0||) of near-optimal feasible points (the inner ball
shrunk toward an optimum), so the run ends within

  cap = ceil(2 (d + 1) (1/2 ln det P_0 + d ln(3 ||F_0|| / (r_in eps)))) + 64,

which is the R-ball's 2 d (d + 1) ln(3 R ||F_0|| / (r_in eps)) + 64 when
P_0 = R^2 I (Bland, Goldfarb & Todd, Oper. Res. 29(6), 1981).

The solver keeps two bounds per run:

  best_cert  the lowest *certified* value: the objective r = |w(X)|,
             w(X) = <A,X> + i<B,X>, of a repaired density X (clipped to
             the PSD cone, trace rescaled to 1), so Z(X, r) is feasible
             and r is a genuine upper bound on the optimum,
  lb         a certified lower bound, max over iterations of
             min(best_cert, obj(center_k) - sqrt(g' P_k g)), valid because
             the cut rules never discard a feasible point with objective
             below the current best_cert.

The candidates for best_cert come from the convex hull of the repaired
centers.  Z(X, r) is feasible exactly when X is a density and
|w(X)| <= r <= c + 2, and w is linear in X, so every convex combination
of densities X_i is feasible at r = |sum lambda_i w(X_i)|.  Each
PSD-feasible center is repaired (from the eigendecomposition the oracle
took) and offered, with at most two kept densities, to the planar
min-norm step `nearest_point_weights` (Wolfe, Math. Programming 11,
1976): the weights of the point of the hull of their w values nearest 0.
Points of weight 0 are dropped from the kept set; the combination is
repaired, and its value is recomputed from the repaired X.  When 0 lies
in the hull, as it does for chi = 0, best_cert falls below eps in a few
dozen steps instead of waiting for a single center that close to 0.

Each step keeps the part of the ellipsoid E on the far side of a deep
cut {x : g.(x - z) <= -depth} (Bland, Goldfarb & Todd, Oper. Res. 29(6),
1981, section 3):

  feasibility  the eigenvector cut at the violated block, backed off by
               the PSD tolerance, depth = -lambda_min - tol,
  objective    the level set obj <= best_cert, depth = obj(z) - best_cert
               (0 on an improving step, a central cut).

Neither discards a feasible point with objective below best_cert, so
every optimum stays in E.  When a cut leaves nothing of E
(alpha = depth / sqrt(g' P g) >= 1), no feasible point has objective
below best_cert, so best_cert is also a lower bound: lb becomes best_cert
and the run returns.  Before any center was feasible there is no
best_cert, and the run ends with EllipsoidCapExceeded.

Termination: best_cert - lb <= eps, so the reported value is within eps
of the true optimum in both directions (up to float evaluation noise).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Optional

import numpy as np

from . import sdp
from .linalg import ComplexMatrix, exact_dot
from .sdp import SdpInstance, assemble_feasible_point

# r = c + 1 + u_d / sqrt(3): the objective's gradient in the chart
_RHO = 1.0 / math.sqrt(3.0)


class ChartError(RuntimeError):
    """Certificate repair met a point far off the chart; construction bug."""


class EllipsoidCapExceeded(RuntimeError):
    """The run ended before the certified gap closed: the iteration cap
    was hit, the ellipsoid degenerated, or a deep cut emptied it before
    any center was feasible.

    Carries best_cert, the best certified value (inf if none), the lower
    bound and the iteration; usually means the requested epsilon is below
    what float64 can certify here.
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

    center: sdp.Sparse                  # exact G = diag((1/n) I, S, 1)
    inner_r: Fraction                   # 1/n
    outer_R: Fraction                   # 12 + 4 frob_ceiling
    chart: AffineChart                  # the radii's chart, u = 0 at G


@dataclass(frozen=True)
class AffineChart:
    """Orthonormal chart u -> Z(X, r) of the equality-feasible affine
    subspace, u = 0 at G (see the module docstring).  Complex n x n
    matrices are laid out as 2n^2 floats, as in `SdpInstance.pencil_flat`,
    so <W, X> = Re tr(W* X) is a dot product."""

    inst: SdpInstance
    x_origin: np.ndarray                # (2n^2,): I/n
    x_map: np.ndarray                   # (d, 2n^2): u -> X - I/n; last row 0
    pencil_grad: np.ndarray             # (d, 2): gradients of <A,X>, <B,X>
    chol: np.ndarray                    # (d-1, d-1): L, u_x = L' xi

    @property
    def n(self) -> int:
        return self.inst.n

    @property
    def dim(self) -> int:
        return self.x_map.shape[0]

    @cached_property
    def objective_grad(self) -> np.ndarray:
        """Gradient of r, the objective, in u."""
        e = np.zeros(self.dim)
        e[-1] = _RHO
        return e

    @cached_property
    def initial_shape(self) -> np.ndarray:
        """P_0 of E_0 = {u : u' P_0^-1 u <= 1}, the Loewner ellipsoid of
        the cylinder {||xi|| <= sqrt(1 - 1/n)} x {|u_d| <= sqrt(3)(c + 1)}
        that holds every feasible point (see the module docstring)."""
        m = self.dim - 1
        p0 = np.zeros((m + 1, m + 1))
        if m:
            p0[:m, :m] = (m + 1) / m * (1.0 - 1.0 / self.n) * (self.chol.T @ self.chol)
        p0[m, m] = (m + 1) * 3.0 * (self.inst.frob_ceiling + 1) ** 2
        return p0

    def density(self, u: np.ndarray) -> np.ndarray:
        n = self.n
        return (self.x_origin + u @ self.x_map).view(complex).reshape(n, n)

    def modulus(self, u: np.ndarray) -> float:
        return self.inst.frob_ceiling + 1.0 + _RHO * float(u[-1])

    def point(self, u: np.ndarray) -> np.ndarray:
        return assemble_feasible_point(self.inst, self.density(u), self.modulus(u))


@dataclass(frozen=True)
class Cut:
    """The halfspace {x : normal.(x - z) <= -depth} that keeps every
    feasible chart point with objective below the current best_cert."""

    kind: str                           # feasible_improving | feasibility | objective
    normal: np.ndarray                  # chart coordinates
    min_eig: float
    objective: float
    depth: float                        # >= 0; 0 is a cut through z
    spectrum: Optional[tuple] = None    # eigh(X) of a PSD-feasible point


@dataclass(frozen=True)
class SolveResult:
    value: float
    X: np.ndarray                       # repaired density matrix, the witness
    iterations: int
    cap: int                            # iteration cap of the volume bound
    cuts_feasibility: int
    cuts_objective: int
    certified_gap: float
    lower_bound: float
    max_feasible_distance: float


def certified_ball(inst: SdpInstance, c_matrix: ComplexMatrix) -> CertifiedBall:
    """The explicit ball data: G = `sdp.ball_center(inst)` strictly
    feasible, inner radius 1/n inside the affine subspace, outer radius
    12 + 4*frob_ceiling, in its chart.

    Every check is exact: the instance's A + iB is C entrywise, S - I is
    PSD, and G satisfies all N + 4 constraints of `sdp.constraints`, with
    <F, G> read off the two sparse lists."""
    n = inst.n
    if c_matrix.n != n:
        raise ValueError("instance was not built from this matrix")
    for ra, rb, rc in zip(inst.a.entries, inst.b.entries, c_matrix.entries):
        for a, b, c in zip(ra, rb, rc):
            # Re(A + iB) = Re A - Im B, Im(A + iB) = Im A + Re B
            if a.re - b.im != c.re or a.im + b.re != c.im:
                raise ValueError("instance was not built from this matrix")
    g = sdp.ball_center(inst)
    entry = {(i, j): v for i, j, v in g}
    k = 2 * n
    # S - I PSD: diagonal and determinant conditions
    s00, s01, s11 = entry[k, k] - 1, entry[k, k + 1], entry[k + 1, k + 1] - 1
    if not (s00 >= 0 and s11 >= 0 and s00 * s11 - s01 * s01 >= 0):
        raise ValueError("S - I is not PSD; the ball center is not interior")
    for num, (f, b) in enumerate(sdp.constraints(inst), start=1):
        # an off-diagonal entry of the upper triangle counts twice
        on = [(v if i == j else 2 * v, entry[i, j]) for i, j, v in f if (i, j) in entry]
        if (exact_dot(*zip(*on)) if on else 0) != b:
            raise ValueError(f"the ball center violates constraint F_{num}")
    return CertifiedBall(
        center=g,
        inner_r=Fraction(1, n),
        outer_R=Fraction(12 + 4 * inst.frob_ceiling),
        chart=build_chart(inst),
    )


def _traceless_basis(n: int) -> np.ndarray:
    """Frobenius-orthonormal basis of the traceless Hermitian n x n
    matrices, (n^2 - 1, n, n) complex: the Helmert diagonals, then for
    each i < j the symmetric and the antisymmetric unit pair."""
    out = np.zeros((n * n - 1, n, n), dtype=complex)
    for k in range(1, n):
        out[k - 1, range(k), range(k)] = 1.0
        out[k - 1, k, k] = -k
        out[k - 1] /= math.sqrt(k * (k + 1))
    h = math.sqrt(0.5)
    k = n - 1
    for i in range(n):
        for j in range(i + 1, n):
            out[k, i, j] = out[k, j, i] = h
            out[k + 1, i, j], out[k + 1, j, i] = -1j * h, 1j * h
            k += 2
    return out


def build_chart(inst: SdpInstance) -> AffineChart:
    """The closed-form orthonormal chart of the d = n^2 dimensional
    equality-feasible subspace, whitened once by a Cholesky factor."""
    n = inst.n
    m = n * n - 1
    basis = _traceless_basis(n).reshape(m, n * n).view(float)
    ab = inst.pencil_flat @ basis.T
    chol = np.linalg.cholesky(2.0 * (np.eye(m) + ab.T @ ab))
    x_map = np.zeros((m + 1, 2 * n * n))
    x_map[:m] = np.linalg.solve(chol, basis)
    return AffineChart(
        inst=inst,
        x_origin=np.eye(n, dtype=complex).ravel().view(float) / n,
        x_map=x_map,
        pencil_grad=x_map @ inst.pencil_flat.T,
        chol=chol,
    )


def separation_oracle(chart: AffineChart, u: np.ndarray, best_value: float) -> Cut:
    """Classify the chart point u, Z = Z(X, r): PSD and improving, PSD but
    not improving (objective cut along the gradient of r at depth
    r - best_value), or not PSD (cut along the gradient of the violated
    block's v'Zv at depth -lambda_min - tol).  lambda(hat X) = lambda(X),
    each twice, and v'(hat X)v = w*Xw for the matching complex w, so the
    big block needs only X.  PSD tolerance is tol = 1e-9 (1 + ||Z||_F).
    The cut of a PSD-feasible point carries eigh(X), for its repair."""
    x = chart.density(u)
    wx, qx = np.linalg.eigh(x)
    a, b = chart.inst.pencil_values(x)
    r = chart.modulus(u)
    t = chart.inst.frob_ceiling + 2.0 - r
    m = math.hypot(a, b)
    lam_t = r - m
    # ||Z||_F^2 = 2 ||X||_F^2 + ||[[r+a, b], [b, r-a]]||_F^2 + t^2
    tol = 1e-9 * (1.0 + math.sqrt(2.0 * float(wx @ wx + r * r + m * m) + t * t))
    lam_x = float(wx[0])
    worst = min(lam_x, lam_t, t)

    if worst >= -tol:
        improving = r < best_value
        return Cut(
            kind="feasible_improving" if improving else "objective",
            normal=chart.objective_grad,
            min_eig=worst,
            objective=r,
            depth=0.0 if improving else r - best_value,
            spectrum=(wx, qx),
        )

    if worst == lam_x:
        w = qx[:, 0]
        normal = -(chart.x_map @ np.outer(w, w.conj()).ravel().view(float))
    elif worst == lam_t:
        # v'[[r+a, b], [b, r-a]]v = r + (p^2 - q^2) a + 2pq b for unit
        # v = (p, q); the smallest eigenvalue r - m is reached at
        # (p^2 - q^2, 2pq) = -(a, b) / m, and at m = 0 by every v
        normal = -chart.objective_grad
        if m > 0.0:
            normal = normal + chart.pencil_grad @ (a / m, b / m)
    else:
        # t = c + 2 - r
        normal = chart.objective_grad
    return Cut(
        kind="feasibility",
        normal=normal,
        min_eig=worst,
        objective=r,
        depth=max(0.0, -worst - tol),
    )


def repair_point(inst: SdpInstance, dens):
    """Round a nearly-feasible X into an exactly structured certificate.

    Clip X to the PSD cone, rescale it to trace 1 and take
    r = |<A,X> + i<B,X>|: Z(X, r) is feasible, and its objective r is a
    true numerical-range modulus, hence an upper bound on the optimum
    however rough X was.  `dens` is X, or its eigendecomposition
    `np.linalg.eigh(X)` when that is already at hand.  Returns
    w = <A,X> + i<B,X>, whose modulus is r, and the repaired X.
    """
    w, q = dens if isinstance(dens, tuple) else np.linalg.eigh(dens)
    w = np.maximum(w, 0.0)
    tr = float(w.sum())
    if tr <= 1e-6:
        raise ChartError("repair collapsed the trace; point was garbage")
    x = (q * (w / tr)) @ q.conj().T
    return complex(*inst.pencil_values(x)), x


def nearest_point_weights(w) -> list:
    """Convex weights of the point of conv{w_1, .., w_k} nearest 0, for
    k <= 3 points of the complex plane: barycentric weights when 0 lies
    in the triangle, else the nearest point of the nearest edge, a vertex
    when the projection falls off the edge (Wolfe's min-norm point,
    Math. Programming 11, 1976, in the plane)."""
    k = len(w)
    candidates = [[1.0] + [0.0] * (k - 1)]
    if k == 3:
        # twice the signed area of the triangle opposite each vertex
        areas = [(w[i - 2].conjugate() * w[i - 1]).imag for i in range(3)]
        total = sum(areas)
        if total != 0.0 and all(a * total >= 0.0 for a in areas):
            candidates.append([a / total for a in areas])
    for i in range(k):
        for j in range(i + 1, k):
            step = w[j] - w[i]
            norm2 = abs(step) ** 2
            t = 0.0 if norm2 == 0.0 else -(w[i].conjugate() * step).real / norm2
            t = min(max(t, 0.0), 1.0)
            lam = [0.0] * k
            lam[i], lam[j] = 1.0 - t, t
            candidates.append(lam)
    return min(candidates, key=lambda lam: abs(sum(l * p for l, p in zip(lam, w))))


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
    ball: CertifiedBall,
    eps: float,
    record: Optional[list] = None,
) -> SolveResult:
    """Minimize <F_0, Z> over the ball's instance to certified accuracy eps.

    Deterministic.  `record`, if given, collects best_cert each time it
    falls, so its values decrease.
    """
    if not (math.isfinite(eps) and eps > 0.0):
        raise ValueError("eps must be finite and positive")
    chart = ball.chart
    inst = chart.inst
    d = chart.dim
    p_mat = chart.initial_shape.copy()
    half_logdet = 0.5 * np.linalg.slogdet(p_mat)[1]
    # ||F_0||_F = 1: F_0 = diag(0, I_2 / 2, 0) for every instance
    cap = math.ceil(
        2 * (d + 1)
        * (half_logdet + d * math.log(3.0 / (float(ball.inner_r) * eps)))
    ) + 64

    z = np.zeros(d)
    best_cert = math.inf
    best_x: Optional[np.ndarray] = None
    # at most two repaired densities, with their w = <A,X> + i<B,X>, whose
    # hull with the next repaired center is searched for a point nearer 0
    kept: list = []
    # diagonal entries of a PSD matrix are nonnegative, so (u+w)/2 >= 0
    # on the whole cone; 0 is a certified lower bound from the start
    lb = 0.0
    n_feas = n_obj = 0
    max_dist = 0.0

    def result(it):
        return SolveResult(
            value=best_cert,
            X=best_x,
            iterations=it,
            cap=cap,
            cuts_feasibility=n_feas,
            cuts_objective=n_obj,
            certified_gap=best_cert - lb,
            lower_bound=lb,
            max_feasible_distance=max_dist,
        )

    for it in range(1, cap + 1):
        cut = separation_oracle(chart, z, best_cert)
        obj_center = cut.objective

        if cut.kind != "feasibility":
            max_dist = max(max_dist, math.sqrt(z @ z))
            points = kept + [repair_point(inst, cut.spectrum)]
            lam = nearest_point_weights([w for w, _ in points])
            kept = [p for l, p in zip(lam, points) if l > 0.0]
            if len(kept) == 1:
                w, x = kept[0]
            else:
                # w is linear in X, so the combination is feasible at
                # r = |w(X)|; repair only rounds it, and the value is read
                # off the repaired X, never off the planar arithmetic
                comb = sum(l * x for l, (_, x) in zip(lam, points) if l > 0.0)
                w, x = repair_point(inst, comb)
                if len(kept) == 3:
                    # 0 lies in the triangle: keep the combination alone
                    kept = [(w, x)]
            if abs(w) < best_cert:
                best_cert = abs(w)
                best_x = x
                if record is not None:
                    record.append(best_cert)

        # the objective's gradient is e_d / sqrt(3): P g is P's last column
        p_obj = p_mat[:, -1] * _RHO
        width = math.sqrt(max(float(p_obj[-1]) * _RHO, 0.0))
        lb = max(lb, min(best_cert, obj_center - width))
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
            # the cut leaves nothing of E: no feasible point has objective
            # below best_cert, so best_cert bounds the optimum from below
            if best_cert == math.inf:
                raise EllipsoidCapExceeded(
                    f"deep cut emptied the ellipsoid at iteration {it} before "
                    f"any center was feasible; certified lower bound {lb:.9g}",
                    best_cert, lb, it,
                )
            lb = best_cert
            return result(it)
        _shrink(z, p_mat, pg / root, alpha)
        if it % 50 == 0:
            p_mat = 0.5 * (p_mat + p_mat.T)

    raise EllipsoidCapExceeded(
        f"iteration cap {cap} exceeded (volume bound exhausted); "
        f"eps={eps:g} is likely below float64 resolution for this instance; "
        f"best {best_cert:.9g}, certified lower bound {lb:.9g}",
        best_cert, lb, cap,
    )
