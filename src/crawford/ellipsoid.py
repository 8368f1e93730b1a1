"""Deep-cut ellipsoid method for the block-diagonal SDP, run in a chart
of the affine constraint subspace, centred at the explicit strictly
feasible point G = Z(I/n, c + 1) (`sdp.ball_center`, exact and sparse)
and started from the Loewner ellipsoid of a cylinder that provably holds
the feasible set.

The chart is closed-form.  Every equality-feasible point is
Z(X, r) = diag(hat X, [[r + <A,X>, <B,X>], [<B,X>, r - <A,X>]], c + 2 - r)
with X Hermitian of trace 1 (`sdp.assemble_feasible_point`, a dense
float array), so the subspace has dimension d = n^2.  The solver itself
works on X and r alone.  Write X = I/n + sum_k xi_k H_k over a
Frobenius-orthonormal basis H_k of the traceless Hermitian matrices, and
r = c + 1 + rho; xi = 0, rho = 0 is the ball center G.  A step
(dX, dr) moves Z by

  ||dZ||_F^2 = 2 ||dX||_F^2 + 2 <A,dX>^2 + 2 <B,dX>^2 + 3 dr^2
             <= 2 (1 + c^2) ||dxi||^2 + 3 dr^2,

as <A,dX>^2 + <B,dX>^2 <= (||A||_F^2 + ||B||_F^2) ||dX||_F^2 =
||C||_F^2 ||dX||_F^2 and c >= ||C||_F.  So u = (sigma xi, sqrt(3) rho),
sigma = sqrt(2 (1 + c^2)), is a contraction, ||dZ||_F <= ||du||, and
the 1/n-ball in u maps into the feasible 1/n-ball about G
(`CertifiedBall.inner_r`).  `api.crawford` solves C/s with ||C/s||_F <= 1
at c = 1, where sigma = 2.  The ellipsoid method is affine-invariant
(Groetschel, Lovasz & Schrijver 1988), so the chart moves only the
iteration cap, through that inner ball.  The objective
r = c + 1 + u_d / sqrt(3) depends on u_d alone.

E_0 holds every feasible point, and nothing larger is needed:

  X   X is PSD with trace 1, so tr X^2 <= 1 and
      ||xi||^2 = ||X - I/n||_F^2 = tr X^2 - 1/n <= 1 - 1/n;
  r   the 2x2 block is PSD, so r >= |<A,X> + i<B,X>| >= 0, and
      t = c + 2 - r >= 0, so 0 <= r <= c + 2 and |u_d| <= sqrt(3)(c + 1).

With m = d - 1 and u_x = sigma xi, that is the cylinder
{||u_x||^2 <= sigma^2 (1 - 1/n)} x {|u_d| <= sqrt(3)(c + 1)}, whose
minimum-volume (Loewner) ellipsoid centred at G is

  P_0 = diag(kappa sigma^2 I_m, q),  kappa = ((m + 1)/m)(1 - 1/n),
                                     q = 3 (m + 1)(c + 1)^2:

for the unit cylinder, |x|^2/p + y^2/q <= 1 holds it iff 1/p + 1/q <= 1,
and p^(m/2) q^(1/2) is least at p = (m + 1)/m, q = m + 1; scaling the
axes carries that to P_0.  At n = 1 (m = 0) E_0 is the interval itself,
P_0 = 3 (c + 1)^2.  So ln det P_0 = m ln(kappa sigma^2) + ln q.  The
R-ball of `CertifiedBall.outer_R` holds the feasible set too, but with
radius 12 + 4c in every direction.

Iteration cap: each step shrinks the volume of E by at least
exp(-1/(2(d + 1))).  The objective r ranges over [0, c + 2] on the
feasible set, so shrinking the inner ball toward an optimum by
min(1, eps/(c + 2)) leaves a ball of near-optimal feasible points, which
E keeps while the gap is open, and the run ends within

  cap = ceil(2 (d + 1) (1/2 ln det P_0 + d ln(n max(1, (c + 2)/eps)))) + 64

steps (Bland, Goldfarb & Todd, Oper. Res. 29(6), 1981).  Both terms are
nonnegative, so the cap is at least 64 at every eps.

The solver keeps two bounds per run:

  best_cert  the lowest *certified* value: the objective r = |w(X)|,
             w(X) = <A,X> + i<B,X>, of a density X (G's I/n, or a
             repaired one: clipped to the PSD cone, trace rescaled to 1),
             so Z(X, r) is feasible and r is a genuine upper bound on the
             optimum,
  lb         a certified lower bound, the largest of 0 and, over the
             iterations, min(best_cert, obj(center_k) - sqrt(g' P_k g))
             and min(best_cert, lambda_min(cos t A + sin t B)) at each
             eigen-solve of the ascent below.  The first is valid
             because the cut rules never discard a feasible point with
             objective below the current best_cert; the second by weak
             duality, as |z| >= Re(e^{-it} z) >= lambda_min(cos t A +
             sin t B) for every z = w(X) of a density X and every t (Rump,
             Acta Numerica 19, 2010, on such a-posteriori bounds).  A
             certificate that falls a few ulps of rounding below a
             lambda_min already taken pulls lb down with it, so
             lb <= best_cert always.

The objective's minimum over E lags well behind the optimum, so on its
own lb closes the gap only as E shrinks onto it.  The dual bound is
within eps of the optimum once t is near the optimal direction.
A feasible centre's density reaches that direction only about when its
value nears the optimum, so before its first step the solver does not
wait for E: from G's density I/n, w = tr C / n, it climbs f(t) =
lambda_min(H(t)), H(t) = cos t A + sin t B, the paper's dual, from
t = arg w.  Each step takes one eigh(H(t)): lambda_0
raises lb, and the least eigenvector v gives the density vv*, whose
w(vv*) is the point of W(C) extreme in the direction -e^{it} (Johnson,
SIAM J. Numer. Anal. 15, 1978), Re(e^{-it} w(vv*)) = lambda_0.  Each
such support point w_k bounds f(s) <= Re(e^{-is} w_k) at every s.  The
step is one of two kinds:

  Newton  where Newton's model holds: lambda_0 rose strictly above the
          last solve's lambda_0, which is >= 0 (0 before the first
          solve), n > 1, and lambda_1 > lambda_0.  vv* is offered and
          kept as a support point (the last two are kept), and with
          (lambda_k, q_k) the other eigenpairs and H'(t) = -sin t A +
          cos t B (so H'' = -H),

            f'(t)  = v* H' v = Im(e^{-it} w(vv*)),
            -f''(t) = lambda_0 + 2 sum_{k>=1} |q_k* H' v|^2 / (lambda_k - lambda_0)

          (Mengi & Overton, IMA J. Numer. Anal. 25(4), 2005, on such
          eigenvalue derivatives), t <- t + f'/(-f'').  Near a smooth
          maximum the iterates converge quadratically.  The simpler
          fixed point t <- arg w(vv*) is the same step with lambda_0 as
          the curvature; it drops the positive sum, so it overshoots and
          at best converges linearly;
  Wolfe   elsewhere: at lambda_0 <= 0, at an overshoot, or at a double
          lambda_0, where f has a kink.  vv* joins the hull of the
          support points, and its point nearest 0 is offered
          (`hull_step`, Wolfe's planar min-norm point, Math. Programming
          11, 1976).  The maximizer over s of min_k Re(e^{-is} w_k) lies
          in the direction of that point, so this is Kelley's
          cutting-plane step on the dual (J. SIAM 8(4), 1960): at a kink
          the support points of the two branches span the flat edge of
          W(C) that holds the nearest point, and at chi = 0 three of them
          around 0 give a combination with |w| near 1e-16.  The next
          solve is at the angle of best_cert's w, whether or not the step
          lowered it: where Newton overshoots because -f'' = lambda_0 is
          small (W(C) of a normal C is a segment, and the sum is 0), that
          angle is the one left to try.

The ascent runs once, before the first step.  It ends when the gap is
<= eps, or when a Wolfe step sends it to an angle it has already solved;
`_ASCENT_STEPS` bounds its eigen-solves.  Nearly every solve, chi = 0 and
chi > 0, kinked or near the boundary of W(C), then returns with G as its
one centre; otherwise the deep-cut loop below runs from G, and nothing in
it starts another ascent.

The candidates for best_cert are densities of two kinds.  Z(X, r) is
feasible exactly when X is a density and |w(X)| <= r <= c + 2, and w is
linear in X, so every convex combination of densities X_i is feasible at
r = |sum lambda_i w(X_i)|.

  feasible   G's I/n, offered first, and each PSD-feasible center of
             the loop, repaired from the eigendecomposition the oracle
             took;
  dual       vv* at a Newton step, and the hull's nearest point at a
             Wolfe step: vv* itself or a repaired combination of support
             points.  v is a null vector of the dual slack H - lambda_min
             I, and by complementary slackness an optimal X lies in that
             null space at the optimal t, so vv* is an optimum there, and
             near the optimal t its value |w(vv*)| is close to the
             optimum.  Values are read off the density with
             `pencil_values`, never off lambda_min or the planar
             arithmetic.

`SolveResult.falls` holds best_cert at each fall, of either kind: G's
first, then the ascent's dual falls, then the loop's feasible ones.

Each step keeps the part of the ellipsoid E on the far side of a deep
cut {x : g.(x - z) <= -depth} (Bland, Goldfarb & Todd, Oper. Res. 29(6),
1981, section 3):

  feasibility  the eigenvector cut at a violated block, backed off by
               the PSD tolerance, depth = -lambda_min - tol, where
               lambda_min (`Cut.min_eig`) is the smallest eigenvalue of
               the block cut on.  Any violated block gives a valid cut,
               so the cheap blocks come first: the 2x2 block
               (lambda_min = r - |w(X)|) or the scalar t = c + 2 - r,
               whichever is lower, when either is violated, and X's
               eigenvector cut, the only one that needs eigh(X), only
               when both hold,
  objective    at a PSD-feasible centre, the level set obj <= best_cert,
               depth = max(0, obj(z) - best_cert) (0 on an improving
               step, a central cut).

Neither discards a feasible point with objective below best_cert, so
every optimum stays in E.  When a cut leaves nothing of E
(alpha = depth / sqrt(g' P g) >= 1), no feasible point has objective
below best_cert, so best_cert is also a lower bound: lb becomes best_cert
and the run returns.  G's density holds best_cert before the first cut,
so such a cut always has a certificate to return.

Termination: best_cert - lb <= eps, so the reported value is within eps
of the true optimum in both directions (up to float evaluation noise).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import chain
from typing import Optional

import numpy as np

from . import sdp
from .linalg import ComplexMatrix
from .sdp import SdpInstance, assemble_feasible_point

# r = c + 1 + u_d / sqrt(3): the objective's gradient in the chart
_RHO = 1.0 / math.sqrt(3.0)

# the only bound on the eigen-solves of the ascent in t, Newton and Wolfe
# steps alike; its stop rules end it long before (at most 6 on far-centre
# instances, 11 near the boundary of W(C), 21 on [[10^9, 1], [0, 2i]]
# about 3)
_ASCENT_STEPS = 32


class ChartError(RuntimeError):
    """A certificate failed in float64: a repair that met a point far off
    the chart (a construction bug)."""


class EllipsoidCapExceeded(RuntimeError):
    """The run ended before the certified gap closed: the iteration cap
    was hit, or the ellipsoid degenerated; usually the requested epsilon
    is below what float64 can certify here.

    `result` is the run's `SolveResult` so far: best_cert, at most G's
    |tr C| / n, as its value, with its lower bound and iteration.
    """

    def __init__(self, reason: str, result: SolveResult):
        super().__init__(
            f"{reason}; best {result.value:.9g}, "
            f"certified lower bound {result.lower_bound:.9g}"
        )
        self.reason = reason
        self.result = result
        # a copy of result.iterations, kept because perfbench/tracing.py
        # reads e.iterations
        self.iterations = result.iterations


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
    """Chart u -> Z(X, r) of the equality-feasible affine subspace, u = 0
    at G, a contraction in the Frobenius norm (see the module docstring).
    Complex n x n matrices are laid out as 2n^2 floats, as in
    `SdpInstance.pencil_flat`, so <W, X> = Re tr(W* X) is a dot product."""

    inst: SdpInstance
    sigma: float                        # sqrt(2 (1 + c^2)), u_x = sigma xi

    @property
    def n(self) -> int:
        return self.inst.n

    @property
    def dim(self) -> int:
        """d = n^2: n^2 - 1 traceless coordinates and the last, rho's."""
        return self.n * self.n

    # The dense maps are built on first use: only the deep-cut loop and
    # verify's inner-ball check read them, and a solve that the ascent
    # closes never does.

    @cached_property
    def x_origin(self) -> np.ndarray:
        """(2n^2,): I/n."""
        n = self.n
        return np.eye(n, dtype=complex).ravel().view(float) / n

    @cached_property
    def x_map(self) -> np.ndarray:
        """(d, 2n^2): u -> X - I/n, the traceless basis over sigma; the
        last row, rho's, is 0."""
        n, m = self.n, self.dim - 1
        out = np.zeros((m + 1, 2 * n * n))
        out[:m] = _traceless_basis(n).reshape(m, n * n).view(float) / self.sigma
        return out

    @cached_property
    def pencil_grad(self) -> np.ndarray:
        """(d, 2): the gradients of <A,X> and <B,X> in u."""
        return self.x_map @ self.inst.pencil_flat.T

    @cached_property
    def objective_grad(self) -> np.ndarray:
        """Gradient of r, the objective, in u."""
        e = np.zeros(self.dim)
        e[-1] = _RHO
        return e

    def _initial_scales(self) -> tuple:
        # P_0 = diag(kappa sigma^2 I_m, q) with m = d - 1; at n = 1 (m = 0)
        # P_0 = q alone
        m = self.dim - 1
        kappa = (m + 1) / m * (1.0 - 1.0 / self.n) if m else 1.0
        return m, kappa * self.sigma**2, (m + 1) * 3.0 * (self.inst.frob_ceiling + 1) ** 2

    @cached_property
    def initial_shape(self) -> np.ndarray:
        """P_0 of E_0 = {u : u' P_0^-1 u <= 1}, the Loewner ellipsoid of
        the cylinder {||xi|| <= sqrt(1 - 1/n)} x {|u_d| <= sqrt(3)(c + 1)}
        that holds every feasible point (see the module docstring)."""
        m, p, q = self._initial_scales()
        return np.diag(np.append(np.full(m, p), q))

    @property
    def initial_log_det(self) -> float:
        """ln det P_0 = m ln(kappa sigma^2) + ln q."""
        m, p, q = self._initial_scales()
        return m * math.log(p) + math.log(q)

    # density, modulus and point take one u of shape (d,) or a batch of
    # shape (k, d), and return one value or k of them

    def density(self, u: np.ndarray) -> np.ndarray:
        flat = self.x_origin + u @ self.x_map
        return flat.view(complex).reshape(flat.shape[:-1] + (self.n, self.n))

    def modulus(self, u: np.ndarray):
        rho = _RHO * np.asarray(u)[..., -1]
        return self.inst.frob_ceiling + 1.0 + (rho if rho.ndim else float(rho))

    def point(self, u: np.ndarray) -> np.ndarray:
        return assemble_feasible_point(self.inst, self.density(u), self.modulus(u))


@dataclass(slots=True)
class Cut:
    """The halfspace {x : normal.(x - z) <= -depth} that keeps every
    feasible chart point with objective below the current best_cert."""

    kind: str                           # feasibility | objective (PSD-feasible)
    normal: np.ndarray                  # chart coordinates
    min_eig: float                      # least eigenvalue of the block cut on
    objective: float
    depth: float                        # >= 0; 0 is a cut through z
    spectrum: Optional[tuple] = None    # eigh(X), at a PSD-feasible point
    block: Optional[str] = None         # feasibility: spectral | modulus | ceiling


@dataclass(frozen=True)
class SolveResult:
    """One solve's certified bracket lower_bound <= optimum <= value and
    how it was reached, in the units of the solved instance.  The field
    comments are the definitions; `api.crawford` reports every field but
    value and X in `solver_stats`, with the bounds times s."""

    value: float                        # best_cert, an upper bound on the optimum
    X: np.ndarray                       # best_cert's density matrix, the witness
    iterations: int                     # centres visited, G first; 1 if the ascent closes
    iteration_cap: int                  # the volume bound on the steps (module docstring)
    cuts_feasibility: int               # cuts_spectral + cuts_modulus + cuts_ceiling
    cuts_objective: int                 # cuts at PSD-feasible centres
    cuts_spectral: int                  # on X, after its spectrum
    cuts_modulus: int                   # on the 2x2 block, no spectrum taken
    cuts_ceiling: int                   # on the scalar t, no spectrum taken
    certified_gap: float                # value - lower_bound
    lower_bound: float                  # lb, a certified lower bound on the optimum
    max_feasible_distance: float        # largest ||u|| of a PSD-feasible centre visited
    lower_bound_dual: Optional[float]   # best lambda_min(cos t A + sin t B) taken;
                                        # None when tr C = 0 makes best_cert 0 at G
    certs_dual: int                     # best_cert falls to vv* or a Wolfe hull point
    dual_solves: int                    # eigen-solves of cos t A + sin t B, both step kinds
    closed_by: str                      # feasible | dual: best_cert's kind
    falls: tuple                        # best_cert at each fall, G's first, decreasing


def certified_ball(inst: SdpInstance, c_matrix: ComplexMatrix) -> CertifiedBall:
    """The explicit ball data: G = `sdp.ball_center(inst)` strictly
    feasible, inner radius 1/n inside the affine subspace, outer radius
    12 + 4*frob_ceiling, in its chart.

    Every check is exact and runs in integers: the instance's A + iB is
    C entrywise, S - I is PSD, and G satisfies all N + 4 constraints of
    `sdp.constraints`, with <F, G> read off the two sparse lists.  D G is
    integral for D the lcm of G's denominators, and each row is int
    numerators F_num over its denominator den, F = F_num / den, so
    <F, G> = b is checked as <F_num, D G> = D den b.  The chart is built
    here, but its dense maps only on first use."""
    n = inst.n
    a, b, c = inst.a, inst.b, c_matrix
    if c.n != n:
        raise ValueError("instance was not built from this matrix")
    # Re(A + iB) = Re A - Im B and Im(A + iB) = Im A + Re B, over the lcm
    l = math.lcm(a.den, b.den, c.den)
    sa, sb, sc = l // a.den, l // b.den, l // c.den
    parts = (a.re, a.im, b.re, b.im, c.re, c.im)
    for ar, ai, br, bi, cr, ci in zip(*(chain.from_iterable(x) for x in parts)):
        if ar * sa - bi * sb != cr * sc or ai * sa + br * sb != ci * sc:
            raise ValueError("instance was not built from this matrix")
    g = sdp.ball_center(inst)
    d = math.lcm(*(v.denominator for _, _, v in g))
    dg = {(i, j): v.numerator * (d // v.denominator) for i, j, v in g}
    k = 2 * n
    # D (S - I) PSD: diagonal and determinant conditions
    s00, s01, s11 = dg[k, k] - d, dg[k, k + 1], dg[k + 1, k + 1] - d
    if not (s00 >= 0 and s11 >= 0 and s00 * s11 - s01 * s01 >= 0):
        raise ValueError("S - I is not PSD; the ball center is not interior")
    # an off-diagonal entry of the upper triangle counts twice
    weight = {ij: w if ij[0] == ij[1] else 2 * w for ij, w in dg.items()}
    for num, (f, den, rhs) in enumerate(sdp.constraints(inst), start=1):
        dot = 0
        for i, j, p in f:
            w = weight.get((i, j))
            if w is not None:
                dot += p * w
        if dot != d * den * rhs:
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
    """The closed-form chart of the d = n^2 dimensional equality-feasible
    subspace: the traceless basis over sigma = sqrt(2 (1 + c^2)), whose
    dense maps `AffineChart` builds on first use."""
    return AffineChart(inst=inst, sigma=math.sqrt(2.0 * (1 + inst.frob_ceiling**2)))


def separation_oracle(chart: AffineChart, u: np.ndarray, best_value: float) -> Cut:
    """Classify the chart point u, Z = Z(X, r): PSD (objective cut along
    the gradient of r at depth max(0, r - best_value), a central cut when
    r improves on best_value), or not PSD (cut along the gradient of a
    violated block's v'Zv at depth -lambda_min - tol).  PSD tolerance is
    tol = 1e-9 (1 + ||Z||_F).

    X is read once, as its flat layout.  The 2x2 and scalar blocks come
    first: their eigenvalues r - |w(X)| and t = c + 2 - r are closed-form,
    and when either is below -tol the more violated of the two gives the
    cut, with no spectrum of X.  Only when both hold is X's spectrum taken:
    lambda(hat X) = lambda(X), each twice, and v'(hat X)v = w*Xw for the
    matching complex w, so the big block needs only X.  The cut of a
    PSD-feasible point carries eigh(X), for its repair."""
    inst = chart.inst
    flat = chart.x_origin + u @ chart.x_map
    a, b = (inst.pencil_flat @ flat).tolist()
    r = chart.modulus(u)
    t = inst.frob_ceiling + 2.0 - r
    m = math.hypot(a, b)
    lam_t = r - m
    # ||Z||_F^2 = 2 ||X||_F^2 + ||[[r+a, b], [b, r-a]]||_F^2 + t^2
    xx = float(flat @ flat)
    tol = 1e-9 * (1.0 + math.sqrt(2.0 * (xx + r * r + m * m) + t * t))

    if lam_t < -tol or t < -tol:
        if lam_t <= t:
            # v'[[r+a, b], [b, r-a]]v = r + (p^2 - q^2) a + 2pq b for unit
            # v = (p, q); the smallest eigenvalue r - m is reached at
            # (p^2 - q^2, 2pq) = -(a, b) / m, and at m = 0 by every v
            block, worst = "modulus", lam_t
            normal = -chart.objective_grad
            if m > 0.0:
                normal = normal + chart.pencil_grad @ (a / m, b / m)
        else:
            block, worst, normal = "ceiling", t, chart.objective_grad
        return Cut(
            kind="feasibility",
            normal=normal,
            min_eig=worst,
            objective=r,
            depth=max(0.0, -worst - tol),
            block=block,
        )

    n = chart.n
    wx, qx = np.linalg.eigh(flat.view(complex).reshape(n, n))
    lam_x = float(wx[0])
    if lam_x < -tol:
        w = qx[:, 0]
        ww = (w[:, None] * w.conj()).ravel().view(float)
        return Cut(
            kind="feasibility",
            normal=-(chart.x_map @ ww),
            min_eig=lam_x,
            objective=r,
            depth=max(0.0, -lam_x - tol),
            block="spectral",
        )

    return Cut(
        kind="objective",
        normal=chart.objective_grad,
        min_eig=min(lam_x, lam_t, t),
        objective=r,
        depth=max(0.0, r - best_value),
        spectrum=(wx, qx),
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


def hull_step(inst: SdpInstance, support: list, point: tuple) -> tuple:
    """One planar min-norm step: `point`, a density with its w, joins the
    at most two `support` ones, and the point of their hull nearest 0 is
    taken.  Returns the new support list (the densities of positive
    weight, or the combination alone when 0 lies in their triangle) and
    that point as (w, X).  w is linear in X, so a combination of
    densities is feasible at r = |w(X)|; repair only rounds it, and w is
    read off the repaired X, never off the planar arithmetic."""
    points = support + [point]
    lam = nearest_point_weights([w for w, _ in points])
    kept = [p for l, p in zip(lam, points) if l > 0.0]
    if len(kept) == 1:
        return kept, kept[0]
    comb = sum(l * x for l, (_, x) in zip(lam, points) if l > 0.0)
    w, x = repair_point(inst, comb)
    return ([(w, x)] if len(kept) == 3 else kept), (w, x)


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
    step = tau * b
    z -= step
    # sqrt(sigma) b on both sides, written over tau b: entries (i, j) and
    # (j, i) multiply the same two floats, so P stays exactly symmetric
    np.multiply(b, math.sqrt(sigma), out=step)
    p_mat -= step[:, None] * step
    p_mat *= d * d * (1.0 - alpha * alpha) / (d * d - 1.0)


def solve(ball: CertifiedBall, eps: float) -> SolveResult:
    """Minimize <F_0, Z> over the ball's instance to certified accuracy eps.

    Deterministic.  The first certificate is G's density I/n, with w =
    tr C / n, and one ascent on t from t = arg w raises lambda_min(cos t A
    + sin t B): Newton steps where its model holds, and elsewhere Wolfe
    steps on the support points its eigenvectors give (see the module
    docstring).  When it leaves the gap open, the deep-cut loop runs from
    G, whose feasible centres offer their repaired densities.  Raises
    `EllipsoidCapExceeded`, with the result so far, when the gap is still
    open at the cap or the ellipsoid degenerates.
    """
    if not (math.isfinite(eps) and eps > 0.0):
        raise ValueError("eps must be finite and positive")
    chart = ball.chart
    inst = chart.inst
    n = chart.n
    d = chart.dim
    # E keeps the inner ball shrunk toward an optimum by min(1, eps/(c + 2))
    spread = inst.frob_ceiling + 2.0
    cap = math.ceil(
        2 * (d + 1)
        * (0.5 * chart.initial_log_det
           + d * math.log(max(1.0, spread / eps) / float(ball.inner_r)))
    ) + 64

    # best_cert = |best_w|, w = <A,X> + i<B,X> of its density best_x
    best_w = 0j
    best_cert = 0.0
    best_x = None
    # diagonal entries of a PSD matrix are nonnegative, so (u+w)/2 >= 0
    # on the whole cone; 0 is a certified lower bound from the start
    lb = 0.0
    # the best lambda_min(cos t A + sin t B), None until one is taken
    lb_dual: Optional[float] = None
    n_obj = 0
    n_feas = {"spectral": 0, "modulus": 0, "ceiling": 0}
    n_certs_dual = 0
    n_dual_solves = 0
    # the kind of certificate that holds best_cert
    closed_by = ""
    falls = []
    max_dist = 0.0

    def fall(w, x, kind):
        nonlocal best_w, best_cert, best_x, closed_by, lb
        best_w, best_cert, best_x, closed_by = w, abs(w), x, kind
        # lb may stand at a lambda_min that this certificate undercuts by
        # a few ulps of rounding
        lb = min(lb, best_cert)
        falls.append(best_cert)

    def pencil(c, s):
        # c A + s B, an n x n complex Hermitian matrix
        return (np.array([c, s]) @ inst.pencil_flat).view(complex).reshape(n, n)

    def result(it):
        return SolveResult(
            value=best_cert,
            X=best_x,
            iterations=it,
            iteration_cap=cap,
            cuts_feasibility=sum(n_feas.values()),
            cuts_objective=n_obj,
            cuts_spectral=n_feas["spectral"],
            cuts_modulus=n_feas["modulus"],
            cuts_ceiling=n_feas["ceiling"],
            certified_gap=best_cert - lb,
            lower_bound=lb,
            max_feasible_distance=max_dist,
            lower_bound_dual=lb_dual,
            certs_dual=n_certs_dual,
            dual_solves=n_dual_solves,
            closed_by=closed_by,
            falls=tuple(falls),
        )

    # G = Z(I/n, c + 1) is strictly feasible (`certified_ball`), so I/n
    # is a density and needs no repair
    x = np.eye(n, dtype=complex) / n
    fall(complex(*inst.pencil_values(x)), x, "feasible")
    if best_cert > 0.0:
        # each eigen-solve of the pencil raises lb, and its least
        # eigenvector v gives the support point vv*.  Where Newton's model
        # holds, vv* is offered and Newton steps t; elsewhere a Wolfe step
        # on the last support points and vv* is offered, and the next
        # solve is at best_cert's angle, unless that angle was solved
        cos_t, sin_t = best_w.real / best_cert, best_w.imag / best_cert
        support = [(best_w, best_x)]
        solved = set()
        lam_prev = 0.0
        for _ in range(_ASCENT_STEPS):
            solved.add((cos_t, sin_t))
            lams, vecs = np.linalg.eigh(pencil(cos_t, sin_t))
            n_dual_solves += 1
            lam = float(lams[0])
            lb_dual = lam if lb_dual is None else max(lb_dual, lam)
            lb = max(lb, min(best_cert, lam))
            v = vecs[:, 0]
            xv = v[:, None] * v.conj()
            wv = complex(*inst.pencil_values(xv))
            # Newton's model holds where lambda_min rose above the last one
            # (or 0) and is simple; at n = 1 there is no other eigenvalue
            # to curve f
            newton = n > 1 and lam > lam_prev >= 0.0 and lams[1] > lam
            lam_prev = lam
            if newton:
                support = [*support, (wv, xv)][-2:]
            else:
                support, (wv, xv) = hull_step(inst, support, (wv, xv))
            if abs(wv) < best_cert:
                fall(wv, xv, "dual")
                n_certs_dual += 1
            if best_cert - lb <= eps:
                break
            if newton:
                # f(t) = lambda_min(H(t)), H = cos t A + sin t B, H' = -sin t
                # A + cos t B: f' = v*H'v = Im(e^{-it} w(vv*)), and with
                # H'' = -H, -f'' = lambda_0 + 2 sum_k |q_k* H'v|^2 /
                # (lambda_k - lambda_0)
                slope = cos_t * wv.imag - sin_t * wv.real
                proj = vecs[:, 1:].conj().T @ (pencil(-sin_t, cos_t) @ v)
                gaps = lams[1:] - lam
                curv = lam + 2.0 * float((proj.real**2 + proj.imag**2) @ (1.0 / gaps))
                t = math.atan2(sin_t, cos_t) + slope / curv
                cos_t, sin_t = math.cos(t), math.sin(t)
            else:
                cos_t, sin_t = best_w.real / best_cert, best_w.imag / best_cert
                if (cos_t, sin_t) in solved:
                    break
    # G is the first centre: at G the objective's minimum over E_0 is
    # c + 1 - (c + 1) sqrt(d) <= 0, so only the ascent can have raised lb
    if best_cert - lb <= eps:
        return result(1)

    z = np.zeros(d)
    p_mat = chart.initial_shape.copy()
    for it in range(1, cap + 1):
        cut = separation_oracle(chart, z, best_cert)

        if cut.kind != "feasibility":
            max_dist = max(max_dist, math.sqrt(z @ z))
            w, x = repair_point(inst, cut.spectrum)
            if abs(w) < best_cert:
                fall(w, x, "feasible")

        # the objective's gradient is e_d / sqrt(3): g'Pg is P's last
        # diagonal entry over 3, and P g is P's last column over sqrt(3)
        gpg_obj = float(p_mat[-1, -1]) * _RHO * _RHO
        lb = max(lb, min(best_cert, cut.objective - math.sqrt(max(gpg_obj, 0.0))))
        if best_cert - lb <= eps:
            return result(it)

        if cut.kind == "feasibility":
            pg = p_mat @ cut.normal
            gpg = float(cut.normal @ pg)
            n_feas[cut.block] += 1
        else:
            pg = p_mat[:, -1] * _RHO
            gpg = gpg_obj
            n_obj += 1
        if not math.isfinite(gpg) or gpg <= 0.0:
            raise EllipsoidCapExceeded(
                "ellipsoid degenerated (numerical breakdown)", result(it)
            )
        root = math.sqrt(gpg)
        alpha = cut.depth / root
        if alpha >= 1.0:
            # the cut leaves nothing of E: no feasible point has objective
            # below best_cert, so best_cert bounds the optimum from below
            lb = best_cert
            return result(it)
        _shrink(z, p_mat, pg / root, alpha)

    raise EllipsoidCapExceeded(
        f"iteration cap {cap} exceeded (volume bound exhausted)", result(cap)
    )
