"""High-level entry point: chi(c, C) by translation, scaling by a power
of two, SDP construction + ellipsoid solving, with the support-function
search available as an independent method and cross-check."""

from __future__ import annotations

import dataclasses
import enum
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from . import ellipsoid, oracle, sdp
from .linalg import (
    ComplexMatrix,
    GaussianRational,
    clear_denominators,
    frobenius_ceiling,
    hermitian_split,
)


class Method(enum.Enum):
    SDP_ELLIPSOID = "sdp"
    ORACLE_SWEEP = "oracle"
    BOTH = "both"


@dataclass(frozen=True)
class CrawfordQuery:
    matrix: ComplexMatrix
    center: GaussianRational = GaussianRational(0, 0)
    epsilon: float = 1e-6
    method: Method = Method.SDP_ELLIPSOID

    def __post_init__(self):
        if not (math.isfinite(self.epsilon) and self.epsilon > 0.0):
            raise ValueError("epsilon must be finite and positive")


@dataclass(frozen=True)
class CrawfordResult:
    chi: float
    nearest_point: complex            # in the translated frame, |z| ~ chi
    nearest_point_original: complex   # nearest_point + center
    witness_X: Optional[np.ndarray]   # density matrix, None only for the
                                      # oracle path when chi clamps to 0
    solver_stats: dict
    scale_factor: Fraction            # s of `scaled_instance`; 1 off the SDP route
    ball: Optional[ellipsoid.CertifiedBall]  # SDP route only, with its chart


def numerical_radius_upper(c: ComplexMatrix) -> float:
    """||C||_F, an upper bound for the numerical radius and hence for chi."""
    return math.sqrt(float(c.frobenius_sq()))


def sdp_instance(t: ComplexMatrix):
    """The exact SDP instance for l*t, t with its denominators cleared:
    (instance, l*t, l).  Its optimum is l chi(0, t).  `crawford export`
    writes it; `crawford` solves `scaled_instance`."""
    cint, scale = clear_denominators(t)
    inst = sdp.build_instance(*hermitian_split(cint), frobenius_ceiling(cint))
    return inst, cint, scale


def scaled_instance(t: ComplexMatrix):
    """The exact SDP instance `crawford` solves: t/s with ceiling 1, for s
    = 2^k the least power of two with s^2 >= ||t||_F^2, so ||t/s||_F <= 1:
    (instance, t/s, s).  Its optimum is chi(0, t)/s.  k starts from the
    bit lengths of the exact squared norm num/den and is settled by
    checking 4^k den >= num in integers.  The zero matrix has no least
    such s: ValueError."""
    q = t.frobenius_sq()
    num, den = q.numerator, q.denominator
    if num == 0:
        raise ValueError("zero matrix: chi is 0, no instance to build")

    def covers(k):
        return (den << 2 * k) >= num if k >= 0 else den >= (num << -2 * k)

    # the start never covers too much: 4^(k - 1) den < 2^(bitlen(num) - 2)
    # < num, so the least covering k is the first one it reaches upward
    k = (num.bit_length() - den.bit_length()) // 2
    while not covers(k):
        k += 1
    s = Fraction(2) ** k
    ts = t.scale(1 / s)
    return sdp.build_instance(*hermitian_split(ts), 1), ts, s


def in_caller_units(res: ellipsoid.SolveResult, s: float) -> ellipsoid.SolveResult:
    """`res` of the instance C/s, with value, the bounds and best_cert's
    falls multiplied by s, the scale of C.  For s a power of two each
    product is exact in float."""
    return dataclasses.replace(
        res,
        value=res.value * s,
        lower_bound=res.lower_bound * s,
        certified_gap=res.certified_gap * s,
        lower_bound_dual=None if res.lower_bound_dual is None else res.lower_bound_dual * s,
        falls=tuple(f * s for f in res.falls),
    )


def crawford(query: CrawfordQuery) -> CrawfordResult:
    """Compute chi(center, C) to within epsilon.

    SDP path: build the exact instance for the translate over s, the
    least power of two with s >= ||C - cI||_F (`scaled_instance`, ceiling
    1), solve it with the ellipsoid method at accuracy epsilon/s, and
    multiply the value, the bounds and the nearest point by s
    (`in_caller_units`).  The solved instance, and so the iteration cap,
    is the same for C and 2^j C.  scale_factor is s, an exact Fraction
    that may be below 1.  solver_stats holds every `ellipsoid.SolveResult`
    field but value and X, whose comments define them, and outer_R,
    epsilon_solver (epsilon/s), scale_factor and the perf_counter phase
    timings in seconds: setup_s (translation through the certified ball
    and its chart) and solve_s (the ascent and, if it leaves a gap, the
    ellipsoid loop).  An `EllipsoidCapExceeded` is raised again in the
    same units, quoting epsilon and s.

    Oracle path: certified support search at delta = epsilon.  Wherever
    it runs, solver_stats gains evaluations (the search's evaluations of
    g), theta (the direction of the best one) and oracle_s (its time).
    BOTH runs the two routes and reports the SDP value and stats, and adds
    oracle_value, the search's chi, and discrepancy, |chi - oracle_value|.
    The zero matrix short-circuits to {"short_circuit": "zero matrix"}.
    """
    t_start = time.perf_counter()
    t_mat = query.matrix.translate(query.center)
    eps = query.epsilon
    center_c = complex(query.center)

    if t_mat.is_zero():
        n = t_mat.n
        return CrawfordResult(
            chi=0.0,
            nearest_point=0j,
            nearest_point_original=center_c,
            witness_X=np.eye(n, dtype=complex) / n,
            solver_stats={"short_circuit": "zero matrix"},
            scale_factor=Fraction(1),
            ball=None,
        )

    # raises OverflowError before any solve when ||C - cI||_F^2 is beyond
    # the float64 range
    bound = numerical_radius_upper(t_mat)
    stats: dict = {}
    chi_val = None
    nearest = None
    witness = None
    scale = Fraction(1)
    ball = None

    if query.method in (Method.SDP_ELLIPSOID, Method.BOTH):
        inst, ts, scale = scaled_instance(t_mat)
        ball = ellipsoid.certified_ball(inst, ts)
        t_setup = time.perf_counter()
        # s is a power of two: float(s) and every product with it are exact
        s = float(scale)
        eps_s = eps / s if s else math.inf
        if not 0.0 < eps_s < math.inf:
            k = scale.numerator.bit_length() - scale.denominator.bit_length()
            raise OverflowError(f"eps / s is {eps_s} at s = 2^{k}")
        try:
            res = in_caller_units(ellipsoid.solve(ball, eps_s), s)
        except ellipsoid.EllipsoidCapExceeded as e:
            raise ellipsoid.EllipsoidCapExceeded(
                f"{e.reason} at eps={eps:g}, s = {scale}; eps is likely below "
                "float64 resolution for this input",
                in_caller_units(e.result, s),
            ) from None
        t_solve = time.perf_counter()
        chi_val = res.value
        nearest = complex(*inst.pencil_values(res.X)) * s
        witness = res.X
        stats = {
            f.name: getattr(res, f.name)
            for f in dataclasses.fields(res)
            if f.name not in ("value", "X")
        }
        stats.update(
            outer_R=float(ball.outer_R),
            epsilon_solver=eps_s,
            scale_factor=scale,
            setup_s=t_setup - t_start,
            solve_s=t_solve - t_setup,
        )

    if query.method in (Method.ORACLE_SWEEP, Method.BOTH):
        t_oracle = time.perf_counter()
        search = oracle.support_search(t_mat, eps)
        if query.method is Method.ORACLE_SWEEP:
            chi_val = search.chi
            if search.chi > 0.0:
                x = oracle.minimizing_witness(
                    *oracle.hermitian_parts(t_mat), search.theta
                )
                nearest = complex(x.conj() @ t_mat.to_complex() @ x)
                witness = np.outer(x, x.conj())
            else:
                nearest = 0j
                witness = None
        stats.update(
            evaluations=search.grid_size,
            theta=search.theta,
            oracle_s=time.perf_counter() - t_oracle,
        )
        if query.method is Method.BOTH:
            stats.update(oracle_value=search.chi, discrepancy=abs(chi_val - search.chi))

    if chi_val > bound + eps:
        raise RuntimeError(
            f"reported chi {chi_val:.9g} exceeds the Frobenius bound "
            f"{bound:.9g} + eps; solver certificate is inconsistent"
        )

    return CrawfordResult(
        chi=chi_val,
        nearest_point=nearest,
        nearest_point_original=nearest + center_c,
        witness_X=witness,
        solver_stats=stats,
        scale_factor=scale,
        ball=ball,
    )

