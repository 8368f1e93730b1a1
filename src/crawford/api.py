"""High-level entry point: chi(c, C) by translation, denominator
clearing, SDP construction + ellipsoid solving, with the support-function
search available as an independent method and cross-check."""

from __future__ import annotations

import enum
import math
import time
from dataclasses import dataclass
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
    method_used: Method
    solver_stats: dict
    scale_factor: int
    ball: Optional[ellipsoid.CertifiedBall]  # SDP route only, with its chart


def numerical_radius_upper(c: ComplexMatrix) -> float:
    """||C||_F, an upper bound for the numerical radius and hence for chi."""
    return math.sqrt(float(c.frobenius_sq()))


def sdp_instance(t: ComplexMatrix):
    """The exact SDP instance for l*t, t with its denominators cleared:
    (instance, l*t, l).  Its optimum is l chi(0, t)."""
    cint, scale = clear_denominators(t)
    inst = sdp.build_instance(hermitian_split(cint), frobenius_ceiling(cint))
    return inst, cint, scale


def crawford(query: CrawfordQuery) -> CrawfordResult:
    """Compute chi(center, C) to within epsilon.

    SDP path: build the exact instance for the cleared-denominator
    translate, solve with the ellipsoid method at accuracy l*epsilon,
    divide by l.  Oracle path: certified support search at delta = epsilon.
    BOTH runs the two and reports the SDP value, with the oracle value
    and discrepancy in solver_stats.

    solver_stats carries perf_counter phase timings in seconds: setup_s
    (translation through the certified ball and its chart) and solve_s
    (the ellipsoid loop) on the SDP route, oracle_s (the support search
    and witness) on the oracle route; BOTH carries all three.
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
            method_used=query.method,
            solver_stats={"short_circuit": "zero matrix", "iterations": 0},
            scale_factor=1,
            ball=None,
        )

    stats: dict = {}
    chi_val = None
    nearest = None
    witness = None
    scale = 1
    ball = None

    if query.method in (Method.SDP_ELLIPSOID, Method.BOTH):
        inst, cint, scale = sdp_instance(t_mat)
        ball = ellipsoid.certified_ball(inst, cint)
        t_setup = time.perf_counter()
        res = ellipsoid.solve(ball, eps * scale)
        t_solve = time.perf_counter()
        chi_val = res.value / scale
        nearest = complex(*inst.pencil_values(res.X)) / scale
        witness = res.X
        stats.update(
            iterations=res.iterations,
            iteration_cap=res.cap,
            cuts_feasibility=res.cuts_feasibility,
            cuts_objective=res.cuts_objective,
            lower_bound=res.lower_bound / scale,
            certified_gap=res.certified_gap / scale,
            max_feasible_distance=res.max_feasible_distance,
            outer_R=float(ball.outer_R),
            epsilon_solver=eps * scale,
            scale_factor=scale,
            setup_s=t_setup - t_start,
            solve_s=t_solve - t_setup,
        )

    if query.method in (Method.ORACLE_SWEEP, Method.BOTH):
        t_oracle = time.perf_counter()
        search = oracle.support_search(t_mat, eps)
        orc_stats = {"evaluations": search.grid_size, "theta": search.theta}
        if query.method is Method.ORACLE_SWEEP:
            chi_val = search.chi
            scale = 1
            if search.chi > 0.0:
                x = oracle.minimizing_witness(
                    *oracle.hermitian_parts(t_mat), search.theta
                )
                nearest = complex(x.conj() @ t_mat.to_complex() @ x)
                witness = np.outer(x, x.conj())
            else:
                nearest = 0j
                witness = None
            stats.update(orc_stats)
            stats["iterations"] = search.grid_size
        else:
            stats["oracle_value"] = search.chi
            stats["oracle_theta"] = search.theta
            stats["discrepancy"] = abs(chi_val - search.chi)
        stats["oracle_s"] = time.perf_counter() - t_oracle

    bound = numerical_radius_upper(t_mat)
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
        method_used=query.method,
        solver_stats=stats,
        scale_factor=scale,
        ball=ball,
    )


def crawford_number(
    matrix: ComplexMatrix,
    center: GaussianRational = GaussianRational(0, 0),
    epsilon: float = 1e-6,
    method: Method = Method.SDP_ELLIPSOID,
) -> float:
    """Shorthand when only the value is wanted."""
    return crawford(
        CrawfordQuery(matrix=matrix, center=center, epsilon=epsilon, method=method)
    ).chi
