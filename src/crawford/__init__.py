"""Crawford number of a complex square matrix: certified SDP / ellipsoid
computation with an independent support-function cross-check.

chi(c, C) is the distance from the point c to the numerical range
W(C) = {x* C x : ||x|| = 1}.  The SDP route builds an exact standard-form
instance whose optimum equals chi, seeds the ellipsoid method with an
explicit strictly-feasible ball, and certifies the value from both sides.
The oracle route maximizes over support directions with a certified
Lipschitz branch-and-bound.  The two share no solving logic.
"""

from .api import (
    CrawfordQuery,
    CrawfordResult,
    Method,
    crawford,
    crawford_number,
    numerical_radius_upper,
)
from .ellipsoid import (
    AffineChart,
    CertifiedBall,
    EllipsoidCapExceeded,
    SolveResult,
    build_chart,
    certified_ball,
    separation_oracle,
    solve,
)
from .linalg import (
    ComplexMatrix,
    GaussianRational,
    HermitianPencil,
    clear_denominators,
    frobenius_ceiling,
    hat_embed,
    hat_upper,
    hermitian_split,
)
from .oracle import sample_boundary
from .sdp import (
    SdpInstance,
    annihilators,
    ball_center,
    build_instance,
    constraints,
    export_sdpa,
    objective,
    read_sdpa,
)

__version__ = "0.1.0"

__all__ = [
    "AffineChart",
    "CertifiedBall",
    "ComplexMatrix",
    "CrawfordQuery",
    "CrawfordResult",
    "EllipsoidCapExceeded",
    "GaussianRational",
    "HermitianPencil",
    "Method",
    "SdpInstance",
    "SolveResult",
    "annihilators",
    "ball_center",
    "build_chart",
    "build_instance",
    "certified_ball",
    "clear_denominators",
    "constraints",
    "crawford",
    "crawford_number",
    "export_sdpa",
    "frobenius_ceiling",
    "hat_embed",
    "hat_upper",
    "hermitian_split",
    "numerical_radius_upper",
    "objective",
    "read_sdpa",
    "sample_boundary",
    "separation_oracle",
    "solve",
]
