"""Crawford number of a complex square matrix: certified SDP / ellipsoid
computation with an independent support-function cross-check.

chi(c, C) is the distance from the point c to the numerical range
W(C) = {x* C x : ||x|| = 1}.  The SDP route builds an exact standard-form
instance whose optimum equals chi, seeds the ellipsoid method with an
explicit strictly-feasible ball, and certifies the value from both sides.
The oracle route maximizes over support directions with a certified
Lipschitz branch-and-bound.  The two share no solving logic.

The package re-exports the library API only: `crawford` with its query
and `Method`, and the types a caller builds (`ComplexMatrix`,
`GaussianRational`), receives (`CrawfordResult`) or catches
(`EllipsoidCapExceeded`).  Everything else is imported from its module:
`crawford.linalg`, `crawford.sdp`, `crawford.ellipsoid`,
`crawford.oracle`, `crawford.api` and `crawford.cli`.
"""

from .api import CrawfordQuery, CrawfordResult, Method, crawford
from .ellipsoid import EllipsoidCapExceeded
from .linalg import ComplexMatrix, GaussianRational

__version__ = "0.1.0"

__all__ = [
    "ComplexMatrix",
    "CrawfordQuery",
    "CrawfordResult",
    "EllipsoidCapExceeded",
    "GaussianRational",
    "Method",
    "crawford",
]
