"""Shared fixtures-in-spirit for the test suite: the reference 2x2
example with known chi, and random matrix generators."""

import math
from fractions import Fraction

import numpy as np

from crawford.linalg import ComplexMatrix, GaussianRational
from crawford.oracle import hermitian_parts, minimizing_witness, support_search


def gr(re, im=0):
    return GaussianRational(re, im)


# 2x2 reference case used throughout: chi(center, EXAMPLE_TILDE) with the
# center below equals chi(EXAMPLE) and is known to ~1.9230539.
EXAMPLE_TILDE = ComplexMatrix([[gr(0, 0), gr(0, -4)], [gr(2, 0), gr(0, 0)]])
EXAMPLE_CENTER = gr(-3, -1)
EXAMPLE = EXAMPLE_TILDE.translate(EXAMPLE_CENTER)

# the support-function search gives this value at delta = 1e-10; nearest
# point approx 1.5334 + 1.1605i at theta 0.6478506
CHI_EXAMPLE = 1.9230539413330539

# 3x3 with real parts over 3 and imaginary parts over 7: the lcm of the
# denominators is 21, their product 21^9
COPRIME_DENOMINATORS = ComplexMatrix(
    [
        [gr(Fraction(a, 3), Fraction(b, 7)) for a, b in zip(re, im)]
        for re, im in zip(
            [[5, 2, 2], [5, 1, 4], [4, -4, -5]],
            [[-3, -3, 5], [5, -6, -1], [4, -5, 4]],
        )
    ]
)

IDENTITY2 = ComplexMatrix([[gr(1), gr(0)], [gr(0), gr(1)]])
DIAG_PM = ComplexMatrix([[gr(1), gr(0)], [gr(0), gr(-1)]])


def identity(n):
    return ComplexMatrix.identity(n)


def random_gaussian_integer(rng, n, lo=-5, hi=5):
    re = rng.integers(lo, hi + 1, (n, n))
    im = rng.integers(lo, hi + 1, (n, n))
    return ComplexMatrix(
        [[gr(int(a), int(b)) for a, b in zip(ra, rb)] for ra, rb in zip(re, im)]
    )


def random_hermitian_gaussian_integer(rng, n, lo=-5, hi=5):
    c = random_gaussian_integer(rng, n, lo, hi)
    return (c + c.adjoint()).scale(Fraction(1, 2))


def random_density(rng, n):
    """Random complex PSD trace-1 matrix."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    x = g @ g.conj().T
    return x / np.trace(x).real


def densify(entries, m, dtype=float):
    """Dense (m x m) symmetric matrix of sparse upper-triangle entries;
    dtype=object keeps them exact."""
    out = np.zeros((m, m), dtype=dtype)
    for i, j, v in entries:
        out[i, j] = out[j, i] = v
    return out


def exact_entries(f, den):
    """A constraint row's entries (i, j, p) over its denominator den as
    exact values: (i, j, Fraction(p, den))."""
    return [(i, j, Fraction(p, den)) for i, j, p in f]


def blocks(z):
    """The diagonal blocks (Y, [[u, v], [v, w]], t) of a (2n+3) x (2n+3)
    Z with block sizes (2n, 2, 1)."""
    k = z.shape[0] - 3
    return z[:k, :k], z[k : k + 2, k : k + 2], z[k + 2, k + 2]


def dense_constraints(inst):
    """(F_i, b_i) for i = 1..N+4 of `sdp.constraints` as full float
    matrices, each entry its numerator over the row's denominator."""
    from crawford.sdp import constraints

    m = inst.ambient_dim
    return [
        (densify(((i, j, p / den) for i, j, p in f), m), float(b))
        for f, den, b in constraints(inst)
    ]


def chart_jacobian(chart):
    """(d, (2n+3)^2) matrix whose row k is point(e_k) minus point(0),
    raveled: the chart's linear part in full coordinates, where the dot
    product is the Frobenius one."""
    origin = chart.point(np.zeros(chart.dim))
    return np.array([(chart.point(e) - origin).ravel() for e in np.eye(chart.dim)])


def chart_coordinates(chart, z):
    """Chart coordinates of an equality-feasible z: the chart is affine
    and one-to-one, so u solves J' u = z - point(0), here by least
    squares."""
    origin = chart.point(np.zeros(chart.dim))
    jac = chart_jacobian(chart)
    return np.linalg.lstsq(jac.T, (z - origin).ravel(), rcond=None)[0]


def outside_centre(c: ComplexMatrix, theta: float, dist: float, den: int = 1):
    """A point dist beyond the support line of W(C) in direction theta,
    rounded to the lattice (Z + iZ)/den: chi(centre, C) >= dist - 1/den."""
    t = c.to_complex()
    a, b = 0.5 * (t + t.conj().T), -0.5j * (t - t.conj().T)
    h = np.linalg.eigvalsh(np.cos(theta) * a + np.sin(theta) * b)[-1]
    z = (h + dist) * complex(np.cos(theta), np.sin(theta))
    return GaussianRational(
        Fraction(round(z.real * den), den), Fraction(round(z.imag * den), den)
    )


def near_boundary_draws(rng, count: int, den: int):
    """count draws of (C, centre, eps): C Gaussian-integer with n = 2..7
    and entries in [-3, 3], the centre 1e-3 to 0.3 beyond a support line
    of W(C) and rounded to (Z + iZ)/den, eps in 1e-8..1e-4.  The least
    eigenvalue of the pencil is near-double at many angles there."""
    for _ in range(count):
        n = int(rng.integers(2, 8))
        c = random_gaussian_integer(rng, n, -3, 3)
        dist = 10.0 ** rng.uniform(-3.0, math.log10(0.3))
        eps = 10.0 ** -rng.uniform(4.0, 8.0)
        yield c, outside_centre(c, rng.uniform(0.0, 2.0 * math.pi), dist, den), eps


def chi_bracket(c: ComplexMatrix):
    """(lo, hi) with lo <= chi(0, C) <= hi for chi > 0, both certified
    whatever the search does: g(t) = lambda_min(cos t A + sin t B) <= chi
    for every t, and |x*Cx| >= chi for every unit x.  A coarse support
    search finds the direction and a golden-section search sharpens it,
    so that hi - lo is at float resolution."""
    a, b = hermitian_parts(c)
    lip = float(np.linalg.norm(c.to_complex()))

    def g(t):
        return np.linalg.eigvalsh(np.cos(t) * a + np.sin(t) * b)[0]

    lo_t, hi_t = support_search(c, 1e-3 * lip).theta + np.array([-0.1, 0.1])
    ratio = 0.5 * (np.sqrt(5.0) - 1.0)
    for _ in range(80):
        t1, t2 = hi_t - ratio * (hi_t - lo_t), lo_t + ratio * (hi_t - lo_t)
        if g(t1) < g(t2):
            lo_t = t1
        else:
            hi_t = t2
    t = 0.5 * (lo_t + hi_t)
    x = minimizing_witness(a, b, t)
    lo, hi = float(g(t)), abs(complex(x.conj() @ c.to_complex() @ x))
    # equal up to float rounding: both sit at the nearest point
    assert lo > 0.0 and abs(hi - lo) <= 1e-9 * (1.0 + hi)
    return lo, hi
