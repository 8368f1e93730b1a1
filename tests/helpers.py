"""Shared fixtures-in-spirit for the test suite: the reference 2x2
example with known chi, and random matrix generators."""

from fractions import Fraction

import numpy as np

from crawford.linalg import ComplexMatrix, GaussianRational


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


def blocks(z):
    """The diagonal blocks (Y, [[u, v], [v, w]], t) of a (2n+3) x (2n+3)
    Z with block sizes (2n, 2, 1)."""
    k = z.shape[0] - 3
    return z[:k, :k], z[k : k + 2, k : k + 2], z[k + 2, k + 2]


def dense_constraints(inst):
    """(F_i, b_i) for i = 1..N+4 of `sdp.constraints` as full float
    matrices."""
    from crawford.sdp import constraints

    m = inst.ambient_dim
    return [(densify(f, m), float(b)) for f, b in constraints(inst)]


def chart_jacobian(chart):
    """(d, (2n+3)^2) matrix whose row k is point(e_k) minus point(0),
    raveled: the chart's linear part in full coordinates, where the dot
    product is the Frobenius one."""
    origin = chart.point(np.zeros(chart.dim))
    return np.array([(chart.point(e) - origin).ravel() for e in np.eye(chart.dim)])


def chart_coordinates(chart, z):
    """Chart coordinates of an equality-feasible z, through the
    orthonormal Jacobian."""
    origin = chart.point(np.zeros(chart.dim))
    return chart_jacobian(chart) @ (z - origin).ravel()
