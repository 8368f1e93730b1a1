"""Exact Gaussian-rational matrices, Hermitian splitting, and the real
symmetric embedding used by the SDP construction.

Everything in this module that touches matrix *construction* is exact
(fractions.Fraction end to end).  Floating point only enters through the
`to_complex` view.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

import numpy as np

RationalLike = Union[int, Fraction]


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, np.integer)):
        return Fraction(int(x))
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"not a rational value: {x!r}")


@dataclass(frozen=True)
class GaussianRational:
    """Element of Q[i], kept as a pair of Fractions."""

    re: Fraction
    im: Fraction

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0):
        object.__setattr__(self, "re", _frac(re))
        object.__setattr__(self, "im", _frac(im))

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        other = _coerce(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        other = _coerce(other)
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other) -> "GaussianRational":
        other = _coerce(other)
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def abs2(self) -> Fraction:
        """|z|^2, exact."""
        return self.re * self.re + self.im * self.im

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __bool__(self) -> bool:
        return not self.is_zero()


def _coerce(x) -> GaussianRational:
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (int, np.integer, Fraction)):
        return GaussianRational(x, 0)
    if isinstance(x, complex):
        raise TypeError("floats are not accepted here; build exact entries")
    raise TypeError(f"cannot coerce {x!r} to a Gaussian rational")


ZERO = GaussianRational(0, 0)
ONE = GaussianRational(1, 0)
I_UNIT = GaussianRational(0, 1)


@dataclass(frozen=True)
class ComplexMatrix:
    """Square matrix over Q[i].  Entries stored row-major as a tuple of
    tuples of GaussianRational."""

    entries: tuple

    def __init__(self, rows: Iterable[Iterable]):
        rows = tuple(tuple(_coerce(x) for x in row) for row in rows)
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise ValueError("matrix must be square and nonempty")
        object.__setattr__(self, "entries", rows)

    @property
    def n(self) -> int:
        return len(self.entries)

    @classmethod
    def identity(cls, n: int) -> "ComplexMatrix":
        return cls([[ONE if i == j else ZERO for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, n: int) -> "ComplexMatrix":
        return cls([[ZERO] * n for _ in range(n)])

    def __getitem__(self, ij) -> GaussianRational:
        i, j = ij
        return self.entries[i][j]

    def __add__(self, other: "ComplexMatrix") -> "ComplexMatrix":
        self._check_shape(other)
        return ComplexMatrix(
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.entries, other.entries)]
        )

    def __sub__(self, other: "ComplexMatrix") -> "ComplexMatrix":
        self._check_shape(other)
        return ComplexMatrix(
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.entries, other.entries)]
        )

    def scale(self, factor) -> "ComplexMatrix":
        f = _coerce(factor)
        return ComplexMatrix([[f * x for x in row] for row in self.entries])

    def adjoint(self) -> "ComplexMatrix":
        n = self.n
        return ComplexMatrix(
            [[self.entries[j][i].conjugate() for j in range(n)] for i in range(n)]
        )

    def trace(self) -> GaussianRational:
        t = ZERO
        for i in range(self.n):
            t = t + self.entries[i][i]
        return t

    def frobenius_sq(self) -> Fraction:
        """Sum of |entry|^2, exact."""
        s = Fraction(0)
        for row in self.entries:
            for x in row:
                s += x.abs2()
        return s

    def is_zero(self) -> bool:
        return all(x.is_zero() for row in self.entries for x in row)

    def is_hermitian(self) -> bool:
        n = self.n
        return all(
            self.entries[i][j] == self.entries[j][i].conjugate()
            for i in range(n)
            for j in range(i, n)
        )

    def to_complex(self) -> np.ndarray:
        return np.array([[complex(x) for x in row] for row in self.entries], dtype=complex)

    def translate(self, c: GaussianRational) -> "ComplexMatrix":
        """self - c * I."""
        c = _coerce(c)
        n = self.n
        return ComplexMatrix(
            [
                [
                    self.entries[i][j] - c if i == j else self.entries[i][j]
                    for j in range(n)
                ]
                for i in range(n)
            ]
        )

    def _check_shape(self, other: "ComplexMatrix") -> None:
        if self.n != other.n:
            raise ValueError("dimension mismatch")


@dataclass(frozen=True)
class HermitianPencil:
    """Hermitian split C = A + iB together with the real symmetric
    embeddings of both parts (2n x 2n object arrays of Fraction)."""

    a: ComplexMatrix
    b: ComplexMatrix
    ahat: np.ndarray
    bhat: np.ndarray

    @property
    def n(self) -> int:
        return self.a.n


def hermitian_split(c: ComplexMatrix) -> HermitianPencil:
    """C = A + iB with A = (C + C*)/2 and B = (C - C*)/(2i), both Hermitian."""
    cs = c.adjoint()
    half = Fraction(1, 2)
    a = (c + cs).scale(half)
    # (C - C*)/(2i) = -i/2 * (C - C*)
    b = (c - cs).scale(GaussianRational(0, -half))
    assert a.is_hermitian() and b.is_hermitian()
    return HermitianPencil(a=a, b=b, ahat=hat_embed(a), bhat=hat_embed(b))


def hat_embed(h: ComplexMatrix) -> np.ndarray:
    """Real symmetric embedding [[Re H, -Im H], [Im H, Re H]] of a
    Hermitian H, as a 2n x 2n object array of Fraction.

    The embedding halves the inner product, <H, K> = (1/2) <hat H, hat K>,
    preserves semidefiniteness, and doubles every eigenvalue's multiplicity.
    """
    if not h.is_hermitian():
        raise ValueError("hat embedding is defined for Hermitian input")
    n = h.n
    out = np.empty((2 * n, 2 * n), dtype=object)
    for i in range(n):
        for j in range(n):
            re = h.entries[i][j].re
            im = h.entries[i][j].im
            out[i, j] = re
            out[n + i, n + j] = re
            out[i, n + j] = -im
            out[n + i, j] = im
    return out


def frobenius_ceiling(c: ComplexMatrix) -> int:
    """ceil(||C||_F) computed in exact integer arithmetic.

    Smallest integer k with k^2 * den >= num where ||C||_F^2 = num/den.
    """
    q = c.frobenius_sq()
    if q == 0:
        raise ValueError("zero matrix has no positive norm ceiling")
    num, den = q.numerator, q.denominator
    k = math.isqrt(num // den)
    while k * k * den < num:
        k += 1
    return k


def clear_denominators(c: ComplexMatrix):
    """Return (l*C, l) where l is the lcm of the denominators of the real
    and imaginary parts of every entry, so l*C is Gaussian-integer and
    chi(C) = chi(l*C)/l.
    """
    l = 1
    for row in c.entries:
        for x in row:
            l = math.lcm(l, x.re.denominator, x.im.denominator)
    scaled = c.scale(l)
    for row in scaled.entries:
        for x in row:
            assert x.re.denominator == 1 and x.im.denominator == 1
    return scaled, l
