"""Exact Gaussian-rational matrices, Hermitian splitting, and the real
symmetric (hat) embedding used by the SDP construction.

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


def exact_sum(values) -> Fraction:
    """Sum of Fractions, taken in integers over their common denominator."""
    values = tuple(values)
    l = math.lcm(*(v.denominator for v in values))
    return Fraction(sum(v.numerator * (l // v.denominator) for v in values), l)


def exact_dot(xs, ys) -> Fraction:
    """Sum of x * y over pairs of Fractions, taken in integers over the
    common denominator of the products."""
    terms = [
        (x.numerator * y.numerator, x.denominator * y.denominator)
        for x, y in zip(xs, ys)
    ]
    l = math.lcm(*(d for _, d in terms))
    return Fraction(sum(p * (l // d) for p, d in terms), l)


ZERO = GaussianRational(0, 0)
ONE = GaussianRational(1, 0)


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

    def denominator_lcm(self) -> int:
        """lcm of the denominators of every entry's real and imaginary part."""
        return math.lcm(
            *(v.denominator for row in self.entries for x in row for v in (x.re, x.im))
        )

    def integer_parts(self, l: int) -> list:
        """l*C as rows of (Re, Im) integer pairs, for l a multiple of
        `denominator_lcm()`."""
        return [
            [tuple(v.numerator * (l // v.denominator) for v in (x.re, x.im)) for x in row]
            for row in self.entries
        ]

    def frobenius_sq(self) -> Fraction:
        """Sum of |entry|^2, exact: ||l*C||_F^2 in integers, over l^2."""
        l = self.denominator_lcm()
        s = sum(p * p + q * q for row in self.integer_parts(l) for p, q in row)
        return Fraction(s, l * l)

    def is_zero(self) -> bool:
        return all(x.is_zero() for row in self.entries for x in row)

    def is_hermitian(self) -> bool:
        n = self.n
        e = self.entries
        # Fractions are in lowest terms with a positive denominator, so
        # Im e_ij = -Im e_ji compares numerators and denominators as ints
        return all(
            e[i][j].re == e[j][i].re
            and e[i][j].im.numerator == -e[j][i].im.numerator
            and e[i][j].im.denominator == e[j][i].im.denominator
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
    """Hermitian split C = A + iB."""

    a: ComplexMatrix
    b: ComplexMatrix

    @property
    def n(self) -> int:
        return self.a.n


def hermitian_split(c: ComplexMatrix) -> HermitianPencil:
    """C = A + iB with A = (C + C*)/2 and B = (C - C*)/(2i), both Hermitian,
    in one pass over the pairs i <= j.  With l C = P + iQ Gaussian-integer
    (l the denominator lcm), each entry is one exact fraction over 2l:

      A_ij = ((P_ij + P_ji) + (Q_ij - Q_ji) i) / 2l,
      B_ij = ((Q_ij + Q_ji) + (P_ji - P_ij) i) / 2l,

    and A_ji, B_ji are their conjugates."""
    n = c.n
    l = c.denominator_lcm()
    lc = c.integer_parts(l)
    a = [[None] * n for _ in range(n)]
    b = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            (p, q), (r, s) = lc[i][j], lc[j][i]
            # numerators over 2l of Re and Im of A_ij, then of B_ij
            for h, re_num, im_num in ((a, p + r, q - s), (b, q + s, r - p)):
                re, im, neg = (Fraction(v, 2 * l) for v in (re_num, im_num, -im_num))
                h[i][j] = GaussianRational(re, im)
                h[j][i] = GaussianRational(re, neg)
    pencil = HermitianPencil(a=ComplexMatrix(a), b=ComplexMatrix(b))
    if not (pencil.a.is_hermitian() and pencil.b.is_hermitian()):
        raise ValueError("Hermitian split produced a non-Hermitian part")
    return pencil


def hat_upper(h: ComplexMatrix):
    """The upper triangle (i, j, v), i <= j, of the real symmetric
    embedding [[Re H, -Im H], [Im H, Re H]] of a Hermitian n x n H, row by
    row; v is a Fraction and zeros are included.  The one writer of the
    hat layout: `hat_embed` and the SDP constraints read it."""
    n = h.n
    e = h.entries
    for i in range(n):
        row = e[i]
        for j in range(i, n):
            yield i, j, row[j].re
        for j in range(n):
            yield i, n + j, -row[j].im
    for i in range(n):
        row = e[i]
        for j in range(i, n):
            yield n + i, n + j, row[j].re


def hat_embed(h: ComplexMatrix) -> np.ndarray:
    """Real symmetric embedding [[Re H, -Im H], [Im H, Re H]] of a
    Hermitian H, as a 2n x 2n object array of Fraction.

    The embedding halves the inner product, <H, K> = (1/2) <hat H, hat K>,
    preserves semidefiniteness, and doubles every eigenvalue's multiplicity.
    """
    if not h.is_hermitian():
        raise ValueError("hat embedding is defined for Hermitian input")
    out = np.empty((2 * h.n, 2 * h.n), dtype=object)
    for i, j, v in hat_upper(h):
        out[i, j] = out[j, i] = v
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
    chi(C) = chi(l*C)/l.  At l = 1, C itself is returned.
    """
    l = c.denominator_lcm()
    if l == 1:
        return c, 1
    scaled = c.scale(l)
    for row in scaled.entries:
        for x in row:
            if x.re.denominator != 1 or x.im.denominator != 1:
                raise ValueError("clearing the denominators left a fraction")
    return scaled, l
