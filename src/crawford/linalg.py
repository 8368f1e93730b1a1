"""Exact Gaussian-rational matrices, Hermitian splitting, and the real
symmetric (hat) embedding's entries used by the SDP construction.

A matrix over Q[i] is stored as Gaussian-integer numerators P + iQ over
one positive denominator l, reduced so that l is the lcm of the entries'
denominators (the encoding of rational input in Groetschel, Lovasz &
Schrijver 1988).  Every construction step runs on these Python ints, so
it is exact; `GaussianRational` entries are a derived view.  Floating
point only enters through `to_complex`, whose entries p / l are the
correctly rounded values of the exact ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from operator import add, neg, sub
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


def _combine(op, xs: tuple, ys: tuple) -> tuple:
    """Entrywise op of two row-major tuples of int rows."""
    return tuple(tuple(map(op, rx, ry)) for rx, ry in zip(xs, ys))


def _times(xs: tuple, f: int) -> tuple:
    return tuple(tuple(v * f for v in row) for row in xs)


def _negated(xs: tuple) -> tuple:
    return tuple(tuple(map(neg, row)) for row in xs)


def _transpose(xs: tuple) -> tuple:
    return tuple(zip(*xs))


@dataclass(frozen=True)
class ComplexMatrix:
    """Square matrix over Q[i]: entry (i, j) is (re[i][j] + im[i][j] i) / den
    with int numerators and den > 0, reduced (den and all numerators
    coprime), so equal matrices compare and hash equal and den is the lcm
    of the entries' denominators.  Built from rows of GaussianRational,
    Fraction or int; `entries` and `[i, j]` give GaussianRational views."""

    re: tuple
    im: tuple
    den: int

    def __init__(self, rows: Iterable[Iterable]):
        rows = tuple(tuple(_coerce(x) for x in row) for row in rows)
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise ValueError("matrix must be square and nonempty")
        # reduced Fractions over their lcm: numerators and lcm are coprime
        den = math.lcm(*(v.denominator for row in rows for x in row for v in (x.re, x.im)))
        re = tuple(tuple(x.re.numerator * (den // x.re.denominator) for x in row) for row in rows)
        im = tuple(tuple(x.im.numerator * (den // x.im.denominator) for x in row) for row in rows)
        self._set(re, im, den)

    def _set(self, re: tuple, im: tuple, den: int) -> None:
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)
        object.__setattr__(self, "den", den)

    @classmethod
    def _of(cls, re: tuple, im: tuple, den: int) -> "ComplexMatrix":
        """The matrix (re + im i) / den for tuples of int rows and den > 0,
        reduced."""
        g = math.gcd(den, *chain.from_iterable(re), *chain.from_iterable(im))
        if g > 1:
            re = tuple(tuple(v // g for v in row) for row in re)
            im = tuple(tuple(v // g for v in row) for row in im)
            den //= g
        out = object.__new__(cls)
        out._set(re, im, den)
        return out

    @property
    def n(self) -> int:
        return len(self.re)

    @property
    def entries(self) -> tuple:
        """Row-major tuple of tuples of GaussianRational."""
        n = self.n
        return tuple(tuple(self[i, j] for j in range(n)) for i in range(n))

    @classmethod
    def zeros(cls, n: int) -> "ComplexMatrix":
        return cls._of(((0,) * n,) * n, ((0,) * n,) * n, 1)

    def __getitem__(self, ij) -> GaussianRational:
        i, j = ij
        return GaussianRational(
            Fraction(self.re[i][j], self.den), Fraction(self.im[i][j], self.den)
        )

    def _binary(self, op, other: "ComplexMatrix") -> "ComplexMatrix":
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        den = math.lcm(self.den, other.den)
        s, t = den // self.den, den // other.den
        return ComplexMatrix._of(
            _combine(op, _times(self.re, s), _times(other.re, t)),
            _combine(op, _times(self.im, s), _times(other.im, t)),
            den,
        )

    def __add__(self, other: "ComplexMatrix") -> "ComplexMatrix":
        return self._binary(add, other)

    def __sub__(self, other: "ComplexMatrix") -> "ComplexMatrix":
        return self._binary(sub, other)

    def scale(self, factor) -> "ComplexMatrix":
        """factor * self: with factor = (a + bi) / d, the numerators become
        (aP - bQ) + (bP + aQ) i over d * den."""
        f = _coerce(factor)
        d = math.lcm(f.re.denominator, f.im.denominator)
        a, b = (v.numerator * (d // v.denominator) for v in (f.re, f.im))
        pairs = [tuple(zip(rp, rq)) for rp, rq in zip(self.re, self.im)]
        re = tuple(tuple(a * p - b * q for p, q in row) for row in pairs)
        im = tuple(tuple(b * p + a * q for p, q in row) for row in pairs)
        return ComplexMatrix._of(re, im, d * self.den)

    def __neg__(self) -> "ComplexMatrix":
        return ComplexMatrix._of(_negated(self.re), _negated(self.im), self.den)

    def frobenius_sq(self) -> Fraction:
        """Sum of |entry|^2, exact: ||P + iQ||_F^2 over den^2."""
        s = sum(p * p for p in chain.from_iterable(self.re + self.im))
        return Fraction(s, self.den * self.den)

    def is_zero(self) -> bool:
        return not any(chain.from_iterable(self.re + self.im))

    def is_hermitian(self) -> bool:
        """P symmetric and Q antisymmetric."""
        return self.re == _transpose(self.re) and self.im == _negated(_transpose(self.im))

    def to_complex(self) -> np.ndarray:
        """The float view: each part p / den by int true division, which is
        correctly rounded (the value of float(Fraction(p, den))) at any
        size, and raises OverflowError beyond the float64 range."""
        d, n = self.den, self.n
        parts = chain.from_iterable(map(zip, self.re, self.im))
        return np.array([v / d for pq in parts for v in pq]).view(complex).reshape(n, n)

    def translate(self, c: GaussianRational) -> "ComplexMatrix":
        """self - c * I."""
        c = _coerce(c)
        den = math.lcm(self.den, c.re.denominator, c.im.denominator)
        s = den // self.den
        shifted = []
        for part, v in ((self.re, c.re), (self.im, c.im)):
            cv = v.numerator * (den // v.denominator)
            shifted.append(
                tuple(
                    tuple(p * s - cv if i == j else p * s for j, p in enumerate(row))
                    for i, row in enumerate(part)
                )
            )
        return ComplexMatrix._of(*shifted, den)


def hermitian_split(c: ComplexMatrix) -> tuple[ComplexMatrix, ComplexMatrix]:
    """The pair (A, B) of C = A + iB with A = (C + C*)/2 and B = (C - C*)/(2i),
    both Hermitian.  With C = (P + iQ) / l, both are Gaussian-integer over 2l:

      2l A = (P + P') + (Q - Q') i,
      2l B = (Q + Q') + (P' - P) i."""
    p, q = c.re, c.im
    pt, qt = _transpose(p), _transpose(q)
    den = 2 * c.den
    a = ComplexMatrix._of(_combine(add, p, pt), _combine(sub, q, qt), den)
    b = ComplexMatrix._of(_combine(add, q, qt), _combine(sub, pt, p), den)
    if not (a.is_hermitian() and b.is_hermitian()):
        raise ValueError("Hermitian split produced a non-Hermitian part")
    return a, b


def hat_upper(h: ComplexMatrix) -> list:
    """The nonzero upper-triangle entries (i, j, p), i <= j, of the real
    symmetric embedding [[Re H, -Im H], [Im H, Re H]] of a Hermitian
    n x n H, as a list row by row; p is an int numerator over h.den, so
    the entry is p / h.den.  The one writer of the hat layout: the SDP
    constraints read it."""
    n = h.n
    re = [[(j, p) for j, p in enumerate(row[i:], i) if p] for i, row in enumerate(h.re)]
    out = []
    for i, row in enumerate(h.im):
        out += [(i, j, p) for j, p in re[i]]
        out += [(i, n + j, -q) for j, q in enumerate(row) if q]
    for i in range(n):
        out += [(n + i, n + j, p) for j, p in re[i]]
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
    chi(C) = chi(l*C)/l: C's numerators over 1.  At l = 1, C itself is
    returned.
    """
    l = c.den
    if l == 1:
        return c, 1
    return ComplexMatrix._of(c.re, c.im, 1), l
