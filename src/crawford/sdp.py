"""Standard-form SDP whose optimal value is the Crawford number.

Variable lives in H_{2n+3}(R) with block sizes (2n, 2, 1):
Z = diag(Y, [[u, v], [v, w]], t).  The constraint list is

  F_1 .. F_N          annihilators pinning Y to the hat subspace and the
                      blocks to each other (`annihilators`),
  F_{N+1}             u - w = <Ahat, Y>,
  F_{N+2}             2v = <Bhat, Y>,
  F_{N+3}             tr Y = 2,
  F_{N+4}             u + w + 2t = 2(frob_ceiling + 2),

with N = n^2 + 7n + 2 and Hhat = [[Re H, -Im H], [Im H, Re H]]
(`linalg.hat_upper`), and the objective F_0 (`objective`) reads off
(u + w)/2.  An instance is its data: the Hermitian split C = A + iB and
the ceiling c.

Each kind of object has one representation:

  exact SDP matrices  F_0 .. F_{N+4} (`objective`, `constraints`) and the
                      ball center G (`ball_center`) are `Sparse` lists of
                      upper-triangle (i, j, v) entries, written here
                      and read by the SDPA export and the ball certificate;
                      a constraint row holds int numerators over one row
                      denominator;
  float points        Z(X, r) (`assemble_feasible_point`) is a dense
                      (2n+3) x (2n+3) array.

Construction is exact: it reads A and B off their Gaussian-integer
numerators (`linalg.ComplexMatrix`), so every constraint entry is an int
over its row's denominator, a.den for F_{N+1}, b.den for F_{N+2} and 1
for every other row; floats appear only in exported files and in the
solver-facing views.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import List, Tuple

import numpy as np

from .linalg import ComplexMatrix, HermitianPencil, hat_upper


def _block_position(n: int, i: int) -> Tuple[int, int]:
    """Block number (1, 2 or 3) and in-block index of ambient index i."""
    k = 2 * n
    if i < k:
        return 1, i
    if i < k + 2:
        return 2, i - k
    return 3, 0


# One sparse matrix: upper-triangle entries (i, j, v), i <= j, of a
# symmetric (2n+3) x (2n+3) matrix with v at (i, j) and (j, i); v is an
# int or a Fraction.
Sparse = Tuple[Tuple[int, int, object], ...]

# One constraint <F, Z> = b as (entries, den, b): F is the Sparse matrix of
# int numerators `entries` over the positive int den.
Row = Tuple[Sparse, int, int]


def annihilators(n: int) -> List[Sparse]:
    """The N = n^2 + 7n + 2 independent annihilators of the block-diagonal
    hat-structured subspace, each a short tuple of (i, j, +-1) entries:
    F_1 .. F_N of `constraints`, all with b = 0.

    Ordering (0-based indices, ambient size m = 2n+3):
      1. E_ij for i < 2n, j in {2n, 2n+1, 2n+2}: kill coupling of the big
         block to the tail coordinates.
      2. E_{i, 2n+2} for i in {2n, 2n+1}: kill coupling of the 2x2 block
         to the scalar.
      3. E_{i, n+i} for i < n: diagonal of the Im block must vanish.
      4. E_{i, n+j} + E_{j, n+i} for i < j < n: Im block antisymmetric.
      5. E_{ij} - E_{(n+i)(n+j)} for i <= j < n: the two Re blocks agree.
    """
    if n < 1:
        raise ValueError("n must be positive")
    k = 2 * n
    out: List[Sparse] = [((i, j, 1),) for i in range(k) for j in (k, k + 1, k + 2)]
    out += [((i, k + 2, 1),) for i in (k, k + 1)]
    out += [((i, n + i, 1),) for i in range(n)]
    out += [((i, n + j, 1), (j, n + i, 1)) for i in range(n) for j in range(i + 1, n)]
    out += [((i, j, 1), (n + i, n + j, -1)) for i in range(n) for j in range(i, n)]
    assert len(out) == n * n + 7 * n + 2
    return out


@dataclass(frozen=True)
class SdpInstance:
    """Exact instance data: the Hermitian split C = A + iB and the
    ceiling c >= ||C||_F.  The constraints are generated from it by
    `constraints`."""

    n: int
    frob_ceiling: int
    a: ComplexMatrix
    b: ComplexMatrix

    @cached_property
    def pencil_flat(self) -> np.ndarray:
        """(A, B) as one float (2, 2n^2) array: row-major entries with
        real and imaginary parts interleaved, the memory layout of a
        complex array, so <H, X> = Re tr(H* X) is a dot product."""
        pencil = np.array([self.a.to_complex(), self.b.to_complex()])
        return pencil.reshape(2, -1).view(float)

    def pencil_values(self, dens: np.ndarray) -> Tuple[float, float]:
        """(<A, X>, <B, X>) for a Hermitian n x n X; <C, X> is their
        complex combination x + iy."""
        flat = np.ascontiguousarray(dens, dtype=complex).ravel().view(float)
        return (self.pencil_flat @ flat).tolist()

    @property
    def N(self) -> int:
        return self.n * self.n + 7 * self.n + 2

    @property
    def block_sizes(self) -> Tuple[int, int, int]:
        return (2 * self.n, 2, 1)

    @property
    def ambient_dim(self) -> int:
        return 2 * self.n + 3

    @property
    def m(self) -> int:
        return self.N + 4


def build_instance(pencil: HermitianPencil, frob_ceiling: int) -> SdpInstance:
    """The instance of the given Hermitian pencil and ceiling."""
    if frob_ceiling < 1:
        raise ValueError("frob_ceiling must be a positive integer")
    if pencil.a.is_zero() and pencil.b.is_zero():
        raise ValueError("zero pencil: chi is 0, no instance to build")
    return SdpInstance(n=pencil.n, frob_ceiling=frob_ceiling, a=pencil.a, b=pencil.b)


def objective(n: int) -> Sparse:
    """F_0 = diag(0, I_2 / 2, 0): <F_0, Z> = (u + w)/2."""
    k = 2 * n
    return ((k, k, Fraction(1, 2)), (k + 1, k + 1, Fraction(1, 2)))


def constraints(inst: SdpInstance) -> List[Row]:
    """F_1 .. F_{N+4} as (entries, den, b) rows: the annihilators, then the
    four constraints of the module docstring, whose big blocks are -Ahat
    over a.den, -Bhat over b.den and I_{2n}."""
    k = 2 * inst.n
    da, db = inst.a.den, inst.b.den

    def minus_hat(h):
        return [(i, j, -p) for i, j, p in hat_upper(h)]

    return [(f, 1, 0) for f in annihilators(inst.n)] + [
        (tuple(minus_hat(inst.a) + [(k, k, da), (k + 1, k + 1, -da)]), da, 0),
        (tuple(minus_hat(inst.b) + [(k, k + 1, db)]), db, 0),
        (tuple((i, i, 1) for i in range(k)), 1, 2),
        (((k, k, 1), (k + 1, k + 1, 1), (k + 2, k + 2, 2)), 1, 2 * (inst.frob_ceiling + 2)),
    ]


def ball_center(inst: SdpInstance) -> Sparse:
    """The ball center G = Z(I/n, c + 1) = diag((1/n) I_{2n}, S, 1), exact,
    with S = [[c + 1 + x, y], [y, c + 1 - x]] and x + iy = <A, I/n> +
    i<B, I/n> = (1/n) tr C."""
    n, k = inst.n, 2 * inst.n
    # tr A = Re tr C and tr B = Im tr C, each a sum of numerators over den
    x, y = (Fraction(sum(h.re[i][i] for i in range(n)), n * h.den) for h in (inst.a, inst.b))
    r = inst.frob_ceiling + 1
    diag = Fraction(1, n)
    return tuple((i, i, diag) for i in range(k)) + (
        (k, k, r + x),
        (k, k + 1, y),
        (k + 1, k + 1, r - x),
        (k + 2, k + 2, 1),
    )


def _fmt(v) -> str:
    # repr of the float64 value: shortest decimal that round-trips,
    # never more than 17 significant digits
    return repr(float(v))


def export_sdpa(inst: SdpInstance, path) -> List[int]:
    """Write the instance in SDPA sparse format (.dat-s) and return the
    b values it wrote.

    Layout: mDIM, nBLOCK, block sizes, b, then entry lines
    "matno blkno i j value" (1-based indices inside each block, upper
    triangle only, matno 0 for F_0).  The format is block-diagonal by
    construction, so constraint entries coupling different blocks --
    which meet the block-diagonal variable in a zero inner product --
    are not represented; the subspace annihilators consisting solely of
    such entries come out as empty matrices.  LF endings, no comments.
    """
    n = inst.n
    cons = constraints(inst)
    lines = [str(len(cons)), "3", f"{2 * n} 2 1", " ".join(_fmt(b) for *_, b in cons)]
    # a constraint entry p / den is int true division, correctly rounded:
    # the float64 value of the exact entry
    mats = [(objective(n), 1)] + [(f, den) for f, den, _ in cons]
    for matno, (f, den) in enumerate(mats):
        for i, j, p in f:
            (bi, li), (bj, lj) = _block_position(n, i), _block_position(n, j)
            if bi == bj:
                lines.append(f"{matno} {bi} {li + 1} {lj + 1} {_fmt(p / den)}")
    data = "\n".join(lines) + "\n"
    try:
        with open(path, "w", newline="\n") as fh:
            fh.write(data)
    except OSError as e:
        raise OSError(f"cannot write SDPA file {path}: {e}") from e
    return [b for *_, b in cons]


@dataclass(frozen=True)
class SdpaData:
    mdim: int
    block_sizes: Tuple[int, ...]
    b: np.ndarray
    matrices: Tuple[Tuple[np.ndarray, ...], ...]  # [matno][block] dense float


def read_sdpa(path) -> SdpaData:
    """Parse a file produced by export_sdpa (round-trip check helper).

    Only the subset of the format we emit is supported: no comment lines,
    exactly the four header lines followed by entry quintuples.
    """
    try:
        with open(path) as fh:
            raw = [ln.strip() for ln in fh if ln.strip()]
    except OSError as e:
        raise OSError(f"cannot read SDPA file {path}: {e}") from e
    try:
        mdim, nblock = int(raw[0]), int(raw[1])
        sizes = tuple(int(s) for s in raw[2].split())
        b = np.array([float(s) for s in raw[3].split()])
    except (IndexError, ValueError):
        raise ValueError(f"{path}: missing or malformed header") from None
    if len(sizes) != nblock or min(sizes, default=1) < 1:
        raise ValueError(f"{path}: need nBLOCK positive block sizes")
    if b.shape != (mdim,):
        raise ValueError(f"{path}: b length does not match mDIM")
    mats = [
        [np.zeros((s, s)) for s in sizes] for _ in range(mdim + 1)
    ]
    for ln in raw[4:]:
        try:
            matno, blk, i, j, v = ln.split()
            matno, blk, i, j, v = int(matno), int(blk), int(i), int(j), float(v)
        except ValueError:
            raise ValueError(f"{path}: bad entry line {ln!r}") from None
        if not (
            0 <= matno <= mdim
            and 1 <= blk <= nblock
            and 1 <= min(i, j)
            and max(i, j) <= sizes[blk - 1]
        ):
            raise ValueError(f"{path}: entry out of range {ln!r}")
        mats[matno][blk - 1][i - 1, j - 1] = v
        mats[matno][blk - 1][j - 1, i - 1] = v
    return SdpaData(
        mdim=mdim,
        block_sizes=sizes,
        b=b,
        matrices=tuple(tuple(m) for m in mats),
    )


def assemble_feasible_point(inst: SdpInstance, dens: np.ndarray, r: float) -> np.ndarray:
    """The dense float Z(X, r) = diag(hat X, [[r + x, y], [y, r - x]],
    c + 2 - r) with x + iy = <A, X> + i<B, X> and c = frob_ceiling.

    For a Hermitian X of trace 1 this satisfies every equality constraint,
    and every equality-feasible point is of this form.  It is PSD exactly
    when X is PSD and |x + iy| <= r <= c + 2; the objective reads r.
    """
    dens = np.asarray(dens, dtype=complex)
    x, y = inst.pencil_values(dens)
    n, k = inst.n, 2 * inst.n
    z = np.zeros((k + 3, k + 3))
    # hat X = [[Re X, -Im X], [Im X, Re X]], a quadrant at a time
    z[:n, :n] = z[n:k, n:k] = dens.real
    z[n:k, :n] = dens.imag
    z[:n, n:k] = -dens.imag
    z[k : k + 2, k : k + 2] = [[r + x, y], [y, r - x]]
    z[k + 2, k + 2] = inst.frob_ceiling + 2.0 - r
    return z
