"""Standard-form SDP whose optimal value is the Crawford number.

Variable lives in H_{2n+3}(R) with block sizes (2n, 2, 1):
Z = diag(Y, [[u, v], [v, w]], t).  The constraint list is

  F_1 .. F_N          annihilators pinning Y to the hat subspace and the
                      blocks to each other, kept as sparse (i, j, +-1)
                      entries (`annihilators`),
  F_{N+1}             u - w = <Ahat, Y>,
  F_{N+2}             2v = <Bhat, Y>,
  F_{N+3}             tr Y = 2,
  F_{N+4}             u + w + 2t = 2(frob_ceiling + 2),

with N = n^2 + 7n + 2, and the objective F_0 reads off (u + w)/2.

Construction is exact (Fraction); floats appear only in exported files
and in the solver-facing views.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import List, Tuple

import numpy as np

from .linalg import HermitianPencil


def _block_position(n: int, i: int) -> Tuple[int, int]:
    """Block number (1, 2 or 3) and in-block index of ambient index i."""
    k = 2 * n
    if i < k:
        return 1, i
    if i < k + 2:
        return 2, i - k
    return 3, 0


@dataclass(frozen=True)
class BlockDiagSymmetric:
    """Element of the block-diagonal subalgebra, blocks (2n, 2, 1).

    `y` is the 2n x 2n block, `uv` the 2x2 block, `t` the scalar.  Arrays
    may hold Fractions (object dtype) or float64; operations preserve
    whichever arithmetic they are given.
    """

    y: np.ndarray
    uv: np.ndarray
    t: object

    def __post_init__(self):
        if self.y.shape[0] != self.y.shape[1] or self.y.shape[0] % 2:
            raise ValueError("y block must be square of even size")
        if self.uv.shape != (2, 2):
            raise ValueError("uv block must be 2x2")

    @property
    def n(self) -> int:
        return self.y.shape[0] // 2

    def inner(self, other: "BlockDiagSymmetric"):
        return (
            (self.y * other.y).sum()
            + (self.uv * other.uv).sum()
            + self.t * other.t
        )

    def to_float(self) -> "BlockDiagSymmetric":
        return BlockDiagSymmetric(
            y=self.y.astype(float), uv=self.uv.astype(float), t=float(self.t)
        )


# One annihilator: upper-triangle entries (i, j, s), i <= j, of a
# symmetric (2n+3) x (2n+3) matrix with s at (i, j) and (j, i).
Annihilator = Tuple[Tuple[int, int, int], ...]


def annihilators(n: int) -> List[Annihilator]:
    """The N = n^2 + 7n + 2 independent annihilators of the block-diagonal
    hat-structured subspace, each a short tuple of (i, j, +-1) entries.
    This list is the single description of the structure: the SDPA
    export is written from it, and the tests check the ellipsoid chart's
    closed form against it.

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
    out: List[Annihilator] = []
    for i in range(k):
        for j in (k, k + 1, k + 2):
            out.append(((i, j, 1),))
    for i in (k, k + 1):
        out.append(((i, k + 2, 1),))
    for i in range(n):
        out.append(((i, n + i, 1),))
    for i in range(n):
        for j in range(i + 1, n):
            out.append(((i, n + j, 1), (j, n + i, 1)))
    for i in range(n):
        for j in range(i, n):
            out.append(((i, j, 1), (n + i, n + j, -1)))
    assert len(out) == n * n + 7 * n + 2
    return out


@dataclass(frozen=True)
class SdpInstance:
    """Exact instance data.  The constraints are F_1 .. F_N, the
    annihilators (all with b = 0, see `annihilators`), followed by the
    four block-diagonal tail constraints (F, b) in `tails`.  `ahat` /
    `bhat` keep the hat matrices of the Hermitian split C = A + iB.
    """

    n: int
    f0: BlockDiagSymmetric
    tails: Tuple[Tuple[BlockDiagSymmetric, Fraction], ...]
    frob_ceiling: int
    ahat: np.ndarray
    bhat: np.ndarray

    @cached_property
    def pencil_flat(self) -> np.ndarray:
        """(A, B) as one float (2, 2n^2) array, read once off the hat
        matrices [[Re H, -Im H], [Im H, Re H]]: row-major entries with
        real and imaginary parts interleaved, the memory layout of a
        complex array, so <H, X> = Re tr(H* X) is a dot product."""
        n = self.n
        hats = np.array([self.ahat, self.bhat], dtype=float)
        return (hats[:, :n, :n] + 1j * hats[:, n:, :n]).reshape(2, -1).view(float)

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
        return self.N + len(self.tails)


def _negated_hat(hat: np.ndarray) -> np.ndarray:
    """-hat H = hat(-H) = [[-Re H, Im H], [-Im H, -Re H]]: the two
    off-diagonal blocks of hat H = [[Re H, -Im H], [Im H, Re H]] swap,
    and only Re H is negated."""
    n = hat.shape[0] // 2
    out = np.empty_like(hat)
    out[:n, :n] = out[n:, n:] = -hat[:n, :n]
    out[:n, n:], out[n:, :n] = hat[n:, :n], hat[:n, n:]
    return out


def build_instance(pencil: HermitianPencil, frob_ceiling: int) -> SdpInstance:
    """Assemble F_0 .. F_{N+4} and b for the given Hermitian pencil."""
    if frob_ceiling < 1:
        raise ValueError("frob_ceiling must be a positive integer")
    if pencil.a.is_zero() and pencil.b.is_zero():
        raise ValueError("zero pencil: chi is 0, no instance to build")
    n = pencil.n
    zero = Fraction(0)
    one = Fraction(1)

    def bd(ydata, uvdata, tdata) -> BlockDiagSymmetric:
        return BlockDiagSymmetric(
            y=np.asarray(ydata, dtype=object),
            uv=np.array(uvdata, dtype=object),
            t=tdata,
        )

    y_zero = np.full((2 * n, 2 * n), zero, dtype=object)
    y_eye = y_zero.copy()
    np.fill_diagonal(y_eye, one)

    f0 = bd(y_zero, [[Fraction(1, 2), zero], [zero, Fraction(1, 2)]], zero)
    tail = [
        bd(_negated_hat(pencil.ahat), [[one, zero], [zero, -one]], zero),
        bd(_negated_hat(pencil.bhat), [[zero, one], [one, zero]], zero),
        bd(y_eye, [[zero, zero], [zero, zero]], zero),
        bd(y_zero, [[one, zero], [zero, one]], Fraction(2)),
    ]
    b_tail = [zero, zero, Fraction(2), Fraction(2 * (frob_ceiling + 2))]

    return SdpInstance(
        n=n,
        f0=f0,
        tails=tuple(zip(tail, b_tail)),
        frob_ceiling=frob_ceiling,
        ahat=pencil.ahat,
        bhat=pencil.bhat,
    )


def _fmt(v) -> str:
    # repr of the float64 value: shortest decimal that round-trips,
    # never more than 17 significant digits
    return repr(float(v))


def export_sdpa(inst: SdpInstance, path) -> None:
    """Write the instance in SDPA sparse format (.dat-s).

    Layout: mDIM, nBLOCK, block sizes, b, then entry lines
    "matno blkno i j value" (1-based indices inside each block, upper
    triangle only, matno 0 for F_0).  The format is block-diagonal by
    construction, so constraint entries coupling different blocks --
    which meet the block-diagonal variable in a zero inner product --
    are not represented; the subspace annihilators consisting solely of
    such entries come out as empty matrices.  LF endings, no comments.
    """
    n = inst.n
    lines = [str(inst.m), "3", f"{2 * n} 2 1"]
    rhs = [Fraction(0)] * inst.N + [b for _, b in inst.tails]
    lines.append(" ".join(_fmt(v) for v in rhs))

    def entry(matno: int, blk: int, i: int, j: int, v):
        lines.append(f"{matno} {blk} {i + 1} {j + 1} {_fmt(v)}")

    def emit_blocks(matno: int, f: BlockDiagSymmetric):
        for blk, block in enumerate((f.y, f.uv, np.array([[f.t]])), start=1):
            for i in range(block.shape[0]):
                for j in range(i, block.shape[0]):
                    if block[i, j] != 0:
                        entry(matno, blk, i, j, block[i, j])

    emit_blocks(0, inst.f0)
    for matno, ann in enumerate(annihilators(n), start=1):
        for i, j, v in ann:
            (bi, li), (bj, lj) = _block_position(n, i), _block_position(n, j)
            if bi == bj:
                entry(matno, bi, li, lj, v)
    for matno, (f, _) in enumerate(inst.tails, start=inst.N + 1):
        emit_blocks(matno, f)
    data = "\n".join(lines) + "\n"
    try:
        with open(path, "w", newline="\n") as fh:
            fh.write(data)
    except OSError as e:
        raise OSError(f"cannot write SDPA file {path}: {e}") from e


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
    mdim = int(raw[0])
    nblock = int(raw[1])
    sizes = tuple(int(s) for s in raw[2].split())
    if len(sizes) != nblock:
        raise ValueError(f"{path}: block size count does not match nBLOCK")
    b = np.array([float(s) for s in raw[3].split()])
    if b.shape != (mdim,):
        raise ValueError(f"{path}: b length does not match mDIM")
    mats = [
        [np.zeros((s, s)) for s in sizes] for _ in range(mdim + 1)
    ]
    for ln in raw[4:]:
        parts = ln.split()
        if len(parts) != 5:
            raise ValueError(f"{path}: bad entry line {ln!r}")
        matno, blk, i, j = (int(p) for p in parts[:4])
        v = float(parts[4])
        mats[matno][blk - 1][i - 1, j - 1] = v
        mats[matno][blk - 1][j - 1, i - 1] = v
    return SdpaData(
        mdim=mdim,
        block_sizes=sizes,
        b=b,
        matrices=tuple(tuple(m) for m in mats),
    )


def assemble_feasible_point(
    inst: SdpInstance, dens: np.ndarray, r: float
) -> BlockDiagSymmetric:
    """Z(X, r) = diag(hat X, [[r + x, y], [y, r - x]], c + 2 - r) with
    x + iy = <A, X> + i<B, X> and c = frob_ceiling.

    For a Hermitian X of trace 1 this satisfies every equality constraint,
    and every equality-feasible point is of this form.  It is PSD exactly
    when X is PSD and |x + iy| <= r <= c + 2; the objective reads r.
    """
    dens = np.asarray(dens, dtype=complex)
    x, y = inst.pencil_values(dens)
    return BlockDiagSymmetric(
        y=np.block([[dens.real, -dens.imag], [dens.imag, dens.real]]),
        uv=np.array([[r + x, y], [y, r - x]]),
        t=inst.frob_ceiling + 2.0 - r,
    )
