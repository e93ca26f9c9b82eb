"""Exact dense linear algebra over the Gaussian rationals.

Provides a row-major dense matrix type plus Gaussian-elimination based
solve, nullspace, rank, determinant and inverse, and a sparse rank of an
integer matrix modulo a fixed prime, which certifies full column rank over
the rationals without rational arithmetic.  Pivoting is deterministic
(first nonzero entry in row-major order), so every derived object --
echelon forms, nullspace bases, reports built on them -- is reproducible
byte for byte.

All values are immutable after construction and all operations are pure.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from .errors import (
    InconsistentSystemError,
    PreconditionError,
    UnderdeterminedSystemError,
)
from .numeric import ONE, ZERO, GaussianRational

Vector = list[GaussianRational]

MODULUS = 2**61 - 1  # a Mersenne prime


class ExactMatrix:
    """Dense matrix with Gaussian-rational entries, stored row-major."""

    __slots__ = ("rows", "cols", "_e")

    def __init__(self, rows: int, cols: int, entries: Iterable):
        self.rows = rows
        self.cols = cols
        self._e = [GaussianRational.coerce(x) for x in entries]
        if len(self._e) != rows * cols:
            raise PreconditionError(
                f"matrix needs {rows * cols} entries, got {len(self._e)}"
            )

    # -- construction -------------------------------------------------------

    @staticmethod
    def from_rows(rows: Sequence[Sequence]) -> "ExactMatrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        flat = []
        for row in rows:
            if len(row) != c:
                raise PreconditionError("ragged rows")
            flat.extend(row)
        return ExactMatrix(r, c, flat)

    @staticmethod
    def identity(n: int) -> "ExactMatrix":
        return ExactMatrix(n, n, [ONE if i == j else ZERO for i in range(n) for j in range(n)])

    @staticmethod
    def zero(rows: int, cols: int) -> "ExactMatrix":
        return ExactMatrix(rows, cols, [ZERO] * (rows * cols))

    # -- access --------------------------------------------------------------

    def at(self, i: int, j: int) -> GaussianRational:
        return self._e[i * self.cols + j]

    def row(self, i: int) -> Vector:
        return self._e[i * self.cols : (i + 1) * self.cols]

    def to_rows(self) -> list[Vector]:
        return [self.row(i) for i in range(self.rows)]

    # -- algebra --------------------------------------------------------------

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._same_shape(other)
        return ExactMatrix(self.rows, self.cols, [a + b for a, b in zip(self._e, other._e)])

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._same_shape(other)
        return ExactMatrix(self.rows, self.cols, [a - b for a, b in zip(self._e, other._e)])

    def scale(self, c) -> "ExactMatrix":
        c = GaussianRational.coerce(c)
        return ExactMatrix(self.rows, self.cols, [c * a for a in self._e])

    def __mul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise PreconditionError("dimension mismatch in matrix product")
        out = []
        for i in range(self.rows):
            ri = self.row(i)
            for j in range(other.cols):
                s = ZERO
                for k in range(self.cols):
                    a = ri[k]
                    if a:
                        s = s + a * other.at(k, j)
                out.append(s)
        return ExactMatrix(self.rows, other.cols, out)

    def matvec(self, v: Sequence) -> Vector:
        if len(v) != self.cols:
            raise PreconditionError("dimension mismatch in matrix-vector product")
        vv = [GaussianRational.coerce(x) for x in v]
        out = []
        for i in range(self.rows):
            s = ZERO
            ri = self.row(i)
            for a, x in zip(ri, vv):
                if a and x:
                    s = s + a * x
            out.append(s)
        return out

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(
            self.cols, self.rows, [self.at(i, j) for j in range(self.cols) for i in range(self.rows)]
        )

    def conj(self) -> "ExactMatrix":
        return ExactMatrix(self.rows, self.cols, [a.conj() for a in self._e])

    def conj_transpose(self) -> "ExactMatrix":
        return self.transpose().conj()

    def is_zero(self) -> bool:
        return all(not a for a in self._e)

    # -- elimination-backed queries -------------------------------------------

    def rank(self) -> int:
        _rows, pivots, _scale = _echelon(self.to_rows())
        return len(pivots)

    def det(self) -> GaussianRational:
        if self.rows != self.cols:
            raise PreconditionError("determinant of a non-square matrix")
        _rows, pivots, scale = _echelon(self.to_rows())
        return scale if len(pivots) == self.rows else ZERO

    def inverse(self) -> "ExactMatrix":
        if self.rows != self.cols:
            raise PreconditionError("inverse of a non-square matrix")
        n = self.rows
        aug = [self.row(i) + [ONE if i == j else ZERO for j in range(n)] for i in range(n)]
        rows, pivots, _scale = _echelon(aug)
        if len(pivots) < n or any(p >= n for p in pivots):
            raise PreconditionError("matrix is singular")
        inv = [[ZERO] * n for _ in range(n)]
        for r, c in enumerate(pivots):
            inv[c] = rows[r][n:]
        return ExactMatrix.from_rows(inv)

    # -- misc -------------------------------------------------------------------

    def _same_shape(self, other: "ExactMatrix"):
        if self.rows != other.rows or self.cols != other.cols:
            raise PreconditionError("shape mismatch")

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self.rows == other.rows and self.cols == other.cols and self._e == other._e

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(self._e)))

    def to_literal(self) -> str:
        body = ", ".join(
            "[" + ", ".join(str(self.at(i, j)) for j in range(self.cols)) + "]"
            for i in range(self.rows)
        )
        return "[" + body + "]"

    def __repr__(self):
        return f"ExactMatrix({self.to_literal()})"


def _echelon(rows: list[Vector]) -> tuple[list[Vector], list[int], GaussianRational]:
    """In-place reduction to reduced echelon form; returns (rows, pivot columns, scale).

    Pivot selection is deterministic: for each column in order, the first
    remaining row with a nonzero entry.  Each pivot row is divided by its
    pivot and the pivot column cleared in every other row.  The scale is
    (-1)^(row swaps) times the product of the pivots, so a square matrix of
    full rank has determinant scale.
    """
    if not rows:
        return rows, [], ONE
    ncols = len(rows[0])
    pivots: list[int] = []
    scale = ONE
    r = 0
    for c in range(ncols):
        if r >= len(rows):
            break
        p = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                p = i
                break
        if p is None:
            continue
        if p != r:
            rows[r], rows[p] = rows[p], rows[r]
            scale = -scale
        piv = rows[r][c]
        scale = scale * piv
        if piv != ONE:
            inv = piv.inverse()
            rows[r] = [inv * x for x in rows[r]]
        rr = rows[r]
        for i in range(len(rows)):
            f = rows[i][c]
            if i != r and f:
                ri = rows[i]
                for j in range(c, ncols):
                    if rr[j]:
                        ri[j] = ri[j] - f * rr[j]
        pivots.append(c)
        r += 1
    return rows, pivots, scale


def solve(a: ExactMatrix, b: Sequence) -> Vector:
    """Solve A x = b exactly for the unique solution.

    Raises :class:`InconsistentSystemError` when no solution exists and
    :class:`UnderdeterminedSystemError` when the solution space has positive
    dimension.  The input may be rectangular; consistency of redundant rows
    is checked exactly.
    """
    if a.rows == 0 or a.cols == 0:
        raise PreconditionError("empty system")
    if len(b) != a.rows:
        raise PreconditionError("dimension mismatch between matrix and right-hand side")
    aug = [a.row(i) + [GaussianRational.coerce(b[i])] for i in range(a.rows)]
    rows, pivots, _scale = _echelon(aug)
    n = a.cols
    if any(p == n for p in pivots):
        raise InconsistentSystemError("A x = b has no solution")
    if len(pivots) < n:
        raise UnderdeterminedSystemError(
            f"solution space has dimension {n - len(pivots)}"
        )
    x = [ZERO] * n
    for r, c in enumerate(pivots):
        x[c] = rows[r][n]
    return x


def nullspace(a: ExactMatrix) -> list[Vector]:
    """Deterministic basis of {v : A v = 0} from the reduced echelon form.

    Each basis vector carries a 1 in one free column (ascending order) and
    the solved pivot values elsewhere; the span is exactly the kernel.
    """
    rows, pivots, _scale = _echelon(a.to_rows())
    n = a.cols
    pivot_set = set(pivots)
    free = [c for c in range(n) if c not in pivot_set]
    basis = []
    for f in free:
        v = [ZERO] * n
        v[f] = ONE
        for r, c in enumerate(pivots):
            v[c] = -rows[r][f]
        basis.append(v)
    return basis


def rank_mod_p(rows: Iterable[Mapping[int, int]], ncols: int) -> int:
    """Rank modulo the prime ``MODULUS`` of an integer matrix with ``ncols`` columns.

    Each row maps a column to its integer entry, absent entries being zero.
    Reducing mod p can only lose rank, so the result is at most the rank
    over Q, and ``rank_mod_p(rows, ncols) == ncols`` certifies that the
    matrix has a trivial kernel over Q.  A smaller value proves nothing: the
    prime may divide a minor that is nonzero over Q.  Rows are eliminated
    shortest first, which keeps fill-in low on sparse systems, and the
    elimination stops once every column holds a pivot.
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in sorted(rows, key=len):
        if len(pivots) == ncols:
            break
        r = {c: v % MODULUS for c, v in row.items() if v % MODULUS}
        while r:
            c = min(r)
            prow = pivots.get(c)
            if prow is None:
                inv = pow(r[c], -1, MODULUS)
                pivots[c] = {j: v * inv % MODULUS for j, v in r.items()}
                break
            f = r[c]
            for j, v in prow.items():
                w = (r.get(j, 0) - f * v) % MODULUS
                if w:
                    r[j] = w
                else:
                    del r[j]
    return len(pivots)
