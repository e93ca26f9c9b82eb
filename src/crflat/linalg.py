"""Exact linear algebra over the Gaussian rationals.

Provides a row-major dense matrix type; one sparse reduced elimination,
over rows that map a column to its nonzero entry, behind solve, nullspace,
rank, determinant and inverse; and a sparse rank of an integer matrix
modulo a fixed prime, which certifies full column rank over the rationals
without rational arithmetic.  The elimination runs over ``Fraction`` when
no entry has an imaginary part and over ``GaussianRational`` otherwise.
Pivot columns are taken in order, so the reduced echelon form -- which is
unique -- and everything derived from it (nullspace bases, solutions,
reports built on them) is reproducible byte for byte.

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
        _rows, pivots, _scale = _echelon(_sparse(self))
        return len(pivots)

    def det(self) -> GaussianRational:
        if self.rows != self.cols:
            raise PreconditionError("determinant of a non-square matrix")
        _rows, pivots, scale = _echelon(_sparse(self))
        return GaussianRational.coerce(scale) if len(pivots) == self.rows else ZERO

    def inverse(self) -> "ExactMatrix":
        if self.rows != self.cols:
            raise PreconditionError("inverse of a non-square matrix")
        n = self.rows
        unit = [{i: 1} for i in range(n)]
        rows, pivots, _scale = _echelon(_sparse(self, unit))
        if len(pivots) < n or any(p >= n for p in pivots):
            raise PreconditionError("matrix is singular")
        inv = [[ZERO] * n for _ in range(n)]
        for row, c in zip(rows, pivots):
            inv[c] = [row.get(n + j, ZERO) for j in range(n)]
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


def _scalar_rows(rows: Iterable[Mapping[int, object]]) -> list[dict[int, object]]:
    """Sparse copies of ``rows`` without zero entries, in one scalar type.

    Entries become ``Fraction`` when none has an imaginary part and
    ``GaussianRational`` otherwise; both support the field operations the
    elimination uses, and real rationals skip the imaginary halves.
    """
    out = [
        {j: GaussianRational.coerce(v) for j, v in row.items() if v} for row in rows
    ]
    if any(v.im for row in out for v in row.values()):
        return out
    return [{j: v.re for j, v in row.items()} for row in out]


def _echelon(
    rows: Iterable[Mapping[int, object]],
) -> tuple[list[dict[int, object]], list[int], object]:
    """Reduced echelon form of sparse rows (see ``sparse_nullspace``).

    Returns (rows, pivot columns, scale); row k of the result holds the
    pivot of column ``pivots[k]``, and its entries are in the scalar type
    ``_scalar_rows`` picks.  Columns are taken in order.  Within a column the
    pivot is the remaining row with the fewest nonzeros (the first such row
    on a tie), which keeps fill-in low; the reduced echelon form is unique,
    so the choice changes no result.  The chosen row is swapped into place,
    divided by its pivot, and the pivot column cleared in every other row.
    The scale is (-1)^(row swaps) times the product of the pivots, so a
    square matrix of full rank has determinant scale.
    """
    rows = _scalar_rows(rows)
    ncols = 1 + max((j for row in rows for j in row), default=-1)
    pivots: list[int] = []
    scale = 1
    r = 0
    for c in range(ncols):
        if r >= len(rows):
            break
        p = None
        for i in range(r, len(rows)):
            if c in rows[i] and (p is None or len(rows[i]) < len(rows[p])):
                p = i
        if p is None:
            continue
        if p != r:
            rows[r], rows[p] = rows[p], rows[r]
            scale = -scale
        prow = rows[r]
        piv = prow[c]
        scale = scale * piv
        if piv != 1:
            inv = 1 / piv
            prow = rows[r] = {j: inv * v for j, v in prow.items()}
        others = [(j, v) for j, v in prow.items() if j != c]
        for i, ri in enumerate(rows):
            f = ri.get(c) if i != r else None
            if f is None:
                continue
            del ri[c]
            for j, v in others:
                w = ri.get(j)
                if w is None:
                    ri[j] = -(f * v)
                else:
                    w = w - f * v
                    if w:
                        ri[j] = w
                    else:
                        del ri[j]
        pivots.append(c)
        r += 1
    return rows, pivots, scale


def _sparse(a: ExactMatrix, extra=()) -> list[dict[int, GaussianRational]]:
    """The rows of ``a`` as sparse dicts, row i extended by ``extra[i]``."""
    rows = [{j: x for j, x in enumerate(a.row(i)) if x} for i in range(a.rows)]
    for row, more in zip(rows, extra):
        row.update((a.cols + j, x) for j, x in more.items())
    return rows


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
    rows, pivots, _scale = _echelon(_sparse(a, [{0: x} for x in b]))
    n = a.cols
    if any(p == n for p in pivots):
        raise InconsistentSystemError("A x = b has no solution")
    if len(pivots) < n:
        raise UnderdeterminedSystemError(
            f"solution space has dimension {n - len(pivots)}"
        )
    x = [ZERO] * n
    for row, c in zip(rows, pivots):
        x[c] = GaussianRational.coerce(row.get(n, 0))
    return x


def sparse_nullspace(rows: Iterable[Mapping[int, object]], ncols: int) -> list[Vector]:
    """Deterministic basis of {v : A v = 0} for A given by sparse rows.

    Each row maps a column below ``ncols`` to its entry (an int, Fraction or
    GaussianRational), absent entries being zero.  Each basis vector carries
    a 1 in one free column (ascending order) and the solved pivot values
    elsewhere, read off the reduced echelon form; the span is exactly the
    kernel.
    """
    reduced, pivots, _scale = _echelon(rows)
    pivot_set = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        v = [ZERO] * ncols
        v[f] = ONE
        for row, c in zip(reduced, pivots):
            x = row.get(f)
            if x is not None:
                v[c] = GaussianRational.coerce(-x)
        basis.append(v)
    return basis


def nullspace(a: ExactMatrix) -> list[Vector]:
    """``sparse_nullspace`` of the rows of ``a``."""
    return sparse_nullspace(_sparse(a), a.cols)


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
