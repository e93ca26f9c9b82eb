"""Exact linear algebra over the Gaussian rationals.

Provides a row-major dense matrix type and one sparse Gauss-Jordan loop,
``_reduce``, over rows that map a column to its nonzero entry.  That loop
is behind solve, nullspace, rank, determinant and inverse, the modular
factor, and the rank of an integer matrix modulo a fixed prime, which
certifies full column rank over the rationals without rational arithmetic.
It runs over ``Fraction`` when no entry has an imaginary part, over
``GaussianRational`` otherwise, and over the integers mod p.  It takes the
rows shortest first and keeps its pivot rows fully reduced; what it
returns is the reduced echelon form, which is unique, so everything
derived from it (nullspace bases, solutions, reports built on them) is
reproducible byte for byte whatever order the rows come in.

``solve`` takes a dense ``ExactMatrix`` or a ``SparseMatrix`` of sparse
rows and factors each matrix once: the first solve eliminates [A | I] and
keeps a left inverse L, checked by L A = I on the pivot columns, as integer
rows over one common denominator; the matrix holds it for later solves.
Rows of ints are eliminated modulo the ``PRIMES`` instead, and L is lifted
by the Chinese remainder theorem and rational reconstruction; exact
elimination is the fallback when no lift certifies.  Every solve then
applies L to b and certifies A x = b, both in integers; that product also
decides consistency exactly, whichever left inverse was found.

``certified_nullspace`` is the certified kernel of integer rows: a full
modular rank proves it trivial without exact elimination; otherwise each
vector of the exact basis is checked by A v = 0 in integers, and the
nullity is bounded by the column count minus the modular rank.  Every
integer form here comes from :func:`crflat.numeric.integer_parts`.

All values are immutable after construction and all operations are pure;
the memoized factor is derived from the entries and never changes them.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import repeat
from operator import mul
from typing import Iterable, Mapping, Sequence

from .errors import (
    ConsistencyError,
    InconsistentSystemError,
    PreconditionError,
    UnderdeterminedSystemError,
)
from .numeric import _FRACTION_ZERO, ONE, ZERO, GaussianRational, _exact, integer_parts

Vector = list[GaussianRational]

MODULUS = 2**61 - 1  # a Mersenne prime
# the moduli of the multi-modular factor, in order of use
PRIMES = (MODULUS, 2**62 - 57)


class ExactMatrix:
    """Dense matrix with Gaussian-rational entries, stored row-major."""

    __slots__ = ("rows", "cols", "_e", "_factor")

    def __init__(self, rows: int, cols: int, entries: Iterable):
        self.rows = rows
        self.cols = cols
        self._e = [GaussianRational.coerce(x) for x in entries]
        self._factor = None  # the _LeftInverse of the first solve
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
        factor = _factor(self)
        if len(factor.pivots) < self.rows:
            raise PreconditionError("matrix is singular")
        # full rank: L is the two-sided inverse
        return ExactMatrix.from_rows([factor.row(c) for c in range(self.rows)])

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


class SparseMatrix:
    """Sparse rows {column: entry} with ``cols`` columns, for :func:`solve`.

    Entries are ints, ``Fraction``s or ``GaussianRational``s; rows of ints
    are factored modulo primes (see :class:`_LeftInverse`).  Like
    ``ExactMatrix``, the matrix keeps the factor of its first solve.
    """

    __slots__ = ("entries", "rows", "cols", "_factor")

    def __init__(self, entries: Iterable[Mapping[int, object]], cols: int):
        self.entries = [dict(row) for row in entries]
        self.rows = len(self.entries)
        self.cols = cols
        self._factor = None
        if any(not 0 <= j < cols for row in self.entries for j in row):
            raise PreconditionError(f"sparse row entry outside {cols} columns")


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


def _echelon(rows: Iterable[Mapping[int, object]]) -> tuple[list[dict], list[int], object]:
    """Reduced echelon form of sparse rows over Q (see ``_reduce``).

    The entries of the result are in the scalar type ``_scalar_rows`` picks.
    """
    return _reduce(_scalar_rows(rows))


def _subtract(row: dict, f, other: Iterable[tuple[int, object]], modulus: int | None) -> None:
    """row -= f * other in place, dropping zeros; entries mod ``modulus`` when given."""
    for j, v in other:
        w = row.get(j)
        w = -(f * v) if w is None else w - f * v
        if modulus is not None:
            w %= modulus
        if w:
            row[j] = w
        else:
            del row[j]


def _reduce(rows: list[dict], modulus: int | None = None) -> tuple[list[dict], list[int], object]:
    """Reduced echelon form of sparse rows: (pivot rows, pivot columns, scale).

    The one Gauss-Jordan loop of this module.  Without ``modulus`` it runs
    over the field of the entries, on rows without zero entries, which it
    reduces in place; with a prime ``modulus``, over the integers mod p,
    each row of integers taken as its residues in 0..p-1.  Row k of the
    result holds the pivot of column ``pivots[k]``, the columns ascending.

    Rows are taken shortest first, which keeps fill-in low, and each is
    reduced in one pass against the pivot rows so far, as those are kept
    fully reduced.  Its least column left becomes its pivot: the row is
    divided by the pivot, and the column cleared in the other pivot rows.
    Every entry of a pivot row lies at or right of its pivot, so the result
    is the reduced echelon form, which is unique whatever the row order.
    Once every column of the input holds a pivot, the loop stops.

    The scale is the product of the pivots; for a square input of full
    rank it takes the sign of the permutation from each row to its pivot
    column, and is then the determinant (mod p).  Modulo p, the reduced
    form is the image of the one over Q whenever p divides no minor that
    decides a pivot.
    """
    ncols = 1 + max(map(max, filter(None, rows)), default=-1)
    pivot_rows: dict[int, dict] = {}  # pivot column -> its row, pivot 1
    holders: dict[int, set[int]] = {}  # column -> pivot columns whose rows may hold it
    column_of = [0] * len(rows)  # input row -> the pivot column it became
    scale = 1
    for i in sorted(range(len(rows)), key=lambda i: len(rows[i])):
        if len(pivot_rows) == ncols:
            break
        r = rows[i]
        if modulus is not None:
            r = {j: w for j, v in r.items() if (w := v % modulus)}
        for c, f in [(c, f) for c, f in r.items() if c in pivot_rows]:
            _subtract(r, f, pivot_rows[c].items(), modulus)
        if not r:
            continue
        c = min(r)
        piv = r[c]
        scale = scale * piv if modulus is None else scale * piv % modulus
        if piv != 1:
            if modulus is None:
                inv = 1 / piv
                r = {j: inv * v for j, v in r.items()}
            else:
                inv = pow(piv, -1, modulus)
                r = {j: inv * v % modulus for j, v in r.items()}
        others = [(j, v) for j, v in r.items() if j != c]
        for j, _v in others:
            holders.setdefault(j, set()).add(c)
        for p in holders.pop(c, ()):
            prow = pivot_rows[p]
            f = prow.pop(c, None)  # None once the entry has cancelled
            if f is not None:
                _subtract(prow, f, others, modulus)
                for j, _v in others:
                    holders[j].add(p)
        pivot_rows[c] = r
        column_of[i] = c
    pivots = sorted(pivot_rows)
    if len(rows) == len(pivots) == ncols:
        # the sign of the permutation, one transposition per swap
        for k in range(ncols):
            while column_of[k] != k:
                t = column_of[k]
                column_of[k], column_of[t] = column_of[t], t
                scale = -scale
    if modulus is not None:
        scale %= modulus
    return [pivot_rows[c] for c in pivots], pivots, scale


def _sparse(a: ExactMatrix) -> list[dict[int, GaussianRational]]:
    """The rows of ``a`` as sparse dicts."""
    return [{j: x for j, x in enumerate(a.row(i)) if x} for i in range(a.rows)]


def _integer_rows(rows: Sequence[Mapping[int, object]]) -> tuple[int, list[tuple]]:
    """Sparse rows as (common denominator, [(columns, re, im)]) over integers.

    The imaginary list of a row is None exactly when the row is real.
    """
    den, re, im = integer_parts([v for row in rows for v in row.values()])
    out = []
    start = 0
    for row in rows:
        end = start + len(row)
        row_im = im[start:end]
        out.append((tuple(row), re[start:end], row_im if any(row_im) else None))
        start = end
    return den, out


def _apply(rows: list[tuple], re: list[int], im: list[int] | None) -> tuple:
    """Integer rows times the integer vector re + i im, as (re, im).

    A None imaginary part, of a row or of the vector, is zero; that of the
    result is None exactly when it is zero.  A real vector through real
    rows takes only the real products.
    """
    out_re, out_im = [], []
    for cols, rre, rim in rows:
        vre = [re[j] for j in cols]
        x = sum(map(mul, rre, vre))
        y = 0
        if im is not None:
            vim = [im[j] for j in cols]
            y = sum(map(mul, rre, vim))
            if rim is not None:
                x -= sum(map(mul, rim, vim))
        if rim is not None:
            y += sum(map(mul, rim, vre))
        out_re.append(x)
        out_im.append(y)
    return out_re, (out_im if any(out_im) else None)


def _left_rows(
    rows: Sequence[Mapping[int, object]], n: int, modulus: int | None = None
) -> tuple[list[int], list[dict[int, object]]]:
    """The pivot columns of A and the rows of L, from the reduced form of [A | I].

    Row c of L solves for unknown c; a free unknown gets an empty row, so
    L b is x with the free unknowns at zero.  Without a modulus, ``_echelon``
    eliminates over Q; with one, integer rows are eliminated modulo it.
    """
    augmented = [{**row, n + i: 1} for i, row in enumerate(rows)]
    reduced, pivots, _ = _echelon(augmented) if modulus is None else _reduce(augmented, modulus)
    a_pivots = [c for c in pivots if c < n]
    left = [{} for _ in range(n)]
    for c, row in zip(a_pivots, reduced):
        left[c] = {j - n: v for j, v in row.items() if j >= n}
    return a_pivots, left


class _LeftInverse:
    """A matrix A factored once for exact solves of A x = b, in integers.

    The reduced echelon form of [A | I] is E [A | I] for an invertible E.
    Its first rows carry the pivots of A, and their identity block is L:
    with the free unknowns at zero, x = L b gives E A x = E b in every
    pivot row, and the remaining rows read 0 = E b.  So A (L b) = b exactly
    when b lies in the column space of A, and then x = L b is a solution,
    the only one when every column of A holds a pivot.  L and A are kept
    as integer rows over one common denominator each (``den`` and
    ``a_den``).

    Integer rows are factored modulo the ``PRIMES`` first: L mod p from
    :func:`_left_rows`, lifted by the Chinese remainder theorem and rational
    reconstruction (see :func:`_lift`), and certified by L A = I in
    integers.  A prime that leaves a column of A without a pivot adds
    nothing; a lift that fails to reconstruct or to certify takes the next
    prime.  L A = I proves full column rank, and every solve checks
    A x = b, so x is the unique solution whichever left inverse was found.
    After the last prime, and for every other entry type, ``_echelon``
    eliminates exactly, and an L that fails L A = I on the pivot columns
    raises :class:`ConsistencyError`.
    """

    __slots__ = ("cols", "pivots", "den", "left", "a_den", "a_rows")

    def __init__(self, rows: Sequence[Mapping[int, object]], n: int):
        self.cols = n
        self.a_den, self.a_rows = _integer_rows(rows)
        if all(type(v) is int for row in rows for v in row.values()):
            residues, modulus = None, 1
            for p in PRIMES:
                self.pivots, part = _left_rows(rows, n, p)
                if len(self.pivots) < n:
                    continue
                residues = part if residues is None else _crt(residues, modulus, part, p)
                modulus *= p
                lifted = _lift(residues, modulus)
                if lifted is not None:
                    self.den, left = lifted
                    self.left = [(tuple(row), list(row.values()), None) for row in left]
                    if self._failed_row() is None:
                        return
        self.pivots, left = _left_rows(rows, n)
        self.den, self.left = _integer_rows(left)
        bad = self._failed_row()
        if bad is not None:
            raise ConsistencyError(
                f"left inverse row {bad} of a {len(rows)}x{n} matrix is not the"
                " identity on the pivot columns"
            )

    def _failed_row(self) -> int | None:
        """The first pivot whose row of L A is not the unit row there, or None.

        The certificate of the factor: L A is the identity on the pivot
        columns, over the denominator den * a_den.
        """
        unit = (self.den * self.a_den, 0)
        pivot_set = set(self.pivots)
        a_pivot = [
            [(j, r, u) for j, r, u in zip(cols, re, im or repeat(0)) if j in pivot_set]
            for cols, re, im in self.a_rows
        ]
        for c in self.pivots:
            cols, lre, lim = self.left[c]
            acc = {}
            for i, p, q in zip(cols, lre, lim or repeat(0)):
                for j, r, u in a_pivot[i]:
                    x, y = acc.get(j, (0, 0))
                    acc[j] = (x + p * r - q * u, y + p * u + q * r)
            if {j: v for j, v in acc.items() if v != (0, 0)} != {c: unit}:
                return c
        return None

    def row(self, c: int) -> Vector:
        """The row of L for unknown c as exact values (length: the rows of A)."""
        out = [ZERO] * len(self.a_rows)
        cols, re, im = self.left[c]
        for t, j in enumerate(cols):
            out[j] = GaussianRational(
                Fraction(re[t], self.den), Fraction(im[t], self.den) if im is not None else 0
            )
        return out

    def solve(self, b: Sequence) -> Vector:
        """The certified solution of A x = b (see :func:`solve`)."""
        b_den, bre, bim = integer_parts(b)
        bim = bim if any(bim) else None
        # x = L b over the denominator den * b_den
        xre, xim = _apply(self.left, bre, bim)
        # the certificate of x: A x = b, both sides times a_den * den * b_den;
        # a None imaginary part means zero on both sides
        are, aim = _apply(self.a_rows, xre, xim)
        scale = self.a_den * self.den
        if are != [scale * v for v in bre] or aim != (
            None if bim is None else [scale * v for v in bim]
        ):
            raise InconsistentSystemError("A x = b has no solution")
        if len(self.pivots) < self.cols:
            raise UnderdeterminedSystemError(
                f"solution space has dimension {self.cols - len(self.pivots)}"
            )
        den = self.den * b_den
        if xim is None:
            return [_exact(Fraction(v, den), _FRACTION_ZERO) for v in xre]
        return [_exact(Fraction(v, den), Fraction(w, den)) for v, w in zip(xre, xim)]


def _crt(residues: list[dict], modulus: int, part: list[dict], p: int) -> list[dict]:
    """Rows congruent to ``residues`` mod ``modulus`` and to ``part`` mod p."""
    inv = pow(modulus, -1, p)
    out = []
    for old, new in zip(residues, part):
        row = {}
        for j in old.keys() | new.keys():
            a = old.get(j, 0)
            row[j] = a + modulus * ((new.get(j, 0) - a) * inv % p)
        out.append(row)
    return out


def _reconstruct(u: int, modulus: int, bound: int) -> tuple[int, int] | None:
    """(x, d) with x = d u mod ``modulus``, |x| <= bound and 0 < d <= bound, or None.

    The extended Euclidean algorithm on (modulus, u), stopped at the first
    remainder within the bound; when 2 bound^2 < modulus, a fraction within
    the bounds that is congruent to u is this one.
    """
    r0, r1 = modulus, u
    s0, s1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if s1 < 0:
        r1, s1 = -r1, -s1
    if not 0 < s1 <= bound:
        return None
    return r1, s1


def _lift(residues: list[dict[int, int]], modulus: int) -> tuple[int, list[dict[int, int]]] | None:
    """Residue rows as integer rows over one common denominator, or None.

    Each row keeps a running denominator d: an entry r is the integer u over
    d when u = r d, taken symmetrically mod ``modulus``, lies within
    sqrt(modulus / 2); otherwise r d is reconstructed as a fraction, whose
    denominator joins d.  None when an entry has no reconstruction.
    """
    bound = math.isqrt(modulus // 2)
    half = modulus // 2
    rows, dens = [], []
    for res in residues:
        d = 1
        row = {}  # column -> (x, e) for the entry x / e, e dividing d
        for j, r in res.items():
            u = r * d % modulus
            if u > half:
                u -= modulus
            if -bound <= u <= bound:
                row[j] = (u, d)
                continue
            got = _reconstruct(u % modulus, modulus, bound)
            if got is None:
                return None
            d *= got[1]
            row[j] = (got[0], d)
        rows.append({j: x * (d // e) for j, (x, e) in row.items()})
        dens.append(d)
    den = math.lcm(*dens)
    return den, [{j: x * (den // d) for j, x in row.items()} for row, d in zip(rows, dens)]


def _factor(a: ExactMatrix | SparseMatrix) -> _LeftInverse:
    """The memoized factor of ``a``, built by its first use.

    Two threads that race here build equal factors, and either one is kept.
    """
    if a._factor is None:
        rows = _sparse(a) if isinstance(a, ExactMatrix) else a.entries
        a._factor = _LeftInverse(rows, a.cols)
    return a._factor


def solve(a: ExactMatrix | SparseMatrix, b: Sequence) -> Vector:
    """Solve A x = b exactly for the unique solution.

    Raises :class:`InconsistentSystemError` when no solution exists and
    :class:`UnderdeterminedSystemError` when the solution space has positive
    dimension, in that order of precedence.  The input may be rectangular;
    consistency of redundant rows is checked exactly.  The first solve with
    a matrix factors it (see :class:`_LeftInverse`); each solve applies the
    factor and certifies A x = b in integers.
    """
    if a.rows == 0 or a.cols == 0:
        raise PreconditionError("empty system")
    if len(b) != a.rows:
        raise PreconditionError("dimension mismatch between matrix and right-hand side")
    return _factor(a).solve(b)


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
    prime may divide a minor that is nonzero over Q.  The rank is the pivot
    count of ``_reduce`` mod p; columns beyond every entry add no pivot, so
    ``ncols`` bounds the rank but takes no part in the elimination.
    """
    return len(_reduce(list(rows), MODULUS)[1])


def certified_nullspace(rows: Sequence[Mapping[int, int]], ncols: int, what: str) -> list[Vector]:
    """``sparse_nullspace`` of integer rows, certified in integers.

    A full ``rank_mod_p`` certifies the trivial kernel without exact
    elimination.  Otherwise every basis vector v must satisfy A v = 0, and
    the nullity may not exceed ncols - rank_p, the bound the modular rank
    gives.  A failure raises :class:`ConsistencyError` naming ``what``.
    """
    rank_p = rank_mod_p(rows, ncols)
    if rank_p == ncols:
        return []
    basis = sparse_nullspace(rows, ncols)
    if len(basis) <= ncols - rank_p:
        _den, int_rows = _integer_rows(rows)
        for v in basis:
            _vden, re, im = integer_parts(v)
            out_re, out_im = _apply(int_rows, re, im if any(im) else None)
            if any(out_re) or out_im is not None:
                break
        else:
            return basis
    raise ConsistencyError(f"exact kernel of {what} fails its certificate")
