import itertools
import math
import random
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from crflat import ExactMatrix, GaussianRational, nullspace, solve
from crflat import linalg
from crflat.errors import (
    ConsistencyError,
    InconsistentSystemError,
    LinearSolveError,
    PreconditionError,
    UnderdeterminedSystemError,
)
from crflat.linalg import (
    MODULUS,
    PRIMES,
    SparseMatrix,
    _echelon,
    _reduce,
    certified_nullspace,
    rank_mod_p,
    sparse_nullspace,
)
from crflat.numeric import ONE, ZERO

from conftest import rand_gaussian, rand_matrix

G = GaussianRational


def _matvec(a, v):
    """A x, entry by entry."""
    return [sum((x * y for x, y in zip(row, v)), ZERO) for row in a.to_rows()]


def test_solve_identity():
    a = ExactMatrix.identity(3)
    b = [G(1), G(0, 1), G(F(1, 2))]
    assert solve(a, b) == b


def test_solve_two_by_two():
    a = ExactMatrix.from_rows([[1, 1], [1, -1]])
    assert solve(a, [2, 0]) == [G(1), G(1)]


def test_solve_inconsistent():
    a = ExactMatrix.from_rows([[1, 1], [2, 2]])
    with pytest.raises(InconsistentSystemError):
        solve(a, [1, 3])


def test_solve_underdetermined():
    a = ExactMatrix.from_rows([[1, 1], [2, 2]])
    with pytest.raises(UnderdeterminedSystemError):
        solve(a, [1, 2])


def test_solve_rectangular_consistent():
    # overdetermined but consistent: redundant third row
    a = ExactMatrix.from_rows([[1, 0], [0, 1], [1, 1]])
    assert solve(a, [2, 3, 5]) == [G(2), G(3)]


def test_solve_shape_checks():
    a = ExactMatrix.from_rows([[1, 0]])
    with pytest.raises(PreconditionError):
        solve(a, [1, 2])


def test_nullspace_identity_and_zero():
    assert nullspace(ExactMatrix.identity(3)) == []
    basis = nullspace(ExactMatrix(2, 2, [0] * 4))
    assert len(basis) == 2


def test_nullspace_one_relation():
    basis = nullspace(ExactMatrix.from_rows([[1, -1]]))
    assert basis == [[G(1), G(1)]]


def test_nullspace_vectors_are_in_kernel():
    rng = random.Random(4)
    for _ in range(40):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        a = ExactMatrix(rows, cols, [rand_gaussian(rng) for _ in range(rows * cols)])
        basis = nullspace(a)
        for v in basis:
            assert all(not x for x in _matvec(a, v))
        assert a.rank() + len(basis) == cols  # rank-nullity, exact


def test_solve_substitutes_back():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(1, 4)
        a = rand_matrix(rng, n)
        if a.det().is_zero():
            continue
        x = [rand_gaussian(rng) for _ in range(n)]
        b = _matvec(a, x)
        assert solve(a, b) == x


def test_inverse_and_det():
    rng = random.Random(6)
    for _ in range(30):
        a = rand_matrix(rng, 3)
        d = a.det()
        if d.is_zero():
            with pytest.raises(PreconditionError):
                a.inverse()
            continue
        inv = a.inverse()
        assert a * inv == ExactMatrix.identity(3)
        assert (a * a).det() == d * d


@pytest.mark.parametrize("perm", list(itertools.permutations(range(4))))
def test_det_of_permutation_matrix_is_its_sign(perm):
    inversions = sum(perm[i] > perm[j] for i in range(4) for j in range(i + 1, 4))
    p = ExactMatrix.from_rows([[1 if perm[i] == j else 0 for j in range(4)] for i in range(4)])
    assert p.det() == (-1) ** inversions


@pytest.mark.parametrize("n", [3, 4])
def test_det_is_multiplicative(n):
    rng = random.Random(60 + n)
    for _ in range(15):
        a, b = rand_matrix(rng, n), rand_matrix(rng, n)
        assert (a * b).det() == a.det() * b.det()


@pytest.mark.parametrize("n", [3, 4])
def test_det_vanishes_exactly_below_full_rank(n):
    rng = random.Random(70 + n)
    kinds = set()
    for k in range(20):
        a = rand_matrix(rng, n)
        if k % 2:
            # the last row a combination of the first two: rank below n
            rows = a.to_rows()
            c1, c2 = rand_gaussian(rng), rand_gaussian(rng)
            rows[-1] = [c1 * x + c2 * y for x, y in zip(rows[0], rows[1])]
            a = ExactMatrix.from_rows(rows)
        singular = a.rank() < n
        kinds.add(singular)
        assert (a.det() == 0) == singular
        if singular:
            with pytest.raises(PreconditionError):
                a.inverse()
        else:
            assert a.inverse() * a == ExactMatrix.identity(n)
    assert kinds == {True, False}


def test_conj_transpose_and_hermitian():
    a = ExactMatrix.from_rows([[1, G(2, 1)], [G(2, -1), -3]])
    assert a.conj_transpose() == a
    b = ExactMatrix.from_rows([[0, 1], [0, 0]])
    assert b != b.conj_transpose()


def test_to_literal():
    a = ExactMatrix.from_rows([[0, G(0, 1)], [G(F(1, 2)), 0]])
    assert a.to_literal() == "[[0, 1 i], [1/2, 0]]"


# -- rank modulo the prime ----------------------------------------------------------


def shaped_matrices(entries):
    """Integer matrices of 1..5 rows and columns with entries drawn from ``entries``."""
    return st.tuples(st.integers(1, 5), st.integers(1, 5)).flatmap(
        lambda shape: st.lists(
            st.lists(entries, min_size=shape[1], max_size=shape[1]),
            min_size=shape[0],
            max_size=shape[0],
        )
    )


def sparse(rows):
    return [{j: v for j, v in enumerate(row) if v} for row in rows]


@settings(derandomize=True, deadline=None, max_examples=150)
@given(
    shaped_matrices(
        st.one_of(
            st.integers(-3, 3),
            st.sampled_from([MODULUS, -MODULUS, 2 * MODULUS, MODULUS + 1, 2**64]),
        )
    )
)
def test_rank_mod_p_never_exceeds_the_rational_rank(rows):
    assert rank_mod_p(sparse(rows)) <= ExactMatrix.from_rows(rows).rank()


@settings(derandomize=True, deadline=None, max_examples=150)
@given(shaped_matrices(st.integers(-3, 3)))
def test_rank_mod_p_is_the_rational_rank_for_small_entries(rows):
    # every minor of a 5x5 matrix with entries in [-3, 3] is below the prime
    # in absolute value, so no minor vanishes mod p that is nonzero over Q
    assert rank_mod_p(sparse(rows)) == ExactMatrix.from_rows(rows).rank()


def test_rank_mod_p_loses_rank_at_a_multiple_of_the_prime():
    rows = [[MODULUS, 0], [0, 1]]
    assert ExactMatrix.from_rows(rows).rank() == 2
    assert rank_mod_p(sparse(rows)) == 1
    rows = [[1, 1], [1, 1 + MODULUS]]
    assert ExactMatrix.from_rows(rows).rank() == 2
    assert rank_mod_p(sparse(rows)) == 1


@settings(derandomize=True, deadline=None, max_examples=150)
@given(shaped_matrices(st.integers(-3, 3)), st.booleans())
def test_certified_nullspace_is_the_exact_nullspace(rows, repeat_column):
    if repeat_column:
        # a repeated column makes the matrix rank-deficient
        rows = [row + [row[0]] for row in rows]
    ncols = len(rows[0])
    assert certified_nullspace(sparse(rows), ncols, "t") == sparse_nullspace(sparse(rows), ncols)


def test_certified_nullspace_when_the_prime_divides_a_minor():
    # rank_p = 1 < 2 = rank over Q: the exact kernel is empty, within the bound
    assert certified_nullspace(sparse([[MODULUS, 0], [0, 1]]), 2, "t") == []
    assert certified_nullspace(sparse([[MODULUS, 0, 0], [0, 1, 0]]), 3, "t") == [
        [G(0), G(0), G(1)]
    ]


def test_certified_nullspace_of_full_modular_rank_skips_elimination(monkeypatch):
    def no_exact(*args):
        raise AssertionError("exact elimination at full modular rank")

    monkeypatch.setattr(linalg, "sparse_nullspace", no_exact)
    assert certified_nullspace([{0: 2, 1: 1}, {1: 3}, {0: 1, 1: 1}], 2, "t") == []
    assert certified_nullspace([], 0, "t") == []


ROWS = [{0: 1, 1: -1}, {2: 2, 3: 1}]  # rank 2 in 4 columns


@pytest.mark.parametrize("delta", [G(1), G(0, 1)], ids=["re", "im"])
def test_certified_nullspace_rejects_a_vector_outside_the_kernel(monkeypatch, delta):
    def corrupted(rows, ncols):
        basis = sparse_nullspace(rows, ncols)
        basis[1][3] += delta
        return basis

    monkeypatch.setattr(linalg, "sparse_nullspace", corrupted)
    with pytest.raises(ConsistencyError, match="exact kernel of the probe fails"):
        certified_nullspace(ROWS, 4, "the probe")


def test_certified_nullspace_rejects_a_basis_beyond_the_modular_bound(monkeypatch):
    # one more modular rank than the rational rank leaves room for one vector
    monkeypatch.setattr(linalg, "rank_mod_p", lambda rows: rank_mod_p(rows) + 1)
    with pytest.raises(ConsistencyError, match="exact kernel of the probe fails"):
        certified_nullspace(ROWS, 4, "the probe")


def test_certified_nullspace_rejects_a_padded_basis(monkeypatch):
    # every vector lies in the kernel, but there are more than 4 - 2 of them
    monkeypatch.setattr(
        linalg, "sparse_nullspace", lambda rows, ncols: 3 * [sparse_nullspace(rows, ncols)[0]]
    )
    with pytest.raises(ConsistencyError, match="exact kernel of the probe fails"):
        certified_nullspace(ROWS, 4, "the probe")


def test_rank_mod_p_edge_cases():
    assert rank_mod_p([]) == 0
    assert rank_mod_p([{}, {1: 0}]) == 0
    assert rank_mod_p([{0: 1}, {0: 2}, {0: 3}]) == 1
    assert rank_mod_p([{2: 5}, {0: 1, 2: 1}, {1: -4}]) == 3


# -- the sparse elimination against the dense one it replaced -------------------------


def _dense_echelon(rows):
    """Dense reduced echelon form over GaussianRational, first-row pivots.

    The elimination the sparse one replaced, kept as its oracle; returns
    (rows, pivot columns, scale) with scale = (-1)^(row swaps) times the
    product of the pivots.
    """
    if not rows:
        return rows, [], ONE
    ncols = len(rows[0])
    pivots = []
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


@st.composite
def structured_matrices(draw, max_rows=5, max_cols=6):
    """Real or complex matrices, often sparse, with dependent and zero lines.

    Duplicate rows, combinations of rows, zero rows and zero columns make
    them rank-deficient; a final shuffle of the rows forces row swaps.
    """
    complex_entries = draw(st.booleans())
    nrows = draw(st.integers(1, max_rows))
    ncols = draw(st.integers(1, max_cols))
    part = st.one_of(
        st.just(0), st.just(0), st.integers(-3, 3), st.fractions(-2, 2, max_denominator=4)
    )
    entry = st.builds(G, part, part if complex_entries else st.just(0))
    rows = draw(
        st.lists(st.lists(entry, min_size=ncols, max_size=ncols), min_size=nrows, max_size=nrows)
    )
    if draw(st.booleans()):
        rows.append(list(draw(st.sampled_from(rows))))
    if draw(st.booleans()):
        a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        c1, c2 = draw(entry), draw(entry)
        rows.append([c1 * x + c2 * y for x, y in zip(a, b)])
    if draw(st.booleans()):
        rows[draw(st.integers(0, len(rows) - 1))] = [ZERO] * ncols
    if draw(st.booleans()):
        j = draw(st.integers(0, ncols - 1))
        rows = [row[:j] + [ZERO] + row[j + 1 :] for row in rows]
    return draw(st.permutations(rows))


def _dense(reduced, ncols):
    return [[G.coerce(row.get(j, 0)) for j in range(ncols)] for row in reduced]


@settings(derandomize=True, deadline=None, max_examples=300)
@given(structured_matrices())
def test_sparse_elimination_matches_the_dense_one(rows):
    ncols = len(rows[0])
    want, want_pivots, want_scale = _dense_echelon([list(r) for r in rows])
    sparse_rows = [{j: x for j, x in enumerate(r) if x} for r in rows]
    got, pivots, _scale = _echelon(sparse_rows)
    assert pivots == want_pivots
    rank = len(pivots)
    assert _dense(got[:rank], ncols) == want[:rank]
    assert all(not row for row in got[rank:])
    assert all(type(x) is G for row in got for x in row.values())
    a = ExactMatrix.from_rows(rows)
    assert a.rank() == rank
    if len(rows) == ncols:
        assert a.det() == (want_scale if rank == ncols else 0)
    # the basis read off the dense reduced form, free columns ascending
    basis = []
    for f in (c for c in range(ncols) if c not in want_pivots):
        v = [ZERO] * ncols
        v[f] = ONE
        for r, c in enumerate(want_pivots):
            v[c] = -want[r][f]
        basis.append(v)
    assert nullspace(a) == basis
    assert sparse_nullspace(sparse_rows, ncols) == basis


@settings(derandomize=True, deadline=None, max_examples=200)
@given(structured_matrices(max_rows=4, max_cols=4), st.data())
def test_solve_and_inverse_round_trips(rows, data):
    a = ExactMatrix.from_rows(rows)
    n = a.cols
    part = st.one_of(st.integers(-3, 3), st.fractions(-2, 2, max_denominator=4))

    def vector(size):
        return data.draw(st.lists(st.builds(G, part, part), min_size=size, max_size=size))

    def check(b):
        # one solve with the memoized factor against the dense oracle on [A | b]
        want, pivots, _ = _dense_echelon([list(r) + [y] for r, y in zip(rows, b)])
        if n in pivots:
            with pytest.raises(InconsistentSystemError, match="^A x = b has no solution$"):
                solve(a, b)
        elif len(pivots) < n:
            with pytest.raises(
                UnderdeterminedSystemError, match=f"^solution space has dimension {n - len(pivots)}$"
            ):
                solve(a, b)
        else:
            assert solve(a, b) == [want[k][n] for k in range(n)]

    rank = a.rank()
    # one matrix object, several right-hand sides in turn: inside the column
    # space, a random one (outside it whenever the oracle says so), inside again
    x = vector(n)
    check(_matvec(a, x))
    factor = a._factor
    if rank == n:
        assert solve(a, _matvec(a, x)) == x
    check(vector(a.rows))
    check(_matvec(a, vector(n)))
    assert a._factor is factor
    if a.rows == n:
        if rank == n:
            inv = a.inverse()
            assert a * inv == ExactMatrix.identity(n) == inv * a
        else:
            with pytest.raises(PreconditionError, match="singular"):
                a.inverse()


def _tall_system(complex_entries):
    # a 6x4 matrix of full column rank without zero rows, and a solution of it
    rng = random.Random(5)
    while True:
        a = ExactMatrix.from_rows(
            [
                [G(rng.randint(-3, 3), rng.randint(-3, 3) if complex_entries else 0) for _ in range(4)]
                for _ in range(6)
            ]
        )
        if a.rank() == 4 and all(any(row) for row in a.to_rows()):
            break
    x = [G(F(k + 1, 2), k if complex_entries else 0) for k in range(4)]
    return a, x


@pytest.mark.parametrize("complex_entries", [False, True])
def test_a_corrupted_factor_never_returns_a_wrong_solution(monkeypatch, complex_entries):
    a, x = _tall_system(complex_entries)
    b = _matvec(a, x)
    assert solve(a, b) == x
    factor = a._factor
    caught = 0
    for k, (cols, re, im) in enumerate(factor.left):
        for t in range(len(cols)):
            with monkeypatch.context() as mp:
                left = list(factor.left)
                left[k] = (cols, re[:t] + [re[t] + 1] + re[t + 1 :], im)
                mp.setattr(factor, "left", left)
                try:
                    got = solve(a, b)
                except InconsistentSystemError:
                    caught += 1
                else:
                    assert got == x
    assert caught > 0
    assert solve(a, b) == x


@pytest.mark.parametrize("complex_entries", [False, True])
def test_a_corrupted_elimination_fails_the_factor_certificate(monkeypatch, complex_entries):
    a, x = _tall_system(complex_entries)
    echelon = linalg._echelon

    def corrupted(rows):
        reduced, pivots, scale = echelon(rows)
        reduced[0][max(reduced[0])] += 1  # an entry of the first row of L
        return reduced, pivots, scale

    monkeypatch.setattr(linalg, "_echelon", corrupted)
    with pytest.raises(ConsistencyError, match="identity on the pivot columns"):
        solve(a, _matvec(a, x))
    assert a._factor is None


def test_sparse_pivot_is_the_shortest_candidate_row():
    # column 0 is nonzero in both rows; the shorter second row is taken first
    # and holds its pivot, the first row that of column 1: the transposition
    # of the two rows gives the determinant its sign
    got, pivots, scale = _echelon([{0: 2, 1: 1}, {0: 3}])
    assert pivots == [0, 1]
    assert got == [{0: 1}, {1: 1}]
    assert scale == -3 == 2 * 0 - 1 * 3


def _leibniz(rows):
    """The determinant of a square matrix by the Leibniz formula, apart from any elimination."""
    n = len(rows)
    det = 0
    for perm in itertools.permutations(range(n)):
        sign = (-1) ** sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        det += sign * math.prod(rows[i][perm[i]] for i in range(n))
    return det


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.integers(1, 5), st.booleans(), st.data())
def test_det_when_the_rows_are_not_taken_in_their_order(n, complex_entries, data):
    # row i keeps at most its first n - i entries, and the rows are shuffled:
    # the shortest-first order then permutes them, and with it the pivots
    part = st.integers(-3, 3)
    entry = st.builds(G, part, part if complex_entries else st.just(0))
    rows = []
    for i in range(n):
        row = data.draw(st.lists(entry, min_size=n, max_size=n))
        nonzero = data.draw(st.integers(1, n - i))
        rows.append([v if j < nonzero else ZERO for j, v in enumerate(row)])
    rows = data.draw(st.permutations(rows))
    want = _leibniz(rows)
    assert ExactMatrix.from_rows(rows).det() == want
    if not complex_entries:
        ints = [{j: int(v.re) for j, v in row.items()} for row in sparse(rows)]
        _got, pivots, scale = _reduce(ints, MODULUS)
        if len(pivots) == n:
            assert scale == int(want.re) % MODULUS


def test_rank_mod_p_with_columns_beyond_every_entry():
    # the elimination never sees columns 2..4, so it stops at the pivots of
    # columns 0 and 1; the rank is still that of the 3 x 5 matrix
    rows = [{0: 1, 1: 1}, {1: 2}, {0: 3, 1: 3}]
    dense = ExactMatrix.from_rows([[1, 1, 0, 0, 0], [0, 2, 0, 0, 0], [3, 3, 0, 0, 0]])
    assert rank_mod_p(rows) == 2 == dense.rank()
    assert rank_mod_p([{3: 1}, {3: -1}]) == 1
    basis = certified_nullspace(rows, 5, "t")
    assert basis == sparse_nullspace(rows, 5) and len(basis) == 3


def test_sparse_nullspace_accepts_integer_rows():
    assert sparse_nullspace([{0: 1, 1: -1}, {}], 3) == [[G(1), G(1), G(0)], [G(0), G(0), G(1)]]
    assert sparse_nullspace([], 2) == [[G(1), G(0)], [G(0), G(1)]]


# -- the multi-modular factor of integer rows -----------------------------------------


def _sparse_system(rows):
    return SparseMatrix([{j: v for j, v in enumerate(row) if v} for row in rows], len(rows[0]))


def _outcome(a, b):
    try:
        return solve(a, b)
    except LinearSolveError as exc:
        return type(exc), str(exc)


@st.composite
def integer_matrices(draw, max_rows=6, max_cols=5, big=True):
    """Integer matrices with dependent rows and columns.

    Entries lie in -3..3, and with ``big`` some are divisible by a prime.
    """
    nrows = draw(st.integers(1, max_rows))
    ncols = draw(st.integers(1, max_cols))
    choices = [st.just(0), st.just(0), st.integers(-3, 3)]
    if big:
        multiples = [PRIMES[0], -PRIMES[1], 2 * PRIMES[0], PRIMES[0] * PRIMES[1], 2**64 + 1]
        choices.append(st.sampled_from(multiples))
    entry = st.one_of(*choices)
    rows = draw(
        st.lists(st.lists(entry, min_size=ncols, max_size=ncols), min_size=nrows, max_size=nrows)
    )
    if draw(st.booleans()):
        a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        c1, c2 = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
        rows.append([c1 * x + c2 * y for x, y in zip(a, b)])
    if ncols > 1 and draw(st.booleans()):
        i, j = draw(st.permutations(range(ncols)))[:2]
        c = draw(st.integers(-2, 2))
        rows = [row[:j] + [c * row[i]] + row[j + 1 :] for row in rows]
    return draw(st.permutations(rows))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(integer_matrices(), st.data())
def test_the_modular_factor_agrees_with_exact_elimination(rows, data):
    n = len(rows[0])
    a = _sparse_system(rows)
    part = st.one_of(st.integers(-5, 5), st.fractions(-2, 2, max_denominator=5))
    x = data.draw(st.lists(part, min_size=n, max_size=n))
    inside = [sum(v * y for v, y in zip(row, x)) for row in rows]
    outside = data.draw(st.lists(st.integers(-5, 5), min_size=len(rows), max_size=len(rows)))
    with mock.patch.object(linalg, "_echelon", wraps=linalg._echelon) as echelon:
        got = [_outcome(a, b) for b in (inside, outside, inside)]
    dense = ExactMatrix.from_rows(rows)
    assert got == [_outcome(dense, b) for b in (inside, outside, inside)]
    full_rank = len(a._factor.pivots) == n
    assert full_rank == (dense.rank() == n)
    if all(abs(v) <= 3 for row in rows for v in row):
        # small entries: every full-rank system lifts modulo the first prime,
        # and only a rank-deficient one needs the exact elimination
        assert echelon.call_count == (0 if full_rank else 1)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(integer_matrices(big=False))
def test_the_elimination_mod_a_prime_is_the_image_of_the_exact_one(rows):
    # every minor of a matrix of at most 7 x 5 entries of size at most 24 is
    # below 2^30 by Hadamard's bound, so no pivot vanishes modulo the prime
    p = PRIMES[0]
    want, want_pivots, want_scale = _echelon(sparse(rows))
    residues = [{j: v % p for j, v in row.items() if v % p} for row in sparse(rows)]
    got, pivots, scale = _reduce(residues, p)

    def image(x):
        x = G.coerce(x)
        assert x.is_real()
        return x.re.numerator * pow(x.re.denominator, -1, p) % p

    assert pivots == want_pivots
    # the same entries in the same order, each a / b read as a b^-1 mod p
    assert [list(row.items()) for row in got] == [
        [(j, image(x)) for j, x in row.items()] for row in want
    ]
    assert scale == image(want_scale)
    n = len(rows)
    if n == len(rows[0]) and len(pivots) == n:
        assert scale == _leibniz(rows) % p


def test_a_prime_that_divides_a_pivot_falls_back_to_exact_elimination(monkeypatch):
    # modulo 3 the first column has no pivot
    rows = [[3, 1], [0, 1], [6, 2]]
    echelon = mock.Mock(wraps=linalg._echelon)
    monkeypatch.setattr(linalg, "_echelon", echelon)
    monkeypatch.setattr(linalg, "PRIMES", (3,))
    a = _sparse_system(rows)
    assert solve(a, [4, 1, 8]) == [G(1), G(1)]
    assert echelon.call_count == 1 and a._factor.pivots == [0, 1]
    # a prime without the pivot adds nothing to the next one
    monkeypatch.setattr(linalg, "PRIMES", (3, MODULUS))
    a = _sparse_system(rows)
    assert solve(a, [4, 1, 8]) == [G(1), G(1)]
    assert echelon.call_count == 1


def test_a_failed_reconstruction_takes_the_next_prime_then_exact_elimination(monkeypatch):
    # L = diag(1, 1/37): 37 lies beyond sqrt(101 / 2) but within sqrt(101 * 103 / 2)
    rows = [[1, 0], [0, 37], [1, 37]]
    b = [2, 37, 39]
    lifts = []
    lift = linalg._lift
    monkeypatch.setattr(linalg, "_lift", lambda res, mod: lifts.append(lift(res, mod)) or lifts[-1])
    echelon = mock.Mock(wraps=linalg._echelon)
    monkeypatch.setattr(linalg, "_echelon", echelon)
    monkeypatch.setattr(linalg, "PRIMES", (101,))
    assert solve(_sparse_system(rows), b) == [G(2), G(1)]
    assert lifts == [None] and echelon.call_count == 1
    lifts.clear()
    monkeypatch.setattr(linalg, "PRIMES", (101, 103))
    a = _sparse_system(rows)
    assert solve(a, b) == [G(2), G(1)]
    assert lifts[0] is None and lifts[1] is not None and echelon.call_count == 1
    assert a._factor.den == 37


def test_a_corrupted_lift_never_returns_a_wrong_solution(monkeypatch):
    a, x = _tall_system(False)
    rows = [[int(v.re) for v in row] for row in a.to_rows()]
    b = _matvec(a, x)
    lift = linalg._lift
    clean = _sparse_system(rows)
    assert solve(clean, b) == x
    entries = [(r, j) for r, (cols, _re, _im) in enumerate(clean._factor.left) for j in cols]
    assert entries
    for r, j in entries:

        def corrupted(residues, modulus, r=r, j=j):
            den, left = lift(residues, modulus)
            left[r] = {**left[r], j: left[r][j] + 1}
            return den, left

        echelon = mock.Mock(wraps=linalg._echelon)
        with monkeypatch.context() as mp:
            mp.setattr(linalg, "_lift", corrupted)
            mp.setattr(linalg, "_echelon", echelon)
            assert solve(_sparse_system(rows), b) == x
        assert echelon.call_count == 1


def test_sparse_matrix_checks_its_columns():
    with pytest.raises(PreconditionError, match="outside 2 columns"):
        SparseMatrix([{0: 1, 2: 1}], 2)
    with pytest.raises(PreconditionError, match="empty system"):
        solve(SparseMatrix([], 2), [])
