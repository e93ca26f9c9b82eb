import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from crflat import ExactMatrix, GaussianRational, nullspace, solve
from crflat.errors import (
    InconsistentSystemError,
    PreconditionError,
    UnderdeterminedSystemError,
)
from crflat.linalg import MODULUS, rank_mod_p

from conftest import rand_gaussian, rand_matrix

G = GaussianRational


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
    basis = nullspace(ExactMatrix.zero(2, 2))
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
            assert all(not x for x in a.matvec(v))
        assert a.rank() + len(basis) == cols  # rank-nullity, exact


def test_solve_substitutes_back():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(1, 4)
        a = rand_matrix(rng, n)
        if a.det().is_zero():
            continue
        x = [rand_gaussian(rng) for _ in range(n)]
        b = a.matvec(x)
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


def integer_matrices(entries):
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
    integer_matrices(
        st.one_of(
            st.integers(-3, 3),
            st.sampled_from([MODULUS, -MODULUS, 2 * MODULUS, MODULUS + 1, 2**64]),
        )
    )
)
def test_rank_mod_p_never_exceeds_the_rational_rank(rows):
    assert rank_mod_p(sparse(rows), len(rows[0])) <= ExactMatrix.from_rows(rows).rank()


@settings(derandomize=True, deadline=None, max_examples=150)
@given(integer_matrices(st.integers(-3, 3)))
def test_rank_mod_p_is_the_rational_rank_for_small_entries(rows):
    # every minor of a 5x5 matrix with entries in [-3, 3] is below the prime
    # in absolute value, so no minor vanishes mod p that is nonzero over Q
    assert rank_mod_p(sparse(rows), len(rows[0])) == ExactMatrix.from_rows(rows).rank()


def test_rank_mod_p_loses_rank_at_a_multiple_of_the_prime():
    rows = [[MODULUS, 0], [0, 1]]
    assert ExactMatrix.from_rows(rows).rank() == 2
    assert rank_mod_p(sparse(rows), 2) == 1
    rows = [[1, 1], [1, 1 + MODULUS]]
    assert ExactMatrix.from_rows(rows).rank() == 2
    assert rank_mod_p(sparse(rows), 2) == 1


def test_rank_mod_p_edge_cases():
    assert rank_mod_p([], 3) == 0
    assert rank_mod_p([{}, {1: 0}], 3) == 0
    assert rank_mod_p([{0: 1}, {0: 2}, {0: 3}], 1) == 1
    assert rank_mod_p([{2: 5}, {0: 1, 2: 1}, {1: -4}], 3) == 3
