from fractions import Fraction as F

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from crflat import (
    CoarseClass,
    ExactMatrix,
    GaussianRational,
    Germ,
    QuadraticPair,
    Series,
    bishop_slice,
    coarse_b_class,
    cr_singular_linearization,
    elliptic_candidates,
    is_hermitianizable,
    load_germ,
    quadratic,
    parabolic_pair,
    quadric_germ,
    recognize_pair,
)
from crflat.errors import ConsistencyError, DegenerateSliceError, PreconditionError
from crflat.quadratic import DirectionCandidate, SliceReport

from conftest import (
    FIXTURES,
    UNIMODULAR,
    rand_gaussian,
    rand_invertible,
    rand_matrix,
    rand_nonzero_gaussian,
    rand_pair,
)

G = GaussianRational
I = G(0, 1)


def pair(a_rows, b_rows):
    return QuadraticPair(ExactMatrix.from_rows(a_rows), ExactMatrix.from_rows(b_rows))


def bpair(b_rows):
    return pair([[0, 0], [0, 0]], b_rows)


# -- flattenability ---------------------------------------------------------------


def test_hermitianizable_examples():
    assert not is_hermitianizable(bpair([[0, 1], [0, 0]])).flattenable
    v = is_hermitianizable(bpair([[1, 0], [0, 1]]))
    assert v.flattenable and v.lam == 1 and v.mu_witness == 1
    u = G(F(3, 5), F(4, 5))
    assert not is_hermitianizable(bpair([[1, 0], [0, u]])).flattenable
    h = ExactMatrix.from_rows([[1, 2], [2, -1]])
    v = is_hermitianizable(QuadraticPair(ExactMatrix(2, 2, [0] * 4), h.scale(I)))
    assert v.flattenable and v.lam == -1 and v.mu_witness == I
    assert v.hermitian_b == h


def test_hermitianizable_zero_matrix():
    v = is_hermitianizable(bpair([[0, 0], [0, 0]]))
    assert v.flattenable and v.lam == 1


def test_hermitian_b_witness_consistency(rng):
    # whenever a witness is produced, B / mu is Hermitian and B = lam B^dagger
    for _ in range(80):
        h = rand_matrix(rng)
        h = h + h.conj_transpose()  # Hermitian
        mu = rand_nonzero_gaussian(rng)
        b = h.scale(mu)
        v = is_hermitianizable(QuadraticPair(ExactMatrix(2, 2, [0] * 4), b))
        assert v.flattenable
        assert b == b.conj_transpose().scale(v.lam)
        h = b.scale(v.mu_witness.inverse())
        assert h == h.conj_transpose()


def test_hermitianizable_invariant_under_congruence(rng):
    for _ in range(100):
        p0 = rand_pair(rng)
        want = is_hermitianizable(p0).flattenable
        for _ in range(5):
            p = rand_invertible(rng)
            mu = rand_nonzero_gaussian(rng)
            assert is_hermitianizable(p0.transform(p, mu)).flattenable == want


def schur_flattenable_float(b: ExactMatrix, tol: float = 1e-9) -> bool:
    """Float oracle: unitary triangularization, then diagonal-reality test.

    The matrix is scalable to Hermitian iff its unitary triangular form is
    diagonal (up to tol) with all diagonal ratios real.
    """
    m = np.array(
        [[complex(b.at(i, j).re, b.at(i, j).im) for j in range(b.cols)] for i in range(b.rows)]
    )
    t, _ = scipy.linalg.schur(m, output="complex")
    n = b.rows
    off = max(abs(t[i, j]) for i in range(n) for j in range(n) if i != j)
    if off > tol:
        return False
    diag = [t[i, i] for i in range(n)]
    pivot = max(diag, key=abs)
    return all(abs((x / pivot).imag) <= tol for x in diag)


def test_hermitianizable_against_float_schur_oracle(rng):
    agree = 0
    trials = 0
    while trials < 200:
        if trials % 2 == 0:
            b = rand_matrix(rng)
        else:
            h = rand_matrix(rng)
            h = h + h.conj_transpose()
            b = h.scale(rand_nonzero_gaussian(rng))
        if b.det().is_zero():
            continue
        trials += 1
        exact = is_hermitianizable(QuadraticPair(ExactMatrix(2, 2, [0] * 4), b)).flattenable
        assert exact == schur_flattenable_float(b)
        agree += 1
    assert agree == 200


# -- coarse classification -----------------------------------------------------------


def test_coarse_class_examples():
    u = G(F(3, 5), F(4, 5))
    cls = coarse_b_class(bpair([[1, 0], [0, u]]))
    assert cls.tag == CoarseClass.UNIMODULAR_PAIR
    assert str(u * u) in cls.cosquare_spectrum and "1" in cls.cosquare_spectrum

    cls = coarse_b_class(bpair([[0, 1], [F(1, 2), 0]]))
    assert cls.tag == CoarseClass.REAL_RECIPROCAL_PAIR
    assert "1/2" in cls.cosquare_spectrum and "2" in cls.cosquare_spectrum

    cls = coarse_b_class(bpair([[0, 1], [1, I]]))
    assert cls.tag == CoarseClass.JORDAN

    assert coarse_b_class(bpair([[0, 0], [0, 0]])).tag == CoarseClass.ZERO
    assert coarse_b_class(bpair([[1, 0], [0, 0]])).tag == CoarseClass.RANK1_HERM
    assert coarse_b_class(bpair([[0, 1], [0, 0]])).tag == CoarseClass.RANK1_NONHERM
    assert coarse_b_class(bpair([[1, 0], [0, -1]])).tag == CoarseClass.HERM_RANK2


def test_coarse_class_invariant_for_representatives(rng):
    reps = [
        bpair([[1, 0], [0, G(F(5, 13), F(12, 13))]]),
        bpair([[0, 1], [F(1, 3), 0]]),
        bpair([[0, 1], [1, I]]),
        bpair([[0, 1], [0, 0]]),
        pair([[F(1, 4), 0], [0, 1]], [[1, 0], [0, 1]]),
        pair([[F(1, 4), 0], [0, 1]], [[1, 0], [0, -1]]),
        bpair([[0, 1], [1, 0]]),
        bpair([[1, 0], [0, 0]]),
        bpair([[0, 0], [0, 0]]),
    ]
    for rep in reps:
        want = coarse_b_class(rep).tag
        for _ in range(5):
            p = rand_invertible(rng)
            mu = rand_nonzero_gaussian(rng)
            assert coarse_b_class(rep.transform(p, mu)).tag == want


def test_coarse_class_needs_two_variables():
    p3 = QuadraticPair(ExactMatrix(3, 3, [0] * 9), ExactMatrix.identity(3))
    with pytest.raises(PreconditionError):
        coarse_b_class(p3)


# -- shape recognizer ------------------------------------------------------------------


def test_recognizer_families():
    u = UNIMODULAR[0]
    assert recognize_pair(pair([[1, 2], [2, 3]], [[1, 0], [0, u]]))[0] == "1a"
    assert recognize_pair(pair([[0, 1], [1, 0]], [[1, 0], [0, u]]))[0] == "1b"
    assert recognize_pair(pair([[2, 1], [1, 0]], [[1, 0], [0, u]]))[0] == "1c"
    assert recognize_pair(pair([[F(1, 2), 1], [1, 7]], [[0, 1], [F(1, 2), 0]]))[0] == "2a"
    assert recognize_pair(pair([[0, 1], [1, F(1, 2)]], [[0, 1], [F(1, 3), 0]]))[0] == "2b"
    assert recognize_pair(pair([[0, 2], [2, 0]], [[0, 1], [F(2, 3), 0]]))[0] == "2c"
    assert recognize_pair(pair([[F(1, 2), 0], [0, I]], [[0, 1], [F(1, 2), 0]]))[0] == "2d"
    assert recognize_pair(pair([[0, 0], [0, F(1, 2)]], [[0, 1], [F(1, 2), 0]]))[0] == "2e"
    assert recognize_pair(pair([[0, 0], [0, 0]], [[0, 1], [F(1, 2), 0]]))[0] == "2f"
    assert recognize_pair(pair([[1, -1], [-1, I]], [[0, 1], [1, I]]))[0] == "3a"
    assert recognize_pair(pair([[0, 1], [1, -2]], [[0, 1], [1, I]]))[0] == "3b"
    assert recognize_pair(pair([[0, 0], [0, 2]], [[0, 1], [1, I]]))[0] == "3c"
    assert recognize_pair(pair([[I, 1], [1, F(1, 2)]], [[0, 1], [0, 0]]))[0] == "4a"
    assert recognize_pair(pair([[F(1, 2), 1], [1, 0]], [[0, 1], [0, 0]]))[0] == "4b"
    assert recognize_pair(pair([[0, F(1, 2)], [F(1, 2), 0]], [[0, 1], [0, 0]]))[0] == "4c"
    assert recognize_pair(pair([[2, 0], [0, F(1, 2)]], [[0, 1], [0, 0]]))[0] == "4d"
    assert recognize_pair(pair([[F(1, 2), 0], [0, 0]], [[0, 1], [0, 0]]))[0] == "4e"
    assert recognize_pair(pair([[0, 0], [0, 0]], [[0, 1], [0, 0]]))[0] == "4f"
    assert recognize_pair(pair([[0, 0], [0, 1]], [[1, 0], [0, 1]]))[0] == "5"
    assert recognize_pair(pair([[F(1, 4), 0], [0, 2]], [[1, 0], [0, -1]]))[0] == "6a"
    assert recognize_pair(pair([[0, 3], [3, 0]], [[1, 0], [0, -1]]))[0] == "6b"
    half = F(1, 2)
    assert recognize_pair(pair([[half, half], [half, half]], [[1, 0], [0, -1]]))[0] == "6c"
    assert recognize_pair(pair([[0, 1], [1, half]], [[0, 1], [1, 0]]))[0] == "7a"
    assert recognize_pair(pair([[half, 0], [0, G(1, 2)]], [[0, 1], [1, 0]]))[0] == "7b"
    assert recognize_pair(pair([[7, I], [I, 7]], [[1, 0], [0, 0]]))[0] == "8"
    assert recognize_pair(pair([[7, I], [I, 7]], [[0, 0], [0, 0]]))[0] == "9"
    # off-list shapes are not recognized
    assert recognize_pair(bpair([[2, 0], [0, 1]])) is None
    assert recognize_pair(pair([[-1, 0], [0, 0]], [[1, 0], [0, u]])) is None


def test_recognizer_extracts_parameters():
    case, params = recognize_pair(pair([[0, F(1, 3)], [F(1, 3), F(1, 2)]], [[0, 1], [1, 0]]))
    assert case == "7a" and params["b"] == F(1, 3)


# -- Bishop slices ----------------------------------------------------------------------


def test_bishop_slice_lemma_cases():
    b = F(1, 3)
    sl = bishop_slice(pair([[0, b], [b, F(1, 2)]], [[0, 1], [1, 0]]), (1, F(-4, 3)))
    assert sl.alpha == 0 and sl.gamma == G(F(-8, 3))
    assert sl.elliptic and sl.lambda_sq == 0

    sl = bishop_slice(pair([[F(1, 4), 0], [0, 1]], [[1, 0], [0, -1]]), (1, 0))
    assert sl.alpha == G(F(1, 4)) and sl.gamma == 1
    assert sl.elliptic and sl.lambda_sq == F(1, 16)

    sl = bishop_slice(parabolic_pair(), (1, I))
    assert sl.alpha == 0 and sl.gamma == 2 and sl.elliptic


def test_bishop_slice_degenerate_and_bad_input():
    with pytest.raises(DegenerateSliceError):
        bishop_slice(bpair([[0, 1], [-1, 0]]), (1, 1))  # gamma = 1 - 1 = 0
    with pytest.raises(PreconditionError):
        bishop_slice(parabolic_pair(), (0, 0))


def test_bishop_slice_scale_invariance(rng):
    for _ in range(40):
        p0 = rand_pair(rng)
        c = (rand_nonzero_gaussian(rng), rand_gaussian(rng))
        rho = rand_nonzero_gaussian(rng)
        try:
            a = bishop_slice(p0, c)
        except DegenerateSliceError:
            continue
        b = bishop_slice(p0, tuple(rho * x for x in c))
        assert a.elliptic == b.elliptic
        assert a.lambda_sq == b.lambda_sq


def test_definite_hermitian_null_alpha_directions_are_elliptic():
    # for B = identity, any direction killing the holomorphic form is elliptic
    p0 = pair([[1, G(0, F(1, 2))], [G(0, F(1, 2)), 0]], [[1, 0], [0, 1]])
    # alpha = c1^2 + i c1 c2 = c1 (c1 + i c2); kill it with c = (1, i)
    sl = bishop_slice(p0, (1, I))
    assert sl.alpha == 0 and sl.lambda_sq == 0 and sl.elliptic


def test_grid_search_finds_nothing_for_split_balanced_pair():
    for lam in (F(1, 2), F(1)):
        p0 = pair([[lam, 0], [0, lam]], [[1, 0], [0, -1]])
        cands = elliptic_candidates(p0, 12)
        assert cands == []


def _brute_candidates(p0, bound):
    """Reference search: one ``bishop_slice`` per grid point, row by row."""
    out = quadratic._recipe_candidates(p0)
    grid = quadratic._search_grid(bound)
    for x in grid:
        for y in grid:
            c = (G(1), G(x, y))
            rep = quadratic._try_slice(p0, c)
            if rep is not None and rep.elliptic:
                return out + [DirectionCandidate("search", c, rep)]
    rep = quadratic._try_slice(p0, (G(0), G(1)))
    if rep is not None and rep.elliptic:
        out.append(DirectionCandidate("search", (G(0), G(1)), rep))
    return out


_RATIONAL = st.builds(F, st.integers(-3, 3), st.integers(1, 3))
_ENTRY = st.one_of(
    st.just(G(0)),
    _RATIONAL.map(G),
    _RATIONAL.map(lambda r: G(0, r)),
    st.builds(G, _RATIONAL, _RATIONAL),
)
_MATRIX = st.lists(_ENTRY, min_size=4, max_size=4).map(
    lambda e: ExactMatrix.from_rows([e[:2], e[2:]])
)
_SINGULAR = st.lists(_ENTRY, min_size=4, max_size=4).map(
    lambda e: ExactMatrix.from_rows([[e[0] * e[2], e[0] * e[3]], [e[1] * e[2], e[1] * e[3]]])
)
_ZERO = st.just(ExactMatrix(2, 2, [0] * 4))
_PAIRS = st.builds(
    QuadraticPair, st.one_of(_ZERO, _MATRIX), st.one_of(_ZERO, _MATRIX, _SINGULAR)
)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(_PAIRS)
def test_grid_scan_matches_a_slice_per_point(p0):
    for bound in range(5):
        assert elliptic_candidates(p0, bound) == _brute_candidates(p0, bound)


def test_grid_scan_hand_made_cases():
    # A = 0, B = diag(2, 1): every direction is elliptic, so the first grid point hits
    p0 = pair([[0, 0], [0, 0]], [[2, 0], [0, 1]])
    got = elliptic_candidates(p0, 3)
    assert [c.direction for c in got] == [(G(1), G(-3, -3))]
    assert got == _brute_candidates(p0, 3)
    # 4 |1 + 20 w|^2 >= |w|^4 on the whole grid; only (0, 1) is elliptic
    p0 = pair([[1, 10], [10, 0]], [[0, 0], [0, 1]])
    for bound in (0, 4, 16):
        got = elliptic_candidates(p0, bound)
        assert [c.direction for c in got] == [(G(0), G(1))] and got[0].report.elliptic
    assert got == _brute_candidates(p0, 4)
    # the split balanced pair exhausts the grid
    p0 = pair([[1, 0], [0, 1]], [[1, 0], [0, -1]])
    assert elliptic_candidates(p0, 4) == _brute_candidates(p0, 4) == []


@settings(derandomize=True, deadline=None, max_examples=60)
@given(_PAIRS)
def test_pair_quartic_is_a_positive_multiple_of_the_slice_test(p0):
    quartic = quadratic._pair_quartic(p0)
    grid = quadratic._search_grid(3)
    ratios = set()
    for x in grid:
        row = [sum(ckj * x**j for j, ckj in enumerate(ck)) for ck in quartic]
        for y in grid:
            c = (G(1), G(x, y))
            alpha = gamma = G(0)
            for i in range(2):
                for j in range(2):
                    alpha = alpha + p0.A.at(i, j) * c[i] * c[j]
                    gamma = gamma + p0.B.at(i, j) * c[i] * c[j].conj()
            f = 4 * alpha.abs2() - gamma.abs2()
            value = sum(fk * y**k for k, fk in enumerate(row))
            assert (value == 0) == (f == 0)
            if f:
                ratios.add(value / f)
    assert len(ratios) <= 1 and all(k > 0 for k in ratios)


def _elliptic_disc(w0, a11, b_rows):
    """alpha = a11 (w - w0)^2 along (1, w): elliptic only in a small disc about w0."""
    return pair([[a11 * w0 * w0, -a11 * w0], [-a11 * w0, a11]], b_rows)


def test_grid_scan_matches_a_slice_per_point_at_bound_8():
    # first hits in rows of denominators 7, 8 and 5, which no bound below 5 has
    cases = [
        (_elliptic_disc(G(F(-3, 7), F(2, 5)), 1000, [[1, 0], [0, 0]]), G(F(-3, 7), F(2, 5))),
        (_elliptic_disc(G(F(-7, 8), F(-5, 6)), 2000, [[2, I], [-I, 3]]), G(F(-7, 8), F(-6, 7))),
        (_elliptic_disc(G(F(-4, 5), F(1, 6)), G(300, 400), [[1, 0], [0, 0]]), G(F(-4, 5), F(1, 7))),
        (pair([[1, 0], [0, 1]], [[1, 0], [0, -1]]), None),  # exhausts the grid
    ]
    for p0, hit in cases:
        got = elliptic_candidates(p0, 8)
        assert [c.direction for c in got] == ([(G(1), hit)] if hit else [])
        assert got == _brute_candidates(p0, 8)


def test_grid_scan_does_no_gaussian_arithmetic_per_row(monkeypatch):
    calls = []
    real = GaussianRational.__mul__

    def counted(self, other):
        calls.append(1)
        return real(self, other)

    monkeypatch.setattr(GaussianRational, "__mul__", counted)
    p0 = pair([[1, 0], [0, 1]], [[1, 0], [0, -1]])
    counts = []
    for bound in (4, 16):
        calls.clear()
        elliptic_candidates(p0, bound)
        counts.append(len(calls))
    assert counts[0] == counts[1]


def test_grid_scan_slices_only_recipes_and_the_hit(monkeypatch):
    calls = []
    real = quadratic.bishop_slice

    def counted(p0, c):
        calls.append(c)
        return real(p0, c)

    monkeypatch.setattr(quadratic, "bishop_slice", counted)
    cases = [
        (parabolic_pair(), 6),  # a recipe and a grid hit
        (pair([[1, 0], [0, 10]], [[1, 0], [0, 1]]), 4),  # a failing recipe
        (pair([[1, 10], [10, 0]], [[0, 0], [0, 1]]), 8),  # hit at (0, 1)
        (pair([[1, 0], [0, 1]], [[1, 0], [0, -1]]), 8),  # exhausted grid
    ]
    for p0, bound in cases:
        recipes = len(quadratic._recipe_candidates(p0))
        calls.clear()
        elliptic_candidates(p0, bound)
        assert len(calls) <= recipes + 2


def test_grid_hit_is_certified_by_its_slice(monkeypatch):
    p0 = pair([[0, 0], [0, 0]], [[2, 0], [0, 1]])
    flat = SliceReport(G(1), G(1), F(1), False)
    monkeypatch.setattr(quadratic, "bishop_slice", lambda p, c: flat)
    with pytest.raises(ConsistencyError, match=r"\(1, -2-2 i\)"):
        elliptic_candidates(p0, 2)


def test_candidates_for_recipe_shapes():
    got = elliptic_candidates(parabolic_pair(), 2)
    assert any(c.origin == "recipe:5" and c.report.elliptic for c in got)

    p0 = pair([[0, F(1, 3)], [F(1, 3), F(1, 2)]], [[0, 1], [1, 0]])
    got = elliptic_candidates(p0, 2)
    rec = [c for c in got if c.origin == "recipe:7a"]
    assert rec and rec[0].direction == (G(1), G(F(-4, 3))) and rec[0].report.elliptic

    # d = i admits the exact square root (1+i)/2 for the transversality root
    p0 = pair([[F(1, 2), 0], [0, I]], [[0, 1], [1, 0]])
    got = elliptic_candidates(p0, 2)
    rec = [c for c in got if c.origin == "recipe:7b"]
    assert rec and rec[0].direction == (G(1), G(F(1, 2), F(1, 2)))
    assert rec[0].report.elliptic

    # d = 2i does not: the root needs sqrt(1/8); the marker is emitted and the
    # bounded search still finds a verified elliptic direction
    p0 = pair([[F(1, 2), 0], [0, G(0, 2)]], [[0, 1], [1, 0]])
    got = elliptic_candidates(p0, 6)
    assert any(c.direction is None and "irrational" in c.note for c in got)
    assert any(c.origin == "search" and c.report.elliptic for c in got)


@pytest.mark.parametrize(
    "a_rows, case, direction, lambda_sq",
    [
        ([[F(1, 4), 0], [0, 1]], "6a", (G(1), G(0)), F(1, 16)),  # l1 < 1/2
        ([[F(1, 2), 0], [0, 2]], "6a", (G(1), G(0, F(1, 2))), 0),  # sqrt(l1/l2) = 1/2
        ([[0, 1], [1, 0]], "6b", (G(1), G(0)), 0),
        ([[F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)]], "6c", (G(1), G(F(-3, 4))), F(1, 196)),
    ],
    ids=["6a-small", "6a-rational", "6b", "6c"],
)
def test_recipe_candidates_of_the_hyperbolic_shapes(a_rows, case, direction, lambda_sq):
    # B = diag(1, -1); the irrational 6a candidate is checked through the CLI
    p0 = pair(a_rows, [[1, 0], [0, -1]])
    assert recognize_pair(p0)[0] == case
    (rec,) = quadratic._recipe_candidates(p0)
    assert (rec.origin, rec.direction) == (f"recipe:{case}", direction)
    assert rec.report.elliptic and rec.report.lambda_sq == lambda_sq


def test_unequal_invariant_recipe_is_verified_not_trusted():
    # spread-out invariants break the listed direction; the report says so
    p0 = pair([[1, 0], [0, 10]], [[1, 0], [0, 1]])
    got = elliptic_candidates(p0, 4)
    rec = [c for c in got if c.origin == "recipe:5"]
    assert rec and rec[0].direction == (G(10), G(0, 1))
    assert rec[0].report is not None and not rec[0].report.elliptic
    assert rec[0].report.lambda_sq == F(8100, 10201)  # (90/101)^2 > 1/4
    # the bounded search still finds a genuine elliptic direction
    assert any(c.origin == "search" and c.report.elliptic for c in got)


# -- locus linearization -------------------------------------------------------------


def quadric_from_series(terms, trunc=4):
    return Germ(2, Series(2, trunc, terms))


def test_linearization_printed_matrices():
    lam = F(1, 3)
    g = quadric_from_series(
        {
            (1, 0, 1, 0): 1,
            (0, 1, 0, 1): -1,
            (1, 1, 0, 0): lam,
            (0, 0, 1, 1): lam,
        }
    )
    lin = cr_singular_linearization(g)
    assert lin.matrix == ExactMatrix.from_rows(
        [[1, 0, 0, lam], [0, lam, -1, 0], [0, 1, lam, 0], [lam, 0, 0, -1]]
    )
    assert lin.rank == 4 and lin.dim_bound == 0

    half = F(1, 2)
    g = quadric_germ(
        pair([[half, half], [half, half]], [[1, 0], [0, -1]]), 4
    )
    lin = cr_singular_linearization(g)
    assert lin.matrix == ExactMatrix.from_rows(
        [[1, 1, 0, 1], [0, 1, -1, 1], [1, 1, 1, 0], [1, 0, 1, -1]]
    )
    assert lin.rank == 4

    b = F(1, 3)
    g = quadric_germ(pair([[0, b], [b, half]], [[0, 1], [1, 0]]), 4)
    lin = cr_singular_linearization(g)
    two_b = 2 * b
    assert lin.matrix == ExactMatrix.from_rows(
        [[0, 0, 1, two_b], [1, two_b, 0, 1], [0, 0, two_b, 1], [two_b, 1, 1, 0]]
    )
    assert lin.rank >= 3

    d = I
    g = quadric_germ(pair([[half, 0], [0, d]], [[0, 1], [1, 0]]), 4)
    lin = cr_singular_linearization(g)
    assert lin.matrix == ExactMatrix.from_rows(
        [[0, 1, 1, 0], [1, 0, 0, 2 * d.conj()], [1, 0, 0, 1], [0, 1, 2 * d, 0]]
    )
    assert lin.rank == 4


def test_linearization_rank_two_example():
    z1, z2, zb1, zb2 = Series.generators(2, 4)
    lin = cr_singular_linearization(Germ(2, z1 * zb2))
    assert lin.rank == 2 and lin.dim_bound == 2


def _assert_linearization_matches_the_derivatives(germ):
    """The report against the matrix built the long way: conjugate R, differentiate, read."""
    r = germ.R
    rbar = r.conj()
    derivs = [r.dzbar(1), r.dzbar(2), rbar.dz(1), rbar.dz(2)]
    cols = [(1, 0, 0, 0), (0, 0, 1, 0), (0, 1, 0, 0), (0, 0, 0, 1)]
    want = ExactMatrix.from_rows([[d.coeff(c) for c in cols] for d in derivs])
    lin = cr_singular_linearization(germ)
    assert lin.matrix == want
    assert lin.rank == want.rank() and lin.dim_bound == 4 - lin.rank


@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.germ")), ids=lambda p: p.name)
def test_linearization_matches_the_derivatives_on_every_fixture(path):
    _assert_linearization_matches_the_derivatives(load_germ(path))


_QUADRATIC_EXPONENTS = [
    (s, t, h, r)
    for s in range(3) for t in range(3) for h in range(3) for r in range(3)
    if s + t + h + r == 2
]
_exponents = st.one_of(
    st.sampled_from(_QUADRATIC_EXPONENTS),
    st.tuples(*[st.integers(0, 4)] * 4).filter(lambda e: 2 <= sum(e) <= 4),
)
_parts = st.fractions(min_value=-8, max_value=8, max_denominator=6)
_coefficients = st.builds(G, _parts, _parts)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.dictionaries(_exponents, _coefficients, max_size=14))
def test_linearization_matches_the_derivatives_on_random_germs(terms):
    # any R, balanced or not: the mirror rows hold for every series
    _assert_linearization_matches_the_derivatives(Germ(2, Series(2, 4, terms)))

