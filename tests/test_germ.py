from fractions import Fraction as F

import pytest

from crflat import (
    ExactMatrix,
    GaussianRational,
    Germ,
    KernelPolynomial,
    QuadraticPair,
    Series,
    dumps_germ,
    dumps_kernel,
    loads_germ,
    loads_kernel,
    parabolic_quadric,
    quadric_germ,
)
from crflat.errors import ParseError, PreconditionError
from crflat.germ import _shear_template
from crflat.series import subst_w

from conftest import (
    rand_gaussian,
    rand_germ,
    rand_invertible,
    rand_nonzero_gaussian,
    rand_pair,
)

G = GaussianRational


def gens(trunc=8):
    return Series.generators(2, trunc)


def test_germ_rejects_low_degree_terms():
    z1, z2, zb1, zb2 = gens()
    with pytest.raises(PreconditionError):
        Germ(2, z1)
    with pytest.raises(PreconditionError):
        Germ(2, Series.const(2, 8, 1))
    with pytest.raises(PreconditionError):
        Germ(2, Series(2, 1, {}))


def test_split_examples():
    z1, z2, zb1, zb2 = gens()
    half = G(F(1, 2))
    g = Germ(2, z1 * zb2)
    sp = g.split()
    assert sp.g == (z1 * zb2 + zb1 * z2).scale(half)
    assert sp.e == (z1 * zb2 - zb1 * z2).scale(G(0, F(-1, 2)))
    assert sp.g.is_real() and sp.e.is_real()

    q = parabolic_quadric(8)
    sp = q.split()
    assert sp.g == q.R and sp.e.is_zero()

    g = Germ(2, q.R + (z1 * z1 * z2).scale(G(0, 1)))
    sp = g.split()
    assert sp.e == (z1 * z1 * z2 + zb1 * zb1 * zb2).scale(half)


def test_split_recombines(rng):
    i = G(0, 1)
    for _ in range(20):
        g = rand_germ(rng)
        sp = g.split()
        assert sp.g + sp.e.scale(i) == g.R


def test_quadratic_pair_examples():
    z1, z2, zb1, zb2 = gens()
    g = Germ(2, z1 * zb2 + z1 * z2 + zb1 * zb2)
    pair = g.quadratic_pair()
    assert pair.A == ExactMatrix.from_rows([[0, F(1, 2)], [F(1, 2), 0]])
    assert pair.B == ExactMatrix.from_rows([[0, 1], [0, 0]])

    pair = parabolic_quadric(6).quadratic_pair()
    assert pair.A == ExactMatrix.identity(2).scale(G(F(1, 2)))
    assert pair.B == ExactMatrix.identity(2)

    g = Germ(2, (z1 * z1 * z2))  # no quadratic part at all
    pair = g.quadratic_pair()
    assert pair.A.is_zero() and pair.B.is_zero()


def test_quadratic_pair_rejects_unbalanced_blocks():
    z1, z2, zb1, zb2 = gens()
    with pytest.raises(PreconditionError):
        Germ(2, z1 * z1).quadratic_pair()  # holomorphic block has no mirror


def test_quadric_germ_round_trip(rng):
    for _ in range(25):
        pair = rand_pair(rng)
        assert quadric_germ(pair, 5).quadratic_pair() == pair


def test_linear_change_identity_and_scaling():
    q = parabolic_quadric(6)
    assert q.linear_change(ExactMatrix.identity(2), 1) == q
    g = q.linear_change(ExactMatrix.identity(2), 2)
    pair = g.quadratic_pair()
    assert pair.B == ExactMatrix.identity(2).scale(G(F(1, 2)))


def test_linear_change_hand_oracle():
    # P = diag(1, i) on the antidiagonal mixed block gives [[0, -i], [i, 0]]
    pair = QuadraticPair(
        ExactMatrix.zero(2, 2), ExactMatrix.from_rows([[0, 1], [1, 0]])
    )
    g = quadric_germ(pair, 6)
    p = ExactMatrix.from_rows([[1, 0], [0, G(0, 1)]])
    out = g.linear_change(p, 1).quadratic_pair()
    assert out.B == ExactMatrix.from_rows([[0, G(0, -1)], [G(0, 1), 0]])
    assert out.B == out.B.conj_transpose()


def test_linear_change_matches_pair_transform(rng):
    for _ in range(30):
        pair = rand_pair(rng)
        p = rand_invertible(rng)
        mu = rand_nonzero_gaussian(rng)
        g = quadric_germ(pair, 5)
        assert g.linear_change(p, mu).quadratic_pair() == pair.transform(p, mu)


def test_linear_change_composes(rng):
    for _ in range(15):
        pair = rand_pair(rng)
        g = quadric_germ(pair, 4)
        p1, p2 = rand_invertible(rng), rand_invertible(rng)
        m1, m2 = rand_nonzero_gaussian(rng), rand_nonzero_gaussian(rng)
        two_steps = g.linear_change(p1, m1).linear_change(p2, m2).quadratic_pair()
        one_step = g.linear_change(p2 * p1, m2 * m1).quadratic_pair()
        assert two_steps == one_step


def test_linear_change_rejects_bad_inputs():
    q = parabolic_quadric(4)
    with pytest.raises(PreconditionError):
        q.linear_change(ExactMatrix.zero(2, 2), 1)
    with pytest.raises(PreconditionError):
        q.linear_change(ExactMatrix.identity(2), 0)


def test_shear_examples():
    q = parabolic_quadric(3)
    k = KernelPolynomial(3, {((2, 1), 0): G(0, 1)})
    z1, z2, zb1, zb2 = Series.generators(2, 3)
    assert q.shear(k).R == q.R + (z1 * z1 * z2).scale(G(0, 1))
    # with no w-dependence the same kernel adds nothing more at trunc 5
    q5 = parabolic_quadric(5)
    z1, z2, zb1, zb2 = Series.generators(2, 5)
    assert q5.shear(k).R == q5.R + (z1 * z1 * z2).scale(G(0, 1))
    assert q5.shear(KernelPolynomial(3, {})) == q5


def test_shear_inverts_for_pure_z_kernels(rng):
    # kernels without w-dependence compose additively, so -k undoes k exactly
    for _ in range(10):
        g = rand_germ(rng, trunc=6)
        coeffs = {}
        for a1 in range(4):
            a2 = 3 - a1
            coeffs[((a1, a2), 0)] = rand_gaussian(rng)
        k = KernelPolynomial(3, coeffs)
        neg = KernelPolynomial(3, {key: -c for key, c in coeffs.items()})
        assert g.shear(k).shear(neg) == g


def test_shear_then_negated_round_trip_up_to_truncation(rng):
    # with w-dependence the feedback term enters at degree 2(weight) - 2, so
    # at truncation <= 2m - 3 the negated kernel still undoes the shear
    for _ in range(10):
        pair = rand_pair(rng)
        g = Germ(2, quadric_germ(pair, 3).R)
        coeffs = {((1, 0), 1): rand_gaussian(rng), ((2, 1), 0): rand_gaussian(rng)}
        k = KernelPolynomial(3, coeffs)
        neg = KernelPolynomial(3, {key: -c for key, c in coeffs.items()})
        assert g.shear(k).shear(neg) == g


def test_three_variable_germ_extraction():
    # beyond two variables only storage, conjugation and quadratic
    # extraction are exercised
    gens = Series.generators(3, 4)
    z = gens[:3]
    zb = gens[3:]
    r = z[0] * zb[1] + z[1] * zb[2].scale(G(0, 1)) + z[2] * z[2] + zb[2] * zb[2]
    g = Germ(3, r)
    pair = g.quadratic_pair()
    assert pair.n == 3
    assert pair.B.at(0, 1) == 1
    assert pair.B.at(1, 2) == G(0, 1)
    assert pair.A.at(2, 2) == 1
    assert g.split().g.is_real()
    from crflat import is_hermitianizable, subslice_pair

    assert not is_hermitianizable(pair).flattenable
    sl = subslice_pair(pair, 0, 1)
    assert sl.B == ExactMatrix.from_rows([[0, 1], [0, 0]])


def test_shear_with_w_dependence_feeds_back():
    # w-dependent kernels see the graph: z1 w picks up z1 * R
    q = parabolic_quadric(4)
    k = KernelPolynomial(3, {((1, 0), 1): 1})
    z1 = Series.generators(2, 4)[0]
    assert q.shear(k).R == q.R + z1 * q.R


def test_chained_shears_stay_packed_until_r_is_read():
    q = parabolic_quadric(7)
    kernels = [KernelPolynomial(3, {((1, 0), 1): G(1, 2), ((3, 0), 0): 1}),
               KernelPolynomial(5, {((1, 0), 2): -1, ((2, 1), 1): G(0, 3)})]
    want = q.R
    for k in kernels:  # the same shears on decoded series
        want = subst_w(_shear_template(k), want)
    g = q.shear(kernels[0]).shear(kernels[1])
    assert g._r is None and (g.n, g.trunc) == (2, 7)
    assert g.R == want and g.R is g.R and g == Germ(2, want)


def test_kernel_validation():
    with pytest.raises(PreconditionError):
        KernelPolynomial(3, {((1, 0), 0): 1})  # weight mismatch
    with pytest.raises(PreconditionError):
        KernelPolynomial(4, {((0, 0), 2): 1})  # pinned even-weight key
    k = KernelPolynomial(4, {((2, 0), 1): G(0, 1)})
    assert not k.is_zero()


def test_germ_file_roundtrip(rng):
    for _ in range(10):
        g = rand_germ(rng)
        text = dumps_germ(g)
        back = loads_germ(text)
        assert back == g
        assert dumps_germ(back) == text


def test_germ_file_rejects_low_degree():
    with pytest.raises(ParseError):
        loads_germ("vars 2\norder 4\n1 0 0 0 1 0\n")


def test_kernel_file_roundtrip():
    k = KernelPolynomial(5, {((2, 1), 1): G(F(1, 3), -2), ((5, 0), 0): G(1)})
    text = dumps_kernel(k)
    assert loads_kernel(text) == k
    assert dumps_kernel(loads_kernel(text)) == text
    with pytest.raises(ParseError):
        loads_kernel("weight 4\n0 0 2 1 0\n")
