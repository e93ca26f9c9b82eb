import pickle
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from crflat import (
    ExactMatrix,
    GaussianRational,
    Germ,
    KernelPolynomial,
    QuadraticPair,
    Series,
    dumps_germ,
    dumps_kernel,
    load_germ,
    load_kernel,
    loads_germ,
    loads_kernel,
    parabolic_quadric,
    quadric_germ,
)
from crflat.cli import main
from crflat.errors import ParseError, PreconditionError
from crflat.series import dumps_series, subst_w

from conftest import (
    FIXTURES,
    rand_gaussian,
    rand_germ,
    rand_invertible,
    rand_nonzero_gaussian,
    rand_pair,
    shear_template,
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


def test_germ_names_the_first_check_it_fails():
    # the variable count, then the truncation order, then the vanishing order;
    # the germ reader gives the same message on the same terms
    z1, z2, zb1, zb2 = gens(4)
    short = Series(2, 1, {(1, 0, 0, 0): 1})  # fails the truncation and the vanishing order
    with pytest.raises(PreconditionError, match="^series variable count does not match the germ$"):
        Germ(3, short)
    cases = [
        (short, "germ needs truncation order at least 2"),
        (z1 + z1 * zb1, "defining series must vanish to second order at the origin"),
    ]
    for series, message in cases:
        with pytest.raises(PreconditionError, match=f"^{message}$"):
            Germ(2, series)
        with pytest.raises(ParseError, match=f"^{message}$"):
            loads_germ(dumps_series(series))
    empty = Series(2, 2, {})
    assert Germ(2, empty).R == empty == loads_germ(dumps_series(empty)).R


def test_split_examples():
    z1, z2, zb1, zb2 = gens()
    half = G(F(1, 2))
    real, imag = Germ(2, z1 * zb2).split()
    assert real == (z1 * zb2 + zb1 * z2).scale(half)
    assert imag == (z1 * zb2 - zb1 * z2).scale(G(0, F(-1, 2)))
    assert real.is_real() and imag.is_real()

    q = parabolic_quadric(8)
    real, imag = q.split()
    assert real == q.R and imag.is_zero()

    _, imag = Germ(2, q.R + (z1 * z1 * z2).scale(G(0, 1))).split()
    assert imag == (z1 * z1 * z2 + zb1 * zb1 * zb2).scale(half)


def test_split_recombines(rng):
    i = G(0, 1)
    for _ in range(20):
        g = rand_germ(rng)
        real, imag = g.split()
        assert real + imag.scale(i) == g.R


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
        ExactMatrix(2, 2, [0] * 4), ExactMatrix.from_rows([[0, 1], [1, 0]])
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
        q.linear_change(ExactMatrix(2, 2, [0] * 4), 1)
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


def test_shear_refuses_a_one_variable_germ():
    z, zb = Series.generators(1, 4)
    with pytest.raises(PreconditionError, match="shears are implemented for two variables"):
        Germ(1, z * zb).shear(KernelPolynomial(3, {((3, 0), 0): 1}))


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
    assert g.split()[0].is_real()
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
        want = subst_w(shear_template(k), want)
    g = q.shear(kernels[0]).shear(kernels[1])
    assert g._r is None and (g.n, g.trunc) == (2, 7)
    assert g.R == want and g.R is g.R and g == Germ(2, want)


# -- the packed shear against its oracles -------------------------------------------
#
# ``Germ.shear`` packs w + B(z, w) straight from the kernel and seeds the sum
# with a scaled copy of R, in new bucket lists.  Two oracles read the same
# shear another way, sharing no code with the packed substitution: ``subst_w``
# of the template, Horner's rule in Series products and sums, and
# R + sum b z^alpha R^j in plain series products and powers.

SHEAR_SETTINGS = settings(derandomize=True, deadline=None, max_examples=60)

# the quadric's 2 beside 3, 5 and 7
_shear_rationals = st.builds(F, st.integers(-4, 4), st.sampled_from([1, 2, 3, 5, 7]))
_shear_coefficients = st.builds(G, _shear_rationals, _shear_rationals).filter(bool)


def _kernel_keys(m):
    return [((a1, m - 2 * j - a1), j) for j in range(m // 2 + 1) for a1 in range(m - 2 * j + 1)
            if not (m % 2 == 0 and 2 * j == m)]


@st.composite
def _exponents(draw, degree):
    """A two-variable exponent (s, t, h, r) of the given degree."""
    e = []
    for _ in range(3):
        e.append(draw(st.integers(0, degree - sum(e))))
    return (*e, degree - sum(e))


@st.composite
def shear_chains(draw):
    """A germ of truncation T in 4..12 and kernels of ascending weights in 3..T + 2.

    The germ is the parabolic quadric plus up to five terms of degree 3..T.
    A kernel holds one to four terms, so most of its P_j are absent, and a
    weight above T puts terms above the truncation.
    """
    trunc = draw(st.integers(4, 12))
    terms = dict(parabolic_quadric(trunc).R.terms)
    for _ in range(draw(st.integers(0, 5))):
        terms[draw(st.integers(3, trunc).flatmap(_exponents))] = draw(_shear_coefficients)
    kernels = []
    for m in sorted(draw(st.lists(st.integers(3, trunc + 2), min_size=1, max_size=4))):
        keys = draw(st.lists(st.sampled_from(_kernel_keys(m)), min_size=1, max_size=4, unique=True))
        kernels.append(KernelPolynomial(m, {key: draw(_shear_coefficients) for key in keys}))
    return Germ(2, Series(2, trunc, terms)), kernels


def series_shear(r: Series, kernel: KernelPolynomial) -> Series:
    """R + B(z, R) in series products and powers, sharing no code with the substitution."""
    out = r
    for ((a1, a2), j), c in kernel.items():
        if a1 + a2 <= r.trunc:
            out = out + Series(2, r.trunc, {(a1, a2, 0, 0): c}) * r**j
    return out


# R = q + z1^4 / 16 and B = -z1^4 / 16: the sum falls back to the quadric over 2
CANCELLING = (
    Germ(2, parabolic_quadric(6).R + Series(2, 6, {(4, 0, 0, 0): F(1, 16)})),
    [KernelPolynomial(4, {((4, 0), 0): F(-1, 16)})],
)


@SHEAR_SETTINGS
@given(shear_chains())
@example(CANCELLING)
@example((parabolic_quadric(5), [  # terms above T = 5, and P_1 only the constant 1
    KernelPolynomial(6, {((6, 0), 0): G(F(1, 3), F(2, 5)), ((0, 2), 2): F(-3, 7)}),
    KernelPolynomial(7, {((2, 1), 2): G(0, F(1, 5)), ((1, 4), 1): F(2, 3)}),
]))
def test_a_chain_of_shears_matches_the_substitution_and_series_products(data):
    germ, kernels = data
    for kernel in kernels:
        source = pickle.dumps(germ._packed_r())
        sheared = germ.shear(kernel)
        # the shear leaves R's packed copy as it was
        assert pickle.dumps(germ._packed_r()) == source
        want = subst_w(shear_template(kernel), germ.R)
        assert sheared.R == want
        if germ.trunc <= 8:  # powers of a full degree-12 R take too long in series products
            assert want == series_shear(germ.R, kernel)
        germ = sheared


def test_a_shear_that_cancels_the_denominator_divides_every_bucket():
    germ, (kernel,) = CANCELLING
    sheared = germ.shear(kernel)
    assert (germ._packed_r().den, sheared._packed_r().den) == (16, 2)
    assert sheared.R == parabolic_quadric(6).R


def test_a_shear_builds_new_buckets_and_leaves_r_as_it_was():
    # R from degree 3 and B = z1^2 w of weight 4: the sum is seeded with R
    # itself, over R's denominator for c = 1 and over a new one for c = 1/3
    r = Series(2, 7, {(2, 1, 0, 0): 1, (0, 1, 1, 1): G(0, 2), (1, 1, 1, 1): -3, (3, 0, 2, 0): 1})
    germ = Germ(2, r)
    packed = germ._packed_r()
    source = pickle.dumps(packed)
    for c in (1, F(1, 3)):
        kernel = KernelPolynomial(4, {((2, 0), 1): c})
        out = germ.shear(kernel)._packed_r().buckets
        assert not {id(ts) for _, ts in packed.buckets} & {id(ts) for _, ts in out}
        assert pickle.dumps(germ._packed_r()) == source
        assert germ.shear(kernel).R == series_shear(r, kernel) == subst_w(shear_template(kernel), r)


@pytest.mark.parametrize("name", ["cascade20", "sheared18"])
def test_the_reference_substitution_replays_the_emitted_kernels(tmp_path, capsys, name):
    # subst_w of each emitted kernel in weight order, in Series products,
    # reaches the final germ that flatten's packed shears write
    source = FIXTURES / f"{name}.germ"
    assert main(["flatten", str(source), "--order", "18", "--emit", str(tmp_path)]) == 0
    kernels = sorted(tmp_path.glob("degree*.kernel"), key=lambda p: int(p.stem[len("degree"):]))
    assert len(kernels) == 16
    r = load_germ(source).R
    for path in kernels:
        r = subst_w(shear_template(load_kernel(path)), r)
    assert dumps_germ(Germ(2, r)) == (tmp_path / "final.germ").read_text()


def test_kernel_validation():
    with pytest.raises(PreconditionError):
        KernelPolynomial(3, {((1, 0), 0): 1})  # weight mismatch
    with pytest.raises(PreconditionError):
        KernelPolynomial(4, {((0, 0), 2): 1})  # pinned even-weight key
    k = KernelPolynomial(4, {((2, 0), 1): G(0, 1)})
    assert not k.is_zero()
    # a key must be ((int, int), int): a 3-tuple alpha, a 1-tuple alpha, j = 0.5
    for key in (((1, 1, 1), 0), ((3,), 0), ((1, 1), 0.5)):
        with pytest.raises(PreconditionError) as info:
            KernelPolynomial(3, {key: 1})
        assert str(info.value) == f"kernel key {key} violates the weight-3 grading"


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
