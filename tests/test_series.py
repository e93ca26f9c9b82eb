import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

import crflat.series as series_mod
from crflat import GaussianRational, Series, subst_w
from crflat.errors import ParseError, PreconditionError
from crflat.series import (
    bracket_from_exp,
    dumps_series,
    exp_from_bracket,
    loads_series,
    sum_of_products,
)

from conftest import rand_gaussian, rand_series

G = GaussianRational


def gens(trunc=8):
    return Series.generators(2, trunc)


def test_bracket_exponent_mapping():
    # [t s r h] is the coefficient of z1^s z2^t zb1^h zb2^r
    assert exp_from_bracket(1, 2, 3, 4) == (2, 1, 4, 3)
    assert bracket_from_exp((2, 1, 4, 3)) == (1, 2, 3, 4)


def test_product_basics():
    z1, z2, zb1, zb2 = gens()
    assert z1 * zb1 == Series(2, 8, {(1, 0, 1, 0): 1})
    sq = (z1 + zb1) ** 2
    assert sq.coeff((2, 0, 0, 0)) == 1
    assert sq.coeff((1, 0, 1, 0)) == 2
    assert sq.coeff((0, 0, 2, 0)) == 1


def test_truncation_contract():
    z1, z2, _, _ = Series.generators(2, 2)
    assert ((z1 * z1) * z2).is_zero()  # degree 3 drops at truncation 2
    a = Series(2, 5, {(1, 0, 0, 0): 1})
    b = Series(2, 2, {(0, 1, 0, 0): 1})
    assert (a * b).trunc == 2
    assert (a + b).trunc == 2


def test_nvars_mismatch():
    a = Series.zero(2, 4)
    b = Series.zero(3, 4)
    with pytest.raises(PreconditionError):
        a * b


def test_conj():
    z1, z2, zb1, zb2 = gens()
    assert (z1.scale(G(0, 1))).conj() == zb1.scale(G(0, -1))
    assert (z1 * zb2).conj() == zb1 * z2
    rng = random.Random(7)
    for _ in range(30):
        s = rand_series(rng, 2, 6)
        assert s.conj().conj() == s


def test_conj_is_ring_automorphism():
    rng = random.Random(8)
    for _ in range(25):
        a = rand_series(rng, 2, 5, nterms=4)
        b = rand_series(rng, 2, 5, nterms=4)
        lam = rand_gaussian(rng)
        assert (a * b).conj() == a.conj() * b.conj()
        assert (a.scale(lam)).conj() == a.conj().scale(lam.conj())


def test_derivatives():
    z1, z2, zb1, zb2 = gens()
    s = z1 * z1 * zb2
    assert s.dz(1) == (z1 * zb2).scale(2)
    assert (z1 * z1).dzbar(1).is_zero()
    rng = random.Random(9)
    for _ in range(25):
        s = rand_series(rng, 2, 6)
        assert s.dz(1).dz(2) == s.dz(2).dz(1)
        assert s.dz(1).dzbar(2) == s.dzbar(2).dz(1)


def test_the_derivative_of_a_truncation_zero_series_certifies_no_degree():
    d = Series.const(2, 0, 5).diff(0)
    assert d.trunc == -1 and d.is_zero()
    assert d.diff(1).trunc == -1
    # z1 * d is exact through -1 + low(z1) = 0 and no further
    z1 = Series.variable(2, 4, 0)
    assert sum_of_products([(1, z1, d)], trunc=0).trunc == 0
    with pytest.raises(PreconditionError):
        sum_of_products([(1, z1, d)], trunc=1)
    with pytest.raises(PreconditionError):
        Series.zero(2, -2)


def test_leibniz_rule():
    rng = random.Random(10)
    for _ in range(25):
        a = rand_series(rng, 2, 6, nterms=4)
        b = rand_series(rng, 2, 6, nterms=4)
        lhs = (a * b).dz(1)
        rhs = a.dz(1) * b + a * b.dz(1)
        assert lhs == rhs


def test_is_real():
    z1, z2, zb1, zb2 = gens()
    assert (z1 * zb1).is_real()
    assert (z1 * z1 + zb1 * zb1).is_real()
    assert not (z1 * zb2).is_real()


def test_coeff_lookup_out_of_range():
    z1, _, _, zb2 = gens()
    s = z1 * zb2
    assert s.coeff((1, 0, 0, 1)) == 1
    assert s.coeff((0, 0, 0, 0)) == 0
    assert s.coeff((5, 0, 0, 0)) == 0


def test_subst_w_simple():
    z1, z2, zb1, zb2 = gens()
    # template z1 * w at w = z1 zb1
    out = subst_w({((1, 0, 0, 0), 1): 1}, z1 * zb1)
    assert out == z1 * z1 * zb1
    assert subst_w({((0, 0, 0, 0), 1): 1}, Series.zero(2, 8)).is_zero()


def test_subst_w_square_against_direct_expansion():
    z1, z2, zb1, zb2 = gens()
    q2 = (
        z1 * zb1
        + z2 * zb2
        + (z1 * z1 + z2 * z2 + zb1 * zb1 + zb2 * zb2).scale(G(F(1, 2)))
    )
    out = subst_w({((0, 0, 0, 0), 2): 1}, q2)
    # brute-force convolution oracle, written independently of Series.__mul__
    expect = {}
    for e1, c1 in q2.terms.items():
        for e2, c2 in q2.terms.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            expect[e] = expect.get(e, G(0)) + c1 * c2
    for e, c in expect.items():
        assert out.coeff(e) == c, e
    assert out.coeff((2, 0, 2, 0)) == G(F(3, 2))  # 1 + 2*(1/2)*(1/2)
    assert len(out.terms) == len([c for c in expect.values() if c])


def test_subst_w_requires_zero_constant_term():
    with pytest.raises(PreconditionError):
        subst_w({((0, 0, 0, 0), 1): 1}, Series.const(2, 4, 1))
    with pytest.raises(PreconditionError):
        subst_w({((0, 0, 0, 0), -1): 1}, Series.zero(2, 4))


def _convolve(a: dict, b: dict, trunc: int) -> dict:
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            if sum(e) <= trunc:
                out[e] = out.get(e, G(0)) + c1 * c2
    return out


# -- the product against the termwise double loop -------------------------------------

PRODUCT_SETTINGS = settings(derandomize=True, deadline=None, max_examples=80)

# dyadic denominators, as in sheared quadrics, mixed with 3, 7 and 21
_rationals = st.builds(F, st.integers(-9, 9), st.sampled_from([1, 2, 4, 8, 3, 7, 21]))


@st.composite
def _coefficients(draw, kind):
    re, im = draw(_rationals), draw(_rationals)
    return G(0 if kind == "imaginary" else re, 0 if kind == "real" else im)


@st.composite
def product_series(draw, nvars, trunc=None):
    """A series whose terms may reach up to its own truncation."""
    trunc = draw(st.integers(0, 6)) if trunc is None else trunc
    kind = draw(st.sampled_from(["complex", "real", "imaginary"]))
    exps = st.tuples(*[st.integers(0, trunc)] * (2 * nvars)).filter(lambda e: sum(e) <= trunc)
    return Series(nvars, trunc, draw(st.dictionaries(exps, _coefficients(kind), max_size=7)))


@st.composite
def operand_pairs(draw):
    nvars = draw(st.integers(1, 3))
    return draw(product_series(nvars)), draw(product_series(nvars))


def _assert_product(a, b, product):
    trunc = min(a.trunc, b.trunc)
    expect = _convolve(a.terms, b.terms, trunc)
    assert product.trunc == trunc
    assert product.terms == {e: c for e, c in expect.items() if c}
    assert all(product.terms.values())  # no stored zero coefficient


@PRODUCT_SETTINGS
@given(operand_pairs())
def test_product_matches_termwise_convolution(pair):
    a, b = pair
    _assert_product(a, b, a * b)
    # cross terms cancel exactly: (a + b)(a - b) = a^2 - b^2
    _assert_product(a + b, a - b, (a + b) * (a - b))
    assert (a * b + a * (-b)).is_zero()


@PRODUCT_SETTINGS
@given(st.integers(1, 2).flatmap(lambda n: st.tuples(*[product_series(n)] * 3)))
def test_product_is_commutative_associative_and_distributive(abc):
    a, b, c = abc
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


# -- the sum-of-products kernel against termwise sums of convolutions ------------------


@st.composite
def weighted_products(draw):
    """One to four (k, p, q) with k in 0, +-1, +-3, mixed truncations, n = 1..3."""
    nvars = draw(st.integers(1, 3))
    count = draw(st.integers(1, 4))
    weights = st.sampled_from([0, 1, -1, 3, -3])
    return [(draw(weights), draw(product_series(nvars)), draw(product_series(nvars)))
            for _ in range(count)]


def _sum_of_convolutions(terms) -> tuple[int, dict]:
    trunc = min(min(p.trunc, q.trunc) for _, p, q in terms)
    expect = {}
    for k, p, q in terms:
        for e, c in _convolve(p.terms, q.terms, trunc).items():
            expect[e] = expect.get(e, G(0)) + c * G(k)
    return trunc, {e: c for e, c in expect.items() if c}


@PRODUCT_SETTINGS
@given(weighted_products())
def test_sum_of_products_matches_summed_convolutions(terms):
    out = sum_of_products(terms)
    trunc, expect = _sum_of_convolutions(terms)
    assert out.trunc == trunc
    assert out.terms == expect
    assert all(type(x) is F for c in out.terms.values() for x in (c.re, c.im))
    # the one-pair call is the product
    _, p, q = terms[0]
    assert p * q == sum_of_products([(1, p, q)])
    assert (p * q).trunc == sum_of_products([(1, p, q)]).trunc


def test_sum_of_products_edge_cases():
    z1, z2, zb1, zb2 = gens(4)
    zero = Series.zero(2, 3)
    # zero series, zero weights and exact cancellation all give the zero series
    assert sum_of_products([(1, zero, z1)]) == zero
    assert sum_of_products([(1, zero, z1)]).trunc == 3
    assert sum_of_products([(0, z1, z2), (0, zb1, zb2)]).is_zero()
    assert sum_of_products([(3, z1, z2), (-1, z2, z1), (-2, z1, z2)]).is_zero()
    # weights scale the common denominator: 3 * (1/3) z1 * z2 - (1/2) z1 * z2
    third = z1.scale(G(F(1, 3)))
    half = z2.scale(G(0, F(1, 2)))
    out = sum_of_products([(3, third, z2), (-1, z1, half)])
    assert out == Series(2, 4, {(1, 1, 0, 0): G(1, F(-1, 2))})
    with pytest.raises(PreconditionError):
        sum_of_products([])
    with pytest.raises(PreconditionError):
        sum_of_products([(1, z1, Series.zero(3, 4))])


# -- certified truncation: exact beyond the least operand truncation ------------------


@st.composite
def _cut_operand(draw, nvars):
    """A polynomial of degree <= 6 with a drawn lowest degree, and a cut of it."""
    low = draw(st.integers(0, 4))
    exps = st.tuples(*[st.integers(0, 6)] * (2 * nvars)).filter(lambda e: low <= sum(e) <= 6)
    full = draw(st.dictionaries(exps, _coefficients("complex"), max_size=5))
    cut = draw(st.integers(0, 6))
    return full, Series(nvars, cut, {e: c for e, c in full.items() if sum(e) <= cut})


@st.composite
def cut_products(draw):
    """One to three (k, full p, full q, cut p, cut q), k in 0, +-1, +-3, n = 1..3."""
    nvars = draw(st.integers(1, 3))
    weights = st.sampled_from([0, 1, -1, 3, -3])
    out = []
    for _ in range(draw(st.integers(1, 3))):
        full_p, p = draw(_cut_operand(nvars))
        full_q, q = draw(_cut_operand(nvars))
        out.append((draw(weights), full_p, full_q, p, q))
    return out


def _low(s):
    return min((sum(e) for e in s.terms), default=s.trunc + 1)


@PRODUCT_SETTINGS
@given(cut_products())
def test_sum_of_products_is_exact_through_the_certified_truncation(data):
    terms = [(k, p, q) for k, _, _, p, q in data]
    least = min(min(p.trunc, q.trunc) for _, p, q in terms)
    bound = min(min(p.trunc + _low(q), q.trunc + _low(p)) for _, p, q in terms)
    for trunc in range(bound + 1):
        expect = {}
        for k, full_p, full_q, _, _ in data:
            for e, c in _convolve(full_p, full_q, trunc).items():
                expect[e] = expect.get(e, G(0)) + c * G(k)
        out = sum_of_products(terms, trunc=trunc)
        assert out.trunc == trunc
        assert out.terms == {e: c for e, c in expect.items() if c}
        if trunc == least:
            default = sum_of_products(terms)
            assert default.terms == out.terms and default.trunc == least
    with pytest.raises(PreconditionError):
        sum_of_products(terms, trunc=bound + 1)


def test_sum_of_products_refuses_an_over_claimed_truncation():
    z1, z2, _, _ = gens(4)
    # z1 and z2 start in degree 1, so z1 * z2 is exact through 4 + 1
    assert sum_of_products([(1, z1, z2)], trunc=5) == z1 * z2
    assert sum_of_products([(1, z1, z2)], trunc=5).trunc == 5
    with pytest.raises(PreconditionError):
        sum_of_products([(1, z1, z2)], trunc=6)
    # a constant operand certifies nothing beyond the other's truncation
    one = Series.const(2, 8, 1)
    with pytest.raises(PreconditionError):
        sum_of_products([(1, z1, one)], trunc=5)
    # every pair must certify, a zero weight included
    with pytest.raises(PreconditionError):
        sum_of_products([(1, z1, z2), (0, z1, one)], trunc=5)
    with pytest.raises(PreconditionError):
        sum_of_products([(1, z1, z2)], trunc=-1)


@PRODUCT_SETTINGS
@given(st.integers(1, 3).flatmap(product_series))
def test_re_im_matches_the_conjugate_formula(s):
    re, im = s.re_im()
    sbar = s.conj()
    assert re == (s + sbar).scale(G(F(1, 2)))
    assert im == (s - sbar).scale(G(0, F(-1, 2)))
    assert re.trunc == im.trunc == s.trunc
    assert all(re.terms.values()) and all(im.terms.values())


@PRODUCT_SETTINGS
@given(st.integers(1, 3).flatmap(product_series))
@example(Series(2, 3, {(0, 0, 1, 0): 1, (2, 1, 0, 0): 3}))  # d/dz1 kills degree 1: low 1 -> 2
@example(Series.const(2, 0, 5))  # every derivative has truncation -1
@example(Series.zero(1, 4))
def test_packed_derivative_and_conjugate_decode_to_the_series_operations(s):
    n = s.nvars
    packed = series_mod._packed(s, s.trunc)
    conj = series_mod._packed_conj(packed, n)
    pairs = [(conj, s.conj())]
    for slot in range(2 * n):
        pairs.append((series_mod._packed_diff(packed, slot), s.diff(slot)))
        # chained as the bracket families chain them, on one base
        pairs.append((series_mod._packed_diff(conj, slot), s.conj().diff(slot)))
    for got, want in pairs:
        assert got.base == packed.base
        assert series_mod._unpacked(got, n) == want
        assert (got.trunc, got.low) == (want.trunc, _low(want))


@PRODUCT_SETTINGS
@given(st.integers(1, 3).flatmap(product_series))
@example(Series(2, 3, {(0, 0, 1, 2): G(1, 1), (1, 0, 1, 0): 3}))  # no mirror; a self-mirror term
@example(Series(1, 4, {(1, 1): G(0, 2), (3, 0): 1, (0, 3): 1}))  # a real cubic, Im only at (1, 1)
def test_packed_imaginary_part_of_a_bucket_decodes_to_re_im(s):
    n = s.nvars
    packed = series_mod._packed(s, s.trunc)
    for d in range(s.trunc + 1):
        im = series_mod._packed_im(packed, n, d)
        # one bucket at degree d, or none, in the operand's base over 2 den
        assert [b[0] for b in im.buckets] == ([d] if im.buckets else [])
        assert (im.trunc, im.base, im.den) == (s.trunc, packed.base, 2 * packed.den)
        assert im.low == (d if im.buckets else s.trunc + 1)
        assert all(x or y for _, terms in im.buckets for _, x, y in terms)
        assert series_mod._unpacked(im, n) == s.homogeneous_part(d).re_im()[1]
        assert (not im.buckets) == s.homogeneous_part(d).is_real()


# -- every operation against termwise Gaussian-rational arithmetic ----------------------

_scalars = st.one_of(
    st.integers(-4, 4), _rationals, st.builds(G, _rationals, _rationals),
    st.sampled_from([0, F(0), G(0)]),
)


def _mirror(e, n):
    return e[n:] + e[:n]


def _assert_series(s, trunc, expect):
    """s has truncation trunc, the nonzero terms of expect, and canonical integer pairs."""
    assert s.trunc == trunc
    assert s.terms == {e: c for e, c in expect.items() if c}
    assert all(type(x) is F for c in s.terms.values() for x in (c.re, c.im))
    assert s.den >= 1 and math.gcd(s.den, *(v for pair in s.nums.values() for v in pair)) == 1
    assert (0, 0) not in s.nums.values()
    # equal values are equal series with equal hashes, whatever their history
    twin = Series(s.nvars, s.trunc, s.terms)
    assert twin == s and hash(twin) == hash(s)


@PRODUCT_SETTINGS
@given(operand_pairs(), _scalars)
def test_every_operation_matches_termwise_gaussian_arithmetic(pair, k):
    a, b = pair
    n, ta, tb, zero = a.nvars, a.terms, b.terms, G(0)
    trunc = min(a.trunc, b.trunc)
    keys = {e for e in ta.keys() | tb.keys() if sum(e) <= trunc}
    _assert_series(a + b, trunc, {e: ta.get(e, zero) + tb.get(e, zero) for e in keys})
    _assert_series(a - b, trunc, {e: ta.get(e, zero) - tb.get(e, zero) for e in keys})
    _assert_series(a * b, trunc, _convolve(ta, tb, trunc))
    _assert_series(-a, a.trunc, {e: -c for e, c in ta.items()})
    _assert_series(a.scale(k), a.trunc, {e: c * k for e, c in ta.items()})
    _assert_series(a.conj(), a.trunc, {_mirror(e, n): c.conj() for e, c in ta.items()})
    re, im = a.re_im()
    both = ta.keys() | {_mirror(e, n) for e in ta}
    bar = {e: ta.get(_mirror(e, n), zero).conj() for e in both}
    _assert_series(re, a.trunc, {e: (ta.get(e, zero) + bar[e]) * G(F(1, 2)) for e in both})
    _assert_series(im, a.trunc, {e: (ta.get(e, zero) - bar[e]) * G(0, F(-1, 2)) for e in both})
    for slot in range(2 * n):
        lowered = {e[:slot] + (e[slot] - 1,) + e[slot + 1:]: c * e[slot]
                   for e, c in ta.items() if e[slot]}
        _assert_series(a.diff(slot), a.trunc - 1, lowered)
    for d in range(a.trunc + 1):
        _assert_series(a.homogeneous_part(d), a.trunc, {e: c for e, c in ta.items() if sum(e) == d})
    # a == b exactly when their terms agree, with equal hashes
    assert (a == b) == (ta == tb)
    back = (a + b) - b
    cut = Series(n, trunc, {e: c for e, c in ta.items() if sum(e) <= trunc})
    assert back == cut and hash(back) == hash(cut)
    assert (back == b) == (back.terms == b.terms)


def test_product_edge_cases():
    z1, _, zb1, _ = gens(4)
    diff = (z1 + zb1) * (z1 - zb1)
    assert diff == z1 * z1 - zb1 * zb1 and (1, 0, 1, 0) not in diff.terms
    # one slot at the truncation: the packed exponent must not carry
    top = Series(2, 4, {(4, 0, 0, 0): F(5, 7), (0, 0, 0, 4): G(0, F(1, 3))})
    one = Series.const(2, 4, 1)
    assert top * one == top and one * top == top
    assert (top * z1).is_zero()
    high = Series(2, 6, {(0, 5, 0, 0): 1, (1, 0, 0, 0): F(1, 3)})
    low = Series(2, 2, {(0, 0, 1, 0): F(3, 2)})
    assert high * low == Series(2, 2, {(1, 0, 1, 0): F(1, 2)})
    c = Series.const(1, 0, G(F(1, 3), F(5, 7)))
    assert (c * c).coeff((0, 0)) == G(F(1, 9) - F(25, 49), F(10, 21))
    assert (Series.zero(2, 3) * top).is_zero()


def test_subst_w_against_termwise_reference():
    # sum of c * z^e * value^j, each term built from explicit products
    rng = random.Random(5)
    z1, _, _, zb2 = gens(7)
    for _ in range(6):
        v = (z1.scale(rand_gaussian(rng)) + zb2.scale(rand_gaussian(rng))
             + rand_series(rng, 2, 7, nterms=3, min_degree=2))
        template = {((1, 1, 0, 0), 5): 1, ((3, 3, 1, 1), 0): 1}  # degree 8 > trunc
        for j in (0, 2, 5):
            for _ in range(3):
                e = tuple(rng.randint(0, 2) for _ in range(4))
                template[(e, j)] = rand_gaussian(rng)
        template[((1, 0, 0, 0), 2)] = 0
        template[((0, 0, 0, 0), 3)] = G(0)
        expect = {}
        for (e, j), c in template.items():
            term = {e: G.coerce(c)} if sum(e) <= v.trunc else {}
            for _ in range(j):
                term = _convolve(term, v.terms, v.trunc)
            for k, x in term.items():
                expect[k] = expect.get(k, G(0)) + x
        assert subst_w(template, v) == Series(2, v.trunc, expect)


def test_subst_w_multiplicative():
    rng = random.Random(11)
    for _ in range(10):
        v = rand_series(rng, 2, 6, nterms=4, min_degree=1)
        t1 = ((1, 0, 0, 0), 1)
        t2 = ((0, 1, 0, 0), 2)
        prod_template = {((1, 1, 0, 0), 3): 1}
        lhs = subst_w(prod_template, v)
        rhs = subst_w({t1: 1}, v) * subst_w({t2: 1}, v)
        assert lhs == rhs


def test_subst_w_matches_summed_powers():
    # sum of P_j * value**j, with each P_j of mixed degrees and j = 1 missing
    rng = random.Random(17)
    for trunc in (5, 7, 8):
        for low in (1, 2):
            v = rand_series(rng, 2, trunc, nterms=5, min_degree=low)
            for value in (v, Series.zero(2, trunc)):
                template = {}
                for j in (0, 2, 3):
                    for _ in range(3):
                        e = tuple(rng.randint(0, 3) for _ in range(4))
                        template[(e, j)] = rand_gaussian(rng)
                expect = Series.zero(2, trunc)
                for j in (0, 2, 3):
                    p_j = Series(2, trunc, {e: c for (e, k), c in template.items()
                                            if k == j and sum(e) <= trunc})
                    expect = expect + p_j * value ** j
                out = subst_w(template, value)
                assert out == expect and out.trunc == expect.trunc == trunc


# (z1^2 + 2 z1 z2 - 2 z2^2) / 3, whose square has no z1^2 z2^2 term: 2 (1)(-2) + 2^2 = 0
_CANCELLING = {(2, 0, 0, 0): F(1, 3), (1, 1, 0, 0): F(2, 3), (0, 2, 0, 0): F(-2, 3)}

# lowest homogeneous parts of the substituted values, by degree, with non-unit denominators
_LOWEST_PARTS = {
    1: [{(1, 0, 0, 0): F(1, 2)}, {(1, 0, 0, 0): G(1, F(1, 3)), (0, 0, 0, 1): F(-2, 7)}],
    2: [_CANCELLING, {(1, 0, 1, 0): G(F(3, 2), 1), (0, 1, 0, 1): F(1, 4)}],
}


@st.composite
def _exponent(draw, degree):
    """A two-variable exponent (s, t, h, r) of the given degree."""
    e = []
    for _ in range(3):
        e.append(draw(st.integers(0, degree - sum(e))))
    return (*e, degree - sum(e))


@st.composite
def substitutions(draw):
    """A template with w-powers up to 8 or 9 and a value of lowest degree 1 or 2."""
    low = draw(st.sampled_from([1, 2]))
    trunc = draw(st.integers(2 * low, 10))
    degrees = st.integers(low + 1, min(trunc, low + 3))
    terms = dict(draw(st.sampled_from(_LOWEST_PARTS[low])))
    for d in draw(st.lists(degrees, min_size=1, max_size=4)):
        terms[draw(_exponent(d))] = draw(_coefficients("complex"))
    value = Series(2, trunc, terms)
    exps = st.integers(0, 2).flatmap(_exponent)
    powers = draw(st.lists(st.integers(0, 9), max_size=5)) + [draw(st.integers(8, 9))]
    template = {(draw(exps), j): draw(_coefficients("complex")) for j in powers}
    return template, value


@PRODUCT_SETTINGS
@given(substitutions())
def test_subst_w_matches_summed_high_powers(data):
    # powers up to 8 form odd powers after even ones and squares of squares
    template, value = data
    trunc = value.trunc
    expect = Series.zero(2, trunc)
    for j in {j for _, j in template}:
        p_j = Series(2, trunc, {e: c for (e, k), c in template.items()
                                if k == j and sum(e) <= trunc})
        expect = expect + p_j * value**j
    out = subst_w(template, value)
    assert out == expect and out.trunc == expect.trunc == trunc


@pytest.mark.parametrize("j", [2, 3, 4])
def test_subst_w_checks_every_power_against_its_certified_truncation(monkeypatch, j):
    # value^2, the first power formed, claims one degree less than it holds, so
    # the final sum (j = 2), the odd product w^2 * w (j = 3) or the square
    # (w^2)^2 (j = 4) must refuse the degree it is asked for
    formed = series_mod._as_packed
    powers = []

    def first_cut_short(acc, den, trunc, base):
        powers.append(formed(acc, den, trunc, base))
        return powers[0]._replace(trunc=trunc - 1) if len(powers) == 1 else powers[-1]

    z1, z2, zb1, _ = gens(6)
    value = z1 + zb1 * z2  # its product also runs through _as_packed
    monkeypatch.setattr(series_mod, "_as_packed", first_cut_short)
    with pytest.raises(PreconditionError, match="certified product truncation"):
        subst_w({((0, 0, 0, 0), j): 1}, value)


def test_subst_w_squares_a_power_whose_lowest_terms_cancel():
    value = Series(2, 9, _CANCELLING)
    square = value * value
    assert square.min_degree() == 4 and (2, 2, 0, 0) not in square.nums
    for j in (2, 4):
        out = subst_w({((0, 0, 0, 0), j): 1}, value)
        assert out == value**j and out.trunc == 9
        assert (2, 2, 0, 0) not in out.nums


def test_re_im_recombines_into_real_parts():
    rng = random.Random(3)
    i = G(0, 1)
    for _ in range(20):
        s = rand_series(rng, 2, 5, nterms=6)
        re, im = s.re_im()
        assert re + im.scale(i) == s
        assert re.is_real() and im.is_real()


def test_homogeneous_part():
    z1, z2, zb1, zb2 = gens()
    s = z1 + z1 * zb1 + z1 * z1 * z2
    assert s.homogeneous_part(2) == z1 * zb1


def test_file_roundtrip():
    rng = random.Random(12)
    for _ in range(10):
        s = rand_series(rng, 2, 7)
        text = dumps_series(s)
        back = loads_series(text)
        assert back == s
        assert dumps_series(back) == text  # canonical writer is stable


def test_file_rejects_duplicates_and_garbage():
    with pytest.raises(ParseError):
        loads_series("vars 2\norder 4\n1 0 0 0 1 0\n1 0 0 0 2 0\n")
    with pytest.raises(ParseError):
        loads_series("vars 2\norder 4\n1 0 0 1 0\n")
    with pytest.raises(ParseError):
        loads_series("order 4\n")
    with pytest.raises(ParseError):
        loads_series("vars 2\norder 2\n3 0 0 0 1 0\n")


def test_comments_and_order_irrelevant():
    a = loads_series("vars 2\norder 4\n# hi\n1 0 0 1 1 0\n0 1 0 0 0 1/2\n")
    b = loads_series("vars 2\norder 4\n0 1 0 0 0 1/2\n1 0 0 1 1 0 # trailing\n")
    assert a == b
