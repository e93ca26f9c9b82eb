import random
from fractions import Fraction as F
from functools import lru_cache
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

import crflat.crfields as crfields_mod
import crflat.germ as germ_mod
import crflat.series as series_mod
from crflat import (
    GaussianRational,
    Germ,
    Series,
    TangentField,
    achievable_order,
    bracket_data,
    build_canonical_field,
    dumps_field,
    loads_field,
    obstruction,
    obstruction_series,
    sum_of_products,
    verify_witness,
)
from crflat.errors import PreconditionError
from crflat.case_tables import germ_for_case
from crflat.germ import load_germ

from conftest import FIXTURES, UNIMODULAR, conj_field, lie_bracket, rand_germ

G = GaussianRational
I = G(0, 1)


def gens(trunc=9):
    return Series.generators(2, trunc)


def example31(trunc=9):
    z1, z2, zb1, zb2 = gens(trunc)
    return Germ(2, z1 * zb2 + z1 * z2 + zb1 * zb2)


def example32(trunc=9):
    z1, z2, zb1, zb2 = gens(trunc)
    half = G(F(1, 2))
    return Germ(2, z1 * zb2 + (z2 * z2 + zb2 * zb2).scale(half))


def example33(trunc=9):
    z1, z2, zb1, zb2 = gens(trunc)
    return Germ(2, z1 * zb2)


def test_canonical_field_example31():
    z1, z2, zb1, zb2 = gens()
    f = build_canonical_field(example31())
    assert f.cf_z1 == z1 + zb1
    assert f.cf_z2 == -z2
    assert f.cf_w == z1 * zb2 + zb1 * z2 + zb1 * zb2


def test_canonical_field_flat_quadric():
    from crflat import parabolic_quadric

    q = parabolic_quadric(8)
    f = build_canonical_field(q)
    real, _ = q.split()
    assert f.cf_w.is_zero()
    assert f.cf_z1 == real.dz(2)
    assert f.cf_z2 == -real.dz(1)


def test_canonical_field_case_1a_sample():
    u = UNIMODULAR[0]
    g = germ_for_case("1a", {"a": 1, "b": 1, "d": 1, "u": u}, trunc=6)
    z1, z2, zb1, zb2 = gens(5)
    f = build_canonical_field(g)
    assert f.cf_z1 == zb2.scale(u.conj()) + (z1 + z2).scale(2)
    assert f.cf_z2 == -((z1 + z2).scale(2) + zb1)


def test_witness_fixtures():
    z1, z2, zb1, zb2 = gens()
    zero = Series.zero(2, 9)

    f31 = TangentField(z1 + zb1, -z2, z1 * zb2 + zb1 * z2 + zb1 * zb2)
    chi31 = (z1 + zb1) * z2 * zb2
    w = verify_witness(example31(), f31, chi31)
    assert (w.annihilates_h, w.annihilates_h_conj, w.annihilates_chi) == (True, True, True)

    f32 = TangentField(z2 + zb1, zero, z2 * zb2 + zb1 * zb2)
    w = verify_witness(example32(), f32, z2 * zb2)
    assert (w.annihilates_h, w.annihilates_h_conj, w.annihilates_chi) == (True, True, True)

    f33 = TangentField(zb1, zero, zb1 * zb2)
    w = verify_witness(example33(), f33, z2 * zb2)
    assert (w.annihilates_h, w.annihilates_h_conj, w.annihilates_chi) == (True, True, True)


def test_witness_detects_failure():
    z1, z2, zb1, zb2 = gens()
    f_bad = TangentField(z1, -z2, Series.zero(2, 9))
    w = verify_witness(example31(), f_bad)
    assert not w.all_true()
    assert w.annihilates_chi is None


def test_canonical_field_is_always_tangent(rng):
    # L(h) and L(conj h) vanish identically for every graph germ
    for _ in range(20):
        g = rand_germ(rng, trunc=5)
        w = verify_witness(g, build_canonical_field(g))
        assert w.annihilates_h and w.annihilates_h_conj


def test_canonical_field_matches_the_split_formula(rng):
    # L = (G_2 - i E_2) d/dz1 - (G_1 - i E_1) d/dz2 + 2i (G_2 E_1 - G_1 E_2) d/dw
    for _ in range(20):
        g = rand_germ(rng, trunc=6)
        real, imag = g.split()
        g1, g2 = real.dz(1), real.dz(2)
        e1, e2 = imag.dz(1), imag.dz(2)
        want = TangentField(
            g2 - e2.scale(I), -(g1 - e1.scale(I)), (g2 * e1 - g1 * e2).scale(G(0, 2))
        )
        got = build_canonical_field(g)
        assert got == want
        assert [s.trunc for s in (got.cf_z1, got.cf_z2, got.cf_w)] == [g.trunc - 1] * 3


def _definition_factors(g, degree):
    """X1..Y2 by their definitions from the twelve-family route of bracket_data."""
    d = bracket_data(g, None if degree is None else max(degree - 1, 0))
    a, b = d.field.cf_z1, -d.field.cf_z2
    ab, bb = a.conj(), b.conj()
    return d, tuple(
        sum_of_products(pairs, trunc=degree)
        for pairs in (
            ((1, bb, d.gamma1), (1, ab, d.gamma2)),
            ((1, d.lambda4, b), (1, d.lambda5, a)),
            ((1, b, d.gamma4), (1, a, d.gamma5)),
            ((1, d.lambda1, bb), (1, d.lambda2, ab)),
        )
    )


def test_obstruction_series_equals_the_factors_of_the_full_bracket_data(rng):
    # obstruction_series forms lambda_1, lambda_2, M1 and M2 from A and B alone
    # and X1..Y2 by three identities; X1..Y2 formed by their definitions from
    # all twelve families of bracket_data, canonical field included, agree
    for _ in range(12):
        g = rand_germ(rng, trunc=rng.randint(5, 9), extra_terms=5)
        for degree in (None, 2, 4, g.trunc - 3):
            want = _definition_factors(g, degree)[1]
            got = obstruction_series(g, degree)
            assert got == want
            assert [s.trunc for s in got] == [s.trunc for s in want]


@lru_cache(maxsize=None)
def _exponents(low, trunc):
    return [e for e in product(range(trunc + 1), repeat=4) if low <= sum(e) <= trunc]


@st.composite
def obstruction_germs(draw):
    """Two-variable germs over a denominator k > 1, truncated at 3..9, sparse
    or dense, starting in degree 2 or (no quadratic part) in degree 3."""
    trunc = draw(st.integers(3, 9))
    low = draw(st.sampled_from((2, 3)))
    exps = _exponents(low, trunc)
    gaussians = st.builds(G, st.integers(-3, 3), st.integers(-3, 3))
    if draw(st.booleans()):  # dense: every term through degree low + 1, a few above
        terms = {e: draw(gaussians) for e in exps if sum(e) <= low + 1}
        terms.update(draw(st.dictionaries(st.sampled_from(exps), gaussians, max_size=6)))
    else:
        terms = draw(st.dictionaries(st.sampled_from(exps), gaussians, max_size=5))
    # one coefficient 1 / k keeps the denominator at k
    terms[draw(st.sampled_from(exps))] = G(1)
    k = draw(st.integers(2, 7))
    return Germ(2, Series(2, trunc, terms).scale(G(F(1, k))))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(obstruction_germs())
def test_the_factors_are_the_twelve_family_definitions_and_satisfy_the_identities(g):
    assert g.R.den > 1
    d, factors = _definition_factors(g, None)
    for got, want in zip(obstruction_series(g), factors):
        _same(got, want)
    for degree in range(g.trunc - 2):
        for got, want in zip(obstruction_series(g, degree), _definition_factors(g, degree)[1]):
            _same(got, want)
    # the three identities, on the definitions' factors at working truncation
    x1, x2, y1, y2 = factors
    a, b = d.field.cf_z1, -d.field.cf_z2

    def L(s):
        return [(1, a, s.dz(1)), (-1, b, s.dz(2))]

    def M(k):
        return sum_of_products(((1, a, b.dzbar(k)), (-1, b, a.dzbar(k))))

    _same(x2, -y2.conj())
    _same(x1, sum_of_products(L(y2)))
    _same(y1, sum_of_products(L(x2) + [(1, d.lambda1, M(1)), (1, d.lambda2, M(2))]))


def test_commutator_conjugation_symmetries(rng):
    for _ in range(20):
        g = rand_germ(rng, trunc=5)
        d = bracket_data(g)
        assert d.lambda1 == -(d.lambda4.conj())
        assert d.lambda2 == -(d.lambda5.conj())
        assert d.lambda3 == -(d.lambda6.conj())


def test_bracket_data_case_1a_linear_parts():
    u = UNIMODULAR[0]
    g = germ_for_case("1a", {"a": 1, "b": 1, "d": 1, "u": u}, trunc=6)
    d = bracket_data(g)
    z1, z2, zb1, zb2 = gens(4)
    assert d.lambda1 == -((z1 + z2).scale(2) + zb1).scale(u)
    assert d.lambda4 == ((zb1 + zb2).scale(2) + z1).scale(u.conj())
    assert d.lambda5 == z2.scale(u) + (zb1 + zb2).scale(2)


def test_bracket_data_against_generic_lie_bracket(rng):
    # independent oracle: generic commutators of coefficient fields
    for _ in range(12):
        g = rand_germ(rng, trunc=5, extra_terms=3)
        f = build_canonical_field(g)
        L = {"z1": f.cf_z1, "z2": f.cf_z2, "w": f.cf_w}
        T = lie_bracket(L, conj_field(L))
        LT = lie_bracket(L, T)
        d = bracket_data(g)
        zero = Series.zero(2, g.trunc)
        assert T.get("zb1", zero) == d.lambda1
        assert T.get("zb2", zero) == d.lambda2
        assert T.get("wb", zero) == d.lambda3
        assert T.get("z1", zero) == d.lambda4
        assert T.get("z2", zero) == d.lambda5
        assert T.get("w", zero) == d.lambda6
        assert LT.get("zb1", zero) == d.gamma1
        assert LT.get("zb2", zero) == d.gamma2
        assert LT.get("wb", zero) == d.gamma3
        assert LT.get("z1", zero) == d.gamma4
        assert LT.get("z2", zero) == d.gamma5
        assert LT.get("w", zero) == d.gamma6


# -- the bracket engine against its chained-operator form ---------------------------


def _plain_brackets(germ):
    """lambda_1..6, gamma_1..6 and X1, X2, Y1, Y2 by chained *, + and -."""
    f = build_canonical_field(germ)
    a, b, c = f.cf_z1, -f.cf_z2, f.cf_w
    ab, bb, cb = a.conj(), b.conj(), c.conj()

    def L(s):
        return a * s.dz(1) - b * s.dz(2)

    def Lbar(s):
        return ab * s.dzbar(1) - bb * s.dzbar(2)

    lam = [L(ab), -L(bb), L(cb), -Lbar(a), Lbar(b), -Lbar(c)]

    def T(s):
        return lam[0] * s.dzbar(1) + lam[1] * s.dzbar(2) + lam[3] * s.dz(1) + lam[4] * s.dz(2)

    gam = [L(lam[0]), L(lam[1]), L(lam[2]),
           L(lam[3]) - T(a), L(lam[4]) + T(b), L(lam[5]) - T(c)]
    x1 = bb * gam[0] + ab * gam[1]
    x2 = lam[3] * b + lam[4] * a
    y1 = b * gam[3] + a * gam[4]
    y2 = lam[0] * bb + lam[1] * ab
    return lam, gam, (x1, x2, y1, y2)


def _same(got, want):
    assert got == want and got.trunc == want.trunc


def _cut(s, d):
    """s through degree d, truncated at d."""
    return Series(s.nvars, d, {e: c for e, c in s.terms.items() if sum(e) <= d})


def test_bracket_engine_matches_the_chained_operators():
    rng = random.Random(41)
    nonzero = 0
    for trunc in range(5, 10):
        for _ in range(3):
            g = rand_germ(rng, trunc=trunc, extra_terms=5)
            lam, gam, factors = _plain_brackets(g)
            d = bracket_data(g)
            for k in range(6):
                _same(getattr(d, f"lambda{k + 1}"), lam[k])
                _same(getattr(d, f"gamma{k + 1}"), gam[k])
            for got, want in zip(obstruction_series(g), factors):
                _same(got, want)
            # the demand schedule: every order from the families cut short
            x1, x2, y1, y2 = factors
            full = x1 * x2 - y1 * y2
            for order in range(achievable_order(trunc) + 1):
                rep = obstruction(g, order)
                _same(rep.residual, _cut(full, order))
            nonzero += not rep.residual.is_zero()
            for degree in range(trunc - 2):
                cut = bracket_data(g, degree)
                for k in range(6):
                    _same(getattr(cut, f"lambda{k + 1}"), _cut(lam[k], degree))
                    _same(getattr(cut, f"gamma{k + 1}"), _cut(gam[k], degree))
                for got, want in zip(obstruction_series(g, degree), factors):
                    _same(got, _cut(want, degree))
    assert nonzero >= 5  # most of the residuals compared are nonzero certificates


def test_obstruction_vanishes_on_nonminimal_fixtures():
    assert obstruction(example31(), 6).residual.is_zero()
    assert obstruction(example32(), 6).residual.is_zero()
    assert obstruction(example33(), 6).residual.is_zero()
    from crflat import parabolic_quadric

    assert obstruction(parabolic_quadric(9), 6).residual.is_zero()


def test_obstruction_certificate_case_1a():
    u = UNIMODULAR[0]
    g = germ_for_case("1a", {"a": 1, "b": 1, "d": 1, "u": u}, trunc=8)
    rep = obstruction(g, 4)
    coeff = rep.residual.coeff((0, 0, 4, 0))  # zb1^4
    assert coeff == (u - u.conj()) * -8  # -8 a conj(b) d (u - 1/u) at a=b=d=1
    assert coeff == G(0, F(-64, 5))
    assert coeff.abs2() == F(64, 5) ** 2
    assert rep.first_nonzero is not None


def test_obstruction_certificate_case_1a_b_zero():
    # with the off-diagonal entry removed, the z2^3 zb1 comparison survives:
    # residual coefficient (16 a^2 d^2 + 8 d^2)(1 - u^2) = 24 (1 - u^2)
    u = UNIMODULAR[0]
    g = germ_for_case("1a", {"a": 1, "b": 0, "d": 1, "u": u}, trunc=8)
    rep = obstruction(g, 4)
    coeff = rep.residual.coeff((0, 3, 1, 0))  # z2^3 zb1
    expect = 24 * (1 - u * u)
    assert coeff == expect
    assert coeff


def test_obstruction_order_bookkeeping():
    g = example31(trunc=9)
    assert achievable_order(9) == 6
    with pytest.raises(PreconditionError):
        obstruction(g, 7)
    with pytest.raises(PreconditionError):
        obstruction(g, -1)


def _with_terms_above_trunc(germ, rng, per_degree=4):
    """The germ's R plus random terms of degrees T + 1..T + 3, truncated at T + 3."""
    trunc = germ.trunc
    terms = germ.R.terms
    for d in range(trunc + 1, trunc + 4):
        for _ in range(per_degree):
            cuts = sorted(rng.randint(0, d) for _ in range(3))
            e = (cuts[0], cuts[1] - cuts[0], cuts[2] - cuts[1], d - cuts[2])
            terms[e] = G(rng.randint(-3, 3), rng.randint(-3, 3))
    return Germ(2, Series(2, trunc + 3, terms))


def _residual_through(germ, degree):
    """X1 X2 - Y1 Y2 from the factors through ``degree``, certified through degree + 2."""
    x1, x2, y1, y2 = obstruction_series(germ, degree)
    return sum_of_products(((1, x1, x2), (-1, y1, y2)), trunc=degree + 2)


@pytest.mark.parametrize("seed", range(4))
def test_residual_ignores_the_terms_above_the_truncation(seed):
    # case 1a (seed 0) and random germs with a full quadratic part: each has a
    # nonzero residual, and terms of R above T move none of it through T + 2
    rng = random.Random(seed)
    if seed == 0:
        g = load_germ(FIXTURES / "case_1a.germ")
    else:
        g = rand_germ(rng, trunc=7, extra_terms=8)
    trunc = g.trunc
    longer = _with_terms_above_trunc(g, rng)
    for k in range(achievable_order(trunc) + 1):
        assert obstruction(longer, k).residual == obstruction(g, k).residual
    want = _residual_through(g, trunc)
    assert not want.is_zero()
    assert _cut(want, trunc - 3) == obstruction(g, trunc - 3).residual
    assert _residual_through(longer, trunc) == want
    # the bound is sharp: the added terms reach the residual in degree T + 3
    other = _with_terms_above_trunc(g, random.Random(seed + 100))
    top = [_residual_through(h, trunc + 1).homogeneous_part(trunc + 3) for h in (longer, other)]
    assert top[0] != top[1]


def test_obstruction_packs_r_once_and_decodes_only_the_residual(monkeypatch):
    # the families and factors stay packed between products: R is packed once
    # per germ, and the residual is the one series decoded
    germ = load_germ(FIXTURES / "screen_s02.germ")
    calls = {"_packed": 0, "_decoded": 0}
    for name in calls:
        original = getattr(series_mod, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        for module in (series_mod, germ_mod, crfields_mod):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    report = obstruction(germ, 6)
    assert calls["_packed"] <= 1 and calls["_decoded"] == 1
    assert len(report.residual.nums) == 175


def test_obstruction_forms_the_factors_from_16_pair_products(monkeypatch):
    # lambda_1, lambda_2, M1, M2, Y2 and X1 take two products each and Y1 four;
    # the residual adds two, and neither family route is called
    germ = load_germ(FIXTURES / "screen_s02.germ")
    pairs = []
    original = crfields_mod._sum_of_packed

    def counted(terms, trunc=None):
        pairs.append(len(terms))
        return original(terms, trunc)

    def forbidden(*args):
        raise AssertionError("the obstruction reads no lambda or Gamma family route")

    monkeypatch.setattr(crfields_mod, "_sum_of_packed", counted)
    monkeypatch.setattr(crfields_mod, "_families", forbidden)
    monkeypatch.setattr(crfields_mod, "bracket_data", forbidden)
    obstruction(germ, 6)
    assert pairs == [2, 2, 2, 2, 2, 2, 4, 2]


def test_field_file_roundtrip():
    f = build_canonical_field(example31())
    text = dumps_field(f)
    back = loads_field(text)
    assert back.cf_z1 == f.cf_z1 and back.cf_z2 == f.cf_z2 and back.cf_w == f.cf_w
    assert dumps_field(back) == text
