import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from crflat import GaussianRational, ParseError, sqrt_fraction, sqrt_gaussian
from crflat.numeric import I, ONE, ZERO, integer_parts

from conftest import rand_gaussian, rand_nonzero_gaussian

G = GaussianRational


def test_construction_normalizes():
    g = G(F(2, 4), F(-6, 4))
    assert g.re == F(1, 2) and g.im == F(-3, 2)
    assert G(3) == 3
    assert not G(0)


@pytest.mark.parametrize(
    "value, re",
    [(0, F(0)), (-7, F(-7)), (True, F(1)), (False, F(0)), (F(-3, 4), F(-3, 4)), (10**30, F(10**30))],
)
def test_coerce_takes_ints_and_fractions_as_real_values(value, re):
    g = G.coerce(value)
    assert type(g) is G and type(g.re) is F and type(g.im) is F
    assert (g.re, g.im) == (re, 0)
    assert g == G(value) and hash(g) == hash(G(value))
    assert type(g.re.numerator) is int  # a bool is read as its integer value
    assert G.coerce(g) is g


@pytest.mark.parametrize("value", [0.5, 0.0, "1", "i", None, complex(1, 1)])
def test_coerce_rejects_inexact_and_textual_values(value):
    with pytest.raises(TypeError, match="Gaussian rational"):
        G.coerce(value)


def test_arithmetic_basics():
    a = G(1, 2)
    b = G(F(1, 2), -1)
    assert a + b == G(F(3, 2), 1)
    assert a - b == G(F(1, 2), 3)
    assert a * b == G(F(5, 2), 0)  # (1+2i)(1/2 - i) = 1/2 - i + i + 2 = 5/2
    assert (a / b) * b == a
    assert I * I == -1
    assert a.conj().conj() == a
    assert (a * b).conj() == a.conj() * b.conj()


def test_field_axioms_on_random_triples():
    rng = random.Random(1)
    for _ in range(200):
        a, b, c = (rand_gaussian(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
    for _ in range(100):
        a = rand_nonzero_gaussian(rng)
        assert a * a.inverse() == ONE
        assert (ONE / a) * a == ONE


# -- the fast paths against the general formulas ------------------------------------

_fractions = st.builds(F, st.integers(-9, 9), st.sampled_from([1, 2, 3, 4, 7]))
_gaussians = st.one_of(
    st.builds(G, _fractions, _fractions),
    st.builds(G, _fractions),  # real
    st.builds(lambda y: G(0, y), _fractions),  # pure imaginary
    st.just(G(0)),
)
# every operand kind the arithmetic accepts
_operands = st.one_of(_gaussians, st.integers(-9, 9), st.booleans(), _fractions)


def _parts(x) -> tuple[F, F]:
    return (x.re, x.im) if isinstance(x, G) else (F(x), F(0))


def _assert_exact(result: G, re: F, im: F):
    assert type(result.re) is F and type(result.im) is F
    assert (result.re, result.im) == (re, im)
    assert result == G(re, im) and hash(result) == hash(G(re, im))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(_gaussians, _operands)
def test_fast_paths_match_the_general_formulas(a, x):
    (p, q), (r, s) = _parts(a), _parts(x)
    for product in (a * x, x * a):
        _assert_exact(product, p * r - q * s, p * s + q * r)
    for total in (a + x, x + a):
        _assert_exact(total, p + r, q + s)
    _assert_exact(a - x, p - r, q - s)
    _assert_exact(x - a, r - p, s - q)
    _assert_exact(-a, -p, -q)
    _assert_exact(a.conj(), p, -q)
    if a:
        n = p * p + q * q
        _assert_exact(a.inverse(), p / n, -q / n)
    else:
        with pytest.raises(ZeroDivisionError, match="division by zero Gaussian rational"):
            a.inverse()


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.lists(_operands, max_size=6))
def test_integer_parts_lifts_over_the_least_common_denominator(values):
    den, re, im = integer_parts(iter(values))
    assert den == math.lcm(*(x.denominator for v in values for x in _parts(v)))
    assert len(re) == len(im) == len(values)
    assert all(type(x) is int for x in re + im)
    for v, x, y in zip(values, re, im):
        assert F(x, den) + I * F(y, den) == v


def test_integer_parts_examples():
    assert integer_parts([]) == (1, [], [])
    assert integer_parts([F(1, 2), G(F(1, 3), F(-1, 4)), 5, G(0, F(5, 6))]) == (
        12,
        [6, 4, 60, 0],
        [0, -3, 0, 10],
    )
    with pytest.raises(TypeError, match="exact rational"):
        integer_parts([F(1, 2), 0.5])


def test_abs2_and_unimodular():
    u = G(F(3, 5), F(4, 5))
    assert u.abs2() == 1
    assert u.is_unimodular()
    assert not G(1, 1).is_unimodular()
    assert G(F(-2, 3)).abs2() == F(4, 9)


def test_pow():
    u = G(F(3, 5), F(4, 5))
    assert u**2 == u * u
    assert u**0 == ONE
    assert u**-1 == u.conj()  # unimodular inverse is the conjugate


@pytest.mark.parametrize(
    "text,expected",
    [
        ("3/4", G(F(3, 4))),
        ("-2", G(-2)),
        ("3/5+4/5 i", G(F(3, 5), F(4, 5))),
        ("3/5-4/5 i", G(F(3, 5), F(-4, 5))),
        ("-1/2-2/3 i", G(F(-1, 2), F(-2, 3))),
        ("i", I),
        ("-i", -I),
        ("2 i", G(0, 2)),
        ("-3/7 i", G(0, F(-3, 7))),
        ("0", ZERO),
    ],
)
def test_parse_literals(text, expected):
    assert G.parse(text) == expected


def test_parse_format_roundtrip():
    rng = random.Random(2)
    for _ in range(200):
        g = rand_gaussian(rng)
        assert G.parse(str(g)) == g


def test_parse_rejects_garbage():
    for bad in ("", "1/0", "x", "1+2", "i i", "1+", "--1"):
        with pytest.raises(ParseError):
            G.parse(bad)


def test_sqrt_fraction():
    assert sqrt_fraction(F(9, 4)) == F(3, 2)
    assert sqrt_fraction(F(0)) == 0
    assert sqrt_fraction(F(2)) is None
    assert sqrt_fraction(F(-1)) is None


def test_sqrt_gaussian():
    # (1+i)/2 squared is i/2
    assert sqrt_gaussian(G(0, F(1, 2))) == G(F(1, 2), F(1, 2))
    assert sqrt_gaussian(G(-4)) == G(0, 2)
    assert sqrt_gaussian(G(F(9, 16))) == G(F(3, 4))
    assert sqrt_gaussian(G(0, F(1, 4))) is None  # needs sqrt(1/8), irrational
    rng = random.Random(3)
    for _ in range(100):
        g = rand_gaussian(rng)
        sq = g * g
        root = sqrt_gaussian(sq)
        assert root is not None and root * root == sq
