from fractions import Fraction as F

import pytest

from crflat import GaussianRational, obstruction_series
from crflat.errors import PreconditionError
from crflat.case_tables import (
    CASE_IDS,
    germ_for_case,
    normalize_case_id,
    reference_series,
    pair_for_case,
)

from conftest import UNIMODULAR

G = GaussianRational
I = G(0, 1)
U1, U2, U3 = UNIMODULAR

# three exact parameter samples per case, all respecting the listed constraints
SAMPLES = {
    "1a": (
        {"a": 1, "b": 1, "d": 1, "u": U1},
        {"a": 2, "b": I, "d": 1, "u": U2},
        {"a": F(1, 2), "b": G(F(1, 3), F(2, 3)), "d": 3, "u": U3},
    ),
    "1b": (
        {"b": 1, "d": 1, "u": U1},
        {"b": 2, "d": F(1, 2), "u": U2},
        {"b": 0, "d": 1, "u": U3},
    ),
    "1c": (
        {"a": 1, "b": 1, "u": U1},
        {"a": F(1, 2), "b": 2, "u": U2},
        {"a": 2, "b": 0, "u": U3},
    ),
    "2a": (
        {"a": F(1, 2), "b": 1, "d": 1, "tau": F(1, 2)},
        {"a": G(F(3, 10), F(4, 10)), "b": 2, "d": I, "tau": F(1, 3)},
        {"a": F(-1, 2), "b": F(1, 2), "d": G(1, -1), "tau": F(3, 4)},
    ),
    "2b": (
        {"b": 1, "d": F(1, 2), "tau": F(1, 2)},
        {"b": 2, "d": G(F(3, 10), F(4, 10)), "tau": F(1, 3)},
        {"b": F(1, 2), "d": F(-1, 2), "tau": F(2, 3)},
    ),
    "2c": (
        {"b": 1, "tau": F(1, 2)},
        {"b": 2, "tau": F(1, 3)},
        {"b": 3, "tau": F(3, 4)},
    ),
    "2def": (
        {"a": F(1, 2), "d": 1, "tau": F(1, 2)},
        {"a": 0, "d": F(1, 2), "tau": F(1, 3)},
        {"a": 0, "d": 0, "tau": F(2, 3)},
    ),
    "3": (
        {"a": 1, "b": 1, "d": I},
        {"a": 2, "b": -1, "d": G(1, 1)},
        {"a": F(1, 2), "b": 3, "d": G(F(1, 2), F(1, 3))},
    ),
    "4": (
        {"a": 1, "b": 1, "d": 1},
        {"a": G(F(3, 10), F(4, 10)), "b": 2, "d": F(1, 2)},
        {"a": 0, "b": 1, "d": 0},
    ),
}


def engine_quadratics(case, params):
    germ = germ_for_case(case, params, trunc=6)
    names = ("X1", "X2", "Y1", "Y2")
    return {n: s.homogeneous_part(2) for n, s in zip(names, obstruction_series(germ))}


@pytest.mark.parametrize("case", CASE_IDS)
def test_engine_matches_transcribed_tables(case):
    for params in SAMPLES[case]:
        oracle = reference_series(case, params)
        engine = engine_quadratics(case, params)
        for name in ("X1", "X2", "Y1", "Y2"):
            assert engine[name] == oracle[name], (case, params, name)


def test_spot_values_from_the_printed_tables():
    # family 1a at the all-ones sample: X2 coefficient of z1 zb1 is 7 - 4i
    t = reference_series("1a", SAMPLES["1a"][0])
    assert t["X2"].coeff((1, 0, 1, 0)) == G(7, -4)
    # family 2a: Y1 coefficient of z1 z1 is 8 a b (tau^2 - 1) = -3
    t = reference_series("2a", {"a": F(1, 2), "b": 1, "d": 1, "tau": F(1, 2)})
    assert t["Y1"].coeff((2, 0, 0, 0)) == G(-3)
    # family 3 at a = b = 0, d = 1: Y1 coefficient of zb2 zb2 is 4i
    t = reference_series("3", {"a": 0, "b": 0, "d": 1})
    assert t["Y1"].coeff((0, 0, 0, 2)) == G(0, 4)


def test_family1_subcase_values_match_their_printed_tables():
    # the subcase tables specialize the general family-1 table; pin a few
    # coefficients straight off the printed subcase displays
    u = U2
    sub = reference_series("1b", {"b": 2, "d": 3, "u": u})
    assert sub["X1"].coeff((1, 0, 1, 0)) == 2 * 2 * u - 8 * 2**3  # 2b u - 8b^3
    assert sub["Y2"].coeff((1, 0, 1, 0)) == -u - 16  # -u - 4b^2, corrected sign
    assert sub["X2"].coeff((0, 1, 0, 1)) == 4 * 9 + 1 + 16 * u.conj()
    sub = reference_series("1c", {"a": 2, "b": 1, "u": u})
    assert sub["X2"].coeff((0, 1, 0, 1)) == 1 + 4 * u.conj()  # 1 + 4 b^2 e^{-i theta}
    assert sub["Y1"].coeff((1, 0, 0, 1)) == 6 * 2 * u.conj() ** 2 - 8  # 6a u^-2 - 4a


def test_parameter_validation():
    with pytest.raises(PreconditionError):
        reference_series("2a", {"a": 1, "b": 1, "d": 1, "tau": F(1, 2)})  # |a| != 1/2
    with pytest.raises(PreconditionError):
        reference_series("2a", {"a": F(1, 2), "b": 1, "d": 1, "tau": F(3, 2)})
    with pytest.raises(PreconditionError):
        reference_series("1a", {"a": -1, "b": 1, "d": 1, "u": U1})
    with pytest.raises(PreconditionError):
        reference_series("1a", {"a": 1, "b": 1, "d": 1, "u": G(1, 1)})  # not unimodular
    with pytest.raises(PreconditionError):
        reference_series("4", {"a": 1, "b": I, "d": 1})  # b must be real
    with pytest.raises(PreconditionError):
        reference_series("nope", {})


def test_case_id_normalization():
    assert normalize_case_id("2d") == "2def"
    assert normalize_case_id("2D-F") == "2def"
    assert normalize_case_id("1A") == "1a"


def test_pair_for_case_shapes():
    p = pair_for_case("3", {"a": 1, "b": 1, "d": I})
    assert p.B.at(1, 1) == I
    p = pair_for_case("2a", {"a": F(1, 2), "b": 1, "d": 0, "tau": F(1, 3)})
    assert p.B.at(1, 0) == F(1, 3)
