"""Reference expansions for the two-variable normal-form case families.

For each family of quadric germs in the standard two-variable list, the
low-degree parts of the four obstruction factors X1, X2, Y1, Y2 are known
in closed form as functions of the family parameters.  This module carries
those closed forms as literal coefficient tables, evaluated at exact
parameter samples.  It is a regression oracle: the tables are kept
textually separate from the bracket engine, so the two can only agree by
computing the same mathematics.

Monomial keys are exponents (s, t, h, r) of z1^s z2^t zb1^h zb2^r.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from .errors import PreconditionError
from .germ import Germ, quadric_germ
from .linalg import ExactMatrix
from .numeric import HALF, GaussianRational, I as IU, ONE, ZERO
from .quadratic import QuadraticPair
from .series import Series

CASE_IDS = ("1a", "1b", "1c", "2a", "2b", "2c", "2def", "3", "4")

_TRUNC = 2  # the tables hold quadratic parts only


def _req(params, *names):
    missing = [n for n in names if n not in params]
    if missing:
        raise PreconditionError(f"missing parameters: {', '.join(missing)}")
    return [GaussianRational.coerce(params[n]) for n in names]


def _check(cond: bool, msg: str):
    if not cond:
        raise PreconditionError(msg)


def _check_unimodular_upper(u: GaussianRational):
    _check(u.is_unimodular() and u.im > 0, "u must be unimodular with positive imaginary part")


def _check_tau(tau: GaussianRational):
    _check(tau.is_real() and 0 < tau.re < 1, "tau must be a real number strictly between 0 and 1")


def pair_for_case(case_id: str, params: Mapping) -> QuadraticPair:
    """The (A, B) normal-form pair of a sampled case."""
    case_id = normalize_case_id(case_id)
    p = dict(params)
    a = GaussianRational.coerce(p.get("a", 0))
    b = GaussianRational.coerce(p.get("b", 0))
    d = GaussianRational.coerce(p.get("d", 0))
    amat = ExactMatrix.from_rows([[a, b], [b, d]])
    if case_id in ("1a", "1b", "1c"):
        (u,) = _req(p, "u")
        bmat = ExactMatrix.from_rows([[ONE, ZERO], [ZERO, u]])
    elif case_id in ("2a", "2b", "2c", "2def"):
        (tau,) = _req(p, "tau")
        bmat = ExactMatrix.from_rows([[ZERO, ONE], [tau, ZERO]])
    elif case_id == "3":
        bmat = ExactMatrix.from_rows([[ZERO, ONE], [ONE, IU]])
    elif case_id == "4":
        bmat = ExactMatrix.from_rows([[ZERO, ONE], [ZERO, ZERO]])
    else:
        raise PreconditionError(f"unknown case {case_id!r}")
    return QuadraticPair(amat, bmat)


def germ_for_case(case_id: str, params: Mapping, trunc: int = 8) -> Germ:
    return quadric_germ(pair_for_case(case_id, params), trunc)


def normalize_case_id(case_id: str) -> str:
    cid = case_id.strip().lower().replace("-", "")
    if cid in ("2d", "2e", "2f", "2df", "2def"):
        return "2def"
    if cid not in CASE_IDS:
        raise PreconditionError(f"unknown case {case_id!r}")
    return cid


def reference_series(case_id: str, params: Mapping) -> dict[str, Series]:
    """Evaluate the reference X1, X2, Y1, Y2 tables at exact parameters."""
    case_id = normalize_case_id(case_id)
    fn = _CASE_TABLES[case_id]
    tables = fn(dict(params))
    return {name: Series(2, _TRUNC, tbl) for name, tbl in tables.items()}


# ---------------------------------------------------------------------------
# family 1: B = diag(1, u), u = e^{i theta}, 0 < theta < pi
# ---------------------------------------------------------------------------


def _case_1a(params):
    a, b, d, u = _req(params, "a", "b", "d", "u")
    _check(a.is_real() and a.re > 0, "a must be real positive")
    _check(d.is_real() and d.re > 0, "d must be real positive")
    _check_unimodular_upper(u)
    return _family1_tables(a, b, d, u)


def _case_1b(params):
    b, d, u = _req(params, "b", "d", "u")
    _check(b.is_real() and b.re >= 0, "b must be real nonnegative")
    _check(d.is_real() and d.re >= 0, "d must be real nonnegative")
    _check_unimodular_upper(u)
    return _family1_tables(ZERO, b, d, u)


def _case_1c(params):
    a, b, u = _req(params, "a", "b", "u")
    _check(a.is_real() and a.re > 0, "a must be real positive")
    _check(b.is_real() and b.re >= 0, "b must be real nonnegative")
    _check_unimodular_upper(u)
    return _family1_tables(a, b, ZERO, u)


def _family1_tables(a, b, d, u):
    ub = u.conj()
    ub2 = ub * ub
    bc = b.conj()
    bb = b * b
    babs = b.abs2()
    x1 = {
        (1, 0, 1, 0): 2 * b * u + 2 * bc * (4 * a * d - 4 * bb),
        (1, 0, 0, 1): -2 * a + 2 * d * (4 * a * d - 4 * bb),
        (0, 0, 2, 0): 4 * a * b * u + 4 * bc * d,
        (0, 1, 1, 0): 2 * a * (4 * bb - 4 * a * d) * u + 2 * d * u,
        (0, 0, 1, 1): -4 * a * a + 4 * d * d + 4 * babs * u - 4 * babs * ub,
        (0, 1, 0, 1): 2 * bc * (4 * bb - 4 * a * d) * u - 2 * b,
        (0, 0, 0, 2): -4 * a * bc - 4 * b * d * ub,
    }
    x2 = {
        (2, 0, 0, 0): 2 * a * ub,
        (1, 0, 1, 0): 4 * babs + 4 * a * a * ub + ub,
        (1, 1, 0, 0): 2 * b * u + 2 * b * ub,
        (0, 0, 2, 0): 2 * a * ub,
        (1, 0, 0, 1): 4 * b * d + 4 * a * bc * ub,
        (0, 1, 1, 0): 4 * bc * d + 4 * a * b * ub,
        (0, 0, 1, 1): 4 * bc * ub,
        (0, 2, 0, 0): 2 * d * u,
        (0, 1, 0, 1): 4 * d * d + 1 + 4 * babs * ub,
        (0, 0, 0, 2): 2 * d * ub,
    }
    y1 = {
        (2, 0, 0, 0): 8 * a * b * ub - 8 * a * b * u,
        (1, 0, 1, 0): 8 * b * babs - 8 * a * bc * d + 2 * b * ub - 4 * b * u,
        (0, 0, 2, 0): -4 * a * b * ub - 4 * bc * d,
        (1, 1, 0, 0): 4 * bb * ub - 4 * bb * u + 12 * a * d * ub - 12 * a * d * u,
        (1, 0, 0, 1): 6 * a * ub2 - 4 * a + 8 * bb * d - 8 * a * d * d,
        (0, 1, 1, 0): 8 * a * a * d * ub + 4 * d * ub - 6 * d * u - 8 * a * bb * ub,
        (0, 0, 1, 1): 4 * a * a * ub2 - 4 * d * d + 2 * ub2 - 2,
        (0, 2, 0, 0): 8 * b * d * ub - 8 * b * d * u,
        (0, 1, 0, 1): 8 * a * bc * d * ub + 4 * b * ub2 - 8 * b * babs * ub - 2 * b,
        (0, 0, 0, 2): 4 * a * bc * ub2 + 4 * b * d * ub,
    }
    y2 = {
        (2, 0, 0, 0): -2 * a * u,
        (1, 0, 1, 0): -4 * a * a * u - 4 * babs - u,
        (1, 1, 0, 0): -4 * b * u,
        (1, 0, 0, 1): -4 * a * bc * u - 4 * b * d,
        (0, 0, 2, 0): -2 * a * u,
        (0, 1, 1, 0): -4 * a * b * u - 4 * bc * d,
        (0, 0, 1, 1): -2 * bc * ub - 2 * bc * u,
        (0, 2, 0, 0): -2 * d * u,
        (0, 1, 0, 1): -4 * d * d - 1 - 4 * babs * u,
        (0, 0, 0, 2): -2 * d * ub,
    }
    return {"X1": x1, "X2": x2, "Y1": y1, "Y2": y2}


# ---------------------------------------------------------------------------
# family 2: B = [[0, 1], [tau, 0]], 0 < tau < 1, b real
# ---------------------------------------------------------------------------


def _case_2a(params):
    a, b, d, tau = _req(params, "a", "b", "d", "tau")
    _check(b.is_real() and b.re > 0, "b must be real positive")
    _check(a.abs2() == Fraction(1, 4), "a must have modulus 1/2")
    _check_tau(tau)
    return _family2_tables(a, b, d, tau)


def _case_2b(params):
    b, d, tau = _req(params, "b", "d", "tau")
    _check(b.is_real() and b.re > 0, "b must be real positive")
    _check(d.abs2() == Fraction(1, 4), "d must have modulus 1/2")
    _check_tau(tau)
    return _family2_tables(ZERO, b, d, tau)


def _case_2c(params):
    b, tau = _req(params, "b", "tau")
    _check(b.is_real() and b.re > 0, "b must be real positive")
    _check_tau(tau)
    return _family2_tables(ZERO, b, ZERO, tau)


def _case_2def(params):
    p = dict(params)
    p.setdefault("a", 0)
    p.setdefault("d", 0)
    a, d, tau = _req(p, "a", "d", "tau")
    _check_tau(tau)
    shape_ok = (a == HALF) or (a.is_zero() and d == HALF) or (a.is_zero() and d.is_zero())
    _check(shape_ok, "need a = 1/2, or a = 0 with d in {1/2, 0}")
    return _family2_tables(a, ZERO, d, tau)


def _family2_tables(a, b, d, tau):
    ac, dc = a.conj(), d.conj()
    aabs, dabs = a.abs2(), d.abs2()
    t2 = tau * tau
    t3 = t2 * tau
    bb = b * b
    b3 = bb * b
    x1 = {
        (1, 0, 1, 0): 2 * ac * (4 * bb - 4 * a * d) + 2 * a * tau,
        (0, 0, 2, 0): 4 * ac * b + 4 * a * b * tau,
        (1, 0, 0, 1): 2 * b * (4 * bb - 4 * a * d) - 2 * b * t2,
        (0, 1, 1, 0): 2 * b * tau + 2 * b * (4 * a * d * tau - 4 * bb * tau),
        (0, 0, 1, 1): 4 * tau * a * dc - 4 * tau * ac * d + 4 * bb - 4 * bb * t2,
        (0, 1, 0, 1): 2 * dc * (4 * a * d * tau - 4 * bb * tau) - 2 * t2 * d,
        (0, 0, 0, 2): -4 * tau * b * d - 4 * b * dc * t2,
    }
    x2 = {
        (2, 0, 0, 0): -2 * a,
        (1, 0, 1, 0): -4 * ac * b * tau - 4 * a * b,
        (1, 1, 0, 0): -2 * b * t2 - 2 * b,
        (1, 0, 0, 1): -4 * bb * tau - 4 * a * dc - tau,
        (0, 0, 2, 0): -2 * ac * tau,
        (0, 1, 1, 0): -4 * ac * d * tau - t2 - 4 * bb,
        (0, 0, 1, 1): -4 * b * tau,
        (0, 2, 0, 0): -2 * d * t2,
        (0, 1, 0, 1): -4 * b * d * tau - 4 * b * dc,
        (0, 0, 0, 2): -2 * dc * tau,
    }
    y1 = {
        (2, 0, 0, 0): 8 * a * b * t2 - 8 * a * b,
        (1, 0, 1, 0): 4 * a * t2 - 6 * a + 8 * aabs * d * tau - 8 * ac * bb * tau,
        (0, 0, 0, 2): 4 * b * dc * tau + 4 * b * d * t2,
        (1, 0, 0, 1): 4 * b * t3 - 8 * b3 * tau + 8 * a * b * d * tau - 2 * b * tau,
        (0, 0, 2, 0): -4 * a * b - 4 * ac * b * tau,
        (0, 2, 0, 0): 8 * b * d * t2 - 8 * b * d,
        (0, 1, 1, 0): 2 * b * (4 * bb + 4 * ac * d * tau - 2)
        + 2 * b * t2
        - 2 * d * (4 * a * b + 4 * ac * b * tau),
        (0, 0, 1, 1): 2 * t3 - 2 * tau + 4 * ac * d * t2 - 4 * a * dc,
        (0, 1, 0, 1): 6 * d * t3 - 8 * a * dabs + 8 * bb * dc - 4 * d * tau,
        (1, 1, 0, 0): 12 * a * d * t2 - 12 * a * d + 4 * bb * t2 - 4 * bb,
    }
    y2 = {
        (2, 0, 0, 0): 2 * a * tau,
        (1, 0, 1, 0): 4 * ac * b + 4 * a * b * tau,
        (1, 1, 0, 0): 4 * b * tau,
        (1, 0, 0, 1): 4 * bb + 4 * a * dc * tau + t2,
        (0, 0, 2, 0): 2 * ac,
        (0, 1, 1, 0): 4 * ac * d + tau + 4 * bb * tau,
        (0, 0, 1, 1): 2 * b + 2 * b * t2,
        (0, 2, 0, 0): 2 * d * tau,
        (0, 1, 0, 1): 4 * b * d + 4 * b * dc * tau,
        (0, 0, 0, 2): 2 * dc * t2,
    }
    return {"X1": x1, "X2": x2, "Y1": y1, "Y2": y2}


# ---------------------------------------------------------------------------
# family 3: B = [[0, 1], [1, i]], b real
# ---------------------------------------------------------------------------


def _case_3(params):
    p = dict(params)
    p.setdefault("a", 0)
    p.setdefault("b", 0)
    p.setdefault("d", 0)
    a, b, d = _req(p, "a", "b", "d")
    _check(a.is_real() and a.re >= 0, "a must be real nonnegative")
    _check(b.is_real(), "b must be real")
    ac, dc = a.conj(), d.conj()
    aabs, dabs = a.abs2(), d.abs2()
    bb = b * b
    b3 = bb * b
    i = IU
    x1 = {
        (1, 0, 1, 0): 8 * ac * bb - 8 * aabs * d + 2 * a,
        (1, 0, 0, 1): 8 * b3 - 8 * a * b * d - 2 * a * i - 2 * b,
        (0, 0, 2, 0): 4 * ac * b + 4 * a * b - 4 * aabs * i,
        (0, 1, 1, 0): 8 * ac * bb * i - 8 * aabs * d * i + 2 * b + 8 * a * b * d - 8 * b3,
        (0, 0, 1, 1): 4 * a * dc - 4 * ac * d - 4 * aabs - 8 * b * a * i,
        (0, 1, 0, 1): 8 * i * b3 - 8 * i * a * b * d + 8 * a * dabs - 8 * dc * bb - 2 * d - 2 * b * i,
        (0, 0, 0, 2): -4 * b * a - 4 * b * d - 4 * dc * a * i - 4 * dc * b,
    }
    x2 = {
        (2, 0, 0, 0): -2 * a,
        (1, 0, 1, 0): -4 * ac * b - 4 * a * b - 4 * i * aabs,
        (1, 1, 0, 0): -4 * b - 4 * a * i,
        (0, 0, 2, 0): -2 * ac,
        (0, 1, 1, 0): -4 * ac * d - 1 - 4 * bb - 4 * ac * b * i,
        (0, 0, 1, 1): -4 * b,
        (0, 2, 0, 0): -2 * d - 4 * b * i,
        (1, 0, 0, 1): -4 * bb - 4 * a * dc - 4 * i * a * b - 1,
        (0, 1, 0, 1): -4 * b * d - 4 * b * dc - 4 * bb * i - i,
        (0, 0, 0, 2): -2 * dc,
    }
    y1 = {
        (2, 0, 0, 0): 16 * a * a * i,
        (1, 0, 1, 0): -8 * ac * bb - 2 * a + 8 * aabs * d,
        (0, 0, 0, 2): 4 * b * dc + 4 * b * d + 4 * i + 8 * bb * i + 4 * a * dc * i - 4 * a * b,
        (1, 0, 0, 1): 2 * b - 8 * b3 + 8 * a * b * d + 18 * a * i,
        (0, 0, 1, 1): 4 * ac * d - 4 * a * dc - 4 * aabs + 8 * ac * b * i,
        (1, 1, 0, 0): 32 * a * b * i,
        (0, 0, 2, 0): -4 * a * b - 4 * ac * b - 4 * aabs * i,
        (0, 1, 1, 0): 8 * b3 - 8 * a * b * d - 2 * b - 8 * d * aabs * i + 8 * ac * bb * i - 4 * a * i,
        (0, 2, 0, 0): 24 * bb * i - 8 * a * d * i,
        (0, 1, 0, 1): 2 * d - 8 * a * dabs + 8 * bb * dc - 4 * a + 22 * b * i - 8 * a * b * d * i + 8 * b3 * i,
    }
    y2 = {
        (2, 0, 0, 0): 2 * a,
        (1, 0, 1, 0): 4 * ac * b + 4 * a * b - 4 * aabs * i,
        (1, 1, 0, 0): 4 * b,
        (1, 0, 0, 1): 4 * bb + 4 * a * dc + 1 - 4 * a * b * i,
        (0, 1, 1, 0): 4 * ac * d + 1 + 4 * bb - 4 * ac * b * i,
        (0, 0, 1, 1): 4 * b - 4 * ac * i,
        (0, 2, 0, 0): 2 * d,
        (0, 0, 2, 0): 2 * ac,
        (0, 1, 0, 1): 4 * b * d + 4 * b * dc - i - 4 * bb * i,
        (0, 0, 0, 2): 2 * dc - 4 * b * i,
    }
    return {"X1": x1, "X2": x2, "Y1": y1, "Y2": y2}


# ---------------------------------------------------------------------------
# family 4: B = [[0, 1], [0, 0]], b and d real
# ---------------------------------------------------------------------------


def _case_4(params):
    p = dict(params)
    p.setdefault("a", 0)
    p.setdefault("b", 0)
    p.setdefault("d", 0)
    a, b, d = _req(p, "a", "b", "d")
    _check(b.is_real(), "b must be real")
    _check(d.is_real(), "d must be real")
    ac = a.conj()
    aabs = a.abs2()
    bb = b * b
    b3 = bb * b
    x1 = {
        (1, 0, 1, 0): 8 * ac * bb - 8 * aabs * d,
        (0, 0, 2, 0): 4 * ac * b,
        (1, 0, 0, 1): 8 * b3 - 8 * a * b * d,
        (0, 0, 1, 1): 4 * bb,
    }
    x2 = {
        (2, 0, 0, 0): -2 * a,
        (1, 0, 1, 0): -4 * a * b,
        (1, 1, 0, 0): -2 * b,
        (1, 0, 0, 1): -4 * a * d,
        (0, 1, 1, 0): -4 * bb,
        (0, 1, 0, 1): -4 * b * d,
    }
    y1 = {
        (2, 0, 0, 0): -8 * a * b,
        (1, 0, 1, 0): -6 * a,
        (1, 1, 0, 0): -12 * a * d - 4 * bb,
        (0, 0, 2, 0): -4 * a * b,
        (0, 0, 1, 1): -4 * a * d,
        (0, 1, 1, 0): 8 * b3 - 4 * b - 8 * a * b * d,
        (0, 2, 0, 0): -8 * b * d,
        (0, 1, 0, 1): -8 * a * d * d + 8 * bb * d,
    }
    y2 = {
        (1, 0, 1, 0): 4 * ac * b,
        (1, 0, 0, 1): 4 * bb,
        (0, 0, 2, 0): 2 * ac,
        (0, 1, 1, 0): 4 * ac * d,
        (0, 0, 1, 1): 2 * b,
        (0, 1, 0, 1): 4 * b * d,
    }
    return {"X1": x1, "X2": x2, "Y1": y1, "Y2": y2}


_CASE_TABLES = {
    "1a": _case_1a,
    "1b": _case_1b,
    "1c": _case_1c,
    "2a": _case_2a,
    "2b": _case_2b,
    "2c": _case_2c,
    "2def": _case_2def,
    "3": _case_3,
    "4": _case_4,
}
