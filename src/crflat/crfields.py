"""Tangent-field bracket calculus and the non-minimality obstruction.

For a two-variable germ w = R = G + iE the field

    L = (G_2 - i E_2) d/dz1 - (G_1 - i E_1) d/dz2 + 2i (G_2 E_1 - G_1 E_2) d/dw

is a type-(1,0) tangent field along the graph.  Writing L = A d/dz1
- B d/dz2 + C d/dw, with A = d(conj R)/dz2 and B = d(conj R)/dz1, the
commutator T = [L, conj L] has coefficient family lambda_1..lambda_6 and
[L, T] the family Gamma_1..Gamma_6.  L acts on functions of (z, zbar)
through A and B alone, and there

    T = lambda_1 d/dzbar1 + lambda_2 d/dzbar2 + lambda_4 d/dz1 + lambda_5 d/dz2,
    lambda_1 = L(conj A), lambda_2 = -L(conj B), lambda_4 = -Lbar(A), lambda_5 = Lbar(B),
    Gamma_1 = L(lambda_1), Gamma_2 = L(lambda_2),
    Gamma_4 = L(lambda_4) - T(A), Gamma_5 = L(lambda_5) + T(B).

When the CR points of the germ are non-minimal the combinations

    X1 = conj(B) Gamma_1 + conj(A) Gamma_2      X2 = lambda_4 B + lambda_5 A
    Y1 = B Gamma_4 + A Gamma_5                  Y2 = lambda_1 conj(B) + lambda_2 conj(A)

satisfy X1 X2 = Y1 Y2 identically.  A nonzero coefficient in the residual
X1 X2 - Y1 Y2 is therefore a finite-order certificate that no such
non-minimal structure exists; the converse direction is not decided here.

Three exact identities give the factors from lambda_1, lambda_2 and Y2,
with no Gamma family:

1. X2 = -conj(Y2).  T is anti-self-conjugate: conj(lambda_1) = Lbar(A)
   = -lambda_4 and conj(lambda_2) = -Lbar(B) = -lambda_5, so
   -conj(Y2) = lambda_4 B + lambda_5 A.
2. X1 = L(Y2).  L is a derivation, so L(Y2) = X1 + lambda_1 L(conj B)
   + lambda_2 L(conj A) = X1 - lambda_1 lambda_2 + lambda_2 lambda_1.
3. Y1 = L(X2) + lambda_1 M1 + lambda_2 M2, with M_k = A dB/dzbar_k
   - B dA/dzbar_k.  Expanding L(X2) by the Leibniz rule and T(A), T(B) by
   the formula for T gives Y1 - L(X2) = lambda_1 M1 + lambda_2 M2
   + (lambda_4 B + lambda_5 A)(dB/dz2 - dA/dz1), and dA/dz1 = dB/dz2
   = d^2(conj R)/dz1 dz2.

So :func:`obstruction` forms lambda_1, lambda_2, M1, M2, Y2 and X1 from two
products each and Y1 from four: 16 pair products, where the eight families
lambda_1, lambda_2, lambda_4, lambda_5, Gamma_1, Gamma_2, Gamma_4, Gamma_5
and the four factors built from them by definition take 32.  X2 is a
packed conjugate.  :func:`bracket_data` keeps the route of the definitions,
all twelve families with C included, as the reference the factors are
tested against.

Every series is packed: the germ's R is packed once, with base trunc + 1
(every term the chain keeps has degree <= trunc, so no key sum carries), A
and B are its packed conjugate's derivatives, and each of lambda_1,
lambda_2, M1, M2, Y2, X1, Y1 and the residual is one call of the packed
product core :func:`crflat.series._sum_of_packed` on packed derivatives and
conjugates.  :func:`obstruction` decodes only the residual, and
:func:`obstruction_series` its four factors.

Demand schedule.  R starts in degree 2, so A, B, lambda_1, lambda_2, M1
and M2 start in degree 1 (dB/dzbar_k in degree 0) and each of X1..Y2 in
degree 2.  The residual through order k therefore reads X1..Y2 only
through k - 2.  Those are products of lambda_1, lambda_2 or an L-derivative
with operands that start in degree 1, so they read lambda_1, lambda_2, M1
and M2 only through k - 3.  :func:`obstruction` asks for exactly that, with
d = max(k, 4) - 2: lambda_1, lambda_2, M1 and M2 through d - 1, Y2, X1 and
Y1 through d, and the residual through k.  The kernel certifies every such
truncation from its operands' lowest degrees, and raises instead of
over-claiming.

The coefficient names cf_* avoid a clash with the quadratic matrices, which
the surrounding literature also calls A and B.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .errors import ParseError, PreconditionError
from .germ import Germ
from .numeric import GaussianRational
from .series import (
    Series,
    _Packed,
    _grlex_key,
    _packed,
    _packed_conj,
    _packed_diff,
    _sum_of_packed,
    _unpacked,
    format_term_lines,
    parse_packed,
    read_records,
    read_text,
    sum_of_products,
)


class TangentField(NamedTuple):
    """Coefficients of d/dz1, d/dz2, d/dw of a (1,0) field along the graph."""

    cf_z1: Series
    cf_z2: Series
    cf_w: Series


def build_canonical_field(germ: Germ) -> TangentField:
    """The canonical tangent field of a two-variable germ.

    Since conj R = G - iE, the coefficients G_j - i E_j are the derivatives
    d(conj R)/dz_j, and 2i (G_2 E_1 - G_1 E_2) = A R_1 - B R_2 with
    A = d(conj R)/dz2 and B = d(conj R)/dz1, so R is never split.
    """
    if germ.n != 2:
        raise PreconditionError("the canonical field needs two variables")
    r = germ.R
    rbar = r.conj()
    a = rbar.dz(2)
    b = rbar.dz(1)
    return TangentField(a, -b, sum_of_products(((1, a, r.dz(1)), (-1, b, r.dz(2)))))


class WitnessReport(NamedTuple):
    annihilates_h: bool
    annihilates_h_conj: bool
    annihilates_chi: Optional[bool]

    def all_true(self) -> bool:
        return (
            self.annihilates_h
            and self.annihilates_h_conj
            and (self.annihilates_chi is not False)
        )


def apply_field(field: TangentField, target: Series, w_part: GaussianRational = None) -> Series:
    """Apply the field to a function of (z, zbar) plus an optional w-slope.

    ``w_part`` is the (constant) derivative of the target with respect to w;
    the graph substitution w = R has already been folded into the series
    coefficients, so no w remains afterwards.
    """
    out = field.cf_z1 * target.dz(1) + field.cf_z2 * target.dz(2)
    if w_part is not None and w_part:
        out = out + field.cf_w.scale(w_part)
    return out


def verify_witness(germ: Germ, field: TangentField, chi: Series | None = None) -> WitnessReport:
    """Check that the field annihilates h = -w + R, its conjugate, and chi.

    All three are evaluated along the graph (w = R, conj w = conj R); the
    booleans report exact vanishing of the truncated series.
    """
    if germ.n != 2:
        raise PreconditionError("witness checks need two variables")
    r = germ.R
    lh = apply_field(field, r, w_part=GaussianRational(-1))
    lhbar = apply_field(field, r.conj())
    chi_ok = None
    if chi is not None:
        chi_ok = apply_field(field, chi).is_zero()
    return WitnessReport(lh.is_zero(), lhbar.is_zero(), chi_ok)


class BracketData(NamedTuple):
    """Coefficients of [L, conj L] (lambda) and [L, [L, conj L]] (gamma) of a field L."""

    lambda1: Series
    lambda2: Series
    lambda3: Series
    lambda4: Series
    lambda5: Series
    lambda6: Series
    gamma1: Series
    gamma2: Series
    gamma3: Series
    gamma4: Series
    gamma5: Series
    gamma6: Series
    field: TangentField


def bracket_data(germ: Germ, degree: int | None = None) -> BracketData:
    """Both commutator coefficient families.

    By default they are exact at working truncation (lambda through
    trunc - 2, Gamma through trunc - 3); with ``degree`` every family is
    computed through that degree only.
    """
    if germ.n != 2:
        raise PreconditionError("bracket calculus needs two variables")
    f = build_canonical_field(germ)
    families = _families(*_field_ab(germ), _packed(f.cf_w, germ.trunc), degree)
    return BracketData(**{k: _unpacked(p, 2) for k, p in families.items()}, field=f)


def _field_ab(germ: Germ) -> tuple[_Packed, _Packed]:
    """The field's A = d(conj R)/dz2 and B = d(conj R)/dz1 (see
    :func:`build_canonical_field`), from the germ's packed R."""
    rbar = _packed_conj(germ._packed_r(), 2)
    return _packed_diff(rbar, 1), _packed_diff(rbar, 0)


def _families(a: _Packed, b: _Packed, c: _Packed, degree: int | None) -> dict:
    """The lambda and Gamma families of L = A d/dz1 - B d/dz2 + C d/dw, by name, packed.

    The operands share one base.  Each family is one sum of products, built
    from the definitions in the module docstring.
    """
    ab, bb = _packed_conj(a, 2), _packed_conj(b, 2)

    def grad(s: _Packed, slots: int = 2) -> list:
        return [_packed_diff(s, k) for k in range(slots)]

    # the derivatives of A, B and C are read twice, so they are formed once
    da, db, dc = grad(a, 4), grad(b, 4), grad(c, 4)

    # each helper returns the (weight, factor, factor) pairs of k times the
    # operator applied to s, given s's derivatives ds, so every coefficient is
    # one sum of products
    def L(ds: list, k: int = 1) -> list:
        return [(k, a, ds[0]), (-k, b, ds[1])]

    def Lbar(ds: list, k: int) -> list:
        return [(k, ab, ds[2]), (-k, bb, ds[3])]

    def family(pairs: list) -> _Packed:
        return _sum_of_packed(pairs, degree)

    out = {}
    lam1 = out["lambda1"] = family(L(grad(ab)))
    lam2 = out["lambda2"] = family(L(grad(bb), -1))
    lam4 = out["lambda4"] = family(Lbar(da, -1))
    lam5 = out["lambda5"] = family(Lbar(db, 1))

    def T(ds: list, k: int) -> list:
        return [(k, lam1, ds[2]), (k, lam2, ds[3]), (k, lam4, ds[0]), (k, lam5, ds[1])]

    out["gamma1"] = family(L(grad(lam1)))
    out["gamma2"] = family(L(grad(lam2)))
    out["gamma4"] = family(L(grad(lam4)) + T(da, -1))
    out["gamma5"] = family(L(grad(lam5)) + T(db, 1))
    lam3 = out["lambda3"] = family(L(grad(_packed_conj(c, 2))))
    lam6 = out["lambda6"] = family(Lbar(dc, -1))
    out["gamma3"] = family(L(grad(lam3)))
    out["gamma6"] = family(L(grad(lam6)) + T(dc, -1))
    return out


class ObstructionReport(NamedTuple):
    """The residual X1 X2 - Y1 Y2 through ``order``; ``first_nonzero`` is its
    graded-lex least term as (exponent (s, t, h, r), coefficient), or None."""

    residual: Series
    order: int
    first_nonzero: Optional[tuple[tuple[int, int, int, int], GaussianRational]]


def achievable_order(trunc: int) -> int:
    """Highest residual order supported by a germ of the given truncation.

    A and B cost one derivative, lambda_1, lambda_2, M1 and M2 a second, and
    X1 = L(Y2) and Y1 = L(X2) + ... a third (see the module docstring), so the
    residual of products is exact through trunc - 3 before any lowest degree
    is counted.  This bound is conservative: counting the factors' lowest
    degrees, the residual is fixed by R through trunc as far as trunc + 2
    (on five random germs it did not depend on the terms of R above trunc).
    The limit stays at trunc - 3 because raising it changes which orders
    the command line accepts.
    """
    return trunc - 3


def _factors(germ: Germ, degree: int | None) -> tuple[_Packed, _Packed, _Packed, _Packed]:
    """X1, X2, Y1 and Y2 packed, through ``degree``, by the three identities of
    the module docstring: lambda_1, lambda_2, M1 and M2 through ``degree - 1``,
    then Y2, X1 = L(Y2) and Y1 = L(X2) + lambda_1 M1 + lambda_2 M2, with
    X2 = -conj(Y2)."""
    a, b = _field_ab(germ)
    ab, bb = _packed_conj(a, 2), _packed_conj(b, 2)
    inner = None if degree is None else max(degree - 1, 0)

    def L(s: _Packed, k: int = 1) -> list:
        """The (weight, factor, factor) pairs of k L(s)."""
        return [(k, a, _packed_diff(s, 0)), (-k, b, _packed_diff(s, 1))]

    def M(slot: int) -> _Packed:
        """M_k = A dB/dzbar_k - B dA/dzbar_k, at the slot k + 1 of zbar_k."""
        return _sum_of_packed(
            ((1, a, _packed_diff(b, slot)), (-1, b, _packed_diff(a, slot))), inner
        )

    lam1 = _sum_of_packed(L(ab), inner)
    lam2 = _sum_of_packed(L(bb, -1), inner)
    y2 = _sum_of_packed(((1, lam1, bb), (1, lam2, ab)), degree)
    x2 = _packed_conj(y2, 2, -1)
    x1 = _sum_of_packed(L(y2), degree)
    y1 = _sum_of_packed(L(x2) + [(1, lam1, M(2)), (1, lam2, M(3))], degree)
    return x1, x2, y1, y2


def obstruction_series(
    germ: Germ, degree: int | None = None
) -> tuple[Series, Series, Series, Series]:
    """The four product factors of the non-minimality identity.

    By default they are exact at working truncation (X2 and Y2 through
    trunc - 2, X1 and Y1 through trunc - 3); with ``degree`` they are
    computed through that degree from lambda_1, lambda_2, M1 and M2 through
    ``degree - 1``: A and B start in degree 1.  They are built by the three
    identities of the module docstring; no Gamma family, lambda_4, lambda_5
    or C is formed.
    """
    if germ.n != 2:
        raise PreconditionError("bracket calculus needs two variables")
    return tuple(_unpacked(p, 2) for p in _factors(germ, degree))


def obstruction(germ: Germ, order: int) -> ObstructionReport:
    """Residual X1 X2 - Y1 Y2 through the requested total degree.

    A vanishing residual is necessary for CR non-minimality near the origin;
    the first nonzero term (graded-lex least) is a certified obstruction.
    The factors X1..Y2 are formed through max(order, 4) - 2, all the
    residual reads, and only the residual is decoded.
    """
    if germ.n != 2:
        raise PreconditionError("obstruction calculus needs two variables")
    if order < 0:
        raise PreconditionError(f"negative residual order {order}")
    max_order = achievable_order(germ.trunc)
    if order > max_order:
        raise PreconditionError(
            f"order {order} exceeds the achievable residual order {max_order} "
            f"for truncation {germ.trunc}"
        )
    # X1..Y2 start in degree 2, so the residual through order reads them
    # through order - 2; asking at least degree 2 lets their truncation show
    # where they start, which is what certifies the residual's truncation
    x1, x2, y1, y2 = _factors(germ, max(order, 4) - 2)
    residual = _unpacked(_sum_of_packed(((1, x1, x2), (-1, y1, y2)), order), 2)
    if not residual.nums:
        return ObstructionReport(residual, order, None)
    first = min(residual.nums, key=_grlex_key)
    return ObstructionReport(residual, order, (first, residual.coeff(first)))


# -- field file format -----------------------------------------------------------
#
# Three labeled blocks of term lines::
#
#     vars 2
#     order 7
#     coef z1
#     <term lines>
#     coef z2
#     <term lines>
#     coef w
#     <term lines>

_FIELD_BLOCKS = ("z1", "z2", "w")


def loads_field(text: str) -> TangentField:
    (nvars, order), rows = read_records(text, ("vars", "order"), _FIELD_BLOCKS)
    if nvars != 2:
        raise ParseError("field files are two-variable")
    return TangentField(
        *(_unpacked(parse_packed(rows[b], 4, order), 2) for b in _FIELD_BLOCKS)
    )


def dumps_field(field: TangentField) -> str:
    lines = [f"vars {field.cf_z1.nvars}", f"order {field.cf_z1.trunc}"]
    for label, series in zip(_FIELD_BLOCKS, (field.cf_z1, field.cf_z2, field.cf_w)):
        lines.append(f"coef {label}")
        lines.extend(format_term_lines(series))
    return "\n".join(lines) + "\n"


def load_field(path) -> TangentField:
    return loads_field(read_text(path))
