"""Order-by-order formal flattening of the parabolic two-variable quadric.

Setting: a germ whose quadratic part is exactly

    q2 = |z1|^2 + |z2|^2 + (z1^2 + z2^2 + zb1^2 + zb2^2) / 2

and whose imaginary part vanishes below degree m.  Write H for the degree-m
homogeneous part of Im R.  The machinery here revolves around the linear
differential operators

    Phi = (z2 + zb2) dH/dzb1 - (z1 + zb1) dH/dzb2
    Psi = (z2 + zb2)^2 dPhi/dz1 - (z2 + zb2)(z1 + zb1) dPhi/dz2 + (z1 + zb1) Phi

and the first-order condition  (z2 + zb2) dPsi/dz1 - (z1 + zb1) dPsi/dz2 = 0,
which every H inherited from a germ that is non-minimal at its CR points
satisfies.  The degree-m normalization conditions select a unique shear
w' = w + B(z, w), B of weight m, such that H + Im B(z, q2) is normalized;
for inputs satisfying the first-order condition the normalized remainder
vanishes, which is verified, never assumed.  A nonzero remainder (or an
unsolvable normalization) is returned as an obstruction certificate.

The operators exchange ``Series``, each product certified through the degree
it is asked for (Phi of degree m, Psi and the condition of degree m + 1), so
a cut degree raises instead of dropping terms.  Bracket tables [t s r h] (the
coefficient of z1^s z2^t zb1^h zb2^r) stay where the audits index by bracket
shifts, and in ``HTable``; lookups at negative indices are zero by
convention, which every recursion identity below relies on.  The
operators have three independent implementations.  Generic series arithmetic
defines them.  The recursions (coefficient shifts, alternating-sum transforms
and their identities) exist only as audit code paths, and the audits force
them to agree with the series.  Integer key shifts carry the condition too,
in factored form.  Write w_i = z_i + zb_i, D = w2 d/dz1 - w1 d/dz2 and
E = w2 d/dzb1 - w1 d/dzb2, so that Phi = E H and Psi = w2 D Phi + w1 Phi.
D is a derivation with D w1 = w2 and D w2 = -w1, so

    D Psi = (D w2) D Phi + w2 D^2 Phi + (D w1) Phi + w1 D Phi
          = -w1 D Phi + w2 D^2 Phi + w2 Phi + w1 D Phi
          = w2 (D^2 + 1) E H,

and since multiplying by w2 is injective, H satisfies the condition exactly
when (D^2 + 1) E H vanishes.  One fused map, the field w2 d_a - w1 d_b
(four key shifts per term in one pass), gives E and D on a flat packed
family {column * base^4 + exponent digits in base: coefficient}; three
passes of it give the factor, and a multiplication by w2 the condition.
They build the condition matrix for all unit tables at once, each build
checked against the series operators on one dense table.  The factor alone
decides the flattening driver's per-degree check exactly, on the integer
pairs (re, im) of Im R_m in two columns: D and E keep the degree, so the
factor of a degree-m H fits the germ's own packing base T + 1 for every
m <= T, and Im R_m is read straight from the keys of the germ's packed R.
Every kernel returned here, of the condition and of the uniqueness blocks,
comes from ``linalg.certified_nullspace``, which certifies it beside the
elimination that computes it.

The multiplication by w_i builds each degree's normalization system too: the
polynomials z^alpha (2 q2)^j of all unknowns form one integer family, since
2 q2 = w1^2 + w2^2, and their parts at the constrained exponents and
mirrors are sparse integer rows, checked against series arithmetic on one
dense probe.  ``linalg.solve`` factors those rows modulo primes, certifies
the factor in integers and checks every solution.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping, NamedTuple, Optional

from .errors import (
    ConsistencyError,
    InconsistentSystemError,
    PreconditionError,
    UnderdeterminedSystemError,
)
from .germ import Germ, KernelPolynomial, parabolic_pair, quadric_germ
from .linalg import SparseMatrix, certified_nullspace, solve
from .numeric import I, ONE, GaussianRational, ZERO, _exact
from .series import (
    Exponent,
    Series,
    _Packed,
    _pack,
    _packed,
    _packed_im,
    _unpack,
    _unpacked,
    bracket_from_exp,
    exp_from_bracket,
    sum_of_products,
)

Bracket = tuple[int, int, int, int]
Table = dict[Bracket, GaussianRational]

def all_brackets(degree: int) -> list[Bracket]:
    out = []
    for t in range(degree + 1):
        for s in range(degree + 1 - t):
            for r in range(degree + 1 - t - s):
                out.append((t, s, r, degree - t - s - r))
    return out


def table_to_series(table: Mapping[Bracket, object], degree: int) -> Series:
    return Series(2, degree, {exp_from_bracket(*idx): c for idx, c in table.items()})


def series_to_table(series: Series) -> Table:
    return {bracket_from_exp(e): c for e, c in series.items()}


def _tget(table: Mapping[Bracket, GaussianRational], idx: Bracket) -> GaussianRational:
    # negative-index lookups are zero by convention
    return table.get(idx, ZERO)


class HTable:
    """Real-valued homogeneous coefficient table of one degree."""

    __slots__ = ("m", "coeffs")

    def __init__(self, m: int, coeffs: Mapping[Bracket, object]):
        self.m = m
        clean: Table = {}
        for idx, c in coeffs.items():
            t, s, r, h = idx
            if min(idx) < 0 or t + s + r + h != m:
                raise PreconditionError(f"index {idx} is not homogeneous of degree {m}")
            c = GaussianRational.coerce(c)
            if c:
                clean[idx] = c
        for (t, s, r, h), c in clean.items():
            if _tget(clean, (r, h, t, s)) != c.conj():
                raise PreconditionError(
                    "table is not real-valued: mirror coefficient mismatch at "
                    f"{(t, s, r, h)}"
                )
        self.coeffs = clean

    def get(self, idx: Bracket) -> GaussianRational:
        return _tget(self.coeffs, idx)

    def is_zero(self) -> bool:
        return not self.coeffs

    def items(self):
        return sorted(self.coeffs.items())

    def __eq__(self, other):
        if not isinstance(other, HTable):
            return NotImplemented
        return self.m == other.m and self.coeffs == other.coeffs

    def __repr__(self):
        return f"HTable(m={self.m}, {dict(self.items())!r})"


def h_from_germ(germ: Germ, m: int) -> HTable:
    """Degree-m table of the imaginary part of a parabolic-quadric germ."""
    _require_parabolic(germ)
    if m > germ.trunc:
        raise PreconditionError("degree exceeds the germ truncation")
    return HTable(m, series_to_table(_unpacked(_imaginary_part(germ, m), 2)))


def _imaginary_part(germ: Germ, m: int) -> _Packed:
    """Im R_m, read from the keys of the germ's packed R (base T + 1) alone.

    Callers have checked the quadric and the degree.  The result is packed
    in the germ's base, over 2 den, den that of the packed R, and need not
    be in lowest terms; it holds one bucket, or none when R_m is real.
    """
    return _packed_im(germ._packed_r(), 2, m)


def _require_parabolic(germ: Germ):
    if germ.n != 2 or germ.quadratic_pair() != parabolic_pair():
        raise PreconditionError(
            "flattening driver requires the standard parabolic quadric quadratic part"
        )


# -- definitional operators (generic series arithmetic) -------------------------


class PhiPsiTables(NamedTuple):
    m: int
    phi: Series
    psi: Series


def _linear_forms(trunc: int) -> tuple[Series, Series]:
    z1, z2, zb1, zb2 = Series.generators(2, trunc)
    return z1 + zb1, z2 + zb2


def _table_and_degree(h: HTable | Mapping[Bracket, object], m: int | None) -> tuple[Table, int]:
    """An HTable's coefficients and degree, or a raw table with its given degree."""
    if isinstance(h, HTable):
        return h.coeffs, h.m
    if m is None:
        raise PreconditionError("raw tables need an explicit degree")
    return {k: GaussianRational.coerce(v) for k, v in h.items()}, m


def phi_psi(h: HTable | Mapping[Bracket, object], m: int | None = None) -> PhiPsiTables:
    """Both derived operators, by plain series arithmetic, exact through m and m + 1."""
    table, m = _table_and_degree(h, m)
    hs = table_to_series(table, m)
    w1, w2 = _linear_forms(m + 2)  # through degree 2, so w2 * w2 is exact
    phi = sum_of_products(((1, w2, hs.dzbar(1)), (-1, w1, hs.dzbar(2))), trunc=m)
    terms = ((1, w2 * w2, phi.dz(1)), (-1, w2 * w1, phi.dz(2)), (1, w1, phi))
    psi = sum_of_products(terms, trunc=m + 1)
    return PhiPsiTables(m, phi, psi)


def fundamental_series(tables: PhiPsiTables) -> Series:
    """The condition series, certified exact through degree m + 1."""
    psi, m = tables.psi, tables.m
    w1, w2 = _linear_forms(m + 2)
    return sum_of_products(((1, w2, psi.dz(1)), (-1, w1, psi.dz(2))), trunc=m + 1)


class FundamentalReport(NamedTuple):
    ok: bool
    violations: list[tuple[Bracket, GaussianRational]]


def check_fundamental(tables: PhiPsiTables) -> FundamentalReport:
    """Does (z2+zb2) dPsi/dz1 - (z1+zb1) dPsi/dz2 vanish identically?"""
    f = fundamental_series(tables)
    violations = [(bracket_from_exp(e), c) for e, c in f.items()]
    return FundamentalReport(not violations, violations)


# -- recursion audits (independent coefficient-shift code paths) ------------------


class AuditReport:
    """An audit's verdict; each report built without ``failures`` gets its own list."""

    __slots__ = ("ok", "failures", "skipped")

    def __init__(self, ok: bool, failures: list[str] | None = None, skipped: Optional[str] = None):
        self.ok = ok
        self.failures = [] if failures is None else failures
        self.skipped = skipped

    def __eq__(self, other):
        if not isinstance(other, AuditReport):
            return NotImplemented
        return (self.ok, self.failures, self.skipped) == (other.ok, other.failures, other.skipped)

    def __repr__(self):
        return f"AuditReport(ok={self.ok!r}, failures={self.failures!r}, skipped={self.skipped!r})"


def _phi_recursion(h: Mapping[Bracket, GaussianRational], idx: Bracket) -> GaussianRational:
    t, s, r, h_ = idx
    return (
        (h_ + 1) * _tget(h, (t, s, r - 1, h_ + 1))
        + (h_ + 1) * _tget(h, (t - 1, s, r, h_ + 1))
        - (r + 1) * _tget(h, (t, s - 1, r + 1, h_))
        - (r + 1) * _tget(h, (t, s, r + 1, h_ - 1))
    )


def _psi_recursion(phi: Mapping[Bracket, GaussianRational], idx: Bracket) -> GaussianRational:
    t, s, r, h_ = idx
    return (
        (s + 1)
        * (
            _tget(phi, (t, s + 1, r - 2, h_))
            + 2 * _tget(phi, (t - 1, s + 1, r - 1, h_))
            + _tget(phi, (t - 2, s + 1, r, h_))
        )
        - (t + 1) * _tget(phi, (t + 1, s, r - 1, h_ - 1))
        - t * _tget(phi, (t, s, r, h_ - 1))
        - (t + 1) * _tget(phi, (t + 1, s - 1, r - 1, h_))
        - t * _tget(phi, (t, s - 1, r, h_))
        + _tget(phi, (t, s, r, h_ - 1))
        + _tget(phi, (t, s - 1, r, h_))
    )


def _iden_combination(psi: Mapping[Bracket, GaussianRational], idx: Bracket) -> GaussianRational:
    t, s, r, h_ = idx
    return (
        (s + 1) * _tget(psi, (t - 1, s + 1, r, h_))
        + (s + 1) * _tget(psi, (t, s + 1, r - 1, h_))
        - (t + 1) * _tget(psi, (t + 1, s - 1, r, h_))
        - (t + 1) * _tget(psi, (t + 1, s, r, h_ - 1))
    )


def recursion_audit(h: HTable | Mapping[Bracket, object], m: int | None = None) -> AuditReport:
    """Check the coefficient recursions against the series-computed operators.

    The first two identities re-derive Phi from H and Psi from Phi by index
    shifts; the third states that the alternating four-term combination of
    Psi coefficients agrees, index by index, with the first-order condition
    series.  Exact equality is required everywhere.
    """
    table, m = _table_and_degree(h, m)
    tables = phi_psi(table, m)
    phi, psi = series_to_table(tables.phi), series_to_table(tables.psi)
    failures = []
    for idx in all_brackets(m):
        if _tget(phi, idx) != _phi_recursion(table, idx):
            failures.append(f"phi-recursion mismatch at {idx}")
    for idx in all_brackets(m + 1):
        if _tget(psi, idx) != _psi_recursion(phi, idx):
            failures.append(f"psi-recursion mismatch at {idx}")
    fund = series_to_table(fundamental_series(tables))
    for idx in all_brackets(m + 1):
        if _iden_combination(psi, idx) != _tget(fund, idx):
            failures.append(f"four-term combination differs from condition series at {idx}")
    return AuditReport(not failures, failures)


# -- alternating-sum transforms ---------------------------------------------------


def _binom(t: int, k: int) -> int:
    if k < 0 or t < k:
        return 0
    return math.comb(t, k)


class KTransform(NamedTuple):
    k: int
    values: Table

    def get(self, s: int, h: int) -> GaussianRational:
        if s < 0 or h < 0:
            return ZERO
        return self.values.get((s, h), ZERO)


def k_transform(table: Mapping[Bracket, GaussianRational], degree: int, k: int) -> KTransform:
    """Alternating binomial-weighted sums over the first bracket slot.

    values[(s, h)] = sum_t (-1)^(degree - t - s - h) C(t, k) table[t s r h]
    with r = degree - t - s - h.
    """
    values: Table = {}
    for s in range(degree + 1):
        for h in range(degree + 1 - s):
            acc = ZERO
            for t in range(k if k > 0 else 0, degree + 1 - s - h):
                r = degree - t - s - h
                c = _tget(table, (t, s, r, h))
                if c:
                    w = _binom(t, k)
                    if w:
                        acc = acc + c * ((-1) ** (r % 2) * w)
            if acc:
                values[(s, h)] = acc
    return KTransform(k, values)


def identity_audit(h: HTable | Mapping[Bracket, object], m: int | None = None) -> AuditReport:
    """Verify the transform-level identities at lowest conjugate weight.

    Requires the first-order condition to hold for H (the audit is skipped
    otherwise).  Checked for every k and s in range, all with exact
    arithmetic:

    * the transform of Phi at (s, 0) against the three-term combination of
      transforms of H,
    * the transform of Psi at (s, 0) against transforms of Phi,
    * the two-sided ladder between Psi transforms of adjacent k,

    and for even degree additionally the odd-transform chain at the origin
    slot and the closing three-term identity on H transforms.
    """
    table, m = _table_and_degree(h, m)
    tables = phi_psi(table, m)
    fund = check_fundamental(tables)
    if not fund.ok:
        return AuditReport(False, skipped="first-order condition fails for this table")
    hk = {k: k_transform(table, m, k) for k in range(-1, m + 4)}
    phi, psi = series_to_table(tables.phi), series_to_table(tables.psi)
    pk = {k: k_transform(phi, m, k) for k in range(-2, m + 4)}
    sk = {k: k_transform(psi, m + 1, k) for k in range(-1, m + 4)}
    failures = []
    for k in range(0, m + 3):
        for s in range(0, m + 3):
            lhs = pk[k].get(s, 0)
            rhs = (
                hk[k - 1].get(s, 1)
                + (m - s + 1 - k) * hk[k].get(s - 1, 0)
                - (k + 1) * hk[k + 1].get(s - 1, 0)
            )
            if lhs != rhs:
                failures.append(f"phi-transform identity fails at k={k}, s={s}")
            lhs = sk[k].get(s, 0)
            rhs = (s + 1) * pk[k - 2].get(s + 1, 0) - (k - 1) * pk[k].get(s - 1, 0)
            if lhs != rhs:
                failures.append(f"psi-transform identity fails at k={k}, s={s}")
            lhs = (s + 1) * sk[k - 1].get(s + 1, 0)
            rhs = (k + 1) * sk[k + 1].get(s - 1, 0)
            if lhs != rhs:
                failures.append(f"psi-transform ladder fails at k={k}, s={s}")
    if m % 2 == 0:
        for k in range(0, m + 2, 2):
            if sk[k + 1].get(0, 0):
                failures.append(f"odd psi-transform at the origin is nonzero for k={k + 1}")
        for l in range(1, m // 2 + 2):
            val = (
                hk[2 * l - 2].get(1, 1)
                + (m + 1 - 2 * l) * hk[2 * l - 1].get(0, 0)
                - 2 * l * hk[2 * l].get(0, 0)
            )
            if val:
                failures.append(f"closing identity fails at l={l}")
    return AuditReport(not failures, failures)


# -- normalization conditions ---------------------------------------------------


class Constraint(NamedTuple):
    label: str
    kind: str  # "zero" (complex coefficient) or "realpart"
    index: Bracket

    @property
    def parts(self) -> tuple[str, ...]:
        """The parts of the coefficient at ``index`` that must vanish."""
        return ("re", "im") if self.kind == "zero" else ("re",)


def normalization_system(m: int) -> tuple[Constraint, ...]:
    """The degree-m normalization constraint list, in this order.

    Indices are brackets [t s r h] for the coefficient of z1^s z2^t zb1^h
    zb2^r.  All pure-z coefficients [m - s1, s1, 0, 0]; the mixed family
    [T, t1, s, 0], s >= 1 and T = m - t1 - s, with s < T, or s = T when
    t1 > 0; the binary run [t, 0, m - t, 0], floor(2m/3) < t < m; the (1,1)
    run [2t + 1, 1, m - 2t - 3, 1], floor((m - 1)/3) <= t < floor((m - 1)/2);
    and for even m the real part of the coefficient just below one run: the
    (1,1) one when m = 4 mod 6, otherwise the binary one.

    The pure-z and mixed rows, two per kernel unknown, alone fix the shear
    (full rank mod p for m = 3..18, checked by the tests); the m - 1 block
    rows only decide whether an H failing the first-order condition is
    reported unsolvable or leaves a nonzero normalized remainder.
    """
    if m < 3:
        raise PreconditionError("normalization starts at degree 3")
    cons = [Constraint(f"pure-z s1={s1}", "zero", (m - s1, s1, 0, 0)) for s1 in range(m + 1)]
    for t1 in range(m + 1):
        # s <= T = m - t1 - s, strictly below it when t1 = 0
        for s in range(1, (m - t1 - (t1 == 0)) // 2 + 1):
            cons.append(Constraint(f"mixed t1={t1} s={s}", "zero", (m - t1 - s, t1, s, 0)))
    top, low = 2 * m // 3, (m - 1) // 3
    for t in range(top + 1, m):
        cons.append(Constraint(f"block binary t={t}", "zero", (t, 0, m - t, 0)))
    for t in range(low, (m - 1) // 2):
        cons.append(Constraint(f"block mixed t={t}", "zero", (2 * t + 1, 1, m - 2 * t - 3, 1)))
    if m % 2 == 0:
        t = low - 1
        real_idx = (2 * t + 1, 1, m - 2 * t - 3, 1) if m % 6 == 4 else (top, 0, m - top, 0)
        cons.append(Constraint("block real part", "realpart", real_idx))
    return tuple(cons)


def constraint_residuals(
    constraints: Iterable[Constraint], table: Mapping[Bracket, GaussianRational]
) -> list[tuple[Constraint, GaussianRational]]:
    """Nonzero constraint values of a table, in constraint order."""
    out = []
    for con in constraints:
        c = _tget(table, con.index)
        v = GaussianRational(*(getattr(c, part) for part in con.parts))
        if v:
            out.append((con, v))
    return out


# -- the unique kernel solve -------------------------------------------------------


def kernel_unknowns(m: int) -> list[tuple[tuple[int, int], int]]:
    out = []
    for j in range(m // 2 + 1):
        for a1 in range(m - 2 * j + 1):
            a2 = m - 2 * j - a1
            if m % 2 == 0 and j == m // 2 and a1 == 0 and a2 == 0:
                continue  # pinned to zero for even weight
            out.append(((a1, a2), j))
    return out


def _shear_family(m: int, base: int) -> Family:
    """The polynomials c_k = z^alpha (2 q2)^j of ``kernel_unknowns(m)`` as one family.

    Column k is c_k for the k-th unknown (alpha, j), packed with ``base``,
    which must exceed m.  All are built at once by Horner's rule over j with
    the elementary map 2 q2 F = w1 (w1 F) + w2 (w2 F), since
    2 q2 = w1^2 + w2^2.
    """
    unknowns = kernel_unknowns(m)
    family: Family = {}
    for j in range(m // 2, -1, -1):
        family = _w_sum(
            ((1, 1, _w_sum(((1, 1, family),), base)), (1, 2, _w_sum(((1, 2, family),), base))),
            base,
        )
        # the columns of w-power j are new, so they overlap no key of the sum
        units = (((a1, a2, 0, 0), {k: 1}) for k, ((a1, a2), jk) in enumerate(unknowns) if jk == j)
        family.update(_family(units, base))
    return family


@lru_cache(maxsize=None)
def _normalization_matrix(m: int) -> tuple:
    """The germ-independent part of the degree-m normalization system.

    Returns (unknowns, constraints, matrix), the matrix a sparse integer
    ``linalg.SparseMatrix``.  Unknown k = (alpha, j) is b z^alpha w^j, and
    Im(b z^alpha q2^j) = Re b Im(z^alpha q2^j) + Im b Re(z^alpha q2^j), so
    columns 2k (Re b) and 2k + 1 (Im b) hold parts of the integer polynomial
    c_k = z^alpha (2 q2)^j.  Rows are the parts of each constraint, in system
    order.  At the constraint's exponent e, with mirror e', 2 Re c_k has the
    coefficient c_k[e] + c_k[e'] and 2 Im c_k the coefficient
    i (c_k[e'] - c_k[e]); so the "re" row holds c_k[e] + c_k[e'] in column
    2k + 1 and the "im" row c_k[e'] - c_k[e] in column 2k.  Both columns of
    unknown k are 2^(j + 1) times those of the system in b, so a solution
    of this matrix, times 2^(j + 1), solves that system.

    The polynomials c_k come from ``_shear_family``, regrouped once by
    exponent.  The build checks itself against series arithmetic on one
    dense probe of (Re b, Im b), and a disagreement raises
    :class:`ConsistencyError`.
    """
    unknowns = kernel_unknowns(m)
    constraints = normalization_system(m)
    base = m + 1
    by_exponent = _regroup(_shear_family(m, base), base)
    rows = []
    for con in constraints:
        e = exp_from_bracket(*con.index)
        here = by_exponent.get(e, {})
        there = by_exponent.get(e[2:] + e[:2], {})
        for part in con.parts:
            sign, shift = (1, 1) if part == "re" else (-1, 0)
            row = {
                2 * k + shift: there.get(k, 0) + sign * here.get(k, 0)
                for k in here.keys() | there.keys()
            }
            rows.append({c: v for c, v in row.items() if v})
    # a dense probe b_k = p[2k] + i p[2k + 1] that follows no linear pattern
    # in k: the rows applied to p are the constraint parts of 2 Im sum b_k c_k
    probe = [pow(3, c, 65521) for c in range(2 * len(unknowns))]
    two_q2 = quadric_germ(parabolic_pair(), m).R.scale(2)
    powers = [Series.const(2, m, 1)]
    for _ in range(m // 2):
        powers.append(powers[-1] * two_q2)
    polys = [{} for _ in powers]
    for k, ((a1, a2), j) in enumerate(unknowns):
        polys[j][(a1, a2, 0, 0)] = GaussianRational(probe[2 * k], probe[2 * k + 1])
    s = sum_of_products(tuple((1, Series(2, m, p), q) for p, q in zip(polys, powers)))
    twice_im = s.re_im()[1].scale(2)
    expected = [
        getattr(twice_im.coeff(exp_from_bracket(*con.index)), part)
        for con in constraints
        for part in con.parts
    ]
    if [sum(v * probe[c] for c, v in row.items()) for row in rows] != expected:
        raise ConsistencyError(
            f"normalization matrix of degree {m} disagrees with the series"
        )
    return tuple(unknowns), constraints, SparseMatrix(rows, 2 * len(unknowns))


@lru_cache(maxsize=None)
def _constraint_keys(m: int, base: int) -> tuple[tuple[int, int], ...]:
    """(key, number of parts) of each degree-m constraint, its exponent packed with ``base``."""
    return tuple(
        (_pack(exp_from_bracket(*c.index), base), len(c.parts))
        for c in normalization_system(m)
    )


def solve_kernel(source: Germ | Series | _Packed, m: int) -> KernelPolynomial:
    """The unique weight-m shear datum normalizing the degree-m imaginary part.

    ``source`` is a germ, which must carry the parabolic quadric and be
    flattened below m, or the series H = Im R_m itself, which must be real,
    in two variables and homogeneous of degree m, or the flattening driver's
    packed H (``_imaginary_part``), one bucket read from the germ's packed
    R.  The first two are checked, then packed, so one core reads the
    right-hand side from the bucket.  The normalization conditions on
    H' = H + Im B(z, q2) form an overdetermined real-linear system in
    (Re b, Im b), whose right-hand side is read off H at each constraint's
    exponent key (packed once per degree and base); uniqueness and
    consistency are verified by the exact solve.  An inconsistent system
    raises :class:`InconsistentSystemError`, which the driver reports as an
    obstruction.  A singular one raises :class:`ConsistencyError`: the
    pure-z and mixed rows have full rank, so a free unknown is a bug.

    The right-hand side is H's integer numerators, so the solve returns
    den times the system's solution, a real vector: each part of b is the
    one ``Fraction(2^(j + 1) num, den_x den)`` of its entry num / den_x,
    which takes the column scale and the 1/den of H in one reduction.
    """
    if isinstance(source, Germ):
        _require_parabolic(source)
        if m < 3 or m > source.trunc:
            raise PreconditionError("degree out of range for this germ")
        for d in range(3, m):
            # the degree-d imaginary part vanishes exactly when R_d is real
            if _imaginary_part(source, d).buckets:
                raise PreconditionError(f"germ is not flattened below degree {m} (degree {d})")
        source = _imaginary_part(source, m)
    elif isinstance(source, Series):
        if source.nvars != 2 or not source.is_real() or any(sum(e) != m for e in source.nums):
            raise PreconditionError(f"need a real two-variable series homogeneous of degree {m}")
        source = _packed(source, source.trunc)
    unknowns, _, mat = _normalization_matrix(m)
    # a constraint's parts, (re, im) or (re,), are a prefix of its numerator pair
    pairs = {key: (x, y) for _, terms in source.buckets for key, x, y in terms}
    rhs = [
        -v
        for key, nparts in _constraint_keys(m, source.base)
        for v in pairs.get(key, (0, 0))[:nparts]
    ]
    try:
        sol = solve(mat, rhs)
    except UnderdeterminedSystemError as exc:
        raise ConsistencyError(f"normalization system singular at degree {m}") from exc
    except InconsistentSystemError as exc:
        raise InconsistentSystemError(f"normalization system inconsistent at degree {m}") from exc
    # the matrix columns hold 2^(j + 1) times b's, and the solution den times b's
    coeffs = {}
    for (alpha, j), x, y in zip(unknowns, sol[::2], sol[1::2]):
        re, im = (Fraction(v.numerator << (j + 1), v.denominator * source.den)
                  for v in (x.re, y.re))
        coeffs[alpha, j] = _exact(re, im)
    return KernelPolynomial(m, coeffs)


# -- the condition by elementary integer maps -------------------------------------


# exponent slots of w_i = z_i + zb_i in an exponent (z1, z2, zb1, zb2)
_W_SLOTS = {1: (0, 2), 2: (1, 3)}

# polynomials with integer coefficient vectors, flat: the key
# column * base^4 + e0 + e1 base + e2 base^2 + e3 base^3 packs a column and an
# exponent e (its exponent part is ``series._pack``), for a base above every
# exponent entry the maps produce, so that adding or removing a unit at a
# slot is a key shift that never carries
Family = dict[int, int]


def _family(rows: Iterable[tuple[Exponent, Mapping[int, int]]], base: int) -> Family:
    """The flat family of rows (exponent, {column: value}), each exponent packed once.

    The one builder of families, the inverse of :func:`_regroup`; zero
    values are dropped.
    """
    cut = base**4
    family: Family = {}
    for e, row in rows:
        key = _pack(e, base)
        for k, c in row.items():
            if c:
                family[k * cut + key] = c
    return family


def _regroup(family: Family, base: int) -> dict[Exponent, dict[int, int]]:
    """The family as {exponent: {column: value}}, one row per exponent, each decoded once."""
    cut = base**4
    rows: dict[int, dict[int, int]] = {}
    for key, c in family.items():
        k, e = divmod(key, cut)
        rows.setdefault(e, {})[k] = c
    return {_unpack(key, base, 4): row for key, row in rows.items()}


def _w_sum(terms: tuple[tuple[int, int, Family], ...], base: int) -> Family:
    """The sum of k * w_i * F over (k, i, F): e -> (e + unit_z_i) + (e + unit_zb_i)."""
    acc: Family = {}
    for k, i, family in terms:
        for slot in _W_SLOTS[i]:
            p = base**slot
            for key, c in family.items():
                key += p
                acc[key] = acc.get(key, 0) + k * c
    return {key: c for key, c in acc.items() if c}


def _turn(family: Family, a: int, b: int, base: int, plus: Family | None = None) -> Family:
    """The field w2 d/d(slot a) - w1 d/d(slot b) of a family, plus ``plus``, in one pass.

    D for the slots (a, b) = (0, 1) of z1 and z2, E for (2, 3), those of
    their conjugates.  A term c with entry k at slot a adds k c at its
    exponent less a unit at a and plus one at z2 or at zb2 (w2); with entry
    k at slot b it subtracts k c at its exponent less a unit at b and plus
    one at z1 or at zb1 (w1): four key shifts per term.  The field keeps the
    degree, so the base must exceed the family's degree.
    """
    pa, pb, p2, p3 = base**a, base**b, base**2, base**3
    out: Family = dict(plus) if plus else {}
    get = out.get
    for key, c in family.items():
        k = key // pa % base
        if k:
            low, kc = key - pa, k * c
            out[low + base] = get(low + base, 0) + kc
            out[low + p3] = get(low + p3, 0) + kc
        k = key // pb % base
        if k:
            low, kc = key - pb, k * c
            out[low + 1] = get(low + 1, 0) - kc
            out[low + p2] = get(low + p2, 0) - kc
    return {key: c for key, c in out.items() if c}


def _condition_factor(family: Family, base: int) -> Family:
    """(D^2 + 1) E of each polynomial of a family, in three passes of :func:`_turn`.

    Homogeneous of the family's degree, so the base must exceed that degree.
    """
    phi = _turn(family, 2, 3, base)
    return _turn(_turn(phi, 0, 1, base), 0, 1, base, phi)


def _condition(family: Family, base: int) -> Family:
    """The condition series of each polynomial of a family, as w2 (D^2 + 1) E.

    The maps are integer-linear, so each column of the result is the
    condition of that column's polynomial; a column that vanishes everywhere
    is absent, and an empty result means every polynomial satisfies it.  The
    base must exceed every exponent entry of the result: degree + 2 for a
    family of that degree.
    """
    return _w_sum(((1, 2, _condition_factor(family, base)),), base)


def _satisfies_condition(h: Series | _Packed) -> bool:
    """Whether H satisfies the first-order condition, exactly.

    The condition is w2 (D^2 + 1) E H, and multiplying by w2 is injective,
    so it holds exactly when the factor (D^2 + 1) E H vanishes.  H's integer
    pair (x, y) at each monomial is stored as the one integer x + y 2^K, on
    H's own packed key: the driver's packed H keeps the germ's base T + 1,
    and a series is packed with base h.trunc + 1 (m + 1 for a degree-m
    table's series).  The factor keeps the degree, so every exponent entry
    stays below that base.

    The maps are integer-linear, so each output value is x' + y' 2^K, with
    x' and y' the outputs of the x and the y parts alone.  Write L1 for the
    sum of |x| + |y| over H and m for its top degree.  One pass of ``_turn``
    moves a term with entries k_a, k_b to four keys with weights k_a, k_a,
    k_b, k_b, and k_a + k_b <= m, so it multiplies the L1 norm by at most
    4m; the last pass adds its ``plus`` term, and |x'| <= L1 (4m + 1)^3.
    With K = bit_length(L1 (4m + 1)^3) + 2, every |x'| < 2^(K - 1), so an
    output value is zero exactly when both its parts are, and H satisfies
    the condition exactly when the family's factor is empty.
    """
    if isinstance(h, Series):
        h = _packed(h, h.trunc)
    l1 = sum(abs(x) + abs(y) for _, terms in h.buckets for _, x, y in terms)
    m = max((d for d, _ in h.buckets), default=0)
    shift = (l1 * (4 * m + 1) ** 3).bit_length() + 2
    family: Family = {
        key: x + (y << shift) for _, terms in h.buckets for key, x, y in terms
    }
    return not _condition_factor(family, h.base)


# -- the order-by-order driver -------------------------------------------------------


class FlattenStep(NamedTuple):
    m: int
    kernel: Optional[KernelPolynomial]
    normalized_zero: Optional[bool]
    remainder: Optional[HTable]
    fundamental_ok: bool
    note: str = ""


class FlattenReport(NamedTuple):
    ok: bool
    reached: int
    kernels: dict[int, KernelPolynomial]
    final: Germ
    steps: list[FlattenStep]
    obstruction_degree: Optional[int] = None


def flatten_to_order(germ: Germ, n: int) -> FlattenReport:
    """Iterate the unique kernel solve and shear through degree n.

    Each degree verifies the normalized remainder: zero lets the iteration
    continue, a nonzero remainder (or an unsolvable normalization) stops it
    and is reported as an obstruction certificate.  Each step also records
    whether H satisfies the first-order condition (``_satisfies_condition``).

    R is packed once and stays packed from shear to shear (``Germ.shear``
    returns a germ that holds only its packed R).  Each degree's H = Im R_m
    is read on the integer keys of its bucket (``_imaginary_part``) twice:
    before its solve, which takes that packed H, and after its shear, where
    the remainder vanishes exactly when the packed Im holds no bucket.  Only
    an obstruction degree decodes its H' table (``_unpacked``), once; the
    final germ decodes R once, when it is read.
    """
    _require_parabolic(germ)
    if n > germ.trunc:
        raise PreconditionError("target order exceeds the germ truncation")
    current = germ
    kernels: dict[int, KernelPolynomial] = {}
    steps: list[FlattenStep] = []
    for m in range(3, n + 1):
        # shears of weight >= 3 leave the quadric alone, so it is checked once
        im_part = _imaginary_part(current, m)
        fund_ok = _satisfies_condition(im_part)
        try:
            kern = solve_kernel(im_part, m)
        except InconsistentSystemError as exc:
            h = HTable(m, series_to_table(_unpacked(im_part, 2)))
            steps.append(FlattenStep(m, None, None, h, fund_ok, note=str(exc)))
            return FlattenReport(False, m - 1, kernels, current, steps, obstruction_degree=m)
        current = current.shear(kern)
        kernels[m] = kern
        # the normalized remainder is Im R_m after the shear
        remainder = _imaginary_part(current, m)
        if remainder.buckets:
            table = HTable(m, series_to_table(_unpacked(remainder, 2)))
            steps.append(FlattenStep(m, kern, False, table, fund_ok))
            return FlattenReport(False, m - 1, kernels, current, steps, obstruction_degree=m)
        steps.append(FlattenStep(m, kern, True, None, fund_ok))
    return FlattenReport(True, n, kernels, current, steps)


# -- uniqueness of the normalized solution ----------------------------------------------


def _fundamental_matrix(m: int) -> tuple[tuple[Bracket, ...], list[dict[int, int]]]:
    """The condition on degree-m tables as sparse integer rows.

    Column j is the unit table at ``all_brackets(m)[j]``; each nonzero row
    maps columns to the integer coefficient of one degree-(m + 1) bracket of
    the condition series, rows in bracket order.  The rows come from the
    family of all unit tables at once, one flat packed family with base
    m + 2, carried to the condition w2 (D^2 + 1) E by ``_condition``: three
    passes of the fused field map ``_turn`` and one multiplication by w2
    (``_w_sum``) on packed monomial exponents; this is a third
    implementation of the operators, beside the series arithmetic that
    defines them and the recursions that audit them.  The result is
    regrouped once into one {column: value} row per exponent, and each row's
    exponent is decoded once.  The same field map decides the flattening
    driver's per-degree condition check (``_satisfies_condition``).  The
    build checks itself against the series operators on one dense integer
    table, and a disagreement raises :class:`ConsistencyError`.
    """
    unknowns = all_brackets(m)
    base = m + 2
    units = _family(((exp_from_bracket(*idx), {j: 1}) for j, idx in enumerate(unknowns)), base)
    condition = _regroup(_condition(units, base), base)
    by_bracket = sorted((bracket_from_exp(e), row) for e, row in condition.items())
    # a dense probe table whose entries follow no linear pattern in j
    probe = [pow(3, j, 65521) for j in range(len(unknowns))]
    applied = {e: sum(c * probe[j] for j, c in row.items()) for e, row in condition.items()}
    expected = fundamental_series(phi_psi(dict(zip(unknowns, probe)), m))
    if Series(2, m + 1, applied) != expected:
        raise ConsistencyError(
            f"condition matrix of degree {m} disagrees with the condition series"
        )
    return tuple(unknowns), [row for _, row in by_bracket]


@lru_cache(maxsize=None)
def fundamental_nullspace(m: int) -> tuple[Table, ...]:
    """A deterministic basis of all degree-m tables killed by the condition.

    The basis is certified against the condition rows (see
    :func:`crflat.linalg.certified_nullspace`).
    """
    unknowns, rows = _fundamental_matrix(m)
    kernel = certified_nullspace(rows, len(unknowns), f"the condition of degree {m}")
    return tuple({idx: c for idx, c in zip(unknowns, v) if c} for v in kernel)


def uniqueness_nullspace(m: int) -> tuple[int, list[HTable]]:
    """Kernel of the combined system: first-order condition, reality,
    normalization, and the two vanishing coefficient families.

    H is written in its table coordinates, x = Re H and y = Im H over
    ``all_brackets(m)``.  The condition matrix is integral (this is checked),
    so every constraint splits into one integer row on x and one on y,
    giving two blocks Mx and My:

    * the first-order condition: its rows in both;
    * reality H[idx] = conj H[mirror]: x[idx] - x[mirror] in Mx,
      y[idx] + y[mirror] in My, once per unordered pair;
    * a "zero" constraint or a vanishing-family index: x[idx] in Mx and
      y[idx] in My;
    * a "realpart" constraint: x[idx] in Mx only.

    The kernel is ker Mx (real tables) plus ker My (i times real tables),
    each block's kernel from one :func:`crflat.linalg.certified_nullspace`.
    Full column rank of a block mod a prime certifies its kernel trivial,
    since rank mod p never exceeds the rank over Q; that is the expected
    answer at every degree.  Otherwise the block is eliminated exactly,
    every kernel vector is checked against it, and the exact nullity is
    checked against the bound the modular rank gives.
    """
    if m < 3:
        raise PreconditionError("uniqueness check starts at degree 3")
    unknowns, condition = _fundamental_matrix(m)
    col = {idx: j for j, idx in enumerate(unknowns)}
    blocks = {"re": list(condition), "im": list(condition)}
    for t, s, r, h in unknowns:
        here, there = col[(t, s, r, h)], col[(r, h, t, s)]
        if here < there:
            blocks["re"].append({here: 1, there: -1})
            blocks["im"].append({here: 1, there: 1})
        elif here == there:
            blocks["im"].append({here: 2})
    for con in normalization_system(m):
        for part in con.parts:
            blocks[part].append({col[con.index]: 1})
    families = [(t, 1, m - t - 2, 1) for t in range(m - 1)]
    families += [(t, 0, m - t, 0) for t in range(m + 1)]
    for idx in families:
        for rows in blocks.values():
            rows.append({col[idx]: 1})
    n = len(unknowns)
    tables = []
    for part, name, unit in (("re", "x", ONE), ("im", "y", I)):
        kernel = certified_nullspace(blocks[part], n, f"the {name} block of degree {m}")
        tables += [HTable(m, {idx: unit * c for idx, c in zip(unknowns, v)}) for v in kernel]
    return len(tables), tables


def parity_audit(h: HTable) -> AuditReport:
    """For odd degree: the part odd under z1 -> -z1 must vanish.

    Under the hypotheses that the table satisfies the first-order condition
    and the normalization conditions, its odd part (monomials with s + h
    odd) lies in the kernel of the combined system of
    ``uniqueness_nullspace`` -- the two vanishing families hold automatically
    since those indices have even s + h -- and that kernel is trivial, so the
    odd part must be zero.  Hypothesis failures and surviving odd coefficients
    are both reported as findings, so an injected odd coefficient is always
    caught.
    """
    m = h.m
    if m % 2 == 0:
        return AuditReport(False, skipped="parity audit applies to odd degrees")
    failures = []
    if not check_fundamental(phi_psi(h)).ok:
        failures.append("hypothesis: first-order condition fails for this table")
    for con, _ in constraint_residuals(normalization_system(m), h.coeffs):
        failures.append(f"hypothesis: normalization violated ({con.label})")
    failures.extend(
        f"odd-part coefficient survives at {idx}"
        for idx, _ in h.items()
        if (idx[1] + idx[3]) % 2 == 1
    )
    return AuditReport(not failures, failures)
