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
a cut degree raises instead of dropping terms.  Each is one
``sum_of_products`` call on ``Series`` derivatives.  Bracket tables
[t s r h] (the coefficient of z1^s z2^t zb1^h zb2^r) stay in ``HTable``
and where the audits index by bracket shifts; lookups at negative indices
are zero by convention.  In z coordinates the operators
have two independent implementations.  Generic series arithmetic defines
them, and ``flatten``'s check on the degree where it stops and the check of
each table of the condition kernel's basis (``fundamental_nullspace``) use
it.  The recursions (coefficient shifts, alternating-sum transforms and
their identities) exist only as audit code paths, in ``crflat.audits``,
which forces them to agree with the series.  Write w_i = z_i + zb_i,
D = w2 d/dz1 - w1 d/dz2 and E = w2 d/dzb1 - w1 d/dzb2, so that Phi = E H
and Psi = w2 D Phi + w1 Phi.
D is a derivation with D w1 = w2 and D w2 = -w1, so

    D Psi = (D w2) D Phi + w2 D^2 Phi + (D w1) Phi + w1 D Phi
          = -w1 D Phi + w2 D^2 Phi + w2 Phi + w1 D Phi
          = w2 (D^2 + 1) E H,

and since multiplying by w2 is injective, H satisfies the condition exactly
when the factor (D^2 + 1) E H vanishes.  The factor is computed only in
rotation coordinates, below.

In rotation coordinates the factor is block-diagonal.  Write v_i = z_i - zb_i,
omega = w1 + i w2, sigma = w1 - i w2, nu = v1 + i v2 and nu' = v1 - i v2.
D and E are derivations, fixed by their values on these four generators:
D sends omega and nu to -i omega, sigma and nu' to i sigma; E sends omega to
-i omega, sigma to i sigma, nu to i omega and nu' to -i sigma.  So
D = i (R + S) and E = i (R - S), where R multiplies
omega^a nu^c sigma^b nu'^d by b - a and S = sigma d/dnu' - omega d/dnu, and
the factor is i G with the integer operator G = (1 - (R + S)^2)(R - S).  G
keeps p = a + c and m - p = b + d, so on degree m it splits into m + 1
blocks on the grid (a, b), of sizes (p + 1)(m - p + 1).  Swapping
(omega, nu) with (sigma, nu') sends R and S to -R and -S, and block p to
block m - p, which therefore has the same rank.  In a block, R keeps the
grade a + b and S raises it, so G is triangular with diagonal
(b - a)(1 - (b - a)^2), zero only at the resonant points |a - b| <= 1.

``fundamental_nullspace`` and ``uniqueness_nullspace`` certify their
kernels there, on the shear image, by one shared certificate
(``_certify_condition_kernel``): the maps are tied to D and E on every call
(D and E of the four generators, by series arithmetic, equal i (R + S) and
i (R - S) of them, which proves the identity, a derivation being fixed by
its values on generators), (a) G kills every shear polynomial, and (c) the
blocks' nullities mod p bound the condition's.  The first adds (b), the
independence of the shear polynomials, and reduces their parts to the
condition kernel's basis; the second takes (b) from the full column rank
of one small matrix on the shear parameters.  In full:

* (a) G kills each shear polynomial c_k = z^alpha (2 q2)^j of
  ``kernel_unknowns(m)``, each conjugate and, at even m, (2 q2)^(m/2), by
  the Leibniz rule: R - S kills omega + nu = 2 (z1 + i z2), sigma + nu' and
  omega sigma = 2 q2, and R + S kills omega - nu, sigma - nu' and
  omega sigma, while D^2 = -1 on w1 and w2;
* (b) those 2 |K| + [m even] polynomials are independent;
* (c) the nullities of the blocks mod p sum to at most 2 |K| + [m even].

So the condition kernel is their span.  The matrices on the shear
parameters read the coefficients of the c_k from one closed form
(``_shear_coefficients``), checked on one dense probe by packed series
arithmetic; the normalization system of ``solve_kernel`` is the same
construction on its own rows.  The blocks need no probe: the tie
certifies the maps.

A degree ``flatten`` solves needs no evaluation.  R vanishes to order 2 and
R_2 = q2 (``_require_parabolic``), so the degree-m part of R sheared by B
of weight m is R_m + B(z, q2), and a vanishing remainder means
H = -Im B(z, q2), a complex combination of the c_k and their conjugates.
By the tie the factor is i G, and by (a) G kills them, so H satisfies the
condition.  Neither check depends on the degree or the germ, and
``flatten`` runs both once per call; should one fail, every solved degree reads
false.  That R and S act as derivations is structural (``_rotation_map``
scales each term by its own exponents); the CI step "FUNDAMENTAL_OK matches
the series definition at depth" compares the verdicts with ``phi_psi`` and
``check_fundamental``, which do not use the rotation maps.

``linalg.certified_nullspace`` certifies the kernel of the shear parameters
and the independence of the shear polynomials beside the elimination.
``linalg.solve`` factors the normalization rows modulo primes, certifies
the factor in integers and checks every solution.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

from .errors import (
    ConsistencyError,
    InconsistentSystemError,
    PreconditionError,
    UnderdeterminedSystemError,
)
from .germ import Germ, KernelPolynomial, parabolic_pair
from .linalg import MODULUS, SparseMatrix, _echelon, certified_nullspace, rank_mod_p, solve
from .numeric import I, GaussianRational, ZERO, _gaussian
from .series import (
    Exponent,
    Series,
    _Packed,
    _pack,
    _packed,
    _packed_diff,
    _packed_im,
    _sum_of_packed,
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


def _check_index(idx: Bracket, m: int) -> None:
    t, s, r, h = idx
    if min(idx) < 0 or t + s + r + h != m:
        raise PreconditionError(f"index {idx} is not homogeneous of degree {m}")


class HTable:
    """Real-valued homogeneous coefficient table of one degree."""

    __slots__ = ("m", "coeffs")

    def __init__(self, m: int, coeffs: Mapping[Bracket, object]):
        self.m = m
        clean: Table = {}
        for idx, c in coeffs.items():
            _check_index(idx, m)
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


def _table_and_degree(h: HTable | Mapping[Bracket, object], m: int | None) -> tuple[Table, int]:
    """An HTable's coefficients and degree, or a raw table with its given degree.

    Every index of a raw table must be homogeneous of that degree; its
    values need not be real-valued.
    """
    if isinstance(h, HTable):
        return h.coeffs, h.m
    if m is None:
        raise PreconditionError("raw tables need an explicit degree")
    for idx in h:
        _check_index(idx, m)
    return {k: GaussianRational.coerce(v) for k, v in h.items()}, m


@lru_cache(maxsize=None)
def _linear_forms(m: int) -> tuple[Series, Series, Series, Series]:
    """w1, w2, w2^2 and w2 w1 through degree m + 2, enough for Phi, Psi and the condition."""
    z1, z2, zb1, zb2 = Series.generators(2, m + 2)
    w1, w2 = z1 + zb1, z2 + zb2
    return w1, w2, w2 * w2, w2 * w1


def phi_psi(h: HTable | Mapping[Bracket, object], m: int | None = None) -> PhiPsiTables:
    """Both derived operators, by series arithmetic, exact through m and m + 1."""
    table, m = _table_and_degree(h, m)
    hs = table_to_series(table, m)
    w1, w2, w22, w21 = _linear_forms(m)
    phi = sum_of_products(((1, w2, hs.dzbar(1)), (-1, w1, hs.dzbar(2))), trunc=m)
    terms = ((1, w22, phi.dz(1)), (-1, w21, phi.dz(2)), (1, w1, phi))
    return PhiPsiTables(m, phi, sum_of_products(terms, trunc=m + 1))


def fundamental_series(tables: PhiPsiTables) -> Series:
    """The condition series, certified exact through degree m + 1."""
    psi, m = tables.psi, tables.m
    w1, w2, _, _ = _linear_forms(m)
    return sum_of_products(((1, w2, psi.dz(1)), (-1, w1, psi.dz(2))), trunc=m + 1)


class FundamentalReport(NamedTuple):
    ok: bool
    violations: list[tuple[Bracket, GaussianRational]]


def check_fundamental(tables: PhiPsiTables) -> FundamentalReport:
    """Does (z2+zb2) dPsi/dz1 - (z1+zb1) dPsi/dz2 vanish identically?"""
    f = fundamental_series(tables)
    violations = [(bracket_from_exp(e), c) for e, c in f.items()]
    return FundamentalReport(not violations, violations)


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


def _shear_coefficients(e: Exponent, position: Mapping[tuple[int, int], int]) -> dict[int, int]:
    """{k: c[e]} over the shear polynomials c = z^alpha (2 q2)^j, by closed form.

    ``position`` maps alpha to its column pair k; j is fixed by the degree
    of e = (s, t, h, r), the exponent of z1^s z2^t zb1^h zb2^r.  Since
    2 q2 = w1^2 + w2^2, (2 q2)^j is the sum over i of
    C(j, i) w1^(2i) w2^(2j - 2i), so the coefficient is
    C(j, i) C(2i, s - alpha1) C(2j - 2i, t - alpha2) with 2i = s - alpha1 + h,
    and zero when s - alpha1 + h is odd.
    """
    s, t, h, r = e
    comb = math.comb
    out = {}
    for a1 in range((s + h) % 2, s + 1, 2):
        i2 = s - a1 + h
        for a2 in range((t + r) % 2, t + 1, 2):
            k = position.get((a1, a2))
            if k is not None:
                j2 = i2 + t - a2 + r  # 2j
                out[k] = comb(j2 // 2, i2 // 2) * comb(i2, s - a1) * comb(j2 - i2, t - a2)
    return out


def _shear_matrix(
    m: int, indices: Sequence[tuple[Bracket, tuple[str, ...]]], tau: bool, what: str
) -> SparseMatrix:
    """Integer rows of the parts of 2 H at brackets, H spanned by the shear polynomials.

    H = Im sum b_k c_k (+ tau (2 q2)^(m/2) with ``tau``, at even m), with
    c_k = z^alpha (2 q2)^j over ``kernel_unknowns(m)``.  Since
    Im(b c) = Re b Im c + Im b Re c, columns 2k (Re b_k) and 2k + 1 (Im b_k)
    hold parts of c_k, and tau, the last column, is the Im b column of the
    pinned alpha = 0: tau c = Im(i tau c) for that real c.  At the
    exponent e of a bracket, with mirror e', 2 Re c has the coefficient
    c[e] + c[e'] and 2 Im c the coefficient i (c[e'] - c[e]); so each
    (bracket, part) of ``indices`` gives one row, the "re" row holding
    c_k[e] + c_k[e'] in column 2k + 1 and the "im" row c_k[e'] - c_k[e] in
    column 2k.  The values c_k[e] come from :func:`_shear_coefficients`.

    The rows check themselves on one dense probe of the columns, by packed
    series arithmetic that shares nothing with the closed form:
    sum_j P_j (2 q2)^j by Horner's rule on packed operands, P_j the probe's
    z^alpha terms and 2 q2 = w1 w1 + w2 w2 a series product, and its
    imaginary part (``_packed_im``).  A disagreement raises
    :class:`ConsistencyError` naming ``what``.
    """
    unknowns = kernel_unknowns(m)
    nk = len(unknowns)
    position = {alpha: k for k, (alpha, _j) in enumerate(unknowns)}
    if tau:
        position[0, 0] = nk
    ncols = 2 * nk + tau
    rows = []
    for idx, parts in indices:
        e = exp_from_bracket(*idx)
        here = _shear_coefficients(e, position)
        there = _shear_coefficients(e[2:] + e[:2], position)
        for part in parts:
            sign, shift = (1, 1) if part == "re" else (-1, 0)
            row = {}
            for k in here.keys() | there.keys():
                v = there.get(k, 0) + sign * here.get(k, 0)
                if v:
                    # (2 q2)^(m/2) is real, so tau has "re" entries alone
                    row[2 * k + shift if k < nk else ncols - 1] = v
            rows.append(row)
    # a dense probe b_k = p[2k] + i p[2k + 1], tau = p[-1], that follows no
    # linear pattern in k: the rows applied to it are the parts of 2 H
    probe = [pow(3, c, 65521) for c in range(ncols)]
    base = m + 1
    polys: dict[int, list[tuple[int, int, int]]] = {}
    for (a1, a2), k in position.items():
        pair = (probe[2 * k], probe[2 * k + 1]) if k < nk else (0, probe[-1])
        polys.setdefault((m - a1 - a2) // 2, []).append((_pack((a1, a2, 0, 0), base), *pair))

    def packed(degree: int, terms: list[tuple[int, int, int]]) -> _Packed:
        return _Packed(m, degree, 1, [(degree, terms)] if terms else [], base)

    # 2 q2 enters from degree 2 on; a truncation of 1 holds the generators
    z1, z2, zb1, zb2 = Series.generators(2, max(m, 1))
    w1, w2 = z1 + zb1, z2 + zb2
    two_q2 = _packed(w1 * w1 + w2 * w2, m)
    one = packed(0, [(0, 1, 0)])
    h = packed(m, [])
    for j in range(m // 2, -1, -1):
        h = _sum_of_packed(((1, h, two_q2), (1, packed(m - 2 * j, polys.get(j, [])), one)), m)
    # over 2 den, the pairs of Im H are those of 2 Im H when den is 1
    twice_im = {key: (x, y) for _, terms in _packed_im(h, 2, m).buckets for key, x, y in terms}
    expected = [
        twice_im.get(_pack(exp_from_bracket(*idx), base), (0, 0))[part == "im"]
        for idx, parts in indices
        for part in parts
    ]
    if h.den != 1 or [sum(v * probe[c] for c, v in row.items()) for row in rows] != expected:
        raise ConsistencyError(f"{what} of degree {m} disagrees with the series")
    return SparseMatrix(rows, ncols)


@lru_cache(maxsize=None)
def _normalization_matrix(m: int) -> tuple:
    """The germ-independent part of the degree-m normalization system.

    Returns (unknowns, constraints, matrix), the matrix a sparse integer
    ``linalg.SparseMatrix``.  Unknown k = (alpha, j) is b z^alpha w^j, and
    its columns 2k (Re b) and 2k + 1 (Im b) hold the parts of
    Im(b c_k) for c_k = z^alpha (2 q2)^j; rows are the parts of each
    constraint, in system order (:func:`_shear_matrix`, which checks them).
    Both columns of unknown k are 2^(j + 1) times those of the system in b,
    so a solution of this matrix, times 2^(j + 1), solves that system.
    """
    constraints = normalization_system(m)
    indices = [(con.index, con.parts) for con in constraints]
    matrix = _shear_matrix(m, indices, False, "normalization matrix")
    return tuple(kernel_unknowns(m)), constraints, matrix


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
    den times the system's solution, a real vector: b is made once from
    the integers of its two entries x_n / x_d and y_n / y_d, as
    2^(j + 1) (x_n y_d + i y_n x_d) / (x_d y_d den), which takes the column
    scale and the 1/den of H in one reduction.
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
        xd, yd = x._d, y._d
        coeffs[alpha, j] = _gaussian(
            x._x * yd << (j + 1), y._x * xd << (j + 1), xd * yd * source.den
        )
    return KernelPolynomial(m, coeffs)


# -- the rotation maps R and S, and their certificates ------------------------------


# A monomial omega^a nu^(p - a) sigma^b nu'^(q - b) of the block (p, q) is its
# grid point (a, b), 0 <= a <= p and 0 <= b <= q.  A family of polynomials of
# one block is {(a, b, k): integer coefficient}, k the polynomial's column.
Block = dict[tuple[int, int, int], int]


def _rotation_map(family: Block, p: int, q: int, sign: int) -> Block:
    """R + sign S on each polynomial of a family of the block (p, q).

    R multiplies (a, b) by b - a, and S = sigma d/dnu' - omega d/dnu sends
    it to (q - b) (a, b + 1) - (p - a) (a + 1, b): each term is scaled by its
    own exponents, so both are derivations.  Both keep the block; R keeps
    the grade a + b and S raises it by one.
    """
    out: Block = {}
    get = out.get
    for (a, b, k), c in family.items():
        if a != b:
            out[a, b, k] = get((a, b, k), 0) + (b - a) * c
        if b < q:
            out[a, b + 1, k] = get((a, b + 1, k), 0) + sign * (q - b) * c
        if a < p:
            out[a + 1, b, k] = get((a + 1, b, k), 0) - sign * (p - a) * c
    return {key: c for key, c in out.items() if c}


def _rotation_matches_definition() -> bool:
    """Whether D = i (R + S) and E = i (R - S) on omega, nu, sigma and nu'.

    D = w2 d/dz1 - w1 d/dz2 and E = w2 d/dzb1 - w1 d/dzb2 are evaluated on
    the four generators by generic series arithmetic: the generators are
    built as series, packed once with w1 and w2, and each value is one
    packed sum of products.  The images under the maps are written back in
    z and zb on the generators' integer pairs and compared with the values
    as exact ratios.  A derivation is fixed by its values on generators, so
    the eight equalities prove D = i (R + S) and E = i (R - S) on every
    polynomial.
    """
    z1, z2, zb1, zb2 = Series.generators(2, 1)
    w1, w2, v1, v2 = z1 + zb1, z2 + zb2, z1 - zb1, z2 - zb2
    iw2, iv2 = w2.scale(I), v2.scale(I)
    # (block, grid point, column 0): omega and nu in the block (1, 0), sigma
    # and nu' in the block (0, 1)
    generators = {
        (1, 0, (1, 0, 0)): _packed(w1 + iw2, 1),
        (1, 0, (0, 0, 0)): _packed(v1 + iv2, 1),
        (0, 1, (0, 1, 0)): _packed(w1 - iw2, 1),
        (0, 1, (0, 0, 0)): _packed(v1 - iv2, 1),
    }
    w1, w2 = _packed(w1, 1), _packed(w2, 1)
    # the generators' integer pairs: their denominators are 1
    pairs = {key: [t for _, ts in g.buckets for t in ts] for key, g in generators.items()}
    for (p, q, point), g in generators.items():
        for sign, (a, b) in ((1, (0, 1)), (-1, (2, 3))):
            value = _sum_of_packed(((1, w2, _packed_diff(g, a)), (-1, w1, _packed_diff(g, b))), 1)
            image: dict[int, tuple[int, int]] = {}
            for t, c in _rotation_map({point: 1}, p, q, sign).items():
                for k, x, y in pairs[p, q, t]:  # c i (x + i y) = c (-y + i x)
                    u, v = image.get(k, (0, 0))
                    image[k] = (u - c * y, v + c * x)
            # the value, (x + i y) / value.den, against the integer image
            got = {k: (x, y) for _, ts in value.buckets for k, x, y in ts}
            want = {k: (u * value.den, v * value.den) for k, (u, v) in image.items() if u or v}
            if got != want:
                return False
    return True


def _shear_image_in_kernel() -> bool:
    """Certificate (a): G kills every shear polynomial, checked on G's own maps.

    In rotation coordinates z1 + i z2 = (omega + nu)/2 and
    z1 - i z2 = (sigma + nu')/2, their conjugates are (omega - nu)/2 and
    (sigma - nu')/2, and 2 q2 = omega sigma.  R and S are derivations, so
    by the Leibniz rule:

    * if R - S kills omega + nu, sigma + nu' and omega sigma, it kills
      c_k = z^alpha (2 q2)^j, and so does G;
    * if R + S kills omega - nu, sigma - nu' and omega sigma, (R + S)^2 is 1
      on omega and on sigma, and R - S maps omega - nu into the span of
      omega and sigma - nu' into that of sigma, then (R - S) of
      zb^alpha (2 q2)^j is a sum of g omega and g sigma with (R + S) g = 0,
      which 1 - (R + S)^2 kills.

    (2 q2)^(m/2) is the case alpha = 0.  These facts are the checks; none
    depends on the degree.
    """
    rm = _rotation_map
    for p, q in ((1, 0), (0, 1)):
        top, low = (p, q, 0), (0, 0, 0)  # omega and nu, or sigma and nu'
        if (
            rm({top: 1, low: 1}, p, q, -1)
            or rm({top: 1, low: -1}, p, q, 1)
            or rm({top: 1, low: -1}, p, q, -1).keys() - {top}
            or rm(rm({top: 1}, p, q, 1), p, q, 1) != {top: 1}
        ):
            return False
    return not (rm({(1, 1, 0): 1}, 1, 1, 1) or rm({(1, 1, 0): 1}, 1, 1, -1))


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
    whether H satisfies the first-order condition.  Only the degree where
    the iteration stops evaluates it on H, by its series definition
    (``check_fundamental`` of ``phi_psi``).  A solved degree takes its
    verdict from the tie and (a), run once per call at its first solved
    degree (module docstring).

    R is packed once and stays packed from shear to shear (``Germ.shear``
    returns a germ that holds only its packed R).  Each degree's H = Im R_m
    is read on the integer keys of its bucket (``_imaginary_part``) twice:
    before its solve, which takes that packed H, and after its shear, where
    the remainder vanishes exactly when the packed Im holds no bucket.  Only
    an obstruction degree decodes its H' table and its H (``_unpacked``); the
    final germ decodes R once, when it is read.
    """
    # shears of weight >= 3 leave the quadric alone, so it is checked once
    _require_parabolic(germ)
    if n > germ.trunc:
        raise PreconditionError("target order exceeds the germ truncation")
    current = germ
    kernels: dict[int, KernelPolynomial] = {}
    steps: list[FlattenStep] = []
    certified: Optional[bool] = None
    for m in range(3, n + 1):
        im_part = _imaginary_part(current, m)
        try:
            kern = solve_kernel(im_part, m)
        except InconsistentSystemError as exc:
            h = HTable(m, series_to_table(_unpacked(im_part, 2)))
            fund_ok = check_fundamental(phi_psi(h)).ok
            steps.append(FlattenStep(m, None, None, h, fund_ok, note=str(exc)))
            return FlattenReport(False, m - 1, kernels, current, steps, obstruction_degree=m)
        current = current.shear(kern)
        kernels[m] = kern
        # the normalized remainder is Im R_m after the shear
        remainder = _imaginary_part(current, m)
        if remainder.buckets:
            table = HTable(m, series_to_table(_unpacked(remainder, 2)))
            fund_ok = check_fundamental(phi_psi(series_to_table(_unpacked(im_part, 2)), m)).ok
            steps.append(FlattenStep(m, kern, False, table, fund_ok))
            return FlattenReport(False, m - 1, kernels, current, steps, obstruction_degree=m)
        if certified is None:
            certified = _rotation_matches_definition() and _shear_image_in_kernel()
        steps.append(FlattenStep(m, kern, True, None, certified))
    return FlattenReport(True, n, kernels, current, steps)


# -- the condition and uniqueness kernels, on the shear image -------------------------


def _block_factor(p: int, q: int) -> dict[tuple[int, int], dict[tuple[int, int], int]]:
    """G = (1 - (R + S)^2)(R - S) on the block (p, q): {point: its image}.

    One family of all the block's unit polynomials, point k in column k,
    taken through the three maps at once.
    """
    points = [(a, b) for a in range(p + 1) for b in range(q + 1)]
    rm = _rotation_map
    g = rm({(a, b, k): 1 for k, (a, b) in enumerate(points)}, p, q, -1)
    for key, c in rm(rm(g, p, q, 1), p, q, 1).items():
        g[key] = g.get(key, 0) - c
    images: dict[tuple[int, int], dict[tuple[int, int], int]] = {s: {} for s in points}
    for (a, b, k), c in g.items():
        if c:
            images[points[k]][a, b] = c
    return images


def _block_nullity(p: int, q: int) -> int:
    """The nullity of G on the block (p, q) modulo ``MODULUS``, by its triangular part.

    G sends a grid point s to lambda_s s, lambda_s = (b - a)(1 - (b - a)^2),
    plus points of higher grade.  In grade order the matrix is triangular,
    so its rank is the number of points with lambda_s != 0, whose pivots are
    invertible, plus the rank of the Schur complement on the resonant
    points Z (lambda_s = 0, |a - b| <= 1).  For each z in Z, x with x_z = 1,
    zero on the rest of Z and (G x)_t = 0 at every nonresonant t is solved
    grade by grade, and (G x) on Z is that column of the complement; all of
    Z at once, one vector slot each.  An image term not of higher grade
    breaks the order the solve needs, and raises :class:`ConsistencyError`.
    """
    images = _block_factor(p, q)
    order = sorted(images, key=sum)
    resonant = {s: i for i, s in enumerate(s for s in order if s not in images[s])}
    n = len(resonant)
    acc: dict[tuple[int, int], list[int]] = {}  # G x so far, by point
    for s in order:
        image = images[s]
        if s in resonant:
            x = [0] * n
            x[resonant[s]] = 1
        else:
            v = acc.pop(s, None)
            if v is None:
                continue
            inv = pow(-image[s], -1, MODULUS)
            x = [u * inv % MODULUS for u in v]
        for t, c in image.items():
            if t != s:
                if sum(t) <= sum(s):
                    raise ConsistencyError(f"block ({p}, {q}) of the factor is not triangular")
                v = acc.get(t)
                acc[t] = [c * u for u in x] if v is None else [w + c * u for w, u in zip(v, x)]
    schur = [{i: w for i, w in enumerate(acc.get(t, ())) if w % MODULUS} for t in resonant]
    return n - rank_mod_p(schur)


def _exact_block_nullity(p: int, q: int) -> int:
    """The nullity of G on the block (p, q) over Q, by exact elimination."""
    images = _block_factor(p, q)
    rows: dict[tuple[int, int], dict[int, int]] = {}
    for j, image in enumerate(images.values()):
        for t, c in image.items():
            rows.setdefault(t, {})[j] = c
    return len(images) - len(_echelon(list(rows.values()))[1])


def _reversed_echelon(vectors: list[list], n: int) -> list[list[GaussianRational]]:
    """The basis of the span of ``vectors`` in reduced echelon form, columns reversed.

    Each basis vector ends in a 1 at its own column, where the others are
    zero, and they come in the order of that column.  The form is unique to
    the span, so a kernel gets the basis :func:`crflat.linalg.sparse_nullspace`
    gives it: a 1 at each free column, pivot values before it.
    """
    reduced, _pivots, _scale = _echelon(
        [{n - 1 - j: c for j, c in enumerate(v) if c} for v in vectors]
    )
    basis = []
    for row in reversed(reduced):
        v = [ZERO] * n
        for j, c in row.items():
            v[n - 1 - j] = c
        basis.append(v)
    return basis


def _certify_condition_kernel(m: int, parameters: int) -> None:
    """The checks both kernels share, for ``parameters`` = 2 |K| + [m even]:

    * D = i (R + S) and E = i (R - S) on the generators
      (:func:`_rotation_matches_definition`);
    * (a) G kills each shear polynomial (:func:`_shear_image_in_kernel`);
    * (c) the blocks' nullities mod p sum to at most ``parameters``.
      The block (q, p) is the block (p, q) with each grid point (a, b)
      renamed (b, a) and its entries negated, so only p <= m / 2 is
      ranked.  A block whose modular nullity exceeds its share of the
      shear image is eliminated exactly.

    With (b), the independence of the shear polynomials, the condition's
    kernel is their span.  A check that fails raises :class:`ConsistencyError`.
    """
    if not _rotation_matches_definition():
        raise ConsistencyError(f"rotation coordinates disagree with D and E at degree {m}")
    if not _shear_image_in_kernel():
        raise ConsistencyError(
            f"the condition factor does not kill the shear polynomials of degree {m}"
        )
    nullity = 0
    for p in range(m // 2 + 1):
        q = m - p
        # the shear image's share: the z^alpha (2 q2)^j span the
        # (omega + nu)^u (sigma + nu')^v (omega sigma)^j, of block u + j, their
        # conjugates the same with omega - nu and sigma - nu', and
        # (2 q2)^(m/2) lies in both
        share = 2 * (min(p, q) + 1) - (p == q)
        k = _block_nullity(p, q)
        if k > share:
            k = _exact_block_nullity(p, q)
        nullity += k if p == q else 2 * k
    if nullity > parameters:
        raise ConsistencyError(
            f"the condition of degree {m} has nullity above {parameters} shear parameters"
        )


def _shear_image(m: int) -> SparseMatrix:
    """(b): the rows of the parts of 2 H at every bracket have a trivial kernel.

    H runs over the shear parameters (:func:`_shear_matrix`); rows
    2 j and 2 j + 1 hold the real and imaginary parts at ``all_brackets(m)[j]``.
    """
    everywhere = [(idx, ("re", "im")) for idx in all_brackets(m)]
    image = _shear_matrix(m, everywhere, m % 2 == 0, "shear image")
    if certified_nullspace(image.entries, image.cols, f"the shear image of degree {m}"):
        raise ConsistencyError(f"the shear polynomials of degree {m} are dependent")
    return image


def fundamental_nullspace(m: int) -> tuple[Table, ...]:
    """A deterministic basis of the degree-m condition kernel, each call its own copy."""
    return tuple(dict(table) for table in _fundamental_basis(m))


@lru_cache(maxsize=None)
def _fundamental_basis(m: int) -> tuple[Table, ...]:
    """The condition kernel's basis: the shear image's span.

    By the tie, (a), (b) and (c) the condition's kernel is that span.  It is
    defined over Q, so the real and imaginary parts of the image columns
    span it too, and their reduced echelon form with the columns reversed
    is the basis :func:`crflat.linalg.sparse_nullspace` gives the kernel.
    Each table is checked by the series definition (``check_fundamental`` of
    ``phi_psi``), which shares no code with the rotation maps, and there
    must be one per shear parameter.  Degree 0 gives the constants.
    """
    if m < 0:
        raise PreconditionError("the condition kernel needs a degree of at least 0")
    image = _shear_image(m)
    _certify_condition_kernel(m, image.cols)
    brackets = all_brackets(m)
    columns = range(image.cols)
    parts = [[row.get(c, 0) for row in image.entries[k::2]] for k in (0, 1) for c in columns]
    basis = tuple(
        {idx: c for idx, c in zip(brackets, v) if c}
        for v in _reversed_echelon(parts, len(brackets))
    )
    if len(basis) != image.cols or not all(check_fundamental(phi_psi(t, m)).ok for t in basis):
        raise ConsistencyError(f"the kernel basis of the condition of degree {m} fails its check")
    return basis


def uniqueness_nullspace(m: int) -> int:
    """Dimension of the kernel of the combined system, certified on the shear image.

    The combined system is the first-order condition, reality,
    normalization and the two vanishing coefficient families on tables over
    ``all_brackets(m)``.  The parameter matrix of
    H = Im sum b_k c_k + tau (2 q2)^(m/2) holds the parts of every
    normalization constraint and of both vanishing families, in
    (Re b_k, Im b_k, tau) (:func:`_shear_matrix`), taken by
    :func:`crflat.linalg.certified_nullspace` after the shared checks.

    By (a) and (c) every real H that satisfies the condition is such an H,
    so full column rank mod p of the parameter matrix certifies the trivial
    kernel, and also (b), the independence of the shear polynomials.
    Otherwise (b) is certified by the rank of all the tables the parameters
    give (:func:`_shear_image`), and the dimension is that of the parameter
    matrix's exact kernel.  A check that fails raises
    :class:`ConsistencyError`.
    """
    if m < 3:
        raise PreconditionError("uniqueness check starts at degree 3")
    indices = [(con.index, con.parts) for con in normalization_system(m)]
    indices += [((t, 1, m - t - 2, 1), ("re", "im")) for t in range(m - 1)]
    indices += [((t, 0, m - t, 0), ("re", "im")) for t in range(m + 1)]
    params = _shear_matrix(m, indices, m % 2 == 0, "shear parameter matrix")
    _certify_condition_kernel(m, params.cols)
    kernel = certified_nullspace(params.entries, params.cols, f"the shear parameters of degree {m}")
    if kernel:
        _shear_image(m)
    return len(kernel)
