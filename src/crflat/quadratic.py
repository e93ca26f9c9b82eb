"""Quadratic-level analysis of a CR singular germ.

The quadratic part of a graph germ w = R(z, zbar) is encoded by a pair of
n x n matrices (A, B): a symmetric A carrying the pure-holomorphic (plus
conjugate) terms and a general B carrying the mixed terms.  A holomorphic
change of coordinates acts on the pair by congruence-with-scaling,

    B  ->  (1/mu) P B conj(P)^t,      A  ->  (1/conj(mu)) P A P^t,

so everything decided here is formulated to be invariant under that action.

Provided decisions and invariants:

* flattenability: can B be scaled to a Hermitian matrix?  Decided by the
  exact criterion  B = lambda * B^dagger  with unimodular lambda, which is
  equivalent to the existence of (P, mu) above and never leaves Q(i).
* a coarse classification of B for n = 2 via the spectrum of the cosquare
  (B^dagger)^{-1} B, plus an exact-shape recognizer for the standard list
  of two-variable normal forms.
* Bishop slice invariants along a direction c, elliptic-direction
  candidates and the linearization of the CR-singular-locus equations.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence

from .errors import ConsistencyError, DegenerateSliceError, PreconditionError
from .linalg import ExactMatrix
from .numeric import HALF, I, ONE, ZERO, GaussianRational, integer_parts, sqrt_fraction, sqrt_gaussian

if TYPE_CHECKING:  # pragma: no cover
    from .germ import Germ


class QuadraticPair:
    """The matrices (A, B) of a quadratic part 2 Re(z A z^t) + z B zbar^t.

    A is symmetrized on construction; only its symmetric part contributes
    to z A z^t.
    """

    __slots__ = ("n", "A", "B")

    def __init__(self, a: ExactMatrix, b: ExactMatrix):
        if a.rows != a.cols or b.rows != b.cols or a.rows != b.rows:
            raise PreconditionError("pair needs two square matrices of equal size")
        self.n = a.rows
        self.A = (a + a.transpose()).scale(HALF)
        self.B = b

    def transform(self, p: ExactMatrix, mu: GaussianRational) -> "QuadraticPair":
        """Apply the congruence-with-scaling action of (P, mu)."""
        mu = GaussianRational.coerce(mu)
        if not mu:
            raise PreconditionError("mu must be nonzero")
        if p.det().is_zero():
            raise PreconditionError("P must be invertible")
        b2 = (p * self.B * p.conj().transpose()).scale(mu.inverse())
        a2 = (p * self.A * p.transpose()).scale(mu.conj().inverse())
        return QuadraticPair(a2, b2)

    def __eq__(self, other):
        if not isinstance(other, QuadraticPair):
            return NotImplemented
        return self.A == other.A and self.B == other.B

    def __repr__(self):
        return f"QuadraticPair(A={self.A.to_literal()}, B={self.B.to_literal()})"


class FlattenabilityVerdict(NamedTuple):
    """Outcome of the lambda-Hermitian test on B.

    When flattenable, ``lam`` is the unimodular scalar with
    B = lam * B^dagger, ``mu_witness`` a Gaussian-rational scaling with
    mu/conj(mu) = lam, and ``hermitian_b`` the Hermitian matrix B / mu.
    """

    flattenable: bool
    lam: Optional[GaussianRational] = None
    mu_witness: Optional[GaussianRational] = None
    hermitian_b: Optional[ExactMatrix] = None


def is_hermitianizable(pair: QuadraticPair) -> FlattenabilityVerdict:
    """Decide whether some (P, mu) makes B Hermitian.

    Scaling by mu multiplies B^dagger-relative phase by mu/conj(mu) and a
    P-congruence preserves the relation B = lambda B^dagger, so the decision
    reduces to finding a unimodular lambda with B = lambda B^dagger.  The
    candidate is forced by the first nonzero entry pair and then verified
    entrywise, all in exact arithmetic.
    """
    b = pair.B
    n = pair.n
    if b.is_zero():
        return FlattenabilityVerdict(True, ONE, ONE, b)
    lam = None
    for i in range(n):
        for j in range(n):
            x = b.at(i, j)
            y = b.at(j, i).conj()
            if x or y:
                if not y:
                    return FlattenabilityVerdict(False)
                lam = x / y
                break
        if lam is not None:
            break
    if lam is None or not lam.is_unimodular():
        return FlattenabilityVerdict(False)
    dag = b.conj_transpose()
    if b != dag.scale(lam):
        return FlattenabilityVerdict(False)
    # mu with mu/conj(mu) = lam always exists in Q(i): 1 + lam works unless
    # lam = -1, where i does.
    if lam == ONE:
        mu = ONE
    elif lam == -ONE:
        mu = I
    else:
        mu = ONE + lam
    return FlattenabilityVerdict(True, lam, mu, b.scale(mu.inverse()))


class CoarseClass(Enum):
    """Coarse class of B for n = 2, labeled by the normal-form family."""

    ZERO = "9"
    RANK1_HERM = "8"
    RANK1_NONHERM = "4"
    HERM_RANK2 = "5/6/7"
    UNIMODULAR_PAIR = "1"
    REAL_RECIPROCAL_PAIR = "2"
    JORDAN = "3"


class CoarseBClass(NamedTuple):
    tag: CoarseClass
    cosquare_spectrum: str


def _spectrum_string(trace: GaussianRational, det: GaussianRational) -> str:
    disc = trace * trace - det * GaussianRational(4)
    root = sqrt_gaussian(disc)
    if root is not None:
        two = GaussianRational(2)
        r1 = (trace + root) / two
        r2 = (trace - root) / two
        lo, hi = sorted([r1, r2], key=lambda g: (g.re, g.im))
        return f"{{{lo}, {hi}}}"
    return f"trace {trace}; det {det}"


def coarse_b_class(pair: QuadraticPair) -> CoarseBClass:
    """Classify B (n = 2 only) by rank, flattenability and cosquare spectrum.

    For invertible, non-Hermitianizable B the cosquare S = (B^dagger)^{-1} B
    has spectrum {r1, r2} defined up to one common unimodular factor, so the
    rotation-invariant quantity K = trace(S)^2/det(S) - 2 = r1/r2 + r2/r1
    separates the families without extracting roots: K in [-2, 2) means a
    distinct unimodular pair, K = 2 a defective repeated root, K > 2 a real
    positive reciprocal pair.
    """
    if pair.n != 2:
        raise PreconditionError("coarse classification is for two variables")
    b = pair.B
    rk = b.rank()
    if rk == 0:
        return CoarseBClass(CoarseClass.ZERO, "zero matrix")
    verdict = is_hermitianizable(pair)
    if rk == 1:
        tag = CoarseClass.RANK1_HERM if verdict.flattenable else CoarseClass.RANK1_NONHERM
        return CoarseBClass(tag, "rank 1 (cosquare undefined)")
    if verdict.flattenable:
        return CoarseBClass(
            CoarseClass.HERM_RANK2, f"scalar cosquare {{{verdict.lam}, {verdict.lam}}}"
        )
    s = b.conj_transpose().inverse() * b
    tr = s.at(0, 0) + s.at(1, 1)
    det = s.det()
    spectrum = _spectrum_string(tr, det)
    k = tr * tr / det - GaussianRational(2)
    if not k.is_real():
        raise PreconditionError("matrix is not a graph-germ cosquare")
    if k.re == 2:
        return CoarseBClass(CoarseClass.JORDAN, f"defective; {spectrum}")
    if -2 <= k.re < 2:
        return CoarseBClass(CoarseClass.UNIMODULAR_PAIR, spectrum)
    if k.re > 2:
        return CoarseBClass(CoarseClass.REAL_RECIPROCAL_PAIR, spectrum)
    raise PreconditionError("matrix is not a graph-germ cosquare")


class SliceReport(NamedTuple):
    """Bishop data of the slice z = c*xi.

    The slice quadric w = alpha xi^2 + conj(alpha) xibar^2 + gamma |xi|^2
    normalizes to |xi|^2 + lam (xi^2 + xibar^2) with lam = |alpha| / |gamma|,
    so ellipticity (lam < 1/2) is decided by 4 |alpha|^2 < |gamma|^2 without
    leaving the rationals.
    """

    alpha: GaussianRational
    gamma: GaussianRational
    lambda_sq: Fraction
    elliptic: bool


def bishop_slice(pair: QuadraticPair, c: Sequence) -> SliceReport:
    cc = [GaussianRational.coerce(x) for x in c]
    if len(cc) != pair.n:
        raise PreconditionError("direction length must match the pair size")
    if all(not x for x in cc):
        raise PreconditionError("direction must be nonzero")
    alpha = ZERO
    gamma = ZERO
    for p in range(pair.n):
        for q in range(pair.n):
            if cc[p] and cc[q]:
                alpha = alpha + pair.A.at(p, q) * cc[p] * cc[q]
                gamma = gamma + pair.B.at(p, q) * cc[p] * cc[q].conj()
    if not gamma:
        raise DegenerateSliceError("slice quadric has no |xi|^2 term")
    lam_sq = alpha.abs2() / gamma.abs2()
    return SliceReport(alpha, gamma, lam_sq, 4 * alpha.abs2() < gamma.abs2())


class DirectionCandidate(NamedTuple):
    origin: str
    direction: Optional[tuple[GaussianRational, ...]]
    report: Optional[SliceReport]
    note: str = ""


# -- exact-shape recognizer ----------------------------------------------------
#
# Entrywise match of a 2x2 pair against the standard normal-form list, with
# parameter extraction and the listed side constraints checked exactly.  A
# pair that is not literally in normal form is not recognized (use
# coarse_b_class for congruence-invariant information).


def _pos(x: GaussianRational) -> bool:
    return x.is_real() and x.re > 0


def _nonneg(x: GaussianRational) -> bool:
    return x.is_real() and x.re >= 0


def recognize_pair(pair: QuadraticPair) -> Optional[tuple[str, dict]]:
    """Match (A, B) against the two-variable normal-form shapes.

    Returns (family tag, extracted parameters) or None.  Family tags follow
    the standard enumeration: '1a'..'1c', '2a'..'2f', '3a'..'3c',
    '4a'..'4f', '5', '6a'..'6c', '7a', '7b', '8', '9'.
    """
    if pair.n != 2:
        return None
    a00, a01, a11 = pair.A.at(0, 0), pair.A.at(0, 1), pair.A.at(1, 1)
    b = pair.B
    b00, b01, b10, b11 = b.at(0, 0), b.at(0, 1), b.at(1, 0), b.at(1, 1)

    # family 1: B = diag(1, u) with u unimodular, Im u > 0
    if b00 == ONE and not b01 and not b10 and b11.is_unimodular() and b11.im > 0:
        if _pos(a00) and _pos(a11):
            return "1a", {"a": a00, "b": a01, "d": a11, "u": b11}
        if not a00 and _nonneg(a01) and _nonneg(a11):
            return "1b", {"b": a01, "d": a11, "u": b11}
        if _pos(a00) and _nonneg(a01) and not a11:
            return "1c", {"a": a00, "b": a01, "u": b11}
        return None
    # family 2: B = [[0, 1], [tau, 0]] with 0 < tau < 1
    if not b00 and b01 == ONE and not b11 and b10.is_real() and 0 < b10.re < 1:
        tau = b10
        if _pos(a01) and a00.abs2() == Fraction(1, 4):
            return "2a", {"a": a00, "b": a01, "d": a11, "tau": tau}
        if not a00 and _pos(a01) and a11.abs2() == Fraction(1, 4):
            return "2b", {"b": a01, "d": a11, "tau": tau}
        if not a00 and _pos(a01) and not a11:
            return "2c", {"b": a01, "tau": tau}
        if a00 == HALF and not a01:
            return "2d", {"d": a11, "tau": tau}
        if not a00 and not a01 and a11 == HALF:
            return "2e", {"tau": tau}
        if not a00 and not a01 and not a11:
            return "2f", {"tau": tau}
        return None
    # family 3: B = [[0, 1], [1, i]]
    if not b00 and b01 == ONE and b10 == ONE and b11 == I:
        if _pos(a00) and a01.is_real():
            return "3a", {"a": a00, "b": a01, "d": a11}
        if not a00 and _pos(a01) and a11.is_real():
            return "3b", {"b": a01, "d": a11}
        if not a00 and not a01 and _nonneg(a11):
            return "3c", {"d": a11}
        return None
    # family 4: B = [[0, 1], [0, 0]]
    if not b00 and b01 == ONE and not b10 and not b11:
        if _pos(a01) and a11 == HALF:
            return "4a", {"a": a00, "b": a01}
        if a00 == HALF and _pos(a01) and not a11:
            return "4b", {"b": a01}
        if not a00 and _pos(a01) and not a11:
            return "4c", {"b": a01}
        if _nonneg(a00) and not a01 and a11 == HALF:
            return "4d", {"a": a00}
        if a00 == HALF and not a01 and not a11:
            return "4e", {}
        if not a00 and not a01 and not a11:
            return "4f", {}
        return None
    # families 5-7: Hermitian normal shapes
    if b00 == ONE and not b01 and not b10 and b11 == ONE:
        if not a01 and _nonneg(a00) and _nonneg(a11) and a00.re <= a11.re:
            return "5", {"lambda1": a00, "lambda2": a11}
        return None
    if b00 == ONE and not b01 and not b10 and b11 == -ONE:
        if not a01 and _nonneg(a00) and _nonneg(a11) and a00.re <= a11.re:
            return "6a", {"lambda1": a00, "lambda2": a11}
        if not a00 and not a11 and _pos(a01):
            return "6b", {"lambda": a01}
        if a00 == HALF and a01 == HALF and a11 == HALF:
            return "6c", {}
        return None
    if not b00 and b01 == ONE and b10 == ONE and not b11:
        if not a00 and _pos(a01) and a11 == HALF:
            return "7a", {"b": a01}
        if a00 == HALF and not a01 and a11.im > 0:
            return "7b", {"d": a11}
        return None
    if b00 == ONE and not b01 and not b10 and not b11:
        return "8", {}
    if b.is_zero():
        return "9", {}
    return None


def _try_slice(pair, c):
    try:
        return bishop_slice(pair, c)
    except DegenerateSliceError:
        return None


def _recipe_candidates(pair: QuadraticPair) -> list[DirectionCandidate]:
    rec = recognize_pair(pair)
    if rec is None:
        return []
    case, params = rec
    out: list[DirectionCandidate] = []

    def emit(tagged, c, note=""):
        out.append(DirectionCandidate(f"recipe:{tagged}", tuple(c), _try_slice(pair, c), note))

    if case == "5":
        l1, l2 = params["lambda1"], params["lambda2"]
        if l1 == l2:
            emit("5", (ONE, I))
        else:
            # for unequal invariants the listed direction is (l2, i*l1);
            # it is verified, not trusted: the slice invariant
            # l1*l2*(l2-l1)/(l1^2+l2^2) can reach 1/2 for spread-out values.
            emit("5", (l2, I * l1), note="verify-required")
    elif case == "6a":
        l1, l2 = params["lambda1"], params["lambda2"]
        if l1.re < Fraction(1, 2):
            emit("6a", (ONE, ZERO))
        elif l1 != l2:
            rho = sqrt_fraction(l1.re / l2.re)
            if rho is None:
                out.append(
                    DirectionCandidate(
                        "recipe:6a", None, None, "irrational candidate (1, i sqrt(l1/l2))"
                    )
                )
            else:
                emit("6a", (ONE, GaussianRational(0, rho)))
    elif case == "6b":
        emit("6b", (ONE, ZERO))
    elif case == "6c":
        # any (1, -1+eps) with 0 < eps < 1 works; fix eps = 1/4
        emit("6c", (ONE, GaussianRational(Fraction(-3, 4))))
    elif case == "7a":
        b = params["b"]
        emit("7a", (ONE, -GaussianRational(4) * b))
    elif case == "7b":
        d = params["d"]
        csq = -(GaussianRational(2) * d).inverse()
        croot = sqrt_gaussian(csq)
        if croot is None:
            out.append(
                DirectionCandidate(
                    "recipe:7b", None, None, "irrational candidate (1, C) with 1/2 + d C^2 = 0"
                )
            )
        else:
            emit("7b", (ONE, croot))
    return out


@lru_cache(maxsize=8)
def _search_grid(bound: int) -> tuple[Fraction, ...]:
    """The sorted values p/q with |p| <= bound and 1 <= q <= bound, built once per bound."""
    vals = {Fraction(p, q) for q in range(1, bound + 1) for p in range(-bound, bound + 1)}
    return tuple(sorted(vals))


@lru_cache(maxsize=8)
def _grid_powers(bound: int) -> tuple[tuple[int, int, int, int, int], ...]:
    """(p, q, q^2, q^3, q^4) for each value p/q of ``_search_grid(bound)``, in its order."""
    return tuple(
        (y.numerator, y.denominator, y.denominator**2, y.denominator**3, y.denominator**4)
        for y in _search_grid(bound)
    )


def _abs2(terms) -> list[list[int]]:
    """Integer coefficients of |P|^2 for real x, y, that of x^j y^k at [k][j].

    P is the sum of (re + i im) x^j y^k over the terms (j, k, re, im).
    """
    out = [[0] * 5 for _ in range(5)]
    for j, k, re, im in terms:
        for j2, k2, re2, im2 in terms:
            out[k + k2][j + j2] += re * re2 + im * im2
    return out


def _pair_quartic(pair: QuadraticPair) -> list[list[int]]:
    """Integers C[k][j] with sum C[k][j] x^j y^k = D^2 (4|alpha|^2 - |gamma|^2).

    alpha and gamma are the slice coefficients along c = (1, x + i y) and
    D > 0 is the lcm of the denominators of A and B.  With s = A01 + A10,
    alpha = A00 + s x + i s y + A11 (x^2 - y^2) + 2 i A11 x y and
    gamma = B00 + (B01 + B10) x + i (B10 - B01) y + B11 (x^2 + y^2).
    """
    _d, re, im = integer_parts(m.at(p, q) for m in (pair.A, pair.B) for p in (0, 1) for q in (0, 1))
    a00, a01, a10, a11, b00, b01, b10, b11 = zip(re, im)
    sr, si = a01[0] + a10[0], a01[1] + a10[1]
    tr, ti = a11
    alpha = _abs2([
        (0, 0, *a00), (1, 0, sr, si), (0, 1, -si, sr),
        (2, 0, tr, ti), (0, 2, -tr, -ti), (1, 1, -2 * ti, 2 * tr),
    ])
    dr, di = b10[0] - b01[0], b10[1] - b01[1]
    gamma = _abs2([
        (0, 0, *b00), (1, 0, b01[0] + b10[0], b01[1] + b10[1]), (0, 1, -di, dr),
        (2, 0, *b11), (0, 2, *b11),
    ])
    return [[4 * u - v for u, v in zip(ra, rg)] for ra, rg in zip(alpha, gamma)]


def _first_grid_hit(pair: QuadraticPair, bound: int) -> Optional[tuple[Fraction, Fraction]]:
    """The first grid point (x, y), row by row, where 4|alpha|^2 - |gamma|^2 < 0.

    Row x = u/v reads the quartic f0 + f1 y + ... + f4 y^4, with
    f_k = sum_j C[k][j] u^j v^(4-j) = v^4 sum_j C[k][j] x^j, from the pair's
    integer coefficients C by Horner; each y = p/q of the row is then the
    sign of sum f_k p^k q^(4-k).  Both scalings are positive, so the signs
    are those of 4|alpha|^2 - |gamma|^2, and only integers are multiplied.
    """
    quartic = _pair_quartic(pair)
    grid, powers = _search_grid(bound), _grid_powers(bound)
    for x, (u, v, v2, v3, v4) in zip(grid, powers):
        f0, f1, f2, f3, f4 = (
            (((c[4] * u + c[3] * v) * u + c[2] * v2) * u + c[1] * v3) * u + c[0] * v4
            for c in quartic
        )
        for y, (p, q, q2, q3, q4) in zip(grid, powers):
            if (((f4 * p + f3 * q) * p + f2 * q2) * p + f1 * q3) * p + f0 * q4 < 0:
                return x, y
    return None


def elliptic_candidates(pair: QuadraticPair, search_bound: int) -> list[DirectionCandidate]:
    """Per-shape candidate directions plus a bounded deterministic search.

    The search normalizes directions to (1, x + i y) with x, y rationals of
    numerator and denominator up to the bound (plus the direction (0, 1)),
    which covers all directions up to complex scaling of the first slot; the
    verdict is scale-invariant.  The first elliptic direction found is
    appended; an empty result means the search exhausted the grid.

    The grid is scanned row by row without a slice per point.  Along
    (1, x + i y), F(x, y) = 4|alpha|^2 - |gamma|^2 is one real polynomial
    of degree at most 4 in each of x and y; its integer coefficients are
    built once per pair (A and B over their common denominator), and each
    row and point is an integer Horner evaluation of a positive multiple of
    F (see ``_first_grid_hit``).  The slice is elliptic exactly when
    F(x, y) < 0: that is the slice test itself, and it implies gamma != 0,
    because gamma = 0 gives F >= 0.  So every verdict and the scan order
    equal those of a slice per point.  The sorted grid and its powers are
    built once per bound and process.  The first hit is re-checked with
    ``bishop_slice``, whose report is the one appended; a hit that the
    slice does not confirm raises ``ConsistencyError``.
    """
    if pair.n != 2:
        raise PreconditionError("candidate search is for two variables")
    out = _recipe_candidates(pair)
    hit = _first_grid_hit(pair, search_bound)
    if hit is not None:
        c = (ONE, GaussianRational(*hit))
        rep = _try_slice(pair, c)
        if rep is None or not rep.elliptic:
            raise ConsistencyError(
                f"grid direction ({', '.join(map(str, c))}) has a negative quartic "
                "but its slice is not elliptic"
            )
        out.append(DirectionCandidate("search", c, rep))
    else:
        rep = _try_slice(pair, (ZERO, ONE))
        if rep is not None and rep.elliptic:
            out.append(DirectionCandidate("search", (ZERO, ONE), rep))
    return out


class LinearizationReport(NamedTuple):
    """Linearized CR-singular-locus equations and the implied dimension bound."""

    matrix: ExactMatrix
    rank: int
    dim_bound: int


def cr_singular_linearization(germ: "Germ") -> LinearizationReport:
    """Linear parts of dR/dzb1, dR/dzb2, d(conj R)/dz1, d(conj R)/dz2.

    Columns are ordered (z1, zb1, z2, zb2).  The CR singular locus is cut
    out by these four real-analytic equations, so its real dimension near
    the origin is at most 4 - rank.

    Each entry is read from one degree-2 coefficient of R, in the germ's
    quadratic part (``Germ.quadratic_part``): the linear part
    of dR/dzb_k at a variable v is the coefficient of zb_k v, times 2 when
    v = zb_k (the derivative of zb_k^2).  conj R holds conj(c) at the
    mirror exponent of each term c of R, z and zb swapped, so its rows read
    R at the mirror exponents, conjugated.
    """
    if germ.n != 2:
        raise PreconditionError("linearization is for two variables")
    r = germ.quadratic_part()
    # exponent slots (z1, z2, zb1, zb2) of the columns (z1, zb1, z2, zb2)
    col_slots = (0, 2, 1, 3)
    rows = []
    # the slot of each row's derivative variable, and whether the row reads conj R
    for slot, conjugate in ((2, False), (3, False), (0, True), (1, True)):
        row = []
        for col in col_slots:
            e = [0, 0, 0, 0]
            e[slot] += 1
            e[col] += 1
            c = r.coeff(e[2:] + e[:2]).conj() if conjugate else r.coeff(e)
            row.append(c * e[slot])
        rows.append(row)
    m = ExactMatrix.from_rows(rows)
    rk = m.rank()
    return LinearizationReport(m, rk, 4 - rk)
