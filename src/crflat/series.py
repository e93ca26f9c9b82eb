"""Truncated polynomial ring in z_1..z_n and their conjugates over Q(i).

A :class:`Series` stores a finite map from exponents to Gaussian-rational
coefficients together with a truncation order: every arithmetic result is
cut back to the minimum truncation of its operands, so rings of different
precision interoperate safely.

Exponents are tuples of length 2n: the first n slots are the powers of
z_1..z_n, the last n the powers of their conjugates.  For n = 2 the tuple
(s, t, h, r) is the exponent of z1^s z2^t zb1^h zb2^r.  Quite a lot of the
classification literature indexes the same monomial as [t s r h]; the two
helpers :func:`exp_from_bracket` / :func:`bracket_from_exp` are the single
authority for that correspondence.

Term iteration is always sorted in graded lexicographic order (total degree
first, then the exponent tuple), which makes every report built from a
series reproducible byte for byte.

Every product goes through one integer kernel, :func:`sum_of_products`, which
returns a sum k_1 p_1 q_1 + ... + k_r p_r q_r with integer weights k_i;
:meth:`Series.__mul__` is its one-pair call.  For each pair it brings the
kept terms of each operand (degree <= the result truncation) to one common
denominator by :func:`crflat.numeric.integer_parts`, buckets them by degree
and stops a row of buckets once the degrees sum past the truncation.  A
pair's partial products are scaled by k * (D // (den_p * den_q)), D the lcm
over all pairs, and every pair adds into one integer (re, im) accumulator
per exponent.  Each nonzero output term is normalized once, as
``Fraction(x, D)``.  ``Fraction`` normal form makes the result identical to
chaining ``*``, ``+`` and ``-`` termwise in Gaussian-rational arithmetic.

Certified truncation.  By default a result is cut at the least operand
truncation, but a product can be exact further.  Write T_s for the
truncation of s and low(s) for the least degree of a stored term of s
(T_s + 1 when s stores none): every term of the untruncated s missing from
s has degree > T_s, so p * q is exact through min(T_p + low(q), T_q + low(p)).
A caller may ask the kernel for any truncation up to that bound over all
pairs; asking more raises ``PreconditionError``.  Asking less computes
fewer degrees.
"""

from __future__ import annotations

import math
import re
from contextlib import contextmanager
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import ParseError, PreconditionError
from .numeric import ZERO, GaussianRational, _exact, integer_parts, parse_rational

Exponent = tuple[int, ...]


def exp_from_bracket(t: int, s: int, r: int, h: int) -> Exponent:
    """Exponent of z1^s z2^t zb1^h zb2^r from a bracket index [t s r h]."""
    return (s, t, h, r)


def bracket_from_exp(e: Exponent) -> tuple[int, int, int, int]:
    """Bracket index [t s r h] of a two-variable exponent (s, t, h, r)."""
    s, t, h, r = e
    return (t, s, r, h)


def _grlex_key(e: Exponent):
    return (sum(e), e)


def _graded_integer_terms(terms: Mapping[Exponent, GaussianRational], trunc: int, base: int):
    """The terms of degree <= trunc as integers over one common denominator D.

    Returns D and the list of (degree, [(key, D * re, D * im), ...]) in
    ascending degree, where key packs the exponent e as sum e_i * base^i.
    """
    kept = [(sum(e), e, c) for e, c in terms.items() if sum(e) <= trunc]
    den, re_nums, im_nums = integer_parts([c for _, _, c in kept])
    buckets: dict[int, list[tuple[int, int, int]]] = {}
    for (d, e, _), re_num, im_num in zip(kept, re_nums, im_nums):
        key = 0
        for k in reversed(e):
            key = key * base + k
        buckets.setdefault(d, []).append((key, re_num, im_num))
    return den, sorted(buckets.items())


class Series:
    """Sparse truncated polynomial in (z, zbar) with exact coefficients."""

    __slots__ = ("nvars", "trunc", "terms")

    def __init__(self, nvars: int, trunc: int, terms: Mapping[Exponent, object] | None = None):
        if nvars < 1:
            raise PreconditionError("need at least one variable")
        if trunc < 0:
            raise PreconditionError("negative truncation")
        self.nvars = nvars
        self.trunc = trunc
        clean: dict[Exponent, GaussianRational] = {}
        if terms:
            width = 2 * nvars
            for e, c in terms.items():
                e = tuple(e)
                if len(e) != width or any(k < 0 for k in e):
                    raise PreconditionError(f"bad exponent {e} for {nvars} variables")
                if sum(e) > trunc:
                    raise PreconditionError(
                        f"exponent {e} exceeds truncation {trunc}"
                    )
                c = GaussianRational.coerce(c)
                if c:
                    clean[e] = c
        self.terms = clean

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def zero(nvars: int, trunc: int) -> "Series":
        return Series(nvars, trunc)

    @staticmethod
    def const(nvars: int, trunc: int, c) -> "Series":
        e = (0,) * (2 * nvars)
        return Series(nvars, trunc, {e: GaussianRational.coerce(c)})

    @staticmethod
    def variable(nvars: int, trunc: int, slot: int) -> "Series":
        """The generator in the given slot: 0..n-1 are z_j, n..2n-1 are zbar_j."""
        if not 0 <= slot < 2 * nvars:
            raise PreconditionError(f"variable slot {slot} out of range")
        e = tuple(1 if k == slot else 0 for k in range(2 * nvars))
        return Series(nvars, trunc, {e: 1})

    @staticmethod
    def generators(nvars: int, trunc: int) -> tuple["Series", ...]:
        """All 2n generators: (z1, .., zn, zb1, .., zbn)."""
        return tuple(Series.variable(nvars, trunc, k) for k in range(2 * nvars))

    def _make(self, terms: dict[Exponent, GaussianRational], trunc: int | None = None) -> "Series":
        s = Series.__new__(Series)
        s.nvars = self.nvars
        s.trunc = self.trunc if trunc is None else trunc
        s.terms = terms
        return s

    # -- inspection ------------------------------------------------------------

    def coeff(self, e: Iterable[int]) -> GaussianRational:
        """Stored coefficient at the exponent, or 0 (also for out-of-range)."""
        return self.terms.get(tuple(e), ZERO)

    def items(self) -> Iterator[tuple[Exponent, GaussianRational]]:
        """Terms in graded-lex order."""
        for e in sorted(self.terms, key=_grlex_key):
            yield e, self.terms[e]

    def is_zero(self) -> bool:
        return not self.terms

    def is_real(self) -> bool:
        """True iff the series equals its own conjugate termwise."""
        n = self.nvars
        for e, c in self.terms.items():
            mirror = e[n:] + e[:n]
            if self.terms.get(mirror, ZERO) != c.conj():
                return False
        return True

    def min_degree(self) -> int:
        return min((sum(e) for e in self.terms), default=0)

    def homogeneous_part(self, d: int) -> "Series":
        return self._make({e: c for e, c in self.terms.items() if sum(e) == d})

    def truncate(self, new_trunc: int) -> "Series":
        """Drop all terms above ``new_trunc`` and lower the truncation."""
        if new_trunc > self.trunc:
            raise PreconditionError("cannot raise truncation")
        if new_trunc < 0:
            raise PreconditionError("negative truncation")
        return self._make(
            {e: c for e, c in self.terms.items() if sum(e) <= new_trunc}, new_trunc
        )

    # -- ring operations --------------------------------------------------------

    def _check_compat(self, other: "Series"):
        if self.nvars != other.nvars:
            raise PreconditionError("variable-count mismatch")

    def __add__(self, other):
        if not isinstance(other, Series):
            return self + Series.const(self.nvars, self.trunc, other)
        self._check_compat(other)
        trunc = min(self.trunc, other.trunc)
        out = {e: c for e, c in self.terms.items() if sum(e) <= trunc}
        for e, c in other.terms.items():
            if sum(e) > trunc:
                continue
            v = out.get(e, ZERO) + c
            if v:
                out[e] = v
            else:
                out.pop(e, None)
        return self._make(out, trunc)

    __radd__ = __add__

    def __neg__(self):
        return self._make({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Series):
            return self - Series.const(self.nvars, self.trunc, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        """Truncated product: the one-pair case of :func:`sum_of_products`."""
        if not isinstance(other, Series):
            return self.scale(other)
        return sum_of_products(((1, self, other),))

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c) -> "Series":
        c = GaussianRational.coerce(c)
        if not c:
            return self._make({})
        return self._make({e: c * v for e, v in self.terms.items()})

    def __pow__(self, k: int) -> "Series":
        if not isinstance(k, int) or k < 0:
            raise PreconditionError("series power needs a nonnegative integer")
        r = Series.const(self.nvars, self.trunc, 1)
        for _ in range(k):
            r = r * self
        return r

    # -- conjugation and derivatives ---------------------------------------------

    def conj(self) -> "Series":
        """Swap each z_j power with the zbar_j power and conjugate coefficients."""
        n = self.nvars
        return self._make(
            {e[n:] + e[:n]: c.conj() for e, c in self.terms.items()}
        )

    def re_im(self) -> tuple["Series", "Series"]:
        """Real and imaginary parts ((S + conj S)/2, (S - conj S)/(2i)), both real.

        One pass: the term c at e and the term d at the mirror exponent give
        Re = ((c.re + d.re)/2, (c.im - d.im)/2) and
        Im = ((c.im + d.im)/2, (d.re - c.re)/2) at e.  A term whose mirror is
        absent also writes its conjugates at the mirror.
        """
        n = self.nvars
        terms = self.terms
        re: dict[Exponent, GaussianRational] = {}
        im: dict[Exponent, GaussianRational] = {}
        for e, c in terms.items():
            mirror = e[n:] + e[:n]
            d = terms.get(mirror)
            if d is None:
                x, y = c.re / 2, c.im / 2
                re[mirror] = _exact(x, -y)
                im[mirror] = _exact(y, x)
                re[e] = _exact(x, y)
                im[e] = _exact(y, -x)
                continue
            part = _exact((c.re + d.re) / 2, (c.im - d.im) / 2)
            if part:
                re[e] = part
            part = _exact((c.im + d.im) / 2, (d.re - c.re) / 2)
            if part:
                im[e] = part
        return self._make(re), self._make(im)

    def diff(self, slot: int) -> "Series":
        """Formal partial derivative with respect to a variable slot.

        Slots 0..n-1 are z_1..z_n, slots n..2n-1 their conjugates.  The
        truncation drops by one degree.
        """
        if not 0 <= slot < 2 * self.nvars:
            raise PreconditionError(f"unknown variable slot {slot}")
        out: dict[Exponent, GaussianRational] = {}
        for e, c in self.terms.items():
            k = e[slot]
            if k:
                e2 = e[:slot] + (k - 1,) + e[slot + 1 :]
                out[e2] = c if k == 1 else c * k
        return self._make(out, max(self.trunc - 1, 0))

    def dz(self, j: int) -> "Series":
        """d/dz_j with 1-based j, matching the usual subscript notation."""
        if not 1 <= j <= self.nvars:
            raise PreconditionError(f"variable index {j} out of range")
        return self.diff(j - 1)

    def dzbar(self, j: int) -> "Series":
        """d/dzbar_j with 1-based j."""
        if not 1 <= j <= self.nvars:
            raise PreconditionError(f"variable index {j} out of range")
        return self.diff(self.nvars + j - 1)

    # -- equality / display ------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        # truncation is bookkeeping, not value: compare stored terms only
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, tuple(sorted(self.terms.items(), key=lambda kv: _grlex_key(kv[0])))))

    def _monomial_str(self, e: Exponent) -> str:
        n = self.nvars
        parts = []
        for j in range(n):
            if e[j]:
                parts.append(f"z{j + 1}" + (f"^{e[j]}" if e[j] > 1 else ""))
        for j in range(n):
            if e[n + j]:
                parts.append(f"zb{j + 1}" + (f"^{e[n + j]}" if e[n + j] > 1 else ""))
        return "*".join(parts) if parts else "1"

    def __str__(self):
        if not self.terms:
            return "0"
        return " + ".join(
            f"({c})*{self._monomial_str(e)}" for e, c in self.items()
        )

    def __repr__(self):
        return f"Series(n={self.nvars}, trunc={self.trunc}, {self})"


_FRACTION_ZERO = Fraction(0)


def _low(s: Series) -> int:
    """Least degree of a stored term, or T + 1 when the series stores none."""
    return min((sum(e) for e in s.terms), default=s.trunc + 1)


def sum_of_products(
    terms: Sequence[tuple[int, Series, Series]], *, trunc: int | None = None
) -> Series:
    """The truncated sum of k * p * q over (k, p, q) with integer weights k.

    With ``trunc=None`` the truncation is the least over all operands.  A
    lower ``trunc`` only computes fewer degrees.  A higher one must be
    certified by every pair: trunc <= min(T_p + low(q), T_q + low(p)), where
    T is an operand's truncation and low the least degree of its stored
    terms (T + 1 when it stores none); otherwise ``PreconditionError``.

    Each pair's operands come to their own common denominators and go
    through the graded integer loop; its partial products are scaled by
    k * (D // (den_p * den_q)), D the lcm over all pairs, and added into one
    integer (re, im) accumulator per exponent.  Each nonzero output term is
    normalized once, as ``Fraction(x, D)``.
    """
    if not terms:
        raise PreconditionError("a sum of products needs at least one pair")
    first = terms[0][1]
    least = first.trunc
    for _, p, q in terms:
        first._check_compat(p)
        first._check_compat(q)
        least = min(least, p.trunc, q.trunc)
    if trunc is None:
        trunc = least
    elif trunc < 0:
        raise PreconditionError("negative truncation")
    elif trunc > least:
        bound = min(min(p.trunc + _low(q), q.trunc + _low(p)) for _, p, q in terms)
        if trunc > bound:
            raise PreconditionError(
                f"truncation {trunc} exceeds the certified product truncation {bound}"
            )
    base = trunc + 1
    pairs = []
    for k, p, q in terms:
        if k:
            den_p, left = _graded_integer_terms(p.terms, trunc, base)
            den_q, right = _graded_integer_terms(q.terms, trunc, base)
            if left and right:
                pairs.append((k, den_p * den_q, left, right))
    den = math.lcm(*(pair_den for _, pair_den, _, _ in pairs))
    acc: dict[int, list[int]] = {}
    for k, pair_den, left, right in pairs:
        scale = k * (den // pair_den)
        if scale != 1:
            left = [(d1, [(k1, a * scale, b * scale) for k1, a, b in terms1])
                    for d1, terms1 in left]
        for d1, terms1 in left:
            for d2, terms2 in right:
                if d1 + d2 > trunc:
                    break
                for k1, a, b in terms1:
                    for k2, c, d in terms2:
                        pair = acc.get(k1 + k2)
                        if pair is None:
                            acc[k1 + k2] = [a * c - b * d, a * d + b * c]
                        else:
                            pair[0] += a * c - b * d
                            pair[1] += a * d + b * c
    width = 2 * first.nvars
    out: dict[Exponent, GaussianRational] = {}
    for key, (x, y) in acc.items():
        if x or y:
            e = []
            for _ in range(width):
                key, power = divmod(key, base)
                e.append(power)
            out[tuple(e)] = _exact(
                Fraction(x, den) if x else _FRACTION_ZERO,
                Fraction(y, den) if y else _FRACTION_ZERO,
            )
    return first._make(out, trunc)


def subst_w(
    template: Mapping[tuple[Exponent, int], object],
    value: Series,
) -> Series:
    """Evaluate a polynomial in (z, zbar, w) at w = ``value``.

    ``template`` maps (exponent, w-power) to a coefficient.  The terms of each
    w-power j form a polynomial P_j(z, zbar), and the result is the sum of
    P_j * value^j at the truncation T of ``value``.  The substituted series must
    have zero constant term, otherwise the truncation grading would be
    destroyed.

    Each power is formed only through the degree it is read at: value^j
    through reach_j = max(T - low(P_j), reach_{j+1} - low(value), 0), which
    its own product and the next power need, and each product certifies
    the truncation it is asked for (see :func:`sum_of_products`).
    """
    if value.coeff((0,) * (2 * value.nvars)):
        raise PreconditionError("substituted series must have zero constant term")
    parts: dict[int, dict[Exponent, GaussianRational]] = {}
    for (e, j), c in template.items():
        if j < 0:
            raise PreconditionError("negative w-power in template")
        c = GaussianRational.coerce(c)
        if c and sum(e) <= value.trunc:
            parts.setdefault(j, {})[tuple(e)] = c
    if not parts:
        return Series.zero(value.nvars, value.trunc)
    trunc = value.trunc
    polys = {j: Series(value.nvars, trunc, terms) for j, terms in parts.items()}
    step = _low(value)
    reach = [0] * (max(polys) + 1)
    need = 0
    for j in reversed(range(len(reach))):
        if j in polys:
            need = max(need, trunc - _low(polys[j]))
        reach[j] = need
        need = max(need - step, 0)
    products = []
    power = Series.const(value.nvars, reach[0], 1)
    for j, upto in enumerate(reach):
        if j:
            power = sum_of_products(((1, power, value),), trunc=upto)
        if j in polys:
            products.append((1, polys[j], power))
    return sum_of_products(products, trunc=trunc)


# -- file formats ----------------------------------------------------------------
#
# Every crflat file is a list of lines; '#' starts a comment and blank lines
# are ignored.  A line ``name <integer>`` sets a header, which each format
# requires exactly once.  Every other line is a term line: integers (the 2n
# exponents of a series, ``a1 a2 j`` in a kernel file) followed by the real and
# imaginary parts of the coefficient as rational literals.  For n = 2 the
# exponent columns are ``s t h r`` (powers of z1 z2 zb1 zb2).  Term order is
# irrelevant and duplicate exponents are an error.  A field file also groups
# its term lines under ``coef <label>`` lines, each label at most once.

_NATURAL = re.compile(r"[0-9]+")

Row = tuple[int, list[str]]


def _natural(token: str, lineno: int) -> int:
    try:
        if _NATURAL.fullmatch(token):
            return int(token)
    except ValueError:  # longer than the interpreter's integer-string limit
        pass
    raise ParseError(f"line {lineno}: expected a nonnegative integer, got {token!r}")


def read_records(
    text: str, headers: Sequence[str], blocks: Sequence[str] = ()
) -> tuple[tuple[int, ...], dict[str | None, list[Row]]]:
    """Split file text into header values and term rows.

    Returns the values of ``headers`` in the given order, and the term rows
    (line number, columns) by block label.  Without ``blocks`` every row goes
    under the label None; with them, each row goes under the label of the
    last ``coef`` line before it.
    """
    values: dict[str, int] = {}
    rows: dict[str | None, list[Row]] = {label: [] for label in (None, *blocks)}
    opened: set[str] = set()
    current = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        key = parts[0]
        if key in headers:
            if len(parts) != 2:
                raise ParseError(f"line {lineno}: expected '{key} <nonnegative integer>'")
            if key in values:
                raise ParseError(f"line {lineno}: second '{key}' header")
            values[key] = _natural(parts[1], lineno)
        elif blocks and key == "coef":
            if len(parts) != 2 or parts[1] not in blocks:
                raise ParseError(f"line {lineno}: expected 'coef' and one of {', '.join(blocks)}")
            if parts[1] in opened:
                raise ParseError(f"line {lineno}: second 'coef {parts[1]}' block")
            current = parts[1]
            opened.add(current)
        elif blocks and current is None:
            raise ParseError(f"line {lineno}: term line before any 'coef' block")
        else:
            rows[current].append((lineno, parts))
    missing = [h for h in headers if h not in values]
    if missing:
        raise ParseError(f"missing header {', '.join(repr(h) for h in missing)}")
    return tuple(values[h] for h in headers), rows


def parse_terms(rows: Iterable[Row], nints: int) -> dict[tuple[int, ...], GaussianRational]:
    """Term rows of ``nints`` nonnegative integers and two rationals, as a map."""
    terms: dict[tuple[int, ...], GaussianRational] = {}
    for lineno, parts in rows:
        if len(parts) != nints + 2:
            raise ParseError(f"line {lineno}: expected {nints} integers and 2 rationals")
        key = tuple(_natural(p, lineno) for p in parts[:nints])
        if key in terms:
            raise ParseError(f"line {lineno}: duplicate exponent {key}")
        try:
            terms[key] = GaussianRational(parse_rational(parts[nints]), parse_rational(parts[nints + 1]))
        except ParseError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
    return terms


def read_text(path) -> str:
    """The text of a UTF-8 file; unreadable or undecodable files raise ParseError."""
    try:
        with open(path, "rb") as fh:
            return fh.read().decode("utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text (byte {exc.start})") from exc


@contextmanager
def content_errors():
    """Report a PreconditionError raised while building file content as a ParseError."""
    try:
        yield
    except PreconditionError as exc:
        raise ParseError(str(exc)) from exc


def format_term_lines(series: Series) -> list[str]:
    out = []
    for e, c in series.items():
        cols = [str(k) for k in e] + [str(c.re), str(c.im)]
        out.append(" ".join(cols))
    return out


def loads_series(text: str) -> Series:
    """Parse a standalone series file: ``vars n`` / ``order N`` / term lines."""
    (nvars, order), rows = read_records(text, ("vars", "order"))
    with content_errors():
        return Series(nvars, order, parse_terms(rows[None], 2 * nvars))


def dumps_series(series: Series) -> str:
    lines = [f"vars {series.nvars}", f"order {series.trunc}"]
    lines.extend(format_term_lines(series))
    return "\n".join(lines) + "\n"


def load_series(path) -> Series:
    return loads_series(read_text(path))
