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

A series stores one positive denominator ``den`` and ``nums``, integer
pairs (re, im) by exponent: the coefficient at e is (re + i im) / den.  No
(0, 0) pair is stored, and ``den`` is canonical (its gcd with all the
numerators is 1), so two series are equal exactly when their ``den`` and
``nums`` are.  The constructor lifts its coefficients once, by
:func:`crflat.numeric.integer_parts`; every operation works on integers and
brings its result to the canonical denominator.  ``coeff``, ``items`` and
the read-only ``terms`` view build ``GaussianRational`` values on demand.

Every product runs on packed operands: the integer pairs of degree <= the
result truncation T, each exponent packed into one integer key in a base
above T and bucketed by degree, so that a row of buckets stops once the
degrees sum past T.  :func:`sum_of_products` returns a sum
k_1 p_1 q_1 + ... + k_r p_r q_r with integer weights k_i;
:meth:`Series.__mul__` is its one-pair call.  It packs its operands with
base T + 1, and its packed core :func:`_sum_of_packed` scales a pair's
partial products by k * (D // (den_p * den_q)), D the lcm over all pairs,
and adds them into one integer (re, im) accumulator per exponent: the
result over D, returned packed and decoded once.  :func:`_packed_diff` and
:func:`_packed_conj` differentiate and conjugate packed keys, so a caller
holding packed operands (the obstruction chain of ``crflat.crfields``)
multiplies, differentiates and conjugates without unpacking between steps;
:func:`_packed_im` reads the imaginary part of one degree's bucket on its
keys, as a packed operand of that one bucket (the flattening driver's
per-degree read).
:func:`_subst_packed` forms r + B(z, r), the shear w' = w + B(z, w) at a
packed w = r: it seeds the sum with a copy of r, keeps the powers of r
packed from one product to the next and returns the sum packed, so a
sheared ``Germ`` (it holds its R packed) never unpacks between shears.
:func:`subst_w` is its plain reference, Horner's rule in ``Series``
products and sums.  :func:`_packed` packs with base cut + 1, every packed
operand carries its base to the results formed from it, and
:func:`_unpacked` decodes with the operand's base; a caller that packs
keys itself (:func:`_pack`) passes the base of the operands its keys
meet.

Every term line ``cols... re im``, in the files and in the reports, is
written by :func:`term_line`; :func:`format_term_lines` prints each
coefficient straight from its integer pair over ``den``.  A block of valid
term lines is read in one pass (one ``findall`` of ``numeric.term_pattern``,
one ``int`` per distinct literal, one lcm), which two readers share:
:func:`parse_packed` reads the blocks of germ, series and field files, each
term's degree and packed key formed column by column, and returns the block
packed as :func:`_packed` packs its series (a germ keeps it packed, and
:func:`_unpacked` decodes it for a series or a field); :func:`parse_pairs`
zips the exponent tuples of kernel rows and keeps their zero-coefficient
keys.  Both read the lines one by one only to name an error.

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
from contextlib import contextmanager
from itertools import chain
from operator import mul
from typing import Iterable, Iterator, Mapping, NamedTuple, NoReturn, Sequence

from .errors import ConsistencyError, ParseError, PreconditionError
from .numeric import (
    GaussianRational,
    _gaussian,
    _ratio_text,
    integer_parts,
    natural,
    rational_parts,
    term_pattern,
)

Exponent = tuple[int, ...]
Pair = tuple[int, int]


def _checked(nvars: int, trunc: int, terms: Mapping[Exponent, object]) -> dict:
    """The terms by exponent tuple, once the shape and every exponent pass the series checks."""
    if nvars < 1:
        raise PreconditionError("need at least one variable")
    if trunc < -1:
        raise PreconditionError("negative truncation")
    width = 2 * nvars
    clean = {}
    for e, c in terms.items():
        e = tuple(e)
        if len(e) != width or min(e) < 0:
            raise PreconditionError(f"bad exponent {e} for {nvars} variables")
        if sum(e) > trunc:
            raise PreconditionError(f"exponent {e} exceeds truncation {trunc}")
        clean[e] = c
    return clean


def exp_from_bracket(t: int, s: int, r: int, h: int) -> Exponent:
    """Exponent of z1^s z2^t zb1^h zb2^r from a bracket index [t s r h]."""
    return (s, t, h, r)


def bracket_from_exp(e: Exponent) -> tuple[int, int, int, int]:
    """Bracket index [t s r h] of a two-variable exponent (s, t, h, r)."""
    s, t, h, r = e
    return (t, s, r, h)


def _grlex_key(e: Exponent):
    return (sum(e), e)


class Series:
    """Sparse truncated polynomial in (z, zbar) with exact coefficients."""

    __slots__ = ("nvars", "trunc", "den", "nums")

    def __init__(self, nvars: int, trunc: int, terms: Mapping[Exponent, object] | None = None):
        clean = _checked(nvars, trunc, terms or {})
        # the lcm of reduced denominators shares no factor with all numerators
        den, re_nums, im_nums = integer_parts(clean.values())
        self.nvars = nvars
        self.trunc = trunc
        self.den = den
        self.nums = {e: (x, y) for e, x, y in zip(clean, re_nums, im_nums) if x or y}

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def zero(nvars: int, trunc: int) -> "Series":
        return Series(nvars, trunc)

    @staticmethod
    def const(nvars: int, trunc: int, c) -> "Series":
        return Series(nvars, trunc, {(0,) * (2 * nvars): c})

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

    @staticmethod
    def _canonical(nvars: int, trunc: int, den: int, nums: dict[Exponent, Pair]) -> "Series":
        """A series from nonzero pairs over ``den``, in lowest terms; nothing is checked."""
        g = math.gcd(den, *chain.from_iterable(nums.values()))
        if g != 1:
            den //= g
            nums = {e: (x // g, y // g) for e, (x, y) in nums.items()}
        s = Series.__new__(Series)
        s.nvars = nvars
        s.trunc = trunc
        s.den = den
        s.nums = nums
        return s

    def _make(self, den: int, nums: dict[Exponent, Pair], trunc: int | None = None) -> "Series":
        """A series in the same variables from nonzero pairs over ``den``, in lowest terms."""
        return Series._canonical(self.nvars, self.trunc if trunc is None else trunc, den, nums)

    # -- inspection ------------------------------------------------------------

    @property
    def terms(self) -> dict[Exponent, GaussianRational]:
        """The stored coefficients as Gaussian rationals, in a new dict."""
        den = self.den
        return {e: _gaussian(x, y, den) for e, (x, y) in self.nums.items()}

    def coeff(self, e: Iterable[int]) -> GaussianRational:
        """Stored coefficient at the exponent, or 0 (also for out-of-range)."""
        return _gaussian(*self.nums.get(tuple(e), (0, 0)), self.den)

    def items(self) -> Iterator[tuple[Exponent, GaussianRational]]:
        """Terms in graded-lex order."""
        for e in sorted(self.nums, key=_grlex_key):
            yield e, _gaussian(*self.nums[e], self.den)

    def is_zero(self) -> bool:
        return not self.nums

    def is_real(self) -> bool:
        """True iff the series equals its own conjugate."""
        return self == self.conj()

    def homogeneous_part(self, d: int) -> "Series":
        return self._make(self.den, {e: p for e, p in self.nums.items() if sum(e) == d})

    # -- ring operations --------------------------------------------------------

    def _check_compat(self, other: "Series"):
        if self.nvars != other.nvars:
            raise PreconditionError("variable-count mismatch")

    def __add__(self, other):
        if not isinstance(other, Series):
            return self + Series.const(self.nvars, self.trunc, other)
        self._check_compat(other)
        trunc = min(self.trunc, other.trunc)
        den = math.lcm(self.den, other.den)
        k = den // self.den
        out = {e: (k * x, k * y) for e, (x, y) in self.nums.items() if sum(e) <= trunc}
        k = den // other.den
        for e, (x, y) in other.nums.items():
            if sum(e) > trunc:
                continue
            u, v = out.get(e, (0, 0))
            u += k * x
            v += k * y
            if u or v:
                out[e] = (u, v)
            else:
                out.pop(e, None)
        return self._make(den, out, trunc)

    __radd__ = __add__

    def __neg__(self):
        return self._make(self.den, {e: (-x, -y) for e, (x, y) in self.nums.items()})

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
        """The series times an exact scalar c = (p + i q) / d."""
        d, (p,), (q,) = integer_parts([c])
        if not (p or q):
            return self._make(1, {})
        return self._make(
            self.den * d, {e: (x * p - y * q, x * q + y * p) for e, (x, y) in self.nums.items()}
        )

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
        return self._make(self.den, {e[n:] + e[:n]: (x, -y) for e, (x, y) in self.nums.items()})

    def re_im(self) -> tuple["Series", "Series"]:
        """Real and imaginary parts ((S + conj S)/2, (S - conj S)/(2i)), both real."""
        c = self.conj()
        return (self + c).scale(_gaussian(1, 0, 2)), (self - c).scale(_gaussian(0, -1, 2))

    def diff(self, slot: int) -> "Series":
        """Formal partial derivative with respect to a variable slot.

        Slots 0..n-1 are z_1..z_n, slots n..2n-1 their conjugates.  The
        truncation drops by one degree: a missing term of degree T + 1
        differentiates into degree T.  So the derivative of a truncation-0
        series has truncation -1, which certifies no degree.
        """
        if not 0 <= slot < 2 * self.nvars:
            raise PreconditionError(f"unknown variable slot {slot}")
        out: dict[Exponent, Pair] = {}
        for e, (x, y) in self.nums.items():
            k = e[slot]
            if k:
                d = list(e)
                d[slot] = k - 1
                out[tuple(d)] = (k * x, k * y)
        return self._make(self.den, out, max(self.trunc - 1, -1))

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
        return self.nvars == other.nvars and self.den == other.den and self.nums == other.nums

    def __hash__(self):
        return hash((self.nvars, self.den, tuple(sorted(self.nums.items()))))

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
        if not self.nums:
            return "0"
        return " + ".join(
            f"({c})*{self._monomial_str(e)}" for e, c in self.items()
        )

    def __repr__(self):
        return f"Series(n={self.nvars}, trunc={self.trunc}, {self})"


# -- packed graded operands -------------------------------------------------------
#
# The product loops run on integer keys: an exponent e packs into the key
# sum e_i * base^i, so the key of a product monomial is the sum of the keys as
# long as no entry of the product reaches the base.  A packed operand holds
# its integer pairs as ascending (degree, [(key, re, im), ...]) buckets, so a
# row of buckets stops once the degrees sum past the truncation, and its
# least stored degree is the first bucket's.

Buckets = list[tuple[int, list[tuple[int, int, int]]]]
# integer pairs summed by output degree and key: {degree: {key: [re, im]}}
Accumulator = dict[int, dict[int, list[int]]]


def _pack(e: Sequence[int], base: int) -> int:
    """The key sum e_i * base^i of an exponent; the base must exceed every entry."""
    key = 0
    for k in reversed(e):
        key = key * base + k
    return key


class _Packed(NamedTuple):
    """Integer pairs over ``den`` in buckets, certified through ``trunc``.

    ``low`` is the least degree of a stored term, or trunc + 1 when there is
    none.  ``base`` is the base its keys are packed in; operands of one
    product share it, and :func:`_unpacked` decodes with it.
    """

    trunc: int
    low: int
    den: int
    buckets: Buckets
    base: int


def _packed(s: Series, cut: int) -> _Packed:
    """The series packed with base cut + 1, its buckets cut at degree ``cut``."""
    base = cut + 1
    buckets: dict[int, list[tuple[int, int, int]]] = {}
    low = s.trunc + 1
    for e, (x, y) in s.nums.items():
        d = sum(e)
        if d < low:
            low = d
        if d <= cut:
            buckets.setdefault(d, []).append((_pack(e, base), x, y))
    return _Packed(s.trunc, low, s.den, sorted(buckets.items()), base)


def _packed_diff(p: _Packed, slot: int) -> _Packed:
    """The derivative in a variable slot of an operand packed with all its degrees.

    A term's entry k at the slot is (key // base^slot) % base: the key drops
    by base^slot, the pair scales by k, and the terms with k = 0 go.  As in
    :meth:`Series.diff`, the truncation drops by one degree (to -1 at
    least), and ``low`` is read from the first bucket left.
    """
    base = p.base
    step = base**slot
    buckets = []
    for d, terms in p.buckets:
        out = []
        for key, x, y in terms:
            k = key // step % base
            if k:
                out.append((key - step, k * x, k * y))
        if out:
            buckets.append((d - 1, out))
    trunc = max(p.trunc - 1, -1)
    return _Packed(trunc, buckets[0][0] if buckets else trunc + 1, p.den, buckets, base)


def _packed_conj(p: _Packed, nvars: int, sign: int = 1) -> _Packed:
    """``sign`` (1 or -1) times the conjugate of a packed operand: each key's two
    halves swap and the pair (x, y) becomes sign * (x, -y)."""
    half = p.base**nvars
    buckets = [
        (d, [(key % half * half + key // half, sign * x, -sign * y) for key, x, y in terms])
        for d, terms in p.buckets
    ]
    return p._replace(buckets=buckets)


def _packed_im(p: _Packed, nvars: int, degree: int) -> _Packed:
    """The imaginary part of one degree's bucket, packed over 2 p.den in p's base.

    Im S = (S - conj S)/(2i) on the bucket's keys: the pair (x, y) at a key
    and the pair (u, v) at its mirror key (the two halves swapped) give
    Im = (y + v, u - x) at the key.  A key whose mirror is absent from the
    bucket also gives the mirror's entry (y, x), so every stored key and its
    mirror is read.  The result holds that degree's one bucket of nonzero
    pairs, not in lowest terms, or no bucket when the degree has no
    imaginary part.
    """
    half = p.base**nvars
    terms = next((terms for d, terms in p.buckets if d == degree), ())
    pairs = {key: (x, y) for key, x, y in terms}
    out = []
    for key, (x, y) in pairs.items():
        mirror = key % half * half + key // half
        uv = pairs.get(mirror)
        if uv is None:
            out += [(key, y, -x), (mirror, y, x)]
        elif y + uv[1] or uv[0] - x:
            out.append((key, y + uv[1], uv[0] - x))
    buckets = [(degree, out)] if out else []
    return _Packed(p.trunc, degree if out else p.trunc + 1, 2 * p.den, buckets, p.base)


def _certify(trunc: int, pairs: Iterable[tuple[_Packed, _Packed]]) -> None:
    """Raise unless every product p * q is exact through ``trunc``."""
    bound = min(min(p.trunc + q.low, q.trunc + p.low) for p, q in pairs)
    if trunc > bound:
        raise PreconditionError(
            f"truncation {trunc} exceeds the certified product truncation {bound}"
        )


def _mul_into(acc: Accumulator, left: Buckets, right: Buckets, upto: int):
    """Add left * right through degree ``upto`` to ``acc``."""
    for d1, terms1 in left:
        for d2, terms2 in right:
            if d1 + d2 > upto:
                break
            out = acc.setdefault(d1 + d2, {})
            for k1, a, b in terms1:
                for k2, c, d in terms2:
                    pair = out.get(k1 + k2)
                    if pair is None:
                        out[k1 + k2] = [a * c - b * d, a * d + b * c]
                    else:
                        pair[0] += a * c - b * d
                        pair[1] += a * d + b * c


def _square_into(acc: Accumulator, buckets: Buckets, upto: int):
    """Add the square of the buckets through degree ``upto`` to ``acc``.

    By symmetry: each unordered pair of terms is multiplied once, and the
    pairs of two different terms count twice.
    """
    for i, (d1, terms1) in enumerate(buckets):
        if 2 * d1 > upto:
            break
        twice = [(k, 2 * a, 2 * b) for k, a, b in terms1]
        out = acc.setdefault(2 * d1, {})
        for n, (k1, a, b) in enumerate(terms1):
            pair = out.setdefault(2 * k1, [0, 0])
            pair[0] += a * a - b * b
            pair[1] += 2 * a * b
            a, b = 2 * a, 2 * b
            for k2, c, d in terms1[n + 1 :]:
                pair = out.get(k1 + k2)
                if pair is None:
                    out[k1 + k2] = [a * c - b * d, a * d + b * c]
                else:
                    pair[0] += a * c - b * d
                    pair[1] += a * d + b * c
        _mul_into(acc, [(d1, twice)], buckets[i + 1 :], upto)


def _as_packed(acc: Accumulator, den: int, trunc: int, base: int) -> _Packed:
    """An accumulator over ``den`` as a packed operand in lowest terms, zero pairs dropped."""
    buckets = []
    g = den
    for d in sorted(acc):
        terms = [(k, x, y) for k, (x, y) in acc[d].items() if x or y]
        if terms:
            buckets.append((d, terms))
            for _, x, y in terms:
                if g == 1:
                    break
                g = math.gcd(g, x, y)
    if g != 1:
        den //= g
        buckets = [(d, [(k, x // g, y // g) for k, x, y in terms]) for d, terms in buckets]
    return _Packed(trunc, buckets[0][0] if buckets else trunc + 1, den, buckets, base)


def _sum_into(
    acc: Accumulator, den: int, terms: Iterable[tuple[int, _Packed, _Packed]], trunc: int
) -> None:
    """Add the sum of k * p * q through ``trunc`` to ``acc``, an accumulator over ``den``.

    Every den_p * den_q divides ``den``, and a pair's left operand is scaled
    by k * (den // (den_p * den_q)) before its product is added.
    """
    for k, p, q in terms:
        left = p.buckets
        scale = k * (den // (p.den * q.den))
        if scale != 1:
            left = [(d, [(key, a * scale, b * scale) for key, a, b in ts]) for d, ts in left]
        _mul_into(acc, left, q.buckets, trunc)


def _decoded(terms: Iterable[tuple[int, int, int]], base: int, width: int) -> dict[Exponent, Pair]:
    """The nonzero pairs of (key, re, im) bucket terms by exponent: the one decoder of
    packed operands.

    The inverse of :func:`_pack`, one base digit at a time over all the keys
    at once.
    """
    kept = [t for t in terms if t[1] or t[2]]
    if not kept:  # no digit to read, whatever the width a file's header asks for
        return {}
    keys = [key for key, _, _ in kept]
    digits = []
    for _ in range(width):
        digits.append([key % base for key in keys])
        keys = [key // base for key in keys]
    return dict(zip(zip(*digits), ((x, y) for _, x, y in kept)))


def _unpacked(p: _Packed, nvars: int) -> Series:
    """A packed operand as a series through its ``trunc``, in lowest terms, decoded in its base."""
    terms = chain.from_iterable(terms for _, terms in p.buckets)
    return Series._canonical(nvars, p.trunc, p.den, _decoded(terms, p.base, 2 * nvars))


def _sum_of_packed(
    terms: Sequence[tuple[int, _Packed, _Packed]], trunc: int | None = None
) -> _Packed:
    """The truncated sum of k * p * q over packed operands, packed: the core of
    :func:`sum_of_products`, with its truncation rule.

    Every operand shares one base, which must exceed the truncation, so that
    no key sum of a kept term carries.
    """
    trunc = _reachable(terms, trunc)
    pairs = [(k, p, q) for k, p, q in terms if k and p.buckets and q.buckets]
    den = math.lcm(*(p.den * q.den for _, p, q in pairs))
    acc: Accumulator = {}
    _sum_into(acc, den, pairs, trunc)
    return _as_packed(acc, den, trunc, terms[0][1].base)


def _reachable(terms: Sequence[tuple[int, _Packed, _Packed]], trunc: int | None) -> int:
    """The truncation of a sum of k * p * q over packed operands, checked.

    ``None`` is the least operand truncation.  Every operand must share one
    base above the truncation, and a truncation above the least is
    certified by every pair (:func:`_certify`); otherwise
    ``PreconditionError``.
    """
    least = min(min(p.trunc, q.trunc) for _, p, q in terms)
    if trunc is None:
        trunc = least
    elif trunc < 0:
        raise PreconditionError("negative truncation")
    base = terms[0][1].base
    if trunc >= base or any(p.base != base or q.base != base for _, p, q in terms):
        raise PreconditionError(f"operands packed in base {base} cannot reach degree {trunc}")
    if trunc > least:
        _certify(trunc, ((p, q) for _, p, q in terms))
    return trunc


def sum_of_products(
    terms: Sequence[tuple[int, Series, Series]], *, trunc: int | None = None
) -> Series:
    """The truncated sum of k * p * q over (k, p, q) with integer weights k.

    With ``trunc=None`` the truncation is the least over all operands.  A
    lower ``trunc`` only computes fewer degrees.  A higher one must be
    certified by every pair: trunc <= min(T_p + low(q), T_q + low(p)), where
    T is an operand's truncation and low the least degree of its stored
    terms (T + 1 when it stores none); otherwise ``PreconditionError``.

    Each operand is packed with base trunc + 1 and :func:`_sum_of_packed`
    forms the sum: a pair's partial products are scaled by
    k * (D // (den_p * den_q)), D the lcm over all pairs, and added into one
    integer (re, im) accumulator per exponent, which is the result over D.
    The packed result is decoded once.
    """
    if not terms:
        raise PreconditionError("a sum of products needs at least one pair")
    first = terms[0][1]
    least = first.trunc
    for _, p, q in terms:
        first._check_compat(p)
        first._check_compat(q)
        least = min(least, p.trunc, q.trunc)
    cut = least if trunc is None else trunc
    pairs = [(k, _packed(p, cut), _packed(q, cut)) for k, p, q in terms]
    return _unpacked(_sum_of_packed(pairs, trunc), first.nvars)


def subst_w(
    template: Mapping[tuple[Exponent, int], object],
    value: Series,
) -> Series:
    """Evaluate a polynomial in (z, zbar, w) at w = ``value``.

    ``template`` maps (exponent, w-power) to a coefficient.  The terms of each
    w-power j form a polynomial P_j(z, zbar), and the result is the sum of
    P_j * value^j at the truncation T of ``value``.  The substituted series must
    have zero constant term, otherwise the truncation grading would be
    destroyed.  Terms above degree T are dropped.

    Horner's rule in :class:`Series` products and sums, out = out * value + P_j
    from the top w-power down: a plain reference that shares no code with
    the packed substitution of a shear (:func:`_subst_packed`).
    """
    n, trunc = value.nvars, value.trunc
    if (0,) * (2 * n) in value.nums:
        raise PreconditionError("substituted series must have zero constant term")
    parts: dict[int, dict[Exponent, object]] = {}
    for (e, j), c in template.items():
        if j < 0:
            raise PreconditionError("negative w-power in template")
        if sum(e) <= trunc:
            parts.setdefault(j, {})[tuple(e)] = c
    out = Series.zero(n, trunc)
    for j in range(max(parts, default=0), -1, -1):
        out = out * value + Series(n, trunc, parts.get(j, {}))
    return out


def _subst_packed(polys: Mapping[int, _Packed], r: _Packed) -> _Packed:
    """r + the sum of P_j * r^j through r.trunc, packed in lowest terms: a shear at w = r.

    ``polys`` holds the nonzero P_j of B(z, w) as ``crflat.germ._shear_polys``
    packs them, at least one, none with a constant term.  r has no constant
    term, and all share one base.  Each power stays packed in degree
    buckets from one product to the next: r^j is the square of r^(j/2) for
    even j (each unordered pair of terms once, the others doubled) and
    r^(j-1) * r for odd j, formed by the product core
    :func:`_sum_of_packed`, and only the powers these steps and the P_j
    read are formed.

    The sum is seeded with r, the w of w + B(z, w): r's pairs are copied
    into the accumulator scaled to the common denominator D, the lcm of r's
    and every pair's denominators, and as they are when D is r's own.  Every
    P_j * r^j runs through the product loop into the same accumulator,
    which :func:`_as_packed` brings to lowest terms, so the result holds new
    lists and nothing is unpacked.

    Each power is formed only through the degree it is read at, and every
    product certifies it.  Write T = r.trunc and s = low(r).  P_j * r^j
    needs r^j through T - low(P_j); the square needs r^(j/2) through
    reach_j - (j/2) s, since low(r^(j/2)) = (j/2) s (the lowest part of a
    power is the power of the lowest part, never zero); r^(j-1) * r needs
    r^(j-1) through reach_j - s.  Each power is also formed at least through
    j s - 1, below which it is zero, so a power with no stored term still
    certifies its square.  Every product checks min(T_p + low(q), T_q +
    low(p)) against the degree it is asked for, with each low read from the
    lowest bucket, and raises ``PreconditionError`` past it; the product core
    checks only above min(T_p, T_r), where the bound holds since low(r) >= 1.
    The pairs of the final sum are checked by the product core's rule
    (:func:`_reachable`) before it is formed.
    """
    trunc = r.trunc
    step = r.low
    reach: dict[int, int] = {}
    for j in range(max(polys), 0, -1):
        if j in polys:
            reach[j] = max(reach.get(j, 0), trunc - polys[j].low)
        if j in reach:
            reach[j] = min(trunc, max(reach[j], j * step - 1))
            if j > 1:
                k = j - 1 if j % 2 else j // 2
                reach[k] = max(reach.get(k, 0), reach[j] - (j - k) * step)
    powers = {0: _Packed(trunc, 0, 1, [(0, [(0, 1, 0)])], r.base), 1: r}
    for j in sorted(reach):
        if j < 2:
            continue
        upto = reach[j]
        if j % 2:
            powers[j] = _sum_of_packed([(1, powers[j - 1], r)], upto)
        else:
            p = powers[j // 2]
            _certify(upto, ((p, p),))
            acc: Accumulator = {}
            _square_into(acc, p.buckets, upto)
            powers[j] = _as_packed(acc, p.den * p.den, upto, r.base)
    pairs = [(1, p, powers[j]) for j, p in sorted(polys.items())]
    _reachable(pairs, trunc)
    pairs = [(k, p, q) for k, p, q in pairs if q.buckets]
    den = math.lcm(r.den, *(p.den * q.den for _, p, q in pairs))
    scale = den // r.den
    acc = {}
    for d, ts in r.buckets:
        if scale != 1:
            ts = [(key, a * scale, b * scale) for key, a, b in ts]
        acc[d] = {key: [a, b] for key, a, b in ts}
    _sum_into(acc, den, pairs, trunc)
    return _as_packed(acc, den, trunc, r.base)


# -- file formats ----------------------------------------------------------------
#
# Every crflat file is a list of lines; '#' starts a comment and blank lines
# are ignored, and a file may open with a UTF-8 byte-order mark.  A line
# ``name <integer>`` sets a header, which each format requires exactly once;
# any other line whose first word starts with a letter names an unknown
# header.  Every other line is a term line: integers (the 2n exponents of a
# series, ``a1 a2 j`` in a kernel file) followed by the real and imaginary
# parts of the coefficient as rational literals.  For n = 2 the
# exponent columns are ``s t h r`` (powers of z1 z2 zb1 zb2).  Term order is
# irrelevant and duplicate exponents are an error.  A field file also groups
# its term lines under ``coef <label>`` lines, each label at most once.
#
# The term lines of a block are read at once: one ``findall`` of
# ``numeric.term_pattern`` over the lines, their comments cut off, and ``int``
# of each distinct group (``_read_columns``).  ``parse_packed`` forms packed
# keys and degrees from those columns for the blocks of germ, series and
# field files, and ``parse_pairs`` zips the exponent tuples of kernel rows,
# zero-coefficient keys kept.  Only rows that this pass cannot read are read
# again line by line, each split into columns once, to name the first bad
# column.
# Errors come in this order: header and block errors in line order, then term
# line errors in line order, then content errors (an exponent past the
# truncation, too few variables).  A field file reads its blocks in turn.

Row = tuple[int, str]


def read_records(
    text: str, headers: Sequence[str], blocks: Sequence[str] = ()
) -> tuple[tuple[int, ...], dict[str | None, list[Row]]]:
    """Split file text into header values and term rows.

    Returns the values of ``headers`` in the given order, and the term rows
    (line number, line without its comment) by block label.  Without
    ``blocks`` every row goes under the label None; with them, each row goes
    under the label of the last ``coef`` line before it.  A line whose first
    word starts with a letter and names no header (nor ``coef`` with
    ``blocks``) is an unknown header; a line that opens with a digit or a
    sign is a term line.
    """
    values: dict[str, int] = {}
    rows: dict[str | None, list[Row]] = {label: [] for label in (None, *blocks)}
    opened: set[str] = set()
    current = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0]
        # a line that opens with a digit is a term line: no header or block name does
        key = ""
        if not line[:1].isdigit():
            parts = line.split()
            if not parts:
                continue
            key = parts[0]
        if key in headers:
            if len(parts) != 2:
                raise ParseError(f"line {lineno}: expected '{key} <nonnegative integer>'")
            if key in values:
                raise ParseError(f"line {lineno}: second '{key}' header")
            try:
                values[key] = natural(parts[1])
            except ParseError as exc:
                raise ParseError(f"line {lineno}: {exc}") from None
        elif blocks and key == "coef":
            if len(parts) != 2 or parts[1] not in blocks:
                raise ParseError(f"line {lineno}: expected 'coef' and one of {', '.join(blocks)}")
            if parts[1] in opened:
                raise ParseError(f"line {lineno}: second 'coef {parts[1]}' block")
            current = parts[1]
            opened.add(current)
        elif key[:1].isalpha():
            raise ParseError(f"line {lineno}: unknown header '{key}'")
        elif blocks and current is None:
            raise ParseError(f"line {lineno}: term line before any 'coef' block")
        else:
            rows[current].append((lineno, line))
    missing = [h for h in headers if h not in values]
    if missing:
        raise ParseError(f"missing header {', '.join(repr(h) for h in missing)}")
    return tuple(values[h] for h in headers), rows


def parse_pairs(rows: Sequence[Row], nints: int) -> tuple[int, dict[tuple[int, ...], Pair]]:
    """Term rows of ``nints`` nonnegative integers and two rationals, as integer pairs:
    the kernel reader.

    Returns (D, pairs) with D the lcm of the literals' denominators and
    pairs[e] = (re, im), re + i im = D c_e; they are not in lowest terms,
    and a zero coefficient keeps its (0, 0), so the caller checks its key.

    Valid rows are read in one pass (:func:`_read_columns`), the exponent
    tuples zipped from its columns.  Only when that pass fails or an
    exponent repeats does :func:`_name_error` read the rows line by line, to
    name the error.
    """
    read = _read_columns(rows, nints)
    if read is not None:
        den, exponents, xs, ys = read
        keys = list(zip(*exponents)) or [()] * len(xs)  # no exponent columns
        if len(set(keys)) == len(keys):
            return den, dict(zip(keys, zip(xs, ys)))
    _name_error(rows, nints, None)


def parse_packed(rows: Sequence[Row], nints: int, order: int) -> _Packed:
    """Term rows of a germ, series or field block as packed through ``order``.

    The columns come from :func:`_read_columns`, the pass that
    :func:`parse_pairs` also reads, and each term's degree and its key in
    base order + 1 (:func:`_pack`) are formed from them column by column.
    The result is :func:`_packed` of the series the rows hold, with
    ``cut = order``: (0, 0) pairs dropped, one gcd to lowest terms, and
    every degree bucketed, each bucket in row order; :func:`_unpacked`
    decodes it.  Rows that the pass cannot read, a repeated exponent and an
    exponent past the order are named by :func:`_name_error`: keys of
    degree at most the order are distinct exactly when the exponents are.
    """
    base = order + 1
    read = _read_columns(rows, nints)
    if read is not None:
        den, exponents, xs, ys = read
        degrees = list(map(sum, zip(*exponents))) or [0] * len(xs)  # no exponent columns
        keys = [0] * len(xs)
        for column in reversed(exponents):  # Horner's rule, as _pack
            keys = [key * base + k for key, k in zip(keys, column)]
        if max(degrees, default=0) <= order and len(set(keys)) == len(keys):
            g = math.gcd(den, *xs, *ys)
            if g != 1:
                den //= g
                xs = [x // g for x in xs]
                ys = [y // g for y in ys]
            buckets: dict[int, list[tuple[int, int, int]]] = {}
            for d, key, x, y in zip(degrees, keys, xs, ys):
                if x or y:
                    buckets.setdefault(d, []).append((key, x, y))
            return _Packed(order, min(buckets, default=base), den, sorted(buckets.items()), base)
    _name_error(rows, nints, order)


def _read_columns(
    rows: Sequence[Row], nints: int
) -> tuple[int, list[list[int]], list[int], list[int]] | None:
    """One pass over term rows: (D, exponent columns, re, im), or None.

    One ``findall`` of ``term_pattern`` over the rows joined by ``"\\n"``,
    one ``int`` per distinct literal (an absent denominator reads as '' and
    is 1), and one lcm D of the denominators; re and im are the numerators
    scaled to D, column by column.  None when a row does not match or a
    literal passes the integer-digit limit; a first row of the wrong width
    gives None before any pattern is compiled.
    """
    if not rows:  # no columns either: a header may ask for any width
        return 1, [], [], []
    if len(rows[0][1].split()) != nints + 2:
        return None
    found = term_pattern(nints).findall("\n".join([line for _, line in rows]))
    if len(found) != len(rows):
        return None
    columns = list(zip(*found))
    texts = set(chain.from_iterable(columns))
    texts.discard("")
    try:
        value = dict(zip(texts, map(int, texts)))
    except ValueError:  # a literal past the integer-digit limit
        return None
    value[""] = 1
    get = value.__getitem__
    exponents = [list(map(get, column)) for column in columns[:nints]]
    xs, xds, ys, yds = (list(map(get, column)) for column in columns[nints:])
    dens = {*xds, *yds}
    den = math.lcm(*dens)
    scale = {d: den // d for d in dens}.__getitem__
    return den, exponents, list(map(mul, xs, map(scale, xds))), list(map(mul, ys, map(scale, yds)))


def _name_error(rows: Iterable[Row], nints: int, order: int | None) -> NoReturn:
    """Raise the error of term rows that :func:`parse_pairs` or :func:`parse_packed`
    cannot read in one pass.

    Each row is split into columns once and read in column order: its width,
    each exponent, a repeat of an exponent seen before, then the two
    rationals; the first error raises, in line order.  Once every row has
    been read, the first exponent past the order raises (kernel rows,
    ``order=None``, have none).
    """
    limit = math.inf if order is None else order
    seen: set[tuple[int, ...]] = set()
    over = None  # the first exponent past the order
    for lineno, line in rows:
        parts = line.split()
        if len(parts) != nints + 2:
            raise ParseError(f"line {lineno}: expected {nints} integers and 2 rationals")
        try:
            key = tuple(map(natural, parts[:nints]))
            if key in seen:
                raise ParseError(f"duplicate exponent {key}")
            rational_parts(parts[nints])
            rational_parts(parts[nints + 1])
        except ParseError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
        seen.add(key)
        if sum(key) > limit and over is None:
            over = key
    if over is not None:
        raise ParseError(f"exponent {over} exceeds truncation {order}")
    raise ConsistencyError("term rows that one pass rejects read line by line")


def read_text(path) -> str:
    """The text of a UTF-8 file, less one leading byte-order mark; unreadable or
    undecodable files raise ParseError.

    The mark is dropped after decoding, so the byte offset of a decoding
    error counts from the start of the file.
    """
    try:
        with open(path, "rb") as fh:
            return fh.read().decode("utf-8").removeprefix("\ufeff")
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


def term_line(cols: Iterable[int], re: object, im: object) -> str:
    """The term line ``cols... re im`` of a coefficient: the one writer of term lines.

    ``re`` and ``im`` are the coefficient's two parts, each printed by ``str``.
    """
    return " ".join([*map(str, cols), str(re), str(im)])


def format_term_lines(series: Series) -> list[str]:
    """The term lines of a series in graded-lex order, each coefficient read
    from its integer pair over ``den``."""
    den = series.den
    lines = []
    for e in sorted(series.nums, key=_grlex_key):
        x, y = series.nums[e]
        lines.append(term_line(e, _ratio_text(x, den), _ratio_text(y, den)))
    return lines


def loads_series(text: str) -> Series:
    """Parse a standalone series file: ``vars n`` / ``order N`` / term lines."""
    (nvars, order), rows = read_records(text, ("vars", "order"))
    packed = parse_packed(rows[None], 2 * nvars, order)
    if nvars < 1:
        raise ParseError("need at least one variable")
    return _unpacked(packed, nvars)


def dumps_series(series: Series) -> str:
    lines = [f"vars {series.nvars}", f"order {series.trunc}"]
    lines.extend(format_term_lines(series))
    return "\n".join(lines) + "\n"


def load_series(path) -> Series:
    return loads_series(read_text(path))
