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
:func:`subst_w` keeps the powers of the substituted series packed from one
product to the next, and its core :func:`_subst_packed` returns the sum
packed too, so that a caller holding a packed operand (a sheared ``Germ``
holds its R packed) never unpacks between substitutions; ``subst_w``
decodes the sum once.  The base is decided here alone: :func:`_packed`
packs with base cut + 1, every packed operand carries its base to the
results formed from it, and :func:`_unpacked` decodes with the operand's
base, so a caller passes degrees, never a base.

Every term line ``cols... re im``, in the files and in the reports, is
written by :func:`term_line`; :func:`format_term_lines` prints each
coefficient straight from its integer pair over ``den``.

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
from fractions import Fraction
from itertools import chain
from typing import Iterable, Iterator, Mapping, NamedTuple, NoReturn, Sequence

from .errors import ConsistencyError, ParseError, PreconditionError
from .numeric import (
    GaussianRational,
    _exact,
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


def _coefficient(pair: Pair, den: int) -> GaussianRational:
    """The Gaussian rational (re + i im) / den of an integer pair."""
    x, y = pair
    return _exact(Fraction(x, den), Fraction(y, den))


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

    @staticmethod
    def _from_pairs(nvars: int, trunc: int, den: int, pairs: Mapping[Exponent, Pair]) -> "Series":
        """A series from integer pairs over ``den``, (0, 0) pairs dropped.

        The caller has checked the shape and the exponents, as the readers
        of term lines do while they read them (:func:`parse_pairs`).
        """
        nums = {e: p for e, p in pairs.items() if p[0] or p[1]}
        return Series._canonical(nvars, trunc, den, nums)

    # -- inspection ------------------------------------------------------------

    @property
    def terms(self) -> dict[Exponent, GaussianRational]:
        """The stored coefficients as Gaussian rationals, in a new dict."""
        return {e: _coefficient(pair, self.den) for e, pair in self.nums.items()}

    def coeff(self, e: Iterable[int]) -> GaussianRational:
        """Stored coefficient at the exponent, or 0 (also for out-of-range)."""
        return _coefficient(self.nums.get(tuple(e), (0, 0)), self.den)

    def items(self) -> Iterator[tuple[Exponent, GaussianRational]]:
        """Terms in graded-lex order."""
        for e in sorted(self.nums, key=_grlex_key):
            yield e, _coefficient(self.nums[e], self.den)

    def is_zero(self) -> bool:
        return not self.nums

    def is_real(self) -> bool:
        """True iff the series equals its own conjugate termwise."""
        n = self.nvars
        nums = self.nums
        return all(nums.get(e[n:] + e[:n]) == (x, -y) for e, (x, y) in nums.items())

    def min_degree(self) -> int:
        return min((sum(e) for e in self.nums), default=0)

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
        """Real and imaginary parts ((S + conj S)/2, (S - conj S)/(2i)), both real.

        Over 2 den, the pair (x, y) at e and the pair (u, v) at the mirror
        exponent give Re = (x + u, y - v) and Im = (y + v, u - x) at e; an
        absent pair is (0, 0), so every stored exponent and its mirror is read.
        """
        n = self.nvars
        nums = self.nums
        re: dict[Exponent, Pair] = {}
        im: dict[Exponent, Pair] = {}
        for e in nums.keys() | {e[n:] + e[:n] for e in nums}:
            x, y = nums.get(e, (0, 0))
            u, v = nums.get(e[n:] + e[:n], (0, 0))
            if x + u or y - v:
                re[e] = (x + u, y - v)
            if y + v or u - x:
                im[e] = (y + v, u - x)
        return self._make(2 * self.den, re), self._make(2 * self.den, im)

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
                out[e[:slot] + (k - 1,) + e[slot + 1 :]] = (k * x, k * y)
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


def _unpack(key: int, base: int, width: int) -> Exponent:
    """The exponent of ``width`` entries packed into ``key`` by :func:`_pack`."""
    e = []
    for _ in range(width):
        key, k = divmod(key, base)
        e.append(k)
    return tuple(e)


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


def _packed_conj(p: _Packed, nvars: int) -> _Packed:
    """The conjugate of a packed operand: each key's two halves swap and im is negated."""
    half = p.base**nvars
    buckets = [
        (d, [(key % half * half + key // half, x, -y) for key, x, y in terms])
        for d, terms in p.buckets
    ]
    return p._replace(buckets=buckets)


def _packed_im(p: _Packed, nvars: int, degree: int) -> _Packed:
    """The imaginary part of one degree's bucket, packed over 2 p.den in p's base.

    The rule of :meth:`Series.re_im`: the pair (x, y) at a key and the pair
    (u, v) at its mirror key (the two halves swapped) give Im = (y + v, u - x)
    at the key.  A key whose mirror is absent from the bucket also gives the
    mirror's entry (y, x), so every stored key and its mirror is read.  The
    result holds that degree's one bucket of nonzero pairs, not in lowest
    terms, or no bucket when the degree has no imaginary part.
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
    terms: Iterable[tuple[int, _Packed, _Packed]], trunc: int
) -> tuple[int, Accumulator]:
    """The sum of k * p * q through ``trunc`` as (D, accumulator over D).

    D is the lcm of the pairs' denominators, and a pair's left operand is
    scaled by k * (D // (den_p * den_q)) before its product is added.
    """
    pairs = [(k, p, q) for k, p, q in terms if k and p.buckets and q.buckets]
    den = math.lcm(*(p.den * q.den for _, p, q in pairs))
    acc: Accumulator = {}
    for k, p, q in pairs:
        left = p.buckets
        scale = k * (den // (p.den * q.den))
        if scale != 1:
            left = [(d, [(key, a * scale, b * scale) for key, a, b in ts]) for d, ts in left]
        _mul_into(acc, left, q.buckets, trunc)
    return den, acc


def _decoded(terms: Iterable[tuple[int, int, int]], base: int, width: int) -> dict[Exponent, Pair]:
    """The nonzero pairs of (key, re, im) bucket terms by exponent: the one decoder of
    packed operands.

    As :func:`_unpack` does key by key, but one base digit at a time over all
    the keys at once.
    """
    kept = [t for t in terms if t[1] or t[2]]
    keys = [key for key, _, _ in kept]
    digits = []
    for _ in range(width):
        digits.append([key % base for key in keys])
        keys = [key // base for key in keys]
    return dict(zip(zip(*digits), ((x, y) for _, x, y in kept)))


def _unpacked(p: _Packed, nvars: int, degree: int | None = None) -> Series:
    """A packed operand as a series truncated at its ``trunc``, in lowest terms.

    The keys are decoded with the operand's own base.  With ``degree``, only
    that degree's bucket is read, and an absent bucket is the zero series.
    """
    buckets = p.buckets if degree is None else [b for b in p.buckets if b[0] == degree]
    terms = chain.from_iterable(terms for _, terms in buckets)
    return Series._canonical(nvars, p.trunc, p.den, _decoded(terms, p.base, 2 * nvars))


def _sum_of_packed(
    terms: Sequence[tuple[int, _Packed, _Packed]], trunc: int | None = None
) -> _Packed:
    """The truncated sum of k * p * q over packed operands, packed: the core of
    :func:`sum_of_products`, with its truncation rule.

    Every operand shares one base, which must exceed the truncation, so that
    no key sum of a kept term carries.
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
    den, acc = _sum_into(terms, trunc)
    return _as_packed(acc, den, trunc, base)


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
    destroyed.

    The P_j and the value are packed once, with base T + 1, which exceeds
    every exponent entry of a term of degree <= T; :func:`_subst_packed` runs
    the substitution on the packed operands, and its packed sum is decoded
    once.
    """
    width = 2 * value.nvars
    if (0,) * width in value.nums:
        raise PreconditionError("substituted series must have zero constant term")
    trunc = value.trunc
    polys = _template_polys(template, value.nvars, trunc)
    if not polys:
        return Series.zero(value.nvars, trunc)
    return _unpacked(_subst_packed(polys, _packed(value, trunc)), value.nvars)


def _template_polys(
    template: Mapping[tuple[Exponent, int], object], nvars: int, trunc: int
) -> dict[int, _Packed]:
    """The nonzero P_j of a :func:`subst_w` template by w-power j, packed with base trunc + 1.

    Terms above degree ``trunc`` are dropped.
    """
    parts: dict[int, dict[Exponent, object]] = {}
    for (e, j), c in template.items():
        if j < 0:
            raise PreconditionError("negative w-power in template")
        if sum(e) <= trunc:
            parts.setdefault(j, {})[tuple(e)] = c
    packed = {j: _packed(Series(nvars, trunc, terms), trunc) for j, terms in parts.items()}
    return {j: p for j, p in packed.items() if p.buckets}


def _subst_packed(polys: Mapping[int, _Packed], r: _Packed) -> _Packed:
    """The sum of P_j * r^j through r.trunc, packed in lowest terms: the core of :func:`subst_w`.

    ``polys`` holds at least one P_j, and r has no constant term; all share
    one base.  Each power stays packed in degree buckets from one product to
    the next: r^j is the square of r^(j/2) for even j (each unordered pair
    of terms once, the others doubled) and r^(j-1) * r for odd j, formed by
    the product core :func:`_sum_of_packed`, and only the powers these steps
    and the P_j read are formed.  The P_j * r^j then add into one
    accumulator, brought to lowest terms by :func:`_as_packed` with its zero
    pairs dropped, so nothing is unpacked here.

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
    return _sum_of_packed([(1, p, powers[j]) for j, p in polys.items()], trunc)


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
#
# A term line is read by one match of ``numeric.term_pattern`` over the whole
# line, its comment cut off, and ``int`` of the groups; only a line that the
# pattern or ``int`` rejects is split into columns, to name the first bad one.
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
    under the label of the last ``coef`` line before it.
    """
    values: dict[str, int] = {}
    rows: dict[str | None, list[Row]] = {label: [] for label in (None, *blocks)}
    opened: set[str] = set()
    current = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0]
        # a line that opens with a digit is a term line: no header or block name does
        key = None
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
        elif blocks and current is None:
            raise ParseError(f"line {lineno}: term line before any 'coef' block")
        else:
            rows[current].append((lineno, line))
    missing = [h for h in headers if h not in values]
    if missing:
        raise ParseError(f"missing header {', '.join(repr(h) for h in missing)}")
    return tuple(values[h] for h in headers), rows


def parse_pairs(
    rows: Iterable[Row], nints: int, order: int | None = None
) -> tuple[int, dict[tuple[int, ...], Pair]]:
    """Term rows of ``nints`` nonnegative integers and two rationals, as integer pairs.

    Returns (D, pairs) with D the lcm of the literals' denominators and
    pairs[e] = (re, im), re + i im = D c_e; they are not in lowest terms,
    and a zero coefficient keeps its (0, 0).  With an ``order``, an exponent
    of degree above it raises, once every row has been read.
    """
    match = term_pattern(nints).fullmatch
    limit = math.inf if order is None else order
    raw: dict[tuple[int, ...], tuple[int, ...]] = {}
    over = None  # the first exponent past the order
    for lineno, line in rows:
        found = match(line)
        try:
            values = tuple(map(int, found.groups("1"))) if found else None
        except ValueError:  # a group past the integer-digit limit
            values = None
        if values is None:
            _reject(lineno, line, nints, raw)
        key = values[:nints]
        if key in raw:
            raise ParseError(f"line {lineno}: duplicate exponent {key}")
        raw[key] = values[nints:]
        if sum(key) > limit and over is None:
            over = key
    if over is not None:
        raise ParseError(f"exponent {over} exceeds truncation {order}")
    den = math.lcm(*{d for _, a, _, b in raw.values() for d in (a, b)})
    return den, {e: (x * (den // a), y * (den // b)) for e, (x, a, y, b) in raw.items()}


def _reject(lineno: int, line: str, nints: int, seen: Mapping) -> NoReturn:
    """Raise the error of a term line that the pattern rejects, read column by column.

    The first bad column names it, in column order, with a duplicate of an
    exponent in ``seen`` checked between the exponents and the rationals.
    """
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
    raise ConsistencyError(f"line {lineno}: the term pattern rejects columns that parse")


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


def term_line(cols: Iterable[int], re: object, im: object) -> str:
    """The term line ``cols... re im`` of a coefficient: the one writer of term lines.

    ``re`` and ``im`` are the coefficient's two parts, each printed by ``str``.
    """
    return " ".join([*map(str, cols), str(re), str(im)])


def _ratio_text(x: int, den: int) -> str:
    """``str(Fraction(x, den))`` for den > 0, from the integers alone."""
    g = math.gcd(x, den)
    return str(x // g) if g == den else f"{x // g}/{den // g}"


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
    den, pairs = parse_pairs(rows[None], 2 * nvars, order)
    if nvars < 1:
        raise ParseError("need at least one variable")
    return Series._from_pairs(nvars, order, den, pairs)


def dumps_series(series: Series) -> str:
    lines = [f"vars {series.nvars}", f"order {series.trunc}"]
    lines.extend(format_term_lines(series))
    return "\n".join(lines) + "\n"


def load_series(path) -> Series:
    return loads_series(read_text(path))
