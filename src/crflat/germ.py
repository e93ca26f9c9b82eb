"""Graph germs w = R(z, zbar) near a CR singular point and their changes.

A :class:`Germ` holds the right-hand side R, a truncated series with
R = O(|z|^2) (the distinguished point is the origin and the complex
tangent there is {w = 0}), packed in degree buckets.  The real/imaginary
split G + iE = R, the quadratic matrix pair, and the two families of
coordinate changes used throughout the package -- linear changes acting
on the quadratic pair by congruence-with-scaling, and shears
w' = w + B(z, w) -- are derived operations.

File formats
------------
Germ file::

    vars 2
    order 8
    1 0 0 1  1 0        # term lines: s t h r  re im

Kernel file::

    weight 3
    2 1 0  0 1          # lines: a1 a2 j  re im   (coefficient of z1^a1 z2^a2 w^j)

Both round-trip byte-stably: writers emit canonical ordering, each term
line written by :func:`crflat.series.term_line`.

The buckets (``Germ._packed_r``) are what shears, the flattening driver
and the quadratic part read, and where a germ's construction checks run;
``crflat.series`` alone decides the packing base.  ``Germ(n, r)`` packs
r once and keeps it as R.  :func:`loads_germ` reads a germ file straight
into the buckets (``series.parse_packed``), so a loaded germ decodes R
only when R is read.
"""

from __future__ import annotations

from typing import Mapping

from . import quadratic  # read at call time: loading germ does not run quadratic
from .errors import ParseError, PreconditionError
from .numeric import HALF, GaussianRational, ZERO, _gaussian, _part_texts, integer_parts
from .linalg import ExactMatrix
from .series import (
    Series,
    _Packed,
    _pack,
    _packed,
    _subst_packed,
    _unpacked,
    content_errors,
    dumps_series,
    parse_packed,
    parse_pairs,
    read_records,
    read_text,
    term_line,
)


def _unit(width: int, *slots: int) -> tuple[int, ...]:
    """The exponent of the given width with one added at each slot (repeats add up)."""
    e = [0] * width
    for s in slots:
        e[s] += 1
    return tuple(e)


class Germ:
    """A real codimension-two graph germ w = R(z, zbar), R = O(|z|^2).

    A germ holds R packed through T = ``trunc`` (which no shear changes),
    all its degrees bucketed, and checks it there.  ``Germ(n, r)`` packs r
    once and keeps it as the decoded R; a shear returns a germ that holds
    only its packed result, so a chain of shears never unpacks between two
    of them, and :func:`loads_germ` returns a germ that holds only the
    packed R it read.  ``R`` is decoded from the packed copy when first read.
    """

    __slots__ = ("n", "trunc", "_r", "_rp")

    def __init__(self, n: int, r: Series):
        if r.nvars != n:
            raise PreconditionError("series variable count does not match the germ")
        self._hold(n, _packed(r, r.trunc), r)

    @classmethod
    def _from_packed(cls, n: int, rp: _Packed) -> "Germ":
        """The germ of an R packed through its truncation, all degrees; R is decoded when read."""
        germ = cls.__new__(cls)
        germ._hold(n, rp, None)
        return germ

    def _hold(self, n: int, rp: _Packed, r: Series | None) -> None:
        """Check the packed R of a germ in n variables and hold it, with R decoded as r or not yet."""
        if rp.trunc < 2:
            raise PreconditionError("germ needs truncation order at least 2")
        if rp.low < 2:
            raise PreconditionError(
                "defining series must vanish to second order at the origin"
            )
        self.n = n
        self.trunc = rp.trunc
        self._r = r
        self._rp = rp

    @property
    def R(self) -> Series:
        if self._r is None:
            self._r = _unpacked(self._rp, self.n)
        return self._r

    def _packed_r(self) -> _Packed:
        """R packed through T, all degrees bucketed."""
        return self._rp

    def __eq__(self, other):
        if not isinstance(other, Germ):
            return NotImplemented
        return self.n == other.n and self.R == other.R

    def __repr__(self):
        return f"Germ(n={self.n}, trunc={self.trunc}, R={self.R})"

    # -- derived data ---------------------------------------------------------

    def quadratic_part(self) -> Series:
        """R_2, decoded from the degree-2 bucket alone."""
        rp = self._rp
        return _unpacked(rp._replace(buckets=[b for b in rp.buckets if b[0] == 2]), self.n)

    def split(self) -> tuple[Series, Series]:
        """Real and imaginary parts (G, E), G + iE = R, as computed by ``Series.re_im``."""
        return self.R.re_im()

    def quadratic_pair(self) -> quadratic.QuadraticPair:
        """Extract (A, B) with quadratic part = z A z^t + conj(...) + z B zbar^t.

        The mixed block is read off directly; the pure-holomorphic block must
        be the conjugate of the pure-antiholomorphic block, otherwise the
        series is not the graph of this normal shape and the extraction
        refuses it.
        """
        n = self.n
        q = self.quadratic_part()
        width = 2 * n
        b = [[q.coeff(_unit(width, j, n + k)) for k in range(n)] for j in range(n)]
        hol = [[ZERO] * n for _ in range(n)]
        for j in range(n):
            for k in range(j, n):
                hz = q.coeff(_unit(width, j, k))
                az = q.coeff(_unit(width, n + j, n + k))
                if az != hz.conj():
                    raise PreconditionError(
                        "quadratic part not in graph normal form: the pure "
                        "antiholomorphic block must conjugate the holomorphic block"
                    )
                if j == k:
                    hol[j][j] = hz
                else:
                    hol[j][k] = hol[k][j] = hz * HALF
        return quadratic.QuadraticPair(ExactMatrix.from_rows(hol), ExactMatrix.from_rows(b))

    # -- coordinate changes ------------------------------------------------------

    def linear_change(self, p: ExactMatrix, mu) -> "Germ":
        """Apply z = z~ P, w = mu w~ and re-normalize to graph shape.

        The substituted series mu^{-1} R(z~ P, conj) is already a graph in
        z~ (R carries no w), but a non-real mu unbalances the pure
        holomorphic/antiholomorphic quadratic blocks; the standard follow-up
        shear by a holomorphic quadratic restores the balanced shape, and the
        resulting quadratic pair transforms exactly by
        B -> (1/mu) P B conj(P)^t, A -> (1/conj(mu)) P A P^t.
        """
        mu = GaussianRational.coerce(mu)
        if not mu:
            raise PreconditionError("mu must be nonzero")
        if p.rows != self.n or p.cols != self.n:
            raise PreconditionError("P must be n x n")
        if p.det().is_zero():
            raise PreconditionError("P must be invertible")
        n = self.n
        trunc = self.trunc
        forms = []
        for j in range(n):
            terms = {}
            for k in range(n):
                c = p.at(k, j)
                if c:
                    terms[_unit(2 * n, k)] = c
            forms.append(Series(n, trunc, terms))
        forms += [f.conj() for f in forms]
        powers: list[dict[int, Series]] = [dict() for _ in range(2 * n)]

        def form_pow(slot: int, k: int) -> Series:
            cache = powers[slot]
            if k not in cache:
                cache[k] = forms[slot] ** k
            return cache[k]

        acc = Series.zero(n, trunc)
        for e, c in self.R.items():
            term = Series.const(n, trunc, c)
            for slot, k in enumerate(e):
                if k:
                    term = term * form_pow(slot, k)
            acc = acc + term
        acc = acc.scale(mu.inverse())
        # rebalance the quadratic blocks: keep the antiholomorphic block and
        # replace the holomorphic one by its conjugate image
        q = acc.homogeneous_part(2)
        hol = Series(n, trunc, {e: c for e, c in q.terms.items() if not any(e[n:])})
        anti = Series(n, trunc, {e: c for e, c in q.terms.items() if not any(e[:n])})
        acc = acc - hol + anti.conj()
        return Germ(n, acc)

    def shear(self, kernel: "KernelPolynomial") -> "Germ":
        """Apply w' = w + B(z, w): the new graph is R + B(z, R), truncated.

        The P_j of B(z, w) are packed straight from the kernel's integers
        (:func:`_shear_polys`), and ``_subst_packed`` forms R + B(z, R) with
        R packed.  A B with no term through the truncation (a zero kernel
        included) returns the germ itself.  The result stays packed and is
        decoded only when its R is read.  ``subst_w`` of w + B(z, w), in
        ``Series`` products, is its reference.
        """
        if self.n != 2:
            raise PreconditionError("shears are implemented for two variables")
        r = self._packed_r()
        polys = _shear_polys(kernel, r)
        if not polys:
            return self
        return Germ._from_packed(2, _subst_packed(polys, r))


class KernelPolynomial:
    """Shear datum B(z, w) = sum b_{alpha j} z^alpha w^j of one weight.

    Every key satisfies |alpha| + 2 j = weight; for even weight the purely
    radial coefficient b_{(0,0), weight/2} is pinned to zero so the shear is
    the unique normalized representative.
    """

    __slots__ = ("m", "coeffs")

    def __init__(self, m: int, coeffs: Mapping[tuple[tuple[int, int], int], object]):
        if m < 2:
            raise PreconditionError("kernel weight must be at least 2")
        self.m = m
        clean: dict[tuple[tuple[int, int], int], GaussianRational] = {}
        for key, c in coeffs.items():
            try:
                (a1, a2), j = key
            except (TypeError, ValueError):
                a1 = a2 = j = None  # not ((int, int), int)
            if (
                not all(isinstance(v, int) for v in (a1, a2, j))
                or min(a1, a2, j) < 0
                or a1 + a2 + 2 * j != m
            ):
                raise PreconditionError(f"kernel key {key} violates the weight-{m} grading")
            c = GaussianRational.coerce(c)
            if c:
                clean[((a1, a2), j)] = c
        if m % 2 == 0 and ((0, 0), m // 2) in clean:
            raise PreconditionError(
                "even-weight kernels must omit the pure w-power coefficient"
            )
        self.coeffs = clean

    def is_zero(self) -> bool:
        return not self.coeffs

    def items(self):
        return sorted(self.coeffs.items())

    def __eq__(self, other):
        if not isinstance(other, KernelPolynomial):
            return NotImplemented
        return self.m == other.m and self.coeffs == other.coeffs

    def __repr__(self):
        return f"KernelPolynomial(m={self.m}, {dict(self.items())!r})"


def _shear_polys(kernel: KernelPolynomial, r: _Packed) -> dict[int, _Packed]:
    """The P_j of B(z, w) by w-power j, packed as r is, through its truncation.

    P_j holds the b_{alpha j} z^alpha, all of degree m - 2 j, over the lcm of
    their denominators, read from each coefficient's integers
    (:func:`crflat.numeric.integer_parts`).  Terms above the truncation are
    dropped, and so is a P_j left empty.  B holds no pure w term (pinned at
    even weight, impossible at odd), so no P_j holds a constant.
    """
    trunc, base = r.trunc, r.base
    parts: dict[int, list] = {}
    for ((a1, a2), j), c in kernel.coeffs.items():
        if a1 + a2 <= trunc:
            parts.setdefault(j, []).append((_pack((a1, a2, 0, 0), base), c))
    polys = {}
    for j, terms in parts.items():
        den, xs, ys = integer_parts([c for _, c in terms])
        d = kernel.m - 2 * j
        bucket = [(k, x, y) for (k, _), x, y in zip(terms, xs, ys)]
        polys[j] = _Packed(trunc, d, den, [(d, bucket)], base)
    return polys


# -- quadric builders ------------------------------------------------------------


def quadric_germ(pair: quadratic.QuadraticPair, trunc: int) -> Germ:
    """The exact quadric germ whose quadratic pair is the given one."""
    n = pair.n
    terms: dict[tuple, GaussianRational] = {}

    def add(e, c):
        terms[e] = terms.get(e, ZERO) + c

    width = 2 * n
    for j in range(n):
        for k in range(n):
            add(_unit(width, j, k), pair.A.at(j, k))
            add(_unit(width, n + j, n + k), pair.A.at(j, k).conj())
            add(_unit(width, j, n + k), pair.B.at(j, k))
    return Germ(n, Series(n, trunc, terms))


def parabolic_pair() -> quadratic.QuadraticPair:
    """The pair of |z1|^2 + |z2|^2 + (z1^2 + z2^2 + conj)/2."""
    a = ExactMatrix.from_rows([[HALF, ZERO], [ZERO, HALF]])
    return quadratic.QuadraticPair(a, ExactMatrix.identity(2))


def parabolic_quadric(trunc: int) -> Germ:
    return quadric_germ(parabolic_pair(), trunc)


# -- file formats -------------------------------------------------------------------


def loads_germ(text: str) -> Germ:
    """Parse a germ file straight into its packed R (``parse_packed``); R is decoded when read.

    The checks and their order are those of ``Germ(n, loads_series(text))``.
    """
    (nvars, order), rows = read_records(text, ("vars", "order"))
    rp = parse_packed(rows[None], 2 * nvars, order)
    if nvars < 1:
        raise ParseError("need at least one variable")
    with content_errors():
        return Germ._from_packed(nvars, rp)


def dumps_germ(germ: Germ) -> str:
    return dumps_series(germ.R)


def load_germ(path) -> Germ:
    return loads_germ(read_text(path))


def save_germ(germ: Germ, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_germ(germ))


def loads_kernel(text: str) -> KernelPolynomial:
    (weight,), rows = read_records(text, ("weight",))
    den, pairs = parse_pairs(rows[None], 3)
    with content_errors():
        return KernelPolynomial(
            weight, {((a1, a2), j): _gaussian(*p, den) for (a1, a2, j), p in pairs.items()}
        )


def dumps_kernel(kernel: KernelPolynomial) -> str:
    lines = [f"weight {kernel.m}"]
    lines.extend(term_line((*alpha, j), *_part_texts(c)) for (alpha, j), c in kernel.items())
    return "\n".join(lines) + "\n"


def load_kernel(path) -> KernelPolynomial:
    return loads_kernel(read_text(path))


def save_kernel(kernel: KernelPolynomial, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_kernel(kernel))
