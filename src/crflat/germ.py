"""Graph germs w = R(z, zbar) near a CR singular point and their changes.

A :class:`Germ` stores the whole right-hand side R as one truncated series
with R = O(|z|^2) (the distinguished point is the origin and the complex
tangent there is {w = 0}).  The real/imaginary split G + iE = R, the
quadratic matrix pair, and the two families of coordinate changes used
throughout the package -- linear changes acting on the quadratic pair by
congruence-with-scaling, and shears w' = w + B(z, w) -- are derived
operations.

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

A germ packs its R in degree buckets (``Germ._packed_r``), which shears
and the flattening driver read; ``crflat.series`` alone decides the
packing base.
"""

from __future__ import annotations

from typing import Mapping

from . import quadratic  # read at call time: loading germ does not run quadratic
from .errors import PreconditionError
from .numeric import HALF, GaussianRational, ZERO
from .linalg import ExactMatrix
from .series import (
    Series,
    _Packed,
    _coefficient,
    _packed,
    _subst_packed,
    _template_polys,
    _unpacked,
    content_errors,
    dumps_series,
    loads_series,
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

    A germ may also hold R packed through T = ``trunc`` (which no shear
    changes), all its degrees bucketed: :meth:`shear` packs R once, keeps
    the packed copy, and returns a germ that holds only its packed result,
    so a chain of shears never unpacks between two of them.  ``R`` is
    decoded from the packed copy when first read.
    """

    __slots__ = ("n", "trunc", "_r", "_rp")

    def __init__(self, n: int, r: Series):
        if r.nvars != n:
            raise PreconditionError("series variable count does not match the germ")
        if r.trunc < 2:
            raise PreconditionError("germ needs truncation order at least 2")
        if not r.is_zero() and r.min_degree() < 2:
            raise PreconditionError(
                "defining series must vanish to second order at the origin"
            )
        self.n = n
        self.trunc = r.trunc
        self._r = r
        self._rp = None

    @classmethod
    def _from_packed(cls, n: int, rp: _Packed) -> "Germ":
        """The germ of an R packed through its truncation, all degrees; R is decoded when read."""
        if rp.low < 2:
            raise PreconditionError(
                "defining series must vanish to second order at the origin"
            )
        germ = cls.__new__(cls)
        germ.n = n
        germ.trunc = rp.trunc
        germ._r = None
        germ._rp = rp
        return germ

    @property
    def R(self) -> Series:
        if self._r is None:
            self._r = _unpacked(self._rp, self.n)
        return self._r

    def _packed_r(self) -> _Packed:
        """R packed through T, all degrees bucketed; packed once per germ."""
        if self._rp is None:
            self._rp = _packed(self._r, self.trunc)
        return self._rp

    def __eq__(self, other):
        if not isinstance(other, Germ):
            return NotImplemented
        return self.n == other.n and self.R == other.R

    def __repr__(self):
        return f"Germ(n={self.n}, trunc={self.trunc}, R={self.R})"

    # -- derived data ---------------------------------------------------------

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
        q = self.R.homogeneous_part(2)
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

        This is :func:`subst_w` of the shear's template at R on packed
        operands: the result stays packed and is decoded only when its R is
        read.
        """
        if self.n != 2:
            raise PreconditionError("shears are implemented for two variables")
        if kernel.is_zero():
            return self
        polys = _template_polys(_shear_template(kernel), 2, self.trunc)
        return Germ._from_packed(2, _subst_packed(polys, self._packed_r()))


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
        for (alpha, j), c in coeffs.items():
            a1, a2 = alpha
            if a1 < 0 or a2 < 0 or j < 0 or a1 + a2 + 2 * j != m:
                raise PreconditionError(
                    f"kernel key {(alpha, j)} violates the weight-{m} grading"
                )
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


def _shear_template(kernel: KernelPolynomial) -> dict:
    """The :func:`subst_w` template of w + B(z, w), the new graph of a shear."""
    # B holds no pure w term (pinned at weight 2, impossible above)
    template = {((a1, a2, 0, 0), j): c for ((a1, a2), j), c in kernel.coeffs.items()}
    template[(0, 0, 0, 0), 1] = 1
    return template


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
    series = loads_series(text)
    with content_errors():
        return Germ(series.nvars, series)


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
            weight, {((a1, a2), j): _coefficient(p, den) for (a1, a2, j), p in pairs.items()}
        )


def dumps_kernel(kernel: KernelPolynomial) -> str:
    lines = [f"weight {kernel.m}"]
    lines.extend(term_line((*alpha, j), c.re, c.im) for (alpha, j), c in kernel.items())
    return "\n".join(lines) + "\n"


def load_kernel(path) -> KernelPolynomial:
    return loads_kernel(read_text(path))


def save_kernel(kernel: KernelPolynomial, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_kernel(kernel))
