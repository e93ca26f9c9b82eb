"""Exact scalars: arbitrary-precision rationals and Gaussian rationals.

Every coefficient in this package lives in Q(i): complex numbers whose real
and imaginary parts are exact rationals.  :class:`GaussianRational` holds
one as (x + i y) / d, three ints in lowest terms, and provides field
arithmetic on them, conjugation, exact modulus-squared, literal parsing and
canonical formatting; ``fractions.Fraction`` is the type of the real values
it reads and of the parts ``re``, ``im`` and ``abs2`` it returns.  Each
result is brought to lowest terms once, by one three-argument ``math.gcd``
in ``_gaussian``, the one factory of scalars from integers, so a product
costs four integer products and a gcd, not six ``Fraction`` operations.
:func:`integer_parts` is the one lift of exact values to integers over a
common denominator, which every integer kernel of the package starts from;
it reads a GaussianRational's integers as they are.  ``_ratio_text`` prints
an integer over a positive denominator as ``str`` prints its ``Fraction``,
for ``str`` of a scalar and for every term line the package writes.

Values are immutable; all operations are pure and safe to share between
workers.

One number grammar, in ASCII digits, reads every number of files and command
lines: a natural ``digits``, an integer ``[+-]digits``, a rational ``p/q`` or
``p`` with an optional sign and q nonzero, and a Gaussian ``p/q+r/s i``,
``p/q-r/s i``, ``p/q``, ``r/s i``, ``-r/s i``, ``i`` or ``-i``.  Whitespace may
surround a literal and a Gaussian literal's joining sign, and precede its
``i`` (``3/5 + 4/5 i``); it never sits inside a number (``1 2``, ``1 / 2``).
:func:`term_pattern` is the same grammar for term lines of the file formats,
naturals and two rationals, so a reader matches a block of lines at once.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache
from operator import mul
from typing import Iterable

from .errors import ParseError

_DEN = r"(?:/(0*[1-9][0-9]*))?"  # an optional nonzero denominator
_NATURAL_COLUMN = r"([0-9]+)"
_RATIONAL_COLUMN = rf"([+-]?[0-9]+){_DEN}"
_INTEGER = re.compile(r"\s*[+-]?[0-9]+\s*")
_RATIONAL = re.compile(rf"\s*{_RATIONAL_COLUMN}\s*")
_IM = rf"(?:([0-9]+){_DEN})?\s*i"  # an unsigned imaginary part; a bare i has coefficient 1
_GAUSSIAN = re.compile(rf"\s*(?:([+-]?[0-9]+){_DEN}(?:\s*([+-])\s*{_IM})?|([+-]?){_IM})\s*")
_gcd = math.gcd  # bound once: the factory calls them on every result
_new = object.__new__


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


def _ratio_text(x: int, den: int) -> str:
    """``str(Fraction(x, den))`` for den > 0, from the integers alone."""
    g = math.gcd(x, den)
    return str(x // g) if g == den else f"{x // g}/{den // g}"


def _operand(v) -> tuple[int, int, int] | None:
    """(x, y, d) of an int (bool included), ``Fraction`` or GaussianRational; None otherwise."""
    if isinstance(v, GaussianRational):
        return v._x, v._y, v._d
    if isinstance(v, int):
        return int(v), 0, 1
    if isinstance(v, Fraction):
        return v.numerator, 0, v.denominator
    return None


class GaussianRational:
    """A complex number with exact rational real and imaginary parts.

    The value (x + i y) / d is held as three ints ``_x``, ``_y`` and ``_d``,
    with d > 0 and gcd(x, y, d) = 1, so equal values have equal integers.
    Every result is made by ``_gaussian``, the one factory from integers,
    which brings it to lowest terms with one three-argument ``math.gcd``.
    ``re`` and ``im`` are read-only properties that build the parts as
    ``Fraction``s on demand.

    Fast paths: ``+`` and ``-`` add numerators alone over an equal
    denominator, ``*`` by an int or a real value (y = 0) skips the
    four-product formula, and ``inverse`` of a real value swaps numerator
    and denominator.  An operand that is not an int, a ``Fraction`` or a
    GaussianRational gives ``NotImplemented``, so the other operand's
    reflected operator runs (``2 * s`` and ``GaussianRational(2) * s`` are
    the same ``Series``); ``coerce`` raises ``TypeError`` for it.
    """

    __slots__ = ("_x", "_y", "_d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            self._x, self._y, self._d = re, im, 1
            return
        re = _as_fraction(re)
        im = _as_fraction(im)
        a, b = re.denominator, im.denominator
        d = a if a == b else math.lcm(a, b)  # over the lcm of reduced parts, in lowest terms
        self._x = re.numerator * (d // a)
        self._y = im.numerator * (d // b)
        self._d = d

    @property
    def re(self) -> Fraction:
        """The real part x / d."""
        return Fraction(self._x, self._d)

    @property
    def im(self) -> Fraction:
        """The imaginary part y / d."""
        return Fraction(self._y, self._d)

    # -- coercion ---------------------------------------------------------

    @staticmethod
    def coerce(x) -> "GaussianRational":
        """``x`` itself, or the real value of an int (bool included) or Fraction."""
        if isinstance(x, GaussianRational):
            return x
        parts = _operand(x)
        if parts is None:
            raise TypeError(f"cannot interpret {type(x).__name__} as a Gaussian rational")
        return _gaussian(*parts)

    # -- predicates -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._x and not self._y

    def is_real(self) -> bool:
        return not self._y

    def is_unimodular(self) -> bool:
        return self._x * self._x + self._y * self._y == self._d * self._d

    def __bool__(self) -> bool:
        return self._x != 0 or self._y != 0

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, GaussianRational):
            x, y, d = other._x, other._y, other._d
        elif type(other) is int:
            return _gaussian(self._x + other * self._d, self._y, self._d)
        else:
            parts = _operand(other)
            if parts is None:
                return NotImplemented
            x, y, d = parts
        e = self._d
        if d == e:
            return _gaussian(self._x + x, self._y + y, d)
        return _gaussian(self._x * d + x * e, self._y * d + y * e, d * e)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, GaussianRational):
            x, y, d = other._x, other._y, other._d
        else:
            parts = _operand(other)
            if parts is None:
                return NotImplemented
            x, y, d = parts
        e = self._d
        if d == e:
            return _gaussian(self._x - x, self._y - y, d)
        return _gaussian(self._x * d - x * e, self._y * d - y * e, d * e)

    def __rsub__(self, other):
        parts = _operand(other)
        if parts is None:
            return NotImplemented
        x, y, d = parts
        e = self._d
        if d == e:
            return _gaussian(x - self._x, y - self._y, d)
        return _gaussian(x * e - self._x * d, y * e - self._y * d, d * e)

    def __neg__(self):
        return _gaussian(-self._x, -self._y, self._d)

    def __mul__(self, other):
        if isinstance(other, GaussianRational):
            x, y, d = other._x, other._y, other._d
        elif type(other) is int:
            return _gaussian(self._x * other, self._y * other, self._d)
        else:
            parts = _operand(other)
            if parts is None:
                return NotImplemented
            x, y, d = parts
        p, q = self._x, self._y
        if not y:
            return _gaussian(p * x, q * x, self._d * d)
        if not q:
            return _gaussian(p * x, p * y, self._d * d)
        return _gaussian(p * x - q * y, p * y + q * x, self._d * d)

    __rmul__ = __mul__

    def inverse(self) -> "GaussianRational":
        x, y, d = self._x, self._y, self._d
        if not y:
            if not x:
                raise ZeroDivisionError("division by zero Gaussian rational")
            return _gaussian(-d, 0, -x) if x < 0 else _gaussian(d, 0, x)
        # d / (x + i y) = d (x - i y) / (x^2 + y^2), a positive denominator
        return _gaussian(d * x, -d * y, x * x + y * y)

    def __truediv__(self, other):
        if not isinstance(other, GaussianRational):
            parts = _operand(other)
            if parts is None:
                return NotImplemented
            other = _gaussian(*parts)
        return self * other.inverse()

    def __rtruediv__(self, other):
        if _operand(other) is None:
            return NotImplemented
        return self.inverse() * other

    def __pow__(self, k: int):
        if not isinstance(k, int):
            raise TypeError("exponent must be an integer")
        if k < 0:
            return self.inverse() ** (-k)
        r = ONE
        b = self
        while k:
            if k & 1:
                r = r * b
            b = b * b
            k >>= 1
        return r

    def conj(self) -> "GaussianRational":
        return _gaussian(self._x, -self._y, self._d)

    def abs2(self) -> Fraction:
        """Exact squared modulus re^2 + im^2 (a rational)."""
        return Fraction(self._x * self._x + self._y * self._y, self._d * self._d)

    # -- equality / hashing ----------------------------------------------

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return self._x == other._x and self._y == other._y and self._d == other._d
        if isinstance(other, int):
            return self._d == 1 and not self._y and self._x == other
        if isinstance(other, Fraction):
            return not self._y and self._x == other.numerator and self._d == other.denominator
        return NotImplemented

    def __hash__(self):
        # that of the Fraction re of a real value, and of the pair (re, im) otherwise;
        # an integral Fraction hashes as its int
        x, y, d = self._x, self._y, self._d
        if d == 1:
            return hash((x, y)) if y else hash(x)
        return hash((self.re, self.im)) if y else hash(self.re)

    # -- formatting / parsing ----------------------------------------------

    def __str__(self) -> str:
        x, y, d = self._x, self._y, self._d
        if not y:
            return _ratio_text(x, d)
        if not x:
            return f"{_ratio_text(y, d)} i"
        return f"{_ratio_text(x, d)}{'-' if y < 0 else '+'}{_ratio_text(abs(y), d)} i"

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"

    @staticmethod
    def parse(text: str) -> "GaussianRational":
        """Parse a Gaussian literal (grammar in the module docstring); inverse of ``str``."""
        message = "bad Gaussian literal {!r}"
        match = _GAUSSIAN.fullmatch(text)
        if match is None:
            raise ParseError(message.format(text))
        re_num, re_den, *imaginary = match.groups()
        if re_num is None:  # an imaginary part alone, with its own sign
            re_num, imaginary = "0", imaginary[3:]
        sign, im_num, im_den = imaginary[:3]
        (p, q), (r, s) = ((_int(num, text, message), _int(den or "1", text, message))
                          for num, den in ((re_num, re_den), (im_num or "1", im_den)))
        if sign is None:  # a real literal
            return _gaussian(p, 0, q)
        return _gaussian(p * s, -r * q if sign == "-" else r * q, q * s)


def _gaussian(x: int, y: int, d: int) -> GaussianRational:
    """The GaussianRational (x + i y) / d of ints with d > 0, in lowest terms.

    The one factory from integers: every arithmetic result is made here,
    skipping the ``Fraction`` reading of ``__init__``.
    """
    g = _gcd(x, y, d)
    if g != 1:
        x //= g
        y //= g
        d //= g
    s = _new(GaussianRational)
    s._x = x
    s._y = y
    s._d = d
    return s


def _part_texts(c: GaussianRational) -> tuple[str, str]:
    """The texts of c's real and imaginary parts, as ``str`` prints their ``Fraction``s."""
    return _ratio_text(c._x, c._d), _ratio_text(c._y, c._d)


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
HALF = GaussianRational(Fraction(1, 2))  # the one 1/2 constant
I = GaussianRational(0, 1)


def integer_parts(values: Iterable) -> tuple[int, list[int], list[int]]:
    """Exact values as integers over their least common denominator.

    ``values`` are ints, ``Fraction``s or ``GaussianRational``s.  Returns
    (D, re, im) with D the lcm of the denominators of all their real and
    imaginary parts (1 for no values) and re[k] + i im[k] = D values[k].
    A GaussianRational's own integers are read as they are.
    """
    xs, ys, ds = [], [], []
    for v in values:
        if type(v) is GaussianRational:
            x, y, d = v._x, v._y, v._d
        elif type(v) is int:  # its own numerator over 1
            x, y, d = v, 0, 1
        else:
            parts = _operand(v)
            if parts is None:
                raise TypeError(f"expected an exact rational, got {type(v).__name__}")
            x, y, d = parts
        xs.append(x)
        ys.append(y)
        ds.append(d)
    den = math.lcm(*ds)
    if den == 1:  # integer values, common in products: no divisions needed
        return 1, xs, ys
    scales = [den // d for d in ds]
    return den, list(map(mul, xs, scales)), list(map(mul, ys, scales))


def _int(digits: str | None, text: str, message: str) -> int:
    """``int(digits)`` with the one integer-string-limit guard; None (no match) raises too."""
    try:
        if digits is not None:
            return int(digits)
    except ValueError:
        pass
    raise ParseError(message.format(text))


def natural(text: str) -> int:
    """A natural-number literal: ASCII digits, whitespace around them allowed."""
    digits = text.strip()  # str tests: a pattern took twice as long per exponent column
    digits = digits if digits.isascii() and digits.isdigit() else None
    return _int(digits, text, "expected a nonnegative integer, got {!r}")


def integer(text: str) -> int:
    """An integer literal ``[+-]?digits``, whitespace around it allowed."""
    return _int(text if _INTEGER.fullmatch(text) else None, text, "bad integer literal {!r}")


def rational_parts(text: str) -> tuple[int, int]:
    """The integers (num, den) of a rational literal; den > 0 as written, not reduced."""
    match = _RATIONAL.fullmatch(text)
    num, den = match.groups() if match else (None, None)
    message = "bad rational literal {!r}"
    return _int(num, text, message), 1 if den is None else _int(den, text, message)


@lru_cache(maxsize=None)
def term_pattern(nints: int) -> re.Pattern:
    """The whole-line pattern of a term line: ``nints`` naturals, then two rationals.

    Columns are apart by ``[^\\S\\n]+``, the whitespace ``str.split`` splits
    on short of the newline, and the line may start and end with such
    whitespace.  The groups are the naturals' digits, then each rational's
    numerator and denominator (empty when it has none).  So a line matches
    exactly when its ``str.split`` columns are ``nints + 2`` and ``natural``
    and ``rational_parts`` accept each, short of the integer-digit limit,
    which ``int`` of a group checks.  The pattern is anchored at line
    boundaries (``(?m)^...$``) and no match crosses a newline, so
    ``findall`` reads lines joined by ``"\\n"``, one match per matching line.
    """
    columns = [_NATURAL_COLUMN] * nints + [_RATIONAL_COLUMN] * 2
    return re.compile(r"(?m)^[^\S\n]*" + r"[^\S\n]+".join(columns) + r"[^\S\n]*$")


def sqrt_fraction(x: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None when irrational."""
    x = _as_fraction(x)
    if x < 0:
        return None
    pn = math.isqrt(x.numerator)
    pd = math.isqrt(x.denominator)
    if pn * pn == x.numerator and pd * pd == x.denominator:
        return Fraction(pn, pd)
    return None


def sqrt_gaussian(z: GaussianRational) -> GaussianRational | None:
    """An exact square root of z in Q(i), or None when none exists.

    Of the two roots the one with re > 0 (or re == 0 and im >= 0) is
    returned.
    """
    z = GaussianRational.coerce(z)
    if z.is_zero():
        return ZERO
    n = sqrt_fraction(z.abs2())
    if n is None:
        return None
    x2 = (z.re + n) / 2
    y2 = (n - z.re) / 2
    x = sqrt_fraction(x2)
    if x is None:
        return None
    if x:
        cand = GaussianRational(x, z.im / (2 * x))
    else:
        y = sqrt_fraction(y2)
        if y is None:
            return None
        cand = GaussianRational(0, y)
    if cand * cand == z:
        return cand
    return None
