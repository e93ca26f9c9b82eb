"""Shared builders and independent oracle helpers for the test suite."""

import random
from fractions import Fraction as F
from pathlib import Path

import pytest

from crflat import (
    ExactMatrix,
    GaussianRational,
    Germ,
    QuadraticPair,
    Series,
    quadric_germ,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

G = GaussianRational

# unimodular samples with positive imaginary part (Pythagorean phases)
UNIMODULAR = (
    G(F(3, 5), F(4, 5)),
    G(F(5, 13), F(12, 13)),
    G(F(8, 17), F(15, 17)),
)


def rand_fraction(rng: random.Random, span: int = 3, den: int = 3) -> F:
    return F(rng.randint(-span, span), rng.randint(1, den))


def rand_gaussian(rng: random.Random, span: int = 3, den: int = 3) -> G:
    return G(rand_fraction(rng, span, den), rand_fraction(rng, span, den))


def rand_nonzero_gaussian(rng: random.Random, span: int = 3, den: int = 3) -> G:
    while True:
        g = rand_gaussian(rng, span, den)
        if g:
            return g


def rand_matrix(rng: random.Random, n: int = 2) -> ExactMatrix:
    return ExactMatrix.from_rows(
        [[rand_gaussian(rng) for _ in range(n)] for _ in range(n)]
    )


def rand_invertible(rng: random.Random, n: int = 2) -> ExactMatrix:
    while True:
        m = rand_matrix(rng, n)
        if not m.det().is_zero():
            return m


def rand_series(rng: random.Random, nvars: int, trunc: int, nterms: int = 6,
                min_degree: int = 0) -> Series:
    terms = {}
    width = 2 * nvars
    for _ in range(nterms):
        while True:
            e = tuple(rng.randint(0, trunc) for _ in range(width))
            if min_degree <= sum(e) <= trunc:
                break
        terms[e] = rand_gaussian(rng)
    return Series(nvars, trunc, terms)


def rand_pair(rng: random.Random) -> QuadraticPair:
    return QuadraticPair(rand_matrix(rng), rand_matrix(rng))


def rand_germ(rng: random.Random, trunc: int = 6, extra_terms: int = 4) -> Germ:
    """A germ in graph normal form: balanced quadric plus higher-order noise."""
    base = quadric_germ(rand_pair(rng), trunc)
    high = rand_series(rng, 2, trunc, extra_terms, min_degree=3)
    return Germ(2, base.R + high)


def rand_real_bracket_table(rng: random.Random, m: int, nterms: int = 8) -> dict:
    """A random real-valued homogeneous coefficient table of degree m."""
    table = {}
    for _ in range(nterms):
        t = rng.randint(0, m)
        s = rng.randint(0, m - t)
        r = rng.randint(0, m - t - s)
        h = m - t - s - r
        c = rand_gaussian(rng)
        for (idx, val) in (((t, s, r, h), c), ((r, h, t, s), c.conj())):
            table[idx] = table.get(idx, G(0)) + val
    return {k: v for k, v in table.items() if v}


def shear_template(kernel) -> dict:
    """The ``subst_w`` template of w + B(z, w): the shear oracle, a new graph R + B(z, R).

    ``Germ.shear`` packs the P_j of B straight from the kernel and forms
    R + B(z, R) on packed operands; ``subst_w`` evaluates this template by
    Horner's rule in ``Series`` products and sums, which share no code with
    that substitution.
    """
    # B holds no pure w term (pinned at weight 2, impossible above)
    template = {((a1, a2, 0, 0), j): c for ((a1, a2), j), c in kernel.coeffs.items()}
    template[(0, 0, 0, 0), 1] = 1
    return template


# -- independent Lie-bracket oracle ------------------------------------------------
#
# Vector fields with coefficient functions of (z, zbar) only, over the basis
# (d/dz1, d/dz2, d/dw, d/dzb1, d/dzb2, d/dwb).  Since no coefficient depends
# on w or its conjugate, applying a field to a coefficient only involves the
# four honest variables.

SLOTS = ("z1", "z2", "w", "zb1", "zb2", "wb")


def field_apply(field: dict, f: Series) -> Series:
    out = Series.zero(f.nvars, f.trunc)
    for slot, coeff in field.items():
        if slot == "z1":
            out = out + coeff * f.dz(1)
        elif slot == "z2":
            out = out + coeff * f.dz(2)
        elif slot == "zb1":
            out = out + coeff * f.dzbar(1)
        elif slot == "zb2":
            out = out + coeff * f.dzbar(2)
        # w / wb derivatives of (z, zbar)-functions vanish
    return out


def lie_bracket(x: dict, y: dict) -> dict:
    out = {}
    for slot in SLOTS:
        acc = None
        if slot in y:
            acc = field_apply(x, y[slot])
        if slot in x:
            term = field_apply(y, x[slot])
            acc = -term if acc is None else acc - term
        if acc is not None and not acc.is_zero():
            out[slot] = acc
    return out


def conj_field(field: dict) -> dict:
    swap = {"z1": "zb1", "z2": "zb2", "w": "wb", "zb1": "z1", "zb2": "z2", "wb": "w"}
    return {swap[slot]: coeff.conj() for slot, coeff in field.items()}


@pytest.fixture
def rng():
    return random.Random(20260811)
