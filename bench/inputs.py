"""Seeded input generator for the benchmark workloads.

Everything here is standard library only and independent of ``crflat``, so a
seed names the same input bytes whatever version of the program is measured.

Germ files use the format ``crflat`` reads: ``vars 2``, ``order N`` and term
lines ``s t h r re im`` for the coefficient of z1^s z2^t zb1^h zb2^r, in
graded-lex order.

Gaussian coefficients are pairs ``(re, im)`` of ``Fraction``.  The sheared
quadrics are built in fixed point: every coefficient of degree d of a
sheared parabolic quadric has a denominator dividing 2^(d // 2) (the only
denominators come from the 1/2 coefficients of the quadric), so scaling all
values by 2^(N // 2) keeps them integral and products divide back exactly.
"""

from __future__ import annotations

import os
import random
from fractions import Fraction

FLATTEN_TRUNC = 10
FLATTEN_POOL = 3
SCREEN_TRUNC = 9
SCREEN_POOL = 5
SCREEN_TERMS = (8, 40)
SEARCH_BOUND = 8
SEARCH_REACH = 0.2
SEARCH_WINDOW = 0.01  # share of the grid: about 0.03 s of search at most
AUDIT_DEGREES = (6, 7, 8)
WARMUP_SEED = 20170327  # warm-up inputs do not depend on --seed

# exponent (s, t, h, r) -> coefficient, for |z1|^2 + |z2|^2 + (z1^2 + z2^2 + conj)/2
_PARABOLIC = {
    (1, 0, 1, 0): Fraction(1),
    (0, 1, 0, 1): Fraction(1),
    (2, 0, 0, 0): Fraction(1, 2),
    (0, 2, 0, 0): Fraction(1, 2),
    (0, 0, 2, 0): Fraction(1, 2),
    (0, 0, 0, 2): Fraction(1, 2),
}


def _grlex(e):
    return (sum(e), e)


def dumps_germ(terms: dict, trunc: int) -> str:
    """Canonical germ file text for ``{exponent: (re, im)}``."""
    lines = ["vars 2", f"order {trunc}"]
    for e in sorted(terms, key=_grlex):
        re, im = terms[e]
        lines.append(" ".join(str(k) for k in e) + f" {re} {im}")
    return "\n".join(lines) + "\n"


def germ_stats(terms: dict) -> dict:
    """Term count, top degree and largest numerator/denominator bit length."""
    bits = 0
    for re, im in terms.values():
        for q in (re, im):
            bits = max(bits, abs(q.numerator).bit_length(), q.denominator.bit_length())
    return {
        "terms": len(terms),
        "degree": max(sum(e) for e in terms),
        "max_coeff_bits": bits,
    }


# -- sheared parabolic quadrics (flatten-sheared) ----------------------------------


def kernel_keys(m: int) -> list:
    """Shear unknowns ((a1, a2), j) of weight m, |alpha| + 2 j = m.

    For even weight the pure w-power is left out, as every normalized shear
    datum omits it.
    """
    out = []
    for j in range(m // 2 + 1):
        for a1 in range(m - 2 * j + 1):
            a2 = m - 2 * j - a1
            if m % 2 == 0 and j == m // 2 and a1 == a2 == 0:
                continue
            out.append(((a1, a2), j))
    return out


def _fx_mul(a: dict, b: dict, trunc: int, scale: int) -> dict:
    by_degree: dict = {}
    for e2, c2 in b.items():
        by_degree.setdefault(sum(e2), []).append((e2, c2))
    out: dict = {}
    for e1, (p, q) in a.items():
        room = trunc - sum(e1)
        for d2, bucket in by_degree.items():
            if d2 > room:
                continue
            for e2, (r, s) in bucket:
                e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2], e1[3] + e2[3])
                x, y = out.get(e, (0, 0))
                out[e] = (x + p * r - q * s, y + p * s + q * r)
    res = {}
    for e, (x, y) in out.items():
        if x % scale or y % scale:
            raise ArithmeticError("fixed-point product is not exact")
        if x or y:
            res[e] = (x // scale, y // scale)
    return res


def _fx_add_into(acc: dict, b: dict) -> None:
    for e, (x, y) in b.items():
        u, v = acc.get(e, (0, 0))
        u, v = u + x, v + y
        if u or v:
            acc[e] = (u, v)
        else:
            acc.pop(e, None)


def shear_fx(r: dict, m: int, coeffs: dict, trunc: int, scale: int) -> dict:
    """R + B(z, R) for B = sum b z^alpha w^j, all in fixed point."""
    powers = {0: {(0, 0, 0, 0): (scale, 0)}}
    for j in range(1, m // 2 + 1):
        powers[j] = _fx_mul(powers[j - 1], r, trunc, scale)
    out = dict(r)
    for ((a1, a2), j), (bx, by) in coeffs.items():
        if not (bx or by):
            continue
        shifted = {}
        for e, (x, y) in powers[j].items():
            if sum(e) + a1 + a2 <= trunc:
                shifted[(e[0] + a1, e[1] + a2, e[2], e[3])] = (bx * x - by * y, bx * y + by * x)
        _fx_add_into(out, shifted)
    return out


def sheared_quadric(rng: random.Random, trunc: int = FLATTEN_TRUNC, span: int = 2):
    """Parabolic quadric composed with a random shear at every weight 3..trunc.

    Shear coefficients are Gaussian integers with parts in [-span, span].
    Returns the germ terms and the shear data, weight by weight.
    """
    scale = 2 ** (trunc // 2)
    r = {e: (int(c * scale), 0) for e, c in _PARABOLIC.items()}
    shears = {}
    for m in range(3, trunc + 1):
        coeffs = {
            key: (rng.randint(-span, span), rng.randint(-span, span)) for key in kernel_keys(m)
        }
        shears[m] = coeffs
        r = shear_fx(r, m, coeffs, trunc, scale)
    terms = {e: (Fraction(x, scale), Fraction(y, scale)) for e, (x, y) in r.items()}
    return terms, shears


# -- random germs (screen-germs) -----------------------------------------------------
#
# The cost of ``bishop --search`` is set by where in the direction grid the
# first elliptic direction lies, and a small pool of unconstrained random
# quadrics mixes cheap and exhaustive searches differently on every seed.
# Each pool slot therefore draws its quadric from one narrow fixed window of
# that position (the last slot from a family with no elliptic direction at all),
# and slot k gets the k-th term count on a monomial support of its own that
# no seed changes, so every seed yields nearly the same op costs; the seed
# draws the quadric within the window and every coefficient.  Positions are
# located in floating point; only the cost mix depends on them, never a
# verdict.


def _small_gaussian(rng: random.Random, span: int = 3):
    """A Gaussian integer whose parts are both nonzero, so every draw costs alike."""
    parts = [k for k in range(-span, span + 1) if k]
    return Fraction(rng.choice(parts)), Fraction(rng.choice(parts))


def _invertible(b) -> bool:
    return gmul(b[0][0], b[1][1]) != gmul(b[0][1], b[1][0])


def random_pair(rng: random.Random):
    """A random symmetric A and an invertible B, as 2x2 lists of (re, im)."""
    a00, a01, a11 = (_small_gaussian(rng) for _ in range(3))
    while True:
        b = [[_small_gaussian(rng) for _ in range(2)] for _ in range(2)]
        if _invertible(b):
            return [[a00, a01], [a01, a11]], b


def hyperbolic_pair(rng: random.Random):
    """A pair without elliptic directions: A = diag(a, 0), B = [[p, q], [r, 0]].

    Along (1, z) the slice has |alpha| = |a| and |gamma| <= |p| + (|q| + |r|) |z|,
    which stays below 2 |a| on the whole search grid; along (0, 1) it is
    degenerate.
    """
    zero = (Fraction(0), Fraction(0))
    while True:
        b = [[_small_gaussian(rng, span=1), _small_gaussian(rng, span=1)],
             [_small_gaussian(rng, span=1), zero]]
        if _invertible(b):
            break
    a = (Fraction(rng.randint(60, 90)), Fraction(rng.randint(-9, 9)))
    return [[a, zero], [zero, zero]], b


def search_grid(bound: int = SEARCH_BOUND) -> list:
    """The sorted values p/q, |p| <= bound, 1 <= q <= bound, of the direction search."""
    return sorted({Fraction(p, q) for q in range(1, bound + 1) for p in range(-bound, bound + 1)})


def first_elliptic(a, b, grid: list) -> float:
    """Share of the direction grid scanned before the first elliptic direction (1 = none)."""
    a00, a01, a11 = (complex(float(x), float(y)) for x, y in (a[0][0], a[0][1], a[1][1]))
    b00, b01, b10, b11 = (complex(float(x), float(y)) for x, y in (*b[0], *b[1]))
    vals = [float(v) for v in grid]
    n = 0
    for x in vals:
        for y in vals:
            z = complex(x, y)
            alpha = a00 + 2 * a01 * z + a11 * z * z
            gamma = b00 + b01 * z.conjugate() + b10 * z + b11 * (x * x + y * y)
            if 4 * abs(alpha) ** 2 < abs(gamma) ** 2:
                return n / len(vals) ** 2
            n += 1
    return 1.0


def quadric_terms(a, b) -> dict:
    """Balanced quadratic part z A z^t + conj(z A z^t) + z B zbar^t."""
    terms = {}
    hol = {(2, 0, 0, 0): a[0][0], (0, 2, 0, 0): a[1][1], (1, 1, 0, 0): gscale(a[0][1], 2)}
    for (s, t, h, r), c in hol.items():
        terms[(s, t, h, r)] = c
        terms[(h, r, s, t)] = (c[0], -c[1])
    for j in range(2):
        for k in range(2):
            e = [0, 0, 0, 0]
            e[j] += 1
            e[2 + k] += 1
            terms[tuple(e)] = b[j][k]
    return {e: c for e, c in terms.items() if c[0] or c[1]}


def random_exponent(rng: random.Random, degree: int):
    cuts = sorted(rng.randint(0, degree) for _ in range(3))
    return (cuts[0], cuts[1] - cuts[0], cuts[2] - cuts[1], degree - cuts[2])


def screen_germ(rng: random.Random, slot: int, nterms: int, grid: list,
                pool: int = SCREEN_POOL, trunc: int = SCREEN_TRUNC):
    """Quadric for the slot's search window plus ``nterms`` terms of degree 3..trunc.

    The monomials of the terms depend on the slot only; ``rng`` draws the rest.
    """
    if slot == pool - 1:
        a, b = hyperbolic_pair(rng)
    else:
        mid = (slot + 0.5) * SEARCH_REACH / (pool - 1)
        lo, hi = mid - SEARCH_WINDOW / 2, mid + SEARCH_WINDOW / 2
        while True:
            a, b = random_pair(rng)
            if lo <= first_elliptic(a, b, grid) < hi:
                break
    terms = quadric_terms(a, b)
    support = random.Random(slot)
    added = 0
    while added < nterms:
        e = random_exponent(support, 3 + added % (trunc - 2))
        if e in terms:
            continue
        terms[e] = _small_gaussian(rng)
        added += 1
    return terms, a, b


def screen_term_counts(pool: int = SCREEN_POOL, lo_hi=SCREEN_TERMS) -> list:
    """Term counts spread evenly over the range, one per pool slot."""
    lo, hi = lo_hi
    return [lo + round((hi - lo) * k / (pool - 1)) for k in range(pool)]


# -- Gaussian helpers shared with the checker ----------------------------------------


def gmul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def gscale(x, k):
    return (x[0] * k, x[1] * k)


# -- workload inputs -------------------------------------------------------------------


def write_inputs(workload: str, seed: int, outdir: str) -> dict:
    """Write the workload's input files into ``outdir`` and return a manifest.

    The manifest lists the measured ops (``ops``), the fixed warm-up op
    (``warmup``) and, per input file (``inputs``), its statistics plus the
    quadratic pair the checker needs.  An op is ``{"key", "input" (its germ
    file, if any), "argv": [argv of each verb]}``.
    """
    os.makedirs(outdir, exist_ok=True)
    inputs: dict = {}

    def emit(name: str, terms: dict, trunc: int, pair=None) -> str:
        with open(os.path.join(outdir, name), "w", encoding="utf-8") as fh:
            fh.write(dumps_germ(terms, trunc))
        info = germ_stats(terms)
        if pair is not None:
            info["A"], info["B"] = ([[[str(x) for x in c] for c in row] for row in m] for m in pair)
        inputs[name] = info
        return name

    if workload == "flatten-sheared":
        def flatten_op(name):
            return {"key": name, "input": name,
                    "argv": [["flatten", name, "--order", str(FLATTEN_TRUNC)]]}

        rng = random.Random(seed)
        ops = [flatten_op(emit(f"g{k}.germ", sheared_quadric(rng)[0], FLATTEN_TRUNC))
               for k in range(FLATTEN_POOL)]
        # the bare quadric fills the caches the ops share at a third of an op's cost
        quadric = {e: (c, Fraction(0)) for e, c in _PARABOLIC.items()}
        warm = flatten_op(emit("warmup.germ", quadric, FLATTEN_TRUNC))
    elif workload == "audit-uniqueness":
        def audit_op(m):
            return {"key": f"m{m}", "argv": [["unique-check", "--m", str(m)]]}

        order = list(AUDIT_DEGREES)
        random.Random(seed).shuffle(order)
        ops = [audit_op(m) for m in order]
        warm = audit_op(min(AUDIT_DEGREES))
    elif workload == "screen-germs":
        def screen_op(name):
            return {
                "key": name,
                "input": name,
                "argv": [
                    ["classify", name],
                    ["jacobian", name],
                    ["bishop", name, "--search", str(SEARCH_BOUND)],
                    ["nonminimal-check", name, "--order", "6"],
                ],
            }

        rng = random.Random(seed)
        grid = search_grid()
        ops = []
        for k, n in enumerate(screen_term_counts()):
            terms, a, b = screen_germ(rng, k, n, grid)
            ops.append(screen_op(emit(f"s{k:02d}.germ", terms, SCREEN_TRUNC, (a, b))))
        terms, a, b = screen_germ(random.Random(WARMUP_SEED), 0, SCREEN_TERMS[0], grid)
        warm = screen_op(emit("warmup.germ", terms, SCREEN_TRUNC, (a, b)))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return {"ops": ops, "warmup": warm, "inputs": inputs}


def pair_of(info: dict):
    """The (A, B) pair of a manifest entry, as rows of (re, im) Fractions."""
    return tuple(
        [[tuple(Fraction(x) for x in c) for c in row] for row in info[k]] for k in ("A", "B")
    )
