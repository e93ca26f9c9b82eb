"""The first-order condition in rotation coordinates, and the uniqueness
certificate it gives.

The derivation is in the ``crflat.flatten`` module docstring.  In
omega = w1 + i w2, sigma = w1 - i w2, nu = v1 + i v2 and nu' = v1 - i v2
(w_i = z_i + zb_i, v_i = z_i - zb_i), D = i (R + S) and E = i (R - S), so the
factor (D^2 + 1) E of the condition is i G with the integer operator
G = (1 - (R + S)^2)(R - S), block-diagonal in p = a + c for the monomials
omega^a nu^c sigma^b nu'^d.  Both kernels of ``crflat.flatten`` are
certified here on the shear image, by one shared certificate
(:func:`_certify_condition_kernel`): the maps are tied to D and E on every
call, (a) G kills every shear polynomial, and (c) the blocks' nullities
mod p bound the condition's.  :func:`fundamental_nullspace` adds (b), the
independence of the shear polynomials, and reduces their parts to the
condition kernel's basis; :func:`uniqueness_nullspace` takes (b) from the
full column rank of one small matrix on the shear parameters.

The maps R and S (``_rotation_map``), the tie and (a) live in
``crflat.flatten``, whose driver takes the verdict of every solved degree
from the tie and (a).  Only ``crflat.flatten.fundamental_nullspace`` and
``crflat.flatten.uniqueness_nullspace`` import this module, at their first
call, so ``flatten_to_order`` never compiles it.  It reads the maps, the
two certificates, ``normalization_system`` and ``_shear_matrix`` through
``crflat.flatten`` at call time, so a test that patches one of them there
reaches every user.
"""

from __future__ import annotations

from . import flatten
from .errors import ConsistencyError, PreconditionError
from .flatten import HTable, Table, all_brackets, check_fundamental, phi_psi
from .linalg import MODULUS, SparseMatrix, _echelon, certified_nullspace, rank_mod_p
from .numeric import I, ONE, GaussianRational, ZERO, integer_parts


def _block_factor(p: int, q: int) -> dict[tuple[int, int], dict[tuple[int, int], int]]:
    """G = (1 - (R + S)^2)(R - S) on the block (p, q): {point: its image}.

    One family of all the block's unit polynomials, point k in column k,
    taken through the three maps at once.
    """
    points = [(a, b) for a in range(p + 1) for b in range(q + 1)]
    rm = flatten._rotation_map
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
      (``crflat.flatten._rotation_matches_definition``);
    * (a) G kills each shear polynomial
      (``crflat.flatten._shear_image_in_kernel``);
    * (c) the blocks' nullities mod p sum to at most ``parameters``.
      Swapping (omega, nu) with (sigma, nu') sends the block (p, q) to
      (q, p), its grid point (a, b) to (b, a), and R and S to -R and -S, so
      G to -G: the block (q, p) is the block (p, q) with its points renamed
      and its entries negated, of the same rank mod any prime, and only
      p <= m / 2 is ranked.  A block whose modular nullity exceeds its
      share of the shear image is eliminated exactly.

    With (b), the independence of the shear polynomials, the condition's
    kernel is their span.  A check that fails raises :class:`ConsistencyError`.
    """
    if not flatten._rotation_matches_definition():
        raise ConsistencyError(f"rotation coordinates disagree with D and E at degree {m}")
    if not flatten._shear_image_in_kernel():
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

    H runs over the shear parameters (``crflat.flatten._shear_matrix``); rows
    2 j and 2 j + 1 hold the real and imaginary parts at ``all_brackets(m)[j]``.
    """
    everywhere = [(idx, ("re", "im")) for idx in all_brackets(m)]
    image = flatten._shear_matrix(m, everywhere, m % 2 == 0, "shear image")
    if certified_nullspace(image.entries, image.cols, f"the shear image of degree {m}"):
        raise ConsistencyError(f"the shear polynomials of degree {m} are dependent")
    return image


def fundamental_nullspace(m: int) -> tuple[Table, ...]:
    """The basis of ``crflat.flatten.fundamental_nullspace``: the shear image's span.

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


def uniqueness_nullspace(m: int) -> tuple[int, list[HTable]]:
    """The kernel of ``crflat.flatten.uniqueness_nullspace``, on the shear image.

    The combined system is the first-order condition, reality,
    normalization and the two vanishing coefficient families on tables over
    ``all_brackets(m)``.  The parameter matrix of
    H = Im sum b_k c_k + tau (2 q2)^(m/2) holds the parts of every
    normalization constraint and of both vanishing families, in
    (Re b_k, Im b_k, tau) (``crflat.flatten._shear_matrix``), taken by
    :func:`crflat.linalg.certified_nullspace` after the shared checks.

    By (a) and (c) every real H that satisfies the condition is such an H,
    so full column rank mod p of the parameter matrix certifies the trivial
    kernel, and also (b), the independence of the shear polynomials.
    Otherwise its exact kernel is mapped to tables, their independence is
    certified by the rank of all the tables the parameters give
    (:func:`_shear_image`), and the x parts and the y parts are each
    brought to reduced echelon form with the columns reversed.  That is the
    basis of the kernels of the x and y blocks of the same system written
    on the n x n tables, real tables, then i times real tables.  A check
    that fails raises :class:`ConsistencyError`.
    """
    if m < 3:
        raise PreconditionError("uniqueness check starts at degree 3")
    indices = [(con.index, con.parts) for con in flatten.normalization_system(m)]
    indices += [((t, 1, m - t - 2, 1), ("re", "im")) for t in range(m - 1)]
    indices += [((t, 0, m - t, 0), ("re", "im")) for t in range(m + 1)]
    params = flatten._shear_matrix(m, indices, m % 2 == 0, "shear parameter matrix")
    _certify_condition_kernel(m, params.cols)
    kernel = certified_nullspace(params.entries, params.cols, f"the shear parameters of degree {m}")
    if not kernel:
        return 0, []
    brackets = all_brackets(m)
    image = _shear_image(m)
    # the kernel's vectors are real; over a common denominator each, in integers
    kernel = [integer_parts(v)[1] for v in kernel]
    tables = []
    for part, unit in ((0, ONE), (1, I)):
        rows = image.entries[part::2]
        vectors = [[sum(x * v[c] for c, x in row.items()) for row in rows] for v in kernel]
        tables += [
            HTable(m, {idx: unit * c for idx, c in zip(brackets, b)})
            for b in _reversed_echelon(vectors, len(brackets))
        ]
    if len(tables) != len(kernel):
        raise ConsistencyError(f"the kernel tables of degree {m} lost a dimension")
    return len(tables), tables
