"""Output checks for every benchmark op.

Each check reads the report text an op printed and returns a list of
problems; an empty list means the op is correct.  The checks re-derive what
they can from the generated inputs with the benchmark's own exact
arithmetic (Python ``Fraction``), never from ``crflat``.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction

from inputs import gmul


def digest(texts: list) -> str:
    """SHA-256 of an op's concatenated report bytes."""
    return hashlib.sha256("".join(texts).encode("utf-8")).hexdigest()


def values(text: str, key: str) -> list:
    """The values of a report's ``KEY value`` lines with the given key, in order."""
    pairs = (line.partition(" ") for line in text.splitlines())
    return [value for k, _, value in pairs if k == key]


# -- literals ------------------------------------------------------------------------


def parse_gaussian(text: str):
    """Parse a Gaussian literal as printed by the reports: ``p/q``, ``r/s i``,
    ``p/q+r/s i`` or ``p/q-r/s i``; returns (re, im) as Fractions."""
    s = "".join(text.split())
    if not s.endswith("i"):
        return Fraction(s), Fraction(0)
    body = s[:-1]
    split = max((k for k in range(1, len(body)) if body[k] in "+-" and body[k - 1].isdigit()),
                default=-1)
    re_txt, im_txt = (body[:split], body[split:]) if split >= 0 else ("", body)
    im = {"": Fraction(1), "+": Fraction(1), "-": Fraction(-1)}.get(im_txt)
    return Fraction(re_txt or 0), im if im is not None else Fraction(im_txt)


def parse_matrix(text: str) -> list:
    """Parse ``[[a, b], [c, d]]`` into rows of (re, im)."""
    inner = text.strip()[2:-2]
    return [[parse_gaussian(x) for x in row.split(",")] for row in inner.split("], [")]


def parse_direction(text: str) -> list:
    return [parse_gaussian(x) for x in text.split(",")]


# -- Bishop slice invariant ------------------------------------------------------------


def _conj(x):
    return (x[0], -x[1])


def _add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def _abs2(x):
    return x[0] * x[0] + x[1] * x[1]


def slice_invariant(a, b, c):
    """(lambda^2, elliptic) of the slice along c: alpha = c A c^t, gamma = c B conj(c)^t.

    Returns None for a degenerate slice (gamma = 0).
    """
    zero = (Fraction(0), Fraction(0))
    alpha = gamma = zero
    for p in range(2):
        for q in range(2):
            alpha = _add(alpha, gmul(gmul(a[p][q], c[p]), c[q]))
            gamma = _add(gamma, gmul(gmul(b[p][q], c[p]), _conj(c[q])))
    if gamma == zero:
        return None
    return _abs2(alpha) / _abs2(gamma), 4 * _abs2(alpha) < _abs2(gamma)


# -- per-verb checks -------------------------------------------------------------------


def check_flatten(text: str, order: str) -> list:
    problems = []
    if values(text, "FLATTENED_TO") != [order]:
        problems.append(f"flatten: missing FLATTENED_TO {order}")
    degrees = values(text, "DEGREE")
    if degrees != [str(m) for m in range(3, int(order) + 1)]:
        problems.append(f"flatten: degrees {degrees}")
    verdicts = values(text, "H_NORMALIZED_ZERO")
    if len(verdicts) != len(degrees) or any(v != "true" for v in verdicts):
        problems.append(f"flatten: H_NORMALIZED_ZERO {verdicts}")
    return problems


def check_unique(text: str, m: str) -> list:
    if values(text, "M") != [m] or values(text, "NULLSPACE_DIM") != ["0"]:
        return [f"unique-check --m {m}: expected NULLSPACE_DIM 0"]
    return []


def check_classify(text: str, a, b) -> list:
    got_a, got_b = values(text, "A"), values(text, "B")
    if len(got_a) != 1 or len(got_b) != 1:
        return ["classify: missing A or B"]
    if parse_matrix(got_a[0]) != a or parse_matrix(got_b[0]) != b:
        return ["classify: quadratic pair differs from the generated one"]
    return []


def check_jacobian(text: str) -> list:
    rank, bound = values(text, "RANK"), values(text, "CR_SINGULAR_DIM_BOUND")
    if len(rank) != 1 or len(bound) != 1 or not 0 <= int(rank[0]) <= 4 \
            or int(bound[0]) != 4 - int(rank[0]):
        return [f"jacobian: RANK {rank} CR_SINGULAR_DIM_BOUND {bound}"]
    return []


def check_bishop(text: str, a, b) -> list:
    """Every candidate with a direction is re-verified; search hits must be elliptic."""
    problems = []
    searches = 0
    for cand in values(text, "CANDIDATE"):
        origin, _, rest = cand.partition(" ")
        if not rest.startswith("("):
            continue  # recipe note without a direction
        direction, _, verdict = rest[1:].partition(") ")
        inv = slice_invariant(a, b, parse_direction(direction))
        if inv is None or verdict == "degenerate":
            if inv is not None or verdict != "degenerate":
                problems.append(f"bishop: ({direction}) {verdict} disagrees on degeneracy")
            continue
        lam_sq, elliptic = inv
        fields = dict(kv.partition("=")[::2] for kv in verdict.split())
        if fields.get("lambda_sq") != str(lam_sq) or \
                fields.get("elliptic") != ("true" if elliptic else "false"):
            problems.append(f"bishop: ({direction}) {verdict} but lambda_sq={lam_sq}")
        if origin == "search":
            searches += 1
            if not elliptic:
                problems.append(f"bishop: search hit ({direction}) is not elliptic")
    if searches > 1:
        problems.append("bishop: more than one search hit")
    return problems


def check_nonminimal(text: str, order: str) -> list:
    zero, first = values(text, "RESIDUAL_ZERO_TO"), values(text, "FIRST_OBSTRUCTION")
    if values(text, "ORDER") != [order] or len(zero) + len(first) != 1 or zero not in ([], [order]):
        return ["nonminimal-check: malformed verdict"]
    return []


def check_op(op: dict, texts: list, pair=None) -> list:
    """Problems in the reports of one op (one text per verb argv)."""
    problems = []
    if len(texts) != len(op["argv"]):
        return [f"{len(texts)} reports for {len(op['argv'])} verbs"]
    for argv, text in zip(op["argv"], texts):
        verb = argv[0]
        if verb == "flatten":
            problems += check_flatten(text, argv[argv.index("--order") + 1])
        elif verb == "unique-check":
            problems += check_unique(text, argv[argv.index("--m") + 1])
        elif verb == "classify":
            problems += check_classify(text, *pair)
        elif verb == "jacobian":
            problems += check_jacobian(text)
        elif verb == "bishop":
            problems += check_bishop(text, *pair)
        elif verb == "nonminimal-check":
            problems += check_nonminimal(text, argv[argv.index("--order") + 1])
        else:
            problems.append(f"no check for verb {verb}")
    return problems
