"""Command-line front end.

Verbs
-----
classify         quadratic pair, flattenability, coarse class, shape match
nonminimal-check residual of the bracket identity through a given order
witness          check a tangent field (and optional real function) annihilates
                 the graph equations
bishop           slice invariant along a direction; optional candidate search
jacobian         linearized CR-singular-locus equations
flatten          order-by-order formal flattening of a parabolic-quadric germ
unique-check     kernel dimension of the combined uniqueness system
case-oracle      transcribed reference expansions vs the bracket engine

Exit codes: 0 = verdict computed (negative verdicts included), 2 = parse or
format error, 3 = precondition violation, 4 = internal consistency failure
(an oracle mismatch is a bug certificate, not a data error).

Reports are plain ``KEY value`` lines with deterministic ordering; ``--json``
mirrors the same key/value pairs as a JSON array.  ``--batch FILE`` runs one
verb over many inputs (one path per line), writing each report as soon as
it is made, in listed order; an error there names its input, as
``error: <path>: <message>``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import case_tables
from .crfields import load_field, obstruction, verify_witness
from .errors import (
    ConsistencyError,
    CrflatError,
    DegenerateSliceError,
    ParseError,
    PreconditionError,
)
from .flatten import flatten_to_order, uniqueness_nullspace
from .germ import load_germ, save_germ, save_kernel
from .numeric import GaussianRational
from .quadratic import (
    bishop_slice,
    coarse_b_class,
    cr_singular_linearization,
    elliptic_candidates,
    is_hermitianizable,
    recognize_pair,
)
from .series import exp_from_bracket, format_term_lines, load_series, read_text, term_line

DEFAULT_TRUNC = 8

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_INTERNAL = 4


class Report:
    """Ordered key/value lines with a JSON mirror."""

    def __init__(self):
        self.lines: list[tuple[str, str]] = []

    def add(self, key: str, value) -> None:
        self.lines.append((key, str(value)))

    def text(self) -> str:
        return "\n".join(f"{k} {v}" for k, v in self.lines) + "\n"

    def json(self) -> str:
        return json.dumps([[k, v] for k, v in self.lines], indent=None) + "\n"


def _bool(x) -> str:
    return "true" if x else "false"


def _exponent_text(e) -> str:
    return " ".join(str(k) for k in e)


def _load_pair(path):
    germ = load_germ(path)
    return germ, germ.quadratic_pair()


def _write_into(directory: str, name: str, save, obj) -> str:
    """Save ``obj`` as ``directory/name``, creating the directory if needed."""
    path = os.path.join(directory, name)
    try:
        os.makedirs(directory, exist_ok=True)
        save(obj, path)
    except OSError as exc:
        raise ParseError(f"cannot write {exc.filename or path}: {exc.strerror or exc}") from exc
    return path


def _parse_direction(text: str):
    parts = [p for p in text.split(",") if p.strip()]
    if not parts:
        raise ParseError("empty direction")
    return tuple(GaussianRational.parse(p) for p in parts)


def _parse_params(text: str) -> dict:
    out = {}
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise ParseError(f"bad parameter assignment {chunk!r}")
        key, val = chunk.split("=", 1)
        out[key.strip()] = GaussianRational.parse(val)
    return out


# -- verb implementations -----------------------------------------------------------


def run_classify(path: str, args) -> Report:
    germ, pair = _load_pair(path)
    rep = Report()
    rep.add("INPUT", path)
    rep.add("VARS", germ.n)
    rep.add("A", pair.A.to_literal())
    rep.add("B", pair.B.to_literal())
    verdict = is_hermitianizable(pair)
    rep.add("HERMITIANIZABLE", _bool(verdict.flattenable))
    rep.add("LAMBDA", verdict.lam if verdict.lam is not None else "-")
    rep.add("MU", verdict.mu_witness if verdict.mu_witness is not None else "-")
    if verdict.hermitian_b is not None:
        rep.add("HERMITIAN_B", verdict.hermitian_b.to_literal())
    if germ.n == 2:
        cls = coarse_b_class(pair)
        rep.add("B_CLASS", cls.tag.name)
        rep.add("B_FAMILY", cls.tag.value)
        rep.add("COSQUARE_SPECTRUM", cls.cosquare_spectrum)
        rec = recognize_pair(pair)
        if rec is None:
            rep.add("RECOGNIZED", "-")
        else:
            case, params = rec
            detail = " ".join(f"{k}={v}" for k, v in sorted(params.items()))
            rep.add("RECOGNIZED", f"{case} {detail}".strip())
    return rep


def run_nonminimal(path: str, args) -> Report:
    germ = load_germ(path)
    report = obstruction(germ, args.order)
    rep = Report()
    rep.add("INPUT", path)
    rep.add("ORDER", args.order)
    for line in format_term_lines(report.residual):
        rep.add("RESIDUAL_TERM", line)
    if report.first_nonzero is None:
        rep.add("RESIDUAL_ZERO_TO", args.order)
    else:
        e, c = report.first_nonzero
        rep.add("FIRST_OBSTRUCTION", f"{_exponent_text(e)} {c}")
    return rep


def run_witness(path: str, args) -> Report:
    germ = load_germ(path)
    field = load_field(args.field)
    chi = load_series(args.chi) if args.chi else None
    w = verify_witness(germ, field, chi)
    rep = Report()
    rep.add("INPUT", path)
    parts = [
        f"L(h)={'0' if w.annihilates_h else 'NONZERO'}",
        f"L(conj h)={'0' if w.annihilates_h_conj else 'NONZERO'}",
    ]
    if w.annihilates_chi is not None:
        parts.append(f"L(chi)={'0' if w.annihilates_chi else 'NONZERO'}")
    rep.add("WITNESS", " ".join(parts))
    rep.add("ALL_ANNIHILATED", _bool(w.all_true()))
    return rep


def run_bishop(path: str, args) -> Report:
    if args.c is None and args.search is None:
        raise PreconditionError("bishop needs --c and/or --search")
    germ, pair = _load_pair(path)
    rep = Report()
    rep.add("INPUT", path)
    if args.c is not None:
        c = _parse_direction(args.c)
        rep.add("C", ", ".join(str(x) for x in c))
        try:
            sl = bishop_slice(pair, c)
            rep.add("ALPHA", sl.alpha)
            rep.add("GAMMA", sl.gamma)
            rep.add("LAMBDA_SQ", sl.lambda_sq)
            rep.add("ELLIPTIC", _bool(sl.elliptic))
        except DegenerateSliceError:
            rep.add("SLICE", "degenerate")
    if args.search is not None:
        for cand in elliptic_candidates(pair, args.search):
            if cand.direction is None:
                rep.add("CANDIDATE", f"{cand.origin} {cand.note}")
                continue
            cdesc = ", ".join(str(x) for x in cand.direction)
            if cand.report is None:
                rep.add("CANDIDATE", f"{cand.origin} ({cdesc}) degenerate")
            else:
                rep.add(
                    "CANDIDATE",
                    f"{cand.origin} ({cdesc}) elliptic={_bool(cand.report.elliptic)} "
                    f"lambda_sq={cand.report.lambda_sq}",
                )
    return rep


def run_jacobian(path: str, args) -> Report:
    germ = load_germ(path)
    lin = cr_singular_linearization(germ)
    rep = Report()
    rep.add("INPUT", path)
    rep.add("MATRIX", lin.matrix.to_literal())
    rep.add("RANK", lin.rank)
    rep.add("CR_SINGULAR_DIM_BOUND", lin.dim_bound)
    return rep


def run_flatten(path: str, args) -> Report:
    germ = load_germ(path)
    result = flatten_to_order(germ, args.order)
    rep = Report()
    rep.add("INPUT", path)
    for step in result.steps:
        rep.add("DEGREE", step.m)
        if step.kernel is not None:
            for (alpha, j), c in step.kernel.items():
                rep.add("KERNEL_TERM", term_line((*alpha, j), c))
            if args.emit:
                kpath = _write_into(args.emit, f"degree{step.m}.kernel", save_kernel, step.kernel)
                rep.add("KERNEL_FILE", kpath)
        rep.add("FUNDAMENTAL_OK", _bool(step.fundamental_ok))
        if step.normalized_zero is None:
            rep.add("H_NORMALIZED_ZERO", "unsolvable")
            rep.add("NOTE", step.note)
        else:
            rep.add("H_NORMALIZED_ZERO", _bool(step.normalized_zero))
        if step.remainder is not None:
            for idx, c in step.remainder.items():
                rep.add("H'", term_line(exp_from_bracket(*idx), c))
    if result.ok:
        rep.add("FLATTENED_TO", result.reached)
        if args.emit:
            rep.add("FINAL_GERM", _write_into(args.emit, "final.germ", save_germ, result.final))
    else:
        rep.add("OBSTRUCTION_AT", result.obstruction_degree)
    return rep


def run_unique_check(args) -> Report:
    dim, _basis = uniqueness_nullspace(args.m)
    rep = Report()
    rep.add("M", args.m)
    rep.add("NULLSPACE_DIM", dim)
    return rep


def run_case_oracle(args) -> Report:
    from .crfields import obstruction_series

    params = _parse_params(args.params or "")
    case = case_tables.normalize_case_id(args.case)
    germ = case_tables.germ_for_case(case, params, trunc=DEFAULT_TRUNC)
    oracle = case_tables.reference_series(case, params)
    engine = dict(zip(("X1", "X2", "Y1", "Y2"), obstruction_series(germ, 2)))
    rep = Report()
    rep.add("CASE", case)
    rep.add("PARAMS", "; ".join(f"{k}={v}" for k, v in sorted(params.items())))
    mismatches = []
    for name in ("X1", "X2", "Y1", "Y2"):
        got = engine[name].homogeneous_part(2)
        want = oracle[name]
        if got != want:
            keys = sorted(got.nums.keys() | want.nums.keys())
            for e in keys:
                gv, wv = got.coeff(e), want.coeff(e)
                if gv != wv:
                    mismatches.append((name, e, gv, wv))
    rep.add("ORACLE_MATCH", _bool(not mismatches))
    for name, e, gv, wv in mismatches:
        rep.add("DIFF", f"{name} {_exponent_text(e)} engine={gv} oracle={wv}")
    if mismatches:
        raise OracleMismatch(rep)
    return rep


class OracleMismatch(ConsistencyError):
    def __init__(self, report: Report):
        super().__init__("engine disagrees with the transcribed expansions")
        self.report = report


# -- dispatch ------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="crflat", description=__doc__.splitlines()[0])
    json_help = "emit the JSON mirror of the report"
    p.add_argument("--json", action="store_true", help=json_help)
    # --json may also follow the verb; a suppressed default keeps a verb that
    # lacks it from resetting the flag given before the verb
    after_verb = argparse.ArgumentParser(add_help=False)
    after_verb.add_argument(
        "--json", action="store_true", default=argparse.SUPPRESS, help=json_help
    )
    sub = p.add_subparsers(dest="verb", required=True)

    def add_verb(name, help):
        return sub.add_parser(name, help=help, parents=[after_verb])

    def add_input(sp):
        sp.add_argument("germ", nargs="?", help="germ file")
        sp.add_argument("--batch", help="file listing one germ path per line")

    sp = add_verb("classify", help="quadratic-level classification")
    add_input(sp)

    sp = add_verb("nonminimal-check", help="bracket identity residual")
    add_input(sp)
    sp.add_argument("--order", type=int, required=True)

    sp = add_verb("witness", help="verify a tangent-field witness")
    add_input(sp)
    sp.add_argument("--field", required=True)
    sp.add_argument("--chi")

    sp = add_verb("bishop", help="slice invariants and elliptic directions")
    add_input(sp)
    sp.add_argument("--c", help="direction, e.g. '1, -4/3'")
    sp.add_argument("--search", type=int, nargs="?", const=6, default=None,
                    help="grid-search bound (default 6 when given)")

    sp = add_verb("jacobian", help="CR-singular-locus linearization")
    add_input(sp)

    sp = add_verb("flatten", help="order-by-order formal flattening")
    add_input(sp)
    sp.add_argument("--order", type=int, required=True)
    sp.add_argument("--emit", help="directory for kernel and final-germ files")

    sp = add_verb("unique-check", help="uniqueness-system kernel dimension")
    sp.add_argument("--m", type=int, required=True)

    sp = add_verb("case-oracle", help="reference expansions vs engine")
    sp.add_argument("--case", required=True)
    sp.add_argument("--params", help="e.g. 'a=1; b=1; d=1; u=3/5+4/5 i'")
    return p


_GERM_VERBS = {
    "classify": run_classify,
    "nonminimal-check": run_nonminimal,
    "witness": run_witness,
    "bishop": run_bishop,
    "jacobian": run_jacobian,
    "flatten": run_flatten,
}


def _emit(report: Report, as_json: bool) -> str:
    return report.json() if as_json else report.text()


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out = sys.stdout
    source = ""  # in a batch, the input an error message names
    try:
        for flag in ("order", "search"):
            value = getattr(args, flag, None)
            if value is not None and value < 0:
                raise ParseError(f"--{flag} needs a nonnegative bound, got {value}")
        if args.verb == "unique-check":
            out.write(_emit(run_unique_check(args), args.json))
            return EXIT_OK
        if args.verb == "case-oracle":
            try:
                out.write(_emit(run_case_oracle(args), args.json))
                return EXIT_OK
            except OracleMismatch as exc:
                out.write(_emit(exc.report, args.json))
                sys.stderr.write(f"error: {exc}\n")
                return EXIT_INTERNAL
        fn = _GERM_VERBS[args.verb]
        if args.batch:
            paths = [ln.strip() for ln in read_text(args.batch).splitlines() if ln.strip()]
            for pth in paths:
                source = f"{pth}: "
                out.write(_emit(fn(pth, args), args.json))
            return EXIT_OK
        if not args.germ:
            sys.stderr.write("error: need a germ file or --batch\n")
            return EXIT_PARSE
        out.write(_emit(fn(args.germ, args), args.json))
        return EXIT_OK
    except CrflatError as exc:
        sys.stderr.write(f"error: {source}{exc}\n")
        if isinstance(exc, ParseError):
            return EXIT_PARSE
        return EXIT_INTERNAL if isinstance(exc, ConsistencyError) else EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
