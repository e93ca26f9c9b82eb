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
(an oracle mismatch is a bug certificate, not a data error, and its report
is written before the error line).  Malformed arguments exit 2 too:
an integer option outside the integer grammar of ``crflat.numeric``
(``--m 1_0``), a negative bound, a literal with a space inside a number
(``--c "1 2, i"``), a ``--c`` direction with an empty entry, and a
``--params`` name that is empty or given twice.  A ``--params`` name that
the case does not take exits 3, as a missing one does.

Reports are plain ``KEY value`` lines with deterministic ordering; ``--json``
mirrors the same key/value pairs as a JSON array.  The first six verbs take a
germ file, or ``--batch FILE`` to run over many inputs (one path per line),
but not both; a batch writes each report as soon as it is made, in listed
order.  A germ verb's report starts with its ``INPUT`` line, and an error in
a batch names its input, as ``error: <path>: <message>``.  The last two take
no germ and write one report.

One parser, built at import, serves every call of ``main``: each subparser
carries its verb's ``run(report, path, args)``, which fills the report that
``main`` starts.  The verbs reach ``case_tables``, ``crfields``, ``flatten``
and ``quadratic`` through their lazily registered modules (see ``crflat``),
so importing this module runs none of the four, and each verb runs only the
modules it uses.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import case_tables, crfields, flatten, quadratic  # each runs at its verb's first use
from .errors import (
    ConsistencyError,
    CrflatError,
    DegenerateSliceError,
    ParseError,
    PreconditionError,
)
from .germ import load_germ, save_germ, save_kernel
from .numeric import GaussianRational, _part_texts, integer
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
    if not text.replace(",", "").strip():
        raise ParseError("empty direction")
    parts = text.split(",")
    if not all(p.strip() for p in parts):
        raise ParseError(f"empty entry in direction {text!r}")
    return tuple(GaussianRational.parse(p) for p in parts)


def _integer(text: str) -> int:
    """An integer option's value; argparse reports a bad one as it reports a non-int (exit 2)."""
    try:
        return integer(text)
    except ParseError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _parse_params(text: str) -> dict:
    out = {}
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise ParseError(f"bad parameter assignment {chunk!r}")
        key, val = chunk.split("=", 1)
        key = key.strip()
        if not key:
            raise ParseError(f"empty parameter name in {chunk!r}")
        if key in out:
            raise ParseError(f"parameter {key!r} given twice")
        out[key] = GaussianRational.parse(val)
    return out


# -- verb implementations -----------------------------------------------------------


def run_classify(rep: Report, path: str, args) -> None:
    germ, pair = _load_pair(path)
    rep.add("VARS", germ.n)
    rep.add("A", pair.A.to_literal())
    rep.add("B", pair.B.to_literal())
    verdict = quadratic.is_hermitianizable(pair)
    rep.add("HERMITIANIZABLE", _bool(verdict.flattenable))
    rep.add("LAMBDA", verdict.lam if verdict.lam is not None else "-")
    rep.add("MU", verdict.mu_witness if verdict.mu_witness is not None else "-")
    if verdict.hermitian_b is not None:
        rep.add("HERMITIAN_B", verdict.hermitian_b.to_literal())
    if germ.n == 2:
        cls = quadratic.coarse_b_class(pair)
        rep.add("B_CLASS", cls.tag.name)
        rep.add("B_FAMILY", cls.tag.value)
        rep.add("COSQUARE_SPECTRUM", cls.cosquare_spectrum)
        rec = quadratic.recognize_pair(pair)
        if rec is None:
            rep.add("RECOGNIZED", "-")
        else:
            case, params = rec
            detail = " ".join(f"{k}={v}" for k, v in sorted(params.items()))
            rep.add("RECOGNIZED", f"{case} {detail}".strip())


def run_nonminimal(rep: Report, path: str, args) -> None:
    germ = load_germ(path)
    report = crfields.obstruction(germ, args.order)
    rep.add("ORDER", args.order)
    for line in format_term_lines(report.residual):
        rep.add("RESIDUAL_TERM", line)
    if report.first_nonzero is None:
        rep.add("RESIDUAL_ZERO_TO", args.order)
    else:
        e, c = report.first_nonzero
        rep.add("FIRST_OBSTRUCTION", f"{_exponent_text(e)} {c}")


def run_witness(rep: Report, path: str, args) -> None:
    germ = load_germ(path)
    field = crfields.load_field(args.field)
    chi = load_series(args.chi) if args.chi else None
    w = crfields.verify_witness(germ, field, chi)
    parts = [
        f"L(h)={'0' if w.annihilates_h else 'NONZERO'}",
        f"L(conj h)={'0' if w.annihilates_h_conj else 'NONZERO'}",
    ]
    if w.annihilates_chi is not None:
        parts.append(f"L(chi)={'0' if w.annihilates_chi else 'NONZERO'}")
    rep.add("WITNESS", " ".join(parts))
    rep.add("ALL_ANNIHILATED", _bool(w.all_true()))


def run_bishop(rep: Report, path: str, args) -> None:
    if args.c is None and args.search is None:
        raise PreconditionError("bishop needs --c and/or --search")
    germ, pair = _load_pair(path)
    if args.c is not None:
        c = _parse_direction(args.c)
        rep.add("C", ", ".join(str(x) for x in c))
        try:
            sl = quadratic.bishop_slice(pair, c)
            rep.add("ALPHA", sl.alpha)
            rep.add("GAMMA", sl.gamma)
            rep.add("LAMBDA_SQ", sl.lambda_sq)
            rep.add("ELLIPTIC", _bool(sl.elliptic))
        except DegenerateSliceError:
            rep.add("SLICE", "degenerate")
    if args.search is not None:
        for cand in quadratic.elliptic_candidates(pair, args.search):
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


def run_jacobian(rep: Report, path: str, args) -> None:
    germ = load_germ(path)
    lin = quadratic.cr_singular_linearization(germ)
    rep.add("MATRIX", lin.matrix.to_literal())
    rep.add("RANK", lin.rank)
    rep.add("CR_SINGULAR_DIM_BOUND", lin.dim_bound)


def run_flatten(rep: Report, path: str, args) -> None:
    germ = load_germ(path)
    result = flatten.flatten_to_order(germ, args.order)
    for step in result.steps:
        rep.add("DEGREE", step.m)
        if step.kernel is not None:
            for (alpha, j), c in step.kernel.items():
                rep.add("KERNEL_TERM", term_line((*alpha, j), *_part_texts(c)))
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
            for idx, c in sorted(step.remainder.items()):
                rep.add("H'", term_line(exp_from_bracket(*idx), *_part_texts(c)))
    if result.ok:
        rep.add("FLATTENED_TO", result.reached)
        if args.emit:
            rep.add("FINAL_GERM", _write_into(args.emit, "final.germ", save_germ, result.final))
    else:
        rep.add("OBSTRUCTION_AT", result.obstruction_degree)


def run_unique_check(rep: Report, _path, args) -> None:
    dim = flatten.uniqueness_nullspace(args.m)
    rep.add("M", args.m)
    rep.add("NULLSPACE_DIM", dim)


def run_case_oracle(rep: Report, _path, args) -> None:
    params = _parse_params(args.params or "")
    case = case_tables.normalize_case_id(args.case)
    germ = case_tables.germ_for_case(case, params, trunc=DEFAULT_TRUNC)
    oracle = case_tables.reference_series(case, params)
    engine = dict(zip(("X1", "X2", "Y1", "Y2"), crfields.obstruction_series(germ, 2)))
    rep.add("CASE", case)
    rep.add("PARAMS", "; ".join(f"{k}={v}" for k, v in sorted(params.items())))
    mismatches = []
    for name in ("X1", "X2", "Y1", "Y2"):
        got = engine[name].homogeneous_part(2)
        want = oracle[name]
        for e in sorted((got - want).nums):
            mismatches.append((name, e, got.coeff(e), want.coeff(e)))
    rep.add("ORACLE_MATCH", _bool(not mismatches))
    for name, e, gv, wv in mismatches:
        rep.add("DIFF", f"{name} {_exponent_text(e)} engine={gv} oracle={wv}")
    if mismatches:
        raise OracleMismatch(rep)


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

    def add_verb(name, run, help, germ=True):
        sp = sub.add_parser(name, help=help, parents=[after_verb])
        sp.set_defaults(run=run)
        if germ:
            sp.add_argument("germ", nargs="?", help="germ file")
            sp.add_argument("--batch", help="file listing one germ path per line")
        return sp

    add_verb("classify", run_classify, help="quadratic-level classification")

    sp = add_verb("nonminimal-check", run_nonminimal, help="bracket identity residual")
    sp.add_argument("--order", type=_integer, required=True)

    sp = add_verb("witness", run_witness, help="verify a tangent-field witness")
    sp.add_argument("--field", required=True)
    sp.add_argument("--chi")

    sp = add_verb("bishop", run_bishop, help="slice invariants and elliptic directions")
    sp.add_argument("--c", help="direction, e.g. '1, -4/3'")
    sp.add_argument("--search", type=_integer, nargs="?", const=6, default=None,
                    help="grid-search bound (default 6 when given)")

    add_verb("jacobian", run_jacobian, help="CR-singular-locus linearization")

    sp = add_verb("flatten", run_flatten, help="order-by-order formal flattening")
    sp.add_argument("--order", type=_integer, required=True)
    sp.add_argument("--emit", help="directory for kernel and final-germ files")

    sp = add_verb("unique-check", run_unique_check, germ=False,
                  help="uniqueness-system kernel dimension")
    sp.add_argument("--m", type=_integer, required=True)

    sp = add_verb("case-oracle", run_case_oracle, germ=False,
                  help="reference expansions vs engine")
    sp.add_argument("--case", required=True)
    sp.add_argument("--params", help="e.g. 'a=1; b=1; d=1; u=3/5+4/5 i'")
    return p


PARSER = build_parser()


def _emit(report: Report, as_json: bool) -> str:
    return report.json() if as_json else report.text()


def _inputs(args) -> list:
    """The germ paths a verb runs on, one report each; [None] for a verb without a germ."""
    if "germ" not in args:
        return [None]
    if args.batch and args.germ:
        raise ParseError("give a germ file or --batch, not both")
    if args.batch:
        return [ln.strip() for ln in read_text(args.batch).splitlines() if ln.strip()]
    if not args.germ:
        raise ParseError("need a germ file or --batch")
    return [args.germ]


def main(argv=None) -> int:
    args = PARSER.parse_args(argv)
    out = sys.stdout
    source = ""  # in a batch, the input an error message names
    try:
        for flag in ("order", "search"):
            value = getattr(args, flag, None)
            if value is not None and value < 0:
                raise ParseError(f"--{flag} needs a nonnegative bound, got {value}")
        for path in _inputs(args):
            rep = Report()
            if path is not None:
                rep.add("INPUT", path)
                source = f"{path}: " if args.batch else ""
            args.run(rep, path, args)
            out.write(_emit(rep, args.json))
        return EXIT_OK
    except CrflatError as exc:
        if isinstance(exc, OracleMismatch):
            out.write(_emit(exc.report, args.json))
        sys.stderr.write(f"error: {source}{exc}\n")
        if isinstance(exc, ParseError):
            return EXIT_PARSE
        return EXIT_INTERNAL if isinstance(exc, ConsistencyError) else EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
