import argparse
import io
import json
import os
import subprocess
import sys

from contextlib import redirect_stdout
from fractions import Fraction

import pytest

import crflat.flatten as flatten_mod
from crflat import GaussianRational, Series, case_tables, linalg, quadratic
from crflat.cli import main
from crflat.germ import dumps_germ, load_germ

from conftest import FIXTURES

SRC = str(FIXTURES.parent / "src")


def run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def fx(name):
    return str(FIXTURES / name)


def test_classify_example31():
    code, out = run_cli("classify", fx("ex31.germ"))
    assert code == 0
    assert "HERMITIANIZABLE false" in out
    assert "B_CLASS RANK1_NONHERM" in out
    assert "RECOGNIZED 4c b=1/2" in out


def test_classify_parabolic():
    code, out = run_cli("classify", fx("parabolic.germ"))
    assert code == 0
    assert "HERMITIANIZABLE true" in out
    assert "B_CLASS HERM_RANK2" in out
    assert "RECOGNIZED 5 lambda1=1/2 lambda2=1/2" in out


def test_witness_fixtures():
    for name in ("ex31", "ex32", "ex33"):
        code, out = run_cli(
            "witness", fx(f"{name}.germ"), "--field", fx(f"{name}.field"),
            "--chi", fx(f"{name}.chi"),
        )
        assert code == 0
        assert "L(h)=0 L(conj h)=0 L(chi)=0" in out
        assert "ALL_ANNIHILATED true" in out


def test_nonminimal_check():
    code, out = run_cli("nonminimal-check", fx("ex31.germ"), "--order", "6")
    assert code == 0
    assert "RESIDUAL_ZERO_TO 6" in out


def test_nonminimal_check_reproduces_the_case_1a_certificate(monkeypatch):
    # the one fixture with a nonzero residual, against its committed report
    monkeypatch.chdir(FIXTURES.parent)
    code, out = run_cli("nonminimal-check", "fixtures/case_1a.germ", "--order", "6")
    assert code == 0
    assert out == (FIXTURES / "case_1a.order6.report").read_text()
    assert "FIRST_OBSTRUCTION 0 0 0 4 -1536/125+448/125 i" in out


@pytest.mark.parametrize(
    "name, last",
    [
        ("sheared", ["H_NORMALIZED_ZERO true", "FLATTENED_TO 8"]),
        (
            "sheared_inconsistent",
            ["H_NORMALIZED_ZERO unsolvable", "NOTE normalization system inconsistent at degree 6"],
        ),
        ("nongraph", ["FUNDAMENTAL_OK false", "H' 1 0 2 0 1 0", "OBSTRUCTION_AT 3"]),
    ],
)
def test_flatten_reproduces_the_golden_reports(monkeypatch, name, last):
    # a quadric sheared at weights 3..8, a copy with one coefficient moved
    # off the normalizable germs, and the quadric plus an imaginary cubic that
    # fails the first-order condition, against their committed order-8 reports
    monkeypatch.chdir(FIXTURES.parent)
    code, out = run_cli("flatten", f"fixtures/{name}.germ", "--order", "8")
    assert code == 0
    assert out == (FIXTURES / f"{name}.order8.report").read_text()
    lines = out.splitlines()
    for line in last:
        assert line in lines


@pytest.mark.parametrize(
    "argv",
    [
        ("flatten", fx("sheared.germ"), "--order", "8"),
        ("unique-check", "--m", "5"),
        ("case-oracle", "--case", "1a", "--params", "a=1; b=1; d=1; u=3/5+4/5 i"),
    ],
    ids=["flatten", "unique-check", "case-oracle"],
)
def test_json_may_precede_or_follow_the_verb(argv):
    verb, rest = argv[0], list(argv[1:])
    before = run_cli("--json", verb, *rest)
    assert before[0] == 0 and json.loads(before[1].splitlines()[0])
    assert run_cli(verb, *rest, "--json") == before
    assert run_cli(verb, "--json", *rest) == before
    assert run_cli("--json", verb, *rest, "--json") == before
    plain = run_cli(verb, *rest)
    assert plain[0] == 0 and plain[1] != before[1]


def test_bishop_direction_and_search():
    code, out = run_cli("bishop", fx("parabolic.germ"), "--c", "1, i")
    assert code == 0
    assert "ELLIPTIC true" in out and "LAMBDA_SQ 0" in out
    code, out = run_cli("bishop", fx("m1.germ"), "--search", "6")
    assert code == 0
    assert "CANDIDATE" not in out  # nothing elliptic for the split balanced pair


def test_bishop_search_zero_still_searches(tmp_path):
    code, out = run_cli("bishop", fx("parabolic.germ"), "--search", "0")
    assert code == 0
    assert "CANDIDATE recipe:5 (1, 1 i) elliptic=true" in out
    # A = diag(1/2, 0): the empty grid leaves the (0, 1) direction, which is elliptic
    germ = tmp_path / "axis.germ"
    germ.write_text("vars 2\norder 2\n2 0 0 0 1/2 0\n1 0 1 0 1 0\n0 1 0 1 1 0\n0 0 2 0 1/2 0\n")
    code, out = run_cli("bishop", str(germ), "--search", "0")
    assert code == 0
    assert "CANDIDATE search (0, 1) elliptic=true lambda_sq=0" in out


def test_bishop_search_prints_an_irrational_recipe_candidate(tmp_path):
    # A = diag(1/2, 1), B = diag(1, -1): case 6a with sqrt(l1/l2) irrational
    germ = tmp_path / "6a.germ"
    germ.write_text(
        "vars 2\norder 2\n2 0 0 0 1/2 0\n0 0 2 0 1/2 0\n0 2 0 0 1 0\n0 0 0 2 1 0\n"
        "1 0 1 0 1 0\n0 1 0 1 -1 0\n"
    )
    code, out = run_cli("bishop", str(germ), "--search", "2")
    assert code == 0
    assert out.splitlines() == [
        f"INPUT {germ}",
        "CANDIDATE recipe:6a irrational candidate (1, i sqrt(l1/l2))",
        "CANDIDATE search (1, -1/2 i) elliptic=true lambda_sq=1/9",
    ]


def test_bishop_search_exhausts_the_bound_16_grid():
    # no direction (1, x + i y) with x, y in the bound-16 grid, nor (0, 1), is elliptic
    code, out = run_cli("bishop", fx("m1.germ"), "--search", "16")
    assert code == 0
    assert out == f"INPUT {fx('m1.germ')}\n"


def test_bishop_search_hit_not_confirmed_by_its_slice(monkeypatch, capsys):
    flat = quadratic.SliceReport(GaussianRational(1), GaussianRational(1), Fraction(1), False)
    monkeypatch.setattr(quadratic, "bishop_slice", lambda pair, c: flat)
    code, out = run_cli("bishop", fx("parabolic.germ"), "--search", "2")
    err = capsys.readouterr().err
    assert code == 4 and out == ""
    assert err == "error: grid direction (1, -2-2 i) has a negative quartic " \
                  "but its slice is not elliptic\n"


def test_bishop_negative_search_bound_is_a_parse_error():
    code, out = run_cli("bishop", fx("parabolic.germ"), "--search", "-1")
    assert code == 2 and out == ""


def test_bishop_degenerate_slice_is_precondition():
    code, out = run_cli("bishop", fx("ex33.germ"), "--c", "1, 0")
    assert code == 0  # report computed; the slice line carries the verdict
    assert "SLICE degenerate" in out


def test_jacobian_fixture():
    code, out = run_cli("jacobian", fx("case_c.germ"))
    assert code == 0
    assert "MATRIX [[1, 0, 0, 1/3], [0, 1/3, -1, 0], [0, 1, 1/3, 0], [1/3, 0, 0, -1]]" in out
    assert "RANK 4" in out


def test_flatten_and_emit(tmp_path):
    code, out = run_cli("flatten", fx("parabolic.germ"), "--order", "5",
                        "--emit", str(tmp_path / "out"))
    assert code == 0
    assert "FLATTENED_TO 5" in out
    final = load_germ(tmp_path / "out" / "final.germ")
    assert final == load_germ(fx("parabolic.germ"))


def test_flatten_emits_the_golden_final_germ(tmp_path):
    # a quadric sheared at weights 3..9, flattened to order 7: the final germ
    # keeps fractional coefficients from degree 8 on
    code, out = run_cli("flatten", fx("sheared9.germ"), "--order", "7", "--emit", str(tmp_path))
    assert code == 0 and "FLATTENED_TO 7" in out
    golden = (FIXTURES / "sheared9.order7.final.germ").read_bytes()
    assert (tmp_path / "final.germ").read_bytes() == golden and b"/" in golden


def test_flatten_emits_the_golden_final_germ_at_depth(tmp_path):
    # a quadric sheared at weights 5 and 6 by one monomial each, truncated at
    # 20: flattening to 18 takes kernels at 15 weights with w-powers up to
    # w^6, and reads R^2, R^3 and the square R^4 above their lowest degrees
    code, out = run_cli("flatten", fx("cascade20.germ"), "--order", "18", "--emit", str(tmp_path))
    assert code == 0 and "FLATTENED_TO 18" in out
    golden = (FIXTURES / "cascade20.order18.final.germ").read_bytes()
    assert (tmp_path / "final.germ").read_bytes() == golden
    # two header lines, the quadric's six terms, then terms of degrees 19 and 20
    assert len(golden.splitlines()) > 8


def test_flatten_reproduces_the_golden_order_9_report(monkeypatch):
    # the quadric sheared at weights 3..9, flattened through every degree of
    # its truncation
    monkeypatch.chdir(FIXTURES.parent)
    code, out = run_cli("flatten", "fixtures/sheared9.germ", "--order", "9")
    assert code == 0 and out.endswith("FLATTENED_TO 9\n")
    assert out == (FIXTURES / "sheared9.order9.report").read_text()


def test_flatten_reproduces_the_golden_order_18_report(monkeypatch):
    # the quadric sheared at weights 17 and 18, whose normalization factors
    # take both primes
    monkeypatch.chdir(FIXTURES.parent)
    code, out = run_cli("flatten", "fixtures/sheared18.germ", "--order", "18")
    assert code == 0 and out.endswith("FLATTENED_TO 18\n")
    assert out == (FIXTURES / "sheared18.order18.report").read_text()


@pytest.mark.parametrize(
    "golden, argv",
    [
        ("sheared9.order9.kernels",
         ["flatten", "fixtures/sheared9.germ", "--order", "9", "--emit", "{emit}"]),
        ("ex31.classify.report", ["classify", "fixtures/ex31.germ"]),
        ("case_c.jacobian.report", ["jacobian", "fixtures/case_c.germ"]),
        ("ex33.witness.report",
         ["witness", "fixtures/ex33.germ", "--field", "fixtures/ex33.field",
          "--chi", "fixtures/ex33.chi"]),
        ("parabolic.bishop.report",
         ["bishop", "fixtures/parabolic.germ", "--c", "1, i", "--search", "6"]),
        # a residual with integer coefficients throughout
        ("screen_s02.order6.report",
         ["nonminimal-check", "fixtures/screen_s02.germ", "--order", "6"]),
        # an obstruction at the top degree, where the packing base T + 1 is
        # tightest, from a term whose mirror the germ lacks
        ("topdegree.order8.report", ["flatten", "fixtures/topdegree.germ", "--order", "8"]),
    ],
    ids=lambda v: v if isinstance(v, str) else None,
)
def test_writers_reproduce_their_goldens(monkeypatch, tmp_path, golden, argv):
    # the emitted kernel files, concatenated in weight order, and the README's
    # example reports, against their committed copies
    monkeypatch.chdir(FIXTURES.parent)
    code, out = run_cli(*(a.format(emit=tmp_path) for a in argv))
    assert code == 0
    if "--emit" in argv:
        kernels = sorted(tmp_path.glob("degree*.kernel"), key=lambda p: int(p.stem[6:]))
        out = "".join(p.read_text() for p in kernels)
    assert out == (FIXTURES / golden).read_text()


def test_flatten_emit_into_unwritable_path(tmp_path, capsys):
    blocker = tmp_path / "taken"
    blocker.write_text("a regular file\n")
    for target in (blocker, blocker / "sub"):
        code, out = run_cli("flatten", fx("parabolic.germ"), "--order", "4",
                            "--emit", str(target))
        err = capsys.readouterr().err
        assert code == 2 and out == ""
        assert err.startswith("error: cannot write ") and err.count("\n") == 1
    assert blocker.read_text() == "a regular file\n"


def test_unique_check():
    code, out = run_cli("unique-check", "--m", "5")
    assert code == 0
    assert "NULLSPACE_DIM 0" in out


def test_case_oracle_match_and_json():
    code, out = run_cli("case-oracle", "--case", "1a",
                        "--params", "a=1; b=1; d=1; u=3/5+4/5 i")
    assert code == 0
    assert "ORACLE_MATCH true" in out
    code, jout = run_cli("--json", "case-oracle", "--case", "1a",
                         "--params", "a=1; b=1; d=1; u=3/5+4/5 i")
    assert code == 0
    data = json.loads(jout)
    assert ["ORACLE_MATCH", "true"] in data


def test_case_oracle_mismatch_prints_the_report_and_exits_4(monkeypatch, capsys):
    reference = case_tables.reference_series

    def off_by_one(case, params):
        out = reference(case, params)
        x1 = out["X1"]
        out["X1"] = x1 + Series(2, x1.trunc, {(2, 0, 0, 0): 1})
        return out

    monkeypatch.setattr(case_tables, "reference_series", off_by_one)
    code, out = run_cli("case-oracle", "--case", "1a",
                        "--params", "a=1; b=1; d=1; u=3/5+4/5 i")
    assert code == 4
    assert out == (
        "CASE 1a\n"
        "PARAMS a=1; b=1; d=1; u=3/5+4/5 i\n"
        "ORACLE_MATCH false\n"
        "DIFF X1 2 0 0 0 engine=0 oracle=1\n"
    )
    assert capsys.readouterr().err == "error: engine disagrees with the transcribed expansions\n"


def test_a_singular_normalization_system_exits_4_not_as_an_obstruction(monkeypatch, capsys):
    # the system of degree 5 without its first column: consistent for the
    # flat quadric, but with a free unknown, which full rank rules out
    build = flatten_mod._normalization_matrix
    unknowns, constraints, mat = build(5)
    rows = [{j: v for j, v in row.items() if j} for row in mat.entries]
    singular = (unknowns, constraints, linalg.SparseMatrix(rows, mat.cols))
    monkeypatch.setattr(flatten_mod, "_normalization_matrix",
                        lambda m: singular if m == 5 else build(m))
    code, out = run_cli("flatten", fx("parabolic.germ"), "--order", "8")
    assert (code, out) == (4, "")
    assert capsys.readouterr().err == "error: normalization system singular at degree 5\n"


def test_environment_does_not_change_the_truncation():
    # CRF_TRUNC_DEFAULT is not read: neither a non-integer nor a truncation
    # too short for the degree-2 series may reach a verb
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    for value in ("x", "2"):
        env["CRF_TRUNC_DEFAULT"] = value
        argvs = (["classify", fx("parabolic.germ")],
                 ["case-oracle", "--case", "1a", "--params", "a=1; b=1; d=1; u=3/5+4/5 i"])
        for argv in argvs:
            run = subprocess.run([sys.executable, "-m", "crflat.cli", *argv], env=env,
                                 capture_output=True, text=True, timeout=120)
            assert run.returncode == 0, run.stderr
        assert "ORACLE_MATCH true" in run.stdout


def test_exit_codes(capsys):
    code, _ = run_cli("classify", fx("missing.germ"))
    assert code == 2
    code, _ = run_cli("flatten", fx("ex31.germ"), "--order", "4")
    assert code == 3  # wrong quadratic part is a precondition violation
    code, _ = run_cli("nonminimal-check", fx("ex31.germ"), "--order", "99")
    assert code == 3
    code, _ = run_cli("case-oracle", "--case", "2a", "--params", "a=1; b=1; d=1; tau=1/2")
    assert code == 3  # parameter outside the case constraint
    code, _ = run_cli("unique-check", "--m", "-1")
    assert code == 3  # a degree below the uniqueness range
    capsys.readouterr()
    # case 2c pins a and d to zero: neither the germ nor the tables may read a = 1
    code, out = run_cli("case-oracle", "--case", "2c", "--params", "a=1; b=1; tau=1/2")
    assert (code, out) == (3, "")
    assert capsys.readouterr().err == "error: parameters this case does not take: a\n"
    code, out = run_cli("case-oracle", "--case", "1a",
                        "--params", "a=1; b=1; d=1; u=3/5+4/5 i; zz=7")
    assert (code, out) == (3, "")
    assert capsys.readouterr().err == "error: parameters this case does not take: zz\n"
    code, out = run_cli("case-oracle", "--case", "2c", "--params", "b=1; tau=1/2")
    assert code == 0 and "ORACLE_MATCH true" in out


def test_exit_codes_of_missing_and_malformed_arguments(capsys):
    code, out = run_cli("flatten", "--order", "4")
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == "error: need a germ file or --batch\n"
    code, out = run_cli("bishop", fx("parabolic.germ"))
    assert (code, out) == (3, "")
    assert capsys.readouterr().err == "error: bishop needs --c and/or --search\n"
    code, out = run_cli("bishop", fx("parabolic.germ"), "--c", ",")
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == "error: empty direction\n"
    code, out = run_cli("case-oracle", "--case", "1a", "--params", "a")
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == "error: bad parameter assignment 'a'\n"
    # neither a repeated parameter nor an empty direction entry is dropped quietly
    code, out = run_cli("case-oracle", "--case", "1a",
                        "--params", "a=5; a=1; b=1; d=1; u=3/5+4/5 i")
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == "error: parameter 'a' given twice\n"
    code, out = run_cli("bishop", fx("parabolic.germ"), "--c", "1,,i")
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == "error: empty entry in direction '1,,i'\n"
    # a space never joins the digits of a literal, and a parameter needs a name
    code, out = run_cli("bishop", fx("parabolic.germ"), "--c", "1 2, i")
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == "error: bad Gaussian literal '1 2'\n"
    code, out = run_cli("case-oracle", "--case", "1a", "--params", "a=1 2; b=1; d=1; u=i")
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == "error: bad Gaussian literal '1 2'\n"
    code, out = run_cli("case-oracle", "--case", "1a",
                        "--params", "=3; a=1; b=1; d=1; u=3/5+4/5 i")
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == "error: empty parameter name in '=3'\n"
    # integer options follow the integer grammar; argparse reports them as a non-int
    for argv in (("unique-check", "--m", "1_0"),
                 ("flatten", fx("parabolic.germ"), "--order", "\u0663"),
                 ("bishop", fx("parabolic.germ"), "--search", "1_0")):
        with pytest.raises(SystemExit) as info:
            run_cli(*argv)
        assert info.value.code == 2
        assert capsys.readouterr().err.endswith(
            f"error: argument {argv[-2]}: invalid int value: {argv[-1]!r}\n")


def test_the_parser_is_built_once_per_process(monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for argv in (
        ("classify", fx("ex31.germ")),
        ("--json", "jacobian", fx("case_c.germ")),
        ("unique-check", "--m", "3"),
        ("case-oracle", "--case", "1a", "--params", "a=1; b=1; d=1; u=3/5+4/5 i"),
        ("flatten", fx("parabolic.germ"), "--order", "4"),
    ):
        assert run_cli(*argv)[0] == 0
    assert built == []


def test_reports_are_deterministic():
    a = run_cli("classify", fx("ex31.germ"))
    b = run_cli("classify", fx("ex31.germ"))
    assert a == b
    a = run_cli("flatten", fx("parabolic.germ"), "--order", "4")
    b = run_cli("flatten", fx("parabolic.germ"), "--order", "4")
    assert a == b


def test_batch_matches_serial(tmp_path):
    names = ["ex31.germ", "ex32.germ", "ex33.germ", "parabolic.germ"]
    listing = tmp_path / "batch.txt"
    listing.write_text("".join(fx(n) + "\n" for n in names))
    serial = "".join(run_cli("classify", fx(n))[1] for n in names)
    code, batched = run_cli("classify", "--batch", str(listing))
    assert code == 0 and batched == serial


def test_batch_keeps_reports_before_an_unreadable_path(tmp_path, capsys):
    listing = tmp_path / "batch.txt"
    missing = tmp_path / "missing.germ"
    names = [fx("ex31.germ"), fx("ex32.germ"), str(missing), fx("ex33.germ")]
    listing.write_text("".join(n + "\n" for n in names))
    before = "".join(run_cli("classify", n)[1] for n in names[:2])
    capsys.readouterr()
    code = main(["classify", "--batch", str(listing)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == before
    errors = captured.err.splitlines()
    assert len(errors) == 1 and errors[0].startswith("error:")
    assert errors[0].startswith(f"error: {missing}: cannot read {missing}")


def test_batch_error_names_the_input_that_failed_its_precondition(tmp_path, capsys):
    message = "flattening driver requires the standard parabolic quadric quadratic part"
    # one input alone: the message as it always was
    code, out = run_cli("flatten", fx("ex31.germ"), "--order", "8")
    assert (code, out) == (3, "")
    assert capsys.readouterr().err == f"error: {message}\n"
    listing = tmp_path / "batch.txt"
    names = [fx("sheared.germ"), fx("ex31.germ"), fx("sheared.germ")]
    listing.write_text("".join(n + "\n" for n in names))
    before = run_cli("flatten", names[0], "--order", "8")[1]
    code = main(["flatten", "--batch", str(listing), "--order", "8"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == before and before.startswith(f"INPUT {names[0]}\n")
    assert captured.err == f"error: {names[1]}: {message}\n"


def test_a_germ_file_and_a_batch_together_exit_2(tmp_path, capsys):
    listing = tmp_path / "batch.txt"
    listing.write_text(fx("sheared.germ") + "\n")
    code, out = run_cli("flatten", fx("parabolic.germ"), "--order", "4", "--batch", str(listing))
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == "error: give a germ file or --batch, not both\n"
    # the check comes before the listing is read
    code, out = run_cli("classify", fx("ex31.germ"), "--batch", str(tmp_path / "missing.txt"))
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == "error: give a germ file or --batch, not both\n"


def test_fixture_files_roundtrip_bit_exactly():
    for path in sorted(FIXTURES.glob("*.germ")):
        text = path.read_text()
        assert dumps_germ(load_germ(path)) == text
