"""Acceptance suite: one test per criterion, every assertion exact.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion; a failed criterion shows up as an ordinary pytest failure.
"""

import io
import random
from contextlib import redirect_stdout
from fractions import Fraction as F

from crflat import (
    ExactMatrix,
    GaussianRational,
    Germ,
    KernelPolynomial,
    QuadraticPair,
    Series,
    TangentField,
    bishop_slice,
    build_canonical_field,
    cr_singular_linearization,
    elliptic_candidates,
    flatten_to_order,
    fundamental_nullspace,
    identity_audit,
    is_hermitianizable,
    obstruction,
    obstruction_series,
    parabolic_quadric,
    quadric_germ,
    recursion_audit,
    uniqueness_nullspace,
    verify_witness,
)
from crflat.cli import main as cli_main
from crflat.flatten import kernel_unknowns
from crflat.case_tables import germ_for_case, reference_series

from conftest import (
    FIXTURES,
    UNIMODULAR,
    rand_gaussian,
    rand_invertible,
    rand_matrix,
    rand_nonzero_gaussian,
    rand_real_bracket_table,
)
from test_quadratic import schur_flattenable_float

G = GaussianRational
I = G(0, 1)


def report(n, text):
    print(f"ACCEPTANCE {n:02d} PASS: {text}")


def gens(trunc):
    return Series.generators(2, trunc)


def example_germs(trunc=8):
    z1, z2, zb1, zb2 = gens(trunc)
    half = G(F(1, 2))
    zero = Series.zero(2, trunc)
    g31 = Germ(2, z1 * zb2 + z1 * z2 + zb1 * zb2)
    f31 = TangentField(z1 + zb1, -z2, z1 * zb2 + zb1 * z2 + zb1 * zb2)
    chi31 = (z1 + zb1) * z2 * zb2
    g32 = Germ(2, z1 * zb2 + (z2 * z2 + zb2 * zb2).scale(half))
    f32 = TangentField(z2 + zb1, zero, z2 * zb2 + zb1 * zb2)
    chi32 = z2 * zb2
    g33 = Germ(2, z1 * zb2)
    f33 = TangentField(zb1, zero, zb1 * zb2)
    chi33 = z2 * zb2
    return ((g31, f31, chi31), (g32, f32, chi32), (g33, f33, chi33))


def test_criterion_01_witness_fixtures():
    # printed germ + field + chi annihilate exactly at truncation 8
    for g, f, chi in example_germs(trunc=8):
        w = verify_witness(g, f, chi)
        assert w.annihilates_h is True
        assert w.annihilates_h_conj is True
        assert w.annihilates_chi is True
    report(1, "witness fixtures annihilate h, conj h and chi at truncation 8")


def test_criterion_02_canonical_field_reproduction():
    (g31, f31, _), _, _ = example_germs(trunc=8)
    built = build_canonical_field(g31)
    assert built.cf_z1 == f31.cf_z1
    assert built.cf_z2 == f31.cf_z2
    assert built.cf_w == f31.cf_w
    report(2, "canonical field of the first example matches the printed field termwise")


SAMPLES_1A = (
    {"a": 1, "b": 1, "d": 1, "u": UNIMODULAR[0]},
    {"a": 2, "b": I, "d": 1, "u": UNIMODULAR[1]},
    {"a": F(1, 2), "b": G(F(1, 3), F(2, 3)), "d": 3, "u": UNIMODULAR[2]},
)
SAMPLES_2A = (
    {"a": F(1, 2), "b": 1, "d": 1, "tau": F(1, 2)},
    {"a": G(F(3, 10), F(4, 10)), "b": 2, "d": I, "tau": F(1, 3)},
    {"a": F(-1, 2), "b": F(1, 2), "d": G(1, -1), "tau": F(3, 4)},
)
SAMPLES_3 = (
    {"a": 1, "b": 1, "d": I},
    {"a": 2, "b": -1, "d": G(1, 1)},
    {"a": F(1, 2), "b": 3, "d": G(F(1, 2), F(1, 3))},
)


def test_criterion_03_case_oracle_regression():
    for case, samples in (("1a", SAMPLES_1A), ("2a", SAMPLES_2A), ("3", SAMPLES_3)):
        for params in samples:
            germ = germ_for_case(case, params, trunc=6)
            oracle = reference_series(case, params)
            engine = dict(zip(("X1", "X2", "Y1", "Y2"), obstruction_series(germ)))
            for name in ("X1", "X2", "Y1", "Y2"):
                assert engine[name].homogeneous_part(2) == oracle[name], (case, name)
    sample_engine = dict(
        zip(("X1", "X2", "Y1", "Y2"),
            obstruction_series(germ_for_case("1a", SAMPLES_1A[0], trunc=6)))
    )
    assert sample_engine["X2"].coeff((1, 0, 1, 0)) == G(7, -4)
    report(3, "engine X1, X2, Y1, Y2 match the transcribed tables termwise "
              "(cases 1a, 2a, 3; three samples each); 1a sample gives 7-4 i")


def test_criterion_04_obstruction_certificate():
    germ = germ_for_case("1a", SAMPLES_1A[0], trunc=8)
    rep = obstruction(germ, 4)
    coeff = rep.residual.coeff((0, 0, 4, 0))  # zb1^4
    assert coeff.abs2() == F(64, 5) ** 2
    # engine sign: the residual carries -8 a conj(b) d (u - conj u) = -64/5 i
    assert coeff == G(0, F(-64, 5))
    assert not rep.residual.is_zero()
    report(4, "family-1a residual zb1^4 coefficient has squared modulus (64/5)^2; "
              "engine sign is -8 a conj(b) d (u - conj(u))")


def test_criterion_05_flattenability_decisions():
    rng = random.Random(5050)
    u = UNIMODULAR[0]
    nonflat = [
        ExactMatrix.from_rows([[1, 0], [0, u]]),
        ExactMatrix.from_rows([[0, 1], [F(1, 2), 0]]),
        ExactMatrix.from_rows([[0, 1], [1, I]]),
        ExactMatrix.from_rows([[0, 1], [0, 0]]),
    ]
    flat = [
        ExactMatrix.from_rows([[1, 0], [0, 1]]),
        ExactMatrix.from_rows([[1, 0], [0, -1]]),
        ExactMatrix.from_rows([[0, 1], [1, 0]]),
        ExactMatrix.from_rows([[1, 0], [0, 0]]),
        ExactMatrix.zero(2, 2),
    ]
    for b, want in [(b, False) for b in nonflat] + [(b, True) for b in flat]:
        pair = QuadraticPair(ExactMatrix.zero(2, 2), b)
        assert is_hermitianizable(pair).flattenable is want
        for _ in range(5):
            moved = pair.transform(rand_invertible(rng), rand_nonzero_gaussian(rng))
            assert is_hermitianizable(moved).flattenable is want
    agree = 0
    while agree < 200:
        if agree % 2 == 0:
            b = rand_matrix(rng)
        else:
            h = rand_matrix(rng)
            h = h + h.conj_transpose()
            b = h.scale(rand_nonzero_gaussian(rng))
        if b.det().is_zero():
            continue
        exact = is_hermitianizable(QuadraticPair(ExactMatrix.zero(2, 2), b)).flattenable
        assert exact == schur_flattenable_float(b, tol=1e-9)
        agree += 1
    report(5, "flattenability verdicts for the nine family shapes, invariant under "
              "5 random congruences each; 200/200 agreement with the float oracle")


def test_criterion_06_jacobian_fixtures():
    lam = F(1, 3)
    half = F(1, 2)
    b = F(1, 3)
    d = I
    # defining functions as printed, built termwise
    g_c = Germ(2, Series(2, 4, {
        (1, 0, 1, 0): 1, (0, 1, 0, 1): -1, (1, 1, 0, 0): lam, (0, 0, 1, 1): lam,
    }))
    g_d = quadric_germ(QuadraticPair(
        ExactMatrix.from_rows([[half, half], [half, half]]),
        ExactMatrix.from_rows([[1, 0], [0, -1]])), 4)
    g_e = quadric_germ(QuadraticPair(
        ExactMatrix.from_rows([[0, b], [b, half]]),
        ExactMatrix.from_rows([[0, 1], [1, 0]])), 4)
    g_f = quadric_germ(QuadraticPair(
        ExactMatrix.from_rows([[half, 0], [0, d]]),
        ExactMatrix.from_rows([[0, 1], [1, 0]])), 4)
    lin = cr_singular_linearization(g_c)
    assert lin.matrix == ExactMatrix.from_rows(
        [[1, 0, 0, lam], [0, lam, -1, 0], [0, 1, lam, 0], [lam, 0, 0, -1]])
    assert lin.rank == 4
    lin = cr_singular_linearization(g_d)
    assert lin.matrix == ExactMatrix.from_rows(
        [[1, 1, 0, 1], [0, 1, -1, 1], [1, 1, 1, 0], [1, 0, 1, -1]])
    assert lin.rank == 4
    lin = cr_singular_linearization(g_e)
    tb = 2 * b
    assert lin.matrix == ExactMatrix.from_rows(
        [[0, 0, 1, tb], [1, tb, 0, 1], [0, 0, tb, 1], [tb, 1, 1, 0]])
    assert lin.rank >= 3
    lin = cr_singular_linearization(g_f)
    assert lin.matrix == ExactMatrix.from_rows(
        [[0, 1, 1, 0], [1, 0, 0, 2 * d.conj()], [1, 0, 0, 1], [0, 1, 2 * d, 0]])
    assert lin.rank == 4
    report(6, "locus linearizations reproduce the four printed matrices; "
              "three invertible, the remaining one of rank >= 3")


def test_criterion_07_slice_invariants():
    b = F(1, 3)
    half = F(1, 2)
    sl = bishop_slice(QuadraticPair(
        ExactMatrix.from_rows([[0, F(1, 6)], [F(1, 6), 0]]),
        ExactMatrix.from_rows([[1, 0], [0, -1]])), (1, 0))
    assert sl.elliptic and sl.lambda_sq == 0  # antidiagonal pure part: alpha = 0
    sl = bishop_slice(QuadraticPair(
        ExactMatrix.from_rows([[0, b], [b, half]]),
        ExactMatrix.from_rows([[0, 1], [1, 0]])), (1, F(-4, 3)))
    assert sl.elliptic and sl.lambda_sq == 0 and sl.gamma == G(F(-8, 3))
    sl = bishop_slice(QuadraticPair(
        ExactMatrix.from_rows([[F(1, 4), 0], [0, 1]]),
        ExactMatrix.from_rows([[1, 0], [0, -1]])), (1, 0))
    assert sl.elliptic and sl.lambda_sq == F(1, 4) ** 2
    for lam in (F(1, 2), F(1)):
        pair = QuadraticPair(
            ExactMatrix.from_rows([[lam, 0], [0, lam]]),
            ExactMatrix.from_rows([[1, 0], [0, -1]]))
        assert elliptic_candidates(pair, 6) == []
    report(7, "slice invariants: lambda^2 = 0 at the two degenerate-slope cases, "
              "lambda^2 = 1/16 for the split diagonal case; no elliptic direction "
              "for the balanced split pair under the bound-6 search")


def test_criterion_08_recursion_audits():
    rng = random.Random(8080)
    for _ in range(50):
        m = rng.randint(3, 10)
        table = rand_real_bracket_table(rng, m)
        assert recursion_audit(table, m).ok
    for m in range(3, 11):
        basis = fundamental_nullspace(m)
        assert basis
        for table in basis:
            rep = identity_audit(table, m)
            assert rep.ok, (m, rep.failures)
    report(8, "index-shift recursions agree with the series operators on 50 random "
              "tables (degrees 3..10); transform identities and the even-degree "
              "closing identity hold on full condition-kernel bases up to degree 10")


def test_criterion_09_uniqueness_mechanized():
    for m in range(3, 11):
        dim, basis = uniqueness_nullspace(m)
        assert dim == 0 and basis == []
    report(9, "combined uniqueness system has a trivial kernel for degrees 3..10")


def test_criterion_10_flattening_round_trip():
    rng = random.Random(1010)
    g = parabolic_quadric(8)
    for m in (3, 4, 5):
        coeffs = {}
        for key in kernel_unknowns(m):
            if rng.random() < 0.8:
                coeffs[key] = rand_gaussian(rng)
        g = g.shear(KernelPolynomial(m, coeffs))
    rep = flatten_to_order(g, 8)
    assert rep.ok and rep.reached == 8
    _, e = rep.final.split()
    assert all(e.homogeneous_part(d).is_zero() for d in range(3, 9))
    assert e.is_zero()
    flat = flatten_to_order(parabolic_quadric(8), 8)
    assert flat.ok and all(k.is_zero() for k in flat.kernels.values())
    report(10, "random shears at weights 3, 4, 5 flatten back to an identically "
               "real graph through degree 8; the flat quadric yields zero kernels")


def run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli_main(list(argv))
    return code, buf.getvalue()


def test_criterion_11_determinism(tmp_path):
    commands = [
        ("classify", str(FIXTURES / "ex31.germ")),
        ("nonminimal-check", str(FIXTURES / "ex33.germ"), "--order", "6"),
        ("bishop", str(FIXTURES / "m1.germ"), "--search", "4"),
        ("jacobian", str(FIXTURES / "case_c.germ")),
        ("flatten", str(FIXTURES / "parabolic.germ"), "--order", "5"),
        ("unique-check", "--m", "4"),
    ]
    for cmd in commands:
        first = run_cli(*cmd)
        second = run_cli(*cmd)
        assert first == second and first[0] == 0
    names = ["ex31.germ", "ex32.germ", "ex33.germ"]
    listing = tmp_path / "batch.txt"
    listing.write_text("".join(str(FIXTURES / n) + "\n" for n in names))
    serial = "".join(run_cli("classify", str(FIXTURES / n))[1] for n in names)
    _, batched = run_cli("classify", "--batch", str(listing))
    assert batched == serial
    report(11, "reports byte-identical across repeated runs and across serial "
               "and batched execution")
