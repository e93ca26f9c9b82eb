import importlib.util
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from crflat import (
    Constraint,
    GaussianRational,
    Germ,
    HTable,
    KernelPolynomial,
    Series,
    check_fundamental,
    flatten_to_order,
    fundamental_nullspace,
    h_from_germ,
    identity_audit,
    k_transform,
    normalization_system,
    parabolic_quadric,
    parity_audit,
    phi_psi,
    recursion_audit,
    solve_kernel,
    uniqueness_nullspace,
)
import crflat.flatten as flatten_mod
import crflat.germ as germ_mod
import crflat.linalg as linalg
import crflat.series as series_mod
from crflat.errors import ConsistencyError, InconsistentSystemError, PreconditionError
from crflat.flatten import (
    FlattenReport,
    FlattenStep,
    PhiPsiTables,
    _shear_family,
    all_brackets,
    kernel_unknowns,
    series_to_table,
    table_to_series,
)
from crflat.germ import _shear_template, load_germ, loads_germ
from crflat.linalg import ExactMatrix, rank_mod_p, sparse_nullspace
from crflat.series import bracket_from_exp, exp_from_bracket, subst_w

from conftest import FIXTURES, rand_gaussian, rand_nonzero_gaussian, rand_real_bracket_table

BENCH_INPUTS = FIXTURES.parent / "bench" / "inputs.py"

G = GaussianRational
I = G(0, 1)


def random_kernel(rng, m, density=0.7):
    coeffs = {}
    for key in kernel_unknowns(m):
        if rng.random() < density:
            coeffs[key] = rand_gaussian(rng)
    return KernelPolynomial(m, coeffs)


def sheared_quadric(rng, weights, trunc=8):
    g = parabolic_quadric(trunc)
    for m in weights:
        g = g.shear(random_kernel(rng, m))
    return g


# -- tables and operators ------------------------------------------------------------


def test_htable_validation():
    HTable(3, {(1, 2, 0, 0): F(1, 2), (0, 0, 1, 2): F(1, 2)})
    with pytest.raises(PreconditionError):
        HTable(3, {(1, 2, 0, 0): 1})  # mirror missing
    with pytest.raises(PreconditionError):
        HTable(3, {(1, 1, 0, 0): 1})  # wrong degree


def test_h_from_germ():
    q = parabolic_quadric(8)
    for m in (3, 4, 5):
        assert h_from_germ(q, m).is_zero()
    z1, z2, zb1, zb2 = Series.generators(2, 8)
    g = Germ(2, q.R + (z1 * z1 * z2).scale(I))
    h = h_from_germ(g, 3)
    assert dict(h.items()) == {
        (0, 0, 1, 2): G(F(1, 2)),
        (1, 2, 0, 0): G(F(1, 2)),
    }
    # a real perturbation contributes nothing to the imaginary part
    g = Germ(2, q.R + z1 * z1 * z1 + zb1 * zb1 * zb1)
    assert h_from_germ(g, 3).is_zero()


def test_h_from_germ_requires_parabolic():
    z1, z2, zb1, zb2 = Series.generators(2, 6)
    with pytest.raises(PreconditionError):
        h_from_germ(Germ(2, z1 * zb1), 3)


def test_phi_of_z1zb1():
    t = phi_psi(HTable(2, {(0, 1, 0, 1): 1}))
    assert series_to_table(t.phi) == {(1, 1, 0, 0): G(1), (0, 1, 1, 0): G(1)}  # z1 z2 + z1 zb2
    rep = check_fundamental(t)
    assert not rep.ok and rep.violations


def test_phi_of_powers_of_real_line():
    # H = (z1 + zb1)^m has Phi = m (z2 + zb2)(z1 + zb1)^(m-1)
    for m in (2, 3, 5):
        line = {}
        from math import comb

        for s in range(m + 1):
            line[(0, s, 0, m - s)] = comb(m, s)
        t = phi_psi(line, m)
        z1, z2, zb1, zb2 = Series.generators(2, m + 4)
        expect = ((z2 + zb2) * (z1 + zb1) ** (m - 1)).scale(m)
        assert t.phi == expect


def test_fundamental_for_shear_tables(rng):
    # degree tables produced by shearing the flat quadric always pass
    for m in (3, 4, 5, 6):
        for _ in range(3):
            g = parabolic_quadric(m).shear(random_kernel(rng, m))
            h = h_from_germ(g, m)
            assert check_fundamental(phi_psi(h)).ok
            assert recursion_audit(h).ok
            assert identity_audit(h).ok


@pytest.mark.parametrize("m", [0, 1, 2, 5])
def test_phi_and_psi_are_certified_through_their_degrees(rng, m):
    tables = phi_psi(rand_real_bracket_table(rng, m), m)
    assert (tables.phi.trunc, tables.psi.trunc) == (m, m + 1)


@pytest.mark.parametrize("m", [0, 1, 2, 5])
def test_a_cut_psi_cannot_pass_for_a_zero_condition(rng, m):
    tables = phi_psi(rand_real_bracket_table(rng, m), m)
    kept = {e: c for e, c in tables.psi.terms.items() if sum(e) <= m}
    cut = PhiPsiTables(m, tables.phi, Series(2, m, kept))
    with pytest.raises(PreconditionError, match="exceeds the certified product truncation"):
        flatten_mod.fundamental_series(cut)


def test_fundamental_zero_table():
    t = phi_psi(HTable(4, {}))
    assert check_fundamental(t).ok
    assert recursion_audit(HTable(4, {})).ok
    assert identity_audit(HTable(4, {})).ok


def test_recursion_audit_random_real_tables(rng):
    # the index-shift recursions re-derive the series operators for any table
    for _ in range(50):
        m = rng.randint(3, 10)
        table = rand_real_bracket_table(rng, m)
        assert recursion_audit(table, m).ok


def test_k_transform_small_case():
    # degree 2, k = 0: values[(s,h)] = sum_t (-1)^r table[t s r h]
    table = {(0, 1, 0, 1): G(1), (1, 1, 0, 0): G(2), (2, 0, 0, 0): G(3)}
    kt = k_transform(table, 2, 0)
    assert kt.get(1, 1) == 1
    assert kt.get(1, 0) == 2  # t=1, r=0 -> sign +
    assert kt.get(0, 0) == 3
    kt1 = k_transform(table, 2, 1)
    assert kt1.get(1, 0) == 2  # C(1,1) = 1, r = 0
    assert kt1.get(0, 0) == 2 * 3  # t=2: C(2,1) = 2


def test_identity_audit_on_fundamental_nullspace_basis():
    for m in (3, 4, 5, 6):
        basis = fundamental_nullspace(m)
        assert basis  # shears provide nonzero solutions
        for table in basis:
            rep = identity_audit(table, m)
            assert rep.ok, rep.failures


def test_identity_audit_skips_without_fundamental():
    rep = identity_audit(HTable(2, {(0, 1, 0, 1): 1}))
    assert not rep.ok and rep.skipped


def _condition_kernel_table():
    # a degree-4 table that passes both audits, so each failure below is the corruption's
    table = fundamental_nullspace(4)[0]
    assert recursion_audit(table, 4).ok and identity_audit(table, 4).ok
    return table


def _messages(report):
    # each failure line without its location: "... at (t, s, r, h)" or "... for k=..."
    return {f.split(" at ")[0].split(" for ")[0] for f in report.failures}


def test_recursion_audit_flags_a_corrupted_phi(monkeypatch):
    table = _condition_kernel_table()
    honest = flatten_mod.phi_psi

    def phi_off_by_one(h, m=None):
        tables = honest(h, m)
        extra = Series(2, tables.m, {exp_from_bracket(1, 1, 1, 1): 1})
        return PhiPsiTables(tables.m, tables.phi + extra, tables.psi)

    monkeypatch.setattr(flatten_mod, "phi_psi", phi_off_by_one)
    rep = recursion_audit(table, 4)
    assert not rep.ok and "phi-recursion mismatch at (1, 1, 1, 1)" in rep.failures
    assert _messages(rep) == {"phi-recursion mismatch", "psi-recursion mismatch"}


def test_recursion_audit_flags_a_corrupted_condition_series(monkeypatch):
    table = _condition_kernel_table()
    honest = flatten_mod.fundamental_series
    extra = Series(2, 5, {exp_from_bracket(1, 1, 1, 2): 1})
    monkeypatch.setattr(flatten_mod, "fundamental_series", lambda t: honest(t) + extra)
    rep = recursion_audit(table, 4)
    assert rep.failures == ["four-term combination differs from condition series at (1, 1, 1, 2)"]


def test_identity_audit_flags_corrupted_transforms(monkeypatch):
    table = _condition_kernel_table()
    honest = flatten_mod.k_transform

    def two_entries_off(tab, degree, k):
        values = dict(honest(tab, degree, k).values)
        for key in ((0, 0), (1, 1)):
            values[key] = values.get(key, G(0)) + 1
        return flatten_mod.KTransform(k, values)

    monkeypatch.setattr(flatten_mod, "k_transform", two_entries_off)
    rep = identity_audit(table, 4)
    assert not rep.ok and rep.skipped is None
    assert _messages(rep) == {
        "phi-transform identity fails",
        "psi-transform identity fails",
        "psi-transform ladder fails",
        "odd psi-transform",
        "closing identity fails",
    }


# -- normalization system ----------------------------------------------------------


def test_normalization_m3():
    sys3 = normalization_system(3)
    zero_idx = {c.index for c in sys3 if c.kind == "zero"}
    # pure-z family: all four holomorphic coefficients
    for s1 in range(4):
        assert (3 - s1, s1, 0, 0) in zero_idx
    # the (1,1) run contributes the single coefficient at t = 0
    assert (1, 1, 0, 1) in zero_idx
    assert not any(c.kind == "realpart" for c in sys3)


def test_normalization_m4_and_m6():
    sys4 = normalization_system(4)
    pure = [c for c in sys4 if c.label.startswith("pure-z")]
    assert len(pure) == 5
    real = [c for c in sys4 if c.kind == "realpart"]
    assert [c.index for c in real] == [(1, 1, 1, 1)]

    sys6 = normalization_system(6)
    real = [c for c in sys6 if c.kind == "realpart"]
    assert [c.index for c in real] == [(4, 0, 2, 0)]
    assert (5, 0, 1, 0) in {c.index for c in sys6}
    with pytest.raises(PreconditionError):
        normalization_system(2)


def test_constraint_parts_follow_the_kind():
    assert Constraint("c", "zero", (3, 0, 0, 0)).parts == ("re", "im")
    assert Constraint("c", "realpart", (1, 1, 1, 1)).parts == ("re",)


def test_constraint_residuals_read_only_the_pinned_parts():
    sys4 = normalization_system(4)
    (real,) = [c for c in sys4 if c.kind == "realpart"]
    zero = sys4[0]
    # an imaginary part at the realpart index is free, a real part is not
    assert flatten_mod.constraint_residuals(sys4, {real.index: I}) == []
    assert flatten_mod.constraint_residuals(sys4, {real.index: G(2, 3)}) == [(real, G(2))]
    assert flatten_mod.constraint_residuals(sys4, {zero.index: I}) == [(zero, I)]


def test_normalization_mixed_family_membership():
    sys5 = normalization_system(5)
    idx = {c.index for c in sys5}
    assert (3, 1, 1, 0) in idx  # t1 = 1 > 0, s = 1 <= T = 3
    assert (2, 0, 3, 0) not in idx  # t1 = 0 needs s < T
    assert (3, 0, 2, 0) in idx  # t1 = 0, s = 2 < T = 3
    assert (4, 0, 1, 0) in idx  # t1 = 0, s = 1 < T = 4
    # nothing with a conjugate z1-power enters the mixed family
    assert not any(c.index[3] > 0 and c.label.startswith("mixed") for c in sys5)


def six_case_normalization(m):
    """The normalization constraints with one block table per residue of m mod 6.

    The reference that the rule in ``normalization_system`` must reproduce,
    kept as first written: each residue has its own m_h, run offsets and
    real-part index.
    """
    cons = []
    for s1 in range(m + 1):
        cons.append(Constraint(f"pure-z s1={s1}", "zero", (m - s1, s1, 0, 0)))
    seen = set()
    for t1 in range(m + 1):
        for s in range(m + 1 - t1):
            big_t = m - t1 - s
            if big_t < 0:
                continue
            ok = (t1 > 0 and s <= big_t) or (t1 == 0 and s < big_t)
            idx = (big_t, t1, s, 0)
            if ok and idx not in seen and idx != (big_t, t1, 0, 0):
                seen.add(idx)
                cons.append(Constraint(f"mixed t1={t1} s={s}", "zero", idx))
    rem = m % 6
    if rem == 3:
        mh = (m + 3) // 6
        f1 = range(4 * mh - 1, m)
        f2 = range(2 * mh - 2, 3 * mh - 2)
        real_idx = None
    elif rem == 4:
        mh = (m + 2) // 6
        f1 = range(4 * mh - 1, m)
        f2 = range(2 * mh - 1, 3 * mh - 2)
        real_idx = (4 * mh - 3, 1, 2 * mh - 1, 1)
    elif rem == 5:
        mh = (m + 1) // 6
        f1 = range(4 * mh, m)
        f2 = range(2 * mh - 1, 3 * mh - 1)
        real_idx = None
    elif rem == 0:
        mh = m // 6
        f1 = range(4 * mh + 1, m)
        f2 = range(2 * mh - 1, 3 * mh - 1)
        real_idx = (4 * mh, 0, 2 * mh, 0)
    elif rem == 1:
        mh = (m - 1) // 6
        f1 = range(4 * mh + 1, m)
        f2 = range(2 * mh, 3 * mh)
        real_idx = None
    else:  # rem == 2
        mh = (m - 2) // 6
        f1 = range(4 * mh + 2, m)
        f2 = range(2 * mh, 3 * mh)
        real_idx = (4 * mh + 1, 0, 2 * mh + 1, 0)
    for t in f1:
        cons.append(Constraint(f"block binary t={t}", "zero", (t, 0, m - t, 0)))
    for t in f2:
        cons.append(
            Constraint(f"block mixed t={t}", "zero", (2 * t + 1, 1, m - 2 * t - 3, 1))
        )
    if real_idx is not None:
        cons.append(Constraint("block real part", "realpart", real_idx))
    return tuple(cons)


def test_normalization_rule_reproduces_the_six_case_table():
    for m in range(3, 151):
        system = normalization_system(m)
        assert system == six_case_normalization(m), m
        # the block rows are exactly m - 1 beyond two per kernel unknown
        parts = sum(len(c.parts) for c in system)
        assert parts == 2 * len(kernel_unknowns(m)) + m - 1, m
    for m in range(3, 19):
        # the pure-z and mixed rows come first and alone fix the kernel
        _unknowns, constraints, mat = flatten_mod._normalization_matrix(m)
        unblocked = sum(len(c.parts) for c in constraints if not c.label.startswith("block"))
        assert unblocked == mat.cols
        assert rank_mod_p(mat.entries[:unblocked], mat.cols) == mat.cols, m


# -- kernel solve and driver ---------------------------------------------------------


def test_solve_kernel_zero_for_flat_and_real_inputs():
    q = parabolic_quadric(8)
    for m in (3, 4, 5):
        assert solve_kernel(q, m).is_zero()
    z1, z2, zb1, zb2 = Series.generators(2, 8)
    g = Germ(2, q.R + z1 * z1 * z1 + zb1 * zb1 * zb1)
    assert solve_kernel(g, 3).is_zero()
    assert solve_kernel(g, 4).is_zero()  # a real nonzero cubic counts as flattened


def test_solve_kernel_round_trip_single_shear():
    q = parabolic_quadric(8)
    k = KernelPolynomial(3, {((2, 1), 0): I})
    g = q.shear(k)
    kk = solve_kernel(g, 3)
    assert dict(kk.items()) == {((2, 1), 0): -I}
    assert g.shear(kk).split()[1].homogeneous_part(3).is_zero()


def test_solve_kernel_respects_flattened_precondition():
    q = parabolic_quadric(8)
    k = KernelPolynomial(3, {((2, 1), 0): I})
    g = q.shear(k)
    with pytest.raises(PreconditionError):
        solve_kernel(g, 4)


def test_solve_kernel_refuses_a_degree_out_of_range():
    q = parabolic_quadric(6)
    for m in (2, 7):
        with pytest.raises(PreconditionError, match="^degree out of range for this germ$"):
            solve_kernel(q, m)


def test_solve_kernel_refuses_a_singular_normalization_system(monkeypatch):
    # the system of degree 5 without its first column: consistent for the
    # flat quadric (every right-hand side is zero), but with a free unknown
    unknowns, constraints, mat = flatten_mod._normalization_matrix(5)
    rows = [{j: v for j, v in row.items() if j} for row in mat.entries]
    singular = linalg.SparseMatrix(rows, mat.cols)
    system = (unknowns, constraints, singular)
    monkeypatch.setattr(flatten_mod, "_normalization_matrix", lambda m: system)
    with pytest.raises(ConsistencyError, match="^normalization system singular at degree 5$"):
        solve_kernel(parabolic_quadric(8), 5)


def test_solve_kernel_side_condition(rng):
    # even weight: solutions never use the pure w^(m/2) coefficient
    for m in (4, 6):
        g = parabolic_quadric(8).shear(random_kernel(rng, m))
        kern = solve_kernel(g, m)
        assert ((0, 0), m // 2) not in kern.coeffs


def test_flatten_flat_quadric():
    rep = flatten_to_order(parabolic_quadric(8), 8)
    assert rep.ok and rep.reached == 8
    assert all(k.is_zero() for k in rep.kernels.values())
    assert rep.final == parabolic_quadric(8)


def test_flatten_round_trip_weights_345(rng):
    for _ in range(3):
        g = sheared_quadric(rng, (3, 4, 5), trunc=8)
        rep = flatten_to_order(g, 8)
        assert rep.ok, [s.note for s in rep.steps]
        _, e = rep.final.split()
        assert all(e.homogeneous_part(d).is_zero() for d in range(3, 9))
        assert e.is_zero()


def test_flatten_to_order_14():
    # fixed Gaussian-integer shears at every weight 3..14
    g = parabolic_quadric(14)
    for m in range(3, 15):
        coeffs = {
            key: G((k + m) % 5 - 2, (k * m) % 3 - 1)
            for k, key in enumerate(kernel_unknowns(m))
        }
        g = g.shear(KernelPolynomial(m, coeffs))
    assert not g.R.homogeneous_part(3).is_real()
    rep = flatten_to_order(g, 14)
    assert rep.ok and rep.reached == 14
    assert all(rep.final.R.homogeneous_part(d).is_real() for d in range(3, 15))


# The round trip: a flat germ, sheared at every weight 3..T, flattens back to
# itself exactly, since a shear that keeps a flat germ flat through T is the
# identity there.  This checks the driver and the shear at depth, not the
# normalization rule: any full-rank normalization system recovers the applied
# shears (with the binary run shifted or the (1,1) run dropped they still
# come back).


def flat_germ(trunc, terms):
    """The parabolic quadric plus each term (exponent, c) and its conjugate mirror."""
    extra = Series(2, trunc, {})
    for e, c in terms:
        extra = extra + Series(2, trunc, {e: c})
    return Germ(2, parabolic_quadric(trunc).R + extra + extra.conj())


def assert_flattens_back(flat, kernels):
    sheared = flat
    for kern in kernels:
        sheared = sheared.shear(kern)
    rep = flatten_to_order(sheared, flat.trunc)
    assert rep.ok and rep.reached == flat.trunc
    assert rep.final == flat


@st.composite
def flat_germs_and_shears(draw):
    trunc = draw(st.integers(3, 12))
    part = st.integers(-3, 3)
    gaussian = st.builds(G, part, part)
    degrees = st.integers(3, trunc)
    exponents = degrees.flatmap(
        lambda d: st.sampled_from([exp_from_bracket(*idx) for idx in all_brackets(d)])
    )
    terms = draw(st.lists(st.tuples(exponents, gaussian), max_size=8))
    kernels = []
    for m in range(3, trunc + 1):
        keys = draw(st.lists(st.sampled_from(kernel_unknowns(m)), max_size=4, unique=True))
        kernels.append(KernelPolynomial(m, {key: draw(gaussian) for key in keys}))
    return flat_germ(trunc, terms), kernels


@settings(derandomize=True, deadline=None, max_examples=30)
@given(flat_germs_and_shears())
def test_a_sheared_flat_germ_flattens_back_to_itself(case):
    assert_flattens_back(*case)


def test_a_sheared_flat_germ_flattens_back_to_itself_at_order_14():
    rng = random.Random(6)
    trunc = 14
    terms = []
    for _ in range(12):
        d = rng.randint(3, trunc)
        idx = rng.choice(all_brackets(d))
        terms.append((exp_from_bracket(*idx), G(rng.randint(-3, 3), rng.randint(-3, 3))))
    kernels = []
    for m in range(3, trunc + 1):
        coeffs = {key: G(rng.randint(-2, 2), rng.randint(-2, 2)) for key in kernel_unknowns(m)}
        kernels.append(KernelPolynomial(m, coeffs))
    assert_flattens_back(flat_germ(trunc, terms), kernels)


def non_graph_germ():
    # fixtures/nongraph.germ: the quadric plus i * z1 zb1 (z1 + zb1)
    q = parabolic_quadric(8)
    z1, z2, zb1, zb2 = Series.generators(2, 8)
    h_real = z1 * zb1 * (z1 + zb1)
    return Germ(2, q.R + h_real.scale(I))  # imaginary part is exactly h_real


def test_flatten_halts_on_non_graph_imaginary_part():
    # an imaginary cubic that fails the first-order condition cannot arise
    # from a shear; the driver stops at degree 3 with a certificate
    g = non_graph_germ()
    assert load_germ(FIXTURES / "nongraph.germ") == g
    h = h_from_germ(g, 3)
    assert not check_fundamental(phi_psi(h)).ok
    rep = flatten_to_order(g, 8)
    assert not rep.ok and rep.obstruction_degree == 3
    last = rep.steps[-1]
    assert not last.fundamental_ok
    assert last.remainder is not None and not last.remainder.is_zero()


def test_flatten_reads_only_the_degree_it_solves(rng, monkeypatch):
    g = sheared_quadric(rng, (3, 5), trunc=7)

    def whole_germ_split(self):
        raise AssertionError("the driver split the whole germ")

    monkeypatch.setattr(Germ, "split", whole_germ_split)
    assert flatten_to_order(g, 7).ok


@pytest.fixture
def bucket_reads(monkeypatch):
    """The degrees the driver reads from its buckets, and the packed parts it decodes."""
    reads, decodes = [], []
    read, decode = flatten_mod._imaginary_part, flatten_mod._unpacked
    monkeypatch.setattr(flatten_mod, "_imaginary_part", lambda g, m: reads.append(m) or read(g, m))
    monkeypatch.setattr(flatten_mod, "_unpacked", lambda p, n: decodes.append(p) or decode(p, n))
    return reads, decodes


def test_flatten_checks_the_quadric_once_per_entry_point(rng, monkeypatch, bucket_reads):
    g = sheared_quadric(rng, (3, 5), trunc=7)
    calls = []
    pair = Germ.quadratic_pair
    monkeypatch.setattr(Germ, "quadratic_pair", lambda self: calls.append(1) or pair(self))
    assert flatten_to_order(g, 7).ok
    # the driver hands each packed part it reads to solve_kernel, so the
    # quadric is checked once; each degree's bucket is read before its solve
    # and after its shear, and a degree that flattens decodes nothing
    assert len(calls) == 1
    reads, decodes = bucket_reads
    assert reads == [m for m in range(3, 8) for _ in range(2)]
    assert decodes == []


def test_flatten_reads_and_reports_a_nonzero_remainder(bucket_reads):
    rep = flatten_to_order(non_graph_germ(), 8)
    assert not rep.ok and rep.obstruction_degree == 3
    reads, decodes = bucket_reads
    assert reads == [3, 3] and len(decodes) == 1  # the remainder, for its H' table
    last = rep.steps[-1]
    assert last.normalized_zero is False and not last.remainder.is_zero()
    assert last.remainder == h_from_germ(rep.final, 3)


def test_solve_kernel_of_a_table_equals_that_of_its_germ(rng):
    g = parabolic_quadric(8).shear(random_kernel(rng, 5, density=1.0))
    h = g.R.homogeneous_part(5).re_im()[1]
    want = solve_kernel(g, 5)
    assert not h.is_zero() and solve_kernel(h, 5) == want
    # the driver's packed part, and a series on keys of another base
    assert solve_kernel(flatten_mod._imaginary_part(g, 5), 5) == want
    assert solve_kernel(Series(2, 5, h.terms), 5) == want
    for m in (2, 4, 6):
        with pytest.raises(PreconditionError, match=f"homogeneous of degree {m}$"):
            solve_kernel(h, m)


def test_solve_kernel_takes_only_a_real_homogeneous_two_variable_series(rng):
    g = parabolic_quadric(8).shear(random_kernel(rng, 5, density=1.0))
    h = g.R.homogeneous_part(5).re_im()[1]
    assert solve_kernel(h, 5) == flatten_to_order(g, 5).kernels[5]
    extra = h + Series(2, 6, {(3, 0, 3, 0): 1})  # one real term of degree 6
    three = Series(3, 5, {(0, 0, 2, 0, 0, 3): 1, (0, 0, 3, 0, 0, 2): 1})
    for source in (extra, h.scale(I), three):
        with pytest.raises(PreconditionError, match="need a real two-variable series"):
            solve_kernel(source, 5)
    with pytest.raises(PreconditionError, match="normalization starts at degree 3"):
        solve_kernel(Series(2, 2, {(1, 0, 1, 0): 1}), 2)


@pytest.mark.parametrize(
    "name, built", [("sheared", 0), ("nongraph", 1), ("sheared_inconsistent", 1)]
)
def test_the_driver_builds_a_table_only_for_a_failing_degree(monkeypatch, name, built):
    tables = []

    class CountedTable(flatten_mod.HTable):
        __slots__ = ()

        def __init__(self, m, coeffs):
            tables.append(m)
            super().__init__(m, coeffs)

    monkeypatch.setattr(flatten_mod, "HTable", CountedTable)
    rep = flatten_to_order(load_germ(FIXTURES / f"{name}.germ"), 8)
    assert rep.ok == (built == 0) and len(tables) == built
    if built:  # the remainder of nongraph, the unsolved table of sheared_inconsistent
        last = rep.steps[-1]
        assert (last.kernel is None) == (name == "sheared_inconsistent")
        assert last.remainder is not None and tables == [rep.obstruction_degree]


# -- the packed driver against the public path -----------------------------------------


def with_unmirrored_terms(rng, germ, count):
    """The germ plus ``count`` non-real terms whose mirror exponents R lacks."""
    extra = {}
    while len(extra) < count:
        e = exp_from_bracket(*rng.choice(all_brackets(rng.randint(3, germ.trunc))))
        if e[2:] + e[:2] not in germ.R.nums and e[2:] + e[:2] not in extra:
            extra[e] = rand_nonzero_gaussian(rng)
    return Germ(2, germ.R + Series(2, germ.trunc, extra))


@pytest.mark.parametrize("trunc", [3, 6, 10])
@pytest.mark.parametrize("kind", ["sheared", "flat"])
def test_the_packed_imaginary_part_decodes_to_the_series_one(kind, trunc):
    rng = random.Random(trunc)
    for _ in range(4):
        if kind == "sheared":  # the germ holds only its packed R
            germ = sheared_quadric(rng, range(3, trunc + 1), trunc)
        else:
            terms = []
            for _ in range(6):
                idx = rng.choice(all_brackets(rng.randint(3, trunc)))
                terms.append((exp_from_bracket(*idx), rand_gaussian(rng)))
            germ = flat_germ(trunc, terms)
        for g in (germ, with_unmirrored_terms(rng, germ, 3)):
            for m in range(trunc + 1):
                im = flatten_mod._imaginary_part(g, m)
                part = g.R.homogeneous_part(m)
                assert series_mod._unpacked(im, 2) == part.re_im()[1]
                assert (not im.buckets) == part.is_real()


def imaginary_part(germ, m):
    return germ.R.homogeneous_part(m).re_im()[1]


def reference_flatten(germ, n):
    """The driver's loop on decoded series: ``subst_w`` at R and ``homogeneous_part``."""
    flatten_mod._require_parabolic(germ)
    if n > germ.trunc:
        raise PreconditionError("target order exceeds the germ truncation")
    current, kernels, steps = germ, {}, []
    for m in range(3, n + 1):
        h = imaginary_part(current, m)
        fund_ok = flatten_mod._satisfies_condition(h)
        try:
            kern = solve_kernel(h, m)
        except InconsistentSystemError as exc:
            table = HTable(m, series_to_table(h))
            steps.append(FlattenStep(m, None, None, table, fund_ok, note=str(exc)))
            return FlattenReport(False, m - 1, kernels, current, steps, obstruction_degree=m)
        if not kern.is_zero():
            current = Germ(2, subst_w(_shear_template(kern), current.R))
        kernels[m] = kern
        remainder = imaginary_part(current, m)
        if not remainder.is_zero():
            table = HTable(m, series_to_table(remainder))
            steps.append(FlattenStep(m, kern, False, table, fund_ok))
            return FlattenReport(False, m - 1, kernels, current, steps, obstruction_degree=m)
        steps.append(FlattenStep(m, kern, True, None, fund_ok))
    return FlattenReport(True, n, kernels, current, steps)


def assert_driver_matches_reference(germ, n):
    try:
        want = reference_flatten(germ, n)
    except PreconditionError:
        with pytest.raises(PreconditionError):
            flatten_to_order(germ, n)
        return
    got = flatten_to_order(germ, n)
    assert got.kernels == want.kernels
    assert got.steps == want.steps
    assert got.final == want.final and got.final.trunc == want.final.trunc
    assert got == want


@st.composite
def perturbed_sheared_quadrics(draw):
    """A quadric sheared at weights 3..T <= 12, sometimes plus one term that no shear makes."""
    trunc = draw(st.integers(3, 12))
    part = st.integers(-2, 2)
    g = parabolic_quadric(trunc)
    for m in range(3, trunc + 1):
        keys = draw(st.lists(st.sampled_from(kernel_unknowns(m)), max_size=4, unique=True))
        g = g.shear(KernelPolynomial(m, {key: G(draw(part), draw(part)) for key in keys}))
    if draw(st.booleans()):
        d = draw(st.integers(3, trunc))
        e = draw(st.sampled_from([exp_from_bracket(*idx) for idx in all_brackets(d)]))
        g = Germ(2, g.R + Series(2, trunc, {e: G(draw(part), draw(part))}))
    return g, draw(st.integers(3, trunc))


@settings(derandomize=True, deadline=None, max_examples=30)
@given(perturbed_sheared_quadrics())
def test_flatten_matches_the_public_path_on_drawn_germs(case):
    germ, n = case
    assert_driver_matches_reference(germ, n)


@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.germ")), ids=lambda p: p.stem)
def test_flatten_matches_the_public_path_on_every_fixture(path):
    # nongraph fails after its degree-3 shear and sheared_inconsistent before
    # its degree-6 one, so both failure branches' final germs are compared
    germ = load_germ(path)
    assert_driver_matches_reference(germ, min(germ.trunc, 18))


def test_flatten_packs_the_germ_once_and_decodes_it_once(rng, monkeypatch):
    r = sheared_quadric(rng, (3, 4, 5, 7), trunc=8).R
    want = flatten_to_order(Germ(2, r), 8)  # fills the normalization caches
    want.final.R  # decoded before the count
    g = Germ(2, r)  # a germ built from a series holds no packed copy yet
    packed, decoded = [], []
    pack, unpack = series_mod._packed, series_mod._unpacked

    def counted_pack(s, cut):
        packed.append(s)
        return pack(s, cut)

    def counted_unpack(p, nvars, degree=None):
        decoded.append(degree)
        return unpack(p, nvars, degree)

    for module in (series_mod, germ_mod):
        monkeypatch.setattr(module, "_packed", counted_pack)
        monkeypatch.setattr(module, "_unpacked", counted_unpack)
    assert flatten_to_order(g, 8) == want
    # the germ holds conjugate powers; each shear packs only its template, in z alone
    assert [s for s in packed if any(e[2] or e[3] for e in s.nums)] == [g.R]
    # every degree is read on the packed keys, and only the final R is decoded
    assert decoded == [None]


def test_solve_kernel_builds_each_degree_system_once(rng, monkeypatch):
    flatten_mod._normalization_matrix.cache_clear()
    q = parabolic_quadric(8)
    g = q.shear(random_kernel(rng, 5, density=1.0))
    calls = []
    factor = linalg._LeftInverse
    monkeypatch.setattr(linalg, "_LeftInverse", lambda *args: calls.append(1) or factor(*args))
    # the first solve at a degree factors its system, the second reuses the factor
    assert solve_kernel(q, 5).is_zero()
    assert len(calls) == 1
    assert not solve_kernel(g, 5).is_zero()
    assert len(calls) == 1
    info = flatten_mod._normalization_matrix.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def _series_normalization_rows(m):
    # the system in (Re b, Im b) by series arithmetic: per unknown, the
    # tables of Im and Re of z^alpha q2^j at each constrained part
    q2 = parabolic_quadric(m).R
    columns = []
    for (a1, a2), j in kernel_unknowns(m):
        re, im = (Series(2, m, {(a1, a2, 0, 0): 1}) * q2**j).re_im()
        columns += [im, re]
    return [
        [getattr(col.coeff(exp_from_bracket(*con.index)), part) for col in columns]
        for con in normalization_system(m)
        for part in con.parts
    ]


@pytest.mark.parametrize("m", range(3, 15))
def test_normalization_rows_are_the_series_system_scaled_per_unknown(m):
    unknowns, constraints, mat = flatten_mod._normalization_matrix(m)
    want = _series_normalization_rows(m)
    assert (mat.rows, mat.cols) == (len(want), 2 * len(unknowns))
    for row, dense in zip(mat.entries, want):
        assert all(type(v) is int and v for v in row.values())
        scaled = [x * 2 ** (unknowns[c // 2][1] + 1) for c, x in enumerate(dense)]
        assert [row.get(c, 0) for c in range(mat.cols)] == scaled


def test_the_normalization_factors_lift_modulo_one_prime(monkeypatch):
    # the reduced form of [A | I] keeps L small enough for one prime through
    # m = 16, without exact elimination
    monkeypatch.setattr(linalg, "PRIMES", linalg.PRIMES[:1])
    monkeypatch.setattr(linalg, "_echelon", None)
    for m in (3, 4, 9, 16):
        _unknowns, _constraints, mat = flatten_mod._normalization_matrix(m)
        factor = linalg._LeftInverse(mat.entries, mat.cols)
        assert factor.pivots == list(range(mat.cols))


def test_the_normalization_factors_lift_modulo_two_primes_past_order_16(monkeypatch):
    # at m = 17 and 18 the first prime's residues of L do not reconstruct;
    # with the second prime they do, still without exact elimination
    lifts = []
    lift = linalg._lift
    monkeypatch.setattr(linalg, "_lift", lambda res, mod: lifts.append(lift(res, mod)) or lifts[-1])
    monkeypatch.setattr(linalg, "_echelon", None)
    for m in (17, 18):
        lifts.clear()
        _unknowns, _constraints, mat = flatten_mod._normalization_matrix(m)
        factor = linalg._LeftInverse(mat.entries, mat.cols)
        assert factor.pivots == list(range(mat.cols))
        assert lifts[0] is None and lifts[1] is not None and len(lifts) == 2


@pytest.fixture
def fresh_normalization_matrix():
    flatten_mod._normalization_matrix.cache_clear()
    yield flatten_mod._normalization_matrix
    flatten_mod._normalization_matrix.cache_clear()


def _family_with_one_entry_off(m, base):
    # c_k of the first unknown the first constraint reads, off by one there
    family = _shear_family(m, base)
    e = flatten_mod._pack(exp_from_bracket(*normalization_system(m)[0].index), base)
    key = min(key for key in family if key % base**4 == e)
    family[key] += 1
    return family


@pytest.mark.parametrize("corruption", ["w2-without-zb2", "w1-with-zb2", "one-entry-off"])
def test_a_corrupted_map_fails_the_normalization_probe(
    fresh_normalization_matrix, monkeypatch, corruption
):
    if corruption == "w2-without-zb2":
        monkeypatch.setitem(flatten_mod._W_SLOTS, 2, (1,))
    elif corruption == "w1-with-zb2":
        monkeypatch.setitem(flatten_mod._W_SLOTS, 1, (0, 3))
    else:
        monkeypatch.setattr(flatten_mod, "_shear_family", _family_with_one_entry_off)
    for m in (3, 6, 9):
        with pytest.raises(ConsistencyError, match=f"normalization matrix of degree {m} "):
            fresh_normalization_matrix(m)
    assert fresh_normalization_matrix.cache_info().currsize == 0


@pytest.mark.parametrize("m", range(3, 13))
def test_the_shear_family_satisfies_the_condition(m):
    # shears keep the first-order condition: Im(b z^alpha q2^j) satisfies it
    # for every b, so each integer polynomial c_k = z^alpha (2 q2)^j does
    base = m + 2  # the condition of a degree-m family reaches exponent entries m + 1
    family = _shear_family(m, base)
    assert {key // base**4 for key in family} == set(range(len(kernel_unknowns(m))))
    assert flatten_mod._condition(family, base) == {}


# The condition as it was written before its factorization: Phi = E H,
# Psi = w2 D Phi + w1 Phi and D Psi by six derivative passes and sixteen key
# shifts, kept here as the reference for w2 (D^2 + 1) E.


def reference_derivative(family, slot, base):
    p = base**slot
    return {key - p: key // p % base * c for key, c in family.items() if key // p % base}


def reference_w_sum(terms, base):
    acc = {}
    for k, i, family in terms:
        for slot in {1: (0, 2), 2: (1, 3)}[i]:
            for key, c in family.items():
                acc[key + base**slot] = acc.get(key + base**slot, 0) + k * c
    return {key: c for key, c in acc.items() if c}


def reference_condition(family, base):
    d, w = reference_derivative, reference_w_sum
    phi = w(((1, 2, d(family, 2, base)), (-1, 1, d(family, 3, base))), base)
    turned = w(((1, 2, d(phi, 0, base)), (-1, 1, d(phi, 1, base))), base)
    psi = w(((1, 2, turned), (1, 1, phi)), base)
    return w(((1, 2, d(psi, 0, base)), (-1, 1, d(psi, 1, base))), base)


@st.composite
def two_column_families(draw, m, coef=st.integers(-4, 4)):
    """Rows {exponent: {column: value}} of two integer polynomials of degree m.

    Each column is a combination, with weights drawn from ``coef``, of the
    shear polynomials c_k and their conjugates, which satisfy the condition,
    plus terms at the extreme exponents z_i^m and zb_i^m (each a c_k or the
    conjugate of one); half the time one more term at any exponent, in one
    column, which may break it.
    """
    shear = sorted(flatten_mod._regroup(_shear_family(m, m + 1), m + 1).items())
    rows = {}

    def add(e, col, c):
        row = rows.setdefault(e, {})
        row[col] = row.get(col, 0) + c

    for col in (0, 1):
        for k in draw(st.lists(st.integers(0, len(kernel_unknowns(m)) - 1), max_size=3)):
            c, bar = draw(coef), draw(st.booleans())
            for e, row in shear:
                if k in row:
                    add(e[2:] + e[:2] if bar else e, col, c * row[k])
        for slot in range(4):
            add(tuple(m if i == slot else 0 for i in range(4)), col, draw(coef))
    perturbed = draw(st.booleans())
    if perturbed:
        e = exp_from_bracket(*draw(st.sampled_from(all_brackets(m))))
        add(e, draw(st.sampled_from([0, 1])), draw(coef.filter(bool)))
    return rows, perturbed


@pytest.mark.parametrize("m", range(3, 13))
@settings(derandomize=True, deadline=None, max_examples=12)
@given(data=st.data())
def test_the_condition_is_w2_times_its_factor(m, data):
    rows, perturbed = data.draw(two_column_families(m))
    family = flatten_mod._family(rows.items(), m + 2)
    want = reference_condition(family, m + 2)
    assert flatten_mod._condition(family, m + 2) == want
    # the factor keeps the degree, so it fits base m + 1, and w2 is injective
    tight = flatten_mod._family(rows.items(), m + 1)
    assert (not flatten_mod._condition_factor(tight, m + 1)) == (not want)
    assert perturbed or not want


# The driver's condition check as it was before each monomial's pair became
# one integer: x and y in two columns of one family, cut = base^4 apart.


def two_column_verdict(h):
    if isinstance(h, Series):
        h = series_mod._packed(h, h.trunc)
    cut = h.base**4
    family = {}
    for _, terms in h.buckets:
        for key, x, y in terms:
            if x:
                family[key] = x
            if y:
                family[cut + key] = y
    return not flatten_mod._condition_factor(family, h.base)


def pair_series(m, rows):
    """The degree-m series whose pair at e is (rows[e][0], rows[e][1])."""
    return Series._from_pairs(2, m, 1, {e: (r.get(0, 0), r.get(1, 0)) for e, r in rows.items()})


BIG = st.integers(2**200, 2**260).flatmap(lambda v: st.sampled_from([v, -v]))


@pytest.mark.parametrize("m", range(3, 11))
@settings(derandomize=True, deadline=None, max_examples=15)
@given(data=st.data())
def test_the_packed_pair_condition_agrees_with_two_columns(m, data):
    rows, perturbed = data.draw(two_column_families(m, BIG))
    h = pair_series(m, rows)
    want = two_column_verdict(h)
    assert flatten_mod._satisfies_condition(h) == want
    assert want or perturbed


@pytest.mark.parametrize("m", range(3, 11))
def test_the_packed_pair_condition_fails_in_one_part_alone(m):
    # x and y each a wide combination of shear polynomials, so H holds; one
    # unit at a mixed exponent in x alone, or in y alone, breaks it, and so
    # does y = -x / 2^t with x failing, which a too narrow shift would cancel
    shear = flatten_mod._regroup(_shear_family(m, m + 1), m + 1)
    rows = {
        e: {col: sum((3**200 + k + col) * v for k, v in row.items()) for col in (0, 1)}
        for e, row in shear.items()
    }
    assert two_column_verdict(pair_series(m, rows)) is True
    assert flatten_mod._satisfies_condition(pair_series(m, rows)) is True
    mixed = exp_from_bracket(0, 1, m - 1, 0)  # z1 zb2^(m - 1)
    for col in (0, 1):
        broken = {e: dict(r) for e, r in rows.items()}
        broken.setdefault(mixed, {})[col] = broken.get(mixed, {}).get(col, 0) + 1
        h = pair_series(m, broken)
        assert two_column_verdict(h) is False
        assert flatten_mod._satisfies_condition(h) is False
    for t in (0, 1, 2, 64, 200):
        x = 2**t * (2**210 + 1)
        h = pair_series(m, {mixed: {0: x, 1: -x >> t}})
        assert two_column_verdict(h) is False
        assert flatten_mod._satisfies_condition(h) is False


def seed_one_germs():
    """The three flatten-sheared germs of the benchmark at seed 1, built in memory."""
    spec = importlib.util.spec_from_file_location("bench_inputs", BENCH_INPUTS)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    rng = random.Random(1)
    return [loads_germ(inputs.dumps_germ(inputs.sheared_quadric(rng)[0], inputs.FLATTEN_TRUNC))
            for _ in range(inputs.FLATTEN_POOL)]


def test_one_perturbed_coefficient_breaks_each_seed_one_degree():
    for germ in seed_one_germs():
        report = flatten_to_order(germ, germ.trunc)
        assert report.ok
        current = germ
        for m in range(3, germ.trunc + 1):
            h = flatten_mod._imaginary_part(current, m)
            assert flatten_mod._satisfies_condition(h) is two_column_verdict(h) is True
            (degree, terms), = h.buckets
            # the first term whose x or y, one more, breaks the condition
            for part in (0, 1):
                for at, (key, x, y) in enumerate(terms):
                    pair = (x + 1, y) if part == 0 else (x, y + 1)
                    bumped = h._replace(buckets=[(degree, [*terms[:at], (key, *pair),
                                                           *terms[at + 1:]])])
                    if not two_column_verdict(bumped):
                        break
                else:
                    raise AssertionError(f"no coefficient of degree {m} breaks the condition")
                assert flatten_mod._satisfies_condition(bumped) is False
            current = current.shear(report.kernels[m])


def test_flatten_requires_parabolic():
    z1, z2, zb1, zb2 = Series.generators(2, 6)
    with pytest.raises(PreconditionError):
        flatten_to_order(Germ(2, z1 * zb1), 4)


# -- uniqueness ---------------------------------------------------------------------


@pytest.mark.parametrize("m", range(3, 11))
def test_uniqueness_nullspace_is_trivial(m):
    dim, basis = uniqueness_nullspace(m)
    assert dim == 0 and basis == []


@pytest.fixture
def no_normalization(monkeypatch):
    # without normalization constraints the kernel has positive dimension,
    # which reaches the table reconstruction path
    monkeypatch.setattr(flatten_mod, "normalization_system", lambda m: ())


@pytest.mark.parametrize("m, expected", [(3, 8), (4, 12), (5, 18), (6, 24), (7, 32)])
def test_uniqueness_nullspace_rebuilds_kernel_tables(no_normalization, m, expected):
    dim, tables = uniqueness_nullspace(m)
    assert dim == expected and len(tables) == dim
    families = [(t, 1, m - t - 2, 1) for t in range(m - 1)]
    families += [(t, 0, m - t, 0) for t in range(m + 1)]
    for h in tables:
        assert isinstance(h, HTable) and h.m == m
        assert check_fundamental(phi_psi(h)).ok
        assert all(not h.get(idx) for idx in families)
    # linearly independent over the real coordinates of the tables
    coords = [
        [part for idx in all_brackets(m) for part in (h.get(idx).re, h.get(idx).im)]
        for h in tables
    ]
    assert ExactMatrix.from_rows(coords).rank() == dim


@pytest.mark.parametrize("m", range(3, 7))
def test_uniqueness_reality_rows_leave_exactly_the_real_tables(no_normalization, monkeypatch, m):
    # without the condition, the kernel is every real table vanishing on the
    # two families, which are closed under the mirror and hold 2m indices
    unknowns, _rows = flatten_mod._fundamental_matrix(m)
    monkeypatch.setattr(flatten_mod, "_fundamental_matrix", lambda m: (unknowns, []))
    dim, tables = uniqueness_nullspace(m)
    assert dim == len(unknowns) - 2 * m and len(tables) == dim


def test_uniqueness_certified_beyond_degree_10(monkeypatch):
    # a full modular rank certifies the kernel without any exact elimination
    def no_exact(*args):
        raise AssertionError("exact elimination on the certified path")

    monkeypatch.setattr(linalg, "sparse_nullspace", no_exact)
    monkeypatch.setattr(flatten_mod, "fundamental_nullspace", no_exact)
    for m in range(11, 15):
        assert uniqueness_nullspace(m) == (0, [])


@pytest.fixture
def rank_one_short(monkeypatch):
    calls = []

    def exact(rows, ncols):
        calls.append(rows)
        return sparse_nullspace(rows, ncols)

    monkeypatch.setattr(linalg, "rank_mod_p", lambda rows, ncols: ncols - 1)
    monkeypatch.setattr(linalg, "sparse_nullspace", exact)
    return calls


@pytest.mark.parametrize("m", range(3, 8))
def test_uniqueness_nullspace_falls_back_to_exact_elimination(rank_one_short, m):
    assert uniqueness_nullspace(m) == (0, [])
    assert len(rank_one_short) == 2


def test_uniqueness_fallback_bounds_the_exact_nullity(no_normalization, rank_one_short):
    # the exact nullity 4 of each block exceeds the bound n - rank_p = 1
    with pytest.raises(ConsistencyError, match="x block of degree 3"):
        uniqueness_nullspace(3)


def test_uniqueness_fallback_checks_every_kernel_vector(rank_one_short, monkeypatch):
    monkeypatch.setattr(linalg, "sparse_nullspace", lambda rows, ncols: [[G(1)] * ncols])
    with pytest.raises(ConsistencyError, match="x block of degree 4"):
        uniqueness_nullspace(4)


@pytest.mark.parametrize("entry", [G(F(1, 2)), I], ids=["half", "i"])
def test_uniqueness_nullspace_rejects_a_non_integer_condition_entry(monkeypatch, entry):
    # one degree-5 coefficient of every condition series made non-integral
    real = flatten_mod.fundamental_series

    def corrupted(tables):
        s = real(tables)
        return s + Series(2, s.trunc, {(2, 1, 1, 1): entry})

    monkeypatch.setattr(flatten_mod, "fundamental_series", corrupted)
    with pytest.raises(ConsistencyError, match="degree 4"):
        uniqueness_nullspace(4)


def test_fundamental_nullspace_members_satisfy_condition():
    for m in (3, 5):
        for table in fundamental_nullspace(m):
            assert check_fundamental(phi_psi(table, m)).ok


def test_condition_rows_are_the_condition_series():
    m = 5
    unknowns, rows = flatten_mod._fundamental_matrix(m)
    assert unknowns == tuple(all_brackets(m)) and all(rows)
    assert all(type(c) is int for row in rows for c in row.values())
    # a random table's condition series, read off the rows, in bracket order
    rng = random.Random(12)
    table = rand_real_bracket_table(rng, m)
    values = [sum(c * table.get(unknowns[j], 0) for j, c in row.items()) for row in rows]
    series = check_fundamental(phi_psi(table, m)).violations
    assert [v for v in values if v] == [c for _, c in sorted(series)]


def series_built_matrix(m):
    """The condition rows read off the series operators, one unit table at a time."""
    unknowns = all_brackets(m)
    by_bracket = {}
    for j, idx in enumerate(unknowns):
        for e, c in flatten_mod.fundamental_series(phi_psi({idx: 1}, m)).items():
            assert not c.im and c.re.denominator == 1
            by_bracket.setdefault(bracket_from_exp(e), {})[j] = c.re.numerator
    return tuple(unknowns), [by_bracket[b] for b in sorted(by_bracket)]


@pytest.mark.parametrize("m", range(3, 13))
def test_condition_matrix_equals_the_series_built_rows(m):
    assert flatten_mod._fundamental_matrix(m) == series_built_matrix(m)


_rationals = st.builds(F, st.integers(-9, 9), st.sampled_from([1, 2, 4, 3, 7]))


@st.composite
def gaussian_tables(draw):
    m = draw(st.integers(3, 8))
    entries = st.builds(G, _rationals, _rationals)
    return m, draw(st.dictionaries(st.sampled_from(all_brackets(m)), entries, max_size=20))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(gaussian_tables())
def test_condition_rows_apply_as_the_condition_series(case):
    m, table = case
    unknowns, rows = flatten_mod._fundamental_matrix(m)
    values = [sum(c * table.get(unknowns[j], 0) for j, c in row.items()) for row in rows]
    series = check_fundamental(phi_psi(table, m)).violations
    assert [v for v in values if v] == [c for _, c in sorted(series)]


@st.composite
def condition_cases(draw, m):
    """A degree-m table and whether it must satisfy the condition.

    Half are random real-valued tables; the others combine up to four of the
    condition kernel's basis tables with Gaussian-rational weights, and hold.
    """
    gaussian = st.builds(G, _rationals, _rationals)
    table = {}
    if draw(st.booleans()):
        brackets = st.sampled_from(all_brackets(m))
        drawn = draw(st.dictionaries(brackets, gaussian, min_size=1, max_size=12))
        for (t, s, r, h), c in drawn.items():
            for idx, val in (((t, s, r, h), c), ((r, h, t, s), c.conj())):
                table[idx] = table.get(idx, G(0)) + val
        return {k: v for k, v in table.items() if v}, False
    picks = st.tuples(gaussian, st.sampled_from(fundamental_nullspace(m)))
    for weight, basis_table in draw(st.lists(picks, min_size=1, max_size=4)):
        for idx, c in basis_table.items():
            table[idx] = table.get(idx, G(0)) + weight * c
    return {k: v for k, v in table.items() if v}, True


@pytest.mark.parametrize("m", range(3, 11))
@settings(derandomize=True, deadline=None, max_examples=20)
@given(data=st.data())
def test_the_driver_condition_check_equals_the_condition_series(m, data):
    table, holds = data.draw(condition_cases(m))
    ok = check_fundamental(phi_psi(table, m)).ok
    assert flatten_mod._satisfies_condition(table_to_series(table, m)) == ok
    assert ok or not holds


@pytest.mark.parametrize("m", range(3, 9))
def test_the_driver_condition_check_holds_at_the_packing_boundary(m):
    # A series of truncation m is packed with base m + 1, and the factor
    # (D^2 + 1) E keeps the degree.  Its terms at the extreme exponents z1^m,
    # z2^m and conjugates hold the entry m, the largest digit below the base,
    # and E carries terms such as z1^(m - 1) zb2 to it (-w1 z1^(m - 1) holds
    # z1^m).  Each conjugate pair of extreme terms is Im(b z_i^m), which
    # satisfies the condition, so a condition-kernel table keeps holding with
    # them and a unit term at a mixed bracket with entries m - 1 and 1
    # breaks it.
    extremes = {(0, m, 0, 0): G(1, 2), (0, 0, 0, m): G(1, -2)}  # z1^m, zb1^m
    extremes.update({(m, 0, 0, 0): G(3), (0, 0, m, 0): G(3)})  # z2^m, zb2^m
    near = [
        (t, s, r, h)
        for t, s, r, h in all_brackets(m)
        if sorted((t, s, r, h)) == [0, 0, 1, m - 1] and t + s and r + h
    ]
    tables = [(basis, True) for basis in fundamental_nullspace(m)]
    tables += [({idx: G(1)}, False) for idx in near]
    for table, holds in tables:
        table = {**table, **{idx: table.get(idx, G(0)) + c for idx, c in extremes.items()}}
        series = table_to_series(table, m)
        assert series.trunc == m
        assert {exp_from_bracket(*idx) for idx in extremes} <= series.nums.keys()
        assert check_fundamental(phi_psi(table, m)).ok == holds
        assert flatten_mod._satisfies_condition(series) == holds


def corrupted_turn(w2_slots, scaled):
    """The fused field map with w2 put at ``w2_slots``, its derivatives scaled or not."""

    def turn(family, a, b, base, plus=None):
        out = dict(plus or {})
        for key, c in family.items():
            for slot, sign, slots in ((a, 1, w2_slots), (b, -1, (0, 2))):
                k = key // base**slot % base
                if k:
                    for w in slots:
                        at = key - base**slot + base**w
                        out[at] = out.get(at, 0) + sign * (k if scaled else 1) * c
        return {key: c for key, c in out.items() if c}

    return turn


@pytest.mark.parametrize("m", [4, 7])
def test_the_corruptible_field_map_copy_is_the_field_map(m):
    # so each corruption below changes its one named thing and nothing else
    base = m + 2
    units = flatten_mod._family(
        ((exp_from_bracket(*idx), {j: 1}) for j, idx in enumerate(all_brackets(m))), base
    )
    for a, b in ((0, 1), (2, 3)):
        want = flatten_mod._turn(units, a, b, base, units)
        assert corrupted_turn((1, 3), True)(units, a, b, base, units) == want


@pytest.fixture(params=["w2-without-zb2", "unscaled-derivative", "negated-series"])
def corrupted_condition(request, monkeypatch):
    if request.param == "w2-without-zb2":
        monkeypatch.setattr(flatten_mod, "_turn", corrupted_turn((1,), True))
    elif request.param == "unscaled-derivative":
        monkeypatch.setattr(flatten_mod, "_turn", corrupted_turn((1, 3), False))
    else:
        real = flatten_mod.fundamental_series
        monkeypatch.setattr(flatten_mod, "fundamental_series", lambda tables: -real(tables))


@pytest.fixture
def fresh_fundamental_nullspace():
    flatten_mod.fundamental_nullspace.cache_clear()
    yield flatten_mod.fundamental_nullspace
    flatten_mod.fundamental_nullspace.cache_clear()


@pytest.mark.parametrize("delta", [G(1), I], ids=["re", "im"])
def test_fundamental_nullspace_checks_every_basis_vector(
    fresh_fundamental_nullspace, monkeypatch, delta
):
    def corrupted(rows, ncols):
        basis = sparse_nullspace(rows, ncols)
        j = min(rows[0])  # a column the first condition row reads
        basis[2][j] += delta
        return basis

    monkeypatch.setattr(linalg, "sparse_nullspace", corrupted)
    with pytest.raises(ConsistencyError, match="condition of degree 5"):
        fresh_fundamental_nullspace(5)


@pytest.mark.parametrize("m", [4, 7])
def test_a_corrupted_condition_build_fails_its_spot_check(
    corrupted_condition, fresh_fundamental_nullspace, m
):
    with pytest.raises(ConsistencyError, match=f"condition matrix of degree {m} "):
        uniqueness_nullspace(m)
    with pytest.raises(ConsistencyError, match=f"condition matrix of degree {m} "):
        fresh_fundamental_nullspace(m)


@pytest.fixture
def normalization_systems_up_to_8():
    # the same maps build the normalization systems, whose probe rejects a
    # corrupted map (see the build tests); these are built before it is
    for m in range(3, 9):
        flatten_mod._normalization_matrix(m)


@pytest.mark.parametrize(
    "corrupted_condition", ["w2-without-zb2", "unscaled-derivative"], indirect=True
)
def test_a_corrupted_elementary_map_fails_the_driver_condition(
    normalization_systems_up_to_8, corrupted_condition
):
    # every degree of a sheared quadric satisfies the condition, and the
    # driver decides it through the maps alone
    rep = flatten_to_order(load_germ(FIXTURES / "sheared.germ"), 8)
    assert rep.ok and not all(step.fundamental_ok for step in rep.steps)


def test_fundamental_nullspace_bounds_its_nullity(fresh_fundamental_nullspace, monkeypatch):
    # claiming one more modular rank than the rational rank must fail
    monkeypatch.setattr(linalg, "rank_mod_p", lambda rows, ncols: rank_mod_p(rows, ncols) + 1)
    with pytest.raises(ConsistencyError, match="condition of degree 4"):
        fresh_fundamental_nullspace(4)


@pytest.mark.parametrize("m", [11, 12])
def test_identity_audit_on_higher_degree_condition_kernels(m):
    basis = fundamental_nullspace(m)
    assert basis
    for table in basis:
        rep = identity_audit(table, m)
        assert rep.ok, (m, rep.failures)


# -- parity -------------------------------------------------------------------------


def test_parity_audit_pass_and_negative_control(rng):
    assert parity_audit(HTable(5, {})).ok
    # a normalized table from the driver pipeline is zero, hence passes;
    # inject one odd-parity pair and the audit must flag it
    bad = HTable(5, {(0, 1, 2, 2): F(1, 2), (2, 2, 0, 1): F(1, 2)})
    rep = parity_audit(bad)
    assert not rep.ok
    assert any("odd-part coefficient" in f for f in rep.failures)
    even_rep = parity_audit(HTable(4, {}))
    assert even_rep.skipped


def test_parity_audit_reports_a_violated_normalization_hypothesis():
    # z2^5 + zb2^5: pure-z, so the first normalization constraint fails
    rep = parity_audit(HTable(5, {(5, 0, 0, 0): 1, (0, 0, 5, 0): 1}))
    assert not rep.ok
    assert "hypothesis: normalization violated (pure-z s1=0)" in rep.failures


def test_parity_of_flattened_steps(rng):
    # every kernel solve leaves a zero (hence even) normalized remainder
    g = sheared_quadric(rng, (3, 5), trunc=7)
    rep = flatten_to_order(g, 7)
    assert rep.ok
    for step in rep.steps:
        if step.m % 2 == 1:
            assert parity_audit(h_from_germ(rep.final, step.m)).ok
