import functools
import importlib.util
import math
import pickle
import random
import sys
from fractions import Fraction as F
from types import MappingProxyType

import pytest
from hypothesis import given, settings, strategies as st

from crflat import (
    Constraint,
    GaussianRational,
    Germ,
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
import crflat.audits as audits_mod
import crflat.flatten as flatten_mod
import crflat.germ as germ_mod
import crflat.linalg as linalg
import crflat.series as series_mod
from crflat.errors import ConsistencyError, InconsistentSystemError, PreconditionError
from crflat.flatten import (
    FlattenReport,
    FlattenStep,
    all_brackets,
    kernel_unknowns,
    series_to_table,
    table_to_series,
)
from crflat.germ import load_germ, loads_germ
from crflat.linalg import rank_mod_p, sparse_nullspace
from crflat.series import bracket_from_exp, exp_from_bracket, subst_w

from conftest import (
    FIXTURES,
    rand_gaussian,
    rand_nonzero_gaussian,
    rand_real_bracket_table,
    shear_template,
)

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


def test_parity_audit_validates_its_table():
    parity_audit({(1, 2, 0, 0): F(1, 2), (0, 0, 1, 2): F(1, 2)}, 3)
    with pytest.raises(PreconditionError, match="mirror coefficient mismatch at"):
        parity_audit({(1, 2, 0, 0): 1}, 3)  # mirror missing
    with pytest.raises(PreconditionError, match="is not homogeneous of degree 3"):
        parity_audit({(1, 1, 0, 0): 1}, 3)  # wrong degree


def test_h_from_germ():
    q = parabolic_quadric(8)
    for m in (3, 4, 5):
        assert h_from_germ(q, m) == {}
    z1, z2, zb1, zb2 = Series.generators(2, 8)
    g = Germ(2, q.R + (z1 * z1 * z2).scale(I))
    h = h_from_germ(g, 3)
    assert h == {
        (0, 0, 1, 2): G(F(1, 2)),
        (1, 2, 0, 0): G(F(1, 2)),
    }
    # a real perturbation contributes nothing to the imaginary part
    g = Germ(2, q.R + z1 * z1 * z1 + zb1 * zb1 * zb1)
    assert h_from_germ(g, 3) == {}


def test_h_from_germ_requires_parabolic():
    z1, z2, zb1, zb2 = Series.generators(2, 6)
    with pytest.raises(PreconditionError):
        h_from_germ(Germ(2, z1 * zb1), 3)


def test_phi_of_z1zb1():
    phi, psi = phi_psi({(0, 1, 0, 1): 1}, 2)
    assert series_to_table(phi) == {(1, 1, 0, 0): G(1), (0, 1, 1, 0): G(1)}  # z1 z2 + z1 zb2
    assert not check_fundamental({(0, 1, 0, 1): 1}, 2)
    assert not flatten_mod.fundamental_series(psi, 2).is_zero()


def test_phi_of_powers_of_real_line():
    # H = (z1 + zb1)^m has Phi = m (z2 + zb2)(z1 + zb1)^(m-1)
    for m in (2, 3, 5):
        line = {}
        from math import comb

        for s in range(m + 1):
            line[(0, s, 0, m - s)] = comb(m, s)
        phi, _ = phi_psi(line, m)
        z1, z2, zb1, zb2 = Series.generators(2, m + 4)
        expect = ((z2 + zb2) * (z1 + zb1) ** (m - 1)).scale(m)
        assert phi == expect


def test_fundamental_for_shear_tables(rng):
    # degree tables produced by shearing the flat quadric always pass
    for m in (3, 4, 5, 6):
        for _ in range(3):
            g = parabolic_quadric(m).shear(random_kernel(rng, m))
            h = h_from_germ(g, m)
            assert check_fundamental(h, m)
            assert recursion_audit(h, m).ok
            assert identity_audit(h, m).ok


@pytest.mark.parametrize("m", [0, 1, 2, 5])
def test_phi_and_psi_are_certified_through_their_degrees(rng, m):
    phi, psi = phi_psi(rand_real_bracket_table(rng, m), m)
    assert (phi.trunc, psi.trunc) == (m, m + 1)


@pytest.mark.parametrize("m", [0, 1, 2, 5])
def test_a_cut_psi_cannot_pass_for_a_zero_condition(rng, m):
    _, psi = phi_psi(rand_real_bracket_table(rng, m), m)
    kept = {e: c for e, c in psi.terms.items() if sum(e) <= m}
    with pytest.raises(PreconditionError, match="exceeds the certified product truncation"):
        flatten_mod.fundamental_series(Series(2, m, kept), m)


@st.composite
def any_degree_gaussian_tables(draw):
    m = draw(st.integers(0, 10))
    entries = st.builds(G, _rationals, _rationals)
    return m, draw(st.dictionaries(st.sampled_from(all_brackets(m)), entries, max_size=25))


@settings(derandomize=True, deadline=None, max_examples=80)
@given(any_degree_gaussian_tables())
def test_the_recursions_rederive_the_series_operators_of_any_table(case):
    # the index-shift recursions of the audits re-derive Phi, Psi and the
    # condition for any table of any degree, real-valued or not
    m, table = case
    assert recursion_audit(table, m).ok
    phi, psi = phi_psi(table, m)
    assert (phi.trunc, psi.trunc) == (m, m + 1)
    assert flatten_mod.fundamental_series(psi, m).trunc == m + 1
    # a Psi cut at degree m certifies no condition through m + 1
    kept = {e: c for e, c in psi.terms.items() if sum(e) <= m}
    with pytest.raises(PreconditionError, match="exceeds the certified product truncation"):
        flatten_mod.fundamental_series(Series(2, m, kept), m)


@pytest.mark.parametrize("audit", [phi_psi, recursion_audit, identity_audit])
@pytest.mark.parametrize(
    "idx", [(1, 0, 0, 0), (1, 1, 1, 1), (-1, 2, 1, 1), (1, 2, 0), (1, 2, 0, 0, 0), (3,)]
)
def test_a_raw_table_must_be_homogeneous_of_its_degree(audit, idx):
    with pytest.raises(PreconditionError, match="is not homogeneous of degree 3") as info:
        audit({idx: 1}, 3)
    assert str(info.value) == f"index {idx} is not homogeneous of degree 3"
    audit({(1, 2, 0, 0): I}, 3)  # a raw table need not be real-valued


def test_fundamental_zero_table():
    assert check_fundamental({}, 4)
    assert recursion_audit({}, 4).ok
    assert identity_audit({}, 4).ok


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
    assert kt.get((1, 1)) == 1
    assert kt.get((1, 0)) == 2  # t=1, r=0 -> sign +
    assert kt.get((0, 0)) == 3
    kt1 = k_transform(table, 2, 1)
    assert kt1.get((1, 0)) == 2  # C(1,1) = 1, r = 0
    assert kt1.get((0, 0)) == 2 * 3  # t=2: C(2,1) = 2
    # only nonzero values are stored, so no negative index is
    assert all(v and min(key) >= 0 for t in (kt, kt1) for key, v in t.items())


def test_identity_audit_on_fundamental_nullspace_basis():
    for m in (3, 4, 5, 6):
        basis = fundamental_nullspace(m)
        assert basis  # shears provide nonzero solutions
        for table in basis:
            rep = identity_audit(table, m)
            assert rep.ok, rep.failures


def test_identity_audit_skips_without_fundamental():
    rep = identity_audit({(0, 1, 0, 1): 1}, 2)
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
    honest = audits_mod.phi_psi

    def phi_off_by_one(h, m):
        phi, psi = honest(h, m)
        return phi + Series(2, m, {exp_from_bracket(1, 1, 1, 1): 1}), psi

    monkeypatch.setattr(audits_mod, "phi_psi", phi_off_by_one)
    rep = recursion_audit(table, 4)
    assert not rep.ok and "phi-recursion mismatch at (1, 1, 1, 1)" in rep.failures
    assert _messages(rep) == {"phi-recursion mismatch", "psi-recursion mismatch"}


def test_recursion_audit_flags_a_corrupted_condition_series(monkeypatch):
    table = _condition_kernel_table()
    honest = audits_mod.fundamental_series
    extra = Series(2, 5, {exp_from_bracket(1, 1, 1, 2): 1})
    monkeypatch.setattr(audits_mod, "fundamental_series", lambda psi, m: honest(psi, m) + extra)
    rep = recursion_audit(table, 4)
    assert rep.failures == ["four-term combination differs from condition series at (1, 1, 1, 2)"]


def test_identity_audit_flags_corrupted_transforms(monkeypatch):
    table = _condition_kernel_table()
    honest = audits_mod.k_transform

    def two_entries_off(tab, degree, k):
        values = dict(honest(tab, degree, k))
        for key in ((0, 0), (1, 1)):
            values[key] = values.get(key, G(0)) + 1
        return values

    monkeypatch.setattr(audits_mod, "k_transform", two_entries_off)
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
        assert rank_mod_p(mat.entries[:unblocked]) == mat.cols, m


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
    assert not check_fundamental(h, 3)
    rep = flatten_to_order(g, 8)
    assert not rep.ok and rep.obstruction_degree == 3
    last = rep.steps[-1]
    assert not last.fundamental_ok
    assert last.remainder


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
    # the remainder for its H' table and H for the condition's definition,
    # both in the germ's base 9
    assert reads == [3, 3] and [p.base for p in decodes] == [9, 9]
    last = rep.steps[-1]
    assert last.normalized_zero is False and last.remainder
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
def test_the_driver_builds_a_table_only_for_a_failing_degree(bucket_reads, name, built):
    rep = flatten_to_order(load_germ(FIXTURES / f"{name}.germ"), 8)
    # the degrees of the packed parts the driver decodes into tables
    tables = sorted({d for p in bucket_reads[1] for d, _ in p.buckets})
    assert rep.ok == (built == 0) and len(tables) == built
    if built:  # the remainder of nongraph, the unsolved table of sheared_inconsistent
        last = rep.steps[-1]
        assert (last.kernel is None) == (name == "sheared_inconsistent")
        assert last.remainder and tables == [rep.obstruction_degree]


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
    """The driver's loop on decoded series: ``subst_w`` at R and ``homogeneous_part``.

    Every degree takes its verdict from the condition's series definition.
    """
    flatten_mod._require_parabolic(germ)
    if n > germ.trunc:
        raise PreconditionError("target order exceeds the germ truncation")
    current, kernels, steps = germ, {}, []
    for m in range(3, n + 1):
        h = imaginary_part(current, m)
        fund_ok = check_fundamental(series_to_table(h), m)
        try:
            kern = solve_kernel(h, m)
        except InconsistentSystemError as exc:
            steps.append(FlattenStep(m, None, None, series_to_table(h), fund_ok, note=str(exc)))
            return FlattenReport(False, m - 1, kernels, current, steps, obstruction_degree=m)
        if not kern.is_zero():
            current = Germ(2, subst_w(shear_template(kern), current.R))
        kernels[m] = kern
        remainder = imaginary_part(current, m)
        if not remainder.is_zero():
            steps.append(FlattenStep(m, kern, False, series_to_table(remainder), fund_ok))
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
    # every table the driver reports, H or H', is real-valued: mirror-conjugate
    for step in got.steps:
        table = step.remainder or {}
        for (t, s, r, h), c in table.items():
            assert table.get((r, h, t, s)) == c.conj(), (step.m, (t, s, r, h))
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
    packed, decoded = [], []
    pack, unpack = series_mod._packed, series_mod._unpacked

    def counted_pack(s, cut):
        packed.append(s)
        return pack(s, cut)

    def counted_unpack(p, nvars):
        decoded.append(p)
        return unpack(p, nvars)

    for module in (series_mod, germ_mod):
        monkeypatch.setattr(module, "_packed", counted_pack)
        monkeypatch.setattr(module, "_unpacked", counted_unpack)
    g = Germ(2, r)  # packs R once and keeps r as its decoded R
    assert flatten_to_order(g, 8) == want
    # the germ holds conjugate powers; each shear packs only its template, in z alone
    assert [s for s in packed if any(e[2] or e[3] for e in s.nums)] == [g.R]
    # every degree is read on the packed keys: the parabolic check decodes the
    # degree-2 bucket alone, and the final R is the one full decode
    quadratic = [bucket for bucket in g._packed_r().buckets if bucket[0] == 2]
    assert len(decoded) == 2 and decoded[0].buckets == quadratic
    assert unpack(decoded[1], 2) == want.final.R


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


# The condition as it was written before its factorization: Phi = E H,
# Psi = w2 D Phi + w1 Phi and D Psi by six derivative passes and sixteen key
# shifts, on flat families {column * base^4 + exponent digits in base: value},
# kept here as the reference for the series definition and the rotation maps.

# exponent slots of w_i = z_i + zb_i in an exponent (z1, z2, zb1, zb2)
W_SLOTS = {1: (0, 2), 2: (1, 3)}


def unpack_key(key, base):
    """The two-variable exponent that ``series._pack`` packed into ``key``."""
    e = []
    for _ in range(4):
        key, k = divmod(key, base)
        e.append(k)
    return tuple(e)


def flat_family(rows, base):
    """Rows (exponent, {column: value}) as one flat family, exponents packed with ``base``."""
    cut = base**4
    return {
        k * cut + series_mod._pack(e, base): c for e, row in rows for k, c in row.items() if c
    }


def reference_derivative(family, slot, base):
    p = base**slot
    return {key - p: key // p % base * c for key, c in family.items() if key // p % base}


def reference_w_sum(terms, base):
    acc = {}
    for k, i, family in terms:
        for slot in W_SLOTS[i]:
            for key, c in family.items():
                acc[key + base**slot] = acc.get(key + base**slot, 0) + k * c
    return {key: c for key, c in acc.items() if c}


def reference_condition(family, base):
    d, w = reference_derivative, reference_w_sum
    phi = w(((1, 2, d(family, 2, base)), (-1, 1, d(family, 3, base))), base)
    turned = w(((1, 2, d(phi, 0, base)), (-1, 1, d(phi, 1, base))), base)
    psi = w(((1, 2, turned), (1, 1, phi)), base)
    return w(((1, 2, d(psi, 0, base)), (-1, 1, d(psi, 1, base))), base)


def reference_factor(family, base):
    """(D^2 + 1) E of each polynomial of a family, from the same references."""
    d, w = reference_derivative, reference_w_sum

    def field(f, a, b):  # w2 d/d(slot a) - w1 d/d(slot b): E for (2, 3), D for (0, 1)
        return w(((1, 2, d(f, a, base)), (-1, 1, d(f, b, base))), base)

    phi = field(family, 2, 3)
    acc = dict(phi)
    for key, c in field(field(phi, 0, 1), 0, 1).items():
        acc[key] = acc.get(key, 0) + c
    return {key: c for key, c in acc.items() if c}


# The shear polynomials as they were built before their closed form: all
# c_k = z^alpha (2 q2)^j of one degree at once, by Horner's rule over j with
# 2 q2 F = w1 (w1 F) + w2 (w2 F) on the reference w-sums, kept as the oracle.


def shear_family(m, base):
    """The c_k of ``kernel_unknowns(m)`` as one flat family, column k packed with ``base``."""
    unknowns = kernel_unknowns(m)
    w_sum = reference_w_sum
    family = {}
    for j in range(m // 2, -1, -1):
        family = w_sum(
            ((1, 1, w_sum(((1, 1, family),), base)), (1, 2, w_sum(((1, 2, family),), base))),
            base,
        )
        units = (((a1, a2, 0, 0), {k: 1}) for k, ((a1, a2), jk) in enumerate(unknowns) if jk == j)
        family.update(flat_family(units, base))
    return family


def regroup(family, base):
    """A flat family as {exponent: {column: value}}."""
    rows = {}
    for key, c in family.items():
        k, e = divmod(key, base**4)
        rows.setdefault(unpack_key(e, base), {})[k] = c
    return rows


@pytest.mark.parametrize("m", range(3, 25))
def test_the_closed_form_is_the_shear_family(m):
    position = {alpha: k for k, (alpha, _j) in enumerate(kernel_unknowns(m))}
    want = regroup(shear_family(m, m + 1), m + 1)
    for idx in all_brackets(m):
        e = exp_from_bracket(*idx)
        assert flatten_mod._shear_coefficients(e, position) == want.get(e, {})


def one_entry_off(e, position):
    """The closed form, one more in its least column at the first constraint's exponent."""
    out = real_shear_coefficients(e, position)
    m = sum(e)
    if out and e == exp_from_bracket(*normalization_system(m)[0].index):
        out[min(out)] += 1
    return out


def binomials_swapped(e, position):
    """The closed form with the z1 and z2 binomials' lower indices exchanged."""
    s, t, h, r = e
    out = {}
    for a1 in range((s + h) % 2, s + 1, 2):
        for a2 in range((t + r) % 2, t + 1, 2):
            k = position.get((a1, a2))
            if k is not None:
                i2, j2 = s - a1 + h, s - a1 + h + t - a2 + r
                comb = math.comb
                out[k] = comb(j2 // 2, i2 // 2) * comb(i2, t - a2) * comb(j2 - i2, s - a1)
    return out


real_shear_coefficients = flatten_mod._shear_coefficients


def map_built_coefficients(e, position):
    """{k: c_k[e]} read off the family the reference w-sums build (``shear_family``)."""
    m = sum(e)
    return dict(regroup(shear_family(m, m + 1), m + 1).get(e, {}))


@pytest.mark.parametrize(
    "corruption", ["w2-without-zb2", "w1-with-zb2", "one-entry-off", "binomials-swapped"]
)
def test_a_corrupted_map_fails_the_normalization_probe(
    fresh_normalization_matrix, monkeypatch, corruption
):
    # the rows read the coefficients of the shear polynomials; read off a
    # family that corrupted w-sums build, or off a corrupted closed form,
    # they disagree with the probe's series arithmetic
    if corruption in ("w2-without-zb2", "w1-with-zb2"):
        i, slots = (2, (1,)) if corruption == "w2-without-zb2" else (1, (0, 3))
        monkeypatch.setitem(W_SLOTS, i, slots)
        closed_form = map_built_coefficients
    else:
        closed_form = one_entry_off if corruption == "one-entry-off" else binomials_swapped
    monkeypatch.setattr(flatten_mod, "_shear_coefficients", closed_form)
    for m in (3, 6, 9):
        with pytest.raises(ConsistencyError, match=f"normalization matrix of degree {m} "):
            fresh_normalization_matrix(m)
    assert fresh_normalization_matrix.cache_info().currsize == 0


@pytest.mark.parametrize("m", range(3, 13))
def test_the_shear_family_satisfies_the_condition(m):
    # shears keep the first-order condition: Im(b z^alpha q2^j) satisfies it
    # for every b, so each integer polynomial c_k = z^alpha (2 q2)^j does
    base = m + 2  # the condition of a degree-m family reaches exponent entries m + 1
    family = shear_family(m, base)
    assert {key // base**4 for key in family} == set(range(len(kernel_unknowns(m))))
    assert reference_condition(family, base) == {}


@st.composite
def two_column_families(draw, m, coef=st.integers(-4, 4)):
    """Rows {exponent: {column: value}} of two integer polynomials of degree m.

    Each column is a combination, with weights drawn from ``coef``, of the
    shear polynomials c_k and their conjugates, which satisfy the condition,
    plus terms at the extreme exponents z_i^m and zb_i^m (each a c_k or the
    conjugate of one); half the time one more term at any exponent, in one
    column, which may break it.
    """
    shear = sorted(regroup(shear_family(m, m + 1), m + 1).items())
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
    # D Psi = w2 (D^2 + 1) E H, on which the module docstring and the
    # condition oracle's kernel rest: w2 is injective, so both vanish together
    rows, perturbed = data.draw(two_column_families(m))
    family = flat_family(rows.items(), m + 2)
    want = reference_condition(family, m + 2)
    assert reference_w_sum(((1, 2, reference_factor(family, m + 2)),), m + 2) == want
    assert perturbed or not want


# The driver's stop verdict is the condition's series definition on H's
# packed integer pairs; the references take x and y in two columns of one
# family, cut = base^4 apart.


def two_column_verdict(h):
    """The reference condition on H's integer pairs (x, y), x and y in two columns."""
    if isinstance(h, Series):
        h = series_mod._packed(h, h.trunc)
    base = max((d for d, _ in h.buckets), default=0) + 2
    cut = base**4
    family = {}
    for _, terms in h.buckets:
        for key, x, y in terms:
            key = series_mod._pack(unpack_key(key, h.base), base)
            if x:
                family[key] = x
            if y:
                family[cut + key] = y
    return not reference_condition(family, base)


def stop_verdict(h, m):
    """The driver's verdict where it stops: the series definition of the condition on H."""
    if not isinstance(h, Series):
        h = series_mod._unpacked(h, 2)
    return check_fundamental(series_to_table(h), m)


def pair_series(m, rows):
    """The degree-m series whose pair at e is (rows[e][0], rows[e][1]), (0, 0) pairs dropped."""
    pairs = {e: (r.get(0, 0), r.get(1, 0)) for e, r in rows.items()}
    return Series._canonical(2, m, 1, {e: p for e, p in pairs.items() if p[0] or p[1]})


BIG = st.integers(2**200, 2**260).flatmap(lambda v: st.sampled_from([v, -v]))


@pytest.mark.parametrize("m", range(3, 11))
@settings(derandomize=True, deadline=None, max_examples=15)
@given(data=st.data())
def test_the_packed_pair_condition_agrees_with_two_columns(m, data):
    rows, perturbed = data.draw(two_column_families(m, BIG))
    h = pair_series(m, rows)
    want = two_column_verdict(h)
    assert stop_verdict(h, m) == want
    assert want or perturbed


@pytest.mark.parametrize("m", range(3, 11))
def test_the_packed_pair_condition_fails_in_one_part_alone(m):
    # x and y each a wide combination of shear polynomials, so H holds; one
    # unit at a mixed exponent in x alone, or in y alone, breaks it, and so
    # does y = -x / 2^t with x failing, which no part of the pair may cancel
    shear = regroup(shear_family(m, m + 1), m + 1)
    rows = {
        e: {col: sum((3**200 + k + col) * v for k, v in row.items()) for col in (0, 1)}
        for e, row in shear.items()
    }
    assert two_column_verdict(pair_series(m, rows)) is True
    assert stop_verdict(pair_series(m, rows), m) is True
    mixed = exp_from_bracket(0, 1, m - 1, 0)  # z1 zb2^(m - 1)
    for col in (0, 1):
        broken = {e: dict(r) for e, r in rows.items()}
        broken.setdefault(mixed, {})[col] = broken.get(mixed, {}).get(col, 0) + 1
        h = pair_series(m, broken)
        assert two_column_verdict(h) is False
        assert stop_verdict(h, m) is False
    for t in (0, 1, 2, 64, 200):
        x = 2**t * (2**210 + 1)
        h = pair_series(m, {mixed: {0: x, 1: -x >> t}})
        assert two_column_verdict(h) is False
        assert stop_verdict(h, m) is False


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
            assert stop_verdict(h, m) is two_column_verdict(h) is True
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
                assert stop_verdict(bumped, m) is False
            current = current.shear(report.kernels[m])


def test_flatten_requires_parabolic():
    z1, z2, zb1, zb2 = Series.generators(2, 6)
    with pytest.raises(PreconditionError):
        flatten_to_order(Germ(2, z1 * zb1), 4)


# -- uniqueness ---------------------------------------------------------------------
#
# The condition and the combined system as they were solved before the shear
# image certified them: x = Re H and y = Im H over all_brackets(m), each
# constraint one integer row on x and one on y, the condition as its integer
# rows in both.  Kept as the oracles of fundamental_nullspace, whose tables
# they must give byte for byte, and of uniqueness_nullspace, whose dimension
# they must give.


@functools.lru_cache(maxsize=None)
def fundamental_matrix(m):
    """The condition on degree-m tables as sparse integer rows, built once per degree.

    Column j belongs to the bracket ``all_brackets(m)[j]`` and row i to
    ``all_brackets(m + 1)[i]``: row i maps each column, the unit table at its
    bracket, to the integer coefficient of the condition of that table at
    bracket i, read off one family of all unit tables taken through
    ``reference_condition``.  The condition is w2 (D^2 + 1) E and multiplying
    by w2 is injective, so these rows have the factor's kernel.  The rows are
    read-only mappings in a tuple, so that no caller can change the cached
    matrix.
    """
    unknowns = all_brackets(m)
    base = m + 2
    units = flat_family(((exp_from_bracket(*idx), {j: 1}) for j, idx in enumerate(unknowns)), base)
    by_key = {}
    for key, c in reference_condition(units, base).items():
        j, e = divmod(key, base**4)
        by_key.setdefault(e, {})[j] = c
    keys = (series_mod._pack(exp_from_bracket(*idx), base) for idx in all_brackets(m + 1))
    return tuple(unknowns), tuple(MappingProxyType(by_key.get(key, {})) for key in keys)


def fundamental_oracle(m):
    """The condition kernel's basis as the exact nullspace of the factor rows."""
    unknowns, rows = fundamental_matrix(m)
    kernel = sparse_nullspace(rows, len(unknowns))
    return tuple({idx: c for idx, c in zip(unknowns, v) if c} for v in kernel)


@pytest.mark.parametrize("m", range(0, 13))
def test_fundamental_nullspace_is_the_oracle_basis(fresh_fundamental_nullspace, m):
    # tables, key order and values; the pickles differ only in object sharing
    basis = fresh_fundamental_nullspace(m)
    assert repr(basis) == repr(fundamental_oracle(m))
    assert len(basis) == shear_parameters(m)


def test_fundamental_nullspace_hands_out_new_tables():
    # an edit to the tables of one call reaches no later call
    basis = fundamental_nullspace(4)
    key = next(iter(basis[0]))
    basis[0][key] += 1
    assert fundamental_nullspace(4) == flatten_mod._fundamental_basis.__wrapped__(4) != basis


def test_fundamental_nullspace_of_degree_0_is_the_constants(fresh_fundamental_nullspace):
    # (2 q2)^0 = 1 is the one shear polynomial; below degree 0 there is none
    assert fresh_fundamental_nullspace(0) == ({(0, 0, 0, 0): G(1)},)
    with pytest.raises(PreconditionError, match="degree of at least 0"):
        fresh_fundamental_nullspace(-1)


def uniqueness_oracle(m, condition=None):
    """The exact nullity of the x and y blocks, with ``condition`` or the condition's rows."""
    unknowns, rows = fundamental_matrix(m)
    condition = rows if condition is None else condition
    col = {idx: j for j, idx in enumerate(unknowns)}
    blocks = {"re": list(condition), "im": list(condition)}
    for t, s, r, h in unknowns:
        here, there = col[(t, s, r, h)], col[(r, h, t, s)]
        if here < there:
            blocks["re"].append({here: 1, there: -1})
            blocks["im"].append({here: 1, there: 1})
        elif here == there:
            blocks["im"].append({here: 2})
    for con in flatten_mod.normalization_system(m):  # so that no_normalization reaches it
        for part in con.parts:
            blocks[part].append({col[con.index]: 1})
    families = [(t, 1, m - t - 2, 1) for t in range(m - 1)]
    families += [(t, 0, m - t, 0) for t in range(m + 1)]
    for idx in families:
        for rows in blocks.values():
            rows.append({col[idx]: 1})
    return sum(len(sparse_nullspace(rows, len(unknowns))) for rows in blocks.values())


@pytest.mark.parametrize("m", range(3, 11))
def test_uniqueness_nullspace_is_trivial(m):
    dim = uniqueness_nullspace(m)
    assert dim == 0


@pytest.fixture
def no_normalization(monkeypatch):
    # without normalization constraints the kernel has positive dimension,
    # which reaches the certificate on the shear image
    monkeypatch.setattr(flatten_mod, "normalization_system", lambda m: ())


@pytest.mark.parametrize("m, expected", [(3, 8), (4, 12), (5, 18), (6, 24), (7, 32)])
def test_uniqueness_nullspace_counts_a_nonzero_kernel(no_normalization, m, expected):
    dim = uniqueness_nullspace(m)
    assert dim == expected


@pytest.mark.parametrize("m", range(3, 17))
@pytest.mark.parametrize("normalized", [True, False], ids=["plain", "no-normalization"])
def test_uniqueness_nullspace_pickles_as_the_oracle(monkeypatch, normalized, m):
    if not normalized:
        monkeypatch.setattr(flatten_mod, "normalization_system", lambda m: ())
    want = uniqueness_oracle(m)
    assert pickle.dumps(uniqueness_nullspace(m)) == pickle.dumps(want)
    assert (want == 0) == normalized


@pytest.mark.parametrize("m", range(3, 7))
def test_uniqueness_reality_rows_leave_exactly_the_real_tables(no_normalization, m):
    # without the condition, the oracle's kernel is every real table vanishing
    # on the two families, which are closed under the mirror and hold 2m indices
    dim = uniqueness_oracle(m, condition=[])
    assert dim == len(all_brackets(m)) - 2 * m


def test_uniqueness_certified_beyond_degree_10(monkeypatch):
    # a full modular rank certifies the kernel without any exact elimination
    def no_exact(*args):
        raise AssertionError("exact elimination on the certified path")

    monkeypatch.setattr(linalg, "sparse_nullspace", no_exact)
    monkeypatch.setattr(flatten_mod, "_echelon", no_exact)
    monkeypatch.setattr(flatten_mod, "fundamental_nullspace", no_exact)
    for m in range(11, 15):
        assert uniqueness_nullspace(m) == 0


@pytest.fixture
def rank_one_short(monkeypatch):
    calls = []

    def exact(rows, ncols):
        calls.append(ncols)
        return sparse_nullspace(rows, ncols)

    # the last column index: one short of full rank, as the last column holds an entry
    monkeypatch.setattr(linalg, "rank_mod_p", lambda rows: max(map(max, filter(None, rows))))
    monkeypatch.setattr(linalg, "sparse_nullspace", exact)
    return calls


def shear_parameters(m):
    """(Re b_k, Im b_k) per unknown of degree m, and tau at even m: the shear parameters."""
    return 2 * len(kernel_unknowns(m)) + (m % 2 == 0)


@pytest.mark.parametrize("m", range(3, 8))
def test_uniqueness_nullspace_falls_back_to_exact_elimination(rank_one_short, m):
    # the parameter matrix, short of full modular rank, is eliminated exactly
    assert uniqueness_nullspace(m) == 0
    assert rank_one_short == [shear_parameters(m)]


def test_uniqueness_fallback_bounds_the_exact_nullity(no_normalization, rank_one_short):
    # the exact nullity 8 of the parameter matrix exceeds the bound cols - rank_p = 1
    with pytest.raises(ConsistencyError, match="shear parameters of degree 3"):
        uniqueness_nullspace(3)


def test_uniqueness_fallback_checks_every_kernel_vector(rank_one_short, monkeypatch):
    monkeypatch.setattr(linalg, "sparse_nullspace", lambda rows, ncols: [[G(1)] * ncols])
    with pytest.raises(ConsistencyError, match="shear parameters of degree 4"):
        uniqueness_nullspace(4)


def test_the_fallback_certifies_the_independence_of_the_shear_polynomials(
    no_normalization, monkeypatch
):
    # with a kernel, full column rank no longer proves independence; the rank
    # of all the tables the parameters give does, and one column repeated breaks it
    real = flatten_mod._shear_matrix

    def repeated_column(m, indices, tau, what):
        mat = real(m, indices, tau, what)
        rows = [{**row, 1: row[0]} if 0 in row else {c: v for c, v in row.items() if c != 1}
                for row in mat.entries]
        return linalg.SparseMatrix(rows, mat.cols)

    monkeypatch.setattr(flatten_mod, "_shear_matrix", repeated_column)
    with pytest.raises(ConsistencyError, match="shear polynomials of degree 5 are dependent"):
        uniqueness_nullspace(5)


def block_share(p, q):
    """The shear image's dimension in the block (p, q)."""
    return 2 * (min(p, q) + 1) - (p == q)


@pytest.mark.parametrize("m", [4, 7])
def test_a_short_block_rank_falls_back_to_exact_elimination(monkeypatch, m):
    exact = []
    real = flatten_mod._exact_block_nullity
    monkeypatch.setattr(flatten_mod, "_block_nullity", lambda p, q: block_share(p, q) + 1)
    monkeypatch.setattr(
        flatten_mod, "_exact_block_nullity", lambda p, q: exact.append(p) or real(p, q)
    )
    assert uniqueness_nullspace(m) == 0
    assert exact == list(range(m // 2 + 1))
    # an exact nullity above the block's share exceeds the vector count
    monkeypatch.setattr(flatten_mod, "_exact_block_nullity", lambda p, q: block_share(p, q) + 1)
    with pytest.raises(ConsistencyError, match=f"condition of degree {m} has nullity above"):
        uniqueness_nullspace(m)


# -- the certificates of the shear image, each against a mutant -----------------------


@pytest.mark.parametrize("m", range(3, 17))
def test_blocks_p_and_m_minus_p_have_equal_rank(m):
    # the exact nullities and the a - b = 1 bounds alike
    for p in range(m + 1):
        share = block_share(p, m - p)
        nullity = flatten_mod._exact_block_nullity(p, m - p)
        assert nullity == flatten_mod._exact_block_nullity(m - p, p) == share
        assert flatten_mod._block_nullity(p, m - p) == flatten_mod._block_nullity(m - p, p) == share


def resonant_points(p, q):
    """|Z|, the number of grid points (a, b) of the block (p, q) with |a - b| <= 1."""
    return sum(abs(a - b) <= 1 for a in range(p + 1) for b in range(q + 1))


@pytest.mark.parametrize("m", range(3, 25))
def test_the_a_minus_b_one_columns_bound_every_block(m):
    # the Schur rank of the a - b = 1 columns is at most the exact rank and
    # at least |Z| - share, so these columns alone certify every block of (c)
    # through m = 24
    for p in range(m + 1):
        q = m - p
        z = resonant_points(p, q)
        subset = z - flatten_mod._block_nullity(p, q)
        exact = z - flatten_mod._exact_block_nullity(p, q)
        assert z - block_share(p, q) <= subset <= exact, (p, q)


# (block, grid point) of omega, nu, sigma and nu', the degree-one generators
GENERATORS = [(1, 0, (1, 0)), (1, 0, (0, 0)), (0, 1, (0, 1)), (0, 1, (0, 0))]


@pytest.mark.parametrize("generator", GENERATORS, ids=["omega", "nu", "sigma", "nu'"])
@pytest.mark.parametrize("sign", [1, -1], ids=["D", "E"])
def test_a_wrong_generator_value_fails_the_tie_to_the_definition(monkeypatch, generator, sign):
    # R + sign S is D / i or E / i; one generator's image negated, only there
    real = flatten_mod._rotation_map
    p0, q0, (a0, b0) = generator

    def wrong(family, p, q, s):
        out = real(family, p, q, s)
        if (p, q, s) == (p0, q0, sign) and family == {(a0, b0, 0): 1}:
            out = {key: -c for key, c in out.items()}
        return out

    assert flatten_mod._rotation_matches_definition() is True
    monkeypatch.setattr(flatten_mod, "_rotation_map", wrong)
    assert flatten_mod._rotation_matches_definition() is False
    with pytest.raises(ConsistencyError, match="rotation coordinates disagree"):
        uniqueness_nullspace(5)


@pytest.mark.parametrize("sign", [1, -1])
def test_a_map_that_moves_two_q2_fails_the_leibniz_certificate(monkeypatch, sign):
    # R + sign S wrong only in degree two, where the tie does not look: it
    # must kill omega sigma = 2 q2
    real = flatten_mod._rotation_map

    def moving(family, p, q, s):
        out = real(family, p, q, s)
        if (p, q, s) == (1, 1, sign) and (1, 1, 0) in family:
            out[0, 1, 0] = out.get((0, 1, 0), 0) + family[1, 1, 0]
        return out

    monkeypatch.setattr(flatten_mod, "_rotation_map", moving)
    assert flatten_mod._rotation_matches_definition() is True
    assert flatten_mod._shear_image_in_kernel() is False
    with pytest.raises(ConsistencyError, match="does not kill the shear polynomials"):
        uniqueness_nullspace(6)


def without_row(p0, q0, t):
    """``_block_factor`` with the row of point t dropped from the block (p0, q0)."""
    real = flatten_mod._block_factor

    def factor(p, q):
        images = real(p, q)
        if (p, q) == (p0, q0):
            images = {s: {u: c for u, c in image.items() if u != t} for s, image in images.items()}
        return images

    return factor


def negated_s(p, q):
    """G with S negated in its first factor: (1 - (R + S)^2)(R + S)."""
    points = [(a, b) for a in range(p + 1) for b in range(q + 1)]
    rm = flatten_mod._rotation_map
    g = rm({(a, b, k): 1 for k, (a, b) in enumerate(points)}, p, q, 1)
    for key, c in rm(rm(g, p, q, 1), p, q, 1).items():
        g[key] = g.get(key, 0) - c
    images = {s: {} for s in points}
    for (a, b, k), c in g.items():
        if c:
            images[points[k]][a, b] = c
    return images


@pytest.mark.parametrize(
    "mutant, block",
    [
        (without_row(0, 6, (0, 2)), "block (0, 6) has nullity 3 over its share 2"),
        (negated_s, "block (1, 5) has nullity 5 over its share 4"),
    ],
    ids=["row-dropped", "S-negated"],
)
def test_a_corrupted_block_exceeds_the_nullity_bound(monkeypatch, mutant, block):
    monkeypatch.setattr(flatten_mod, "_block_factor", mutant)
    with pytest.raises(ConsistencyError, match="condition of degree 6 has nullity above 31") as err:
        uniqueness_nullspace(6)
    # the message names the first block over its share
    assert str(err.value).endswith(f"shear parameters; {block}")


def test_a_block_out_of_grade_order_is_rejected(monkeypatch):
    # the Schur complement solves grade by grade; an image term at the same
    # grade as its point would be missed, so it raises instead
    real = flatten_mod._block_factor

    def sideways(p, q):
        images = real(p, q)
        if (p, q) == (2, 3):
            images[1, 1][2, 0] = 1
        return images

    monkeypatch.setattr(flatten_mod, "_block_factor", sideways)
    with pytest.raises(ConsistencyError, match=r"block \(2, 3\) of the factor is not triangular"):
        uniqueness_nullspace(5)


@pytest.mark.parametrize("corruption", [one_entry_off, binomials_swapped])
def test_a_corrupted_closed_form_fails_the_parameter_probe(monkeypatch, corruption):
    monkeypatch.setattr(flatten_mod, "_shear_coefficients", corruption)
    for m in (3, 6, 9):
        with pytest.raises(ConsistencyError, match=f"shear parameter matrix of degree {m} "):
            uniqueness_nullspace(m)


@pytest.mark.parametrize("m", [4, 6, 10])
def test_dropping_tau_at_even_degree_exceeds_the_nullity_bound(monkeypatch, m):
    # without the column of (2 q2)^(m/2) the parameters undercount the kernel
    real = flatten_mod._shear_matrix
    monkeypatch.setattr(
        flatten_mod, "_shear_matrix", lambda m, indices, tau, what: real(m, indices, False, what)
    )
    assert uniqueness_nullspace(m - 1) == 0
    with pytest.raises(ConsistencyError, match=f"nullity above {shear_parameters(m) - 1} ") as err:
        uniqueness_nullspace(m)
    # every block is within its share, so the message gives their sum
    assert str(err.value).endswith(f"; its blocks' nullities sum to {shear_parameters(m)}")


# Rotation coordinates, as series: omega, nu, sigma, nu' in the slots of
# z1, z2, zb1, zb2 (so a block's p is the sum of the first two entries).


def rotation_of(table, m):
    """A z-table as a polynomial in omega, nu, sigma and nu' (series slots 0..3)."""
    om, nu, si, nup = Series.generators(2, m)
    quarter = G(F(1, 4))
    minus_i_quarter = G(0, F(-1, 4))
    z1 = (om + si + nu + nup).scale(quarter)
    z2 = (om - si + nu - nup).scale(minus_i_quarter)
    zb1 = (om + si - nu - nup).scale(quarter)
    zb2 = (om - si - nu + nup).scale(minus_i_quarter)
    out = Series.zero(2, m)
    for (t, s, r, h), c in table.items():
        out = out + (z1**s * z2**t * zb1**h * zb2**r).scale(c)
    return out


def z_of(rotation, m):
    """A polynomial in omega, nu, sigma, nu' (series slots 0..3) back in z and zb."""
    z1, z2, zb1, zb2 = Series.generators(2, m)
    w1, w2, v1, v2 = z1 + zb1, z2 + zb2, z1 - zb1, z2 - zb2
    om, si = w1 + w2.scale(I), w1 - w2.scale(I)
    nu, nup = v1 + v2.scale(I), v1 - v2.scale(I)
    out = Series.zero(2, m)
    for (a, c, b, d), coef in rotation.items():
        out = out + (om**a * nu**c * si**b * nup**d).scale(coef)
    return out


def block_operator(rotation, m):
    """i G of a polynomial in rotation coordinates, block by block, from the block images."""
    out = {}
    for (a, c, b, d), coef in rotation.items():
        p = a + c
        for (a2, b2), g in flatten_mod._block_factor(p, m - p)[a, b].items():
            e = (a2, p - a2, b2, m - p - b2)
            out[e] = out.get(e, G(0)) + I * coef * g
    return Series(2, m, {e: v for e, v in out.items() if v})


@st.composite
def gaussian_integer_tables(draw):
    m = draw(st.integers(3, 6))
    entries = st.builds(G, st.integers(-5, 5), st.integers(-5, 5))
    return m, draw(st.dictionaries(st.sampled_from(all_brackets(m)), entries, max_size=6))


@settings(derandomize=True, deadline=None, max_examples=40)
@given(gaussian_integer_tables())
def test_the_block_operator_is_the_condition_factor(case):
    # i G, applied in rotation coordinates and written back, is (D^2 + 1) E of
    # the table: times w2 it is the condition, as the reference computes it on
    # the table's two integer parts
    m, table = case
    factor = z_of(block_operator(rotation_of(table, m), m), m)
    z1, z2, zb1, zb2 = Series.generators(2, m + 1)
    got = (z2 + zb2) * Series(2, m + 1, dict(factor.items()))
    base = m + 2
    want = {}
    for unit, part in ((G(1), "re"), (I, "im")):
        rows = ((exp_from_bracket(*idx), {0: int(getattr(c, part))}) for idx, c in table.items())
        for key, c in reference_condition(flat_family(rows, base), base).items():
            e = unpack_key(key, base)
            want[e] = want.get(e, G(0)) + unit * c
    assert got == Series(2, m + 1, {e: v for e, v in want.items() if v})


def corrupt_tie_series(monkeypatch, change):
    """Make the series arithmetic that evaluates D and E on the generators return change(series).

    The tie (``flatten._rotation_matches_definition``) evaluates D and E of
    each generator as one packed sum of products; both kernels and the
    driver's solved degrees read it, so all of them see the corruption.  Only
    the tie's sums change: the probes, the solve and the series definition
    keep theirs.
    """
    real = flatten_mod._sum_of_packed
    tie = flatten_mod._rotation_matches_definition.__code__

    def corrupted(terms, trunc=None):
        value = real(terms, trunc)
        if sys._getframe(1).f_code is not tie:
            return value
        return series_mod._packed(change(series_mod._unpacked(value, 2)), trunc)

    monkeypatch.setattr(flatten_mod, "_sum_of_packed", corrupted)


@pytest.mark.parametrize("entry", [G(F(1, 2)), I], ids=["half", "i"])
def test_uniqueness_nullspace_rejects_a_non_integer_condition_entry(
    fresh_fundamental_nullspace, monkeypatch, entry
):
    # both kernels read the condition through D and E of the four
    # generators, by series arithmetic; one non-integral coefficient there
    # breaks the tie of the integer maps to the definition
    corrupt_tie_series(monkeypatch, lambda s: s + Series(2, s.trunc, {(1, 0, 0, 0): entry}))
    for nullspace in (fresh_fundamental_nullspace, uniqueness_nullspace):
        with pytest.raises(ConsistencyError, match="rotation coordinates disagree .* degree 4"):
            nullspace(4)


def test_fundamental_nullspace_members_satisfy_condition():
    for m in (3, 5):
        for table in fundamental_nullspace(m):
            assert check_fundamental(table, m)


def applied(rows, table, m):
    """The condition rows applied to a degree-m table, as a table of degree m + 1."""
    unknowns = all_brackets(m)
    out = {
        idx: sum(c * table.get(unknowns[j], 0) for j, c in row.items())
        for idx, row in zip(all_brackets(m + 1), rows)
    }
    return {idx: v for idx, v in out.items() if v}


def test_condition_rows_are_the_condition_series():
    m = 5
    unknowns, rows = fundamental_matrix(m)
    assert unknowns == tuple(all_brackets(m)) and len(rows) == len(all_brackets(m + 1))
    assert all(type(c) is int for row in rows for c in row.values())
    # a random table's condition, read off the rows, is its condition series
    rng = random.Random(12)
    table = rand_real_bracket_table(rng, m)
    series = flatten_mod.fundamental_series(phi_psi(table, m)[1], m)
    assert applied(rows, table, m) == series_to_table(series)


def series_built_matrix(m):
    """The condition rows read off the series operators, one unit table at a time."""
    unknowns = all_brackets(m)
    by_bracket = {}
    for j, idx in enumerate(unknowns):
        for e, c in flatten_mod.fundamental_series(phi_psi({idx: 1}, m)[1], m).items():
            assert not c.im and c.re.denominator == 1
            by_bracket.setdefault(bracket_from_exp(e), {})[j] = c.re.numerator
    return tuple(unknowns), [by_bracket[b] for b in sorted(by_bracket)]


@pytest.mark.parametrize("m", range(3, 13))
def test_condition_matrix_equals_the_series_built_rows(m):
    # the reference's rows are the series definition's, bracket by bracket
    unknowns, rows = fundamental_matrix(m)
    assert len(rows) == len(all_brackets(m + 1))
    assert (unknowns, [dict(row) for row in rows if row]) == series_built_matrix(m)


@pytest.mark.parametrize("m", range(3, 17))
def test_the_factor_kernel_is_the_shear_image(m):
    # the shear polynomials over kernel_unknowns(m), their conjugates and,
    # at even m, (2 q2)^(m/2) span the condition kernel, the factor's, and the
    # nullities of the rotation-coordinate blocks add up to the same number
    unknowns, rows = fundamental_matrix(m)
    # the rank does not depend on the column order; with the columns graded
    # by the power s + h of z1 and zb1 the elimination fills in less
    graded = sorted(range(len(unknowns)), key=lambda j: unknowns[j][1] + unknowns[j][3])
    column = {j: k for k, j in enumerate(graded)}
    graded_rows = [{column[j]: c for j, c in row.items()} for row in rows]
    nullity = len(unknowns) - rank_mod_p(graded_rows)
    assert nullity == shear_parameters(m)
    assert sum(flatten_mod._block_nullity(p, m - p) for p in range(m + 1)) == nullity
    assert sum(flatten_mod._exact_block_nullity(p, m - p) for p in range(m + 1)) == nullity
    assert m != 12 or nullity == 97


def factor_rows(m):
    """(D^2 + 1) E on degree-m tables as square integer rows, by ``reference_factor``.

    Column j and row j both belong to the bracket ``all_brackets(m)[j]``.
    """
    unknowns = all_brackets(m)
    base = m + 2
    keys = [series_mod._pack(exp_from_bracket(*idx), base) for idx in unknowns]
    by_key = {}
    units = {j * base**4 + key: 1 for j, key in enumerate(keys)}
    for key, c in reference_factor(units, base).items():
        j, e = divmod(key, base**4)
        by_key.setdefault(e, {})[j] = c
    return [by_key.get(key, {}) for key in keys]


@pytest.mark.parametrize("m", range(3, 9))
def test_the_factor_rows_have_the_kernel_of_the_condition_rows(monkeypatch, m):
    # multiplying by w2 is injective
    unknowns, condition = fundamental_matrix(m)
    rows = factor_rows(m)
    assert sparse_nullspace(rows, len(unknowns)) == sparse_nullspace(condition, len(unknowns))
    # so the oracle's uniqueness kernels agree on either rows, and with the
    # shear image's, also without the normalization constraints, where they
    # are not trivial
    for normalized in (True, False):
        with monkeypatch.context() as patch:
            if not normalized:
                patch.setattr(flatten_mod, "normalization_system", lambda m: ())
            on_condition = uniqueness_oracle(m)
            assert uniqueness_oracle(m, rows) == on_condition == uniqueness_nullspace(m)
            assert (on_condition == 0) == normalized


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
    _unknowns, rows = fundamental_matrix(m)
    series = flatten_mod.fundamental_series(phi_psi(table, m)[1], m)
    assert applied(rows, table, m) == series_to_table(series)


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


def driver_verdicts(table, m):
    """The driver's degree-m verdict on H, and the series definition's.

    H is the table plus its mirror conjugate, a real table, which holds when
    the table does: the condition kernel is closed under the mirror
    conjugation.  The germ is the quadric plus i H, truncated at m, so
    every lower degree flattens with a zero kernel and the driver's last
    step is degree m, read on the germ's packed keys at the base m + 1.
    """
    real = {}
    for (t, s, r, h), c in table.items():
        for idx, v in (((t, s, r, h), c), ((r, h, t, s), c.conj())):
            real[idx] = real.get(idx, G(0)) + v
    real = {idx: v for idx, v in real.items() if v}
    germ = Germ(2, parabolic_quadric(m).R + table_to_series(real, m).scale(I))
    step = flatten_to_order(germ, m).steps[-1]
    assert step.m == m
    return step.fundamental_ok, check_fundamental(real, m)


@pytest.mark.parametrize("m", range(3, 11))
@settings(derandomize=True, deadline=None, max_examples=20)
@given(data=st.data())
def test_the_driver_condition_check_equals_the_condition_series(m, data):
    # where the driver stops it evaluates the definition, and where it
    # solves the degree it takes the certificates' verdict: both must agree
    table, holds = data.draw(condition_cases(m))
    got, want = driver_verdicts(table, m)
    assert got == want
    assert want or not holds


@pytest.mark.parametrize("m", range(3, 9))
def test_the_driver_condition_check_holds_at_the_packing_boundary(m):
    # A germ of truncation m is packed with base m + 1.  Its terms at the
    # extreme exponents z1^m, z2^m and conjugates hold the entry m, the
    # largest digit below the base, from which the driver reads H.  Each
    # conjugate pair of extreme terms is Im(b z_i^m), which satisfies the
    # condition, so a condition-kernel table keeps holding with them and a
    # unit term at a mixed bracket with entries m - 1 and 1 breaks it.
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
        assert check_fundamental(table, m) == holds
        got, want = driver_verdicts(table, m)
        assert got == want and (want or not holds)


def corrupted_rotation_map(weighted=True, flip=1):
    """``_rotation_map`` with R's weight b - a kept or set to 1, and S times ``flip``."""

    def rotation_map(family, p, q, sign):
        out = {}
        for (a, b, k), c in family.items():
            terms = [((a, b, k), (b - a if weighted else 1) * c)]
            if b < q:
                terms.append(((a, b + 1, k), flip * sign * (q - b) * c))
            if a < p:
                terms.append(((a + 1, b, k), -flip * sign * (p - a) * c))
            for key, v in terms:
                out[key] = out.get(key, 0) + v
        return {key: c for key, c in out.items() if c}

    return rotation_map


@pytest.mark.parametrize("m", [4, 7])
def test_the_corruptible_field_map_copy_is_the_field_map(m):
    # so each corruption below changes its one named thing and nothing else
    for p in range(m + 1):
        q = m - p
        points = [(a, b) for a in range(p + 1) for b in range(q + 1)]
        units = {(a, b, k): 1 for k, (a, b) in enumerate(points)}
        for sign in (1, -1):
            want = flatten_mod._rotation_map(units, p, q, sign)
            assert corrupted_rotation_map()(units, p, q, sign) == want


@pytest.fixture(params=["R-unweighted", "S-flipped", "negated-series"])
def corrupted_condition(request, monkeypatch):
    if request.param == "R-unweighted":
        monkeypatch.setattr(flatten_mod, "_rotation_map", corrupted_rotation_map(weighted=False))
    elif request.param == "S-flipped":
        monkeypatch.setattr(flatten_mod, "_rotation_map", corrupted_rotation_map(flip=-1))
    else:
        corrupt_tie_series(monkeypatch, lambda series: -series)
    return request.param


@pytest.fixture
def fresh_fundamental_nullspace():
    flatten_mod._fundamental_basis.cache_clear()
    yield flatten_mod.fundamental_nullspace
    flatten_mod._fundamental_basis.cache_clear()


@pytest.mark.parametrize("delta", [G(1), I], ids=["re", "im"])
def test_fundamental_nullspace_checks_every_basis_vector(
    fresh_fundamental_nullspace, monkeypatch, delta
):
    # one entry of the reduced basis moved off the kernel: the unit table at
    # its bracket breaks the condition
    m, idx = 5, (2, 1, 1, 1)
    assert not check_fundamental({idx: 1}, m)
    real = flatten_mod._reversed_echelon

    def corrupted(vectors, n):
        basis = real(vectors, n)
        basis[2][all_brackets(m).index(idx)] += delta
        return basis

    monkeypatch.setattr(flatten_mod, "_reversed_echelon", corrupted)
    with pytest.raises(ConsistencyError, match=f"condition of degree {m} fails its check"):
        fresh_fundamental_nullspace(m)


def test_fundamental_nullspace_has_one_table_per_shear_parameter(
    fresh_fundamental_nullspace, monkeypatch
):
    # a basis short of a table still passes the check of each table
    real = flatten_mod._reversed_echelon
    monkeypatch.setattr(flatten_mod, "_reversed_echelon", lambda v, n: real(v, n)[:-1])
    with pytest.raises(ConsistencyError, match="condition of degree 6 fails its check"):
        fresh_fundamental_nullspace(6)


@pytest.mark.parametrize("m", [4, 7])
def test_a_corrupted_condition_build_fails_its_spot_check(
    corrupted_condition, fresh_fundamental_nullspace, m
):
    # a corrupted rotation map, or the series arithmetic of D and E negated,
    # fails the tie of the rotation maps to the definition in both kernels
    for nullspace in (fresh_fundamental_nullspace, uniqueness_nullspace):
        with pytest.raises(ConsistencyError, match=f"disagree with D and E at degree {m}$"):
            nullspace(m)


@pytest.fixture
def sheared_to_8():
    """``fixtures/sheared.germ`` and its flattening to order 8, before any corruption."""
    germ = load_germ(FIXTURES / "sheared.germ")
    return germ, flatten_to_order(germ, 8)


@pytest.fixture
def condition_checks(monkeypatch):
    """The tables and degrees the driver evaluates the condition on: its calls of
    ``check_fundamental(h, m)``."""
    checked = []
    real = flatten_mod.check_fundamental
    monkeypatch.setattr(
        flatten_mod, "check_fundamental", lambda h, m: checked.append((h, m)) or real(h, m)
    )
    return checked


def assert_every_solved_degree_reads_false(sheared_to_8, condition_checks):
    # every degree of a sheared quadric satisfies the condition; the driver
    # solves each one and takes its verdict from the certificates alone
    germ, want = sheared_to_8
    assert want.ok and all(step.fundamental_ok for step in want.steps)
    rep = flatten_to_order(germ, 8)
    assert rep.ok and len(rep.steps) == 6 and not any(step.fundamental_ok for step in rep.steps)
    assert rep.kernels == want.kernels and rep.final == want.final and not condition_checks


def test_a_corrupted_elementary_map_fails_the_driver_condition(
    sheared_to_8, corrupted_condition, condition_checks
):
    assert_every_solved_degree_reads_false(sheared_to_8, condition_checks)


def test_a_nonzero_factor_fails_the_solved_degree_certificate(
    sheared_to_8, condition_checks, monkeypatch, fresh_fundamental_nullspace
):
    # a factor G that does not kill the shear polynomials fails (a)
    monkeypatch.setattr(flatten_mod, "_shear_image_in_kernel", lambda: False)
    assert_every_solved_degree_reads_false(sheared_to_8, condition_checks)
    for nullspace in (fresh_fundamental_nullspace, uniqueness_nullspace):
        with pytest.raises(ConsistencyError, match="does not kill the shear polynomials"):
            nullspace(5)


@pytest.mark.parametrize(
    "name, order, calls",
    [
        ("sheared18", 18, 0),
        ("cascade20", 18, 0),
        ("nongraph", 8, 1),
        ("sheared_inconsistent", 8, 1),
    ],
)
def test_the_driver_evaluates_the_condition_only_where_it_stops(
    condition_checks, name, order, calls
):
    # nongraph stops on a nonzero remainder at 3, sheared_inconsistent on an
    # unsolvable degree; every solved degree takes the certificates' verdict
    rep = flatten_to_order(load_germ(FIXTURES / f"{name}.germ"), order)
    assert rep.ok == (calls == 0) and len(condition_checks) == calls
    assert all(step.fundamental_ok for step in rep.steps[: len(rep.steps) - calls])


def test_a_failed_certificate_makes_every_solved_degree_read_false(
    sheared_to_8, condition_checks, monkeypatch, fresh_fundamental_nullspace
):
    monkeypatch.setattr(flatten_mod, "_rotation_matches_definition", lambda: False)
    assert_every_solved_degree_reads_false(sheared_to_8, condition_checks)
    for nullspace in (fresh_fundamental_nullspace, uniqueness_nullspace):
        with pytest.raises(ConsistencyError, match="rotation coordinates disagree"):
            nullspace(5)


def test_fundamental_nullspace_bounds_its_nullity(fresh_fundamental_nullspace, monkeypatch):
    # claiming one more modular rank than the rational rank fails (b), the
    # independence of the shear polynomials: no exact kernel is that small
    monkeypatch.setattr(linalg, "rank_mod_p", lambda rows: rank_mod_p(rows) + 1)
    with pytest.raises(ConsistencyError, match="shear image of degree 4 fails its certificate"):
        fresh_fundamental_nullspace(4)
    # and a block nullity above the shear image's share fails (c)
    monkeypatch.undo()
    monkeypatch.setattr(flatten_mod, "_block_nullity", lambda p, q: block_share(p, q) + 1)
    monkeypatch.setattr(flatten_mod, "_exact_block_nullity", lambda p, q: block_share(p, q) + 1)
    with pytest.raises(ConsistencyError, match="condition of degree 4 has nullity above 17 "):
        fresh_fundamental_nullspace(4)


# above degree 12 every fourth basis table is audited: all 544 tables of
# m = 13..16 take about 7 s, a quarter of them under 2 s
STRIDE = 4


@pytest.mark.parametrize("m", range(3, 17))
def test_identity_audit_on_higher_degree_condition_kernels(m):
    basis = fundamental_nullspace(m)
    assert len(basis) == shear_parameters(m)
    for table in basis if m <= 12 else basis[::STRIDE]:
        rep = identity_audit(table, m)
        assert rep.ok, (m, rep.failures)


# -- parity -------------------------------------------------------------------------


def test_parity_audit_pass_and_negative_control(rng):
    assert parity_audit({}, 5).ok
    # zero values are dropped, so a zero odd-parity entry is no finding
    assert parity_audit({(0, 1, 2, 2): 0, (2, 2, 0, 1): F(0)}, 5).ok
    # a normalized table from the driver pipeline is zero, hence passes;
    # inject one odd-parity pair and the audit must flag it
    bad = {(0, 1, 2, 2): F(1, 2), (2, 2, 0, 1): F(1, 2)}
    rep = parity_audit(bad, 5)
    assert not rep.ok
    assert any("odd-part coefficient" in f for f in rep.failures)
    even_rep = parity_audit({}, 4)
    assert even_rep.skipped


def test_parity_audit_reports_a_violated_normalization_hypothesis():
    # z2^5 + zb2^5: pure-z, so the first normalization constraint fails
    rep = parity_audit({(5, 0, 0, 0): 1, (0, 0, 5, 0): 1}, 5)
    assert not rep.ok
    assert "hypothesis: normalization violated (pure-z s1=0)" in rep.failures


def test_parity_of_flattened_steps(rng):
    # every kernel solve leaves a zero (hence even) normalized remainder
    g = sheared_quadric(rng, (3, 5), trunc=7)
    rep = flatten_to_order(g, 7)
    assert rep.ok
    for step in rep.steps:
        if step.m % 2 == 1:
            assert parity_audit(h_from_germ(rep.final, step.m), step.m).ok
