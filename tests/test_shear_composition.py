"""The composition oracle: the driver's shears, composed, map the input to its final germ.

The flattening driver applies one shear w' = w + B_m(z, w) per weight m to the
graph R, each through the packed core of ``Germ.shear``.  Composed first, the same shears are one
holomorphic polynomial Psi(z, w) = f_n o ... o f_3 (w), f_m = w + B_m(z, w),
and Psi(z, R0) must be the final germ.  Psi is built here by plain dictionary
arithmetic in (z1, z2, w), truncated at weighted degree T (z of weight 1, w of
weight 2), and evaluated at w = R0 by ``Series`` products and powers, never
through ``subst_w``.  Since R0 starts in degree 2, a term of weighted degree
above T lands above degree T, so the truncation loses nothing.
"""

from hypothesis import given, settings, strategies as st

from crflat import (
    GaussianRational,
    Germ,
    KernelPolynomial,
    Series,
    flatten_to_order,
    load_germ,
    load_kernel,
    parabolic_quadric,
)
from crflat.cli import main
from crflat.flatten import kernel_unknowns

from conftest import FIXTURES

G = GaussianRational

# a polynomial in (z1, z2, w): {(a1, a2, j): coefficient} for z1^a1 z2^a2 w^j
Poly = dict[tuple[int, int, int], G]


def _weight(key) -> int:
    a1, a2, j = key
    return a1 + a2 + 2 * j


def _mul(p: Poly, q: Poly, trunc: int) -> Poly:
    out: Poly = {}
    for kp, cp in p.items():
        for kq, cq in q.items():
            key = (kp[0] + kq[0], kp[1] + kq[1], kp[2] + kq[2])
            if _weight(key) <= trunc:
                out[key] = out.get(key, G(0)) + cp * cq
    return {k: c for k, c in out.items() if c}


def compose(kernels: dict[int, KernelPolynomial], trunc: int) -> Poly:
    """Psi = f_n o ... o f_3 through weighted degree ``trunc``, f_m = w + B_m(z, w)."""
    psi: Poly = {(0, 0, 1): G(1)}
    for m in sorted(kernels):
        powers = [{(0, 0, 0): G(1)}]
        out = dict(psi)
        for ((a1, a2), j), b in kernels[m].items():
            while len(powers) <= j:
                powers.append(_mul(powers[-1], psi, trunc))
            for (p1, p2, k), c in powers[j].items():
                key = (p1 + a1, p2 + a2, k)
                if _weight(key) <= trunc:
                    out[key] = out.get(key, G(0)) + b * c
        psi = {k: c for k, c in out.items() if c}
    return psi


def evaluate(psi: Poly, r0: Series) -> Series:
    """Psi(z, R0) = sum over j of P_j(z) * R0**j, by Series products and powers."""
    parts: dict[int, dict] = {}
    for (a1, a2, j), c in psi.items():
        parts.setdefault(j, {})[a1, a2, 0, 0] = c
    out = Series.zero(2, r0.trunc)
    for j, terms in parts.items():
        out = out + Series(2, r0.trunc, terms) * r0**j
    return out


def naive_shear(r: Series, kernel: KernelPolynomial) -> Series:
    """R + B(z, R) by the same evaluation."""
    psi = {(a1, a2, j): b for ((a1, a2), j), b in kernel.items()}
    psi[0, 0, 1] = G(1)
    return evaluate(psi, r)


def test_composed_emitted_kernels_map_the_fixture_to_its_final_germ(tmp_path):
    source = FIXTURES / "sheared9.germ"
    assert main(["flatten", str(source), "--order", "9", "--emit", str(tmp_path)]) == 0
    r0 = load_germ(source).R
    kernels = {m: load_kernel(tmp_path / f"degree{m}.kernel") for m in range(3, 10)}
    assert all(not k.is_zero() for k in kernels.values())
    final = load_germ(tmp_path / "final.germ").R
    assert evaluate(compose(kernels, r0.trunc), r0) == final


@st.composite
def sheared_quadrics(draw):
    """The parabolic quadric sheared at every weight 3..T by Gaussian-integer kernels."""
    trunc = draw(st.integers(3, 12))
    part = st.integers(-2, 2)
    r = parabolic_quadric(trunc).R
    for m in range(3, trunc + 1):
        keys = draw(st.lists(st.sampled_from(kernel_unknowns(m)), max_size=4, unique=True))
        kernel = KernelPolynomial(m, {key: G(draw(part), draw(part)) for key in keys})
        r = naive_shear(r, kernel)
    return Germ(2, r)


@settings(derandomize=True, deadline=None, max_examples=20)
@given(sheared_quadrics())
def test_composed_driver_kernels_map_a_sheared_quadric_to_its_final_germ(germ):
    rep = flatten_to_order(germ, germ.trunc)
    assert rep.ok
    assert evaluate(compose(rep.kernels, germ.trunc), germ.R) == rep.final.R
