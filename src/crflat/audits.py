"""Recursion audits: a second derivation of the operators of ``crflat.flatten``.

There Phi, Psi and the first-order condition are series arithmetic.  Here
they are coefficient shifts on bracket tables [t s r h] (the coefficient of
z1^s z2^t zb1^h zb2^r), alternating-sum transforms and their identities,
and each audit reports every disagreement with the series.  Lookups at
negative indices are zero.  No other module imports this one, and no
command-line verb runs it.
"""

from __future__ import annotations

import math
from typing import Mapping, NamedTuple, Optional

from .flatten import (
    Bracket,
    HTable,
    Table,
    _table_and_degree,
    _tget,
    all_brackets,
    check_fundamental,
    constraint_residuals,
    fundamental_series,
    normalization_system,
    phi_psi,
    series_to_table,
)
from .numeric import GaussianRational, ZERO


class AuditReport:
    """An audit's verdict; each report built without ``failures`` gets its own list."""

    __slots__ = ("ok", "failures", "skipped")

    def __init__(self, ok: bool, failures: list[str] | None = None, skipped: Optional[str] = None):
        self.ok = ok
        self.failures = [] if failures is None else failures
        self.skipped = skipped

    def __eq__(self, other):
        if not isinstance(other, AuditReport):
            return NotImplemented
        return (self.ok, self.failures, self.skipped) == (other.ok, other.failures, other.skipped)

    def __repr__(self):
        return f"AuditReport(ok={self.ok!r}, failures={self.failures!r}, skipped={self.skipped!r})"


def _phi_recursion(h: Mapping[Bracket, GaussianRational], idx: Bracket) -> GaussianRational:
    t, s, r, h_ = idx
    return (
        (h_ + 1) * _tget(h, (t, s, r - 1, h_ + 1))
        + (h_ + 1) * _tget(h, (t - 1, s, r, h_ + 1))
        - (r + 1) * _tget(h, (t, s - 1, r + 1, h_))
        - (r + 1) * _tget(h, (t, s, r + 1, h_ - 1))
    )


def _psi_recursion(phi: Mapping[Bracket, GaussianRational], idx: Bracket) -> GaussianRational:
    t, s, r, h_ = idx
    return (
        (s + 1)
        * (
            _tget(phi, (t, s + 1, r - 2, h_))
            + 2 * _tget(phi, (t - 1, s + 1, r - 1, h_))
            + _tget(phi, (t - 2, s + 1, r, h_))
        )
        - (t + 1) * _tget(phi, (t + 1, s, r - 1, h_ - 1))
        - t * _tget(phi, (t, s, r, h_ - 1))
        - (t + 1) * _tget(phi, (t + 1, s - 1, r - 1, h_))
        - t * _tget(phi, (t, s - 1, r, h_))
        + _tget(phi, (t, s, r, h_ - 1))
        + _tget(phi, (t, s - 1, r, h_))
    )


def _iden_combination(psi: Mapping[Bracket, GaussianRational], idx: Bracket) -> GaussianRational:
    t, s, r, h_ = idx
    return (
        (s + 1) * _tget(psi, (t - 1, s + 1, r, h_))
        + (s + 1) * _tget(psi, (t, s + 1, r - 1, h_))
        - (t + 1) * _tget(psi, (t + 1, s - 1, r, h_))
        - (t + 1) * _tget(psi, (t + 1, s, r, h_ - 1))
    )


def recursion_audit(h: HTable | Mapping[Bracket, object], m: int | None = None) -> AuditReport:
    """Check the coefficient recursions against the series-computed operators.

    The first two identities re-derive Phi from H and Psi from Phi by index
    shifts; the third states that the alternating four-term combination of
    Psi coefficients agrees, index by index, with the first-order condition
    series.  Exact equality is required everywhere.
    """
    table, m = _table_and_degree(h, m)
    tables = phi_psi(table, m)
    phi, psi = series_to_table(tables.phi), series_to_table(tables.psi)
    failures = []
    for idx in all_brackets(m):
        if _tget(phi, idx) != _phi_recursion(table, idx):
            failures.append(f"phi-recursion mismatch at {idx}")
    for idx in all_brackets(m + 1):
        if _tget(psi, idx) != _psi_recursion(phi, idx):
            failures.append(f"psi-recursion mismatch at {idx}")
    fund = series_to_table(fundamental_series(tables))
    for idx in all_brackets(m + 1):
        if _iden_combination(psi, idx) != _tget(fund, idx):
            failures.append(f"four-term combination differs from condition series at {idx}")
    return AuditReport(not failures, failures)


# -- alternating-sum transforms ---------------------------------------------------


def _binom(t: int, k: int) -> int:
    if k < 0 or t < k:
        return 0
    return math.comb(t, k)


class KTransform(NamedTuple):
    k: int
    values: Table

    def get(self, s: int, h: int) -> GaussianRational:
        if s < 0 or h < 0:
            return ZERO
        return self.values.get((s, h), ZERO)


def k_transform(table: Mapping[Bracket, GaussianRational], degree: int, k: int) -> KTransform:
    """Alternating binomial-weighted sums over the first bracket slot.

    values[(s, h)] = sum_t (-1)^(degree - t - s - h) C(t, k) table[t s r h]
    with r = degree - t - s - h.
    """
    values: Table = {}
    for s in range(degree + 1):
        for h in range(degree + 1 - s):
            acc = ZERO
            for t in range(k if k > 0 else 0, degree + 1 - s - h):
                r = degree - t - s - h
                c = _tget(table, (t, s, r, h))
                if c:
                    w = _binom(t, k)
                    if w:
                        acc = acc + c * ((-1) ** (r % 2) * w)
            if acc:
                values[(s, h)] = acc
    return KTransform(k, values)


def identity_audit(h: HTable | Mapping[Bracket, object], m: int | None = None) -> AuditReport:
    """Verify the transform-level identities at lowest conjugate weight.

    Requires the first-order condition to hold for H (the audit is skipped
    otherwise).  Checked for every k and s in range, all with exact
    arithmetic:

    * the transform of Phi at (s, 0) against the three-term combination of
      transforms of H,
    * the transform of Psi at (s, 0) against transforms of Phi,
    * the two-sided ladder between Psi transforms of adjacent k,

    and for even degree additionally the odd-transform chain at the origin
    slot and the closing three-term identity on H transforms.
    """
    table, m = _table_and_degree(h, m)
    tables = phi_psi(table, m)
    fund = check_fundamental(tables)
    if not fund.ok:
        return AuditReport(False, skipped="first-order condition fails for this table")
    hk = {k: k_transform(table, m, k) for k in range(-1, m + 4)}
    phi, psi = series_to_table(tables.phi), series_to_table(tables.psi)
    pk = {k: k_transform(phi, m, k) for k in range(-2, m + 4)}
    sk = {k: k_transform(psi, m + 1, k) for k in range(-1, m + 4)}
    failures = []
    for k in range(0, m + 3):
        for s in range(0, m + 3):
            lhs = pk[k].get(s, 0)
            rhs = (
                hk[k - 1].get(s, 1)
                + (m - s + 1 - k) * hk[k].get(s - 1, 0)
                - (k + 1) * hk[k + 1].get(s - 1, 0)
            )
            if lhs != rhs:
                failures.append(f"phi-transform identity fails at k={k}, s={s}")
            lhs = sk[k].get(s, 0)
            rhs = (s + 1) * pk[k - 2].get(s + 1, 0) - (k - 1) * pk[k].get(s - 1, 0)
            if lhs != rhs:
                failures.append(f"psi-transform identity fails at k={k}, s={s}")
            lhs = (s + 1) * sk[k - 1].get(s + 1, 0)
            rhs = (k + 1) * sk[k + 1].get(s - 1, 0)
            if lhs != rhs:
                failures.append(f"psi-transform ladder fails at k={k}, s={s}")
    if m % 2 == 0:
        for k in range(0, m + 2, 2):
            if sk[k + 1].get(0, 0):
                failures.append(f"odd psi-transform at the origin is nonzero for k={k + 1}")
        for l in range(1, m // 2 + 2):
            val = (
                hk[2 * l - 2].get(1, 1)
                + (m + 1 - 2 * l) * hk[2 * l - 1].get(0, 0)
                - 2 * l * hk[2 * l].get(0, 0)
            )
            if val:
                failures.append(f"closing identity fails at l={l}")
    return AuditReport(not failures, failures)


def parity_audit(h: HTable) -> AuditReport:
    """For odd degree: the part odd under z1 -> -z1 must vanish.

    Under the hypotheses that the table satisfies the first-order condition
    and the normalization conditions, its odd part (monomials with s + h
    odd) lies in the kernel of the combined system of
    ``uniqueness_nullspace`` -- the two vanishing families hold automatically
    since those indices have even s + h -- and that kernel is trivial, so the
    odd part must be zero.  Hypothesis failures and surviving odd coefficients
    are both reported as findings, so an injected odd coefficient is always
    caught.
    """
    m = h.m
    if m % 2 == 0:
        return AuditReport(False, skipped="parity audit applies to odd degrees")
    failures = []
    if not check_fundamental(phi_psi(h)).ok:
        failures.append("hypothesis: first-order condition fails for this table")
    for con, _ in constraint_residuals(normalization_system(m), h.coeffs):
        failures.append(f"hypothesis: normalization violated ({con.label})")
    failures.extend(
        f"odd-part coefficient survives at {idx}"
        for idx, _ in h.items()
        if (idx[1] + idx[3]) % 2 == 1
    )
    return AuditReport(not failures, failures)
