"""Grid lemmas: 3x3, short five (plain and refined), relative pullbacks.

Hypothesis checking is eager: each operation validates its input diagram
before concluding anything and reports the first violated condition by
name.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from .baselin import copair_base, pair_base
from .basemor import compose
from .classify2 import classify2
from .core2 import (
    TwoCell,
    TwoMorphism,
    cell_to_zero,
    compose2,
    is_zero_equivalent,
)
from .limits2 import (
    copair2,
    factor_rel_cokernel2,
    factor_rel_kernel2,
    pair2,
    rel_cokernel2,
    rel_kernel2,
)
from .sequences import is_extension, pasting_holds


class ThreeByThree(NamedTuple):
    """Rows (f_i, eta_i, g_i) for i = 1..3, columns (a_j, alpha), (b_j, beta),
    (c_j, gamma) and the four commuting square cells."""

    f: tuple  # (f1, f2, f3)
    g: tuple
    eta: tuple  # row nullhomotopies
    a: tuple  # (a1, a2) first-column verticals
    b: tuple
    c: tuple
    alpha: TwoCell  # a2.a1 => 0
    beta: TwoCell
    gamma: TwoCell
    phi: tuple  # (phi1, phi2): b_i.f_i => f_{i+1}.a_i
    psi: tuple  # (psi1, psi2): c_i.g_i => g_{i+1}.b_i


def _commutes(d: ThreeByThree) -> str | None:
    """The four pasting laws of a commuting 3x3 grid; returns the name of the
    first failure.  The column laws are the row law of the transposed grid,
    whose square cells are phi and psi inverted."""
    f, g, eta, a, b, c, phi, psi = d.f, d.g, d.eta, d.a, d.b, d.c, d.phi, d.psi
    laws = [
        (
            "f3*alpha . phi2*a1 . b2*phi1 = beta*f1",
            (a[0], d.alpha, a[1]), (b[0], d.beta, b[1]), f, (phi[0].inverse(), phi[1].inverse()),
        ),
        (
            "g3*beta . psi2*b1 . c2*psi1 = gamma*g1",
            (b[0], d.beta, b[1]), (c[0], d.gamma, c[1]), g, (psi[0].inverse(), psi[1].inverse()),
        ),
        (
            "eta2*a1 . g2*phi1 . psi1*f1 = c1*eta1",
            (f[0], eta[0], g[0]), (f[1], eta[1], g[1]), (a[0], b[0], c[0]), (phi[0], psi[0]),
        ),
        (
            "eta3*a2 . g3*phi2 . psi2*f2 = c2*eta2",
            (f[1], eta[1], g[1]), (f[2], eta[2], g[2]), (a[1], b[1], c[1]), (phi[1], psi[1]),
        ),
    ]
    for name, row, row2, cols, cells in laws:
        if not pasting_holds(row, row2, cols, cells):
            return name
    return None


@dataclass
class Report:
    ok: bool
    failed_condition: str | None = None
    details: dict = field(default_factory=dict)


def check_3x3(d: ThreeByThree) -> Report:
    """Part 1 of the 3x3 lemma: columns and last two rows extensions imply
    the first row is an extension (hence relative exact at each point)."""
    bad = _commutes(d)
    if bad is not None:
        return Report(False, f"diagram does not commute: {bad}")
    for name, (m, cell, e) in {
        "column a": (d.a[0], d.alpha, d.a[1]),
        "column b": (d.b[0], d.beta, d.b[1]),
        "column c": (d.c[0], d.gamma, d.c[1]),
        "row 2": (d.f[1], d.eta[1], d.g[1]),
        "row 3": (d.f[2], d.eta[2], d.g[2]),
    }.items():
        if not is_extension(m, cell, e):
            return Report(False, f"{name} is not an extension")
    first = is_extension(d.f[0], d.eta[0], d.g[0])
    return Report(first, None if first else "first row fails to be an extension", {
        "first_row_extension": first,
    })


def check_3x3_part2(d: ThreeByThree) -> Report:
    """Part 2: with the middle row and column extensions, all rows/columns
    are extensions iff the six stated conditions hold."""
    bad = _commutes(d)
    if bad is not None:
        return Report(False, f"diagram does not commute: {bad}")
    if not is_extension(d.f[1], d.eta[1], d.g[1]):
        return Report(False, "middle row is not an extension")
    if not is_extension(d.b[0], d.beta, d.b[1]):
        return Report(False, "middle column is not an extension")
    lhs = all(
        is_extension(m, cell, e)
        for m, cell, e in [
            (d.f[0], d.eta[0], d.g[0]),
            (d.f[2], d.eta[2], d.g[2]),
            (d.a[0], d.alpha, d.a[1]),
            (d.c[0], d.gamma, d.c[1]),
        ]
    )
    f1, f2, f3 = d.f
    g1, g2, g3 = d.g
    conds = {}
    # phi1 is a pullback of (f2, b1) relative to (c2 eta2, gamma1 g1 . c2 psi1^{-1})
    y = compose2(d.c[1], g2)
    conds["phi1 relative pullback"] = is_relative_pullback(
        p1=d.a[0], p2=f1, pi=d.phi[0].inverse(),
        f=f2, g=d.b[0], y=y,
        phi_mat=compose(d.c[1].top, d.eta[1].mat),
        psi_mat=compose(d.gamma.mat, g1.bottom) - compose(d.c[1].top, d.psi[0].mat),
    )
    # psi2 is a pushout of (g2, b2) relative to (c1 eta1 . psi1^{-1} f1, beta1 f1)
    conds["psi2 relative pushout"] = is_relative_pushout(
        i1=d.c[1], i2=g3, pi=d.psi[1],
        f=g2, g=d.b[1], x=compose2(d.b[0], f1),
        phi_mat=compose(d.c[0].top, d.eta[0].mat) - compose(d.psi[0].mat, f1.bottom),
        psi_mat=compose(d.beta.mat, f1.bottom),
    )
    conds["g1 eta1-fully 0-cofaithful"] = is_zero_equivalent(
        rel_cokernel2(g1, f1, d.eta[0]).obj
    )
    conds["c1 gamma1-fully 0-faithful"] = is_zero_equivalent(
        rel_kernel2(d.c[0], d.c[1], d.gamma).obj
    )
    conds["a2 alpha1-fully 0-cofaithful"] = is_zero_equivalent(
        rel_cokernel2(d.a[1], d.a[0], d.alpha).obj
    )
    conds["f3 eta3-fully 0-faithful"] = is_zero_equivalent(
        rel_kernel2(f3, g3, d.eta[2]).obj
    )
    rhs = all(conds.values())
    return Report(lhs == rhs, None if lhs == rhs else "part-2 equivalence fails", {
        "all_rows_columns_extensions": lhs,
        **conds,
    })


def is_relative_pullback(p1, p2, pi: TwoCell, f, g, y, phi_mat, psi_mat) -> bool:
    """Is (P; p1: P->A, p2: P->B, pi: f.p1 => g.p2) a pullback of (f, g)
    relative to phi: y.f => 0-ish data and psi?

    phi_mat and psi_mat are the matrices of the relative cells y.f => 0 and
    y.g => 0.
    """
    diff = copair2(f, -g)
    rel_cell = cell_to_zero(compose2(y, diff), copair_base(phi_mat, -psi_mat))
    rk = rel_kernel2(diff, y, rel_cell)
    t = pair2(p1, p2)
    beta = cell_to_zero(compose2(diff, t), pi.mat)
    m = factor_rel_kernel2(rk, t, beta)
    return classify2(m).equivalence


def is_relative_pushout(i1, i2, pi: TwoCell, f, g, x, phi_mat, psi_mat) -> bool:
    """Dual test: (R; i1: A->R, i2: B->R, pi: i1.f => i2.g) a pushout of
    (f: X->A, g: X->B) relative to the given cells."""
    diff = pair2(f, -g)
    rel_cell = cell_to_zero(compose2(diff, x), pair_base(phi_mat, -psi_mat))
    rc = rel_cokernel2(diff, x, rel_cell)
    w = copair2(i1, i2)
    theta = cell_to_zero(compose2(w, diff), pi.mat)
    m = factor_rel_cokernel2(rc, w, theta)
    return classify2(m).equivalence


class ShortFiveInput(NamedTuple):
    f: TwoMorphism
    eta: TwoCell
    g: TwoMorphism
    f2: TwoMorphism
    eta2: TwoCell
    g2: TwoMorphism
    a: TwoMorphism
    b: TwoMorphism
    c: TwoMorphism
    phi: TwoCell  # b.f => f2.a
    psi: TwoCell  # c.g => g2.b


def check_short_five(d: ShortFiveInput) -> Report:
    """Flag propagation from the flanks to the middle of a map of extensions.

    Equivalence and full propagation are asserted over prime fields (they
    are 2-Puppe-exactness and goodness facts); faithful/cofaithful and the
    fully variants hold over both backends.
    """
    if not pasting_holds((d.f, d.eta, d.g), (d.f2, d.eta2, d.g2), (d.a, d.b, d.c), (d.phi, d.psi)):
        return Report(False, "diagram does not commute (pasting condition)")
    if not is_extension(d.f, d.eta, d.g):
        return Report(False, "top row is not an extension")
    if not is_extension(d.f2, d.eta2, d.g2):
        return Report(False, "bottom row is not an extension")
    fa, fb, fc = classify2(d.a), classify2(d.b), classify2(d.c)
    is_field = d.f.top.ring.is_field
    details = {
        "a": fa,
        "b": fb,
        "c": fc,
    }
    conclusions = {}
    if fa.faithful and fc.faithful:
        conclusions["faithful propagates"] = fb.faithful
    if fa.cofaithful and fc.cofaithful:
        conclusions["cofaithful propagates"] = fb.cofaithful
    if fa.fully_faithful and fc.fully_faithful:
        conclusions["fully faithful propagates"] = fb.fully_faithful
    if fa.fully_cofaithful and fc.fully_cofaithful:
        conclusions["fully cofaithful propagates"] = fb.fully_cofaithful
    if is_field:
        if fa.equivalence and fc.equivalence:
            conclusions["equivalence propagates"] = fb.equivalence
        if fa.full and fc.full:
            conclusions["full propagates"] = fb.full
    ok = all(conclusions.values()) if conclusions else True
    details["conclusions"] = conclusions
    return Report(ok, None if ok else "a propagation conclusion failed", details)
