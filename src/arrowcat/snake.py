"""The snake lemma: the six-term kernel-cokernel sequence of a column map.

One construction (generalized_snake; plain_snake is the same function).
The rows need only (g, eta) = Coker f on top and (f', eta') = Ker g' at
the bottom; extension rows are the classical case.  The connecting
morphism is built through the pushout I of the left square (two-square
lemma) and the triangle construction d = q'_a . k'_c (_connecting): lifting
Kc along j uses only that g is a cokernel, and killing c'.s only that f' is
a kernel, so no reduction to an inner diagram of extensions is needed.  A
column's kernel and cokernel are limits2's KernelData and CokernelData:
canonical (kernel2, cokernel2, or the homology presentations of les) or
presented with kfull or qfull None (any deformation of the canonical kmor
or qmor with its cell carried along).  The induced maps on them come from
limits2.factor_through_kernel_data and factor_through_cokernel_data: on
canonical data factor_kernel2's or factor_cokernel2's strict
factorization, on presented data one solve for the square and its cell.

Maps and cells out of I come from its universal property: j, c' and q'_a
are one factor_cokernel2 each (q'_a is 0 along i1 and q_a along i2), and
the cell psi2 out of I is given by its whiskers along i1 and i2 and checked
by TwoCell.  k'_c maps into I, so it is solved for: a LinearSystem whose
unknowns are declared with core2's add_square, add_cell and add_homotopy,
plus the pasting equation.

The sequence ends in one tail (_six_term).  etabar is the cell
gbar.fbar => 0 whose kc-whisker is eta*ka composed with the inverses of the
factorization cells of fbar and gbar; it is unique because the kernel
inclusion kc is faithful, it is read off when kc.top is an identity
(canonical data) and otherwise is one limits2.solve_cell pinned along
kc.top.  etabar2 is the dual, pinned along qa.bottom.  The connecting cells
delta and delta' are one LinearSystem pinned by the three mu-identities,
which are then asserted exactly.
"""

from __future__ import annotations

from typing import NamedTuple

from .baselin import LinearSystem, copair_base
from .basemor import compose, identity_mor
from .core2 import (
    TwoCell,
    TwoMorphism,
    add_cell,
    add_homotopy,
    add_square,
    cell_to_zero,
    compose2,
    loop_cell,
    solved_square,
    vcomp2,
    whisker_left,
    whisker_right,
    zero2,
)
from .limits2 import (
    CokernelData,
    KernelData,
    cokernel2,
    copair2,
    factor_cokernel2,
    factor_through_cokernel_data,
    factor_through_kernel_data,
    kernel2,
    pushout2,
    solve_cell,
)
from .sequences import pasting_holds


class ColumnData(NamedTuple):
    mor: TwoMorphism
    ker: KernelData
    coker: CokernelData


def column_data(col: TwoMorphism) -> ColumnData:
    """A column with its canonical kernel and cokernel data."""
    return ColumnData(col, kernel2(col), cokernel2(col))


def mu_loop(cdata: ColumnData) -> TwoCell:
    """The loop zeta*k . q*kappa^{-1}: Ker -> Coker of a column."""
    mat = compose(cdata.coker.zeta.mat, cdata.ker.kmor.bottom) - compose(
        cdata.coker.qmor.top, cdata.ker.kappa.mat
    )
    return loop_cell(cdata.ker.obj, cdata.coker.obj, mat)


class SnakeResult(NamedTuple):
    fbar: TwoMorphism
    etabar: TwoCell
    gbar: TwoMorphism
    delta: TwoCell
    d: TwoMorphism
    delta_prime: TwoCell
    fbar2: TwoMorphism
    etabar2: TwoCell
    gbar2: TwoMorphism
    mu_a: TwoCell
    mu_b: TwoCell
    mu_c: TwoCell
    col_a: ColumnData
    col_b: ColumnData
    col_c: ColumnData

    def sequence(self):
        """(maps, cells) of the six-term sequence Ka..Qc."""
        maps = (self.fbar, self.gbar, self.d, self.fbar2, self.gbar2)
        cells = (self.etabar, self.delta, self.delta_prime, self.etabar2)
        return maps, cells


def _induced_maps(f, g, f2, g2, a: ColumnData, b: ColumnData, c: ColumnData, phi, psi):
    """(fbar, th_f), (gbar, th_g), (fbar2, ps_f), (gbar2, ps_g): the maps on
    the kernels and cokernels of the columns with their factorization cells
    th_f: f.ka => kb.fbar, th_g: g.kb => kc.gbar, ps_f: qb.f2 => fbar2.qa and
    ps_g: qc.g2 => gbar2.qb."""
    beta_f = vcomp2(whisker_left(f2, a.ker.kappa), whisker_right(phi, a.ker.kmor))
    beta_g = vcomp2(whisker_left(g2, b.ker.kappa), whisker_right(psi, b.ker.kmor))
    theta_f = vcomp2(whisker_right(b.coker.zeta, f), whisker_left(b.coker.qmor, phi.inverse()))
    theta_g = vcomp2(whisker_right(c.coker.zeta, g), whisker_left(c.coker.qmor, psi.inverse()))
    return (
        factor_through_kernel_data(b.mor, b.ker, compose2(f, a.ker.kmor), beta_f),
        factor_through_kernel_data(c.mor, c.ker, compose2(g, b.ker.kmor), beta_g),
        factor_through_cokernel_data(a.mor, a.coker, compose2(b.coker.qmor, f2), theta_f),
        factor_through_cokernel_data(b.mor, b.coker, compose2(c.coker.qmor, g2), theta_g),
    )


def _connecting(f, eta, g, f2, eta2, g2, a: ColumnData, b: ColumnData, c: ColumnData, phi, psi):
    """d = q'_a . k'_c: Kc -> Qa, from the column squares, Ker c and Coker a
    alone."""
    a_mor, b_mor, c_mor, kc, qa = a.mor, b.mor, c.mor, c.ker, a.coker
    # two-square construction on the left square (f, a; f2, b)
    po = pushout2(f, a_mor)
    w_j = copair2(g, zero2(a_mor.dst, g.dst))
    j = factor_cokernel2(po.cokernel, w_j, cell_to_zero(compose2(w_j, po.diff), eta.mat))
    w_c = copair2(b_mor, f2)
    cprime = factor_cokernel2(po.cokernel, w_c, cell_to_zero(compose2(w_c, po.diff), phi.mat))
    chi = copair_base(-psi.mat, eta2.mat)
    psi2 = TwoCell(compose2(g2, cprime), compose2(c_mor, j), chi)

    # k'_c: Kc -> I with cells xi and kappa'_c
    sys = LinearSystem(f.top.ring)
    s = add_square(sys, "s", kc.obj, po.obj)
    kp = add_cell(sys, "kp", kc.obj, b_mor.dst)
    xi = add_cell(sys, "xi", kc.obj, c_mor.src)
    # xi: kc_mor => j . s
    add_homotopy(sys, xi, kc.kmor, [(1, j, s, None)])
    # kp: c' . s => 0
    add_homotopy(sys, kp, [(1, cprime, s, None)], [])
    # pasting: c.xi - psi2.s0 + g2.kp = kappa_c
    sys.add_equation(
        [
            (1, c_mor.top, xi.name, None),
            (-1, psi2.mat, s.bottom, None),
            (1, g2.top, kp.name, None),
        ],
        kc.kappa.mat,
    )
    sol = sys.solve()
    if sol is None:
        raise AssertionError("k'_c system is not solvable")
    kprime_c = solved_square(sol, s)

    # q'_a: I -> Qa, strict on i1 (zero) and on i2 (qa), so zeta'_a = 0
    w_q = copair2(zero2(f.dst, qa.obj), qa.qmor)
    qprime_a = factor_cokernel2(po.cokernel, w_q, cell_to_zero(compose2(w_q, po.diff), -qa.zeta.mat))
    return compose2(qprime_a, kprime_c)


def _null_cell_along(u: TwoMorphism, left, right, pin) -> TwoCell:
    """The cell u => 0 whose matrix alpha has left . alpha . right = pin, for
    a faithful left or a cofaithful right (the other one None): pin itself
    when that one is an identity, else solved for."""
    side = left if right is None else right
    if side == identity_mor(side.src):
        return cell_to_zero(u, pin)
    return solve_cell(u, zero2(u.src, u.dst), [(1, left, right, pin)])


def _six_term(eta, g, f2, eta2, a: ColumnData, b: ColumnData, c: ColumnData, induced, d) -> SnakeResult:
    """The six-term sequence of either snake from its induced maps (with
    their factorization cells) and its connecting map d."""
    (fbar, th_f), (gbar, th_g), (fbar2, ps_f), (gbar2, ps_g) = induced
    # kc*etabar = eta*ka . g*th_f^-1 . th_g^-1*fbar
    etabar = _null_cell_along(
        compose2(gbar, fbar),
        c.ker.kmor.top,
        None,
        compose(eta.mat, a.ker.kmor.bottom) - compose(g.top, th_f.mat) - compose(th_g.mat, fbar.bottom),
    )
    # etabar2*qa = qc*eta2 . ps_g^-1*f2 . gbar2*ps_f^-1
    etabar2 = _null_cell_along(
        compose2(gbar2, fbar2),
        None,
        a.coker.qmor.bottom,
        compose(c.coker.qmor.top, eta2.mat) - compose(gbar2.top, ps_f.mat) - compose(ps_g.mat, f2.bottom),
    )
    mu_a, mu_b, mu_c = mu_loop(a), mu_loop(b), mu_loop(c)

    sys = LinearSystem(eta.mat.ring)
    de = add_cell(sys, "de", b.ker.obj, a.coker.obj)
    dp = add_cell(sys, "dp", c.ker.obj, b.coker.obj)
    dg = compose2(d, gbar)
    fd = compose2(fbar2, d)
    # delta: d.gbar => 0
    add_homotopy(sys, de, dg, [])
    # delta': fbar2.d => 0
    add_homotopy(sys, dp, fd, [])
    # identity 1: delta.fbar0 = mu_a + d1.etabar
    sys.add_equation([(1, None, de.name, fbar.bottom)], mu_a.mat + compose(d.top, etabar.mat))
    # identity 2: delta'.gbar0 - fbar2_1.delta = -mu_b
    sys.add_equation(
        [(1, None, dp.name, gbar.bottom), (-1, fbar2.top, de.name, None)], -mu_b.mat
    )
    # identity 3: gbar2_1.delta' = etabar2.d0 - mu_c
    sys.add_equation(
        [(1, gbar2.top, dp.name, None)], compose(etabar2.mat, d.bottom) - mu_c.mat
    )
    sol = sys.solve()
    if sol is None:
        raise AssertionError("snake connecting cells do not exist")
    delta, delta_prime = cell_to_zero(dg, sol[de.name]), cell_to_zero(fd, sol[dp.name])

    # the three mu-identities, asserted exactly
    if compose(delta.mat, fbar.bottom) - compose(d.top, etabar.mat) != mu_a.mat:
        raise AssertionError("snake mu-identity 1 fails")
    if compose(delta_prime.mat, gbar.bottom) - compose(fbar2.top, delta.mat) != -mu_b.mat:
        raise AssertionError("snake mu-identity 2 fails")
    if compose(etabar2.mat, d.bottom) - compose(gbar2.top, delta_prime.mat) != mu_c.mat:
        raise AssertionError("snake mu-identity 3 fails")
    return SnakeResult(
        fbar, etabar, gbar, delta, d, delta_prime, fbar2, etabar2, gbar2, mu_a, mu_b, mu_c, a, b, c
    )


def generalized_snake(
    f: TwoMorphism,
    eta: TwoCell,
    g: TwoMorphism,
    f2: TwoMorphism,
    eta2: TwoCell,
    g2: TwoMorphism,
    a: ColumnData,
    b: ColumnData,
    c: ColumnData,
    phi: TwoCell,
    psi: TwoCell,
) -> SnakeResult:
    """The six-term sequence Ka -> Kb -> Kc -> Qa -> Qb -> Qc of the columns
    a, b, c; phi: b.f => f2.a, psi: c.g => g2.b.  The rows need only
    (g, eta) = Coker f and (f2, eta2) = Ker g2; on extension rows this is
    the classical snake.  Raises ValueError when the pasting condition
    fails."""
    if not pasting_holds((f, eta, g), (f2, eta2, g2), (a.mor, b.mor, c.mor), (phi, psi)):
        raise ValueError("snake diagram does not commute (pasting condition)")
    induced = _induced_maps(f, g, f2, g2, a, b, c, phi, psi)
    d = _connecting(f, eta, g, f2, eta2, g2, a, b, c, phi, psi)
    return _six_term(eta, g, f2, eta2, a, b, c, induced, d)


# one construction: extension rows meet the weaker hypotheses
plain_snake = generalized_snake
