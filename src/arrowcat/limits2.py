"""Limits and colimits of the 2-dimensional layer.

All constructions are the canonical ones: the kernel of a square is built on
the pullback of (u0, boundary) with the A0 block first, the cokernel on the
dual pushout, loops/suspensions on base kernels/cokernels of the boundary;
loop_bar and loop_tilde factor a loop through a suspension and a loop
object.  A map into or out of a biproduct is its column or row of
components: pair2 and copair2 apply baselin's pair_base and copair_base to
the top and bottom components and build only the biproduct object, never
biproduct2's injection and projection squares; every pairing here goes
through one of the four.  Kernel data mirrors cokernel data: kernel2 keeps
the base kernel kfull: P -> A0 (+) B1 of the pullback difference, cokernel2
the base cokernel qfull: A0 (+) B1 -> Q, and neither keeps the biproduct
glue, which is read back from the memoized biproduct_base.  Factorizations
through canonical (co)kernels are strict (the connecting cell is an
identity), and each is one one-sided factor_base of a pairing through kfull
or of a copairing through qfull.  KernelData and CokernelData also carry
presented (co)kernel sides, a square with a 2-cell and kfull or qfull None.
factor_through_kernel_data and factor_through_cokernel_data take either:
canonical data factor through their universal property, as above, and
presented data are solved for, strictly when a strict solution exists.
Cells between parallel squares are solved for too.  Each solve is a
LinearSystem whose unknown squares and cells are declared with core2's
add_square, add_cell and add_homotopy, so only the extra pasting or pinning
equations are written here.  Base factorizations go through factor_through
(baselin.factor_base).  Every solve here is for something
that must exist, so factor_through, solve_cell and the other factorizations
raise AssertionError when it does not.
"""

from __future__ import annotations

from typing import NamedTuple

from .baselin import (
    LinearSystem,
    biproduct_base,
    cokernel_base,
    copair_base,
    factor_base,
    kernel_base,
    pair_base,
)
from .basemor import BaseMorphism, compose, identity_mor, zero_mor
from .baseobj import zero_object
from .core2 import (
    TwoCell,
    TwoMorphism,
    TwoObject,
    add_cell,
    add_homotopy,
    add_square,
    cell_to_zero,
    compose2,
    identity_like_cell,
    loop_cell,
    solved_square,
    two_morphism,
    whisker_right,
)


def factor_through(
    h: BaseMorphism, left: BaseMorphism | None = None, right: BaseMorphism | None = None
) -> BaseMorphism:
    """x with left.x = h or x.right = h (baselin.factor_base), which must exist."""
    x = factor_base(h, left, right)
    if x is None:
        raise AssertionError("factorization does not exist")
    return x


# ---------------------------------------------------------------------------
# Kernel and cokernel
# ---------------------------------------------------------------------------


class SequenceData(NamedTuple):
    """The three-term sequence of a square; the injections and projections of
    A0 (+) B1 are read from the memoized biproduct_base."""

    iota: BaseMorphism  # A1 -> A0 (+) B1
    pmap: BaseMorphism  # A0 (+) B1 -> B0


def sequence_of(u: TwoMorphism) -> SequenceData:
    """The base sequence A1 --[-d; u1]--> A0 (+) B1 --(u0 d')--> B0 of u."""
    a, b = u.src, u.dst
    return SequenceData(pair_base(-a.boundary, u.top), copair_base(u.bottom, b.boundary))


class KernelData(NamedTuple):
    obj: TwoObject
    kmor: TwoMorphism  # obj -> src(u)
    kappa: TwoCell  # u . kmor => 0
    kfull: BaseMorphism | None  # P -> A0 (+) B1; None on presented data


def kernel2(u: TwoMorphism) -> KernelData:
    a, b = u.src, u.dst
    _, kfull = kernel_base(copair_base(u.bottom, -b.boundary))
    kprime = factor_through(pair_base(a.boundary, u.top), left=kfull)
    obj = TwoObject(kprime)
    _, _, (p0, p1) = biproduct_base((a.bottom, b.top))
    kmor = two_morphism(obj, a, identity_mor(a.top), compose(p0, kfull))
    kappa = cell_to_zero(compose2(u, kmor), compose(p1, kfull))
    return KernelData(obj, kmor, kappa, kfull)


def factor_kernel2(kd: KernelData, t: TwoMorphism, beta: TwoCell) -> TwoMorphism:
    """The strict factorization t' with kmor . t' = t and kappa . t' = beta."""
    bottom = factor_through(pair_base(t.bottom, beta.mat), left=kd.kfull)
    return two_morphism(t.src, kd.obj, t.top, bottom)


class CokernelData(NamedTuple):
    obj: TwoObject
    qmor: TwoMorphism  # dst(u) -> obj
    zeta: TwoCell  # qmor . u => 0
    qfull: BaseMorphism | None  # A0 (+) B1 -> Q; None on presented data


def cokernel2(u: TwoMorphism) -> CokernelData:
    b = u.dst
    seq = sequence_of(u)
    q_obj, qfull = cokernel_base(seq.iota)
    qprime = factor_through(seq.pmap, right=qfull)
    obj = TwoObject(qprime)
    _, (i0, i1), _ = biproduct_base((u.src.bottom, b.top))
    qmor = two_morphism(b, obj, compose(qfull, i1), identity_mor(b.bottom))
    zeta = cell_to_zero(compose2(qmor, u), compose(qfull, i0))
    return CokernelData(obj, qmor, zeta, qfull)


def factor_cokernel2(cd: CokernelData, w: TwoMorphism, theta: TwoCell) -> TwoMorphism:
    """The strict factorization w' with w' . qmor = w and w' transporting zeta to theta."""
    top = factor_through(copair_base(theta.mat, w.top), right=cd.qfull)
    return two_morphism(cd.obj, w.dst, top, w.bottom)


# ---------------------------------------------------------------------------
# Loops, suspensions, pips, copips, roots, coroots
# ---------------------------------------------------------------------------


class LoopData(NamedTuple):
    obj: TwoObject
    loop: TwoCell


def omega_obj(x: TwoObject) -> LoopData:
    kd, incl = kernel_base(x.boundary)
    obj = TwoObject(zero_mor(zero_object(x.ring), kd))
    return LoopData(obj, loop_cell(obj, x, incl))


def sigma_obj(x: TwoObject) -> LoopData:
    qd, proj = cokernel_base(x.boundary)
    obj = TwoObject(zero_mor(qd, zero_object(x.ring)))
    return LoopData(obj, loop_cell(x, obj, proj))


def loop_bar(pi: TwoCell) -> TwoMorphism:
    """pi_bar: Sigma A -> B with pi = pi_bar * sigma_A."""
    sg = sigma_obj(pi.src)
    top = factor_through(pi.mat, right=sg.loop.mat)
    return TwoMorphism(sg.obj, pi.dst, top, zero_mor(sg.obj.bottom, pi.dst.bottom))


def loop_tilde(pi: TwoCell) -> TwoMorphism:
    """pi_tilde: A -> Omega B with pi = omega_B * pi_tilde."""
    om = omega_obj(pi.dst)
    bottom = factor_through(pi.mat, left=om.loop.mat)
    return TwoMorphism(pi.src, om.obj, zero_mor(pi.src.top, om.obj.top), bottom)


class UnitData(NamedTuple):
    obj: TwoObject
    unit: TwoMorphism


def pi0_obj(x: TwoObject) -> UnitData:
    qd, proj = cokernel_base(x.boundary)
    obj = TwoObject(zero_mor(zero_object(x.ring), qd))
    eta = two_morphism(x, obj, zero_mor(x.top, obj.top), proj)
    return UnitData(obj, eta)


def pi1_obj(x: TwoObject) -> UnitData:
    kd, incl = kernel_base(x.boundary)
    obj = TwoObject(zero_mor(kd, zero_object(x.ring)))
    eps = two_morphism(obj, x, incl, zero_mor(obj.bottom, x.bottom))
    return UnitData(obj, eps)


def omega_mor(u: TwoMorphism, om_src: LoopData, om_dst: LoopData) -> TwoMorphism:
    restr = factor_through(compose(u.top, om_src.loop.mat), left=om_dst.loop.mat)
    return two_morphism(
        om_src.obj, om_dst.obj, zero_mor(om_src.obj.top, om_dst.obj.top), restr
    )


def sigma_mor(u: TwoMorphism, sg_src: LoopData, sg_dst: LoopData) -> TwoMorphism:
    ind = factor_through(compose(sg_dst.loop.mat, u.bottom), right=sg_src.loop.mat)
    return two_morphism(
        sg_src.obj, sg_dst.obj, ind, zero_mor(sg_src.obj.bottom, sg_dst.obj.bottom)
    )


def pi0_mor(u: TwoMorphism, p_src: UnitData, p_dst: UnitData) -> TwoMorphism:
    ind = factor_through(compose(p_dst.unit.bottom, u.bottom), right=p_src.unit.bottom)
    return two_morphism(
        p_src.obj, p_dst.obj, zero_mor(p_src.obj.top, p_dst.obj.top), ind
    )


def pi1_mor(u: TwoMorphism, p_src: UnitData, p_dst: UnitData) -> TwoMorphism:
    restr = factor_through(compose(u.top, p_src.unit.top), left=p_dst.unit.top)
    return two_morphism(
        p_src.obj, p_dst.obj, restr, zero_mor(p_src.obj.bottom, p_dst.obj.bottom)
    )


def pip2(u: TwoMorphism) -> LoopData:
    a = u.src
    kp, incl = kernel_base(sequence_of(u).iota)
    obj = TwoObject(zero_mor(zero_object(a.ring), kp))
    return LoopData(obj, loop_cell(obj, a, incl))


def copip2(u: TwoMorphism) -> LoopData:
    b = u.dst
    rq, proj = cokernel_base(sequence_of(u).pmap)
    obj = TwoObject(zero_mor(rq, zero_object(b.ring)))
    return LoopData(obj, loop_cell(b, obj, proj))


class RootData(NamedTuple):
    obj: TwoObject
    rmor: TwoMorphism  # obj -> src for roots; src -> obj for coroots
    kalpha: BaseMorphism


def root2(alpha: TwoCell) -> RootData:
    """Root of a loop 0 => 0: A -> B."""
    if not (alpha.cfrom.is_zero_mor() and alpha.cto.is_zero_mor()):
        raise ValueError("root needs a loop 0 => 0")
    a = alpha.src
    ka, incl = kernel_base(alpha.mat)
    fprime = factor_through(a.boundary, left=incl)
    obj = TwoObject(fprime)
    rmor = two_morphism(obj, a, identity_mor(a.top), incl)
    return RootData(obj, rmor, incl)


def factor_root2(rt: RootData, t: TwoMorphism) -> TwoMorphism:
    """Factor t: X -> A through the root R -> A (needs loop * t = 0)."""
    bottom = factor_through(t.bottom, left=rt.kalpha)
    return two_morphism(t.src, rt.obj, t.top, bottom)


def coroot2(alpha: TwoCell) -> RootData:
    if not (alpha.cfrom.is_zero_mor() and alpha.cto.is_zero_mor()):
        raise ValueError("coroot needs a loop 0 => 0")
    b = alpha.dst
    qa, proj = cokernel_base(alpha.mat)
    gbar = factor_through(b.boundary, right=proj)
    obj = TwoObject(gbar)
    rmor = two_morphism(b, obj, proj, identity_mor(b.bottom))
    return RootData(obj, rmor, proj)


def factor_coroot2(rt: RootData, t: TwoMorphism) -> TwoMorphism:
    """Factor t: B -> X through the coroot B -> R (needs t * loop = 0)."""
    top = factor_through(t.top, right=rt.kalpha)
    return two_morphism(rt.obj, t.dst, top, t.bottom)


# ---------------------------------------------------------------------------
# Relative kernel / cokernel
# ---------------------------------------------------------------------------


class RelKernelData(NamedTuple):
    obj: TwoObject
    kmor: TwoMorphism
    kappa: TwoCell
    kernel: KernelData
    root: RootData


def rel_kernel2(b: TwoMorphism, y: TwoMorphism, psi: TwoCell) -> RelKernelData:
    """Kernel of b relative to psi: y.b => 0."""
    kd = kernel2(b)
    pi_mat = compose(y.top, kd.kappa.mat) - compose(psi.mat, kd.kmor.bottom)
    pi = loop_cell(kd.obj, y.dst, pi_mat)
    rt = root2(pi)
    kmor = compose2(kd.kmor, rt.rmor)
    kappa = whisker_right(kd.kappa, rt.rmor)
    kappa = cell_to_zero(compose2(b, kmor), kappa.mat)
    return RelKernelData(rt.obj, kmor, kappa, kd, rt)


def factor_rel_kernel2(rkd: RelKernelData, t: TwoMorphism, beta: TwoCell) -> TwoMorphism:
    return factor_root2(rkd.root, factor_kernel2(rkd.kernel, t, beta))


class RelCokernelData(NamedTuple):
    obj: TwoObject
    qmor: TwoMorphism
    zeta: TwoCell
    cokernel: CokernelData
    coroot: RootData


def rel_cokernel2(a: TwoMorphism, x: TwoMorphism, phi: TwoCell) -> RelCokernelData:
    """Cokernel of a relative to phi: a.x => 0."""
    cd = cokernel2(a)
    rho_mat = compose(cd.qmor.top, phi.mat) - compose(cd.zeta.mat, x.bottom)
    rho = loop_cell(x.src, cd.obj, rho_mat)
    rt = coroot2(rho)
    qmor = compose2(rt.rmor, cd.qmor)
    zeta = cell_to_zero(compose2(qmor, a), compose(rt.kalpha, cd.zeta.mat))
    return RelCokernelData(rt.obj, qmor, zeta, cd, rt)


def factor_rel_cokernel2(rcd: RelCokernelData, w: TwoMorphism, theta: TwoCell) -> TwoMorphism:
    return factor_coroot2(rcd.coroot, factor_cokernel2(rcd.cokernel, w, theta))


# ---------------------------------------------------------------------------
# Biproducts, pullbacks, pushouts of squares
# ---------------------------------------------------------------------------


class Biproduct2(NamedTuple):
    obj: TwoObject
    injections: tuple[TwoMorphism, ...]
    projections: tuple[TwoMorphism, ...]


def _sum2(parts) -> TwoObject:
    """The biproduct object of parts: its boundary is the block diagonal of theirs."""
    _, b_inj, _ = biproduct_base(tuple(p.bottom for p in parts))
    return TwoObject(copair_base(*(compose(i, p.boundary) for i, p in zip(b_inj, parts))))


def biproduct2(parts: list[TwoObject]) -> Biproduct2:
    _, t_inj, t_proj = biproduct_base(tuple(p.top for p in parts))
    _, b_inj, b_proj = biproduct_base(tuple(p.bottom for p in parts))
    obj = _sum2(parts)
    injections = tuple(two_morphism(p, obj, it, ib) for p, it, ib in zip(parts, t_inj, b_inj))
    projections = tuple(two_morphism(obj, p, pt, pb) for p, pt, pb in zip(parts, t_proj, b_proj))
    return Biproduct2(obj, injections, projections)


def pair2(*maps: TwoMorphism) -> TwoMorphism:
    """sum_k i_k . u_k: X -> Y_1 (+) ... (+) Y_n of squares u_k: X -> Y_k,
    pair_base on the top and on the bottom components."""
    dst = _sum2([u.dst for u in maps])
    if any(u.src != maps[0].src for u in maps):
        raise ValueError("pairing needs a common source")
    top, bottom = pair_base(*(u.top for u in maps)), pair_base(*(u.bottom for u in maps))
    return TwoMorphism(maps[0].src, dst, top, bottom)


def copair2(*maps: TwoMorphism) -> TwoMorphism:
    """sum_k u_k . p_k: X_1 (+) ... (+) X_n -> Y of squares u_k: X_k -> Y,
    copair_base on the top and on the bottom components."""
    src = _sum2([u.src for u in maps])
    if any(u.dst != maps[0].dst for u in maps):
        raise ValueError("copairing needs a common target")
    top, bottom = copair_base(*(u.top for u in maps)), copair_base(*(u.bottom for u in maps))
    return TwoMorphism(src, maps[0].dst, top, bottom)


class Pullback2(NamedTuple):
    obj: TwoObject
    p1: TwoMorphism
    p2: TwoMorphism
    cell: TwoCell  # f.p1 => g.p2


def pullback2(f: TwoMorphism, g: TwoMorphism) -> Pullback2:
    kd = kernel2(copair2(f, -g))
    tops, bottoms = (biproduct_base((f.src.top, g.src.top))[2], biproduct_base((f.src.bottom, g.src.bottom))[2])
    p1, p2 = (two_morphism(kd.obj, x, compose(pt, kd.kmor.top), compose(pb, kd.kmor.bottom))
              for x, pt, pb in zip((f.src, g.src), tops, bottoms))
    cell = TwoCell(compose2(f, p1), compose2(g, p2), kd.kappa.mat)
    return Pullback2(kd.obj, p1, p2, cell)


class Pushout2(NamedTuple):
    obj: TwoObject
    i1: TwoMorphism
    i2: TwoMorphism
    cell: TwoCell  # i1.f => i2.g
    cokernel: CokernelData
    diff: TwoMorphism  # pair2(f, -g), of which cokernel is the cokernel


def pushout2(f: TwoMorphism, g: TwoMorphism) -> Pushout2:
    cd = cokernel2(diff := pair2(f, -g))
    tops, bottoms = (biproduct_base((f.dst.top, g.dst.top))[1], biproduct_base((f.dst.bottom, g.dst.bottom))[1])
    i1, i2 = (two_morphism(x, cd.obj, compose(cd.qmor.top, it), compose(cd.qmor.bottom, ib))
              for x, it, ib in zip((f.dst, g.dst), tops, bottoms))
    cell = TwoCell(compose2(i1, f), compose2(i2, g), cd.zeta.mat)
    return Pushout2(cd.obj, i1, i2, cell, cd, diff)


# ---------------------------------------------------------------------------
# Factorizations through abstractly-given kernel/cokernel data
# ---------------------------------------------------------------------------


def factor_through_kernel_data(g: TwoMorphism, kd: KernelData, t: TwoMorphism, beta: TwoCell):
    """(m, theta) with theta: t => kmor.m and kappa*m . g*theta = beta.

    On kernel2 data this is factor_kernel2's m with an identity theta: kfull
    is mono, so the strict solution is unique.  On presented data (kfull
    None) a strict solution is preferred when one exists; the strict system
    is the same one without the cell unknown.
    """
    if kd.kfull is not None:
        mor = factor_kernel2(kd, t, beta)
        return mor, identity_like_cell(t, compose2(kd.kmor, mor))
    x = t.src
    for strict in (True, False):
        sys = LinearSystem(g.top.ring)
        m = add_square(sys, "m", x, kd.obj)
        th = None if strict else add_cell(sys, "th", x, g.src)
        add_homotopy(sys, th, t, [(1, kd.kmor, m, None)])
        # pasting: kappa.mb + g.top.th = beta
        pasting = [(1, kd.kappa.mat, m.bottom, None)]
        if th is not None:
            pasting.append((1, g.top, th.name, None))
        sys.add_equation(pasting, beta.mat)
        sol = sys.solve()
        if sol is not None:
            break
    else:
        raise AssertionError("kernel-data factorization does not exist")
    mor = solved_square(sol, m)
    th_mat = zero_mor(x.bottom, g.src.top) if th is None else sol[th.name]
    return mor, TwoCell(t, compose2(kd.kmor, mor), th_mat)


def factor_through_cokernel_data(u: TwoMorphism, cd: CokernelData, w: TwoMorphism, theta: TwoCell):
    """(m, psi) with psi: w => m.qmor and m*zeta . psi*u = theta.

    On cokernel2 data this is factor_cokernel2's m with an identity psi:
    qfull is epi, so the strict solution is unique.  On presented data
    (qfull None) a strict solution is preferred when one exists; the strict
    system is the same one without the cell unknown.
    """
    if cd.qfull is not None:
        mor = factor_cokernel2(cd, w, theta)
        return mor, identity_like_cell(w, compose2(mor, cd.qmor))
    for strict in (True, False):
        sys = LinearSystem(u.top.ring)
        m = add_square(sys, "m", cd.obj, w.dst)
        ps = None if strict else add_cell(sys, "ps", w.src, w.dst)
        add_homotopy(sys, ps, w, [(1, None, m, cd.qmor)])
        # pasting: mt.zeta + ps.u.bottom = theta
        pasting = [(1, None, m.top, cd.zeta.mat)]
        if ps is not None:
            pasting.append((1, None, ps.name, u.bottom))
        sys.add_equation(pasting, theta.mat)
        sol = sys.solve()
        if sol is not None:
            break
    else:
        raise AssertionError("cokernel-data factorization does not exist")
    mor = solved_square(sol, m)
    ps_mat = zero_mor(w.src.bottom, w.dst.top) if ps is None else sol[ps.name]
    return mor, TwoCell(w, compose2(mor, cd.qmor), ps_mat)


def solve_cell(u: TwoMorphism, v: TwoMorphism, pins=()) -> TwoCell:
    """Some cell u => v between parallel squares; AssertionError when none exists.

    Each pin (coef, left, right, rhs) adds the equation
    coef * left . alpha . right = rhs on the cell matrix alpha, with left and
    right base morphisms or None for an identity.
    """
    sys = LinearSystem(u.top.ring)
    al = add_cell(sys, "al", u.src, u.dst)
    add_homotopy(sys, al, u, v)
    for coef, left, right, rhs in pins:
        sys.add_equation([(coef, left, al.name, right)], rhs)
    sol = sys.solve()
    if sol is None:
        raise AssertionError("no cell between the squares exists")
    return TwoCell(u, v, sol[al.name])
