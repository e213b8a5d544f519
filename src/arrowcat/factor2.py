"""Factorizations, canonical comparisons, orthogonality.

Every square factors three ways: through the cokernel of its kernel
(cofaithful then fully faithful), through the coroot of its pip (fully
cofaithful then faithful), and as the three-stage composite
fully-cofaithful . (faithful and cofaithful) . fully-faithful.  The
comparison arrows Coker(Ker u) -> Root(Copip u) and Coroot(Pip u) ->
Ker(Coker u) witness 2-Puppe-exactness when they are equivalences.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple

from .baselin import LinearSystem, base_objects, copair_base, pair_base
from .basemor import BaseMorphism
from .classify2 import ArrowClassification, classify2
from .core2 import (
    TwoMorphism,
    TwoObject,
    add_cell,
    add_homotopy,
    add_square,
    compose2,
    null_cell,
    solved_square,
)
from .limits2 import (
    KernelData,
    cokernel2,
    copip2,
    factor_cokernel2,
    factor_coroot2,
    factor_kernel2,
    factor_root2,
    kernel2,
    pi0_mor,
    pi0_obj,
    pi1_mor,
    pi1_obj,
    pip2,
    root2,
    coroot2,
)


class Factorization(NamedTuple):
    # three-stage: u = mhat . l . e strictly
    e: TwoMorphism  # fully cofaithful
    l: TwoMorphism  # faithful and cofaithful
    mhat: TwoMorphism  # fully faithful
    im_obj: TwoObject  # Coroot(Pip u) route image
    imfull_obj: TwoObject  # Coker(Ker u) route image
    # two-stage routes: u = mbar . ehat = m . e strictly
    ehat: TwoMorphism  # cofaithful (Coker(Ker u) quotient)
    mbar: TwoMorphism  # fully faithful companion of ehat
    m: TwoMorphism  # faithful (coroot route companion of e)
    # canonical 2-Puppe comparisons with their classifications
    wbar: TwoMorphism  # Coker(Ker u) -> Root(Copip u)
    wbar_flags: ArrowClassification
    w: TwoMorphism  # Coroot(Pip u) -> Ker(Coker u)
    w_flags: ArrowClassification
    e_flags: ArrowClassification
    l_flags: ArrowClassification
    mhat_flags: ArrowClassification


def factor2(u: TwoMorphism) -> Factorization:
    # fully cofaithful stage: cokernel of kmor . (counit of pi1 on Ker u)
    kd = kernel2(u)
    p1k = pi1_obj(kd.obj)
    into_a = compose2(kd.kmor, p1k.unit)
    ecd = cokernel2(into_a)
    e = ecd.qmor
    theta_m = null_cell(compose2(u, into_a))
    m = factor_cokernel2(ecd, u, theta_m)
    # fully faithful stage: kernel of (unit of pi0 on Coker u) . qmor
    cd = cokernel2(u)
    p0q = pi0_obj(cd.obj)
    onto_pi0 = compose2(p0q.unit, cd.qmor)
    mkd = kernel2(onto_pi0)
    mhat = mkd.kmor
    beta_e = null_cell(compose2(onto_pi0, u))
    ehat = factor_kernel2(mkd, u, beta_e)
    # connecting stage: factor ehat through the fully cofaithful e
    theta_l = null_cell(compose2(ehat, into_a))
    l = factor_cokernel2(ecd, ehat, theta_l)
    if compose2(mhat, compose2(l, e)) != u:
        raise AssertionError("three-stage factorization is not strict")
    # comparisons
    cp = copip2(u)
    rt_bar = root2(cp.loop)
    imfull, ehat_full, mhat_full = _coker_ker_route(u, kd)
    wbar = factor_root2(rt_bar, mhat_full)
    pp = pip2(u)
    crt = coroot2(pp.loop)
    kq = kernel2(cd.qmor)
    m1 = factor_kernel2(kq, u, cd.zeta)
    w = factor_coroot2(crt, m1)
    return Factorization(
        e=e,
        l=l,
        mhat=mhat,
        im_obj=ecd.obj,
        imfull_obj=imfull,
        ehat=ehat_full,
        mbar=mhat_full,
        m=m,
        wbar=wbar,
        wbar_flags=classify2(wbar),
        w=w,
        w_flags=classify2(w),
        e_flags=classify2(e),
        l_flags=classify2(l),
        mhat_flags=classify2(mhat),
    )


def _coker_ker_route(u: TwoMorphism, kd: KernelData):
    """imfull = Coker(Ker u) with A -> imfull -> B multiplying to u strictly."""
    ecd2 = cokernel2(kd.kmor)
    ehat = ecd2.qmor
    mhat = factor_cokernel2(ecd2, u, kd.kappa)
    return ecd2.obj, ehat, mhat


class OrthogonalityReport(NamedTuple):
    holds: bool
    fillers: tuple
    unique: bool


def orthogonal2(e: TwoMorphism, m: TwoMorphism, rivals) -> OrthogonalityReport:
    """Orthogonality e | m tested on a list of rival squares.

    A rival is (a, psi, b) with a: dom(e) -> dom(m), b: cod(e) -> cod(m) and
    psi: m.a => b.e.  For each rival a diagonal filler c with cells nu:
    c.e => a and mu: m.c => b is solved for.  Fillers are unique when no
    nonzero loop cell is killed by both whiskers, that is when Hom(Q, K) = 0
    for Q the cokernel of (d_X e0) and K the kernel of (d_Y; m1), read off
    their invariant factors (_fillers_unique).
    """
    fillers = []
    holds = True
    for a, psi, b in rivals:
        filler = _solve_filler(e, m, a, psi, b)
        fillers.append(filler)
        if filler is None:
            holds = False
    unique = _fillers_unique(e, m)
    return OrthogonalityReport(holds and unique, tuple(fillers), unique)


def _solve_filler(e, m, a, psi, b):
    x, y = e.dst, m.src
    sys = LinearSystem(e.top.ring)
    c = add_square(sys, "c", x, y)
    nu = add_cell(sys, "nu", e.src, y)
    mu = add_cell(sys, "mu", x, m.dst)
    # nu: c.e => a
    add_homotopy(sys, nu, [(1, None, c, e)], a)
    # mu: m.c => b
    add_homotopy(sys, mu, [(1, m, c, None)], b)
    # pasting: psi = mu*e - m*nu  (as matrices)
    sys.add_equation([(1, None, mu.name, e.bottom), (-1, m.top, nu.name, None)], psi.mat)
    sol = sys.solve()
    if sol is None:
        return None
    return solved_square(sol, c), sol[nu.name], sol[mu.name]


def _fillers_unique(e, m) -> bool:
    """No nonzero loop cell gamma: X0 -> Y1 on cod(e) -> dom(m) is killed by
    both whiskers.  Those gamma kill the image of (d_X e0): X1 (+) E0 -> X0
    and land in the kernel of (d_Y; m1): Y1 -> Y0 (+) M1, so they are
    Hom(Q, K) for Q that cokernel and K that kernel; Hom(Z/a, Z/b) is
    Z/gcd(a, b), Hom(Z, Z/b) is Z/b and Hom(Z/a, Z) is 0 for a != 0."""
    x, y = e.dst, m.src
    q = base_objects(copair_base(x.boundary, e.bottom)).coker
    k = base_objects(pair_base(y.boundary, m.top)).ker
    return not any(a == 0 or (b != 0 and gcd(a, b) > 1) for a in q.orders for b in k.orders)


class GoodnessReport(NamedTuple):
    a_comparison: BaseMorphism  # pi0 Ker u -> Ker pi0 u (bottom component)
    b_comparison: BaseMorphism  # Coker pi1 u -> pi1 Coker u (top component)
    a_epi: bool
    b_mono: bool


def goodness_comparisons(u: TwoMorphism) -> GoodnessReport:
    """The comparisons pi0(Ker u) -> Ker(pi0 u) and Coker(pi1 u) -> pi1(Coker u)."""
    kd = kernel2(u)
    p0_ker = pi0_obj(kd.obj)
    p0_src, p0_dst = pi0_obj(u.src), pi0_obj(u.dst)
    p0_u = pi0_mor(u, p0_src, p0_dst)
    kd0 = kernel2(p0_u)
    rival = pi0_mor(kd.kmor, p0_ker, p0_src)
    beta = null_cell(compose2(p0_u, rival))
    a_cmp = factor_kernel2(kd0, rival, beta)

    cd = cokernel2(u)
    p1_coker = pi1_obj(cd.obj)
    p1_src, p1_dst = pi1_obj(u.src), pi1_obj(u.dst)
    p1_u = pi1_mor(u, p1_src, p1_dst)
    cd1 = cokernel2(p1_u)
    rival2 = pi1_mor(cd.qmor, p1_dst, p1_coker)
    theta = null_cell(compose2(rival2, p1_u))
    b_cmp = factor_cokernel2(cd1, rival2, theta)

    a_epi = base_objects(a_cmp.bottom).coker.is_zero
    b_mono = base_objects(b_cmp.top).ker.is_zero
    return GoodnessReport(a_cmp.bottom, b_cmp.top, a_epi, b_mono)
