"""The eleven-term fiber/cofiber sequence of a square.

    0 -> Pip u -> Omega A -> Omega B -> Ker u -> A -> B
      -> Coker u -> Sigma A -> Sigma B -> Copip u -> 0

Each arrow left of u is the kernel of the next one, each arrow right of u
the cokernel of the previous one, and each connecting arrow is built as the
universal factorization it is: Pip u -> Omega A is loop_tilde of the pip
loop, Omega B -> Ker u and Coker u -> Sigma A factor the loops of B and A
through the kernel and cokernel data of u.  Strictly zero composites are
nullhomotopic by null_cell.  The seven connecting identities and the loop
mu_u = zeta*k . q*kappa^{-1} are produced with strict matrices and asserted
exactly.
"""

from __future__ import annotations

from typing import NamedTuple

from .basemor import compose
from .core2 import (
    TwoCell,
    TwoMorphism,
    TwoObject,
    cell_to_zero,
    compose2,
    loop_cell,
    null_cell,
    zero2,
)
from .limits2 import (
    cokernel2,
    factor_cokernel2,
    factor_kernel2,
    kernel2,
    loop_tilde,
    omega_mor,
    omega_obj,
    pip2,
    sigma_mor,
    sigma_obj,
)


class PuppeSequence(NamedTuple):
    objects: tuple[TwoObject, ...]  # Pip, OmegaA, OmegaB, Ker, A, B, Coker, SigmaA, SigmaB, Copip
    maps: tuple[TwoMorphism, ...]  # nine arrows
    cells: tuple[TwoCell, ...]  # eight nullhomotopies of consecutive pairs
    mu: TwoCell  # the loop Ker u -> Coker u


def puppe(u: TwoMorphism) -> PuppeSequence:
    a, b = u.src, u.dst
    kd = kernel2(u)
    cd = cokernel2(u)
    om_a, om_b = omega_obj(a), omega_obj(b)
    sg_a, sg_b = sigma_obj(a), sigma_obj(b)
    pp = pip2(u)
    sg_q = sigma_obj(cd.obj)

    # m1: Pip u -> Omega A restricts the pip inclusion
    m1 = loop_tilde(pp.loop)
    m2 = omega_mor(u, om_a, om_b)
    # m3: Omega B -> Ker u with kappa . m3 = -incl(Ker dB)
    m3 = factor_kernel2(kd, zero2(om_b.obj, a), om_b.loop.inverse())
    m4 = kd.kmor
    m5 = u
    m6 = cd.qmor
    # m7: Coker u -> Sigma A with m7 . zeta = proj(Coker dA)
    m7 = factor_cokernel2(cd, zero2(b, sg_a.obj), sg_a.loop)
    m8 = sigma_mor(u, sg_a, sg_b)
    m9 = sigma_mor(cd.qmor, sg_b, sg_q)

    c1 = null_cell(compose2(m2, m1))
    c2 = cell_to_zero(compose2(m3, m2), -om_a.loop.mat)
    c3 = null_cell(compose2(m4, m3))
    c4 = kd.kappa
    c5 = cd.zeta
    c6 = null_cell(compose2(m7, m6))
    c7 = cell_to_zero(compose2(m8, m7), sg_b.loop.mat)
    c8 = null_cell(compose2(m9, m8))

    mu_mat = compose(cd.zeta.mat, kd.kmor.bottom) - compose(cd.qmor.top, kd.kappa.mat)
    mu = loop_cell(kd.obj, cd.obj, mu_mat)

    _assert_identities(kd, cd, om_a, om_b, sg_a, sg_b, sg_q, pp, m1, m3, m7, m9, c2)

    return PuppeSequence(
        objects=(pp.obj, om_a.obj, om_b.obj, kd.obj, a, b, cd.obj, sg_a.obj, sg_b.obj, sg_q.obj),
        maps=(m1, m2, m3, m4, m5, m6, m7, m8, m9),
        cells=(c1, c2, c3, c4, c5, c6, c7, c8),
        mu=mu,
    )


def _assert_identities(kd, cd, om_a, om_b, sg_a, sg_b, sg_q, pp, m1, m3, m7, m9, c2):
    # 1. eps * (Pip -> OmegaA) is the negative of the pip loop
    if compose(c2.mat, m1.bottom) != -pp.loop.mat:
        raise AssertionError("Puppe identity 1 fails")
    # 2. -eps = omega_A
    if -c2.mat != om_a.loop.mat:
        raise AssertionError("Puppe identity 2 fails")
    # 3. kappa * d = -omega_B
    if compose(kd.kappa.mat, m3.bottom) != -om_b.loop.mat:
        raise AssertionError("Puppe identity 3 fails")
    # 5. d' * zeta = sigma_A
    if compose(m7.top, cd.zeta.mat) != sg_a.loop.mat:
        raise AssertionError("Puppe identity 5 fails")
    # 6. eps' = sigma_B (built as such); 4 defines mu; 7. Sigma(q) * eps' = sigma_{Coker}
    if compose(m9.top, sg_b.loop.mat) != sg_q.loop.mat:
        raise AssertionError("Puppe identity 7 fails")
