"""The long snake: pips and copips glued onto the six-term sequence.

For a map of extensions the snake extends to the exact sequence

    0 -> Pip a -> Pip b -> Pip c -> Ker a -> Ker b -> Ker c
      -> Coker a -> Coker b -> Coker c -> Copip a -> Copip b -> Copip c -> 0

with three extra connecting maps; the composites of adjacent nullhomotopies
are the canonical loops omega/mu/sigma up to recorded signs.  The connectors
d': Pip c -> Ker a and d'': Coker c -> Copip a are limits2's factorizations
through the snake's own presented kernel data (fbar, etabar) of gbar and
cokernel data (gbar', etabar') of fbar' (kfull and qfull None), which
prefer a strict solution.
"""

from __future__ import annotations

from typing import NamedTuple

from .basemor import compose
from .core2 import TwoCell, TwoMorphism, TwoObject, compose2, null_cell, zero2
from .limits2 import (
    CokernelData,
    KernelData,
    factor_through_cokernel_data,
    factor_through_kernel_data,
    omega_mor,
    omega_obj,
    sigma_mor,
    sigma_obj,
    solve_cell,
)
from .sequences import zero_capped
from .snake import ColumnData, SnakeResult, plain_snake


class AnacondaResult(NamedTuple):
    objects: tuple[TwoObject, ...]  # 12 objects, Pip a .. Copip c
    maps: tuple[TwoMorphism, ...]  # 11 maps
    cells: tuple[TwoCell, ...]  # 10 nullhomotopies
    snake: SnakeResult
    composite_signs: tuple[int, ...]  # +1/-1 per omega/mu/sigma identity


def anaconda(f, eta, g, f2, eta2, g2, a: ColumnData, b: ColumnData, c: ColumnData, phi, psi) -> AnacondaResult:
    sn = plain_snake(f, eta, g, f2, eta2, g2, a, b, c, phi, psi)
    om_ka = omega_obj(a.ker.obj)
    om_kb = omega_obj(b.ker.obj)
    om_kc = omega_obj(c.ker.obj)
    sg_qa = sigma_obj(a.coker.obj)
    sg_qb = sigma_obj(b.coker.obj)
    sg_qc = sigma_obj(c.coker.obj)

    om_f = omega_mor(sn.fbar, om_ka, om_kb)
    om_g = omega_mor(sn.gbar, om_kb, om_kc)
    sg_f = sigma_mor(sn.fbar2, sg_qa, sg_qb)
    sg_g = sigma_mor(sn.gbar2, sg_qb, sg_qc)

    # d': Pip c -> Ker a and dtil: fbar.d' => 0 with gbar_1.dtil - etabar*d'_0 =
    # omega_{Kc}: the zero square with the loop -omega_{Kc} through (fbar, etabar)
    ker_g = KernelData(sn.fbar.src, sn.fbar, sn.etabar, None)
    dprime, theta = factor_through_kernel_data(
        sn.gbar, ker_g, zero2(om_kc.obj, sn.fbar.dst), om_kc.loop.inverse()
    )
    dtil = theta.inverse()
    # eps~: d'.om_g => 0 pinned by dtil*om_g - fbar*eps = omega_{Kb}
    eps = solve_cell(
        compose2(dprime, om_g),
        zero2(om_g.src, dprime.dst),
        [(-1, sn.fbar.top, None, om_kb.loop.mat - compose(dtil.mat, om_g.bottom))],
    )
    # d'': Coker c -> Copip a and dhat: d''.gbar2 => 0 with dhat*fbar2_0 -
    # d''_1.etabar2 = -sigma_{Qa}: the zero square with the loop sigma_{Qa}
    # through the cokernel data (gbar2, etabar2) of fbar2
    coker_f2 = CokernelData(sn.gbar2.dst, sn.gbar2, sn.etabar2, None)
    dsec, psi = factor_through_cokernel_data(
        sn.fbar2, coker_f2, zero2(sn.fbar2.dst, sg_qa.obj), sg_qa.loop
    )
    dhat = psi.inverse()
    epsp = solve_cell(
        compose2(sg_f, dsec),
        zero2(dsec.src, sg_f.dst),
        [(-1, None, sn.gbar2.bottom, -(sg_qb.loop.mat + compose(sg_f.top, dhat.mat)))],
    )

    objects = (
        om_ka.obj, om_kb.obj, om_kc.obj,
        a.ker.obj, b.ker.obj, c.ker.obj,
        a.coker.obj, b.coker.obj, c.coker.obj,
        sg_qa.obj, sg_qb.obj, sg_qc.obj,
    )
    maps = (
        om_f, om_g, dprime, sn.fbar, sn.gbar, sn.d, sn.fbar2, sn.gbar2, dsec, sg_f, sg_g,
    )
    zc0 = null_cell(compose2(om_g, om_f))
    zc9 = null_cell(compose2(sg_g, sg_f))
    cells = (
        zc0, eps, dtil, sn.etabar, sn.delta, sn.delta_prime, sn.etabar2, dhat, epsp, zc9,
    )
    signs = _composite_signs(objects, maps, cells, sn, om_ka, om_kb, om_kc, sg_qa, sg_qb, sg_qc, a, b, c)
    return AnacondaResult(objects, maps, cells, sn, signs)


def _composite_signs(objects, maps, cells, sn, om_ka, om_kb, om_kc, sg_qa, sg_qb, sg_qc, a, b, c):
    targets = [
        om_ka.loop.mat, om_kb.loop.mat, om_kc.loop.mat,
        sn.mu_a.mat, sn.mu_b.mat, sn.mu_c.mat,
        sg_qa.loop.mat, sg_qb.loop.mat, sg_qc.loop.mat,
    ]
    signs = []
    for i in range(9):
        comp = compose(cells[i + 1].mat, maps[i].bottom) - compose(
            maps[i + 2].top, cells[i].mat
        )
        if comp == targets[i]:
            signs.append(1)
        elif comp == -targets[i]:
            signs.append(-1)
        else:
            raise AssertionError(f"anaconda composite {i} is not the canonical loop")
    return tuple(signs)


def anaconda_full_sequence(res: AnacondaResult):
    """Zero-capped maps and cells for exactness checking at all twelve points."""
    return zero_capped(res.maps, res.cells)
