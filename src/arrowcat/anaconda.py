"""The long snake: pips and copips glued onto the six-term sequence.

For a map of extensions the snake extends to the exact sequence

    0 -> Pip a -> Pip b -> Pip c -> Ker a -> Ker b -> Ker c
      -> Coker a -> Coker b -> Coker c -> Copip a -> Copip b -> Copip c -> 0

with three extra connecting maps; the composites of adjacent nullhomotopies
are the canonical loops omega/mu/sigma up to recorded signs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .baselin import LinearSystem
from .basemor import compose, zero_mor
from .core2 import (
    TwoCell,
    TwoMorphism,
    TwoObject,
    add_cell,
    add_homotopy,
    add_square,
    cell_to_zero,
    compose2,
    solved_square,
    zero2,
)
from .limits2 import LoopData, omega_mor, omega_obj, sigma_mor, sigma_obj, solve_cell
from .sequences import zero_capped
from .snake import ColumnData, SnakeResult, plain_snake


@dataclass(frozen=True)
class AnacondaResult:
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

    # d': Pip c -> Ker a with cells, pinned by omega_{Kc} = gbar*dtil . etabar^{-1}*d'
    dprime, dtil = _connect_left(sn.fbar, sn.etabar, sn.gbar, om_kc)
    # eps~: d'.om_g => 0 pinned by dtil*om_g - fbar*eps = omega_{Kb}
    eps = solve_cell(
        compose2(dprime, om_g),
        zero2(om_g.src, dprime.dst),
        [(-1, sn.fbar.top, None, om_kb.loop.mat - _wh(dtil, om_g))],
    )
    # d'': Coker c -> Copip a, dual
    dsec, dhat = _connect_right(sn.fbar2, sn.etabar2, sn.gbar2, sg_qa)
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
    zc0 = cell_to_zero(compose2(om_g, om_f), zero_mor(om_ka.obj.bottom, om_kc.obj.top))
    zc9 = cell_to_zero(compose2(sg_g, sg_f), zero_mor(sg_qa.obj.bottom, sg_qc.obj.top))
    cells = (
        zc0, eps, dtil, sn.etabar, sn.delta, sn.delta_prime, sn.etabar2, dhat, epsp, zc9,
    )
    signs = _composite_signs(objects, maps, cells, sn, om_ka, om_kb, om_kc, sg_qa, sg_qb, sg_qc, a, b, c)
    return AnacondaResult(objects, maps, cells, sn, signs)


def _wh(cell: TwoCell, u: TwoMorphism):
    return compose(cell.mat, u.bottom)


def _connect_left(fbar, etabar, gbar, om_kc: LoopData):
    """(d', dtil) with dtil: fbar.d' => 0 and gbar_1.dtil - etabar*d'_0 = omega_{Kc}."""
    ka, kb = fbar.src, fbar.dst
    sys = LinearSystem(fbar.top.ring)
    d = add_square(sys, "d", om_kc.obj, ka)
    dt = add_cell(sys, "dt", om_kc.obj, kb)
    # dt: fbar.d' => 0
    add_homotopy(sys, dt, [(1, fbar, d, None)], [])
    # pinning: gbar_1.dt - etabar.d0 = omega_{Kc} (inclusion matrix)
    sys.add_equation(
        [(1, gbar.top, dt.name, None), (-1, etabar.mat, d.bottom, None)], om_kc.loop.mat
    )
    sol = sys.solve()
    if sol is None:
        raise AssertionError("left anaconda connector does not exist")
    dprime = solved_square(sol, d)
    dtil = TwoCell(compose2(fbar, dprime), zero2(om_kc.obj, kb), sol[dt.name])
    return dprime, dtil


def _connect_right(fbar2, etabar2, gbar2, sg_qa: LoopData):
    """(d'', dhat) with dhat: d''.gbar2 => 0 and dhat*fbar2 - d''_1.etabar2 = -sigma_{Qa}."""
    qb, qc = fbar2.dst, gbar2.dst
    sys = LinearSystem(fbar2.top.ring)
    d = add_square(sys, "d", qc, sg_qa.obj)
    dh = add_cell(sys, "dh", qb, sg_qa.obj)
    # dh: d''.gbar2 => 0
    add_homotopy(sys, dh, [(1, None, d, gbar2)], [])
    # pinning: dh*fbar2_0 - d''_1.etabar2 = -sigma_{Qa}
    sys.add_equation(
        [(1, None, dh.name, fbar2.bottom), (-1, None, d.top, etabar2.mat)], -sg_qa.loop.mat
    )
    sol = sys.solve()
    if sol is None:
        raise AssertionError("right anaconda connector does not exist")
    dsec = solved_square(sol, d)
    dhat = TwoCell(compose2(dsec, gbar2), zero2(qb, sg_qa.obj), sol[dh.name])
    return dsec, dhat


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
