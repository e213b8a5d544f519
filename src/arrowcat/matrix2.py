"""Matrix calculus on biproducts of squares.

A grid (f_jk): A_k -> B_j assembles to sum_jk i_j . f_jk . p_k between the
biproducts, built as the pairing (limits2.pair2) of the copairings
(limits2.copair2) of its rows; reading matrix entries back is p_j . u . i_k,
through biproduct2's injection and projection squares, so matrix_of2 and
grid_product check assembly by an independent route.  In this strict model
composition of assembled morphisms equals assembly of the matrix product on
the nose.
"""

from __future__ import annotations

from typing import NamedTuple

from .core2 import TwoMorphism, TwoObject, compose2, zero2, zero_two_object
from .limits2 import Biproduct2, biproduct2, copair2, pair2


class AssembledMorphism(NamedTuple):
    mor: TwoMorphism
    src_bp: Biproduct2
    dst_bp: Biproduct2


def matrix_assemble2(
    grid: list[list[TwoMorphism]],
    sources: list[TwoObject],
    targets: list[TwoObject],
    ring=None,
) -> AssembledMorphism:
    """grid[j][k]: sources[k] -> targets[j]; empty rows/columns are allowed."""
    ring = next((x.ring for x in [*targets, *sources]), ring)
    if ring is None:
        raise ValueError("empty grid needs an explicit ring")
    src_bp = _bp(sources, ring)
    dst_bp = _bp(targets, ring)
    if len(grid) != len(targets):
        raise ValueError("grid height does not match the targets")
    for j, row in enumerate(grid):
        if len(row) != len(sources):
            raise ValueError("grid row length does not match the sources")
        for k, f in enumerate(row):
            if f.src != sources[k] or f.dst != targets[j]:
                raise ValueError(f"grid entry ({j},{k}) has wrong endpoints")
    if not (sources and targets):
        return AssembledMorphism(zero2(src_bp.obj, dst_bp.obj), src_bp, dst_bp)
    return AssembledMorphism(pair2(*(copair2(*row) for row in grid)), src_bp, dst_bp)


def _bp(parts: list[TwoObject], ring) -> Biproduct2:
    return biproduct2(parts) if parts else Biproduct2(zero_two_object(ring), (), ())


def matrix_of2(u: TwoMorphism, src_bp: Biproduct2, dst_bp: Biproduct2):
    """The grid p_j . u . i_k of a morphism between assembled biproducts."""
    if u.src != src_bp.obj or u.dst != dst_bp.obj:
        raise ValueError("morphism endpoints do not match the biproducts")
    return [
        [
            compose2(pj, compose2(u, ik))
            for ik in src_bp.injections
        ]
        for pj in dst_bp.projections
    ]


def grid_product(g: list[list[TwoMorphism]], f: list[list[TwoMorphism]]):
    """Matrix product of grids: (g.f)_lj = sum_k g_lk . f_kj."""
    if not g or not f:
        return []
    out = []
    for l in range(len(g)):
        row = []
        for j in range(len(f[0])):
            acc = None
            for k in range(len(f)):
                term = compose2(g[l][k], f[k][j])
                acc = term if acc is None else acc + term
            row.append(acc)
        out.append(row)
    return out
