"""The long exact sequence of homology of an extension of chain complexes.

Per degree the connecting morphism comes from the snake (its rows need only
be a cokernel on top and a kernel below, which the relative cokernel and
kernel rows are) applied to the rows  Q_n -> K_n  (relative cokernels over
relative kernels) with
columns h_n, whose kernel/cokernel data are the homology presentations,
passed as canonical limits2 KernelData and CokernelData: kfull is
pair(kprime.bottom, kappa') and qfull is copair(zeta', qprime.top).  They
are canonical by construction.  kernel2's kmor has the identity top, so
the map a' that a induces into K(b, psi) keeps a's top, the cokernels of a'
and of a have the same top, and kprime: H -> Q(a, phi) has the identity
top; dually qprime: K(b, psi) -> H has the identity bottom.  kfull is the
kernel's kfull after an inclusion, a mono, and qfull is the coroot's
projection after the cokernel's, an epi, so the snakes factor through the
records by their universal property and solve nothing for them.
The six-term sequences of degrees n and n+1 meet at H_{n+1}: snake n's
(fbar2, etabar2, gbar2) are snake n+1's (fbar, etabar, gbar), so the
sequence ... H_n(A) -> H_n(B) -> H_n(C) -> H_{n+1}(A) ... is the snakes
glued end to end, and no seam cell is solved.  Each shared map is the
unique strict factorization of H_{n+1}(f) or H_{n+1}(g) through the
presentation of H_{n+1}.  As kprime . qprime = s strictly (homology_at
asserts it), the one factorization meets both snakes' equations, and
interning makes the two results one object; the glue checks the shared
ends by identity.  The assembled sequence is verified exact at every point
by the oracle, and the pi0 and Omega shadows are checked classically in the
base category (selftest.shadows_exact), over prime fields and over Z.
"""

from __future__ import annotations

from typing import NamedTuple

from .baselin import copair_base, pair_base
from .basemor import compose
from .core2 import (
    TwoCell,
    TwoMorphism,
    cell_to_zero,
    compose2,
    null_cell,
    vcomp2,
    whisker_left,
    whisker_right,
)
from .limits2 import CokernelData, KernelData, factor_rel_cokernel2, factor_rel_kernel2
from .sequences import (
    ChainMap,
    ComplexSequence,
    HomologyResult,
    complex_homology_at,
    padded_window,
    zero_capped,
)
from .snake import ColumnData, generalized_snake


class LesResult(NamedTuple):
    degrees: tuple[int, ...]
    h_objects: dict
    maps: tuple[TwoMorphism, ...]
    cells: tuple[TwoCell, ...]
    snakes: tuple


def _h_map(cx: ComplexSequence, hr: dict[int, HomologyResult], n: int) -> TwoMorphism:
    """h_n: Q_n -> K_n through the homology presentations at n and n+1."""
    _, _, _, _, _, psi, y = padded_window(cx, n)
    avak = hr[n].b_induced  # Q_n -> X_{n+1}
    beta = cell_to_zero(compose2(y, avak), psi.mat)
    return factor_rel_kernel2(hr[n + 1].rel_kernel, avak, beta)


def les_homology(fmap: ChainMap, omegas: tuple[TwoCell, ...], gmap: ChainMap) -> LesResult:
    """fmap: A. -> B., gmap: B. -> C., omegas[i]: g_i f_i => 0; the extension
    must be pointwise (each (f_n, omega_n, g_n) an extension)."""
    ax, bx, cx = fmap.src, fmap.dst, gmap.dst
    if gmap.src != bx:
        raise ValueError("chain maps do not compose")
    lo, n_objs = ax.lo, len(ax.objects)
    if len(omegas) != n_objs:
        raise ValueError(
            f"need one cell g_n f_n => 0 per degree {lo}..{lo + n_objs - 1}, got {len(omegas)}"
        )
    for n, f_n, g_n, om in zip(range(lo, lo + n_objs), fmap.squares, gmap.squares, omegas):
        if om.cfrom != compose2(g_n, f_n) or not om.cto.is_zero_mor():
            raise ValueError(f"the cell at degree {n} is not g_{n} f_{n} => 0")
    degrees = list(range(lo - 1, lo + n_objs + 1))
    snake_degrees = degrees[:-1]
    complexes = (ax, bx, cx)
    hrs = [{n: complex_homology_at(x, n) for n in degrees} for x in complexes]
    h_maps = [
        {n: _h_map(x, hr, n) for n in snake_degrees}
        for x, hr in zip(complexes, hrs)
    ]

    snakes = []
    for n in snake_degrees:
        cols = []
        for hr, hm in zip(hrs, h_maps):
            hn, hk, hq = hm[n], hr[n], hr[n + 1]
            kappa = cell_to_zero(compose2(hn, hk.kprime), hk.kappa_prime.mat)
            zeta = cell_to_zero(compose2(hq.qprime, hn), hq.zeta_prime.mat)
            ker_side = KernelData(hk.obj, hk.kprime, kappa, pair_base(hk.kprime.bottom, kappa.mat))
            coker_side = CokernelData(hq.obj, hq.qprime, zeta, copair_base(zeta.mat, hq.qprime.top))
            cols.append(ColumnData(hn, ker_side, coker_side))
        f_r = _coker_induced(fmap, hrs[0][n], hrs[1][n], n)
        g_r = _coker_induced(gmap, hrs[1][n], hrs[2][n], n)
        f_k = _ker_induced(fmap, hrs[0][n + 1], hrs[1][n + 1], n)
        g_k = _ker_induced(gmap, hrs[1][n + 1], hrs[2][n + 1], n)
        om_r = cell_to_zero(
            compose2(g_r, f_r),
            compose(hrs[2][n].rel_cokernel.qmor.top, _padded_omega(fmap, gmap, omegas, n).mat),
        )
        om_k = cell_to_zero(
            compose2(g_k, f_k),
            compose(_padded_omega(fmap, gmap, omegas, n + 1).mat, hrs[0][n + 1].rel_kernel.kmor.bottom),
        )
        # strictness of every factorization makes the chain homotopies the
        # canonical comparison cells between the induced rows
        phi_t = TwoCell(
            compose2(h_maps[1][n], f_r), compose2(f_k, h_maps[0][n]), fmap.padded_cell(n).mat
        )
        psi_t = TwoCell(
            compose2(h_maps[2][n], g_r), compose2(g_k, h_maps[1][n]), gmap.padded_cell(n).mat
        )
        snakes.append(
            generalized_snake(
                f_r, om_r, g_r, f_k, om_k, g_k, cols[0], cols[1], cols[2], phi_t, psi_t
            )
        )

    h_objects = {}
    for i in range(3):
        for n in degrees:
            h_objects[(i, n)] = hrs[i][n].obj
    maps, cells = (list(part) for part in snakes[0].sequence())
    for prev, sn in zip(snakes, snakes[1:]):
        if not (prev.fbar2 is sn.fbar and prev.etabar2 is sn.etabar and prev.gbar2 is sn.gbar):
            raise AssertionError("consecutive snakes do not share their ends")
        sn_maps, sn_cells = sn.sequence()
        maps.extend(sn_maps[2:])
        cells.extend(sn_cells[1:])
    return LesResult(tuple(degrees), h_objects, tuple(maps), tuple(cells), tuple(snakes))


def les_full_sequence(res: LesResult):
    """Zero-capped maps and cells for exactness checking at every point."""
    return zero_capped(res.maps, res.cells)


def _padded_omega(fmap: ChainMap, gmap: ChainMap, omegas, n: int) -> TwoCell:
    idx = n - fmap.src.lo
    if 0 <= idx < len(omegas):
        return omegas[idx]
    return null_cell(compose2(gmap.padded_square(n), fmap.padded_square(n)))


def _coker_induced(cmap: ChainMap, hr_src: HomologyResult, hr_dst: HomologyResult, n: int):
    rc_src, rc_dst = hr_src.rel_cokernel, hr_dst.rel_cokernel
    f_n = cmap.padded_square(n)
    w = compose2(rc_dst.qmor, f_n)
    theta = vcomp2(
        whisker_right(rc_dst.zeta, cmap.padded_square(n - 1)),
        whisker_left(rc_dst.qmor, cmap.padded_cell(n - 1).inverse()),
    )
    return factor_rel_cokernel2(rc_src, w, theta)


def _ker_induced(cmap: ChainMap, hr_src: HomologyResult, hr_dst: HomologyResult, n: int):
    rk_src, rk_dst = hr_src.rel_kernel, hr_dst.rel_kernel
    t = compose2(cmap.padded_square(n + 1), rk_src.kmor)
    beta = vcomp2(
        whisker_left(cmap.padded_square(n + 2), rk_src.kappa),
        whisker_right(cmap.padded_cell(n + 1), rk_src.kmor),
    )
    return factor_rel_kernel2(rk_dst, t, beta)


