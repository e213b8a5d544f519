"""Puppe, snake, anaconda, LES and the grid lemmas on structured instances."""

import json
import os
import pathlib
import random
import subprocess
import sys
import textwrap

import pytest

import arrowcat
from arrowcat import GF, ZZ, base_morphism, field_object, z_object, zero_mor, zero_object
from arrowcat.anaconda import anaconda, anaconda_full_sequence
from arrowcat.baselin import base_objects, copair_base, pair_base
from arrowcat.basemor import compose, identity_mor
from arrowcat.classify2 import classify2
from arrowcat.core2 import (
    TwoCell,
    cell_to_zero,
    compose2,
    deform,
    identity2,
    identity_cell,
    identity_like_cell,
    is_zero_equivalent,
    null_cell,
    two_morphism,
    two_object,
    vcomp2,
    whisker_left,
    whisker_right,
    zero2,
)
from arrowcat.generators import (
    Bounds,
    ComplexExtensionInstance,
    ComplexInstance,
    extension_on,
    random_3x3_instance,
    random_complex,
    random_complex_extension,
    random_generalized_snake_instance,
    random_shortfive_instance,
    random_snake_instance,
    random_square,
    random_two_object,
    to_chain_maps,
)
from arrowcat.lemmas import (
    ShortFiveInput,
    ThreeByThree,
    check_3x3,
    check_3x3_part2,
    check_short_five,
)
from arrowcat.les import les_full_sequence, les_homology
from arrowcat.limits2 import CokernelData, KernelData, biproduct2, copair2, omega_obj, sigma_obj
from arrowcat.puppe import puppe
from arrowcat.selftest import _random_loop, shadows_exact
from arrowcat.sequences import ChainMap, exact_at, exactness, loop_exact
from arrowcat.snake import column_data, generalized_snake, plain_snake


class TestPuppe:
    def test_identity_square(self, rng, bounds):
        x = random_two_object(rng, GF(3), bounds)
        ps = puppe(identity2(x))
        zs = [is_zero_equivalent(o) for o in ps.objects]
        # pip, kernel, cokernel, copip vanish; loop/suspension maps are equivalences
        assert zs[0] and zs[3] and zs[6] and zs[9]
        assert classify2(ps.maps[1]).equivalence
        assert classify2(ps.maps[7]).equivalence

    def test_zero_square(self, rng, bounds):
        x = random_two_object(rng, GF(2), bounds)
        y = random_two_object(rng, GF(2), bounds)
        ps = puppe(zero2(x, y))
        for k in range(8):
            assert exact_at(ps.maps[k], ps.cells[k], ps.maps[k + 1])

    def test_random_squares_all_rings(self, rng, bounds):
        for ring in (GF(2), GF(5), ZZ):
            a = random_two_object(rng, ring, bounds)
            b = random_two_object(rng, ring, bounds)
            u = random_square(rng, a, b)
            ps = puppe(u)
            for k in range(8):
                assert exact_at(ps.maps[k], ps.cells[k], ps.maps[k + 1])
            if ring.is_field:
                assert loop_exact(ps.mu)

    @pytest.mark.parametrize("ring", [GF(2), GF(3), GF(5), ZZ], ids=str)
    def test_outer_maps_match_inline_factorizations(self, ring):
        """Pip u -> Omega A and Coker u -> Sigma A, built as loop_tilde and
        factor_cokernel2, equal the direct base factorizations through the
        loop inclusion of A and through qfull."""
        from arrowcat.baselin import biproduct_base
        from arrowcat.limits2 import cokernel2, factor_through, pip2

        rng = random.Random(1602 + (ring.p or 0))
        bounds = Bounds(max_dim=3)
        for _ in range(10):
            a = random_two_object(rng, ring, bounds)
            b = random_two_object(rng, ring, bounds)
            u = random_square(rng, a, b)
            ps = puppe(u)
            pp, cd = pip2(u), cokernel2(u)
            om_a, sg_a = omega_obj(a), sigma_obj(a)
            j1 = factor_through(pp.loop.mat, left=om_a.loop.mat)
            m1 = two_morphism(pp.obj, om_a.obj, zero_mor(pp.obj.top, om_a.obj.top), j1)
            _, _, (p0, _) = biproduct_base((a.bottom, b.top))
            d7 = factor_through(compose(sg_a.loop.mat, p0), right=cd.qfull)
            m7 = two_morphism(cd.obj, sg_a.obj, d7, zero_mor(cd.obj.bottom, sg_a.obj.bottom))
            assert ps.maps[0] == m1
            assert ps.maps[6] == m7


class TestSnake:
    def test_identity_columns_collapse(self, rng, bounds):
        ring = GF(3)
        a_obj = random_two_object(rng, ring, bounds)
        c_obj = random_two_object(rng, ring, bounds)
        ext = extension_on(rng, a_obj, c_obj, bounds)
        f, eta, g = ext.m, ext.cell, ext.e
        cols = [column_data(identity2(x)) for x in (f.src, f.dst, g.dst)]
        phi = identity_cell(f)
        psi = identity_cell(g)
        res = plain_snake(f, eta, g, f, eta, g, *cols, phi, psi)
        maps, cells = res.sequence()
        for obj in (res.col_a.ker.obj, res.col_b.ker.obj, res.col_c.ker.obj,
                    res.col_a.coker.obj, res.col_b.coker.obj, res.col_c.coker.obj):
            assert is_zero_equivalent(obj)
        for k in range(4):
            assert exact_at(maps[k], cells[k], maps[k + 1])

    def test_plain_random(self, rng, bounds):
        for ring in (GF(2), ZZ, GF(2**31 - 1)):
            inst = random_snake_instance(rng, ring, bounds)
            cols = [column_data(x) for x in inst.cols]
            res = plain_snake(*inst.row1, *inst.row2, *cols, *inst.cells)
            maps, cells = res.sequence()
            for k in range(4):
                assert exact_at(maps[k], cells[k], maps[k + 1])

    def test_generalized_random(self, rng, bounds):
        """Rows that need not be extensions: at least a quarter of the 40
        draws per ring have f not faithful, and a quarter g2 not cofaithful
        (measured: 28, 30, 28 and 26, 23, 23 of 40 on F3, F5, Z), so the
        one snake construction meets the weaker hypotheses."""
        # 40 instances per ring: a sign-flipped connecting map leaves no
        # solution to the outer connecting-cell system on some of them
        rings = [GF(3)] * 40 + [GF(5)] * 40 + [ZZ] * 40 + [GF(2**31 - 1)]
        not_faithful = dict.fromkeys(rings, 0)
        not_cofaithful = dict.fromkeys(rings, 0)
        for ring in rings:
            inst = random_generalized_snake_instance(rng, ring, bounds)
            not_faithful[ring] += not classify2(inst.row1[0]).faithful
            not_cofaithful[ring] += not classify2(inst.row2[2]).cofaithful
            cols = [column_data(x) for x in inst.cols]
            res = generalized_snake(*inst.row1, *inst.row2, *cols, *inst.cells)
            maps, cells = res.sequence()
            for k in range(4):
                assert exact_at(maps[k], cells[k], maps[k + 1])
        for ring in (GF(3), GF(5), ZZ):
            assert not_faithful[ring] >= 10, ring
            assert not_cofaithful[ring] >= 10, ring

    @pytest.mark.parametrize("ring", [GF(3), GF(5), ZZ], ids=str)
    @pytest.mark.parametrize("side", ["a-cokernel", "b-kernel", "b-cokernel", "c-kernel"])
    @pytest.mark.parametrize(
        "draw", [random_snake_instance, random_generalized_snake_instance], ids=["plain", "generalized"]
    )
    def test_presented_columns(self, draw, side, ring, bounds, monkeypatch):
        """One side of one column presented: its canonical kmor or qmor
        deformed by a random matrix, with kappa or zeta carried along and
        kfull or qfull None, on extension rows (plain) and on rows that
        need not be extensions (generalized).  On some draws an induced map
        then factors through the presented side only with a nonzero cell,
        so the tail's pins read that cell; the snake stays exact."""
        import arrowcat.snake as snake_mod
        from arrowcat.generators import random_base_morphism

        col, kind = {"a": 0, "b": 1, "c": 2}[side[0]], side[2:]
        name = f"factor_through_{kind}_data"
        cells_of = []
        factor = getattr(snake_mod, name)

        def recording(u, side, w, beta):
            mor, th = factor(u, side, w, beta)
            cells_of.append((side.kmor if kind == "kernel" else side.qmor, th))
            return mor, th

        monkeypatch.setattr(snake_mod, name, recording)
        rng = random.Random(2404 + (ring.p or 0))
        nonzero = 0
        for _ in range(40):
            inst = draw(rng, ring, bounds)
            cols = [column_data(x) for x in inst.cols]
            x = cols[col]
            if kind == "kernel":
                ks = x.ker
                alpha = random_base_morphism(rng, ks.kmor.src.bottom, ks.kmor.dst.top, bounds)
                dk = deform(ks.kmor, alpha)
                kappa = vcomp2(ks.kappa, whisker_left(x.mor, dk.inverse()))
                cols[col], presented = x._replace(ker=KernelData(ks.obj, dk.cto, kappa, None)), dk.cto
            else:
                qs = x.coker
                alpha = random_base_morphism(rng, qs.qmor.src.bottom, qs.qmor.dst.top, bounds)
                dq = deform(qs.qmor, alpha)
                zeta = vcomp2(qs.zeta, whisker_right(dq.inverse(), x.mor))
                cols[col], presented = x._replace(coker=CokernelData(qs.obj, dq.cto, zeta, None)), dq.cto
            cells_of.clear()
            maps, cells = plain_snake(*inst.row1, *inst.row2, *cols, *inst.cells).sequence()
            nonzero += any(m is presented and not th.mat.is_zero_mor() for m, th in cells_of)
            for k in range(4):
                assert exact_at(maps[k], cells[k], maps[k + 1])
        assert nonzero > 0

    @pytest.mark.parametrize("ring", [GF(2), GF(3), GF(5), ZZ], ids=str)
    def test_tail_convention(self, ring):
        """On canonical columns every induced map is a strict factorization,
        kc*etabar is eta*ka and etabar2*qa is qc*eta2."""
        rng = random.Random(777 + (ring.p or 0))
        for i in range(20):
            inst = random_snake_instance(rng, ring, Bounds(max_dim=2 + i % 2))
            f, eta, g = inst.row1
            f2, eta2, g2 = inst.row2
            a, b, c = (column_data(x) for x in inst.cols)
            res = plain_snake(*inst.row1, *inst.row2, a, b, c, *inst.cells)
            assert compose2(b.ker.kmor, res.fbar) == compose2(f, a.ker.kmor)
            assert compose2(c.ker.kmor, res.gbar) == compose2(g, b.ker.kmor)
            assert compose2(res.fbar2, a.coker.qmor) == compose2(b.coker.qmor, f2)
            assert compose2(res.gbar2, b.coker.qmor) == compose2(c.coker.qmor, g2)
            assert whisker_left(c.ker.kmor, res.etabar) == whisker_right(eta, a.ker.kmor)
            assert whisker_right(res.etabar2, a.coker.qmor) == whisker_left(c.coker.qmor, eta2)

    def test_classical_snake_on_discrete_embedding(self):
        """Vector-space rows embedded as (0 -> V): the six-term objects carry
        the classical kernels/cokernels, cross-checked by rank arithmetic."""
        from arrowcat.modsolve import row_space_mod_p

        p = 5
        ring = GF(p)
        rng = random.Random(1234)

        def disc(n):
            return two_object(zero_mor(zero_object(ring), field_object(ring, n)))

        def rank(m):
            return len(row_space_mod_p(m.mat, m.dst.ngens, m.src.ngens, p)[1])

        # classical rows 0 -> F^a -> F^{a+c} -> F^c -> 0
        na, nc = 2, 1
        a_o, b_o, c_o = disc(na), disc(na + nc), disc(nc)
        from arrowcat import base_morphism as bm
        from arrowcat.intmat import identity as eye

        inj = [[1 if i == j else 0 for j in range(na)] for i in range(na + nc)]
        proj = [[1 if j == i + na else 0 for j in range(na + nc)] for i in range(nc)]
        f = two_morphism(a_o, b_o, zero_mor(a_o.top, b_o.top), bm(a_o.bottom, b_o.bottom, inj))
        g = two_morphism(b_o, c_o, zero_mor(b_o.top, c_o.top), bm(b_o.bottom, c_o.bottom, proj))
        eta = cell_to_zero(compose2(g, f), zero_mor(a_o.bottom, c_o.top))
        # random columns between two copies of the rows
        amat = [[rng.randrange(p) for _ in range(na)] for _ in range(na)]
        cmat = [[rng.randrange(p) for _ in range(nc)] for _ in range(nc)]
        bmat = [
            [amat[i][j] if i < na and j < na else 0 for j in range(na + nc)]
            for i in range(na + nc)
        ]
        for i in range(nc):
            for j in range(nc):
                bmat[na + i][na + j] = cmat[i][j]
        col_a = two_morphism(a_o, a_o, zero_mor(a_o.top, a_o.top), bm(a_o.bottom, a_o.bottom, amat))
        col_b = two_morphism(b_o, b_o, zero_mor(b_o.top, b_o.top), bm(b_o.bottom, b_o.bottom, bmat))
        col_c = two_morphism(c_o, c_o, zero_mor(c_o.top, c_o.top), bm(c_o.bottom, c_o.bottom, cmat))
        phi = identity_cell(compose2(col_b, f))
        psi = identity_cell(compose2(col_c, g))
        res = plain_snake(
            f, eta, g, f, eta, g,
            column_data(col_a), column_data(col_b), column_data(col_c),
            phi, psi,
        )
        maps, cells = res.sequence()
        for k in range(4):
            assert exact_at(maps[k], cells[k], maps[k + 1])
        # classical dimensions: over a field every snake object is equivalent
        # to a discrete/connected piece of the classical dimension
        from arrowcat.baselin import cokernel_base, kernel_base

        def homotopy_dims(obj):
            return (
                kernel_base(obj.boundary)[0].ngens,
                cokernel_base(obj.boundary)[0].ngens,
            )

        ka = homotopy_dims(res.col_a.ker.obj)
        # Ker of the embedded a-column: pi1 = 0, pi0 = classical kernel
        assert ka[0] == 0
        assert ka[1] - ka[0] == col_a.src.bottom.ngens - rank(col_a.bottom)

    def test_hypothesis_violation_reported(self, rng, bounds):
        """eta + L, for a loop L: A.bottom -> C.top, is a valid cell g.f => 0,
        and it breaks the pasting law exactly when c.top . L is not zero:
        plain_snake must refuse it then."""
        ring = GF(2)
        refused = 0
        for _ in range(400):
            if refused == 5:
                break
            inst = random_snake_instance(rng, ring, bounds)
            f, eta, g = inst.row1
            loop = _random_loop(rng, f.src, g.dst).mat
            if compose(inst.cols[2].top, loop).is_zero_mor():
                continue  # the pasting law still holds
            bad = cell_to_zero(compose2(g, f), eta.mat + loop)
            cols = [column_data(x) for x in inst.cols]
            with pytest.raises(ValueError, match="pasting condition"):
                plain_snake(f, bad, g, *inst.row2, *cols, *inst.cells)
            refused += 1
        assert refused == 5


class TestAnaconda:
    def test_identity_columns_collapse(self, rng, bounds):
        ring = GF(2)
        a_obj = random_two_object(rng, ring, bounds)
        c_obj = random_two_object(rng, ring, bounds)
        ext = extension_on(rng, a_obj, c_obj, bounds)
        f, eta, g = ext.m, ext.cell, ext.e
        cols = [column_data(identity2(x)) for x in (f.src, f.dst, g.dst)]
        res = anaconda(f, eta, g, f, eta, g, *cols, identity_cell(f), identity_cell(g))
        for obj in res.objects[3:9]:
            assert is_zero_equivalent(obj)
        maps, cells = anaconda_full_sequence(res)
        for k in range(len(maps) - 1):
            assert exact_at(maps[k], cells[k], maps[k + 1])

    def test_random_instance(self, rng, bounds):
        for ring in (GF(3), ZZ, GF(2**31 - 1)):
            inst = random_snake_instance(rng, ring, bounds)
            cols = [column_data(x) for x in inst.cols]
            res = anaconda(*inst.row1, *inst.row2, *cols, *inst.cells)
            maps, cells = anaconda_full_sequence(res)
            for k in range(len(maps) - 1):
                assert exact_at(maps[k], cells[k], maps[k + 1])
            assert len(res.composite_signs) == 9

    def test_connectors_meet_their_pins(self, bounds):
        """gbar_1.dtil - etabar*d'_0 = omega_{Kc} and
        dhat*fbar2_0 - d''_1.etabar2 = -sigma_{Qa}, with nonzero loops seen."""
        rng = random.Random(4242)
        nonzero = [0, 0]
        for k in range(16):
            ring = (GF(3), ZZ)[k % 2]
            inst = random_snake_instance(rng, ring, bounds)
            cols = [column_data(x) for x in inst.cols]
            res = anaconda(*inst.row1, *inst.row2, *cols, *inst.cells)
            sn, (kc, qa) = res.snake, (res.objects[5], res.objects[6])
            omega, sigma = omega_obj(kc).loop.mat, sigma_obj(qa).loop.mat
            dprime, dtil, dsec, dhat = res.maps[2], res.cells[2], res.maps[8], res.cells[7]
            left = compose(sn.gbar.top, dtil.mat) - compose(sn.etabar.mat, dprime.bottom)
            right = compose(dhat.mat, sn.fbar2.bottom) - compose(dsec.top, sn.etabar2.mat)
            assert left == omega and right == -sigma
            nonzero[0] += not omega.is_zero_mor()
            nonzero[1] += not sigma.is_zero_mor()
        assert min(nonzero) > 0, nonzero


def _twisted_extension(rng, ring, bounds):
    """An extension A. -> B. -> C. of two-term complexes whose total
    differential carries a random twist t: C_0 -> A_1, so B. is not the
    split sum of A. and C. and the connecting map H_0(C) -> H_1(A) can be
    nonzero.  Every square and cell of the extension is strict."""
    sub = random_complex(rng, ring, 2, bounds)
    quot = random_complex(rng, ring, 2, bounds)
    (a0, a1), (c0, c1) = sub.objects, quot.objects
    bp0, bp1 = biproduct2([a0, c0]), biproduct2([a1, c1])
    t = random_square(rng, c0, a1)
    i_a1, i_c1 = bp1.injections
    diff = copair2(compose2(i_a1, sub.diffs[0]), compose2(i_a1, t) + compose2(i_c1, quot.diffs[0]))
    total = ComplexInstance(0, 1, [bp0.obj, bp1.obj], [diff], [])
    maps_in = [bp0.injections[0], i_a1]
    maps_out = [bp0.projections[1], bp1.projections[1]]
    in_cells = [identity_like_cell(compose2(diff, maps_in[0]), compose2(i_a1, sub.diffs[0]))]
    out_cells = [identity_like_cell(compose2(quot.diffs[0], maps_out[0]), compose2(maps_out[1], diff))]
    omegas = [null_cell(compose2(g, f)) for f, g in zip(maps_in, maps_out)]
    return ComplexExtensionInstance(sub, total, quot, maps_in, in_cells, maps_out, out_cells, omegas)


class TestLes:
    # (top, bottom) matrices of each snake's d on _twisted_extension with
    # Random(seed) at max_dim 2; seeds found by a search for nonzero d
    TWISTED_D = {
        (GF(3), 2): [((), ()), ((), ((2, 1, 2),)), (((1, 2, 0, 0),), ())],
        (ZZ, 11): [
            (((),), ((0, 0), (0, 0))),
            (((0, 0), (0, 0), (0, 0)), ((-1, 0, 0, 0),)),
            (((3, 0, 0, 0),), ()),
        ],
    }

    @pytest.mark.parametrize("ring, seed", list(TWISTED_D), ids=str)
    def test_nonzero_connecting_map(self, ring, seed, bounds):
        """A twisted extension: exact everywhere, with some connecting map d
        nonzero and each d pinned, so a sign-flipped d is seen."""
        ce = _twisted_extension(random.Random(seed), ring, bounds)
        res = les_homology(*to_chain_maps(ce))
        maps, cells = les_full_sequence(res)
        assert all(exactness(maps, cells))
        assert [(sn.d.top.mat, sn.d.bottom.mat) for sn in res.snakes] == self.TWISTED_D[ring, seed]
        assert any(not sn.d.is_zero_mor() for sn in res.snakes)

    @pytest.mark.parametrize("ring", [GF(2), GF(3), GF(5), ZZ], ids=str)
    def test_snakes_glue_at_homology(self, ring, bounds):
        """maps and cells are the snakes' six-term sequences glued end to end:
        snake n's (fbar2, etabar2, gbar2) are snake n+1's (fbar, etabar, gbar)
        as objects.  Twisted extensions give nonzero connecting maps, so the
        glue is seen across them."""
        rng = random.Random(2028 + (ring.p or 0))
        nonzero = 0
        for k in range(12):
            if k % 2:
                ce = random_complex_extension(rng, ring, 2 + k % 3, bounds)
            else:
                ce = _twisted_extension(rng, ring, bounds)
            res = les_homology(*to_chain_maps(ce))
            maps, cells = (list(part) for part in res.snakes[0].sequence())
            for prev, sn in zip(res.snakes, res.snakes[1:]):
                assert prev.fbar2 is sn.fbar and prev.etabar2 is sn.etabar and prev.gbar2 is sn.gbar
                sn_maps, sn_cells = sn.sequence()
                maps += sn_maps[2:]
                cells += sn_cells[1:]
            assert res.maps == tuple(maps) and res.cells == tuple(cells)
            nonzero += sum(not sn.d.is_zero_mor() for sn in res.snakes)
        assert nonzero > 0

    @pytest.mark.parametrize("ring", [GF(2), GF(3), GF(5), ZZ], ids=str)
    def test_columns_are_canonical_records(self, ring, bounds, monkeypatch):
        """Each column h_n: Q_n -> K_{n+1} reaches its snake with canonical
        records: kmor.top and qmor.bottom are identities, kfull and qfull
        are the pairing and copairing of their sides, and kfull is mono and
        qfull epi, so the induced maps factor through them strictly."""
        import arrowcat.les as les_mod

        snake = les_mod.generalized_snake
        columns = []

        def recording(*args):
            columns.extend(args[6:9])
            return snake(*args)

        monkeypatch.setattr(les_mod, "generalized_snake", recording)
        rng = random.Random(2030 + (ring.p or 0))
        for k in range(4):
            ce = _twisted_extension(rng, ring, bounds) if k % 2 else random_complex_extension(rng, ring, 3, bounds)
            les_homology(*to_chain_maps(ce))
        assert columns
        for col in columns:
            kd, cd = col.ker, col.coker
            assert kd.kmor.top == identity_mor(kd.kmor.top.src)
            assert cd.qmor.bottom == identity_mor(cd.qmor.bottom.src)
            assert kd.kfull == pair_base(kd.kmor.bottom, kd.kappa.mat)
            assert cd.qfull == copair_base(cd.zeta.mat, cd.qmor.top)
            assert base_objects(kd.kfull).ker.is_zero
            assert base_objects(cd.qfull).coker.is_zero

    def test_unshared_ends_are_refused(self, bounds, monkeypatch):
        """A snake whose fbar2 is not the next snake's fbar stops the glue."""
        import arrowcat.les as les_mod

        snake = les_mod.generalized_snake
        moved = []

        def deforming(*args):
            sn = snake(*args)
            if moved:
                return sn
            u = sn.fbar2
            ones = [[1] * u.src.bottom.ngens for _ in range(u.dst.top.ngens)]
            fbar2 = deform(u, base_morphism(u.src.bottom, u.dst.top, ones)).cto
            if fbar2 is u:
                return sn
            moved.append(fbar2)
            return sn._replace(fbar2=fbar2)

        monkeypatch.setattr(les_mod, "generalized_snake", deforming)
        ce = _twisted_extension(random.Random(2), GF(3), bounds)
        with pytest.raises(AssertionError, match="consecutive snakes do not share their ends"):
            les_homology(*to_chain_maps(ce))
        assert moved

    def test_les_exact_everywhere(self, rng, bounds):
        for ring, length in ((GF(2), 3), (GF(3), 3)):
            ce = random_complex_extension(rng, ring, length, bounds)
            fmap, omegas, gmap = to_chain_maps(ce)
            res = les_homology(fmap, omegas, gmap)
            maps, cells = les_full_sequence(res)
            for k in range(len(maps) - 1):
                assert exact_at(maps[k], cells[k], maps[k + 1])

    def test_les_over_z_has_exact_shadows(self, bounds):
        # 12 extensions of lengths 3 and 4 over Z (seed 11, under a second):
        # exact at every point, and so are the pi0 and Omega shadows
        rng = random.Random(11)
        for k in range(12):
            ce = random_complex_extension(rng, ZZ, 3 + k % 2, bounds)
            maps, cells = les_full_sequence(les_homology(*to_chain_maps(ce)))
            assert all(exactness(maps, cells))
            assert shadows_exact(maps, ZZ)

    def test_shadows_exact_rejects_a_nonzero_homology(self):
        # 0 -> Z as a 2-object has pi0 = Z, and Z -0-> Z -0-> Z is not exact
        y = two_object(zero_mor(zero_object(ZZ), z_object(1)))
        assert not shadows_exact([zero2(y, y), zero2(y, y)], ZZ)
        assert shadows_exact([zero2(y, y)], ZZ)

    def test_single_degree_reduces_to_snake(self, rng, bounds):
        # complexes concentrated in one degree: the only interesting snake
        # is the central one and the LES is exact throughout
        ce = random_complex_extension(rng, GF(2), 1, bounds)
        fmap, omegas, gmap = to_chain_maps(ce)
        res = les_homology(fmap, omegas, gmap)
        maps, cells = les_full_sequence(res)
        for k in range(len(maps) - 1):
            assert exact_at(maps[k], cells[k], maps[k + 1])

    def test_zero_differentials(self, rng, bounds):
        from arrowcat.les import ChainMap
        from arrowcat.sequences import ComplexSequence
        from arrowcat.limits2 import biproduct2
        ring = GF(3)
        subs = [random_two_object(rng, ring, bounds) for _ in range(3)]
        quots = [random_two_object(rng, ring, bounds) for _ in range(3)]
        bps = [biproduct2([a, c]) for a, c in zip(subs, quots)]
        tots = [bp.obj for bp in bps]

        def zc(objs):
            diffs = tuple(zero2(objs[i], objs[i + 1]) for i in range(2))
            cells = tuple(
                cell_to_zero(
                    compose2(diffs[i + 1], diffs[i]),
                    zero_mor(objs[i].bottom, objs[i + 2].top),
                )
                for i in range(1)
            )
            return ComplexSequence(0, tuple(objs), diffs, cells)

        ax, bx, cx = zc(subs), zc(tots), zc(quots)
        fsq = tuple(bp.injections[0] for bp in bps)
        gsq = tuple(bp.projections[1] for bp in bps)
        # zero differentials: the connecting cells are identity cells of zero maps
        fcells = tuple(
            TwoCell(
                compose2(bx.diffs[i], fsq[i]), compose2(fsq[i + 1], ax.diffs[i]),
                zero_mor(ax.objects[i].bottom, bx.objects[i + 1].top),
            )
            for i in range(2)
        )
        gcells = tuple(
            TwoCell(
                compose2(cx.diffs[i], gsq[i]), compose2(gsq[i + 1], bx.diffs[i]),
                zero_mor(bx.objects[i].bottom, cx.objects[i + 1].top),
            )
            for i in range(2)
        )
        fmap = ChainMap(ax, bx, fsq, fcells)
        gmap = ChainMap(bx, cx, gsq, gcells)
        omegas = tuple(
            cell_to_zero(
                compose2(gsq[i], fsq[i]), zero_mor(subs[i].bottom, quots[i].top)
            )
            for i in range(3)
        )
        res = les_homology(fmap, omegas, gmap)
        maps, cells = les_full_sequence(res)
        for k in range(len(maps) - 1):
            assert exact_at(maps[k], cells[k], maps[k + 1])


class TestSolveBudget:
    """LinearSystem.solve calls on a fixed seeded set, pinned: three
    generalized snakes and two LES (length 3) per ring, drawn from
    Random(2026) at max_dim 2, and three plain snakes from their own
    Random(2027) stream, run once as plain snakes and once as anacondas
    (whose count includes their plain snake).  A total that rises means
    redundant solving came back; one that falls is a gain, and its pin is
    updated with the change that makes it.

    Canonical column data factor through their universal property, with no
    LinearSystem: that took the four induced-map factorizations out of
    each plain snake (plain 18 -> 6 on both rings, anaconda 30 -> 18 on F3
    and 32 -> 20 on Z) and four out of each generalized snake (39 -> 27 on
    F3, 37 -> 25 on Z).

    The LES hands its snakes canonical records (kprime.top and qprime.bottom
    are identities, kfull mono and qfull epi), so its 32 factorizations
    through them solve nothing (F3 97 -> 65, Z 101 -> 69).  A presented
    record is one solve, the square and then its cell, with no strict
    attempt first; that took out the second solve of every factorization
    whose strict attempt failed: 3 in the F3 generalized snakes (27 -> 24),
    1 in the F3 LES (-> 64), 2 in the Z anacondas (20 -> 18), 1 in the Z
    generalized snakes (25 -> 24) and 5 in the Z LES (-> 64).

    The generalized snake is the plain snake's construction: no inner
    diagram, so no presented ahat and chat factorizations and no nu,
    kappa_chat, mu_m and zeta_ahat cells.  Every snake is two solves, k'_c
    and the connecting cells: generalized 24 -> 6 and LES 64 -> 16 (eight
    snakes) on both rings.  A count above 6 means an inner route is back."""

    BUDGET = {
        (GF(3), "anaconda"): 18,
        (GF(3), "generalized"): 6,
        (GF(3), "les"): 16,
        (GF(3), "plain"): 6,
        (ZZ, "anaconda"): 18,
        (ZZ, "generalized"): 6,
        (ZZ, "les"): 16,
        (ZZ, "plain"): 6,
    }

    @pytest.mark.parametrize("ring", [GF(3), ZZ], ids=str)
    def test_solve_budget(self, ring, bounds, monkeypatch):
        from arrowcat.baselin import LinearSystem

        rng = random.Random(2026)
        snakes = []
        for _ in range(3):
            inst = random_generalized_snake_instance(rng, ring, bounds)
            snakes.append((*inst.row1, *inst.row2, *(column_data(x) for x in inst.cols), *inst.cells))
        extensions = [to_chain_maps(random_complex_extension(rng, ring, 3, bounds)) for _ in range(2)]
        plain_rng = random.Random(2027)
        plain = []
        for _ in range(3):
            inst = random_snake_instance(plain_rng, ring, bounds)
            plain.append((*inst.row1, *inst.row2, *(column_data(x) for x in inst.cols), *inst.cells))

        calls = [0]
        solve = LinearSystem.solve

        def counting(self, *args, **kwargs):
            calls[0] += 1
            return solve(self, *args, **kwargs)

        monkeypatch.setattr(LinearSystem, "solve", counting)
        spent = {}
        for args in plain:
            plain_snake(*args)
        spent[ring, "plain"], calls[0] = calls[0], 0
        for args in plain:
            anaconda(*args)
        spent[ring, "anaconda"], calls[0] = calls[0], 0
        for args in snakes:
            generalized_snake(*args)
        spent[ring, "generalized"], calls[0] = calls[0], 0
        for ext in extensions:
            les_homology(*ext)
        spent[ring, "les"] = calls[0]
        assert spent == {k: v for k, v in self.BUDGET.items() if k[0] == ring}


class TestInternBudget:
    """Distinct values built and checked (registrations in the intern
    tables of base morphisms, 2-objects, squares and cells), pinned on the
    instances of TestSolveBudget.  Each ring runs in a fresh process, so no
    value is live from elsewhere.  A count that rises means values are
    checked again: interning was defeated, or redundant construction came
    back.

    The generalized snakes' base morphisms rose from 258 to 265 on F3 and
    from 224 to 227 on Z when canonical column data began to factor through
    their universal property: factor_kernel2 and factor_cokernel2 build the
    pairings pair_base(t.bottom, beta) and copair_base(theta, w.top) that
    they factor through kfull and qfull.

    When the LES sides became canonical records, the LES's base morphisms
    rose from 171 to 172 on F3 and from 782 to 794 on Z.  No new value is
    built: each rise is a pairing that had died and is registered again,
    on F3 one pair_base(t.bottom, beta) of factor_kernel2, on Z eight
    pairings of factor_kernel2 and factor_cokernel2 and the four kfull and
    qfull pairings that les builds for the records.  When a presented
    record became one solve, a Z generalized snake's cokernel-data
    factorization found another valid representative, with a nonzero cell
    where the strict attempt had found a zero one: the Z generalized
    snakes rose from 227 to 229 base morphisms and from 92 to 93 cells,
    and the Z LES to 795, a zero morphism that zero_mor's memo no longer
    holds from the generalized snakes.

    Every count fell when the generalized snake became the plain snake's
    construction: it builds no inner diagram (kernel2 of g, cokernel2 of
    f2, the presented ahat and chat, and the four presentation cells),
    generalized [265, 7, 162, 106] -> [191, 5, 117, 72] on F3 and
    [229, 8, 145, 93] -> [156, 5, 98, 61] on Z, and the LES, eight such
    snakes, [172, 16, 227, 203] -> [140, 12, 184, 178] on F3 and
    [795, 51, 591, 416] -> [659, 41, 508, 368] on Z."""

    BUDGET = {
        (GF(3), "generalized"): [191, 5, 117, 72],
        (GF(3), "les"): [140, 12, 184, 178],
        (ZZ, "generalized"): [156, 5, 98, 61],
        (ZZ, "les"): [659, 41, 508, 368],
    }

    CHILD = textwrap.dedent(
        """
        import json, random, weakref
        from arrowcat import GF, ZZ, basemor, core2
        from arrowcat.generators import Bounds, random_complex_extension, random_generalized_snake_instance, to_chain_maps
        from arrowcat.les import les_homology
        from arrowcat.snake import column_data, generalized_snake

        ring = {ring}
        rng, bounds = random.Random(2026), Bounds(max_dim=2)
        snakes = []
        for _ in range(3):
            inst = random_generalized_snake_instance(rng, ring, bounds)
            snakes.append((*inst.row1, *inst.row2, *(column_data(x) for x in inst.cols), *inst.cells))
        extensions = [to_chain_maps(random_complex_extension(rng, ring, 3, bounds)) for _ in range(2)]

        class Counting(weakref.WeakValueDictionary):
            added = 0

            def __setitem__(self, key, value):
                super().__setitem__(key, value)
                self.added += 1

        # the tables keep their entries and count their registrations
        tables = (basemor._MORPHISMS, core2._TWO_OBJECTS, core2._SQUARES, core2._CELLS)
        for table in tables:
            table.__class__ = Counting

        def added():
            return [t.added for t in tables]

        spent, start = {{}}, added()
        for args in snakes:
            generalized_snake(*args)
        spent["generalized"], start = [b - a for a, b in zip(start, added())], added()
        for ext in extensions:
            les_homology(*ext)
        spent["les"] = [b - a for a, b in zip(start, added())]
        print(json.dumps(spent))
        """
    )

    @pytest.mark.parametrize("ring", [GF(3), ZZ], ids=str)
    def test_intern_budget(self, ring):
        code = self.CHILD.format(ring="GF(3)" if ring.p else "ZZ")
        env = dict(os.environ, PYTHONPATH=str(pathlib.Path(arrowcat.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        spent = {(ring, phase): counts for phase, counts in json.loads(proc.stdout).items()}
        assert spent == {k: v for k, v in self.BUDGET.items() if k[0] == ring}


class TestGridLemmas:
    def test_3x3_part1(self, rng, bounds):
        for ring in (GF(2), ZZ):
            inst = random_3x3_instance(rng, ring, bounds)
            d = ThreeByThree(
                inst.f, inst.g, inst.eta, inst.a, inst.b, inst.c,
                inst.alpha, inst.beta, inst.gamma, inst.phi, inst.psi,
            )
            rep = check_3x3(d)
            assert rep.ok, rep.failed_condition

    def test_3x3_part2(self, rng, bounds):
        inst = random_3x3_instance(rng, GF(5), bounds)
        d = ThreeByThree(
            inst.f, inst.g, inst.eta, inst.a, inst.b, inst.c,
            inst.alpha, inst.beta, inst.gamma, inst.phi, inst.psi,
        )
        rep = check_3x3_part2(d)
        assert rep.ok, (rep.failed_condition, rep.details)

    def test_3x3_broken_corner(self, rng, bounds):
        ring = GF(2)
        found = False
        for _ in range(25):
            inst = random_3x3_instance(rng, ring, bounds)
            from arrowcat.core2 import TwoMorphism
            from arrowcat.generators import random_base_morphism

            f1 = inst.f[0]
            pert = random_base_morphism(rng, f1.src.top, f1.dst.top, bounds)
            if pert.is_zero_mor():
                continue
            try:
                bad_f1 = TwoMorphism(f1.src, f1.dst, f1.top + pert, f1.bottom)
            except ValueError:
                continue
            d = ThreeByThree(
                (bad_f1, inst.f[1], inst.f[2]), inst.g, inst.eta, inst.a, inst.b,
                inst.c, inst.alpha, inst.beta, inst.gamma, inst.phi, inst.psi,
            )
            try:
                rep = check_3x3(d)
            except ValueError:
                found = True
                break
            if not rep.ok:
                assert rep.failed_condition is not None
                found = True
                break
        assert found

    def test_short_five_equivalence_flanks(self, rng, bounds):
        for ring in (GF(2), GF(5)):
            inst = random_shortfive_instance(rng, ring, bounds, "equivalence")
            d = ShortFiveInput(*inst.row1, *inst.row2, *inst.cols, *inst.cells)
            rep = check_short_five(d)
            assert rep.ok, rep.failed_condition
            fa = classify2(inst.cols[0])
            fc = classify2(inst.cols[2])
            if fa.equivalence and fc.equivalence:
                assert classify2(inst.cols[1]).equivalence

    def test_short_five_equivalence_instances_share_ends(self, rng, bounds):
        for ring in (GF(2), GF(3), GF(5), ZZ):
            for _ in range(5):
                inst = random_shortfive_instance(rng, ring, bounds, "equivalence")
                f, _, g = inst.row1
                f2, _, g2 = inst.row2
                assert f2.src == f.src and g2.dst == g.dst
                a, _, c = inst.cols
                assert classify2(a).equivalence and classify2(c).equivalence

    def test_short_five_flanks_on_shared_end_objects(self):
        # this seed draws both rows on the same end objects, so the middle
        # column is re-solved against the equivalence flanks; the cell psi
        # must come out as c.g => g2.b
        inst = random_shortfive_instance(random.Random(1151), GF(3), Bounds(max_dim=1), "equivalence")
        f, _, g = inst.row1
        f2, _, g2 = inst.row2
        assert f2.src == f.src and g2.dst == g.dst
        rep = check_short_five(ShortFiveInput(*inst.row1, *inst.row2, *inst.cols, *inst.cells))
        assert rep.ok, rep.failed_condition
        assert all(classify2(col).equivalence for col in inst.cols)

    def test_short_five_refined(self, rng, bounds):
        ring = GF(3)
        for _ in range(6):
            inst = random_shortfive_instance(rng, ring, bounds, "random")
            d = ShortFiveInput(*inst.row1, *inst.row2, *inst.cols, *inst.cells)
            rep = check_short_five(d)
            assert rep.ok, rep.failed_condition


def _break_pasting(rng, draw, cell_of, effect_of, tries=60):
    """(inst, bad): an instance from draw() and one of its cells shifted by a
    loop 0 => 0, so the cell stays valid but its pasting law changes by
    effect_of(inst, loop), which is nonzero."""
    for _ in range(tries):
        inst = draw()
        cell = cell_of(inst)
        loop = _random_loop(rng, cell.src, cell.dst).mat
        if not effect_of(inst, loop).is_zero_mor():
            return inst, TwoCell(cell.cfrom, cell.cto, cell.mat + loop)
    pytest.fail("no loop changed the pasting law")


def _grid(rng, bounds):
    inst = random_3x3_instance(rng, GF(3), bounds)
    return ThreeByThree(
        inst.f, inst.g, inst.eta, inst.a, inst.b, inst.c,
        inst.alpha, inst.beta, inst.gamma, inst.phi, inst.psi,
    )


class TestPastingLaw:
    """Each site of the pasting law rejects a valid cell that breaks it."""

    def test_snake(self, rng, bounds3):
        inst, bad = _break_pasting(
            rng,
            lambda: random_snake_instance(rng, GF(3), bounds3),
            lambda i: i.row1[1],
            lambda i, loop: compose(i.cols[2].top, loop),
        )
        f, _, g = inst.row1
        cols = [column_data(x) for x in inst.cols]
        with pytest.raises(ValueError, match="snake diagram does not commute"):
            plain_snake(f, bad, g, *inst.row2, *cols, *inst.cells)

    def test_short_five(self, rng, bounds3):
        inst, bad = _break_pasting(
            rng,
            lambda: random_snake_instance(rng, GF(3), bounds3),
            lambda i: i.cells[1],
            lambda i, loop: compose(loop, i.row1[0].bottom),
        )
        rep = check_short_five(ShortFiveInput(*inst.row1, *inst.row2, *inst.cols, inst.cells[0], bad))
        assert not rep.ok
        assert rep.failed_condition == "diagram does not commute (pasting condition)"

    @pytest.mark.parametrize(
        "law,cell_of,effect_of,rebuild",
        [
            (
                "f3*alpha . phi2*a1 . b2*phi1 = beta*f1",
                lambda d: d.alpha,
                lambda d, loop: compose(d.f[2].top, loop),
                lambda d, bad: d._replace(alpha=bad),
            ),
            (
                "g3*beta . psi2*b1 . c2*psi1 = gamma*g1",
                lambda d: d.gamma,
                lambda d, loop: compose(loop, d.g[0].bottom),
                lambda d, bad: d._replace(gamma=bad),
            ),
            (
                "eta2*a1 . g2*phi1 . psi1*f1 = c1*eta1",
                lambda d: d.eta[0],
                lambda d, loop: compose(d.c[0].top, loop),
                lambda d, bad: d._replace(eta=(bad, *d.eta[1:])),
            ),
            (
                "eta3*a2 . g3*phi2 . psi2*f2 = c2*eta2",
                lambda d: d.eta[2],
                lambda d, loop: compose(loop, d.a[1].bottom),
                lambda d, bad: d._replace(eta=(*d.eta[:2], bad)),
            ),
        ],
        ids=["column-a-b", "column-b-c", "rows-1-2", "rows-2-3"],
    )
    def test_3x3(self, rng, bounds, law, cell_of, effect_of, rebuild):
        d, bad = _break_pasting(rng, lambda: _grid(rng, bounds), cell_of, effect_of)
        rep = check_3x3(rebuild(d, bad))
        assert not rep.ok
        assert rep.failed_condition == f"diagram does not commute: {law}"

    def test_chain_map(self, rng, bounds3):
        fmap, bad = _break_pasting(
            rng,
            lambda: to_chain_maps(random_complex_extension(rng, GF(3), 3, bounds3))[0],
            lambda m: m.cells[0],
            lambda m, loop: compose(m.dst.diffs[1].top, loop),
        )
        with pytest.raises(ValueError, match="chain map coherence fails at degree 0"):
            ChainMap(fmap.src, fmap.dst, fmap.squares, (bad, *fmap.cells[1:]))
