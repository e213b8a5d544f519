"""Puppe, snake, anaconda, LES and the grid lemmas on structured instances."""

import random

import pytest

from arrowcat import GF, ZZ, base_morphism, field_object, z_object, zero_mor, zero_object
from arrowcat.anaconda import anaconda, anaconda_full_sequence
from arrowcat.basemor import compose
from arrowcat.classify2 import classify2
from arrowcat.core2 import (
    TwoCell,
    compose2,
    deform,
    identity2,
    identity_cell,
    is_zero_equivalent,
    two_morphism,
    two_object,
    vcomp2,
    whisker_right,
    zero2,
)
from arrowcat.generators import (
    Bounds,
    extension_on,
    random_3x3_instance,
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
from arrowcat.limits2 import omega_obj, sigma_obj
from arrowcat.puppe import puppe
from arrowcat.selftest import _random_loop, shadows_exact
from arrowcat.sequences import ChainMap, exact_at, exactness, loop_exact
from arrowcat.snake import CokernelSide, column_data, generalized_snake, plain_snake


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
        for ring in (GF(3), ZZ, GF(2**31 - 1)):
            inst = random_generalized_snake_instance(rng, ring, bounds)
            cols = [column_data(x) for x in inst.cols]
            res = generalized_snake(*inst.row1, *inst.row2, *cols, *inst.cells)
            maps, cells = res.sequence()
            for k in range(4):
                assert exact_at(maps[k], cells[k], maps[k + 1])

    @pytest.mark.parametrize("ring", [GF(3), GF(5), ZZ], ids=str)
    def test_presented_cokernel_column(self, ring, bounds, monkeypatch):
        """Column a's cokernel presented by a deformed qmor, with zeta carried
        along.  fbar2 then comes with a nonzero cell ps: qb.f2 => fbar2.qa on
        some instances, and nu1 reads ps off along i2; the snake stays exact."""
        import arrowcat.snake as snake_mod
        from arrowcat.generators import random_base_morphism

        cells_of = []
        factor = snake_mod.factor_through_cokernel_data

        def recording(u, qmor, zeta, w, theta):
            mor, ps = factor(u, qmor, zeta, w, theta)
            cells_of.append((qmor, ps))
            return mor, ps

        monkeypatch.setattr(snake_mod, "factor_through_cokernel_data", recording)
        rng = random.Random(2404 + (ring.p or 0))
        nonzero = 0
        for _ in range(40):
            inst = random_snake_instance(rng, ring, bounds)
            a, b, c = (column_data(x) for x in inst.cols)
            qa = a.coker
            alpha = random_base_morphism(rng, qa.qmor.src.bottom, qa.qmor.dst.top, bounds)
            dq = deform(qa.qmor, alpha)
            zeta = vcomp2(qa.zeta, whisker_right(dq.inverse(), a.mor))
            a = a._replace(coker=CokernelSide(qa.obj, dq.cto, zeta))
            cells_of.clear()
            res = plain_snake(*inst.row1, *inst.row2, a, b, c, *inst.cells)
            nonzero += any(q == dq.cto and not ps.mat.is_zero_mor() for q, ps in cells_of)
            maps, cells = res.sequence()
            for k in range(4):
                assert exact_at(maps[k], cells[k], maps[k + 1])
        assert nonzero > 0

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
        eta = identity_cell(compose2(g, f))
        from arrowcat.core2 import cell_to_zero

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
        ring = GF(2)
        inst = random_snake_instance(rng, ring, bounds)
        cols = [column_data(x) for x in inst.cols]
        f, eta, g = inst.row1
        bad_eta_mat = eta.mat + _nonzero_perturbation(rng, eta.mat, bounds)
        if bad_eta_mat != eta.mat:
            with pytest.raises(ValueError):
                from arrowcat.core2 import cell_to_zero

                bad = cell_to_zero(compose2(g, f), bad_eta_mat)
                check = plain_snake(f, bad, g, *inst.row2, *cols, *inst.cells)
                # if the perturbed cell happened to stay valid, the pasting
                # condition must reject it
                raise ValueError("pasting accepted a broken cell")


def _nonzero_perturbation(rng, mat_mor, bounds):
    from arrowcat.generators import random_base_morphism

    return random_base_morphism(rng, mat_mor.src, mat_mor.dst, bounds)


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


class TestLes:
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
        from arrowcat.core2 import cell_to_zero

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
        fcells = tuple(
            identity_cell(compose2(bx.diffs[i], fsq[i]))
            for i in range(0)
        )
        # zero differentials: the connecting cells are identity cells of zero maps
        fcells = tuple(
            __import__("arrowcat.core2", fromlist=["TwoCell"]).TwoCell(
                compose2(bx.diffs[i], fsq[i]), compose2(fsq[i + 1], ax.diffs[i]),
                zero_mor(ax.objects[i].bottom, bx.objects[i + 1].top),
            )
            for i in range(2)
        )
        gcells = tuple(
            __import__("arrowcat.core2", fromlist=["TwoCell"]).TwoCell(
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
