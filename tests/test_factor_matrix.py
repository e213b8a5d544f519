import random

import pytest

from arrowcat import GF, ZZ, base_morphism, z_object, zero_mor, zero_object
from arrowcat.classify2 import classify2
from arrowcat.core2 import (
    compose2,
    identity2,
    identity_cell,
    is_zero_equivalent,
    two_morphism,
    two_object,
    zero2,
    zero_two_object,
)
from arrowcat.factor2 import _fillers_unique, factor2, goodness_comparisons, orthogonal2
from arrowcat.generators import Bounds, random_square, random_two_object
from arrowcat.limits2 import biproduct2, pullback2
from arrowcat.matrix2 import grid_product, matrix_assemble2, matrix_of2
from oracles import fillers_unique_by_linear_system


def z_counter_square():
    z1 = z_object(1)
    z2 = z_object(0, (2,))
    zz = zero_object(ZZ)
    a = two_object(base_morphism(z1, z1, [[2]]))
    b = two_object(base_morphism(zz, z2, [[]]))
    return two_morphism(a, b, zero_mor(z1, zz), base_morphism(z1, z2, [[1]]))


class TestFactor:
    def test_strictness(self, rng, bounds):
        for ring in (GF(2), ZZ):
            a = random_two_object(rng, ring, bounds)
            b = random_two_object(rng, ring, bounds)
            u = random_square(rng, a, b)
            fz = factor2(u)
            assert compose2(fz.mhat, compose2(fz.l, fz.e)) == u
            assert compose2(fz.mbar, fz.ehat) == u
            assert compose2(fz.m, fz.e) == u

    def test_equivalence_factors_into_equivalences(self, rng, bounds):
        x = random_two_object(rng, GF(3), bounds)
        fz = factor2(identity2(x))
        assert fz.e_flags.equivalence and fz.l_flags.equivalence and fz.mhat_flags.equivalence

    def test_zero_morphism_stages(self, rng, bounds):
        x = random_two_object(rng, GF(2), bounds)
        y = random_two_object(rng, GF(2), bounds)
        fz = factor2(zero2(x, y))
        assert compose2(fz.mhat, compose2(fz.l, fz.e)).is_zero_mor()
        # the middle image of the zero morphism is trivial
        assert is_zero_equivalent(fz.im_obj) or fz.l_flags.faithful

    def test_counterexample_defect(self):
        fz = factor2(z_counter_square())
        assert fz.l_flags.faithful and fz.l_flags.cofaithful
        assert not fz.l_flags.equivalence
        assert not fz.wbar_flags.equivalence and not fz.w_flags.equivalence

    def test_comparisons_over_fields(self, rng, bounds):
        for _ in range(6):
            a = random_two_object(rng, GF(5), bounds)
            b = random_two_object(rng, GF(5), bounds)
            u = random_square(rng, a, b)
            fz = factor2(u)
            assert fz.wbar_flags.equivalence and fz.w_flags.equivalence


class TestOrthogonality:
    def test_equivalence_orthogonal_to_everything(self, rng, bounds):
        ring = GF(2)
        x = random_two_object(rng, ring, bounds)
        e = identity2(x)
        m = random_square(rng, x, random_two_object(rng, ring, bounds))
        c0 = random_square(rng, x, x)
        rival = (compose2(m, compose2(c0, e)), identity_cell(compose2(m, compose2(c0, e))), compose2(m, c0))
        rep = orthogonal2(e, m, [(compose2(c0, e), identity_cell(compose2(m, compose2(c0, e))), compose2(m, c0))])
        assert rep.holds

    def test_factorization_system_orthogonality(self, rng, bounds):
        ring = GF(2)
        for _ in range(4):
            a = random_two_object(rng, ring, bounds)
            b = random_two_object(rng, ring, bounds)
            fz = factor2(random_square(rng, a, b))
            e, m = fz.e, fz.mhat
            rivals = []
            for _ in range(3):
                c0 = random_square(rng, e.dst, m.src)
                rivals.append(
                    (compose2(c0, e), identity_cell(compose2(m, compose2(c0, e))), compose2(m, c0))
                )
            assert orthogonal2(e, m, rivals).holds

    def test_counterexample_l_against_itself(self):
        # the zero rival always has the zero filler
        fz = factor2(z_counter_square())
        l = fz.l
        a = zero2(l.src, l.src)
        b = zero2(l.dst, l.dst)
        rival = (a, identity_cell(compose2(l, a)), b)
        rep = orthogonal2(l, l, [rival])
        assert rep.fillers[0] is not None

    @pytest.mark.parametrize("ring", (GF(2), GF(3), GF(5), ZZ), ids=str)
    def test_fillers_unique_matches_the_cell_system(self, ring):
        """Hom(Q, K) = 0 read off invariant factors agrees with the homogeneous
        loop-cell system.  Every third draw has e out of and m into the zero
        object, so Q is the cokernel of d_X and K the kernel of d_Y alone."""
        rng = random.Random(1931)
        unique = not_unique = draws = 0
        while draws < 100 or min(unique, not_unique) < 25:
            draws += 1
            assert draws <= 1000, (unique, not_unique)
            b = Bounds(max_dim=2 + draws % 2)
            x, y = random_two_object(rng, ring, b), random_two_object(rng, ring, b)
            ends = [random_two_object(rng, ring, b) if draws % 3 else zero_two_object(ring) for _ in "em"]
            e, m = random_square(rng, ends[0], x), random_square(rng, y, ends[1])
            got = _fillers_unique(e, m)
            assert got == fillers_unique_by_linear_system(e, m)
            unique += got
            not_unique += not got

    def test_free_loop_cells_are_not_unique(self):
        # X = (0 -> Z) and Y = (Z -> 0) with e and m zero: Q = K = Z, Hom(Z, Z) = Z
        z1, zz = z_object(1), zero_object(ZZ)
        x, y = two_object(zero_mor(zz, z1)), two_object(zero_mor(z1, zz))
        e, m = zero2(zero_two_object(ZZ), x), zero2(y, zero_two_object(ZZ))
        assert not _fillers_unique(e, m)
        assert not fillers_unique_by_linear_system(e, m)


class TestMatrixCalculus:
    def test_one_by_one(self, rng, bounds):
        ring = GF(3)
        a = random_two_object(rng, ring, bounds)
        b = random_two_object(rng, ring, bounds)
        u = random_square(rng, a, b)
        am = matrix_assemble2([[u]], [a], [b])
        assert matrix_of2(am.mor, am.src_bp, am.dst_bp) == [[u]]
        back = matrix_of2(am.mor, am.src_bp, am.dst_bp)[0][0]
        # single-slot biproducts are the objects themselves up to the
        # canonical change of basis; composites agree strictly
        assert classify2(back).equivalence == classify2(u).equivalence

    def test_identity_grid(self, rng, bounds):
        ring = GF(3)
        parts = [random_two_object(rng, ring, bounds) for _ in range(2)]
        grid = [
            [identity2(parts[j]) if j == k else zero2(parts[k], parts[j]) for k in range(2)]
            for j in range(2)
        ]
        am = matrix_assemble2(grid, parts, parts)
        assert am.mor == identity2(am.src_bp.obj)

    def test_composition_is_matrix_product(self, rng, bounds):
        ring = GF(3)
        for _ in range(5):
            a = [random_two_object(rng, ring, bounds) for _ in range(2)]
            b = [random_two_object(rng, ring, bounds) for _ in range(2)]
            c = [random_two_object(rng, ring, bounds) for _ in range(2)]
            f = [[random_square(rng, a[k], b[j]) for k in range(2)] for j in range(2)]
            g = [[random_square(rng, b[k], c[j]) for k in range(2)] for j in range(2)]
            af, ag = matrix_assemble2(f, a, b), matrix_assemble2(g, b, c)
            assert compose2(ag.mor, af.mor) == matrix_assemble2(grid_product(g, f), a, c).mor
            assert matrix_of2(af.mor, af.src_bp, af.dst_bp) == f

    def test_empty_grid(self):
        am = matrix_assemble2([], [], [], ring=GF(2))
        assert am.mor.is_zero_mor()
        assert am.mor.src.top == zero_object(GF(2))

    def test_grid_taller_than_targets(self, rng, bounds):
        x = random_two_object(rng, GF(3), bounds)
        with pytest.raises(ValueError, match="grid height"):
            matrix_assemble2([[identity2(x)], [identity2(x)]], [x], [x])


class TestRegularityGoodness:
    def test_pullback_preserves_cofaithful_over_fields(self, rng, bounds):
        ring = GF(2)
        hits = 0
        for _ in range(15):
            a = random_two_object(rng, ring, bounds)
            b = random_two_object(rng, ring, bounds)
            c = random_two_object(rng, ring, bounds)
            f = random_square(rng, a, c)
            g = random_square(rng, b, c)
            if classify2(g).cofaithful:
                hits += 1
                pb = pullback2(f, g)
                assert classify2(pb.p1).cofaithful
        assert hits > 0

    def test_goodness_over_fields(self, rng, bounds):
        for ring in (GF(2), GF(3)):
            for _ in range(5):
                a = random_two_object(rng, ring, bounds)
                b = random_two_object(rng, ring, bounds)
                rep = goodness_comparisons(random_square(rng, a, b))
                assert rep.a_epi and rep.b_mono
