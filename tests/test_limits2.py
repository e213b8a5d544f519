import random

import pytest

from arrowcat import GF, ZZ, base_morphism, field_object, z_object, zero_mor, zero_object
from arrowcat.baselin import LinearSystem, biproduct_base, kernel_base
from arrowcat.classify2 import classify2
from arrowcat.core2 import (
    cell_to_zero,
    compose2,
    identity2,
    identity_cell,
    is_zero_equivalent,
    loop_cell,
    two_morphism,
    two_object,
    whisker_left,
    whisker_right,
    zero2,
    zero_two_object,
)
from arrowcat.generators import (
    Bounds,
    random_base_morphism,
    random_extension,
    random_square,
    random_two_object,
)
from arrowcat.limits2 import (
    biproduct2,
    cokernel2,
    copair2,
    copip2,
    coroot2,
    factor_cokernel2,
    factor_kernel2,
    factor_through,
    factor_through_cokernel_data,
    factor_through_kernel_data,
    factor_rel_kernel2,
    kernel2,
    omega_obj,
    pair2,
    pi0_obj,
    pi1_obj,
    pip2,
    pullback2,
    pushout2,
    rel_cokernel2,
    rel_kernel2,
    root2,
    sigma_obj,
    solve_cell,
)
from arrowcat.basemor import compose, identity_mor
from oracles import joint_factor_by_linear_system


def z_counter_square():
    z1 = z_object(1)
    z2 = z_object(0, (2,))
    zz = zero_object(ZZ)
    a = two_object(base_morphism(z1, z1, [[2]]))
    b = two_object(base_morphism(zz, z2, [[]]))
    return two_morphism(a, b, zero_mor(z1, zz), base_morphism(z1, z2, [[1]]))


class TestKernelCokernel:
    def test_kernel_of_identity_is_trivial(self, rng, bounds):
        x = random_two_object(rng, GF(2), bounds)
        kd = kernel2(identity2(x))
        assert is_zero_equivalent(kd.obj)

    def test_kernel_of_zero_is_the_source(self):
        zz = zero_object(ZZ)
        f = two_object(base_morphism(zz, z_object(1), [[]]))
        u = zero2(f, f)
        kd = kernel2(u)
        cmp_ = factor_kernel2(kd, identity2(f), cell_to_zero(u, zero_mor(f.bottom, f.top)))
        assert classify2(cmp_).equivalence

    def test_kernel_of_counterexample_vanishes(self):
        kd = kernel2(z_counter_square())
        assert is_zero_equivalent(kd.obj)

    def test_cokernel_of_identity_vanishes(self, rng, bounds):
        x = random_two_object(rng, GF(3), bounds)
        assert is_zero_equivalent(cokernel2(identity2(x)).obj)

    def test_realization_of_doubling(self):
        zz = zero_object(ZZ)
        d = two_object(base_morphism(zz, z_object(1), [[]]))
        v = two_morphism(d, d, zero_mor(zz, zz), base_morphism(z_object(1), z_object(1), [[2]]))
        cd = cokernel2(v)
        assert cd.obj.boundary.mat == ((2,),)

    def test_cokernel_of_zero_from_zero_object(self, rng, bounds):
        g = random_two_object(rng, GF(2), bounds)
        z = zero_two_object(GF(2))
        cd = cokernel2(zero2(z, g))
        cmp_ = cokernel2(zero2(z, g))
        # the comparison g -> Coker(0) is an equivalence
        w = factor_cokernel2(
            cd, identity2(g), cell_to_zero(zero2(z, g), zero_mor(z.bottom, g.top))
        )
        assert classify2(w).equivalence


class TestKernelData:
    """kernel2 keeps the base kernel kfull: P -> A0 (+) B1 and factors through
    it on one side; the result is the unique s with k.s = t.bottom and
    kap.s = beta, k and kap the two legs, as the two-equation LinearSystem
    finds it."""

    @pytest.mark.parametrize("ring", [GF(2), GF(3), GF(5), GF(7), ZZ], ids=str)
    def test_factor_kernel2(self, ring):
        rng = random.Random(1501)
        bounds = Bounds(max_dim=3)
        raised = 0
        for _ in range(20):
            a = random_two_object(rng, ring, bounds)
            b = random_two_object(rng, ring, bounds)
            u = random_square(rng, a, b)
            kd = kernel2(u)
            _, (i0, i1), (p0, p1) = biproduct_base((a.bottom, b.top))
            assert kd.kmor.bottom == compose(p0, kd.kfull)
            assert kd.kappa.mat == compose(p1, kd.kfull)
            for _ in range(3):
                x = random_two_object(rng, ring, bounds)
                r = random_square(rng, x, kd.obj)
                t = compose2(kd.kmor, r)
                beta = cell_to_zero(compose2(u, t), whisker_right(kd.kappa, r).mat)
                got = factor_kernel2(kd, t, beta)
                assert got == r
                assert got.bottom == joint_factor_by_linear_system(
                    kd.kmor.bottom, kd.kappa.mat, t.bottom, beta.mat
                )
                # a rival square with the same cell matrix: where the legs
                # do not factor it, neither does kfull
                rival = random_square(rng, x, a)
                if joint_factor_by_linear_system(
                    kd.kmor.bottom, kd.kappa.mat, rival.bottom, beta.mat
                ) is None:
                    raised += 1
                    with pytest.raises(AssertionError, match="factorization does not exist"):
                        factor_kernel2(kd, rival, beta)
        assert raised >= 5, raised


class TestPairing2:
    """pair2 and copair2 against the sums through biproduct2's injection and
    projection squares."""

    @pytest.mark.parametrize("ring", [GF(2), GF(3), GF(5), ZZ], ids=str)
    def test_match_the_biproduct2_sums(self, ring):
        rng = random.Random(1701)
        bounds = Bounds(max_dim=2)
        for _ in range(15):
            x = random_two_object(rng, ring, bounds)
            parts = [random_two_object(rng, ring, bounds) for _ in range(rng.randrange(1, 4))]
            bp = biproduct2(parts)
            into = [random_square(rng, x, y) for y in parts]
            out = [random_square(rng, y, x) for y in parts]
            terms = [compose2(i, u) for i, u in zip(bp.injections, into)]
            assert pair2(*into) == sum(terms[1:], terms[0])
            terms = [compose2(u, p) for u, p in zip(out, bp.projections)]
            assert copair2(*out) == sum(terms[1:], terms[0])

    @pytest.mark.parametrize("ring", [GF(2), GF(3), GF(5), ZZ], ids=str)
    def test_pullback_and_pushout_match_biproduct2(self, ring):
        rng = random.Random(1801)
        bounds = Bounds(max_dim=2)
        for _ in range(10):
            x, y, z = (random_two_object(rng, ring, bounds) for _ in range(3))
            f, g = random_square(rng, x, z), random_square(rng, y, z)
            pb = pullback2(f, g)
            kmor = kernel2(copair2(f, -g)).kmor
            assert (pb.p1, pb.p2) == tuple(compose2(p, kmor) for p in biproduct2([x, y]).projections)
            f, g = random_square(rng, z, x), random_square(rng, z, y)
            po = pushout2(f, g)
            assert po.diff == pair2(f, -g)
            assert (po.i1, po.i2) == tuple(compose2(po.cokernel.qmor, i) for i in biproduct2([x, y]).injections)

    def test_mismatched_endpoints_raise(self):
        f2 = GF(2)
        one = field_object(f2, 1)
        x, y = two_object(zero_mor(one, one)), two_object(identity_mor(one))
        # the same top and bottom, different boundaries
        with pytest.raises(ValueError, match="common source"):
            pair2(zero2(x, x), zero2(y, x))
        with pytest.raises(ValueError, match="common target"):
            copair2(zero2(x, x), zero2(x, y))


class TestLoopSuspension:
    def test_discrete_object(self):
        f2 = GF(2)
        x = two_object(zero_mor(zero_object(f2), field_object(f2, 2)))
        assert is_zero_equivalent(omega_obj(x).obj)
        p0 = pi0_obj(x)
        assert classify2(p0.unit).equivalence

    def test_doubling_object(self):
        x = two_object(base_morphism(z_object(1), z_object(1), [[2]]))
        assert pi0_obj(x).obj.bottom == z_object(0, (2,))
        assert pi0_obj(x).obj.top == zero_object(ZZ)
        assert is_zero_equivalent(pi1_obj(x).obj)

    def test_connected_object_pi1(self):
        f5 = GF(5)
        v = field_object(f5, 2)
        x = two_object(zero_mor(v, zero_object(f5)))
        p1 = pi1_obj(x)
        assert classify2(p1.unit).equivalence
        # sigma of a connected object is trivial (Sigma Sigma ~ 0)
        assert is_zero_equivalent(sigma_obj(x).obj)

    def test_adjunction_identities(self, rng, bounds):
        for ring in (GF(2), ZZ):
            for _ in range(5):
                x = random_two_object(rng, ring, bounds)
                om, sg = omega_obj(x), sigma_obj(x)
                p0, p1 = pi0_obj(x), pi1_obj(x)
                assert compose(omega_obj(sg.obj).loop.mat, p0.unit.bottom) == sg.loop.mat
                assert compose(p1.unit.top, sigma_obj(om.obj).loop.mat) == om.loop.mat


class TestPipCopip:
    def test_pip_of_identity_vanishes(self, rng, bounds):
        x = random_two_object(rng, GF(3), bounds)
        assert is_zero_equivalent(pip2(identity2(x)).obj)

    def test_pip_of_faithful_square_vanishes(self, rng, bounds):
        for _ in range(6):
            a = random_two_object(rng, GF(2), bounds)
            b = random_two_object(rng, GF(2), bounds)
            u = random_square(rng, a, b)
            if classify2(u).faithful:
                assert is_zero_equivalent(pip2(u).obj)

    def test_pip_of_zero_on_connected_point(self):
        f2 = GF(2)
        v1 = field_object(f2, 1)
        c = two_object(zero_mor(v1, zero_object(f2)))
        pl = pip2(zero2(c, c))
        assert pl.obj.top == zero_object(f2) and pl.obj.bottom == v1

    def test_copip_duals(self):
        f2 = GF(2)
        v1 = field_object(f2, 1)
        d = two_object(zero_mor(zero_object(f2), v1))
        cp = copip2(zero2(d, d))
        assert cp.obj.top == v1 and cp.obj.bottom == zero_object(f2)
        x = two_object(zero_mor(v1, zero_object(f2)))
        # copip of a cofaithful square vanishes
        u = identity2(x)
        assert is_zero_equivalent(copip2(u).obj)


class TestRootCoroot:
    def test_root_of_identity_loop(self, rng, bounds):
        x = random_two_object(rng, GF(3), bounds)
        lp = loop_cell(x, x, zero_mor(x.bottom, x.top))
        rt = root2(lp)
        assert classify2(rt.rmor).equivalence

    def test_root_of_invertible_loop(self):
        f2 = GF(2)
        v = field_object(f2, 2)
        f = two_object(zero_mor(v, v))
        lp = loop_cell(f, f, identity_mor(v))
        rt = root2(lp)
        assert rt.obj.bottom == zero_object(f2)
        assert rt.obj.top == v

    def test_root_is_fully_faithful_and_kills_loop(self, rng, bounds):
        from arrowcat.selftest import _random_loop

        for ring in (GF(2), ZZ):
            for _ in range(5):
                a = random_two_object(rng, ring, bounds)
                b = random_two_object(rng, ring, bounds)
                lp = _random_loop(rng, a, b)
                rt = root2(lp)
                assert classify2(rt.rmor).fully_faithful
                assert compose(lp.mat, rt.rmor.bottom).is_zero_mor()
                crt = coroot2(lp)
                assert classify2(crt.rmor).fully_cofaithful
                assert compose(crt.rmor.top, lp.mat).is_zero_mor()


class TestRelativeKernel:
    def test_trivial_relative_is_plain(self, rng, bounds):
        ring = GF(3)
        a = random_two_object(rng, ring, bounds)
        b = random_two_object(rng, ring, bounds)
        u = random_square(rng, a, b)
        z = zero_two_object(ring)
        y = zero2(b, z)
        psi = identity_cell(compose2(y, u))
        rk = rel_kernel2(u, y, psi)
        kd = kernel2(u)
        assert rk.obj.top == kd.obj.top
        # both present the same subobject
        assert kernel_base(rk.obj.boundary)[0] == kernel_base(kd.obj.boundary)[0]

    def test_kernel_of_kernel_relative_is_zero(self, rng, bounds):
        for ring in (GF(2), ZZ):
            ext = random_extension(rng, ring, bounds)
            # (m, cell) = Ker(e): its own relative kernel vanishes
            rk = rel_kernel2(ext.m, ext.e, ext.cell)
            assert is_zero_equivalent(rk.obj)
            rc = rel_cokernel2(ext.e, ext.m, ext.cell)
            assert is_zero_equivalent(rc.obj)

    def test_relative_universal_property(self, rng, bounds):
        ring = GF(3)
        ext = random_extension(rng, ring, bounds)
        rk = rel_kernel2(ext.m, ext.e, ext.cell)
        x = random_two_object(rng, ring, bounds)
        r = random_square(rng, x, rk.obj)
        t = compose2(rk.kmor, r)
        beta = cell_to_zero(compose2(ext.m, t), whisker_right(rk.kappa, r).mat)
        tp = factor_rel_kernel2(rk, t, beta)
        assert compose2(rk.kmor, tp) == t


class TestSolveRaises:
    def test_factor_through_without_factorization(self):
        z1 = z_object(1)
        doubling = base_morphism(z1, z1, [[2]])
        assert factor_through(base_morphism(z1, z1, [[4]]), left=doubling) == doubling
        with pytest.raises(AssertionError):
            factor_through(base_morphism(z1, z1, [[3]]), left=doubling)
        with pytest.raises(AssertionError):
            factor_through(identity_mor(z1), right=doubling)

    def test_solve_cell_without_cell(self):
        f1 = field_object(GF(2), 1)
        x = two_object(zero_mor(f1, f1))
        assert solve_cell(identity2(x), identity2(x)).mat.is_zero_mor()
        with pytest.raises(AssertionError):
            solve_cell(identity2(x), zero2(x, x))


def canonical_factorization_cases(ring, bounds):
    """(u, kd, t, beta, cd, w, theta) with kd, cd = kernel2(u), cokernel2(u),
    t = kmor.r with beta = kappa*r and w = s.qmor with theta = s*zeta."""
    rng = random.Random(1313)
    for _ in range(6):
        a = random_two_object(rng, ring, bounds)
        b = random_two_object(rng, ring, bounds)
        u = random_square(rng, a, b)
        kd, cd = kernel2(u), cokernel2(u)
        for _ in range(3):
            x = random_two_object(rng, ring, bounds)
            r = random_square(rng, x, kd.obj)
            t = compose2(kd.kmor, r)
            beta = cell_to_zero(compose2(u, t), whisker_right(kd.kappa, r).mat)
            s = random_square(rng, cd.obj, x)
            w = compose2(s, cd.qmor)
            theta = cell_to_zero(compose2(w, u), whisker_left(s, cd.zeta).mat)
            yield u, kd, t, beta, cd, w, theta


class TestFactorThroughCanonicalData:
    """On kernel2/cokernel2 data the strict factorization is unique: kfull
    is mono and qfull is epi.  The LinearSystem path, run on the same
    records presented (kfull or qfull None), declares the cell after the
    square, so over F_p the cell's columns come last in the row reduction
    and, being free, are 0: it returns the canonical factorization with a
    zero cell (over Z it does on these draws).  The canonical records
    factor through their universal property without a LinearSystem."""

    @pytest.mark.parametrize("ring", [GF(2), GF(3), GF(5), ZZ], ids=str)
    def test_agrees_with_the_canonical_factorization(self, ring, bounds):
        for u, kd, t, beta, cd, w, theta in canonical_factorization_cases(ring, bounds):
            m, th = factor_through_kernel_data(u, kd._replace(kfull=None), t, beta)
            assert m == factor_kernel2(kd, t, beta)
            assert th.cfrom == t and th.mat.is_zero_mor()
            m, psi = factor_through_cokernel_data(u, cd._replace(qfull=None), w, theta)
            assert m == factor_cokernel2(cd, w, theta)
            assert psi.cfrom == w and psi.mat.is_zero_mor()

    @pytest.mark.parametrize("ring", [GF(2), GF(3), GF(5), ZZ], ids=str)
    def test_canonical_records_solve_nothing(self, ring, bounds, monkeypatch):
        cases = list(canonical_factorization_cases(ring, bounds))
        presented = [
            (
                factor_through_kernel_data(u, kd._replace(kfull=None), t, beta),
                factor_through_cokernel_data(u, cd._replace(qfull=None), w, theta),
            )
            for u, kd, t, beta, cd, w, theta in cases
        ]

        def no_solve(self, *args, **kwargs):
            raise AssertionError("a canonical record was factored by a LinearSystem")

        monkeypatch.setattr(LinearSystem, "solve", no_solve)
        for (u, kd, t, beta, cd, w, theta), (k_res, q_res) in zip(cases, presented):
            m, th = factor_through_kernel_data(u, kd, t, beta)
            assert (m, th) == k_res and th.mat.is_zero_mor()
            m, psi = factor_through_cokernel_data(u, cd, w, theta)
            assert (m, psi) == q_res and psi.mat.is_zero_mor()
