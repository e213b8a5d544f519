import copy
import inspect
import os
import pathlib
import pickle
import random
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest

from arrowcat import GF, ZZ, base_morphism, compose, field_object, identity_mor, z_object, zero_mor, zero_object
import arrowcat
from arrowcat import baselin, baseobj, rings, snf
from arrowcat.baseobj import BaseObject, make_object
from arrowcat.basemor import BaseMorphism, _product
from arrowcat.rings import BaseRing
from arrowcat.baselin import (
    LinearSystem,
    base_objects,
    biproduct_base,
    canonicalize,
    cokernel_base,
    copair_base,
    exact_at_base,
    factor_base,
    image_comparison,
    kernel_base,
    pair_base,
    pullback_base,
    pushout_base,
    relation_columns,
    split_data_base,
    splits_base,
)
from arrowcat.core2 import (
    TwoCell,
    add_cell,
    add_homotopy,
    add_square,
    deform,
    solved_square,
    two_morphism,
    two_object,
)
from arrowcat.generators import (
    Bounds,
    random_3x3_instance,
    random_base_morphism,
    random_base_object,
    random_complex_extension,
    random_finite_object,
    random_snake_instance,
    random_square,
    random_two_object,
    to_chain_maps,
)
from arrowcat.classify2 import classify2, z_counterexample
from arrowcat.lemmas import ThreeByThree, check_3x3
from arrowcat.les import les_full_sequence, les_homology
from arrowcat.limits2 import sequence_of
from arrowcat.sequences import exact_at
from arrowcat.snake import column_data, plain_snake
from oracles import (
    classify_base,
    copair_by_projections,
    dense_z_square,
    exact_by_constructions,
    exact_by_induced_map,
    factor_by_linear_system,
    pair_by_injections,
    rank_mod_p,
    splits_by_constructions,
)

Z1 = z_object(1)
Z2T = z_object(0, (2,))


def doubling():
    return base_morphism(Z1, Z1, [[2]])


def quotient_mod2():
    return base_morphism(Z1, Z2T, [[1]])


class TestKernel:
    def test_mono_has_zero_kernel(self):
        k_obj, k = kernel_base(doubling())
        assert k_obj.is_zero

    def test_kernel_of_quotient_is_even_numbers(self):
        # oracle: the kernel of Z -> Z/2 consists precisely of the evens
        k_obj, k = kernel_base(quotient_mod2())
        assert k_obj == Z1
        assert abs(k.mat[0][0]) == 2
        for gen_mult in range(-3, 4):
            el = k.apply((gen_mult,))
            assert el[0] % 2 == 0
        assert compose(quotient_mod2(), k).is_zero_mor()

    def test_kernel_of_zero_map_is_everything(self):
        f2 = GF(2)
        v2, v1 = field_object(f2, 2), field_object(f2, 1)
        z = zero_mor(v2, v1)
        k_obj, k = kernel_base(z)
        assert k_obj == v2
        assert classify_base(k).iso

    def test_universal_property(self):
        rng = random.Random(3)
        b = Bounds()
        for ring in (GF(3), ZZ):
            for _ in range(10):
                x = random_base_object(rng, ring, b)
                y = random_base_object(rng, ring, b)
                f = random_base_morphism(rng, x, y, b)
                k_obj, k = kernel_base(f)
                w = random_base_object(rng, ring, b)
                r = random_base_morphism(rng, w, k_obj, b)
                t = compose(k, r)
                sol = factor_base(t, left=k)
                assert sol == r  # unique because k is mono


class TestCokernel:
    def test_doubling_gives_mod_two(self):
        q_obj, q = cokernel_base(doubling())
        assert q_obj == Z2T

    def test_identity_gives_zero(self):
        q_obj, _ = cokernel_base(identity_mor(z_object(2)))
        assert q_obj.is_zero

    def test_diag_one_three(self):
        f = base_morphism(z_object(2), z_object(2), [[1, 0], [0, 3]])
        q_obj, _ = cokernel_base(f)
        assert q_obj == z_object(0, (3,))

    def test_brute_force_on_finite_groups(self):
        rng = random.Random(5)
        b = Bounds()
        for _ in range(30):
            x = random_finite_object(rng, ZZ, 64)
            y = random_finite_object(rng, ZZ, 64)
            f = random_base_morphism(rng, x, y, b)
            image = {f.apply(el) for el in x.elements()}
            q_obj, q = cokernel_base(f)
            assert q_obj.total_order() == y.total_order() // len(image)
            k_obj, k = kernel_base(f)
            kernel_set = {el for el in x.elements() if all(v == 0 for v in f.apply(el))}
            assert k_obj.total_order() == len(kernel_set)
            assert {k.apply(el) for el in k_obj.elements()} == kernel_set


class TestBiproduct:
    def test_field_blocks(self):
        f3 = GF(3)
        a, bb = field_object(f3, 2), field_object(f3, 1)
        s, (i1, i2), (p1, p2) = biproduct_base((a, bb))
        assert s == field_object(f3, 3)
        assert i1.mat == ((1, 0), (0, 1), (0, 0))
        assert compose(p1, i1) == identity_mor(a)
        assert compose(p2, i2) == identity_mor(bb)
        assert compose(p1, i2).is_zero_mor()
        assert compose(i1, p1) + compose(i2, p2) == identity_mor(s)

    def test_z_plus_torsion(self):
        s, _, _ = biproduct_base((Z1, Z2T))
        assert s.free_rank == 1 and s.torsion == (2,)

    def test_zero_unit_is_strict(self):
        bb = z_object(1, (4,))
        s, (i1, i2), _ = biproduct_base((zero_object(ZZ), bb))
        assert s == bb
        assert i2 == identity_mor(bb)

    def test_canonicalization_merges_coprime_torsion(self):
        s, (i1, i2), (p1, p2) = biproduct_base((Z2T, z_object(0, (3,))))
        assert s == z_object(0, (6,))
        assert compose(p1, i1) == identity_mor(Z2T)
        assert compose(i1, p1) + compose(i2, p2) == identity_mor(s)


class TestPairing:
    """pair_base and copair_base against the sums through injections and
    projections (oracles), on random maps and on the edge cases."""

    @pytest.mark.parametrize("ring", [GF(2), GF(3), GF(5), ZZ], ids=str)
    def test_random_maps_match_the_sums(self, ring):
        rng = random.Random(17)
        bounds = Bounds(max_dim=3)
        for _ in range(40):
            x = random_base_object(rng, ring, bounds)
            parts = [random_base_object(rng, ring, bounds) for _ in range(rng.randrange(1, 4))]
            into = [random_base_morphism(rng, x, y, bounds) for y in parts]
            out = [random_base_morphism(rng, y, x, bounds) for y in parts]
            assert pair_base(*into) == pair_by_injections(*into)
            assert copair_base(*out) == copair_by_projections(*out)

    def test_coprime_torsion_changes_basis(self):
        # Z/2 (+) Z/3 = Z/6: the injections are not block identities
        z3 = z_object(0, (3,))
        s, (i1, i2), (p1, p2) = biproduct_base((Z2T, z3))
        assert s == z_object(0, (6,)) and i1.mat != ((1,),)
        f, g = base_morphism(Z1, Z2T, [[1]]), base_morphism(Z1, z3, [[2]])
        fg = pair_base(f, g)
        assert fg == pair_by_injections(f, g)
        assert compose(p1, fg) == f and compose(p2, fg) == g
        h, k = base_morphism(Z2T, Z2T, [[1]]), base_morphism(z3, Z2T, [[0]])
        hk = copair_base(h, k)
        assert hk == copair_by_projections(h, k)
        assert compose(hk, i1) == h and compose(hk, i2) == k

    @pytest.mark.parametrize("ring", [GF(3), ZZ], ids=str)
    def test_zero_objects(self, ring):
        zero = zero_object(ring)
        y = field_object(ring, 2) if ring.is_field else z_object(1, (4,))
        f = identity_mor(y)
        for maps in ([f, zero_mor(y, zero)], [zero_mor(y, zero), f]):
            assert pair_base(*maps) == pair_by_injections(*maps)
            assert pair_base(*maps) == f
        for maps in ([f, zero_mor(zero, y)], [zero_mor(zero, y), f]):
            assert copair_base(*maps) == copair_by_projections(*maps)
            assert copair_base(*maps) == f
        nothing = zero_mor(zero, zero)
        assert pair_base(nothing, nothing) == copair_base(nothing, nothing) == nothing
        # maps out of or into the zero object
        assert pair_base(zero_mor(zero, y), zero_mor(zero, y)) == pair_by_injections(
            zero_mor(zero, y), zero_mor(zero, y)
        )
        assert copair_base(zero_mor(y, zero), zero_mor(y, zero)) == copair_by_projections(
            zero_mor(y, zero), zero_mor(y, zero)
        )

    def test_mismatched_endpoints_raise(self):
        f3 = GF(3)
        one, two = field_object(f3, 1), field_object(f3, 2)
        with pytest.raises(ValueError, match="common source"):
            pair_base(zero_mor(one, one), zero_mor(two, one))
        with pytest.raises(ValueError, match="common target"):
            copair_base(zero_mor(one, one), zero_mor(one, two))
        # Z against Z/2: the same number of generators, different objects
        with pytest.raises(ValueError, match="common source"):
            pair_base(identity_mor(Z1), base_morphism(Z2T, Z2T, [[1]]))
        with pytest.raises(ValueError, match="common target"):
            copair_base(identity_mor(Z1), base_morphism(Z2T, Z2T, [[1]]))
        with pytest.raises(ValueError, match="empty biproduct"):
            pair_base()

    def test_biproduct_matches_the_canonicalize_route(self):
        """Parts whose concatenated orders are already canonical get block
        identities without a Smith normal form; the Smith route agrees."""
        rng = random.Random(19)
        bounds = Bounds(max_dim=3)
        blockwise = 0
        for _ in range(300):
            parts = tuple(random_base_object(rng, ZZ, bounds) for _ in range(rng.randrange(1, 4)))
            orders = [d for p in parts for d in p.orders]
            pres = canonicalize(len(orders), *relation_columns(orders))
            s, inj, proj = biproduct_base(parts)
            assert s == pres.obj
            off = 0
            for p, i, q in zip(parts, inj, proj):
                assert i == base_morphism(p, s, [row[off : off + p.ngens] for row in pres.to_canon])
                assert q == base_morphism(s, p, pres.from_canon[off : off + p.ngens])
                off += p.ngens
            blockwise += s.orders == tuple(orders)
        assert 50 < blockwise < 300


class TestPullbackPushout:
    def test_pullback_along_identity(self):
        f = base_morphism(z_object(2), Z1, [[1, 2]])
        p, pa, pb = pullback_base(f, identity_mor(Z1))
        assert classify_base(pa).iso
        assert compose(f, pa) == pb

    def test_pullback_of_quotient_and_zero(self):
        q = quotient_mod2()
        z = zero_mor(zero_object(ZZ), Z2T)
        p, pa, pb = pullback_base(q, z)
        assert p == Z1
        assert abs(pa.mat[0][0]) == 2  # doubles into A

    def test_pullback_of_zeros_is_biproduct(self):
        a, bb, c = z_object(1), z_object(2), z_object(1)
        p, pa, pb = pullback_base(zero_mor(a, c), zero_mor(bb, c))
        assert p == z_object(3)

    def test_pushout_duals(self):
        g = identity_mor(Z1)
        f = doubling()
        p, ia, ib = pushout_base(f, g)
        assert classify_base(ia).iso
        p2, _, _ = pushout_base(doubling(), zero_mor(Z1, zero_object(ZZ)))
        assert p2 == Z2T
        a, bb = z_object(1), z_object(0, (2,))
        c = zero_object(ZZ)
        p3, _, _ = pushout_base(zero_mor(c, a), zero_mor(c, bb))
        assert p3 == z_object(1, (2,))

    def test_pullback_universal(self):
        rng = random.Random(11)
        b = Bounds()
        for ring in (GF(2), ZZ):
            for _ in range(8):
                a = random_base_object(rng, ring, b)
                bb = random_base_object(rng, ring, b)
                c = random_base_object(rng, ring, b)
                f = random_base_morphism(rng, a, c, b)
                g = random_base_morphism(rng, bb, c, b)
                p, pa, pb = pullback_base(f, g)
                assert compose(f, pa) == compose(g, pb)


class TestSolve:
    def test_identity(self):
        bb = base_morphism(Z1, Z1, [[7]])
        assert factor_base(bb, left=identity_mor(Z1)) == bb

    def test_no_solution(self):
        assert factor_base(base_morphism(Z1, Z1, [[3]]), left=doubling()) is None

    def test_direct(self):
        sol = factor_base(base_morphism(Z1, Z1, [[4]]), left=doubling())
        assert sol == base_morphism(Z1, Z1, [[2]])

    def test_right_and_both_sides(self):
        triple = base_morphism(Z1, Z1, [[3]])
        assert factor_base(base_morphism(Z1, Z1, [[6]]), right=triple) == doubling()
        # x: Z -> Z/2 with x . 2 = 0 and x != 0: left and right read off the unknown
        x = factor_base(zero_mor(Z1, Z2T), right=doubling())
        assert x is not None and x.src == Z1 and x.dst == Z2T

    def test_infeasible_is_none(self):
        assert factor_base(identity_mor(Z1), right=doubling()) is None

    def test_exactly_one_side(self):
        with pytest.raises(ValueError):
            factor_base(base_morphism(Z1, Z1, [[12]]), left=doubling(), right=base_morphism(Z1, Z1, [[3]]))
        with pytest.raises(ValueError):
            factor_base(identity_mor(Z1))

    def test_mismatched_endpoints_raise(self):
        with pytest.raises(ValueError):
            factor_base(identity_mor(Z1), left=quotient_mod2())
        with pytest.raises(ValueError):
            factor_base(identity_mor(Z2T), right=quotient_mod2())


class TestLinearSystem:
    def test_term_endpoints_must_match_unknown(self):
        sys = LinearSystem(ZZ)
        sys.add_unknown("x", Z1, Z2T)
        with pytest.raises(ValueError):
            sys.add_equation([(1, doubling(), "x", None)])  # doubling starts at Z, not Z/2
        with pytest.raises(ValueError):
            sys.add_equation([(1, None, "x", quotient_mod2())])  # ends at Z/2, not Z

    def test_terms_must_agree(self):
        sys = LinearSystem(ZZ)
        sys.add_unknown("x", Z1, Z1)
        sys.add_unknown("y", Z1, Z2T)
        with pytest.raises(ValueError):
            sys.add_equation([(1, None, "x", None), (1, None, "y", None)])
        with pytest.raises(ValueError):
            sys.add_equation([(1, None, "x", None)], quotient_mod2())

    def test_none_side_is_identity(self):
        w = z_object(1, (4,))
        f = base_morphism(Z1, w, [[3], [2]])
        g = base_morphism(w, Z2T, [[1, 0]])
        one = identity_mor(w)

        def layout(left, right, rhs):
            sys = LinearSystem(ZZ)
            sys.add_unknown("x", w, w)
            sys.add_equation([(1, left, "x", right)], rhs)
            return sys._layout()

        assert layout(None, f, f) == layout(one, f, f)
        assert layout(g, None, g) == layout(g, one, g)

    def test_square_and_cell_recovered_over_z(self):
        z4 = z_object(0, (4,))
        x = two_object(doubling())
        y = two_object(base_morphism(Z1, z4, [[1]]))
        u = two_morphism(x, y, base_morphism(Z1, Z1, [[2]]), base_morphism(Z1, z4, [[1]]))
        alpha = base_morphism(Z1, Z1, [[5]])
        v = deform(u, alpha).cto
        assert TwoCell(u, v, alpha).mat == alpha
        # unknowns on the source side: h: m => v with h pinned to alpha gives m = u
        sys = LinearSystem(ZZ)
        m = add_square(sys, "m", x, y)
        h = add_cell(sys, "h", x, y)
        add_homotopy(sys, h, [(1, None, m, None)], v)
        sys.add_equation([(1, None, h.name, None)], alpha)
        sol = sys.solve()
        assert solved_square(sol, m) == u
        assert sol[h.name] == alpha
        # unknowns on the target side: h: u => m with h pinned to alpha gives m = v
        sys = LinearSystem(ZZ)
        m = add_square(sys, "m", x, y)
        h = add_cell(sys, "h", x, y)
        add_homotopy(sys, h, u, [(1, None, m, None)])
        sys.add_equation([(1, None, h.name, None)], alpha)
        sol = sys.solve()
        assert solved_square(sol, m) == v
        assert sol[h.name] == alpha


class TestSplit:
    def test_fields_always_split(self):
        rng = random.Random(13)
        b = Bounds()
        for ring in (GF(5), GF(2), GF(3)):
            for _ in range(15):
                x = random_base_object(rng, ring, b)
                y = random_base_object(rng, ring, b)
                f = random_base_morphism(rng, x, y, b)
                assert splits_base(f)
                g = split_data_base(f)
                assert g is not None
                assert compose(f, compose(g, f)) == f
                assert compose(g, compose(f, g)) == g

    def test_doubling_does_not_split(self):
        assert split_data_base(doubling()) is None

    def test_identity_splits_by_itself(self):
        one = identity_mor(z_object(2))
        assert split_data_base(one) == one

    def test_witness_check_survives_optimization(self):
        # under python -O a bare assert would let the zero witness through
        code = textwrap.dedent(
            """
            from arrowcat import baselin, field_object, identity_mor, zero_mor, GF

            def zero_factor(h, left=None, right=None):
                return zero_mor(h.src if right is None else right.dst, h.dst if left is None else left.src)

            baselin.factor_base = zero_factor
            try:
                baselin.split_data_base.__wrapped__(identity_mor(field_object(GF(2), 1)))
            except AssertionError as exc:
                print("AssertionError:", exc)
            """
        )
        env = dict(os.environ, PYTHONPATH=str(pathlib.Path(arrowcat.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("AssertionError:"), proc.stdout


def _z_morphisms(seed, count):
    """Seeded maps over Z at max_dim 2..4; every third one is between
    all-torsion objects."""
    rng = random.Random(seed)
    for k in range(count):
        b = Bounds(max_dim=2 + k % 3)
        if k % 3 == 2:
            x, y = random_finite_object(rng, ZZ), random_finite_object(rng, ZZ)
        else:
            x, y = random_base_object(rng, ZZ, b), random_base_object(rng, ZZ, b)
        yield random_base_morphism(rng, x, y, b)


class TestSplitsBase:
    def test_agrees_with_the_witness_over_z(self):
        fixed = [doubling(), quotient_mod2(), sequence_of(z_counterexample()).iota]
        nonsplit = 0
        for f in fixed + list(_z_morphisms(1101, 300)):
            split = splits_base(f)
            assert split == (split_data_base(f) is not None), f
            nonsplit += not split
        assert nonsplit >= 50, nonsplit

    def test_known_cases(self):
        assert not splits_base(doubling())
        assert not splits_base(quotient_mod2())
        assert not splits_base(sequence_of(z_counterexample()).iota)
        assert splits_base(identity_mor(z_object(1, (2, 4))))
        assert splits_base(zero_mor(Z1, Z2T))
        # Z/2 -> Z/4, 1 -> 2: a mono whose image is not a summand
        assert not splits_base(base_morphism(Z2T, z_object(0, (4,)), [[2]]))


class TestClassify:
    def test_doubling(self):
        fl = classify_base(doubling())
        assert fl.mono and not fl.epi and not fl.split_mono and not fl.split_epi

    def test_identity(self):
        fl = classify_base(identity_mor(z_object(1, (3,))))
        assert fl.mono and fl.epi and fl.iso and fl.split_mono and fl.split_epi

    def test_epi_over_field_splits(self):
        rng = random.Random(17)
        b = Bounds()
        hits = 0
        for _ in range(30):
            x = random_base_object(rng, GF(5), b)
            y = random_base_object(rng, GF(5), b)
            f = random_base_morphism(rng, x, y, b)
            if classify_base(f).epi:
                hits += 1
                assert classify_base(f).split_epi
        assert hits > 0

    def test_invalid_matrix_rejected(self):
        with pytest.raises(ValueError):
            base_morphism(Z2T, Z1, [[1]])  # torsion cannot map to free


MEMOIZED = (kernel_base, cokernel_base, biproduct_base, split_data_base, splits_base, exact_at_base)
RINGS = (GF(2), GF(3), GF(5), ZZ)


def _memo_calls(rng, ring):
    """(fn, args) covering every memoized construction on one seeded map."""
    b = Bounds()
    x = random_base_object(rng, ring, b)
    y = random_base_object(rng, ring, b)
    f = random_base_morphism(rng, x, y, b)
    k = kernel_base.__wrapped__(f)[1]
    q = cokernel_base.__wrapped__(f)[1]
    return [
        (kernel_base, (f,)),
        (cokernel_base, (f,)),
        (split_data_base, (f,)),
        (splits_base, (f,)),
        (biproduct_base, ((x, y),)),
        (exact_at_base, (k, f)),
        (exact_at_base, (f, q)),
    ]


class TestMemo:
    @pytest.mark.parametrize("ring", RINGS, ids=str)
    def test_equals_unmemoized(self, ring):
        rng = random.Random(2024)
        for _ in range(12):
            for fn, args in _memo_calls(rng, ring):
                expected = fn.__wrapped__(*args)
                # the second call is a hit
                assert fn(*args) == expected
                assert fn(*args) == expected

    def test_results_are_immutable(self):
        rng = random.Random(5)
        for ring in RINGS:
            for fn, args in _memo_calls(rng, ring):
                out = fn(*args)
                if fn is biproduct_base:
                    assert isinstance(out[1], tuple) and isinstance(out[2], tuple)
                if fn in (kernel_base, cokernel_base, biproduct_base):
                    assert isinstance(out, tuple)
                    mor = out[1] if fn is not biproduct_base else out[1][0]
                    before = mor.mat
                    with pytest.raises(AttributeError):
                        mor.mat = ()
                    with pytest.raises(AttributeError):
                        del mor.mat
                    assert mor.mat == before

    def test_exceptions_are_not_cached(self):
        f = identity_mor(z_object(1))
        before = exact_at_base.cache_info()
        for _ in range(3):
            with pytest.raises(ValueError, match="composite is not zero"):
                exact_at_base(f, f)
        after = exact_at_base.cache_info()
        assert after.misses == before.misses + 3
        assert after.currsize == before.currsize

    def test_size_is_bounded(self):
        maxsize = kernel_base.cache_info().maxsize
        assert maxsize == 256
        for n in range(1, maxsize + 50):
            kernel_base(base_morphism(Z1, Z1, [[n]]))
        assert kernel_base.cache_info().currsize == maxsize

    @pytest.mark.parametrize("fn", MEMOIZED, ids=lambda fn: fn.__name__)
    def test_stays_a_plain_function(self, fn):
        # the layer tracer wraps only what inspect.isfunction accepts
        assert inspect.isfunction(fn)
        assert fn.__module__ == "arrowcat.baselin"
        assert inspect.isfunction(fn.__wrapped__)


def _objects_cases(seed, ring, count):
    """Seeded maps at max_dim 0..4: zero objects, every fourth map zero, and
    over Z free+torsion objects with every third pair all torsion."""
    rng = random.Random(seed)
    for k in range(count):
        b = Bounds(max_dim=k % 5)
        if not ring.is_field and k % 3 == 2:
            x, y = random_finite_object(rng, ring), random_finite_object(rng, ring)
        else:
            x, y = random_base_object(rng, ring, b), random_base_object(rng, ring, b)
        yield zero_mor(x, y) if k % 4 == 3 else random_base_morphism(rng, x, y, b)


class TestBaseObjects:
    """base_objects reads (ker, im, coker) off a rank or off Smith diagonals
    without transforms; the constructions with maps stay the check."""

    @pytest.mark.parametrize("ring", RINGS, ids=str)
    def test_equals_the_constructions(self, ring):
        for f in _objects_cases(2901, ring, 150):
            k_obj, incl = kernel_base(f)
            expected = (k_obj, cokernel_base(incl)[0], cokernel_base(f)[0])
            got = base_objects(f)
            assert all(a is b for a, b in zip(got, expected)), f
            assert base_objects(f) is got  # a memo hit

    @pytest.mark.parametrize("ring", RINGS, ids=str)
    def test_splitting_and_exactness_agree_with_the_constructions(self, ring):
        rng = random.Random(2902)
        nonsplit = inexact = 0
        for f in _objects_cases(2903, ring, 120):
            split = splits_base(f)
            assert split == splits_by_constructions(f), f
            nonsplit += not split
            k, q = kernel_base(f)[1], cokernel_base(f)[1]
            # k . h lands in ker f; it is exact there only when onto ker f
            h = random_base_morphism(rng, random_base_object(rng, ring, Bounds(max_dim=3)), k.src, Bounds())
            for a, b in ((k, f), (f, q), (compose(k, h), f)):
                exact = exact_at_base(a, b)
                assert exact == exact_by_constructions(a, b), (a, b)
                inexact += not exact
        assert inexact >= 10, inexact
        if not ring.is_field:
            assert nonsplit >= 10, nonsplit

    def test_sum_object_is_the_canonical_form(self):
        rng = random.Random(2904)
        merged = 0
        for _ in range(60):
            parts = tuple(random_finite_object(rng, ZZ) for _ in range(rng.randrange(1, 4)))
            orders = tuple(d for p in parts for d in p.orders)
            obj = baselin.sum_object(parts)
            assert obj is canonicalize(len(orders), *relation_columns(orders)).obj
            merged += obj.orders != orders
        assert merged >= 10, merged

    def test_decisions_build_no_transform(self, monkeypatch):
        def refused(*args):
            raise AssertionError("a decision built a transform")

        monkeypatch.setattr(baselin, "quotient", refused)
        monkeypatch.setattr(baselin, "subgroup", refused)
        c = classify2(dense_z_square(8, seed=2905))
        assert c.faithful and not c.full
        rng, b = random.Random(2906), Bounds(max_dim=3)
        for _ in range(40):
            u = random_square(rng, random_two_object(rng, ZZ, b), random_two_object(rng, ZZ, b))
            classify2(u)


class TestMorphismValues:
    @pytest.mark.parametrize("entry", [5, -1])
    def test_field_entry_out_of_range(self, entry):
        v = field_object(GF(5), 1)
        with pytest.raises(ValueError, match="not canonically reduced"):
            BaseMorphism(v, v, ((entry,),))

    def test_wrong_shape(self):
        v1, v2 = field_object(GF(5), 1), field_object(GF(5), 2)
        with pytest.raises(ValueError, match="does not match"):
            BaseMorphism(v1, v2, ((1,),))
        with pytest.raises(ValueError, match="does not match"):
            BaseMorphism(v2, v1, ((1,),))
        with pytest.raises(ValueError, match="row count"):
            base_morphism(v1, v2, [[1]])
        # an extra row is an error, not silently dropped
        with pytest.raises(ValueError, match="row count"):
            base_morphism(v1, v1, [[1], [2]])

    def test_z_well_definedness(self):
        with pytest.raises(ValueError, match="hits a free generator"):
            BaseMorphism(Z2T, Z1, ((1,),))
        with pytest.raises(ValueError, match="does not divide"):
            BaseMorphism(Z2T, z_object(0, (3,)), ((1,),))
        with pytest.raises(ValueError, match="not canonically reduced"):
            BaseMorphism(Z1, Z2T, ((2,),))

    @pytest.mark.parametrize(
        "src, dst, mat, message",
        [
            # a divisibility fault ahead of a range fault in its row and a
            # free-generator fault in the next
            ((1, (2,)), (1, (4,)), ((1, 5), (1, 0)), "ill-defined entry at (0,0): 4 does not divide 2*1"),
            ((1, (2,)), (1, (4,)), ((2, 7), (1, 0)), "matrix not canonically reduced"),
            ((1, (2, 4)), (1, (4,)), ((2, 2, -1), (1, 0, 0)), "matrix not canonically reduced"),
            ((1, (2, 4)), (1, (4,)), ((3, 0, 9), (0, 1, 0)), "ill-defined entry at (0,0): 4 does not divide 2*3"),
            # a clean first row, then two free-generator faults
            (
                (1, (2, 4)), (2, (4,)), ((0, 1, 3), (0, 2, 5), (1, 0, 0)),
                "ill-defined: torsion generator 1 hits a free generator",
            ),
        ],
    )
    def test_z_first_fault_in_row_major_order(self, src, dst, mat, message):
        """A matrix with several faults raises the first one, in row-major
        order, with its own message, although rows are checked whole."""
        with pytest.raises(ValueError) as info:
            BaseMorphism(z_object(*src), z_object(*dst), mat)
        assert str(info.value) == message

    @pytest.mark.parametrize("ring", RINGS, ids=str)
    def test_routes_agree(self, ring):
        rng = random.Random(77)
        b = Bounds()
        for _ in range(10):
            x = random_base_object(rng, ring, b)
            y = random_base_object(rng, ring, b)
            f = random_base_morphism(rng, x, y, b)
            routes = [
                compose(f, identity_mor(x)),
                compose(identity_mor(y), f),
                base_morphism(x, y, f.mat),
                -(-f),
                f + zero_mor(x, y),
                f - zero_mor(x, y),
            ]
            for g in routes:
                assert g is f

    def test_fields_and_repr_unchanged(self):
        assert BaseMorphism.__match_args__ == ("src", "dst", "mat")
        assert BaseObject.__match_args__ == ("ring", "orders")
        assert Z1.ngens == 1 and z_object(2, (2, 4)).ngens == 4
        f = quotient_mod2()
        text = f"BaseMorphism(src={Z1!r}, dst={Z2T!r}, mat=((1,),))"
        assert repr(f) == text
        hash(f)
        assert repr(f) == text
        assert f == quotient_mod2()


class TestIntegerEntries:
    @pytest.mark.parametrize(
        "ring, entry",
        [(GF(3), 1.7), (ZZ, 2.9), (ZZ, "2"), (GF(5), "1"), (ZZ, Fraction(4, 2)), (GF(3), Fraction(1, 2))],
        ids=["F3-float", "Z-float", "Z-str", "F5-str", "Z-fraction", "F3-fraction"],
    )
    def test_non_integer_entry_raises(self, ring, entry):
        x = field_object(ring, 1) if ring.is_field else z_object(1)
        with pytest.raises(TypeError):
            base_morphism(x, x, [[entry]])

    def test_integer_like_entries_are_plain_ints(self):
        v = field_object(GF(3), 2)
        f = base_morphism(v, v, [[True, 4], [-1, 0]])
        assert f.mat == ((1, 1), (2, 0))
        assert all(type(x) is int for row in f.mat for x in row)

    def test_new_bool_matrix_is_refused(self):
        """BaseMorphism keys its intern table on the matrix, where True
        equals 1: a new morphism whose matrix is not a tuple of tuples of
        int is refused, so it never becomes the shared value of the int
        matrix.  A fresh process has no live morphism with an equal
        matrix, so this build is such a new one."""
        code = textwrap.dedent(
            """
            from arrowcat import GF, field_object
            from arrowcat.basemor import BaseMorphism
            v = field_object(GF(3), 1)
            try:
                BaseMorphism(v, v, ((True,),))
            except TypeError as exc:
                print("TypeError:", exc)
            """
        )
        env = dict(os.environ, PYTHONPATH=str(pathlib.Path(arrowcat.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "TypeError: a morphism matrix is a tuple of tuples of int\n"

    def test_float_and_list_matrices_are_never_values(self):
        # no int matrix equals ((2.5,),) and a list is unhashable, so these
        # always reach the check
        for mat in (((2.5,),), [[1]], ([1],)):
            with pytest.raises(TypeError, match="tuple of tuples of int"):
                BaseMorphism(Z1, Z1, mat)


class TestApply:
    def test_coordinate_count_must_match_source(self):
        x = z_object(1, (2,))
        f = identity_mor(x)
        assert f.apply((1, 3)) == (1, 3)
        for coords in [(1,), (1, 1, 1), ()]:
            with pytest.raises(ValueError, match="coordinates for a source with 2 generators"):
                f.apply(coords)


INTERNED = (zero_mor, identity_mor)


class TestInterning:
    @staticmethod
    def _objects(n):
        """n distinct objects over Z with at most three generators."""
        return [z_object(k % 3, (2 + k // 3,)) for k in range(n)]

    @pytest.mark.parametrize("ring", RINGS, ids=str)
    def test_same_value_as_a_fresh_build(self, ring):
        rng = random.Random(31)
        for _ in range(8):
            a = random_base_object(rng, ring, Bounds())
            b = random_base_object(rng, ring, Bounds())
            z = zero_mor(a, b)
            assert z is zero_mor(a, b)
            fresh = BaseMorphism(a, b, tuple((0,) * a.ngens for _ in range(b.ngens)))
            assert z == fresh and hash(z) == hash(fresh) and repr(z) == repr(fresh)
            one = identity_mor(a)
            assert one is identity_mor(a)
            eye = tuple(tuple(int(i == j) for j in range(a.ngens)) for i in range(a.ngens))
            fresh = BaseMorphism(a, a, eye)
            assert one == fresh and hash(one) == hash(fresh) and repr(one) == repr(fresh)

    def test_size_is_bounded(self):
        objs = self._objects(300)
        for k, x in enumerate(objs):
            zero_mor(x, objs[(7 * k + 3) % len(objs)])
            identity_mor(x)
        for fn in INTERNED:
            assert fn.cache_info().maxsize == 256
            assert fn.cache_info().currsize == 256

    def test_ring_mismatch_is_not_cached(self):
        a, b = field_object(GF(2), 1), field_object(GF(3), 1)
        before = zero_mor.cache_info()
        for _ in range(3):
            with pytest.raises(ValueError, match="different rings"):
                zero_mor(a, b)
        after = zero_mor.cache_info()
        assert after.misses == before.misses + 3
        assert after.currsize == before.currsize

    @pytest.mark.parametrize("fn", INTERNED, ids=lambda fn: fn.__name__)
    def test_stays_a_plain_function(self, fn):
        assert inspect.isfunction(fn)
        assert fn.__module__ == "arrowcat.basemor"
        assert inspect.isfunction(fn.__wrapped__)


class TestObjectInterning:
    """Equal rings and equal objects are one instance, so they compare and
    hash by identity; every way of building one returns that instance."""

    def test_equal_values_are_one_instance(self):
        assert GF(3) is GF(3) is BaseRing(3)
        assert BaseRing() is BaseRing(None) is ZZ
        assert z_object(1, (2,)) is make_object(ZZ, (2, 0))
        assert z_object(3, (7, 49)) is BaseObject(ZZ, (7, 49, 0, 0, 0))
        assert field_object(GF(5), 2) is make_object(GF(5), [5, 5])
        assert zero_object(GF(2)) is not zero_object(GF(3))

    def test_equality_and_hash_are_identity(self):
        for cls in (BaseRing, BaseObject):
            assert cls.__eq__ is object.__eq__
            assert cls.__hash__ is object.__hash__

    @pytest.mark.parametrize(
        "copier",
        [copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_copies_are_the_same_instance(self, copier):
        for value in (ZZ, GF(7), z_object(2, (3, 6)), field_object(GF(3), 2), zero_object(ZZ)):
            assert copier(value) is value
        f = quotient_mod2()
        g = copier(f)
        assert g == f and g.src is f.src and g.dst is f.dst

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: make_object(ZZ, (4, 2)), "orders not a divisibility chain: \\(4, 2\\)"),
            (lambda: BaseObject(ZZ, (0, 2)), "free generators must come last"),
            (lambda: z_object(0, (1,)), "torsion orders must exceed 1"),
            (lambda: make_object(GF(3), (3, 5)), "generators must all have order p"),
            (lambda: GF(4), "not a prime: 4"),
            (lambda: BaseRing(2**31 + 11), "field characteristic out of range"),
        ],
        ids=["chain", "free-first", "unit", "field", "composite", "large"],
    )
    def test_invalid_raises_and_registers_nothing(self, build, message):
        before = dict(baseobj._OBJECTS), dict(rings._RINGS)
        for _ in range(2):
            with pytest.raises(ValueError, match=message):
                build()
        assert (baseobj._OBJECTS, rings._RINGS) == before

    def test_biproduct_registers_only_its_invariant_form(self):
        obj = biproduct_base((z_object(0, (4,)), z_object(0, (2,))))[0]
        assert obj is z_object(0, (2, 4))
        assert (ZZ, (4, 2)) not in baseobj._OBJECTS


class TestCompositionShortcuts:
    """compose and _product skip the arithmetic for a zero factor or an
    identity endomorphism, and only for those."""

    def test_identity_shaped_matrix_between_different_objects(self):
        z4 = z_object(0, (4,))
        g = base_morphism(z4, Z2T, [[1]])  # the matrix [[1]], but Z/4 -> Z/2 is no identity
        f = base_morphism(Z1, z4, [[3]])
        gf = compose(g, f)
        assert gf == base_morphism(Z1, Z2T, [[1]])
        assert gf.src == Z1 and gf.dst == Z2T
        assert _product(g, f) == ((1,),)

    @pytest.mark.parametrize("ring", RINGS, ids=str)
    def test_zero_factor_gives_the_interned_zero(self, ring):
        rng = random.Random(41)
        for _ in range(10):
            x, y, z = (random_base_object(rng, ring, Bounds()) for _ in range(3))
            f = random_base_morphism(rng, x, y, Bounds())
            g = random_base_morphism(rng, y, z, Bounds())
            fresh_zero = BaseMorphism(y, z, tuple((0,) * y.ngens for _ in range(z.ngens)))
            assert compose(zero_mor(y, z), f) is zero_mor(x, z)
            assert compose(fresh_zero, f) is zero_mor(x, z)
            assert compose(g, zero_mor(x, y)) is zero_mor(x, z)
            assert _product(fresh_zero, f) == zero_mor(x, z).mat

    @pytest.mark.parametrize("ring", RINGS, ids=str)
    def test_identity_factor_gives_the_other_operand(self, ring):
        rng = random.Random(42)
        hits = 0
        while hits < 10:
            x, y = (random_base_object(rng, ring, Bounds()) for _ in range(2))
            f = random_base_morphism(rng, x, y, Bounds())
            if f.is_zero_mor() or (x == y and f == identity_mor(x)):
                continue  # only the identity factor may be one
            hits += 1
            eye = tuple(tuple(int(i == j) for j in range(y.ngens)) for i in range(y.ngens))
            assert compose(f, identity_mor(x)) is f
            assert compose(identity_mor(y), f) is f
            assert compose(BaseMorphism(y, y, eye), f) is f
            assert _product(identity_mor(y), f) is f.mat
            assert _product(f, identity_mor(x)) is f.mat


def _zero_composite_pair(rng, ring, k):
    """(f, g) with g.f = 0: f through ker g, or g through coker f; every
    third pair on finite objects."""
    b = Bounds(max_dim=2 + k % 2)
    if k % 3 == 0:
        x, y, z = (random_finite_object(rng, ring, 64) for _ in range(3))
    else:
        x, y, z = (random_base_object(rng, ring, b) for _ in range(3))
    if k % 2:
        g = random_base_morphism(rng, y, z, b)
        k_obj, incl = kernel_base(g)
        return compose(incl, random_base_morphism(rng, x, k_obj, b)), g
    f = random_base_morphism(rng, x, y, b)
    q_obj, q = cokernel_base(f)
    return f, compose(random_base_morphism(rng, q_obj, z, b), q)


class TestExactAtBase:
    @pytest.mark.parametrize("ring", RINGS, ids=str)
    def test_agrees_with_the_induced_map(self, ring):
        rng = random.Random(1212)
        verdicts = []
        for k in range(300):
            f, g = _zero_composite_pair(rng, ring, k)
            verdict = exact_at_base(f, g)
            assert verdict == exact_by_induced_map(f, g)
            verdicts.append(verdict)
        assert True in verdicts and False in verdicts
        if ring == ZZ:
            assert verdicts.count(False) >= 50

    def test_isomorphic_kernel_and_image_are_not_enough(self):
        # 2Z = im f and ker g = Z are isomorphic, yet Z/2Z is not zero
        f, g = doubling(), zero_mor(Z1, zero_object(ZZ))
        assert kernel_base(g)[0] == image_comparison(f)[0]
        assert not exact_by_induced_map(f, g)
        assert not exact_at_base(f, g)

    @pytest.mark.parametrize("ring", RINGS, ids=str)
    def test_nonzero_composite_raises(self, ring):
        rng = random.Random(808)
        b = Bounds()
        hits = 0
        while hits < 5:
            x, y, z = (random_base_object(rng, ring, b) for _ in range(3))
            f = random_base_morphism(rng, x, y, b)
            g = random_base_morphism(rng, y, z, b)
            if compose(g, f).is_zero_mor():
                continue
            hits += 1
            with pytest.raises(ValueError, match="composite is not zero"):
                exact_at_base(f, g)


# ---------------------------------------------------------------------------
# The field path: row reduction mod p, no Smith normal form
# ---------------------------------------------------------------------------

FIELDS = (GF(2), GF(3), GF(5), GF(2**31 - 1))


def _field_map(rng, ring, n, m, r):
    """A map F_p^n -> F_p^m through F_p^r, so of rank at most r."""
    b = Bounds()
    x, mid, y = field_object(ring, n), field_object(ring, r), field_object(ring, m)
    return compose(random_base_morphism(rng, mid, y, b), random_base_morphism(rng, x, mid, b))


def _field_maps(ring, seed, count=40):
    rng = random.Random(seed)
    for _ in range(count):
        n, m = rng.randrange(0, 5), rng.randrange(0, 5)
        yield _field_map(rng, ring, n, m, rng.randrange(0, min(n, m) + 1))


def _iso(rng, x):
    """A random automorphism of the field object x."""
    while True:
        a = random_base_morphism(rng, x, x, Bounds())
        if rank_mod_p(a.mat, x.ring.p) == x.ngens:
            return a


class TestFieldPath:
    @pytest.mark.parametrize("ring", FIELDS, ids=str)
    def test_kernel(self, ring):
        p = ring.p
        for f in _field_maps(ring, 11):
            k_obj, k = kernel_base(f)
            assert compose(f, k).is_zero_mor()
            assert rank_mod_p(k.mat, p) == k_obj.ngens  # mono
            assert k_obj == field_object(ring, f.src.ngens - rank_mod_p(f.mat, p))

    @pytest.mark.parametrize("ring", FIELDS, ids=str)
    def test_cokernel_and_image(self, ring):
        p = ring.p
        for f in _field_maps(ring, 12):
            rank = rank_mod_p(f.mat, p)
            q_obj, q = cokernel_base(f)
            assert compose(q, f).is_zero_mor()
            assert rank_mod_p(q.mat, p) == q_obj.ngens  # epi
            assert q_obj == field_object(ring, f.dst.ngens - rank)
            i_obj, m, e = image_comparison(f)
            assert compose(m, e) == f
            assert i_obj == field_object(ring, rank)
            assert rank_mod_p(m.mat, p) == rank_mod_p(e.mat, p) == rank

    @pytest.mark.parametrize("ring", FIELDS, ids=str)
    def test_biproduct_delta_identities(self, ring):
        rng = random.Random(13)
        for _ in range(10):
            parts = tuple(field_object(ring, rng.randrange(0, 4)) for _ in range(rng.randrange(1, 4)))
            s, inj, proj = biproduct_base(parts)
            assert s == field_object(ring, sum(x.ngens for x in parts))
            total = zero_mor(s, s)
            for i, x in enumerate(parts):
                for j, y in enumerate(parts):
                    expected = identity_mor(x) if i == j else zero_mor(y, x)
                    assert compose(proj[i], inj[j]) == expected
                total = total + compose(inj[i], proj[i])
            assert total == identity_mor(s)

    @pytest.mark.parametrize("ring", FIELDS, ids=str)
    def test_bases_depend_only_on_the_subspace(self, ring):
        rng = random.Random(14)
        for f in _field_maps(ring, 15):
            a, b = _iso(rng, f.dst), _iso(rng, f.src)
            # a.f has the kernel of f, f.b its image and so its cokernel
            assert kernel_base(compose(a, f)) == kernel_base(f)
            assert cokernel_base(compose(f, b)) == cokernel_base(f)
            assert image_comparison(compose(f, b))[:2] == image_comparison(f)[:2]


FACTOR_FIELDS = (GF(2), GF(3), GF(5), GF(7))


def _factor_instances(ring, seed, count=150):
    """(rng, dims, consistent): seeded shapes for one-sided factoring, every
    other instance built to be consistent."""
    rng = random.Random(seed)
    for k in range(count):
        dims = [rng.randrange(0, 5) for _ in range(4)]
        yield rng, dims, k % 2 == 0


class TestFieldFactoring:
    """Over F_p one-sided factoring is one row reduction of [L | H]; it must
    give exactly what the Kronecker-sized LinearSystem gives, None included."""

    @staticmethod
    def _outcomes(results):
        found = sum(1 for x in results if x is not None)
        assert found >= 30 and len(results) - found >= 30, (found, len(results))

    @pytest.mark.parametrize("ring", FACTOR_FIELDS, ids=str)
    def test_left(self, ring):
        b = Bounds()
        results = []
        for rng, (n, m, c, r), consistent in _factor_instances(ring, 1401):
            x, y, w = field_object(ring, n), field_object(ring, m), field_object(ring, c)
            left = _field_map(rng, ring, n, m, min(r, n, m))
            if consistent:
                h = compose(left, random_base_morphism(rng, w, x, b))
            else:
                h = random_base_morphism(rng, w, y, b)
            got = factor_base(h, left=left)
            assert got == factor_by_linear_system(h, left=left)
            if got is not None:
                assert got.src == w and got.dst == x and compose(left, got) == h
            results.append(got)
        self._outcomes(results)

    @pytest.mark.parametrize("ring", FACTOR_FIELDS, ids=str)
    def test_right(self, ring):
        b = Bounds()
        results = []
        for rng, (n, m, c, r), consistent in _factor_instances(ring, 1402):
            x, y, w = field_object(ring, n), field_object(ring, m), field_object(ring, c)
            right = _field_map(rng, ring, c, n, min(r, c, n))
            if consistent:
                h = compose(random_base_morphism(rng, x, y, b), right)
            else:
                h = random_base_morphism(rng, w, y, b)
            got = factor_base(h, right=right)
            assert got == factor_by_linear_system(h, right=right)
            if got is not None:
                assert got.src == x and got.dst == y and compose(got, right) == h
            results.append(got)
        self._outcomes(results)

    def test_mismatched_endpoints_raise(self):
        f2 = GF(2)
        h = identity_mor(field_object(f2, 2))
        other = identity_mor(field_object(f2, 3))
        with pytest.raises(ValueError):
            factor_base(h, left=other)
        with pytest.raises(ValueError):
            factor_base(h, right=other)


def _mixed_z_object(rng):
    """A Z object with torsion and free generators, so of two or more orders."""
    orders = [rng.choice([2, 3, 4, 6])]
    if rng.random() < 0.5:
        orders.append(orders[0] * rng.choice([1, 2, 3]))
    return z_object(rng.randrange(1, 3), tuple(orders))


def _well_defined(x):
    """d.x_ij = 0 modulo e_i for every source order d and target order e."""
    return all(
        (d * v) % e == 0 if e else d * v == 0
        for row, e in zip(x.mat, x.dst.orders)
        for v, d in zip(row, x.src.orders)
    )


class TestIntegerFactoring:
    """Over Z one-sided factoring is one solve per generator order of the
    columns (left) or rows (right) of x: None exactly when the Kronecker-sized
    LinearSystem gives None, a well-defined solution otherwise, and the
    LinearSystem's own x whenever the solution is unique."""

    @staticmethod
    def _outcomes(results, unique):
        found = sum(1 for x in results if x is not None)
        assert found >= 30 and len(results) - found >= 30, (found, len(results))
        assert unique >= 30, unique

    def test_left(self):
        b = Bounds()
        results, unique = [], 0
        for rng, _dims, consistent in _factor_instances(ZZ, 1801):
            x, y, w = random_base_object(rng, ZZ, b), random_base_object(rng, ZZ, b), _mixed_z_object(rng)
            left = random_base_morphism(rng, x, y, b)
            if consistent:
                h = compose(left, random_base_morphism(rng, w, x, b))
            else:
                h = random_base_morphism(rng, w, y, b)
            got = factor_base(h, left=left)
            expected = factor_by_linear_system(h, left=left)
            assert (got is None) == (expected is None)
            if got is not None:
                assert got.src == w and got.dst == x and _well_defined(got) and compose(left, got) == h
            if kernel_base(left)[0].is_zero:
                assert got == expected
                unique += 1
            results.append(got)
        self._outcomes(results, unique)

    def test_right(self):
        b = Bounds()
        results, unique = [], 0
        for rng, _dims, consistent in _factor_instances(ZZ, 1802):
            x, y, w = random_base_object(rng, ZZ, b), _mixed_z_object(rng), random_base_object(rng, ZZ, b)
            right = random_base_morphism(rng, w, x, b)
            if consistent:
                h = compose(random_base_morphism(rng, x, y, b), right)
            else:
                h = random_base_morphism(rng, w, y, b)
            got = factor_base(h, right=right)
            expected = factor_by_linear_system(h, right=right)
            assert (got is None) == (expected is None)
            if got is not None:
                assert got.src == x and got.dst == y and _well_defined(got) and compose(got, right) == h
            if cokernel_base(right)[0].is_zero:
                assert got == expected
                unique += 1
            results.append(got)
        self._outcomes(results, unique)

    def test_left_well_definedness_decides(self):
        # 1 -> 1 would satisfy the equation, but Z/2 -> Z must be zero
        z2 = z_object(0, (2,))
        left = base_morphism(Z1, z2, [[1]])
        assert factor_base(identity_mor(z2), left=left) is None

    def test_right_well_definedness_decides(self):
        # x(1) = 1 in Z/4 would satisfy the equation, but Z/2 -> Z/4 hits only 0 and 2
        h = base_morphism(Z1, z_object(0, (4,)), [[1]])
        right = base_morphism(Z1, z_object(0, (2,)), [[1]])
        assert factor_base(h, right=right) is None


class TestZeroFactoring:
    """A zero h factors as the interned zero morphism on either side, the
    same value the Kronecker-sized LinearSystem gives."""

    @pytest.mark.parametrize("ring", RINGS, ids=str)
    def test_zero_h_gives_the_interned_zero(self, ring):
        rng = random.Random(2002)
        b = Bounds()
        for _ in range(40):
            w, x, y = (random_base_object(rng, ring, b) for _ in range(3))
            # a fresh zero matrix, not the interned zero morphism
            h = BaseMorphism(w, y, tuple((0,) * w.ngens for _ in range(y.ngens)))
            left = random_base_morphism(rng, x, y, b)
            got = factor_base(h, left=left)
            assert got is zero_mor(w, x)
            assert got == factor_by_linear_system(h, left=left)
            right = random_base_morphism(rng, w, x, b)
            got = factor_base(h, right=right)
            assert got is zero_mor(x, y)
            assert got == factor_by_linear_system(h, right=right)

    def test_mismatched_endpoints_still_raise(self):
        h = zero_mor(Z1, Z2T)
        with pytest.raises(ValueError, match="wrong endpoints"):
            factor_base(h, left=identity_mor(Z1))
        with pytest.raises(ValueError, match="wrong endpoints"):
            factor_base(h, right=identity_mor(Z2T))


@pytest.fixture
def no_snf(monkeypatch):
    """Every arrowcat reference to the integer engine's smith_normal_form and
    kernel_lattice (a column echelon form, no Smith form) raises."""
    def refuse(*args, **kwargs):
        raise AssertionError("an integer elimination was called")

    for name in ("smith_normal_form", "kernel_lattice"):
        orig = getattr(snf, name)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("arrowcat") and getattr(mod, name, None) is orig:
                monkeypatch.setattr(mod, name, refuse)


class TestFieldPathAvoidsSnf:
    RING = GF(3)

    def test_plain_snake(self, no_snf):
        rng = random.Random(9101)
        for _ in range(2):
            inst = random_snake_instance(rng, self.RING, Bounds(max_dim=2))
            cols = [column_data(x) for x in inst.cols]
            maps, cells = plain_snake(*inst.row1, *inst.row2, *cols, *inst.cells).sequence()
            assert all(exact_at(maps[k], cells[k], maps[k + 1]) for k in range(len(cells)))

    def test_les_homology(self, no_snf):
        rng = random.Random(9102)
        ce = random_complex_extension(rng, self.RING, 3, Bounds(max_dim=2))
        maps, cells = les_full_sequence(les_homology(*to_chain_maps(ce)))
        assert all(exact_at(maps[k], cells[k], maps[k + 1]) for k in range(len(maps) - 1))

    def test_check_3x3(self, no_snf):
        rng = random.Random(9103)
        inst = random_3x3_instance(rng, self.RING, Bounds(max_dim=2))
        d = ThreeByThree(
            inst.f, inst.g, inst.eta, inst.a, inst.b, inst.c,
            inst.alpha, inst.beta, inst.gamma, inst.phi, inst.psi,
        )
        rep = check_3x3(d)
        assert rep.ok, rep.failed_condition

    def test_the_guard_bites_over_z(self, no_snf):
        with pytest.raises(AssertionError, match="integer elimination"):
            kernel_base.__wrapped__(quotient_mod2())
