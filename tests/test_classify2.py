import random

import pytest

import arrowcat.classify2 as classify2_module
from arrowcat import GF, ZZ, base_morphism, z_object, zero_mor, zero_object
from arrowcat.baselin import factor_base, split_data_base
from arrowcat.basemor import identity_mor
from arrowcat.classify2 import (
    _equivalence,
    _fully_cofaithful,
    _fully_faithful,
    _strict_witness,
    classify2,
    equivalence_data2,
    inverse_from_data,
)
from arrowcat.core2 import compose2, deform, identity2, two_morphism, two_object
from arrowcat.generators import (
    Bounds,
    random_base_morphism,
    random_complex,
    random_finite_object,
    random_self_equivalence,
    random_square,
    random_two_object,
)
from arrowcat.limits2 import cokernel2, factor_cokernel2, factor_kernel2, kernel2, sequence_of
from arrowcat.puppe import puppe
from arrowcat.selftest import z_counterexample
from arrowcat.sequences import exactness
from oracles import strict_witness_by_linear_system

RINGS = (GF(2), GF(3), GF(5), ZZ)


def z_counter_square():
    z1 = z_object(1)
    z2 = z_object(0, (2,))
    zz = zero_object(ZZ)
    a = two_object(base_morphism(z1, z1, [[2]]))
    b = two_object(base_morphism(zz, z2, [[]]))
    return two_morphism(a, b, zero_mor(z1, zz), base_morphism(z1, z2, [[1]]))


def test_identity_has_every_flag(rng, bounds):
    x = random_two_object(rng, GF(2), bounds)
    fl = classify2(identity2(x))
    for name in (
        "faithful", "full", "fully_faithful", "cofaithful", "fully_cofaithful",
        "normal_faithful", "normal_fully_faithful", "normal_cofaithful",
        "normal_fully_cofaithful", "equivalence",
    ):
        assert getattr(fl, name), name


def test_counterexample_classification():
    fl = classify2(z_counter_square())
    assert fl.faithful and fl.full and fl.fully_faithful
    assert fl.cofaithful and fl.fully_cofaithful
    assert not fl.equivalence
    assert not fl.normal_faithful and not fl.normal_cofaithful
    assert fl.discrete_source and not fl.connected_source and not fl.split_source


def test_counterexample_has_no_witness():
    assert equivalence_data2(z_counter_square()) is None


def test_field_fully_faithful_cofaithful_is_equivalence(rng, bounds):
    hits = 0
    for ring in (GF(2), GF(5)):
        for _ in range(25):
            a = random_two_object(rng, ring, bounds)
            b = random_two_object(rng, ring, bounds)
            u = random_square(rng, a, b)
            fl = classify2(u)
            if fl.fully_faithful and fl.cofaithful:
                hits += 1
                assert fl.equivalence
                data = equivalence_data2(u)
                assert data is not None
    assert hits > 0


def test_identity_witness_is_identity(rng, bounds):
    x = random_two_object(rng, GF(3), bounds)
    u = identity2(x)
    d = equivalence_data2(u)
    assert d.v1 == identity_mor(x.top)
    assert d.v0 == identity_mor(x.bottom)
    assert d.epsilon.is_zero_mor() and d.eta.is_zero_mor()


def test_witness_recovered_from_built_equivalence(rng, bounds):
    # build an equivalence by deforming the identity and composing two of them
    for ring in (GF(2), ZZ):
        x = random_two_object(rng, ring, bounds)
        alpha = random_base_morphism(rng, x.bottom, x.top, bounds)
        beta = random_base_morphism(rng, x.bottom, x.top, bounds)
        u = compose2(deform(identity2(x), alpha).cto, deform(identity2(x), beta).cto)
        fl = classify2(u)
        assert fl.equivalence
        d = equivalence_data2(u)
        inv = inverse_from_data(u, d)
        # quasi-inverse composes to something homotopic to the identity
        from arrowcat.limits2 import solve_cell

        assert solve_cell(compose2(inv, u), identity2(x)) is not None


def test_split_source_tracks_boundary(rng, bounds):
    got_split, got_nonsplit = False, False
    for _ in range(20):
        x = random_two_object(rng, ZZ, bounds)
        fl = classify2(identity2(x))
        expected = split_data_base(x.boundary) is not None
        assert fl.split_source == expected
        got_split |= expected
        got_nonsplit |= not expected
    assert got_split  # both branches exercised on this seed
    assert got_nonsplit


def _assert_flag_predicates(u):
    fl = classify2(u)
    seq = sequence_of(u)
    assert _fully_faithful(seq) == fl.fully_faithful
    assert _fully_cofaithful(seq) == fl.fully_cofaithful
    assert _equivalence(seq) == fl.equivalence
    return fl


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_flag_predicates_match_classify2(ring, bounds):
    rng = random.Random(4242)
    seen = set()
    for _ in range(30):
        a = random_two_object(rng, ring, bounds)
        b = random_two_object(rng, ring, bounds)
        for u in (random_square(rng, a, b), identity2(a)):
            fl = _assert_flag_predicates(u)
            seen.add((fl.fully_faithful, fl.fully_cofaithful))
    assert {(True, True), (False, False)} <= seen


def test_flag_predicates_on_the_counterexample():
    # fully faithful and fully cofaithful, yet no equivalence
    fl = _assert_flag_predicates(z_counterexample())
    assert fl.fully_faithful and fl.fully_cofaithful and not fl.equivalence


def _exact_at_by_classification(a, alpha, b):
    """The exactness oracle reading both routes off full classifications."""
    b_prime = factor_cokernel2(cokernel2(a), b, alpha)
    a_prime = factor_kernel2(kernel2(b), a, alpha)
    via_coker = classify2(b_prime).fully_faithful
    assert via_coker == classify2(a_prime).fully_cofaithful
    return via_coker


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_exactness_matches_full_classification(ring, bounds):
    rng = random.Random(31)
    seen = set()
    for _ in range(4):
        ci = random_complex(rng, ring, 4, bounds)
        ps = puppe(random_square(rng, random_two_object(rng, ring, bounds), random_two_object(rng, ring, bounds)))
        for maps, cells in ((ci.diffs, ci.cells), (ps.maps, ps.cells[:8])):
            expected = [
                _exact_at_by_classification(maps[k], cells[k], maps[k + 1]) for k in range(len(cells))
            ]
            assert exactness(maps, cells) == expected
            seen.update(expected)
    assert seen == {True, False}


def test_invariant_splitting_matches_the_witness_search(monkeypatch):
    """classify2 deciding splitting from invariant factors equals classify2
    deciding it by searching for a von Neumann witness, flag by flag."""
    rng = random.Random(5150)
    squares = []
    for k in range(60):
        b = Bounds(max_dim=2 + k % 3)
        a, c = random_two_object(rng, ZZ, b), random_two_object(rng, ZZ, b)
        squares.append(random_square(rng, a, c))
    squares.append(z_counterexample())
    got = [classify2(u) for u in squares]
    monkeypatch.setattr(classify2_module, "splits_base", lambda f: split_data_base(f) is not None)
    nonsplit = 0
    for u, fl in zip(squares, got):
        ref = classify2(u)
        for name in fl._fields:
            assert getattr(fl, name) == getattr(ref, name), (name, u)
        nonsplit += (fl.faithful and not fl.normal_faithful) + (not fl.split_source)
    assert nonsplit >= 10, nonsplit


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_strict_witness_matches_the_square_system(ring):
    """The componentwise inverses are the strict quasi-inverse the square
    system in v finds, and exist exactly when it does.  Self-equivalences
    (the identity deformed by a cell) mostly have one; random squares mostly
    do not, and some of them have one-sided inverses on both components."""
    rng = random.Random(1919)
    found = none = one_sided = draws = 0
    while draws < 100 or min(found, none) < 25:
        draws += 1
        assert draws <= 1000, (found, none)
        b = Bounds(max_dim=2 + draws % 2)
        x = random_two_object(rng, ring, b)
        if draws % 2:
            u = random_self_equivalence(rng, x, b)
        else:
            u = random_square(rng, x, random_two_object(rng, ring, b))
        got = _strict_witness(u)
        assert got == strict_witness_by_linear_system(u)
        found += got is not None
        none += got is None
        one_sided += got is None and all(
            factor_base(identity_mor(c.dst), left=c) is not None for c in (u.top, u.bottom)
        )
    assert one_sided > 0


@pytest.mark.parametrize("ring", (GF(2), GF(3), ZZ), ids=str)
def test_source_flags_match_enumeration(ring):
    """discrete_source says the source boundary is injective on elements and
    connected_source that it is onto, checked by enumerating finite groups
    (torsion-only over Z)."""
    rng = random.Random(2020)
    bounds = Bounds()
    seen = {"discrete": [0, 0], "connected": [0, 0]}
    for _ in range(120):
        t1, t0, b1, b0 = (random_finite_object(rng, ring, 27) for _ in range(4))
        a = two_object(random_base_morphism(rng, t1, t0, bounds))
        b = two_object(random_base_morphism(rng, b1, b0, bounds))
        fl = classify2(random_square(rng, a, b))
        image = [a.boundary.apply(el) for el in t1.elements()]
        injective = len(set(image)) == len(image)
        onto = len(set(image)) == t0.total_order()
        assert fl.discrete_source == injective
        assert fl.connected_source == onto
        seen["discrete"][injective] += 1
        seen["connected"][onto] += 1
    assert all(min(counts) >= 25 for counts in seen.values()), seen
