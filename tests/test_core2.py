import gc
import inspect
import random
import weakref
from math import gcd

import pytest

from arrowcat import GF, ZZ, base_morphism, basemor, core2, field_object, two_object, z_object
from arrowcat.basemor import BaseMorphism, _difference, _product, compose, identity_mor, zero_mor
from arrowcat.core2 import (
    TwoCell,
    TwoMorphism,
    TwoObject,
    cell_to_zero,
    compose2,
    hcomp2,
    identity2,
    identity_cell,
    null_cell,
    vcomp2,
    whisker_left,
    whisker_right,
    zero2,
)
from arrowcat.generators import (
    Bounds,
    extension_on,
    random_base_morphism,
    random_base_object,
    random_cell_on,
    random_square,
    random_two_object,
)


@pytest.fixture
def setup(rng, bounds):
    ring = GF(3)
    a = random_two_object(rng, ring, bounds)
    b = random_two_object(rng, ring, bounds)
    c = random_two_object(rng, ring, bounds)
    return a, b, c


def test_compose_unit_and_zero(setup, rng):
    a, b, c = setup
    u = random_square(rng, a, b)
    assert compose2(u, identity2(a)) == u
    assert compose2(identity2(b), u) == u
    assert compose2(zero2(b, c), u) == zero2(a, c)


def test_compose_is_componentwise(setup, rng):
    a, b, c = setup
    u = random_square(rng, a, b)
    v = random_square(rng, b, c)
    w = compose2(v, u)
    from arrowcat.basemor import compose

    assert w.top == compose(v.top, u.top)
    assert w.bottom == compose(v.bottom, u.bottom)


def test_vertical_composition(setup, rng, bounds):
    a, b, _ = setup
    u = random_square(rng, a, b)
    cell = random_cell_on(rng, u, bounds)
    assert vcomp2(cell, identity_cell(u)) == cell
    inv = vcomp2(cell.inverse(), cell)
    assert inv.mat.is_zero_mor() and inv.cfrom == u and inv.cto == u
    c2 = random_cell_on(rng, cell.cto, bounds)
    total = vcomp2(c2, cell)
    assert total.mat == cell.mat + c2.mat


def test_horizontal_composition_and_whiskers(setup, rng, bounds):
    a, b, c = setup
    u = random_square(rng, a, b)
    v = random_square(rng, b, c)
    alpha = random_cell_on(rng, u, bounds)
    beta = random_cell_on(rng, v, bounds)
    # whiskering by identities changes nothing
    assert whisker_left(identity2(b), alpha) == alpha
    assert whisker_right(beta, identity2(b)) == beta
    # identity cells compose to the identity cell
    h = hcomp2(identity_cell(v), identity_cell(u))
    assert h.mat.is_zero_mor() and h.cfrom == compose2(v, u)
    # both defining formulas agree (asserted inside hcomp2 as well)
    from arrowcat.basemor import compose

    got = hcomp2(beta, alpha)
    assert got.mat == compose(beta.cto.top, alpha.mat) + compose(beta.mat, alpha.cfrom.bottom)


def test_interchange_random():
    rng = random.Random(515)
    b = Bounds(max_dim=2)
    for ring in (GF(2), GF(5), ZZ):
        for _ in range(10):
            x = random_two_object(rng, ring, b)
            y = random_two_object(rng, ring, b)
            z = random_two_object(rng, ring, b)
            u = random_square(rng, x, y)
            v = random_square(rng, y, z)
            a1 = random_cell_on(rng, u, b)
            a2 = random_cell_on(rng, a1.cto, b)
            b1 = random_cell_on(rng, v, b)
            b2 = random_cell_on(rng, b1.cto, b)
            lhs = hcomp2(vcomp2(b2, b1), vcomp2(a2, a1))
            rhs = vcomp2(hcomp2(b2, a2), hcomp2(b1, a1))
            assert lhs == rhs


@pytest.mark.parametrize("ring", (GF(2), GF(3), GF(5), ZZ), ids=str)
def test_null_cell(ring):
    """null_cell(u) is the zero-matrix cell u => 0 exactly when u is strictly
    zero; a square that is only nullhomotopic is refused."""
    from arrowcat.limits2 import biproduct2

    rng = random.Random(1600 + (ring.p or 0))
    b = Bounds(max_dim=3)
    refused = 0
    for _ in range(15):
        x, y, z = (random_two_object(rng, ring, b) for _ in range(3))
        bp = biproduct2([x, y])
        strict = (
            zero2(x, y),
            compose2(bp.projections[1], bp.injections[0]),
            compose2(random_square(rng, y, z), zero2(x, y)),
        )
        for u in strict:
            assert null_cell(u) == cell_to_zero(u, zero_mor(u.src.bottom, u.dst.top))
        # a deformed extension: e.m => 0 by its cell, but e.m is not zero
        ext = extension_on(rng, x, y, b)
        for u in (compose2(ext.e, ext.m), random_square(rng, x, y)):
            if not u.is_zero_mor():
                refused += 1
                with pytest.raises(ValueError):
                    null_cell(u)
    assert refused >= 5


def test_square_must_commute():
    from arrowcat import z_object

    with pytest.raises(ValueError):
        # a deliberately non-commuting square on the doubling object
        zz = two_object(base_morphism(z_object(1), z_object(1), [[2]]))
        TwoMorphism(
            zz,
            zz,
            base_morphism(z_object(1), z_object(1), [[1]]),
            base_morphism(z_object(1), z_object(1), [[2]]),
        )


# ---------------------------------------------------------------------------
# The square and cell equations, against schoolbook integer arithmetic
# ---------------------------------------------------------------------------

EQUATION_RINGS = (GF(2), GF(3), GF(5), ZZ)


def _red(x, e):
    return x % e if e else x


def _oracle_product(g, f):
    """Matrix of g after f by plain integer sums, reduced into g.dst."""
    return tuple(
        tuple(_red(sum(g.mat[i][k] * f.mat[k][j] for k in range(f.dst.ngens)), e) for j in range(f.src.ngens))
        for i, e in enumerate(g.dst.orders)
    )


def _oracle_difference(a, b):
    return tuple(
        tuple(_red(x - y, e) for x, y in zip(ra, rb)) for ra, rb, e in zip(a.mat, b.mat, a.dst.orders)
    )


def _oracle_square_fails(src, dst, top, bottom):
    return _oracle_product(dst.boundary, top) != _oracle_product(bottom, src.boundary)


def _oracle_cell_fails(cfrom, cto, mat):
    """None when the cell equations hold, else the first one that fails."""
    if _oracle_difference(cfrom.top, cto.top) != _oracle_product(mat, cfrom.src.boundary):
        return "top"
    if _oracle_difference(cfrom.bottom, cto.bottom) != _oracle_product(cfrom.dst.boundary, mat):
        return "bottom"
    return None


def _bumps(m):
    """Every morphism that differs from m in one entry by the smallest
    well-defined nonzero step."""
    for i, e in enumerate(m.dst.orders):
        for j, d in enumerate(m.src.orders):
            if d and not e:
                continue  # a torsion generator cannot reach a free one
            step = e // gcd(e, d) if d else 1
            if e and step % e == 0:
                continue
            rows = [list(r) for r in m.mat]
            rows[i][j] += step
            yield base_morphism(m.src, m.dst, rows)


def _pair(rng, ring, zero_source):
    """Two random objects; the first has a zero boundary when zero_source."""
    b = Bounds(max_dim=3)
    if zero_source:
        a = two_object(zero_mor(random_base_object(rng, ring, b), random_base_object(rng, ring, b)))
    else:
        a = random_two_object(rng, ring, b)
    return a, random_two_object(rng, ring, b)


@pytest.mark.parametrize("ring", EQUATION_RINGS, ids=str)
def test_perturbed_square_does_not_commute(ring):
    rng = random.Random(8100 + (ring.p or 0))
    failing = 0
    for _ in range(30):
        a, b = _pair(rng, ring, zero_source=False)
        u = random_square(rng, a, b)
        perturbed = [(t, u.bottom) for t in _bumps(u.top)] + [(u.top, m) for m in _bumps(u.bottom)]
        for top, bottom in perturbed:
            if _oracle_square_fails(a, b, top, bottom):
                failing += 1
                with pytest.raises(ValueError, match="square does not commute"):
                    TwoMorphism(a, b, top, bottom)
            else:
                TwoMorphism(a, b, top, bottom)
    assert failing >= 10


@pytest.mark.parametrize("ring", EQUATION_RINGS, ids=str)
def test_perturbed_cell_fails_its_homotopy_equation(ring):
    rng = random.Random(8200 + (ring.p or 0))
    failing = {"top": 0, "bottom": 0}
    for k in range(30):
        # a zero source boundary leaves the top equation blind to the matrix,
        # so perturbing the matrix there can only break the bottom equation
        a, b = _pair(rng, ring, zero_source=k % 2 == 1)
        u = random_square(rng, a, b)
        cell = random_cell_on(rng, u, Bounds(max_dim=2))
        perturbed = [(u, cell.cto, m) for m in _bumps(cell.mat)]
        # moving the target square along a kernel of the boundary keeps it
        # a square but breaks one equation
        for t in _bumps(cell.cto.top):
            if not _oracle_square_fails(a, b, t, cell.cto.bottom):
                perturbed.append((u, TwoMorphism(a, b, t, cell.cto.bottom), cell.mat))
        for m in _bumps(cell.cto.bottom):
            if not _oracle_square_fails(a, b, cell.cto.top, m):
                perturbed.append((u, TwoMorphism(a, b, cell.cto.top, m), cell.mat))
        for cfrom, cto, mat in perturbed:
            which = _oracle_cell_fails(cfrom, cto, mat)
            if which is None:
                TwoCell(cfrom, cto, mat)
                continue
            failing[which] += 1
            with pytest.raises(ValueError, match=f"cell fails the {which} homotopy equation"):
                TwoCell(cfrom, cto, mat)
    assert failing["top"] >= 10 and failing["bottom"] >= 10, failing


@pytest.mark.parametrize("ring", EQUATION_RINGS, ids=str)
def test_matrix_verdict_equals_composed_verdict(ring):
    """The reduced-matrix checks decide exactly as comparing the composed
    morphisms does, on valid and on non-commuting instances alike."""
    rng = random.Random(8300 + (ring.p or 0))
    b2 = Bounds(max_dim=2)
    seen = {True: 0, False: 0}
    for k in range(25):
        a, b = _pair(rng, ring, zero_source=k % 3 == 2)
        u = random_square(rng, a, b)
        # a random pair of components usually does not commute
        top = random_base_morphism(rng, a.top, b.top, b2) if k % 2 else u.top
        bottom = random_base_morphism(rng, a.bottom, b.bottom, b2)
        composed = compose(b.boundary, top) != compose(bottom, a.boundary)
        assert (_product(b.boundary, top) != _product(bottom, a.boundary)) == composed
        seen[composed] += 1
        try:
            TwoMorphism(a, b, top, bottom)
            raised = False
        except ValueError as exc:
            assert str(exc) == "square does not commute"
            raised = True
        assert raised == composed

        v = random_square(rng, a, b)
        mat = random_cell_on(rng, u, b2).mat if k % 2 else random_base_morphism(rng, a.bottom, b.top, b2)
        for cto in (v, u, random_cell_on(rng, u, b2).cto):
            top_bad = u.top - cto.top != compose(mat, a.boundary)
            bottom_bad = u.bottom - cto.bottom != compose(b.boundary, mat)
            assert (_difference(u.top, cto.top) != _product(mat, a.boundary)) == top_bad
            assert (_difference(u.bottom, cto.bottom) != _product(b.boundary, mat)) == bottom_bad
            seen[top_bad or bottom_bad] += 1
            try:
                TwoCell(u, cto, mat)
                msg = None
            except ValueError as exc:
                msg = str(exc)
            expected = (
                "cell fails the top homotopy equation" if top_bad
                else "cell fails the bottom homotopy equation" if bottom_bad
                else None
            )
            assert msg == expected
    assert seen[True] >= 10 and seen[False] >= 10, seen


@pytest.mark.parametrize("ring", EQUATION_RINGS, ids=str)
def test_cell_to_a_zero_square_checks_its_matrix(ring):
    """The target of cell_to_zero is a zero square, whose components the
    cell equations subtract without arithmetic; a wrong matrix, the zero
    matrix on a nonzero square included, still fails them as the
    schoolbook oracle says, and the right one passes."""
    rng = random.Random(8400 + (ring.p or 0))
    b = Bounds(max_dim=3)
    verdicts = {None: 0, "top": 0, "bottom": 0}
    for k in range(20):
        x, y = _pair(rng, ring, zero_source=k % 3 == 2)
        ext = extension_on(rng, x, y, b)
        u = ext.cell.cfrom  # e.m, nullhomotopic by ext.cell
        cases = [(u, ext.cell.mat)] + [(u, m) for m in _bumps(ext.cell.mat)]
        v = random_square(rng, x, y)
        cases += [(w, zero_mor(w.src.bottom, w.dst.top)) for w in (u, v)]
        for w, mat in cases:
            which = _oracle_cell_fails(w, zero2(w.src, w.dst), mat)
            verdicts[which] += 1
            if which is None:
                assert cell_to_zero(w, mat).mat == mat
                continue
            with pytest.raises(ValueError, match=f"cell fails the {which} homotopy equation"):
                cell_to_zero(w, mat)
    assert min(verdicts.values()) >= 5, verdicts


def _fresh_zero(x, y):
    """The zero morphism x -> y, built without the interned zero_mor."""
    return BaseMorphism(x, y, tuple((0,) * x.ngens for _ in range(y.ngens)))


@pytest.mark.parametrize("ring", (GF(2), GF(3), GF(5), ZZ), ids=str)
def test_zero2_is_interned(ring):
    rng = random.Random(41)
    for _ in range(8):
        a = random_two_object(rng, ring, Bounds(max_dim=2))
        b = random_two_object(rng, ring, Bounds(max_dim=2))
        z = zero2(a, b)
        assert z is zero2(a, b)
        fresh = TwoMorphism(a, b, _fresh_zero(a.top, b.top), _fresh_zero(a.bottom, b.bottom))
        assert z == fresh and hash(z) == hash(fresh) and repr(z) == repr(fresh)


def test_zero2_stays_a_plain_function():
    # the layer tracer wraps only what inspect.isfunction accepts
    assert inspect.isfunction(zero2)
    assert zero2.__module__ == "arrowcat.core2"
    assert inspect.isfunction(zero2.__wrapped__)


# ---------------------------------------------------------------------------
# Interning: base morphisms, 2-objects, squares and cells live in weak tables
# ---------------------------------------------------------------------------

TABLES = (basemor._MORPHISMS, core2._TWO_OBJECTS, core2._SQUARES, core2._CELLS)


@pytest.fixture
def no_gc():
    """Cyclic collection off, after one full collection: entries then go
    only when a value's last reference does."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@pytest.mark.parametrize("ring", (GF(3), ZZ), ids=str)
def test_equal_values_are_one_instance(ring):
    rng = random.Random(27)
    for _ in range(8):
        x, y = (random_two_object(rng, ring, Bounds(max_dim=2)) for _ in range(2))
        u = random_square(rng, x, y)
        cell = random_cell_on(rng, u, Bounds(max_dim=2))
        assert TwoObject(x.boundary) is two_object(x.boundary) is x
        assert TwoMorphism(x, y, u.top, u.bottom) is compose2(identity2(y), u) is compose2(u, identity2(x)) is u
        assert TwoCell(cell.cfrom, cell.cto, cell.mat) is cell.inverse().inverse() is cell
        assert identity_cell(u) is TwoCell(u, u, zero_mor(x.bottom, y.top))


def _noncommuting_square():
    # the doubling object Z -2-> Z, with components 1 on top and 2 below
    x = two_object(base_morphism(z_object(1), z_object(1), [[2]]))
    one, two = base_morphism(z_object(1), z_object(1), [[1]]), base_morphism(z_object(1), z_object(1), [[2]])
    return (x, x, one, two), TwoMorphism, "square does not commute"


def _bad_cell():
    # the identity square of the doubling object has no nonzero loop
    x = two_object(base_morphism(z_object(1), z_object(1), [[2]]))
    u = identity2(x)
    return (u, u, identity_mor(z_object(1))), TwoCell, "cell fails the top homotopy equation"


def _out_of_range_entry():
    v = field_object(GF(5), 1)
    return (v, v, ((5,),)), BaseMorphism, "matrix not canonically reduced"


@pytest.mark.parametrize("case", [_noncommuting_square, _bad_cell, _out_of_range_entry], ids=lambda f: f.__name__[1:])
def test_failed_construction_registers_nothing(case, no_gc):
    """A value is registered only once every check passed: a failed build
    leaves every table as it was, while its traceback still holds the
    rejected instance, and the next build raises again with the same
    message."""
    args, cls, message = case()
    sizes = [len(t) for t in TABLES]
    with pytest.raises(ValueError) as first:
        cls(*args)
    assert str(first.value) == message
    assert [len(t) for t in TABLES] == sizes
    with pytest.raises(ValueError) as again:
        cls(*args)
    assert str(again.value) == message


def test_entry_goes_with_its_value(no_gc):
    v = field_object(GF(2**31 - 1), 1)
    key = (v, v, ((20260427,),))
    f = BaseMorphism(*key)
    x = TwoObject(f)
    u = identity2(x)
    cell = identity_cell(u)
    refs = [weakref.ref(value) for value in (f, x, u, cell)]
    assert basemor._MORPHISMS[key] is f
    del f, x, u, cell
    gc.collect()
    assert [ref() for ref in refs] == [None] * 4
    assert key not in basemor._MORPHISMS
    # no table keeps an entry for a value that is gone
    assert all(len(table) == len(list(table.values())) for table in TABLES)
