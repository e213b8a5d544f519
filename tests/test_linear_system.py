"""Property tests for LinearSystem over F2, F3 and torsion-only Z, against
brute force over the finite Hom sets.

A system has one or two unknowns and one or two equations of two-sided
terms coef * L . X . R.  A returned solution satisfies every equation and
is made of validated morphisms; None means that no tuple of morphisms
solves the system; the homogeneous basis satisfies the homogeneous system
and generates all of its solutions; equations without rows solve to zero.
About 1.3 s of Tier-1 on a 2-vCPU machine.  Skipped when hypothesis is
absent; it is a development tool, never a package dependency.
"""

from itertools import product
from math import gcd

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from arrowcat import GF, ZZ, base_morphism, field_object, z_object, zero_mor  # noqa: E402
from arrowcat.baselin import LinearSystem  # noqa: E402
from arrowcat.basemor import BaseMorphism, compose  # noqa: E402

RINGS = (GF(2), GF(3), ZZ)
OBJECTS = {
    GF(2): tuple(field_object(GF(2), n) for n in range(3)),
    GF(3): tuple(field_object(GF(3), n) for n in range(3)),
    ZZ: tuple(z_object(0, t) for t in ((), (2,), (3,), (4,), (2, 2), (2, 4), (6,))),
}
# brute force enumerates at most this many tuples of unknowns
CAP = 1000


def _entry_values(d: int, e: int) -> range:
    """The entries x of a map from a generator of order d to one of order e
    (both nonzero): d.x = 0 modulo e, reduced into [0, e)."""
    step = e // gcd(d, e)
    return range(0, e, step)


def _hom(src, dst) -> list[BaseMorphism]:
    """Every morphism src -> dst."""
    cells = [_entry_values(d, e) for e in dst.orders for d in src.orders]
    n = src.ngens
    return [
        BaseMorphism(src, dst, tuple(tuple(v[i * n : (i + 1) * n]) for i in range(dst.ngens)))
        for v in product(*cells)
    ]


def _hom_size(src, dst) -> int:
    size = 1
    for e in dst.orders:
        for d in src.orders:
            size *= len(_entry_values(d, e))
    return size


def _morphisms(src, dst):
    return st.sampled_from(_hom(src, dst))


def _value(terms, sol, src, dst) -> BaseMorphism:
    """sum coef * L . X . R over the terms, at the morphisms sol."""
    total = [[0] * src.ngens for _ in range(dst.ngens)]
    for coef, left, name, right in terms:
        m = compose(left, compose(sol[name], right)).mat
        total = [[t + coef * x for t, x in zip(tr, mr)] for tr, mr in zip(total, m)]
    return base_morphism(src, dst, total)


def _holds(equations, sol, homogeneous=False) -> bool:
    for terms, rhs, src, dst in equations:
        want = zero_mor(src, dst) if homogeneous or rhs is None else rhs
        if _value(terms, sol, src, dst) != want:
            return False
    return True


@st.composite
def systems(draw, rowless=False):
    """(ring, unknowns, equations): unknowns (name, src, dst), equations
    (terms, rhs, src, dst).  A right-hand side is None, drawn, or planted as
    the value of drawn unknowns, so that both outcomes are common.  rowless
    gives every equation a zero source or target."""
    ring = draw(st.sampled_from(RINGS))
    zero, *nonzero = OBJECTS[ring]
    objects = st.sampled_from([*nonzero, *nonzero, *nonzero, zero])  # zero drawn rarely
    unknowns = [(f"x{k}", draw(objects), draw(objects)) for k in range(draw(st.integers(1, 2)))]
    size = 1
    for _, src, dst in unknowns:
        size *= _hom_size(src, dst)
    assume(size <= CAP)
    planted = {name: draw(_morphisms(src, dst)) for name, src, dst in unknowns}
    equations = []
    for _ in range(draw(st.integers(1, 2))):
        src, dst = draw(objects), draw(objects)
        if rowless:
            if draw(st.booleans()):
                src = zero
            else:
                dst = zero
        terms = [
            (draw(st.integers(-2, 2)), draw(_morphisms(u_dst, dst)), name, draw(_morphisms(src, u_src)))
            for name, u_src, u_dst in draw(st.lists(st.sampled_from(unknowns), min_size=1, max_size=2))
        ]
        kind = draw(st.sampled_from(("none", "drawn", "planted")))
        rhs = {
            "none": None,
            "drawn": draw(_morphisms(src, dst)),
            "planted": _value(terms, planted, src, dst),
        }[kind]
        equations.append((terms, rhs, src, dst))
    return ring, unknowns, equations


def _build(ring, unknowns, equations) -> LinearSystem:
    sys_ = LinearSystem(ring)
    for name, src, dst in unknowns:
        sys_.add_unknown(name, src, dst)
    for terms, rhs, _, _ in equations:
        sys_.add_equation(terms, rhs)
    return sys_


def _candidates(unknowns):
    names = [name for name, _, _ in unknowns]
    for mors in product(*(_hom(src, dst) for _, src, dst in unknowns)):
        yield dict(zip(names, mors))


SETTINGS = settings(max_examples=300, deadline=None)


@SETTINGS
@given(systems())
def test_solve_is_a_solution_or_none_exists(system):
    ring, unknowns, equations = system
    sol = _build(ring, unknowns, equations).solve()
    if sol is None:
        assert not any(_holds(equations, cand) for cand in _candidates(unknowns))
        return
    assert sorted(sol) == sorted(name for name, _, _ in unknowns)
    for name, src, dst in unknowns:
        x = sol[name]
        assert (x.src, x.dst) == (src, dst)
        assert BaseMorphism(src, dst, x.mat) == x  # validated again
    assert _holds(equations, sol)


@SETTINGS
@given(systems())
def test_homogeneous_basis_generates_the_homogeneous_solutions(system):
    ring, unknowns, equations = system
    basis = _build(ring, unknowns, equations).homogeneous_basis()
    gens = []
    for entry in basis:
        sol = {name: base_morphism(src, dst, entry[name]) for name, src, dst in unknowns}
        assert _holds(equations, sol, homogeneous=True)
        gens.append(tuple(sol[name] for name, _, _ in unknowns))
    # the subgroup the basis generates, against every homogeneous solution
    zero = tuple(zero_mor(src, dst) for _, src, dst in unknowns)
    span, frontier = {zero}, [zero]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = tuple(a + b for a, b in zip(x, g))
            if y not in span:
                span.add(y)
                frontier.append(y)
    names = [name for name, _, _ in unknowns]
    solutions = {
        tuple(cand[n] for n in names) for cand in _candidates(unknowns) if _holds(equations, cand, homogeneous=True)
    }
    assert span == solutions


@settings(max_examples=40, deadline=None)
@given(systems(rowless=True))
def test_equations_without_rows_solve_to_zero(system):
    ring, unknowns, equations = system
    sol = _build(ring, unknowns, equations).solve()
    assert sol == {name: zero_mor(src, dst) for name, src, dst in unknowns}
