"""Seeded random instances: objects, squares, cells, extensions, complexes.

Everything is driven by random.Random(seed), so identical seeds reproduce
identical instances.  Structured instances (extensions, chain-complex
extensions, lemma diagrams) are built constructively - biproduct skeletons
conjugated by homotopy deformations - never by rejection, so the advertised
hypotheses hold by construction.
"""

from __future__ import annotations

import random
from math import gcd
from typing import NamedTuple

from .baselin import LinearSystem, copair_base
from .baseobj import BaseObject, field_object, make_object, zero_object
from .basemor import BaseMorphism, base_morphism, compose, zero_mor
from .core2 import (
    TwoCell,
    TwoMorphism,
    TwoObject,
    add_cell,
    add_homotopy,
    add_square,
    cell_to_zero,
    compose2,
    deform,
    identity2,
    identity_like_cell,
    null_cell,
    solved_square,
    vcomp2,
    whisker_left,
    whisker_right,
)
from .limits2 import biproduct2, copair2, pair2
from .rings import BaseRing


# free entries of random morphisms lie in [-MAX_ENTRY, MAX_ENTRY]; a torsion
# order that would pass MAX_TORSION becomes a free generator instead
MAX_ENTRY = 4
MAX_TORSION = 8
# coefficient range of the homogeneous basis vectors added by _sample_system
SAMPLE_SPREAD = 2


class Bounds:
    def __init__(self, max_dim: int = 3):
        self.max_dim = max_dim
        if not 0 <= self.max_dim <= 6:
            raise ValueError(f"max dimension must lie in 0..6, got {self.max_dim}")


def random_base_object(rng: random.Random, ring: BaseRing, bounds: Bounds) -> BaseObject:
    n = rng.randrange(0, bounds.max_dim + 1)
    if ring.is_field:
        return field_object(ring, n)
    free = 0
    tors = []
    d = 1
    for _ in range(n):
        if rng.random() < 0.45:
            free += 1
            continue
        d = rng.choice([2, 2, 3, 4]) if d == 1 else d * rng.choice([1, 1, 2])
        if d > MAX_TORSION:
            free += 1
        else:
            tors.append(d)
    return make_object(ring, tuple(tors) + (0,) * free)


def random_finite_object(rng: random.Random, ring: BaseRing, max_order: int = 64) -> BaseObject:
    """A finite object of total order at most max_order (used by brute-force oracles)."""
    if ring.is_field:
        p = ring.p
        n = 0
        while p ** (n + 1) <= max_order and n < 6 and rng.random() < 0.7:
            n += 1
        return field_object(ring, n)
    orders = []
    total = 1
    d = rng.choice([2, 2, 3, 4])
    while total * d <= max_order and rng.random() < 0.75:
        orders.append(d)
        total *= d
        d = d * rng.choice([1, 1, 2])
    return make_object(ring, tuple(orders))


def random_base_morphism(rng: random.Random, src: BaseObject, dst: BaseObject, bounds: Bounds) -> BaseMorphism:
    rows = []
    for e in dst.orders:
        row = []
        for d in src.orders:
            if d == 0:
                x = rng.randrange(0, e) if e else rng.randint(-MAX_ENTRY, MAX_ENTRY)
            elif e == 0:
                x = 0
            else:
                step = e // gcd(e, d)
                x = step * rng.randrange(0, e // step)
            row.append(x)
        rows.append(row)
    return base_morphism(src, dst, rows)


def random_two_object(rng: random.Random, ring: BaseRing, bounds: Bounds) -> TwoObject:
    top = random_base_object(rng, ring, bounds)
    bottom = random_base_object(rng, ring, bounds)
    return TwoObject(random_base_morphism(rng, top, bottom, bounds))


def _sample_system(rng: random.Random, sys: LinearSystem) -> dict[str, BaseMorphism]:
    sol = sys.solve()
    if sol is None:
        raise AssertionError("sampling system must be solvable")
    basis = sys.homogeneous_basis()
    coeffs = [rng.randint(-SAMPLE_SPREAD, SAMPLE_SPREAD) for _ in basis]
    picks = {}
    for name, m in sol.items():
        acc = [list(r) for r in m.mat]
        for c, entry in zip(coeffs, basis):
            if c == 0:
                continue
            raw = entry[name]
            for i, row in enumerate(raw):
                for j, x in enumerate(row):
                    acc[i][j] += c * x
        picks[name] = base_morphism(m.src, m.dst, acc)
    return picks


def random_square(rng: random.Random, a: TwoObject, b: TwoObject) -> TwoMorphism:
    sys = LinearSystem(a.ring)
    u = add_square(sys, "u", a, b)
    return solved_square(_sample_system(rng, sys), u)


def random_cell_on(rng: random.Random, u: TwoMorphism, bounds: Bounds) -> TwoCell:
    alpha = random_base_morphism(rng, u.src.bottom, u.dst.top, bounds)
    return deform(u, alpha)


def random_self_equivalence(rng: random.Random, x: TwoObject, bounds: Bounds) -> TwoMorphism:
    """A square x -> x homotopic to the identity (hence an equivalence)."""
    alpha = random_base_morphism(rng, x.bottom, x.top, bounds)
    return deform(identity2(x), alpha).cto


class ExtensionInstance(NamedTuple):
    m: TwoMorphism  # A -> M
    cell: TwoCell  # e.m => 0
    e: TwoMorphism  # M -> C


def random_extension(rng: random.Random, ring: BaseRing, bounds: Bounds) -> ExtensionInstance:
    a = random_two_object(rng, ring, bounds)
    c = random_two_object(rng, ring, bounds)
    return extension_on(rng, a, c, bounds)


def extension_on(rng: random.Random, a: TwoObject, c: TwoObject, bounds: Bounds) -> ExtensionInstance:
    bp = biproduct2([a, c])
    m = bp.injections[0]
    e = bp.projections[1]
    cell = null_cell(compose2(e, m))
    # deform both legs, transporting the nullhomotopy along the whiskers
    chi = random_base_morphism(rng, a.bottom, bp.obj.top, bounds)
    dm = deform(m, chi)
    xi = random_base_morphism(rng, bp.obj.bottom, c.top, bounds)
    de = deform(e, xi)
    return ExtensionInstance(dm.cto, _transport_null_cell(cell, de, dm), de.cto)


class ComplexInstance(NamedTuple):
    lo: int
    hi: int
    objects: list[TwoObject]
    diffs: list[TwoMorphism]  # diffs[i]: objects[i] -> objects[i+1]
    cells: list[TwoCell]  # cells[i]: diffs[i+1] . diffs[i] => 0


def random_complex(rng: random.Random, ring: BaseRing, length: int, bounds: Bounds) -> ComplexInstance:
    objs = [random_two_object(rng, ring, bounds) for _ in range(length)]
    diffs: list[TwoMorphism] = []
    cells: list[TwoCell] = []
    for i in range(length - 1):
        if i == 0:
            diffs.append(random_square(rng, objs[0], objs[1]))
            continue
        prev = diffs[i - 1]
        nxt, cell = _next_differential(rng, prev, objs[i + 1], cells[-1] if cells else None, diffs)
        diffs.append(nxt)
        cells.append(cell)
    return ComplexInstance(0, length - 1, objs, diffs, cells)


def _next_differential(rng, prev: TwoMorphism, target: TwoObject, prev_cell: TwoCell | None, diffs):
    """Sample (d, alpha) with alpha: d.prev => 0 and alpha compatible with the
    previous nullhomotopy."""
    a, b = prev.src, prev.dst
    sys = LinearSystem(a.ring)
    d = add_square(sys, "d", b, target)
    al = add_cell(sys, "al", a, target)
    # cell condition: al: d.prev => 0
    add_homotopy(sys, al, [(1, None, d, prev)], [])
    if prev_cell is not None:
        # compatibility with the previous cell: d1 . prev_cell = al . (prev prev).bottom
        sys.add_equation(
            [(1, None, d.top, prev_cell.mat), (-1, None, al.name, diffs[-2].bottom)]
        )
    picks = _sample_system(rng, sys)
    nxt = solved_square(picks, d)
    alpha = cell_to_zero(compose2(nxt, prev), picks[al.name])
    return nxt, alpha


class ComplexExtensionInstance(NamedTuple):
    sub: ComplexInstance  # A.
    total: ComplexInstance  # B. = A. (+) C. degreewise
    quot: ComplexInstance  # C.
    maps_in: list[TwoMorphism]  # f_n: A_n -> B_n
    maps_in_cells: list[TwoCell]  # b_n f_n => f_{n+1} a_n
    maps_out: list[TwoMorphism]  # g_n: B_n -> C_n
    maps_out_cells: list[TwoCell]
    omegas: list[TwoCell]  # g_n f_n => 0


def random_complex_extension(rng, ring, length, bounds) -> ComplexExtensionInstance:
    sub = random_complex(rng, ring, length, bounds)
    quot = random_complex(rng, ring, length, bounds)
    bps = [biproduct2([an, cn]) for an, cn in zip(sub.objects, quot.objects)]
    maps_in = [bp.injections[0] for bp in bps]
    maps_out = [bp.projections[1] for bp in bps]
    quot_in = [bp.injections[1] for bp in bps]
    diffs = [
        copair2(compose2(maps_in[i + 1], sub.diffs[i]), compose2(quot_in[i + 1], quot.diffs[i]))
        for i in range(length - 1)
    ]
    cells = [
        cell_to_zero(compose2(d1, d0), copair_base(compose(fa.top, ca.mat), compose(fc.top, cc.mat)))
        for d0, d1, fa, fc, ca, cc in zip(diffs, diffs[1:], maps_in[2:], quot_in[2:], sub.cells, quot.cells)
    ]
    total = ComplexInstance(0, length - 1, [bp.obj for bp in bps], diffs, cells)
    omegas = [null_cell(compose2(g, f)) for f, g in zip(maps_in, maps_out)]
    in_cells = [
        identity_like_cell(compose2(diffs[i], maps_in[i]), compose2(maps_in[i + 1], sub.diffs[i]))
        for i in range(length - 1)
    ]
    out_cells = [
        identity_like_cell(compose2(quot.diffs[i], maps_out[i]), compose2(maps_out[i + 1], diffs[i]))
        for i in range(length - 1)
    ]
    return ComplexExtensionInstance(sub, total, quot, maps_in, in_cells, maps_out, out_cells, omegas)


class SnakeInstance(NamedTuple):
    row1: tuple  # (f, eta, g)
    row2: tuple  # (f2, eta2, g2)
    cols: tuple  # (a, b, c)
    cells: tuple  # (phi, psi)


def random_snake_instance(rng: random.Random, ring: BaseRing, bounds: Bounds) -> SnakeInstance:
    """Two extension rows with jointly sampled columns and commuting cells."""
    a_obj = random_two_object(rng, ring, bounds)
    c_obj = random_two_object(rng, ring, bounds)
    a2_obj = random_two_object(rng, ring, bounds)
    c2_obj = random_two_object(rng, ring, bounds)
    r1 = extension_on(rng, a_obj, c_obj, bounds)
    r2 = extension_on(rng, a2_obj, c2_obj, bounds)
    return _connect_rows(rng, r1, r2)


def _connect_rows(rng, r1: ExtensionInstance, r2: ExtensionInstance) -> SnakeInstance:
    f, eta, g = r1.m, r1.cell, r1.e
    f2, eta2, g2 = r2.m, r2.cell, r2.e
    A, C, A2, C2 = f.src, g.dst, f2.src, g2.dst
    B1, B2 = f.dst, f2.dst
    ring = f.top.ring
    sys = LinearSystem(ring)
    a_sq = add_square(sys, "a", A, A2)
    b_sq = add_square(sys, "b", B1, B2)
    c_sq = add_square(sys, "c", C, C2)
    ph = add_cell(sys, "ph", A, B2)
    ps = add_cell(sys, "ps", B1, C2)
    # ph: b.f => f2.a and ps: c.g => g2.b
    add_homotopy(sys, ph, [(1, None, b_sq, f)], [(1, f2, a_sq, None)])
    add_homotopy(sys, ps, [(1, None, c_sq, g)], [(1, g2, b_sq, None)])
    # pasting: eta2.a0 + g2.ph + ps.f0 = c1.eta
    sys.add_equation(
        [
            (1, eta2.mat, a_sq.bottom, None),
            (1, g2.top, ph.name, None),
            (1, None, ps.name, f.bottom),
            (-1, None, c_sq.top, eta.mat),
        ]
    )
    picks = _sample_system(rng, sys)
    a = solved_square(picks, a_sq)
    b = solved_square(picks, b_sq)
    c = solved_square(picks, c_sq)
    phi = TwoCell(compose2(b, f), compose2(f2, a), picks[ph.name])
    psi = TwoCell(compose2(c, g), compose2(g2, b), picks[ps.name])
    return SnakeInstance((f, eta, g), (f2, eta2, g2), (a, b, c), (phi, psi))


def random_generalized_snake_instance(rng, ring, bounds) -> SnakeInstance:
    """Rows with (g, eta) = Coker f and (f2, eta2) = Ker g2 only.

    Built from a plain instance by precomposing the top row with a fully
    cofaithful square and postcomposing the bottom row with a fully faithful
    one, transporting the cells along the whiskers.
    """
    inst = random_snake_instance(rng, ring, bounds)
    f, eta, g = inst.row1
    f2, eta2, g2 = inst.row2
    a, b, c = inst.cols
    phi, psi = inst.cells
    # top row: precompose f with the projection that collapses a connected
    # summand (projections along connected objects are fully cofaithful)
    w = random_base_object(rng, ring, bounds)
    pad = TwoObject(zero_mor(w, zero_object(ring)))
    bp = biproduct2([pad, f.src])
    r = bp.projections[1]
    f = compose2(f, r)
    eta = whisker_right(eta, r)
    a = compose2(a, r)
    phi = whisker_right(phi, r)
    # bottom row: postcompose g2 with the injection next to a discrete
    # summand (such injections are fully faithful)
    v = random_base_object(rng, ring, bounds)
    pad2 = TwoObject(zero_mor(zero_object(ring), v))
    bp2 = biproduct2([g2.dst, pad2])
    n = bp2.injections[0]
    g2 = compose2(n, g2)
    eta2 = whisker_left(n, eta2)
    c = compose2(n, c)
    psi = whisker_left(n, psi)
    return SnakeInstance((f, eta, g), (f2, eta2, g2), (a, b, c), (phi, psi))


def to_complex_sequence(ci: ComplexInstance):
    from .sequences import ComplexSequence

    return ComplexSequence(ci.lo, tuple(ci.objects), tuple(ci.diffs), tuple(ci.cells))


def to_chain_maps(ce: ComplexExtensionInstance):
    """(fmap, omegas, gmap) of a generated complex extension."""
    from .sequences import ChainMap

    sub = to_complex_sequence(ce.sub)
    tot = to_complex_sequence(ce.total)
    quo = to_complex_sequence(ce.quot)
    fmap = ChainMap(sub, tot, tuple(ce.maps_in), tuple(ce.maps_in_cells))
    gmap = ChainMap(tot, quo, tuple(ce.maps_out), tuple(ce.maps_out_cells))
    return fmap, tuple(ce.omegas), gmap


def _transport_square_cell(theta, dv, du, dw, dx):
    """theta: v.u => w.x transported along edge deformations d_e: e => e'.

    Path: v'.u' => v'.u => v.u => w.x => w'.x => w'.x'.
    """
    c1 = whisker_left(dv.cto, du.inverse())
    c2 = whisker_right(dv.inverse(), du.cfrom)
    c3 = whisker_right(dw, dx.cfrom)
    c4 = whisker_left(dw.cto, dx)
    return vcomp2(c4, vcomp2(c3, vcomp2(theta, vcomp2(c2, c1))))


def _transport_null_cell(eta, dg, df):
    """eta: g.f => 0 transported to g'.f' => 0."""
    c1 = whisker_left(dg.cto, df.inverse())
    c2 = whisker_right(dg.inverse(), df.cfrom)
    return vcomp2(eta, vcomp2(c2, c1))


class ThreeByThreeInstance(NamedTuple):
    f: tuple
    g: tuple
    eta: tuple
    a: tuple
    b: tuple
    c: tuple
    alpha: TwoCell
    beta: TwoCell
    gamma: TwoCell
    phi: tuple
    psi: tuple


def random_3x3_instance(rng: random.Random, ring: BaseRing, bounds: Bounds) -> ThreeByThreeInstance:
    """A commuting 3x3 grid with extension rows and columns: a block-diagonal
    skeleton on four random objects, deformed edgewise by homotopies with
    all ten cells transported along the whiskers."""
    x = random_two_object(rng, ring, bounds)
    y = random_two_object(rng, ring, bounds)
    p = random_two_object(rng, ring, bounds)
    q = random_two_object(rng, ring, bounds)
    b1 = biproduct2([x, y])
    a2 = biproduct2([x, p])
    c2 = biproduct2([y, q])
    b3 = biproduct2([p, q])
    b2 = biproduct2([x, y, p, q])
    i_x, i_y, i_p, _ = b2.injections
    _, p_y, p_p, p_q = b2.projections
    f1 = b1.injections[0]
    g1 = b1.projections[1]
    f2 = copair2(i_x, i_p)
    g2 = pair2(p_y, p_q)
    f3 = b3.injections[0]
    g3 = b3.projections[1]
    a1 = a2.injections[0]
    a2m = a2.projections[1]
    b1m = copair2(i_x, i_y)
    b2m = pair2(p_p, p_q)
    c1m = c2.injections[0]
    c2m = c2.projections[1]

    edges = {
        "f1": f1, "f2": f2, "f3": f3, "g1": g1, "g2": g2, "g3": g3,
        "a1": a1, "a2": a2m, "b1": b1m, "b2": b2m, "c1": c1m, "c2": c2m,
    }
    defs = {}
    for name, e in edges.items():
        alpha = random_base_morphism(rng, e.src.bottom, e.dst.top, bounds)
        defs[name] = deform(e, alpha)
    new = {k: d.cto for k, d in defs.items()}

    def transported_null(f_, g_):
        null = null_cell(compose2(edges[g_], edges[f_]))
        return _transport_null_cell(null, defs[g_], defs[f_])

    def transported_square(v, u, w, xx):
        strict = identity_like_cell(compose2(edges[v], edges[u]), compose2(edges[w], edges[xx]))
        return _transport_square_cell(strict, defs[v], defs[u], defs[w], defs[xx])

    eta = tuple(transported_null(f_, g_) for f_, g_ in (("f1", "g1"), ("f2", "g2"), ("f3", "g3")))
    alpha = transported_null("a1", "a2")
    beta = transported_null("b1", "b2")
    gamma = transported_null("c1", "c2")
    phi = tuple(
        transported_square(*names) for names in (("b1", "f1", "f2", "a1"), ("b2", "f2", "f3", "a2"))
    )
    psi = tuple(
        transported_square(*names) for names in (("c1", "g1", "g2", "b1"), ("c2", "g2", "g3", "b2"))
    )
    return ThreeByThreeInstance(
        f=(new["f1"], new["f2"], new["f3"]),
        g=(new["g1"], new["g2"], new["g3"]),
        eta=eta,
        a=(new["a1"], new["a2"]),
        b=(new["b1"], new["b2"]),
        c=(new["c1"], new["c2"]),
        alpha=alpha, beta=beta, gamma=gamma,
        phi=phi, psi=psi,
    )


def random_shortfive_instance(rng, ring, bounds, flanks="random"):
    """A map of extensions; flanks: 'random' or 'equivalence'.

    Equivalence flanks are self-equivalences of the top row's end objects,
    so the bottom row is drawn on the same end objects and the middle column
    is solved against the flanks.
    """
    if flanks == "random":
        return random_snake_instance(rng, ring, bounds)
    top = random_extension(rng, ring, bounds)
    f, eta, g = top.m, top.cell, top.e
    bottom = extension_on(rng, f.src, g.dst, bounds)
    f2, eta2, g2 = bottom.m, bottom.cell, bottom.e
    a = random_self_equivalence(rng, f.src, bounds)
    c = random_self_equivalence(rng, g.dst, bounds)
    B1, B2 = f.dst, f2.dst
    sys = LinearSystem(ring)
    b_sq = add_square(sys, "b", B1, B2)
    ph = add_cell(sys, "ph", f.src, B2)
    ps = add_cell(sys, "ps", B1, g2.dst)
    # ph: b.f => f2.a and ps: c.g => g2.b
    add_homotopy(sys, ph, [(1, None, b_sq, f)], compose2(f2, a))
    add_homotopy(sys, ps, compose2(c, g), [(1, g2, b_sq, None)])
    # pasting: ps.f0 + g2.ph = c.eta - eta2.a0
    sys.add_equation(
        [(1, None, ps.name, f.bottom), (1, g2.top, ph.name, None)],
        compose(c.top, eta.mat) - compose(eta2.mat, a.bottom),
    )
    sol = sys.solve()
    if sol is None:
        raise AssertionError("no middle column between the equivalence flanks")
    b = solved_square(sol, b_sq)
    phi = TwoCell(compose2(b, f), compose2(f2, a), sol[ph.name])
    psi = TwoCell(compose2(c, g), compose2(g2, b), sol[ps.name])
    return SnakeInstance((f, eta, g), (f2, eta2, g2), (a, b, c), (phi, psi))
