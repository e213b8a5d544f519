"""Exact computational abelian category over F_p and Z.

Kernels, cokernels, images, biproducts, pullbacks/pushouts, factoring a
morphism (factor_base) and von Neumann splitting all reduce to linear
algebra in one of two engines.  Over F_p it is row reduction mod p
(modsolve): a kernel is the reduced-row-echelon nullspace basis, an image
the nonzero rows of the reduced row echelon form of the transpose, a
cokernel the complement of their pivot columns.  These bases depend only
on the subspaces, not on the order of elimination.  Over Z it is integer
congruence solving through the Smith normal form (snf), with objects kept
in invariant-factor form and interned, so that isomorphic objects are one
instance: splitting and exactness are decided by comparing objects, without
a solve.
Factoring through a map (factor_base) takes exactly one side and is one
solve per generator order, with a matrix right-hand side: one row reduction
of [L | H] over F_p.
A biproduct keeps the concatenated orders of its parts, with block
identities, whenever they are already in that form (always over F_p); a map
into or out of it (pair_base, copair_base) is then its stacked rows or
joined columns.  Either way, morphisms produced here are always expressed
in the canonical generators.
"""

from __future__ import annotations

import functools
import itertools
from typing import NamedTuple

from . import intmat
from .baseobj import BaseObject, field_object, make_object
from .basemor import BaseMorphism, _memo, _product, _reduced, base_morphism, compose, identity_mor, zero_mor
from .intmat import Matrix
from .modsolve import nullspace_mod_p, row_space_mod_p, solve_mod_p
from .rings import ZZ, BaseRing
from .snf import kernel_lattice, smith_normal_form, solve_int


# ---------------------------------------------------------------------------
# Over Z: presentations by generators and relation columns, put into
# invariant-factor form by the Smith normal form.
# ---------------------------------------------------------------------------


def relation_columns(orders) -> tuple[Matrix, int]:
    """(columns d_i * e_i for every torsion order d_i, their count), over Z."""
    cols = [(i, d) for i, d in enumerate(orders) if d != 0]
    m = [[0] * len(cols) for _ in orders]
    for j, (i, d) in enumerate(cols):
        m[i][j] = d
    return intmat.mat(m), len(cols)


class Presentation(NamedTuple):
    """Canonical form of <ngens generators | relation columns>."""

    obj: BaseObject
    # coordinates of old generators in the canonical basis (obj.ngens x ngens)
    to_canon: Matrix
    # canonical generators expressed in the old coordinates (ngens x obj.ngens)
    from_canon: Matrix


def canonicalize(ngens: int, relations: Matrix, nrel: int) -> Presentation:
    """The invariant-factor form over Z of <ngens generators | relations>."""
    snf = smith_normal_form(relations, ngens, nrel, v=False)
    d, u, u_inv = snf.d, snf.u, snf.u_inv
    # generators whose invariant factor is 1 vanish; the others keep it as
    # their order (0 past the diagonal: free)
    kept = [i for i in range(ngens) if i >= nrel or d[i][i] != 1]
    orders = [d[i][i] if i < nrel else 0 for i in kept]
    obj = make_object(ZZ, orders)
    to_canon = tuple(
        tuple(_red(u[i][j], orders[r]) for j in range(ngens))
        for r, i in enumerate(kept)
    )
    from_canon = tuple(tuple(u_inv[i][j] for j in kept) for i in range(ngens))
    return Presentation(obj, to_canon, from_canon)


def _red(x: int, order: int) -> int:
    return x % order if order else x


def subgroup(ambient: BaseObject, gen_cols: Matrix, ncols: int):
    """The subgroup generated by columns of gen_cols, with its inclusion, over Z."""
    rel, ntors = relation_columns(ambient.orders)
    stacked = intmat.hstack([gen_cols, rel], ambient.ngens)
    basis = kernel_lattice(stacked, ambient.ngens, ncols + ntors)
    rel = tuple(tuple(v[j] for v in basis) for j in range(ncols))
    pres = canonicalize(ncols, rel, len(basis))
    incl_cols = intmat.mul(gen_cols, pres.from_canon, ncols)
    incl = base_morphism(pres.obj, ambient, incl_cols)
    return pres.obj, incl, pres


def quotient(ambient: BaseObject, kill_cols: Matrix, ncols: int):
    """The quotient by the subgroup generated by kill_cols, with its projection, over Z."""
    rel, ntors = relation_columns(ambient.orders)
    pres = canonicalize(ambient.ngens, intmat.hstack([kill_cols, rel], ambient.ngens), ncols + ntors)
    return pres.obj, base_morphism(ambient, pres.obj, pres.to_canon)


# ---------------------------------------------------------------------------
# Over F_p: every vector space is F_p^n and a subspace is held by its reduced
# row echelon basis.
# ---------------------------------------------------------------------------


def _transpose(f: BaseMorphism) -> list[tuple[int, ...]]:
    """The columns of f's matrix, one per source generator."""
    return [tuple(row[j] for row in f.mat) for j in range(f.src.ngens)]


def _columns_mor(src: BaseObject, dst: BaseObject, cols) -> BaseMorphism:
    """The morphism whose matrix has the given reduced columns."""
    return BaseMorphism(src, dst, tuple(tuple(v[i] for v in cols) for i in range(dst.ngens)))


@_memo
def kernel_base(f: BaseMorphism):
    """(K, k) with k mono, f.k = 0, universal among such."""
    if f.is_zero_mor():
        return f.src, identity_mor(f.src)
    if f.ring.is_field:
        basis = nullspace_mod_p(f.mat, f.dst.ngens, f.src.ngens, f.ring.p)
        k_obj = field_object(f.ring, len(basis))
        return k_obj, _columns_mor(k_obj, f.src, basis)
    rel, ntors = relation_columns(f.dst.orders)
    stacked = intmat.hstack([f.mat, rel], f.dst.ngens)
    basis = kernel_lattice(stacked, f.dst.ngens, f.src.ngens + ntors)
    gen_cols = tuple(tuple(v[i] for v in basis) for i in range(f.src.ngens))
    k_obj, incl, _ = subgroup(f.src, gen_cols, len(basis))
    return k_obj, incl


@_memo
def cokernel_base(f: BaseMorphism):
    """(Q, q) with q epi, q.f = 0, universal among such."""
    if f.is_zero_mor():
        return f.dst, identity_mor(f.dst)
    if f.ring.is_field:
        # the rows of q annihilate the image: row a is e_N[a] minus the
        # reduced image basis at the pivots, N the non-pivot coordinates
        rows = nullspace_mod_p(_transpose(f), f.src.ngens, f.dst.ngens, f.ring.p)
        q_obj = field_object(f.ring, len(rows))
        return q_obj, BaseMorphism(f.dst, q_obj, tuple(rows))
    return quotient(f.dst, f.mat, f.src.ngens)


def image_comparison(f: BaseMorphism):
    """(I, m, e) with m mono, e epi and m.e = f."""
    if f.ring.is_field:
        # m includes the reduced row echelon basis of the column space; a
        # column of f has the coordinates it reads at the pivots
        basis, pivots = row_space_mod_p(_transpose(f), f.src.ngens, f.dst.ngens, f.ring.p)
        i_obj = field_object(f.ring, len(basis))
        incl = _columns_mor(i_obj, f.dst, basis)
        e = BaseMorphism(f.src, i_obj, tuple(f.mat[c] for c in pivots))
    else:
        i_obj, incl, pres = subgroup(f.dst, f.mat, f.src.ngens)
        # the subgroup is presented on the generator images of f, so to_canon
        # expresses each of them in the canonical subgroup basis
        e = base_morphism(f.src, i_obj, pres.to_canon)
    if compose(incl, e) != f:
        raise AssertionError("image factorization must exist")
    return i_obj, incl, e


@_memo
def biproduct_base(parts: tuple[BaseObject, ...]):
    """(sum, injections, projections) with strict delta identities; the
    injections and projections are tuples in the order of parts.  The sum
    keeps the concatenated orders, with block identities, exactly when they
    are in invariant-factor form already; otherwise it is their Smith form."""
    if not parts:
        raise ValueError("empty biproduct")
    ring = parts[0].ring
    if any(p.ring != ring for p in parts):
        raise ValueError("biproduct across rings")
    orders = tuple(d for p in parts for d in p.orders)
    n = len(orders)
    try:  # BaseObject rejects orders that are not in invariant-factor form
        obj, to_canon, from_canon = BaseObject(ring, orders), intmat.identity(n), intmat.identity(n)
    except ValueError:
        pres = canonicalize(n, *relation_columns(orders))
        obj, to_canon, from_canon = pres.obj, pres.to_canon, pres.from_canon
    blocks = list(zip(parts, itertools.accumulate((p.ngens for p in parts), initial=0)))
    injections = tuple(base_morphism(p, obj, [r[o : o + p.ngens] for r in to_canon]) for p, o in blocks)
    projections = tuple(base_morphism(obj, p, from_canon[o : o + p.ngens]) for p, o in blocks)
    return obj, injections, projections


def pair_base(*maps: BaseMorphism) -> BaseMorphism:
    """sum_k i_k . f_k: X -> Y_1 (+) ... (+) Y_n of maps f_k: X -> Y_k: their
    stacked rows over block identities, else one reduced sum of products."""
    obj, injections, _ = biproduct_base(tuple(f.dst for f in maps))
    if any(f.src != maps[0].src for f in maps):
        raise ValueError("pairing needs a common source")
    if obj.orders == sum((f.dst.orders for f in maps), ()):
        mat = tuple(row for f in maps for row in f.mat)
    else:
        mat = _reduced(functools.reduce(intmat.add, map(_product, injections, maps)), obj)
    return BaseMorphism(maps[0].src, obj, mat)


def copair_base(*maps: BaseMorphism) -> BaseMorphism:
    """sum_k f_k . p_k: X_1 (+) ... (+) X_n -> Y of maps f_k: X_k -> Y: their
    joined columns over block identities, else one reduced sum of products."""
    obj, _, projections = biproduct_base(tuple(f.src for f in maps))
    dst = maps[0].dst
    if any(f.dst != dst for f in maps):
        raise ValueError("copairing needs a common target")
    if obj.orders == sum((f.src.orders for f in maps), ()):
        mat = intmat.hstack([f.mat for f in maps], dst.ngens)
    else:
        mat = _reduced(functools.reduce(intmat.add, map(_product, maps, projections)), dst)
    return BaseMorphism(obj, dst, mat)


def pullback_base(f: BaseMorphism, g: BaseMorphism):
    """(P, pA, pB) universal over the cospan f: A->C, g: B->C."""
    p_obj, incl = kernel_base(copair_base(f, -g))
    _, _, (pa, pb) = biproduct_base((f.src, g.src))
    return p_obj, compose(pa, incl), compose(pb, incl)


def pushout_base(f: BaseMorphism, g: BaseMorphism):
    """(P, iA, iB) universal under the span f: C->A, g: C->B."""
    q_obj, proj = cokernel_base(pair_base(f, -g))
    _, (ia, ib), _ = biproduct_base((f.dst, g.dst))
    return q_obj, compose(proj, ia), compose(proj, ib)


# ---------------------------------------------------------------------------
# Linear systems over the base: the systems in unknown squares and cells of
# the 2-dimensional layer that couple them, and the generators' draws.
# ---------------------------------------------------------------------------


class _Unknown(NamedTuple):
    src: BaseObject
    dst: BaseObject
    offset: int


class LinearSystem:
    """Linear equations in unknown base morphisms, solved as one integer system.

    An unknown X: src -> dst is a dst x src matrix; over Z its
    well-definedness congruences are kept in their own list and placed ahead
    of the equation rows at assembly.  An equation has the form

        sum_i  coef_i * L_i . X_{name_i} . R_i  ==  rhs   (mod target orders)

    where L_i, R_i and rhs are base morphisms, None standing for an identity
    side or a zero right-hand side.  The target object and the column count
    are read off the terms, which must agree.  Unknown squares and cells of
    the 2-dimensional layer are declared through core2 (add_square, add_cell,
    add_homotopy), which spells out their equations once.
    """

    def __init__(self, ring: BaseRing):
        self.ring = ring
        self._unknowns: dict[str, _Unknown] = {}
        self._ncols = 0
        self._wd_rows: list[list[int]] = []
        self._wd_mods: list[int] = []
        self._rows: list[list[int]] = []
        self._rhs: list[int] = []
        self._mods: list[int] = []

    def add_unknown(self, name: str, src: BaseObject, dst: BaseObject):
        if name in self._unknowns:
            raise ValueError(f"duplicate unknown {name}")
        u = _Unknown(src, dst, self._ncols)
        self._unknowns[name] = u
        self._ncols += src.ngens * dst.ngens
        # over a field every generator has order p and the well-definedness
        # congruences are vacuous
        if not self.ring.is_field:
            for j, d in enumerate(src.orders):
                if d == 0:
                    continue
                for i, e in enumerate(dst.orders):
                    row = [0] * self._ncols
                    row[u.offset + i * src.ngens + j] = d
                    self._wd_rows.append(row)
                    self._wd_mods.append(e)
        return u

    def add_equation(self, terms, rhs: BaseMorphism | None = None):
        """terms: list of (coef, left, name, right) for coef * left . X_name . right."""
        target = source = None
        parts = []
        for coef, left, name, right in terms:
            u = self._unknowns[name]
            if (left is not None and left.src != u.dst) or (right is not None and right.dst != u.src):
                raise ValueError(f"term endpoints do not match unknown {name}")
            t = u.dst if left is None else left.dst
            s = u.src if right is None else right.src
            if target is None:
                target, source = t, s
            elif t != target or s != source:
                raise ValueError("equation terms disagree on their endpoints")
            parts.append((coef, None if left is None else left.mat, u.offset, u.src.ngens,
                          None if right is None else right.mat))
        if target is None:
            raise ValueError("equation without terms")
        if rhs is not None and (rhs.src != source or rhs.dst != target):
            raise ValueError("right-hand side has the wrong endpoints")
        for r in range(target.ngens):
            for c in range(source.ngens):
                row = [0] * self._ncols
                for coef, lmat, offset, ns, rmat in parts:
                    lrow = ((r, 1),) if lmat is None else enumerate(lmat[r])
                    for i, li in lrow:
                        if li == 0:
                            continue
                        base = offset + i * ns
                        if rmat is None:
                            row[base + c] += coef * li
                            continue
                        for j in range(ns):
                            rj = rmat[j][c]
                            if rj:
                                row[base + j] += coef * li * rj
                self._rows.append(row)
                self._rhs.append(0 if rhs is None else rhs.mat[r][c])
                self._mods.append(target.orders[r])

    def _layout(self):
        """(rows, rhs, moduli), well-definedness rows first, padded to full width."""
        rows = [r + [0] * (self._ncols - len(r)) for r in self._wd_rows + self._rows]
        return rows, [0] * len(self._wd_rows) + self._rhs, self._wd_mods + self._mods

    def _assemble(self):
        rows, rhs, mods = self._layout()
        nrows = len(rows)
        self._reduced_rhs = [x % m if m else x for x, m in zip(rhs, mods)]
        reduced = [[x % m for x in row] if m else row for row, m in zip(rows, mods)]
        rel, nslack = relation_columns(mods)
        return intmat.hstack([reduced, rel], nrows), nrows, self._ncols + nslack

    def solve(self) -> dict[str, BaseMorphism] | None:
        if self.ring.is_field:
            rows, rhs, _ = self._layout()
            x = solve_mod_p(rows, [(v,) for v in rhs], len(rows), self._ncols, 1, self.ring.p)
            return None if x is None else self._extract(tuple(r[0] for r in x))
        a, nrows, ncols = self._assemble()
        b = tuple((x,) for x in self._reduced_rhs)
        if nrows == 0:
            x = intmat.zeros(ncols, 1)
        else:
            x = solve_int(a, b, nrows, ncols)
        if x is None:
            return None
        return self._extract(tuple(r[0] for r in x))

    def _extract(self, vec) -> dict[str, BaseMorphism]:
        out = {}
        for name, (src, dst, offset) in self._unknowns.items():
            rows = [
                [vec[offset + i * src.ngens + j] for j in range(src.ngens)]
                for i in range(dst.ngens)
            ]
            out[name] = base_morphism(src, dst, rows)
        return out

    def homogeneous_basis(self) -> list[dict[str, Matrix]]:
        """Basis of the solution lattice of the homogeneous system, projected
        to the unknowns (raw integer matrices, not reduced)."""
        if self.ring.is_field:
            rows, _, _ = self._layout()
            basis = nullspace_mod_p(rows, len(rows), self._ncols, self.ring.p)
        else:
            a, nrows, ncols = self._assemble()
            basis = kernel_lattice(a, nrows, ncols)
        out = []
        for v in basis:
            entry = {}
            hit = False
            for name, (src, dst, offset) in self._unknowns.items():
                rows = tuple(
                    tuple(v[offset + i * src.ngens + j] for j in range(src.ngens))
                    for i in range(dst.ngens)
                )
                entry[name] = rows
                if not intmat.is_zero(rows):
                    hit = True
            if hit:
                out.append(entry)
        return out


def _solve_by_order(ring, a, b, orders, x_orders, row_orders):
    """Y with a.Y = b, or None, one solve per distinct order d of the columns
    of b and Y (orders).  Over F_p that is one row reduction of [a | b].
    Over Z the unknowns have orders x_orders, and a row of a is taken modulo
    its row_orders entry, or modulo d if row_orders is None (Y is x^T): the
    well-definedness congruences of Y go first, then relation columns and
    one solve_int."""
    nrows, ncols = len(a), len(x_orders)
    if ring.is_field:
        return solve_mod_p(a, b, nrows, ncols, len(orders), ring.p)
    groups: dict[int, list[int]] = {}
    for k, d in enumerate(orders):
        groups.setdefault(d, []).append(k)
    y = [[0] * len(orders) for _ in range(ncols)]
    for d, cols in groups.items():
        part = [[row[k] for k in cols] for row in b]
        if not any(map(any, part)):  # solve_int would give 0 too
            continue
        if row_orders is None:  # d is the order of the row of x
            wd, mods = [(o, d) for o in x_orders], (d,) * nrows
        else:  # d is the order of the column of x
            wd, mods = [(d, o) for o in x_orders], row_orders
        # a congruence that is identically zero (m divides c) is not written
        kept = [(i, _red(c, m), m) for i, (c, m) in enumerate(wd) if _red(c, m)]
        rows = [[c if j == i else 0 for j in range(ncols)] for i, c, _ in kept]
        rows += [[_red(x, m) for x in row] for row, m in zip(a, mods)]
        rhs = [(0,) * len(cols)] * len(kept) + [[_red(x, m) for x in v] for v, m in zip(part, mods)]
        rel, nslack = relation_columns([m for _, _, m in kept] + list(mods))
        sol = solve_int(intmat.hstack([rows, rel], len(rows)), rhs, len(rows), ncols + nslack)
        if sol is None:
            return None
        for y_row, sol_row, (_, m) in zip(y, sol, wd):
            for k, v in zip(cols, sol_row):
                y_row[k] = _red(v, m)
    return tuple(map(tuple, y))


def factor_base(
    h: BaseMorphism, left: BaseMorphism | None = None, right: BaseMorphism | None = None
) -> BaseMorphism | None:
    """Some x with left.x = h or x.right = h, or None; exactly one side is given.

    With a left side it splits by column of x (column c solves L.x_c = h_c
    with d_c.x_c = 0, d_c the order of source generator c), with a right
    side by row (row r solves R^T.x_r^T = h_r^T with d_j.x_rj = 0, all
    modulo the order of target generator r), one solve per order.  A zero h
    gives the interned zero morphism, without a solve: x = 0 solves both
    equations.  Both sides or neither, and mismatched endpoints, raise
    ValueError.
    """
    ring = h.ring
    if (left is None) == (right is None):
        raise ValueError("factor_base takes exactly one side")
    if left is not None:
        if left.dst != h.dst:
            raise ValueError("right-hand side has the wrong endpoints")
        if h.is_zero_mor():
            return zero_mor(h.src, left.src)
        y = _solve_by_order(ring, left.mat, h.mat, h.src.orders, left.src.orders, h.dst.orders)
        return None if y is None else BaseMorphism(h.src, left.src, y)
    if right.src != h.src:
        raise ValueError("right-hand side has the wrong endpoints")
    if h.is_zero_mor():
        return zero_mor(right.dst, h.dst)
    y = _solve_by_order(ring, _transpose(right), _transpose(h), h.dst.orders, right.dst.orders, None)
    return None if y is None else _columns_mor(right.dst, h.dst, y)


@_memo
def splits_base(f: BaseMorphism) -> bool:
    """Whether f has a von Neumann inverse g (f.g.f = f), without building one.

    f = m.e through its image I splits exactly when 0 -> ker f -> src -> I -> 0
    and 0 -> I -> dst -> coker f -> 0 split, and a short exact sequence
    0 -> A -> B -> C -> 0 of finitely generated modules splits iff B and
    A (+) C are isomorphic (Miyata 1967).  Objects are in invariant-factor
    form, so isomorphic objects are one instance.  Over F_p every map splits.
    """
    if f.ring.is_field:
        return True
    k_obj, k = kernel_base(f)
    i_obj = cokernel_base(k)[0]  # the coimage src / ker f, isomorphic to the image
    q_obj = cokernel_base(f)[0]
    return (
        biproduct_base((k_obj, i_obj))[0] == f.src
        and biproduct_base((i_obj, q_obj))[0] == f.dst
    )


@_memo
def split_data_base(f: BaseMorphism) -> BaseMorphism | None:
    """g with f.g.f = f and g.f.g = g, when f splits.

    f = m.e through its image splits exactly when m is a split mono and e a
    split epi; then g = section(e) . retraction(m).  The two one-sided
    inverse problems stay linear in f's entries.  splits_base decides the
    same question without the solves; this builds the witness.
    """
    i_obj, m, e = image_comparison(f)
    r = factor_base(identity_mor(i_obj), right=m)
    if r is None:
        return None
    s = factor_base(identity_mor(i_obj), left=e)
    if s is None:
        return None
    g = compose(s, r)
    if compose(f, compose(g, f)) != f or compose(g, compose(f, g)) != g:
        raise AssertionError("splitting witness fails its identities")
    return g


@_memo
def exact_at_base(f: BaseMorphism, g: BaseMorphism) -> bool:
    """Exactness of X -f-> Y -g-> Z at Y (requires g.f = 0)."""
    if not intmat.is_zero(_product(g, f)):
        raise ValueError("composite is not zero")
    # im f <= ker g makes coker f -> Y / ker g onto, and a surjection between
    # isomorphic finitely generated modules is an iso (they are Hopfian)
    return cokernel_base(f)[0] == cokernel_base(kernel_base(g)[1])[0]
