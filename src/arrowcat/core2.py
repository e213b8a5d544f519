"""Arrows, squares and homotopies: the groupoid-enriched layer.

An object is a boundary morphism top -> bottom in the base.  A morphism is a
commutative square (u1, u0); a 2-cell alpha: (u1,u0) => (u1',u0') is a base
morphism bottom(source) -> top(target) with

    u1 - u1' = alpha . d_src        u0 - u0' = d_dst . alpha

exactly.  Vertical composition adds the matrices, horizontal composition is
beta * alpha = v1' . alpha + beta . u0 (the alternative formula is asserted
equal), and identities/zeros are strict: a strictly zero square is
nullhomotopic by the zero cell (null_cell).

Objects, squares and cells are slotted values (rings._Value), not
dataclasses: none carries a __dict__ and each is immutable.  Like base
morphisms they are interned in weak tables (weakref.WeakValueDictionary),
keyed by their field tuple: equal values are one instance, equality and
hashing are identity, and a table holds only live values.

Each distinct square and cell is checked once, when it is first built, and
registered only once its checks passed.  The commutativity of a square and
the two homotopy equations of a cell are compared as canonically reduced
matrices (basemor._product and basemor._difference), without building the
composites as morphisms; the components themselves are validated
BaseMorphisms.  zero2 also keeps its most recent zero squares in a bounded
memo.

The same two layouts - the commutativity of a square and the two homotopy
equations of a cell - are what every "there is a square or a cell such
that ..." question solves for.  add_square, add_cell and add_homotopy
declare such unknowns on a baselin.LinearSystem and emit these equations,
so they are written out only here.
"""

from __future__ import annotations

from typing import NamedTuple
from weakref import WeakValueDictionary

from .baselin import LinearSystem, base_objects
from .baseobj import BaseObject, zero_object
from .basemor import BaseMorphism, _difference, _memo, _product, compose, identity_mor, zero_mor
from .rings import BaseRing, _Value


_TWO_OBJECTS = WeakValueDictionary()  # boundary -> the live TwoObject
_SQUARES = WeakValueDictionary()  # (src, dst, top, bottom) -> the live TwoMorphism
_CELLS = WeakValueDictionary()  # (cfrom, cto, mat) -> the live TwoCell


class TwoObject(_Value):
    __slots__ = ("boundary", "__weakref__")
    __match_args__ = ("boundary",)

    boundary: BaseMorphism

    def __new__(cls, boundary: BaseMorphism):
        self = _TWO_OBJECTS.get(boundary)
        if self is None:
            self = object.__new__(cls)
            object.__setattr__(self, "boundary", boundary)
            _TWO_OBJECTS[boundary] = self
        return self

    @property
    def top(self) -> BaseObject:
        return self.boundary.src

    @property
    def bottom(self) -> BaseObject:
        return self.boundary.dst

    @property
    def ring(self) -> BaseRing:
        return self.boundary.ring

    def __str__(self) -> str:
        return f"({self.top} -> {self.bottom})"


def two_object(boundary: BaseMorphism) -> TwoObject:
    return TwoObject(boundary)


def zero_two_object(ring: BaseRing) -> TwoObject:
    z = zero_object(ring)
    return TwoObject(zero_mor(z, z))


def is_zero_equivalent(x: TwoObject) -> bool:
    """An object is equivalent to 0 exactly when its boundary is invertible,
    that is mono and epi."""
    objects = base_objects(x.boundary)
    return objects.ker.is_zero and objects.coker.is_zero


class TwoMorphism(_Value):
    __slots__ = ("src", "dst", "top", "bottom", "__weakref__")
    __match_args__ = ("src", "dst", "top", "bottom")

    src: TwoObject
    dst: TwoObject
    top: BaseMorphism
    bottom: BaseMorphism

    def __new__(cls, src: TwoObject, dst: TwoObject, top: BaseMorphism, bottom: BaseMorphism):
        key = (src, dst, top, bottom)
        self = _SQUARES.get(key)
        if self is not None:
            return self
        src_boundary, dst_boundary = src.boundary, dst.boundary
        if top.src is not src_boundary.src or top.dst is not dst_boundary.src:
            raise ValueError("top component has the wrong endpoints")
        if bottom.src is not src_boundary.dst or bottom.dst is not dst_boundary.dst:
            raise ValueError("bottom component has the wrong endpoints")
        if _product(dst_boundary, top) != _product(bottom, src_boundary):
            raise ValueError("square does not commute")
        self = object.__new__(cls)
        set_field = object.__setattr__
        set_field(self, "src", src)
        set_field(self, "dst", dst)
        set_field(self, "top", top)
        set_field(self, "bottom", bottom)
        _SQUARES[key] = self
        return self

    def __add__(self, other: "TwoMorphism") -> "TwoMorphism":
        if self.src != other.src or self.dst != other.dst:
            raise ValueError("sum of non-parallel squares")
        return TwoMorphism(self.src, self.dst, self.top + other.top, self.bottom + other.bottom)

    def __sub__(self, other: "TwoMorphism") -> "TwoMorphism":
        return self + (-other)

    def __neg__(self) -> "TwoMorphism":
        return TwoMorphism(self.src, self.dst, -self.top, -self.bottom)

    def is_zero_mor(self) -> bool:
        return self.top.is_zero_mor() and self.bottom.is_zero_mor()


def two_morphism(src: TwoObject, dst: TwoObject, top: BaseMorphism, bottom: BaseMorphism) -> TwoMorphism:
    return TwoMorphism(src, dst, top, bottom)


def identity2(x: TwoObject) -> TwoMorphism:
    return TwoMorphism(x, x, identity_mor(x.top), identity_mor(x.bottom))


@_memo
def zero2(src: TwoObject, dst: TwoObject) -> TwoMorphism:
    return TwoMorphism(src, dst, zero_mor(src.top, dst.top), zero_mor(src.bottom, dst.bottom))


def compose2(b: TwoMorphism, a: TwoMorphism) -> TwoMorphism:
    """b after a, componentwise."""
    if a.dst != b.src:
        raise ValueError("non-composable squares")
    return TwoMorphism(a.src, b.dst, compose(b.top, a.top), compose(b.bottom, a.bottom))


class TwoCell(_Value):
    """alpha: cfrom => cto between parallel squares."""

    __slots__ = ("cfrom", "cto", "mat", "__weakref__")
    __match_args__ = ("cfrom", "cto", "mat")

    cfrom: TwoMorphism
    cto: TwoMorphism
    mat: BaseMorphism  # src.bottom -> dst.top

    def __new__(cls, cfrom: TwoMorphism, cto: TwoMorphism, mat: BaseMorphism):
        key = (cfrom, cto, mat)
        self = _CELLS.get(key)
        if self is not None:
            return self
        src, dst = cfrom.src, cfrom.dst
        if src is not cto.src or dst is not cto.dst:
            raise ValueError("cell between non-parallel squares")
        src_boundary, dst_boundary = src.boundary, dst.boundary
        if mat.src is not src_boundary.dst or mat.dst is not dst_boundary.src:
            raise ValueError("cell matrix has the wrong endpoints")
        if _difference(cfrom.top, cto.top) != _product(mat, src_boundary):
            raise ValueError("cell fails the top homotopy equation")
        if _difference(cfrom.bottom, cto.bottom) != _product(dst_boundary, mat):
            raise ValueError("cell fails the bottom homotopy equation")
        self = object.__new__(cls)
        set_field = object.__setattr__
        set_field(self, "cfrom", cfrom)
        set_field(self, "cto", cto)
        set_field(self, "mat", mat)
        _CELLS[key] = self
        return self

    @property
    def src(self) -> TwoObject:
        return self.cfrom.src

    @property
    def dst(self) -> TwoObject:
        return self.cfrom.dst

    def inverse(self) -> "TwoCell":
        return TwoCell(self.cto, self.cfrom, -self.mat)


def two_cell(cfrom: TwoMorphism, cto: TwoMorphism, mat: BaseMorphism) -> TwoCell:
    return TwoCell(cfrom, cto, mat)


def identity_cell(u: TwoMorphism) -> TwoCell:
    return TwoCell(u, u, zero_mor(u.src.bottom, u.dst.top))


def identity_like_cell(u: TwoMorphism, v: TwoMorphism) -> TwoCell:
    """The zero cell u => v; TwoCell rejects it unless u and v are strictly equal."""
    return TwoCell(u, v, zero_mor(u.src.bottom, u.dst.top))


def cell_to_zero(u: TwoMorphism, mat: BaseMorphism) -> TwoCell:
    """The cell u => 0 with the given matrix."""
    return TwoCell(u, zero2(u.src, u.dst), mat)


def null_cell(u: TwoMorphism) -> TwoCell:
    """The zero cell u => 0; TwoCell rejects it unless u is strictly zero."""
    return TwoCell(u, zero2(u.src, u.dst), zero_mor(u.src.bottom, u.dst.top))


def deform(u: TwoMorphism, mat: BaseMorphism) -> TwoCell:
    """The cell u => u' obtained by pushing u along an arbitrary matrix."""
    top = u.top - compose(mat, u.src.boundary)
    bottom = u.bottom - compose(u.dst.boundary, mat)
    return TwoCell(u, TwoMorphism(u.src, u.dst, top, bottom), mat)


def vcomp2(c2: TwoCell, c1: TwoCell) -> TwoCell:
    """c2 after c1 (vertical composition: matrix sum)."""
    if c1.cto != c2.cfrom:
        raise ValueError("cells do not meet")
    return TwoCell(c1.cfrom, c2.cto, c1.mat + c2.mat)


def whisker_left(v: TwoMorphism, c: TwoCell) -> TwoCell:
    """v * c : v.cfrom => v.cto."""
    if c.dst != v.src:
        raise ValueError("whisker mismatch")
    return TwoCell(
        compose2(v, c.cfrom), compose2(v, c.cto), compose(v.top, c.mat)
    )


def whisker_right(c: TwoCell, u: TwoMorphism) -> TwoCell:
    """c * u : cfrom.u => cto.u."""
    if u.dst != c.src:
        raise ValueError("whisker mismatch")
    return TwoCell(
        compose2(c.cfrom, u), compose2(c.cto, u), compose(c.mat, u.bottom)
    )


def hcomp2(beta: TwoCell, alpha: TwoCell) -> TwoCell:
    """beta * alpha, with both defining formulas asserted equal."""
    if alpha.dst != beta.src:
        raise ValueError("horizontal composition mismatch")
    first = compose(beta.cto.top, alpha.mat) + compose(beta.mat, alpha.cfrom.bottom)
    second = compose(beta.mat, alpha.cto.bottom) + compose(beta.cfrom.top, alpha.mat)
    if first != second:
        raise AssertionError("the two horizontal composition formulas disagree")
    return TwoCell(
        compose2(beta.cfrom, alpha.cfrom), compose2(beta.cto, alpha.cto), first
    )


def loop_cell(src: TwoObject, dst: TwoObject, mat: BaseMorphism) -> TwoCell:
    """A cell 0 => 0 given by a matrix with alpha.d = 0 and d.alpha = 0."""
    return TwoCell(zero2(src, dst), zero2(src, dst), mat)


# ---------------------------------------------------------------------------
# Unknown squares and cells of a LinearSystem
# ---------------------------------------------------------------------------


class SquareUnknown(NamedTuple):
    """An unknown square X: src -> dst, with components named top and bottom."""

    src: TwoObject
    dst: TwoObject
    top: str
    bottom: str


class CellUnknown(NamedTuple):
    """An unknown cell matrix src.bottom -> dst.top."""

    src: TwoObject
    dst: TwoObject
    name: str


def add_square(sys: LinearSystem, name: str, src: TwoObject, dst: TwoObject) -> SquareUnknown:
    """Declare X1 (name + "1") and X0 (name + "0") and emit the
    commutativity equation d_dst . X1 - X0 . d_src = 0."""
    sq = SquareUnknown(src, dst, name + "1", name + "0")
    sys.add_unknown(sq.top, src.top, dst.top)
    sys.add_unknown(sq.bottom, src.bottom, dst.bottom)
    sys.add_equation([(1, dst.boundary, sq.top, None), (-1, None, sq.bottom, src.boundary)])
    return sq


def add_cell(sys: LinearSystem, name: str, src: TwoObject, dst: TwoObject) -> CellUnknown:
    """Declare an unknown cell matrix alpha: bottom(src) -> top(dst)."""
    sys.add_unknown(name, src.bottom, dst.top)
    return CellUnknown(src, dst, name)


def add_homotopy(sys: LinearSystem, cell: CellUnknown | None, cfrom, cto) -> None:
    """Emit the equations of cell: cfrom => cto,

        F1 - G1 = alpha . d_src        F0 - G0 = d_dst . alpha.

    Each side is a known TwoMorphism or a list of (coef, left, square,
    right) terms standing for the sum of coef * left . X . right, with left
    and right TwoMorphisms or None (an empty list is zero).  When cfrom holds
    unknowns the rows read F - G - alpha.d = known, otherwise G + alpha.d = F.
    cell None asks for F = G strictly.
    """
    sign = 1 if isinstance(cfrom, list) and cfrom else -1
    for part in ("top", "bottom"):
        terms = _side_terms(cfrom, part, sign) + _side_terms(cto, part, -sign)
        if cell is not None:
            if part == "top":
                terms.append((-sign, None, cell.name, cell.src.boundary))
            else:
                terms.append((-sign, cell.dst.boundary, cell.name, None))
        f, g = _known(cfrom, part), _known(cto, part)
        if f is not None:
            rhs = f if g is None else f - g
        elif g is not None:
            rhs = g if sign > 0 else -g
        else:
            rhs = None
        sys.add_equation(terms, rhs)


def _known(side, part: str) -> BaseMorphism | None:
    return getattr(side, part) if isinstance(side, TwoMorphism) else None


def _side_terms(side, part: str, sign: int) -> list:
    if isinstance(side, TwoMorphism):
        return []
    return [
        (
            sign * coef,
            None if left is None else getattr(left, part),
            getattr(sq, part),
            None if right is None else getattr(right, part),
        )
        for coef, left, sq, right in side
    ]


def solved_square(sol: dict[str, BaseMorphism], sq: SquareUnknown) -> TwoMorphism:
    """The square a solution assigns to an unknown square."""
    return TwoMorphism(sq.src, sq.dst, sol[sq.top], sol[sq.bottom])
