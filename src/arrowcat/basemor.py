"""Morphisms of the base category.

A morphism is an integer matrix acting on coordinate columns by left
multiplication.  Entries are canonically reduced: the entry into a target
generator of order e lives in [0, e).  Well-definedness over Z is checked at
construction (a source generator of order d must map to an element killed by
d) and invalid matrices are rejected rather than repaired.  Over Z a row is
checked whole, its range by min and max and divisibility at the torsion
source generators only; a row that fails reruns the entry-by-entry check,
so the first fault in row-major order is the one raised.

The check contract: each distinct BaseMorphism is validated once, when it
is first built.  Morphisms are interned in a weakref.WeakValueDictionary
keyed by (src, dst, mat): a live morphism with those fields is returned as
it is, and a new one is registered only once every check passed, so a
rejected matrix leaves no entry and raises again when it is built again.
The table holds only live morphisms, unlike the strong ring and object
tables: an entry goes when its morphism dies.  Equality and hashing are
identity, and the zero/identity kind is computed once per distinct
morphism and kept in its _kind slot.

The constructor takes only a tuple of tuples of int, which is what every
caller in the package passes; input from outside goes through
base_morphism, which converts and reduces it.  A new morphism with any
other matrix raises TypeError, so no True or 1.0 entry is ever registered,
but the lookup comes first: a bool or integral float matrix equal to the
matrix of a live morphism returns that morphism.  Checking entry types
before the lookup would add a scan of every entry to every hit.

One matrix kernel, _product and _difference, gives the canonically reduced
matrices of composites and differences; compose and __sub__ wrap them, and
the square and cell equations of core2 compare them directly, since two
parallel morphisms are equal exactly when their reduced matrices are.
Objects and rings are interned, so the endpoint checks (composable,
parallel, one ring) are identity tests.  zero_mor and identity_mor also
keep their most recent results in a bounded memo, which skips building
the matrix.  A zero or identity factor needs no arithmetic: compose
returns the zero morphism or the other factor, both validated already, and
_product their matrices.  Likewise _difference(a, 0) is a's own matrix,
reduced already; most differences in the cell checks subtract a zero
component.  A matrix is an identity only on an endomorphism: over Z,
[[1]]: Z/4 -> Z/2 is not one.

BaseMorphism is a slotted value (rings._Value), not a dataclass: it carries
no __dict__.
"""

from __future__ import annotations

import functools
from itertools import chain
from operator import index, mul
from weakref import WeakValueDictionary

from . import intmat
from .baseobj import BaseObject
from .intmat import Matrix
from .rings import _Value


_MEMO_SIZE = 256


def _memo(fn):
    """fn behind a least-recently-used memo of _MEMO_SIZE entries.

    For pure constructions on frozen values whose results are immutable: a
    hit hands the same result to every caller.  Arguments must be hashable,
    so a sequence is passed as a tuple; exceptions are not cached.  The
    memoized name stays a plain function, as the layer tracer wraps only
    functions; cache_info() counts the hits and __wrapped__ is the
    construction itself.
    """
    cached = functools.lru_cache(maxsize=_MEMO_SIZE)(fn)

    @functools.wraps(fn)
    def memoized(*args):
        return cached(*args)

    memoized.cache_info = cached.cache_info
    return memoized


_GENERAL, _ZERO, _IDENTITY = range(3)

_MORPHISMS = WeakValueDictionary()  # (src, dst, mat) -> the live BaseMorphism


def _reduce_entry(x: int, order: int) -> int:
    return x % order if order else x


class BaseMorphism(_Value):
    """src -> dst by the matrix mat, a tuple of tuples of int (see the module
    docstring); base_morphism builds one from any integer entries."""

    __slots__ = ("src", "dst", "mat", "_kind", "__weakref__")
    __match_args__ = ("src", "dst", "mat")

    src: BaseObject
    dst: BaseObject
    mat: Matrix

    def __new__(cls, src: BaseObject, dst: BaseObject, mat: Matrix):
        key = (src, dst, mat)
        try:
            self = _MORPHISMS.get(key)
        except TypeError:  # an unhashable matrix, rejected below
            self = None
        if self is not None:
            return self
        _check_exact(mat)
        if src.ring != dst.ring:
            raise ValueError("morphism between different rings")
        if not intmat.shape_ok(mat, dst.ngens, src.ngens):
            raise ValueError(
                f"matrix shape {len(mat)}x? does not match "
                f"{dst.ngens}x{src.ngens}"
            )
        p = src.ring.p
        if p is not None:
            # every generator has order p, so (p * x) % p == 0 always holds
            if src.ngens and dst.ngens and (min(map(min, mat)) < 0 or max(map(max, mat)) >= p):
                raise ValueError("matrix not canonically reduced")
        else:
            # whole rows; a failing row reruns the entry loop for its message
            torsion = src.torsion_gens
            for row, e in zip(mat, dst.orders):
                if e:
                    if row and (min(row) < 0 or max(row) >= e):
                        _raise_first_fault(src, dst, mat)
                    for j, d in torsion:
                        if d * row[j] % e:
                            _raise_first_fault(src, dst, mat)
                else:
                    for j, _ in torsion:
                        if row[j]:
                            _raise_first_fault(src, dst, mat)
        # compose, _product and _difference skip the arithmetic for these two
        if intmat.is_zero(mat):
            kind = _ZERO
        elif src is dst and mat == intmat.identity(len(mat)):
            kind = _IDENTITY
        else:
            kind = _GENERAL
        self = object.__new__(cls)
        set_field = object.__setattr__
        set_field(self, "src", src)
        set_field(self, "dst", dst)
        set_field(self, "mat", mat)
        set_field(self, "_kind", kind)
        _MORPHISMS[key] = self
        return self

    @property
    def ring(self):
        return self.src.ring

    def __mul__(self, other: "BaseMorphism") -> "BaseMorphism":
        return compose(self, other)

    def __add__(self, other: "BaseMorphism") -> "BaseMorphism":
        if self.src != other.src or self.dst != other.dst:
            raise ValueError("sum of non-parallel morphisms")
        return BaseMorphism(self.src, self.dst, _reduced(intmat.add(self.mat, other.mat), self.dst.orders))

    def __sub__(self, other: "BaseMorphism") -> "BaseMorphism":
        return BaseMorphism(self.src, self.dst, _difference(self, other))

    def __neg__(self) -> "BaseMorphism":
        return BaseMorphism(self.src, self.dst, _reduced(intmat.neg(self.mat), self.dst.orders))

    def is_zero_mor(self) -> bool:
        return intmat.is_zero(self.mat)

    def apply(self, coords: tuple[int, ...]) -> tuple[int, ...]:
        """Image of an element given by coordinates in the source generators."""
        if len(coords) != self.src.ngens:
            raise ValueError(
                f"{len(coords)} coordinates for a source with {self.src.ngens} generators"
            )
        out = []
        for i, e in enumerate(self.dst.orders):
            s = sum(self.mat[i][j] * c for j, c in enumerate(coords))
            out.append(_reduce_entry(s, e))
        return tuple(out)


def _check_exact(mat) -> None:
    """Raise TypeError unless mat is a tuple of tuples of int: True and 1.0
    equal 1, so a new morphism with such an entry would become the one
    shared value of the integer matrix."""
    if (
        type(mat) is not tuple
        or not set(map(type, mat)) <= {tuple}
        or not set(map(type, chain.from_iterable(mat))) <= {int}
    ):
        raise TypeError("a morphism matrix is a tuple of tuples of int")


def _raise_first_fault(src: BaseObject, dst: BaseObject, mat: Matrix) -> None:
    """Raise the first fault of the matrix over Z, in row-major order."""
    for i, e in enumerate(dst.orders):
        for j, d in enumerate(src.orders):
            x = mat[i][j]
            if x != _reduce_entry(x, e):
                raise ValueError("matrix not canonically reduced")
            if d != 0:
                if e == 0:
                    if x != 0:
                        raise ValueError(
                            f"ill-defined: torsion generator {j} hits a free generator"
                        )
                elif (d * x) % e != 0:
                    raise ValueError(
                        f"ill-defined entry at ({i},{j}): {e} does not divide {d}*{x}"
                    )


def _reduced(rows, orders) -> Matrix:
    """Rows of integers, row k reduced into the canonical range of orders[k]
    (a target generator's order, or a congruence's modulus; 0 is exact)."""
    return tuple([
        tuple([x % e for x in row]) if e else tuple(row)
        for row, e in zip(rows, orders)
    ])


def base_morphism(src: BaseObject, dst: BaseObject, entries) -> BaseMorphism:
    """Build a morphism, reducing entries into canonical range first.

    Entries must be integers (anything operator.index accepts); a float, a
    string or a Fraction raises TypeError rather than being truncated.
    """
    if len(entries) != dst.ngens:
        raise ValueError("matrix row count does not match target")
    return BaseMorphism(src, dst, _reduced([list(map(index, row)) for row in entries], dst.orders))


@_memo
def identity_mor(x: BaseObject) -> BaseMorphism:
    return BaseMorphism(x, x, intmat.identity(x.ngens))


@_memo
def zero_mor(src: BaseObject, dst: BaseObject) -> BaseMorphism:
    return BaseMorphism(src, dst, intmat.zeros(dst.ngens, src.ngens))


def _product(g: BaseMorphism, f: BaseMorphism) -> Matrix:
    """The canonically reduced matrix of g after f."""
    if f.dst != g.src:
        raise ValueError("non-composable morphisms")
    kf, kg = f._kind, g._kind
    if kf == _ZERO or kg == _ZERO:
        return intmat.zeros(g.dst.ngens, f.src.ngens)
    if kf == _IDENTITY:
        return g.mat
    if kg == _IDENTITY:
        return f.mat
    return _multiply(g, f)


def _multiply(g: BaseMorphism, f: BaseMorphism) -> Matrix:
    """The arithmetic of _product, for composable g and f."""
    cols = tuple(zip(*f.mat))
    p = g.ring.p
    if p is not None:
        return tuple([tuple([sum(map(mul, row, col)) % p for col in cols]) for row in g.mat])
    return tuple([
        tuple([sum(map(mul, row, col)) % e for col in cols]) if e
        else tuple([sum(map(mul, row, col)) for col in cols])
        for row, e in zip(g.mat, g.dst.orders)
    ])


def _difference(a: BaseMorphism, b: BaseMorphism) -> Matrix:
    """The canonically reduced matrix of a - b: a's own matrix, reduced
    since a is validated, when b is zero."""
    if a.src != b.src or a.dst != b.dst:
        raise ValueError("difference of non-parallel morphisms")
    if b._kind == _ZERO:
        return a.mat
    return _reduced(intmat.sub(a.mat, b.mat), a.dst.orders)


def compose(g: BaseMorphism, f: BaseMorphism) -> BaseMorphism:
    """g after f."""
    if f.dst != g.src:
        raise ValueError("non-composable morphisms")
    kf, kg = f._kind, g._kind
    if kf == _ZERO or kg == _ZERO:
        return zero_mor(f.src, g.dst)
    if kf == _IDENTITY:
        return g
    if kg == _IDENTITY:
        return f
    return BaseMorphism(f.src, g.dst, _multiply(g, f))
