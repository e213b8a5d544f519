"""Morphisms of the base category.

A morphism is an integer matrix acting on coordinate columns by left
multiplication.  Entries are canonically reduced: the entry into a target
generator of order e lives in [0, e).  Well-definedness over Z is checked at
construction (a source generator of order d must map to an element killed by
d) and invalid matrices are rejected rather than repaired.  Over Z a row is
checked whole, its range by min and max and divisibility at the torsion
source generators only; a row that fails reruns the entry-by-entry check,
so the first fault in row-major order is the one raised.

The check contract: every BaseMorphism that is built is validated.  One
matrix kernel, _product and _difference, gives the canonically reduced
matrices of composites and differences; compose and __sub__ wrap them, and
the square and cell equations of core2 compare them directly, since two
parallel morphisms are equal exactly when their reduced matrices are.
Objects and rings are interned, so the endpoint checks (composable,
parallel, one ring) are identity tests.  Zero and identity morphisms are
interned: each is built and validated once per pair of objects while it
stays in the bounded memo.  A zero or identity factor needs no arithmetic:
compose returns the interned zero morphism or the other factor, both
validated already, and _product their matrices.  Likewise _difference(a, 0)
is a's own matrix, reduced already; most differences in the cell checks
subtract a zero component.  A matrix is an identity only on an
endomorphism: over Z, [[1]]: Z/4 -> Z/2 is not one.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from operator import index, mul

from . import intmat
from .baseobj import BaseObject
from .intmat import Matrix


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


def _reduce_entry(x: int, order: int) -> int:
    return x % order if order else x


@dataclass(frozen=True)
class BaseMorphism:
    src: BaseObject
    dst: BaseObject
    mat: Matrix

    def __post_init__(self):
        if self.src.ring != self.dst.ring:
            raise ValueError("morphism between different rings")
        if not intmat.shape_ok(self.mat, self.dst.ngens, self.src.ngens):
            raise ValueError(
                f"matrix shape {len(self.mat)}x? does not match "
                f"{self.dst.ngens}x{self.src.ngens}"
            )
        p = self.src.ring.p
        if p is not None:
            # every generator has order p, so (p * x) % p == 0 always holds
            for row in self.mat:
                if row and (min(row) < 0 or max(row) >= p):
                    raise ValueError("matrix not canonically reduced")
            return
        # whole rows; a failing row reruns the entry loop for its message
        torsion = self.src.torsion_gens
        for row, e in zip(self.mat, self.dst.orders):
            if e:
                if row and (min(row) < 0 or max(row) >= e):
                    _raise_first_fault(self)
                for j, d in torsion:
                    if d * row[j] % e:
                        _raise_first_fault(self)
            else:
                for j, _ in torsion:
                    if row[j]:
                        _raise_first_fault(self)

    def __hash__(self) -> int:
        # the field hash of the dataclass, computed once: memo lookups hash
        # the same morphism many times
        try:
            return self.__dict__["_hash"]
        except KeyError:
            h = hash((self.src, self.dst, self.mat))
            object.__setattr__(self, "_hash", h)
            return h

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


def _raise_first_fault(m: BaseMorphism) -> None:
    """Raise the first fault of m's matrix over Z, in row-major order."""
    for i, e in enumerate(m.dst.orders):
        for j, d in enumerate(m.src.orders):
            x = m.mat[i][j]
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


def _kind(m: BaseMorphism) -> int:
    """_ZERO, _IDENTITY or _GENERAL, computed once per morphism and kept in
    its __dict__ like the hash: compose and _product skip the arithmetic for
    the first two."""
    try:
        return m.__dict__["_kind"]
    except KeyError:
        if intmat.is_zero(m.mat):
            kind = _ZERO
        elif m.src == m.dst and m.mat == intmat.identity(len(m.mat)):
            kind = _IDENTITY
        else:
            kind = _GENERAL
        object.__setattr__(m, "_kind", kind)
        return kind


def _product(g: BaseMorphism, f: BaseMorphism) -> Matrix:
    """The canonically reduced matrix of g after f."""
    if f.dst != g.src:
        raise ValueError("non-composable morphisms")
    kf, kg = _kind(f), _kind(g)
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
    if _kind(b) == _ZERO:
        return a.mat
    return _reduced(intmat.sub(a.mat, b.mat), a.dst.orders)


def compose(g: BaseMorphism, f: BaseMorphism) -> BaseMorphism:
    """g after f."""
    if f.dst != g.src:
        raise ValueError("non-composable morphisms")
    kf, kg = _kind(f), _kind(g)
    if kf == _ZERO or kg == _ZERO:
        return zero_mor(f.src, g.dst)
    if kf == _IDENTITY:
        return g
    if kg == _IDENTITY:
        return f
    return BaseMorphism(f.src, g.dst, _multiply(g, f))
