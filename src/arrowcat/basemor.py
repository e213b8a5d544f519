"""Morphisms of the base category.

A morphism is an integer matrix acting on coordinate columns by left
multiplication.  Entries are canonically reduced: the entry into a target
generator of order e lives in [0, e).  Well-definedness over Z is checked at
construction (a source generator of order d must map to an element killed by
d) and invalid matrices are rejected rather than repaired.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

from . import intmat
from .baseobj import BaseObject
from .intmat import Matrix


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
        for i, e in enumerate(self.dst.orders):
            for j, d in enumerate(self.src.orders):
                x = self.mat[i][j]
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
        return base_morphism(self.src, self.dst, intmat.add(self.mat, other.mat))

    def __sub__(self, other: "BaseMorphism") -> "BaseMorphism":
        if self.src != other.src or self.dst != other.dst:
            raise ValueError("difference of non-parallel morphisms")
        return base_morphism(self.src, self.dst, intmat.sub(self.mat, other.mat))

    def __neg__(self) -> "BaseMorphism":
        return base_morphism(self.src, self.dst, intmat.neg(self.mat))

    def is_zero_mor(self) -> bool:
        return intmat.is_zero(self.mat)

    def apply(self, coords: tuple[int, ...]) -> tuple[int, ...]:
        """Image of an element given by coordinates in the source generators."""
        out = []
        for i, e in enumerate(self.dst.orders):
            s = sum(self.mat[i][j] * c for j, c in enumerate(coords))
            out.append(_reduce_entry(s, e))
        return tuple(out)


def base_morphism(src: BaseObject, dst: BaseObject, entries) -> BaseMorphism:
    """Build a morphism, reducing entries into canonical range first."""
    if len(entries) != dst.ngens:
        raise ValueError("matrix row count does not match target")
    reduced = tuple([
        tuple([int(x) % e for x in row] if e else [int(x) for x in row])
        for row, e in zip(entries, dst.orders)
    ])
    return BaseMorphism(src, dst, reduced)


def identity_mor(x: BaseObject) -> BaseMorphism:
    return BaseMorphism(x, x, intmat.identity(x.ngens))


def zero_mor(src: BaseObject, dst: BaseObject) -> BaseMorphism:
    return BaseMorphism(src, dst, intmat.zeros(dst.ngens, src.ngens))


def compose(g: BaseMorphism, f: BaseMorphism) -> BaseMorphism:
    """g after f."""
    if f.dst != g.src:
        raise ValueError("non-composable morphisms")
    if g.src.ngens == 0:
        return zero_mor(f.src, g.dst)
    cols = tuple(zip(*f.mat))
    prod = [[sum(map(mul, row, col)) for col in cols] for row in g.mat]
    return base_morphism(f.src, g.dst, prod)
