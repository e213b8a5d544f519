"""Objects of the base category in canonical form.

A BaseObject is a finitely generated module presented by generator orders:
order 0 means a free generator, order d > 1 a Z/d summand.  Torsion
generators come first, in a divisibility chain, free generators last; over
F_p every generator has order p.  This is the invariant-factor normal form,
so isomorphic objects have the same orders.

Objects are interned: BaseObject(ring, orders) returns one instance per
(ring, orders), so isomorphic objects are the same instance, and equality
and hashing are object identity; copy, deepcopy and pickle rebuild through
the constructor, so they return that instance too.  Orders are validated
before an object is registered, so an invalid one leaves nothing behind.
An object is a slotted class, not a dataclass: it carries no __dict__.
"""

from __future__ import annotations

from .rings import BaseRing, _Value


_OBJECTS: dict = {}  # (ring, orders) -> its one BaseObject


class BaseObject(_Value):
    __slots__ = ("ring", "orders", "ngens", "torsion_gens")
    __match_args__ = ("ring", "orders")

    ring: BaseRing
    orders: tuple[int, ...]

    def __new__(cls, ring: BaseRing, orders: tuple[int, ...]):
        key = (ring, orders)
        try:
            return _OBJECTS[key]
        except KeyError:
            pass
        _validate(ring, orders)
        self = object.__new__(cls)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "orders", orders)
        # the generator count and the (index, order) pairs of the torsion
        # generators, read on every morphism check: set once, and not
        # fields, so repr and __match_args__ name ring and orders only
        object.__setattr__(self, "ngens", len(orders))
        object.__setattr__(self, "torsion_gens", tuple((j, d) for j, d in enumerate(orders) if d))
        _OBJECTS[key] = self
        return self

    @property
    def free_rank(self) -> int:
        return sum(1 for x in self.orders if x == 0)

    @property
    def torsion(self) -> tuple[int, ...]:
        return tuple(x for x in self.orders if x != 0) if not self.ring.is_field else self.orders

    @property
    def is_zero(self) -> bool:
        return not self.orders

    def total_order(self) -> int | None:
        """Number of elements, or None when infinite."""
        n = 1
        for x in self.orders:
            if x == 0:
                return None
            n *= x
        return n

    def elements(self):
        """All coordinate tuples of a finite object."""
        if self.total_order() is None:
            raise ValueError("infinite object")
        out = [()]
        for d in self.orders:
            out = [t + (v,) for t in out for v in range(d)]
        return out

    def __str__(self) -> str:
        if self.ring.is_field:
            return f"{self.ring}^{len(self.orders)}"
        parts = [f"Z/{d}" for d in self.torsion]
        parts += ["Z"] * self.free_rank
        return " + ".join(parts) if parts else "0"


def _validate(ring: BaseRing, o: tuple[int, ...]) -> None:
    if ring.is_field:
        if any(x != ring.p for x in o):
            raise ValueError("field object generators must all have order p")
    else:
        k = 0
        while k < len(o) and o[k] != 0:
            k += 1
        tors, free = o[:k], o[k:]
        if any(x != 0 for x in free):
            raise ValueError("free generators must come last")
        if any(x < 2 for x in tors):
            raise ValueError("torsion orders must exceed 1")
        for a, b in zip(tors, tors[1:]):
            if b % a != 0:
                raise ValueError(f"orders not a divisibility chain: {o}")


def field_object(ring: BaseRing, dim: int) -> BaseObject:
    if not ring.is_field:
        raise ValueError("field_object needs a prime field")
    if dim < 0:
        raise ValueError("negative dimension")
    return BaseObject(ring, (ring.p,) * dim)


def z_object(free_rank: int, torsion: tuple[int, ...] = ()) -> BaseObject:
    from .rings import ZZ

    if free_rank < 0:
        raise ValueError("negative free rank")
    return BaseObject(ZZ, tuple(torsion) + (0,) * free_rank)


def zero_object(ring: BaseRing) -> BaseObject:
    return BaseObject(ring, ())


def make_object(ring: BaseRing, orders) -> BaseObject:
    return BaseObject(ring, tuple(orders))
