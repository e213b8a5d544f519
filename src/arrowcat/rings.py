"""Base rings: prime fields F_p and the integers.

Rings are interned: BaseRing(p) returns one instance per p, so two equal
rings are the same object, and equality and hashing are object identity.

_Value, the base of every immutable value type of the package (rings, base
objects and morphisms, squares, cells, complexes and chain maps), lives here
because every module imports this one.
"""

from __future__ import annotations

_P_LIMIT = 2**31


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


class _Value:
    """Base of the immutable value types, all read off __match_args__ (the
    fields, in order): assignment and deletion raise AttributeError, repr is
    Name(field=value, ...), and copy, deepcopy and pickle rebuild the value
    through its constructor, so it is checked (or interned) again.

    Each subclass declares __slots__ and __match_args__ and stores its fields
    with object.__setattr__; equality and hashing are its own.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple([getattr(self, name) for name in self.__match_args__])


_RINGS: dict = {}  # p -> its one BaseRing


class BaseRing(_Value):
    """Either F_p (p a prime below 2**31) or Z (p is None)."""

    __slots__ = ("p",)
    __match_args__ = ("p",)

    p: int | None

    def __new__(cls, p: int | None = None):
        try:
            return _RINGS[p]
        except KeyError:
            pass
        if p is not None:
            if not (2 <= p < _P_LIMIT):
                raise ValueError(f"field characteristic out of range: {p}")
            if not _is_prime(p):
                raise ValueError(f"not a prime: {p}")
        self = object.__new__(cls)
        object.__setattr__(self, "p", p)
        _RINGS[p] = self
        return self

    @property
    def is_field(self) -> bool:
        return self.p is not None

    def __str__(self) -> str:
        return f"F{self.p}" if self.p is not None else "Z"


ZZ = BaseRing(None)


def GF(p: int) -> BaseRing:
    return BaseRing(p)
