"""Base rings: prime fields F_p and the integers.

Rings are interned: BaseRing(p) returns one instance per p, so two equal
rings are the same object, and equality and hashing are object identity.
"""

from __future__ import annotations

from dataclasses import dataclass

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


_RINGS: dict = {}  # p -> its one BaseRing


@dataclass(frozen=True, eq=False, init=False)
class BaseRing:
    """Either F_p (p a prime below 2**31) or Z (p is None)."""

    p: int | None = None

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

    def __reduce__(self):
        # copy, deepcopy and pickle go back through the table
        return BaseRing, (self.p,)

    @property
    def is_field(self) -> bool:
        return self.p is not None

    def __str__(self) -> str:
        return f"F{self.p}" if self.p is not None else "Z"


ZZ = BaseRing(None)


def GF(p: int) -> BaseRing:
    return BaseRing(p)
