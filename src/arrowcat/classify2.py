"""Arrow classification and equivalence witnesses.

Every flag is computed from the three-term base sequence

    A1 --[-d; u1]--> A0 (+) B1 --(u0 d')--> B0

attached to a square: faithfulness is injectivity on the left, fullness is
exactness in the middle, cofaithfulness surjectivity on the right; the
normal variants add that the map splits, and equivalences are the split
exact case.  Splitting is a summand condition read off invariant factors
(baselin.splits_base): ker f must be a summand of the source and im f of the
target.  Every flag reads objects only, through baselin.base_objects:
injectivity and surjectivity are a zero kernel or cokernel object, and
exactness and splitting compare objects.  No flag builds a kernel or
cokernel map.  Witness data for an equivalence is decided first, then
taken to be the componentwise inverses of the square when both components
are isomorphisms, else extracted from an actual splitting; all twelve
equations are checked before returning.  No system is solved for a whole
square.
"""

from __future__ import annotations

from typing import NamedTuple

from .baselin import (
    base_objects,
    biproduct_base,
    exact_at_base,
    factor_base,
    split_data_base,
    splits_base,
)
from .basemor import BaseMorphism, base_morphism, compose, identity_mor, zero_mor
from .baseobj import z_object, zero_object
from .core2 import TwoMorphism, two_morphism, two_object
from .limits2 import SequenceData, factor_through, sequence_of
from .rings import ZZ


class ArrowClassification(NamedTuple):
    faithful: bool
    full: bool
    fully_faithful: bool
    cofaithful: bool
    fully_cofaithful: bool
    normal_faithful: bool
    normal_fully_faithful: bool
    normal_cofaithful: bool
    normal_fully_cofaithful: bool
    equivalence: bool
    discrete_source: bool
    connected_source: bool
    split_source: bool


# One predicate per flag over the base sequence of a square.  classify2
# evaluates them all; exact_at and is_extension evaluate only the flag they
# read.  Repeated base objects are served by the baselin memo.


def _faithful(seq: SequenceData) -> bool:
    return base_objects(seq.iota).ker.is_zero


def _cofaithful(seq: SequenceData) -> bool:
    return base_objects(seq.pmap).coker.is_zero


def _full(seq: SequenceData) -> bool:
    return exact_at_base(seq.iota, seq.pmap)


def _fully_faithful(seq: SequenceData) -> bool:
    return _faithful(seq) and _full(seq)


def _fully_cofaithful(seq: SequenceData) -> bool:
    return _cofaithful(seq) and _full(seq)


def _equivalence(seq: SequenceData) -> bool:
    return _fully_faithful(seq) and _cofaithful(seq) and splits_base(seq.iota)


def classify2(u: TwoMorphism) -> ArrowClassification:
    seq = sequence_of(u)
    faithful = _faithful(seq)
    cofaithful = _cofaithful(seq)
    full = _full(seq)
    fully_faithful = _fully_faithful(seq)
    fully_cofaithful = _fully_cofaithful(seq)
    split_iota = splits_base(seq.iota)
    split_p = splits_base(seq.pmap)
    equivalence = _equivalence(seq)
    d = u.src.boundary
    d_objects = base_objects(d)
    flags = ArrowClassification(
        faithful=faithful,
        full=full,
        fully_faithful=fully_faithful,
        cofaithful=cofaithful,
        fully_cofaithful=fully_cofaithful,
        normal_faithful=faithful and split_iota,
        normal_fully_faithful=fully_faithful and split_iota,
        normal_cofaithful=cofaithful and split_p,
        normal_fully_cofaithful=fully_cofaithful and split_p,
        equivalence=equivalence,
        discrete_source=d_objects.ker.is_zero,
        connected_source=d_objects.coker.is_zero,
        split_source=splits_base(d),
    )
    if flags.equivalence and not (
        flags.faithful
        and flags.full
        and flags.fully_faithful
        and flags.cofaithful
        and flags.fully_cofaithful
        and flags.normal_faithful
        and flags.normal_fully_faithful
        and flags.normal_cofaithful
        and flags.normal_fully_cofaithful
    ):
        raise AssertionError("equivalence must imply every positive flag")
    return flags


class EquivalenceData(NamedTuple):
    v1: BaseMorphism  # B1 -> A1
    v0: BaseMorphism  # B0 -> A0
    epsilon: BaseMorphism  # B0 -> B1
    eta: BaseMorphism  # A0 -> A1


def equivalence_data2(u: TwoMorphism) -> EquivalenceData | None:
    """The twelve-equation witness, or None when u is not an equivalence.

    Equivalence is decided first, as a split [-d; u1] plus exactness, and
    only then is a witness built.  It prefers a strict inverse (epsilon =
    eta = 0, the componentwise inverses) so honest isomorphisms return their
    actual inverses; otherwise it is extracted from the splitting, which
    forces all twelve equations.
    """
    seq = sequence_of(u)
    if not _equivalence(seq):
        return None
    strict = _strict_witness(u)
    if strict is not None:
        _verify_equivalence(u, strict)
        return strict
    iota, pmap = seq.iota, seq.pmap
    # retraction: r . iota = 1 since iota is mono and iota.r.iota = iota
    r = split_data_base(iota)
    if r is None:
        raise AssertionError("a split map must have a von Neumann inverse")
    e = identity_mor(iota.dst) - compose(iota, r)
    # e factors through pmap: e = s~ . pmap, and then r . s~ = 0 automatically
    s = factor_through(e, right=pmap)
    _, (i0, i1), (p0, p1) = biproduct_base((u.src.bottom, u.dst.top))
    data = EquivalenceData(
        v1=compose(r, i1),
        v0=compose(p0, s),
        epsilon=compose(p1, s),
        eta=-(compose(r, i0)),
    )
    _verify_equivalence(u, data)
    return data


def _strict_witness(u: TwoMorphism) -> EquivalenceData | None:
    """A strict quasi-inverse (epsilon = eta = 0) when one exists.

    v.u = 1 and u.v = 1 strictly say v1 = u1^-1 and v0 = u0^-1, and v then
    commutes because u does: the witness is the componentwise inverses.
    """
    a, b = u.src, u.dst
    # right inverses first; each is the inverse exactly when it is also a left one
    v1 = factor_base(identity_mor(b.top), left=u.top)
    v0 = factor_base(identity_mor(b.bottom), left=u.bottom)
    if v1 is None or v0 is None:
        return None
    if compose(v1, u.top) != identity_mor(a.top) or compose(v0, u.bottom) != identity_mor(a.bottom):
        return None
    return EquivalenceData(v1=v1, v0=v0, epsilon=zero_mor(b.bottom, b.top), eta=zero_mor(a.bottom, a.top))


def _verify_equivalence(u: TwoMorphism, d: EquivalenceData):
    a, b = u.src, u.dst
    f, g = a.boundary, b.boundary
    u1, u0 = u.top, u.bottom
    v1, v0, eps, eta = d.v1, d.v0, d.epsilon, d.eta
    checks = [
        compose(g, u1) == compose(u0, f),
        compose(f, v1) == compose(v0, g),
        compose(eps, u0) == compose(u1, eta),
        compose(eta, v0) == compose(v1, eps),
        compose(eta, f) + compose(v1, u1) == identity_mor(a.top),
        compose(f, eta) + compose(v0, u0) == identity_mor(a.bottom),
        compose(eps, g) + compose(u1, v1) == identity_mor(b.top),
        compose(g, eps) + compose(u0, v0) == identity_mor(b.bottom),
    ]
    if not all(checks):
        raise AssertionError(f"equivalence witness fails equations: {checks}")


def inverse_from_data(u: TwoMorphism, d: EquivalenceData) -> TwoMorphism:
    """The quasi-inverse square carried by an equivalence witness."""
    return TwoMorphism(u.dst, u.src, d.v1, d.v0)


def z_counterexample() -> TwoMorphism:
    """The nonsplit square (top Z->0, bottom q: Z->Z/2, left *2, right 0->Z/2):
    fully faithful and fully cofaithful over Z, yet not an equivalence."""
    z1 = z_object(1)
    z2t = z_object(0, (2,))
    zz = zero_object(ZZ)
    a = two_object(base_morphism(z1, z1, [[2]]))
    b = two_object(base_morphism(zz, z2t, [[]]))
    return two_morphism(a, b, zero_mor(z1, zz), base_morphism(z1, z2t, [[1]]))
