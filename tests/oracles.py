"""Independent reference computations shared by the tests."""

import functools
import operator
from dataclasses import dataclass

from arrowcat.baselin import LinearSystem, biproduct_base, cokernel_base, factor_base, kernel_base
from arrowcat.basemor import BaseMorphism, base_morphism, compose, identity_mor, zero_mor
from arrowcat.classify2 import EquivalenceData
from arrowcat.core2 import add_cell, add_homotopy, add_square, identity2


def rank_mod_p(mat, p: int) -> int:
    """Rank of an integer matrix mod p by plain forward elimination."""
    rows = [[x % p for x in r] for r in mat]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], -1, p)
        for i in range(rank + 1, len(rows)):
            f = rows[i][c] * inv
            rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


# The base classification by one-sided inverse solves; the package decides
# iso from the kernel and cokernel alone.


@dataclass(frozen=True)
class BaseFlags:
    mono: bool
    epi: bool
    iso: bool
    zero: bool
    split_mono: bool
    split_epi: bool


def classify_base(f: BaseMorphism) -> BaseFlags:
    mono = kernel_base(f)[0].is_zero
    epi = cokernel_base(f)[0].is_zero
    iso = mono and epi
    split_mono = factor_base(identity_mor(f.src), right=f) is not None
    split_epi = factor_base(identity_mor(f.dst), left=f) is not None
    flags = BaseFlags(
        mono=mono,
        epi=epi,
        iso=iso,
        zero=f.is_zero_mor(),
        split_mono=split_mono,
        split_epi=split_epi,
    )
    if iso and not (split_mono and split_epi):
        raise AssertionError("iso must split on both sides")
    return flags


def exact_by_induced_map(f: BaseMorphism, g: BaseMorphism) -> bool:
    """Exactness of X -f-> Y -g-> Z at Y by solving for the map X -> ker g."""
    induced = factor_base(f, left=kernel_base(g)[1])
    if induced is None:
        raise AssertionError("image must land in the kernel")
    return cokernel_base(induced)[0].is_zero


# Factorizations as one Kronecker-sized LinearSystem in every entry of x, the
# way the package solved them before one-sided factoring became one solve per
# generator order.  It also takes both sides, which factor_base refuses.


def factor_by_linear_system(h: BaseMorphism, left=None, right=None) -> BaseMorphism | None:
    """Some x with left.x.right = h, or None, from one LinearSystem in x."""
    sys = LinearSystem(h.ring)
    sys.add_unknown("x", h.src if right is None else right.dst, h.dst if left is None else left.src)
    sys.add_equation([(1, left, "x", right)], h)
    sol = sys.solve()
    return None if sol is None else sol["x"]


# Maps into and out of a biproduct as validated composites through its
# injections or projections and a validated sum, the way the package built
# them before pair_base and copair_base.


def pair_by_injections(*maps: BaseMorphism) -> BaseMorphism:
    """sum_k i_k . f_k into the biproduct of the targets."""
    _, injections, _ = biproduct_base(tuple(f.dst for f in maps))
    return functools.reduce(operator.add, (compose(i, f) for i, f in zip(injections, maps)))


def copair_by_projections(*maps: BaseMorphism) -> BaseMorphism:
    """sum_k f_k . p_k out of the biproduct of the sources."""
    _, _, projections = biproduct_base(tuple(f.src for f in maps))
    return functools.reduce(operator.add, (compose(f, p) for f, p in zip(maps, projections)))


def joint_factor_by_linear_system(k, kappa, a, b) -> BaseMorphism | None:
    """Some s with k.s = a and kappa.s = b, or None, from one LinearSystem
    with the two equations."""
    sys = LinearSystem(k.ring)
    sys.add_unknown("s", a.src, k.src)
    sys.add_equation([(1, k, "s", None)], a)
    sys.add_equation([(1, kappa, "s", None)], b)
    sol = sys.solve()
    return None if sol is None else sol["s"]


# A strict quasi-inverse and the uniqueness of orthogonality fillers as
# LinearSystems in a whole square or cell, the way classify2 and factor2
# decided them before reading them off componentwise inverses and invariant
# factors.


def strict_witness_by_linear_system(u) -> EquivalenceData | None:
    """A square v with v.u = 1 and u.v = 1 strictly, with epsilon = eta = 0,
    or None, from one LinearSystem in v."""
    a, b = u.src, u.dst
    sys = LinearSystem(u.top.ring)
    v = add_square(sys, "v", b, a)
    add_homotopy(sys, None, identity2(a), [(1, None, v, u)])
    add_homotopy(sys, None, identity2(b), [(1, u, v, None)])
    sol = sys.solve()
    if sol is None:
        return None
    return EquivalenceData(
        v1=sol[v.top], v0=sol[v.bottom], epsilon=zero_mor(b.bottom, b.top), eta=zero_mor(a.bottom, a.top)
    )


def fillers_unique_by_linear_system(e, m) -> bool:
    """Whether no nonzero loop cell cod(e) -> dom(m) is killed by both
    whiskers, from the homogeneous basis of one LinearSystem in the cell."""
    x, y = e.dst, m.src
    sys = LinearSystem(e.top.ring)
    g = add_cell(sys, "g", x, y)
    add_homotopy(sys, g, [], [])
    sys.add_equation([(1, None, g.name, e.bottom)])
    sys.add_equation([(1, m.top, g.name, None)])
    return all(
        base_morphism(x.bottom, y.top, entry[g.name]).is_zero_mor() for entry in sys.homogeneous_basis()
    )
