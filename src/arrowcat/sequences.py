"""Sequences, exactness oracles, homology.

Exactness at an object is decided through both canonical routes - the
comparison out of the cokernel must be fully faithful, the comparison into
the kernel fully cofaithful - and the two verdicts are asserted to agree.
Relative exactness is decided by triviality of the homology object, whose
two constructions (relative cokernel of the induced arrow, relative kernel
of the dual one) are built and compared by an explicit equivalence.

The decisions every diagram lemma shares live here too: the pasting law of
a map between two nullhomotopic pairs, zero padding of a complex (and of a
chain map) outside its window, zero capping of a finite sequence, and the
sweep of the exactness oracle over every interior point.
"""

from __future__ import annotations

from typing import NamedTuple

from .basemor import compose
from .classify2 import (
    ArrowClassification,
    _equivalence,
    _fully_cofaithful,
    _fully_faithful,
    classify2,
)
from .core2 import (
    TwoCell,
    TwoMorphism,
    TwoObject,
    cell_to_zero,
    compose2,
    identity_cell,
    identity_like_cell,
    is_zero_equivalent,
    null_cell,
    zero2,
    zero_two_object,
)
from .limits2 import (
    RelCokernelData,
    RelKernelData,
    cokernel2,
    factor_cokernel2,
    factor_kernel2,
    factor_rel_cokernel2,
    factor_rel_kernel2,
    kernel2,
    rel_cokernel2,
    rel_kernel2,
    sequence_of,
)
from .rings import _Value


def is_compatible(t: TwoMorphism, alpha: TwoCell, v: TwoMorphism, beta: TwoCell) -> bool:
    """Compatibility of alpha: u.t => 0 with beta: v.u => 0 (shared middle u)."""
    if alpha.src != t.src or beta.dst != v.dst:
        raise ValueError("compatibility shapes do not match")
    if t.dst != beta.src or v.src != alpha.dst:
        raise ValueError("compatibility shapes do not match")
    return compose(v.top, alpha.mat) == compose(beta.mat, t.bottom)


def pasting_holds(row, row2, cols, cells) -> bool:
    """The pasting law eta2*a . g2*phi . psi*f = c*eta of a map of pairs.

    row = (f, eta, g) and row2 = (f2, eta2, g2) with eta: g.f => 0 and
    eta2: g2.f2 => 0, cols = (a, b, c), cells = (phi, psi) with
    phi: b.f => f2.a and psi: c.g => g2.b.
    """
    f, eta, _ = row
    _, eta2, g2 = row2
    a, _, c = cols
    phi, psi = cells
    lhs = compose(eta2.mat, a.bottom) + compose(g2.top, phi.mat) + compose(psi.mat, f.bottom)
    return lhs == compose(c.top, eta.mat)


def exact_at(a: TwoMorphism, alpha: TwoCell, b: TwoMorphism) -> bool:
    """Exactness of the sequence (a, alpha, b) at the middle object.

    alpha must be a cell b.a => 0; both dual decision routes are computed
    and must agree.  Each route evaluates only the classify2 flag it reads.
    """
    _check_nullhomotopy(a, alpha, b)
    cd = cokernel2(a)
    b_prime = factor_cokernel2(cd, b, alpha)
    via_coker = _fully_faithful(sequence_of(b_prime))
    kd = kernel2(b)
    a_prime = factor_kernel2(kd, a, alpha)
    via_ker = _fully_cofaithful(sequence_of(a_prime))
    if via_coker != via_ker:
        raise AssertionError("the two exactness routes disagree")
    return via_coker


def exactness(maps, cells) -> list[bool]:
    """exact_at at every interior point: cells[k] is maps[k+1].maps[k] => 0."""
    if len(maps) != len(cells) + 1:
        raise ValueError("a sequence needs one cell fewer than maps")
    return [exact_at(maps[k], cells[k], maps[k + 1]) for k in range(len(cells))]


def zero_capped(maps, cells):
    """(maps, cells) with a zero object joined at both ends, so that the
    first and last objects become interior points."""
    z = zero_two_object(maps[0].top.ring)
    first = zero2(z, maps[0].src)
    last = zero2(maps[-1].dst, z)
    head = null_cell(compose2(maps[0], first))
    tail = null_cell(compose2(last, maps[-1]))
    return (first, *maps, last), (head, *cells, tail)


def _check_nullhomotopy(a: TwoMorphism, alpha: TwoCell, b: TwoMorphism):
    if a.dst != b.src:
        raise ValueError("sequence does not compose")
    if alpha.cfrom != compose2(b, a) or not alpha.cto.is_zero_mor():
        raise ValueError("alpha must be a cell b.a => 0")


def loop_exact(pi: TwoCell) -> bool:
    """Exactness of a loop 0 => 0: A -> B (the middle object is 0)."""
    z = zero_two_object(pi.src.ring)
    a = zero2(pi.src, z)
    b = zero2(z, pi.dst)
    alpha = cell_to_zero(compose2(b, a), pi.mat)
    return exact_at(a, alpha, b)


def is_extension(a: TwoMorphism, alpha: TwoCell, b: TwoMorphism) -> bool:
    """(a, alpha) = Ker b and (b, alpha) = Coker a, both up to equivalence."""
    _check_nullhomotopy(a, alpha, b)
    kd = kernel2(b)
    a_prime = factor_kernel2(kd, a, alpha)
    if not _equivalence(sequence_of(a_prime)):
        return False
    cd = cokernel2(a)
    b_prime = factor_cokernel2(cd, b, alpha)
    return _equivalence(sequence_of(b_prime))


class HomologyResult(NamedTuple):
    obj: TwoObject
    qprime: TwoMorphism  # K(b, psi) -> H
    kprime: TwoMorphism  # H -> Q(a, phi)
    zeta_prime: TwoCell  # qprime . a' => 0
    kappa_prime: TwoCell  # b' . kprime => 0
    eta: TwoCell  # q.k => kprime.qprime
    comparison: TwoMorphism  # the coker-route H -> ker-route H
    comparison_flags: ArrowClassification
    rel_kernel: RelKernelData
    rel_cokernel: RelCokernelData
    a_induced: TwoMorphism
    b_induced: TwoMorphism


def homology_at(
    x: TwoMorphism,
    phi: TwoCell,
    a: TwoMorphism,
    alpha: TwoCell,
    b: TwoMorphism,
    psi: TwoCell,
    y: TwoMorphism,
) -> HomologyResult:
    """Homology at the middle object of x -> A -a-> B -b-> C -> y."""
    _check_nullhomotopy(x, phi, a)
    _check_nullhomotopy(a, alpha, b)
    _check_nullhomotopy(b, psi, y)
    if not is_compatible(x, phi, b, alpha):
        raise ValueError("phi and alpha are not compatible")
    if not is_compatible(a, alpha, y, psi):
        raise ValueError("alpha and psi are not compatible")
    rk = rel_kernel2(b, y, psi)
    rc = rel_cokernel2(a, x, phi)
    a_ind = factor_rel_kernel2(rk, a, alpha)
    b_ind = factor_rel_cokernel2(rc, b, alpha)
    phi_prime = cell_to_zero(compose2(a_ind, x), phi.mat)
    psi_prime = cell_to_zero(compose2(y, b_ind), psi.mat)
    h_coker = rel_cokernel2(a_ind, x, phi_prime)
    h_kernel = rel_kernel2(b_ind, y, psi_prime)
    s = compose2(rc.qmor, rk.kmor)
    zeta_s = cell_to_zero(compose2(s, a_ind), rc.zeta.mat)
    w_tilde = factor_rel_cokernel2(h_coker, s, zeta_s)
    kappa_w = cell_to_zero(compose2(b_ind, w_tilde), rk.kappa.mat)
    w = factor_rel_kernel2(h_kernel, w_tilde, kappa_w)
    flags = classify2(w)
    if not flags.equivalence:
        raise AssertionError("the two homology constructions are not equivalent")
    eta = identity_cell(compose2(w_tilde, h_coker.qmor))
    if compose2(w_tilde, h_coker.qmor) != s:
        raise AssertionError("homology comparison is not strict")
    return HomologyResult(
        obj=h_coker.obj,
        qprime=h_coker.qmor,
        kprime=w_tilde,
        zeta_prime=h_coker.zeta,
        kappa_prime=kappa_w,
        eta=eta,
        comparison=w,
        comparison_flags=flags,
        rel_kernel=rk,
        rel_cokernel=rc,
        a_induced=a_ind,
        b_induced=b_ind,
    )


def relative_exact_at(
    x: TwoMorphism,
    phi: TwoCell,
    a: TwoMorphism,
    alpha: TwoCell,
    b: TwoMorphism,
    psi: TwoCell,
    y: TwoMorphism,
) -> bool:
    """Relative exactness decided by triviality of the homology object."""
    h = homology_at(x, phi, a, alpha, b, psi, y)
    return is_zero_equivalent(h.obj)


def pad_exact_at(a: TwoMorphism, alpha: TwoCell, b: TwoMorphism) -> bool:
    """Plain exactness embedded as relative exactness with zero ends."""
    (x, _, _, y), (phi, _, psi) = zero_capped((a, b), (alpha,))
    return relative_exact_at(x, phi, a, alpha, b, psi, y)


class ComplexSequence(_Value):
    """A finite window of a chain complex of squares.

    objects[i] sits in degree lo + i; diffs[i]: objects[i] -> objects[i+1];
    cells[i]: diffs[i+1] . diffs[i] => 0.  Everything outside the window is
    the zero object; obj, diff and cell read the zero-padded complex by
    degree.  Adjacent nullhomotopies must be compatible.
    """

    __slots__ = ("lo", "objects", "diffs", "cells")
    __match_args__ = ("lo", "objects", "diffs", "cells")

    lo: int
    objects: tuple[TwoObject, ...]
    diffs: tuple[TwoMorphism, ...]
    cells: tuple[TwoCell, ...]

    def __init__(
        self,
        lo: int,
        objects: tuple[TwoObject, ...],
        diffs: tuple[TwoMorphism, ...],
        cells: tuple[TwoCell, ...],
    ):
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "objects", objects)
        object.__setattr__(self, "diffs", diffs)
        object.__setattr__(self, "cells", cells)
        n = len(self.objects)
        if n == 0:
            raise ValueError("a complex needs at least one object")
        if len(self.diffs) != n - 1 or len(self.cells) != max(n - 2, 0):
            raise ValueError("window lengths do not match")
        for i, d in enumerate(self.diffs):
            if d.src != self.objects[i] or d.dst != self.objects[i + 1]:
                raise ValueError(f"differential {i} has wrong endpoints")
        for i, c in enumerate(self.cells):
            if c.cfrom != compose2(self.diffs[i + 1], self.diffs[i]) or not c.cto.is_zero_mor():
                raise ValueError(f"cell {i} is not a nullhomotopy of the composite")
        for i in range(len(self.cells) - 1):
            if not is_compatible(self.diffs[i], self.cells[i], self.diffs[i + 2], self.cells[i + 1]):
                raise ValueError(f"cells {i} and {i + 1} are not compatible")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.lo, self.objects, self.diffs, self.cells) == (
                other.lo, other.objects, other.diffs, other.cells
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.lo, self.objects, self.diffs, self.cells))

    @property
    def hi(self) -> int:
        return self.lo + len(self.objects) - 1

    def ring(self):
        return self.objects[0].ring

    def obj(self, k: int) -> TwoObject:
        """The object in degree k."""
        if self.lo <= k <= self.hi:
            return self.objects[k - self.lo]
        return zero_two_object(self.ring())

    def diff(self, k: int) -> TwoMorphism:
        """The differential out of degree k."""
        if self.lo <= k <= self.hi - 1:
            return self.diffs[k - self.lo]
        return zero2(self.obj(k), self.obj(k + 1))

    def cell(self, k: int) -> TwoCell:
        """The nullhomotopy diff(k+1) . diff(k) => 0."""
        if self.lo <= k <= self.hi - 2:
            return self.cells[k - self.lo]
        return null_cell(compose2(self.diff(k + 1), self.diff(k)))


class ChainMap(_Value):
    """A degreewise map of complexes with its connecting homotopies.

    squares[i]: src.objects[i] -> dst.objects[i]; cells[i] fills
    dst.diffs[i] . squares[i] => squares[i+1] . src.diffs[i].  Outside the
    window padded_square and padded_cell read the zero map of the padded
    complexes.
    """

    __slots__ = ("src", "dst", "squares", "cells")
    __match_args__ = ("src", "dst", "squares", "cells")

    src: ComplexSequence
    dst: ComplexSequence
    squares: tuple[TwoMorphism, ...]
    cells: tuple[TwoCell, ...]

    def __init__(
        self,
        src: ComplexSequence,
        dst: ComplexSequence,
        squares: tuple[TwoMorphism, ...],
        cells: tuple[TwoCell, ...],
    ):
        object.__setattr__(self, "src", src)
        object.__setattr__(self, "dst", dst)
        object.__setattr__(self, "squares", squares)
        object.__setattr__(self, "cells", cells)
        n = len(self.src.objects)
        if len(self.dst.objects) != n or self.src.lo != self.dst.lo:
            raise ValueError("chain map between different windows")
        if len(self.squares) != n or len(self.cells) != max(n - 1, 0):
            raise ValueError("chain map data lengths are wrong")
        for i, c in enumerate(self.cells):
            if c.cfrom != compose2(self.dst.diffs[i], self.squares[i]):
                raise ValueError(f"chain cell {i} has the wrong source")
            if c.cto != compose2(self.squares[i + 1], self.src.diffs[i]):
                raise ValueError(f"chain cell {i} has the wrong target")
        # the pasting law of each consecutive pair of squares, with the chain
        # cells inverted into the b.f => f2.a orientation of pasting_holds
        src, dst = self.src, self.dst
        for i in range(n - 2):
            if not pasting_holds(
                (src.diffs[i], src.cells[i], src.diffs[i + 1]),
                (dst.diffs[i], dst.cells[i], dst.diffs[i + 1]),
                self.squares[i : i + 3],
                (self.cells[i].inverse(), self.cells[i + 1].inverse()),
            ):
                raise ValueError(f"chain map coherence fails at degree {i}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.src, self.dst, self.squares, self.cells) == (
                other.src, other.dst, other.squares, other.cells
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.src, self.dst, self.squares, self.cells))

    def padded_square(self, n: int) -> TwoMorphism:
        """The degree-n component, zero between padded zero objects outside."""
        idx = n - self.src.lo
        if 0 <= idx < len(self.squares):
            return self.squares[idx]
        return zero2(self.src.obj(n), self.dst.obj(n))

    def padded_cell(self, n: int) -> TwoCell:
        idx = n - self.src.lo
        if 0 <= idx < len(self.cells):
            return self.cells[idx]
        return identity_like_cell(
            compose2(self.dst.diff(n), self.padded_square(n)),
            compose2(self.padded_square(n + 1), self.src.diff(n)),
        )


def padded_window(cx: ComplexSequence, n: int):
    """(x, phi, a, alpha, b, psi, y) centered at degree n, zero-padded."""
    return (
        cx.diff(n - 2),
        cx.cell(n - 2),
        cx.diff(n - 1),
        cx.cell(n - 1),
        cx.diff(n),
        cx.cell(n),
        cx.diff(n + 1),
    )


def complex_homology_at(cx: ComplexSequence, n: int) -> HomologyResult:
    """Homology of the padded complex at the object in degree n."""
    x, phi, a, alpha, b, psi, y = padded_window(cx, n)
    return homology_at(x, phi, a, alpha, b, psi, y)
