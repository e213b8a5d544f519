"""Independent reference computations shared by the tests."""

import functools
import operator
import random
from dataclasses import dataclass

from arrowcat.baselin import LinearSystem, biproduct_base, cokernel_base, factor_base, kernel_base
from arrowcat.baseobj import z_object
from arrowcat.basemor import BaseMorphism, base_morphism, compose, identity_mor, zero_mor
from arrowcat.classify2 import EquivalenceData
from arrowcat.core2 import add_cell, add_homotopy, add_square, identity2, two_morphism, two_object
from arrowcat.intmat import mul


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


# Splitting and exactness from the constructions with their maps, the way the
# package decided them before they read only baselin.base_objects.


def splits_by_constructions(f: BaseMorphism) -> bool:
    """Whether src = ker f (+) coimage and dst = coimage (+) coker f, with
    every object taken from kernel_base, cokernel_base and biproduct_base."""
    if f.ring.is_field:
        return True
    k_obj, k = kernel_base(f)
    i_obj = cokernel_base(k)[0]
    q_obj = cokernel_base(f)[0]
    return biproduct_base((k_obj, i_obj))[0] == f.src and biproduct_base((i_obj, q_obj))[0] == f.dst


def exact_by_constructions(f: BaseMorphism, g: BaseMorphism) -> bool:
    """Exactness of X -f-> Y -g-> Z at Y as coker f = Y / ker g, both objects
    from the cokernel constructions."""
    return cokernel_base(f)[0] == cokernel_base(kernel_base(g)[1])[0]


def dense_z_square(n: int, seed: int = 1):
    """x -> y over Z^n: x has a random boundary with 8-bit entries, y the
    identity, the bottom is random and the top its product with the
    boundary.  The boundary is injective, so the square is faithful but not
    full."""
    rng = random.Random(seed)
    z = z_object(n)

    def dense():
        return [[rng.randint(-128, 127) for _ in range(n)] for _ in range(n)]

    d, b = dense(), dense()
    top = [[sum(b[i][k] * d[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    x, y = two_object(base_morphism(z, z, d)), two_object(identity_mor(z))
    return two_morphism(x, y, base_morphism(z, z, top), base_morphism(z, z, b))


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


# The integer eliminations written out on whole matrices: the Smith normal
# form as it was before it built only the transforms its caller reads (every
# transform is tracked on every step), and the column echelon form that
# solve_int and kernel_lattice share.  The package must compute the same
# values.


def _freeze(rows):
    return tuple(map(tuple, rows))


def _identity_rows(n: int):
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = 1
    return rows


def _nearest_quotient(a: int, b: int) -> int:
    q, r = divmod(a, b)
    if 2 * r > b:
        q += 1
    return q


def reference_smith_normal_form(m, nrows: int, ncols: int):
    """(U, D, V, U^-1) with D = U * m * V, by the package's pivot rule (minimal
    absolute value, ties row-major), every transform tracked on every step."""
    a = [list(r) for r in m]
    u = _identity_rows(nrows)
    ui = _identity_rows(nrows)
    v = _identity_rows(ncols)

    def row_swap(i, j):
        if i == j:
            return
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]
        for r in ui:
            r[i], r[j] = r[j], r[i]

    def row_neg(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]
        for r in ui:
            r[i] = -r[i]

    def row_add(i, j, c):
        # row i += c * row j
        a[i] = [x + c * y for x, y in zip(a[i], a[j])]
        u[i] = [x + c * y for x, y in zip(u[i], u[j])]
        for r in ui:
            r[j] -= c * r[i]

    def col_swap(i, j):
        if i == j:
            return
        for r in a:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]

    def col_add(i, j, c):
        # col i += c * col j
        for r in a:
            r[i] += c * r[j]
        for r in v:
            r[i] += c * r[j]

    def pick_pivot(t):
        best = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                x = a[i][j]
                if x != 0 and (best is None or abs(x) < best[0]):
                    best = (abs(x), i, j)
        return best

    # Phase 1: diagonalize with minimal pivots and symmetric remainders.
    t = 0
    limit = min(nrows, ncols)
    while t < limit:
        picked = pick_pivot(t)
        if picked is None:
            break
        while True:
            _, pi, pj = picked
            row_swap(t, pi)
            col_swap(t, pj)
            if a[t][t] < 0:
                row_neg(t)
            piv = a[t][t]
            reduced = True
            for i in range(t + 1, nrows):
                x = a[i][t]
                if x % piv != 0:
                    row_add(i, t, -_nearest_quotient(x, piv))
                    reduced = False
            if not reduced:
                picked = pick_pivot(t)
                continue
            for j in range(t + 1, ncols):
                x = a[t][j]
                if x % piv != 0:
                    col_add(j, t, -_nearest_quotient(x, piv))
                    reduced = False
            if not reduced:
                picked = pick_pivot(t)
                continue
            for i in range(t + 1, nrows):
                if a[i][t]:
                    row_add(i, t, -(a[i][t] // piv))
            for j in range(t + 1, ncols):
                if a[t][j]:
                    col_add(j, t, -(a[t][j] // piv))
            break
        t += 1
    rank = t

    # Phase 2: repair the divisibility chain by gcd/lcm surgery on 2x2
    # diagonal blocks; entries stay bounded by the lcm of the pair.
    def fix_pair(i, j):
        # acts on the block {i, j} x {i, j}; everything off the block is 0
        col_add(i, j, 1)
        while a[j][i] != 0:
            q = a[i][i] // a[j][i]
            row_add(i, j, -q)
            row_swap(i, j)
        if a[i][i] < 0:
            row_neg(i)
        if a[i][j]:
            col_add(j, i, -(a[i][j] // a[i][i]))
        if a[j][j] < 0:
            row_neg(j)

    changed = True
    while changed:
        changed = False
        for i in range(rank - 1):
            if a[i + 1][i + 1] % a[i][i] != 0:
                fix_pair(i, i + 1)
                changed = True

    return _freeze(u), _freeze(a), _freeze(v), _freeze(ui)


def reference_column_echelon(a, nrows: int, ncols: int):
    """(H, V, row -> its pivot column index) by the echelon rule of
    snf._column_echelon on whole matrices: H = a . V, and every column
    operation acts on all of a and of V = I."""
    h = [list(r) for r in a]
    v = [[int(i == j) for j in range(ncols)] for i in range(ncols)]

    def col_sub(j, p, q):  # column j -= q * column p, in h and in v
        for m in (h, v):
            for row in m:
                row[j] -= q * row[p]

    free = list(range(ncols))
    pivot_of = {}
    for i in range(nrows):
        while True:
            live = [j for j in free if h[i][j]]
            if not live:
                break
            p = min(live, key=lambda j: (abs(h[i][j]), j))
            if len(live) == 1:
                break
            for j in live:
                if j != p:
                    q = _nearest_quotient(h[i][j], abs(h[i][p]))
                    col_sub(j, p, q if h[i][p] > 0 else -q)
        if not live:
            continue
        free.remove(p)
        pivot_of[i] = p
    return h, v, pivot_of


def reference_solve_int(a, b, nrows: int, ncols: int):
    """One solution x (ncols x bcols) of a @ x = b over the integers, or
    None: y is read off the reference echelon form H before x = V . y."""
    bcols = len(b[0]) if b else 0
    h, v, pivot_of = reference_column_echelon(a, nrows, ncols)
    y = [[0] * bcols for _ in range(ncols)]
    for i in range(nrows):
        for j in range(bcols):
            r = b[i][j] - sum(h[i][k] * y[k][j] for k in range(ncols))
            if i not in pivot_of:
                if r:
                    return None
                continue
            p = pivot_of[i]
            if r % h[i][p]:
                return None
            y[p][j] = r // h[i][p]
    return mul(_freeze(v), _freeze(y), ncols)


def reference_kernel_lattice(a, nrows: int, ncols: int):
    """Basis columns of the lattice {x : a @ x = 0}: the columns of the
    reference echelon form's V that hold no pivot, in index order."""
    _, v, pivot_of = reference_column_echelon(a, nrows, ncols)
    pivots = set(pivot_of.values())
    return [tuple(row[j] for row in v) for j in range(ncols) if j not in pivots]


# Row reduction mod p on dense rows, as the package did it before it reduced
# sparse rows.  The reduced row echelon form is unique, so the package must
# find the same pivots and rows.


def rref_mod_p(rows: list[list[int]], ncols: int, p: int):
    """Row-reduce rows with entries in [0, p) in place; returns list of
    (row_index, pivot_col)."""
    pivots = []
    nrows = len(rows)
    r = 0
    for col in range(ncols):
        piv = r
        while piv < nrows and not rows[piv][col]:
            piv += 1
        if piv == nrows:
            continue
        row = rows[piv]
        rows[piv] = rows[r]
        if row[col] != 1:
            inv = pow(row[col], -1, p)
            row = [x * inv % p for x in row]
        rows[r] = row
        for i in range(nrows):
            f = rows[i][col]
            if f and i != r:
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], row)]
        pivots.append((r, col))
        r += 1
        if r == nrows:
            break
    return pivots
