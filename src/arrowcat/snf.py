"""Smith normal form and integer linear systems.

The decomposition is D = U * M * V with U, V unimodular and the diagonal of D
a nonnegative divisibility chain.  The pivot rule is fixed: among the nonzero
entries of the remaining block, pick one of minimal absolute value, ties
broken row-major (so the scan stops at the first unit), so every
decomposition is reproducible.  It presents objects only: a transform is
built only when its caller reads it, and is the same whatever else is asked
for.  baselin.canonicalize reads U and U^-1, baselin.base_objects only the
diagonal; the tests and the snf selftest suite ask for all three.

solve_int and kernel_lattice do not decompose: both read one column echelon
form, reached by column operations alone.  On a rank-deficient system the
Smith form's V grows with the deficiency, and a solution or kernel basis
read off it grows with it.
"""

from __future__ import annotations

from typing import NamedTuple

from .intmat import Matrix


def _freeze(rows) -> Matrix:
    """rows as a Matrix; the entries are ints already, so no int() pass."""
    return tuple(map(tuple, rows))


class SnfDecomposition(NamedTuple):
    """D = U * M * V.  A transform that was not asked for is None."""

    u: Matrix | None
    d: Matrix
    v: Matrix | None
    u_inv: Matrix | None

    def diagonal(self) -> tuple[int, ...]:
        n = min(len(self.d), len(self.d[0]) if self.d else 0)
        return tuple(self.d[i][i] for i in range(n))


def _identity_rows(n: int) -> list[list[int]]:
    """The n x n identity as mutable rows."""
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = 1
    return rows


def _nearest_quotient(a: int, b: int) -> int:
    """Quotient minimizing |a - q*b| (b > 0), ties toward the floor."""
    q, r = divmod(a, b)
    if 2 * r > b:
        q += 1
    return q


def smith_normal_form(
    m: Matrix, nrows: int, ncols: int, *, u: bool = True, v: bool = True
) -> SnfDecomposition:
    """D = U * m * V for the nrows x ncols matrix m, by the pivot rule of the
    module docstring, with U and U^-1 if u and V if v."""
    a = [list(r) for r in m]
    # a transform not asked for is an empty list, so its updates do nothing
    uu = _identity_rows(nrows) if u else []
    ui = _identity_rows(nrows) if u else []
    vv = _identity_rows(ncols) if v else []

    def row_swap(i, j):
        if i == j:
            return
        a[i], a[j] = a[j], a[i]
        if uu:
            uu[i], uu[j] = uu[j], uu[i]
        for r in ui:
            r[i], r[j] = r[j], r[i]

    def row_neg(i):
        a[i] = [-x for x in a[i]]
        if uu:
            uu[i] = [-x for x in uu[i]]
        for r in ui:
            r[i] = -r[i]

    def row_add(i, j, c):
        # row i += c * row j
        a[i] = [x + c * y for x, y in zip(a[i], a[j])]
        if uu:
            uu[i] = [x + c * y for x, y in zip(uu[i], uu[j])]
        for r in ui:
            r[j] -= c * r[i]

    def col_swap(i, j):
        if i == j:
            return
        for r in a:
            r[i], r[j] = r[j], r[i]
        for r in vv:
            r[i], r[j] = r[j], r[i]

    def col_add(i, j, c):
        # col i += c * col j
        for r in a:
            r[i] += c * r[j]
        for r in vv:
            r[i] += c * r[j]

    def pick_pivot(t):
        best = None
        for i in range(t, nrows):
            row = a[i]
            for j in range(t, ncols):
                x = row[j]
                if x:
                    x = abs(x)
                    if x == 1:  # no entry is smaller: the first unit wins
                        return (1, i, j)
                    if best is None or x < best[0]:
                        best = (x, i, j)
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

    return SnfDecomposition(
        u=_freeze(uu) if u else None,
        d=_freeze(a),
        v=_freeze(vv) if v else None,
        u_inv=_freeze(ui) if u else None,
    )


def _column_echelon(a: Matrix, nrows: int, ncols: int) -> tuple[dict[int, list[int]], list[list[int]]]:
    """(row -> its pivot column, the free columns) of the lower column
    echelon form H = a . V, reached one row at a time by column operations
    alone; a column holds its rows of H, then its column of V.  Row i is
    taken on the columns without a pivot yet: while two of them are nonzero
    there, the others are reduced by the one of least absolute value (ties
    to the lower index) with nearest quotients, and the survivor becomes
    row i's pivot column.  The free columns, in index order, are zero in H
    and V is unimodular, so their V parts are a basis of {x : a . x = 0}."""
    cols = [[a[i][j] for i in range(nrows)] + [int(k == j) for k in range(ncols)] for j in range(ncols)]
    width = nrows + ncols
    free = list(range(ncols))
    pivots: dict[int, list[int]] = {}
    for i in range(nrows):
        live = [j for j in free if cols[j][i]]
        if not live:
            continue
        while True:
            p = min(live, key=lambda j: (abs(cols[j][i]), j))
            pcol = cols[p]
            pv = pcol[i]
            span = [k for k in range(i, width) if pcol[k]]
            rest = []
            for j in live:
                if j == p:
                    continue
                col = cols[j]
                q = _nearest_quotient(col[i], pv) if pv > 0 else -_nearest_quotient(col[i], -pv)
                for k in span:
                    col[k] -= q * pcol[k]
                if col[i]:
                    rest.append(j)
            if not rest:
                break
            live = rest + [p]
        free.remove(p)
        pivots[i] = pcol
    return pivots, [cols[j] for j in free]


def solve_int(a: Matrix, b: Matrix, nrows: int, ncols: int) -> Matrix | None:
    """One solution x (ncols x bcols) of a @ x = b over the integers, or
    None: x = V . y for the y that solves H . y = b by forward substitution
    on _column_echelon's H = a . V.  x is the one solution in the span of
    the pivot columns of V, and stays near the size of a and b."""
    bcols = len(b[0]) if b else 0
    pivots, _ = _column_echelon(a, nrows, ncols)
    res = [list(r) for r in b]
    x = [[0] * bcols for _ in range(ncols)]
    for i in range(nrows):
        r = res[i]
        col = pivots.get(i)
        if col is None:
            if any(r):
                return None
            continue
        pv = col[i]
        span = [k for k in range(i, len(col)) if col[k]]
        for j in range(bcols):
            y, rem = divmod(r[j], pv)
            if rem:
                return None
            if not y:
                continue
            for k in span:
                if k < nrows:
                    res[k][j] -= y * col[k]
                else:
                    x[k - nrows][j] += y * col[k]
    return _freeze(x)


def kernel_lattice(a: Matrix, nrows: int, ncols: int) -> list[tuple[int, ...]]:
    """Basis columns of the lattice {x : a @ x = 0}: the V parts of
    _column_echelon's free columns, in their order."""
    _, free = _column_echelon(a, nrows, ncols)
    return [tuple(col[nrows:]) for col in free]
