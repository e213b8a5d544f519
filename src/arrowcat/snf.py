"""Smith normal form and integer linear systems.

The decomposition is D = U * M * V with U, V unimodular and the diagonal of D
a nonnegative divisibility chain.  The pivot rule is fixed: among the nonzero
entries of the remaining block, pick one of minimal absolute value, ties
broken row-major (so the scan stops at the first unit).  Every caller,
solve_int and kernel_lattice included, decomposes by this one rule, so every
decomposition is reproducible.

A transform is built only when its caller reads it, and every one that is
built is the same whatever else is asked for: baselin.canonicalize reads U
and U^-1, baselin.base_objects only the diagonal, kernel_lattice reads V,
and solve_int reads V and U * b, which it gets by applying the row
operations to b in place of the identity.  Only
the tests and the snf selftest suite ask for U, U^-1 and V together.
"""

from __future__ import annotations

from typing import NamedTuple

from .intmat import Matrix, mul, zeros


def _freeze(rows) -> Matrix:
    """rows as a Matrix; the entries are ints already, so no int() pass."""
    return tuple(map(tuple, rows))


class SnfDecomposition(NamedTuple):
    """D = U * M * V.  A transform that was not asked for is None; given a
    right-hand side rhs, u is None and u_rhs is U * rhs."""

    u: Matrix | None
    d: Matrix
    v: Matrix | None
    u_inv: Matrix | None
    u_rhs: Matrix | None = None

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
    m: Matrix, nrows: int, ncols: int, *, u: bool = True, v: bool = True, rhs=None
) -> SnfDecomposition:
    """D = U * m * V for the nrows x ncols matrix m, by the pivot rule of the
    module docstring, with U and U^-1 if u and V if v.  rhs, an nrows-row
    matrix, takes the place of U: the row operations act on it, and it comes
    back as u_rhs = U * rhs while U itself is not built."""
    a = [list(r) for r in m]
    # the rows that take the row operations: rhs, else U; a transform not
    # asked for is an empty list, so its updates do nothing
    carry = [list(r) for r in rhs] if rhs is not None else _identity_rows(nrows) if u else []
    ui = _identity_rows(nrows) if u else []
    vv = _identity_rows(ncols) if v else []

    def row_swap(i, j):
        if i == j:
            return
        a[i], a[j] = a[j], a[i]
        if carry:
            carry[i], carry[j] = carry[j], carry[i]
        for r in ui:
            r[i], r[j] = r[j], r[i]

    def row_neg(i):
        a[i] = [-x for x in a[i]]
        if carry:
            carry[i] = [-x for x in carry[i]]
        for r in ui:
            r[i] = -r[i]

    def row_add(i, j, c):
        # row i += c * row j
        a[i] = [x + c * y for x, y in zip(a[i], a[j])]
        if carry:
            carry[i] = [x + c * y for x, y in zip(carry[i], carry[j])]
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
        u=_freeze(carry) if u and rhs is None else None,
        d=_freeze(a),
        v=_freeze(vv) if v else None,
        u_inv=_freeze(ui) if u else None,
        u_rhs=None if rhs is None else _freeze(carry),
    )


def solve_int(a: Matrix, b: Matrix, nrows: int, ncols: int) -> Matrix | None:
    """One solution x (ncols x bcols) of a @ x = b over the integers, or None.

    Unit coefficients are eliminated by substitution first (no growth, no
    transform tracking); only the residual core goes through the Smith form.
    """
    bcols = len(b[0]) if b else 0
    if nrows == 0:
        return zeros(ncols, bcols)
    rows = [list(r) + list(b[i]) for i, r in enumerate(a)]
    live_rows = set(range(nrows))
    live_cols = set(range(ncols))
    # (col, row-expression) substitutions in elimination order
    subs: list[tuple[int, list[int]]] = []
    while True:
        best = None
        for i in live_rows:
            row = rows[i]
            nnz = 0
            unit = None
            for j in live_cols:
                if row[j]:
                    nnz += 1
                    if row[j] in (1, -1):
                        unit = j if unit is None else min(unit, j)
            if unit is not None and (best is None or (nnz, i) < best[0]):
                best = ((nnz, i), i, unit)
        if best is None:
            break
        _, pi, pj = best
        prow = rows[pi]
        if prow[pj] == -1:
            prow = [-x for x in prow]
            rows[pi] = prow
        for i in live_rows:
            if i == pi:
                continue
            c = rows[i][pj]
            if c:
                rows[i] = [x - c * y for x, y in zip(rows[i], prow)]
        subs.append((pj, prow))
        live_rows.discard(pi)
        live_cols.discard(pj)
    sub_rows = sorted(live_rows)
    sub_cols = sorted(live_cols)
    core = _freeze([[rows[i][j] for j in sub_cols] for i in sub_rows])
    core_b = _freeze([rows[i][ncols:] for i in sub_rows])
    core_sol = _solve_int_snf(core, core_b, len(sub_rows), len(sub_cols), bcols)
    if core_sol is None:
        return None
    x = [[0] * bcols for _ in range(ncols)]
    for k, j in enumerate(sub_cols):
        for col in range(bcols):
            x[j][col] = core_sol[k][col]
    for pj, prow in reversed(subs):
        for col in range(bcols):
            acc = prow[ncols + col]
            for j in range(ncols):
                if j != pj and prow[j]:
                    acc -= prow[j] * x[j][col]
            x[pj][col] = acc
    return _freeze(x)


def _solve_int_snf(a: Matrix, b: Matrix, nrows: int, ncols: int, bcols: int) -> Matrix | None:
    if nrows == 0:
        return zeros(ncols, bcols)
    snf = smith_normal_form(a, nrows, ncols, u=False, rhs=b)
    c = snf.u_rhs
    y = [[0] * bcols for _ in range(ncols)]
    for i in range(nrows):
        d = snf.d[i][i] if i < min(nrows, ncols) else 0
        for j in range(bcols):
            if d == 0:
                if c[i][j] != 0:
                    return None
            else:
                q, r = divmod(c[i][j], d)
                if r:
                    return None
                if i < ncols:
                    y[i][j] = q
    return mul(snf.v, _freeze(y), ncols)


def kernel_lattice(a: Matrix, nrows: int, ncols: int) -> list[tuple[int, ...]]:
    """Basis columns of the lattice {x : a @ x = 0}."""
    if ncols == 0:
        return []
    if nrows == 0:
        return [tuple(1 if i == j else 0 for i in range(ncols)) for j in range(ncols)]
    snf = smith_normal_form(a, nrows, ncols, u=False)
    v = snf.v
    basis = []
    for j in range(ncols):
        d = snf.d[j][j] if j < min(nrows, ncols) else 0
        if d == 0:
            basis.append(tuple(v[i][j] for i in range(ncols)))
    return basis
