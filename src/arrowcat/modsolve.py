"""Linear algebra modulo a prime: the whole of the field-ring path.

Solving, nullspaces and row spaces all come from one reduced row echelon
form.  The solver takes a matrix right-hand side and solves all its columns
in that one row reduction.  The nonzero rows of a reduced row echelon form,
and hence the nullspace basis read off its free columns, depend only on the
row space of the input, not on the order of its rows.
"""

from __future__ import annotations


def _rref_mod_p(rows: list[list[int]], ncols: int, p: int):
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


def solve_mod_p(a, b, nrows: int, ncols: int, nrhs: int, p: int):
    """One solution X of a X = b (mod p), or None.

    b is nrows x nrhs, and X is ncols x nrhs with entries in [0, p), from one
    row reduction of [a | b]; the rows of X at the free columns of a are
    zero.  So each column of X is the solution its column of b gets alone,
    and for L X = H, X is the solution of the Kronecker system (L (x) I) x =
    vec H, whose pivot columns are the pivots of L times every column of H.
    """
    aug = [
        [a[i][j] % p for j in range(ncols)] + [b[i][j] % p for j in range(nrhs)]
        for i in range(nrows)
    ]
    pivots = _rref_mod_p(aug, ncols, p)
    for row in aug[len(pivots):]:
        if any(row[ncols:]):
            return None
    x = [(0,) * nrhs] * ncols
    for r, c in pivots:
        x[c] = tuple(aug[r][ncols:])
    return tuple(x)


def row_space_mod_p(a, nrows: int, ncols: int, p: int):
    """(rows, pivots): the nonzero rows of the reduced row echelon form of a
    (mod p), as tuples with entries in [0, p), and the pivot column of each,
    increasing.  Row k is 1 at pivots[k] and 0 at every other pivot."""
    rows = [[a[i][j] % p for j in range(ncols)] for i in range(nrows)]
    pivots = _rref_mod_p(rows, ncols, p)
    return tuple(tuple(rows[r]) for r, _ in pivots), tuple(c for _, c in pivots)


def nullspace_mod_p(a, nrows: int, ncols: int, p: int):
    """Basis of the nullspace of a (mod p), one vector per free column of
    the reduced row echelon form: 1 there, minus that column at the pivots."""
    rows, pivots = row_space_mod_p(a, nrows, ncols, p)
    pivot_cols = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_cols:
            continue
        v = [0] * ncols
        v[free] = 1
        for row, c in zip(rows, pivots):
            v[c] = (-row[free]) % p
        basis.append(tuple(v))
    return basis
