"""Linear algebra modulo a prime: the whole of the field-ring path.

Solving, nullspaces and row spaces all come from one reduced row echelon
form, computed on sparse rows: each row is a {column: entry} dict of its
nonzero entries, as the systems of the 2-dimensional layer are mostly
zeros.  A matrix is passed as nrows rows of exactly ncols entries.  The solver
takes a matrix right-hand side and solves all its columns in that one row
reduction.  The reduced row echelon form is unique, so its nonzero rows, and
hence the nullspace basis read off its free columns, depend only on the row
space of the input, not on the order of its rows or of elimination.
"""

from __future__ import annotations


def _subtract(row: dict[int, int], f: int, other: dict[int, int], p: int) -> None:
    """row -= f * other (mod p), in place; f and the entries of other are
    nonzero mod p, so an entry that cancels was present in row."""
    for c, y in other.items():
        v = (row.get(c, 0) - f * y) % p
        if v:
            row[c] = v
        else:
            del row[c]


def _rref(rows, ncols: int, p: int):
    """The reduced row echelon form of sparse rows, pivoting only in columns
    below ncols (the columns from ncols on are right-hand sides).

    Rows are reduced one at a time against the pivot rows so far, each of
    which is 1 at its pivot and 0 at every other pivot; a row that keeps an
    entry below ncols becomes a pivot row at its first such column and is
    cleared from the others.  Returns {pivot column: row}, or None as soon as
    a row is zero below ncols but not past it (an inconsistent system).
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        if not row:
            continue
        if pivots:
            # pivot rows vanish at the other pivots, so one pass clears them
            for c in [c for c in row if c in pivots]:
                _subtract(row, row[c], pivots[c], p)
            if not row:
                continue
        lead = min(row)
        if lead >= ncols:
            return None
        if row[lead] != 1:
            inv = pow(row[lead], -1, p)
            for c in row:
                row[c] = row[c] * inv % p
        for other in pivots.values():
            f = other.get(lead)
            if f:
                _subtract(other, f, row, p)
        pivots[lead] = row
    return pivots


def solve_mod_p(a, b, nrows: int, ncols: int, nrhs: int, p: int):
    """One solution X of a X = b (mod p), or None.

    b is nrows x nrhs, and X is ncols x nrhs with entries in [0, p), from one
    row reduction of [a | b]; the rows of X at the free columns of a are
    zero.  So each column of X is the solution its column of b gets alone,
    and for L X = H, X is the solution of the Kronecker system (L (x) I) x =
    vec H, whose pivot columns are the pivots of L times every column of H.
    """
    rows = [{j: v for j, x in enumerate([*a[i], *b[i]]) if (v := x % p)} for i in range(nrows)]
    pivots = _rref(rows, ncols, p)
    if pivots is None:
        return None
    x = [(0,) * nrhs] * ncols
    for c, row in pivots.items():
        x[c] = tuple([row.get(ncols + j, 0) for j in range(nrhs)])
    return tuple(x)


def row_space_mod_p(a, nrows: int, ncols: int, p: int):
    """(rows, pivots): the nonzero rows of the reduced row echelon form of a
    (mod p), as tuples with entries in [0, p), and the pivot column of each,
    increasing.  Row k is 1 at pivots[k] and 0 at every other pivot."""
    pivots = _rref([{j: v for j, x in enumerate(a[i]) if (v := x % p)} for i in range(nrows)], ncols, p)
    order = sorted(pivots)
    rows = tuple(tuple([row.get(j, 0) for j in range(ncols)]) for row in map(pivots.get, order))
    return rows, tuple(order)


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
