"""Exact integer matrix helpers.

Matrices are tuples of row tuples.  Dimensions are always passed or carried
explicitly so that 0xN and Nx0 matrices keep consistent shapes.
"""

from __future__ import annotations

Matrix = tuple[tuple[int, ...], ...]


def mat(rows) -> Matrix:
    return tuple(tuple(int(x) for x in r) for r in rows)


def zeros(nrows: int, ncols: int) -> Matrix:
    return ((0,) * ncols,) * nrows


def identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def shape_ok(m: Matrix, nrows: int, ncols: int) -> bool:
    return len(m) == nrows and all(len(r) == ncols for r in m)


def add(a: Matrix, b: Matrix) -> Matrix:
    return tuple([tuple([x + y for x, y in zip(ra, rb)]) for ra, rb in zip(a, b)])


def sub(a: Matrix, b: Matrix) -> Matrix:
    return tuple([tuple([x - y for x, y in zip(ra, rb)]) for ra, rb in zip(a, b)])


def neg(a: Matrix) -> Matrix:
    return tuple([tuple([-x for x in r]) for r in a])


def mul(a: Matrix, b: Matrix, inner: int | None = None) -> Matrix:
    """a @ b where a is m x k and b is k x n."""
    if inner is None:
        inner = len(b)
    n = len(b[0]) if b else 0
    if inner == 0:
        return zeros(len(a), n)
    return tuple(
        tuple(sum(ra[k] * b[k][j] for k in range(inner)) for j in range(n))
        for ra in a
    )


def hstack(blocks: list[Matrix], nrows: int) -> Matrix:
    out = []
    for i in range(nrows):
        row: list[int] = []
        for b in blocks:
            row.extend(b[i])
        out.append(tuple(row))
    return tuple(out)


def is_zero(a: Matrix) -> bool:
    return not any(map(any, a))


def det(a: Matrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = len(a)
    if n == 0:
        return 1
    m = [list(r) for r in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]
