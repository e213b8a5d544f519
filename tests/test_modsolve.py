"""Property tests for the mod-p engine: solve_mod_p, nullspace_mod_p and
row_space_mod_p, with shrinking, and its sparse row reduction against the
dense reference in oracles.  Skipped when hypothesis is absent; it is a
development tool, never a package dependency."""

from itertools import product

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from arrowcat.modsolve import nullspace_mod_p, row_space_mod_p, solve_mod_p  # noqa: E402
from oracles import rank_mod_p, rref_mod_p  # noqa: E402

PRIMES = (2, 3, 5, 7, 2**31 - 1)
SETTINGS = settings(max_examples=150, deadline=None)


@st.composite
def systems(draw, primes=PRIMES, max_rows=5, max_cols=5):
    """(a, b, nrows, ncols, p): entries are any integers, reduced by the solver."""
    p = draw(st.sampled_from(primes))
    nrows = draw(st.integers(0, max_rows))
    ncols = draw(st.integers(0, max_cols))
    entry = st.integers(-3 * p, 3 * p)
    a = [draw(st.lists(entry, min_size=ncols, max_size=ncols)) for _ in range(nrows)]
    b = draw(st.lists(entry, min_size=nrows, max_size=nrows))
    return a, b, nrows, ncols, p


def _apply(a, x, p):
    return [sum(r * v for r, v in zip(row, x)) % p for row in a]


def _solve_column(a, b, nrows, ncols, p):
    """solve_mod_p on the one-column right-hand side b, as a vector or None."""
    x = solve_mod_p(a, [[v] for v in b], nrows, ncols, 1, p)
    return None if x is None else [r[0] for r in x]


def _feasible(a, b, ncols, p):
    target = [v % p for v in b]
    return any(_apply(a, x, p) == target for x in product(range(p), repeat=ncols))


@SETTINGS
@given(systems())
def test_solution_satisfies_the_system(sys_):
    a, b, nrows, ncols, p = sys_
    x = _solve_column(a, b, nrows, ncols, p)
    if x is not None:
        assert len(x) == ncols and all(0 <= v < p for v in x)
        assert _apply(a, x, p) == [v % p for v in b]


@SETTINGS
@given(systems(primes=(2, 3), max_rows=4, max_cols=4))
def test_none_means_infeasible(sys_):
    a, b, nrows, ncols, p = sys_
    assert (_solve_column(a, b, nrows, ncols, p) is not None) == _feasible(a, b, ncols, p)


@SETTINGS
@given(systems(primes=(2, 3), max_rows=4, max_cols=3), st.integers(1, 3), st.data())
def test_matrix_right_hand_side(sys_, nrhs, data):
    """Each column of the solution is that column solved alone; X solves
    a X = b, and None means some column is infeasible."""
    a, b0, nrows, ncols, p = sys_
    entry = st.integers(-3 * p, 3 * p)
    extra = [data.draw(st.lists(entry, min_size=nrows, max_size=nrows)) for _ in range(nrhs - 1)]
    columns = [b0] + extra
    b = [[col[i] for col in columns] for i in range(nrows)]
    x = solve_mod_p(a, b, nrows, ncols, nrhs, p)
    alone = [_solve_column(a, col, nrows, ncols, p) for col in columns]
    if x is None:
        assert not all(_feasible(a, col, ncols, p) for col in columns)
        assert None in alone
        return
    assert len(x) == ncols and all(len(r) == nrhs and all(0 <= v < p for v in r) for r in x)
    for j, col in enumerate(columns):
        xj = [r[j] for r in x]
        assert _apply(a, xj, p) == [v % p for v in col]
        assert xj == alone[j]


@SETTINGS
@given(systems())
def test_nullspace_basis(sys_):
    a, _, nrows, ncols, p = sys_
    basis = nullspace_mod_p(a, nrows, ncols, p)
    for v in basis:
        assert _apply(a, v, p) == [0] * nrows
    assert len(basis) == ncols - rank_mod_p(a, p)
    assert rank_mod_p(basis, p) == len(basis)  # independent


@SETTINGS
@given(systems(primes=(2, 3), max_rows=4, max_cols=4))
def test_nullspace_spans_every_solution(sys_):
    a, _, nrows, ncols, p = sys_
    solutions = sum(1 for x in product(range(p), repeat=ncols) if not any(_apply(a, x, p)))
    assert solutions == p ** len(nullspace_mod_p(a, nrows, ncols, p))


@SETTINGS
@given(systems())
def test_row_space_is_reduced_row_echelon(sys_):
    a, _, nrows, ncols, p = sys_
    rows, pivots = row_space_mod_p(a, nrows, ncols, p)
    assert len(rows) == len(pivots) == rank_mod_p(a, p)
    assert list(pivots) == sorted(set(pivots))
    for k, (row, c) in enumerate(zip(rows, pivots)):
        assert len(row) == ncols and all(0 <= v < p for v in row)
        assert not any(row[:c]) and row[c] == 1
        assert all(rows[j][c] == 0 for j in range(len(rows)) if j != k)
    # the rows span the row space of a
    assert rank_mod_p(list(rows) + [list(r) for r in a], p) == len(rows)


@SETTINGS
@given(systems(), st.randoms(use_true_random=False))
def test_row_space_depends_only_on_the_subspace(sys_, rnd):
    a, _, nrows, ncols, p = sys_
    # the same row space, presented by shuffled rows plus a combination of them
    other = [list(r) for r in a]
    rnd.shuffle(other)
    coefs = [rnd.randrange(p) for _ in a]
    other.append([sum(c * r[j] for c, r in zip(coefs, a)) for j in range(ncols)])
    expected = row_space_mod_p(a, nrows, ncols, p)
    assert row_space_mod_p(other, len(other), ncols, p) == expected


@st.composite
def sparse_systems(draw):
    """(a, b, nrows, ncols, nrhs, p) over F2, F3 or F5, up to 7 x 7 with up
    to 3 right-hand sides, zero entries favoured."""
    p = draw(st.sampled_from((2, 3, 5)))
    nrows, ncols, nrhs = draw(st.integers(0, 7)), draw(st.integers(0, 7)), draw(st.integers(1, 3))
    entry = st.one_of(st.just(0), st.just(0), st.integers(-2 * p, 2 * p))
    a = [[draw(entry) for _ in range(ncols)] for _ in range(nrows)]
    b = [[draw(entry) for _ in range(nrhs)] for _ in range(nrows)]
    return a, b, nrows, ncols, nrhs, p


def _dense_solve(a, b, nrows, ncols, nrhs, p):
    """solve_mod_p by the dense reference: one reduction of [a | b]."""
    aug = [[x % p for x in a[i]] + [x % p for x in b[i]] for i in range(nrows)]
    pivots = rref_mod_p(aug, ncols, p)
    if any(any(row[ncols:]) for row in aug[len(pivots):]):
        return None
    x = [(0,) * nrhs] * ncols
    for r, c in pivots:
        x[c] = tuple(aug[r][ncols:])
    return tuple(x)


@SETTINGS
@given(sparse_systems())
def test_sparse_reduction_equals_the_dense_reference(sys_):
    """The reduced row echelon form is unique: the sparse reduction finds the
    reference's pivots and rows, and so the same solutions and nullspace."""
    a, b, nrows, ncols, nrhs, p = sys_
    dense = [[x % p for x in row] for row in a]
    pivots = rref_mod_p(dense, ncols, p)
    rows = tuple(tuple(dense[r]) for r, _ in pivots)
    assert row_space_mod_p(a, nrows, ncols, p) == (rows, tuple(c for _, c in pivots))
    assert solve_mod_p(a, b, nrows, ncols, nrhs, p) == _dense_solve(a, b, nrows, ncols, nrhs, p)

