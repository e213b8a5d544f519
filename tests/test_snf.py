import math
import random
from itertools import product

import pytest

from arrowcat import ZZ, baselin, snf
from arrowcat.baselin import cokernel_base, kernel_base
from arrowcat.generators import Bounds, random_base_morphism, random_base_object
from arrowcat.intmat import det, identity, mat, mul, zeros
from arrowcat.snf import SnfDecomposition, kernel_lattice, smith_normal_form, solve_int
from oracles import reference_kernel_lattice, reference_smith_normal_form, reference_solve_int


def decompose(rows):
    m = mat(rows)
    return m, smith_normal_form(m, len(rows), len(rows[0]) if rows else 0)


def test_two_by_two_example():
    # oracle: multiply back and compare determinants
    m, s = decompose([[2, 4], [6, 8]])
    assert s.d == ((2, 0), (0, 4))
    assert mul(mul(s.u, m, 2), s.v, 2) == s.d
    assert abs(det(s.u)) == 1 and abs(det(s.v)) == 1
    assert s.diagonal()[0] * s.diagonal()[1] == abs(det(m)) == 8


def test_identity_case():
    m, s = decompose([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert s.u == identity(3) and s.v == identity(3) and s.d == m


def test_zero_case():
    m, s = decompose([[0, 0], [0, 0], [0, 0]])
    assert s.d == zeros(3, 2)
    assert s.u == identity(3) and s.v == identity(2)


def test_random_decompositions():
    rng = random.Random(99)
    for _ in range(250):
        r, c = rng.randint(1, 5), rng.randint(1, 5)
        m = mat([[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)])
        s = smith_normal_form(m, r, c)
        assert mul(mul(s.u, m, r), s.v, c) == s.d
        assert abs(det(s.u)) == 1 and abs(det(s.v)) == 1
        assert mul(s.u, s.u_inv, r) == identity(r)
        diag = s.diagonal()
        for x, y in zip(diag, diag[1:]):
            assert x >= 0 and y >= 0
            assert not (x == 0 and y != 0)
            if x and y:
                assert y % x == 0


def test_solve_and_kernel():
    a = mat([[2, 0], [0, 3]])
    x = solve_int(a, mat([[4], [9]]), 2, 2)
    assert x == ((2,), (3,))
    assert solve_int(a, mat([[1], [0]]), 2, 2) is None
    basis = kernel_lattice(mat([[1, 2]]), 1, 2)
    assert len(basis) == 1
    v = basis[0]
    assert v[0] + 2 * v[1] == 0 and v != (0, 0)


# Cross-checks against sympy's Smith normal form (a dev-only oracle; the
# tests skip when sympy is absent).


def _random_matrices(seed, count=150):
    """Seeded integer matrices up to 6x6, sparse, some with zero rows or columns."""
    rng = random.Random(seed)
    for _ in range(count):
        r, c = rng.randint(1, 6), rng.randint(1, 6)
        rows = [[rng.randint(-9, 9) if rng.random() < 0.6 else 0 for _ in range(c)] for _ in range(r)]
        if rng.random() < 0.3:
            rows[rng.randrange(r)] = [0] * c
        if rng.random() < 0.3:
            j = rng.randrange(c)
            for row in rows:
                row[j] = 0
        yield rng, r, c, mat(rows)


def test_invariant_factors_match_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors

    for _, r, c, m in _random_matrices(101):
        expected = tuple(abs(int(x)) for x in invariant_factors(sympy.Matrix(m), domain=sympy.ZZ))
        assert smith_normal_form(m, r, c).diagonal() == expected, m


def _sympy_solvable(sympy, m, b, r, c):
    """Integer solvability of m @ x = b, decided from sympy's S = U * m * V."""
    from sympy.matrices.normalforms import smith_normal_decomp

    s, u, v = smith_normal_decomp(sympy.Matrix(m), domain=sympy.ZZ)
    assert s == u * sympy.Matrix(m) * v
    ub = u * sympy.Matrix(b)
    for i in range(r):
        d = abs(int(s[i, i])) if i < min(r, c) else 0
        for x in ub.row(i):
            if (x % d if d else x) != 0:
                return False
    return True


def test_solve_int_solutions_satisfy_their_system():
    sympy = pytest.importorskip("sympy")
    found = infeasible = 0
    for rng, r, c, m in _random_matrices(102):
        bcols = rng.randint(1, 2)
        x0 = mat([[rng.randint(-5, 5) for _ in range(bcols)] for _ in range(c)])
        # b = m @ x0 is solvable; a random b may not be
        random_b = mat([[rng.randint(-9, 9) for _ in range(bcols)] for _ in range(r)])
        for b in (mul(m, x0, c), random_b):
            x = solve_int(m, b, r, c)
            assert (x is not None) == _sympy_solvable(sympy, m, b, r, c), (m, b)
            if x is None:
                infeasible += 1
            else:
                assert mul(m, x, c) == b, (m, b, x)
                found += 1
    assert found >= 150 and infeasible >= 20, (found, infeasible)


def test_kernel_lattice_is_annihilated_and_has_full_rank():
    sympy = pytest.importorskip("sympy")
    for _, r, c, m in _random_matrices(103):
        basis = kernel_lattice(m, r, c)
        assert len(basis) == c - sympy.Matrix(m).rank(), m
        if basis:
            assert sympy.Matrix(basis).rank() == len(basis), m
        for v in basis:
            assert all(sum(x * y for x, y in zip(row, v)) == 0 for row in m), (m, v)


# Property tests with shrinking (hypothesis, a dev-only tool: each test skips
# when it is absent, and the example tests above still run).


def _hypothesis():
    """(given, settings, strategies), or a skip when hypothesis is absent."""
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings
    from hypothesis import strategies as st

    return given, settings(max_examples=120, deadline=None), st


def _matrices(st):
    """(m, nrows, ncols) up to 5x5 with entries in -9..9, zero entries favoured."""

    @st.composite
    def matrices(draw):
        r, c = draw(st.integers(1, 5)), draw(st.integers(1, 5))
        entry = st.one_of(st.just(0), st.integers(-9, 9))
        return mat([[draw(entry) for _ in range(c)] for _ in range(r)]), r, c

    return matrices()


def test_smith_normal_form_property():
    given, settings, st = _hypothesis()

    @settings
    @given(_matrices(st))
    def check(case):
        m, r, c = case
        s = smith_normal_form(m, r, c)
        assert mul(mul(s.u, m, r), s.v, c) == s.d
        assert all(s.d[i][j] == 0 for i in range(r) for j in range(c) if i != j)
        diag = s.diagonal()
        assert all(x >= 0 for x in diag)
        for x, y in zip(diag, diag[1:]):
            assert (y % x == 0) if x else y == 0

    check()


def test_solve_int_solution_property():
    given, settings, st = _hypothesis()

    @settings
    @given(_matrices(st), st.data())
    def check(case, data):
        m, r, c = case
        x0 = mat([[data.draw(st.integers(-5, 5))] for _ in range(c)])
        # m @ x0 is solvable; an arbitrary b may not be
        b_any = mat([[data.draw(st.integers(-9, 9))] for _ in range(r)])
        for b in (mul(m, x0, c), b_any):
            x = solve_int(m, b, r, c)
            if x is not None:
                assert mul(m, x, c) == b
            else:
                assert b is b_any

    check()


def test_solve_int_none_means_no_solution():
    """Congruences a.x = b (mod m_i) in at most 3 unknowns with moduli up to 6,
    posed to solve_int with one slack column per row, against brute force over
    one period of the solution set."""
    given, settings, st = _hypothesis()

    @st.composite
    def congruences(draw):
        n = draw(st.integers(1, 3))
        nrows = draw(st.integers(1, 3))
        mods = [draw(st.integers(2, 6)) for _ in range(nrows)]
        rows = [[draw(st.integers(-6, 6)) for _ in range(n)] for _ in range(nrows)]
        rhs = [draw(st.integers(-6, 6)) for _ in range(nrows)]
        return rows, rhs, mods, n

    @settings
    @given(congruences())
    def check(case):
        rows, rhs, mods, n = case
        nrows = len(rows)
        a = mat([row + [mods[i] if j == i else 0 for j in range(nrows)] for i, row in enumerate(rows)])
        x = solve_int(a, mat([[v] for v in rhs]), nrows, n + nrows)
        period = math.lcm(*mods)
        feasible = any(
            all((sum(c * v for c, v in zip(row, xs)) - t) % m == 0 for row, t, m in zip(rows, rhs, mods))
            for xs in product(range(period), repeat=n)
        )
        assert (x is not None) == feasible

    check()


# Differential tests against the reference elimination in tests/oracles.py,
# which tracks every transform on every step: a transform that is asked for,
# and every solve and kernel lattice, must equal the reference value.


def _differential_matrices(seed, count):
    """Seeded matrices of 0-7 rows and columns with entries up to 16 bits,
    sparse or dense, some with several unit entries."""
    rng = random.Random(seed)
    for _ in range(count):
        r, c = rng.randint(0, 7), rng.randint(0, 7)
        bits, density = rng.choice((2, 4, 8, 16)), rng.random()
        rows = [[rng.randint(-(2**bits), 2**bits) if rng.random() < density else 0 for _ in range(c)] for _ in range(r)]
        if r and c and rng.random() < 0.4:
            for _ in range(rng.randint(2, 4)):
                rows[rng.randrange(r)][rng.randrange(c)] = rng.choice((1, -1))
        yield rng, r, c, mat(rows)


def test_requested_transforms_equal_the_reference():
    seen = {"empty": 0, "units": 0}
    for rng, r, c, m in _differential_matrices(2101, 1000):
        u, d, v, u_inv = reference_smith_normal_form(m, r, c)
        # U with U^-1 and V (selftest), U with U^-1 (canonicalize), the
        # diagonal alone (base_objects), and V alone (no package caller)
        for ask_u, ask_v in ((True, True), (True, False), (False, False), (False, True)):
            s = smith_normal_form(m, r, c, u=ask_u, v=ask_v)
            assert s.d == d, m
            assert (s.u, s.u_inv) == ((u, u_inv) if ask_u else (None, None)), m
            assert s.v == (v if ask_v else None), m
        seen["empty"] += r == 0 or c == 0
        seen["units"] += sum(x in (1, -1) for row in m for x in row) >= 2
    assert seen["empty"] >= 150 and seen["units"] >= 250, seen


def test_solve_int_and_kernel_lattice_equal_the_reference():
    found = infeasible = 0
    for rng, r, c, m in _differential_matrices(2102, 1000):
        assert kernel_lattice(m, r, c) == reference_kernel_lattice(m, r, c), m
        bcols = rng.randint(1, 2)
        x0 = [[rng.randint(-5, 5) for _ in range(bcols)] for _ in range(c)]
        solvable = mat([[sum(m[i][k] * x0[k][j] for k in range(c)) for j in range(bcols)] for i in range(r)])
        any_b = mat([[rng.randint(-99, 99) for _ in range(bcols)] for _ in range(r)])
        for b in (solvable, any_b):
            x = solve_int(m, b, r, c)
            assert x == reference_solve_int(m, b, r, c), (m, b)
            found += x is not None
            infeasible += x is None
    assert found >= 1000 and infeasible >= 500, (found, infeasible)


def test_kernel_lattice_runs_no_smith_form(monkeypatch):
    """kernel_lattice reads its basis off the column echelon form alone: with
    every Smith decomposition raising, it gives the same bases."""
    cases = [(r, c, m, kernel_lattice(m, r, c)) for _, r, c, m in _differential_matrices(2104, 300)]

    def no_smith_form(*args, **kwargs):
        raise AssertionError("kernel_lattice decomposed")

    monkeypatch.setattr(snf, "smith_normal_form", no_smith_form)
    for r, c, m, basis in cases:
        assert kernel_lattice(m, r, c) == basis, m
    assert sum(len(basis) for *_, basis in cases) >= 300


def test_kernel_and_cokernel_equal_the_reference(monkeypatch):
    """Over Z, kernel_base(f) and cokernel_base(f) equal the values that
    baselin computes when every decomposition is the reference one, which
    builds every transform."""
    rng = random.Random(2103)
    bounds = Bounds(max_dim=4)
    cases = []
    for _ in range(150):
        x, y = random_base_object(rng, ZZ, bounds), random_base_object(rng, ZZ, bounds)
        f = random_base_morphism(rng, x, y, bounds)
        if not f.is_zero_mor():
            cases.append((f, kernel_base.__wrapped__(f), cokernel_base.__wrapped__(f)))
    assert len(cases) >= 60, len(cases)

    def reference_decomposition(m, nrows, ncols, **asked):
        return SnfDecomposition(*reference_smith_normal_form(m, nrows, ncols))

    monkeypatch.setattr(baselin, "smith_normal_form", reference_decomposition)
    monkeypatch.setattr(baselin, "kernel_lattice", reference_kernel_lattice)
    for f, k, q in cases:
        assert kernel_base.__wrapped__(f) == k, f
        assert cokernel_base.__wrapped__(f) == q, f
