"""Run time at moderate sizes on dense or growth-prone inputs.

Each test states its bound in seconds: at least 10 times the time measured
on a 2-vCPU machine (Python 3.11), so that a slow CI runner meets it.  The
bounds catch gross blow-up (integer entries exploding under elimination, a
reduction far worse than cubic), not a few percent of speed.
"""

import random
import time

import pytest

from arrowcat import GF, ZZ, base_morphism, field_object, identity_mor, z_object
from arrowcat.classify2 import classify2
from arrowcat.core2 import two_morphism, two_object
from arrowcat.generators import Bounds, random_generalized_snake_instance, random_snake_instance
from arrowcat.limits2 import cokernel2, kernel2
from arrowcat.sequences import exact_at
from arrowcat.snake import column_data, generalized_snake, plain_snake
from oracles import dense_z_square


def test_dense_z_classify_at_n24():
    """classify2 on x -> y over Z^24: x has a random boundary with 8-bit
    entries, y the identity, the bottom is random and the top its product
    with the boundary.  Measured 0.09 s; bound 10 s."""
    n, bound_s = 24, 10.0
    rng = random.Random(1)
    z = z_object(n)

    def dense():
        return [[rng.randint(-128, 127) for _ in range(n)] for _ in range(n)]

    d, b = dense(), dense()
    top = [[sum(b[i][k] * d[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    x, y = two_object(base_morphism(z, z, d)), two_object(identity_mor(z))
    u = two_morphism(x, y, base_morphism(z, z, top), base_morphism(z, z, b))
    t0 = time.perf_counter()
    c = classify2(u)
    elapsed = time.perf_counter() - t0
    # the boundary of x is injective, so u is faithful but not full
    assert c.faithful and not c.full
    assert elapsed < bound_s, f"{elapsed:.2f} s"


def test_dense_z_classify_at_n48():
    """The classify of test_dense_z_classify_at_n24 over Z^48.  Every flag
    reads its objects off Smith diagonals without transforms; while the
    flags built U and U^-1 it took 3.4 s.  Measured 0.7 s; bound 10 s."""
    u, bound_s = dense_z_square(48), 10.0
    t0 = time.perf_counter()
    c = classify2(u)
    elapsed = time.perf_counter() - t0
    assert c.faithful and not c.full
    assert elapsed < bound_s, f"{elapsed:.2f} s"


def test_dense_z_kernel_and_cokernel_at_n24():
    """kernel2 and cokernel2 of dense_z_square(24): the kernel lattices of
    dense 8-bit systems.  Measured 0.22 s; bound 10 s."""
    u, bound_s = dense_z_square(24), 10.0
    t0 = time.perf_counter()
    k, q = kernel2(u), cokernel2(u)
    elapsed = time.perf_counter() - t0
    assert [(x.top.ngens, x.bottom.ngens) for x in (k.obj, q.obj)] == [(24, 24), (25, 24)]
    assert elapsed < bound_s, f"{elapsed:.2f} s"


def test_kernel_of_the_identity_square_of_f2_200():
    """kernel2 of the identity square on F_2^200 (identity boundary).
    Measured 0.4 s; bound 20 s."""
    n, bound_s = 200, 20.0
    v = field_object(GF(2), n)
    e = two_object(identity_mor(v))
    t0 = time.perf_counter()
    k = kernel2(two_morphism(e, e, identity_mor(v), identity_mor(v)))
    elapsed = time.perf_counter() - t0
    assert (k.obj.top.ngens, k.obj.bottom.ngens) == (n, n)
    assert elapsed < bound_s, f"{elapsed:.2f} s"


@pytest.mark.parametrize(
    "draw, bound_s, max_bits",
    [(13, 1.0, 64), (69, 2.0, 2048)],
)
def test_plain_z_snake_with_a_rank_deficient_tail(draw, bound_s, max_bits):
    """plain_snake over Z on draw i of random_snake_instance(Random(777),
    ZZ, Bounds(max_dim=2 + i % 2)).  The connecting-cell system of its tail
    is rank-deficient; with its solution read off the Smith form's V it
    returned 14,026-bit entries in 2.5 s on draw 13 and ran past 60 s on
    draw 69.  Measured 0.02 s and 24 bits (draw 13), 0.04 s and 30 bits
    (draw 69; 743 bits while kernel_lattice read its bases off the Smith
    form's V)."""
    rng = random.Random(777)
    for i in range(draw + 1):
        inst = random_snake_instance(rng, ZZ, Bounds(max_dim=2 + i % 2))
    cols = [column_data(x) for x in inst.cols]
    t0 = time.perf_counter()
    res = plain_snake(*inst.row1, *inst.row2, *cols, *inst.cells)
    elapsed = time.perf_counter() - t0
    maps, cells = res.sequence()
    assert all(exact_at(maps[k], cells[k], maps[k + 1]) for k in range(4))
    mats = [m for u in maps for m in (u.top, u.bottom)] + [c.mat for c in cells]
    bits = max(abs(e).bit_length() for m in mats for row in m.mat for e in row)
    assert bits <= max_bits, bits
    assert elapsed < bound_s, f"{elapsed:.2f} s"


def _entry_bits(mors):
    return max((abs(e).bit_length() for m in mors for row in m.mat for e in row), default=0)


def _z_snake_draws(stream):
    """The instances of a size-budget stream; draw i uses
    Bounds(max_dim=2 + i % 2) unless stated."""
    if stream == "plain-777":
        rng = random.Random(777)
        for i in range(70):
            inst = random_snake_instance(rng, ZZ, Bounds(max_dim=2 + i % 2))
            if i in (13, 21, 69):
                yield inst
    elif stream == "generalized-10":
        yield random_generalized_snake_instance(random.Random(10), ZZ, Bounds(max_dim=3))
    else:
        rng = random.Random(2777)
        for i in range(80):
            yield random_generalized_snake_instance(rng, ZZ, Bounds(max_dim=2 + i % 2))


@pytest.mark.parametrize("stream", ["plain-777", "generalized-10", "generalized-2777"])
def test_z_snake_entries_stay_small(stream):
    """Size budget over Z: the canonical column data (their objects,
    inclusions, projections and cells) stay within 32 bits and the six-term
    outputs within 1,024 bits, on plain draws 13, 21 and 69 of
    Random(777), generalized Random(10) at max_dim 3, and the first 80
    generalized draws of Random(2777).  Measured maxima, column data /
    outputs: 14 / 138, 8 / 440 and 24 / 113 bits (8 / 427 and 24 / 158
    while the generalized snake reduced its rows to an inner diagram of
    extensions).  While kernel_lattice read its bases off the Smith form's
    V they were 1,935 / 743, 31 / 2,055 and 454 / 1,011."""
    col_bits = out_bits = 0
    for inst in _z_snake_draws(stream):
        cols = [column_data(x) for x in inst.cols]
        for c in cols:
            col_bits = max(col_bits, _entry_bits([
                c.ker.obj.boundary, c.ker.kmor.top, c.ker.kmor.bottom, c.ker.kappa.mat,
                c.coker.obj.boundary, c.coker.qmor.top, c.coker.qmor.bottom, c.coker.zeta.mat,
            ]))
        maps, cells = generalized_snake(*inst.row1, *inst.row2, *cols, *inst.cells).sequence()
        out_bits = max(out_bits, _entry_bits([m for u in maps for m in (u.top, u.bottom)] + [c.mat for c in cells]))
    assert col_bits <= 32, col_bits
    assert out_bits <= 1024, out_bits
