"""Property suites: the randomized verification battery behind `selftest`.

Each suite is a function (seed, cases, bounds) -> SuiteResult counting
failures.  Most are built by the `suite` driver from one case function
over a schedule of rings; `SUITES` registers every suite under the name its
report prints, and `run_all` executes them and aggregates a deterministic
report.  The acceptance tests drive the same functions at the pinned case
counts.
"""

from __future__ import annotations

import random

from .baselin import (
    LinearSystem,
    cokernel_base,
    exact_at_base,
    factor_base,
    kernel_base,
    pair_base,
    pullback_base,
    split_data_base,
)
from .basemor import compose, identity_mor, zero_mor
from .classify2 import classify2, equivalence_data2, z_counterexample
from .core2 import (
    add_cell,
    add_homotopy,
    cell_to_zero,
    compose2,
    hcomp2,
    identity2,
    identity_cell,
    is_zero_equivalent,
    loop_cell,
    null_cell,
    two_morphism,
    two_object,
    vcomp2,
    whisker_left,
    whisker_right,
    zero2,
    zero_two_object,
)
from .factor2 import factor2, goodness_comparisons, orthogonal2
from .generators import (
    Bounds,
    _sample_system,
    extension_on,
    random_3x3_instance,
    random_base_morphism,
    random_base_object,
    random_cell_on,
    random_complex_extension,
    random_extension,
    random_finite_object,
    random_generalized_snake_instance,
    random_shortfive_instance,
    random_snake_instance,
    random_square,
    random_two_object,
    to_chain_maps,
)
from .lemmas import (
    ShortFiveInput,
    ThreeByThree,
    check_3x3,
    check_3x3_part2,
    check_short_five,
)
from .les import les_full_sequence, les_homology
from .limits2 import (
    biproduct2,
    cokernel2,
    coroot2,
    factor_cokernel2,
    factor_kernel2,
    factor_rel_cokernel2,
    factor_rel_kernel2,
    factor_root2,
    factor_through,
    kernel2,
    loop_bar,
    loop_tilde,
    omega_obj,
    pair2,
    pi0_mor,
    pi0_obj,
    pi1_mor,
    pi1_obj,
    pullback2,
    rel_cokernel2,
    rel_kernel2,
    root2,
    sequence_of,
    sigma_obj,
)
from .matrix2 import grid_product, matrix_assemble2, matrix_of2
from .puppe import puppe
from .rings import GF, ZZ, BaseRing
from .sequences import (
    ComplexSequence,
    complex_homology_at,
    exactness,
    is_extension,
    loop_exact,
    pad_exact_at,
    padded_window,
)
from .snake import column_data, generalized_snake
from .anaconda import anaconda, anaconda_full_sequence
from .intmat import det, identity, mat, mul
from .snf import smith_normal_form
from .workspace import Workspace, parse_workspace, serialize_workspace

FIELD_RINGS = (GF(2), GF(3), GF(5))
ALL_RINGS = (GF(2), GF(3), GF(5), ZZ)


class SuiteResult:
    def __init__(self, name: str, cases: int, failures: int, notes: list | None = None):
        self.name = name
        self.cases = cases
        self.failures = failures
        self.notes = [] if notes is None else notes

    @property
    def ok(self) -> bool:
        return self.failures == 0


def _cycle(rings, cases):
    """Round robin: case i runs over rings[i % len(rings)]."""
    return [rings[i % len(rings)] for i in range(cases)]


def _blocks(rings, cases):
    """max(1, cases // len(rings)) consecutive cases per ring."""
    return [ring for ring in rings for _ in range(max(1, cases // len(rings)))]


def suite(name: str, rings, schedule=_cycle):
    """Turn case(rng, ring, k, bounds) -> bool into a suite.

    The suite run(seed, cases, bounds) draws every case from one
    random.Random(seed), over the rings in schedule(rings, cases) order; k
    is the number of earlier cases over the same ring.  A case that raises
    AssertionError (an internal invariant failed) or ValueError (a 2-layer
    constructor refused a value, such as a square that does not commute)
    counts as a failure, the first such message is noted, and the suite
    goes on with its next case.
    """

    def wrap(case):
        def run(seed: int, cases: int, bounds: Bounds) -> SuiteResult:
            rng = random.Random(seed)
            result = SuiteResult(name, 0, 0)
            seen = {}
            for ring in schedule(rings, cases):
                k = seen[ring] = seen.get(ring, -1) + 1
                try:
                    ok = case(rng, ring, k, bounds)
                except (AssertionError, ValueError) as e:
                    ok = False
                    if not result.notes:
                        result.notes.append(f"internal error: {e}")
                result.cases += 1
                result.failures += not ok
            return result

        return run

    return wrap


@suite("snf", (ZZ,))
def suite_snf(rng, ring, k, bounds):
    r = rng.randint(1, 5)
    c = rng.randint(1, 5)
    m = mat([[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)])
    s = smith_normal_form(m, r, c)
    ok = (
        mul(mul(s.u, m, r), s.v, c) == s.d
        and abs(det(s.u)) == 1
        and abs(det(s.v)) == 1
        and mul(s.u, s.u_inv, r) == identity(r)
    )
    diag = s.diagonal()
    for x, y in zip(diag, diag[1:]):
        if x < 0 or y < 0 or (x == 0 and y != 0) or (x != 0 and y != 0 and y % x):
            ok = False
    return ok


@suite("base-universal", ALL_RINGS, _blocks)
def suite_base_universal(rng, ring, k, bounds):
    x = random_base_object(rng, ring, bounds)
    y = random_base_object(rng, ring, bounds)
    f = random_base_morphism(rng, x, y, bounds)
    k_obj, kmor = kernel_base(f)
    q_obj, q = cokernel_base(f)
    ok = compose(f, kmor).is_zero_mor() and compose(q, f).is_zero_mor()
    ok = ok and kernel_base(kmor)[0].is_zero and cokernel_base(q)[0].is_zero
    # rivals through the kernel and cokernel
    for _ in range(3):
        w = random_base_object(rng, ring, bounds)
        r = random_base_morphism(rng, w, k_obj, bounds)
        t = compose(kmor, r)
        sol = factor_base(t, left=kmor)
        ok = ok and sol is not None and compose(kmor, sol) == t and sol == r
        r2 = random_base_morphism(rng, q_obj, w, bounds)
        sol2 = factor_base(compose(r2, q), right=q)
        ok = ok and sol2 == r2
    return ok


@suite("base-enumeration", (ZZ,))
def suite_base_enumeration(rng, ring, k, bounds):
    """Kernels and cokernels against brute-force enumeration of finite groups."""
    x = random_finite_object(rng, ring, 64)
    y = random_finite_object(rng, ring, 64)
    f = random_base_morphism(rng, x, y, bounds)
    kernel_count = sum(
        1 for el in x.elements() if all(v == 0 for v in f.apply(el))
    )
    k_obj, kmor = kernel_base(f)
    ok = k_obj.total_order() == kernel_count
    image = {f.apply(el) for el in x.elements()}
    q_obj, q = cokernel_base(f)
    ok = ok and q_obj.total_order() == (y.total_order() // len(image))
    ok = ok and {kmor.apply(el) for el in k_obj.elements()} == {
        el for el in x.elements() if all(v == 0 for v in f.apply(el))
    }
    return ok


@suite("base-pullback", ALL_RINGS)
def suite_base_pullback(rng, ring, k, bounds):
    a = random_base_object(rng, ring, bounds)
    b = random_base_object(rng, ring, bounds)
    c = random_base_object(rng, ring, bounds)
    f = random_base_morphism(rng, a, c, bounds)
    g = random_base_morphism(rng, b, c, bounds)
    p_obj, pa, pb = pullback_base(f, g)
    incl = pair_base(pa, pb)
    ok = compose(f, pa) == compose(g, pb)
    for _ in range(5):
        w = random_base_object(rng, ring, bounds)
        r = random_base_morphism(rng, w, p_obj, bounds)
        s = factor_base(pair_base(compose(pa, r), compose(pb, r)), left=incl)
        ok = ok and s == r
    return ok


@suite("base-split", ALL_RINGS)
def suite_base_split(rng, ring, k, bounds):
    x = random_base_object(rng, ring, bounds)
    y = random_base_object(rng, ring, bounds)
    f = random_base_morphism(rng, x, y, bounds)
    g = split_data_base(f)
    if g is None:
        return not ring.is_field
    return compose(f, compose(g, f)) == f and compose(g, compose(f, g)) == g


@suite("interchange", ALL_RINGS)
def suite_interchange(rng, ring, k, bounds):
    a = random_two_object(rng, ring, bounds)
    b = random_two_object(rng, ring, bounds)
    c = random_two_object(rng, ring, bounds)
    u = random_square(rng, a, b)
    v = random_square(rng, b, c)
    a1 = random_cell_on(rng, u, bounds)
    a2 = random_cell_on(rng, a1.cto, bounds)
    b1 = random_cell_on(rng, v, bounds)
    b2 = random_cell_on(rng, b1.cto, bounds)
    lhs = hcomp2(vcomp2(b2, b1), vcomp2(a2, a1))
    rhs = vcomp2(hcomp2(b2, a2), hcomp2(b1, a1))
    return lhs == rhs


def _universal2_case(rng, ring, k, bounds):
    a = random_two_object(rng, ring, bounds)
    b = random_two_object(rng, ring, bounds)
    u = random_square(rng, a, b)
    kd = kernel2(u)
    cd = cokernel2(u)
    ok = kernel_base(sequence_of(kd.kmor).iota)[0].is_zero
    ok = ok and cokernel_base(sequence_of(cd.qmor).pmap)[0].is_zero
    lp = _random_loop(rng, a, b)
    rt = root2(lp)
    ok = ok and compose(lp.mat, rt.rmor.bottom).is_zero_mor()
    ok = ok and classify2(rt.rmor).fully_faithful
    crt = coroot2(lp)
    ok = ok and compose(crt.rmor.top, lp.mat).is_zero_mor()
    ok = ok and classify2(crt.rmor).fully_cofaithful
    ext = random_extension(rng, ring, bounds)
    rk = rel_kernel2(ext.m, ext.e, ext.cell)
    for _ in range(20):
        x = random_two_object(rng, ring, bounds)
        r = random_square(rng, x, kd.obj)
        t = compose2(kd.kmor, r)
        beta = cell_to_zero(compose2(u, t), whisker_right(kd.kappa, r).mat)
        tp = factor_kernel2(kd, t, beta)
        ok = ok and compose2(kd.kmor, tp) == t
        s = random_square(rng, cd.obj, x)
        w = compose2(s, cd.qmor)
        theta = cell_to_zero(compose2(w, u), whisker_left(s, cd.zeta).mat)
        wp = factor_cokernel2(cd, w, theta)
        ok = ok and compose2(wp, cd.qmor) == w
        rr = random_square(rng, x, rt.obj)
        factor_root2(rt, compose2(rt.rmor, rr))  # raises if the rival does not factor
        rx = random_square(rng, x, rk.obj)
        trx = compose2(rk.kmor, rx)
        betax = cell_to_zero(compose2(ext.m, trx), whisker_right(rk.kappa, rx).mat)
        ok = ok and compose2(rk.kmor, factor_rel_kernel2(rk, trx, betax)) == trx
    return ok


def suite_universal2(ring: BaseRing):
    """Kernel2/cokernel2/root2/coroot2/relKernel2 against random rivals."""
    return suite(f"universal-2-{ring}", (ring,))(_universal2_case)


def _random_loop(rng, a, b):
    """A random loop cell 0 => 0: a -> b."""
    sys = LinearSystem(a.ring)
    lp = add_cell(sys, "l", a, b)
    add_homotopy(sys, lp, [], [])
    return loop_cell(a, b, _sample_system(rng, sys)[lp.name])


@suite("relative-kernel", ALL_RINGS)
def suite_rel_kernel(rng, ring, k, bounds):
    """Relative (co)kernels: universal property on constructed compatibles."""
    ext = random_extension(rng, ring, bounds)
    b_mor, psi, y = ext.m, ext.cell, ext.e
    # here psi: y.b => 0 with (b, psi) = Ker y, so Ker(b rel psi) ~ 0
    rk = rel_kernel2(b_mor, y, psi)
    ok = is_zero_equivalent(rk.obj)
    rc = rel_cokernel2(y, b_mor, psi)
    ok = ok and is_zero_equivalent(rc.obj)
    # rivals factor through the plain relative kernel of a random square
    a = random_two_object(rng, ring, bounds)
    u = random_square(rng, a, b_mor.src)
    y2 = zero2(b_mor.src, zero_two_object(ring))
    rk2 = rel_kernel2(u, y2, null_cell(compose2(y2, u)))
    r = random_square(rng, random_two_object(rng, ring, bounds), rk2.obj)
    t = compose2(rk2.kmor, r)
    beta = cell_to_zero(compose2(u, t), whisker_right(rk2.kappa, r).mat)
    tp = factor_rel_kernel2(rk2, t, beta)
    return ok and compose2(rk2.kmor, tp) == t


def suite_counterexample(seed: int, cases: int, bounds: Bounds) -> SuiteResult:
    u = z_counterexample()
    fl = classify2(u)
    ok = (
        fl.faithful
        and fl.full
        and fl.fully_faithful
        and fl.cofaithful
        and fl.fully_cofaithful
        and not fl.equivalence
        and equivalence_data2(u) is None
        and split_data_base(sequence_of(u).iota) is None
    )
    fz = factor2(u)
    ok = ok and fz.l_flags.faithful and fz.l_flags.cofaithful and not fz.l_flags.equivalence
    ps = puppe(u)
    ok = ok and all(exactness(ps.maps, ps.cells))
    notes = [f"mu_u exact over Z: {loop_exact(ps.mu)}"]
    return SuiteResult("z-counterexample", 1, 0 if ok else 1, notes)


@suite("snake", ALL_RINGS, _blocks)
def suite_snake(rng, ring, k, bounds):
    draw = random_snake_instance if k % 2 == 0 else random_generalized_snake_instance
    inst = draw(rng, ring, bounds)
    ca, cb, cc = (column_data(x) for x in inst.cols)
    res = generalized_snake(*inst.row1, *inst.row2, ca, cb, cc, *inst.cells)
    return all(exactness(*res.sequence()))


@suite("anaconda", ALL_RINGS)
def suite_anaconda(rng, ring, k, bounds):
    inst = random_snake_instance(rng, ring, bounds)
    ca, cb, cc = (column_data(x) for x in inst.cols)
    res = anaconda(*inst.row1, *inst.row2, ca, cb, cc, *inst.cells)
    return all(exactness(*anaconda_full_sequence(res)))


@suite("three-by-three", ALL_RINGS)
def suite_3x3(rng, ring, k, bounds):
    inst = random_3x3_instance(rng, ring, bounds)
    d = ThreeByThree(
        inst.f, inst.g, inst.eta, inst.a, inst.b, inst.c,
        inst.alpha, inst.beta, inst.gamma, inst.phi, inst.psi,
    )
    ok = check_3x3(d).ok
    if ring.is_field and k % 3 == 0:
        ok = ok and check_3x3_part2(d).ok
    return ok


@suite("short-five", ALL_RINGS)
def suite_short_five(rng, ring, k, bounds):
    kind = "equivalence" if k % 2 else "random"
    inst = random_shortfive_instance(rng, ring, bounds, kind)
    d = ShortFiveInput(*inst.row1, *inst.row2, *inst.cols, *inst.cells)
    return check_short_five(d).ok


@suite("les-homology", (GF(2), GF(3)))
def suite_les(rng, ring, k, bounds):
    length = 3 + k % 2
    ce = random_complex_extension(rng, ring, length, bounds)
    fmap, omegas, gmap = to_chain_maps(ce)
    maps, cells = les_full_sequence(les_homology(fmap, omegas, gmap))
    return all(exactness(maps, cells)) and shadows_exact(maps, ring)


def shadows_exact(maps, ring) -> bool:
    """Classical exactness of the pi0 and Omega images, over F_p and Z: each
    consecutive pair composes to zero and is exact in the base category
    (exact_at_base).  The ring argument is not read: the maps carry it."""
    for shadow in ("pi0", "omega"):
        mats = []
        for u in maps:
            if shadow == "pi0":
                mats.append(pi0_mor(u, pi0_obj(u.src), pi0_obj(u.dst)).bottom)
            else:
                mats.append(pi1_mor(u, pi1_obj(u.src), pi1_obj(u.dst)).top)
        for f, g in zip(mats, mats[1:]):
            if not compose(g, f).is_zero_mor() or not exact_at_base(f, g):
                return False
    return True


@suite("matrix-calculus", (GF(3),))
def suite_matrix_calculus(rng, ring, k, bounds):
    a = [random_two_object(rng, ring, bounds) for _ in range(2)]
    b = [random_two_object(rng, ring, bounds) for _ in range(2)]
    c = [random_two_object(rng, ring, bounds) for _ in range(2)]
    f = [[random_square(rng, a[i], b[j]) for i in range(2)] for j in range(2)]
    g = [[random_square(rng, b[i], c[j]) for i in range(2)] for j in range(2)]
    af = matrix_assemble2(f, a, b)
    ag = matrix_assemble2(g, b, c)
    ok = compose2(ag.mor, af.mor) == matrix_assemble2(grid_product(g, f), a, c).mor
    ok = ok and matrix_of2(af.mor, af.src_bp, af.dst_bp) == f
    idg = [
        [identity2(a[j]) if j == i else zero2(a[i], a[j]) for i in range(2)]
        for j in range(2)
    ]
    ok = ok and classify2(matrix_assemble2(idg, a, a).mor).equivalence
    # hom-set addition realizes codiagonal . (u (+) v) . diagonal
    u = random_square(rng, a[0], b[0])
    v = random_square(rng, a[0], b[0])
    bp_a = biproduct2([a[0], a[0]])
    bp_b = biproduct2([b[0], b[0]])
    diag = bp_a.injections[0] + bp_a.injections[1]
    codiag = bp_b.projections[0] + bp_b.projections[1]
    uv = compose2(bp_b.injections[0], compose2(u, bp_a.projections[0])) + compose2(
        bp_b.injections[1], compose2(v, bp_a.projections[1])
    )
    return ok and compose2(codiag, compose2(uv, diag)) == u + v


def suite_regularity_goodness(seed: int, cases: int, bounds: Bounds) -> SuiteResult:
    """Regularity and goodness over the fields; then max(1, cases // 8) Z
    squares, on the same random stream, whose goodness violations are
    recorded in a note but not counted; an internal error there counts as
    one more failure."""
    field_rng = None

    @suite("regularity-goodness", FIELD_RINGS)
    def run(rng, ring, k, bounds):
        nonlocal field_rng
        field_rng = rng
        a = random_two_object(rng, ring, bounds)
        b = random_two_object(rng, ring, bounds)
        c = random_two_object(rng, ring, bounds)
        f = random_square(rng, a, c)
        g = random_square(rng, b, c)
        ok = True
        flg = classify2(g)
        if flg.cofaithful:
            fl_p1 = classify2(pullback2(f, g).p1)
            ok = fl_p1.cofaithful
            if flg.fully_cofaithful:
                ok = ok and fl_p1.fully_cofaithful
        rep = goodness_comparisons(random_square(rng, a, b))
        return ok and rep.a_epi and rep.b_mono

    result = run(seed, cases, bounds)
    # with no field case drawn, the stream is still random.Random(seed)
    rng = field_rng or random.Random(seed)
    z_viol = 0
    for _ in range(max(1, cases // 8)):
        try:
            a = random_two_object(rng, ZZ, bounds)
            b = random_two_object(rng, ZZ, bounds)
            rep = goodness_comparisons(random_square(rng, a, b))
        except AssertionError as e:
            result.failures += 1
            if not result.notes:
                result.notes.append(f"internal error: {e}")
            continue
        if not (rep.a_epi and rep.b_mono):
            z_viol += 1
    result.notes.append(f"goodness violations over Z (recorded): {z_viol}")
    return result


@suite("sigma-omega", ALL_RINGS)
def suite_sigma_omega(rng, ring, k, bounds):
    x = random_two_object(rng, ring, bounds)
    om, sg = omega_obj(x), sigma_obj(x)
    p0, p1 = pi0_obj(x), pi1_obj(x)
    om_sg = omega_obj(sg.obj)
    sg_om = sigma_obj(om.obj)
    ok = compose(om_sg.loop.mat, p0.unit.bottom) == sg.loop.mat
    ok = ok and compose(p1.unit.top, sg_om.loop.mat) == om.loop.mat
    fl = classify2(identity2(x))
    ok = ok and fl.discrete_source == kernel_base(x.boundary)[0].is_zero
    return ok and fl.connected_source == cokernel_base(x.boundary)[0].is_zero


def suite_split_source(seed: int, cases: int, bounds: Bounds) -> SuiteResult:
    """Two independent routes to splitting agree: the split_source flag,
    decided from invariant factors, and the von Neumann witness of
    split_data_base.  When the boundary splits, the object is equivalent to
    pi1 (+) pi0 via a comparison built from that witness."""
    split_hits = 0

    @suite("split-source", ALL_RINGS)
    def run(rng, ring, k, bounds):
        nonlocal split_hits
        x = random_two_object(rng, ring, bounds)
        fl = classify2(identity2(x))
        g = split_data_base(x.boundary)
        if (g is not None) != fl.split_source:
            return False
        if g is None:
            return True
        split_hits += 1
        p0, p1 = pi0_obj(x), pi1_obj(x)
        f = x.boundary
        u1 = factor_through(identity_mor(x.top) - compose(g, f), left=p1.unit.top)
        to_p1 = two_morphism(x, p1.obj, u1, zero_mor(x.bottom, p1.obj.bottom))
        u = pair2(to_p1, p0.unit)
        return classify2(u).equivalence

    result = run(seed, cases, bounds)
    result.notes.append(f"split instances: {split_hits}/{cases}")
    return result


@suite("loop-exactness", ALL_RINGS)
def suite_loop_exactness(rng, ring, k, bounds):
    """Three-way agreement: loop exact iff bar fully faithful iff tilde
    fully cofaithful."""
    a = random_two_object(rng, ring, bounds)
    b = random_two_object(rng, ring, bounds)
    lp = _random_loop(rng, a, b)
    e = loop_exact(lp)
    bar = classify2(loop_bar(lp)).fully_faithful
    til = classify2(loop_tilde(lp)).fully_cofaithful
    return e == bar == til


@suite("extension-properties", ALL_RINGS)
def suite_extension_properties(rng, ring, k, bounds):
    """Extensions are relative exact at all points; biproduct and pi1/pi0
    sequences are extensions; relative exact windows factor into extensions."""
    ext = random_extension(rng, ring, bounds)
    ok = is_extension(ext.m, ext.cell, ext.e)
    ok = ok and pad_exact_at(ext.m, ext.cell, ext.e)
    # ... and at every position of the zero-padded window
    cx = ComplexSequence(0, (ext.m.src, ext.m.dst, ext.e.dst), (ext.m, ext.e), (ext.cell,))
    for n in range(3):
        ok = ok and is_zero_equivalent(complex_homology_at(cx, n).obj)
    # biproduct extension
    a = random_two_object(rng, ring, bounds)
    c = random_two_object(rng, ring, bounds)
    bp = biproduct2([a, c])
    cell = null_cell(compose2(bp.projections[1], bp.injections[0]))
    ok = ok and is_extension(bp.injections[0], cell, bp.projections[1])
    # pi1 -> x -> pi0 is an extension in the 2-Puppe-exact case: assert
    # over prime fields; over Z it holds exactly for split boundaries
    xobj = random_two_object(rng, ring, bounds)
    p0, p1 = pi0_obj(xobj), pi1_obj(xobj)
    cell2 = null_cell(compose2(p0.unit, p1.unit))
    pi_ext = is_extension(p1.unit, cell2, p0.unit)
    if ring.is_field:
        return ok and pi_ext
    return ok and pi_ext == (split_data_base(xobj.boundary) is not None)


@suite("relex-factorization", (GF(2), GF(3)))
def suite_relex_factorization(rng, ring, k, bounds):
    """Relative exact windows factor into extensions through the canonical
    image objects I_n (tested on glued pairs of extensions)."""
    b_obj = random_two_object(rng, ring, bounds)
    c_obj = random_two_object(rng, ring, bounds)
    e1 = extension_on(rng, b_obj, c_obj, bounds)
    d_obj = random_two_object(rng, ring, bounds)
    e2 = extension_on(rng, e1.e.dst, d_obj, bounds)
    a_sq, alpha, b_sq = e1.m, e1.cell, e1.e
    c_sq, gamma, d_sq = e2.m, e2.cell, e2.e
    cb = compose2(c_sq, b_sq)
    upper_alpha = whisker_left(c_sq, alpha)
    upper_gamma = whisker_right(gamma, b_sq)
    cx = ComplexSequence(
        0,
        (a_sq.src, a_sq.dst, cb.dst, d_sq.dst),
        (a_sq, cb, d_sq),
        (upper_alpha, upper_gamma),
    )
    ok = True
    images = {}
    for n in range(5):
        x, phi, a, _, _, _, _ = padded_window(cx, n)
        images[n] = rel_cokernel2(a, x, phi)
    for n in range(4):
        _, _, _, alpha_n, bmor, _, _ = padded_window(cx, n)
        # the induced I_n -> A_{n+1} and the descended nullhomotopy
        k_n = factor_rel_cokernel2(images[n], bmor, alpha_n)
        phi_n = cell_to_zero(
            compose2(images[n + 1].qmor, k_n), images[n + 1].zeta.mat
        )
        ok = ok and is_extension(k_n, phi_n, images[n + 1].qmor)
    return ok


@suite("pasequ", ALL_RINGS)
def suite_pasequ(rng, ring, k, bounds):
    """Mutual equivalence of the five faithful+fully-cofaithful conditions."""
    a = random_two_object(rng, ring, bounds)
    b = random_two_object(rng, ring, bounds)
    u = random_square(rng, a, b)
    fl = classify2(u)
    c1 = fl.faithful and fl.fully_cofaithful
    c2 = fl.faithful and fl.full and fl.cofaithful
    c3 = fl.fully_faithful and fl.cofaithful
    # conditions 4/5: the four-term base sequence is exact everywhere
    seq = sequence_of(u)
    c45 = (
        kernel_base(seq.iota)[0].is_zero
        and cokernel_base(seq.pmap)[0].is_zero
        and exact_at_base(seq.iota, seq.pmap)
    )
    return c1 == c2 == c3 == c45


@suite("orthogonality", FIELD_RINGS)
def suite_orthogonality(rng, ring, k, bounds):
    a = random_two_object(rng, ring, bounds)
    b = random_two_object(rng, ring, bounds)
    u = random_square(rng, a, b)
    fz = factor2(u)
    e, m = fz.e, fz.mhat
    rivals = []
    for _ in range(3):
        c0 = random_square(rng, e.dst, m.src)
        rivals.append(
            (compose2(c0, e), identity_cell(compose2(m, compose2(c0, e))), compose2(m, c0))
        )
    return orthogonal2(e, m, rivals).holds


@suite("workspace-roundtrip", ALL_RINGS)
def suite_workspace_roundtrip(rng, ring, k, bounds):
    ws = Workspace(ring)
    a = random_two_object(rng, ring, bounds)
    b = random_two_object(rng, ring, bounds)
    u = random_square(rng, a, b)
    cell = random_cell_on(rng, u, bounds)
    ws.objects["a"] = a
    ws.objects["b"] = b
    ws.morphisms["u"] = u
    ws.morphisms["u2"] = cell.cto
    ws.cells["h"] = cell
    text = serialize_workspace(ws)
    back = parse_workspace(text)
    return (
        back.objects == ws.objects
        and back.morphisms == ws.morphisms
        and back.cells == ws.cells
        and serialize_workspace(back) == text
    )


def _two_puppe_case(rng, ring, k, bounds):
    a = random_two_object(rng, ring, bounds)
    b = random_two_object(rng, ring, bounds)
    u = random_square(rng, a, b)
    fz = factor2(u)
    ok = fz.wbar_flags.equivalence and fz.w_flags.equivalence
    ok = ok and fz.e_flags.fully_cofaithful and fz.mhat_flags.fully_faithful
    ok = ok and fz.l_flags.faithful and fz.l_flags.cofaithful
    fl = classify2(u)
    if fl.fully_faithful and fl.cofaithful:
        ok = ok and fl.equivalence and equivalence_data2(u) is not None
    if fl.faithful and fl.fully_cofaithful:
        ok = ok and fl.equivalence
    return ok


def suite_two_puppe(ring: BaseRing):
    return suite(f"two-puppe-{ring}", (ring,))(_two_puppe_case)


def _classification_case(rng, ring, k, bounds):
    if ring.is_field:
        max_order = 16 if ring.p == 2 else (27 if ring.p == 3 else 25)
    else:
        max_order = 8
    t1 = random_finite_object(rng, ring, max_order)
    t0 = random_finite_object(rng, ring, max_order)
    b1 = random_finite_object(rng, ring, max_order)
    b0 = random_finite_object(rng, ring, max_order)
    a = two_object(random_base_morphism(rng, t1, t0, bounds))
    b = two_object(random_base_morphism(rng, b1, b0, bounds))
    u = random_square(rng, a, b)
    fl = classify2(u)
    joint = set()
    inj = True
    for el in a.top.elements():
        key = (a.boundary.apply(el), u.top.apply(el))
        if key in joint:
            inj = False
            break
        joint.add(key)
    ok = fl.faithful == inj
    pullback_pairs = {
        (xx, yy)
        for xx in a.bottom.elements()
        for yy in b.top.elements()
        if u.bottom.apply(xx) == b.boundary.apply(yy)
    }
    images = {(a.boundary.apply(el), u.top.apply(el)) for el in a.top.elements()}
    # negating the A0 coordinate carries these to the image of iota = [-d; u1]
    # and the kernel of pmap = (u0 d'): full is exactness at A0 (+) B1, and
    # cofaithful is pmap onto B0
    exact = images == pullback_pairs
    onto = {
        tuple((x + y) % e for x, y, e in zip(u.bottom.apply(xx), b.boundary.apply(yy), b.bottom.orders))
        for xx in a.bottom.elements()
        for yy in b.top.elements()
    }
    cofaithful = len(onto) == b.bottom.total_order()
    return (
        ok
        and fl.full == exact
        and fl.fully_faithful == (inj and exact)
        and fl.cofaithful == cofaithful
        and fl.fully_cofaithful == (cofaithful and exact)
    )


def suite_classification_ring(ring: BaseRing):
    return suite(f"classification-{ring}", (ring,))(_classification_case)


def _puppe_case(rng, ring, k, bounds):
    a = random_two_object(rng, ring, bounds)
    b = random_two_object(rng, ring, bounds)
    u = random_square(rng, a, b)
    ps = puppe(u)
    ok = all(exactness(ps.maps, ps.cells))
    if ring.is_field:
        ok = ok and loop_exact(ps.mu)
    return ok


def suite_puppe_ring(ring: BaseRing):
    return suite(f"puppe-{ring}", (ring,))(_puppe_case)


# name -> (suite, default case count, the ring of a per-ring suite or None)
SUITES = {
    "snf": (suite_snf, 500, None),
    "base-universal": (suite_base_universal, 120, None),
    "base-enumeration": (suite_base_enumeration, 80, None),
    "base-pullback": (suite_base_pullback, 60, None),
    "base-split": (suite_base_split, 120, None),
    "interchange": (suite_interchange, 200, None),
    "relative-kernel": (suite_rel_kernel, 40, None),
    "z-counterexample": (suite_counterexample, 1, None),
    "snake": (suite_snake, 100, None),
    "anaconda": (suite_anaconda, 100, None),
    "three-by-three": (suite_3x3, 100, None),
    "short-five": (suite_short_five, 100, None),
    "les-homology": (suite_les, 50, None),
    "matrix-calculus": (suite_matrix_calculus, 200, None),
    "regularity-goodness": (suite_regularity_goodness, 200, None),
    "sigma-omega": (suite_sigma_omega, 100, None),
    "split-source": (suite_split_source, 60, None),
    "loop-exactness": (suite_loop_exactness, 60, None),
    "extension-properties": (suite_extension_properties, 40, None),
    "pasequ": (suite_pasequ, 100, None),
    "relex-factorization": (suite_relex_factorization, 20, None),
    "orthogonality": (suite_orthogonality, 20, None),
    "workspace-roundtrip": (suite_workspace_roundtrip, 30, None),
}
for _ring in ALL_RINGS:
    SUITES[f"universal-2-{_ring}"] = (suite_universal2(_ring), 200, _ring)
    SUITES[f"puppe-{_ring}"] = (suite_puppe_ring(_ring), 100, _ring)
    SUITES[f"classification-{_ring}"] = (suite_classification_ring(_ring), 500, _ring)
    if _ring.is_field:
        SUITES[f"two-puppe-{_ring}"] = (suite_two_puppe(_ring), 200, _ring)


def run_all(seed: int = 42, cases: int | None = None, max_dim: int = 2, only=None):
    bounds = Bounds(max_dim=max_dim)
    results = []
    for i, name in enumerate(sorted(SUITES)):
        if only and name not in only:
            continue
        fn, default_cases, _ = SUITES[name]
        n = default_cases if cases is None else max(1, min(default_cases, cases))
        results.append(fn(seed + i, n, bounds))
    return results
