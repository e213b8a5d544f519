"""The in-process workloads: ``factor-z`` and ``diagrams-fp``.

A workload is a round of input kinds.  Inputs are generated round by round
from the seed before timing starts, each is presented once, and every item's
output is checked outside its timed span.  Both workloads are closed loops
with one caller.

factor-z loads the integer solver: squares over Z with max_dim cycling
2..4.  SNF is most of the self time and repetition at the 2-cell layer is
low.  Dims 5 and 6 are left out: single squares there can take seconds, so
a few of them would set a whole run's throughput.

diagrams-fp loads the many tiny mod-p systems of the diagram lemmas: every
construction over F2, F3 and F5 at max_dim 2.  solve_int is never called,
and repetition at baselin, limits2 and classify2 is high, so memoising shows
here while a faster integer solver should barely move it.
"""

from __future__ import annotations

import random
import resource
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

from arrowcat import GF, ZZ
from arrowcat.classify2 import classify2
from arrowcat.core2 import compose2
from arrowcat.factor2 import factor2
from arrowcat.generators import (
    Bounds,
    random_3x3_instance,
    random_base_object,
    random_complex_extension,
    random_generalized_snake_instance,
    random_shortfive_instance,
    random_snake_instance,
    random_square,
    random_two_object,
    to_chain_maps,
)
from arrowcat.anaconda import anaconda, anaconda_full_sequence
from arrowcat.lemmas import ShortFiveInput, ThreeByThree, check_3x3, check_short_five
from arrowcat.les import les_full_sequence, les_homology
from arrowcat.puppe import puppe
from arrowcat.selftest import shadows_exact
from arrowcat.sequences import exact_at
from arrowcat.snake import column_data, generalized_snake, plain_snake

import spans
from common import (
    Tally,
    alternating_items,
    e2e_result,
    generate,
    layer_result,
    median_child_s,
    pool_rounds,
    timed_items,
    trace_path,
)


@dataclass(frozen=True)
class Workload:
    name: str
    kinds: tuple  # one round presents one input of each kind
    make: Callable  # (rng, kind, round) -> input
    run: Callable  # input -> output; the timed item
    check: Callable  # (input, output) -> bool; outside the timed span
    imports: str  # the modules a user of this workload imports


# -- factor-z ---------------------------------------------------------------

def _make_square(rng, max_dim, _round):
    bounds = Bounds(max_dim=max_dim)
    a = random_two_object(rng, ZZ, bounds)
    b = random_two_object(rng, ZZ, bounds)
    return random_square(rng, a, b)


def _factor_item(u):
    return factor2(u), classify2(u)


def _factor_check(u, out) -> bool:
    """The three routes compose to u strictly, and each stage has its class.

    The stage flags are the ones factor2 computed with classify2 on the
    stage squares it returns; classifying them again here would repeat that
    work and double the verification time."""
    fz, _flags = out
    if compose2(fz.mhat, compose2(fz.l, fz.e)) != u:
        return False
    if compose2(fz.mbar, fz.ehat) != u or compose2(fz.m, fz.e) != u:
        return False
    e, mhat, l = fz.e_flags, fz.mhat_flags, fz.l_flags
    return e.fully_cofaithful and mhat.fully_faithful and l.faithful and l.cofaithful


FACTOR_Z = Workload(
    "factor-z", (2, 3, 4), _make_square, _factor_item, _factor_check,
    "arrowcat.factor2, arrowcat.classify2, arrowcat.generators",
)


# -- diagrams-fp ------------------------------------------------------------

FIELDS = (GF(2), GF(3), GF(5))
SMALL = Bounds(max_dim=2)


def _all_exact(maps, cells):
    return [exact_at(maps[k], cells[k], maps[k + 1]) for k in range(len(cells))]


def _make_diagram(rng, kind, rnd):
    construction, ring = kind
    if construction == "puppe":
        a = random_two_object(rng, ring, SMALL)
        b = random_two_object(rng, ring, SMALL)
        return random_square(rng, a, b)
    if construction in ("snake", "anaconda"):
        return random_snake_instance(rng, ring, SMALL)
    if construction == "snake-generalized":
        return random_generalized_snake_instance(rng, ring, SMALL)
    if construction == "3x3":
        return random_3x3_instance(rng, ring, SMALL)
    if construction == "short-five":
        return random_shortfive_instance(rng, ring, SMALL, "equivalence" if rnd % 2 else "random")
    if construction == "les":
        return to_chain_maps(random_complex_extension(rng, ring, 3 + rnd % 2, SMALL))
    raise ValueError(construction)


def _snake_args(inst):
    cols = tuple(column_data(x) for x in inst.cols)
    return (*inst.row1, *inst.row2, *cols, *inst.cells)


def _run_diagram(item):
    (construction, _ring), inst = item
    if construction == "puppe":
        ps = puppe(inst)
        return _all_exact(ps.maps, ps.cells[:8])
    if construction == "snake":
        return _all_exact(*plain_snake(*_snake_args(inst)).sequence())
    if construction == "snake-generalized":
        return _all_exact(*generalized_snake(*_snake_args(inst)).sequence())
    if construction == "anaconda":
        return _all_exact(*anaconda_full_sequence(anaconda(*_snake_args(inst))))
    if construction == "3x3":
        d = ThreeByThree(
            inst.f, inst.g, inst.eta, inst.a, inst.b, inst.c,
            inst.alpha, inst.beta, inst.gamma, inst.phi, inst.psi,
        )
        return check_3x3(d)
    if construction == "short-five":
        return check_short_five(ShortFiveInput(*inst.row1, *inst.row2, *inst.cols, *inst.cells))
    maps, cells = les_full_sequence(les_homology(*inst))
    return maps, _all_exact(maps, cells)


def _check_diagram(item, out) -> bool:
    (construction, ring), _inst = item
    if construction in ("3x3", "short-five"):
        return out.ok
    if construction == "les":
        maps, exact = out
        return all(exact) and shadows_exact(maps, ring)
    return len(out) > 0 and all(out)


CONSTRUCTIONS = ("puppe", "snake", "snake-generalized", "anaconda", "3x3", "short-five", "les")

DIAGRAMS_FP = Workload(
    "diagrams-fp",
    tuple((c, ring) for c in CONSTRUCTIONS for ring in FIELDS),
    lambda rng, kind, rnd: (kind, _make_diagram(rng, kind, rnd)),
    _run_diagram,
    _check_diagram,
    "arrowcat.puppe, arrowcat.snake, arrowcat.anaconda, arrowcat.lemmas, arrowcat.les, arrowcat.generators",
)

WORKLOADS = {w.name: w for w in (FACTOR_Z, DIAGRAMS_FP)}


class FixedObjectsRandom(random.Random):
    """A seeded generator whose draws inside ``random_base_object`` come from
    a second, seed-independent stream instead.

    An item's cost depends mostly on the size of its groups, so with this
    every seed builds its instances on the same groups, drawn by the
    library's own generator, and the seed draws the maps between them.  The
    seed-to-seed spread then measures the program rather than how many
    large groups a seed happened to draw."""

    def __init__(self, seed):
        super().__init__(seed)
        self.fixed = random.Random()

    @staticmethod
    def _for_object() -> bool:
        frame = sys._getframe(2)
        for _ in range(4):
            if frame is None:
                return False
            if frame.f_code is random_base_object.__code__:
                return True
            frame = frame.f_back
        return False

    def random(self):
        return self.fixed.random() if self._for_object() else super().random()

    def getrandbits(self, k):
        return self.fixed.getrandbits(k) if self._for_object() else super().getrandbits(k)


def make_inputs(wl: Workload, seed: int, first_round: int, rounds: int) -> list:
    """Inputs of rounds [first_round, first_round + rounds), in round-robin order.

    Each chunk of rounds has its own generator, seeded from (seed, first_round),
    so chunks can be generated and timed independently.  The groups of each
    (kind, round) come from a stream seeded by those alone."""
    rng = FixedObjectsRandom(f"{wl.name}:{seed}:{first_round}")
    out = []
    for rnd in range(first_round, first_round + rounds):
        for kind in wl.kinds:
            rng.fixed.seed(f"{wl.name}:{kind}:{rnd}")
            out.append(wl.make(rng, kind, rnd))
    return out


# -- timed loop -------------------------------------------------------------

def run(name: str, seed: int, seconds: int, traced: bool) -> dict:
    wl = WORKLOADS[name]
    startup = median_child_s(f"import {wl.imports}")
    n_kinds = len(wl.kinds)
    rounds = pool_rounds(name, seconds, n_kinds, traced)
    inputs, gen_s = generate(lambda first, n: make_inputs(wl, seed, first, n), rounds)
    tally = Tally()
    tracer = spans.Tracer(callers=(__name__,)) if traced else None

    def run_one(i: int, x, trace: bool) -> float:
        """Time one item, then check its output; returns the item's seconds."""
        err = out = None
        t0 = perf_counter()
        try:
            out = tracer.run_item(i, wl.run, x) if trace else wl.run(x)
        except Exception as e:  # a raising item is a failed item
            err = e
        dt = perf_counter() - t0
        ok = False
        if err is None:
            try:
                ok = bool(wl.check(x, out))
            except Exception as e:
                err = e
        tally.add(ok, f"{name} item {i}", err)
        return dt

    if not traced:
        lat = timed_items(inputs, seconds, run_one)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return e2e_result(tally, lat, startup + gen_s, peak_rss_mb)
    plain, traced_s = alternating_items(inputs[: rounds * n_kinds], n_kinds, run_one)
    tracer.write(trace_path(name, seed))
    return layer_result(tally, tracer.summary(), gen_s, plain, traced_s)
