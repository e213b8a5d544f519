"""The ``cli`` workload: cold ``python -m arrowcat <subcommand>`` invocations.

One item is one invocation, run with the benchmark's interpreter and the
checkout's ``src`` tree, one child at a time (a closed loop with one
caller).  Every subcommand except ``selftest`` is covered on small seeded
workspaces (max_dim 2) written during set-up with ``serialize_workspace``.
Most of a command's time is interpreter start and importing
``arrowcat.cli``, so lazy imports and workspace parsing show here and
nowhere else.

Each report is checked after its timed span: exit code 0, ``"ok": true``,
and verdict fields (flags, exactness lists, failed condition, object
boundaries) equal to the library's answer computed in-process on the same
workspace file.  The first invocation of every kind in a run is repeated to
check that identical argv gives byte-identical stdout.
"""

from __future__ import annotations

import json
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from arrowcat import GF, ZZ
from arrowcat.anaconda import anaconda, anaconda_full_sequence
from arrowcat.classify2 import classify2, equivalence_data2
from arrowcat.factor2 import factor2
from arrowcat.generators import (
    Bounds,
    random_3x3_instance,
    random_complex,
    random_complex_extension,
    random_generalized_snake_instance,
    random_shortfive_instance,
    random_snake_instance,
    random_square,
    random_two_object,
    to_chain_maps,
    to_complex_sequence,
)
from arrowcat.lemmas import ShortFiveInput, ThreeByThree, check_3x3, check_short_five
from arrowcat.les import les_full_sequence, les_homology
from arrowcat.limits2 import cokernel2, copip2, coroot2, kernel2, pip2, root2
from arrowcat.puppe import puppe
from arrowcat.selftest import z_counterexample
from arrowcat.sequences import exact_at, homology_at, padded_window, relative_exact_at
from arrowcat.snake import column_data, generalized_snake, plain_snake
from arrowcat.workspace import Workspace, parse_workspace, serialize_workspace

import common as bench
import spans
from workloads import FixedObjectsRandom

SMALL = Bounds(max_dim=2)
ALL_RINGS = (GF(2), GF(3), GF(5), ZZ)
FIELDS = (GF(2), GF(3), GF(5))

FLAG_KEYS = {
    "faithful": "faithful",
    "full": "full",
    "fullyFaithful": "fully_faithful",
    "cofaithful": "cofaithful",
    "fullyCofaithful": "fully_cofaithful",
    "normalFaithful": "normal_faithful",
    "normalFullyFaithful": "normal_fully_faithful",
    "normalCofaithful": "normal_cofaithful",
    "normalFullyCofaithful": "normal_fully_cofaithful",
    "equivalence": "equivalence",
    "discreteSource": "discrete_source",
    "connectedSource": "connected_source",
    "splitSource": "split_source",
}


def flags(fl) -> dict:
    return {k: getattr(fl, attr) for k, attr in FLAG_KEYS.items()}


def boundary(obj) -> list:
    return [list(r) for r in obj.boundary.mat]


def all_exact(maps, cells) -> list:
    return [exact_at(maps[k], cells[k], maps[k + 1]) for k in range(len(cells))]


class Names:
    """Names every entity a workspace needs, reusing names for equal values."""

    def __init__(self, ring):
        self.ws = Workspace(ring)

    @staticmethod
    def _find(table, value):
        for k, v in table.items():
            if v == value:
                return k
        return None

    def obj(self, x) -> str:
        name = self._find(self.ws.objects, x)
        if name is None:
            name = f"o{len(self.ws.objects)}"
            self.ws.objects[name] = x
        return name

    def mor(self, u, name=None) -> str:
        self.obj(u.src)
        self.obj(u.dst)
        if name is None:
            name = self._find(self.ws.morphisms, u) or f"m{len(self.ws.morphisms)}"
        self.ws.morphisms[name] = u
        return name

    def cell(self, c, name=None) -> str:
        self.mor(c.cfrom)
        self.mor(c.cto)
        if name is None:
            name = self._find(self.ws.cells, c) or f"h{len(self.ws.cells)}"
        self.ws.cells[name] = c
        return name

    def complex(self, cx, name) -> str:
        for o in cx.objects:
            self.obj(o)
        for d in cx.diffs:
            self.mor(d)
        for c in cx.cells:
            self.cell(c)
        self.ws.complexes[name] = cx
        return name

    def chainmap(self, cm, name) -> str:
        for s in cm.squares:
            self.mor(s)
        for c in cm.cells:
            self.cell(c)
        self.ws.chainmaps[name] = cm
        return name


# -- kinds: (command, rings, build, expected, verdict) ----------------------
# build(rng, ring, rnd) -> (Names, argv after the subcommand and --in FILE)
# expected(ws, args) -> verdict computed in-process; verdict(result) -> same
# fields read from the CLI report.

def _square(rng, ring):
    a = random_two_object(rng, ring, SMALL)
    b = random_two_object(rng, ring, SMALL)
    return random_square(rng, a, b)


def build_square(rng, ring, rnd):
    n = Names(ring)
    n.mor(_square(rng, ring), "u")
    return n, ["--morphism", "u"]


def build_loop(construct):
    def build(rng, ring, rnd):
        n = Names(ring)
        n.cell(construct(_square(rng, ring)).loop, "loop")
        return n, ["--cell", "loop"]

    return build


def build_exactat(rng, ring, rnd):
    u = _square(rng, ring)
    kd = kernel2(u)
    n = Names(ring)
    n.mor(kd.kmor, "k")
    n.mor(u, "u")
    n.cell(kd.kappa, "kappa")
    return n, ["--a", "k", "--alpha", "kappa", "--b", "u"]


WINDOW = ("x", "phi", "a", "alpha", "b", "psi", "y")


def build_window(rng, ring, rnd):
    cx = to_complex_sequence(random_complex(rng, ring, 4, SMALL))
    n = Names(ring)
    argv = []
    for key, part in zip(WINDOW, padded_window(cx, 1 + rnd % 2)):
        (n.mor if key in ("x", "a", "b", "y") else n.cell)(part, key)
        argv += [f"--{key}", key]
    return n, argv


SNAKE = ("f", "eta", "g", "f2", "eta2", "g2", "a", "b", "c", "phi", "psi")


def _put_snake(ring, inst):
    n = Names(ring)
    parts = (*inst.row1, *inst.row2, *inst.cols, *inst.cells)
    argv = []
    for key, part in zip(SNAKE, parts):
        (n.cell if key in ("eta", "eta2", "phi", "psi") else n.mor)(part, key)
        argv += [f"--{key}", key]
    return n, argv


def build_snake(rng, ring, rnd):
    return _put_snake(ring, random_snake_instance(rng, ring, SMALL))


def build_gsnake(rng, ring, rnd):
    n, argv = _put_snake(ring, random_generalized_snake_instance(rng, ring, SMALL))
    return n, argv + ["--generalized"]


def build_shortfive(rng, ring, rnd):
    flanks = "equivalence" if rnd % 2 else "random"
    return _put_snake(ring, random_shortfive_instance(rng, ring, SMALL, flanks))


def build_les(rng, ring, rnd):
    fmap, omegas, gmap = to_chain_maps(random_complex_extension(rng, ring, 3 + rnd % 2, SMALL))
    n = Names(ring)
    n.complex(fmap.src, "A")
    n.complex(fmap.dst, "B")
    n.complex(gmap.dst, "C")
    n.chainmap(fmap, "f")
    n.chainmap(gmap, "g")
    names = [n.cell(w, f"w{i}") for i, w in enumerate(omegas)]
    return n, ["--f", "f", "--g", "g", "--omega", ",".join(names)]


ROLES = (
    [("f", i) for i in (1, 2, 3)] + [("g", i) for i in (1, 2, 3)] + [("eta", i) for i in (1, 2, 3)]
    + [("a", i) for i in (1, 2)] + [("b", i) for i in (1, 2)] + [("c", i) for i in (1, 2)]
    + [("phi", i) for i in (1, 2)] + [("psi", i) for i in (1, 2)]
)
CELL_ROLES = ("eta", "phi", "psi", "alpha", "beta", "gamma")


def build_3x3(rng, ring, rnd):
    inst = random_3x3_instance(rng, ring, SMALL)
    n = Names(ring)
    roles = []
    for field, i in ROLES:
        part = getattr(inst, field)[i - 1]
        (n.cell if field in CELL_ROLES else n.mor)(part, f"{field}{i}")
        roles.append(f"{field}{i}={field}{i}")
    for field in ("alpha", "beta", "gamma"):
        n.cell(getattr(inst, field), field)
        roles.append(f"{field}={field}")
    return n, ["--roles", ",".join(roles)]


def _args(argv):
    """The named entities of an argv tail, as a dict flag -> value name."""
    return {argv[i][2:]: argv[i + 1] for i in range(0, len(argv) - 1, 2) if argv[i].startswith("--")}


def _window(ws, argv):
    a = _args(argv)
    return tuple((ws.morphism if k in ("x", "a", "b", "y") else ws.cell)(a[k]) for k in WINDOW)


def _snake_parts(ws, argv):
    a = _args(argv)
    return tuple((ws.cell if k in ("eta", "eta2", "phi", "psi") else ws.morphism)(a[k]) for k in SNAKE)


def _snake_call(ws, argv):
    f, eta, g, f2, eta2, g2, a, b, c, phi, psi = _snake_parts(ws, argv)
    return (f, eta, g, f2, eta2, g2, column_data(a), column_data(b), column_data(c), phi, psi)


def expect_snake(ws, argv):
    fn = generalized_snake if "--generalized" in argv else plain_snake
    return all_exact(*fn(*_snake_call(ws, argv)).sequence())


def expect_3x3(ws, argv):
    r = dict(part.split("=") for part in argv[1].split(","))

    def get(field, idx):
        return tuple((ws.cell if field in CELL_ROLES else ws.morphism)(r[f"{field}{i}"]) for i in idx)

    d = ThreeByThree(
        get("f", (1, 2, 3)), get("g", (1, 2, 3)), get("eta", (1, 2, 3)),
        get("a", (1, 2)), get("b", (1, 2)), get("c", (1, 2)),
        ws.cell(r["alpha"]), ws.cell(r["beta"]), ws.cell(r["gamma"]),
        get("phi", (1, 2)), get("psi", (1, 2)),
    )
    return check_3x3(d).failed_condition


def expect_shortfive(ws, argv):
    rep = check_short_five(ShortFiveInput(*_snake_parts(ws, argv)))
    return [rep.failed_condition] + [flags(rep.details[k]) for k in "abc"]


def expect_les(ws, argv):
    a = _args(argv)
    omegas = tuple(ws.cell(w) for w in a["omega"].split(","))
    maps, cells = les_full_sequence(les_homology(ws.chainmap(a["f"]), omegas, ws.chainmap(a["g"])))
    return all_exact(maps, cells)


def _puppe_exact(ws, argv):
    ps = puppe(ws.morphism("u"))
    return all_exact(ps.maps, ps.cells[:8])


def _factor_flags(ws, argv):
    fz = factor2(ws.morphism("u"))
    return [flags(f) for f in (fz.e_flags, fz.l_flags, fz.mhat_flags, fz.wbar_flags, fz.w_flags)]


KINDS = (
    ("kernel", ALL_RINGS, build_square,
     lambda ws, argv: boundary(kernel2(ws.morphism("u")).obj), lambda r: r["object"]["boundary"]),
    ("cokernel", ALL_RINGS, build_square,
     lambda ws, argv: boundary(cokernel2(ws.morphism("u")).obj), lambda r: r["object"]["boundary"]),
    ("pip", ALL_RINGS, build_square,
     lambda ws, argv: boundary(pip2(ws.morphism("u")).obj), lambda r: r["object"]["boundary"]),
    ("copip", ALL_RINGS, build_square,
     lambda ws, argv: boundary(copip2(ws.morphism("u")).obj), lambda r: r["object"]["boundary"]),
    ("root", ALL_RINGS, build_loop(pip2),
     lambda ws, argv: boundary(root2(ws.cell("loop")).obj), lambda r: r["object"]["boundary"]),
    ("coroot", ALL_RINGS, build_loop(copip2),
     lambda ws, argv: boundary(coroot2(ws.cell("loop")).obj), lambda r: r["object"]["boundary"]),
    ("classify", ALL_RINGS, build_square,
     lambda ws, argv: flags(classify2(ws.morphism("u"))), lambda r: r),
    ("equivdata", ALL_RINGS, build_square,
     lambda ws, argv: equivalence_data2(ws.morphism("u")) is not None, lambda r: r["equivalence"]),
    ("factor", ALL_RINGS, build_square, _factor_flags,
     lambda r: [r[k] for k in ("eFlags", "lFlags", "mhatFlags", "wbarFlags", "wFlags")]),
    ("exactat", ALL_RINGS, build_exactat,
     lambda ws, argv: exact_at(ws.morphism("k"), ws.cell("kappa"), ws.morphism("u")), lambda r: r["exact"]),
    ("relexactat", FIELDS, build_window,
     lambda ws, argv: relative_exact_at(*_window(ws, argv)), lambda r: r["relativeExact"]),
    ("homology", FIELDS, build_window,
     lambda ws, argv: homology_at(*_window(ws, argv)).comparison_flags.equivalence,
     lambda r: r["comparisonEquivalence"]),
    ("puppe", ALL_RINGS, build_square, _puppe_exact, lambda r: r["exactAtInteriorPoints"]),
    ("snake", ALL_RINGS, build_snake, expect_snake, lambda r: r["exactAtInteriorPoints"]),
    ("snake", ALL_RINGS, build_gsnake, expect_snake, lambda r: r["exactAtInteriorPoints"]),
    ("anaconda", ALL_RINGS, build_snake,
     lambda ws, argv: all_exact(*anaconda_full_sequence(anaconda(*_snake_call(ws, argv)))),
     lambda r: r["exactness"]),
    ("les", FIELDS, build_les, expect_les, lambda r: r["exactness"]),
    ("check3x3", ALL_RINGS, build_3x3, expect_3x3, lambda r: r["failedCondition"]),
    ("shortfive", ALL_RINGS, build_shortfive, expect_shortfive,
     lambda r: [r["failedCondition"]] + [r["details"][k] for k in "abc"]),
    ("demo-nonsplit", (ZZ,), None,
     lambda ws, argv: flags(classify2(z_counterexample())), lambda r: r["classification"]),
)


# -- inputs -----------------------------------------------------------------

def make_inputs(seed: int, work: Path, first_round: int, rounds: int) -> list:
    """(kind index, argv, workspace path or None) for each round, files written.

    As in workloads.make_inputs, the groups of each (kind, round) are the
    same for every seed."""
    rng = FixedObjectsRandom(f"cli:{seed}:{first_round}")
    out = []
    for rnd in range(first_round, first_round + rounds):
        for k, (cmd, rings, build, _exp, _ver) in enumerate(KINDS):
            rng.fixed.seed(f"cli:{k}:{rnd}")
            if build is None:
                out.append((k, [cmd], None))
                continue
            names, tail = build(rng, rings[rnd % len(rings)], rnd)
            path = work / f"r{rnd}-k{k}-{cmd}.json"
            path.write_text(serialize_workspace(names.ws), encoding="utf-8")
            out.append((k, [cmd, "--in", str(path.relative_to(bench.ROOT)), *tail], path))
    return out


def invoke(argv: list[str], trace_file: Path | None = None):
    """Run one CLI child to completion; returns (seconds, returncode, stdout)."""
    if trace_file is None:
        cmd = [sys.executable, "-m", "arrowcat", *argv]
    else:
        cmd = [sys.executable, str(Path(__file__).with_name("cli_child.py")), str(trace_file), *argv]
    t0 = perf_counter()
    proc = subprocess.run(cmd, env=bench.child_env(), cwd=bench.ROOT, capture_output=True)
    return perf_counter() - t0, proc.returncode, proc.stdout


class CheckFailed(Exception):
    pass


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def check(item, rc: int, stdout: bytes) -> None:
    """Raise unless the report is correct."""
    k, argv, path = item
    expect(rc == 0, f"exit code {rc}")
    report = json.loads(stdout)
    expect(report["ok"] is True, "report is not ok")
    _cmd, _rings, _build, expected, verdict = KINDS[k]
    ws = parse_workspace(path.read_text(encoding="utf-8")) if path else None
    tail = argv[3:] if path else []
    got, want = verdict(report["result"]), expected(ws, tail)
    expect(got == want, f"verdict {got!r} != library {want!r}")


def run(_name: str, seed: int, seconds: int, traced: bool) -> dict:
    work = bench.OUT_DIR / f"cli-seed{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return _run(seed, seconds, traced, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(seed: int, seconds: int, traced: bool, work: Path) -> dict:
    startup = bench.median_child_s("import arrowcat.generators, arrowcat.workspace")
    n_kinds = len(KINDS)
    rounds = bench.pool_rounds("cli", seconds, n_kinds, traced)
    inputs, gen_s = bench.generate(lambda first, n: make_inputs(seed, work, first, n), rounds)
    tally = bench.Tally()
    span_files = []

    def run_one(i: int, item, trace: bool) -> float:
        """Time one invocation, then check its report; the first invocation
        of each kind is repeated and must print the same bytes."""
        trace_file = None
        if trace:
            trace_file = work / f"spans-{i}.jsonl"
            span_files.append(trace_file)
        dt, rc, out = invoke(item[1], trace_file)
        err = None
        try:
            check(item, rc, out)
            if i < n_kinds:
                expect(invoke(item[1])[2] == out, "stdout differs between identical invocations")
        except Exception as e:  # a wrong or unreadable report is a failed item
            err = e
        tally.add(err is None, f"cli item {i}: {' '.join(item[1])}", err)
        return dt

    if not traced:
        invoke(inputs[0][1])  # fills the bytecode and file caches
        lat = bench.timed_items(inputs, seconds, run_one)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        return bench.e2e_result(tally, lat, startup + gen_s, peak_rss_mb)

    used = inputs[: rounds * n_kinds]
    interpreter = bench.median_child_s("pass")
    import_cli = bench.median_child_s("import arrowcat.cli")
    parse_ms, serialize_ms = [], []
    for _k, _argv, path in used:
        if path is None:
            continue
        text = path.read_text(encoding="utf-8")
        t0 = perf_counter()
        ws = parse_workspace(text)
        t1 = perf_counter()
        serialize_workspace(ws)
        t2 = perf_counter()
        parse_ms.append((t1 - t0) * 1e3)
        serialize_ms.append((t2 - t1) * 1e3)
    plain, traced_s = bench.alternating_items(used, n_kinds, run_one)
    summaries = []
    with open(bench.trace_path("cli", seed), "w", encoding="utf-8") as out:
        for path in span_files:
            with open(path, encoding="utf-8") as fh:
                summaries.append(json.loads(fh.readline())["summary"])
                for line in fh:
                    out.write(f"[{json.dumps(path.stem)}, {line.rstrip()}]\n")
    cli = {
        "cli.interpreter_ms": interpreter * 1e3,
        "cli.import_ms": (import_cli - interpreter) * 1e3,
        "workspace.parse_ms": statistics.median(parse_ms),
        "workspace.serialize_ms": statistics.median(serialize_ms),
    }
    return bench.layer_result(tally, spans.merge_summaries(summaries), gen_s, plain, traced_s, cli)
