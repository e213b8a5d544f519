"""Golden corpus of CLI reports over seeded workspaces.

Every subcommand runs in-process through ``cli.main`` on small seeded
workspaces (max_dim 2) over F2, F3, F5 and Z, two seeds each.  The
serialized workspaces and every report must equal the files under
``tests/golden_cli/`` byte for byte, so both the generators and the
algorithms are pinned.  On a mismatch the actual text is written next to
the golden file with an ``.actual`` suffix, ready for ``diff``.

Record the corpus again (only when a change of output is intended and
explained) with::

    PYTHONPATH=src python tests/test_golden_cli.py
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

from arrowcat.cli import main
from arrowcat.generators import (
    Bounds,
    random_3x3_instance,
    random_complex,
    random_complex_extension,
    random_generalized_snake_instance,
    random_self_equivalence,
    random_shortfive_instance,
    random_snake_instance,
    random_square,
    random_two_object,
    to_chain_maps,
    to_complex_sequence,
)
from arrowcat.limits2 import copip2, kernel2, pip2
from arrowcat.rings import GF, ZZ
from arrowcat.sequences import padded_window
from arrowcat.workspace import Workspace, serialize_workspace

GOLDEN = Path(__file__).parent / "golden_cli"
BOUNDS = Bounds(max_dim=2)
CASES = [(ring, seed) for ring in (GF(2), GF(3), GF(5), ZZ) for seed in (1, 2)]
SNAKE = ("f", "eta", "g", "f2", "eta2", "g2", "a", "b", "c", "phi", "psi")
SNAKE_CELLS = ("eta", "eta2", "phi", "psi")
WINDOW = ("x", "phi", "a", "alpha", "b", "psi", "y")
GRID = (
    [("f", i) for i in (1, 2, 3)] + [("g", i) for i in (1, 2, 3)]
    + [("eta", i) for i in (1, 2, 3)] + [("a", i) for i in (1, 2)]
    + [("b", i) for i in (1, 2)] + [("c", i) for i in (1, 2)]
    + [("phi", i) for i in (1, 2)] + [("psi", i) for i in (1, 2)]
)
GRID_CELLS = ("eta", "phi", "psi")


class _Names:
    """Registers entities under given names, objects under generated ones."""

    def __init__(self, ring):
        self.ws = Workspace(ring)

    def obj(self, x):
        if x not in self.ws.objects.values():
            self.ws.objects[f"o{len(self.ws.objects):02d}"] = x

    def mor(self, u, name):
        self.obj(u.src)
        self.obj(u.dst)
        self.ws.morphisms[name] = u
        return name

    def cell(self, c, name):
        self.mor(c.cfrom, f"{name}.from")
        self.mor(c.cto, f"{name}.to")
        self.ws.cells[name] = c
        return name

    def snake(self, prefix, inst):
        parts = (*inst.row1, *inst.row2, *inst.cols, *inst.cells)
        argv = []
        for key, part in zip(SNAKE, parts):
            put = self.cell if key in SNAKE_CELLS else self.mor
            argv += [f"--{key}", put(part, f"{prefix}{key}")]
        return argv


def build_case(ring, seed):
    """The workspace of one case and the (report name, argv) pairs run on it."""
    rng = random.Random(seed)
    n = _Names(ring)
    runs = []
    u = random_square(rng, random_two_object(rng, ring, BOUNDS), random_two_object(rng, ring, BOUNDS))
    n.mor(u, "u")
    v = random_self_equivalence(rng, random_two_object(rng, ring, BOUNDS), BOUNDS)
    n.mor(v, "v")
    for cmd in ("kernel", "cokernel", "pip", "copip", "classify", "equivdata", "factor", "puppe"):
        runs.append((cmd, [cmd, "--morphism", "u"]))
    for cmd in ("classify", "equivdata", "factor"):
        runs.append((f"{cmd}-v", [cmd, "--morphism", "v"]))
    n.cell(pip2(u).loop, "piploop")
    n.cell(copip2(u).loop, "copiploop")
    runs.append(("root", ["root", "--cell", "piploop"]))
    runs.append(("coroot", ["coroot", "--cell", "copiploop"]))
    kd = kernel2(u)
    n.mor(kd.kmor, "k")
    n.cell(kd.kappa, "kappa")
    runs.append(("exactat", ["exactat", "--a", "k", "--alpha", "kappa", "--b", "u"]))
    cx = to_complex_sequence(random_complex(rng, ring, 4, BOUNDS))
    wargv = []
    for key, part in zip(WINDOW, padded_window(cx, 1)):
        put = n.mor if key in ("x", "a", "b", "y") else n.cell
        wargv += [f"--{key}", put(part, f"w.{key}")]
    runs.append(("relexactat", ["relexactat", *wargv]))
    runs.append(("homology", ["homology", *wargv]))
    pargv = n.snake("p.", random_snake_instance(rng, ring, BOUNDS))
    runs.append(("snake", ["snake", *pargv]))
    runs.append(("anaconda", ["anaconda", *pargv]))
    runs.append(("shortfive", ["shortfive", *pargv]))
    gargv = n.snake("g.", random_generalized_snake_instance(rng, ring, BOUNDS))
    runs.append(("snake-generalized", ["snake", *gargv, "--generalized"]))
    eargv = n.snake("e.", random_shortfive_instance(rng, ring, BOUNDS, "equivalence"))
    runs.append(("shortfive-equivalence", ["shortfive", *eargv]))
    grid = random_3x3_instance(rng, ring, BOUNDS)
    roles = []
    for field, i in GRID:
        put = n.cell if field in GRID_CELLS else n.mor
        roles.append(f"{field}{i}={put(getattr(grid, field)[i - 1], f't.{field}{i}')}")
    for field in ("alpha", "beta", "gamma"):
        roles.append(f"{field}={n.cell(getattr(grid, field), f't.{field}')}")
    runs.append(("check3x3", ["check3x3", "--roles", ",".join(roles)]))
    runs.append(("check3x3-part2", ["check3x3", "--roles", ",".join(roles), "--part2"]))
    fmap, omegas, gmap = to_chain_maps(random_complex_extension(rng, ring, 3, BOUNDS))
    for name, cx in (("A", fmap.src), ("B", fmap.dst), ("C", gmap.dst)):
        for i, d in enumerate(cx.diffs):
            n.mor(d, f"{name}.d{i}")
        for i, c in enumerate(cx.cells):
            n.cell(c, f"{name}.h{i}")
        n.ws.complexes[name] = cx
    for name, cm in (("f", fmap), ("g", gmap)):
        for i, s in enumerate(cm.squares):
            n.mor(s, f"{name}.s{i}")
        for i, c in enumerate(cm.cells):
            n.cell(c, f"{name}.h{i}")
        n.ws.chainmaps[name] = cm
    omega = ",".join(n.cell(w, f"omega{i}") for i, w in enumerate(omegas))
    runs.append(("les", ["les", "--f", "f", "--g", "g", "--omega", omega]))
    return n.ws, runs


GLOBAL_RUNS = [
    ("demo-nonsplit", ["demo-nonsplit"]),
    ("selftest", ["selftest", "--seed", "7", "--cases", "1"]),
    ("selftest-cases6", ["selftest", "--seed", "11", "--cases", "6"]),
]


def _case_dir(ring, seed) -> Path:
    return GOLDEN / f"{str(ring).lower().replace('/', '')}-seed{seed}"


def _report(argv, tmp: Path) -> str:
    out = tmp / "report.json"
    main([*argv, "--out", str(out)])
    return out.read_text(encoding="utf-8")


def _compare(path: Path, actual: str):
    expected = path.read_text(encoding="utf-8")
    stale = path.with_name(path.name + ".actual")
    if actual != expected:
        stale.write_text(actual, encoding="utf-8")
        pytest.fail(f"{path.name} differs from the golden file; actual output in {stale}")
    stale.unlink(missing_ok=True)


def _case_reports(ring, seed, tmp: Path):
    ws, runs = build_case(ring, seed)
    text = serialize_workspace(ws)
    wpath = tmp / "workspace.json"
    wpath.write_text(text, encoding="utf-8")
    reports = [(name, _report([argv[0], "--in", str(wpath), *argv[1:]], tmp)) for name, argv in runs]
    return text, reports


@pytest.mark.parametrize("ring,seed", CASES, ids=[f"{r}-seed{s}" for r, s in CASES])
def test_case_reports(ring, seed, tmp_path):
    case = _case_dir(ring, seed)
    text, reports = _case_reports(ring, seed, tmp_path)
    _compare(case / "workspace.json", text)
    for name, report in reports:
        _compare(case / f"{name}.json", report)


@pytest.mark.parametrize("name,argv", GLOBAL_RUNS, ids=[n for n, _ in GLOBAL_RUNS])
def test_global_reports(name, argv, tmp_path):
    _compare(GOLDEN / f"{name}.json", _report(argv, tmp_path))


def record():
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for ring, seed in CASES:
            case = _case_dir(ring, seed)
            case.mkdir(parents=True, exist_ok=True)
            text, reports = _case_reports(ring, seed, tmp)
            (case / "workspace.json").write_text(text, encoding="utf-8")
            for name, report in reports:
                (case / f"{name}.json").write_text(report, encoding="utf-8")
        for name, argv in GLOBAL_RUNS:
            (GOLDEN / f"{name}.json").write_text(_report(argv, tmp), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(record())
