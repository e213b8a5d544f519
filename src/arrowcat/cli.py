"""Command-line interface: structured JSON reports over workspace files.

Exit codes: 0 success, 1 validation or hypothesis failure, 2 usage error.
Reports have a stable key order, so identical argv and seed produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import TYPE_CHECKING

# Library modules are imported inside each cmd_* handler, so a cold call
# loads only what its subcommand runs.
from .rings import ZZ
from .workspace import (
    Workspace,
    WorkspaceError,
    parse_workspace,
    serialize_workspace,
    _matrix_to_json,
    _obj_to_json,
)

if TYPE_CHECKING:
    from .core2 import TwoMorphism


def _mor_json(u: TwoMorphism):
    return {
        "source": _obj_to_json(u.src),
        "target": _obj_to_json(u.dst),
        "top": _matrix_to_json(u.top),
        "bottom": _matrix_to_json(u.bottom),
    }


def _flags_json(fl):
    """The flags of an ArrowClassification in field order, keyed by the
    camelCase of their field names."""
    out = {}
    for name in fl._fields:
        head, *rest = name.split("_")
        out[head + "".join(w.capitalize() for w in rest)] = getattr(fl, name)
    return out


def _load(args) -> Workspace:
    if not args.infile:
        raise WorkspaceError("--in is required for this command")
    with open(args.infile, "r", encoding="utf-8") as fh:
        return parse_workspace(fh.read())


def _emit(args, command: str, ok: bool, result) -> int:
    report = {"command": command, "ok": ok, "result": result}
    text = json.dumps(report, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if ok else 1


def cmd_kernel(args):
    from .limits2 import cokernel2, kernel2

    ws = _load(args)
    fn = kernel2 if args.command == "kernel" else cokernel2
    obj, mor, cell, _ = fn(ws.morphism(args.morphism))
    return _emit(args, args.command, True, {
        "object": _obj_to_json(obj),
        "morphism": _mor_json(mor),
        "cell": _matrix_to_json(cell.mat),
    })


def cmd_pip(args):
    from .limits2 import copip2, pip2

    ws = _load(args)
    fn = pip2 if args.command == "pip" else copip2
    pl = fn(ws.morphism(args.morphism))
    return _emit(args, args.command, True, {
        "object": _obj_to_json(pl.obj),
        "loop": _matrix_to_json(pl.loop.mat),
    })


def cmd_root(args):
    from .limits2 import coroot2, root2

    ws = _load(args)
    fn = root2 if args.command == "root" else coroot2
    rt = fn(ws.cell(args.cell))
    return _emit(args, args.command, True, {
        "object": _obj_to_json(rt.obj),
        "morphism": _mor_json(rt.rmor),
    })


def cmd_classify(args):
    from .classify2 import classify2

    ws = _load(args)
    fl = classify2(ws.morphism(args.morphism))
    return _emit(args, "classify", True, _flags_json(fl))


def cmd_equivdata(args):
    from .classify2 import equivalence_data2

    ws = _load(args)
    data = equivalence_data2(ws.morphism(args.morphism))
    if data is None:
        return _emit(args, "equivdata", True, {"equivalence": False, "witness": None})
    return _emit(args, "equivdata", True, {
        "equivalence": True,
        "witness": {
            "v1": _matrix_to_json(data.v1),
            "v0": _matrix_to_json(data.v0),
            "epsilon": _matrix_to_json(data.epsilon),
            "eta": _matrix_to_json(data.eta),
        },
    })


def cmd_factor(args):
    from .factor2 import factor2

    ws = _load(args)
    fz = factor2(ws.morphism(args.morphism))
    return _emit(args, "factor", True, {
        "e": _mor_json(fz.e),
        "l": _mor_json(fz.l),
        "mhat": _mor_json(fz.mhat),
        "ehat": _mor_json(fz.ehat),
        "mbar": _mor_json(fz.mbar),
        "m": _mor_json(fz.m),
        "eFlags": _flags_json(fz.e_flags),
        "lFlags": _flags_json(fz.l_flags),
        "mhatFlags": _flags_json(fz.mhat_flags),
        "wbar": _mor_json(fz.wbar),
        "wbarFlags": _flags_json(fz.wbar_flags),
        "w": _mor_json(fz.w),
        "wFlags": _flags_json(fz.w_flags),
    })


def cmd_exactat(args):
    from .sequences import exact_at

    ws = _load(args)
    ok = exact_at(ws.morphism(args.a), ws.cell(args.alpha), ws.morphism(args.b))
    return _emit(args, "exactat", True, {"exact": ok})


def _rel_args(ws, args):
    return (
        ws.morphism(args.x),
        ws.cell(args.phi),
        ws.morphism(args.a),
        ws.cell(args.alpha),
        ws.morphism(args.b),
        ws.cell(args.psi),
        ws.morphism(args.y),
    )


def cmd_relexactat(args):
    from .sequences import relative_exact_at

    ws = _load(args)
    ok = relative_exact_at(*_rel_args(ws, args))
    return _emit(args, "relexactat", True, {"relativeExact": ok})


def cmd_homology(args):
    from .sequences import homology_at

    ws = _load(args)
    h = homology_at(*_rel_args(ws, args))
    return _emit(args, "homology", True, {
        "object": _obj_to_json(h.obj),
        "qprime": _mor_json(h.qprime),
        "kprime": _mor_json(h.kprime),
        "comparisonEquivalence": h.comparison_flags.equivalence,
    })


def cmd_puppe(args):
    from .puppe import puppe
    from .sequences import exactness

    ws = _load(args)
    ps = puppe(ws.morphism(args.morphism))
    exact = exactness(ps.maps, ps.cells)
    return _emit(args, "puppe", all(exact), {
        "objects": [_obj_to_json(o) for o in ps.objects],
        "maps": [_mor_json(m) for m in ps.maps],
        "cells": [_matrix_to_json(c.mat) for c in ps.cells],
        "exactAtInteriorPoints": exact,
        "mu": _matrix_to_json(ps.mu.mat),
    })


def _snake_parts(ws, args):
    """(rows, columns, cells) of a map of extensions, as the workspace holds them."""
    rows = (
        ws.morphism(args.f), ws.cell(args.eta), ws.morphism(args.g),
        ws.morphism(args.f2), ws.cell(args.eta2), ws.morphism(args.g2),
    )
    cols = (ws.morphism(args.a), ws.morphism(args.b), ws.morphism(args.c))
    return rows, cols, (ws.cell(args.phi), ws.cell(args.psi))


def cmd_snake(args):
    from .sequences import exactness
    from .snake import column_data, generalized_snake, plain_snake

    ws = _load(args)
    rows, cols, cells = _snake_parts(ws, args)
    fn = generalized_snake if args.generalized else plain_snake
    try:
        res = fn(*rows, *map(column_data, cols), *cells)
    except ValueError as e:
        return _emit(args, "snake", False, {"error": str(e)})
    maps, scells = res.sequence()
    exact = exactness(maps, scells)
    return _emit(args, "snake", all(exact), {
        "maps": [_mor_json(m) for m in maps],
        "cells": [_matrix_to_json(c.mat) for c in scells],
        "exactAtInteriorPoints": exact,
    })


def cmd_anaconda(args):
    from .anaconda import anaconda, anaconda_full_sequence
    from .sequences import exactness
    from .snake import column_data

    ws = _load(args)
    rows, cols, cells = _snake_parts(ws, args)
    try:
        res = anaconda(*rows, *map(column_data, cols), *cells)
    except ValueError as e:
        return _emit(args, "anaconda", False, {"error": str(e)})
    exact = exactness(*anaconda_full_sequence(res))
    return _emit(args, "anaconda", all(exact), {
        "objects": [_obj_to_json(o) for o in res.objects],
        "compositeSigns": list(res.composite_signs),
        "exactness": exact,
    })


def cmd_les(args):
    from .les import les_full_sequence, les_homology
    from .sequences import exactness

    ws = _load(args)
    fmap = ws.chainmap(args.f)
    gmap = ws.chainmap(args.g)
    omegas = tuple(ws.cell(n) for n in args.omega.split(","))
    try:
        res = les_homology(fmap, omegas, gmap)
    except ValueError as e:
        return _emit(args, "les", False, {"error": str(e)})
    exact = exactness(*les_full_sequence(res))
    return _emit(args, "les", all(exact), {
        "degrees": list(res.degrees),
        "homologyObjects": {
            f"{'ABC'[i]}{n}": _obj_to_json(res.h_objects[(i, n)])
            for i in range(3)
            for n in res.degrees
        },
        "maps": [_mor_json(m) for m in res.maps],
        "exactness": exact,
    })


def _parse_roles(text: str) -> dict:
    roles = {}
    for part in text.split(","):
        if "=" not in part:
            raise WorkspaceError(f"bad role assignment {part!r}")
        k, v = part.split("=", 1)
        roles[k.strip()] = v.strip()
    return roles


def cmd_check3x3(args):
    from .lemmas import ThreeByThree, check_3x3, check_3x3_part2

    ws = _load(args)
    r = _parse_roles(args.roles)
    try:
        d = ThreeByThree(
            f=tuple(ws.morphism(r[k]) for k in ("f1", "f2", "f3")),
            g=tuple(ws.morphism(r[k]) for k in ("g1", "g2", "g3")),
            eta=tuple(ws.cell(r[k]) for k in ("eta1", "eta2", "eta3")),
            a=tuple(ws.morphism(r[k]) for k in ("a1", "a2")),
            b=tuple(ws.morphism(r[k]) for k in ("b1", "b2")),
            c=tuple(ws.morphism(r[k]) for k in ("c1", "c2")),
            alpha=ws.cell(r["alpha"]),
            beta=ws.cell(r["beta"]),
            gamma=ws.cell(r["gamma"]),
            phi=tuple(ws.cell(r[k]) for k in ("phi1", "phi2")),
            psi=tuple(ws.cell(r[k]) for k in ("psi1", "psi2")),
        )
    except KeyError as e:
        raise WorkspaceError(f"missing 3x3 role {e}") from e
    rep = check_3x3_part2(d) if args.part2 else check_3x3(d)
    return _emit(args, "check3x3", rep.ok, {
        "failedCondition": rep.failed_condition,
        "details": {k: v for k, v in rep.details.items()},
    })


def cmd_shortfive(args):
    from .lemmas import ShortFiveInput, check_short_five

    rows, cols, cells = _snake_parts(_load(args), args)
    rep = check_short_five(ShortFiveInput(*rows, *cols, *cells))
    details = {
        "a": _flags_json(rep.details["a"]) if "a" in rep.details else None,
        "b": _flags_json(rep.details["b"]) if "b" in rep.details else None,
        "c": _flags_json(rep.details["c"]) if "c" in rep.details else None,
        "conclusions": rep.details.get("conclusions", {}),
    }
    return _emit(args, "shortfive", rep.ok, {
        "failedCondition": rep.failed_condition,
        "details": details,
    })


def nonsplit_workspace() -> Workspace:
    """The shipped counterexample workspace."""
    from .classify2 import z_counterexample

    u = z_counterexample()
    ws = Workspace(ZZ)
    ws.objects["doubling"] = u.src
    ws.objects["mod2"] = u.dst
    ws.morphisms["u"] = u
    return ws


def cmd_demo_nonsplit(args):
    from .baselin import split_data_base
    from .classify2 import classify2, equivalence_data2, z_counterexample
    from .limits2 import sequence_of

    u = z_counterexample()
    fl = classify2(u)
    data = equivalence_data2(u)
    witness = split_data_base(sequence_of(u).iota)
    return _emit(args, "demo-nonsplit", True, {
        "workspace": json.loads(serialize_workspace(nonsplit_workspace())),
        "classification": _flags_json(fl),
        "equivalenceData": None if data is None else "present",
        "splitWitness": None if witness is None else _matrix_to_json(witness),
    })


def cmd_selftest(args):
    from .selftest import SUITES, run_all

    only = set(args.suite.split(",")) if args.suite else None
    if only:
        unknown = only - set(SUITES)
        if unknown:
            raise WorkspaceError(f"unknown suites: {sorted(unknown)}")
    if args.ring:
        rings = {str(r).lower(): r for _, _, r in SUITES.values() if r is not None}
        tag = args.ring.lower().replace("fp:", "f").replace(":", "")
        if tag not in rings:
            names = ", ".join(str(r) for r in rings.values())
            raise WorkspaceError(f"no suites over ring {args.ring!r}; rings with suites: {names}")
        keep = {n for n, (_, _, r) in SUITES.items() if r in (None, rings[tag])}
        only = keep if only is None else (only & keep)
    results = run_all(seed=args.seed, cases=args.cases, max_dim=args.max_dim, only=only)
    ok = all(r.failures == 0 for r in results)
    report = {
        "suites": [
            {"name": r.name, "cases": r.cases, "failures": r.failures, "notes": r.notes}
            for r in results
        ],
    }
    return _emit(args, "selftest", ok, report)


def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="arrowcat",
        description="Exact homological algebra on squares of chain maps: "
        "limits, classifications, exactness oracles and diagram lemmas.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def out(sp):
        sp.add_argument("--out", default=None, help="write the report here instead of stdout")

    def common(sp):
        sp.add_argument("--in", dest="infile", default=None, help="workspace JSON file")
        out(sp)

    def map_of_pairs(sp):  # the rows, columns and cells that _snake_parts reads
        for flag in ("--f", "--eta", "--g", "--f2", "--eta2", "--g2", "--a", "--b", "--c", "--phi", "--psi"):
            sp.add_argument(flag, required=True)

    for name, fn in [
        ("kernel", cmd_kernel), ("cokernel", cmd_kernel),
        ("pip", cmd_pip), ("copip", cmd_pip),
        ("classify", cmd_classify), ("equivdata", cmd_equivdata),
        ("factor", cmd_factor), ("puppe", cmd_puppe),
    ]:
        sp = sub.add_parser(name)
        common(sp)
        sp.add_argument("--morphism", required=True)
        sp.set_defaults(fn=fn)

    for name in ("root", "coroot"):
        sp = sub.add_parser(name)
        common(sp)
        sp.add_argument("--cell", required=True)
        sp.set_defaults(fn=cmd_root)

    sp = sub.add_parser("exactat")
    common(sp)
    for flag in ("--a", "--alpha", "--b"):
        sp.add_argument(flag, required=True)
    sp.set_defaults(fn=cmd_exactat)

    for name, fn in [("relexactat", cmd_relexactat), ("homology", cmd_homology)]:
        sp = sub.add_parser(name)
        common(sp)
        for flag in ("--x", "--phi", "--a", "--alpha", "--b", "--psi", "--y"):
            sp.add_argument(flag, required=True)
        sp.set_defaults(fn=fn)

    for name, fn in [("snake", cmd_snake), ("anaconda", cmd_anaconda)]:
        sp = sub.add_parser(name)
        common(sp)
        map_of_pairs(sp)
        if name == "snake":
            sp.add_argument("--generalized", action="store_true")
        sp.set_defaults(fn=fn)

    sp = sub.add_parser("les")
    common(sp)
    sp.add_argument("--f", required=True, help="chain map A. -> B.")
    sp.add_argument("--g", required=True, help="chain map B. -> C.")
    sp.add_argument("--omega", required=True, help="comma-separated cell names g_n f_n => 0")
    sp.set_defaults(fn=cmd_les)

    sp = sub.add_parser("check3x3")
    common(sp)
    sp.add_argument("--roles", required=True, help="f1=..,g1=..,...,psi2=..")
    sp.add_argument("--part2", action="store_true")
    sp.set_defaults(fn=cmd_check3x3)

    sp = sub.add_parser("shortfive")
    common(sp)
    map_of_pairs(sp)
    sp.set_defaults(fn=cmd_shortfive)

    sp = sub.add_parser("demo-nonsplit")
    out(sp)
    sp.set_defaults(fn=cmd_demo_nonsplit)

    sp = sub.add_parser("selftest")
    out(sp)
    sp.add_argument("--seed", type=int, default=42)
    sp.add_argument("--cases", type=_positive_int, default=None)
    sp.add_argument("--ring", default=None, help="fp:<p> or Z: keep only that ring's suites")
    sp.add_argument("--suite", default=None, help="comma-separated suite names")
    sp.add_argument("--max-dim", type=int, default=2)
    sp.set_defaults(fn=cmd_selftest)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (OSError, ValueError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 1
    except AssertionError as e:
        # an internal invariant failed: report it, do not print a traceback
        return _emit(args, args.command, False, {"error": {"kind": "internal", "message": str(e)}})


if __name__ == "__main__":
    raise SystemExit(main())
