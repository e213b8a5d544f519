"""Each subcommand loads only the modules it runs.

Every run is a fresh interpreter, as a cold ``python -m arrowcat`` call is:
it runs ``cli.main`` on the golden f2-seed1 workspace, writes the report
and prints ``sorted(sys.modules)``.  The report must still equal the golden
file, so the lazy imports change no output.  A cold ``kernel`` call, run as
``python -m arrowcat`` runs it, loads neither ``dataclasses`` nor
``inspect``: no arrowcat class is a dataclass.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).parents[1] / "src"
GOLDEN = Path(__file__).parent / "golden_cli"
F2 = GOLDEN / "f2-seed1"
CHILD = (
    "import json, sys\n"
    "from arrowcat.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "print(json.dumps({'code': code, 'modules': sorted(sys.modules)}))\n"
)

SNAKE = [arg for key in ("f", "eta", "g", "f2", "eta2", "g2", "a", "b", "c", "phi", "psi")
         for arg in (f"--{key}", f"p.{key}")]
WINDOW = [arg for key in ("x", "phi", "a", "alpha", "b", "psi", "y") for arg in (f"--{key}", f"w.{key}")]
ROLES = ",".join(
    f"{role}=t.{role}"
    for role in ("f1", "f2", "f3", "g1", "g2", "g3", "eta1", "eta2", "eta3", "a1", "a2", "b1", "b2",
                 "c1", "c2", "phi1", "phi2", "psi1", "psi2", "alpha", "beta", "gamma")
)
# (golden report, argv after --in) for every subcommand but selftest
RUNS = [
    *[(cmd, [cmd, "--morphism", "u"])
      for cmd in ("kernel", "cokernel", "pip", "copip", "classify", "equivdata", "factor", "puppe")],
    ("root", ["root", "--cell", "piploop"]),
    ("coroot", ["coroot", "--cell", "copiploop"]),
    ("exactat", ["exactat", "--a", "k", "--alpha", "kappa", "--b", "u"]),
    ("relexactat", ["relexactat", *WINDOW]),
    ("homology", ["homology", *WINDOW]),
    ("snake", ["snake", *SNAKE]),
    ("anaconda", ["anaconda", *SNAKE]),
    ("shortfive", ["shortfive", *SNAKE]),
    ("check3x3", ["check3x3", "--roles", ROLES]),
    ("les", ["les", "--f", "f", "--g", "g", "--omega", "omega0,omega1,omega2"]),
]
BATTERY = {"arrowcat.selftest", "arrowcat.generators"}
DIAGRAMS = {f"arrowcat.{m}" for m in ("snake", "les", "lemmas", "anaconda", "puppe", "factor2")}


def _child(code: str, *argv: str):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _run(argv, out: Path):
    """(exit code, loaded modules) of one cold cli.main call."""
    result = json.loads(_child(CHILD, *argv, "--out", str(out)).splitlines()[-1])
    return result["code"], set(result["modules"])


@pytest.mark.parametrize("name,argv", RUNS, ids=[name for name, _ in RUNS])
def test_subcommand_imports(name, argv, tmp_path):
    golden = F2 / f"{name}.json"
    out = tmp_path / "report.json"
    code, modules = _run([argv[0], "--in", str(F2 / "workspace.json"), *argv[1:]], out)
    assert out.read_text(encoding="utf-8") == golden.read_text(encoding="utf-8")
    assert code == (0 if json.loads(golden.read_text())["ok"] else 1)
    assert not modules & BATTERY
    if name == "classify":
        assert not modules & DIAGRAMS


def test_demo_nonsplit_skips_the_battery(tmp_path):
    out = tmp_path / "report.json"
    code, modules = _run(["demo-nonsplit"], out)
    assert code == 0
    assert out.read_text(encoding="utf-8") == (GOLDEN / "demo-nonsplit.json").read_text(encoding="utf-8")
    assert not modules & (BATTERY | DIAGRAMS)


def test_workspace_without_complexes_skips_sequences(tmp_path):
    z = GOLDEN / "z-seed1"
    doc = json.loads((z / "workspace.json").read_text(encoding="utf-8"))
    doc["complexes"], doc["chainmaps"] = {}, {}
    ws = tmp_path / "workspace.json"
    ws.write_text(json.dumps(doc), encoding="utf-8")
    code, modules = _run(["kernel", "--in", str(ws), "--morphism", "u"], tmp_path / "r.json")
    assert code == 0
    assert (tmp_path / "r.json").read_text(encoding="utf-8") == (z / "kernel.json").read_text(encoding="utf-8")
    assert not modules & {"arrowcat.sequences", "arrowcat.classify2"}


def test_importing_cli_loads_no_library_layer():
    modules = set(json.loads(_child("import json, sys, arrowcat.cli; print(json.dumps(sorted(sys.modules)))")))
    assert not modules & (BATTERY | DIAGRAMS | {"arrowcat.limits2"})


# runs the package as ``python -m arrowcat`` does, and notes what the
# interpreter had loaded before it
MAIN = (
    "import json, runpy, sys\n"
    "before = sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules)\n"
    "sys.argv = ['arrowcat', *sys.argv[1:]]\n"
    "try:\n"
    "    runpy.run_module('arrowcat', run_name='__main__', alter_sys=True)\n"
    "except SystemExit as exc:\n"
    "    code = exc.code\n"
    "print(json.dumps({'code': code, 'before': before, 'modules': sorted(sys.modules)}))\n"
)


def test_cold_kernel_loads_neither_dataclasses_nor_inspect(tmp_path):
    out = tmp_path / "report.json"
    argv = ["kernel", "--in", str(F2 / "workspace.json"), "--morphism", "u", "--out", str(out)]
    result = json.loads(_child(MAIN, *argv).splitlines()[-1])
    if result["before"]:
        pytest.skip(f"the interpreter loads {', '.join(result['before'])} before arrowcat")
    assert result["code"] == 0
    assert out.read_text(encoding="utf-8") == (F2 / "kernel.json").read_text(encoding="utf-8")
    assert not set(result["modules"]) & {"dataclasses", "inspect"}
