"""baselin is the only client of the linear-algebra engines (modsolve, snf).

Every solve of the package goes through the base layer, so a change of
engine, or of how a system reaches it, is a change to baselin alone.  The
one exception is selftest's snf suite, which tests the Smith normal form
itself.  The scan reads the import statements of src/arrowcat/*.py.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).parents[1] / "src" / "arrowcat"
ENGINES = ("modsolve", "snf")
# module -> the engine names it may import (None: any)
ALLOWED = {"baselin.py": None, "selftest.py": {"smith_normal_form"}}


def _engine_imports(path: Path):
    """(engine, name) for every engine name the module imports; a whole
    engine module imported is named "*"."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").removeprefix("arrowcat.").removeprefix("arrowcat")
            if module in ENGINES:
                yield from ((module, alias.name) for alias in node.names)
            elif module == "":  # from . import snf
                yield from ((alias.name, "*") for alias in node.names if alias.name in ENGINES)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                module = alias.name.removeprefix("arrowcat.")
                if module in ENGINES:
                    yield module, "*"


def test_only_baselin_imports_the_engines():
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        allowed = ALLOWED.get(path.name, set())
        for engine, name in _engine_imports(path):
            if allowed is not None and name not in allowed:
                offenders.append(f"{path.name} imports {name} from {engine}")
    assert offenders == []


def test_the_scan_sees_baselins_imports():
    seen = set(_engine_imports(PACKAGE / "baselin.py"))
    assert {("snf", "solve_int"), ("snf", "kernel_lattice"), ("modsolve", "solve_mod_p")} <= seen
