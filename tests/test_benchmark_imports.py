"""The benchmark modules under perfbench/ import against the current package.

They import many names from arrowcat; a refactor that drops or renames one
fails here rather than only when the benchmark runs.  The child also traces
one factor2 call the way ``run.py --trace 1`` does, so a rename in a traced
layer fails here too.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CHILD = """
import random

import cliload
import spans
import workloads
from arrowcat import ZZ
from arrowcat.generators import Bounds, random_square, random_two_object

rng = random.Random(12)
bounds = Bounds(max_dim=2)
u = random_square(rng, random_two_object(rng, ZZ, bounds), random_two_object(rng, ZZ, bounds))
tracer = spans.Tracer(("workloads",))
tracer.install(0)
try:
    workloads.factor2(u)
finally:
    tracer.uninstall()
calls = tracer.calls
assert sum(n for name, n in calls.items() if name.startswith("snf.")) > 0, calls
assert calls["baselin.factor_base"] > 0, calls
assert calls["snf.solve_int"] > 0, calls
"""


def test_benchmark_modules_import():
    path = os.pathsep.join(str(ROOT / d) for d in ("src", "perfbench"))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
