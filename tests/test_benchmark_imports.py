"""The benchmark modules under perfbench/ import against the current package.

They import many names from arrowcat; a refactor that drops or renames one
fails here rather than only when the benchmark runs.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_modules_import():
    path = os.pathsep.join(str(ROOT / d) for d in ("src", "perfbench"))
    proc = subprocess.run(
        [sys.executable, "-c", "import workloads, cliload"],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
