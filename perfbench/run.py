"""arrowcat benchmark: one workload per process, metrics as one JSON line.

    python3 perfbench/run.py --workload factor-z --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program under test is ``src/arrowcat``
of that checkout.  Workloads (see BENCHMARK.json and workloads.py):

    factor-z     factor2 + classify2 on squares over Z, max_dim 2..4
    diagrams-fp  every diagram construction + exact_at, over F2/F3/F5
    cli          cold ``python -m arrowcat <subcommand>`` invocations

With ``--trace 0`` the run is untraced and reports the end-to-end metrics.
With ``--trace 1`` it alternates untraced and traced rounds of a fixed
number of inputs and reports the per-layer metrics (see spans.py); spans go
to ``.bench_runs/`` in the checkout.  Every output is checked outside its
timed span; a failed check is counted, never retried, and makes the exit
code 1 after the result line.  Without ``src/arrowcat`` the run exits 2
and prints no result.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from common import SRC


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=["factor-z", "diagrams-fp", "cli"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    if not (SRC / "arrowcat" / "__init__.py").is_file():
        print(f"error: no program to measure: {SRC / 'arrowcat'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import arrowcat

    if Path(arrowcat.__file__).resolve().parent != (SRC / "arrowcat").resolve():
        print(f"error: imported arrowcat from {arrowcat.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.workload == "cli":
        import cliload as runner
    else:
        import workloads as runner
    res = runner.run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"{args.workload} seed {args.seed}: {res['attempted']} items, {res['failed']} failed")
    print(json.dumps(res))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
