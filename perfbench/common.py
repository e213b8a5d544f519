"""Harness shared by the workloads: set-up timing, tallies, result lines."""

from __future__ import annotations

import math
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_runs"

SETUP_REPEATS = 5  # set-up parts are repeated this often and the median taken
# Inputs generated per second of --seconds: about three times what the seed
# commit gets through, so a faster program still finds fresh inputs.
POOL_ITEMS_PER_S = {"factor-z": 60, "diagrams-fp": 28, "cli": 15}
# Traced mode runs this many (untraced, traced) round pairs per second of
# --seconds, sized so a traced run takes about --seconds at the seed commit.
TRACE_PAIRS_PER_S = {"factor-z": 2.6, "diagrams-fp": 0.15, "cli": 0.07}

E2E_UNITS = {
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "ok_share": "share",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# Per-layer metrics the harness measures itself rather than from spans.
HARNESS_UNITS = {
    "generators.setup_s": "s",
    "cli.interpreter_ms": "ms",
    "cli.import_ms": "ms",
    "workspace.parse_ms": "ms",
    "workspace.serialize_ms": "ms",
    "trace.overhead_share": "share",
}


def child_env() -> dict:
    """The environment of every child interpreter: the checkout's src first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def time_child(argv: list[str]) -> float:
    """Wall seconds of one child interpreter run to completion."""
    t0 = perf_counter()
    subprocess.run(argv, env=child_env(), check=True, stdout=subprocess.DEVNULL, cwd=ROOT)
    return perf_counter() - t0


def median_child_s(code: str) -> float:
    """Median wall seconds of ``python -c code`` over SETUP_REPEATS runs."""
    argv = [sys.executable, "-c", code]
    time_child(argv)  # fills the bytecode and file caches
    return statistics.median(time_child(argv) for _ in range(SETUP_REPEATS))


def generate(make_chunk, rounds: int):
    """Generate `rounds` rounds in SETUP_REPEATS chunks, timing each chunk.

    Returns (inputs, estimated seconds): the estimate is the median chunk
    time times the number of chunks, so one slow chunk does not set it."""
    per = max(1, math.ceil(rounds / SETUP_REPEATS))
    inputs, times = [], []
    for first in range(0, per * SETUP_REPEATS, per):
        t0 = perf_counter()
        inputs.extend(make_chunk(first, per))
        times.append(perf_counter() - t0)
    return inputs, statistics.median(times) * len(times)


class Tally:
    """Attempted and failed items, with the first few failures reported."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, ok: bool, what: str, err: BaseException | None = None) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.failed <= 5:
                print(f"FAILED {what}: {err!r}" if err else f"FAILED {what}", file=sys.stderr)


def pool_rounds(name: str, seconds: int, n_kinds: int, traced: bool) -> int:
    """Rounds of inputs a run generates."""
    if traced:
        return 2 * max(1, math.ceil(seconds * TRACE_PAIRS_PER_S[name]))
    return math.ceil(seconds * POOL_ITEMS_PER_S[name] / n_kinds)


def timed_items(inputs: list, seconds: int, run_one) -> list[float]:
    """Untraced loop: run_one(i, x, False) until `seconds` of item time is
    measured; returns the per-item seconds."""
    lat, busy = [], 0.0
    for i, x in enumerate(inputs):
        if busy >= seconds:
            break
        lat.append(run_one(i, x, False))
        busy += lat[-1]
    if busy < seconds:
        print(f"input pool exhausted after {len(lat)} items", file=sys.stderr)
    return lat


def alternating_items(inputs: list, n_kinds: int, run_one):
    """Traced loop: even rounds untraced, odd rounds traced; returns the
    per-item seconds of each."""
    plain, traced = [], []
    for i, x in enumerate(inputs):
        if (i // n_kinds) % 2:
            traced.append(run_one(i, x, True))
        else:
            plain.append(run_one(i, x, False))
    return plain, traced


def e2e_result(tally: Tally, lat: list[float], setup_s: float, peak_rss_mb: float) -> dict:
    ms = sorted(x * 1e3 for x in lat)
    p90 = statistics.quantiles(ms, n=10)[8] if len(ms) >= 2 else ms[0]
    beyond = sum(1 for x in ms if x > p90)
    note = "" if beyond >= 10 else " (fewer than ten beyond: p90 is not resolved)"
    print(f"latency samples: {len(ms)}, beyond p90: {beyond}{note}")
    values = {
        "throughput_per_s": len(lat) / sum(lat),
        "latency_p50_ms": statistics.median(ms),
        "latency_p90_ms": p90,
        "ok_share": (tally.attempted - tally.failed) / tally.attempted,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }
    return _result(tally, values, E2E_UNITS)


def layer_result(tally: Tally, summary: dict, gen_s: float, plain: list[float], traced: list[float],
                 cli: dict | None = None) -> dict:
    """Per-layer metrics; `cli` holds the cli.* and workspace.* values of the
    cli workload, which other workloads report as 0."""
    import spans

    values = spans.layer_metrics(summary)
    values.update({k: 0.0 for k in HARNESS_UNITS}, **(cli or {}))
    values["generators.setup_s"] = gen_s
    # throughput lost to tracing: 1 - traced rate / untraced rate
    values["trace.overhead_share"] = 1 - (len(traced) / sum(traced)) / (len(plain) / sum(plain))
    return _result(tally, values, {**spans.layer_metric_units(), **HARNESS_UNITS})


def trace_path(name: str, seed: int) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    return OUT_DIR / f"{name}-seed{seed}-spans.jsonl"


def _result(tally: Tally, values: dict, units: dict) -> dict:
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
