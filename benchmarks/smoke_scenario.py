"""Timed smoke scenario: the perf-trajectory artifact for CI.

Runs one 60-second Ariadne light scenario after trace warm-up, with a
cold in-memory size cache (persistent artifacts deliberately bypassed so
the number tracks real codec + scheme speed, not disk-cache hits), and
writes a small JSON artifact CI uploads on every run::

    PYTHONPATH=src python benchmarks/smoke_scenario.py --out BENCH_scenario.json

Two wall times are recorded per commit:

- ``wall_time_s`` — cold size cache: codec + simulator work together
  (the codec dominates, so this is the codec-trajectory number);
- ``warm_wall_time_s`` — the same scenario with the size cache already
  populated: the codec contributes nothing, so this isolates the pure
  simulator wall and tracks simulator-side optimizations (batched
  replay, epoch fast paths, accounting) that the cold number buries.

The scenario's measured numbers are also recorded so a perf regression
and a correctness regression are distinguishable at a glance.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time

from repro.compression.chunking import SizeCache
from repro.experiments.common import scenario_build, workload_trace
from repro.sim.scenario import run_light_scenario


def run(duration_s: float, repeats: int, warm_repeats: int) -> dict:
    trace = workload_trace(n_apps=5)  # warm-up: excluded from timing
    timings = []
    result = None
    for _ in range(repeats):
        system = scenario_build("Ariadne", trace)
        system.ctx.sizes = SizeCache()  # cold cache: measure real work
        start = time.perf_counter()
        result = run_light_scenario(system, duration_s=duration_s)
        timings.append(time.perf_counter() - start)
    assert result is not None
    # Simulator-only measurement: one shared size cache, primed by an
    # untimed run, so every timed round is pure simulator work.  The
    # simulated numbers must match the cold runs exactly — warmth may
    # only change wall time, never behavior.
    warm_sizes = SizeCache()
    system = scenario_build("Ariadne", trace)
    system.ctx.sizes = warm_sizes
    run_light_scenario(system, duration_s=duration_s)  # priming, untimed
    warm_timings = []
    for _ in range(warm_repeats):
        system = scenario_build("Ariadne", trace)
        system.ctx.sizes = warm_sizes
        start = time.perf_counter()
        warm_result = run_light_scenario(system, duration_s=duration_s)
        warm_timings.append(time.perf_counter() - start)
        assert warm_result.wall_ns == result.wall_ns, (
            "warm-cache run drifted from the cold run's simulated wall"
        )
    return {
        "benchmark": "light_scenario_ariadne",
        "duration_s": duration_s,
        "wall_time_s": min(timings),
        "wall_time_all_s": timings,
        "warm_wall_time_s": min(warm_timings),
        "warm_wall_time_all_s": warm_timings,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        # Correctness echo: these must stay bit-stable across commits.
        "simulated_wall_ns": result.wall_ns,
        "relaunches": len(result.relaunches),
        "compress_ops": result.counters.get("compress_ops", 0),
        "kswapd_cpu_ns": result.kswapd_cpu_ns,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_scenario.json")
    parser.add_argument("--duration", type=float, default=60.0)
    parser.add_argument("--repeats", type=int, default=2)
    parser.add_argument(
        "--warm-repeats",
        type=int,
        default=3,
        help="timed simulator-only rounds after the size cache is primed",
    )
    args = parser.parse_args()
    payload = run(args.duration, max(1, args.repeats), max(1, args.warm_repeats))
    with open(args.out, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
