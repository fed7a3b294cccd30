"""Reproducible hot-spot profiling: the PERFORMANCE.md methodology as a
command.

Profiles the representative system-level workload (a switching scenario
over the five-app trace), not microbenchmarks, exactly as every
optimization round in this repo has been validated:

- the workload trace is generated (or loaded) *before* profiling starts,
  so trace generation never pollutes the profile;
- the size cache starts cold by default (persistent artifacts bypassed),
  so the profile shows real codec + scheme work — pass ``--warm`` to
  pre-run the scenario once and profile the codec-free simulator
  instead;
- output is a cProfile table plus the wall-time split between codec
  (size-cache misses) and everything else, which is the first number to
  look at before reading any per-function rows.

Examples::

    PYTHONPATH=src python benchmarks/profile_scenario.py
    PYTHONPATH=src python benchmarks/profile_scenario.py --scheme ZRAM \
        --scenario heavy --duration 30 --sort cumtime --top 30
    PYTHONPATH=src python benchmarks/profile_scenario.py --warm
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import time

from repro.compression.chunking import SizeCache
from repro.experiments.common import scenario_build, workload_trace
from repro.faults import FaultPlan, install_fault_plan
from repro.metrics import recovery_summary, zswap_summary
from repro.sim.scenario import run_heavy_scenario, run_light_scenario
from repro.sim.system import SCHEME_NAMES


class _TimedSizeCache(SizeCache):
    """SizeCache that accounts wall time spent in codec misses."""

    def __init__(self, max_entries: int = 262144) -> None:
        super().__init__(max_entries=max_entries)
        self.codec_seconds = 0.0

    def _measure(self, codec, data, chunk_size):
        start = time.perf_counter()
        size = super()._measure(codec, data, chunk_size)
        self.codec_seconds += time.perf_counter() - start
        return size


def profile(
    scheme: str,
    scenario: str,
    duration_s: float,
    sort: str,
    top: int,
    warm: bool,
    fault_rate: float = 0.0,
    fault_seed: int = 2025,
) -> None:
    trace = workload_trace(n_apps=5)  # warm-up: excluded from the profile
    runner = run_light_scenario if scenario == "light" else run_heavy_scenario
    sizes = _TimedSizeCache()
    if warm:
        system = scenario_build(scheme, trace)
        system.ctx.sizes = sizes
        runner(system, duration_s=duration_s)
        sizes.codec_seconds = 0.0  # keep the warm entries, reset the clock

    system = scenario_build(scheme, trace)
    system.ctx.sizes = sizes
    plan = None
    if fault_rate > 0.0:
        plan = FaultPlan(
            seed=fault_seed,
            read_error_rate=fault_rate,
            write_error_rate=fault_rate,
            bitflip_rate=fault_rate / 10.0,
        )
        install_fault_plan(system.ctx, plan)
    profiler = cProfile.Profile()
    wall_start = time.perf_counter()
    profiler.enable()
    runner(system, duration_s=duration_s)
    profiler.disable()
    wall = time.perf_counter() - wall_start

    codec = sizes.codec_seconds
    print(
        f"# {scheme} {scenario} scenario, {duration_s:.0f}s simulated, "
        f"{'warm' if warm else 'cold'} size cache"
    )
    print(
        f"# wall {wall:.3f}s = codec {codec:.3f}s "
        f"+ simulator {wall - codec:.3f}s "
        f"({sizes.misses} codec calls, {sizes.hits} size-cache hits)"
    )
    # The accounting layer's cost at a glance: watermark probes are
    # O(1) reads of the running free-bytes counter, accounting updates
    # are the occupancy hooks that maintain it (PR 3).
    probed = system.scheme
    print(
        f"# accounting: {probed.watermark_probes} watermark probes, "
        f"{probed.accounting_updates} occupancy-hook updates "
        "(incremental free-bytes counter, no recompute per probe)"
    )
    # The eviction-epoch layer's effectiveness at a glance: batches the
    # replay served with zero per-page residency probes vs the probes
    # the run-splitting fallback still performed (PR 5).
    print(
        f"# epochs: {probed.epoch_skips} epoch-verified batch skips, "
        f"{probed.residency_probes} residency probes, "
        f"eviction_epoch {probed.eviction_epoch}"
    )
    # The organizers' kernel/journal counters aggregated over every
    # app, so a profile shows how much of the replay went through the
    # vectorized paths (PR 8).
    stats: dict[str, int] = {}
    for organizer in probed._organizers.values():
        for key, value in organizer.columnar_stats().items():
            stats[key] = stats.get(key, 0) + value
    if stats:
        print(
            f"# organizers: {stats['handles']} handles, "
            f"{stats['kernel_batches']} kernel batches "
            f"({stats['kernel_pages']} pages), "
            f"{stats['journal_scans']} journal scans "
            f"({stats['journal_candidates']} candidate handles)"
        )
    # Size-cache recency accounting: the digest-keyed run fast path
    # stopped paying an LRU move per hit (PR 8) — ``lru_moves`` counts
    # the moves still performed (single-payload front door), against the
    # run hits that no longer pay one.
    print(
        f"# size cache: {sizes.run_hits} run-key hits without LRU move, "
        f"{sizes.lru_moves} LRU moves on the payload path"
    )
    # The zswap writeback tier at a glance (PR 9): batched reclaim and
    # slot-locality readahead traffic.  All-zero (any scheme without the
    # tier, or a pool that never crossed its threshold) prints nothing.
    zswap = zswap_summary(system.ctx.counters)
    if any(zswap.values()):
        print(
            f"# zswap: {zswap['zswap_writeback_batches']} writeback "
            f"batches ({zswap['zswap_pages_written_back']} pages, max "
            f"batch {zswap['zswap_batch_pages_max']}); readahead "
            f"{zswap['zswap_readahead_reads']} reads, "
            f"{zswap['zswap_readahead_hits']} hits, "
            f"{zswap['zswap_readahead_wasted']} wasted, "
            f"{zswap['zswap_readahead_aborted']} aborted"
        )
    if plan is not None:
        # The recovery story at a glance: injections vs how the schemes
        # absorbed them (retries, drops, cold refaults) and whether the
        # ledger balances — fault_rate 0 prints nothing, keeping the
        # default profile output unchanged.
        recovery = recovery_summary(system.ctx.counters)
        ledger = plan.ledger(system.ctx.counters)
        print(
            f"# faults: {plan.injected_total} injected at rate "
            f"{fault_rate:g} (seed {fault_seed}); "
            f"{recovery['fault_transient_recovered']} retried to success, "
            f"{recovery['fault_chunks_dropped']} chunks dropped, "
            f"{recovery['fault_cold_refaults']} cold refaults; ledger "
            f"{'consistent' if ledger['consistent'] else 'INCONSISTENT'}"
        )
    print("# (profiled wall time includes cProfile overhead)")
    pstats.Stats(profiler).sort_stats(sort).print_stats(top)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scheme", default="Ariadne", choices=SCHEME_NAMES)
    parser.add_argument("--scenario", default="light", choices=["light", "heavy"])
    parser.add_argument("--duration", type=float, default=60.0)
    parser.add_argument(
        "--sort",
        default="tottime",
        choices=["tottime", "cumtime", "ncalls"],
        help="cProfile sort key (default: tottime)",
    )
    parser.add_argument("--top", type=int, default=20, metavar="N")
    parser.add_argument(
        "--warm",
        action="store_true",
        help="pre-run once so the profile shows the codec-free simulator",
    )
    parser.add_argument(
        "--fault-rate",
        type=float,
        default=0.0,
        metavar="RATE",
        help="inject flash I/O errors at this per-command rate (and "
        "bit-flips at a tenth of it); 0 disables injection (default)",
    )
    parser.add_argument(
        "--fault-seed",
        type=int,
        default=2025,
        metavar="SEED",
        help="seed for the deterministic fault streams (default: 2025)",
    )
    args = parser.parse_args()
    profile(
        scheme=args.scheme,
        scenario=args.scenario,
        duration_s=args.duration,
        sort=args.sort,
        top=args.top,
        warm=args.warm,
        fault_rate=args.fault_rate,
        fault_seed=args.fault_seed,
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
