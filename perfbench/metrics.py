"""Every metric the benchmark reports, declared once.

``BENCHMARK.json`` mirrors the names, units, directions and bounds
declared here (``selftest.py`` checks that they agree).  The
``moves`` / ``holds`` columns record, before any change is measured,
which end-to-end metric on which workload a per-layer metric should
move, and which it should leave alone.

The ``model_*`` figures are simulated time: deterministic, unvalidated
against hardware (the repository holds no measurements from real
devices), and so reported with sample counts but no error figure.
They stay out of ``BENCHMARK.json``, whose end-to-end metrics are host
measurements that vary from run to run; the per-workload digest pins
them exactly instead.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim import SCHEME_NAMES


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    meaning: str
    bound: float | None = None
    moves: str = ""
    holds: str = ""


WORKLOAD_REASONS = {
    "relaunch_cold": (
        "Only traffic that runs all three Ariadne techniques (hotness lists, "
        "adaptive chunks, PreDecomp) and pays first-touch compression like "
        "every fresh process."
    ),
    "switching_warm": (
        "Isolates the simulator (reclaim under churn, zpool reads, flash "
        "writeback) on a primed size cache, so trace and codec changes must "
        "not move it."
    ),
    "fleet": (
        "Hundreds of miniature systems, so per-system fixed costs and "
        "per-app-mix trace generation show here and not elsewhere."
    ),
    "suite": (
        "The only workload that exercises the experiment runner and result "
        "cache: writes on the first pass, reads on the re-run."
    ),
}

END_TO_END = (
    Metric("wall_s", "s", "lower", bound=0.25, meaning=(
        "Host time of one operation's timed section (suite: the first "
        "pass), scaled to the calibration kernel's reference speed by the "
        "kernel times around it; median over the run's operations.")),
    Metric("setup_s", "s", "lower", bound=0.25, meaning=(
        "Median fresh-interpreter import time plus the median of repeated "
        "workload set-ups (switching_warm: trace build and size-cache "
        "priming), scaled by the kernel times measured during set-up.")),
    Metric("peak_rss_mib", "MiB", "lower", bound=0.2, meaning=(
        "Peak resident set size; suite: the maximum over the process and "
        "its workers.")),
)

_OTHERS = "every other workload"
_SUITE = "wall_s and rerun_s on suite"

PER_LAYER = (
    Metric("trace.self_s", "s", "lower", "Trace and payload generation self time.",
           moves="wall_s on fleet, wall_s on relaunch_cold, setup_s on "
                 "switching_warm", holds="wall_s on switching_warm"),
    Metric("trace.pages", "count", "lower", "Pages generated (exact).",
           moves="trace.self_s", holds="wall_s on switching_warm"),
    Metric("trace.pages_per_s", "pages/s", "higher", "Pages per trace self second.",
           moves="wall_s on fleet, wall_s on relaunch_cold",
           holds="wall_s on switching_warm"),
    Metric("codec.self_s", "s", "lower", "LZO/LZ4 self time.",
           moves="wall_s on relaunch_cold, wall_s on fleet",
           holds="wall_s on switching_warm"),
    Metric("codec.calls", "count", "lower", "Codec calls (exact).",
           moves="codec.self_s", holds="wall_s on switching_warm"),
    Metric("codec.bytes_in", "bytes", "lower", "Bytes handed to the codecs (exact).",
           moves="codec.self_s", holds="wall_s on switching_warm"),
    Metric("codec.mb_per_s", "MB/s", "higher", "Codec input bytes per self second.",
           moves="wall_s on relaunch_cold, wall_s on fleet",
           holds="wall_s on switching_warm"),
    Metric("sizecache.self_s", "s", "lower", "Size-cache self time.",
           moves="wall_s on switching_warm", holds="rerun_s on suite"),
    Metric("sizecache.lookups", "count", "lower", "Top-level size lookups (exact).",
           moves="sizecache.self_s", holds="rerun_s on suite"),
    Metric("sizecache.hit_ratio", "fraction", "higher",
           "Size-cache hits per lookup (exact).",
           moves="codec.calls, wall_s on fleet", holds="rerun_s on suite"),
    Metric("sim.self_s", "s", "lower", "Simulator self time.",
           moves="wall_s on switching_warm and relaunch_cold",
           holds="rerun_s on suite"),
    Metric("sim.build_s", "s", "lower", "make_system self time.",
           moves="wall_s on fleet", holds="rerun_s on suite"),
    Metric("sim.install_s", "s", "lower", "launch_all/launch_app self time.",
           moves="wall_s on fleet, wall_s on relaunch_cold",
           holds="rerun_s on suite"),
    Metric("sim.relaunch_s", "s", "lower", "relaunch/prepare_relaunch self time.",
           moves="wall_s on switching_warm and relaunch_cold",
           holds="rerun_s on suite"),
    *(Metric(f"sim.{scheme}.self_s", "s", "lower",
             f"Simulator self time in {scheme} systems.",
             moves="wall_s on switching_warm", holds="rerun_s on suite")
      for scheme in SCHEME_NAMES),
    Metric("sim.relaunches", "count", "higher", "Relaunch calls (exact).",
           moves="sim.relaunch_s", holds="host-only changes"),
    Metric("sim.relaunches_per_s", "1/s", "higher",
           "Relaunch calls per host second inside relaunch.",
           moves="wall_s on switching_warm", holds="rerun_s on suite"),
    Metric("sim.relaunch_host_p50_us", "us", "lower",
           "Median host time of one relaunch call (count: sim.relaunches).",
           moves="wall_s on switching_warm", holds="rerun_s on suite"),
    Metric("sim.relaunch_host_p99_us", "us", "lower",
           "p99 host time of one relaunch call (count: sim.relaunches).",
           moves="wall_s on switching_warm", holds="rerun_s on suite"),
    Metric("sim.compress_ops", "count", "lower", "Simulated compressions (exact).",
           moves="model_*", holds="host-only changes"),
    Metric("sim.decompress_ops", "count", "lower", "Simulated decompressions (exact).",
           moves="model_*", holds="host-only changes"),
    Metric("sim.pages_swapped_in", "count", "lower", "Simulated swap-ins (exact).",
           moves="model_*", holds="host-only changes"),
    Metric("sim.pages_written_back", "count", "lower",
           "Simulated zpool-to-flash writeback pages (exact).",
           moves="model_*", holds="host-only changes"),
    Metric("sim.flash_bytes_written", "bytes", "lower",
           "Simulated host bytes written to flash (exact).",
           moves="model_*", holds="host-only changes"),
    Metric("sim.compression_ratio", "ratio", "higher",
           "Original over stored bytes of simulated compressions (exact).",
           moves="model_*", holds="host-only changes"),
    Metric("sim.prefetch_hit_ratio", "fraction", "higher",
           "Staged hits over PreDecomp prefetches plus zswap readahead "
           "reads (exact).", moves="model_*", holds="host-only changes"),
    Metric("fleet.self_s", "s", "lower",
           "Device sampling and streaming-aggregation self time.",
           moves="wall_s and peak_rss_mib on fleet", holds=_OTHERS),
    Metric("fleet.trace_memo_hit_ratio", "fraction", "higher",
           "fleet_trace memo hits per lookup (exact).",
           moves="wall_s on fleet", holds=_OTHERS),
    Metric("fleet.distinct_mixes", "count", "lower",
           "Distinct app mixes, i.e. traces generated (exact).",
           moves="wall_s on fleet", holds=_OTHERS),
    Metric("fleet.aggregate_bytes", "bytes", "lower",
           "Pickled size of the shard aggregate (exact).",
           moves="peak_rss_mib on fleet", holds=_OTHERS),
    Metric("runner.self_s", "s", "lower",
           "run_experiments self time (includes experiment bodies).",
           moves=_SUITE, holds=_OTHERS),
    Metric("runner.tasks", "count", "higher", "Scheduled task units (exact).",
           moves=_SUITE, holds=_OTHERS),
    Metric("runner.failed_tasks", "count", "lower", "Structured task failures.",
           moves=_SUITE, holds=_OTHERS),
    Metric("runner.critical_path_s", "s", "lower",
           "Slowest experiment of the first pass.",
           moves=_SUITE, holds=_OTHERS),
    Metric("cache.self_s", "s", "lower", "Result-cache load/store self time.",
           moves="rerun_s on suite", holds=_OTHERS),
    Metric("cache.result_hit_ratio", "fraction", "higher",
           "Re-run tasks served from the result cache (exact).",
           moves="rerun_s on suite", holds=_OTHERS),
    Metric("cache.entries", "count", "lower", "Result entries written (exact).",
           moves="rerun_s on suite", holds=_OTHERS),
    Metric("cache.bytes_written", "bytes", "lower", "Result-entry bytes written.",
           moves="rerun_s on suite", holds=_OTHERS),
    Metric("tracing.wall_s", "s", "lower", "Host time of one traced operation.",
           moves="nothing: the traced wall", holds=""),
    Metric("tracing.unattributed_s", "s", "lower",
           "Traced wall not covered by any layer span.",
           moves="nothing: the remainder", holds=""),
    Metric("tracing.overhead", "fraction", "lower",
           "Traced over untraced operation wall, minus one.",
           moves="nothing: the cost of tracing", holds=""),
)
