"""Per-device fleet simulation and the per-shard aggregation loop.

One device = one :class:`~repro.fleet.population.DeviceProfile` played
through a short app-switching scenario on a platform sized to the
device's RAM and flash classes.  A *shard* simulates a contiguous
device-index range and folds every device's metrics into one
fixed-size :class:`~repro.fleet.aggregate.FleetAggregate` — the shard
payload the runner ships between processes is O(1) in shard size.

Amortization across the population:

- *traces* are keyed by the device's app-mix signature, not its index:
  devices sharing a mix replay the same :class:`WorkloadTrace` object,
  memoized per worker process (:func:`fleet_trace`).  Reusing the trace
  object also reuses the organizers' per-trace handle cache — pfn ->
  handle arrays memoized on the ``AppTrace`` — and the shared
  compressed-size memo, so only the first device of a mix pays trace
  generation and first-touch compression;
- *platforms* are tiny frozen configs derived per device (cheap), but
  the footprint total they derive from is memoized with the trace.

Every quantity a device reports is an integer (ns, bytes, counts), so
shard aggregation and cross-shard merging are exactly associative —
the foundation of the fleet's byte-identical ``--json`` contract
across ``--jobs`` counts and cache states.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

from ..core import PlatformConfig, PressureConfig
from ..lmk import PressurePlan, install_pressure
from ..sim import make_system, run_switching_scenario
from ..trace import TraceGenerator, WorkloadTrace
from ..units import MIB
from ..rng import derive_seed
from ..workload import profile_by_name
from .aggregate import FleetAggregate, sample_priority
from .population import DeviceProfile, sample_device

#: Footprint divisor applied to the paper-scale app profiles: a fleet
#: device runs miniature apps (tens of simulated pages) that exercise
#: the same code paths as the paper workloads in ~10 ms, which is what
#: makes thousand-device populations tractable in CI.
FOOTPRINT_DIVISOR = 48.0
_MIN_MB_10S = 3.0
_MIN_MB_5MIN = 4.5

#: Trace shape shared by every device (the mix signature is the only
#: per-device trace axis, so devices sharing a mix share a trace).
TRACE_SESSIONS = 3
TRACE_DURATION_S = 90.0

#: The zpool is capped well below the cold footprint so compressed-swap
#: tiering (Ariadne writeback, ZSWAP shrinking) engages fleet-wide.
_ZPOOL_FRACTION = 0.35
_SWAP_BYTES = 16 * MIB
_MIN_POOL_BYTES = 64 * 1024

#: Pressure lifecycle on tight-RAM devices: the SWAM-style hybrid
#: policy with the pressure experiment's trigger-happy thresholds, so
#: the lifecycle demonstrably fires inside a short scenario.
_PRESSURE = PressureConfig(
    policy="hybrid",
    some_threshold=0.02,
    full_threshold=0.10,
    kswapd_boost_max=3,
)


def fleet_app_profiles(app_names: tuple[str, ...]):
    """The mix's catalog profiles, footprint-scaled to fleet size."""
    scaled = []
    for name in app_names:
        profile = profile_by_name(name)
        scaled.append(replace(
            profile,
            anon_mb_10s=max(_MIN_MB_10S, profile.anon_mb_10s / FOOTPRINT_DIVISOR),
            anon_mb_5min=max(_MIN_MB_5MIN, profile.anon_mb_5min / FOOTPRINT_DIVISOR),
        ))
    return tuple(scaled)


@lru_cache(maxsize=128)
def fleet_trace(fleet_seed: int, app_names: tuple[str, ...]) -> WorkloadTrace:
    """Worker-memoized trace for one app-mix signature.

    The memo persists for the worker process's lifetime, spanning every
    shard cell the pool hands it — the "construct once per worker, not
    once per device" half of the fleet's runner amortization.
    """
    seed = derive_seed(fleet_seed, "fleet-trace:" + ",".join(app_names))
    generator = TraceGenerator(seed=seed)
    return generator.generate_workload(
        profiles=fleet_app_profiles(app_names),
        n_sessions=TRACE_SESSIONS,
        duration_s=TRACE_DURATION_S,
    )


def fleet_platform(profile: DeviceProfile, workload_bytes: int) -> PlatformConfig:
    """Platform constants for one device (RAM and flash class applied)."""
    return PlatformConfig(
        dram_bytes=max(_MIN_POOL_BYTES,
                       int(workload_bytes * profile.dram_fraction)),
        zpool_bytes=max(_MIN_POOL_BYTES,
                        int(workload_bytes * _ZPOOL_FRACTION)),
        swap_bytes=_SWAP_BYTES,
        flash_queue_depth=profile.flash_queue_depth,
    )


@dataclass
class DeviceOutcome:
    """One simulated device's raw integer metrics."""

    profile: DeviceProfile
    relaunch_ns: list[int]
    kswapd_cpu_ns: int
    flash_written_bytes: int
    kills: int
    ledger: dict[str, int]
    ledger_consistent: bool


def simulate_device(fleet_seed: int, profile: DeviceProfile) -> DeviceOutcome:
    """Play one device's sampled scenario; integer metrics only."""
    trace = fleet_trace(fleet_seed, profile.trace_signature)
    workload_bytes = sum(app.total_bytes() for app in trace.apps)
    system = make_system(
        profile.scheme, trace,
        platform=fleet_platform(profile, workload_bytes),
    )
    # Share the experiment layer's compressed-size memo (disk-backed
    # when the artifact cache is enabled) so devices repeating a page
    # payload never re-measure it.  Imported lazily: repro.fleet must
    # stay importable without triggering the experiments package.
    from ..experiments.common import _SHARED_SIZES

    system.ctx.sizes = _SHARED_SIZES
    plan = None
    if profile.pressure:
        plan = PressurePlan(_PRESSURE)
        install_pressure(system, plan)
    result = run_switching_scenario(
        system,
        duration_s=profile.duration_seconds,
        think_seconds=profile.think_seconds,
    )
    ledger: dict[str, int] = {}
    consistent = True
    if plan is not None:
        ledger = plan.ledger(system.ctx.counters)
        consistent = bool(ledger.pop("consistent"))
        ledger = {name: int(value) for name, value in ledger.items()}
    return DeviceOutcome(
        profile=profile,
        relaunch_ns=[r.latency_ns for r in result.relaunches],
        kswapd_cpu_ns=result.kswapd_cpu_ns,
        flash_written_bytes=result.flash_bytes_written,
        kills=system.ctx.counters.get("lmk_kills"),
        ledger=ledger,
        ledger_consistent=consistent,
    )


def _fold_device(
    aggregate: FleetAggregate, fleet_seed: int, outcome: DeviceOutcome
) -> None:
    """Stream one device's metrics into the shard aggregate."""
    profile = outcome.profile
    scheme = profile.scheme
    aggregate.devices += 1
    aggregate.relaunches += len(outcome.relaunch_ns)
    latency = aggregate.summary(scheme, "relaunch_ns")
    for draw, value in enumerate(outcome.relaunch_ns):
        latency.add(
            value,
            sample_priority(fleet_seed, "relaunch_ns", profile.index, draw),
        )
    for metric, value in (
        ("kswapd_cpu_ns", outcome.kswapd_cpu_ns),
        ("flash_written_bytes", outcome.flash_written_bytes),
        ("kills", outcome.kills),
    ):
        aggregate.summary(scheme, metric).add(
            value, sample_priority(fleet_seed, metric, profile.index, 0)
        )
    if profile.pressure:
        aggregate.pressure_devices += 1
        aggregate.ledger_consistent = (
            aggregate.ledger_consistent and outcome.ledger_consistent
        )
        for name, value in outcome.ledger.items():
            aggregate.ledger[name] = aggregate.ledger.get(name, 0) + value


def run_shard(fleet_seed: int, start: int, stop: int) -> FleetAggregate:
    """Simulate devices ``[start, stop)``; return their merged summary.

    A pure function of ``(fleet_seed, start, stop)`` — devices sample
    independently, traces are deterministic, and the fold runs in index
    order over integer metrics — so the payload is byte-identical
    across job counts, shard scheduling, and cache states, and a shard
    cached under fleet size N stays valid for every larger fleet.
    """
    aggregate = FleetAggregate()
    for index in range(start, stop):
        profile = sample_device(fleet_seed, index)
        _fold_device(aggregate, fleet_seed, simulate_device(fleet_seed, profile))
    return aggregate.normalized()
