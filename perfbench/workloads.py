"""The benchmark's four workloads.

Each workload is closed-loop batch work from one process: the harness
(``run.py``) calls :meth:`Workload.setup` (repeated, so set-up time has
a median), then :meth:`Workload.run_op` back to back, each operation
starting when the previous one finished, and hands every operation's
state to :meth:`Workload.verify`, which runs outside the timed section.

Every operation is a deterministic function of the seed, so each one
must reproduce the first operation's digest and exact counts; the
harness counts any difference as failed operations.

Importing this module imports ``repro``: the harness sets the
``REPRO_*`` environment first (``repro.experiments.common`` binds its
cache root at import time).
"""

from __future__ import annotations

import dataclasses
import json
import os
import pickle
import time
from dataclasses import dataclass, field
from hashlib import blake2b
from pathlib import Path

from repro.core import PlatformConfig
from repro.experiments import common, zswap_compare
from repro.experiments.common import (
    FIGURE_APPS,
    build,
    measured_relaunch,
    scenario_build,
    scenario_for,
    scheme_matrix_cells,
    workload_trace,
)
from repro.experiments.registry import experiment, to_jsonable
from repro.experiments.runner import run_experiments
from repro.fleet import fleet_trace, run_shard
from repro.sim import make_system, run_heavy_scenario, run_light_scenario

#: Apps in the relaunch matrix's trace, every one a target.  The
#: figures' 5-app trace takes ~9 s per operation here, which leaves two
#: operations per run; three apps keep every layer and the protocol.
RELAUNCH_APPS = 3
RELAUNCH_TARGETS = tuple(FIGURE_APPS[:RELAUNCH_APPS])
#: Apps in the switching scenarios' trace (the figures' 5-app trace).
SCENARIO_APPS = 5
#: Simulated seconds of each switching scenario (the paper's 60 s).
SCENARIO_S = 60.0
#: Devices per fleet operation.
FLEET_DEVICES = 200
#: Cacheable quick-suite subset: sharded and unsharded experiments,
#: without fig6 (live walls) and fig10 (``relaunch_cold`` covers it).
SUITE = (
    "table1", "fig3", "table2", "fig4", "fig5", "table3",
    "fig12", "fig13", "chaos", "zswap_compare",
)


def digest(obj) -> str:
    """Stable content digest of a JSON-able structure."""
    blob = json.dumps(obj, sort_keys=True, default=repr).encode("utf-8")
    return blake2b(blob, digest_size=16).hexdigest()


def system_stats(system) -> dict:
    """Every simulated statistic of one system, JSON-able."""
    devices = getattr(system.ctx.flash_swap, "devices",
                      (system.ctx.flash_device,))
    return {
        "clock_ns": system.ctx.clock.now_ns,
        "counters": system.ctx.counters.as_dict(),
        "cpu": system.ctx.cpu.threads(),
        "cpu_activity": system.ctx.cpu.activities(),
        "flash_written": sum(d.host_bytes_written for d in devices),
        "flash_read": sum(d.host_bytes_read for d in devices),
    }


def relaunch_record(result) -> dict:
    return {
        "latency_ns": result.latency_ns,
        "breakdown": dataclasses.asdict(result.breakdown),
        "pages": [result.pages_accessed, result.pages_from_dram,
                  result.pages_from_zpool, result.pages_from_flash,
                  result.pages_from_staging],
    }


def scenario_record(result) -> dict:
    """Every simulated statistic of one scenario run."""
    return {
        "wall_ns": result.wall_ns,
        "cpu_by_thread": result.cpu_by_thread,
        "cpu_by_activity": result.cpu_by_activity,
        "counters": result.counters,
        "flash": [result.flash_bytes_read, result.flash_bytes_written],
        "energy": to_jsonable(result.energy),
        "relaunches": [relaunch_record(r) for r in result.relaunches],
    }


@dataclass
class OpCheck:
    """What :meth:`Workload.verify` found for one operation."""

    #: One entry per checked operation (relaunch, scenario run, device,
    #: task): True when it passed.
    checks: list[bool]
    #: Digest over every simulated statistic of the operation.
    digest: str
    #: Counts the program exposes that must repeat exactly.
    exact: dict[str, int]
    #: Simulated samples behind the ``model_*`` metrics.
    model: dict = field(default_factory=dict)
    #: Further host figures for the report (e.g. the suite re-run).
    extra: dict = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)


def _size_counts(sizes, before=(0, 0)) -> dict[str, int]:
    return {"sizecache.hits": sizes.hits - before[0],
            "sizecache.misses": sizes.misses - before[1]}


class Workload:
    """One named workload; subclasses fill in the three steps."""

    name = ""
    #: Whether the seed argument feeds the workload's inputs.
    seeded = True

    def __init__(self, seed: int, traced: bool = False) -> None:
        self.seed = seed
        #: Whether this run traces (its untraced operations included).
        self.traced = traced

    def setup(self) -> None:
        """Preparation outside ``wall_s``; must be repeatable."""

    def run_op(self) -> tuple[float, object]:
        """Run one operation; returns ``(timed seconds, state)``."""
        raise NotImplementedError

    def verify(self, state) -> OpCheck:
        raise NotImplementedError


class RelaunchCold(Workload):
    """Fig. 10's relaunch protocol from nothing, with one empty size cache."""

    name = "relaunch_cold"

    def run_op(self):
        start = time.perf_counter()
        sizes = common._SHARED_SIZES
        sizes.clear()
        trace = workload_trace.__wrapped__(n_apps=RELAUNCH_APPS, seed=self.seed)
        rows = []
        for key, scheme, config in scheme_matrix_cells(quick=True):
            scenario = scenario_for(scheme, config)
            for target in RELAUNCH_TARGETS:
                system = build(scheme, trace, config)
                system.launch_all()
                pressure = [a for a in RELAUNCH_TARGETS if a != target][:2]
                result = measured_relaunch(system, target, 1, scenario, pressure)
                rows.append((key, scheme, config, target, result, system))
        wall = time.perf_counter() - start
        return wall, (trace, rows, _size_counts(sizes))

    def verify(self, state):
        trace, rows, size_counts = state
        records = {
            f"{key}/{target}": {**relaunch_record(result),
                                "system": system_stats(system)}
            for key, _, _, target, result, system in rows
        }
        checks = [result.latency_ns > 0 for *_, result, _ in rows]
        # One measurement again, untimed, on the now-warm size cache:
        # cache warmth may change host time, never a simulated number.
        key, scheme, config, target, _, _ = rows[-1]
        system = build(scheme, trace, config)
        system.launch_all()
        pressure = [a for a in RELAUNCH_TARGETS if a != target][:2]
        again = measured_relaunch(system, target, 1, scenario_for(scheme, config),
                                  pressure)
        rerun_ok = ({**relaunch_record(again), "system": system_stats(system)}
                    == records[f"{key}/{target}"])
        checks.append(rerun_ok)
        problems = [] if rerun_ok else [f"warm re-run of {key}/{target} differs"]
        exact = {
            **size_counts,
            "trace.pages": sum(len(app.pages) for app in trace.apps),
            "sim.relaunches": sum(len(app.relaunch_results)
                                  for *_, system in rows for app in system.apps),
            "sim.measured_relaunches": len(rows),
        }
        model = {"relaunch_ns": [result.latency_ns
                                 for _, scheme, _, _, result, _ in rows
                                 if scheme == "Ariadne"]}
        return OpCheck(checks, digest(records), exact, model, problems=problems)


class SwitchingWarm(Workload):
    """The 60 s switching scenarios on a primed size cache."""

    name = "switching_warm"

    #: (platform, schemes) pairs; ZSWAP never reaches its threshold on
    #: the standard platform, where it replays ZRAM exactly.
    PLATFORMS = (
        ("standard", ("DRAM", "ZRAM", "SWAP", "Ariadne")),
        ("tight", ("DRAM", "ZRAM", "SWAP", "ZSWAP", "Ariadne")),
    )
    SCENARIOS = (("light", run_light_scenario), ("heavy", run_heavy_scenario))

    def setup(self):
        common._SHARED_SIZES.clear()
        self.trace = workload_trace.__wrapped__(n_apps=SCENARIO_APPS,
                                                seed=self.seed)
        total = sum(app.total_bytes() for app in self.trace.apps)
        base = common.experiment_platform(SCENARIO_APPS)
        # zswap_compare's tight-zpool platform, over this seed's trace.
        self.tight = PlatformConfig(
            dram_bytes=int(total * zswap_compare._DRAM_FRACTION),
            zpool_bytes=max(1, int(total * zswap_compare._ZPOOL_FRACTION)),
            swap_bytes=base.swap_bytes,
            scale=base.scale,
            parallelism=base.parallelism,
        )
        # Priming round on the cold size cache: the reference digests.
        self.reference = {key: digest(scenario_record(result))
                          for key, result in self._round().items()}

    def _system(self, platform: str, scheme: str):
        if platform == "standard":
            return scenario_build(scheme, self.trace)
        system = make_system(scheme, self.trace, platform=self.tight)
        system.ctx.sizes = common._SHARED_SIZES
        return system

    def _round(self) -> dict:
        results = {}
        for platform, schemes in self.PLATFORMS:
            for scheme in schemes:
                for scenario, run in self.SCENARIOS:
                    system = self._system(platform, scheme)
                    results[f"{platform}/{scheme}/{scenario}"] = run(
                        system, duration_s=SCENARIO_S)
        return results

    def run_op(self):
        sizes = common._SHARED_SIZES
        before = (sizes.hits, sizes.misses)
        start = time.perf_counter()
        results = self._round()
        wall = time.perf_counter() - start
        return wall, (results, _size_counts(sizes, before))

    def verify(self, state):
        results, size_counts = state
        digests = {key: digest(scenario_record(result))
                   for key, result in results.items()}
        checks = [digests[key] == self.reference.get(key) for key in digests]
        problems = [f"{key} differs from the priming run"
                    for key, ok in zip(digests, checks) if not ok]
        ariadne = [result for key, result in results.items()
                   if "/Ariadne/" in key]
        exact = {
            **size_counts,
            "sim.relaunches": sum(len(r.relaunches) for r in results.values()),
            "sim.scenario_runs": len(results),
        }
        model = {
            "relaunch_ns": [r.latency_ns for result in ariadne
                            for r in result.relaunches],
            "kswapd_ns": sum(result.kswapd_cpu_ns for result in ariadne),
            "kswapd_runs": len(ariadne),
        }
        return OpCheck(checks, digest(digests), exact, model, problems=problems)


class Fleet(Workload):
    """One serial shard of ``FLEET_DEVICES`` devices from a cold process state."""

    name = "fleet"

    def run_op(self):
        start = time.perf_counter()
        common._SHARED_SIZES.clear()
        fleet_trace.cache_clear()
        aggregate = run_shard(self.seed, 0, FLEET_DEVICES)
        wall = time.perf_counter() - start
        memo = fleet_trace.cache_info()
        return wall, (aggregate, memo, _size_counts(common._SHARED_SIZES))

    def verify(self, state):
        aggregate, memo, size_counts = state
        problems = []
        if aggregate.devices != FLEET_DEVICES:
            problems.append(f"{aggregate.devices} devices, expected {FLEET_DEVICES}")
        if not aggregate.ledger_consistent:
            problems.append("pressure ledger does not balance")
        for scheme, metrics in aggregate.by_scheme.items():
            for metric, summary in metrics.items():
                p50, p95, p99 = (summary.quantile(q) for q in (0.5, 0.95, 0.99))
                if not p50 <= p95 <= p99:
                    problems.append(f"{scheme}.{metric}: p50 {p50} p95 {p95} p99 {p99}")
        exact = {
            **size_counts,
            "fleet.devices": aggregate.devices,
            "fleet.relaunches": aggregate.relaunches,
            "fleet.trace_memo_hits": memo.hits,
            "fleet.distinct_mixes": memo.misses,
            "fleet.aggregate_bytes": len(pickle.dumps(aggregate, protocol=4)),
        }
        ariadne = aggregate.by_scheme.get("Ariadne", {})
        relaunch = ariadne.get("relaunch_ns")
        kswapd = ariadne.get("kswapd_cpu_ns")
        model = {
            "relaunch_summary": relaunch,
            "kswapd_ns": kswapd.total if kswapd else 0,
            "kswapd_runs": kswapd.count if kswapd else 0,
        }
        checks = [not problems] * FLEET_DEVICES
        return OpCheck(checks, digest(to_jsonable(aggregate)), exact, model,
                       extra={"devices": aggregate.devices}, problems=problems)


class Suite(Workload):
    """A cacheable quick-suite subset: cold pass, then the cached re-run."""

    name = "suite"
    #: The registered experiments pin ``DEFAULT_SEED``.
    seeded = False
    #: Workers per pass; the traced run uses one, because forked
    #: workers' spans are lost when they exit.
    JOBS = 2

    def __init__(self, seed: int, traced: bool = False) -> None:
        super().__init__(seed, traced)
        self.root = Path(os.environ["REPRO_CACHE_DIR"])

    def _reset(self) -> None:
        """Empty the cache directory and the in-process memos."""
        for path in self.root.iterdir():
            path.unlink()
        common._SHARED_SIZES.clear()
        common.workload_trace.cache_clear()
        fleet_trace.cache_clear()

    def run_op(self):
        self._reset()
        jobs = 1 if self.traced else self.JOBS
        start = time.perf_counter()
        first = run_experiments(list(SUITE), jobs=jobs, quick=True)
        wall = time.perf_counter() - start
        results = sorted(self.root.glob("result-*.pkl"))
        written = (len(results), sum(path.stat().st_size for path in results))
        start = time.perf_counter()
        second = run_experiments(list(SUITE), jobs=jobs, quick=True)
        rerun = time.perf_counter() - start
        return wall, (first, second, written, rerun)

    def verify(self, state):
        first, second, (entries, result_bytes), rerun = state
        checks, problems = [], []
        tasks = 0
        for a, b in zip(first, second):
            spec = experiment(a.name)
            units = len(spec.cell_keys(quick=True)) if spec.sharded else 1
            tasks += units
            same = a.to_json() == b.to_json()
            for outcome, label in ((a, "first pass"), (b, "re-run")):
                for failure in outcome.failures:
                    problems.append(f"{a.name} {label}: {failure.kind} "
                                    f"{failure.cell} {failure.error}")
            served = b.cached_tasks == units
            if not same:
                problems.append(f"{a.name}: documents of the two passes differ")
            if not served:
                problems.append(f"{a.name}: re-run served {b.cached_tasks} "
                                f"of {units} tasks from the result cache")
            checks += [a.ok and same] * units + [b.ok and served] * units
        exact = {
            "runner.tasks": tasks,
            "runner.failed_tasks": sum(len(o.failures) for o in first + second),
            "cache.cached_on_rerun": sum(o.cached_tasks for o in second),
            "cache.entries": entries,
        }
        document = [o.to_json() for o in first]
        return OpCheck(
            checks, digest(document), exact,
            extra={"rerun_s": rerun, "result_bytes": result_bytes,
                   "critical_path_s": max(o.elapsed_s for o in first)},
            problems=problems,
        )


WORKLOADS = {cls.name: cls for cls in (RelaunchCold, SwitchingWarm, Fleet, Suite)}
