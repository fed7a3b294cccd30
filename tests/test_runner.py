"""Parallel experiment runner tests (repro.experiments.runner)."""

from __future__ import annotations

import json
import os
import signal
import time
from dataclasses import dataclass, field

import pytest

from repro.experiments import Experiment, common, experiment, registry, runner
from repro.experiments.runner import (
    ExperimentOutcome,
    TaskFailure,
    default_jobs,
    run_experiments,
)

#: Captured at import time in the parent: lets crash cells kill only
#: forked workers while the in-parent serial fallback survives.
_MAIN_PID = os.getpid()


@dataclass
class _FakeResult(registry.ExperimentResult):
    """Mergeable result for the fake sharded experiment below."""

    partials: dict = field(default_factory=dict)

    def render(self) -> str:
        cells = ",".join(
            f"{key}={self.partials[key][key]}" for key in sorted(self.partials)
        )
        return f"cells[{cells}]"


class _FakeSharded(Experiment):
    """Minimal sharded spec (module-level: fork-visible)."""

    id = "fake"
    title = "fake sharded experiment"
    anchor = "Test"
    sharded = True

    def cell_keys(self, quick: bool = False) -> list[str]:
        return ["alpha", "beta", "gamma"]

    def run_cell(self, key: str, quick: bool = False) -> dict:
        if key == "boom":
            raise ValueError("cell exploded")
        return {key: key.upper()}

    def merge(self, partials: dict, quick: bool = False) -> _FakeResult:
        return _FakeResult(partials)


class _FakeShardedFailing(_FakeSharded):
    def cell_keys(self, quick: bool = False) -> list[str]:
        return ["alpha", "boom"]


class _FakeManyCells(_FakeSharded):
    """Forty trivial cells: exercises the bounded submission window."""

    def cell_keys(self, quick: bool = False) -> list[str]:
        return [f"cell{i:03d}" for i in range(40)]

    def run_cell(self, key: str, quick: bool = False) -> dict:
        return {key: key.upper()}


class _FakeShardedHanging(_FakeSharded):
    """One cell sleeps far past any sane task timeout."""

    def cell_keys(self, quick: bool = False) -> list[str]:
        return ["alpha", "hang"]

    def run_cell(self, key: str, quick: bool = False) -> dict:
        if key == "hang":
            time.sleep(300)
        return super().run_cell(key, quick)


class _FakeShardedCrashing(_FakeSharded):
    """One cell kills any *worker* process it runs in (parent survives)."""

    def cell_keys(self, quick: bool = False) -> list[str]:
        return ["alpha", "die"]

    def run_cell(self, key: str, quick: bool = False) -> dict:
        if key == "die" and os.getpid() != _MAIN_PID:
            os._exit(41)  # simulated segfault/OOM-kill: no cleanup, no result
        return super().run_cell(key, quick)


_ORIGINAL_WORKER_INIT = runner._worker_init


def _sigmask_log() -> list[str]:
    try:
        with open(os.environ["REPRO_TEST_SIGMASK_LOG"]) as log:
            return log.read().split()
    except FileNotFoundError:
        return []


def _recording_worker_init(event_queue) -> None:
    """Pool initializer wrapper: log whether SIGTERM arrived blocked."""
    blocked = signal.SIGTERM in signal.pthread_sigmask(signal.SIG_BLOCK, [])
    with open(os.environ["REPRO_TEST_SIGMASK_LOG"], "a") as log:
        log.write(f"{int(blocked)}\n")
    _ORIGINAL_WORKER_INIT(event_queue)


class _FakeShardedCrashThenWait(_FakeSharded):
    """One cell kills its worker; the other holds the run open until the
    pool's replacement for the dead worker has started (3 inits)."""

    def cell_keys(self, quick: bool = False) -> list[str]:
        return ["die", "wait"]

    def run_cell(self, key: str, quick: bool = False) -> dict:
        if key == "die" and os.getpid() != _MAIN_PID:
            os._exit(41)
        if key == "wait":
            deadline = time.monotonic() + 30
            while len(_sigmask_log()) < 3 and time.monotonic() < deadline:
                time.sleep(0.01)
        return super().run_cell(key, quick)


class _FakeBlocking(Experiment):
    """Unsharded spec that never finishes (module-level: fork-visible).

    When ``REPRO_TEST_SIGTERM_TARGET`` names a pid and this spec's id
    ends in ``-a``, it SIGTERMs that pid first — modelling an operator
    interrupting a suite mid-flight.  Every instance then blocks, so no
    task can ever complete and the whole suite must resolve as
    ``"interrupted"`` — on the in-process path (the signal lands inside
    the parent's own ``compute``) and the pool path (it lands while
    workers hold every task) alike.
    """

    title = "fake blocking experiment"
    anchor = "Test"

    def __init__(self, id_: str) -> None:
        self.id = id_

    def compute(self, quick: bool = False) -> _FakeResult:
        target = os.environ.get("REPRO_TEST_SIGTERM_TARGET")
        if target:
            if self.id.endswith("-a"):
                os.kill(int(target), signal.SIGTERM)
            time.sleep(30)  # the interrupt always wins
        return _FakeResult({})


@pytest.fixture()
def fake_sharded(monkeypatch):
    monkeypatch.setitem(registry._REGISTRY, "fake", _FakeSharded())


@pytest.fixture()
def fake_failing(monkeypatch):
    monkeypatch.setitem(registry._REGISTRY, "fake", _FakeShardedFailing())


class TestShardedScheduling:
    def test_fig10_and_fig11_expose_matrix_cells(self):
        fig10, fig11 = experiment("fig10"), experiment("fig11")
        assert fig10.cell_keys(quick=True)[:2] == ["DRAM", "ZRAM"]
        assert len(fig10.cell_keys(quick=True)) == 4
        # fig11 normalizes to ZRAM, so DRAM (no codec CPU) is not a cell.
        assert "DRAM" not in fig11.cell_keys(quick=True)
        assert "ZRAM" in fig11.cell_keys(quick=True)
        assert len(fig11.cell_keys(quick=False)) > len(fig11.cell_keys(quick=True))

    def test_serial_and_sharded_render_identically(self, fake_sharded):
        serial = run_experiments(["fake"], jobs=1)
        sharded = run_experiments(["fake"], jobs=2)
        assert serial[0].ok and sharded[0].ok
        assert serial[0].rendered == sharded[0].rendered
        assert serial[0].cells == 1  # one worker: runs whole, unsharded
        assert sharded[0].cells == 3
        # Both paths surface the structured result object.
        assert serial[0].result == sharded[0].result

    def test_cell_failure_surfaces_as_experiment_error(self, fake_failing):
        (outcome,) = run_experiments(["fake"], jobs=2)
        assert not outcome.ok
        assert "cell exploded" in outcome.error
        assert outcome.result is None

    def test_mixed_suite_keeps_request_order(self, fake_sharded):
        outcomes = run_experiments(["platform", "fake"], jobs=2, quick=True)
        assert [outcome.name for outcome in outcomes] == ["platform", "fake"]
        assert all(outcome.ok for outcome in outcomes)

    def test_submission_window_bounds_inflight_tasks(self, monkeypatch):
        from repro.experiments import runner

        monkeypatch.setitem(registry._REGISTRY, "fake", _FakeManyCells())
        peak = 0
        original = runner._Supervisor.submit

        def tracking_submit(self, task_index):
            nonlocal peak
            original(self, task_index)
            peak = max(peak, len(self.inflight))

        monkeypatch.setattr(runner._Supervisor, "submit", tracking_submit)
        (outcome,) = run_experiments(["fake"], jobs=2)
        assert outcome.ok and outcome.cells == 40
        assert len(outcome.result.partials) == 40
        # In-flight submissions stay O(workers), not O(tasks): the
        # window is what keeps a many-thousand-shard fleet's pending
        # payloads out of the pool queue.
        assert 0 < peak <= max(2 * 2, 2 + 2)

    def test_empty_cell_list_falls_back_to_whole_run(self, monkeypatch):
        class _NoCells(_FakeSharded):
            def cell_keys(self, quick: bool = False) -> list[str]:
                return []

        monkeypatch.setitem(registry._REGISTRY, "fake", _NoCells())
        (outcome,) = run_experiments(["fake"], jobs=2)
        assert outcome.ok and outcome.cells == 1
        assert outcome.rendered == _NoCells().run().render()


@pytest.fixture()
def persistent_caches(monkeypatch, tmp_path):
    """Point the (normally disabled-in-tests) disk caches at a tmp dir.

    The runner's workers re-read ``REPRO_CACHE_DIR`` through the
    ``lru_cache``'d accessors, so both are cleared on entry and exit —
    exit restores the hermetic ``off`` state the conftest establishes.
    """
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    common.artifact_cache.cache_clear()
    common.result_cache.cache_clear()
    yield tmp_path / "cache"
    common.artifact_cache.cache_clear()
    common.result_cache.cache_clear()


class TestResultCacheIntegration:
    def test_second_sharded_run_serves_cells_from_cache(
        self, fake_sharded, persistent_caches
    ):
        (cold,) = run_experiments(["fake"], jobs=2)
        assert cold.ok and cold.cells == 3 and cold.cached_tasks == 0
        (warm,) = run_experiments(["fake"], jobs=2)
        assert warm.ok and warm.cells == 3 and warm.cached_tasks == 3
        assert warm.rendered == cold.rendered

    def test_second_serial_run_serves_whole_experiment_from_cache(
        self, persistent_caches
    ):
        (cold,) = run_experiments(["platform"], jobs=1, quick=True)
        assert cold.ok and cold.cached_tasks == 0
        (warm,) = run_experiments(["platform"], jobs=1, quick=True)
        assert warm.ok and warm.cached_tasks == 1
        assert warm.rendered == cold.rendered
        assert warm.result == cold.result

    def test_serial_sharded_run_caches_per_cell_not_whole(
        self, fake_sharded, persistent_caches
    ):
        # A one-worker run of a sharded spec must store the same
        # per-cell entries the parallel path reads — never the merged
        # result under cell=None, a key that cannot distinguish two
        # env-dependent cell lists (the fleet's size and seed).
        (cold,) = run_experiments(["fake"], jobs=1)
        assert cold.ok and cold.cached_tasks == 0
        (parallel,) = run_experiments(["fake"], jobs=2)
        assert parallel.ok and parallel.cached_tasks == 3
        # And the reverse direction: a serial re-run reports the per-
        # cell hits it was served.
        (serial,) = run_experiments(["fake"], jobs=1)
        assert serial.ok and serial.cached_tasks == 3
        assert serial.rendered == cold.rendered

    def test_failed_task_is_not_cached(self, fake_failing, persistent_caches):
        (first,) = run_experiments(["fake"], jobs=2)
        assert not first.ok
        (second,) = run_experiments(["fake"], jobs=2)
        assert not second.ok
        # Only the successful cell may be served from cache; the failed
        # one must re-run (and fail again), never be memoized.
        assert second.cached_tasks <= 1

    def test_run_cached_assembles_from_cells_the_runner_warmed(
        self, fake_sharded, persistent_caches, monkeypatch
    ):
        # A parallel suite run stores per-cell entries only ...
        (cold,) = run_experiments(["fake"], jobs=2)
        assert cold.ok and cold.cached_tasks == 0
        # ... which a serial run_cached consumer (benchmarks) must
        # reuse instead of re-simulating: poison run_cell to prove no
        # cell is recomputed.
        def explode(self, key, quick=False):  # pragma: no cover
            raise AssertionError("cell re-simulated despite warm cache")

        monkeypatch.setattr(_FakeSharded, "run_cell", explode)
        assert registry.run_cached("fake").render() == cold.rendered

    def test_run_cached_measures_and_stores_missing_cells(
        self, fake_sharded, persistent_caches
    ):
        first = registry.run_cached("fake")
        (warm,) = run_experiments(["fake"], jobs=2)
        # The cells run_cached stored serve the parallel runner too.
        assert warm.ok and warm.cached_tasks == 3
        assert warm.rendered == first.render()

    def test_audited_run_is_never_served_from_cache(
        self, fake_sharded, persistent_caches, monkeypatch
    ):
        # A run under the invariant auditor must measure: results an
        # unaudited run cached were never checked, so serving them
        # would audit nothing.  Both entry points bypass the cache.
        (cold,) = run_experiments(["fake"], jobs=2)
        assert cold.ok and cold.cached_tasks == 0
        monkeypatch.setenv("REPRO_AUDIT", "1")
        for jobs in (2, 1):
            (audited,) = run_experiments(["fake"], jobs=jobs)
            assert audited.ok and audited.cached_tasks == 0
            assert audited.rendered == cold.rendered

        def explode(self, key, quick=False):
            raise AssertionError("cell re-simulated")

        monkeypatch.setattr(_FakeSharded, "run_cell", explode)
        with pytest.raises(AssertionError, match="re-simulated"):
            registry.run_cached("fake")

    def test_disabled_cache_never_reports_cached_tasks(self, fake_sharded):
        # conftest keeps REPRO_CACHE_DIR=off for hermetic tests.
        for _ in range(2):
            (outcome,) = run_experiments(["fake"], jobs=2)
            assert outcome.ok and outcome.cached_tasks == 0

    def test_uncacheable_specs_are_never_served_from_cache(
        self, monkeypatch, persistent_caches
    ):
        # Specs with cacheable=False embed real wall-clock measurements;
        # a warm run must re-measure, not replay.
        class _Uncacheable(_FakeSharded):
            cacheable = False

        monkeypatch.setitem(registry._REGISTRY, "fake", _Uncacheable())
        for _ in range(2):
            (outcome,) = run_experiments(["fake"], jobs=2)
            assert outcome.ok and outcome.cached_tasks == 0

    def test_fig6_is_marked_uncacheable(self):
        # fig6 times the real codecs with perf_counter; serving its
        # rendered wall seconds from disk would misreport hardware.
        assert experiment("fig6").cacheable is False
        assert all(
            spec.cacheable
            for spec in registry.all_experiments()
            if spec.id != "fig6"
        )


class TestRunExperiments:
    def test_unknown_experiment_rejected(self):
        with pytest.raises(KeyError):
            run_experiments(["not-a-figure"], jobs=1)

    def test_serial_run(self):
        outcomes = run_experiments(["platform"], jobs=1, quick=True)
        assert len(outcomes) == 1
        assert outcomes[0].ok
        assert outcomes[0].name == "platform"
        assert outcomes[0].rendered

    def test_parallel_preserves_order_and_output(self):
        names = ["platform", "platform"]
        parallel = run_experiments(names, jobs=2, quick=True)
        assert [outcome.name for outcome in parallel] == names
        assert all(outcome.ok for outcome in parallel)
        serial = run_experiments(["platform"], jobs=1, quick=True)
        # A worker process renders the same text the in-process path does.
        assert parallel[0].rendered == serial[0].rendered

    def test_jobs_capped_to_task_count(self):
        outcomes = run_experiments(["platform"], jobs=64, quick=True)
        assert len(outcomes) == 1 and outcomes[0].ok


class TestFailurePaths:
    """A broken cell becomes a structured failure; nothing else is lost."""

    def test_raising_cell_yields_exception_failure(self, fake_failing):
        (outcome,) = run_experiments(["fake"], jobs=2)
        assert not outcome.ok
        (failure,) = outcome.failures
        assert failure.kind == "exception"
        assert failure.experiment == "fake" and failure.cell == "boom"
        assert "cell exploded" in failure.error

    def test_hung_cell_times_out_and_fails_structured(self, monkeypatch):
        monkeypatch.setitem(registry._REGISTRY, "fake", _FakeShardedHanging())
        start = time.monotonic()
        (outcome,) = run_experiments(
            ["fake"], jobs=2, task_timeout_s=0.5, task_retries=0
        )
        assert time.monotonic() - start < 60  # SIGKILLed, not waited out
        assert not outcome.ok
        (failure,) = outcome.failures
        assert failure.kind == "timeout"
        assert failure.cell == "hang"
        assert "0.5s task timeout" in failure.error

    def test_worker_crash_yields_crash_failure(self, monkeypatch):
        monkeypatch.setitem(registry._REGISTRY, "fake", _FakeShardedCrashing())
        (outcome,) = run_experiments(
            ["fake"], jobs=2, task_retries=0, serial_fallback=False
        )
        assert not outcome.ok
        (failure,) = outcome.failures
        assert failure.kind == "crash"
        assert failure.cell == "die"
        assert "died mid-task" in failure.error

    def test_workers_start_with_sigterm_blocked(self, monkeypatch, tmp_path):
        # A terminate() SIGTERM that reaches a freshly forked worker
        # before _worker_init must stay pending in the kernel, or
        # pool.join() can wait on that worker forever.  That holds only
        # if every worker, the crash replacement included, is born
        # with SIGTERM blocked.
        log = tmp_path / "sigmask.log"
        monkeypatch.setenv("REPRO_TEST_SIGMASK_LOG", str(log))
        monkeypatch.setattr(runner, "_worker_init", _recording_worker_init)
        monkeypatch.setitem(
            registry._REGISTRY, "fake", _FakeShardedCrashThenWait()
        )
        (outcome,) = run_experiments(
            ["fake"], jobs=2, task_retries=0, serial_fallback=False
        )
        assert [f.cell for f in outcome.failures] == ["die"]
        inits = _sigmask_log()
        assert len(inits) >= 3  # two initial workers + the replacement
        assert set(inits) == {"1"}, inits
        parent_mask = signal.pthread_sigmask(signal.SIG_BLOCK, [])
        assert signal.SIGTERM not in parent_mask

    def test_serial_fallback_rescues_a_crashing_cell(self, monkeypatch):
        # The cell kills every *worker* it runs in; the final in-parent
        # attempt succeeds, so the experiment completes with no failure.
        monkeypatch.setitem(registry._REGISTRY, "fake", _FakeShardedCrashing())
        (outcome,) = run_experiments(
            ["fake"], jobs=2, task_retries=1, serial_fallback=True
        )
        assert outcome.ok and not outcome.failures
        assert outcome.result.partials["die"] == {"die": "DIE"}

    def test_one_bad_cell_loses_nothing_else(self, fake_failing):
        # The failing experiment still reports its good cells' payloads
        # to the merge stage, and suite-mates are untouched.
        outcomes = run_experiments(["fake", "platform"], jobs=2, quick=True)
        fake, platform = outcomes
        assert not fake.ok and platform.ok
        assert [f.cell for f in fake.failures] == ["boom"]

    def test_failures_surface_in_to_json_errors(self, fake_failing):
        (outcome,) = run_experiments(["fake"], jobs=2)
        payload = outcome.to_json()
        assert payload["ok"] is False
        (row,) = payload["errors"]
        assert row["kind"] == "exception" and row["cell"] == "boom"
        assert row["attempts"] == 1
        assert "cell exploded" in row["error"]

    def test_task_failure_json_shape(self):
        failure = TaskFailure(
            experiment="x", cell=None, kind="timeout", error="e", attempts=3
        )
        assert failure.to_json() == {
            "experiment": "x",
            "cell": None,
            "kind": "timeout",
            "error": "e",
            "attempts": 3,
        }

    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError, match="task_retries"):
            run_experiments(["platform"], jobs=2, task_retries=-1)


class TestInterruptDeterminism:
    """A SIGTERM mid-suite yields the same structured errors document
    no matter how many workers the interrupted run was using."""

    @staticmethod
    def _errors_doc(outcomes) -> str:
        # Exactly the CLI's --json errors section: every failure, sorted
        # the way __main__ sorts before serializing.
        failures = [f.to_json() for o in outcomes for f in o.failures]
        failures.sort(
            key=lambda f: (f["experiment"], f["cell"] or "", f["kind"])
        )
        return json.dumps(failures, indent=2, sort_keys=True)

    def test_sigterm_errors_identical_across_job_counts(self, monkeypatch):
        names = ["fake-a", "fake-b", "fake-c"]
        for name in names:
            monkeypatch.setitem(
                registry._REGISTRY, name, _FakeBlocking(name)
            )
        monkeypatch.setenv("REPRO_TEST_SIGTERM_TARGET", str(os.getpid()))
        docs = {}
        for jobs in (1, 4):
            outcomes = run_experiments(names, jobs=jobs)
            assert [o.name for o in outcomes] == names
            assert not any(o.ok for o in outcomes)
            assert all(
                f.kind == "interrupted"
                for o in outcomes for f in o.failures
            )
            docs[jobs] = self._errors_doc(outcomes)
        assert docs[1] == docs[4]
        rows = json.loads(docs[1])
        assert [row["experiment"] for row in rows] == names


class TestDefaultJobs:
    def test_at_least_one_and_bounded(self):
        jobs = default_jobs()
        assert 1 <= jobs <= 8

    def test_repro_jobs_env_overrides(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert default_jobs() == 3
        monkeypatch.setenv("REPRO_JOBS", "12")  # env wins over the cap of 8
        assert default_jobs() == 12

    def test_invalid_repro_jobs_values_are_ignored(self, monkeypatch):
        for bad in ("0", "-2", "many", ""):
            monkeypatch.setenv("REPRO_JOBS", bad)
            assert 1 <= default_jobs() <= 8

    def test_jobs_hint_raises_the_cap_for_requesting_experiments(
        self, monkeypatch
    ):
        from repro.experiments import runner

        monkeypatch.delenv("REPRO_JOBS", raising=False)
        monkeypatch.setattr(
            runner.os, "sched_getaffinity", lambda _pid: set(range(32)),
            raising=False,
        )
        # The paper suite keeps the conservative cap; the fleet's hint
        # lifts it to the affinity mask; mixing takes the largest hint.
        assert default_jobs(["fig10"]) == 8
        assert default_jobs(["fleet"]) == 32
        assert default_jobs(["fig10", "fleet"]) == 32
        assert default_jobs() == 8

    def test_jobs_hint_never_exceeds_affinity(self, monkeypatch):
        from repro.experiments import runner

        monkeypatch.delenv("REPRO_JOBS", raising=False)
        monkeypatch.setattr(
            runner.os, "sched_getaffinity", lambda _pid: {0, 1},
            raising=False,
        )
        assert default_jobs(["fleet"]) == 2

    def test_repro_jobs_env_wins_over_hints(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert default_jobs(["fleet"]) == 3


class TestOutcome:
    def test_ok_reflects_error(self):
        good = ExperimentOutcome(name="x", rendered="r", elapsed_s=0.1)
        bad = ExperimentOutcome(
            name="y", rendered="", elapsed_s=0.1, error="ValueError: nope"
        )
        assert good.ok and not bad.ok

    def test_to_json_excludes_timing(self, fake_sharded):
        (outcome,) = run_experiments(["fake"], jobs=2)
        payload = outcome.to_json()
        assert payload["id"] == "fake"
        assert payload["ok"] is True
        assert payload["result"] == {
            "partials": {
                "alpha": {"alpha": "ALPHA"},
                "beta": {"beta": "BETA"},
                "gamma": {"gamma": "GAMMA"},
            }
        }
        assert "elapsed_s" not in payload and "cached_tasks" not in payload
