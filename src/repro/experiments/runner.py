"""Parallel experiment runner: the paper suite across a process pool.

Every experiment regenerates one independent figure/table — no state is
shared between them beyond the deterministic artifact cache — so the
full suite parallelizes embarrassingly.  Scheduling is generic over the
registry (:mod:`repro.experiments.registry`): specs flagged ``sharded``
are expanded into their typed :class:`~repro.experiments.registry.CellSpec`
units and scheduled at (scheme x config) **cell** granularity, so no
single experiment dominates the suite's critical path on a multi-core
host.  Workers recompute nothing that another run already measured:
they share the on-disk artifact cache (:mod:`repro.cache`), flushing
newly measured compressed sizes after every task so concurrent and
later workers reuse them — and every finished task (cell or whole
experiment) is memoized in the
:class:`repro.cache.ExperimentResultCache` keyed by a source-tree
fingerprint, so an unchanged task on a re-run is a single disk read
instead of a simulation.  Specs flagged ``cacheable = False`` (live
wall-clock measurements) always re-measure.

Crash safety: the runner never loses a suite to one bad cell.  A cell
that *raises* is a structured :class:`TaskFailure` (kind
``"exception"``); a worker that *dies* mid-cell (segfault, OOM kill,
``os._exit``) is detected by pid liveness, the cell is resubmitted up
to ``task_retries`` times and finally re-run serially in the parent
(``serial_fallback``) before becoming a ``"crash"`` failure; a cell
exceeding ``task_timeout_s`` has its worker SIGKILLed and is retried
the same way, ending in a ``"timeout"`` failure (no serial fallback —
a hang cannot be interrupted in-process).  SIGTERM and
KeyboardInterrupt shut the pool down cleanly: finished experiments
keep their results, unfinished ones get ``"interrupted"`` failures,
and the structured outcome list is still returned.

Used by ``python -m repro.experiments all --jobs N`` and importable
directly::

    from repro.experiments.runner import run_experiments
    outcomes = run_experiments(["fig10", "fig13"], jobs=4, quick=True)
"""

from __future__ import annotations

import multiprocessing as mp
import os
import signal
import threading
import time
from dataclasses import dataclass, field

from .registry import CellSpec, ExperimentResult, experiment, to_jsonable

#: Environment variable overriding :func:`default_jobs` (CI pins it so
#: runner parallelism never depends on the runner host's core count).
JOBS_ENV = "REPRO_JOBS"

#: Parent-side poll cadence for task completion/liveness (seconds).
_POLL_S = 0.02


@dataclass
class TaskFailure:
    """One task's structured failure record (the ``--json`` errors row).

    ``kind`` is one of ``"exception"`` (the cell raised), ``"timeout"``
    (the cell exceeded the per-task budget and its worker was killed),
    ``"crash"`` (the worker process died mid-cell), or
    ``"interrupted"`` (the run was shut down before the cell finished).
    ``attempts`` counts every execution attempt, including the serial
    fallback.
    """

    experiment: str
    cell: str | None
    kind: str
    error: str
    attempts: int = 1

    def to_json(self) -> dict:
        return {
            "experiment": self.experiment,
            "cell": self.cell,
            "kind": self.kind,
            "error": self.error,
            "attempts": self.attempts,
        }


@dataclass
class ExperimentOutcome:
    """One experiment's structured result, rendered text, and timing.

    ``result`` is the experiment's structured result object (``None``
    on failure) — render it with ``rendered`` or serialize it with
    :meth:`to_json`.  ``elapsed_s`` is the experiment's critical-path
    time: the single task for unsharded experiments, the slowest cell
    for sharded ones (cells run concurrently, so their sum is not wall
    time).  ``cached_tasks`` counts tasks served from the persistent
    result cache instead of being re-measured.  ``failures`` carries
    one :class:`TaskFailure` per failed task; ``error`` stays the first
    failure's message (the human-readable summary line).
    """

    name: str
    rendered: str
    elapsed_s: float
    error: str | None = None
    cells: int = 1
    cached_tasks: int = 0
    result: ExperimentResult | None = None
    failures: list[TaskFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.error is None

    def to_json(self) -> dict:
        """Deterministic JSON-ready view of this outcome.

        Carries the spec's identity, the structured result, and the
        structured failures, but *no* timing or cache telemetry, so the
        serialized document is byte-identical across job counts and
        cache states (the machine-readable contract CI artifacts rely
        on).  Failures are sorted by (cell, kind) because completion
        order depends on scheduling.
        """
        spec = experiment(self.name)
        ordered = sorted(
            self.failures, key=lambda f: (f.cell or "", f.kind, f.error)
        )
        return {
            "id": spec.id,
            "title": spec.title,
            "anchor": spec.anchor,
            "ok": self.ok,
            "error": self.error,
            "errors": [failure.to_json() for failure in ordered],
            "result": to_jsonable(self.result) if self.result is not None else None,
            "rendered": self.rendered if self.ok else None,
        }


#: Worker cap for the paper suite when no experiment hints otherwise.
_SUITE_JOBS_CAP = 8


def default_jobs(names: list[str] | None = None) -> int:
    """Worker count when ``--jobs`` is not given: one per usable core.

    ``REPRO_JOBS`` overrides everything (CI and benchmark harnesses pin
    it for reproducible parallelism).  Otherwise uses the scheduler
    affinity mask (the cgroup/container allowance) rather than the host
    core count, capped per request:

    - the paper suite keeps the conservative cap of 8 — it has only ~20
      schedulable tasks once the scheme-matrix experiments shard into
      cells, and each worker materializes its own full-scale traces and
      systems, so more workers than that only burns memory without
      shortening the critical path;
    - an experiment in ``names`` may raise the cap via its
      ``jobs_hint`` — the fleet tier has hundreds of tiny uniform
      shards and a few-MiB worker footprint, exactly the shape the
      8-worker cap was protecting the suite *from*, so it requests the
      full affinity mask instead.

    The cap only ever rises to the largest hint requested: mixing the
    fleet into a suite run must not starve it of workers, and a
    hint-free request behaves exactly as before.
    """
    raw = os.environ.get(JOBS_ENV)
    if raw:
        try:
            pinned = int(raw)
        except ValueError:
            pinned = 0
        if pinned >= 1:
            return pinned
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without sched_getaffinity
        usable = os.cpu_count() or 1
    cap = _SUITE_JOBS_CAP
    for name in names or ():
        hint = experiment(name).jobs_hint
        if hint is not None:
            cap = max(cap, hint)
    return max(1, min(usable, cap))


def _run_task(args: tuple[int, str, str | None, bool]):
    """Worker body: run one whole experiment or one sharded cell.

    Returns ``(group_id, cell_key, payload, elapsed_s, error, cached)``
    where ``payload`` is the structured result object for a whole
    experiment or the picklable cell payload for a sharded cell, and
    ``cached`` counts how many of the task's units came from the
    persistent result cache instead of a fresh measurement (0 or 1 for
    a single cell / unsharded experiment; up to the cell count for a
    sharded experiment run whole on the one-worker path).  Results are memoized per (code
    fingerprint, experiment, cell, args): on an unchanged tree a task
    is one disk read, and any source edit misses wholesale.
    """
    group_id, name, cell_key, quick = args
    # Imported here so "spawn" contexts work and the parent can fork
    # before the (heavier) experiment modules are loaded.
    from .common import flush_artifacts, result_cache

    spec = experiment(name)
    start = time.perf_counter()
    # Live-timing experiments are hardware-truthful only when freshly
    # measured; serving them from disk would present another machine's
    # (or another day's) wall clock as a measurement.
    results = result_cache() if spec.cacheable else None
    run_args = {"quick": quick}
    payload: object = None
    cached = 0
    error = None
    try:
        if cell_key is None and spec.sharded and results is not None:
            # One task covering a whole sharded experiment (the
            # one-worker path).  The cell list may depend on
            # environment knobs (the fleet's size and seed), so the
            # merged result is never memoized under ``cell=None`` —
            # that key cannot distinguish two fleets.  Each cell is
            # served or measured under its own key instead: exactly
            # the entries the multi-worker path and ``run_cached``
            # read and write, so serial and parallel runs share the
            # cache in both directions.
            partials: dict[str, object] = {}
            for key in spec.cell_keys(quick):
                hit = results.load(name, key, run_args)
                if hit is None:
                    hit = spec.run_cell(key, quick=quick)
                    results.store(name, key, run_args, hit)
                else:
                    cached += 1
                partials[key] = hit
            payload = spec.merge(partials, quick=quick)
        else:
            if results is not None:
                hit = results.load(name, cell_key, run_args)
                if hit is not None:
                    payload = hit
                    cached = 1
            if not cached:
                if cell_key is None:
                    payload = spec.run(quick=quick)
                else:
                    payload = spec.run_cell(cell_key, quick=quick)
                if results is not None:
                    results.store(name, cell_key, run_args, payload)
    except Exception as exc:  # surface per-task failures without killing the run
        error = f"{type(exc).__name__}: {exc}"
    flush_artifacts()
    return (
        group_id, cell_key, payload, time.perf_counter() - start, error, cached,
    )


#: Worker-side start-event channel, installed by :func:`_worker_init`.
_events = None


def _worker_init(event_queue) -> None:
    """Pool initializer: register the event channel, reset signals.

    Workers ignore SIGINT so a Ctrl-C lands only in the parent, which
    shuts the pool down deliberately (terminate + structured partial
    results) instead of every process racing its own traceback.

    SIGTERM must go back to the default action: workers fork after the
    parent installs its own SIGTERM->KeyboardInterrupt handler, and
    ``pool.terminate()`` delivers SIGTERM to every worker.  With the
    inherited handler a worker raises KeyboardInterrupt at an arbitrary
    bytecode — possibly while holding the shared task-queue lock — and
    a sibling then blocks on that lock forever, deadlocking the
    parent's ``pool.join()``.

    Workers start with SIGTERM blocked (see :func:`run_experiments`), so
    a ``terminate()`` that lands before this runs stays pending in the
    kernel instead of hitting the inherited Python handler — whose
    pending flag the fork discards.  Unblocking after ``SIG_DFL`` is in
    place delivers it with the default action: the worker dies.
    """
    global _events
    _events = event_queue
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGTERM})
    except (ValueError, OSError):  # non-main thread / exotic platforms
        pass


def _run_task_tagged(tagged: tuple[int, int, tuple]):
    """Worker body for supervised runs: announce start, then run.

    The start event ``(task_index, attempt, pid)`` is what lets the
    parent attribute a worker death or a timeout to the exact task the
    worker was holding; the ``attempt`` tag lets it discard stale
    results from attempts it already gave up on.
    """
    task_index, attempt, task = tagged
    if _events is not None:
        _events.put((task_index, attempt, os.getpid()))
    return task_index, attempt, _run_task(task)


class _Group:
    """Parent-side bookkeeping for one requested experiment."""

    def __init__(self, name: str, cells: list[CellSpec] | None) -> None:
        self.name = name
        self.cells = cells
        self.partials: dict[str | None, object] = {}
        self.elapsed_s = 0.0
        self.error: str | None = None
        self.cached_tasks = 0
        self.failures: list[TaskFailure] = []
        self.pending = 1 if cells is None else len(cells)

    def consume(
        self,
        cell_key: str | None,
        payload,
        elapsed_s,
        error,
        cached,
        failure: TaskFailure | None = None,
    ) -> bool:
        """Fold in one finished task; True when the group is complete."""
        self.elapsed_s = max(self.elapsed_s, elapsed_s)
        if error is not None and self.error is None:
            self.error = error
        if failure is not None:
            self.failures.append(failure)
        self.cached_tasks += int(cached)
        self.partials[cell_key] = payload
        self.pending -= 1
        return self.pending == 0

    def outcome(self, quick: bool) -> ExperimentOutcome:
        """Render the finished group (merging cells for sharded runs)."""
        result: ExperimentResult | None = None
        if self.error is None:
            try:
                if self.cells is None:
                    result = self.partials.get(None)  # type: ignore[assignment]
                else:
                    result = experiment(self.name).merge(
                        {
                            cell.key: self.partials[cell.key]
                            for cell in self.cells
                        },
                        quick=quick,
                    )
            except Exception as exc:  # pragma: no cover - merge is pure
                self.error = f"{type(exc).__name__}: {exc}"
        return ExperimentOutcome(
            name=self.name,
            rendered=result.render() if result is not None else "",
            elapsed_s=self.elapsed_s,
            error=self.error,
            cells=1 if self.cells is None else len(self.cells),
            cached_tasks=self.cached_tasks,
            result=result,
            failures=list(self.failures),
        )


class _Supervisor:
    """Tracks every submitted task's attempt, worker pid, and deadline."""

    @dataclass
    class _Inflight:
        attempt: int
        handle: object  # multiprocessing AsyncResult
        pid: int | None = None
        deadline: float | None = None

    def __init__(
        self,
        pool,
        events,
        tasks: list[tuple[int, str, str | None, bool]],
        task_timeout_s: float | None,
        task_retries: int,
        serial_fallback: bool,
    ) -> None:
        self.pool = pool
        self.events = events
        self.tasks = tasks
        self.task_timeout_s = task_timeout_s
        self.task_retries = task_retries
        self.serial_fallback = serial_fallback
        self.attempts: dict[int, int] = {}
        self.inflight: dict[int, _Supervisor._Inflight] = {}
        #: True once any attempt was abandoned with its worker killed or
        #: dead.  Such attempts never resolve their AsyncResult, which
        #: stays in ``Pool._cache`` forever — and ``Pool.join()`` only
        #: returns once that cache drains, so the caller must
        #: ``terminate()`` the (idle) pool instead of ``close()`` it.
        self.abandoned_attempts = False

    def submit(self, task_index: int) -> None:
        attempt = self.attempts.get(task_index, 0) + 1
        self.attempts[task_index] = attempt
        handle = self.pool.apply_async(
            _run_task_tagged, ((task_index, attempt, self.tasks[task_index]),)
        )
        self.inflight[task_index] = self._Inflight(attempt=attempt, handle=handle)

    def _drain_events(self) -> None:
        """Match start announcements to inflight attempts."""
        while True:
            try:
                if self.events.empty():
                    return
                task_index, attempt, pid = self.events.get()
            except (OSError, EOFError):  # queue torn down mid-shutdown
                return
            record = self.inflight.get(task_index)
            if record is not None and record.attempt == attempt:
                record.pid = pid
                if self.task_timeout_s is not None:
                    record.deadline = time.monotonic() + self.task_timeout_s

    @staticmethod
    def _pid_alive(pid: int) -> bool:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        except PermissionError:  # pragma: no cover - alive, not ours
            return True
        return True

    def _describe(self, task_index: int) -> tuple[str, str | None]:
        _group_id, name, cell_key, _quick = self.tasks[task_index]
        return name, cell_key

    def _retry_or_fail(self, task_index: int, kind: str, detail: str):
        """Resubmit a crashed/hung task, or produce its final failure.

        Returns ``None`` when the task was resubmitted (or handed to
        the serial fallback and succeeded), else the resolved result
        tuple ``(task_index, result, failure)``.
        """
        self.inflight.pop(task_index, None)
        attempts = self.attempts[task_index]
        name, cell_key = self._describe(task_index)
        if attempts <= self.task_retries:
            self.submit(task_index)
            return None
        if kind == "crash" and self.serial_fallback:
            # Last resort for a repeatedly crashing cell: run it in the
            # parent, where a plain exception is catchable.  (A cell
            # that kills *any* process it runs in would take the parent
            # down too — callers that inject such cells on purpose pass
            # serial_fallback=False.)
            attempts += 1
            self.attempts[task_index] = attempts
            result = _run_task(self.tasks[task_index])
            if result[4] is None:
                return task_index, result, None
            failure = TaskFailure(
                experiment=name,
                cell=cell_key,
                kind=kind,
                error=(
                    f"{detail}; serial fallback raised {result[4]} "
                    f"(after {attempts} attempts)"
                ),
                attempts=attempts,
            )
            return task_index, result, failure
        failure = TaskFailure(
            experiment=name,
            cell=cell_key,
            kind=kind,
            error=f"{detail} (after {attempts} attempts)",
            attempts=attempts,
        )
        group_id = self.tasks[task_index][0]
        result = (group_id, cell_key, None, 0.0, failure.error, False)
        return task_index, result, failure

    def poll(self):
        """One supervision pass; yields resolved ``(index, result, failure)``."""
        self._drain_events()
        now = time.monotonic()
        for task_index in list(self.inflight):
            record = self.inflight[task_index]
            handle = record.handle
            if handle.ready():
                self.inflight.pop(task_index)
                try:
                    got_index, got_attempt, result = handle.get()
                except Exception as exc:  # transport failure, not cell failure
                    resolved = self._retry_or_fail(
                        task_index,
                        "crash",
                        f"task transport failed: {type(exc).__name__}: {exc}",
                    )
                    if resolved is not None:
                        yield resolved
                    continue
                if got_index != task_index or got_attempt != record.attempt:
                    continue  # stale attempt we already re-ran
                error = result[4]
                failure = None
                if error is not None:
                    name, cell_key = self._describe(task_index)
                    failure = TaskFailure(
                        experiment=name,
                        cell=cell_key,
                        kind="exception",
                        error=error,
                        attempts=record.attempt,
                    )
                yield task_index, result, failure
                continue
            if record.pid is None:
                continue  # still queued behind other tasks
            if record.deadline is not None and now > record.deadline:
                try:
                    os.kill(record.pid, signal.SIGKILL)
                except (ProcessLookupError, PermissionError):
                    pass
                self.abandoned_attempts = True
                resolved = self._retry_or_fail(
                    task_index,
                    "timeout",
                    f"cell exceeded the {self.task_timeout_s:g}s task "
                    f"timeout in worker pid {record.pid}",
                )
                if resolved is not None:
                    yield resolved
                continue
            if not self._pid_alive(record.pid):
                self.abandoned_attempts = True
                resolved = self._retry_or_fail(
                    task_index,
                    "crash",
                    f"worker pid {record.pid} died mid-task",
                )
                if resolved is not None:
                    yield resolved


def _interrupt_failure(task: tuple[int, str, str | None, bool]) -> TaskFailure:
    _group_id, name, cell_key, _quick = task
    return TaskFailure(
        experiment=name,
        cell=cell_key,
        kind="interrupted",
        error="run interrupted before this task finished",
    )


def run_experiments(
    names: list[str],
    jobs: int | None = None,
    quick: bool = False,
    on_result=None,
    task_timeout_s: float | None = None,
    task_retries: int = 1,
    serial_fallback: bool = True,
) -> list[ExperimentOutcome]:
    """Run ``names`` on up to ``jobs`` worker processes; ordered results.

    Sharded experiments are expanded into per-cell tasks whenever more
    than one worker is available — including a *single* requested
    experiment, so ``run_experiments(["fig10"], jobs=4)`` parallelizes
    internally.  ``on_result(outcome)`` fires per finished experiment
    the moment its last task (cell) completes; the returned list is in
    request order regardless of completion order.  With one worker
    everything runs in-process, unsharded (no pool overhead — and no
    crash/timeout supervision, since there is no worker boundary to
    supervise across).  Workers share the on-disk artifact cache, so a
    size measured by one cell is never re-measured by another — across
    this run or the next.

    Failure policy (multi-worker runs): a raising cell yields an
    ``"exception"`` :class:`TaskFailure`; a worker death or a cell
    overrunning ``task_timeout_s`` is retried up to ``task_retries``
    times (crashes additionally fall back to one serial in-parent run
    unless ``serial_fallback`` is off) before yielding a ``"crash"`` /
    ``"timeout"`` failure.  SIGTERM/KeyboardInterrupt terminates the
    pool and returns structured partial results, with unfinished tasks
    marked ``"interrupted"``.
    """
    specs = [experiment(name) for name in names]  # raises on unknown ids
    if task_retries < 0:
        raise ValueError(f"task_retries cannot be negative: {task_retries}")
    workers = jobs if jobs is not None else default_jobs(names)
    tasks: list[tuple[int, str, str | None, bool]] = []
    groups: list[_Group] = []
    for group_id, spec in enumerate(specs):
        cells = spec.cells(quick) if spec.sharded and workers > 1 else []
        if cells:
            groups.append(_Group(spec.id, cells))
            tasks.extend(
                (group_id, spec.id, cell.key, quick) for cell in cells
            )
        else:
            # Unsharded — including the degenerate empty-cells case,
            # which would otherwise create a group no task ever
            # completes.
            groups.append(_Group(spec.id, None))
            tasks.append((group_id, spec.id, None, quick))
    workers = max(1, min(workers, len(tasks)))

    outcomes: dict[int, ExperimentOutcome] = {}

    def consume(result, failure: TaskFailure | None = None) -> None:
        group_id, cell_key, payload, elapsed_s, error, cached = result
        group = groups[group_id]
        if group.consume(cell_key, payload, elapsed_s, error, cached, failure):
            outcome = group.outcome(quick)
            outcomes[group_id] = outcome
            if on_result is not None:
                on_result(outcome)

    def finalize_interrupted(unresolved: list[int]) -> None:
        """Resolve every outstanding task as interrupted."""
        for task_index in unresolved:
            task = tasks[task_index]
            failure = _interrupt_failure(task)
            consume(
                (task[0], task[2], None, 0.0, failure.error, False), failure
            )

    # SIGTERM gets the same clean shutdown as Ctrl-C.  Only the main
    # thread may install handlers; nested/threaded callers run without.
    previous_sigterm = None
    in_main_thread = threading.current_thread() is threading.main_thread()
    if in_main_thread:
        def _on_sigterm(_signum, _frame):
            raise KeyboardInterrupt
        try:
            previous_sigterm = signal.signal(signal.SIGTERM, _on_sigterm)
        except (ValueError, OSError):  # pragma: no cover
            previous_sigterm = None

    try:
        if workers == 1:
            done = 0
            try:
                for task in tasks:
                    result = _run_task(task)
                    error = result[4]
                    failure = None
                    if error is not None:
                        failure = TaskFailure(
                            experiment=task[1],
                            cell=task[2],
                            kind="exception",
                            error=error,
                        )
                    consume(result, failure)
                    done += 1
            except KeyboardInterrupt:
                finalize_interrupted(list(range(done, len(tasks))))
        else:
            # fork keeps warm parent state (imported modules);
            # experiments re-derive everything else from their own
            # contexts.
            ctx = mp.get_context(
                "fork" if "fork" in mp.get_all_start_methods() else "spawn"
            )
            events = ctx.SimpleQueue()
            # Create the pool with SIGTERM blocked: its worker-handler
            # thread inherits the mask, and so does every worker it
            # forks — initial ones and the replacements of crashed
            # ones — until _worker_init resets the handler and
            # unblocks.  A terminate() racing a fresh replacement can
            # then never be lost, so pool.join() cannot hang on it.
            saved_mask = signal.pthread_sigmask(
                signal.SIG_BLOCK, {signal.SIGTERM}
            )
            try:
                pool = ctx.Pool(
                    processes=workers,
                    initializer=_worker_init,
                    initargs=(events,),
                )
            finally:
                signal.pthread_sigmask(signal.SIG_SETMASK, saved_mask)
            supervisor = _Supervisor(
                pool, events, tasks, task_timeout_s, task_retries,
                serial_fallback,
            )
            resolved: set[int] = set()
            # Submit in a bounded window rather than queueing every task
            # up front: with many-celled experiments (a 10k-device fleet
            # is hundreds of shards) eager submission would pickle every
            # pending payload into the pool's task queue at once, making
            # parent memory O(tasks).  The window keeps every worker busy
            # (two submitted tasks per worker) while holding in-flight
            # state at O(workers), independent of suite size.
            window = max(2 * workers, workers + 2)
            next_task = 0

            def top_up() -> None:
                nonlocal next_task
                while (
                    next_task < len(tasks)
                    and len(supervisor.inflight) < window
                ):
                    supervisor.submit(next_task)
                    next_task += 1

            try:
                top_up()
                while len(resolved) < len(tasks):
                    progressed = False
                    for task_index, result, failure in supervisor.poll():
                        resolved.add(task_index)
                        consume(result, failure)
                        progressed = True
                    top_up()
                    if len(resolved) < len(tasks) and not progressed:
                        time.sleep(_POLL_S)
                if supervisor.abandoned_attempts:
                    # All tasks are resolved and the workers idle, but
                    # every abandoned attempt left an AsyncResult in
                    # the pool's cache that can never resolve —
                    # close()+join() would wait on it forever.
                    pool.terminate()
                else:
                    pool.close()
                pool.join()
            except KeyboardInterrupt:
                pool.terminate()
                pool.join()
                finalize_interrupted(
                    [i for i in range(len(tasks)) if i not in resolved]
                )
    finally:
        if in_main_thread and previous_sigterm is not None:
            try:
                signal.signal(signal.SIGTERM, previous_sigterm)
            except (ValueError, OSError):  # pragma: no cover
                pass
    return [outcomes[group_id] for group_id in range(len(names))]
