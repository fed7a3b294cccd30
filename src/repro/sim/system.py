"""The simulated phone: DRAM + zpool + flash + a swap scheme + apps.

:class:`MobileSystem` replays workload traces against a swap scheme and
measures what the paper measures: relaunch latency (with its breakdown),
CPU time per thread/activity, bytes through flash, and energy inputs.

Relaunch latency model: when every page is in DRAM, a relaunch costs the
profile's measured DRAM latency (Figure 2's DRAM bar), split into a fixed
part (process/activity work) and a per-hot-page part (reading the working
set).  Any page that is *not* in DRAM adds its fault stall on top —
decompression, flash reads, and on-demand compression — which is exactly
how the schemes differentiate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core import (
    AriadneConfig,
    AriadneScheme,
    DramScheme,
    FlashSwapScheme,
    PlatformConfig,
    RelaunchScenario,
    SwapScheme,
    ZramScheme,
    ZswapConfig,
    ZswapScheme,
    build_context,
    pixel7_platform,
)
from ..errors import ConfigError, PageStateError
from ..mem.page import Page
from ..metrics import APP, AccessRun, RelaunchResult
from ..trace.records import AppTrace, WorkloadTrace
from ..units import MS, SECOND

SCHEME_NAMES = ("DRAM", "ZRAM", "SWAP", "ZSWAP", "Ariadne")


@dataclass
class LiveApp:
    """Runtime state of one installed application."""

    trace: AppTrace
    pages: dict[int, Page]
    launched: bool = False
    next_session: int = 0
    #: Set by the low-memory killer (:mod:`repro.lmk`); the next
    #: relaunch is a cold launch charged ``process_create_ns``.
    killed: bool = False
    relaunch_results: list[RelaunchResult] = field(default_factory=list)
    #: Memoized replay runs (see :meth:`access_run`).
    _access_runs: dict[tuple, AccessRun] = field(
        default_factory=dict, repr=False
    )

    @property
    def uid(self) -> int:
        return self.trace.uid

    @property
    def name(self) -> str:
        return self.trace.name

    def access_run(
        self, stream: str, index: int, pfns: tuple[int, ...]
    ) -> AccessRun:
        """The materialized page run for one replay stream, memoized.

        A scenario replays the same immutable pfn streams many times
        (once the trace runs out of sessions, the last one repeats for
        every further relaunch), and this app's :class:`Page` objects
        are fixed for the system's lifetime — so the per-page dict
        lookups are paid once per (stream, session), not per replay.
        The memoized object is an :class:`repro.metrics.AccessRun`, so
        the organizer's handle array for it is computed once too.
        Callers treat the returned run as read-only.  The pfn
        sequence is part of the key, so a caller replaying a different
        sequence under a reused (stream, index) can never be served a
        stale run (hashing the tuple is microseconds against the build
        it saves).
        """
        key = (stream, index, pfns)
        run = self._access_runs.get(key)
        if run is None:
            pages = self.pages
            run = AccessRun([pages[pfn] for pfn in pfns], self.uid)
            # A trace-level host for this run's handle array.  Handles
            # are a pure function of the immutable trace (first-touch =
            # launch creation order), so every system built from this
            # trace assigns the same numbers and the array can be
            # shared across systems and schemes (the organizer still
            # verifies agreement before trusting it — see
            # ``DataOrganizer.run_handles``).
            trace = self.trace
            host = getattr(trace, "_columnar_run_handles", None)
            if host is None:
                host = {}
                object.__setattr__(trace, "_columnar_run_handles", host)
            run.handle_cache = (host, key)
            self._access_runs[key] = run
        return run


class MobileSystem:
    """Drives one swap scheme over a workload trace."""

    def __init__(self, scheme: SwapScheme, trace: WorkloadTrace) -> None:
        self.scheme = scheme
        self.ctx = scheme.ctx
        self.trace = trace
        self._apps: dict[int, LiveApp] = {}
        for app_trace in trace.apps:
            self._apps[app_trace.uid] = LiveApp(
                trace=app_trace, pages=app_trace.materialize()
            )

    # ----------------------------------------------------------------- lookup

    def app(self, name: str) -> LiveApp:
        """Installed app by name."""
        for live in self._apps.values():
            if live.name == name:
                return live
        raise ConfigError(f"app {name!r} is not in this workload")

    @property
    def apps(self) -> list[LiveApp]:
        """All installed apps in trace order."""
        return [self._apps[t.uid] for t in self.trace.apps]

    # ------------------------------------------------------- pressure lifecycle

    def mark_killed(self, uid: int) -> None:
        """Record a low-memory kill (called by an installed plan)."""
        self._apps[uid].killed = True

    def app_killed(self, uid: int) -> bool:
        """Whether ``uid`` is dead (killed and not yet relaunched)."""
        live = self._apps.get(uid)
        return live is not None and live.killed

    # ----------------------------------------------------------------- launch

    def launch_app(self, name: str, settle_seconds: float = 10.0) -> None:
        """Cold-launch an app: allocate its anonymous data, warm its
        execution working set, then let kswapd settle."""
        live = self.app(name)
        if live.launched:
            raise PageStateError(f"{name} is already launched; use relaunch")
        self.scheme.register_app(
            live.uid, hot_seed_limit=live.trace.launch_page_count
        )
        # Page handles are allocated lazily on first admission
        # (``handles_for`` ensures unknown pages in creation order), so
        # no separate priming pass is needed here.
        self.scheme.note_app_switch(live.uid)
        # The whole launch stream arrives as one coalesced (uid,
        # timestamp-ordered) run: batched admission is number-invariant
        # by construction (one watermark check admits the run when it
        # fits; under pressure the scheme runs the exact per-page
        # reference walk), so finer per-timestamp batching could only
        # add redundant checks, never change a victim.  The order —
        # (created_at_s, pfn) — is precomputed on the trace.
        pages = live.pages
        self.scheme.on_pages_created(
            live.uid,
            [pages[record.pfn] for record in live.trace.creation_order()],
        )
        self.scheme.end_launch(live.uid)
        # Touch the first session's execution set: the app ran for a while
        # before being backgrounded, so its warm data has been accessed.
        # Address order decorrelates this initial pass from the session's
        # own access order — the two are different executions.
        if live.trace.sessions:
            self.scheme.access_batch(
                live.access_run(
                    "warmup", 0, live.trace.sessions[0].execution_order()
                )
            )
        live.launched = True
        self.ctx.clock.advance(int(settle_seconds * SECOND))
        self.scheme.background_reclaim()

    def launch_all(self, settle_seconds: float = 10.0) -> None:
        """Launch every app in trace order (the paper's pressure setup)."""
        for app_trace in self.trace.apps:
            self.launch_app(app_trace.name, settle_seconds=settle_seconds)

    # ------------------------------------------------------------ EHL/AL setup

    def prepare_relaunch(
        self, name: str, scenario: RelaunchScenario | None
    ) -> None:
        """Force the paper's relaunch data placement before measuring.

        AL compresses all of the target's lists; EHL leaves the hot list
        resident.  ``None`` leaves whatever pressure produced (the organic
        state).  The DRAM baseline never compresses, so this is a no-op
        for it.
        """
        if scenario is None or isinstance(self.scheme, DramScheme):
            return
        live = self.app(name)
        exclude_hot = scenario is RelaunchScenario.EHL
        self.scheme.force_compress_app(live.uid, exclude_hot=exclude_hot)
        if exclude_hot:
            # EHL is defined by its measured state: the hot list resides
            # in main memory.  Earlier pressure may have pushed hot pages
            # out; bring them back (background work, not measured).
            restore = getattr(self.scheme, "restore_hot_resident", None)
            if restore is not None:
                restore(live.uid)
        self.scheme.background_reclaim()

    # ---------------------------------------------------------------- relaunch

    def relaunch(
        self, name: str, session_index: int | None = None, run_execution: bool = True
    ) -> RelaunchResult:
        """Hot-launch an app from the background and measure its latency."""
        live = self.app(name)
        if not live.launched:
            raise PageStateError(f"{name} must be launched before relaunching")
        sessions = live.trace.sessions
        if session_index is None:
            session_index = min(live.next_session, len(sessions) - 1)
        if not 0 <= session_index < len(sessions):
            raise ConfigError(
                f"{name} has {len(sessions)} sessions; {session_index} invalid"
            )
        session = sessions[session_index]
        profile = live.trace.profile
        platform = self.ctx.platform

        fixed_ns = int(
            profile.dram_relaunch_ms * MS * platform.relaunch_fixed_fraction
        )
        n_pages = max(1, len(session.relaunch_pfns))
        per_page_ns = int(
            profile.dram_relaunch_ms
            * MS
            * (1.0 - platform.relaunch_fixed_fraction)
            / n_pages
        )

        self.scheme.begin_relaunch(live.uid)
        result = RelaunchResult(
            app_name=name, scheme_name=self.scheme.name, latency_ns=fixed_ns
        )
        result.breakdown.dram_ns += fixed_ns
        if live.killed:
            # The process was low-memory-killed: this relaunch re-creates
            # it from scratch (Section 2.1 — process creation dominates
            # cold launches).  Its data faults back through the lost-page
            # path below, which charges the per-page cost.
            create_ns = platform.process_create_ns
            result.latency_ns += create_ns
            result.breakdown.process_create_ns += create_ns
            live.killed = False
            self.ctx.counters.incr("lmk_cold_relaunches")
        # Batched replay: the summary's totals are exactly what the
        # per-access loop accumulated (per-page DRAM time is uniform, so
        # it distributes over the count), with no per-hit object churn.
        # The page run itself is memoized on the app — replays repeat.
        summary = self.scheme.access_batch(
            live.access_run("relaunch", session.index, session.relaunch_pfns),
            thread=APP,
        )
        result.latency_ns += per_page_ns * summary.pages + summary.stall_ns
        result.breakdown.dram_ns += per_page_ns * summary.pages
        result.breakdown.add(summary.breakdown)
        result.pages_accessed += summary.pages
        result.pages_from_dram += summary.from_dram
        result.pages_from_zpool += summary.from_zpool
        result.pages_from_flash += summary.from_flash
        result.pages_from_staging += summary.from_staging
        self.ctx.clock.advance(result.latency_ns)
        self.scheme.end_relaunch(live.uid)
        if run_execution:
            self._run_execution(live, session)
        live.next_session = session_index + 1
        live.relaunch_results.append(result)
        self.scheme.background_reclaim()
        return result

    def _run_execution(self, live: LiveApp, session) -> None:
        """Play the session's post-relaunch execution accesses.

        Execution faults stall the app but are not part of relaunch
        latency; they still cost CPU and move the clock.
        """
        summary = self.scheme.access_batch(
            live.access_run("execution", session.index, session.execution_pfns),
            thread=APP,
        )
        self.ctx.clock.advance(summary.stall_ns)

    # ----------------------------------------------------------------- helpers

    def switch_away(self, name: str) -> None:
        """Background an app without measuring anything."""
        live = self.app(name)
        self.scheme.note_app_switch(live.uid)
        self.scheme.background_reclaim()


def make_system(
    scheme_name: str,
    trace: WorkloadTrace,
    platform: PlatformConfig | None = None,
    codec_name: str = "lzo",
    ariadne_config: AriadneConfig | None = None,
    zswap_config: ZswapConfig | None = None,
) -> MobileSystem:
    """Factory: build a system running ``scheme_name`` over ``trace``.

    ``scheme_name`` is one of ``DRAM`` / ``ZRAM`` / ``SWAP`` / ``ZSWAP``
    / ``Ariadne``.  For the DRAM baseline the platform's DRAM budget is
    inflated to hold the whole workload (the paper's "optimistic
    assumption that DRAM is large enough").  ``ZSWAP`` builds its swap
    area over ``zswap_config.n_devices`` equal-priority flash devices.
    """
    base_platform = platform if platform is not None else pixel7_platform()
    real_budget = base_platform.dram_bytes
    if scheme_name == "DRAM":
        total = sum(a.total_bytes() for a in trace.apps)
        base_platform = PlatformConfig(
            dram_bytes=max(base_platform.dram_bytes, 2 * total),
            zpool_bytes=base_platform.zpool_bytes,
            swap_bytes=base_platform.swap_bytes,
            scale=base_platform.scale,
            parallelism=base_platform.parallelism,
        )
    n_flash_devices = 1
    if scheme_name == "ZSWAP":
        if zswap_config is None:
            zswap_config = ZswapConfig()
        n_flash_devices = zswap_config.n_devices
    ctx = build_context(base_platform, codec_name,
                        n_flash_devices=n_flash_devices)
    if scheme_name == "DRAM":
        scheme: SwapScheme = DramScheme(ctx, pressure_budget_bytes=real_budget)
    elif scheme_name == "ZRAM":
        scheme = ZramScheme(ctx)
    elif scheme_name == "SWAP":
        scheme = FlashSwapScheme(ctx)
    elif scheme_name == "ZSWAP":
        scheme = ZswapScheme(ctx, zswap_config)
    elif scheme_name == "Ariadne":
        scheme = AriadneScheme(ctx, ariadne_config)
    else:
        raise ConfigError(
            f"unknown scheme {scheme_name!r}; choose from {SCHEME_NAMES}"
        )
    return MobileSystem(scheme, trace)
