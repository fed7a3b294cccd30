"""Measurement plumbing: per-thread CPU accounting and event counters.

This is the simulator's stand-in for the paper's Perfetto profiling
(Figure 3, Figure 11): every modeled operation charges simulated CPU
nanoseconds to a named thread, so experiments can ask "how much CPU did
kswapd burn compressing?" exactly the way the authors asked Perfetto.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from .errors import SchedulingError

#: Thread names used throughout the simulator.
KSWAPD = "kswapd"
APP = "app"
PREDECOMP = "predecomp"
ZSWAPD = "zswapd"


class CpuAccount:
    """Accumulates simulated CPU time per thread and per activity.

    Charges are tagged with ``(thread, activity)`` so reports can slice
    either way: Figure 3 wants all of kswapd's time; Figure 11 wants all
    compression + decompression time regardless of thread.
    """

    def __init__(self) -> None:
        #: The only store is the (thread, activity) ledger — the charge
        #: path is the hottest accounting call in the simulator, so the
        #: per-thread and per-activity rollups are derived on read (reads
        #: are rare: once per report) instead of maintained on write.
        self._by_pair: dict[tuple[str, str], int] = defaultdict(int)

    def charge(self, thread: str, activity: str, ns: int) -> None:
        """Add ``ns`` of CPU time for ``thread`` doing ``activity``."""
        if ns < 0:
            raise SchedulingError(
                f"cannot charge negative CPU time ({ns} ns) to {thread}/{activity}"
            )
        self._by_pair[(thread, activity)] += ns

    def thread_ns(self, thread: str) -> int:
        """Total CPU ns charged to ``thread``."""
        return sum(
            ns for (t, _a), ns in self._by_pair.items() if t == thread
        )

    def activity_ns(self, activity: str) -> int:
        """Total CPU ns charged to ``activity`` across all threads."""
        return sum(
            ns for (_t, a), ns in self._by_pair.items() if a == activity
        )

    def pair_ns(self, thread: str, activity: str) -> int:
        """CPU ns for one (thread, activity) pair."""
        return self._by_pair.get((thread, activity), 0)

    @property
    def total_ns(self) -> int:
        """All CPU time charged anywhere."""
        return sum(self._by_pair.values())

    def activities(self) -> dict[str, int]:
        """Per-activity totals (derived from the pair ledger)."""
        totals: dict[str, int] = defaultdict(int)
        for (_thread, activity), ns in self._by_pair.items():
            totals[activity] += ns
        return dict(totals)

    def threads(self) -> dict[str, int]:
        """Per-thread totals (derived from the pair ledger)."""
        totals: dict[str, int] = defaultdict(int)
        for (thread, _activity), ns in self._by_pair.items():
            totals[thread] += ns
        return dict(totals)

    def merged_with(self, other: "CpuAccount") -> "CpuAccount":
        """Return a new account holding the sum of both."""
        merged = CpuAccount()
        for (thread, activity), ns in self._by_pair.items():
            merged.charge(thread, activity, ns)
        for (thread, activity), ns in other._by_pair.items():
            merged.charge(thread, activity, ns)
        return merged


#: Recovery counters maintained by the schemes' graceful-degradation
#: paths (see :mod:`repro.faults`).  All stay zero without an installed
#: fault plan; :func:`recovery_summary` snapshots them for reports.
FAULT_COUNTERS = (
    # Injection-side mirrors, bumped when an injected error reaches a scheme.
    "fault_flash_read_transient",
    "fault_flash_read_permanent",
    "fault_flash_write_transient",
    "fault_flash_write_permanent",
    # Recovery outcomes.
    "fault_io_retries",
    "fault_transient_recovered",
    "fault_transient_abandoned",
    "fault_write_gave_up",
    "fault_writeback_deferred",
    # Degradation outcomes.
    "fault_chunks_dropped",
    "fault_dropped_flash_io",
    "fault_dropped_corrupt",
    "fault_cold_refaults",
)


def recovery_summary(counters: "Counters | dict[str, int]") -> dict[str, int]:
    """Snapshot of the :data:`FAULT_COUNTERS` from a counter store.

    Accepts a live :class:`Counters` or a plain counter dict (e.g. a
    :class:`~repro.sim.scenario.ScenarioResult`'s ``counters``).
    """
    if isinstance(counters, dict):
        return {name: counters.get(name, 0) for name in FAULT_COUNTERS}
    return {name: counters.get(name) for name in FAULT_COUNTERS}


#: Memory-pressure lifecycle counters maintained by the schemes and the
#: low-memory killer (see :mod:`repro.lmk`).  All stay zero without an
#: installed pressure plan; :func:`pressure_summary` snapshots them.
PRESSURE_COUNTERS = (
    # Signal-side: PSI sampling and kswapd escalation.
    "pressure_samples",
    "pressure_escalations",
    "pressure_boost_evictions",
    # Killer outcomes (executed teardowns).
    "lmk_kills",
    "lmk_pages_killed",
    "lmk_cold_relaunches",
    # Hard-exhaustion fallbacks.
    "pressure_overflow_drops",
    "pressure_admission_refusals",
    "pressure_pages_refused",
)


def pressure_summary(counters: "Counters | dict[str, int]") -> dict[str, int]:
    """Snapshot of the :data:`PRESSURE_COUNTERS` from a counter store.

    Accepts a live :class:`Counters` or a plain counter dict, exactly
    like :func:`recovery_summary`.
    """
    if isinstance(counters, dict):
        return {name: counters.get(name, 0) for name in PRESSURE_COUNTERS}
    return {name: counters.get(name) for name in PRESSURE_COUNTERS}


#: Zswap writeback-tier counters (see :mod:`repro.core.zswap`).  All
#: stay zero for the other schemes; :func:`zswap_summary` snapshots them
#: for reports, mirroring :func:`recovery_summary`.
ZSWAP_COUNTERS = (
    # Shrinker: batched LRU writeback to contiguous swap slots.
    "zswap_writeback_batches",
    "zswap_pages_written_back",
    "zswap_batch_pages_max",
    # Slot-locality readahead: speculative neighbor decompressions.
    "zswap_readahead_reads",
    "zswap_readahead_hits",
    "zswap_readahead_wasted",
    "zswap_readahead_aborted",
)


def zswap_summary(counters: "Counters | dict[str, int]") -> dict[str, int]:
    """Snapshot of the :data:`ZSWAP_COUNTERS` from a counter store.

    Accepts a live :class:`Counters` or a plain counter dict, exactly
    like :func:`recovery_summary`.
    """
    if isinstance(counters, dict):
        return {name: counters.get(name, 0) for name in ZSWAP_COUNTERS}
    return {name: counters.get(name) for name in ZSWAP_COUNTERS}


class Counters:
    """Named integer event counters (compressions, faults, hits, ...)."""

    def __init__(self) -> None:
        self._counts: dict[str, int] = defaultdict(int)

    def incr(self, name: str, amount: int = 1) -> None:
        """Increase counter ``name`` by ``amount``."""
        self._counts[name] += amount

    def mutable(self) -> dict[str, int]:
        """The live counter store, for hot paths that batch several
        increments without per-call :meth:`incr` dispatch.  Mutating the
        returned defaultdict is equivalent to the same ``incr`` calls."""
        return self._counts

    def get(self, name: str) -> int:
        """Current value of counter ``name`` (0 if never incremented)."""
        return self._counts.get(name, 0)

    def as_dict(self) -> dict[str, int]:
        """Copy of all counters."""
        return dict(self._counts)

    def __getitem__(self, name: str) -> int:
        return self.get(name)


@dataclass
class LatencyBreakdown:
    """Where the nanoseconds of one measured operation went.

    Used for relaunch latency reports (Figures 2 and 10): the sum of the
    parts equals the reported latency.
    """

    dram_ns: int = 0
    decompress_ns: int = 0
    compress_ns: int = 0
    flash_read_ns: int = 0
    flash_write_ns: int = 0
    process_create_ns: int = 0
    other_ns: int = 0

    @property
    def total_ns(self) -> int:
        """Sum of all components."""
        return (
            self.dram_ns
            + self.decompress_ns
            + self.compress_ns
            + self.flash_read_ns
            + self.flash_write_ns
            + self.process_create_ns
            + self.other_ns
        )

    def add(self, other: "LatencyBreakdown") -> None:
        """Accumulate another breakdown into this one."""
        self.dram_ns += other.dram_ns
        self.decompress_ns += other.decompress_ns
        self.compress_ns += other.compress_ns
        self.flash_read_ns += other.flash_read_ns
        self.flash_write_ns += other.flash_write_ns
        self.process_create_ns += other.process_create_ns
        self.other_ns += other.other_ns


#: Shared all-zero breakdown for zero-stall results (DRAM hits).  Treated
#: as immutable everywhere: consumers may read or identity-compare it to
#: skip no-op accumulation, but must never mutate it.
EMPTY_BREAKDOWN = LatencyBreakdown()


class AccessRun(list):
    """A memoized single-app replay run with residency-verification state.

    Replay streams (relaunch/execution/warm-up page sequences) are
    immutable and replayed many times per scenario, so
    ``MobileSystem`` materializes each one once and hands the *same*
    list object to every replay.  That stability is what makes
    run-level epoch verification sound: ``verified_epoch`` records the
    scheme's :attr:`~repro.core.scheme.SwapScheme.eviction_epoch` at the
    end of a replay that left every page of this run resident.  As long
    as no page of ``uid`` has left DRAM since (the scheme's per-app
    eviction stamp has not passed ``verified_epoch``), every page is
    still resident and the next replay needs zero per-page residency
    probes.  The stamp lives on the run object itself — there is no
    key-reuse hazard a side table would have.
    """

    __slots__ = ("uid", "verified_epoch", "columnar_handles", "handle_cache")

    def __init__(self, pages, uid: int) -> None:
        super().__init__(pages)
        self.uid = uid
        #: Scheme epoch at the last fully-resident replay (-1 = never).
        self.verified_epoch = -1
        #: Memoized handle array of this run in its organizer's handle
        #: table (``repro.mem.organizer.HandleTable``); None until the
        #: first replay.  Safe for the same reason ``verified_epoch``
        #: is: the run object is per-app per-system, and handles are
        #: stable for the organizer's lifetime.
        self.columnar_handles = None
        #: Optional ``(host_dict, key)`` for sharing the handle array
        #: across systems built from the same immutable trace (set by
        #: ``LiveApp.access_run``; consumed by the organizers, which
        #: verify table agreement before trusting an entry).
        self.handle_cache = None


@dataclass
class AccessBatchSummary:
    """Aggregate outcome of a batched access replay.

    One summary replaces a stream of per-access :class:`AccessResult`
    objects: the scheme's ``access_batch`` coalesces resident-hit runs
    into count bumps here, and folds each fault's stall/breakdown in as
    it happens.  Totals are exactly the sums the per-access loop would
    have produced (additive accounting is order-free), which is what
    keeps batched replay number-invariant.
    """

    pages: int = 0
    stall_ns: int = 0
    breakdown: LatencyBreakdown = field(default_factory=LatencyBreakdown)
    from_dram: int = 0
    from_zpool: int = 0
    from_flash: int = 0
    from_staging: int = 0

    def add_hits(self, count: int) -> None:
        """Fold in ``count`` zero-stall resident hits."""
        self.pages += count
        self.from_dram += count

    def add_result(self, result) -> None:
        """Fold in one :class:`repro.core.scheme.AccessResult`."""
        self.pages += 1
        self.stall_ns += result.stall_ns
        if result.breakdown is not EMPTY_BREAKDOWN:
            self.breakdown.add(result.breakdown)
        source = result.source.value
        if source == "dram":
            self.from_dram += 1
        elif source == "zpool":
            self.from_zpool += 1
        elif source == "flash":
            self.from_flash += 1
        else:
            self.from_staging += 1


@dataclass
class RelaunchResult:
    """Outcome of one measured application relaunch."""

    app_name: str
    scheme_name: str
    latency_ns: int
    breakdown: LatencyBreakdown = field(default_factory=LatencyBreakdown)
    pages_accessed: int = 0
    pages_from_dram: int = 0
    pages_from_zpool: int = 0
    pages_from_flash: int = 0
    pages_from_staging: int = 0

    @property
    def latency_ms(self) -> float:
        """Relaunch latency in milliseconds."""
        return self.latency_ns / 1_000_000
