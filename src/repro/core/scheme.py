"""Swap-scheme interface and shared machinery.

All four schemes (DRAM / SWAP / ZRAM / Ariadne) share the same skeleton:

- resident pages are tracked per app by a :class:`DataOrganizer`;
- apps are ordered by recency (the kernel's per-memcg reclaim order —
  least-recently-switched-to apps are reclaimed from first);
- memory accounting follows zram's reality: the zpool lives *in* DRAM,
  so ``free = dram_budget - resident - zpool_used``.  Compressing a page
  frees ``4 KB - compressed_size``; writing a compressed chunk back to
  flash frees its full zpool footprint;
- when an allocation or fault would push free memory below the low
  watermark, reclaim is *direct* (synchronous — its latency lands on the
  faulting path: the paper's "on-demand compression"); between events the
  system lets kswapd restore the high watermark in the background
  (CPU time, no stall).

Latency/CPU scaling: one simulated page stands for ``platform.scale``
real pages, so every per-page charge is multiplied by ``scale``;
critical-path stalls are divided by ``platform.parallelism`` (several
big cores service a relaunch's swap-in storm concurrently) while CPU
*time* is charged undivided.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import OrderedDict
from dataclasses import dataclass, field

from ..audit import auditor_from_env
from ..errors import (
    ChunkLostError,
    CorruptDataError,
    MemoryPressureError,
    PageStateError,
    PermanentFlashError,
    TransientFlashError,
)
from ..mem.organizer import DataOrganizer
from ..mem.page import Hotness, Page, PageLocation
from ..metrics import (
    APP,
    EMPTY_BREAKDOWN,
    KSWAPD,
    AccessBatchSummary,
    AccessRun,
    LatencyBreakdown,
)
from ..units import PAGE_SIZE
from .context import SchemeContext
from .stored import StoredChunk


@dataclass
class AccessResult:
    """Outcome of one page access."""

    stall_ns: int
    source: PageLocation
    breakdown: LatencyBreakdown = field(default_factory=LatencyBreakdown)


#: Shared result for zero-stall DRAM hits: every field is identical for
#: every hit and callers only read access results, so one instance
#: serves the most frequent operation in the simulator allocation-free.
_DRAM_HIT = AccessResult(
    stall_ns=0, source=PageLocation.DRAM, breakdown=EMPTY_BREAKDOWN
)


class SwapScheme(ABC):
    """Base class for all compressed/flash swap schemes."""

    #: Scheme identifier used in reports ("ZRAM", "SWAP", "DRAM", config label).
    name: str = "abstract"
    #: Whether this scheme keeps a zpool in DRAM.
    uses_zpool: bool = True
    #: Whether free DRAM depends on pool occupancy at all (the DRAM
    #: baseline's does not, so it skips the hook subscriptions).
    tracks_free_dram: bool = True

    def __init__(self, ctx: SchemeContext) -> None:
        self.ctx = ctx
        #: Running free-DRAM counter: maintained by the byte-delta hooks
        #: below, so a watermark probe is an integer compare, never a
        #: recompute.  ``tests/test_invariants.py`` holds it against the
        #: from-scratch :meth:`audit_free_dram_bytes` after randomized
        #: admit/evict/writeback sequences.
        self._free_dram_bytes = ctx.platform.dram_bytes - ctx.dram.used_bytes
        if self.tracks_free_dram:
            if self.uses_zpool:
                self._free_dram_bytes -= ctx.zpool.used_bytes
                ctx.zpool.subscribe(self._on_used_bytes_delta)
            ctx.dram.subscribe(self._on_used_bytes_delta)
        #: Accounting-layer observability (profiling, not simulation
        #: state): how often the watermark was probed and how often the
        #: occupancy hooks fired.
        self.watermark_probes = 0
        self.accounting_updates = 0
        #: Eviction epoch: a monotone counter bumped whenever residency
        #: can shrink (a page leaves DRAM) and, conservatively, on
        #: writeback and purge.  Verification stamps (per app and per
        #: memoized replay run) are compared against the *owning app's*
        #: last bump, so one app's reclaim traffic does not invalidate
        #: another app's verified-resident state — see
        #: :meth:`_access_batch_runs`.
        self.eviction_epoch = 0
        #: Per app: the epoch stamped at its last residency-affecting
        #: event (a page of this app left DRAM; a chunk of this app was
        #: purged or written back).  A verification stamp at least this
        #: new is still valid: epochs only advance at those events, so
        #: nothing of this app's left DRAM since the verification.
        self._app_eviction_epoch: dict[int, int] = {}
        #: Per app: the epoch at which the app was last *verified* fully
        #: resident (every one of its pages in DRAM).
        self._resident_verified_epoch: dict[int, int] = {}
        #: Per app: how many of its pages are currently *not* resident
        #: (stored + staged + lost).  Maintained exactly at every
        #: residency transition; reaching zero re-verifies the app at
        #: the current epoch.  ``tests/test_invariants.py`` holds it
        #: against a ground-truth recompute under randomized sequences.
        self._nonresident_pages: dict[int, int] = {}
        #: Batch-replay observability (profiling, not simulation state):
        #: batches served entirely by the epoch fast path, and per-page
        #: residency probes the run-splitting fallback performed.
        self.epoch_skips = 0
        self.residency_probes = 0
        self._organizers: dict[int, DataOrganizer] = {}
        #: Recency order over apps: first key is least recently used.
        self._app_lru: OrderedDict[int, None] = OrderedDict()
        self._stored_by_pfn: dict[int, StoredChunk] = {}
        self._chunks: OrderedDict[int, StoredChunk] = OrderedDict()
        self._by_zpool_handle: dict[int, StoredChunk] = {}
        self._chunk_seq = 0
        self._foreground_uid: int | None = None
        #: Lost (dropped) pages: pfn -> owning uid.  The uid lets the
        #: runtime auditor recompute per-app non-resident ground truth
        #: without a trace; membership tests read like the old set.
        self._lost_pfns: dict[int, int] = {}
        #: Opt-in runtime invariant auditor (``REPRO_AUDIT=1``); ``None``
        #: in normal runs, so the only steady-state cost is one ``is
        #: None`` test per kswapd wakeup.
        self._auditor = auditor_from_env()
        #: Memory-pressure lifecycle plan (:mod:`repro.lmk`); ``None``
        #: keeps every pressure hook a single ``is None`` test, so
        #: pressure-off runs stay bit-identical.
        self._pressure = None
        #: Page runs in compression order, expanded lazily by
        #: :attr:`compression_log` (the Figure 4 measurement).  Storing
        #: the chunk's page tuple is O(1) per eviction; the per-page
        #: ``(uid, true_hotness)`` expansion is paid once per report
        #: read, and ``true_hotness`` is immutable ground truth, so the
        #: deferred read equals the eager log entry for entry.
        self._compression_log_runs: list[tuple[Page, ...]] = []
        #: (uid, zpool sector) per zpool fault in access order (the
        #: Table 3 locality measurement).
        self.sector_access_log: list[tuple[int, int]] = []

    # ------------------------------------------------------------------ setup

    @abstractmethod
    def _make_organizer(self, uid: int, hot_seed_limit: int) -> DataOrganizer:
        """Create this scheme's per-app resident-page organizer."""

    def register_app(self, uid: int, hot_seed_limit: int = 0) -> None:
        """Introduce an application to the scheme."""
        if uid in self._organizers:
            raise PageStateError(f"app {uid} already registered")
        self._organizers[uid] = self._make_organizer(uid, hot_seed_limit)
        self._app_lru[uid] = None
        # A freshly registered app owns no pages, so it is (vacuously)
        # fully resident at the current epoch; new allocations are born
        # resident and keep the verification valid until one of *its*
        # pages leaves DRAM and stamps a newer per-app epoch.
        self._nonresident_pages[uid] = 0
        self._app_eviction_epoch[uid] = 0
        self._resident_verified_epoch[uid] = self.eviction_epoch

    def organizer(self, uid: int) -> DataOrganizer:
        """The per-app organizer (raises for unknown apps)."""
        try:
            return self._organizers[uid]
        except KeyError:
            raise PageStateError(f"app {uid} is not registered") from None

    # -------------------------------------------------------------- accounting

    def _on_used_bytes_delta(self, delta: int) -> None:
        """Occupancy hook: DRAM/zpool usage moved by ``delta`` bytes."""
        self._free_dram_bytes -= delta
        self.accounting_updates += 1

    def free_dram_bytes(self) -> int:
        """Free DRAM under the shared resident+zpool budget (O(1)).

        The running counter is maintained by the occupancy hooks, so
        this never recomputes from the pools — reclaim loops probe the
        watermark at integer-compare cost.
        """
        self.watermark_probes += 1
        return self._free_dram_bytes

    def audit_free_dram_bytes(self) -> int:
        """From-scratch recompute of :meth:`free_dram_bytes`.

        Rebuilds the figure from the pools' own audited occupancy —
        the invariant tests assert the running counter equals this
        after arbitrary operation sequences.
        """
        used = self.ctx.dram.audit_used_bytes()
        if self.uses_zpool:
            used += self.ctx.zpool.audit_used_bytes()
        return self.ctx.platform.dram_bytes - used

    # ------------------------------------------------------- residency epochs

    def _detach_page(self, page: Page) -> None:
        """Take ``page`` out of DRAM and advance the eviction epoch.

        Every path on which a resident page leaves DRAM funnels through
        here so the epoch layer can never miss a residency loss: the
        owner's per-app stamp moves past every verification made so
        far, and its non-resident count grows so the app can only
        re-verify once every page is back.
        """
        self.ctx.dram.remove_page(page)
        self._nonresident_pages[page.uid] += 1
        self.eviction_epoch += 1
        self._app_eviction_epoch[page.uid] = self.eviction_epoch

    def _detach_pages(self, pages: list[Page]) -> None:
        """Batched :meth:`_detach_page`: same final state, one DRAM call.

        The epoch/stamp bookkeeping still runs per page (each uid's
        stamp lands on the epoch of its last detached page, exactly as
        the per-page walk leaves it); nothing probes residency between
        the individual detaches, so the single summed DRAM delta is
        unobservable.
        """
        if not pages:
            return
        self.ctx.dram.remove_pages(pages)
        nonresident = self._nonresident_pages
        app_epoch = self._app_eviction_epoch
        epoch = self.eviction_epoch
        for page in pages:
            uid = page.uid
            nonresident[uid] += 1
            epoch += 1
            app_epoch[uid] = epoch
        self.eviction_epoch = epoch

    def _bump_app_epoch(self, uid: int) -> None:
        """Conservatively invalidate ``uid``'s verifications (writeback,
        purge: no residency changed, but the epoch contract treats every
        residency-adjacent event as an invalidation — it only costs one
        cheap re-verification)."""
        self.eviction_epoch += 1
        self._app_eviction_epoch[uid] = self.eviction_epoch

    def _note_pages_resident(self, uid: int, count: int) -> None:
        """Record that ``count`` previously non-resident pages of ``uid``
        became resident again; at zero outstanding the app is fully
        resident and re-verifies at the current epoch."""
        remaining = self._nonresident_pages[uid] - count
        self._nonresident_pages[uid] = remaining
        if remaining == 0:
            self._resident_verified_epoch[uid] = self.eviction_epoch

    def _charge(self, thread: str, activity: str, ns: int) -> None:
        self.ctx.cpu.charge(thread, activity, ns)

    def _stall(self, ns: int) -> int:
        """Convert modeled work into critical-path stall time."""
        return max(0, ns // self.ctx.platform.parallelism)

    # ------------------------------------------------------------ app switching

    def note_app_switch(self, uid: int) -> None:
        """Record that the user switched to app ``uid`` (app-level LRU)."""
        if uid not in self._app_lru:
            raise PageStateError(f"app {uid} is not registered")
        self._app_lru.move_to_end(uid)
        self._foreground_uid = uid

    def begin_relaunch(self, uid: int) -> None:
        """Hook: a measured relaunch of ``uid`` is starting."""
        self.note_app_switch(uid)

    def end_relaunch(self, uid: int) -> None:
        """Hook: the measured relaunch of ``uid`` finished."""

    def end_launch(self, uid: int) -> None:
        """Hook: app ``uid``'s initial launch window has closed."""

    # -------------------------------------------------------------- allocation

    def on_pages_created(self, uid: int, pages: list[Page]) -> None:
        """An app allocated new anonymous pages (launch or execution).

        Allocation itself is not a measured path, so reclaim here is
        treated as background work (CPU charged, no stall returned).

        Batch admission, number-invariant by construction: when the
        whole batch fits above the high watermark, one check admits
        everything — the per-page reference would have evicted nothing
        either (free only shrinks by one page per admission, so every
        intermediate check passes too).  Under pressure the exact
        per-page reference walk runs, because eviction-victim selection
        may legitimately reach into this very batch (pages admitted a
        step earlier become candidates — e.g. the foreground app as the
        last-resort pool, or its cold list under Ariadne's global
        cold-first order), which no pre-batched walk can reproduce.
        """
        if not pages:
            return
        organizer = self.organizer(uid)
        ctx = self.ctx
        target_free = len(pages) * PAGE_SIZE + ctx.platform.high_watermark_bytes
        if self.free_dram_bytes() >= target_free:
            ctx.dram.add_pages(pages)
            organizer.add_page_run(pages)
        else:
            # The per-page reference walk admits pages while
            # free >= PAGE_SIZE + high_watermark and calls
            # _make_room(1) exactly when the check fails.  Admissions
            # between two reclaim points are pure state writes (no
            # reads the walk branches on), so admitting that whole
            # stretch as one batch reproduces the reference decision
            # sequence exactly: the next _make_room observes the same
            # free level at the same batch offset.  After _make_room
            # the reference admits one page unconditionally (it may
            # return with the watermark missed but the allocation
            # fitting), hence the max(fit, 1).
            high_wm = ctx.platform.high_watermark_bytes
            free = self.free_dram_bytes
            make_room = self._make_room
            add_resident_run = ctx.dram.add_pages
            add_to_lists_run = organizer.add_page_run
            i, count = 0, len(pages)
            while i < count:
                fit = (free() - high_wm) // PAGE_SIZE
                if fit <= 0:
                    make_room(1, direct=False, thread=KSWAPD)
                    fit = max((free() - high_wm) // PAGE_SIZE, 1)
                batch = pages[i : i + fit]
                add_resident_run(batch)
                add_to_lists_run(batch)
                i += len(batch)
        self._charge(APP, "list_ops", ctx.platform.list_op_ns * len(pages))

    # ----------------------------------------------------------------- access

    def access(self, page: Page, thread: str = APP) -> AccessResult:
        """Touch ``page``, faulting it in if necessary.

        The resident-hit path is checked first (a page is never both
        resident and staged, so the probe order is free) and kept lean:
        it is the single most frequent operation in any scenario run.
        """
        ctx = self.ctx
        if page.pfn in ctx.dram._resident:
            self._organizers[page.uid].on_access(page, ctx.clock.now_ns)
            ctx.cpu.charge(thread, "list_ops", ctx.platform.list_op_ns)
            return _DRAM_HIT
        staged = self._staging_hit(page)
        if staged is not None:
            return staged
        if page.pfn in self._lost_pfns:
            return self._access_lost(page, thread)
        chunk = self._stored_by_pfn.get(page.pfn)
        if chunk is None:
            raise PageStateError(
                f"page {page.pfn} is neither resident, staged, stored, nor lost"
            )
        try:
            return self._fault_in(page, chunk, thread)
        except (ChunkLostError, CorruptDataError):
            # Graceful degradation: the chunk became unreadable (injected
            # permanent flash error, exhausted retries, or a bit-flip the
            # digest check caught).  Its pages were marked lost when it
            # was dropped, so the access degrades to a counted cold
            # refault instead of crashing the run.
            self.ctx.counters.incr("fault_cold_refaults")
            return self._access_lost(page, thread)

    def access_batch(
        self, pages: list[Page], thread: str = APP
    ) -> AccessBatchSummary:
        """Touch a known sequence of pages; returns the aggregate summary.

        This default replays the batch one :meth:`access` at a time and
        is correct by construction for any scheme and any page list.
        Concrete schemes override it with :meth:`_access_batch_runs` (or
        a tighter specialization), which must leave *identical*
        simulator state and aggregate numbers —
        ``tests/test_access_batch.py`` holds the two paths against each
        other.
        """
        summary = AccessBatchSummary()
        add = summary.add_result
        access = self.access
        for page in pages:
            add(access(page, thread))
        return summary

    def _access_batch_runs(
        self, pages: list[Page], thread: str = APP
    ) -> AccessBatchSummary:
        """Fast batch path for a memoized single-app :class:`AccessRun`:
        epoch-verified runs and apps skip residency probes entirely;
        otherwise coalesce resident runs, fault singly.  Any other page
        list takes the per-page :meth:`access_batch` default.

        The epoch layer comes first: a run whose previous replay left
        every page resident, or an app verified fully resident, at an
        epoch no older than the app's last eviction stamp cannot fault —
        epochs advance whenever a page of the app leaves DRAM — so the
        batch (or its remainder) is serviced as one resident run with
        zero per-page membership probes.  Equivalence is by
        construction: the probes the fallback would have made were all
        guaranteed hits, and hits never change residency.  The moment
        one of the app's pages is evicted mid-batch (a fault's direct
        reclaim), its stamp moves and the verification check fails for
        the rest of the batch, forcing re-probe.

        Unverified stretches take the exact probing path.  Residency is
        probed against the organizer's ``list_id`` column — equivalent
        to the DRAM probe, since the lists cover exactly the app's
        resident pages (the ``_audit_lru_membership`` invariant) — and
        a run of resident pages is serviced with one shared zero-stall
        outcome (count bumps on the summary), one handle-array touch,
        and one CPU charge: exactly the sums the per-page loop produces,
        since hits never change residency, the clock is frozen across a
        replay, and CPU/list accounting is additive.  Every
        non-resident page falls back to the exact per-page
        :meth:`access`, because a fault may change the residency of
        *later* batch pages (chunk siblings materialize, staging fills,
        reclaim can evict) — so residency is re-probed from the faulted
        page onward.
        """
        if type(pages) is not AccessRun:
            return SwapScheme.access_batch(self, pages, thread)
        summary = AccessBatchSummary()
        n = len(pages)
        if n == 0:
            return summary
        ctx = self.ctx
        charge = ctx.cpu.charge
        list_op_ns = ctx.platform.list_op_ns
        uid = pages.uid
        app_epochs = self._app_eviction_epoch
        app_stamp = app_epochs[uid]
        organizer = self._organizers[uid]
        if pages.verified_epoch >= app_stamp:
            # Run-level fast path: the previous replay of this very run
            # ended with every page resident, and no page of this app
            # has left DRAM since — so the whole batch is one hit run.
            organizer.on_access_run(pages, ctx.clock.now_ns)
            charge(thread, "list_ops", list_op_ns * n)
            summary.add_hits(n)
            self.epoch_skips += 1
            return summary
        verified = self._resident_verified_epoch
        handles = organizer.run_handles(pages)
        i = 0
        while i < n:
            if verified[uid] >= app_epochs[uid]:
                # App-level fast path: the app was verified fully
                # resident (non-resident count zero) and none of its
                # pages left DRAM since, so the rest cannot miss.
                organizer._on_access_handles(
                    handles[i:] if i else handles, ctx.clock.now_ns
                )
                charge(thread, "list_ops", list_op_ns * (n - i))
                summary.add_hits(n - i)
                self.epoch_skips += 1
                break
            k = organizer.leading_resident(handles, i)
            if k:
                # Probes: one per page of the run, plus the failing
                # probe that terminated it (re-probed by the dispatch
                # above when the loop resumes there).
                self.residency_probes += k + (1 if i + k < n else 0)
                organizer._on_access_handles(
                    handles[i:i + k], ctx.clock.now_ns
                )
                charge(thread, "list_ops", list_op_ns * k)
                summary.add_hits(k)
                i += k
            else:
                self.residency_probes += 1
                summary.add_result(self.access(pages[i], thread))
                i += 1
        if app_epochs[uid] == app_stamp:
            # Every page of the run was (made) resident when touched,
            # and no page of this app left DRAM at any point during the
            # batch — so all of them are resident *now*: stamp the run
            # verified for its next replay.  A mid-batch same-app
            # eviction (a fault's direct reclaim reaching into this
            # app) moved the app stamp and leaves the run unverified.
            pages.verified_epoch = self.eviction_epoch
        return summary

    def _staging_hit(self, page: Page) -> AccessResult | None:
        """Hook for PreDecomp's staging buffer (Ariadne overrides)."""
        return None

    def _access_lost(self, page: Page, thread: str) -> AccessResult:
        """Access to data the scheme dropped (app was terminated).

        The real system would pay a full cold launch; we charge the
        fault path and re-materialize the page, and count the event so
        experiments can report termination rates.
        """
        platform = self.ctx.platform
        self.ctx.counters.incr("lost_page_accesses")
        if self._pressure is not None:
            self._pressure.note_refault(1)
        stall = self._make_room(1, direct=True, thread=thread)
        fault_ns = platform.fault_overhead_ns * platform.scale
        self._charge(thread, "fault", fault_ns // 4)
        stall += self._stall(fault_ns)
        self._lost_pfns.pop(page.pfn, None)
        self.ctx.dram.add_page(page)
        self._note_pages_resident(page.uid, 1)
        organizer = self.organizer(page.uid)
        organizer.add_page(page)
        organizer.on_access(page, self.ctx.clock.now_ns)
        breakdown = LatencyBreakdown(other_ns=stall)
        return AccessResult(stall_ns=stall, source=PageLocation.DRAM,
                            breakdown=breakdown)

    @abstractmethod
    def _fault_in(self, page: Page, chunk: StoredChunk, thread: str) -> AccessResult:
        """Service a fault for a stored page."""

    # ----------------------------------------------------------------- reclaim

    def background_reclaim(self) -> None:
        """kswapd: restore the high watermark without stalling anyone.

        Every wakeup also shrinks the file LRU (kswapd balances both
        LRUs), so a fixed batch of file-writeback CPU is charged per
        wakeup for every scheme — the common floor under the per-scheme
        anonymous-reclaim costs in Figure 3.
        """
        platform = self.ctx.platform
        file_ns = (
            platform.file_writeback_ns
            * platform.kswapd_batch_pages
            * platform.scale
        )
        self._charge(KSWAPD, "file_writeback", file_ns)
        self.ctx.counters.incr("file_pages_written", platform.kswapd_batch_pages)
        self._make_room(0, direct=False, thread=KSWAPD)
        if self._pressure is not None:
            self._pressure.on_kswapd(self)
        if self._auditor is not None:
            self._auditor.checkpoint(self)

    def _make_room(self, incoming_pages: int, direct: bool, thread: str) -> int:
        """Ensure room for ``incoming_pages`` plus the watermark; returns stall.

        Background mode restores the high watermark; direct mode only
        clears the low watermark (the kernel's direct-reclaim exit
        condition) so faulting paths do the minimum synchronous work.
        """
        platform = self.ctx.platform
        target_free = incoming_pages * PAGE_SIZE + (
            platform.low_watermark_bytes
            if direct
            else platform.high_watermark_bytes
        )
        stall_total = 0
        guard = 0
        while self.free_dram_bytes() < target_free:
            victim = self._pop_victim()
            if victim is None:
                if self.free_dram_bytes() >= incoming_pages * PAGE_SIZE:
                    break  # watermark missed but the allocation itself fits
                if self._pressure is not None and self._pressure.emergency_relief(
                    self
                ):
                    # Policied hard-exhaustion fallback (emergency kill
                    # or counted drop) made progress; re-probe.
                    guard += 1
                    if guard > 1_000_000:
                        raise MemoryPressureError(
                            "reclaim loop failed to make progress"
                        )
                    continue
                raise MemoryPressureError(
                    "reclaim found no victims and the allocation does not fit"
                )
            stall_ns = self._evict(victim, thread)
            if direct:
                stall_total += stall_ns
            guard += 1
            if guard > 1_000_000:
                raise MemoryPressureError("reclaim loop failed to make progress")
        if direct and stall_total and self._pressure is not None:
            self._pressure.note_stall(stall_total)
        return stall_total

    def _pop_victim(self) -> Page | None:
        """Next page to reclaim: least-recent app first, foreground last."""
        candidates = [uid for uid in self._app_lru if uid != self._foreground_uid]
        if self._foreground_uid is not None:
            # The foreground app is reclaimed from only as a last resort.
            candidates.append(self._foreground_uid)
        for uid in candidates:
            organizer = self._organizers.get(uid)
            if organizer is not None and organizer.has_victims():
                return self._pop_victim_from(organizer)
        return None

    def _pop_victim_from(self, organizer: DataOrganizer) -> Page:
        """Detach the next victim from one organizer (and from DRAM)."""
        page = organizer.pop_victim()
        self._detach_page(page)
        return page

    def force_compress_app(self, uid: int, exclude_hot: bool = False) -> None:
        """Evict an app's resident data (the EHL/AL relaunch setups).

        With ``exclude_hot`` the hot list stays resident (EHL); otherwise
        everything is compressed/swapped (AL).  Runs as background work.
        """
        organizer = self.organizer(uid)
        while True:
            if exclude_hot and not self._has_non_hot_victims(organizer):
                break
            if not organizer.has_victims():
                break
            page = self._pop_victim_from(organizer)
            self._evict(page, KSWAPD)

    def _has_non_hot_victims(self, organizer: DataOrganizer) -> bool:
        """Whether eviction can proceed without touching hot data."""
        checker = getattr(organizer, "has_non_hot_victims", None)
        if checker is not None:
            return checker()
        return organizer.has_victims()

    @abstractmethod
    def _evict(self, page: Page, thread: str) -> int:
        """Move one page out of DRAM; returns the synchronous cost in ns.

        The page has already been detached from DRAM and its organizer.
        """

    # ------------------------------------------------------- chunk bookkeeping

    def _next_chunk_id(self) -> int:
        self._chunk_seq += 1
        return self._chunk_seq

    @property
    def compression_log(self) -> list[tuple[int, "Hotness"]]:
        """(uid, ground-truth hotness) per page in compression order."""
        return [
            (page.uid, page.true_hotness)
            for run in self._compression_log_runs
            for page in run
        ]

    def _register_chunk(self, chunk: StoredChunk) -> None:
        self._chunks[chunk.chunk_id] = chunk
        for page in chunk.pages:
            self._stored_by_pfn[page.pfn] = chunk
        self._compression_log_runs.append(chunk.pages)

    def _unregister_chunk(self, chunk: StoredChunk) -> None:
        self._chunks.pop(chunk.chunk_id, None)
        if chunk.zpool_handle is not None:
            self._by_zpool_handle.pop(chunk.zpool_handle, None)
        for page in chunk.pages:
            self._stored_by_pfn.pop(page.pfn, None)

    def chunk_by_zpool_handle(self, handle: int) -> StoredChunk | None:
        """Live chunk stored under a zpool handle, if any."""
        return self._by_zpool_handle.get(handle)

    def stored_chunks(self) -> list[StoredChunk]:
        """Live stored chunks in storage order."""
        return list(self._chunks.values())

    def stored_page_count(self) -> int:
        """Number of pages currently swapped out."""
        return len(self._stored_by_pfn)

    def hotness_estimate(self, page: Page) -> Hotness:
        """The scheme's current belief about ``page``'s hotness."""
        if self.ctx.dram.is_resident(page):
            return self.organizer(page.uid).hotness_estimate(page)
        chunk = self._stored_by_pfn.get(page.pfn)
        if chunk is not None:
            return chunk.hotness_at_compress
        return Hotness.COLD

    # -------------------------------------------------------- shared evict path

    def _zpool_lane(self, uid: int, hotness: Hotness) -> int:
        """Sector lane for a chunk.  Android groups compressed data by
        application (Section 5), so the baseline keeps one lane per app;
        Ariadne refines this per hotness level (see
        :meth:`repro.core.ariadne.AriadneScheme._zpool_lane`)."""
        return uid % 1024

    def _compress_and_store(
        self,
        pages: list[Page],
        chunk_size: int,
        hotness: Hotness,
        thread: str,
    ) -> tuple[StoredChunk | None, int]:
        """Compress ``pages`` at ``chunk_size`` into the zpool.

        Returns (chunk, synchronous latency ns).  The caller has already
        removed the pages from DRAM/organizer.  If the zpool is full the
        scheme-specific overflow hook runs first; with a pressure plan
        installed, a still-full zpool becomes a counted admission
        refusal (pages lost, ``(None, 0)`` returned) instead of an
        unhandled :class:`~repro.errors.ZpoolFullError`.
        """
        ctx = self.ctx
        platform = ctx.platform
        # Page payloads are always PAGE_SIZE bytes, so every payload-
        # length figure is computable without concatenating; the size
        # cache's page-run front door only builds the payload on a
        # first-seen chunk group (see SizeCache.compressed_size_of_pages).
        span = PAGE_SIZE * len(pages)
        stored = ctx.compressed_size_of_pages(pages, chunk_size)
        while not ctx.zpool.has_room_for(stored):
            if self._pressure is not None:
                # The plan owns the lossy step: lossless relief first,
                # then its policy (kill / counted drop) decides.
                if self._pressure.zpool_relief(self):
                    continue
                break
            if self._relieve_zpool():
                continue
            break
        if self._pressure is not None and not ctx.zpool.has_room_for(stored):
            # Admission refusal: the zpool cannot take this chunk even
            # after relief — drop the pages with full accounting rather
            # than raise mid-eviction.
            self._pressure.note_refusal(len(pages))
            for page in pages:
                self._lost_pfns[page.pfn] = page.uid
            self._bump_app_epoch(pages[0].uid)
            ctx.counters.incr("pressure_admission_refusals")
            ctx.counters.incr("pressure_pages_refused", len(pages))
            ctx.counters.incr("pages_lost", len(pages))
            return None, 0
        comp_ns = platform.scale * ctx.latency.compress_ns(
            ctx.codec.name, span, chunk_size
        )
        self._charge(thread, "compress", comp_ns)
        counts = ctx.counters.mutable()
        counts["pages_compressed"] += len(pages)
        counts["compress_ops"] += 1
        counts["dram_bytes_moved"] += 2 * span * platform.scale
        entry = ctx.zpool.store(stored, lane=self._zpool_lane(pages[0].uid, hotness))
        chunk = StoredChunk(
            chunk_id=self._next_chunk_id(),
            uid=pages[0].uid,
            pages=tuple(pages),
            chunk_size=chunk_size,
            codec_name=ctx.codec.name,
            stored_bytes=stored,
            hotness_at_compress=hotness,
            location=PageLocation.ZPOOL,
            zpool_handle=entry.handle,
            sector=entry.sector,
        )
        for page in pages:
            page.location = PageLocation.ZPOOL
        plan = ctx.fault_plan
        if plan is not None and plan.corrupt_on_store():
            chunk.corrupted = True
        self._register_chunk(chunk)
        self._by_zpool_handle[entry.handle] = chunk
        counts["bytes_original"] += span
        counts["bytes_stored"] += stored
        return chunk, self._stall(comp_ns)

    def _relieve_zpool_lossless(self) -> bool:
        """Non-destructive response to zpool pressure; returns progress.

        The base schemes have none (no flash writeback path); Ariadne
        overrides this with its cold-first writeback.  An installed
        pressure plan tries this before its lossy policy step.
        """
        return False

    def _relieve_zpool(self) -> bool:
        """Scheme-specific response to zpool pressure; returns progress."""
        if self._relieve_zpool_lossless():
            return True
        return self._drop_oldest_chunk()

    def _drop_oldest_chunk(self) -> bool:
        """ZRAM's last resort: delete the oldest compressed data.

        Deleting a process's anonymous data terminates it (Section 2.2);
        we count the event and mark the pages lost.
        """
        for chunk in self._chunks.values():
            if chunk.in_zpool:
                self.ctx.zpool.free(chunk.zpool_handle)
                self._unregister_chunk(chunk)
                for page in chunk.pages:
                    self._lost_pfns[page.pfn] = page.uid
                # Purge conservatively advances the owner's epoch (the
                # pages were already non-resident, but a dropped chunk
                # is a residency-adjacent event the fast path respects).
                self._bump_app_epoch(chunk.uid)
                self.ctx.counters.incr("chunks_dropped")
                self.ctx.counters.incr("pages_lost", chunk.page_count)
                return True
        return False

    # --------------------------------------------------------- low-memory kill

    def app_has_reclaimable(self, uid: int) -> bool:
        """Whether killing ``uid`` would free any memory at all.

        The low-memory killer skips apps this returns ``False`` for —
        killing them frees nothing, so selecting one could stall the
        emergency-relief loop without making progress.
        """
        organizer = self._organizers.get(uid)
        if organizer is not None and organizer.resident_count() > 0:
            return True
        return any(chunk.uid == uid for chunk in self._chunks.values())

    def _purge_staged(self, uid: int) -> int:
        """Hook: drop ``uid``'s pre-decompressed pages (Ariadne overrides);
        returns how many pages were purged."""
        return 0

    def terminate_app(self, uid: int) -> int:
        """Low-memory kill: tear down every trace of ``uid``'s data.

        Resident pages leave DRAM through :meth:`_detach_page` (the
        epoch layer can never miss a residency loss), stored chunks
        release their zpool handle or swap slot, staged pages are
        purged, and everything joins :attr:`_lost_pfns` — the same
        bookkeeping contract as :meth:`_drop_oldest_chunk`, so the
        runtime auditor's ground truth stays balanced.  The app stays
        registered: a later relaunch is a cold launch of the same uid,
        charged ``process_create_ns`` by the system layer.  Returns the
        number of pages freed.
        """
        ctx = self.ctx
        organizer = self.organizer(uid)
        pages_freed = 0
        while organizer.has_victims():
            page = organizer.pop_victim()
            self._detach_page(page)
            self._lost_pfns[page.pfn] = uid
            pages_freed += 1
        pages_freed += self._purge_staged(uid)
        for chunk in [c for c in self._chunks.values() if c.uid == uid]:
            if chunk.in_flash and chunk.flash_slot is not None:
                ctx.flash_swap.free(chunk.flash_slot)
            elif chunk.in_zpool and chunk.zpool_handle is not None:
                ctx.zpool.free(chunk.zpool_handle)
            self._unregister_chunk(chunk)
            for page in chunk.pages:
                self._lost_pfns[page.pfn] = uid
            pages_freed += chunk.page_count
        self._bump_app_epoch(uid)
        ctx.counters.incr("lmk_kills")
        ctx.counters.incr("lmk_pages_killed", pages_freed)
        ctx.counters.incr("pages_lost", pages_freed)
        return pages_freed

    # ---------------------------------------------------------- fault recovery

    def _flash_load_with_retry(
        self, chunk: StoredChunk, thread: str
    ) -> tuple[object, int, int]:
        """Read ``chunk``'s swap slot, absorbing injected flash faults.

        Returns ``(slot, read_ns, backoff_ns)`` — ``backoff_ns`` is the
        retry wait the caller adds to the stall.  Transient errors are
        retried up to the plan's budget with doubling backoff (charged
        as CPU too); a permanent error or an exhausted budget drops the
        chunk (pages lost, epoch bumped) and raises
        :class:`ChunkLostError`, which the access dispatcher turns into
        a counted cold refault.  Without a fault plan this is exactly
        one ``flash_swap.load``.
        """
        ctx = self.ctx
        plan = ctx.fault_plan
        if plan is None:
            slot, read_ns = ctx.flash_swap.load(chunk.flash_slot)
            return slot, read_ns, 0
        counters = ctx.counters
        failed = 0
        backoff_total = 0
        while True:
            try:
                slot, read_ns = ctx.flash_swap.load(chunk.flash_slot)
            except TransientFlashError:
                counters.incr("fault_flash_read_transient")
                failed += 1
                if failed > plan.max_retries:
                    counters.incr("fault_transient_abandoned", failed)
                    self._drop_unreadable_chunk(chunk, "flash_io")
                    raise ChunkLostError(
                        f"chunk {chunk.chunk_id} (uid {chunk.uid}): flash "
                        f"read still failing after {plan.max_retries} retries"
                    ) from None
                wait_ns = plan.backoff_ns(failed)
                self._charge(thread, "fault_retry", wait_ns)
                backoff_total += wait_ns
                counters.incr("fault_io_retries")
            except PermanentFlashError:
                counters.incr("fault_flash_read_permanent")
                if failed:
                    counters.incr("fault_transient_abandoned", failed)
                self._drop_unreadable_chunk(chunk, "flash_io")
                raise ChunkLostError(
                    f"chunk {chunk.chunk_id} (uid {chunk.uid}): permanent "
                    "flash read error"
                ) from None
            else:
                if failed:
                    counters.incr("fault_transient_recovered", failed)
                return slot, read_ns, backoff_total

    def _flash_store_with_retry(
        self, nbytes: int, sequential: bool, thread: str, store=None
    ) -> tuple[object, int, int] | None:
        """Store ``nbytes`` to swap, absorbing injected flash faults.

        Returns ``(slot, write_ns, backoff_ns)``, or ``None`` when the
        write unrecoverably failed (permanent error or retry budget
        exhausted) — the caller degrades scheme-specifically (SWAP marks
        the page lost; Ariadne's writeback just reports no progress).
        :class:`~repro.errors.FlashFullError` propagates unchanged:
        capacity exhaustion is policy, not a fault.  ``store`` overrides
        the write call itself (zswap passes its batched contiguous-slot
        store; the ``slot`` position of the return then carries the slot
        tuple) — it must leak nothing on a raised fault so a retry is an
        exact re-execution, which ``FlashSwapArea`` guarantees by
        writing the device before allocating slots.  Without a fault
        plan this is exactly one store call.
        """
        ctx = self.ctx
        if store is None:
            store = lambda: ctx.flash_swap.store(  # noqa: E731
                nbytes, sequential=sequential
            )
        plan = ctx.fault_plan
        if plan is None:
            slot, write_ns = store()
            return slot, write_ns, 0
        counters = ctx.counters
        failed = 0
        backoff_total = 0
        while True:
            try:
                slot, write_ns = store()
            except TransientFlashError:
                counters.incr("fault_flash_write_transient")
                failed += 1
                if failed > plan.max_retries:
                    counters.incr("fault_transient_abandoned", failed)
                    counters.incr("fault_write_gave_up")
                    return None
                wait_ns = plan.backoff_ns(failed)
                self._charge(thread, "fault_retry", wait_ns)
                backoff_total += wait_ns
                counters.incr("fault_io_retries")
            except PermanentFlashError:
                counters.incr("fault_flash_write_permanent")
                if failed:
                    counters.incr("fault_transient_abandoned", failed)
                return None
            else:
                if failed:
                    counters.incr("fault_transient_recovered", failed)
                return slot, write_ns, backoff_total

    def _drop_unreadable_chunk(self, chunk: StoredChunk, reason: str) -> None:
        """Degrade: release an unreadable chunk and mark its pages lost.

        The backing storage is freed (the data is gone either way; the
        accounting must not leak), the pages join :attr:`_lost_pfns` so
        the next access cold-refaults them, and the owner's eviction
        epoch advances — exactly the bookkeeping contract of
        :meth:`_drop_oldest_chunk`, plus the ``fault_*`` recovery
        counters (``reason`` is ``"flash_io"`` or ``"corrupt"``).
        """
        ctx = self.ctx
        if chunk.in_flash and chunk.flash_slot is not None:
            ctx.flash_swap.free(chunk.flash_slot)
        elif chunk.in_zpool and chunk.zpool_handle is not None:
            ctx.zpool.free(chunk.zpool_handle)
        self._unregister_chunk(chunk)
        for page in chunk.pages:
            self._lost_pfns[page.pfn] = page.uid
        self._bump_app_epoch(chunk.uid)
        counters = ctx.counters
        counters.incr("fault_chunks_dropped")
        counters.incr(f"fault_dropped_{reason}")
        counters.incr("pages_lost", chunk.page_count)

    def _decompress_chunk(
        self, chunk: StoredChunk, faulted: Page, thread: str
    ) -> tuple[int, LatencyBreakdown]:
        """Decompress a chunk for a faulting page; returns (stall, breakdown).

        Sub-page chunks decompress only the faulted page's own sub-chunks;
        multi-page chunks decompress everything they cover.
        """
        ctx = self.ctx
        platform = ctx.platform
        if chunk.corrupted:
            # The stored payload fails its content-digest check: drop it
            # rather than deliver corrupt data.  The access dispatcher
            # turns this into a counted cold refault.
            self._drop_unreadable_chunk(chunk, "corrupt")
            raise CorruptDataError(
                f"chunk {chunk.chunk_id} (uid {chunk.uid}, "
                f"{chunk.page_count} pages) failed its digest check"
            )
        breakdown = LatencyBreakdown()
        stall = 0
        if chunk.in_flash:
            slot, read_ns, backoff_ns = self._flash_load_with_retry(chunk, thread)
            ctx.flash_swap.free(chunk.flash_slot)
            ctx.counters.incr("flash_reads")
            read_stall = read_ns // platform.flash_queue_depth
            stall += read_stall + backoff_ns
            breakdown.flash_read_ns += read_stall
            breakdown.other_ns += backoff_ns
            self._charge(thread, "flash_read", platform.swap_submit_ns * platform.scale)
        else:
            self.sector_access_log.append((faulted.uid, chunk.sector))
            ctx.zpool.free(chunk.zpool_handle)
        if chunk.chunk_size > PAGE_SIZE:
            span = chunk.page_count * PAGE_SIZE
        else:
            span = PAGE_SIZE
        decomp_ns = platform.scale * ctx.latency.decompress_ns(
            chunk.codec_name, span, chunk.chunk_size
        )
        self._charge(thread, "decompress", decomp_ns)
        ctx.counters.incr("pages_decompressed", chunk.page_count)
        ctx.counters.incr("decompress_ops")
        ctx.counters.incr("dram_bytes_moved", 2 * span * platform.scale)
        stall += self._stall(decomp_ns)
        breakdown.decompress_ns += self._stall(decomp_ns)
        self._unregister_chunk(chunk)
        return stall, breakdown

    def _admit_pages(
        self,
        chunk: StoredChunk,
        faulted: Page,
        thread: str,
    ) -> tuple[int, LatencyBreakdown]:
        """Make a decompressed chunk's pages resident; returns (stall, bd)."""
        platform = self.ctx.platform
        breakdown = LatencyBreakdown()
        room_stall = self._make_room(chunk.page_count, direct=True, thread=thread)
        breakdown.compress_ns += room_stall  # on-demand compression stalls
        fault_ns = platform.fault_overhead_ns * platform.scale
        # Most of the fault path is waiting (IRQ/device), not busy CPU:
        # the full cost stalls the app, a quarter of it burns cycles.
        self._charge(thread, "fault", fault_ns // 4)
        fault_stall = self._stall(fault_ns)
        breakdown.other_ns += fault_stall
        organizer = self.organizer(chunk.uid)
        admitted = list(chunk.pages)
        self.ctx.dram.add_pages(admitted)
        organizer.add_page_run(admitted)
        self._note_pages_resident(chunk.uid, chunk.page_count)
        organizer.on_access(faulted, self.ctx.clock.now_ns)
        self.ctx.counters.incr("pages_swapped_in", chunk.page_count)
        if self._pressure is not None:
            self._pressure.note_refault(chunk.page_count)
        return room_stall + fault_stall, breakdown
