"""Per-application data organizers: how resident anonymous pages are
grouped and in what order they are offered up for reclaim.

Two organizers are provided:

- :class:`ActiveInactiveOrganizer` — the stock kernel's two-list scheme
  (new pages start inactive; a touch promotes to active; reclaim pops the
  inactive tail, refilling it from the active tail).  This is the policy
  whose hotness-blindness Figure 4 of the paper demonstrates.
- :class:`HotWarmColdOrganizer` — the tri-list substrate of Ariadne's
  HotnessOrg (Section 4.2): hotness initialization at first launch,
  hotness update at relaunch boundaries, and cold -> warm -> hot eviction
  order.

Both organizers only manipulate list membership — no data moves — which
is why HotnessOrg is "low overhead" (Section 6.4).  The
``list_operations`` counter lets experiments charge the (tiny) CPU cost
of those manipulations.

Representation
--------------

Per-page metadata lives in flat numpy columns of a per-organizer
:class:`HandleTable`, indexed by a dense integer *handle*; the LRU lists
are index-linked views over those columns
(:class:`repro.mem.lru.IndexLruList`), and run-shaped operations
(``on_access_run``, ``add_page_run``, ``end_relaunch``) are vectorized
kernels over handle arrays.  Every operation leaves the same final list
order and bumps ``list_operations`` by the same count as the plain
per-page organizers in ``tests/reference_organizers.py``, which the
differential tests hold these against.

The relaunch *touched-page journal* replaces a whole-list
``end_relaunch`` scan: every access during a relaunch appends its
handles to an order-preserving journal, and the hotness update promotes
exactly ``journal ∩ warm`` then ``journal ∩ cold``, each sorted by live
position — which *is* that list's LRU order, so the promotion order
(and hence the final hot-list order) matches a full warm-then-cold
scan.  Stale-hot demotion uses the per-handle relaunch generation stamp
instead of an accessed set: journaled handles all carry the current
generation, demoted ones never do, so the two selections are disjoint.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterator

import numpy as _np

from ..errors import InvariantViolationError, PageStateError
from .lru import NO_LIST, IndexLruList
from .page import Hotness, Page

#: List ids of the tri-list organizer (``Hotness.rank`` order).
HOT_ID, WARM_ID, COLD_ID = 0, 1, 2
#: List ids of the two-list organizer.
ACTIVE_ID, INACTIVE_ID = 0, 1

#: Residency-probe block size for :meth:`DataOrganizer.leading_resident`:
#: large enough that most replay runs are probed in one numpy call, small
#: enough to bound the work a fault-heavy run repeats per fault.
_PROBE_BLOCK = 1024

#: Run length below which the access kernels fall back to a per-page
#: loop over the columns — the vectorized path's fixed setup cost
#: (~10 us of temp arrays) loses to the loop on short runs.
_SMALL_KERNEL = 12


class HandleTable:
    """Dense pfn -> handle map plus the flat per-page metadata columns.

    One table per organizer (pages never change apps, and per-app
    tables keep handles dense over exactly the pages the organizer can
    ever see).  Handles are append-only: a page keeps its handle for
    the organizer's lifetime, across eviction and refault, so handle
    arrays cached on :class:`repro.metrics.AccessRun` replays stay
    valid.  Columns (all parallel, indexed by handle):

    - ``list_id``: which LRU list the page is on (``NO_LIST`` when
      evicted/absent) — doubling as the organizer-residency bit the
      batch replay probes.
    - ``pos``: slot in that list's append-order array (see
      :class:`repro.mem.lru.IndexLruList`).
    - ``stamp``: relaunch generation of the last access (the
      ``end_relaunch`` demotion predicate).
    """

    __slots__ = ("index", "pages", "list_id", "pos", "stamp")

    def __init__(self, capacity: int = 64) -> None:
        self.index: dict[int, int] = {}
        self.pages: list[Page] = []
        capacity = max(16, capacity)
        self.list_id = _np.full(capacity, NO_LIST, dtype=_np.int8)
        self.pos = _np.zeros(capacity, dtype=_np.int64)
        self.stamp = _np.zeros(capacity, dtype=_np.int64)

    def __len__(self) -> int:
        return len(self.pages)

    def _grow(self, need: int) -> None:
        capacity = self.list_id.shape[0]
        while capacity < need:
            capacity *= 2

        def regrown(column, fill):
            out = _np.full(capacity, fill, dtype=column.dtype)
            out[: column.shape[0]] = column
            return out

        self.list_id = regrown(self.list_id, NO_LIST)
        self.pos = regrown(self.pos, 0)
        self.stamp = regrown(self.stamp, 0)

    def ensure(self, page: Page) -> int:
        """Handle of ``page``, allocating one on first sight."""
        h = self.index.get(page.pfn)
        if h is None:
            h = len(self.pages)
            if h >= self.list_id.shape[0]:
                self._grow(h + 1)
            self.index[page.pfn] = h
            self.pages.append(page)
        return h

    def handles_for(self, pages) -> "_np.ndarray":
        """Handle array for a sized page sequence (allocating as needed)."""
        index = self.index
        try:
            return _np.fromiter(
                (index[page.pfn] for page in pages),
                dtype=_np.int64,
                count=len(pages),
            )
        except KeyError:
            # Allocating pass, with ensure() inlined: probe the index
            # once per page, defer the column growth to a single
            # _grow() after the batch (nothing touches the columns
            # until the handles are returned).
            get = index.get
            pages_list = self.pages
            page_append = pages_list.append
            nxt = len(pages_list)
            handles: list[int] = []
            append = handles.append
            for page in pages:
                h = get(page.pfn)
                if h is None:
                    h = nxt
                    index[page.pfn] = h
                    page_append(page)
                    nxt += 1
                append(h)
            if nxt > self.list_id.shape[0]:
                self._grow(nxt)
            return _np.array(handles, dtype=_np.int64)


class DataOrganizer(ABC):
    """Owns the resident-page lists of one application.

    Holds the app's :class:`HandleTable` and the machinery both
    organizers share over it: handle arrays for replay runs, residency
    probes, removal, and the self-consistency audit.  Subclasses define
    their lists (:meth:`_views`, indexed by list id) and the policy.
    """

    def __init__(self, uid: int) -> None:
        self.uid = uid
        #: Count of individual LRU-list manipulations (for CPU accounting).
        self.list_operations = 0
        self._table = HandleTable()
        #: Vectorized-touch kernel invocations / pages (profiling).
        self.kernel_batches = 0
        self.kernel_pages = 0
        #: Journal-bounded relaunch promotion scans / candidate handles.
        self.journal_scans = 0
        self.journal_candidates = 0

    @abstractmethod
    def _views(self) -> tuple[IndexLruList, ...]:
        """The organizer's lists, indexed by list id."""

    @abstractmethod
    def add_page(self, page: Page) -> None:
        """Register a newly resident page."""

    @abstractmethod
    def add_page_run(self, pages: list[Page]) -> None:
        """Register a batch of newly resident pages, in order.

        Semantically identical to calling :meth:`add_page` per page,
        implemented as bulk list inserts.
        """

    @abstractmethod
    def on_access(self, page: Page) -> None:
        """Record an access to a resident page (may promote it)."""

    def on_access_run(self, pages: list[Page]) -> None:
        """Record an in-order run of accesses to resident pages.

        Semantically identical to calling :meth:`on_access` once per
        page in order — same final list states, same ``list_operations``
        count — but one vectorized kernel over the run's handle array,
        which is what makes batched access replay cheap.
        """
        self._on_access_handles(self.run_handles(pages))

    @abstractmethod
    def _on_access_handles(self, handles) -> None:
        """:meth:`on_access_run` over a resident handle array."""

    @abstractmethod
    def pop_victim(self) -> Page:
        """Remove and return the next page this policy would reclaim."""

    @abstractmethod
    def has_victims(self) -> bool:
        """Whether any resident page remains to reclaim."""

    @abstractmethod
    def hotness_estimate(self, page: Page) -> Hotness:
        """The organizer's belief about a resident page's hotness."""

    @abstractmethod
    def resident_pages(self) -> Iterator[Page]:
        """Iterate over all resident pages (no particular order)."""

    @abstractmethod
    def resident_count(self) -> int:
        """Number of resident pages."""

    def remove_page(self, page: Page) -> None:
        """Drop a page from all lists (it is being reclaimed).

        The ``list_id`` column names the holding list directly, so
        removal is one index lookup plus one column write.
        """
        table = self._table
        h = table.index.get(page.pfn)
        lid = -1 if h is None else int(table.list_id[h])
        if lid < 0:
            raise PageStateError(
                f"page {page.pfn} not resident in app {self.uid}"
            )
        table.list_id[h] = NO_LIST
        self._views()[lid]._count -= 1
        self.list_operations += 1

    # -- batch replay support -------------------------------------------------

    def run_handles(self, pages) -> "_np.ndarray":
        """Handle array for a replay run, memoized on ``AccessRun``s.

        An :class:`repro.metrics.AccessRun` is memoized per app per
        system and this organizer is that system's only organizer for
        the app, so caching the handle array on the run is safe —
        handles are stable for the organizer's lifetime.
        """
        handles = getattr(pages, "columnar_handles", None)
        if handles is not None:
            return handles
        cache = getattr(pages, "handle_cache", None)
        if cache is not None:
            # Cross-system share: another system built from the same
            # trace already computed this run's handle array, and
            # first-touch order (launch creation order) makes handle
            # assignment a pure function of the trace — so the numbers
            # agree.  Verify the endpoints against this table before
            # trusting the entry: a run from a different table lineage
            # (hand-built organizer, disagreeing pfn set) falls through
            # to a fresh computation instead of silently misindexing.
            host, key = cache
            shared = host.get(key)
            if shared is not None and len(pages):
                index_get = self._table.index.get
                if (
                    index_get(pages[0].pfn) == shared.item(0)
                    and index_get(pages[-1].pfn) == shared.item(-1)
                ):
                    pages.columnar_handles = shared
                    return shared
        handles = self._table.handles_for(pages)
        try:
            pages.columnar_handles = handles
        except AttributeError:  # plain list: nowhere to memoize
            pass
        if cache is not None:
            cache[0][cache[1]] = handles
        return handles

    def leading_resident(self, handles, start: int) -> int:
        """Length of the organizer-resident prefix of ``handles[start:]``.

        Organizer membership (``list_id != NO_LIST``) is equivalent to
        DRAM residency at batch-replay probe points — the
        ``_audit_lru_membership`` invariant — so this replaces per-page
        ``pfn in dram._resident`` probes.  Blockwise so a fault-heavy
        run re-probes at most one block per fault, not its whole
        remainder.
        """
        list_id = self._table.list_id
        n = handles.shape[0]
        i = start
        k = 0
        if n - i <= 24:
            # Short remainder: scalar probes undercut the fancy-index
            # block's fixed temp-array cost.
            list_item = list_id.item
            handle_item = handles.item
            while i < n:
                if list_item(handle_item(i)) == NO_LIST:
                    return k
                k += 1
                i += 1
            return k
        while i < n:
            j = min(i + _PROBE_BLOCK, n)
            # NO_LIST is the smallest list id, so a block's minimum says
            # whether any page in it is off the lists, and argmin finds
            # the first.
            block = list_id.take(handles[i:j])
            if block.min() == NO_LIST:
                return k + int(block.argmin())
            k += j - i
            i = j
        return k

    # -- observability --------------------------------------------------------

    def columnar_stats(self) -> dict[str, int]:
        """Profiling counters (``benchmarks/profile_scenario.py``)."""
        return {
            "handles": len(self._table),
            "kernel_batches": self.kernel_batches,
            "kernel_pages": self.kernel_pages,
            "journal_scans": self.journal_scans,
            "journal_candidates": self.journal_candidates,
        }

    def audit_columnar_state(self) -> None:
        """Cross-check columns against list counts (``REPRO_AUDIT=1``).

        Raises :class:`InvariantViolationError` when the struct-of-
        arrays bookkeeping drifts: handle-table bijectivity, per-list
        cardinality (``list_id`` census vs the view's count), and the
        order/pos linkage (every on-list handle's recorded position
        must point back at it inside the view's live window).
        """
        table = self._table
        n = len(table.pages)
        if len(table.index) != n:
            raise InvariantViolationError(
                f"app {self.uid} columnar handle table: {len(table.index)} "
                f"pfns indexed vs {n} pages stored"
            )
        for pfn, h in table.index.items():
            if table.pages[h].pfn != pfn:
                raise InvariantViolationError(
                    f"app {self.uid} columnar handle table: pfn {pfn} maps "
                    f"to handle {h} holding pfn {table.pages[h].pfn}"
                )
        census_total = 0
        for view in self._views():
            members = _np.flatnonzero(table.list_id[:n] == view._lid)
            if members.size != len(view):
                raise InvariantViolationError(
                    f"list {view.name!r}: column census {members.size} "
                    f"pages vs tracked count {len(view)}"
                )
            census_total += int(members.size)
            if not members.size:
                continue
            positions = table.pos[members]
            if ((positions < view._head) | (positions >= view._tail)).any():
                raise InvariantViolationError(
                    f"list {view.name!r}: a member's pos lies outside the "
                    f"live window [{view._head}, {view._tail})"
                )
            if (view._order[positions] != members).any():
                raise InvariantViolationError(
                    f"list {view.name!r}: order/pos linkage broken (a "
                    f"member's recorded slot holds a different handle)"
                )
        on_lists = int((table.list_id[:n] != NO_LIST).sum())
        if on_lists != census_total:
            raise InvariantViolationError(
                f"app {self.uid}: {on_lists} handles carry a list id but "
                f"only {census_total} are accounted to a known list"
            )


class ActiveInactiveOrganizer(DataOrganizer):
    """Stock kernel two-list LRU (the ZRAM baseline's organizer).

    Args:
        uid: Owning application id.
        refill_batch: How many active-tail pages are demoted when the
            inactive list runs dry, mirroring the kernel's batched
            ``shrink_active_list``.
    """

    def __init__(self, uid: int, refill_batch: int = 32) -> None:
        super().__init__(uid)
        self.active = IndexLruList(self._table, ACTIVE_ID, f"app{uid}.active")
        self.inactive = IndexLruList(
            self._table, INACTIVE_ID, f"app{uid}.inactive"
        )
        self._refill_batch = refill_batch

    def _views(self):
        return (self.active, self.inactive)

    def add_page(self, page: Page) -> None:
        self.inactive.add(page)
        self.list_operations += 1

    def add_page_run(self, pages: list[Page]) -> None:
        self.inactive.add_run(pages)
        self.list_operations += len(pages)

    def on_access(self, page: Page) -> None:
        table = self._table
        h = table.index.get(page.pfn)
        lid = NO_LIST if h is None else table.list_id.item(h)
        if lid == NO_LIST:
            raise PageStateError(
                f"page {page.pfn} accessed but not resident in app {self.uid}"
            )
        if lid == INACTIVE_ID:
            table.list_id[h] = ACTIVE_ID
            self.inactive._count -= 1
            self.active._count += 1
            self.active._append(h)
            self.list_operations += 2
        else:
            self.active._append(h)
            self.list_operations += 1

    def _on_access_handles(self, handles) -> None:
        """Vectorized access replay: every occurrence lands on the
        active list in run order (touch and promotion both move to the
        active MRU end, so one bulk append covers both); ops count one
        per occurrence plus one per unique inactive->active promotion,
        exactly the per-page loop's."""
        n = int(handles.shape[0])
        if not n:
            return
        table = self._table
        self.kernel_batches += 1
        self.kernel_pages += n
        if n <= _SMALL_KERNEL:
            list_id = table.list_id
            list_item = list_id.item
            active = self.active
            active_append = active._append
            inactive = self.inactive
            ops = 0
            for h in handles.tolist():
                lid = list_item(h)
                if lid == ACTIVE_ID:
                    active_append(h)
                    ops += 1
                elif lid == INACTIVE_ID:
                    list_id[h] = ACTIVE_ID
                    inactive._count -= 1
                    active._count += 1
                    active_append(h)
                    ops += 2
                else:
                    raise PageStateError(
                        f"page {table.pages[h].pfn} accessed but not "
                        f"resident in app {self.uid}"
                    )
            self.list_operations += ops
            return
        lids = table.list_id[handles]
        if (lids == NO_LIST).any():
            bad = handles[int(_np.argmax(lids == NO_LIST))]
            raise PageStateError(
                f"page {table.pages[int(bad)].pfn} accessed but not "
                f"resident in app {self.uid}"
            )
        inactive_handles = handles[lids == INACTIVE_ID]
        promoted = (
            len(set(inactive_handles.tolist())) if inactive_handles.size else 0
        )
        table.list_id[handles] = ACTIVE_ID
        self.active._append_run(handles)
        self.active._count += promoted
        self.inactive._count -= promoted
        self.list_operations += n + promoted

    def _refill_inactive(self) -> None:
        moved = 0
        while len(self.active) > 0 and moved < self._refill_batch:
            page = self.active.pop_lru()
            self.inactive.add(page)
            self.list_operations += 2
            moved += 1

    def pop_victim(self) -> Page:
        if len(self.inactive) == 0:
            self._refill_inactive()
        if len(self.inactive) == 0:
            raise PageStateError(f"app {self.uid} has no pages to reclaim")
        self.list_operations += 1
        return self.inactive.pop_lru()

    def has_victims(self) -> bool:
        return len(self.inactive) > 0 or len(self.active) > 0

    def hotness_estimate(self, page: Page) -> Hotness:
        # The two-list scheme has no hot notion; the closest mapping is
        # active -> WARM, inactive -> COLD.
        if page in self.active:
            return Hotness.WARM
        if page in self.inactive:
            return Hotness.COLD
        raise PageStateError(f"page {page.pfn} not resident in app {self.uid}")

    def resident_pages(self) -> Iterator[Page]:
        yield from self.inactive
        yield from self.active

    def resident_count(self) -> int:
        return len(self.inactive) + len(self.active)


class HotWarmColdOrganizer(DataOrganizer):
    """Tri-list organizer implementing HotnessOrg's within-app policy.

    Lifecycle (Section 4.2 of the paper):

    - *Hotness initialization*: the first ``hot_seed_limit`` pages added
      during the app's launch window go to the hot list (the profiled
      launch working set); pages created afterwards go to the cold list.
    - *Execution*: touching a cold page promotes it to warm (the analogue
      of inactive -> active); hot/warm touches just refresh recency.
    - *Hotness update*: callers bracket a relaunch with
      :meth:`begin_relaunch` / :meth:`end_relaunch`.  At the end, pages
      accessed during the relaunch form the new hot list; stale hot pages
      demote to warm.
    - *Eviction*: cold pages first, then warm, then (only if unavoidable)
      hot — each list in LRU order.
    """

    def __init__(self, uid: int, hot_seed_limit: int) -> None:
        super().__init__(uid)
        if hot_seed_limit < 0:
            raise PageStateError(
                f"hot_seed_limit must be >= 0, got {hot_seed_limit}"
            )
        self.hot = IndexLruList(self._table, HOT_ID, f"app{uid}.hot")
        self.warm = IndexLruList(self._table, WARM_ID, f"app{uid}.warm")
        self.cold = IndexLruList(self._table, COLD_ID, f"app{uid}.cold")
        self._hot_seed_limit = hot_seed_limit
        self._seeded = 0
        self._in_launch_window = True
        self._relaunch_active = False
        #: Relaunch generation; `stamp[h] == _generation` marks handles
        #: touched during the currently open relaunch.
        self._generation = 0
        #: Order-preserving journal of handles touched since
        #: begin_relaunch (ints and arrays, in touch order).
        self._journal: list = []

    def _views(self):
        return (self.hot, self.warm, self.cold)

    # -- lifecycle ------------------------------------------------------------

    def end_launch_window(self) -> None:
        """Mark the initial launch as finished; later pages default to cold."""
        self._in_launch_window = False

    def add_page(self, page: Page) -> None:
        if self._relaunch_active:
            # Pages faulted in during a relaunch join the hot list; only an
            # actual access marks them relaunch-used, so chunk siblings that
            # were materialized but never touched demote to warm afterwards.
            self.hot.add(page)
        elif self._in_launch_window and self._seeded < self._hot_seed_limit:
            self.hot.add(page)
            self._seeded += 1
        else:
            self.cold.add(page)
        self.list_operations += 1

    def add_page_run(self, pages: list[Page]) -> None:
        # The per-page routing state is fixed across an admission batch
        # (relaunch flag and launch window only flip between batches);
        # only the hot-seed budget moves, so the batch splits into at
        # most one hot prefix and one cold tail.
        count = len(pages)
        if self._relaunch_active:
            self.hot.add_run(pages)
        elif self._in_launch_window and self._seeded < self._hot_seed_limit:
            take = min(self._hot_seed_limit - self._seeded, count)
            self.hot.add_run(pages[:take] if take < count else pages)
            self._seeded += take
            if take < count:
                self.cold.add_run(pages[take:])
        else:
            self.cold.add_run(pages)
        self.list_operations += count

    def add_page_as(self, page: Page, hotness: Hotness) -> None:
        """Insert a page directly into a specific list (used by swap-in)."""
        self.level_list(hotness).add(page)
        self.list_operations += 1

    # -- access kernels ------------------------------------------------------

    def on_access(self, page: Page) -> None:
        table = self._table
        h = table.index.get(page.pfn)
        lid = NO_LIST if h is None else table.list_id.item(h)
        if lid == NO_LIST:
            raise PageStateError(
                f"page {page.pfn} accessed but not resident in app {self.uid}"
            )
        if self._relaunch_active:
            table.stamp[h] = self._generation
            self._journal.append(h)
        if lid == COLD_ID:
            table.list_id[h] = WARM_ID
            self.cold._count -= 1
            self.warm._count += 1
            self.warm._append(h)
            self.list_operations += 2
        elif lid == WARM_ID:
            self.warm._append(h)
            self.list_operations += 1
        else:
            self.hot._append(h)
            self.list_operations += 1

    def _on_access_handles(self, handles) -> None:
        """Vectorized access replay over a resident handle run.

        Equivalent to the per-page loop: per-occurrence op counts
        (+1 touch, +2 cold->warm promotion at *first* occurrence, +1
        for later occurrences of the same — by then warm — handle) and
        final list orders match exactly.  Hot touches commute past
        warm/cold work (accesses never enter or leave the hot list), so
        warm and hot appends land in two independent bulk runs.
        """
        n = int(handles.shape[0])
        if not n:
            return
        table = self._table
        self.kernel_batches += 1
        self.kernel_pages += n
        if n <= _SMALL_KERNEL:
            # Short runs replay per page on the columns: below ~a dozen
            # pages the fancy-indexed kernel's fixed temp-array cost
            # loses to the loop.
            list_id = table.list_id
            list_item = list_id.item
            stamps = table.stamp
            relaunch = self._relaunch_active
            gen = self._generation
            journal = self._journal
            hot_append = self.hot._append
            warm = self.warm
            warm_append = warm._append
            cold = self.cold
            ops = 0
            for h in handles.tolist():
                if relaunch:
                    stamps[h] = gen
                    journal.append(h)
                lid = list_item(h)
                if lid == HOT_ID:
                    hot_append(h)
                    ops += 1
                elif lid == WARM_ID:
                    warm_append(h)
                    ops += 1
                elif lid == COLD_ID:
                    list_id[h] = WARM_ID
                    cold._count -= 1
                    warm._count += 1
                    warm_append(h)
                    ops += 2
                else:
                    raise PageStateError(
                        f"page {table.pages[h].pfn} accessed but not "
                        f"resident in app {self.uid}"
                    )
            self.list_operations += ops
            return
        if self._relaunch_active:
            table.stamp[handles] = self._generation
            self._journal.append(handles)
        lids = table.list_id[handles]
        hot_mask = lids == HOT_ID
        if hot_mask.all():
            self.hot._append_run(handles)
            self.list_operations += n
            return
        if (lids == NO_LIST).any():
            bad = handles[int(_np.argmax(lids == NO_LIST))]
            raise PageStateError(
                f"page {table.pages[int(bad)].pfn} accessed but not "
                f"resident in app {self.uid}"
            )
        non_hot = handles[~hot_mask]
        cold_handles = handles[lids == COLD_ID]
        # set() over a small pylist beats np.unique's sort/hash setup on
        # run-sized arrays by ~4x (only the cardinality is needed).
        promoted = len(set(cold_handles.tolist())) if cold_handles.size else 0
        table.list_id[non_hot] = WARM_ID
        self.warm._append_run(non_hot)
        self.warm._count += promoted
        self.cold._count -= promoted
        hot_handles = handles[hot_mask]
        if hot_handles.size:
            self.hot._append_run(hot_handles)
        self.list_operations += int(non_hot.size) + promoted + int(hot_handles.size)

    # -- relaunch bracketing ----------------------------------------------------

    def begin_relaunch(self) -> None:
        """Start recording which pages this relaunch touches."""
        self._relaunch_active = True
        self._generation += 1
        self._journal = []

    def end_relaunch(self) -> None:
        """Apply the hotness update: relaunch-touched pages become the hot
        list; stale hot pages demote to warm.

        Demotion: live hot handles whose generation stamp is stale, in
        hot-LRU order.  Promotion: the journal's unique handles still on
        warm then cold, each batch sorted by live position — ascending
        position within one list *is* that list's LRU order, so this
        equals a full warm+cold scan while only touching the accessed
        set.  Journaled handles all carry the current generation, so the
        demotion and promotion sets are disjoint by construction.
        """
        if not self._relaunch_active:
            raise PageStateError(f"app {self.uid}: end_relaunch without begin")
        self._relaunch_active = False
        table = self._table
        ops = 0
        hot_live = self.hot._live_handles()
        if hot_live.size:
            stale = hot_live[table.stamp[hot_live] != self._generation]
            demoted = int(stale.size)
            if demoted:
                table.list_id[stale] = WARM_ID
                self.warm._append_run(stale)
                self.hot._count -= demoted
                self.warm._count += demoted
                ops += 2 * demoted
        if self._journal:
            # Dedup via a set: candidate order is irrelevant (each
            # per-list batch is re-sorted by live position below), so
            # np.unique's sort would be wasted work.
            touched: set[int] = set()
            for part in self._journal:
                if isinstance(part, int):
                    touched.add(part)
                else:
                    touched.update(part.tolist())
            candidates = _np.fromiter(
                touched, dtype=_np.int64, count=len(touched)
            )
            self.journal_scans += 1
            self.journal_candidates += int(candidates.size)
            lids = table.list_id[candidates]
            for want, source in ((WARM_ID, self.warm), (COLD_ID, self.cold)):
                batch = candidates[lids == want]
                if not batch.size:
                    continue
                batch = batch[_np.argsort(table.pos[batch])]
                table.list_id[batch] = HOT_ID
                self.hot._append_run(batch)
                moved = int(batch.size)
                source._count -= moved
                self.hot._count += moved
                ops += 2 * moved
        self._journal = []
        self.list_operations += ops

    # -- reclaim ---------------------------------------------------------------

    def pop_victim(self) -> Page:
        for lru in (self.cold, self.warm, self.hot):
            if len(lru):
                self.list_operations += 1
                return lru.pop_lru()
        raise PageStateError(f"app {self.uid} has no pages to reclaim")

    def level_list(self, level: Hotness) -> IndexLruList:
        """The LRU list backing one hotness level.

        An ``is``-chain rather than a per-call dict build: this sits on
        the reclaim scan's innermost loop.
        """
        if level is Hotness.COLD:
            return self.cold
        if level is Hotness.WARM:
            return self.warm
        return self.hot

    def has_victims(self) -> bool:
        return bool(len(self.cold) or len(self.warm) or len(self.hot))

    def has_non_hot_victims(self) -> bool:
        """Whether reclaim can proceed without touching the hot list."""
        return bool(len(self.cold) or len(self.warm))

    def hotness_estimate(self, page: Page) -> Hotness:
        if page in self.hot:
            return Hotness.HOT
        if page in self.warm:
            return Hotness.WARM
        if page in self.cold:
            return Hotness.COLD
        raise PageStateError(f"page {page.pfn} not resident in app {self.uid}")

    def resident_pages(self) -> Iterator[Page]:
        yield from self.cold
        yield from self.warm
        yield from self.hot

    def resident_count(self) -> int:
        return len(self.cold) + len(self.warm) + len(self.hot)
