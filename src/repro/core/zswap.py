"""ZSWAP: compressed DRAM pool with batched flash writeback and
slot-locality readahead.

The production Linux design point for many-idle-app workloads: pages
compress into the zpool exactly as under ZRAM, but an LRU-driven
shrinker migrates the coldest compressed entries to the flash swap area
instead of deleting data when the pool fills.  Three kernel mechanics
are modeled faithfully (see PAPERS.md, "Revisiting Swapping in
User-space with Lightweight Threading"):

- **Batched reclaim** — one shrinker pass writes back up to
  ``swap_cluster_max`` (the kernel's ``SWAP_CLUSTER_MAX``) of the
  oldest compressed chunks as a single batch, allocated to contiguous
  swap slots and submitted as one sequential command train
  (:meth:`~repro.flash.swaparea.FlashSwapArea.store_batch`).
- **Slot-locality readahead** — a fault from flash speculatively
  decompresses the other live slots in its aligned ``2**page_cluster``
  window of the *same writeback batch* (``/proc/sys/vm/page-cluster``
  semantics), charged one sequential device read.  Readahead
  decompressions land in a FIFO staging buffer; an app touch claims
  them (hit), aging out unused recompresses them (wasted work).
- **Multi-device round-robin** — with ``n_devices > 1`` equal-priority
  swap devices, successive batches stripe across devices, as the
  kernel does for same-priority swap areas.

Writeback rides the PR-6 retry/degradation hooks: the batch store goes
through :meth:`SwapScheme._flash_store_with_retry` (one fault-injection
decision per batch — ``write_many`` is one command train), corrupted
readahead neighbors are dropped through
:meth:`SwapScheme._drop_unreadable_chunk`, and an unrecoverable
speculative read simply aborts the readahead (the chunks stay safely in
flash for the demand path to retry with its own budget).
"""

from __future__ import annotations

from ..errors import FlashFullError, PermanentFlashError, TransientFlashError
from ..mem.organizer import ActiveInactiveOrganizer, DataOrganizer
from ..mem.page import Hotness, Page, PageLocation
from ..metrics import KSWAPD, ZSWAPD, LatencyBreakdown
from ..units import PAGE_SIZE
from .config import ZswapConfig
from .context import SchemeContext
from .predecomp import StagingBuffer
from .scheme import AccessResult, SwapScheme
from .stored import StoredChunk


class ZswapScheme(SwapScheme):
    """Compressed DRAM pool that writes cold entries back to flash."""

    name = "ZSWAP"
    uses_zpool = True

    def __init__(
        self, ctx: SchemeContext, config: ZswapConfig | None = None
    ) -> None:
        super().__init__(ctx)
        self.config = config if config is not None else ZswapConfig()
        self.name = self.config.label
        self.staging = StagingBuffer(self.config.staging_pages)
        #: Writeback-batch records for slot-locality readahead:
        #: batch id -> (first slot id, chunks in slot order).  Member
        #: chunks leave :attr:`_batch_of` as they fault in, read ahead,
        #: or drop; a batch retires once no live member remains.
        self._batches: dict[int, tuple[int, list[StoredChunk]]] = {}
        #: chunk_id -> batch id, for every chunk currently in flash.
        self._batch_of: dict[int, int] = {}
        self._next_batch = 0
        #: Round-robin cursor over the swap area's devices.
        self._next_device = 0

    def _make_organizer(self, uid: int, hot_seed_limit: int) -> DataOrganizer:
        return ActiveInactiveOrganizer(uid)

    # ------------------------------------------------------------- eviction

    def _evict(self, page: Page, thread: str) -> int:
        """Compress one LRU victim; then shrink the pool to threshold."""
        _, stall = self._compress_and_store(
            [page],
            chunk_size=PAGE_SIZE,
            hotness=Hotness.COLD,  # zswap's LRU has no hotness notion
            thread=thread,
        )
        threshold = self.config.pool_threshold * self.ctx.zpool.capacity_bytes
        while self.ctx.zpool.used_bytes > threshold:
            if not self._writeback_batch(thread):
                break
        return stall

    def _relieve_zpool_lossless(self) -> bool:
        """zpool overflow: write a batch back instead of dropping data."""
        return self._writeback_batch(KSWAPD)

    # ------------------------------------------------------------ writeback

    def _writeback_batch(self, thread: str) -> bool:
        """One shrinker pass: the oldest compressed entries go to flash.

        Up to ``swap_cluster_max`` in-zpool chunks (compression order —
        the pool's LRU) move as one batch into contiguous slots on the
        round-robin device.  Returns whether any progress was made.
        """
        ctx = self.ctx
        victims: list[StoredChunk] = []
        for chunk in self._chunks.values():
            if chunk.in_zpool:
                victims.append(chunk)
                if len(victims) >= self.config.swap_cluster_max:
                    break
        if not victims:
            return False
        # Trim the batch to what the swap area can hold; capacity
        # exhaustion is policy, not a fault.
        free = ctx.flash_swap.free_bytes
        total = 0
        fit: list[StoredChunk] = []
        for chunk in victims:
            if total + chunk.stored_bytes > free:
                break
            total += chunk.stored_bytes
            fit.append(chunk)
        if not fit:
            ctx.counters.incr("swap_area_full")
            return False
        victims = fit
        device_index = self._next_device
        sizes = [chunk.stored_bytes for chunk in victims]
        try:
            stored = self._flash_store_with_retry(
                total,
                sequential=True,
                thread=thread,
                store=lambda: ctx.flash_swap.store_batch(
                    sizes, device_index=device_index
                ),
            )
        except FlashFullError:
            ctx.counters.incr("swap_area_full")
            return False
        if stored is None:
            # Unrecoverable injected write fault: every chunk stays
            # safely in the zpool (store_batch allocates nothing before
            # the device write) and the shrinker reports no progress.
            ctx.counters.incr("fault_writeback_deferred")
            return False
        slots, _write_ns, _backoff_ns = stored
        self._next_device = (device_index + 1) % len(ctx.flash_swap.devices)
        batch_id = self._next_batch
        self._next_batch += 1
        for chunk, slot in zip(victims, slots):
            ctx.zpool.free(chunk.zpool_handle)
            self._by_zpool_handle.pop(chunk.zpool_handle, None)
            chunk.zpool_handle = None
            chunk.sector = None
            chunk.location = PageLocation.FLASH
            chunk.flash_slot = slot.slot_id
            for page in chunk.pages:
                page.location = PageLocation.FLASH
            self._batch_of[chunk.chunk_id] = batch_id
        self._batches[batch_id] = (slots[0].slot_id, list(victims))
        # One submission per batch: amortizing the submit cost is the
        # point of SWAP_CLUSTER_MAX (smaller clusters pay it oftener).
        submit_ns = ctx.platform.swap_submit_ns * ctx.platform.scale
        self._charge(thread, "writeback", submit_ns)
        counts = ctx.counters.mutable()
        counts["chunks_written_back"] += len(victims)
        counts["pages_written_back"] += sum(c.page_count for c in victims)
        counts["zswap_writeback_batches"] += 1
        counts["zswap_pages_written_back"] += sum(
            c.page_count for c in victims
        )
        if len(victims) > counts["zswap_batch_pages_max"]:
            counts["zswap_batch_pages_max"] = len(victims)
        return True

    def _unregister_chunk(self, chunk: StoredChunk) -> None:
        """Every chunk-removal path also retires its batch membership."""
        batch_id = self._batch_of.pop(chunk.chunk_id, None)
        super()._unregister_chunk(chunk)
        if batch_id is not None:
            self._retire_batch(batch_id)

    def _retire_batch(self, batch_id: int) -> None:
        """Drop a batch record once no live member remains."""
        entry = self._batches.get(batch_id)
        if entry is None:
            return
        _first, members = entry
        if not any(
            self._batch_of.get(chunk.chunk_id) == batch_id
            for chunk in members
        ):
            del self._batches[batch_id]

    # ------------------------------------------------------------- fault-in

    def _fault_in(self, page: Page, chunk: StoredChunk, thread: str) -> AccessResult:
        source = chunk.location
        batch_id = self._batch_of.get(chunk.chunk_id)
        faulted_slot = chunk.flash_slot
        decomp_stall, breakdown = self._decompress_chunk(chunk, page, thread)
        admit_stall, admit_bd = self._admit_pages(chunk, page, thread)
        breakdown.add(admit_bd)
        if batch_id is not None and self.config.page_cluster > 0:
            self._readahead(batch_id, faulted_slot)
        return AccessResult(
            stall_ns=decomp_stall + admit_stall,
            source=source,
            breakdown=breakdown,
        )

    def _readahead(self, batch_id: int, faulted_slot: int) -> None:
        """Speculatively decompress the faulted slot's batch neighbors.

        Linux ``page-cluster`` semantics: the window is the aligned
        ``2**page_cluster`` slot range containing the fault (``start =
        pos & ~(window-1)``), restricted to the batch that wrote the
        slots — only those are contiguous on the device.  The window's
        surviving slots are read as one sequential command train and
        decompressed in the background (CPU charged to ``zswapd``, no
        app stall), landing in the staging buffer.
        """
        entry = self._batches.get(batch_id)
        if entry is None:
            return
        first_slot, members = entry
        window = self.config.readahead_window
        pos = faulted_slot - first_slot
        start = pos & ~(window - 1)
        neighbors: list[StoredChunk] = []
        for idx in range(start, min(start + window, len(members))):
            if idx == pos:
                continue  # the faulted chunk itself (demand path)
            chunk = members[idx]
            # Members already faulted in, read ahead, dropped, or torn
            # down left _batch_of; skip them.
            if self._batch_of.get(chunk.chunk_id) != batch_id:
                continue
            if not chunk.in_flash or chunk.flash_slot is None:
                continue
            neighbors.append(chunk)
        if not neighbors:
            return
        loaded = self._load_run_with_retry(
            [chunk.flash_slot for chunk in neighbors], ZSWAPD
        )
        if loaded is None:
            # Unrecoverable injected read fault on a *speculative* read:
            # abort quietly.  Nothing moved — the chunks stay in flash
            # and a later demand fault retries with its own budget.
            self.ctx.counters.incr("zswap_readahead_aborted")
            return
        _slots, _read_ns = loaded
        ctx = self.ctx
        platform = ctx.platform
        ctx.counters.incr("flash_reads")
        self._charge(ZSWAPD, "flash_read", platform.swap_submit_ns * platform.scale)
        for chunk in neighbors:
            if chunk.corrupted:
                # The digest check catches the bit-flip here, before the
                # corrupt payload can enter the staging buffer; the drop
                # frees the slot and marks the pages lost.
                self._drop_unreadable_chunk(chunk, "corrupt")
                continue
            ctx.flash_swap.free(chunk.flash_slot)
            span = PAGE_SIZE * chunk.page_count
            decomp_ns = platform.scale * ctx.latency.decompress_ns(
                chunk.codec_name, span, chunk.chunk_size
            )
            self._charge(ZSWAPD, "decompress", decomp_ns)
            counts = ctx.counters.mutable()
            counts["zswap_readahead_reads"] += 1
            counts["pages_decompressed"] += chunk.page_count
            counts["decompress_ops"] += 1
            counts["dram_bytes_moved"] += 2 * span * platform.scale
            self._unregister_chunk(chunk)
            for page in chunk.pages:
                for old in self.staging.stage(page):
                    self._recompress_staged(old)

    def _load_run_with_retry(self, slot_ids: list[int], thread: str):
        """Read a slot run, absorbing injected flash faults.

        Returns ``(slots, read_ns)`` or ``None`` when the read
        unrecoverably failed.  Mirrors :meth:`_flash_load_with_retry`'s
        transient-retry accounting, but never drops data: the read is
        speculative, so failure degrades to "no readahead" rather than
        to lost pages.  Without a fault plan this is exactly one
        ``flash_swap.load_run``.
        """
        ctx = self.ctx
        plan = ctx.fault_plan
        if plan is None:
            return ctx.flash_swap.load_run(slot_ids)
        counters = ctx.counters
        failed = 0
        while True:
            try:
                return_value = ctx.flash_swap.load_run(slot_ids)
            except TransientFlashError:
                counters.incr("fault_flash_read_transient")
                failed += 1
                if failed > plan.max_retries:
                    counters.incr("fault_transient_abandoned", failed)
                    return None
                self._charge(thread, "fault_retry", plan.backoff_ns(failed))
                counters.incr("fault_io_retries")
            except PermanentFlashError:
                counters.incr("fault_flash_read_permanent")
                if failed:
                    counters.incr("fault_transient_abandoned", failed)
                return None
            else:
                if failed:
                    counters.incr("fault_transient_recovered", failed)
                return return_value

    # -------------------------------------------------------------- staging

    def _staging_hit(self, page: Page) -> AccessResult | None:
        staged = self.staging.claim(page.pfn)
        if staged is None:
            return None
        platform = self.ctx.platform
        # The page leaves the staging buffer and becomes ordinary
        # resident memory: it needs a DRAM page like any fault, but the
        # decompression already happened off-path (the readahead win).
        stall = self._make_room(1, direct=True, thread=KSWAPD)
        self.ctx.dram.add_page(staged)
        organizer = self.organizer(page.uid)
        organizer.add_page(staged)
        organizer.on_access(staged)
        hit_ns = platform.staging_hit_ns * platform.scale
        self._charge(KSWAPD, "staging_hit", hit_ns)
        stall += self._stall(hit_ns)
        self.ctx.counters.incr("staging_hits")
        self.ctx.counters.incr("zswap_readahead_hits")
        return AccessResult(
            stall_ns=stall,
            source=PageLocation.STAGING,
            breakdown=LatencyBreakdown(other_ns=stall),
        )

    def _recompress_staged(self, page: Page) -> None:
        """A staged page aged out unclaimed: the readahead was wasted.

        The page only ever lived in the staging buffer, so there is no
        DRAM residency to release — just the recompression back into
        the zpool.
        """
        self.ctx.counters.incr("zswap_readahead_wasted")
        self._compress_and_store(
            [page],
            chunk_size=PAGE_SIZE,
            hotness=Hotness.COLD,
            thread=ZSWAPD,
        )

    def _purge_staged(self, uid: int) -> int:
        """Kill teardown: drop ``uid``'s staged readahead pages.

        Staged pages are non-resident, so they join :attr:`_lost_pfns`
        like the rest of the killed app's data (the next access is a
        cold refault); they bypass ``claim()`` so the buffer's hit/miss
        statistics stay honest.
        """
        purged = 0
        for pfn, page in list(self.staging._pages.items()):
            if page.uid != uid:
                continue
            del self.staging._pages[pfn]
            self._lost_pfns.add(pfn)
            purged += 1
        return purged

    def app_has_reclaimable(self, uid: int) -> bool:
        if super().app_has_reclaimable(uid):
            return True
        return any(page.uid == uid for page in self.staging._pages.values())
