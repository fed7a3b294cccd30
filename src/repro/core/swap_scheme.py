"""The SWAP baseline: uncompressed pages to flash-backed swap.

Section 2.2's flash-memory-based swap scheme: victims chosen by LRU are
written raw to the swap area (high flash wear, low CPU — the device does
the work and the CPU is yielded), and every fault pays a flash read on
the critical path (the long relaunch latencies of Figure 2).
"""

from __future__ import annotations

from ..errors import FlashFullError
from ..mem.organizer import ActiveInactiveOrganizer, DataOrganizer
from ..mem.page import Hotness, Page, PageLocation
from ..metrics import APP, AccessBatchSummary, LatencyBreakdown
from ..units import PAGE_SIZE
from .context import SchemeContext
from .scheme import AccessResult, SwapScheme
from .stored import StoredChunk


class FlashSwapScheme(SwapScheme):
    """Flash-backed swap of uncompressed anonymous pages."""

    name = "SWAP"
    uses_zpool = False

    def __init__(self, ctx: SchemeContext) -> None:
        super().__init__(ctx)

    def _make_organizer(self, uid: int, hot_seed_limit: int) -> DataOrganizer:
        return ActiveInactiveOrganizer(uid)

    def access_batch(
        self, pages: list[Page], thread: str = APP
    ) -> AccessBatchSummary:
        """Batched replay: every flash fault goes through the exact
        per-page path (a swap-in admits only the faulted page, but its
        direct reclaim can evict later batch pages — which bumps the
        eviction epoch, keeping the probe-free path honest), so the
        generic epoch-gated split applies unchanged."""
        return self._access_batch_runs(pages, thread)

    def _evict(self, page: Page, thread: str) -> int:
        """Write one raw page to swap.

        The write itself is asynchronous (the page sits in the swap cache
        until the I/O completes), so the synchronous cost is only the
        submission CPU — which is why SWAP's kswapd CPU is low (Figure 3).
        """
        ctx = self.ctx
        platform = ctx.platform
        try:
            stored = self._flash_store_with_retry(
                PAGE_SIZE, sequential=False, thread=thread
            )
        except FlashFullError:
            ctx.counters.incr("swap_area_full")
            self._lost_pfns[page.pfn] = page.uid
            ctx.counters.incr("pages_lost")
            return 0
        if stored is None:
            # Unrecoverable injected write fault: the page cannot reach
            # swap, so it degrades to lost (the next access pays a cold
            # refault) instead of aborting reclaim.
            self._lost_pfns[page.pfn] = page.uid
            ctx.counters.incr("pages_lost")
            return 0
        slot, _write_ns, backoff_ns = stored
        submit_ns = platform.swap_submit_ns * platform.scale
        self._charge(thread, "swap_out", submit_ns)
        chunk = StoredChunk(
            chunk_id=self._next_chunk_id(),
            uid=page.uid,
            pages=(page,),
            chunk_size=PAGE_SIZE,
            codec_name="null",
            stored_bytes=PAGE_SIZE,
            hotness_at_compress=self.organizer_hotness_or_cold(page),
            location=PageLocation.FLASH,
            flash_slot=slot.slot_id,
        )
        page.location = PageLocation.FLASH
        self._register_chunk(chunk)
        ctx.counters.incr("pages_swapped_out")
        # Retry backoff is a real wait (not parallelizable work), so it
        # lands undivided on the synchronous cost; zero without faults.
        return self._stall(submit_ns) + backoff_ns

    def organizer_hotness_or_cold(self, page: Page) -> Hotness:
        """Victims leave their lists before eviction; best effort label."""
        return Hotness.COLD

    def _fault_in(self, page: Page, chunk: StoredChunk, thread: str) -> AccessResult:
        ctx = self.ctx
        platform = ctx.platform
        breakdown = LatencyBreakdown()
        stall = 0
        # Read the page back from flash: one simulated page is `scale`
        # random 4 KB reads, overlapped only as far as the queue allows.
        # An unrecoverable injected fault raises ChunkLostError, which
        # the access dispatcher turns into a counted cold refault.
        slot, read_ns, backoff_ns = self._flash_load_with_retry(chunk, thread)
        ctx.flash_swap.free(chunk.flash_slot)
        ctx.counters.incr("flash_reads")
        read_stall = read_ns // platform.flash_queue_depth
        stall += read_stall + backoff_ns
        breakdown.flash_read_ns += read_stall
        breakdown.other_ns += backoff_ns
        self._charge(thread, "flash_read", platform.swap_submit_ns * platform.scale)
        self._unregister_chunk(chunk)
        admit_stall, admit_bd = self._admit_pages(chunk, page, thread)
        stall += admit_stall
        breakdown.add(admit_bd)
        return AccessResult(
            stall_ns=stall, source=PageLocation.FLASH, breakdown=breakdown
        )
