"""Ariadne: hotness-aware, size-adaptive compressed swap (Section 4).

Assembles the three techniques on top of the shared scheme machinery:

- **HotnessOrg** — the :class:`HotWarmColdOrganizer` tri-list per app
  (hotness init at launch, hotness update at relaunch boundaries,
  cold -> warm -> hot eviction order), with recency ordering across apps.
- **AdaptiveComp** — chunk size per hotness level at compression time;
  cold victims are gathered into multi-page LargeSize chunks.
- **PreDecomp** — on a zpool fault at sector ``s``, the chunk at the next
  live sector is decompressed in the background into a FIFO staging
  buffer; a subsequent access to a staged page costs a page-table fixup
  instead of a decompression stall.
- **Cold writeback** (the ZSWAP role, Section 4.1) — when memory is
  tight, compressed *cold* chunks are written to flash, freeing their
  zpool (DRAM) footprint without risking hot-data flash reads; it is
  also the overflow response when the zpool hits its capacity ``S``.
"""

from __future__ import annotations

from ..errors import ChunkLostError, FlashFullError
from ..mem.organizer import (
    ActiveInactiveOrganizer,
    DataOrganizer,
    HotWarmColdOrganizer,
)
from ..mem.page import Hotness, Page, PageLocation
from ..metrics import KSWAPD, PREDECOMP, LatencyBreakdown
from ..units import PAGE_SIZE
from .adaptive import chunk_size_for, gather_cold_group
from .config import AriadneConfig
from .context import SchemeContext
from .predecomp import StagingBuffer
from .scheme import AccessResult, SwapScheme
from .stored import StoredChunk


class AriadneScheme(SwapScheme):
    """The paper's scheme: HotnessOrg + AdaptiveComp + PreDecomp."""

    uses_zpool = True

    def __init__(self, ctx: SchemeContext, config: AriadneConfig | None = None) -> None:
        super().__init__(ctx)
        self.config = config if config is not None else AriadneConfig()
        self.name = self.config.label
        self.staging = StagingBuffer(self.config.staging_pages)
        #: Hotness level each victim held when it was popped for eviction.
        self._victim_levels: dict[int, Hotness] = {}
        #: Per staged page: (compression-time level, next-sector hint).
        #: The hint lets a staging *hit* continue the prefetch chain, so
        #: a whole sequential run is serviced with one real fault.
        self._staged_levels: dict[int, tuple[Hotness, int | None]] = {}

    # ------------------------------------------------------------- organizers

    def _make_organizer(self, uid: int, hot_seed_limit: int) -> DataOrganizer:
        if not self.config.hotness_org_enabled:
            # Ablation: Ariadne's chunk/prefetch machinery on stock LRU.
            return ActiveInactiveOrganizer(uid)
        return HotWarmColdOrganizer(uid, hot_seed_limit)

    # The HotnessOrg paths below test the flag _make_organizer branches
    # on: only with it set is the organizer the tri-list one.

    def end_launch(self, uid: int) -> None:
        if self.config.hotness_org_enabled:
            self.organizer(uid).end_launch_window()

    def begin_relaunch(self, uid: int) -> None:
        super().begin_relaunch(uid)
        if self.config.hotness_org_enabled:
            self.organizer(uid).begin_relaunch()

    def end_relaunch(self, uid: int) -> None:
        if self.config.hotness_org_enabled:
            organizer = self.organizer(uid)
            organizer.end_relaunch()
            charge = organizer.list_operations * self.ctx.platform.list_op_ns
            organizer.list_operations = 0
            self._charge(KSWAPD, "list_ops", charge)

    def hot_prediction(self, uid: int) -> set[int]:
        """Pages the scheme currently believes are app ``uid``'s hot set.

        Resident hot-list pages plus pages compressed while on the hot
        list (the AL scenario compresses the hot list with SmallSize
        chunks; they are still *identified* as hot).
        """
        predicted: set[int] = set()
        if self.config.hotness_org_enabled:
            predicted.update(page.pfn for page in self.organizer(uid).hot)
        for chunk in self._chunks.values():
            if chunk.uid == uid and chunk.hotness_at_compress is Hotness.HOT:
                predicted.update(page.pfn for page in chunk.pages)
        predicted.update(
            pfn
            for pfn, (level, _hint) in self._staged_levels.items()
            if level is Hotness.HOT
        )
        return predicted

    # ----------------------------------------------------------------- reclaim

    def _pop_victim(self) -> Page | None:
        """Global eviction order (Section 4.2): the cold data of *all*
        applications goes first, then warm, and only then hot — within a
        level, least-recently-switched apps first, foreground last."""
        if not self.config.hotness_org_enabled:
            # Ablation: stock behavior.
            return super()._pop_victim()
        fg = self._foreground_uid
        candidates = [uid for uid in self._app_lru if uid != fg]
        if fg is not None:
            candidates.append(fg)
        organizers = [self._organizers[uid] for uid in candidates]
        for level in (Hotness.COLD, Hotness.WARM, Hotness.HOT):
            for organizer in organizers:
                lru = organizer.level_list(level)
                if not len(lru):
                    continue
                organizer.list_operations += 1
                page = lru.pop_lru()
                self.ctx.dram.remove_page(page)
                self._victim_levels[page.pfn] = level
                return page
        return None

    def _pop_victim_from(self, organizer: DataOrganizer) -> Page:
        """Pop the next victim, remembering which hotness list it left."""
        if self.config.hotness_org_enabled:
            if len(organizer.cold):
                level = Hotness.COLD
            elif len(organizer.warm):
                level = Hotness.WARM
            else:
                level = Hotness.HOT
        else:
            level = Hotness.COLD
        page = organizer.pop_victim()
        self.ctx.dram.remove_page(page)
        self._victim_levels[page.pfn] = level
        return page

    def _make_room(self, incoming_pages: int, direct: bool, thread: str) -> int:
        """On the *direct* (faulting) path, prefer writing cold compressed
        chunks to flash over compressing more resident data: it frees DRAM
        (the zpool lives there) with an async write submission instead of
        a synchronous compression, and never touches pages that may be
        reused.  Background reclaim keeps cold chunks in the zpool — they
        are the cheap-to-free reserve the direct path draws on.
        """
        platform = self.ctx.platform
        stall = 0
        if direct and self.config.writeback_enabled:
            target_free = incoming_pages * PAGE_SIZE + platform.low_watermark_bytes
            while self.free_dram_bytes() < target_free:
                if not self._writeback_one(thread, allow_warm=True):
                    break
                submit_stall = self._stall(platform.swap_submit_ns * platform.scale)
                stall += submit_stall
        stall += super()._make_room(incoming_pages, direct, thread)
        return stall

    def _evict(self, page: Page, thread: str) -> int:
        level = self._victim_levels.pop(page.pfn, Hotness.COLD)
        chunk_size = chunk_size_for(level, self.config)
        pages = [page]
        if (
            level is Hotness.COLD
            and chunk_size > PAGE_SIZE
            and self.config.hotness_org_enabled
        ):
            pages = gather_cold_group(
                self.organizer(page.uid), self, page,
                self.config.cold_group_pages,
            )
        _, stall = self._compress_and_store(
            pages, chunk_size=chunk_size, hotness=level, thread=thread
        )
        # Keep the zpool under its capacity threshold (Table 5's S).
        if self.config.writeback_enabled:
            threshold = self.config.writeback_threshold * self.ctx.zpool.capacity_bytes
            while self.ctx.zpool.used_bytes > threshold:
                if not self._writeback_one(thread, allow_warm=True):
                    break
        return stall

    def _zpool_lane(self, uid: int, hotness: Hotness) -> int:
        """One sector lane per (hotness level, app): HotnessOrg's layout.

        Keeping each class in its own lane means an app's hot chunks sit
        at consecutive sectors even when hot evictions interleave with
        other apps' cold evictions — the layout difference the paper's
        Figure 9 highlights, and the reason next-sector prediction stays
        accurate under mixed reclaim traffic.
        """
        return hotness.rank * 256 + uid % 256

    def _relieve_zpool_lossless(self) -> bool:
        """zpool overflow: write a chunk back instead of dropping data."""
        return self.config.writeback_enabled and self._writeback_one(
            KSWAPD, allow_warm=True
        )

    def app_has_reclaimable(self, uid: int) -> bool:
        if super().app_has_reclaimable(uid):
            return True
        return any(page.uid == uid for page in self.staging._pages.values())

    def _purge_staged(self, uid: int) -> int:
        """Kill teardown: drop ``uid``'s pre-decompressed staged pages.

        Staged pages are non-resident (they sit in the reserved buffer),
        so they join :attr:`_lost_pfns` like the rest of the killed app's
        data: the next access is a cold refault.  They bypass ``claim()``
        so the buffer's hit/miss statistics stay honest.
        """
        purged = 0
        for pfn, page in list(self.staging._pages.items()):
            if page.uid != uid:
                continue
            del self.staging._pages[pfn]
            self._staged_levels.pop(pfn, None)
            self._lost_pfns.add(pfn)
            purged += 1
        return purged

    def _writeback_one(self, thread: str, allow_warm: bool = False) -> bool:
        """Move the oldest zpool chunk to flash, cold data first.

        Section 4.2: "the system writes some compressed data to flash
        memory-based swap space following a policy that ensures cold data
        is swapped out first".  Warm chunks follow only when no cold
        remains (and only if ``allow_warm``); hot chunks never go to
        flash — a hot flash read on the relaunch path is the failure mode
        Ariadne exists to avoid.
        """
        target: StoredChunk | None = None
        for chunk in self._chunks.values():
            if chunk.in_zpool and chunk.hotness_at_compress is Hotness.COLD:
                target = chunk
                break
        if target is None and allow_warm:
            for chunk in self._chunks.values():
                if chunk.in_zpool and chunk.hotness_at_compress is Hotness.WARM:
                    target = chunk
                    break
        if target is None:
            return False
        try:
            stored = self._flash_store_with_retry(
                target.stored_bytes, sequential=True, thread=thread
            )
        except FlashFullError:
            self.ctx.counters.incr("swap_area_full")
            return False
        if stored is None:
            # Unrecoverable injected write fault: the chunk stays safely
            # in the zpool (nothing moved yet) and writeback simply
            # reports no progress this round.
            self.ctx.counters.incr("fault_writeback_deferred")
            return False
        slot, _write_ns, _backoff_ns = stored
        self.ctx.zpool.free(target.zpool_handle)
        self._by_zpool_handle.pop(target.zpool_handle, None)
        target.zpool_handle = None
        target.sector = None
        target.location = PageLocation.FLASH
        target.flash_slot = slot.slot_id
        for page in target.pages:
            page.location = PageLocation.FLASH
        submit_ns = self.ctx.platform.swap_submit_ns * self.ctx.platform.scale
        self._charge(thread, "writeback", submit_ns)
        self.ctx.counters.incr("chunks_written_back")
        self.ctx.counters.incr("pages_written_back", target.page_count)
        return True

    def restore_hot_resident(self, uid: int) -> None:
        """Bring app ``uid``'s identified-hot data back into DRAM.

        Establishes the EHL measured state of Section 5 ("data in the hot
        list is in main memory while other data is in either ZRAM or
        flash") when earlier memory pressure pushed hot pages out.  Runs
        as background work: decompression CPU is charged, nothing stalls.
        """
        if not self.config.hotness_org_enabled:
            return
        organizer = self.organizer(uid)
        platform = self.ctx.platform
        targets = [
            chunk for chunk in list(self._chunks.values())
            if chunk.uid == uid and chunk.hotness_at_compress is Hotness.HOT
        ]
        for chunk in targets:
            if chunk.corrupted:
                # Digest check fails on restore just as it would on a
                # fault: drop the chunk (pages lost, cold refault later)
                # rather than deliver corrupt hot data.
                self._drop_unreadable_chunk(chunk, "corrupt")
                continue
            if chunk.in_flash:
                try:
                    _slot, _read_ns, _backoff = self._flash_load_with_retry(
                        chunk, KSWAPD
                    )
                except ChunkLostError:
                    # Unrecoverable flash fault: the chunk was dropped
                    # (pages marked lost); restoration moves on.
                    continue
                self.ctx.flash_swap.free(chunk.flash_slot)
                self.ctx.counters.incr("flash_reads")
            else:
                self.ctx.zpool.free(chunk.zpool_handle)
                self._by_zpool_handle.pop(chunk.zpool_handle, None)
            span = chunk.page_count * PAGE_SIZE
            decomp_ns = platform.scale * self.ctx.latency.decompress_ns(
                chunk.codec_name, span, chunk.chunk_size
            )
            self._charge(KSWAPD, "decompress", decomp_ns)
            self.ctx.counters.incr("pages_decompressed", chunk.page_count)
            self.ctx.counters.incr("decompress_ops")
            self.ctx.counters.incr("dram_bytes_moved", 2 * span * platform.scale)
            self._unregister_chunk(chunk)
            for page in chunk.pages:
                self._make_room(1, direct=False, thread=KSWAPD)
                self.ctx.dram.add_page(page)
                organizer.add_page_as(page, Hotness.HOT)
        # Hot pages parked in the staging buffer also come home.
        for pfn, (level, _hint) in list(self._staged_levels.items()):
            if level is not Hotness.HOT:
                continue
            staged = self.staging.claim(pfn)
            if staged is None or staged.uid != uid:
                if staged is not None:
                    self.staging.stage(staged)  # not ours: put it back
                continue
            self._staged_levels.pop(pfn, None)
            self._make_room(1, direct=False, thread=KSWAPD)
            self.ctx.dram.add_page(staged)
            organizer.add_page_as(staged, Hotness.HOT)

    # ------------------------------------------------------------------ faults

    def _staging_hit(self, page: Page) -> AccessResult | None:
        staged = self.staging.claim(page.pfn)
        if staged is None:
            return None
        _level, hint = self._staged_levels.pop(page.pfn, (Hotness.WARM, None))
        platform = self.ctx.platform
        # The page leaves the reserved buffer and becomes ordinary
        # resident memory, so it needs a DRAM page like any fault —
        # but not a decompression, which already happened off-path.
        stall = self._make_room(1, direct=True, thread=KSWAPD)
        self.ctx.dram.add_page(staged)
        organizer = self.organizer(page.uid)
        organizer.add_page(staged)
        organizer.on_access(staged)
        hit_ns = platform.staging_hit_ns * platform.scale
        self._charge(KSWAPD, "staging_hit", hit_ns)
        stall += self._stall(hit_ns)
        self.ctx.counters.incr("staging_hits")
        if hint is not None and self.config.predecomp_enabled:
            # Continue the prefetch chain: a hit confirms the sequential
            # run is live, so stage the next sector too.
            self._predecompress_from(hint)
        return AccessResult(
            stall_ns=stall,
            source=PageLocation.STAGING,
            breakdown=LatencyBreakdown(other_ns=stall),
        )

    def _fault_in(self, page: Page, chunk: StoredChunk, thread: str) -> AccessResult:
        source = chunk.location
        next_sector = None
        if chunk.in_zpool and self.config.predecomp_enabled:
            next_sector = self.ctx.zpool.next_live_sector(chunk.sector)
        decomp_stall, breakdown = self._decompress_chunk(chunk, page, thread)
        admit_stall, admit_bd = self._admit_pages(chunk, page, thread)
        breakdown.add(admit_bd)
        if next_sector is not None:
            self._predecompress_from(next_sector)
        return AccessResult(
            stall_ns=decomp_stall + admit_stall,
            source=source,
            breakdown=breakdown,
        )

    # --------------------------------------------------------------- predecomp

    def _predecompress_from(self, sector: int) -> None:
        """Pre-decompress up to ``predecomp_depth`` chunks starting at
        ``sector``, in the background (CPU charged, no stall)."""
        depth = self.config.predecomp_depth
        current: int | None = sector
        for _ in range(depth):
            if current is None:
                return
            handle = self.ctx.zpool.handle_at_sector(current)
            if handle is None:
                return
            chunk = self.chunk_by_zpool_handle(handle)
            if chunk is None:
                return
            following = self.ctx.zpool.next_live_sector(current)
            if not self._try_stage_chunk(chunk):
                return
            current = following

    def _try_stage_chunk(self, chunk: StoredChunk) -> bool:
        """Decompress ``chunk`` into the staging buffer if it is sensible.

        Skips cold multi-page chunks: prefetching them pollutes memory —
        the Section 3 discussion of four-page prefetch.  The buffer
        itself is a small pre-reserved region (Section 4.4), so staging
        needs no reclaim; capacity is enforced by FIFO eviction.
        """
        platform = self.ctx.platform
        if chunk.chunk_size > self.config.medium_size:
            self.ctx.counters.incr("predecomp_skipped_cold")
            return False
        if chunk.corrupted:
            # The prefetch decompression is a read: the digest check
            # catches the injected bit-flip here, before the corrupt
            # payload can enter the staging buffer.
            self._drop_unreadable_chunk(chunk, "corrupt")
            return False
        span = PAGE_SIZE * chunk.page_count
        decomp_ns = platform.scale * self.ctx.latency.decompress_ns(
            chunk.codec_name, span, chunk.chunk_size
        )
        self._charge(PREDECOMP, "decompress", decomp_ns)
        self.ctx.counters.incr("predecomp_prefetches")
        self.ctx.counters.incr("pages_decompressed", chunk.page_count)
        self.ctx.counters.incr("decompress_ops")
        self.ctx.counters.incr("dram_bytes_moved", 2 * span * platform.scale)
        hint = self.ctx.zpool.next_live_sector(chunk.sector)
        self.ctx.zpool.free(chunk.zpool_handle)
        self._unregister_chunk(chunk)
        for page in chunk.pages:
            evicted = self.staging.stage(page)
            self._staged_levels[page.pfn] = (chunk.hotness_at_compress, hint)
            for old in evicted:
                self._recompress_staged(old)
        return True

    def _recompress_staged(self, page: Page) -> None:
        """A staged page aged out unused: compress it back (wasted work).

        The page only ever lived in the reserved buffer, so there is no
        DRAM residency to release — just the recompression cost.
        """
        level, _hint = self._staged_levels.pop(page.pfn, (Hotness.WARM, None))
        self.ctx.counters.incr("staging_recompressed")
        self._compress_and_store(
            [page],
            chunk_size=chunk_size_for(level, self.config),
            hotness=level,
            thread=PREDECOMP,
        )
