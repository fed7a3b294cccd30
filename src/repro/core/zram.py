"""The ZRAM baseline: the state-of-the-art compressed swap scheme.

Exactly the configuration the paper evaluates against (Section 5):

- LRU selects compression victims (the stock two-list organizer, with
  pages grouped per application);
- single-page (4 KB) compression chunks only;
- no decompression before the data is demanded (no prefetch);
- no flash writeback — when the zpool is full the system deletes
  inactive compressed data, terminating the owning app (Section 2.2).
"""

from __future__ import annotations

from ..mem.organizer import ActiveInactiveOrganizer, DataOrganizer
from ..mem.page import Hotness, Page, PageLocation
from ..metrics import APP, AccessBatchSummary
from ..units import PAGE_SIZE
from .context import SchemeContext
from .scheme import AccessResult, SwapScheme
from .stored import StoredChunk


class ZramScheme(SwapScheme):
    """Stock Android ZRAM."""

    name = "ZRAM"
    uses_zpool = True

    def __init__(self, ctx: SchemeContext) -> None:
        super().__init__(ctx)

    def _make_organizer(self, uid: int, hot_seed_limit: int) -> DataOrganizer:
        return ActiveInactiveOrganizer(uid)

    def access_batch(
        self, pages: list[Page], thread: str = APP
    ) -> AccessBatchSummary:
        """Batched replay: zram has no staging buffer, so the generic
        epoch-gated resident-run/fault split is exact as-is."""
        return self._access_batch_runs(pages, thread)

    def _evict(self, page: Page, thread: str) -> int:
        """Compress one LRU victim into the zpool as a 4 KB chunk."""
        _, stall = self._compress_and_store(
            [page],
            chunk_size=PAGE_SIZE,
            hotness=Hotness.COLD,  # LRU has no hotness notion
            thread=thread,
        )
        return stall

    def _fault_in(self, page: Page, chunk: StoredChunk, thread: str) -> AccessResult:
        decomp_stall, breakdown = self._decompress_chunk(chunk, page, thread)
        admit_stall, admit_bd = self._admit_pages(chunk, page, thread)
        breakdown.add(admit_bd)
        return AccessResult(
            stall_ns=decomp_stall + admit_stall,
            source=PageLocation.ZPOOL,
            breakdown=breakdown,
        )
