"""The DRAM baseline: no anonymous-page swapping at all.

The paper's optimistic lower bound (Figures 2 and 10): DRAM is assumed
large enough to hold every app's anonymous data, so accesses never
stall.  Its kswapd still spends (modest) CPU writing file-backed pages
back to flash — that is the non-zero DRAM bar in Figure 3 — modeled as a
fixed per-batch charge whenever the system gives kswapd a turn.
"""

from __future__ import annotations

from ..mem.organizer import ActiveInactiveOrganizer, DataOrganizer
from ..mem.page import Page
from ..metrics import APP, KSWAPD, AccessBatchSummary, AccessRun
from .context import SchemeContext
from .scheme import AccessResult, SwapScheme
from .stored import StoredChunk


class DramScheme(SwapScheme):
    """No-swap ideal: everything stays resident.

    Args:
        ctx: Shared context (its DRAM model must be large enough for the
            whole workload; :func:`repro.sim.make_system` arranges this).
        pressure_budget_bytes: The *real* platform's DRAM budget.  Pages
            allocated beyond it displace file-cache pages, whose
            writeback is the kswapd CPU the DRAM bar of Figure 3 shows.
            ``None`` disables the file-reclaim model.
    """

    name = "DRAM"
    uses_zpool = False
    tracks_free_dram = False  # memory never runs out: no counter to keep

    def __init__(
        self, ctx: SchemeContext, pressure_budget_bytes: int | None = None
    ) -> None:
        super().__init__(ctx)
        self.pressure_budget_bytes = pressure_budget_bytes

    def _make_organizer(self, uid: int, hot_seed_limit: int) -> DataOrganizer:
        return ActiveInactiveOrganizer(uid)

    def free_dram_bytes(self) -> int:
        """The optimistic assumption: memory never runs out."""
        self.watermark_probes += 1
        return self.ctx.platform.dram_bytes

    def audit_free_dram_bytes(self) -> int:
        """Matches :meth:`free_dram_bytes`: the constant optimistic view."""
        return self.ctx.platform.dram_bytes

    def on_pages_created(self, uid: int, pages: list[Page]) -> None:
        organizer = self.organizer(uid)
        platform = self.ctx.platform
        for page in pages:
            if (
                self.pressure_budget_bytes is not None
                and self.ctx.dram.used_bytes >= self.pressure_budget_bytes
            ):
                # The anonymous page displaces a file-backed page, which
                # kswapd must write back to flash.
                cost = platform.file_writeback_ns * platform.scale
                self.ctx.cpu.charge(KSWAPD, "file_writeback", cost)
                self.ctx.counters.incr("file_pages_written")
            self.ctx.dram.add_page(page)
            organizer.add_page(page)

    def access_batch(
        self, pages: AccessRun, thread: str = APP
    ) -> AccessBatchSummary:
        """Batched replay without residency probes: this scheme never
        evicts anonymous pages, so every page of a replay is resident
        and the whole batch is one hit run — the probing loop of
        :meth:`SwapScheme.access_batch` would only confirm that, at a
        measurable cost on DRAM's long scenarios.  (A page that somehow
        is not resident still raises :class:`PageStateError`, from the
        organizer instead of the access dispatcher.)"""
        n = len(pages)
        if n:
            # No hits, no charge: a zero-ns charge would still create a
            # ledger key the per-page reference never creates.
            ctx = self.ctx
            self._organizers[pages.uid].on_access_run(pages)
            ctx.cpu.charge(thread, "list_ops", ctx.platform.list_op_ns * n)
        summary = AccessBatchSummary()
        summary.add_hits(n)
        return summary

    def background_reclaim(self) -> None:
        """Anonymous data is never reclaimed; kswapd still shrinks the
        file LRU each wakeup (plus the allocation-time displacement cost
        charged in :meth:`on_pages_created`)."""
        platform = self.ctx.platform
        file_ns = (
            platform.file_writeback_ns
            * platform.kswapd_batch_pages
            * platform.scale
        )
        self.ctx.cpu.charge(KSWAPD, "file_writeback", file_ns)
        self.ctx.counters.incr("file_pages_written", platform.kswapd_batch_pages)

    def _evict(self, page: Page, thread: str) -> int:
        raise AssertionError("DRAM scheme never evicts anonymous pages")

    def _fault_in(self, page: Page, chunk: StoredChunk, thread: str) -> AccessResult:
        raise AssertionError("DRAM scheme never has stored pages")
