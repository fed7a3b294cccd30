"""Opt-in runtime invariant auditor (``REPRO_AUDIT=1``).

The simulator keeps several O(1) running records (free-DRAM bytes,
pool occupancy, the organizers' list membership that batch replay
probes for residency, the zpool's size-class tally) precisely so the
hot paths never recompute them.  The flip side is that a single missed
hook silently drifts the model — the numbers stay plausible and the
goldens only catch it if the drift changes a reported figure.

This module cross-checks the running state against from-scratch ground
truth *while a scenario runs*.  It is wired into every kswapd wakeup
(``SwapScheme.background_reclaim``) but dormant unless the
``REPRO_AUDIT`` environment variable is truthy, so normal runs pay one
``is None`` test per wakeup and nothing else.  On a mismatch it raises
:class:`~repro.errors.InvariantViolationError` with enough context
(which counter, which app, expected vs actual) to localize the broken
transition.

Environment knobs:

- ``REPRO_AUDIT`` — ``1``/``true``/``on``/``yes`` enables auditing.
- ``REPRO_AUDIT_INTERVAL`` — audit every Nth checkpoint (default 1:
  every kswapd wakeup).  Raise it to cheapen long scenarios.

The auditor is deliberately duck-typed against
:class:`~repro.core.scheme.SwapScheme` (no core imports) so the core
can import it without a cycle.
"""

from __future__ import annotations

import os

from .errors import InvariantViolationError

#: Environment variable enabling the auditor.
AUDIT_ENV = "REPRO_AUDIT"
#: Environment variable controlling the checkpoint sampling interval.
AUDIT_INTERVAL_ENV = "REPRO_AUDIT_INTERVAL"

_TRUTHY = frozenset({"1", "true", "on", "yes"})


def audit_enabled() -> bool:
    """Whether ``REPRO_AUDIT`` asks for runtime invariant auditing."""
    return os.environ.get(AUDIT_ENV, "").strip().lower() in _TRUTHY


def auditor_from_env() -> InvariantAuditor | None:
    """An :class:`InvariantAuditor` per the environment, else ``None``."""
    if not audit_enabled():
        return None
    raw = os.environ.get(AUDIT_INTERVAL_ENV, "1")
    try:
        interval = int(raw)
    except ValueError:
        interval = 1
    return InvariantAuditor(interval=max(1, interval))


class InvariantAuditor:
    """Cross-checks a scheme's O(1) counters against ground truth.

    Args:
        interval: Audit every ``interval``-th :meth:`checkpoint` call
            (checkpoints land on kswapd wakeups, the natural quiescent
            points between reclaim batches).
    """

    def __init__(self, interval: int = 1) -> None:
        if interval < 1:
            raise InvariantViolationError(
                f"audit interval must be >= 1, got {interval}"
            )
        self.interval = interval
        self._checkpoints = 0
        #: Full audits actually performed (tests assert this moved).
        self.audits_performed = 0

    # ------------------------------------------------------------- entry points

    def checkpoint(self, scheme) -> None:
        """Sampled audit hook: runs :meth:`audit` every Nth call."""
        self._checkpoints += 1
        if self._checkpoints % self.interval == 0:
            self.audit(scheme)

    def audit(self, scheme) -> None:
        """Run every cross-check; raises on the first violation."""
        self._audit_pool_occupancy(scheme)
        self._audit_free_dram(scheme)
        self._audit_lru_membership(scheme)
        self._audit_handle_tables(scheme)
        self._audit_zpool_classes(scheme)
        self._audit_swap_slots(scheme)
        self._audit_zswap_writeback(scheme)
        self.audits_performed += 1

    # -------------------------------------------------------------- the checks

    def _audit_pool_occupancy(self, scheme) -> None:
        """Running pool occupancy counters match from-scratch recomputes."""
        dram = scheme.ctx.dram
        actual, expected = dram.used_bytes, dram.audit_used_bytes()
        if actual != expected:
            raise InvariantViolationError(
                f"DRAM used_bytes drifted: running counter {actual} != "
                f"audit recompute {expected} "
                f"({dram.resident_count} resident pages)"
            )
        if scheme.uses_zpool:
            zpool = scheme.ctx.zpool
            actual, expected = zpool.used_bytes, zpool.audit_used_bytes()
            if actual != expected:
                raise InvariantViolationError(
                    f"zpool used_bytes drifted: running counter {actual} != "
                    f"audit recompute {expected}"
                )

    def _audit_free_dram(self, scheme) -> None:
        """The incremental free-DRAM counter matches the audit recompute."""
        if not scheme.tracks_free_dram:
            return
        actual = scheme._free_dram_bytes
        expected = scheme.audit_free_dram_bytes()
        if actual != expected:
            raise InvariantViolationError(
                "free-DRAM accounting drifted: incremental counter "
                f"{actual} != audit recompute {expected} (delta "
                f"{actual - expected:+d} bytes, "
                f"{scheme.accounting_updates} hook updates)"
            )

    def _audit_handle_tables(self, scheme) -> None:
        """Organizers' struct-of-arrays state is self-consistent.

        List membership and recency live in the organizers' flat handle
        table columns; this runs each organizer's
        ``audit_columnar_state`` cross-check (handle-table bijectivity,
        per-list column census vs tracked counts, order/pos linkage).
        """
        for organizer in scheme._organizers.values():
            organizer.audit_columnar_state()

    def _audit_lru_membership(self, scheme) -> None:
        """Organizer LRU lists and DRAM residency agree exactly.

        Every page on some organizer's lists must be resident, no page
        may appear on two lists, and together the lists must cover all
        of DRAM — a page resident but on no list can never be reclaimed
        (a leak), one on a list but not resident would be evicted twice.
        It is also the simulator's only residency record for batch
        replay: ``SwapScheme.access_batch`` reads list membership as
        DRAM residency, so a drift here would silently skip faults.
        """
        resident = scheme.ctx.dram._resident
        seen: dict[int, int] = {}
        for uid, organizer in scheme._organizers.items():
            for page in organizer.resident_pages():
                pfn = page.pfn
                other = seen.get(pfn)
                if other is not None:
                    raise InvariantViolationError(
                        f"page {pfn} appears on the LRU lists of both app "
                        f"{other} and app {uid}"
                    )
                seen[pfn] = uid
                if pfn not in resident:
                    raise InvariantViolationError(
                        f"page {pfn} (app {uid}) is on an LRU list but not "
                        "resident in DRAM"
                    )
        if len(seen) != len(resident):
            orphans = sorted(set(resident) - set(seen))[:5]
            raise InvariantViolationError(
                f"{len(resident)} pages resident but only {len(seen)} on "
                f"LRU lists; first orphan pfns: {orphans}"
            )

    def _audit_zpool_classes(self, scheme) -> None:
        """The zpool's size-class tally matches its live entries exactly.

        The tally is a maintained counter (one dict update per
        store/free); a missed update means fragmentation accounting and
        any class-level reporting silently drift.  The per-class counts
        must also re-sum to ``audit_used_bytes()`` — tying the two
        independent recomputes together.
        """
        if not scheme.uses_zpool:
            return
        zpool = scheme.ctx.zpool
        tally = zpool.class_tally()
        truth = zpool.audit_class_tally()
        if tally != truth:
            drifted = sorted(
                cls
                for cls in set(tally) | set(truth)
                if tally.get(cls, 0) != truth.get(cls, 0)
            )
            raise InvariantViolationError(
                "zpool size-class tally drifted: counter vs entries differ "
                f"for class(es) {drifted} (counter "
                f"{ {c: tally.get(c, 0) for c in drifted} }, entries "
                f"{ {c: truth.get(c, 0) for c in drifted} })"
            )
        class_sum = sum(cls * count for cls, count in tally.items())
        expected = zpool.audit_used_bytes()
        if class_sum != expected:
            raise InvariantViolationError(
                f"zpool size-class tally sums to {class_sum} bytes but the "
                f"entries hold {expected} bytes"
            )

    def _audit_swap_slots(self, scheme) -> None:
        """Flash swap slots and live in-flash chunk handles agree exactly.

        A slot with no chunk pointing at it is a capacity leak (the area
        fills with garbage until ``FlashFullError``); a chunk pointing
        at a missing slot was double-freed and its next fault would read
        freed storage.
        """
        flash_swap = getattr(scheme.ctx, "flash_swap", None)
        if flash_swap is None:
            return
        slots = set(flash_swap._slots)
        live = {
            chunk.flash_slot
            for chunk in scheme._chunks.values()
            if chunk.in_flash and chunk.flash_slot is not None
        }
        orphans = slots - live
        if orphans:
            raise InvariantViolationError(
                f"{len(orphans)} swap slot(s) allocated but owned by no "
                f"live chunk (leak); first: {sorted(orphans)[:5]}"
            )
        missing = live - slots
        if missing:
            raise InvariantViolationError(
                f"{len(missing)} in-flash chunk(s) reference freed swap "
                f"slot(s) (double free); first: {sorted(missing)[:5]}"
            )

    def _audit_zswap_writeback(self, scheme) -> None:
        """Zswap writeback ledger balances and batches stay contiguous.

        Duck-typed on the zswap batch records (``_batches``/
        ``_batch_of``); other schemes skip.  Three invariants:

        - **Ledger balance** — every stored page is in exactly one
          location: pages in in-zpool chunks plus pages in in-flash
          chunks must equal the stored-page index (``_stored_by_pfn``).
          A mismatch means a writeback or readahead transition updated
          one side and not the other.
        - **Batch membership** — every in-flash membership record maps
          to a recorded batch that actually lists the chunk.
        - **Slot contiguity** — a live batch member's slot id must be
          ``first_slot + position``: batched writeback allocated the
          slots consecutively, and readahead's one-sequential-command
          charge is only honest while that layout holds.
        """
        batches = getattr(scheme, "_batches", None)
        batch_of = getattr(scheme, "_batch_of", None)
        if batches is None or batch_of is None:
            return
        in_zpool = sum(
            chunk.page_count
            for chunk in scheme._chunks.values()
            if chunk.in_zpool
        )
        in_flash = sum(
            chunk.page_count
            for chunk in scheme._chunks.values()
            if chunk.in_flash
        )
        stored = len(scheme._stored_by_pfn)
        if in_zpool + in_flash != stored:
            raise InvariantViolationError(
                f"zswap writeback ledger unbalanced: {in_zpool} pages in "
                f"zpool chunks + {in_flash} in flash chunks != {stored} "
                "stored pages"
            )
        for batch_id, (first_slot, members) in batches.items():
            for position, chunk in enumerate(members):
                if batch_of.get(chunk.chunk_id) != batch_id:
                    continue  # member already faulted in / read / dropped
                expected_slot = first_slot + position
                if chunk.flash_slot != expected_slot:
                    raise InvariantViolationError(
                        f"zswap batch {batch_id} lost slot contiguity: "
                        f"chunk {chunk.chunk_id} at position {position} "
                        f"holds slot {chunk.flash_slot}, expected "
                        f"{expected_slot} (first slot {first_slot})"
                    )
        for chunk_id, batch_id in batch_of.items():
            entry = batches.get(batch_id)
            if entry is None or all(c.chunk_id != chunk_id for c in entry[1]):
                raise InvariantViolationError(
                    f"zswap chunk {chunk_id} claims membership of batch "
                    f"{batch_id}, which does not record it"
                )
