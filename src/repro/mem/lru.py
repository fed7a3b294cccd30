"""Least-recently-used page lists with O(1) operations.

Mirrors the kernel's per-zone LRU lists: most-recently-used pages sit at
the head, reclaim pops from the tail.  :class:`IndexLruList` is a numpy
index-linked view over one list id of an organizer's handle table
(:class:`repro.mem.organizer.HandleTable`): membership and recency live
in flat integer columns, and bulk ``touch_run`` / ``add_run`` become
single fancy-indexing kernels.  The per-page ``OrderedDict`` list the
tests compare it against lives in ``tests/reference_organizers.py``.
"""

from __future__ import annotations

from typing import Iterator

import numpy as _np

from ..errors import PageStateError
from .page import Page


#: Sentinel list id for "on no list" in the handle table's ``list_id`` column.
NO_LIST = -1

#: Batch size below which the index-linked list's bulk operations run a
#: plain Python loop: a fancy-indexed numpy kernel carries ~10 us of
#: fixed cost (temp arrays, dtype dispatch) that a loop over a
#: chunk-sized batch undercuts several-fold.
_SMALL_RUN = 16


class IndexLruList:
    """Index-linked LRU list over one list id of a handle table.

    Membership and recency live in the handle table's flat columns
    instead of per-page dict nodes:

    - ``table.list_id[h] == lid`` says handle ``h`` is on this list;
    - ``table.pos[h]`` is its slot in the append-order ``_order`` array.

    Recency order is the append order: a touch re-appends the handle at
    the tail of ``_order`` and bumps ``pos``, leaving the old slot
    *dead* (a slot ``p`` is live iff ``list_id[order[p]] == lid and
    pos[order[p]] == p``).  Ascending live positions therefore read
    LRU -> MRU — the property the journal-bounded ``end_relaunch``
    sort relies on.  Dead slots are reclaimed by compaction when the
    array fills; ``pop_lru``/``peek`` skip them from the head at
    amortized O(1).  Bulk ``add_run``/``touch_run`` are single
    fancy-indexed appends: writing ``pos[handles] = arange(...)``
    resolves within-run duplicates last-write-wins, which is exactly
    the recency a touch-per-page loop leaves.
    """

    __slots__ = ("name", "_table", "_lid", "_order", "_head", "_tail", "_count")

    def __init__(self, table, lid: int, name: str) -> None:
        self.name = name
        self._table = table
        self._lid = lid
        self._order = _np.zeros(64, dtype=_np.int64)
        self._head = 0
        self._tail = 0
        self._count = 0

    # -- representation internals -------------------------------------------

    def _live_handles(self):
        """Handles on this list, LRU -> MRU (vectorized dead-slot filter)."""
        table = self._table
        seg = self._order[self._head:self._tail]
        if not seg.size:
            return seg
        live = (table.list_id[seg] == self._lid) & (
            table.pos[seg]
            == _np.arange(self._head, self._tail, dtype=_np.int64)
        )
        return seg[live]

    def _reserve(self, extra: int, front: int = 0) -> None:
        """Guarantee ``extra`` free tail slots (and ``front`` head slots),
        compacting dead entries (and growing) when the array is full."""
        if self._tail + extra <= self._order.shape[0] and self._head >= front:
            return
        live = self._live_handles()
        n = int(live.size)
        cap = max(64, 2 * (n + extra + front))
        order = _np.zeros(cap, dtype=_np.int64)
        order[front:front + n] = live
        self._table.pos[live] = _np.arange(front, front + n, dtype=_np.int64)
        self._order = order
        self._head = front
        self._tail = front + n

    def _append(self, h: int) -> None:
        """Append one handle at the MRU end (caller manages list_id/count)."""
        tail = self._tail
        if tail >= self._order.shape[0]:
            self._reserve(1)
            tail = self._tail
        self._order[tail] = h
        self._table.pos[h] = tail
        self._tail = tail + 1

    def _append_run(self, handles) -> None:
        """Bulk-append handles in order (within-run duplicates: last wins)."""
        k = int(handles.shape[0])
        if not k:
            return
        if self._tail + k > self._order.shape[0]:
            self._reserve(k)
        tail = self._tail
        self._order[tail:tail + k] = handles
        self._table.pos[handles] = _np.arange(tail, tail + k, dtype=_np.int64)
        self._tail = tail + k

    def _check_member(self, page: Page) -> int:
        h = self._table.index.get(page.pfn)
        if h is None or self._table.list_id.item(h) != self._lid:
            raise PageStateError(f"page {page.pfn} not on list {self.name!r}")
        return h

    # -- list API ------------------------------------------------------------

    def __len__(self) -> int:
        return self._count

    def __contains__(self, page: Page) -> bool:
        h = self._table.index.get(page.pfn)
        return h is not None and self._table.list_id.item(h) == self._lid

    def __iter__(self) -> Iterator[Page]:
        """Iterate from LRU (evict-first) to MRU."""
        pages = self._table.pages
        for h in self._live_handles():
            yield pages[h]

    @property
    def total_bytes(self) -> int:
        """Sum of page sizes on this list (pages are uniformly sized)."""
        from ..units import PAGE_SIZE

        return self._count * PAGE_SIZE

    def add(self, page: Page) -> None:
        """Insert ``page`` at the MRU end; error if already on a list.

        Presence on a *sibling* list is rejected too: a handle carries
        exactly one list id, so adding a page that still sits on
        another list would corrupt that list's count.
        """
        table = self._table
        h = table.ensure(page)
        lid = table.list_id.item(h)
        if lid == self._lid:
            raise PageStateError(f"page {page.pfn} already on list {self.name!r}")
        if lid != NO_LIST:
            raise PageStateError(
                f"page {page.pfn} still on a sibling list (id {lid}) "
                f"of {self.name!r}; remove it first"
            )
        table.list_id[h] = self._lid
        self._append(h)
        self._count += 1

    def add_run(self, pages) -> None:
        """Insert pages at the MRU end in order; error on any duplicate.

        Validates the whole batch before mutating anything (same
        no-partial-mutation guarantee on both the scalar and the
        vectorized path).  Batches below ``_SMALL_RUN`` go through a
        plain loop — the fixed cost of the fancy-indexed kernel
        (~10 us) dwarfs per-page work for chunk-sized admissions.
        """
        n = len(pages)
        if not n:
            return
        table = self._table
        lid = self._lid
        if n <= _SMALL_RUN:
            ensure = table.ensure
            # Ensure first: allocating a handle may grow (reallocate) the
            # columns, so ``list_id`` must be bound only afterwards.
            handles = [ensure(page) for page in pages]
            list_item = table.list_id.item
            seen = set()
            for page, h in zip(pages, handles):
                cur = list_item(h)
                if cur == lid:
                    raise PageStateError(
                        f"page {page.pfn} already on list {self.name!r}"
                    )
                if cur != NO_LIST:
                    raise PageStateError(
                        f"page {page.pfn} still on a sibling list of "
                        f"{self.name!r}; remove it first"
                    )
                if h in seen:
                    raise PageStateError(
                        f"duplicate page in add_run on list {self.name!r}"
                    )
                seen.add(h)
            self._reserve(n)
            list_id = table.list_id
            pos = table.pos
            order = self._order
            tail = self._tail
            for h in handles:
                list_id[h] = lid
                order[tail] = h
                pos[h] = tail
                tail += 1
            self._tail = tail
            self._count += n
            return
        handles = table.handles_for(pages)
        lids = table.list_id[handles]
        if (lids != NO_LIST).any():
            if (lids == lid).any():
                bad = pages[int(_np.argmax(lids == lid))]
                raise PageStateError(
                    f"page {bad.pfn} already on list {self.name!r}"
                )
            bad = pages[int(_np.argmax(lids != NO_LIST))]
            raise PageStateError(
                f"page {bad.pfn} still on a sibling list of "
                f"{self.name!r}; remove it first"
            )
        if len(set(handles.tolist())) != n:
            raise PageStateError(
                f"duplicate page in add_run on list {self.name!r}"
            )
        table.list_id[handles] = lid
        self._append_run(handles)
        self._count += n

    def add_lru(self, page: Page) -> None:
        """Insert ``page`` at the LRU end (evicted first)."""
        table = self._table
        h = table.ensure(page)
        lid = table.list_id.item(h)
        if lid == self._lid:
            raise PageStateError(f"page {page.pfn} already on list {self.name!r}")
        if lid != NO_LIST:
            raise PageStateError(
                f"page {page.pfn} still on a sibling list (id {lid}) "
                f"of {self.name!r}; remove it first"
            )
        if self._head == 0:
            self._reserve(0, front=8)
        self._head -= 1
        self._order[self._head] = h
        table.pos[h] = self._head
        table.list_id[h] = self._lid
        self._count += 1

    def touch(self, page: Page) -> None:
        """Move ``page`` to the MRU end; error if absent."""
        self._append(self._check_member(page))

    def touch_run(self, pfns) -> int:
        """Move already-present pages to the MRU end, in order."""
        index = self._table.index
        try:
            handles = _np.fromiter(
                (index[pfn] for pfn in pfns), dtype=_np.int64, count=len(pfns)
            )
        except KeyError as exc:
            raise PageStateError(
                f"page {exc.args[0]} not on list {self.name!r}"
            ) from None
        if handles.size:
            lids = self._table.list_id[handles]
            if (lids != self._lid).any():
                bad = int(handles[int(_np.argmax(lids != self._lid))])
                raise PageStateError(
                    f"page {self._table.pages[bad].pfn} not on list "
                    f"{self.name!r}"
                )
            self._append_run(handles)
        return len(pfns)

    def remove(self, page: Page) -> None:
        """Remove ``page``; error if absent."""
        h = self._check_member(page)
        self._table.list_id[h] = NO_LIST
        self._count -= 1

    def discard(self, page: Page) -> bool:
        """Remove ``page`` if present; return whether it was present."""
        table = self._table
        h = table.index.get(page.pfn)
        if h is None or table.list_id.item(h) != self._lid:
            return False
        table.list_id[h] = NO_LIST
        self._count -= 1
        return True

    def pop_lru(self) -> Page:
        """Remove and return the least-recently-used page."""
        table = self._table
        tail, lid = self._tail, self._lid
        # .item() readers return plain Python ints (one C call), about
        # half the cost of scalar fancy indexing + int().
        order_item = self._order.item
        list_item, pos_item = table.list_id.item, table.pos.item
        head = self._head
        while head < tail:
            h = order_item(head)
            if list_item(h) == lid and pos_item(h) == head:
                self._head = head + 1
                table.list_id[h] = NO_LIST
                self._count -= 1
                return table.pages[h]
            head += 1
        self._head = head
        raise PageStateError(f"list {self.name!r} is empty")

    def pop_lru_run(self, k: int) -> list[Page]:
        """Remove and return up to ``k`` LRU pages, oldest first.

        Returns fewer when the list drains — the batched analogue of
        ``while k and len(list): pop_lru()``, with the column bindings
        and the stale-slot walk paid once for the whole run.
        """
        if k <= 0 or not self._count:
            return []
        table = self._table
        tail, lid = self._tail, self._lid
        order_item = self._order.item
        list_item, pos_item = table.list_id.item, table.pos.item
        list_id = table.list_id
        pages = table.pages
        head = self._head
        out: list[Page] = []
        while head < tail and len(out) < k:
            h = order_item(head)
            if list_item(h) == lid and pos_item(h) == head:
                list_id[h] = NO_LIST
                out.append(pages[h])
            head += 1
        self._head = head
        self._count -= len(out)
        return out

    def peek_lru(self) -> Page:
        """Return (without removing) the least-recently-used page."""
        table = self._table
        tail, lid = self._tail, self._lid
        order_item = self._order.item
        list_item, pos_item = table.list_id.item, table.pos.item
        head = self._head
        while head < tail:
            h = order_item(head)
            if list_item(h) == lid and pos_item(h) == head:
                self._head = head  # dead prefix skipped for good
                return table.pages[h]
            head += 1
        self._head = head
        raise PageStateError(f"list {self.name!r} is empty")

    def peek_mru(self) -> Page:
        """Return (without removing) the most-recently-used page."""
        table = self._table
        head, lid = self._head, self._lid
        order_item = self._order.item
        list_item, pos_item = table.list_id.item, table.pos.item
        p = self._tail - 1
        while p >= head:
            h = order_item(p)
            if list_item(h) == lid and pos_item(h) == p:
                self._tail = p + 1  # dead suffix skipped for good
                return table.pages[h]
            p -= 1
        raise PageStateError(f"list {self.name!r} is empty")

    def pages_lru_order(self) -> list[Page]:
        """Snapshot of all pages, LRU first."""
        pages = self._table.pages
        return [pages[h] for h in self._live_handles()]

    def __repr__(self) -> str:
        return f"IndexLruList(name={self.name!r}, pages={self._count})"
