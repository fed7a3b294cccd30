"""Per-page reference organizers: the differential tests' oracle.

Plain ``OrderedDict`` LRU lists and the two organizers written the
obvious way — one dict operation per page access, a whole-list scan at
``end_relaunch`` — sharing no code with ``repro.mem``.  The production
organizers (handle table, index-linked lists, vectorized run kernels,
touched-page journal) must leave the same list orders and the same
``list_operations`` counts after every operation sequence.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterator

from repro.errors import PageStateError
from repro.mem.page import Hotness, Page


class LruList:
    """Ordered collection of pages, LRU at the tail, MRU at the head."""

    def __init__(self, name: str = "lru") -> None:
        self.name = name
        #: Insertion order == recency order: last item is MRU.
        self._pages: OrderedDict[int, Page] = OrderedDict()

    def __len__(self) -> int:
        return len(self._pages)

    def __contains__(self, page: Page) -> bool:
        return page.pfn in self._pages

    def __iter__(self) -> Iterator[Page]:
        """Iterate from LRU (evict-first) to MRU."""
        return iter(self._pages.values())

    def add(self, page: Page) -> None:
        if page.pfn in self._pages:
            raise PageStateError(f"page {page.pfn} already on list {self.name!r}")
        self._pages[page.pfn] = page

    def touch(self, page: Page) -> None:
        if page.pfn not in self._pages:
            raise PageStateError(f"page {page.pfn} not on list {self.name!r}")
        self._pages.move_to_end(page.pfn)

    def remove(self, page: Page) -> None:
        if self._pages.pop(page.pfn, None) is None:
            raise PageStateError(f"page {page.pfn} not on list {self.name!r}")

    def discard(self, page: Page) -> bool:
        return self._pages.pop(page.pfn, None) is not None

    def pop_lru(self) -> Page:
        if not self._pages:
            raise PageStateError(f"list {self.name!r} is empty")
        return self._pages.popitem(last=False)[1]

    def pop_lru_run(self, k: int) -> list[Page]:
        out = []
        while len(out) < k and self._pages:
            out.append(self.pop_lru())
        return out


class ReferenceActiveInactiveOrganizer:
    """Stock two-list LRU, one page at a time."""

    def __init__(self, uid: int, refill_batch: int = 32) -> None:
        self.uid = uid
        self.list_operations = 0
        self.active = LruList(f"app{uid}.active")
        self.inactive = LruList(f"app{uid}.inactive")
        self._refill_batch = refill_batch

    def add_page(self, page: Page) -> None:
        self.inactive.add(page)
        self.list_operations += 1

    def add_page_run(self, pages: list[Page]) -> None:
        for page in pages:
            self.add_page(page)

    def on_access(self, page: Page, now_ns: int) -> None:
        if page in self.inactive:
            self.inactive.remove(page)
            self.active.add(page)
            self.list_operations += 2
        elif page in self.active:
            self.active.touch(page)
            self.list_operations += 1
        else:
            raise PageStateError(
                f"page {page.pfn} accessed but not resident in app {self.uid}"
            )

    def on_access_run(self, pages: list[Page], now_ns: int) -> None:
        for page in pages:
            self.on_access(page, now_ns)

    def remove_page(self, page: Page) -> None:
        if not (self.inactive.discard(page) or self.active.discard(page)):
            raise PageStateError(f"page {page.pfn} not resident in app {self.uid}")
        self.list_operations += 1

    def pop_victim(self) -> Page:
        if not len(self.inactive):
            moved = 0
            while len(self.active) and moved < self._refill_batch:
                self.inactive.add(self.active.pop_lru())
                self.list_operations += 2
                moved += 1
        if not len(self.inactive):
            raise PageStateError(f"app {self.uid} has no pages to reclaim")
        self.list_operations += 1
        return self.inactive.pop_lru()

    def has_victims(self) -> bool:
        return bool(len(self.inactive) or len(self.active))

    def hotness_estimate(self, page: Page) -> Hotness:
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


class ReferenceHotWarmColdOrganizer:
    """HotnessOrg's tri-list policy, one page at a time."""

    def __init__(self, uid: int, hot_seed_limit: int) -> None:
        if hot_seed_limit < 0:
            raise PageStateError(
                f"hot_seed_limit must be >= 0, got {hot_seed_limit}"
            )
        self.uid = uid
        self.list_operations = 0
        self.hot = LruList(f"app{uid}.hot")
        self.warm = LruList(f"app{uid}.warm")
        self.cold = LruList(f"app{uid}.cold")
        self._hot_seed_limit = hot_seed_limit
        self._seeded = 0
        self._in_launch_window = True
        self._relaunch_active = False
        self._relaunch_accessed: set[int] = set()

    def end_launch_window(self) -> None:
        self._in_launch_window = False

    def add_page(self, page: Page) -> None:
        if self._relaunch_active:
            self.hot.add(page)
        elif self._in_launch_window and self._seeded < self._hot_seed_limit:
            self.hot.add(page)
            self._seeded += 1
        else:
            self.cold.add(page)
        self.list_operations += 1

    def add_page_run(self, pages: list[Page]) -> None:
        for page in pages:
            self.add_page(page)

    def add_page_as(self, page: Page, hotness: Hotness) -> None:
        self.level_list(hotness).add(page)
        self.list_operations += 1

    def on_access(self, page: Page, now_ns: int) -> None:
        if page in self.hot:
            self.hot.touch(page)
            self.list_operations += 1
        elif page in self.warm:
            self.warm.touch(page)
            self.list_operations += 1
        elif page in self.cold:
            self.cold.remove(page)
            self.warm.add(page)
            self.list_operations += 2
        else:
            raise PageStateError(
                f"page {page.pfn} accessed but not resident in app {self.uid}"
            )
        if self._relaunch_active:
            self._relaunch_accessed.add(page.pfn)

    def on_access_run(self, pages: list[Page], now_ns: int) -> None:
        for page in pages:
            self.on_access(page, now_ns)

    def remove_page(self, page: Page) -> None:
        for lru in (self.hot, self.warm, self.cold):
            if lru.discard(page):
                self.list_operations += 1
                return
        raise PageStateError(f"page {page.pfn} not resident in app {self.uid}")

    def begin_relaunch(self) -> None:
        self._relaunch_active = True
        self._relaunch_accessed = set()

    def end_relaunch(self) -> None:
        """Relaunch-touched pages become the hot list (warm-LRU then
        cold-LRU order); stale hot pages demote to warm."""
        if not self._relaunch_active:
            raise PageStateError(f"app {self.uid}: end_relaunch without begin")
        self._relaunch_active = False
        accessed = self._relaunch_accessed
        for page in list(self.hot):
            if page.pfn not in accessed:
                self.hot.remove(page)
                self.warm.add(page)
                self.list_operations += 2
        for lru in (self.warm, self.cold):
            for page in list(lru):
                if page.pfn in accessed:
                    lru.remove(page)
                    self.hot.add(page)
                    self.list_operations += 2
        self._relaunch_accessed = set()

    def pop_victim(self) -> Page:
        for lru in (self.cold, self.warm, self.hot):
            if len(lru):
                self.list_operations += 1
                return lru.pop_lru()
        raise PageStateError(f"app {self.uid} has no pages to reclaim")

    def level_list(self, level: Hotness) -> LruList:
        return {Hotness.HOT: self.hot, Hotness.WARM: self.warm,
                Hotness.COLD: self.cold}[level]

    def has_victims(self) -> bool:
        return bool(len(self.cold) or len(self.warm) or len(self.hot))

    def has_non_hot_victims(self) -> bool:
        return bool(len(self.cold) or len(self.warm))

    def hotness_estimate(self, page: Page) -> Hotness:
        for level in (Hotness.HOT, Hotness.WARM, Hotness.COLD):
            if page in self.level_list(level):
                return level
        raise PageStateError(f"page {page.pfn} not resident in app {self.uid}")

    def resident_pages(self) -> Iterator[Page]:
        yield from self.cold
        yield from self.warm
        yield from self.hot

    def resident_count(self) -> int:
        return len(self.cold) + len(self.warm) + len(self.hot)
