"""Data-organizer tests: baseline two-list and Ariadne tri-list."""

from __future__ import annotations

import pytest

from repro.errors import PageStateError
from repro.mem import (
    ActiveInactiveOrganizer,
    Hotness,
    HotWarmColdOrganizer,
    Page,
)


def pages(n: int, uid: int = 1, start: int = 0) -> list[Page]:
    return [Page(pfn=start + i, uid=uid) for i in range(n)]


class TestActiveInactive:
    def test_new_pages_start_inactive(self):
        org = ActiveInactiveOrganizer(uid=1)
        page = pages(1)[0]
        org.add_page(page)
        assert page in org.inactive
        assert org.hotness_estimate(page) is Hotness.COLD

    def test_access_promotes_to_active(self):
        org = ActiveInactiveOrganizer(uid=1)
        page = pages(1)[0]
        org.add_page(page)
        org.on_access(page)
        assert page in org.active
        assert org.hotness_estimate(page) is Hotness.WARM

    def test_victims_come_from_inactive_in_lru_order(self):
        org = ActiveInactiveOrganizer(uid=1)
        batch = pages(3)
        for page in batch:
            org.add_page(page)
        assert org.pop_victim() is batch[0]
        assert org.pop_victim() is batch[1]

    def test_active_refills_inactive_when_dry(self):
        org = ActiveInactiveOrganizer(uid=1, refill_batch=2)
        batch = pages(2)
        for page in batch:
            org.add_page(page)
            org.on_access(page)  # all promoted to active
        victim = org.pop_victim()
        assert victim is batch[0]  # demoted active-LRU tail

    def test_access_to_unknown_page_raises(self):
        org = ActiveInactiveOrganizer(uid=1)
        with pytest.raises(PageStateError):
            org.on_access(pages(1)[0])

    def test_pop_from_empty_raises(self):
        org = ActiveInactiveOrganizer(uid=1)
        with pytest.raises(PageStateError):
            org.pop_victim()

    def test_resident_accounting(self):
        org = ActiveInactiveOrganizer(uid=1)
        for page in pages(4):
            org.add_page(page)
        assert org.resident_count() == 4


class TestHotWarmCold:
    def build(self, seed_limit: int = 3) -> HotWarmColdOrganizer:
        return HotWarmColdOrganizer(uid=1, hot_seed_limit=seed_limit)

    def test_launch_pages_seed_hot_list(self):
        org = self.build(seed_limit=2)
        batch = pages(4)
        for page in batch:
            org.add_page(page)
        assert [p in org.hot for p in batch] == [True, True, False, False]
        assert batch[2] in org.cold

    def test_post_launch_pages_go_cold(self):
        org = self.build(seed_limit=1)
        org.add_page(pages(1)[0])
        org.end_launch_window()
        late = Page(pfn=99, uid=1)
        org.add_page(late)
        assert late in org.cold

    def test_cold_access_promotes_to_warm(self):
        org = self.build(seed_limit=0)
        page = pages(1)[0]
        org.add_page(page)
        org.on_access(page)
        assert page in org.warm
        assert org.hotness_estimate(page) is Hotness.WARM

    def test_eviction_order_cold_warm_hot(self):
        org = self.build(seed_limit=1)
        hot, cold, warm = pages(3)
        org.add_page(hot)          # seeded hot
        org.add_page(cold)         # cold
        org.add_page(warm)
        org.on_access(warm)        # promoted to warm
        assert org.pop_victim() is cold
        assert org.pop_victim() is warm
        assert org.pop_victim() is hot

    def test_relaunch_update_demotes_stale_hot(self):
        org = self.build(seed_limit=2)
        stale, fresh = pages(2)
        org.add_page(stale)
        org.add_page(fresh)
        org.begin_relaunch()
        org.on_access(fresh)
        org.end_relaunch()
        assert fresh in org.hot
        assert stale in org.warm

    def test_relaunch_promotes_touched_cold_to_hot(self):
        org = self.build(seed_limit=0)
        page = pages(1)[0]
        org.add_page(page)  # cold
        org.begin_relaunch()
        org.on_access(page)
        org.end_relaunch()
        assert page in org.hot

    def test_faulted_but_untouched_relaunch_page_demotes_to_warm(self):
        org = self.build(seed_limit=0)
        org.begin_relaunch()
        sibling = Page(pfn=50, uid=1)
        org.add_page(sibling)  # materialized by a group chunk, never read
        org.end_relaunch()
        assert sibling in org.warm

    def test_end_relaunch_without_begin_raises(self):
        with pytest.raises(PageStateError):
            self.build().end_relaunch()

    def test_has_non_hot_victims(self):
        org = self.build(seed_limit=1)
        hot = pages(1)[0]
        org.add_page(hot)
        assert org.has_victims()
        assert not org.has_non_hot_victims()
        org.end_launch_window()
        cold = Page(pfn=10, uid=1)
        org.add_page(cold)
        assert org.has_non_hot_victims()

    def test_negative_seed_limit_rejected(self):
        with pytest.raises(PageStateError):
            HotWarmColdOrganizer(uid=1, hot_seed_limit=-1)

    def test_list_operations_counted(self):
        org = self.build(seed_limit=0)
        page = pages(1)[0]
        org.add_page(page)
        before = org.list_operations
        org.on_access(page)
        assert org.list_operations > before
