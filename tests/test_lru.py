"""LRU-list tests, including a hypothesis model check."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PageStateError
from repro.mem import HandleTable, IndexLruList, Page


def make_page(pfn: int) -> Page:
    return Page(pfn=pfn, uid=1)


def make_list() -> IndexLruList:
    """A standalone list: list id 0 over its own handle table."""
    return IndexLruList(HandleTable(), 0, "lru")


def test_pop_lru_returns_oldest():
    lru = make_list()
    pages = [make_page(i) for i in range(3)]
    for page in pages:
        lru.add(page)
    assert lru.pop_lru() is pages[0]
    assert lru.pop_lru() is pages[1]


def test_touch_moves_to_mru():
    lru = make_list()
    pages = [make_page(i) for i in range(3)]
    for page in pages:
        lru.add(page)
    lru.touch(pages[0])
    assert lru.pop_lru() is pages[1]
    assert lru.peek_mru() is pages[0]


def test_add_lru_inserts_at_evict_end():
    lru = make_list()
    lru.add(make_page(1))
    oldest = make_page(2)
    lru.add_lru(oldest)
    assert lru.pop_lru() is oldest


def test_duplicate_add_rejected():
    lru = make_list()
    page = make_page(1)
    lru.add(page)
    with pytest.raises(PageStateError):
        lru.add(page)


def test_remove_missing_rejected_discard_tolerates():
    lru = make_list()
    page = make_page(1)
    with pytest.raises(PageStateError):
        lru.remove(page)
    assert lru.discard(page) is False
    lru.add(page)
    assert lru.discard(page) is True


def test_empty_list_operations_raise():
    lru = make_list()
    with pytest.raises(PageStateError):
        lru.pop_lru()
    with pytest.raises(PageStateError):
        lru.peek_lru()
    with pytest.raises(PageStateError):
        lru.peek_mru()


def test_total_bytes_counts_pages():
    lru = make_list()
    lru.add(make_page(1))
    lru.add(make_page(2))
    assert lru.total_bytes == 2 * 4096


def test_iteration_is_lru_to_mru():
    lru = make_list()
    pages = [make_page(i) for i in range(5)]
    for page in pages:
        lru.add(page)
    lru.touch(pages[2])
    assert [p.pfn for p in lru] == [0, 1, 3, 4, 2]


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from(["add", "touch", "pop"]), st.integers(0, 9)),
        max_size=60,
    )
)
def test_matches_reference_model(ops):
    """The list must agree with a simple list-based reference model."""
    lru = make_list()
    model: list[int] = []
    pages = {i: make_page(i) for i in range(10)}
    for op, pfn in ops:
        if op == "add" and pfn not in model:
            lru.add(pages[pfn])
            model.append(pfn)
        elif op == "touch" and pfn in model:
            lru.touch(pages[pfn])
            model.remove(pfn)
            model.append(pfn)
        elif op == "pop" and model:
            assert lru.pop_lru().pfn == model.pop(0)
    assert [p.pfn for p in lru] == model


class TestBulkOps:
    """touch_run / add_run equal their per-page loops."""

    def test_touch_run_matches_touch_loop(self):
        bulk, loop = make_list(), make_list()
        for i in range(6):
            bulk.add(make_page(i))
            loop.add(make_page(i))
        sequence = [2, 4, 2, 0, 5, 2]
        bulk.touch_run(sequence)
        for pfn in sequence:
            loop.touch(make_page(pfn))
        assert [p.pfn for p in bulk] == [p.pfn for p in loop]

    def test_touch_run_returns_count(self):
        lru = make_list()
        for i in range(3):
            lru.add(make_page(i))
        assert lru.touch_run([0, 1, 0]) == 3

    def test_touch_run_absent_pfn_raises(self):
        lru = make_list()
        lru.add(make_page(1))
        with pytest.raises(PageStateError):
            lru.touch_run([1, 99])

    def test_add_run_matches_add_loop(self):
        bulk, loop = make_list(), make_list()
        pages = [make_page(i) for i in (3, 1, 4, 1 + 10, 5)]
        bulk.add_run(pages)
        for page in pages:
            loop.add(page)
        assert [p.pfn for p in bulk] == [p.pfn for p in loop]

    def test_add_run_duplicate_raises(self):
        lru = make_list()
        lru.add(make_page(7))
        with pytest.raises(PageStateError):
            lru.add_run([make_page(8), make_page(7)])
