"""Page model tests."""

from __future__ import annotations

import pytest

from repro.mem import Hotness, Page, PageKind, PageLocation
from repro.units import PAGE_SIZE


def test_default_payload_is_zero_page():
    page = Page(pfn=1, uid=2)
    assert page.payload == bytes(PAGE_SIZE)


def test_wrong_payload_length_rejected():
    with pytest.raises(ValueError):
        Page(pfn=1, uid=1, payload=b"short")


def test_equality_is_by_identity_tuple():
    assert Page(pfn=1, uid=1) == Page(pfn=1, uid=1)
    assert Page(pfn=1, uid=1) != Page(pfn=1, uid=2)
    assert Page(pfn=1, uid=1) != Page(pfn=2, uid=1)


def test_pages_hash_consistently():
    a, b = Page(pfn=7, uid=3), Page(pfn=7, uid=3)
    assert len({a, b}) == 1


def test_hotness_eviction_ranks():
    # Cold evicts first, hot last.
    assert Hotness.COLD.rank > Hotness.WARM.rank > Hotness.HOT.rank


def test_default_state():
    page = Page(pfn=1, uid=1)
    assert page.location is PageLocation.DRAM
    assert page.kind is PageKind.HEAP_OBJECTS
    assert page.true_hotness is Hotness.COLD
    assert page.size == PAGE_SIZE
