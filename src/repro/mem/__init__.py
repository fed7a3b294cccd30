"""Memory substrate: pages, LRU lists, data organizers, main memory.

This package models the parts of the Linux memory-management stack the
paper's techniques live in: anonymous pages, the kernel's LRU page lists
(active/inactive in stock Android, hot/warm/cold under Ariadne's
HotnessOrg), and a capacity-tracked main memory.  The organizers
(:mod:`repro.mem.organizer`) keep per-page metadata in a numpy handle
table with index-linked LRU lists (:mod:`repro.mem.lru`) over it.
"""

from .dram import MainMemory
from .lru import IndexLruList
from .organizer import (
    ActiveInactiveOrganizer,
    DataOrganizer,
    HandleTable,
    HotWarmColdOrganizer,
)
from .page import Hotness, Page, PageKind, PageLocation

__all__ = [
    "ActiveInactiveOrganizer",
    "DataOrganizer",
    "HandleTable",
    "Hotness",
    "HotWarmColdOrganizer",
    "IndexLruList",
    "MainMemory",
    "Page",
    "PageKind",
    "PageLocation",
]
