"""AdaptiveComp: size-adaptive compression (Section 4.3).

Maps hotness levels to compression chunk sizes and gathers multi-page
cold groups.  The policy is deliberately tiny — the power comes from the
separation HotnessOrg provides:

- hot data -> SmallSize chunks: fastest decompression, paid on the
  relaunch critical path;
- warm data -> MediumSize chunks: still sub-page, cheap execution-time
  faults;
- cold data -> LargeSize multi-page chunks: best ratio; the whole-chunk
  decompression penalty is acceptable because cold data is rarely read.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..mem.organizer import HotWarmColdOrganizer
from ..mem.page import Hotness, Page
from .config import AriadneConfig

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .scheme import SwapScheme


def chunk_size_for(level: Hotness, config: AriadneConfig) -> int:
    """Compression chunk size AdaptiveComp uses for ``level`` data."""
    if level is Hotness.HOT:
        return config.small_size
    if level is Hotness.WARM:
        return config.medium_size
    return config.large_size


def gather_cold_group(
    organizer: HotWarmColdOrganizer,
    scheme: "SwapScheme",
    first: Page,
    group_pages: int,
) -> list[Page]:
    """Collect up to ``group_pages`` cold victims for one LargeSize chunk.

    ``first`` has already been detached; the rest are pulled from the
    same app's cold list in LRU order (allocation order for untouched
    pages), which keeps a chunk's pages adjacent — the layout PreDecomp's
    next-sector prediction and the paper's Insight 3 rely on.  Detaching
    goes through the scheme so the eviction-epoch layer sees every page
    that leaves DRAM; one walk pops the whole group, and the batched
    detach leaves the epoch/stamp state exactly where a per-page walk
    would (see ``SwapScheme._detach_pages``).
    """
    rest = organizer.cold.pop_lru_run(group_pages - 1)
    organizer.list_operations += len(rest)
    scheme._detach_pages(rest)
    return [first, *rest]
