"""Anonymous page model.

A :class:`Page` is the unit everything else moves around: 4 KB of
process-execution data (stack/heap/UI state).  Pages carry both *ground
truth* hotness (assigned by the workload generator from how the page is
actually used across relaunches — the classification of Section 3,
Insight 1) and runtime state (where the page currently lives).  Schemes
never read the ground truth; it exists so experiments can score a
scheme's hotness identification (Figure 14).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..units import PAGE_SIZE


class PageKind(enum.Enum):
    """Content category of an anonymous page (drives synthetic payloads)."""

    HEAP_OBJECTS = "heap"
    STACK = "stack"
    UI_SURFACE = "ui"
    BITMAP = "bitmap"
    CODE_CACHE = "jit"
    ZERO = "zero"


class Hotness(enum.Enum):
    """The paper's three-level hotness classification (Section 1).

    - HOT: used during application relaunch; on the relaunch critical path.
    - WARM: potentially used during execution after relaunch.
    - COLD: usually never used again.
    """

    HOT = "hot"
    WARM = "warm"
    COLD = "cold"

    @property
    def rank(self) -> int:
        """Eviction priority: higher rank is evicted earlier."""
        return {Hotness.HOT: 0, Hotness.WARM: 1, Hotness.COLD: 2}[self]


class PageLocation(enum.Enum):
    """Where a page's data currently resides."""

    DRAM = "dram"
    ZPOOL = "zpool"
    FLASH = "flash"
    #: Staged in PreDecomp's decompressed-ahead buffer.
    STAGING = "staging"


@dataclass
class Page:
    """One 4 KB anonymous page.

    Attributes:
        pfn: Page frame number; unique per page within a trace.
        uid: Owning application id.
        kind: Content category (what the payload generator synthesized).
        payload: The page's actual bytes (always ``PAGE_SIZE`` long).
        true_hotness: Ground-truth classification from the generator.
        location: Current residence of the data.
    """

    pfn: int
    uid: int
    kind: PageKind = PageKind.HEAP_OBJECTS
    payload: bytes = b""
    true_hotness: Hotness = Hotness.COLD
    location: PageLocation = PageLocation.DRAM
    #: Cached 16-byte blake2b of the payload (see :meth:`content_digest`).
    _content_digest: bytes | None = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not self.payload:
            self.payload = bytes(PAGE_SIZE)
        if len(self.payload) != PAGE_SIZE:
            raise ValueError(
                f"page {self.pfn} payload is {len(self.payload)} bytes, "
                f"expected {PAGE_SIZE}"
            )

    @property
    def size(self) -> int:
        """Page size in bytes (constant, provided for readability)."""
        return PAGE_SIZE

    def content_digest(self) -> bytes:
        """Collision-safe content key of the payload, computed once.

        A page's payload never changes after materialization, so the
        digest is cached — trace records pre-share theirs (one hash per
        page per *process*, not per run), and pages built directly in
        tests compute it lazily here.  Size-cache lookups key chunk
        groups by these digests instead of re-hashing the concatenated
        payload on every compression.
        """
        digest = self._content_digest
        if digest is None:
            from ..compression.chunking import payload_digest

            digest = self._content_digest = payload_digest(self.payload)
        return digest

    def __hash__(self) -> int:
        return hash((self.pfn, self.uid))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Page):
            return NotImplemented
        return self.pfn == other.pfn and self.uid == other.uid
