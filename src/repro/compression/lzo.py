"""An LZO-class byte-aligned LZ77 codec.

LZO1X (the other codec Android's zram ships) is a family of byte-aligned,
greedy, minimum-match-3 LZ77 coders optimized for decompression speed.
Reimplementing LZO1X's exact bitstream serves no evaluation purpose here,
so this module implements a codec with the same *design point* — byte
aligned control codes, minimum match 3, 32 KiB window, greedy parse —
under a simple explicit format:

- control byte ``0x00..0x7F``: a literal run of ``control + 1`` bytes
  (1..128) follows;
- control byte ``0x80..0xFF``: a match; ``(control & 0x7F) + 3`` gives a
  match length of 3..130, followed by a 2-byte little-endian backward
  distance (1-based, up to 32 KiB).

DESIGN.md records this substitution (real LZO1X -> LZO-class codec).

Encoder structure
-----------------

The reference parse is a greedy scan with a 3-gram hash table mapping
each visited gram to its most recent visited position (positions inside
emitted matches are skipped and never enter the table).  Two encoder
paths produce that exact parse:

- ``_compress_scan``: the direct scan, used below ``_INDEXED_MIN_LEN``
  (where the indexed path's fixed numpy cost wins nothing);
- ``_compress_indexed``: the fast path.  All previous-occurrence
  structure is precomputed at C speed (one ``numpy`` sort of
  position-tagged 3-gram keys yields, per position, whether the gram
  occurred before at all and where its first occurrence sits), so the
  Python loop only touches positions that can possibly match.  A flat
  table indexed by first-occurrence position replaces the dict; entries
  under an emitted match are invalidated with one slice assignment,
  which reproduces exactly the "skipped positions never enter the
  table" rule.

Both paths emit byte-identical output for every input (the differential
tests in ``tests/test_codec_equivalence.py`` are the contract), so
callers never observe which one ran.
"""

from __future__ import annotations

from array import array

import numpy as _np

from ..errors import CompressionError, CorruptDataError
from .base import Compressor

_MIN_MATCH = 3
_MAX_MATCH = 130
_MAX_LITERAL_RUN = 128
_MAX_DISTANCE = 32 * 1024

#: Below this input size the indexed path's fixed numpy overhead wins
#: nothing; both paths emit identical bytes so the cutoff is free to tune.
_INDEXED_MIN_LEN = 512


class LzoCompressor(Compressor):
    """Byte-aligned minimum-match-3 LZ77 codec (LZO design point)."""

    name = "lzo"

    def __init__(self, max_distance: int = _MAX_DISTANCE) -> None:
        if not 1 <= max_distance <= _MAX_DISTANCE:
            raise CompressionError(
                f"max_distance must be in [1, {_MAX_DISTANCE}], got {max_distance}"
            )
        self._max_distance = max_distance

    def compress(self, data: bytes) -> bytes:
        if len(data) >= _INDEXED_MIN_LEN:
            return _compress_indexed(data, self._max_distance)
        return _compress_scan(data, self._max_distance)

    def compressed_size(self, data: bytes) -> int:
        """Size of ``compress(data)`` without materializing the blob.

        Runs the identical parse but tallies output bytes arithmetically
        (literal runs cost ``run + ceil(run / 128)``, matches cost 3), so
        the size cache's hot path skips every output copy.  Equality with
        ``len(compress(data))`` is pinned by the differential tests.
        """
        if len(data) >= _INDEXED_MIN_LEN:
            return _size_indexed(data, self._max_distance)
        return _size_scan(data, self._max_distance)

    def decompress(self, blob: bytes, original_len: int) -> bytes:
        out = bytearray()
        pos = 0
        blob_len = len(blob)
        while pos < blob_len:
            control = blob[pos]
            pos += 1
            if control < 0x80:
                run = control + 1
                if pos + run > blob_len:
                    raise CorruptDataError("lzo: literal run past end of block")
                out += blob[pos : pos + run]
                pos += run
            else:
                if pos + 2 > blob_len:
                    raise CorruptDataError("lzo: truncated match distance")
                match_len = (control & 0x7F) + _MIN_MATCH
                distance = blob[pos] | (blob[pos + 1] << 8)
                pos += 2
                if distance == 0 or distance > len(out):
                    raise CorruptDataError(
                        f"lzo: invalid distance {distance} at output size {len(out)}"
                    )
                start = len(out) - distance
                if distance >= match_len:
                    out += out[start : start + match_len]
                else:
                    for i in range(match_len):
                        out.append(out[start + i])
        if len(out) != original_len:
            raise CorruptDataError(
                f"lzo: decoded {len(out)} bytes, expected {original_len}"
            )
        return bytes(out)


def _compress_scan(data: bytes, max_distance: int) -> bytes:
    """The reference greedy parse, expressed directly.

    ``dict.setdefault`` serves as combined probe-and-insert: a miss
    inserts the position in the same dict operation the lookup used; a
    hit is followed by an explicit overwrite, matching the reference
    "table always holds the most recent visited position" rule.
    """
    n = len(data)
    if n == 0:
        return b""
    out = bytearray()
    out_append = out.append
    table: dict[bytes, int] = {}
    setdefault = table.setdefault
    pos = 0
    literal_start = 0
    scan_end = n - _MIN_MATCH
    unbounded = n <= max_distance
    while pos <= scan_end:
        key = data[pos : pos + 3]
        candidate = setdefault(key, pos)
        if candidate != pos:
            table[key] = pos
            if unbounded or pos - candidate <= max_distance:
                match_len = _extend_match(data, candidate, pos, n)
                _emit_literals(out, out_append, data, literal_start, pos)
                distance = pos - candidate
                out_append(0x80 | (match_len - _MIN_MATCH))
                out_append(distance & 0xFF)
                out_append(distance >> 8)
                pos += match_len
                literal_start = pos
                continue
        pos += 1
    _flush_literals(out, data, literal_start, n)
    return bytes(out)


class _IndexedWorkspace:
    """Reusable scratch buffers for :func:`_compress_indexed`.

    The indexed path streams several intermediate arrays per call;
    allocating them fresh each time costs more than the arithmetic once
    the encoder runs inside a large simulation heap (page faults and
    allocator churn).  One workspace per process is reused for every
    input up to ``cap`` grams — like every encoder in this module it is
    not thread-safe, matching the simulator's single-threaded use.
    """

    def __init__(self, cap: int) -> None:
        self.g32 = _np.empty(cap, dtype=_np.uint32)
        self.s32 = _np.empty(cap, dtype=_np.uint32)
        self.root = _np.empty(cap, dtype=_np.int32)
        self.bool_ = _np.empty(cap, dtype=bool)
        self.idx32 = _np.arange(cap, dtype=_np.int32)
        #: The match table's initial contents (entry i holds i + 1)
        #: never vary, so one prebuilt byte image resets it per call
        #: (kept as a memoryview so the reset is a single copy-free
        #: slice handoff into one memcpy).
        self.table_init = memoryview((self.idx32 + 1).tobytes())
        self.mask = bytearray(cap)
        self.roots = array("i", bytes(4 * cap))
        self.table = array("i", bytes(4 * cap))
        self.mask_mv = memoryview(self.mask)
        self.roots_mv = memoryview(self.roots).cast("B")
        self.table_mv = memoryview(self.table).cast("B")


_WORKSPACE: _IndexedWorkspace | None = None
_WORKSPACE_CAP = 64 * 1024

#: Direct-address previous-occurrence table over all 2^24 3-grams
#: (64 MiB, allocated lazily per process).  Never cleared between
#: inputs: each call gathers only at grams it scattered this call, so
#: stale entries are unreachable by construction.
_GRAM_TABLE = None


def _gram_table():
    global _GRAM_TABLE
    if _GRAM_TABLE is None:
        _GRAM_TABLE = _np.empty(1 << 24, dtype=_np.int32)
    return _GRAM_TABLE


def _build_index(data: bytes, n: int):
    """Previous-occurrence structure for the indexed parse.

    Two scatters and a gather against the direct-address 3-gram table
    yield, per position, the first occurrence of its 3-gram and whether
    any earlier occurrence exists at all: scattering positions in
    *reversed* order leaves each gram's slot holding its smallest
    position (NumPy fancy assignment applies indices in order, so the
    last write — the lowest position — wins), replacing the former
    sort-based group pass at a fraction of the cost.  Returns
    ``(mask, roots, table, m)`` where ``m = n - 2`` grams exist:

    - ``mask[pos]`` is 1 iff the gram at ``pos`` occurred earlier —
      positions outside it are guaranteed misses the scan loops skip
      with C-speed ``find``;
    - ``roots[pos]`` is the gram's first occurrence;
    - ``table`` is the flat match table indexed by root: entry ``r``
      starts as ``r + 1`` ("the first occurrence itself is the
      candidate"), is overwritten with ``pos + 1`` at each visited
      occurrence, and is zeroed (no candidate) when a match interior
      swallows it — see the scan loops for why clearing the final two
      interior entries covers the whole interior.
    """
    global _WORKSPACE
    m = n - 2
    if m > _WORKSPACE_CAP:
        ws = _IndexedWorkspace(m)  # oversized input: dedicated buffers
    else:
        if _WORKSPACE is None:
            _WORKSPACE = _IndexedWorkspace(_WORKSPACE_CAP)
        ws = _WORKSPACE
    af = _np.frombuffer(data, dtype=_np.uint8)
    gram = ws.g32[:m]
    scratch = ws.s32[:m]
    _np.copyto(gram, af[:m])
    gram <<= 8
    _np.copyto(scratch, af[1 : 1 + m])
    gram |= scratch
    gram <<= 8
    _np.copyto(scratch, af[2 : 2 + m])
    gram |= scratch
    idxs = ws.idx32[:m]
    root_pos = ws.root[:m]
    table24 = _gram_table()
    table24[gram[::-1]] = idxs[::-1]
    # Every gram value is < 2^24, so bounds checking is pure overhead.
    _np.take(table24, gram, out=root_pos, mode="clip")
    mask_arr = ws.bool_[:m]
    _np.not_equal(root_pos, idxs, out=mask_arr)
    ws.mask_mv[:m] = mask_arr.view(_np.uint8)
    ws.roots_mv[: 4 * m] = root_pos.view(_np.uint8)
    ws.table_mv[: 4 * m] = ws.table_init[: 4 * m]
    return ws.mask, ws.roots, ws.table, m


def _compress_indexed(data: bytes, max_distance: int) -> bytes:
    """The fast path: same parse as the scan, driven by the prebuilt
    previous-occurrence index (see :func:`_build_index`)."""
    n = len(data)
    if n < _MIN_MATCH:
        out = bytearray()
        _flush_literals(out, data, 0, n)
        return bytes(out)
    mask, roots, table, m = _build_index(data, n)

    out = bytearray()
    out_append = out.append
    literal_start = 0
    unbounded = n <= max_distance
    scan_limit = n - 2
    find_interesting = mask.find
    pos = find_interesting(1, 0, scan_limit)
    while pos >= 0:
        root = roots[pos]
        candidate = table[root] - 1
        table[root] = pos + 1
        if candidate >= 0 and (unbounded or pos - candidate <= max_distance):
            match_len = _extend_match(data, candidate, pos, n)
            _emit_literals(out, out_append, data, literal_start, pos)
            distance = pos - candidate
            out_append(0x80 | (match_len - _MIN_MATCH))
            out_append(distance & 0xFF)
            out_append(distance >> 8)
            end = pos + match_len
            # Invalidate the swallowed interior (see _size_indexed for
            # why clearing the last two entries is the whole job).
            zero_to = end if end <= m else m
            q = end - 2
            if q < zero_to:
                table[q] = 0
                q += 1
                if q < zero_to:
                    table[q] = 0
            literal_start = end
            pos = find_interesting(1, end, scan_limit)
        else:
            pos = find_interesting(1, pos + 1, scan_limit)
    _flush_literals(out, data, literal_start, n)
    return bytes(out)


def _size_scan(data: bytes, max_distance: int) -> int:
    """``len(_compress_scan(data, max_distance))`` without building output."""
    n = len(data)
    if n == 0:
        return 0
    size = 0
    table: dict[bytes, int] = {}
    setdefault = table.setdefault
    pos = 0
    literal_start = 0
    scan_end = n - _MIN_MATCH
    unbounded = n <= max_distance
    while pos <= scan_end:
        key = data[pos : pos + 3]
        candidate = setdefault(key, pos)
        if candidate != pos:
            table[key] = pos
            if unbounded or pos - candidate <= max_distance:
                match_len = _extend_match(data, candidate, pos, n)
                run = pos - literal_start
                if run:
                    size += run + (run + 127) // 128
                size += 3
                pos += match_len
                literal_start = pos
                continue
        pos += 1
    run = n - literal_start
    if run:
        size += run + (run + 127) // 128
    return size


def _size_indexed(data: bytes, max_distance: int) -> int:
    """``len(_compress_indexed(data, max_distance))`` without building output.

    Identical parse to :func:`_compress_indexed`; a literal run of
    ``run`` bytes costs ``run + ceil(run / 128)`` output bytes and every
    match costs 3, so the tally is pure arithmetic.  The match extension
    is inlined — this loop is the hottest code in system-level runs.
    """
    n = len(data)
    if n < _MIN_MATCH:
        return n + 1 if n else 0
    mask, roots, table, m = _build_index(data, n)

    size = 0
    literal_start = 0
    unbounded = n <= max_distance
    scan_limit = n - 2  # mask positions n-3 .. n-3 inclusive == [0, n-2)
    find_interesting = mask.find
    from_bytes = int.from_bytes
    pos = find_interesting(1, 0, scan_limit)
    while pos >= 0:
        root = roots[pos]
        candidate = table[root] - 1
        table[root] = pos + 1
        if candidate >= 0 and (unbounded or pos - candidate <= max_distance):
            limit = n - pos
            if limit > _MAX_MATCH:
                limit = _MAX_MATCH
            ext = limit - 3
            src = candidate + 3
            dst = pos + 3
            if ext <= 0:
                match_len = 3
            else:
                # Two-stage XOR (see _extend_match): most matches end
                # inside the first 64 bytes, so probing that window
                # first halves the bigint work on the common case.  No
                # first-byte guard here: only ~4% of matches stop at
                # the minimum length, so the probe costs more than the
                # early exit saves.
                head = ext if ext < 64 else 64
                x = from_bytes(data[src : src + head], "little") ^ from_bytes(
                    data[dst : dst + head], "little"
                )
                if x:
                    match_len = 3 + (((x & -x).bit_length() - 1) >> 3)
                elif head == ext:
                    match_len = limit
                else:
                    x = from_bytes(data[src + 64 : src + ext], "little") ^ from_bytes(
                        data[dst + 64 : dst + ext], "little"
                    )
                    if x == 0:
                        match_len = limit
                    else:
                        match_len = 67 + (((x & -x).bit_length() - 1) >> 3)
            run = pos - literal_start
            if run:
                size += run + (run + 127) // 128
            size += 3
            end = pos + match_len
            # Invalidate the swallowed interior.  The reference rule is
            # "skipped positions never enter the table", which the
            # indexed parse models by clearing interior entries — but
            # only entries that can be *read* again matter, and reads
            # happen at ``table[root]`` where roots are first
            # occurrences (mask 0).  Every interior position up to
            # ``end - 3`` repeats the gram at ``position - distance``
            # inside the match source, so it has an earlier occurrence
            # (mask 1) and can never be a root; only the final two
            # positions' grams straddle the match end and may be novel
            # first occurrences.  Clearing those two entries is
            # therefore exactly equivalent to clearing the whole
            # interior (the differential tests hold both paths to the
            # reference parse).
            zero_to = end if end <= m else m
            q = end - 2
            if q < zero_to:
                table[q] = 0
                q += 1
                if q < zero_to:
                    table[q] = 0
            literal_start = end
            # The next interesting position usually is `end` itself
            # (match interiors repeat earlier grams, and so does the
            # data right after them): one subscript probe beats a find
            # call in the common case.
            if end < scan_limit and mask[end]:
                pos = end
            else:
                pos = find_interesting(1, end, scan_limit)
        else:
            pos = find_interesting(1, pos + 1, scan_limit)
    run = n - literal_start
    if run:
        size += run + (run + 127) // 128
    return size


def _extend_match(data: bytes, candidate: int, pos: int, n: int) -> int:
    """Length of the greedy match at ``pos`` against ``candidate`` (3..130).

    The extension is the common-prefix length of the two tails, capped
    at the window; instead of stepping bytewise it XORs the tails as
    little-endian integers — the count of trailing zero *bytes* of the
    XOR is exactly the number of leading equal bytes — probing the
    first 64 bytes before the (at most 63-byte) remainder, since most
    matches end inside the first window.  Overlap is fine: comparison,
    unlike copying, has no ordering hazard.
    """
    limit = n - pos
    if limit > _MAX_MATCH:
        limit = _MAX_MATCH
    ext = limit - _MIN_MATCH
    src = candidate + _MIN_MATCH
    dst = pos + _MIN_MATCH
    if ext <= 0 or data[src] != data[dst]:
        return _MIN_MATCH
    head = ext if ext < 64 else 64
    x = int.from_bytes(data[src : src + head], "little") ^ int.from_bytes(
        data[dst : dst + head], "little"
    )
    if x:
        return _MIN_MATCH + (((x & -x).bit_length() - 1) >> 3)
    if head == ext:
        return limit
    x = int.from_bytes(data[src + 64 : src + ext], "little") ^ int.from_bytes(
        data[dst + 64 : dst + ext], "little"
    )
    if x == 0:
        return limit
    return _MIN_MATCH + 64 + (((x & -x).bit_length() - 1) >> 3)


def _emit_literals(out, out_append, data, start: int, end: int) -> None:
    """Emit pending literals before a match (fast path for short runs)."""
    if start < end:
        run = end - start
        if run <= _MAX_LITERAL_RUN:
            out_append(run - 1)
            out += data[start:end]
        else:
            _flush_literals(out, data, start, end)


def _flush_literals(out: bytearray, data: bytes, start: int, end: int) -> None:
    """Emit pending literals ``data[start:end]`` as 1..128-byte runs."""
    while start < end:
        run = min(end - start, _MAX_LITERAL_RUN)
        out.append(run - 1)
        out += data[start : start + run]
        start += run
