"""A real LZ4 block-format codec written from scratch in pure Python.

This implements the documented LZ4 *block* format (token byte with
4-bit literal-length / 4-bit match-length nibbles, 255-run length
extensions, 2-byte little-endian match offsets, minimum match of 4,
final 5 bytes always literal).  Output produced by
:meth:`Lz4Compressor.compress` is decodable by the reference ``lz4``
library, and :meth:`Lz4Compressor.decompress` decodes reference-encoded
blocks — the format is the contract, the implementation is ours.

The encoder is a greedy single-entry hash-chain matcher with LZ4-style
skip acceleration, which is what the kernel's LZ4 "fast" compressor
(used by zram) does as well.

From ``_VECTOR_MIN_LEN`` bytes up the encoder precomputes every position's
32-bit word and hash slot in one vectorized pass, so the scan loop does
two list reads per probe instead of slicing, ``int.from_bytes`` and a
Python-level hash per position; candidate verification becomes one int
compare.  The parse — and therefore the emitted block — is byte-for-byte
identical to the direct scan (``tests/test_codec_equivalence.py``).
"""

from __future__ import annotations

from array import array

import numpy as _np

from ..errors import CompressionError, CorruptDataError
from .base import Compressor

#: Inputs shorter than this gain nothing from the vectorized precompute.
_VECTOR_MIN_LEN = 256

_MIN_MATCH = 4
_MAX_OFFSET = 0xFFFF
#: The spec requires the last 5 bytes of a block to be literals and the
#: last match to start at least 12 bytes before the end of the block.
_LAST_LITERALS = 5
_MFLIMIT = 12
_HASH_MASK = (1 << 16) - 1
#: Multiplicative hash constant (Fibonacci hashing on 32-bit reads).
_HASH_MUL = 2654435761


def _hash32(word: int) -> int:
    """Hash a 32-bit little-endian word to a 16-bit table index."""
    return ((word * _HASH_MUL) & 0xFFFFFFFF) >> 16


class Lz4Compressor(Compressor):
    """LZ4 block-format compressor/decompressor.

    Args:
        acceleration: Greedy-search skip factor; 1 searches hardest
            (best ratio), larger values skip ahead faster after repeated
            misses, trading ratio for speed, mirroring the reference
            implementation's ``acceleration`` parameter.
    """

    name = "lz4"

    def __init__(self, acceleration: int = 1) -> None:
        if acceleration < 1:
            raise CompressionError(f"acceleration must be >= 1, got {acceleration}")
        self._acceleration = acceleration

    # -- encoding -----------------------------------------------------------

    def compress(self, data: bytes) -> bytes:
        n = len(data)
        if n == 0:
            # A block holding the empty string: a lone zero token.
            return b"\x00"
        if n < _MFLIMIT + 1:
            return _emit_final_literals(data, 0)
        if n >= _VECTOR_MIN_LEN:
            return self._compress_vector(data)
        return self._compress_scan(data)

    def _compress_scan(self, data: bytes) -> bytes:
        """Direct scan (short inputs, and the vector path's reference)."""
        n = len(data)
        out = bytearray()
        table: dict[int, int] = {}
        anchor = 0
        pos = 0
        # Matches may not begin after this position (spec end-of-block rules).
        match_limit = n - _MFLIMIT
        search_step = self._acceleration << 6
        view = data

        while pos <= match_limit:
            word = int.from_bytes(view[pos : pos + 4], "little")
            slot = _hash32(word)
            candidate = table.get(slot, -1)
            table[slot] = pos
            if (
                candidate >= 0
                and pos - candidate <= _MAX_OFFSET
                and view[candidate : candidate + 4] == view[pos : pos + 4]
            ):
                # Extend the match forward, honouring the last-literals rule.
                match_len = _MIN_MATCH
                limit = n - _LAST_LITERALS
                src = candidate + _MIN_MATCH
                dst = pos + _MIN_MATCH
                while (
                    dst + 8 <= limit
                    and view[src : src + 8] == view[dst : dst + 8]
                ):
                    src += 8
                    dst += 8
                    match_len += 8
                while dst < limit and view[src] == view[dst]:
                    src += 1
                    dst += 1
                    match_len += 1
                _emit_sequence(
                    out, view, anchor, pos - anchor, pos - candidate, match_len
                )
                pos += match_len
                anchor = pos
                search_step = self._acceleration << 6
                # Insert a position inside the match to help future matches.
                if pos - 2 > candidate and pos - 2 <= match_limit:
                    inner = int.from_bytes(view[pos - 2 : pos + 2], "little")
                    table[_hash32(inner)] = pos - 2
            else:
                pos += 1 + (search_step >> 6)
                search_step += self._acceleration

        out += _emit_final_literals(view[anchor:], 0)
        return bytes(out)

    def _compress_vector(self, data: bytes) -> bytes:
        """Same parse with words and hash slots precomputed at C speed."""
        n = len(data)
        a = _np.frombuffer(data, dtype=_np.uint8).astype(_np.uint32)
        words_arr = a[:-3] | (a[1:-2] << 8) | (a[2:-1] << 16) | (a[3:] << 24)
        # uint32 arithmetic wraps modulo 2**32, exactly like _hash32.
        slots_arr = (words_arr * _np.uint32(_HASH_MUL)) >> _np.uint32(16)
        slots = array("i")
        slots.frombytes(slots_arr.astype(_np.int32).tobytes())

        out = bytearray()
        table: dict[int, int] = {}
        table_get = table.get
        anchor = 0
        pos = 0
        match_limit = n - _MFLIMIT
        acceleration = self._acceleration
        search_step = acceleration << 6
        view = data

        while pos <= match_limit:
            slot = slots[pos]
            candidate = table_get(slot, -1)
            table[slot] = pos
            if (
                candidate >= 0
                and pos - candidate <= _MAX_OFFSET
                and view[candidate : candidate + 4] == view[pos : pos + 4]
            ):
                match_len = _MIN_MATCH
                limit = n - _LAST_LITERALS
                src = candidate + _MIN_MATCH
                dst = pos + _MIN_MATCH
                while (
                    dst + 16 <= limit
                    and view[src : src + 16] == view[dst : dst + 16]
                ):
                    src += 16
                    dst += 16
                    match_len += 16
                while dst < limit and view[src] == view[dst]:
                    src += 1
                    dst += 1
                    match_len += 1
                _emit_sequence(
                    out, view, anchor, pos - anchor, pos - candidate, match_len
                )
                pos += match_len
                anchor = pos
                search_step = acceleration << 6
                if pos - 2 > candidate and pos - 2 <= match_limit:
                    table[slots[pos - 2]] = pos - 2
            else:
                pos += 1 + (search_step >> 6)
                search_step += acceleration

        out += _emit_final_literals(view[anchor:], 0)
        return bytes(out)

    # -- sizing -------------------------------------------------------------

    def compressed_size(self, data: bytes) -> int:
        """Size of ``compress(data)`` without materializing the block.

        Runs the identical parse but tallies output arithmetically: a
        sequence costs ``1 (token) + extension bytes + literal_len + 2
        (offset) + extension bytes``, the final all-literal sequence
        costs ``1 + extension bytes + literal_len`` — mirroring LZO's
        size-only path so LZ4 is equally cheap if it lands on a hot
        path.  Equality with ``len(compress(data))`` is pinned by the
        differential tests.
        """
        n = len(data)
        if n == 0:
            return 1  # the lone zero token
        if n < _MFLIMIT + 1:
            return _final_literals_size(n)
        if n >= _VECTOR_MIN_LEN:
            return self._size_vector(data)
        return self._size_scan(data)

    def _size_scan(self, data: bytes) -> int:
        """Size-only twin of :meth:`_compress_scan` (same parse)."""
        n = len(data)
        size = 0
        table: dict[int, int] = {}
        anchor = 0
        pos = 0
        match_limit = n - _MFLIMIT
        search_step = self._acceleration << 6
        view = data

        while pos <= match_limit:
            word = int.from_bytes(view[pos : pos + 4], "little")
            slot = _hash32(word)
            candidate = table.get(slot, -1)
            table[slot] = pos
            if (
                candidate >= 0
                and pos - candidate <= _MAX_OFFSET
                and view[candidate : candidate + 4] == view[pos : pos + 4]
            ):
                match_len = _MIN_MATCH
                limit = n - _LAST_LITERALS
                src = candidate + _MIN_MATCH
                dst = pos + _MIN_MATCH
                while (
                    dst + 8 <= limit
                    and view[src : src + 8] == view[dst : dst + 8]
                ):
                    src += 8
                    dst += 8
                    match_len += 8
                while dst < limit and view[src] == view[dst]:
                    src += 1
                    dst += 1
                    match_len += 1
                size += _sequence_size(pos - anchor, match_len)
                pos += match_len
                anchor = pos
                search_step = self._acceleration << 6
                if pos - 2 > candidate and pos - 2 <= match_limit:
                    inner = int.from_bytes(view[pos - 2 : pos + 2], "little")
                    table[_hash32(inner)] = pos - 2
            else:
                pos += 1 + (search_step >> 6)
                search_step += self._acceleration

        return size + _final_literals_size(n - anchor)

    def _size_vector(self, data: bytes) -> int:
        """Size-only twin of :meth:`_compress_vector` (same parse)."""
        n = len(data)
        a = _np.frombuffer(data, dtype=_np.uint8).astype(_np.uint32)
        words_arr = a[:-3] | (a[1:-2] << 8) | (a[2:-1] << 16) | (a[3:] << 24)
        slots_arr = (words_arr * _np.uint32(_HASH_MUL)) >> _np.uint32(16)
        slots = array("i")
        slots.frombytes(slots_arr.astype(_np.int32).tobytes())

        size = 0
        table: dict[int, int] = {}
        table_get = table.get
        anchor = 0
        pos = 0
        match_limit = n - _MFLIMIT
        acceleration = self._acceleration
        search_step = acceleration << 6
        view = data

        while pos <= match_limit:
            slot = slots[pos]
            candidate = table_get(slot, -1)
            table[slot] = pos
            if (
                candidate >= 0
                and pos - candidate <= _MAX_OFFSET
                and view[candidate : candidate + 4] == view[pos : pos + 4]
            ):
                match_len = _MIN_MATCH
                limit = n - _LAST_LITERALS
                src = candidate + _MIN_MATCH
                dst = pos + _MIN_MATCH
                while (
                    dst + 16 <= limit
                    and view[src : src + 16] == view[dst : dst + 16]
                ):
                    src += 16
                    dst += 16
                    match_len += 16
                while dst < limit and view[src] == view[dst]:
                    src += 1
                    dst += 1
                    match_len += 1
                size += _sequence_size(pos - anchor, match_len)
                pos += match_len
                anchor = pos
                search_step = acceleration << 6
                if pos - 2 > candidate and pos - 2 <= match_limit:
                    table[slots[pos - 2]] = pos - 2
            else:
                pos += 1 + (search_step >> 6)
                search_step += acceleration

        return size + _final_literals_size(n - anchor)

    # -- decoding -----------------------------------------------------------

    def decompress(self, blob: bytes, original_len: int) -> bytes:
        out = bytearray()
        pos = 0
        blob_len = len(blob)
        while pos < blob_len:
            token = blob[pos]
            pos += 1
            literal_len = token >> 4
            if literal_len == 15:
                literal_len, pos = _read_length(blob, pos, literal_len)
            if literal_len:
                if pos + literal_len > blob_len:
                    raise CorruptDataError("lz4: literal run past end of block")
                out += blob[pos : pos + literal_len]
                pos += literal_len
            if pos >= blob_len:
                break  # final sequence carries no match
            if pos + 2 > blob_len:
                raise CorruptDataError("lz4: truncated match offset")
            offset = blob[pos] | (blob[pos + 1] << 8)
            pos += 2
            if offset == 0 or offset > len(out):
                raise CorruptDataError(
                    f"lz4: invalid offset {offset} at output size {len(out)}"
                )
            match_len = (token & 0x0F) + _MIN_MATCH
            if token & 0x0F == 15:
                extra, pos = _read_length(blob, pos, 15)
                match_len = extra + _MIN_MATCH
            start = len(out) - offset
            if offset >= match_len:
                out += out[start : start + match_len]
            else:
                # Overlapping copy: replicate byte-by-byte like the spec.
                for i in range(match_len):
                    out.append(out[start + i])
        if len(out) != original_len:
            raise CorruptDataError(
                f"lz4: decoded {len(out)} bytes, expected {original_len}"
            )
        return bytes(out)


def _read_length(blob: bytes, pos: int, base: int) -> tuple[int, int]:
    """Read an LZ4 extended length (runs of 255 plus a terminator byte)."""
    length = base
    while True:
        if pos >= len(blob):
            raise CorruptDataError("lz4: truncated length extension")
        byte = blob[pos]
        pos += 1
        length += byte
        if byte != 255:
            return length, pos


def _length_ext_size(code: int) -> int:
    """Output bytes of the extended-length encoding for nibble ``code``.

    A nibble below 15 needs no extension; otherwise the encoder emits
    ``(code - 15) // 255`` full 255-bytes plus one terminator byte.
    """
    if code < 15:
        return 0
    return (code - 15) // 255 + 1


def _sequence_size(literal_len: int, match_len: int) -> int:
    """Output bytes of one token + literals + offset + match sequence."""
    return (
        1
        + _length_ext_size(literal_len)
        + literal_len
        + 2
        + _length_ext_size(match_len - _MIN_MATCH)
    )


def _final_literals_size(literal_len: int) -> int:
    """Output bytes of the trailing all-literal sequence."""
    return 1 + _length_ext_size(literal_len) + literal_len


def _emit_length(out: bytearray, value: int) -> None:
    """Append an extended length encoding for ``value`` (already minus 15)."""
    while value >= 255:
        out.append(255)
        value -= 255
    out.append(value)


def _emit_sequence(
    out: bytearray,
    data: bytes,
    literal_start: int,
    literal_len: int,
    offset: int,
    match_len: int,
) -> None:
    """Append one token + literals + offset + match-length sequence."""
    ml_code = match_len - _MIN_MATCH
    token_lit = 15 if literal_len >= 15 else literal_len
    token_ml = 15 if ml_code >= 15 else ml_code
    out.append((token_lit << 4) | token_ml)
    if literal_len >= 15:
        _emit_length(out, literal_len - 15)
    out += data[literal_start : literal_start + literal_len]
    out.append(offset & 0xFF)
    out.append(offset >> 8)
    if ml_code >= 15:
        _emit_length(out, ml_code - 15)


def _emit_final_literals(tail: bytes, start: int) -> bytes:
    """Encode a trailing all-literal sequence for ``tail[start:]``."""
    out = bytearray()
    literal_len = len(tail) - start
    token_lit = 15 if literal_len >= 15 else literal_len
    out.append(token_lit << 4)
    if literal_len >= 15:
        _emit_length(out, literal_len - 15)
    out += tail[start:]
    return bytes(out)
