"""Differential tests: optimized encoders vs the reference algorithms.

The optimized LZO/LZ4 encoders restructure the search (vectorized
previous-occurrence precomputation, flat tables, skip scanning) but must
emit *byte-identical* blobs to the straightforward reference parse —
that equivalence is what lets every cached size and every measured
number survive encoder rewrites.  The references below are deliberately
naive transcriptions of the parse rules; they are the contract, kept
independent of the production implementations.
"""

from __future__ import annotations

import random

import pytest

from repro.compression import lzo as lzo_mod
from repro.compression.lz4 import Lz4Compressor
from repro.compression.lzo import LzoCompressor
from repro.rng import derive_rng
from repro.workload.payload import PayloadGenerator
from repro.workload.profiles import APP_CATALOG

# --------------------------------------------------------------- references


def reference_lzo_compress(data: bytes, max_distance: int = 32 * 1024) -> bytes:
    """The LZO-class reference parse: greedy scan, 3-gram dict table."""
    n = len(data)
    out = bytearray()
    if n == 0:
        return b""

    def flush(start: int, end: int) -> None:
        while start < end:
            run = min(end - start, 128)
            out.append(run - 1)
            out.extend(data[start : start + run])
            start += run

    table: dict[bytes, int] = {}
    pos = 0
    literal_start = 0
    while pos + 3 <= n:
        key = data[pos : pos + 3]
        candidate = table.get(key, -1)
        table[key] = pos
        if candidate >= 0 and pos - candidate <= max_distance:
            match_len = 3
            limit = min(n - pos, 130)
            src = candidate + 3
            dst = pos + 3
            while match_len < limit and data[src] == data[dst]:
                src += 1
                dst += 1
                match_len += 1
            flush(literal_start, pos)
            out.append(0x80 | (match_len - 3))
            distance = pos - candidate
            out.append(distance & 0xFF)
            out.append(distance >> 8)
            pos += match_len
            literal_start = pos
        else:
            pos += 1
    flush(literal_start, n)
    return bytes(out)


def _lz4_hash(word: int) -> int:
    return ((word * 2654435761) & 0xFFFFFFFF) >> 16


def _lz4_emit_length(out: bytearray, value: int) -> None:
    while value >= 255:
        out.append(255)
        value -= 255
    out.append(value)


def _lz4_final_literals(tail: bytes) -> bytes:
    out = bytearray()
    literal_len = len(tail)
    out.append((15 if literal_len >= 15 else literal_len) << 4)
    if literal_len >= 15:
        _lz4_emit_length(out, literal_len - 15)
    out += tail
    return bytes(out)


def reference_lz4_compress(data: bytes, acceleration: int = 1) -> bytes:
    """The LZ4 block-format reference parse with skip acceleration."""
    n = len(data)
    if n == 0:
        return b"\x00"
    if n < 13:
        return _lz4_final_literals(data)
    out = bytearray()
    table: dict[int, int] = {}
    anchor = 0
    pos = 0
    match_limit = n - 12
    search_step = acceleration << 6
    while pos <= match_limit:
        word = int.from_bytes(data[pos : pos + 4], "little")
        slot = _lz4_hash(word)
        candidate = table.get(slot, -1)
        table[slot] = pos
        if (
            candidate >= 0
            and pos - candidate <= 0xFFFF
            and data[candidate : candidate + 4] == data[pos : pos + 4]
        ):
            match_len = 4
            limit = n - 5
            src = candidate + 4
            dst = pos + 4
            while dst < limit and data[src] == data[dst]:
                src += 1
                dst += 1
                match_len += 1
            literal_len = pos - anchor
            ml_code = match_len - 4
            token_lit = 15 if literal_len >= 15 else literal_len
            token_ml = 15 if ml_code >= 15 else ml_code
            out.append((token_lit << 4) | token_ml)
            if literal_len >= 15:
                _lz4_emit_length(out, literal_len - 15)
            out += data[anchor:pos]
            offset = pos - candidate
            out.append(offset & 0xFF)
            out.append(offset >> 8)
            if ml_code >= 15:
                _lz4_emit_length(out, ml_code - 15)
            pos += match_len
            anchor = pos
            search_step = acceleration << 6
            if pos - 2 > candidate and pos - 2 <= match_limit:
                inner = int.from_bytes(data[pos - 2 : pos + 2], "little")
                table[_lz4_hash(inner)] = pos - 2
        else:
            pos += 1 + (search_step >> 6)
            search_step += acceleration
    out += _lz4_final_literals(data[anchor:])
    return bytes(out)


# ------------------------------------------------------------------- corpora


def _structured_corpus(seed: int, count: int) -> list[bytes]:
    """Random mixes of entropy, zeros, and repeated motifs."""
    rng = random.Random(seed)
    corpus = []
    for _ in range(count):
        parts = []
        for _ in range(rng.randrange(1, 7)):
            kind = rng.randrange(3)
            if kind == 0:
                parts.append(rng.randbytes(rng.randrange(1, 400)))
            elif kind == 1:
                parts.append(bytes(rng.randrange(1, 200)))
            else:
                motif = rng.randbytes(rng.randrange(1, 24))
                parts.append(motif * rng.randrange(1, 40))
        corpus.append(b"".join(parts))
    return corpus


def _payload_corpus() -> list[bytes]:
    """Pages from the actual workload generator, single and chunk-joined."""
    corpus = []
    for profile in APP_CATALOG[:3]:
        generator = PayloadGenerator(
            profile, derive_rng(2025, f"pay:{profile.name}")
        )
        pages = [generator.generate_page()[0] for _ in range(8)]
        corpus.extend(pages[:2])
        corpus.append(b"".join(pages[:4]))  # a 16 KiB cold chunk
    return corpus


EDGE_CASES = [
    b"",
    b"x",
    b"ab",
    b"abc",
    b"abc" * 400,
    b"a" * 500,
    bytes(40),
    bytes(4096),
    bytes(range(256)) * 8,
]

#: Straddle both dispatch thresholds (LZO 512, LZ4 256).
BOUNDARY_SIZES = [63, 64, 255, 256, 257, 511, 512, 513]


def full_corpus() -> list[bytes]:
    rng = random.Random(99)
    corpus = list(EDGE_CASES)
    corpus.extend(rng.randbytes(size) for size in BOUNDARY_SIZES)
    corpus.extend(_structured_corpus(seed=7, count=150))
    corpus.extend(_payload_corpus())
    return corpus


CORPUS = full_corpus()


# --------------------------------------------------------------------- tests


class TestLzoEquivalence:
    def test_byte_identical_to_reference(self):
        codec = LzoCompressor()
        for data in CORPUS:
            assert codec.compress(data) == reference_lzo_compress(data)

    @pytest.mark.parametrize("max_distance", [64, 300, 5000, 32 * 1024])
    def test_bounded_window_identical(self, max_distance):
        codec = LzoCompressor(max_distance=max_distance)
        for data in CORPUS:
            assert codec.compress(data) == reference_lzo_compress(
                data, max_distance
            )

    def test_size_fast_path_matches_blob_length(self):
        codec = LzoCompressor()
        for data in CORPUS:
            assert codec.compressed_size(data) == len(codec.compress(data))

    def test_size_fast_path_matches_with_bounded_window(self):
        codec = LzoCompressor(max_distance=128)
        for data in CORPUS:
            assert codec.compressed_size(data) == len(codec.compress(data))

    def test_scan_fallback_matches_indexed_path(self):
        """The short-input scan path parses every input identically."""
        codec = LzoCompressor()
        for data in CORPUS:
            expected = codec.compress(data)
            assert lzo_mod._compress_scan(data, 32 * 1024) == expected
            assert lzo_mod._size_scan(data, 32 * 1024) == len(expected)

    def test_roundtrip_on_corpus(self):
        codec = LzoCompressor()
        for data in CORPUS:
            assert codec.decompress(codec.compress(data), len(data)) == data

    def test_bucketed_index_large_input_exceeds_workspace(self):
        """Oversized inputs take the dedicated-workspace path of the
        indexed parse; it must stay exact there too."""
        rng = random.Random(5)
        big = b"".join(
            rng.choice(CORPUS[-6:]) for _ in range(40)
        )[: 80 * 1024]
        assert len(big) - 2 > lzo_mod._WORKSPACE_CAP
        codec = LzoCompressor()
        expected = reference_lzo_compress(big)
        assert codec.compress(big) == expected
        assert codec.compressed_size(big) == len(expected)


class TestLz4Equivalence:
    @pytest.mark.parametrize("acceleration", [1, 4, 32])
    def test_byte_identical_to_reference(self, acceleration):
        codec = Lz4Compressor(acceleration=acceleration)
        for data in CORPUS:
            assert codec.compress(data) == reference_lz4_compress(
                data, acceleration
            )

    def test_scan_fallback_matches_vector_path(self):
        codec = Lz4Compressor()
        for data in CORPUS:
            assert codec._compress_scan(data) == codec.compress(data)

    @pytest.mark.parametrize("acceleration", [1, 4, 32])
    def test_size_fast_path_matches_blob_length(self, acceleration):
        codec = Lz4Compressor(acceleration=acceleration)
        for data in CORPUS:
            assert codec.compressed_size(data) == len(codec.compress(data))

    def test_size_scan_fallback_matches_blob_length(self):
        """The short-input size path is exact on every input too."""
        codec = Lz4Compressor()
        for data in CORPUS:
            assert codec._size_scan(data) == len(codec.compress(data))

    def test_roundtrip_on_corpus(self):
        codec = Lz4Compressor()
        for data in CORPUS:
            assert codec.decompress(codec.compress(data), len(data)) == data
