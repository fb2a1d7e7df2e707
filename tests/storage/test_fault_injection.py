"""Fault injection: corrupted storage must fail loudly, not wrongly.

The buffer manager and page code should turn on-disk corruption into
explicit errors — never into silently wrong rows and never into index
corruption.  Since the checksummed page format, *any* byte damage to a
sealed page (header, payload, or padding) trips the CRC footer, and a
page whose version field reads anything but the current version is
refused: a flipped version bit must not switch the checksum off.
"""

import struct

import pytest

from repro.exec.errors import StorageCorruption
from repro.storage.buffer import BufferManager
from repro.storage.heapfile import HeapFile
from repro.storage.page import PAGE_HEADER_BYTES, PAGE_SIZE, Page, PageCorruption, PageError
from repro.workload.employed import employed_relation


def corrupt(handle, offset: int, payload: bytes) -> None:
    handle.seek(offset)
    handle.write(payload)
    handle.flush()


@pytest.fixture
def heap(tmp_path):
    path = str(tmp_path / "victim.heap")
    heap = HeapFile.from_relation(employed_relation(), path=path)
    heap.flush()
    return heap


class TestHeaderCorruption:
    def test_overstated_record_count_detected(self, heap):
        # Claim 9999 records in page 0.
        corrupt(heap._handle, 0, struct.pack(">IHH", 9999, 128, 0))
        heap.buffer.drop_cache()
        with pytest.raises(PageError, match="capacity"):
            list(heap.scan())

    def test_wrong_record_width_detected(self, heap):
        corrupt(heap._handle, 0, struct.pack(">IHH", 4, 64, 0))
        heap.buffer.drop_cache()
        with pytest.raises(PageError, match="records"):
            list(heap.scan())

    def test_truncated_file_detected(self, heap):
        heap.buffer.drop_cache()
        heap._handle.truncate(PAGE_SIZE // 2)
        with pytest.raises(PageError, match="beyond"):
            heap.buffer.get(0)


class TestPayloadCorruption:
    def test_timestamp_corruption_detected_by_checksum(self, heap):
        """Flipped timestamp bytes no longer decode into wrong instants:
        the page CRC refuses the whole page."""
        # Record 0 starts at byte 8; timestamps at offset 8 + 12.
        corrupt(heap._handle, 8 + 12, b"\x00\x00\x00\x01")
        heap.buffer.drop_cache()
        with pytest.raises(PageCorruption, match="checksum"):
            list(heap.scan())

    def test_padding_corruption_detected_by_checksum(self, heap):
        """Even damage to dead padding bytes is refused — the CRC covers
        every byte, so 'harmless' rot cannot mask real rot."""
        corrupt(heap._handle, 8 + 30, b"\xff" * 16)
        heap.buffer.drop_cache()
        with pytest.raises(PageCorruption, match="checksum"):
            list(heap.scan())

    def test_page_corruption_is_storage_corruption(self, heap):
        """Callers branching on the execution-layer taxonomy see page
        damage as StorageCorruption, with the page id attached."""
        corrupt(heap._handle, 8 + 12, b"\x00\x00\x00\x01")
        heap.buffer.drop_cache()
        with pytest.raises(StorageCorruption) as excinfo:
            list(heap.scan())
        assert excinfo.value.page_id == 0

    def test_legacy_version0_pages_are_refused(self, heap):
        """A page rewritten as version 0 (no footer) is refused: the
        unverified format would serve damaged records as good ones."""
        heap.buffer.drop_cache()
        heap._handle.seek(0)
        raw = bytearray(heap._handle.read(PAGE_SIZE))
        count = struct.unpack_from(">IHH", raw, 0)[0]
        struct.pack_into(">IHH", raw, 0, count, 128, 0)  # rewrite as v0
        raw[8 + 12 : 8 + 16] = b"\x00\x00\x00\x01"  # corrupt a timestamp
        with pytest.raises(PageCorruption, match="format version 0"):
            Page(128, raw)

    def test_zeroed_version_field_does_not_skip_the_checksum(self, heap):
        """Damage a record's start bytes, then zero the version field
        too: the scan must still refuse the page, never serve the
        damaged start."""
        corrupt(heap._handle, 8 + 12, b"\x00\x00\x00\x01")
        heap.buffer.drop_cache()
        with pytest.raises(PageCorruption, match="checksum"):
            list(heap.scan())
        corrupt(heap._handle, 6, struct.pack(">H", 0))
        heap.buffer.drop_cache()
        with pytest.raises(PageCorruption, match="format version 0"):
            list(heap.scan())


class TestBufferManagerInvariants:
    def test_capacity_one_buffer_thrashes_but_stays_correct(self, heap):
        import io

        tiny = BufferManager(heap._handle, 128, capacity=1)
        first = tiny.get(0)
        assert first.record_count > 0
        assert tiny.stats.misses >= 1

    def test_eviction_never_loses_writes(self, tmp_path):
        path = str(tmp_path / "pressure.heap")
        from repro.relation.schema import EMPLOYED_SCHEMA
        from repro.relation.tuples import TemporalTuple

        heap = HeapFile(EMPLOYED_SCHEMA, path=path, buffer_pages=1)
        for i in range(200):  # 4 pages through a 1-page buffer
            heap.append(TemporalTuple(("T", i), i, i + 1))
        heap.flush()
        heap.buffer.drop_cache()
        values = [row.values[1] for row in heap.scan()]
        assert values == list(range(200))
        heap.close()
