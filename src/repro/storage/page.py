"""Fixed-size pages holding fixed-width records, with torn-write detection.

The storage substrate uses classic database pages: the file is an array
of :data:`PAGE_SIZE`-byte pages, each holding as many fixed-width
records as fit between an 8-byte header and an 8-byte integrity footer.
Because records are constant-size (see :mod:`repro.storage.codec`), no
slot directory is needed — the header stores only the live record
count, the record width and the format version, and records pack
densely from the front.

Header layout (big-endian):

====== ===== ==========================
offset bytes field
====== ===== ==========================
0      4     record count
4      2     record width in bytes
6      2     format version (:data:`PAGE_VERSION`)
====== ===== ==========================

Footer layout (big-endian, last 8 bytes of the page):

============= ===== ==========================================
offset        bytes field
============= ===== ==========================================
PAGE_SIZE - 8 4     magic ``PAGE_MAGIC``
PAGE_SIZE - 4 4     CRC-32 of bytes ``[0, PAGE_SIZE - 4)``
============= ===== ==========================================

The checksum covers the header, every record slot, the free space
*and* the footer magic, and is stamped when the page image is
serialised (:meth:`Page.to_bytes`).  A torn write — the classic crash
failure where the kernel persists only a prefix of the 8 KiB page —
leaves the old footer behind the new header, so the CRC mismatches and
the reader raises :class:`~repro.exec.errors.StorageCorruption` instead
of decoding garbage.  Every page carries :data:`PAGE_VERSION`; any other
version is refused as corruption.  (The unchecksummed version 0 of the
format is refused too: the version field is 1, so a single flipped bit
makes it 0, and reading such a page without its checksum would serve
damaged records as good ones.)
"""

from __future__ import annotations

import struct
from typing import Iterator, Optional

from repro.exec.errors import StorageCorruption
from repro.storage.codec import content_checksum

__all__ = [
    "PAGE_SIZE",
    "PAGE_HEADER_BYTES",
    "PAGE_FOOTER_BYTES",
    "PAGE_MAGIC",
    "PAGE_VERSION",
    "Page",
    "PageError",
    "PageCorruption",
]

#: Bytes per page.  8 KiB is a conventional database page size; at the
#: paper's 128-byte tuples one page holds 63 records.
PAGE_SIZE = 8192

PAGE_HEADER_BYTES = 8

#: Trailing integrity footer: 4-byte magic + 4-byte CRC-32.
PAGE_FOOTER_BYTES = 8

#: ``"TApg"`` — marks a sealed page image.
PAGE_MAGIC = 0x54417067

#: Format version stamped into pages this writer produces.
PAGE_VERSION = 1

_HEADER = struct.Struct(">IHH")
_FOOTER = struct.Struct(">II")


class PageError(ValueError):
    """Raised for malformed pages or out-of-range slots."""


class PageCorruption(StorageCorruption, PageError):
    """A page image failed its checksum or structural validation.

    Subclasses both :class:`PageError` (so pre-durability callers that
    catch it keep working) and
    :class:`~repro.exec.errors.StorageCorruption` (so traffic-serving
    callers can branch on the taxonomy).
    """


class Page:
    """One in-memory page image with record-level accessors."""

    __slots__ = ("data", "record_bytes", "dirty", "version")

    def __init__(
        self,
        record_bytes: int,
        data: Optional[bytearray] = None,
        *,
        verify: bool = True,
    ) -> None:
        usable = PAGE_SIZE - PAGE_HEADER_BYTES - PAGE_FOOTER_BYTES
        if record_bytes <= 0 or record_bytes > usable:
            raise PageError(f"record width {record_bytes} does not fit a page")
        self.record_bytes = record_bytes
        self.dirty = False
        if data is None:
            self.data = bytearray(PAGE_SIZE)
            self.version = PAGE_VERSION
            self._set_header(0)
            self.dirty = True
        else:
            if len(data) != PAGE_SIZE:
                raise PageError(f"page image must be {PAGE_SIZE} bytes")
            self.data = bytearray(data)
            count, width, version = _HEADER.unpack_from(self.data, 0)
            self.version = version
            if verify and version == PAGE_VERSION:
                self._verify_checksum()
            if width != record_bytes:
                raise PageError(
                    f"page declares {width}-byte records, expected {record_bytes}"
                )
            if count > self.capacity:
                raise PageError(f"page declares {count} records, over capacity")
            if verify and version != PAGE_VERSION:
                raise PageCorruption(
                    f"page declares format version {version}, expected "
                    f"{PAGE_VERSION}: a damaged header, so its checksum "
                    "cannot vouch for the records"
                )

    def _set_header(self, count: int) -> None:
        _HEADER.pack_into(self.data, 0, count, self.record_bytes, self.version)

    def _verify_checksum(self) -> None:
        """Check the footer; raise on mismatch."""
        magic, stored = _FOOTER.unpack_from(self.data, PAGE_SIZE - PAGE_FOOTER_BYTES)
        if magic != PAGE_MAGIC:
            raise PageCorruption(
                "page footer magic missing on a version "
                f"{self.version} page — torn write or truncated image"
            )
        computed = content_checksum(memoryview(self.data)[: PAGE_SIZE - 4])
        if computed != stored:
            raise PageCorruption(
                f"page checksum mismatch: stored {stored:#010x}, "
                f"computed {computed:#010x} — the page is torn or corrupt"
            )

    # ------------------------------------------------------------------
    # Capacity and counts
    # ------------------------------------------------------------------

    @property
    def capacity(self) -> int:
        """Records that fit on one page."""
        return (PAGE_SIZE - PAGE_HEADER_BYTES - PAGE_FOOTER_BYTES) // self.record_bytes

    @property
    def record_count(self) -> int:
        return _HEADER.unpack_from(self.data, 0)[0]

    @property
    def is_full(self) -> bool:
        return self.record_count >= self.capacity

    # ------------------------------------------------------------------
    # Record access
    # ------------------------------------------------------------------

    def _offset(self, slot: int) -> int:
        return PAGE_HEADER_BYTES + slot * self.record_bytes

    def append(self, record: bytes) -> int:
        """Store a record in the next free slot; returns the slot index."""
        if len(record) != self.record_bytes:
            raise PageError(
                f"record is {len(record)} bytes, page stores {self.record_bytes}"
            )
        slot = self.record_count
        if slot >= self.capacity:
            raise PageError("page is full")
        offset = self._offset(slot)
        self.data[offset : offset + self.record_bytes] = record
        self._set_header(slot + 1)
        self.dirty = True
        return slot

    def read(self, slot: int) -> bytes:
        """The record stored in ``slot``."""
        if not 0 <= slot < self.record_count:
            raise PageError(f"slot {slot} out of range (page has {self.record_count})")
        offset = self._offset(slot)
        return bytes(self.data[offset : offset + self.record_bytes])

    def records(self) -> Iterator[bytes]:
        """All live records in slot order."""
        for slot in range(self.record_count):
            yield self.read(slot)

    def to_bytes(self) -> bytes:
        """The sealed page image: header + records + checksummed footer."""
        _FOOTER.pack_into(self.data, PAGE_SIZE - PAGE_FOOTER_BYTES, PAGE_MAGIC, 0)
        checksum = content_checksum(memoryview(self.data)[: PAGE_SIZE - 4])
        _FOOTER.pack_into(
            self.data, PAGE_SIZE - PAGE_FOOTER_BYTES, PAGE_MAGIC, checksum
        )
        return bytes(self.data)
