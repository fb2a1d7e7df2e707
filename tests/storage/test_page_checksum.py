"""Checksummed page format: sealing, verification, version-0 refusal."""

import struct

import pytest

from repro.exec.errors import StorageCorruption
from repro.storage.page import (
    PAGE_FOOTER_BYTES,
    PAGE_HEADER_BYTES,
    PAGE_MAGIC,
    PAGE_SIZE,
    PAGE_VERSION,
    Page,
    PageCorruption,
)


def sealed_page(record_bytes=16, records=5):
    page = Page(record_bytes)
    for index in range(records):
        page.append(bytes([index]) * record_bytes)
    return page.to_bytes()


class TestSealing:
    def test_round_trip(self):
        raw = sealed_page()
        page = Page(16, raw)
        assert page.record_count == 5
        assert page.version == PAGE_VERSION
        assert page.read(3) == bytes([3]) * 16

    def test_footer_carries_magic(self):
        raw = sealed_page()
        magic, _crc = struct.unpack_from(">II", raw, PAGE_SIZE - PAGE_FOOTER_BYTES)
        assert magic == PAGE_MAGIC

    def test_reseal_is_deterministic(self):
        page = Page(16, sealed_page())
        assert page.to_bytes() == sealed_page()

    def test_capacity_accounts_for_footer(self):
        usable = PAGE_SIZE - PAGE_HEADER_BYTES - PAGE_FOOTER_BYTES
        assert Page(128).capacity == usable // 128 == 63
        assert Page(16).capacity == usable // 16 == 511


class TestVerification:
    @pytest.mark.parametrize(
        "offset",
        [
            PAGE_HEADER_BYTES,  # first record byte
            PAGE_HEADER_BYTES + 40,  # mid-payload
            PAGE_SIZE // 2,  # untouched padding
            PAGE_SIZE - PAGE_FOOTER_BYTES - 1,  # last padding byte
        ],
    )
    def test_any_flipped_byte_is_detected(self, offset):
        raw = bytearray(sealed_page())
        raw[offset] ^= 0x01
        with pytest.raises(PageCorruption, match="checksum"):
            Page(16, bytes(raw))

    def test_torn_write_is_detected(self):
        raw = sealed_page()
        torn = raw[: PAGE_SIZE // 2] + b"\x00" * (PAGE_SIZE - PAGE_SIZE // 2)
        with pytest.raises(PageCorruption):
            Page(16, torn)

    def test_corrupt_footer_magic_is_detected(self):
        raw = bytearray(sealed_page())
        struct.pack_into(">I", raw, PAGE_SIZE - PAGE_FOOTER_BYTES, 0xDEADBEEF)
        with pytest.raises(PageCorruption, match="magic"):
            Page(16, bytes(raw))

    def test_page_corruption_is_typed(self):
        raw = bytearray(sealed_page())
        raw[PAGE_HEADER_BYTES] ^= 0xFF
        with pytest.raises(StorageCorruption):
            Page(16, bytes(raw))
        with pytest.raises(ValueError):  # PageError lineage kept
            Page(16, bytes(raw))

    def test_verify_false_skips_the_checksum(self):
        raw = bytearray(sealed_page())
        raw[PAGE_SIZE // 2] ^= 0x01
        page = Page(16, bytes(raw), verify=False)
        assert page.record_count == 5


class TestLegacyVersionZero:
    def as_version0(self, raw):
        image = bytearray(raw)
        count, width, _version = struct.unpack_from(">IHH", image, 0)
        struct.pack_into(">IHH", image, 0, count, width, 0)
        image[PAGE_SIZE - PAGE_FOOTER_BYTES :] = b"\x00" * PAGE_FOOTER_BYTES
        return bytes(image)

    def test_version0_image_is_refused(self):
        """A version-0 image carries no footer; reading it unverified
        would serve whatever its records hold."""
        image = bytearray(self.as_version0(sealed_page()))
        image[PAGE_HEADER_BYTES] ^= 0xFF
        with pytest.raises(PageCorruption, match="format version 0"):
            Page(16, bytes(image))

    def test_one_flipped_version_bit_is_refused(self):
        """The version field is 1, so one flipped bit makes it 0: the
        footer and CRC are intact, and the page must still be refused
        rather than read without its checksum."""
        image = bytearray(sealed_page())
        image[7] ^= 0x01  # low byte of the big-endian version field
        assert struct.unpack_from(">IHH", image, 0)[2] == 0
        with pytest.raises(StorageCorruption, match="format version 0"):
            Page(16, bytes(image))

    def test_scrub_reports_version0_pages_as_corrupt(self, tmp_path):
        from repro.storage.recovery import scrub_data

        path = tmp_path / "data.heap"
        path.write_bytes(sealed_page() + self.as_version0(sealed_page()))
        report = scrub_data(str(path), record_bytes=16)
        assert report.pages_checked == 2
        assert [page_id for page_id, _reason in report.corrupt_pages] == [1]
        assert not report.ok
