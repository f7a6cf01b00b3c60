"""Codec integrity: a damaged payload must fail loudly, never decode wrong.

The v2 compiled-graph payload carries a CRC32 per section plus a trailing
whole-payload CRC32.  The contract under test: *any* content damage raises
:class:`~repro.exceptions.CorruptPayloadError` (framing violations — foreign
magic, old versions, truncation, trailing bytes — keep raising plain
:class:`~repro.exceptions.SerializationError`), and a payload that decodes
at all decodes exactly.  This is what makes a corrupt payload a shard
that fails loudly at startup rather than a silent wrong-answer hazard.
"""

import random
import struct
from zlib import crc32

import pytest

from repro.exceptions import CorruptPayloadError, SerializationError
from repro.io.compiled_codec import (
    SECTION_NAMES,
    compiled_graph_from_bytes,
    compiled_graph_to_bytes,
    payload_section_spans,
    verify_payload,
)
from repro.io.serialize import load_compiled_graph, save_compiled_graph

_U32 = struct.Struct("<I")
_HEADER = struct.Struct("<6sH")


@pytest.fixture(scope="module")
def payload(example_itgraph):
    return compiled_graph_to_bytes(example_itgraph.compiled())


def patch_trailing_crc(data: bytes) -> bytes:
    """Recompute the whole-payload CRC so deeper checks get exercised."""
    body = data[: -_U32.size]
    return body + _U32.pack(crc32(body))


class TestIntactPayload:
    def test_verify_payload_accepts_a_good_payload(self, payload):
        verify_payload(payload)  # must not raise

    def test_section_spans_cover_disjoint_content(self, payload):
        spans = payload_section_spans(payload)
        assert [name for name, _, _ in spans] == list(SECTION_NAMES)
        previous_end = 0
        for _name, start, end in spans:
            assert previous_end <= start <= end <= len(payload)
            previous_end = end


class TestContentDamage:
    @pytest.mark.parametrize("section_name", SECTION_NAMES)
    def test_single_byte_flip_in_each_section_is_detected(self, payload, section_name):
        spans = {name: (start, end) for name, start, end in payload_section_spans(payload)}
        start, end = spans[section_name]
        if start == end:
            pytest.skip(f"section {section_name!r} is empty for this venue")
        rng = random.Random(hash(section_name) & 0xFFFF)
        damaged = bytearray(payload)
        damaged[rng.randrange(start, end)] ^= 1 << rng.randrange(8)
        # Patch the trailing CRC so the *section* checksum is what trips,
        # proving the error names the damaged section.
        blob = patch_trailing_crc(bytes(damaged))
        with pytest.raises(CorruptPayloadError, match=section_name):
            compiled_graph_from_bytes(blob)
        with pytest.raises(CorruptPayloadError):
            verify_payload(blob)

    def test_unpatched_flip_fails_the_whole_payload_crc(self, payload):
        rng = random.Random(2024)
        body_start = _HEADER.size + _U32.size
        for _ in range(16):
            damaged = bytearray(payload)
            offset = rng.randrange(body_start, len(payload) - _U32.size)
            damaged[offset] ^= 1 << rng.randrange(8)
            with pytest.raises(CorruptPayloadError):
                compiled_graph_from_bytes(bytes(damaged))

    def test_corrupt_payload_error_is_a_serialization_error(self):
        assert issubclass(CorruptPayloadError, SerializationError)
        damaged = patch_trailing_crc(b"\x00" * 64)
        with pytest.raises(SerializationError):
            compiled_graph_from_bytes(damaged)


class TestFramingViolations:
    def test_foreign_magic_is_a_framing_error(self, payload):
        blob = b"NOTRPG" + payload[6:]
        with pytest.raises(SerializationError, match="magic"):
            compiled_graph_from_bytes(blob)

    def test_old_format_version_is_rejected_cleanly(self, payload):
        # A v1 payload (same magic, version word 1) must be refused by
        # version, not misparsed into CRC noise.
        blob = _HEADER.pack(b"RPROCG", 1) + payload[_HEADER.size :]
        with pytest.raises(SerializationError, match="version"):
            compiled_graph_from_bytes(blob)
        with pytest.raises(SerializationError, match="version"):
            verify_payload(blob)

    def test_truncation_is_a_framing_error(self, payload):
        for keep in (4, len(payload) // 2, len(payload) - 1):
            with pytest.raises(SerializationError):
                compiled_graph_from_bytes(payload[:keep])

    def test_trailing_garbage_is_a_framing_error(self, payload):
        with pytest.raises(SerializationError, match="trailing"):
            compiled_graph_from_bytes(payload + b"\x00\x01")

    def test_tampered_section_count_is_a_framing_error(self, payload):
        offset = _HEADER.size + _U32.size
        damaged = bytearray(payload)
        damaged[offset : offset + _U32.size] = _U32.pack(len(SECTION_NAMES) + 1)
        with pytest.raises(SerializationError, match="sections"):
            compiled_graph_from_bytes(patch_trailing_crc(bytes(damaged)))


class TestFileLevel:
    def test_roundtrip_through_file(self, example_itgraph, tmp_path):
        target = tmp_path / "index.bin"
        save_compiled_graph(example_itgraph.compiled(), target)
        graph = load_compiled_graph(target)
        assert graph.door_count == example_itgraph.compiled().door_count

    def test_corrupted_file_raises_corrupt_payload_error(self, payload, tmp_path):
        target = tmp_path / "damaged.bin"
        damaged = bytearray(payload)
        damaged[len(damaged) // 2] ^= 0x10
        target.write_bytes(bytes(damaged))
        with pytest.raises(CorruptPayloadError):
            load_compiled_graph(target)

    def test_unreadable_file_raises_serialization_error(self, tmp_path):
        with pytest.raises(SerializationError, match="cannot read"):
            load_compiled_graph(tmp_path / "does-not-exist.bin")


def test_version_2_payloads_still_load(payload, example_itgraph):
    # Versions 2 and 3 share one layout: only the version word differs.
    downgraded = bytearray(payload)
    downgraded[:_HEADER.size] = _HEADER.pack(b"RPROCG", 2)
    blob = patch_trailing_crc(bytes(downgraded))
    graph = compiled_graph_from_bytes(blob)
    assert graph.door_count == example_itgraph.compiled().door_count


def test_declared_but_missing_precompute_is_a_framing_error(payload):
    # Section count says ten, body carries nine: truncation, by name.
    offset = _HEADER.size + _U32.size
    damaged = bytearray(payload)
    damaged[offset : offset + _U32.size] = _U32.pack(len(SECTION_NAMES) + 1)
    with pytest.raises(SerializationError, match="sections"):
        compiled_graph_from_bytes(patch_trailing_crc(bytes(damaged)))


def test_crc_correct_ten_section_payload_is_rejected(payload):
    # Every checksum of this tenth section holds: the count alone refuses
    # it, rather than skipping it.
    extra = b"\x00" * 16
    count_at = _HEADER.size + _U32.size
    body = (
        _U32.pack(len(SECTION_NAMES) + 1)
        + payload[count_at + _U32.size : -_U32.size]
        + _U32.pack(len(extra))
        + _U32.pack(crc32(extra))
        + extra
    )
    framed = payload[: _HEADER.size] + _U32.pack(len(body)) + body
    blob = framed + _U32.pack(crc32(framed))
    with pytest.raises(SerializationError, match="carries 10 sections, expected 9"):
        compiled_graph_from_bytes(blob)
