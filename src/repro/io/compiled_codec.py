"""Binary codec for the compiled ITSPQ index — the cross-process hand-off.

:class:`~repro.core.compiled.CompiledITGraph` is built from an
:class:`~repro.core.itgraph.ITGraph`, which is itself built from polygons,
schedules and distance matrices — an offline cost worth paying exactly once
per venue.  Venue shards behind a router should not repeat it: this module
flattens the compiled index (plus its
:class:`~repro.core.snapshot.IntervalBitsets`) into one compact ``bytes``
payload and rebuilds it without touching the original IT-Graph.

Format
------
A versioned little-endian binary layout (version 3):

* an 8-byte magic/version header and a 4-byte body length,
* a section table — one CRC32-checksummed, length-prefixed section per
  logical block of the compiled graph (interned id tables, partition flags,
  dense ``DM`` matrices, flattened adjacency, ATI boundary arrays, open-door
  bitsets, door geometry, leaveable-door lists and the point-location
  polygon rows — see :data:`SECTION_NAMES`), optionally followed by one
  ``precompute`` section (:data:`OPTIONAL_SECTION_NAME`) holding the graph's
  :class:`~repro.core.compiled.IntervalOverlays` — per-interval component
  rows and landmark distance rows, present iff the graph carries overlays,
* a trailing CRC32 over everything before it (the whole-payload checksum).

Version 3 differs from version 2 only in allowing the optional tenth
section; version-2 payloads (always exactly nine sections) still load.

All floats are IEEE-754 doubles written verbatim, so every distance,
boundary instant and polygon vertex round-trips **exactly** — the
rehydrated graph answers queries with bit-identical paths, lengths and
search-statistics counters, which ``tests/test_io_compiled_roundtrip.py``
enforces.  Unknown magics, old/future versions, truncations and trailing
bytes fail fast with :class:`~repro.exceptions.SerializationError`; a
payload whose framing is intact but whose bytes were flipped in flight
fails its checksums with :class:`~repro.exceptions.CorruptPayloadError`
(naming the damaged section), so a shard process never rehydrates — let
alone answers queries from — a silently damaged index
(``tests/test_codec_integrity.py`` flips bytes in every section to prove
it).

The payload is self-contained: deserialisation needs no venue files and no
geometry rebuild beyond reconstructing the (pure-float) polygons of the
point-location rows.  ``CompiledITGraph.itgraph`` is ``None`` on a
rehydrated graph — only the object-level reference engine needs it.
"""

from __future__ import annotations

import struct
import sys
from array import array
from typing import Dict, List, Optional, Sequence, Tuple
from zlib import crc32

from repro.core.compiled import CompiledITGraph, IntervalOverlays
from repro.core.snapshot import IntervalBitsets
from repro.exceptions import CorruptPayloadError, SerializationError
from repro.geometry.point import Point2D
from repro.geometry.polygon import Polygon, Rectangle

#: Magic prefix of every payload; the trailing pair is the format version.
_MAGIC = b"RPROCG"
#: Version 2 added the CRC-checksummed section table (version-1 payloads,
#: which carried no integrity information at all, are rejected); version 3
#: added the optional ``precompute`` section.  Both still load.
_VERSION = 3
_SUPPORTED_VERSIONS = (2, 3)
_HEADER = struct.Struct("<6sH")
_U32 = struct.Struct("<I")

#: The mandatory checksummed sections of a payload, in serialisation order.
SECTION_NAMES = (
    "id-tables",
    "partition-flags",
    "distance-matrices",
    "adjacency",
    "ati-bounds",
    "interval-bitsets",
    "door-geometry",
    "leaveable-doors",
    "point-location",
)

#: The optional trailing section (version 3+): serialised
#: :class:`~repro.core.compiled.IntervalOverlays`.
OPTIONAL_SECTION_NAME = "precompute"

_POLYGON_KIND = 0
_RECTANGLE_KIND = 1


def _to_little_endian(values: array) -> bytes:
    """Raw little-endian bytes of a typed array (byteswapped on BE hosts)."""
    if sys.byteorder == "big":  # pragma: no cover - no big-endian CI hosts
        values = array(values.typecode, values)
        values.byteswap()
    return values.tobytes()


class _Writer:
    """Accumulates length-prefixed little-endian values (one section's worth)."""

    def __init__(self) -> None:
        self._parts: List[bytes] = []

    def u8(self, value: int) -> None:
        self._parts.append(struct.pack("<B", value))

    def u32(self, value: int) -> None:
        self._parts.append(struct.pack("<I", value))

    def i32(self, value: int) -> None:
        self._parts.append(struct.pack("<i", value))

    def f64(self, value: float) -> None:
        self._parts.append(struct.pack("<d", value))

    def blob(self, data: bytes) -> None:
        self.u32(len(data))
        self._parts.append(bytes(data))

    def text(self, value: str) -> None:
        self.blob(value.encode("utf-8"))

    def f64_array(self, values) -> None:
        data = values if isinstance(values, array) and values.typecode == "d" else array("d", values)
        self.u32(len(data))
        self._parts.append(_to_little_endian(data))

    def u32_array(self, values: Sequence[int]) -> None:
        data = array("I", values)
        self.u32(len(data))
        self._parts.append(_to_little_endian(data))

    def i32_array(self, values: Sequence[int]) -> None:
        data = array("i", values)
        self.u32(len(data))
        self._parts.append(_to_little_endian(data))

    def getvalue(self) -> bytes:
        return b"".join(self._parts)


class _Reader:
    """Sequential reader over a payload; truncation raises SerializationError."""

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._offset = 0

    def _take(self, size: int) -> bytes:
        end = self._offset + size
        if end > len(self._data):
            raise SerializationError(
                f"truncated compiled-graph payload: wanted {size} bytes at "
                f"offset {self._offset}, have {len(self._data) - self._offset}"
            )
        chunk = self._data[self._offset : end]
        self._offset = end
        return chunk

    def u8(self) -> int:
        return struct.unpack("<B", self._take(1))[0]

    def u32(self) -> int:
        return struct.unpack("<I", self._take(4))[0]

    def i32(self) -> int:
        return struct.unpack("<i", self._take(4))[0]

    def f64(self) -> float:
        return struct.unpack("<d", self._take(8))[0]

    def blob(self) -> bytes:
        return self._take(self.u32())

    def text(self) -> str:
        return self.blob().decode("utf-8")

    def _typed_array(self, typecode: str, itemsize: int) -> array:
        count = self.u32()
        data = array(typecode)
        data.frombytes(self._take(count * itemsize))
        if sys.byteorder == "big":  # pragma: no cover - no big-endian CI hosts
            data.byteswap()
        return data

    def f64_array(self) -> array:
        return self._typed_array("d", 8)

    def u32_array(self) -> array:
        return self._typed_array("I", 4)

    def i32_array(self) -> array:
        return self._typed_array("i", 4)

    def done(self) -> bool:
        return self._offset == len(self._data)


def _write_polygon(writer: _Writer, polygon: Polygon) -> None:
    if isinstance(polygon, Rectangle):
        writer.u8(_RECTANGLE_KIND)
        low, high = polygon.min_corner, polygon.max_corner
        writer.f64(low.x)
        writer.f64(low.y)
        writer.f64(high.x)
        writer.f64(high.y)
    else:
        writer.u8(_POLYGON_KIND)
        vertices = polygon.vertices
        writer.u32(len(vertices))
        coords = array("d")
        for vertex in vertices:
            coords.append(vertex.x)
            coords.append(vertex.y)
        writer.f64_array(coords)


def _read_polygon(reader: _Reader) -> Polygon:
    kind = reader.u8()
    if kind == _RECTANGLE_KIND:
        min_x, min_y = reader.f64(), reader.f64()
        max_x, max_y = reader.f64(), reader.f64()
        return Rectangle(min_x, min_y, max_x, max_y)
    if kind == _POLYGON_KIND:
        count = reader.u32()
        coords = reader.f64_array()
        if len(coords) != 2 * count:
            raise SerializationError(
                f"polygon row is inconsistent: {count} vertices but {len(coords)} coordinates"
            )
        return Polygon([Point2D(coords[2 * i], coords[2 * i + 1]) for i in range(count)])
    raise SerializationError(f"unknown polygon kind {kind} in compiled-graph payload")


def _sections_of(graph: CompiledITGraph) -> List[bytes]:
    """The payload's checksummed sections, in :data:`SECTION_NAMES` order."""
    sections: List[bytes] = []

    writer = _Writer()
    writer.u32(len(graph.door_ids))
    for door_id in graph.door_ids:
        writer.text(door_id)
    writer.u32(len(graph.partition_ids))
    for partition_id in graph.partition_ids:
        writer.text(partition_id)
    sections.append(writer.getvalue())

    writer = _Writer()
    writer.blob(bytes(1 if flag else 0 for flag in graph.partition_private))
    writer.blob(bytes(1 if flag else 0 for flag in graph.partition_outdoor))
    sections.append(writer.getvalue())

    # Dense DM matrices: member door indices in local-rank order + the dense
    # row-major doubles (NaN encodes "no distance defined" and round-trips
    # through IEEE-754 unchanged).
    writer = _Writer()
    for local, dense in zip(graph.dm_locals, graph.dm_arrays):
        members = [0] * len(local)
        for door_idx, rank in local.items():
            members[rank] = door_idx
        writer.u32_array(members)
        writer.f64_array(dense)
    sections.append(writer.getvalue())

    # Flattened adjacency: per door, per group (partition + edge arrays).
    writer = _Writer()
    for groups in graph.adjacency:
        writer.u32(len(groups))
        for partition_idx, _is_private, edges in groups:
            writer.u32(partition_idx)
            writer.u32_array([next_idx for next_idx, _ in edges])
            writer.f64_array([leg for _, leg in edges])
    sections.append(writer.getvalue())

    writer = _Writer()
    for bounds in graph.ati_bounds:
        writer.f64_array(bounds)
    sections.append(writer.getvalue())

    writer = _Writer()
    bitsets = graph.interval_bitsets
    starts = bitsets.starts
    writer.f64_array(starts)
    writer.blob(b"".join(bitsets.bitset_by_index(i) for i in range(len(starts))))
    sections.append(writer.getvalue())

    writer = _Writer()
    writer.f64_array(graph.door_x)
    writer.f64_array(graph.door_y)
    writer.i32_array(graph.door_floor)
    sections.append(writer.getvalue())

    writer = _Writer()
    for door_indices in graph.leaveable_by_partition:
        writer.u32_array(door_indices)
    sections.append(writer.getvalue())

    writer = _Writer()
    writer.u32(len(graph.locate_specs))
    for pidx, floor, spans, polygon in graph.locate_specs:
        writer.u32(pidx)
        writer.i32(floor)
        if spans is None:
            writer.u8(0)
        else:
            writer.u8(1)
            writer.i32(spans[0])
            writer.i32(spans[1])
        _write_polygon(writer, polygon)
    sections.append(writer.getvalue())

    return sections


def _precompute_section(overlays: IntervalOverlays) -> bytes:
    """The optional ``precompute`` section: serialised overlay arrays.

    ``entering_doors`` is a pure function of the adjacency section and is
    rederived at decode time rather than serialised.
    """
    writer = _Writer()
    writer.u32(overlays.door_count)
    writer.u32(overlays.interval_count)
    for row in overlays.component_rows:
        writer.i32_array(row)
    writer.u32(len(overlays.landmark_indices))
    writer.u32_array(overlays.landmark_indices)
    for per_interval in overlays.landmark_rows:
        for row in per_interval:
            writer.f64_array(row)
    return writer.getvalue()


def _decode_precompute(
    section: bytes, adjacency, partition_count: int, door_count: int, interval_count: int
) -> IntervalOverlays:
    """Rebuild :class:`IntervalOverlays` from the optional section's bytes."""
    reader = _Reader(section)
    stored_doors = reader.u32()
    stored_intervals = reader.u32()
    if stored_doors != door_count or stored_intervals != interval_count:
        raise SerializationError(
            f"precompute section disagrees with the compiled graph: "
            f"{stored_doors} doors / {stored_intervals} intervals, "
            f"expected {door_count} / {interval_count}"
        )
    component_rows = tuple(reader.i32_array() for _ in range(interval_count + 2))
    for row in component_rows:
        if len(row) != door_count:
            raise SerializationError("precompute component row disagrees with the door table")
    landmark_count = reader.u32()
    landmark_indices = tuple(reader.u32_array())
    if len(landmark_indices) != landmark_count:
        raise SerializationError("precompute landmark table disagrees with its count word")
    landmark_rows = []
    for _ in range(interval_count):
        per_interval = tuple(reader.f64_array() for _ in range(landmark_count))
        for row in per_interval:
            if len(row) != door_count:
                raise SerializationError(
                    "precompute landmark row disagrees with the door table"
                )
        landmark_rows.append(per_interval)
    if not reader.done():
        raise SerializationError("trailing bytes after the precompute section data")
    return IntervalOverlays(
        door_count,
        interval_count,
        component_rows,
        landmark_indices,
        tuple(landmark_rows),
        IntervalOverlays.entering_from_adjacency(adjacency, partition_count),
    )


def compiled_graph_to_bytes(graph: CompiledITGraph) -> bytes:
    """Serialise a compiled graph (including its interval bitsets) to bytes.

    The payload captures everything query execution touches — a graph
    rebuilt by :func:`compiled_graph_from_bytes` plans and answers the same
    workloads with bit-identical results (precompute overlays riding along
    when the graph carries them).  It does **not** capture the source
    :class:`~repro.core.itgraph.ITGraph`.  Every section carries a CRC32 and
    the whole payload a trailing CRC32, so in-flight damage is detected at
    rehydration instead of decoded into a wrong index.
    """
    sections = _sections_of(graph)
    if graph.overlays is not None:
        sections.append(_precompute_section(graph.overlays))
    parts: List[bytes] = [_U32.pack(len(sections))]
    for section in sections:
        parts.append(_U32.pack(len(section)))
        parts.append(_U32.pack(crc32(section)))
        parts.append(section)
    body = b"".join(parts)
    framed = _HEADER.pack(_MAGIC, _VERSION) + _U32.pack(len(body)) + body
    return framed + _U32.pack(crc32(framed))


def _checked_sections(data: bytes) -> List[Tuple[str, bytes]]:
    """Validate framing and every checksum; return ``(name, bytes)`` pairs.

    Framing violations (foreign magic, unsupported version, truncation,
    trailing bytes, impossible section table) raise
    :class:`SerializationError`; intact framing with mismatching checksums —
    damaged content — raises :class:`CorruptPayloadError`.  The result lists
    the nine mandatory sections, plus the ``precompute`` section when the
    (version-3) payload carries one.
    """
    prefix = _HEADER.size + _U32.size
    if len(data) < prefix + _U32.size:
        raise SerializationError("compiled-graph payload shorter than its header")
    magic, version = _HEADER.unpack_from(data)
    if magic != _MAGIC:
        raise SerializationError(f"not a compiled-graph payload (magic {magic!r})")
    if version not in _SUPPORTED_VERSIONS:
        raise SerializationError(
            f"unsupported compiled-graph format version {version} "
            f"(expected one of {_SUPPORTED_VERSIONS})"
        )
    (body_length,) = _U32.unpack_from(data, _HEADER.size)
    total = prefix + body_length + _U32.size
    if len(data) < total:
        raise SerializationError(
            f"truncated compiled-graph payload: framed length {total}, have {len(data)} bytes"
        )
    if len(data) > total:
        raise SerializationError(
            f"{len(data) - total} trailing bytes after the compiled-graph payload"
        )
    (stored_crc,) = _U32.unpack_from(data, total - _U32.size)
    if crc32(data[: total - _U32.size]) != stored_crc:
        raise CorruptPayloadError(
            "compiled-graph payload failed its whole-payload CRC32 check"
        )

    offset = prefix
    end = total - _U32.size
    (section_count,) = _U32.unpack_from(data, offset)
    offset += _U32.size
    names = list(SECTION_NAMES)
    if version >= 3 and section_count == len(SECTION_NAMES) + 1:
        names.append(OPTIONAL_SECTION_NAME)
    elif section_count != len(SECTION_NAMES):
        expected = (
            f"{len(SECTION_NAMES)} or {len(SECTION_NAMES) + 1}"
            if version >= 3
            else f"{len(SECTION_NAMES)}"
        )
        raise SerializationError(
            f"compiled-graph payload carries {section_count} sections, expected {expected}"
        )
    sections: List[Tuple[str, bytes]] = []
    for name in names:
        if offset + 2 * _U32.size > end:
            raise SerializationError(
                f"section table ends after {len(sections)} of {section_count} "
                f"declared sections (truncated at {name!r})"
            )
        (length,) = _U32.unpack_from(data, offset)
        (section_crc,) = _U32.unpack_from(data, offset + _U32.size)
        offset += 2 * _U32.size
        if offset + length > end:
            raise SerializationError(f"section {name!r} overruns the payload body")
        section = data[offset : offset + length]
        offset += length
        if crc32(section) != section_crc:
            raise CorruptPayloadError(
                f"section {name!r} of the compiled-graph payload failed its CRC32 check"
            )
        sections.append((name, section))
    if offset != end:
        raise SerializationError(
            f"{end - offset} unframed bytes after the last compiled-graph section"
        )
    return sections


def verify_payload(data: bytes) -> None:
    """Validate a payload's framing and checksums without rebuilding a graph.

    Raises exactly what :func:`compiled_graph_from_bytes` would raise for a
    damaged payload, in O(payload) time and O(1) extra memory — the cheap
    pre-flight a shard router can run before shipping a blob to a worker.
    """
    _checked_sections(data)


def payload_section_spans(data: bytes) -> List[Tuple[str, int, int]]:
    """``(name, start, end)`` byte spans of each section's data in ``data``.

    Diagnostic companion to :func:`verify_payload` (and the hook the codec
    integrity tests use to damage each section in isolation).  The spans
    cover section *content* only — framing words live between them.
    """
    sections = _checked_sections(data)
    spans: List[Tuple[str, int, int]] = []
    offset = _HEADER.size + 2 * _U32.size  # header, body length, section count
    for name, section in sections:
        offset += 2 * _U32.size  # section length + CRC words
        spans.append((name, offset, offset + len(section)))
        offset += len(section)
    return spans


def compiled_graph_from_bytes(data: bytes) -> CompiledITGraph:
    """Rebuild a :class:`CompiledITGraph` from :func:`compiled_graph_to_bytes`.

    Raises
    ------
    SerializationError
        On a foreign or truncated payload, or a format version this library
        does not understand.
    CorruptPayloadError
        When the framing is intact but a section CRC or the whole-payload
        CRC does not match (bit-flips, partial overwrites).
    """
    named_sections = _checked_sections(data)
    precompute: Optional[bytes] = None
    if named_sections and named_sections[-1][0] == OPTIONAL_SECTION_NAME:
        precompute = named_sections[-1][1]
        named_sections = named_sections[:-1]
    reader = _Reader(b"".join(section for _name, section in named_sections))

    door_ids = [reader.text() for _ in range(reader.u32())]
    partition_ids = [reader.text() for _ in range(reader.u32())]
    door_count = len(door_ids)
    partition_count = len(partition_ids)

    partition_private = [flag == 1 for flag in reader.blob()]
    partition_outdoor = [flag == 1 for flag in reader.blob()]
    if len(partition_private) != partition_count or len(partition_outdoor) != partition_count:
        raise SerializationError("partition flag arrays disagree with the partition table")

    dm_locals: List[Dict[int, int]] = []
    dm_arrays: List[array] = []
    for _ in range(partition_count):
        members = reader.u32_array()
        dense = reader.f64_array()
        if len(dense) != len(members) * len(members):
            raise SerializationError("dense DM matrix disagrees with its member list")
        dm_locals.append({door_idx: rank for rank, door_idx in enumerate(members)})
        dm_arrays.append(dense)

    adjacency: List[Tuple[Tuple[int, bool, Tuple[Tuple[int, float], ...]], ...]] = []
    for _ in range(door_count):
        groups = []
        for _ in range(reader.u32()):
            partition_idx = reader.u32()
            edge_doors = reader.u32_array()
            edge_legs = reader.f64_array()
            if len(edge_doors) != len(edge_legs):
                raise SerializationError("adjacency edge arrays disagree in length")
            groups.append(
                (
                    partition_idx,
                    partition_private[partition_idx],
                    tuple(zip(edge_doors, edge_legs)),
                )
            )
        adjacency.append(tuple(groups))

    ati_bounds = tuple(tuple(reader.f64_array()) for _ in range(door_count))

    starts = list(reader.f64_array())
    flags = reader.blob()
    if len(flags) != len(starts) * door_count:
        raise SerializationError("interval bitset block disagrees with the interval count")
    interval_bitsets = IntervalBitsets._from_state(
        starts,
        [flags[i * door_count : (i + 1) * door_count] for i in range(len(starts))],
    )

    door_x = reader.f64_array()
    door_y = reader.f64_array()
    door_floor = list(reader.i32_array())
    if not (len(door_x) == len(door_y) == len(door_floor) == door_count):
        raise SerializationError("door geometry arrays disagree with the door table")

    leaveable_by_partition = [tuple(reader.u32_array()) for _ in range(partition_count)]

    locate_specs = []
    for _ in range(reader.u32()):
        pidx = reader.u32()
        floor = reader.i32()
        spans: Optional[Tuple[int, int]] = None
        if reader.u8():
            spans = (reader.i32(), reader.i32())
        locate_specs.append((pidx, floor, spans, _read_polygon(reader)))
    if not reader.done():
        raise SerializationError(
            f"{len(reader._data) - reader._offset} trailing bytes after the "
            "compiled-graph section data"
        )

    overlays: Optional[IntervalOverlays] = None
    if precompute is not None:
        overlays = _decode_precompute(
            precompute,
            adjacency,
            partition_count,
            door_count,
            interval_bitsets.interval_count,
        )

    return CompiledITGraph._from_state(
        {
            "door_ids": door_ids,
            "partition_ids": partition_ids,
            "partition_private": partition_private,
            "partition_outdoor": partition_outdoor,
            "dm_arrays": dm_arrays,
            "dm_locals": dm_locals,
            "adjacency": adjacency,
            "ati_bounds": ati_bounds,
            "interval_bitsets": interval_bitsets,
            "door_x": door_x,
            "door_y": door_y,
            "door_floor": door_floor,
            "leaveable_by_partition": leaveable_by_partition,
            "locate_specs": locate_specs,
            "overlays": overlays,
        }
    )
