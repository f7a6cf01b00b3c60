"""Serialisation of venues, schedules, workloads and compiled query indexes.

Round-tripping venues through plain JSON dictionaries serves two purposes:
it lets users persist generated synthetic venues (so benchmark runs can
share one venue), and it documents the on-disk data model for people who
want to feed their own building data into the library.

The compiled query index has a binary codec of its own
(:mod:`repro.io.compiled_codec`): a versioned flat-array payload that
round-trips the :class:`~repro.core.compiled.CompiledITGraph` (with its
interval bitsets) *exactly*, so venue shards rehydrate an index from
bytes instead of recompiling the venue.  Since format
version 2 the payload carries CRC32 integrity checksums per section and
over the whole blob, so a damaged payload fails decoding with
:class:`~repro.exceptions.CorruptPayloadError` instead of producing a
silently wrong index (:func:`verify_payload` checks without decoding).
"""

from repro.io.compiled_codec import (
    compiled_graph_from_bytes,
    compiled_graph_to_bytes,
    payload_section_spans,
    verify_payload,
)
from repro.io.serialize import (
    load_compiled_graph,
    load_json,
    queries_from_dict,
    queries_to_dict,
    save_compiled_graph,
    save_json,
    schedule_from_dict,
    schedule_to_dict,
    space_from_dict,
    space_to_dict,
)

__all__ = [
    "space_to_dict",
    "space_from_dict",
    "schedule_to_dict",
    "schedule_from_dict",
    "queries_to_dict",
    "queries_from_dict",
    "save_json",
    "load_json",
    "compiled_graph_to_bytes",
    "compiled_graph_from_bytes",
    "payload_section_spans",
    "verify_payload",
    "save_compiled_graph",
    "load_compiled_graph",
]
