"""Compiled-graph codec round-trips: the serialised-index contract.

A :class:`~repro.core.compiled.CompiledITGraph` rebuilt from its
:mod:`repro.io.compiled_codec` payload must be indistinguishable from a
freshly compiled one at query time: bit-identical paths, lengths and every
:class:`~repro.core.query.SearchStatistics` counter, for all four TV-check
methods on every venue — including hypothesis-generated door schedules.
This is what lets venue shards serve queries from bytes instead of
recompiling, so the contract is load-bearing for ``repro.service.shard``.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from test_compiled_parity import METHODS, assert_parity

from repro.core.batch import BatchExecutor
from repro.core.engine import ITSPQEngine
from repro.core.query import ITSPQuery
from repro.datasets.simple_venues import build_corridor_venue, build_two_room_venue
from repro.exceptions import SerializationError, UnknownEntityError
from repro.geometry.point import IndoorPoint
from repro.io import (
    compiled_graph_from_bytes,
    compiled_graph_to_bytes,
    load_compiled_graph,
    save_compiled_graph,
)


def roundtrip(compiled_graph):
    """Serialise and rehydrate one compiled graph."""
    return compiled_graph_from_bytes(compiled_graph_to_bytes(compiled_graph))


def assert_query_roundtrip(itgraph, queries, methods=METHODS):
    """Rehydrated-graph batch answers must equal fresh-graph and sequential
    answers, statistics included."""
    compiled_graph = itgraph.compiled()
    rehydrated = roundtrip(compiled_graph)
    assert rehydrated.itgraph is None  # codec payloads carry no IT-Graph
    for method in methods:
        oracle = ITSPQEngine(itgraph)
        expected = [oracle.run(query, method=method) for query in queries]
        fresh = BatchExecutor(compiled_graph).run_batch(queries, method)
        rehy = BatchExecutor(rehydrated).run_batch(queries, method)
        for reference_result, fresh_result, rehydrated_result in zip(expected, fresh, rehy):
            assert_parity(reference_result, fresh_result)
            assert_parity(reference_result, rehydrated_result)


def all_pairs_queries(points, times):
    names = sorted(points)
    return [
        ITSPQuery(points[a], points[b], t)
        for a in names
        for b in names
        if a != b
        for t in times
    ]


class TestStructuralRoundTrip:
    """The flat arrays themselves must survive the codec bit for bit."""

    def test_example_graph_arrays(self, example_itgraph):
        compiled_graph = example_itgraph.compiled()
        rehydrated = roundtrip(compiled_graph)
        assert rehydrated.door_ids == compiled_graph.door_ids
        assert rehydrated.door_index == compiled_graph.door_index
        assert rehydrated.partition_ids == compiled_graph.partition_ids
        assert rehydrated.partition_private == compiled_graph.partition_private
        assert rehydrated.partition_outdoor == compiled_graph.partition_outdoor
        assert rehydrated.adjacency == compiled_graph.adjacency
        assert rehydrated.ati_bounds == compiled_graph.ati_bounds
        assert rehydrated.dm_sizes == compiled_graph.dm_sizes
        assert rehydrated.dm_locals == compiled_graph.dm_locals
        for fresh_dense, rehydrated_dense in zip(
            compiled_graph.dm_arrays, rehydrated.dm_arrays
        ):
            # NaN-aware: compare the raw IEEE bytes, not float equality.
            assert fresh_dense.tobytes() == rehydrated_dense.tobytes()
        assert list(rehydrated.door_x) == list(compiled_graph.door_x)
        assert list(rehydrated.door_y) == list(compiled_graph.door_y)
        assert rehydrated.door_floor == compiled_graph.door_floor
        assert [tuple(doors) for doors in rehydrated.leaveable_by_partition] == [
            tuple(doors) for doors in compiled_graph.leaveable_by_partition
        ]
        bitsets, rehydrated_bitsets = (
            compiled_graph.interval_bitsets,
            rehydrated.interval_bitsets,
        )
        assert rehydrated_bitsets.starts == bitsets.starts
        for index in range(bitsets.interval_count):
            assert rehydrated_bitsets.bitset_by_index(index) == bitsets.bitset_by_index(index)

    def test_payload_is_stable(self, example_itgraph):
        """Serialising a rehydrated graph reproduces the payload byte for byte."""
        payload = compiled_graph_to_bytes(example_itgraph.compiled())
        assert compiled_graph_to_bytes(compiled_graph_from_bytes(payload)) == payload

    def test_locate_parity_over_dense_probe_grid(self, example_itgraph):
        compiled_graph = example_itgraph.compiled()
        rehydrated = roundtrip(compiled_graph)
        boxes = [
            partition.polygon.bounding_box
            for partition in example_itgraph.space.iter_partitions()
            if partition.polygon is not None
        ]
        min_x = min(box.min_x for box in boxes) - 1.0
        max_x = max(box.max_x for box in boxes) + 1.0
        min_y = min(box.min_y for box in boxes) - 1.0
        max_y = max(box.max_y for box in boxes) + 1.0
        steps = 40
        for ix in range(steps + 1):
            for iy in range(steps + 1):
                point = IndoorPoint(
                    min_x + (max_x - min_x) * ix / steps,
                    min_y + (max_y - min_y) * iy / steps,
                    0,
                )
                try:
                    expected = compiled_graph.locate_index(point)
                except UnknownEntityError:
                    with pytest.raises(UnknownEntityError):
                        rehydrated.locate_index(point)
                    continue
                assert rehydrated.locate_index(point) == expected

    def test_intra_distance_matches(self, example_itgraph):
        compiled_graph = example_itgraph.compiled()
        rehydrated = roundtrip(compiled_graph)
        for pidx, local in enumerate(compiled_graph.dm_locals):
            doors = list(local)
            for door_a in doors:
                for door_b in doors:
                    try:
                        expected = compiled_graph.intra_distance_idx(pidx, door_a, door_b)
                    except UnknownEntityError:
                        with pytest.raises(UnknownEntityError):
                            rehydrated.intra_distance_idx(pidx, door_a, door_b)
                        continue
                    assert rehydrated.intra_distance_idx(pidx, door_a, door_b) == expected


class TestQueryRoundTrip:
    """End-to-end: rehydrated graphs answer queries bit-identically."""

    def test_example_venue_all_methods(self, example_itgraph, example_points):
        times = ["6:30", "9:00", "12:00", "15:55", "21:00", "23:30"]
        queries = all_pairs_queries(example_points, times)
        queries += [
            ITSPQuery(example_points[name], example_points[name], "12:00")
            for name in sorted(example_points)
        ]
        assert_query_roundtrip(example_itgraph, queries)

    def test_tiny_mall_all_methods(self, tiny_mall_itgraph):
        space = tiny_mall_itgraph.space
        points = []
        for partition in space.iter_partitions():
            record = tiny_mall_itgraph.partition_record(partition.partition_id)
            if record.is_private or record.is_outdoor or partition.polygon is None:
                continue
            center = partition.polygon.bounding_box.center
            candidate = IndoorPoint(center.x, center.y, partition.floor)
            if partition.contains_point(candidate):
                points.append(candidate)
            if len(points) >= 8:
                break
        queries = [
            ITSPQuery(source, target, query_time)
            for source in points[:4]
            for target in points
            if source is not target
            for query_time in ("6:30", "12:00", "21:45")
        ]
        assert_query_roundtrip(tiny_mall_itgraph, queries)

    def test_private_rooms_and_shortcuts(self):
        itgraph, points = build_corridor_venue(
            {"s12": [("9:00", "11:00"), ("20:00", "22:00")]},
            private_rooms=("room2",),
        )
        queries = all_pairs_queries(points, ["8:59", "9:00", "10:30", "21:59", "22:00"])
        assert_query_roundtrip(itgraph, queries)

    def test_file_helpers_roundtrip(self, example_itgraph, example_points, tmp_path):
        target = tmp_path / "nested" / "example.cig"
        saved = save_compiled_graph(example_itgraph.compiled(), target)
        assert saved == target and target.is_file()
        rehydrated = load_compiled_graph(target)
        queries = all_pairs_queries(example_points, ["9:00"])
        expected = ITSPQEngine(example_itgraph).run_batch(queries, method="synchronous")
        actual = BatchExecutor(rehydrated).run_batch(queries, "synchronous")
        for reference_result, rehydrated_result in zip(expected, actual):
            assert_parity(reference_result, rehydrated_result)


class TestFormatValidation:
    """Foreign, corrupt and future payloads must fail fast and loudly."""

    def test_rejects_foreign_magic(self):
        with pytest.raises(SerializationError, match="magic"):
            compiled_graph_from_bytes(b"NOTCIG\x01\x00" + b"\x00" * 64)

    def test_rejects_future_version(self, example_itgraph):
        payload = bytearray(compiled_graph_to_bytes(example_itgraph.compiled()))
        payload[6] = 0xFF  # bump the little-endian version field
        with pytest.raises(SerializationError, match="version"):
            compiled_graph_from_bytes(bytes(payload))

    def test_rejects_truncation(self, example_itgraph):
        payload = compiled_graph_to_bytes(example_itgraph.compiled())
        with pytest.raises(SerializationError):
            compiled_graph_from_bytes(payload[: len(payload) // 2])

    def test_rejects_short_header(self):
        with pytest.raises(SerializationError):
            compiled_graph_from_bytes(b"RP")

    def test_rejects_trailing_garbage(self, example_itgraph):
        payload = compiled_graph_to_bytes(example_itgraph.compiled())
        with pytest.raises(SerializationError, match="trailing"):
            compiled_graph_from_bytes(payload + b"\x00")


class TestHypothesisRoundTrip:
    """Random schedules: the codec must be exact for arbitrary ATI layouts."""

    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        st.integers(min_value=0, max_value=22),
        st.integers(min_value=1, max_value=12),
        st.sampled_from(METHODS),
    )
    def test_two_room_schedules(self, open_hour, duration, method):
        close_hour = min(24, open_hour + duration)
        itgraph, points = build_two_room_venue({"d1": [(f"{open_hour}:00", f"{close_hour}:00")]})
        queries = all_pairs_queries(
            points, [f"{open_hour}:00", "0:30", "12:00", f"{max(close_hour - 1, 0)}:59"]
        )
        assert_query_roundtrip(itgraph, queries, methods=(method,))

    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=23),
                st.integers(min_value=1, max_value=8),
            ),
            min_size=0,
            max_size=3,
        ),
        st.sampled_from(METHODS),
    )
    def test_corridor_shortcut_windows(self, windows, method):
        schedule = {
            "s12": [
                (f"{open_hour}:00", f"{min(24, open_hour + duration)}:00")
                for open_hour, duration in windows
            ]
        }
        itgraph, points = build_corridor_venue(schedule)
        queries = all_pairs_queries(points, ["7:00", "12:00", "22:30"])
        assert_query_roundtrip(itgraph, queries, methods=(method,))
