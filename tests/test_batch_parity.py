"""Batch-vs-sequential parity: the batch execution contract.

Every result a :class:`~repro.core.batch.BatchExecutor` returns — found
flag, path (door sequence, per-hop distances and arrival times), length and
*all* search-statistics counters — must be bit-identical to what a
sequential ``ITSPQEngine.run`` produces for the same query, across all four
TV-check methods, multiple venues and adversarial query mixes (duplicate
queries, shared sources, shared query times, unreachable targets, private
target partitions, same-partition direct paths).  The sequential engine is
the oracle; ``tests/test_compiled_parity.py`` anchors it to the reference
search in turn.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from test_compiled_parity import METHODS, assert_parity

from repro.core.batch import BatchExecutor
from repro.core.engine import ITSPQEngine
from repro.core.query import ITSPQuery
from repro.datasets.simple_venues import build_corridor_venue, build_two_room_venue
from repro.exceptions import QueryError
from repro.geometry.point import IndoorPoint
from repro.synthetic.queries import QueryWorkloadConfig, generate_query_instances
from repro.temporal.timeofday import TimeOfDay


def assert_batch_parity(itgraph, queries, methods=METHODS):
    """Batch results must be indistinguishable from sequential ``run`` calls.

    The oracle engine processes the queries in the same order the batch
    receives them (fresh engines on both sides, so snapshot-store state
    starts identically).
    """
    for method in methods:
        oracle = ITSPQEngine(itgraph)
        batch_engine = ITSPQEngine(itgraph)
        expected = [oracle.run(query, method=method) for query in queries]
        actual = batch_engine.run_batch(queries, method=method)
        assert len(actual) == len(expected)
        for reference_result, batch_result in zip(expected, actual):
            assert_parity(reference_result, batch_result)


class TestExampleVenueBatchParity:
    """Full sweep over the paper's running example."""

    def test_all_pairs_all_methods(self, example_itgraph, example_points):
        names = sorted(example_points)
        times = ["6:30", "9:00", "12:00", "15:55", "21:00", "23:30"]
        queries = [
            ITSPQuery(example_points[a], example_points[b], t)
            for a in names
            for b in names
            if a != b
            for t in times
        ]
        # Adversarial extras: duplicates, same-partition pairs, repeated tail.
        queries += queries[:7]
        queries += [ITSPQuery(example_points[a], example_points[a], "12:00") for a in names]
        assert_batch_parity(example_itgraph, queries)

    def test_single_query_batches(self, example_itgraph, example_points):
        queries = [ITSPQuery(example_points["p1"], example_points["p4"], "9:00")]
        assert_batch_parity(example_itgraph, queries)

    def test_empty_batch(self, example_itgraph):
        assert ITSPQEngine(example_itgraph).run_batch([], method="synchronous") == []

    def test_results_keep_input_order(self, example_itgraph, example_points):
        names = sorted(example_points)
        queries = [
            ITSPQuery(example_points[a], example_points[b], t)
            for t in ("12:00", "9:00")
            for a in names
            for b in names
            if a != b
        ]
        results = ITSPQEngine(example_itgraph).run_batch(queries, method="synchronous")
        for query, result in zip(queries, results):
            assert result.query is query


class TestSimpleVenueBatchParity:
    def test_window_schedule_with_unreachable_times(self):
        itgraph, points = build_two_room_venue({"d1": [("8:00", "16:00")]})
        queries = [
            ITSPQuery(points[a], points[b], t)
            for a in ("a", "b")
            for b in ("a", "b")
            for t in ("7:00", "8:00", "12:00", "15:59:55", "16:00", "23:00")
        ]
        assert_batch_parity(itgraph, queries)

    def test_never_open_door_not_found(self):
        itgraph, points = build_two_room_venue({"d1": []})
        queries = [
            ITSPQuery(points["a"], points["b"], "12:00"),
            ITSPQuery(points["a"], points["b"], "3:00"),
            ITSPQuery(points["b"], points["a"], "12:00"),
        ]
        assert_batch_parity(itgraph, queries)
        results = ITSPQEngine(itgraph).run_batch(queries, method="synchronous")
        assert all(not r.found for r in results)

    def test_private_target_partitions_split_groups(self):
        itgraph, points = build_corridor_venue(private_rooms=("room2", "room3"))
        names = sorted(points)
        queries = [
            ITSPQuery(points[a], points[b], t)
            for a in names
            for b in names
            for t in ("8:00", "12:00", "22:30")
        ]
        assert_batch_parity(itgraph, queries)

    def test_shortcut_schedule_mix(self):
        itgraph, points = build_corridor_venue(
            {"s12": [("9:00", "11:00"), ("20:00", "22:00")]}
        )
        names = sorted(points)
        queries = [
            ITSPQuery(points[a], points[b], t)
            for a in names
            for b in names
            if a != b
            for t in ("8:59", "9:00", "10:30", "21:59", "22:00")
        ]
        assert_batch_parity(itgraph, queries)

    def test_outside_endpoint_raises_query_error(self):
        itgraph, points = build_two_room_venue()
        bad = [
            ITSPQuery(points["a"], points["b"], "12:00"),
            ITSPQuery(points["a"], IndoorPoint(1e6, 1e6, 0), "12:00"),
        ]
        with pytest.raises(QueryError):
            ITSPQEngine(itgraph).run_batch(bad, method="synchronous")


class TestSyntheticVenueBatchParity:
    """The miniature mall: staircases, private shops, generated schedule."""

    def test_fanout_workload_all_methods(self, tiny_mall_itgraph):
        workload = generate_query_instances(
            tiny_mall_itgraph,
            QueryWorkloadConfig(s2t_distance=180.0, pairs=5, query_time="12:00", seed=17),
        )
        sources = [g.query.source for g in workload]
        targets = [g.query.target for g in workload]
        queries = [
            ITSPQuery(s, t, tm)
            for s in sources
            for t in targets
            for tm in ("6:30", "12:00", "21:45")
        ]
        queries += queries[::9]  # duplicates sprinkled over every group shape
        assert_batch_parity(tiny_mall_itgraph, queries)


class TestPlanShapes:
    """The planner's grouping invariants (what makes batching worth it)."""

    @staticmethod
    def _executor(itgraph):
        return ITSPQEngine(itgraph).batch_executor()

    def test_common_source_same_time_shares_group(self, example_itgraph, example_points):
        executor = self._executor(example_itgraph)
        p1, p3, p4 = example_points["p1"], example_points["p3"], example_points["p4"]
        queries = [
            ITSPQuery(p1, p3, "12:00"),
            ITSPQuery(p1, p4, "12:00"),
            ITSPQuery(p1, p3, "12:00"),  # exact duplicate
        ]
        plan = executor.planner.plan(queries, "synchronous")
        sizes = sorted(group.size for group in plan)
        # p3/p4 may differ in private-partition context, but the duplicate
        # must always share its group and every query must be planned.
        assert sum(sizes) == 3
        assert max(sizes) >= 2

    def test_different_times_split_for_its(self, example_itgraph, example_points):
        executor = self._executor(example_itgraph)
        p1, p3 = example_points["p1"], example_points["p3"]
        queries = [ITSPQuery(p1, p3, "12:00"), ITSPQuery(p1, p3, "12:00:01")]
        assert len(executor.planner.plan(queries, "synchronous")) == 2
        assert len(executor.planner.plan(queries, "asynchronous")) == 2

    def test_static_merges_all_times(self, example_itgraph, example_points):
        executor = self._executor(example_itgraph)
        p1, p3 = example_points["p1"], example_points["p3"]
        queries = [ITSPQuery(p1, p3, t) for t in ("0:15", "7:45", "12:00", "23:59")]
        assert len(executor.planner.plan(queries, "static")) == 1

    def test_query_time_merges_within_ati_interval(self, example_itgraph, example_points):
        executor = self._executor(example_itgraph)
        p1, p3 = example_points["p1"], example_points["p3"]
        # Two instants a second apart almost never straddle an ATI boundary;
        # two on opposite sides of 8:00 (a Table I boundary) must split.
        same = [ITSPQuery(p1, p3, "12:00"), ITSPQuery(p1, p3, "12:00:01")]
        split = [ITSPQuery(p1, p3, "7:59:59"), ITSPQuery(p1, p3, "8:00:01")]
        assert len(executor.planner.plan(same, "query-time")) == 1
        assert len(executor.planner.plan(split, "query-time")) == 2

    def test_plan_rejects_unknown_method(self, example_itgraph, example_points):
        executor = self._executor(example_itgraph)
        with pytest.raises(ValueError):
            executor.planner.plan(
                [ITSPQuery(example_points["p1"], example_points["p3"], "12:00")], "teleport"
            )


class TestSequentialFallbacks:
    """``run_batch(batch=False)`` and non-compiled engines stay oracles."""

    def test_sequential_flag_matches_run(self, example_itgraph, example_points):
        names = sorted(example_points)
        queries = [
            ITSPQuery(example_points[a], example_points[b], "9:00")
            for a in names
            for b in names
            if a != b
        ]
        for method in METHODS:
            engine = ITSPQEngine(example_itgraph)
            expected = [ITSPQEngine(example_itgraph).run(q, method=method) for q in queries]
            actual = engine.run_batch(queries, method=method, batch=False)
            for reference_result, batch_result in zip(expected, actual):
                assert_parity(reference_result, batch_result)

    def test_reference_engine_hoisted_strategy_matches_run(
        self, example_itgraph, example_points
    ):
        names = sorted(example_points)
        queries = [
            ITSPQuery(example_points[a], example_points[b], "9:00")
            for a in names
            for b in names
            if a != b
        ]
        for method in METHODS:
            engine = ITSPQEngine(example_itgraph, compiled=False)
            expected = [
                ITSPQEngine(example_itgraph, compiled=False).run(q, method=method)
                for q in queries
            ]
            actual = engine.run_batch(queries, method=method)
            for reference_result, batch_result in zip(expected, actual):
                assert_parity(reference_result, batch_result)

    def test_batch_executor_requires_compiled_engine(self, example_itgraph):
        with pytest.raises(QueryError):
            ITSPQEngine(example_itgraph, compiled=False).batch_executor()

    def test_executor_is_cached_on_engine(self, example_itgraph):
        engine = ITSPQEngine(example_itgraph)
        assert engine.batch_executor() is engine.batch_executor()


class TestExecutorDirectUse:
    def test_standalone_executor_matches_engine(self, example_itgraph, example_points):
        compiled = example_itgraph.compiled()
        executor = BatchExecutor(compiled)
        names = sorted(example_points)
        queries = [
            ITSPQuery(example_points[a], example_points[b], "12:00")
            for a in names
            for b in names
            if a != b
        ]
        oracle = ITSPQEngine(example_itgraph)
        expected = [oracle.run(q, method="synchronous") for q in queries]
        for reference_result, batch_result in zip(
            expected, executor.run_batch(queries, "synchronous")
        ):
            assert_parity(reference_result, batch_result)

    def test_rejects_nonpositive_walking_speed(self, example_itgraph):
        with pytest.raises(ValueError):
            BatchExecutor(example_itgraph.compiled(), walking_speed=0.0)


class TestHypothesisBatchParity:
    """Property sweep: random schedules and adversarial query mixes."""

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        st.integers(min_value=0, max_value=22),
        st.integers(min_value=1, max_value=12),
        st.lists(
            st.tuples(
                st.sampled_from(["room1", "room2", "room3", "room4", "corridor"]),
                st.sampled_from(["room1", "room2", "room3", "room4", "corridor"]),
                st.floats(min_value=0.0, max_value=86399.0, allow_nan=False),
            ),
            min_size=1,
            max_size=12,
        ),
        st.sampled_from(METHODS),
        st.booleans(),
    )
    def test_random_mix_parity(self, open_hour, duration, mix, method, duplicate_tail):
        close_hour = min(24, open_hour + duration)
        itgraph, points = build_corridor_venue(
            {"s12": [(f"{open_hour}:00", f"{close_hour}:00")], "c2": [("6:00", "22:00")]}
        )
        # Bucket times coarsely so shared query times (and therefore real
        # multi-member groups) actually occur in the generated mix.
        queries = [
            ITSPQuery(points[s], points[t], TimeOfDay(float(int(seconds // 3600) * 3600)))
            for s, t, seconds in mix
        ]
        if duplicate_tail:
            queries += queries[: len(queries) // 2 + 1]
        oracle = ITSPQEngine(itgraph)
        batch_engine = ITSPQEngine(itgraph)
        expected = [oracle.run(q, method=method) for q in queries]
        actual = batch_engine.run_batch(queries, method=method)
        for reference_result, batch_result in zip(expected, actual):
            assert_parity(reference_result, batch_result)
