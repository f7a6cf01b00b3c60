"""Interval-keyed tree-cache parity: cached answers must be bit-identical.

The :class:`~repro.core.cache.SPTreeCache` answers repeat queries from a
recorded shortest-path tree instead of a fresh Dijkstra.  The contract under
test: a cached answer — found flag, path, length and **every**
:class:`~repro.core.query.SearchStatistics` counter — equals the uncached
compiled answer (itself parity-locked to the reference engine by
``test_compiled_parity.py``), across all four TV-check methods, on both
standard venues, cold and warm, through the single-query engine seam and
the batch executor.  Alongside parity: admission (promote vs eager), LRU
eviction under a small capacity, generation-stamped invalidation, the
interval-index time bucketing of the planner (``query-time`` groups by
``IntervalBitsets.index_at``).
"""

import pytest

from test_compiled_parity import METHODS, assert_parity

from repro.core.batch import BatchExecutor
from repro.core.cache import CachedTree, CacheConfig, SPTreeCache, TimeKeyResolver
from repro.core.engine import ITSPQEngine
from repro.core.query import ITSPQuery
from repro.datasets.simple_venues import build_corridor_venue, build_two_room_venue
from repro.exceptions import QueryError
from repro.geometry.point import IndoorPoint
from repro.temporal.timeofday import TimeOfDay


def all_pairs_queries(points, times):
    names = sorted(points)
    return [
        ITSPQuery(points[a], points[b], t)
        for a in names
        for b in names
        if a != b
        for t in times
    ]


def assert_cached_parity(itgraph, queries, cache_config, methods=METHODS, rounds=2):
    """Cached engine + batch answers equal uncached compiled answers,
    repeated ``rounds`` times so both the build path and the hit path run."""
    oracle = ITSPQEngine(itgraph)
    cached_engine = ITSPQEngine(itgraph, cache=cache_config)
    for method in methods:
        expected = [oracle.run(query, method=method) for query in queries]
        batch = ITSPQEngine(itgraph, cache=cache_config).batch_executor()
        for _ in range(rounds):
            for reference, query in zip(expected, queries):
                assert_parity(reference, cached_engine.run(query, method=method))
            for reference, result in zip(expected, batch.run_batch(queries, method)):
                assert_parity(reference, result)
    return cached_engine


@pytest.fixture(scope="module")
def example_queries(example_points):
    times = ["6:30", "9:00", "12:00", "15:55", "21:00", "23:30"]
    queries = all_pairs_queries(example_points, times)
    queries += [
        ITSPQuery(example_points[name], example_points[name], "12:00")
        for name in sorted(example_points)
    ]
    return queries


@pytest.fixture(scope="module")
def tiny_mall_queries(tiny_mall_itgraph):
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
        if len(points) >= 6:
            break
    return [
        ITSPQuery(source, target, query_time)
        for source in points[:3]
        for target in points
        if source is not target
        for query_time in ("6:30", "12:00", "21:45")
    ]


class TestCachedAnswerParity:
    """Bit-identical answers on both venues, all methods, cold and warm."""

    def test_example_venue_eager(self, example_itgraph, example_queries):
        engine = assert_cached_parity(
            example_itgraph, example_queries, CacheConfig(mode="eager")
        )
        stats = engine.cache_stats
        assert stats["trees_built"] > 0
        assert stats["hits"] > 0  # warm rounds answered from the cache

    def test_example_venue_promote(self, example_itgraph, example_queries):
        engine = assert_cached_parity(
            example_itgraph,
            example_queries,
            CacheConfig(mode="promote", promote_after=2),
            rounds=3,
        )
        stats = engine.cache_stats
        assert stats["trees_built"] > 0 and stats["hits"] > 0

    def test_tiny_mall_eager(self, tiny_mall_itgraph, tiny_mall_queries):
        engine = assert_cached_parity(
            tiny_mall_itgraph, tiny_mall_queries, CacheConfig(mode="eager")
        )
        assert engine.cache_stats["hits"] > 0

    def test_private_target_contexts(self):
        itgraph, points = build_corridor_venue(
            {"s12": [("9:00", "11:00"), ("20:00", "22:00")]},
            private_rooms=("room2",),
        )
        queries = all_pairs_queries(points, ["8:59", "9:00", "10:30", "21:59", "22:00"])
        assert_cached_parity(itgraph, queries, CacheConfig(mode="eager"))

    def test_not_found_answers_are_cached_exactly(self):
        # d1 never opens for the sync/async/query-time methods at 23:00: the
        # cached not-found answer must carry the full exhausted-search stats.
        itgraph, points = build_two_room_venue({"d1": [("8:00", "9:00")]})
        queries = all_pairs_queries(points, ["7:00", "8:30", "23:00"])
        assert_cached_parity(itgraph, queries, CacheConfig(mode="eager"))


class TestIntervalTimeBuckets:
    """Satellite: ``query-time`` groups by checkpoint-interval index."""

    def test_interval_key_matches_index_at(self, example_itgraph):
        compiled = example_itgraph.compiled()
        resolver = TimeKeyResolver(compiled)
        assert resolver.interval_indexing_sound()
        bitsets = compiled.interval_bitsets
        for clock in ("0:00", "6:29", "9:00", "12:00:01", "15:55", "23:59:59"):
            seconds = TimeOfDay(clock).seconds
            assert resolver.key(3, seconds) == float(bitsets.index_at(seconds))
        # Static never reads the clock; arrival-time methods keep the second.
        assert resolver.key(2, 1234.5) == 0.0
        assert resolver.key(0, 1234.5) == 1234.5
        assert resolver.key(1, 1234.5) == 1234.5

    def test_unsound_indexing_falls_back_to_boundary_bisection(self):
        # A venue whose checkpoint set is thinner than the door boundaries
        # must refuse interval bucketing and keep the lossless bisection.
        itgraph, _points = build_two_room_venue({"d1": [("8:00", "9:00")]})
        compiled = itgraph.compiled()
        resolver = TimeKeyResolver(compiled)
        starts = set(compiled.interval_bitsets.starts)
        boundaries = {bound for bounds in compiled.ati_bounds for bound in bounds}
        if boundaries <= starts:
            assert resolver.interval_indexing_sound()
        else:
            assert not resolver.interval_indexing_sound()
        # Either way, equal keys must imply probe-equivalent instants: two
        # instants with different door states never share a key.
        before = TimeOfDay("7:59").seconds
        after = TimeOfDay("8:01").seconds
        assert resolver.key(3, before) != resolver.key(3, after)

    def test_bucketed_plans_answer_identically(self, example_itgraph, example_points):
        # Two instants inside one checkpoint interval must merge into one
        # group — and still answer exactly like the sequential oracle.
        compiled = example_itgraph.compiled()
        executor = BatchExecutor(compiled)
        source = example_points[sorted(example_points)[0]]
        target = example_points[sorted(example_points)[1]]
        queries = [
            ITSPQuery(source, target, "12:00"),
            ITSPQuery(source, target, "12:00:01"),
        ]
        plan = executor.planner.plan(queries, "query-time")
        assert len(plan) == 1 and plan[0].size == 2
        oracle = ITSPQEngine(example_itgraph)
        for reference, result in zip(
            [oracle.run(query, method="query-time") for query in queries],
            executor.run_batch(queries, "query-time"),
        ):
            assert_parity(reference, result)


class TestEvictionAndInvalidation:
    def test_lru_eviction_under_small_capacity(self, example_itgraph, example_queries):
        config = CacheConfig(max_entries=2, mode="eager")
        engine = assert_cached_parity(example_itgraph, example_queries, config)
        stats = engine.cache_stats
        assert stats["entries"] <= 2
        assert stats["evictions"] > 0  # the workload has many more keys

    def test_lru_keeps_the_most_recently_used_keys(self, example_itgraph):
        compiled = example_itgraph.compiled()
        cache = SPTreeCache(compiled, config=CacheConfig(max_entries=2, mode="eager"))
        cache.store_tree(("a",), CachedTree())
        cache.store_tree(("b",), CachedTree())
        assert cache.lookup(("a",)) is not None  # refresh "a": "b" becomes LRU
        cache.store_tree(("c",), CachedTree())  # capacity 2: evicts "b"
        assert cache.evictions == 1
        assert cache.peek(("b",)) is None
        assert cache.peek(("a",)) is not None and cache.peek(("c",)) is not None

    def test_generation_bump_invalidates_every_entry(self, example_itgraph, example_queries):
        engine = ITSPQEngine(example_itgraph, cache=CacheConfig(mode="eager"))
        oracle = ITSPQEngine(example_itgraph)
        expected = [oracle.run(query, method="synchronous") for query in example_queries]
        for reference, query in zip(expected, example_queries):
            assert_parity(reference, engine.run(query, method="synchronous"))
        cache = engine.cache
        built_before = cache.trees_built
        generation_before = cache.generation
        cache.invalidate()
        assert cache.generation == generation_before + 1
        assert cache.stats()["entries"] == 0
        # Post-invalidation answers rebuild trees and stay bit-identical.
        for reference, query in zip(expected, example_queries):
            assert_parity(reference, engine.run(query, method="synchronous"))
        assert cache.trees_built > built_before


class TestAdmission:
    def test_promote_mode_counts_misses_before_building(self, example_itgraph, example_points):
        engine = ITSPQEngine(
            example_itgraph, cache=CacheConfig(mode="promote", promote_after=2)
        )
        names = sorted(example_points)
        query = ITSPQuery(example_points[names[0]], example_points[names[1]], "9:00")
        engine.run(query, method="synchronous")  # miss 1: tallied, not built
        stats = engine.cache_stats
        assert stats == dict(stats, misses=1, trees_built=0, hits=0)
        engine.run(query, method="synchronous")  # miss 2: promoted, built
        stats = engine.cache_stats
        assert stats["misses"] == 2 and stats["trees_built"] == 1 and stats["hits"] == 0
        engine.run(query, method="synchronous")  # hit
        assert engine.cache_stats["hits"] == 1

    def test_off_mode_never_builds(self, example_itgraph, example_points):
        engine = ITSPQEngine(example_itgraph, cache=CacheConfig(mode="off"))
        names = sorted(example_points)
        query = ITSPQuery(example_points[names[0]], example_points[names[1]], "9:00")
        for _ in range(4):
            engine.run(query, method="synchronous")
        stats = engine.cache_stats
        assert stats["trees_built"] == 0 and stats["hits"] == 0 and stats["misses"] == 4

    def test_warm_cache_builds_ahead_of_time(self, example_itgraph, example_queries):
        engine = ITSPQEngine(example_itgraph, cache=True)  # promote defaults
        built = engine.warm_cache(example_queries, method="synchronous")
        assert built > 0
        oracle = ITSPQEngine(example_itgraph)
        for query in example_queries:
            assert_parity(
                oracle.run(query, method="synchronous"),
                engine.run(query, method="synchronous"),
            )
        stats = engine.cache_stats
        assert stats["misses"] == 0 and stats["hits"] == len(example_queries)

    def test_warming_requires_a_cache(self, example_itgraph, example_queries):
        engine = ITSPQEngine(example_itgraph)
        with pytest.raises(QueryError, match="cache"):
            engine.warm_cache(example_queries)


class TestEngineOptions:
    def test_cache_off_by_default(self, example_itgraph):
        engine = ITSPQEngine(example_itgraph)
        engine.ensure_compiled()
        assert engine.cache is None and engine.cache_stats is None

    def test_cache_true_uses_defaults(self, example_itgraph):
        engine = ITSPQEngine(example_itgraph, cache=True)
        engine.ensure_compiled()
        assert engine.cache is not None
        assert engine.cache.config.mode == "promote"

    def test_invalid_cache_option_is_rejected(self, example_itgraph):
        with pytest.raises(TypeError, match="cache"):
            ITSPQEngine(example_itgraph, cache="yes please")

    def test_invalid_config_values_are_rejected(self):
        with pytest.raises(ValueError, match="max_entries"):
            CacheConfig(max_entries=0)
        with pytest.raises(ValueError, match="mode"):
            CacheConfig(mode="sometimes")
        with pytest.raises(ValueError, match="promote_after"):
            CacheConfig(promote_after=0)


class TestReferenceAnchoredParity:
    """Multi-member batch groups and cache replay against the object-level
    reference engine directly.  The suites above compare against compiled
    ``run``, which runs the same compiled kernel as the paths under test;
    this anchors both paths on the independent oracle instead."""

    @pytest.mark.parametrize(
        "itgraph_fixture, queries_fixture",
        [("example_itgraph", "example_queries"), ("tiny_mall_itgraph", "tiny_mall_queries")],
    )
    def test_batch_groups_and_cache_replay_match_the_reference(
        self, request, itgraph_fixture, queries_fixture
    ):
        itgraph = request.getfixturevalue(itgraph_fixture)
        queries = request.getfixturevalue(queries_fixture)
        reference = ITSPQEngine(itgraph, compiled=False)
        engine = ITSPQEngine(itgraph)
        cached = ITSPQEngine(itgraph, cache=CacheConfig(mode="eager", max_entries=1 << 16))
        for method in METHODS:
            expected = [reference.run(query, method=method) for query in queries]

            groups = engine.batch_executor().planner.plan(queries, method)
            assert max(group.size for group in groups) > 1
            for oracle, result in zip(expected, engine.run_batch(queries, method=method)):
                assert_parity(oracle, result)

            for query in queries:
                cached.run(query, method=method)  # first pass records the trees
            hits = cached.cache.hits
            for oracle, query in zip(expected, queries):
                assert_parity(oracle, cached.run(query, method=method))
            assert cached.cache.hits - hits == len(queries)  # second pass: all replay
