"""Cooperative deadlines: typed expiry on every tier, zero effect otherwise.

The contract under test (``repro.core.deadline``):

* an expired :class:`SearchDeadline` raises the typed
  :class:`DeadlineExceededError` out of whichever tier is searching —
  reference, compiled, batch, cache-recording, and the oracles — never a
  partial result;
* the engine/executor remains fully usable after an expiry (the arena's
  generation stamp and the per-call label allocation make an aborted run
  invisible);
* a deadline that does **not** fire changes nothing: results are
  bit-identical to an un-deadlined run, counter for counter.
"""

from __future__ import annotations

import pytest

from repro.core.cache import CacheConfig
from repro.core.deadline import DEFAULT_CHECK_INTERVAL, SearchDeadline
from repro.core.engine import ITSPQEngine
from repro.core.query import ITSPQuery, SearchStatistics
from repro.core.reference import selection_dijkstra_reference, time_expanded_exact
from repro.exceptions import DeadlineExceededError


class FakeClock:
    """A hand-advanced monotonic clock (deadline tests never sleep)."""

    def __init__(self, now: float = 100.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestSearchDeadline:
    def test_validation_names_the_field(self):
        with pytest.raises(ValueError, match="budget_seconds"):
            SearchDeadline(0.0)
        with pytest.raises(ValueError, match="budget_seconds"):
            SearchDeadline(-1.0)
        with pytest.raises(ValueError, match="budget_seconds"):
            SearchDeadline(float("inf"))
        with pytest.raises(ValueError, match="budget_seconds"):
            SearchDeadline(float("nan"))
        with pytest.raises(ValueError, match="check_interval"):
            SearchDeadline(1.0, check_interval=0)

    def test_tick_reads_clock_only_every_interval(self):
        clock = FakeClock()
        reads = []
        original = clock.__call__

        def counting():
            reads.append(1)
            return original()

        deadline = SearchDeadline(1.0, check_interval=8, clock=counting)
        start_reads = len(reads)  # construction reads once
        for _ in range(7):
            deadline.tick()
        assert len(reads) == start_reads
        deadline.tick()  # the 8th tick reads
        assert len(reads) == start_reads + 1

    def test_expiry_raises_typed_error(self):
        clock = FakeClock()
        deadline = SearchDeadline(0.5, check_interval=1, clock=clock)
        deadline.tick()  # within budget
        clock.advance(1.0)
        with pytest.raises(DeadlineExceededError):
            deadline.tick()
        # ...and DeadlineExceededError is a TimeoutError for generic callers.
        assert issubclass(DeadlineExceededError, TimeoutError)

    def test_check_now_ignores_interval(self):
        clock = FakeClock()
        deadline = SearchDeadline(0.5, check_interval=1000, clock=clock)
        deadline.check_now()
        clock.advance(1.0)
        with pytest.raises(DeadlineExceededError):
            deadline.check_now()

    def test_remaining_and_expired(self):
        clock = FakeClock()
        deadline = SearchDeadline.after(2.0, clock=clock)
        assert deadline.remaining() == pytest.approx(2.0)
        assert not deadline.expired
        clock.advance(3.0)
        assert deadline.remaining() == pytest.approx(-1.0)
        assert deadline.expired

    def test_default_interval_is_documented_value(self):
        assert SearchDeadline(1.0).check_interval == DEFAULT_CHECK_INTERVAL


def _expired(clock: FakeClock, interval: int = 1) -> SearchDeadline:
    """A deadline already past its budget (fires on the first poll)."""
    deadline = SearchDeadline(0.001, check_interval=interval, clock=clock)
    clock.advance(1.0)
    return deadline


class TestEngineTiers:
    def test_compiled_tier_expiry_and_reuse(self, example_itgraph, example_points):
        engine = ITSPQEngine(example_itgraph)
        p3, p4 = example_points["p3"], example_points["p4"]
        clock = FakeClock()
        with pytest.raises(DeadlineExceededError):
            engine.query(p3, p4, "9:00", deadline=_expired(clock))
        # The engine is fully usable afterwards — same answer as fresh.
        result = engine.query(p3, p4, "9:00")
        fresh = ITSPQEngine(example_itgraph).query(p3, p4, "9:00")
        assert result.length == fresh.length

    def test_reference_tier_expiry(self, example_itgraph, example_points):
        engine = ITSPQEngine(example_itgraph, compiled=False)
        p3, p4 = example_points["p3"], example_points["p4"]
        clock = FakeClock()
        with pytest.raises(DeadlineExceededError):
            engine.query(p3, p4, "9:00", deadline=_expired(clock))
        assert engine.query(p3, p4, "9:00").found

    def test_batch_tier_expiry_never_partial(self, example_itgraph, example_points):
        engine = ITSPQEngine(example_itgraph)
        p3, p4 = example_points["p3"], example_points["p4"]
        queries = [ITSPQuery(p3, p4, "9:00"), ITSPQuery(p4, p3, "14:00")]
        clock = FakeClock()
        with pytest.raises(DeadlineExceededError):
            engine.run_batch(queries, deadline=_expired(clock))
        results = engine.run_batch(queries)
        assert len(results) == 2 and all(r.found for r in results)

    def test_cache_recording_expiry_leaves_cache_empty(self, example_itgraph, example_points):
        engine = ITSPQEngine(example_itgraph, cache=CacheConfig(mode="eager"))
        p3, p4 = example_points["p3"], example_points["p4"]
        clock = FakeClock()
        with pytest.raises(DeadlineExceededError):
            engine.query(p3, p4, "9:00", deadline=_expired(clock))
        # The interrupted recording run cached nothing.
        assert engine.cache_stats["trees_built"] == 0
        assert engine.cache_stats["entries"] == 0
        # The next (un-deadlined) query records and answers normally.
        assert engine.query(p3, p4, "9:00").found
        assert engine.cache_stats["trees_built"] == 1

    def test_oracles_observe_deadlines(self, example_itgraph, example_points):
        p3, p4 = example_points["p3"], example_points["p4"]
        clock = FakeClock()
        with pytest.raises(DeadlineExceededError):
            selection_dijkstra_reference(
                example_itgraph, p3, p4, "9:00", deadline=_expired(clock)
            )
        clock = FakeClock()
        with pytest.raises(DeadlineExceededError):
            time_expanded_exact(example_itgraph, p3, p4, "9:00", deadline=_expired(clock))


class TestNonFiringDeadlineParity:
    """A generous deadline must change nothing — every counter identical."""

    @pytest.mark.parametrize("method", ["synchronous", "asynchronous", "static", "query-time"])
    def test_single_query_bit_identical(self, example_itgraph, example_points, method):
        p3, p4 = example_points["p3"], example_points["p4"]
        plain = ITSPQEngine(example_itgraph).query(p3, p4, "9:00", method=method)
        deadlined = ITSPQEngine(example_itgraph).query(
            p3, p4, "9:00", method=method, deadline=SearchDeadline(3600.0)
        )
        assert deadlined.found == plain.found
        assert deadlined.length == plain.length
        if plain.path is not None:
            assert deadlined.path.door_sequence == plain.path.door_sequence
        for name in SearchStatistics.COUNTER_FIELDS:
            assert getattr(deadlined.statistics, name) == getattr(plain.statistics, name), name

    def test_batch_bit_identical(self, example_itgraph, example_points):
        points = list(example_points.values())
        queries = [
            ITSPQuery(source, target, "9:00")
            for source in points
            for target in points
            if source is not target
        ]
        plain = ITSPQEngine(example_itgraph).run_batch(list(queries))
        deadlined = ITSPQEngine(example_itgraph).run_batch(
            list(queries), deadline=SearchDeadline(3600.0)
        )
        for before, after in zip(plain, deadlined):
            assert after.found == before.found
            assert after.length == before.length
            assert after.statistics.heap_pops == before.statistics.heap_pops
