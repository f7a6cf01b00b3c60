"""Chaos parity for the serving layer: every fault the service absorbs must
leave client-visible answers bit-identical to the sequential oracle.

The faults (all deterministic, no timing races):

* every rung forced in turn (by tripping the breakers above it) — each rung
  answers bit-identically, including cache-replay;
* a flaky rung tripping its circuit breaker — the ladder descends, then
  heals through the half-open probe on an injected clock (no sleeping);
* a queue flood — every request either answers 200 bit-identically or is
  shed with a typed 429, never a hang or a corrupt answer;
* a slow client — a typed 408, and the service stays healthy for others;
* an idle keep-alive client — the connection closes without a reply (a
  408 nobody asked for would be read as the answer to its next request).
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.core.cache import CacheConfig
from repro.core.engine import ITSPQEngine
from repro.service import ITSPQService, ServiceConfig
from repro.service.degradation import (
    RUNG_BATCH,
    RUNG_CACHE_REPLAY,
    RUNG_SEQUENTIAL,
)
from repro.testing import FlakyRung, drip_feed_request, flood_requests

from tests._service_http import assert_matches_oracle, get, post_query, query_body, raw_request
from tests.test_deadline import FakeClock


def run_service_test(service: ITSPQService, test_coro_factory) -> None:
    async def scenario():
        await service.start()
        try:
            await test_coro_factory(service)
        finally:
            await service.aclose()

    asyncio.run(scenario())


@pytest.fixture()
def oracle(example_itgraph, example_points):
    engine = ITSPQEngine(example_itgraph)
    return engine.query(example_points["p3"], example_points["p4"], "9:00")


class TestForcedRungParity:
    def _trip(self, service: ITSPQService, rung: str) -> None:
        for _ in range(service.config.breaker_failure_threshold):
            service.ladder.record(rung, False)

    def test_each_rung_answers_bit_identically(self, example_itgraph, example_points, oracle):
        p3, p4 = example_points["p3"], example_points["p4"]
        engine = ITSPQEngine(example_itgraph, cache=CacheConfig(mode="eager"))
        service = ITSPQService(
            {"example": engine},
            ServiceConfig(batch_window_ms=0.0, breaker_backoff_base=3600.0),
        )

        async def body(service):
            assert service.ladder.rungs == [
                RUNG_BATCH,
                RUNG_SEQUENTIAL,
                RUNG_CACHE_REPLAY,
            ]
            for forced in service.ladder.rungs:
                status, payload = await post_query(
                    service.host, service.port, query_body(p3, p4)
                )
                assert status == 200
                assert payload["rung"] == forced, (forced, payload)
                assert_matches_oracle(payload, oracle)
                self._trip(service, forced)  # push the next round one rung down

        run_service_test(service, body)

    def test_cache_replay_miss_is_shed_not_searched(self, example_itgraph, example_points):
        p3, p4 = example_points["p3"], example_points["p4"]
        engine = ITSPQEngine(example_itgraph, cache=CacheConfig(mode="eager"))
        service = ITSPQService(
            {"example": engine},
            ServiceConfig(batch_window_ms=0.0, breaker_backoff_base=3600.0),
        )

        async def body(service):
            # Cache the 9:00 tree, then degrade everything above replay.
            status, _ = await post_query(service.host, service.port, query_body(p3, p4))
            assert status == 200
            self._trip(service, RUNG_BATCH)
            self._trip(service, RUNG_SEQUENTIAL)
            # The cached query still answers...
            status, payload = await post_query(service.host, service.port, query_body(p3, p4))
            assert status == 200 and payload["rung"] == RUNG_CACHE_REPLAY
            # ...an uncached one is shed with a typed 429, never searched.
            status, payload = await post_query(
                service.host, service.port, query_body(p3, p4, time="16:45")
            )
            assert status == 429
            assert payload["type"] == "ServiceOverloadedError"
            assert "cache-replay" in payload["error"]

        run_service_test(service, body)


class TestCircuitBreaker:
    def test_flaky_rung_opens_descends_and_heals(self, example_itgraph, example_points, oracle):
        p3, p4 = example_points["p3"], example_points["p4"]
        clock = FakeClock()
        hook = FlakyRung(RUNG_BATCH, failures=2)
        engine = ITSPQEngine(example_itgraph)
        service = ITSPQService(
            {"example": engine},
            ServiceConfig(
                batch_window_ms=0.0,
                breaker_failure_threshold=2,
                breaker_backoff_base=10.0,
                breaker_clock=clock,
                rung_fault_hook=hook,
            ),
        )

        async def body(service):
            # Two injected failures, one per request: each batch fails on
            # the batch rung, descends, and still answers sequentially; the
            # second failure reaches the threshold and opens the breaker.
            for _ in range(2):
                status, payload = await post_query(
                    service.host, service.port, query_body(p3, p4)
                )
                assert status == 200 and payload["rung"] == RUNG_SEQUENTIAL
                assert_matches_oracle(payload, oracle)
            batch_breaker = service.ladder.snapshot()["breakers"][RUNG_BATCH]
            assert batch_breaker["state"] == "open" and batch_breaker["trips"] == 1

            # While open, batches skip the broken rung without touching it.
            offered_before = hook.offered.get(RUNG_BATCH, 0)
            status, payload = await post_query(service.host, service.port, query_body(p3, p4))
            assert status == 200 and payload["rung"] == RUNG_SEQUENTIAL
            assert hook.offered.get(RUNG_BATCH, 0) == offered_before

            # Past the backoff the half-open probe runs on the (now healed)
            # rung and closes the breaker again.
            clock.advance(11.0)
            status, payload = await post_query(service.host, service.port, query_body(p3, p4))
            assert status == 200 and payload["rung"] == RUNG_BATCH
            assert_matches_oracle(payload, oracle)
            assert service.ladder.snapshot()["breakers"][RUNG_BATCH]["state"] == "closed"

        run_service_test(service, body)

    def test_probe_failure_reopens_with_doubled_backoff(self, example_itgraph, example_points):
        p3, p4 = example_points["p3"], example_points["p4"]
        clock = FakeClock()
        hook = FlakyRung(RUNG_BATCH, failures=3)  # enough to also fail the probe
        engine = ITSPQEngine(example_itgraph)
        service = ITSPQService(
            {"example": engine},
            ServiceConfig(
                batch_window_ms=0.0,
                breaker_failure_threshold=2,
                breaker_backoff_base=10.0,
                breaker_clock=clock,
                rung_fault_hook=hook,
            ),
        )

        async def body(service):
            for _ in range(2):  # two failures, breaker opens, sequential answers
                status, _ = await post_query(service.host, service.port, query_body(p3, p4))
                assert status == 200
            clock.advance(11.0)
            status, payload = await post_query(service.host, service.port, query_body(p3, p4))
            assert status == 200 and payload["rung"] == RUNG_SEQUENTIAL  # probe failed
            snapshot = service.ladder.snapshot()["breakers"][RUNG_BATCH]
            assert snapshot["state"] == "open" and snapshot["trips"] == 2
            assert snapshot["backoff_remaining_seconds"] == pytest.approx(20.0)

        run_service_test(service, body)


class TestQueueFlood:
    def test_flood_outcomes_are_200_bit_identical_or_typed_429(
        self, example_itgraph, example_points, oracle
    ):
        import time as _time

        p3, p4 = example_points["p3"], example_points["p4"]

        def slow_rung(rung, venue):
            _time.sleep(0.05)

        engine = ITSPQEngine(example_itgraph)
        service = ITSPQService(
            {"example": engine},
            ServiceConfig(
                batch_window_ms=0.0,
                max_batch=1,
                max_pending=3,
                max_inflight_batches=1,
                rung_fault_hook=slow_rung,
            ),
        )
        bodies = [query_body(p3, p4) for _ in range(24)]

        async def body(service):
            outcomes = await flood_requests(service.host, service.port, bodies)
            statuses = [status for status, _ in outcomes]
            assert set(statuses) <= {200, 429}, statuses
            assert statuses.count(429) >= 1, statuses
            assert statuses.count(200) >= 1, statuses
            for status, payload in outcomes:
                if status == 200:
                    assert_matches_oracle(payload, oracle)
                else:
                    assert payload["type"] == "ServiceOverloadedError"

        run_service_test(service, body)


class TestSlowClient:
    def test_drip_feed_times_out_and_service_stays_healthy(
        self, example_itgraph, example_points, oracle
    ):
        p3, p4 = example_points["p3"], example_points["p4"]
        engine = ITSPQEngine(example_itgraph)
        service = ITSPQService(
            {"example": engine},
            ServiceConfig(batch_window_ms=0.0, client_timeout_seconds=0.2),
        )

        async def body(service):
            stalled = asyncio.ensure_future(
                drip_feed_request(service.host, service.port, hold_seconds=5.0)
            )
            # A well-behaved client is not blocked by the stalled one.
            status, payload = await post_query(service.host, service.port, query_body(p3, p4))
            assert status == 200
            assert_matches_oracle(payload, oracle)
            drip_status, _ = await stalled
            assert drip_status == 408
            assert service.metrics.client_timeouts == 1
            status, _ = await get(service.host, service.port, "/readyz")
            assert status == 200

        run_service_test(service, body)

    def test_idle_keep_alive_connection_closes_without_a_408(
        self, example_itgraph, example_points, oracle
    ):
        p3, p4 = example_points["p3"], example_points["p4"]
        service = ITSPQService(
            {"example": ITSPQEngine(example_itgraph)},
            ServiceConfig(batch_window_ms=0.0, client_timeout_seconds=0.2),
        )

        async def body(service):
            reader, writer = await asyncio.open_connection(service.host, service.port)
            try:
                status, payload = await raw_request(
                    service.host,
                    service.port,
                    "POST",
                    "/query",
                    json.dumps(query_body(p3, p4)).encode(),
                    reader=reader,
                    writer=writer,
                )
                assert status == 200
                assert_matches_oracle(payload, oracle)
                # Idle past the client timeout: the service hangs up without
                # writing anything, so the client sees EOF, not a 408.
                await asyncio.sleep(0.5)
                assert await asyncio.wait_for(reader.read(), timeout=5.0) == b""
            finally:
                writer.close()
            assert service.metrics.client_timeouts == 0
            status, _ = await get(service.host, service.port, "/readyz")
            assert status == 200

        run_service_test(service, body)
