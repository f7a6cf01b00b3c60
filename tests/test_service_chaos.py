"""Chaos parity for the serving layer: every fault the service absorbs must
leave client-visible answers bit-identical to the sequential oracle.

The faults (all deterministic, no timing races):

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

from repro.core.engine import ITSPQEngine
from repro.service import ITSPQService, ServiceConfig
from repro.testing import drip_feed_request, flood_requests

from tests._service_http import (
    assert_matches_oracle,
    get,
    post_query,
    query_body,
    raw_request,
    slow_run_batch,
)


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


class TestQueueFlood:
    def test_flood_outcomes_are_200_bit_identical_or_typed_429(
        self, example_itgraph, example_points, oracle
    ):
        p3, p4 = example_points["p3"], example_points["p4"]
        engine = slow_run_batch(ITSPQEngine(example_itgraph), 0.05)
        service = ITSPQService({"example": engine}, ServiceConfig(max_batch=1, max_pending=3))
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
            ServiceConfig(client_timeout_seconds=0.2),
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
            ServiceConfig(client_timeout_seconds=0.2),
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
