"""The serving layer's happy paths: parity with the engine, micro-batching,
the HTTP surface (health/readiness/metrics), per-request deadlines and
admission-control shedding.

Every test drives a real :class:`ITSPQService` bound to an ephemeral
localhost port through real sockets — no mocked transports — inside a plain
``asyncio.run`` (the environment has no async test plugin).
"""

from __future__ import annotations

import asyncio
import json
import time

import pytest

from repro.core.cache import CacheConfig
from repro.core.engine import ITSPQEngine
from repro.service import ITSPQService, ServiceConfig

from tests._service_http import (
    assert_matches_oracle,
    get,
    post_query,
    query_body,
    raw_request,
    send_content_length,
)


def run_service_test(service: ITSPQService, test_coro_factory) -> None:
    """Start ``service``, run the test body, always drain-and-close."""

    async def scenario():
        await service.start()
        try:
            await test_coro_factory(service)
        finally:
            await service.aclose()

    asyncio.run(scenario())


def example_service(example_itgraph, **config_kwargs) -> ITSPQService:
    config_kwargs.setdefault("batch_window_ms", 1.0)
    engine = ITSPQEngine(example_itgraph, cache=CacheConfig(mode="eager"))
    return ITSPQService({"example": engine}, ServiceConfig(**config_kwargs))


class TestQueryParity:
    def test_every_pair_and_method_matches_the_engine(self, example_itgraph, example_points):
        oracle_engine = ITSPQEngine(example_itgraph)
        points = example_points
        cases = [
            (points["p3"], points["p4"], "9:00", "synchronous"),
            (points["p3"], points["p4"], "9:00", "asynchronous"),
            (points["p4"], points["p3"], "14:00", "synchronous"),
            (points["p1"], points["p2"], "10:30", "static"),
            (points["p2"], points["p1"], "18:00", "query-time"),
        ]
        oracles = [
            oracle_engine.query(source, target, when, method=method)
            for source, target, when, method in cases
        ]

        async def body(service):
            for (source, target, when, method), oracle in zip(cases, oracles):
                status, payload = await post_query(
                    service.host, service.port, query_body(source, target, when, method=method)
                )
                assert status == 200
                assert payload["venue"] == "example"
                assert_matches_oracle(payload, oracle)

        run_service_test(example_service(example_itgraph), body)

    def test_unreachable_target_is_a_200_not_found(self, example_itgraph, example_points):
        # 23:30 is past every closing time in Table I: nothing is reachable.
        oracle = ITSPQEngine(example_itgraph).query(
            example_points["p3"], example_points["p4"], "23:30"
        )

        async def body(service):
            status, payload = await post_query(
                service.host,
                service.port,
                query_body(example_points["p3"], example_points["p4"], "23:30"),
            )
            assert status == 200
            assert payload["found"] == oracle.found
            assert_matches_oracle(payload, oracle)

        run_service_test(example_service(example_itgraph), body)


class TestMicroBatching:
    def test_concurrent_queries_share_batches(self, example_itgraph, example_points):
        points = list(example_points.values())
        bodies = [
            query_body(source, target)
            for source in points
            for target in points
            if source is not target
        ]

        async def body(service):
            outcomes = await asyncio.gather(
                *(post_query(service.host, service.port, document) for document in bodies)
            )
            assert all(status == 200 for status, _ in outcomes)
            # 12 concurrent same-(venue, method) queries coalesced into
            # fewer flushes than requests — the whole point of the window.
            assert 1 <= service.metrics.batches < len(bodies)
            assert service.metrics.answered == len(bodies)

        run_service_test(example_service(example_itgraph, batch_window_ms=25.0), body)

    def test_max_batch_flushes_early(self, example_itgraph, example_points):
        p3, p4 = example_points["p3"], example_points["p4"]

        async def body(service):
            started = time.perf_counter()
            outcomes = await asyncio.gather(
                *(post_query(service.host, service.port, query_body(p3, p4)) for _ in range(4))
            )
            elapsed = time.perf_counter() - started
            assert all(status == 200 for status, _ in outcomes)
            # The window is absurdly long; only the size trigger can have
            # flushed within the test budget.
            assert elapsed < 5.0

        run_service_test(
            example_service(example_itgraph, batch_window_ms=30_000.0, max_batch=4), body
        )


class TestHttpSurface:
    def test_health_ready_metrics_and_errors(self, example_itgraph, example_points):
        p3, p4 = example_points["p3"], example_points["p4"]

        async def body(service):
            status, payload = await get(service.host, service.port, "/healthz")
            assert status == 200 and payload["status"] == "alive"

            status, payload = await get(service.host, service.port, "/readyz")
            assert status == 200 and payload["status"] == "ready"
            assert payload["venues"] == ["example"]
            assert "batch" in payload["ladder"]["rungs"]

            status, _ = await post_query(service.host, service.port, query_body(p3, p4))
            assert status == 200

            status, payload = await get(service.host, service.port, "/metrics")
            assert status == 200
            assert payload["requests"]["answered"] == 1
            assert payload["requests"]["answered_by_rung"].get("batch") == 1
            assert payload["venues"]["example"]["cache"]["entries"] >= 1

            status, _ = await get(service.host, service.port, "/nope")
            assert status == 404
            status, _ = await raw_request(service.host, service.port, "DELETE", "/query")
            assert status == 405
            status, _ = await raw_request(service.host, service.port, "POST", "/metrics")
            assert status == 405

        run_service_test(example_service(example_itgraph), body)

    def test_keep_alive_serves_multiple_requests(self, example_itgraph, example_points):
        p3, p4 = example_points["p3"], example_points["p4"]

        async def body(service):
            reader, writer = await asyncio.open_connection(service.host, service.port)
            try:
                for _ in range(3):
                    status, _ = await raw_request(
                        service.host,
                        service.port,
                        "POST",
                        "/query",
                        json.dumps(query_body(p3, p4)).encode(),
                        reader=reader,
                        writer=writer,
                    )
                    assert status == 200
            finally:
                writer.close()
                await writer.wait_closed()

        run_service_test(example_service(example_itgraph), body)

    @pytest.mark.parametrize(
        "document",
        [
            {"source": [26, 5], "time": "9:00"},  # no target
            {"source": "here", "target": [9, 10], "time": "9:00"},
            {"source": [26, 5], "target": [9, 10], "time": "9:00", "method": "bogus"},
            {"source": [26, 5], "target": [9, 10], "time": "9:00", "venue": "atlantis"},
            {"source": [26, 5], "target": [9, 10], "time": "9:00", "deadline_ms": -5},
            [1, 2, 3],  # not an object
            {"source": [26, 5, float("inf")], "target": [9, 10], "time": "9:00"},  # floor overflows int
        ],
    )
    def test_malformed_queries_answer_400(self, example_itgraph, document):
        async def body(service):
            status, payload = await post_query(service.host, service.port, document)
            assert status == 400
            assert payload["type"]
            assert service.metrics.bad_requests >= 1

        run_service_test(example_service(example_itgraph), body)

    def test_non_json_body_answers_400(self, example_itgraph):
        async def body(service):
            status, payload = await raw_request(
                service.host, service.port, "POST", "/query", b"this is not json"
            )
            assert status == 400
            assert payload["type"] == "JSONDecodeError"

        run_service_test(example_service(example_itgraph), body)

    def test_deeply_nested_body_answers_400(self, example_itgraph, example_points):
        async def body(service):
            status, payload = await raw_request(
                service.host, service.port, "POST", "/query", b"[" * 100_000
            )
            assert status == 400
            assert payload["type"] == "RecursionError"
            assert service.metrics.received == service.metrics.bad_requests == 1
            status, _ = await post_query(
                service.host, service.port, query_body(example_points["p3"], example_points["p4"])
            )
            assert status == 200

        run_service_test(example_service(example_itgraph), body)

    def test_bad_content_length_answers_400_and_closes(self, example_itgraph, example_points):
        async def body(service):
            for value in ("2048", "-1", "twelve"):  # above max_body_bytes, negative, not an integer
                status, head, payload = await send_content_length(service.host, service.port, value)
                assert status == 400, value
                assert b"connection: close" in head.lower()
                assert payload["type"] == "ContentLengthError"
            assert service.metrics.received == service.metrics.bad_requests == 3
            status, _ = await post_query(
                service.host, service.port, query_body(example_points["p3"], example_points["p4"])
            )
            assert status == 200

        run_service_test(example_service(example_itgraph, max_body_bytes=1024), body)


class TestDeadlines:
    def test_tiny_deadline_answers_504(self, example_itgraph, example_points):
        p3, p4 = example_points["p3"], example_points["p4"]

        async def body(service):
            status, payload = await post_query(
                service.host,
                service.port,
                query_body(p3, p4, deadline_ms=0.0001),
            )
            assert status == 504
            assert payload["type"] == "DeadlineExceededError"
            assert service.metrics.deadline_exceeded == 1
            # The service is not poisoned: the same query unbounded answers.
            status, _ = await post_query(service.host, service.port, query_body(p3, p4))
            assert status == 200

        run_service_test(example_service(example_itgraph), body)

    def test_generous_default_deadline_is_invisible(self, example_itgraph, example_points):
        p3, p4 = example_points["p3"], example_points["p4"]
        oracle = ITSPQEngine(example_itgraph).query(p3, p4, "9:00")

        async def body(service):
            status, payload = await post_query(service.host, service.port, query_body(p3, p4))
            assert status == 200
            assert_matches_oracle(payload, oracle)

        run_service_test(
            example_service(example_itgraph, default_deadline_ms=60_000.0), body
        )


class TestAdmissionControl:
    def test_queue_overflow_sheds_429(self, example_itgraph, example_points):
        p3, p4 = example_points["p3"], example_points["p4"]
        stall = 0.3

        def slow_rung(rung, venue):  # holds the only batch slot on a worker thread
            time.sleep(stall)

        engine = ITSPQEngine(example_itgraph)
        service = ITSPQService(
            {"example": engine},
            ServiceConfig(
                batch_window_ms=0.0,
                max_batch=1,
                max_pending=2,
                max_inflight_batches=1,
                rung_fault_hook=slow_rung,
            ),
        )

        async def body(service):
            outcomes = await asyncio.gather(
                *(post_query(service.host, service.port, query_body(p3, p4)) for _ in range(12))
            )
            statuses = [status for status, _ in outcomes]
            assert statuses.count(429) >= 1, statuses
            assert statuses.count(200) >= 1, statuses
            assert set(statuses) <= {200, 429}
            for status, payload in outcomes:
                if status == 429:
                    assert payload["type"] == "ServiceOverloadedError"
            assert service.metrics.shed == statuses.count(429)
            assert service.admission.shed == statuses.count(429)

        run_service_test(service, body)
