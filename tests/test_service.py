"""The serving layer's happy paths: parity with the engine, per-venue
queues and micro-batching, batch isolation and the 500 boundary, the HTTP
surface
(health/readiness/metrics, hostile framing), per-request deadlines and
admission-control shedding.

Every test drives a real :class:`ITSPQService` bound to an ephemeral
localhost port through real sockets — no mocked transports — inside a plain
``asyncio.run`` (the environment has no async test plugin).
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.core.cache import CacheConfig
from repro.core.engine import ITSPQEngine
from repro.service import ITSPQService, ServiceConfig
from repro.service.metrics import LatencyReservoir

from tests._service_http import (
    OVERSIZED_HEADER_REQUEST,
    BatchGate,
    assert_matches_oracle,
    chunked_then_valid_request,
    eventually,
    get,
    post_query,
    query_body,
    queue_behind_gate,
    raw_request,
    send_content_length,
    send_expecting_close,
    slow_run_batch,
    wrap_run_batch,
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
    engine = ITSPQEngine(example_itgraph, cache=CacheConfig(mode="eager"))
    return ITSPQService({"example": engine}, ServiceConfig(**config_kwargs))


def gated_example_service(example_itgraph, **config_kwargs):
    """A service on the example venue whose first batch is held by a
    :class:`BatchGate` (returned alongside)."""
    engine = ITSPQEngine(example_itgraph)
    gate = BatchGate(engine)
    return ITSPQService({"example": engine}, ServiceConfig(**config_kwargs)), gate


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
        pairs = [(source, target) for source in points for target in points if source is not target]
        bodies = [query_body(source, target) for source, target in pairs]
        oracle_engine = ITSPQEngine(example_itgraph)
        oracles = [oracle_engine.query(source, target, "9:00") for source, target in pairs]
        service, gate = gated_example_service(example_itgraph)

        async def body(service):
            pending = await queue_behind_gate(service, gate, bodies[0], bodies[1:])
            gate.open()
            outcomes = await asyncio.gather(*pending)
            for (status, payload), oracle in zip(outcomes, oracles):
                assert status == 200
                assert_matches_oracle(payload, oracle)
            # The 11 queries that arrived while the first one executed
            # left together as soon as it finished.
            assert gate.sizes == [1, len(bodies) - 1]
            assert service.metrics.batches == 2
            assert service.metrics.answered == len(bodies)

        run_service_test(service, body)

    def test_max_batch_flushes_early(self, example_itgraph, example_points):
        """Five arrivals queued behind a busy venue leave in calls of
        ``max_batch`` (4), then the rest (1)."""
        p3, p4 = example_points["p3"], example_points["p4"]
        oracle = ITSPQEngine(example_itgraph).query(p3, p4, "9:00")
        service, gate = gated_example_service(example_itgraph, max_batch=4)

        async def body(service):
            pending = await queue_behind_gate(
                service, gate, query_body(p3, p4), [query_body(p3, p4)] * 5
            )
            gate.open()
            for status, payload in await asyncio.gather(*pending):
                assert status == 200
                assert_matches_oracle(payload, oracle)
            assert gate.sizes == [1, 4, 1]
            assert service.metrics.batches == 3

        run_service_test(service, body)

    def test_idle_venue_answers_while_another_venue_executes(
        self, example_itgraph, example_points
    ):
        p3, p4 = example_points["p3"], example_points["p4"]
        oracle = ITSPQEngine(example_itgraph).query(p3, p4, "9:00")
        busy = ITSPQEngine(example_itgraph)
        gate = BatchGate(busy)
        service = ITSPQService(
            {"busy": busy, "idle": ITSPQEngine(example_itgraph)}, ServiceConfig()
        )

        async def body(service):
            held = asyncio.ensure_future(
                post_query(service.host, service.port, query_body(p3, p4, venue="busy"))
            )
            await eventually(lambda: gate.calls)
            status, payload = await post_query(
                service.host, service.port, query_body(p3, p4, venue="idle")
            )
            assert status == 200 and payload["venue"] == "idle"
            assert_matches_oracle(payload, oracle)
            assert not held.done()  # the busy venue's batch is still executing
            gate.open()
            status, payload = await held
            assert status == 200 and payload["venue"] == "busy"
            assert_matches_oracle(payload, oracle)

        run_service_test(service, body)

    def test_methods_queued_together_answer_with_their_own_label(
        self, example_itgraph, example_points
    ):
        points = example_points
        cases = [
            (points["p3"], points["p4"], "9:00", "synchronous"),
            (points["p1"], points["p2"], "10:30", "asynchronous"),
            (points["p2"], points["p1"], "18:00", "static"),
        ]
        oracle_engine = ITSPQEngine(example_itgraph)
        oracles = [
            oracle_engine.query(source, target, when, method=method)
            for source, target, when, method in cases
        ]
        service, gate = gated_example_service(example_itgraph)

        async def body(service):
            pending = await queue_behind_gate(
                service,
                gate,
                query_body(points["p3"], points["p4"]),
                [query_body(source, target, when, method=method) for source, target, when, method in cases],
            )
            gate.open()
            outcomes = await asyncio.gather(*pending)
            for (status, payload), oracle in zip(outcomes[1:], oracles):
                assert status == 200
                assert payload["method"] == oracle.method_label
                assert_matches_oracle(payload, oracle)
            # One busy period, one run_batch call per method.
            assert sorted(gate.calls[1:]) == [
                ("asynchronous", 1),
                ("static", 1),
                ("synchronous", 1),
            ]

        run_service_test(service, body)


class TestHttpSurface:
    def test_health_ready_metrics_and_errors(self, example_itgraph, example_points):
        p3, p4 = example_points["p3"], example_points["p4"]

        async def body(service):
            status, payload = await get(service.host, service.port, "/healthz")
            assert status == 200 and payload["status"] == "alive"

            status, payload = await get(service.host, service.port, "/readyz")
            assert status == 200 and payload["status"] == "ready"
            assert payload["venues"] == ["example"]

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
            {"source": [26, 5], "target": [9, 10], "time": 259260},  # 72:01, past one day
            {"source": [26, 5], "target": [9, 10], "time": 1e300},
            {"source": [26, 5], "target": [9, 10], "time": "72:01"},
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

    def test_oversized_header_block_answers_431_and_closes(self, example_itgraph, example_points):
        async def body(service):
            status, head, payload = await send_expecting_close(
                service.host, service.port, OVERSIZED_HEADER_REQUEST
            )
            assert status == 431
            assert b"connection: close" in head.lower()
            assert payload["type"] == "HeaderTooLargeError"
            assert service.metrics.received == service.metrics.bad_requests == 1
            status, _ = await post_query(
                service.host, service.port, query_body(example_points["p3"], example_points["p4"])
            )
            assert status == 200

        run_service_test(example_service(example_itgraph), body)

    def test_transfer_encoding_answers_411_and_closes(self, example_itgraph, example_points):
        document = json.dumps(query_body(example_points["p3"], example_points["p4"])).encode()

        async def body(service):
            # The chunk bytes are never read, so the request pipelined behind
            # them cannot be found: the connection closes after the 411.
            status, head, payload = await send_expecting_close(
                service.host, service.port, chunked_then_valid_request(document)
            )
            assert status == 411
            assert b"connection: close" in head.lower()
            assert payload["type"] == "TransferEncodingError"
            assert service.metrics.received == service.metrics.bad_requests == 1
            status, _ = await raw_request(service.host, service.port, "POST", "/query", document)
            assert status == 200

        run_service_test(example_service(example_itgraph), body)


class TestBatchIsolation:
    def test_malformed_member_is_isolated_from_its_batch(self, example_itgraph, example_points):
        p3, p4 = example_points["p3"], example_points["p4"]
        oracle = ITSPQEngine(example_itgraph).query(p3, p4, "9:00")
        outside = query_body(p3, p4)
        outside["source"] = [1e6, 1e6, 0]  # no partition covers it
        service, gate = gated_example_service(example_itgraph)

        async def body(service):
            first, good_answer, bad_answer = await queue_behind_gate(
                service, gate, query_body(p3, p4), [query_body(p3, p4), outside]
            )
            gate.open()
            first_status, _ = await first
            good_status, good = await good_answer
            bad_status, bad = await bad_answer
            assert first_status == 200
            assert gate.sizes == [1, 2]  # the pair rode one micro-batch
            assert good_status == 200
            assert good["rung"] == "sequential"
            assert_matches_oracle(good, oracle)
            assert bad_status == 400
            assert bad["type"] == "QueryError"
            assert service.metrics.answered_by_rung == {"batch": 1, "sequential": 1}

        run_service_test(service, body)

    def test_unexpected_batch_failure_answers_500_and_service_keeps_serving(
        self, example_itgraph, example_points
    ):
        p3, p4 = example_points["p3"], example_points["p4"]
        oracle = ITSPQEngine(example_itgraph).query(p3, p4, "9:00")
        failures = [RuntimeError("injected kernel fault")]

        def fail_the_pair(queries, _method):
            if len(queries) == 2 and failures:
                raise failures.pop()

        engine = wrap_run_batch(ITSPQEngine(example_itgraph), fail_the_pair)
        gate = BatchGate(engine)
        service = ITSPQService({"example": engine}, ServiceConfig())

        async def body(service):
            first, *pair = await queue_behind_gate(
                service, gate, query_body(p3, p4), [query_body(p3, p4)] * 2
            )
            gate.open()
            (status, payload), *pair_outcomes = await asyncio.gather(first, *pair)
            assert status == 200 and payload["rung"] == "batch"
            for status, payload in pair_outcomes:
                assert status == 500
                assert payload["type"] == "RuntimeError"
            assert gate.sizes == [1, 2]
            assert service.metrics.internal_errors == 2
            status, payload = await post_query(service.host, service.port, query_body(p3, p4))
            assert status == 200 and payload["rung"] == "batch"
            assert_matches_oracle(payload, oracle)

        run_service_test(service, body)


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
        # Each batch holds the venue on a worker thread for 0.3 s.
        engine = slow_run_batch(ITSPQEngine(example_itgraph), 0.3)
        service = ITSPQService({"example": engine}, ServiceConfig(max_batch=1, max_pending=2))

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


class TestLatencyPercentiles:
    @pytest.mark.parametrize(
        "samples, fraction, expected",
        [
            ([1.0, 2.0], 0.50, 1.0),
            ([float(rank) for rank in range(1, 101)], 0.50, 50.0),
            ([float(rank) for rank in range(1, 101)], 0.99, 99.0),
            ([], 0.50, None),
        ],
    )
    def test_percentiles_are_nearest_rank(self, samples, fraction, expected):
        """The ``ceil(fraction * n)``-th smallest sample, as perfbench reads
        its own latencies: p99 of 1..100 is 99, not the maximum."""
        reservoir = LatencyReservoir()
        for sample in samples:
            reservoir.observe(sample)
        assert reservoir.percentile(fraction) == expected
