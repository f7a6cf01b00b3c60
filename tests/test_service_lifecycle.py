"""Graceful lifecycle: drain-then-close semantics and idempotent shutdown.

The drain contract: queries admitted before ``aclose`` are answered, not
dropped — the buffers are flushed, in-flight batches finish, and only then
does the socket close.  ``aclose`` is idempotent.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.core.engine import ITSPQEngine
from repro.service import ITSPQService, ServiceConfig

from tests._service_http import assert_matches_oracle, post_query, query_body, slow_run_batch


class TestDrain:
    def test_queries_admitted_before_drain_are_answered(self, example_itgraph, example_points):
        p3, p4 = example_points["p3"], example_points["p4"]
        oracle = ITSPQEngine(example_itgraph).query(p3, p4, "9:00")

        # The batch is mid-flight when drain starts.
        engine = slow_run_batch(ITSPQEngine(example_itgraph), 0.1)
        service = ITSPQService({"example": engine}, ServiceConfig(batch_window_ms=200.0))

        async def scenario():
            await service.start()
            inflight = [
                asyncio.ensure_future(
                    post_query(service.host, service.port, query_body(p3, p4))
                )
                for _ in range(6)
            ]
            await asyncio.sleep(0.05)  # enqueued, but the 200ms window has not fired
            await service.aclose()
            outcomes = await asyncio.gather(*inflight)
            for status, payload in outcomes:
                assert status == 200
                assert_matches_oracle(payload, oracle)
            assert service.metrics.answered == len(inflight)
            # The socket really is closed afterwards.
            with pytest.raises(ConnectionError):
                await post_query(service.host, service.port, query_body(p3, p4))

        asyncio.run(scenario())

    def test_queries_arriving_during_drain_get_503(self, example_itgraph, example_points):
        p3, p4 = example_points["p3"], example_points["p4"]
        engine = ITSPQEngine(example_itgraph)
        service = ITSPQService({"example": engine}, ServiceConfig(batch_window_ms=1.0))

        async def scenario():
            await service.start()
            reader, writer = await asyncio.open_connection(service.host, service.port)
            try:
                service._draining = True  # drain begins; the connection is still open
                import json

                from tests._service_http import raw_request

                status, payload = await raw_request(
                    service.host,
                    service.port,
                    "POST",
                    "/query",
                    json.dumps(query_body(p3, p4)).encode(),
                    reader=reader,
                    writer=writer,
                )
                assert status == 503
                assert payload["type"] == "ServiceUnavailableError"
            finally:
                writer.close()
                service._draining = False
                await service.aclose()

        asyncio.run(scenario())


class TestIdempotence:
    def test_double_aclose_is_a_no_op(self, example_itgraph, example_points):
        engine = ITSPQEngine(example_itgraph)
        service = ITSPQService({"example": engine}, ServiceConfig(batch_window_ms=1.0))

        async def scenario():
            await service.start()
            status, _ = await post_query(
                service.host,
                service.port,
                query_body(example_points["p3"], example_points["p4"]),
            )
            assert status == 200
            await service.aclose()
            await service.aclose()  # second close: nothing to do, nothing raised

        asyncio.run(scenario())

    def test_aclose_without_start(self, example_itgraph):
        engine = ITSPQEngine(example_itgraph)
        service = ITSPQService({"example": engine}, ServiceConfig())

        async def scenario():
            await service.aclose()  # never started: still clean

        asyncio.run(scenario())

