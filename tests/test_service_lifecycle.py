"""Graceful lifecycle: drain-then-close semantics and idempotent shutdown.

The drain contract: queries admitted before ``aclose`` are answered, not
dropped — every venue's queue runs empty, in-flight handlers finish, and
only then does the socket close.  A keep-alive connection idle between
requests is hung up at once rather than waited out.  ``aclose`` is
idempotent.
"""

from __future__ import annotations

import asyncio
import json
import time

import pytest

from repro.core.engine import ITSPQEngine
from repro.service import ITSPQService, ServiceConfig

from tests._service_http import (
    BatchGate,
    assert_matches_oracle,
    eventually,
    post_query,
    query_body,
    queue_behind_gate,
    raw_request,
)


class TestDrain:
    def test_queries_admitted_before_drain_are_answered(self, example_itgraph, example_points):
        p3, p4 = example_points["p3"], example_points["p4"]
        oracle = ITSPQEngine(example_itgraph).query(p3, p4, "9:00")
        engine = ITSPQEngine(example_itgraph)
        gate = BatchGate(engine)
        service = ITSPQService({"example": engine}, ServiceConfig())

        async def scenario():
            await service.start()
            # Drain starts with one batch executing and five queries queued
            # behind it.
            inflight = await queue_behind_gate(
                service, gate, query_body(p3, p4), [query_body(p3, p4)] * 5
            )
            closing = asyncio.ensure_future(service.aclose())
            await eventually(lambda: service.draining)
            gate.open()
            await closing
            outcomes = await asyncio.gather(*inflight)
            for status, payload in outcomes:
                assert status == 200
                assert_matches_oracle(payload, oracle)
            assert service.metrics.answered == len(inflight)
            assert gate.sizes == [1, 5]
            # The socket really is closed afterwards.
            with pytest.raises(ConnectionError):
                await post_query(service.host, service.port, query_body(p3, p4))

        asyncio.run(scenario())

    def test_idle_keep_alive_client_is_hung_up_at_drain(self, example_itgraph, example_points):
        engine = ITSPQEngine(example_itgraph)
        service = ITSPQService({"example": engine}, ServiceConfig(client_timeout_seconds=5.0))
        document = json.dumps(query_body(example_points["p3"], example_points["p4"])).encode()

        async def scenario():
            await service.start()
            reader, writer = await asyncio.open_connection(service.host, service.port)
            try:
                status, _ = await raw_request(
                    service.host, service.port, "POST", "/query", document, reader, writer
                )
                assert status == 200
                started = time.monotonic()
                await service.aclose()
                elapsed = time.monotonic() - started
                assert await asyncio.wait_for(reader.read(), timeout=5.0) == b""
            finally:
                writer.close()
            return elapsed

        # Not the 5 s the idle connection would otherwise hold the drain.
        assert asyncio.run(scenario()) < 1.0

    def test_queries_arriving_during_drain_get_503(self, example_itgraph, example_points):
        p3, p4 = example_points["p3"], example_points["p4"]
        engine = ITSPQEngine(example_itgraph)
        service = ITSPQService({"example": engine}, ServiceConfig())

        async def scenario():
            await service.start()
            reader, writer = await asyncio.open_connection(service.host, service.port)
            try:
                service._draining = True  # drain begins; the connection is still open
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
        service = ITSPQService({"example": engine}, ServiceConfig())

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

