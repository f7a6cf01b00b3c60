"""The sharded serving topology: routing parity, failure isolation,
supervised respawn, venue replicas and cross-shard metrics aggregation.

Every router test spawns **real** ``python -m repro.service`` worker
subprocesses (the deployment entry point, serving venues rehydrated from
compiled-codec payload files — the shard hand-off) behind a real
:class:`~repro.service.shard.ShardRouter` on an ephemeral localhost port,
and compares answers against an in-process engine rehydrated from the same
payload: the parity oracle shares bytes, not just code, with the shards.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import time

import pytest

from repro.core.engine import ITSPQEngine
from repro.service.metrics import aggregate_request_snapshots
from repro.service.shard import (
    SHARD_UP,
    ShardRouter,
    ShardRouterConfig,
    ShardSpec,
    plan_shards,
)
from repro.testing.faults import await_router_ready, shard_owning, sigkill_shard

from tests._service_http import (
    OVERSIZED_HEADER_REQUEST,
    assert_matches_oracle,
    chunked_then_valid_request,
    eventually,
    get,
    post_query,
    query_body,
    raw_request,
    send_content_length,
    send_expecting_close,
)

#: (source, target, time, method) cases; methods chosen so both TV-check
#: families (ITG/S and ITG/A) cross the router.
CASES = [
    ("p3", "p4", "9:00", "synchronous"),
    ("p4", "p3", "14:00", "synchronous"),
    ("p1", "p2", "10:30", "asynchronous"),
    ("p2", "p1", "18:00", "query-time"),
]


@pytest.fixture(scope="session")
def example_payload(example_itgraph) -> bytes:
    """The running example as a compiled-codec payload (the shard blob)."""
    from repro.io.compiled_codec import compiled_graph_to_bytes

    return compiled_graph_to_bytes(example_itgraph.compiled())


@pytest.fixture(scope="session")
def payload_files(example_payload, tmp_path_factory):
    """Two payload files serving as venues ``a`` and ``b`` (one per shard)."""
    root = tmp_path_factory.mktemp("shard-payloads")
    paths = {}
    for venue in ("a", "b"):
        path = root / f"{venue}.bin"
        path.write_bytes(example_payload)
        paths[venue] = path
    return paths


@pytest.fixture(scope="session")
def oracle_engine(example_payload):
    """The parity oracle: an engine rehydrated from the same payload bytes
    the shard workers serve."""
    return ITSPQEngine.from_compiled_payload(example_payload)


def two_shard_router(payload_files, **config_kwargs) -> ShardRouter:
    specs = [
        ShardSpec("shard-0", (f"a={payload_files['a']}",)),
        ShardSpec("shard-1", (f"b={payload_files['b']}",)),
    ]
    config_kwargs.setdefault("worker_args", ("--cache", "eager"))
    config_kwargs.setdefault("startup_timeout_seconds", 60.0)
    return ShardRouter(specs, ShardRouterConfig(**config_kwargs))


def replica_router(payload_files, **config_kwargs) -> ShardRouter:
    """Venue ``a`` on both shards of ``--shards 2`` (two real replicas)."""
    config_kwargs.setdefault("worker_args", ("--cache", "eager"))
    config_kwargs.setdefault("startup_timeout_seconds", 60.0)
    return ShardRouter(plan_shards([f"a={payload_files['a']}"], 2), ShardRouterConfig(**config_kwargs))


def one_shard_router(payload_files, **config_kwargs) -> ShardRouter:
    """Venue ``a`` alone on one shard."""
    config_kwargs.setdefault("startup_timeout_seconds", 60.0)
    specs = [ShardSpec("shard-0", (f"a={payload_files['a']}",))]
    return ShardRouter(specs, ShardRouterConfig(**config_kwargs))


def run_router_test(router: ShardRouter, test_coro_factory) -> None:
    """Start ``router`` (and its worker subprocesses), run the test body,
    always drain-and-close."""

    async def scenario():
        await router.start()
        try:
            await test_coro_factory(router)
        finally:
            await router.aclose()

    asyncio.run(scenario())


class TestPlanAndValidation:
    def test_round_robin_plan_is_deterministic(self):
        plan = plan_shards(["a=x", "b=y", "c=z"], 2)
        assert [spec.name for spec in plan] == ["shard-0", "shard-1"]
        assert plan[0].venue_specs == ("a=x", "c=z")
        assert plan[1].venue_specs == ("b=y",)
        assert plan[0].venues == ("a", "c")

    @pytest.mark.parametrize(
        "venue_specs, shard_count, message",
        [
            (["a=x"], 0, "shard_count"),
            ([], 1, "at least one venue"),
            (["a=x", "a=y"], 2, "duplicate venue"),
            (["a=x", "a=y"], 1, "duplicate venue"),
        ],
    )
    def test_plan_misconfigurations_are_typed(self, venue_specs, shard_count, message):
        with pytest.raises(ValueError, match=message):
            plan_shards(venue_specs, shard_count)

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="name"):
            ShardSpec("", ("a=x",))
        with pytest.raises(ValueError, match="owns no venues"):
            ShardSpec("shard-0", ())

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"pool_size": 0}, "pool_size"),
            ({"max_inflight_per_shard": 0}, "max_inflight_per_shard"),
            ({"client_timeout_seconds": 0}, "client_timeout_seconds"),
            ({"shard_request_timeout_seconds": 0}, "shard_request_timeout_seconds"),
            ({"startup_timeout_seconds": 0}, "startup_timeout_seconds"),
            ({"respawn_backoff_base": -1}, "respawn_backoff_base"),
            ({"respawn_backoff_cap": -1}, "respawn_backoff_cap"),
            # A case's position is part of its test ID (``kwargsN``); these
            # keep theirs past the deleted ``kwargs7`` case.
            pytest.param(
                {"drain_timeout_seconds": -1},
                "drain_timeout_seconds",
                id="kwargs8-drain_timeout_seconds",
            ),
            pytest.param({"max_body_bytes": 0}, "max_body_bytes", id="kwargs9-max_body_bytes"),
        ],
    )
    def test_config_validation_names_the_field(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            ShardRouterConfig(**kwargs)

    def test_spare_shards_replicate_venues(self):
        assert [spec.venue_specs for spec in plan_shards(["a=x"], 2)] == [("a=x",), ("a=x",)]
        plan = plan_shards(["a=x", "b=y"], 3)
        assert [spec.venue_specs for spec in plan] == [("a=x",), ("b=y",), ("a=x",)]
        router = ShardRouter(plan)
        assert router.shards_of("a") == ("shard-0", "shard-2")
        assert router.shards_of("b") == ("shard-1",)

    def test_replicas_must_serve_one_payload(self):
        router = ShardRouter([ShardSpec("shard-0", ("a=x",)), ShardSpec("shard-1", ("a=x",))])
        assert router.shards_of("a") == ("shard-0", "shard-1")
        with pytest.raises(ValueError, match="replicas must serve one payload"):
            ShardRouter([ShardSpec("shard-0", ("a=x",)), ShardSpec("shard-1", ("a=y",))])

    def test_router_rejects_duplicate_venues_and_shards(self):
        with pytest.raises(ValueError, match="at least one shard"):
            ShardRouter([])
        spec = ShardSpec("shard-0", ("a=x",))
        with pytest.raises(ValueError, match="duplicate shard names"):
            ShardRouter([spec, ShardSpec("shard-0", ("b=y",))])
        with pytest.raises(ValueError, match="assigned to both"):
            ShardRouter([spec, ShardSpec("shard-1", ("a=z",))])


class TestRoutingParity:
    def test_both_venues_bit_identical_to_the_payload_oracle(
        self, payload_files, oracle_engine, example_points
    ):
        oracles = {
            (venue, source, target, when, method): oracle_engine.query(
                example_points[source], example_points[target], when, method=method
            )
            for venue in ("a", "b")
            for source, target, when, method in CASES
        }

        async def body(router):
            assert router.venues == ("a", "b")
            assert router.shards_of("a") == ("shard-0",)
            for (venue, source, target, when, method), oracle in oracles.items():
                status, payload = await post_query(
                    router.host,
                    router.port,
                    query_body(
                        example_points[source],
                        example_points[target],
                        when,
                        method=method,
                        venue=venue,
                    ),
                )
                assert status == 200, payload
                assert payload["venue"] == venue
                assert_matches_oracle(payload, oracle)

            # The routing surface's typed errors.
            status, payload = await post_query(
                router.host,
                router.port,
                query_body(example_points["p3"], example_points["p4"], venue="atlantis"),
            )
            assert status == 400 and payload["type"] == "ValueError"
            status, payload = await post_query(
                router.host,
                router.port,
                query_body(example_points["p3"], example_points["p4"]),  # no venue, two exist
            )
            assert status == 400 and "pick a venue" in payload["error"]
            status, _ = await get(router.host, router.port, "/nope")
            assert status == 404
            status, _ = await raw_request(router.host, router.port, "DELETE", "/query")
            assert status == 405

        run_router_test(two_shard_router(payload_files), body)


class TestMetricsAggregation:
    def test_router_metrics_are_consistent_with_shard_scrapes(
        self, payload_files, example_points
    ):
        queries = 6

        async def body(router):
            p3, p4 = example_points["p3"], example_points["p4"]
            for index in range(queries):
                venue = "a" if index % 2 == 0 else "b"
                status, _ = await post_query(
                    router.host, router.port, query_body(p3, p4, venue=venue)
                )
                assert status == 200

            status, metrics = await get(router.host, router.port, "/metrics")
            assert status == 200
            router_section = metrics["router"]
            assert router_section["received"] == queries
            assert router_section["routed"] == queries
            assert sum(router_section["routed_by_shard"].values()) == queries
            assert router_section["responses_by_status"] == {"200": queries}
            assert router_section["latency_samples"] == queries
            assert router_section["latency_p50_seconds"] > 0

            # Aggregate == recomputing from the per-shard scrapes in the
            # same document; every routed request is accounted for.
            shard_requests = [
                entry["metrics"]["requests"]
                for entry in metrics["shards"].values()
                if entry["metrics"] is not None
            ]
            assert len(shard_requests) == 2
            assert metrics["aggregate"] == aggregate_request_snapshots(shard_requests)
            assert metrics["aggregate"]["answered"] == queries
            assert metrics["aggregate"]["shards_reporting"] == 2
            per_shard_answered = {
                name: entry["metrics"]["requests"]["answered"]
                for name, entry in metrics["shards"].items()
            }
            assert per_shard_answered == {"shard-0": 3, "shard-1": 3}

            status, ready = await get(router.host, router.port, "/readyz")
            assert status == 200 and ready["status"] == "ready"
            assert ready["venues"] == ["a", "b"]
            assert all(entry["state"] == SHARD_UP for entry in ready["shards"].values())

        run_router_test(two_shard_router(payload_files), body)

    def test_router_metrics_fields_are_documented(self, payload_files, example_points):
        from pathlib import Path

        from tests._service_http import assert_fields_documented

        doc_text = (Path(__file__).resolve().parents[1] / "docs" / "OPERATIONS.md").read_text()

        async def body(router):
            status, _ = await post_query(
                router.host,
                router.port,
                query_body(example_points["p3"], example_points["p4"], venue="a"),
            )
            assert status == 200
            status, metrics = await get(router.host, router.port, "/metrics")
            assert status == 200
            assert_fields_documented(metrics, doc_text, "router /metrics")
            status, ready = await get(router.host, router.port, "/readyz")
            assert status == 200
            assert_fields_documented(ready, doc_text, "router /readyz")

        run_router_test(two_shard_router(payload_files), body)


class TestFailureIsolationAndRespawn:
    def test_sigkill_isolates_the_dead_shard_and_respawn_recovers(
        self, payload_files, oracle_engine, example_points
    ):
        p3, p4 = example_points["p3"], example_points["p4"]
        oracle = oracle_engine.query(p3, p4, "9:00")

        async def body(router):
            for venue in ("a", "b"):
                status, payload = await post_query(
                    router.host, router.port, query_body(p3, p4, venue=venue)
                )
                assert status == 200
                assert_matches_oracle(payload, oracle)

            _status, ready = await get(router.host, router.port, "/readyz")
            shard_name, entry = shard_owning(ready["shards"], "a")
            assert shard_name == "shard-0"
            sigkill_shard(entry)

            # The dead shard's venue sheds typed 503s while it is down (a
            # request racing the supervisor's death notice may see a typed
            # 502 instead); the healthy shard keeps answering
            # bit-identically throughout.
            isolated = 0
            for _attempt in range(50):
                status, payload = await post_query(
                    router.host, router.port, query_body(p3, p4, venue="a")
                )
                if status == 503:
                    assert payload["type"] == "ServiceUnavailableError"
                    assert payload["shard"] == "shard-0"
                    isolated += 1
                elif status == 502:
                    assert payload["type"] == "ShardConnectionError"
                    assert payload["shard"] == "shard-0"
                else:
                    assert status == 200  # the respawn already landed
                    assert_matches_oracle(payload, oracle)
                status, payload = await post_query(
                    router.host, router.port, query_body(p3, p4, venue="b")
                )
                assert status == 200, payload
                assert_matches_oracle(payload, oracle)
                if isolated and status == 200:
                    break
                await asyncio.sleep(0.02)
            assert isolated >= 1, "the dead shard's venue never shed a 503"

            # Supervised respawn: readiness returns, the venue answers
            # bit-identically again, and the death is on the books.
            await await_router_ready(router.host, router.port, timeout=30.0)
            status, payload = await post_query(
                router.host, router.port, query_body(p3, p4, venue="a")
            )
            assert status == 200, payload
            assert_matches_oracle(payload, oracle)
            snapshot = router.shard_snapshot("shard-0")
            assert snapshot["deaths"] == 1
            assert snapshot["respawns"] == 1
            assert snapshot["state"] == SHARD_UP
            assert router.shard_snapshot("shard-1")["deaths"] == 0
            assert router.metrics.shard_unavailable == isolated

        run_router_test(
            two_shard_router(payload_files, respawn_backoff_base=0.2, respawn_backoff_cap=2.0),
            body,
        )


class TestIdleConnections:
    def test_idle_connections_close_without_a_408_on_both_hops(
        self, payload_files, oracle_engine, example_points
    ):
        """An idle client connection closes without a reply, and so does a
        pooled router→shard connection that the shard times out: the next
        proxied query retries on a fresh connection instead of reading an
        unsolicited 408 as its answer."""
        p3, p4 = example_points["p3"], example_points["p4"]
        oracle = oracle_engine.query(p3, p4, "9:00")
        document = query_body(p3, p4, venue="a")
        # Past the router's client timeout (0.2 s below) and the shard
        # workers' default one (5 s).
        idle_seconds = 5.5

        async def body(router):
            reader, writer = await asyncio.open_connection(router.host, router.port)
            try:
                status, payload = await raw_request(
                    router.host,
                    router.port,
                    "POST",
                    "/query",
                    json.dumps(document).encode(),
                    reader=reader,
                    writer=writer,
                )
                assert status == 200
                assert_matches_oracle(payload, oracle)
                await asyncio.sleep(idle_seconds)
                assert await asyncio.wait_for(reader.read(), timeout=5.0) == b""
            finally:
                writer.close()
            status, payload = await post_query(router.host, router.port, document)
            assert status == 200, payload
            assert_matches_oracle(payload, oracle)
            status, metrics = await get(router.host, router.port, "/metrics")
            assert status == 200
            assert metrics["router"]["client_timeouts"] == 0
            assert metrics["aggregate"]["client_timeouts"] == 0
            assert metrics["router"]["proxy_failures"] == 0

        run_router_test(two_shard_router(payload_files, client_timeout_seconds=0.2), body)


class TestDrain:
    def test_router_with_pooled_shard_connections_drains_promptly(
        self, payload_files, example_points
    ):
        """Each shard holds a pooled, idle router connection when the drain
        starts; no shard waits out its 5 s client timeout on it."""
        router = two_shard_router(payload_files)

        async def scenario():
            await router.start()
            try:
                for venue in ("a", "b"):
                    status, _ = await post_query(
                        router.host,
                        router.port,
                        query_body(example_points["p3"], example_points["p4"], venue=venue),
                    )
                    assert status == 200
                for name in router.shard_names:
                    assert router.shard_snapshot(name)["idle_connections"] == 1
                started = time.monotonic()
            finally:
                await router.aclose()
            return time.monotonic() - started

        assert asyncio.run(scenario()) < 2.0


class TestReplicas:
    def test_concurrent_requests_are_answered_by_both_replicas(
        self, payload_files, oracle_engine, example_points
    ):
        cases = CASES * 5
        oracles = [
            oracle_engine.query(example_points[source], example_points[target], when, method=method)
            for source, target, when, method in cases
        ]

        async def body(router):
            assert router.shards_of("a") == ("shard-0", "shard-1")
            outcomes = await asyncio.gather(
                *(
                    post_query(
                        router.host,
                        router.port,
                        query_body(example_points[source], example_points[target], when, method=method),
                    )
                    for source, target, when, method in cases
                )
            )
            for (status, payload), oracle in zip(outcomes, oracles):
                assert status == 200, payload
                assert_matches_oracle(payload, oracle)
            status, metrics = await get(router.host, router.port, "/metrics")
            assert status == 200
            answered = {
                name: entry["metrics"]["requests"]["answered"]
                for name, entry in metrics["shards"].items()
            }
            assert answered["shard-0"] > 0 and answered["shard-1"] > 0, answered
            assert sum(answered.values()) == len(cases)

        run_router_test(replica_router(payload_files), body)

    def test_sigkilled_replica_never_sheds_the_venue(self, payload_files, oracle_engine, example_points):
        p3, p4 = example_points["p3"], example_points["p4"]
        oracle = oracle_engine.query(p3, p4, "9:00")

        async def body(router):
            _status, ready = await get(router.host, router.port, "/readyz")
            sigkill_shard(ready["shards"]["shard-0"])
            # A request in flight on the dying process may see a typed 502;
            # everything else is answered by the live replica.
            answered_while_down = 0
            for _attempt in range(50):
                status, payload = await post_query(router.host, router.port, query_body(p3, p4))
                if status == 502:
                    assert payload["type"] == "ShardConnectionError"
                    assert payload["shard"] == "shard-0"
                else:
                    assert status == 200, payload
                    assert_matches_oracle(payload, oracle)
                    if router.shard_snapshot("shard-0")["state"] != SHARD_UP:
                        answered_while_down += 1
                        if answered_while_down >= 3:
                            break
                await asyncio.sleep(0.02)
            assert answered_while_down >= 1, "the live replica never answered for the dead one"

            await await_router_ready(router.host, router.port, timeout=30.0)
            status, payload = await post_query(router.host, router.port, query_body(p3, p4))
            assert status == 200, payload
            assert_matches_oracle(payload, oracle)
            snapshot = router.shard_snapshot("shard-0")
            assert snapshot["deaths"] == 1 and snapshot["respawns"] == 1
            assert router.shard_snapshot("shard-1")["deaths"] == 0
            assert router.metrics.shard_unavailable == 0

        run_router_test(
            replica_router(payload_files, respawn_backoff_base=0.2, respawn_backoff_cap=2.0), body
        )


class TestHostileInput:
    def test_deeply_nested_body_answers_400(self, payload_files, example_points):
        async def body(router):
            status, payload = await raw_request(
                router.host, router.port, "POST", "/query", b"[" * 100_000
            )
            assert status == 400
            assert payload["type"] == "RecursionError"
            assert router.metrics.received == router.metrics.bad_requests == 1
            status, _ = await post_query(
                router.host, router.port, query_body(example_points["p3"], example_points["p4"])
            )
            assert status == 200

        run_router_test(one_shard_router(payload_files), body)

    def test_bad_content_length_answers_400_and_closes(self, payload_files, example_points):
        async def body(router):
            for value in ("2048", "-1", "twelve"):  # above max_body_bytes, negative, not an integer
                status, head, payload = await send_content_length(router.host, router.port, value)
                assert status == 400, value
                assert b"connection: close" in head.lower()
                assert payload["type"] == "ContentLengthError"
            assert router.metrics.received == router.metrics.bad_requests == 3
            status, _ = await post_query(
                router.host, router.port, query_body(example_points["p3"], example_points["p4"])
            )
            assert status == 200

        run_router_test(one_shard_router(payload_files, max_body_bytes=1024), body)

    def test_oversized_header_block_answers_431_and_closes(self, payload_files, example_points):
        async def body(router):
            status, head, payload = await send_expecting_close(
                router.host, router.port, OVERSIZED_HEADER_REQUEST
            )
            assert status == 431
            assert b"connection: close" in head.lower()
            assert payload["type"] == "HeaderTooLargeError"
            assert router.metrics.received == router.metrics.bad_requests == 1
            status, _ = await post_query(
                router.host, router.port, query_body(example_points["p3"], example_points["p4"])
            )
            assert status == 200

        run_router_test(one_shard_router(payload_files), body)

    def test_transfer_encoding_answers_411_and_closes(self, payload_files, example_points):
        document = json.dumps(query_body(example_points["p3"], example_points["p4"])).encode()

        async def body(router):
            status, head, payload = await send_expecting_close(
                router.host, router.port, chunked_then_valid_request(document)
            )
            assert status == 411
            assert b"connection: close" in head.lower()
            assert payload["type"] == "TransferEncodingError"
            assert router.metrics.received == router.metrics.bad_requests == 1
            status, _ = await raw_request(router.host, router.port, "POST", "/query", document)
            assert status == 200

        run_router_test(one_shard_router(payload_files), body)


class TestShedAndProxyTimeout:
    def test_full_budget_sheds_429_and_a_stalled_shard_answers_504(
        self, payload_files, oracle_engine, example_points
    ):
        """With the only shard paused (SIGSTOP), a first query holds its
        one in-flight slot until the proxy timeout answers it 504; a second
        query meanwhile is shed 429 at the router.  Both bodies name the
        shard, and the shard answers bit-identically once resumed."""
        p3, p4 = example_points["p3"], example_points["p4"]
        oracle = oracle_engine.query(p3, p4, "9:00")
        document = query_body(p3, p4)

        async def body(router):
            pid = router.shard_snapshot("shard-0")["pid"]
            os.kill(pid, signal.SIGSTOP)
            try:
                first = asyncio.ensure_future(post_query(router.host, router.port, document))
                await eventually(lambda: router.shard_snapshot("shard-0")["inflight"] == 1)
                status, payload = await post_query(router.host, router.port, document)
                assert status == 429, payload
                assert list(payload.items()) == [
                    ("error", "shard 'shard-0' in-flight budget full (1/1)"),
                    ("type", "ServiceOverloadedError"),
                    ("shard", "shard-0"),
                ]
                status, payload = await first
                assert status == 504, payload
                assert list(payload.items()) == [
                    ("error", "shard 'shard-0' did not answer within 1.0s"),
                    ("type", "ShardTimeoutError"),
                    ("shard", "shard-0"),
                ]
            finally:
                os.kill(pid, signal.SIGCONT)
            status, payload = await post_query(router.host, router.port, document)
            assert status == 200, payload
            assert_matches_oracle(payload, oracle)
            assert router.metrics.received == 3
            assert router.metrics.shed == 1
            assert router.metrics.proxy_timeouts == 1
            assert router.shard_snapshot("shard-0")["deaths"] == 0

        run_router_test(
            one_shard_router(
                payload_files, max_inflight_per_shard=1, shard_request_timeout_seconds=1.0
            ),
            body,
        )
