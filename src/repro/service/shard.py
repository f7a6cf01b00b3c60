"""Sharded multi-process serving: a venue router over N service processes.

One :class:`ITSPQService` process serves many venues well, but it is still
one process: one GIL, one failure domain, one blast radius.  This
module is the repository's one way to use more than one core — a
:class:`ShardRouter` that owns a **static venue→shards map**, spawns and
supervises N worker processes (each an ordinary ``python -m repro.service``
serving its venue subset on its own localhost port), and proxies
``POST /query`` by venue:

* **Routing.**  The router peeks at the request body only far enough to
  resolve the venue, then forwards the body **verbatim** to a shard serving
  it over a pooled keep-alive connection and relays the shard's answer
  byte for byte.  Everything the single-process service guarantees —
  bit-identical answers, typed admission errors, ``deadline_ms`` carried in
  the request body — therefore survives sharding by construction: the
  router adds routing, never interpretation.
* **Replicas.**  A venue may be served by several shards (the plan deals
  venues over spare shards when there are more shards than venues); each
  request goes to the live replica with the fewest requests in flight,
  ties broken by plan order.
* **Isolation.**  Each shard has a bounded in-flight budget (excess sheds a
  typed ``429`` at the router, before any bytes reach a loaded shard) and
  its own failure domain: a venue answers ``503`` only while every shard
  serving it is down, and every other shard keeps serving.
* **Supervision.**  A per-shard supervisor task waits on the worker
  process; an unexpected exit marks the shard down, discards its pooled
  connections, and respawns it with bounded exponential backoff
  (``min(cap, base * 2**n)``), re-waiting for the worker's ``listening on``
  line.  Supervised respawn is invisible to other shards and, once the
  worker is back, to clients of the dead shard's venues too.
* **Aggregation.**  ``GET /healthz`` / ``/readyz`` / ``/metrics`` answer
  for the whole deployment: per-shard process state (pid, port, deaths,
  respawns) plus each live shard's scraped ``/metrics`` and a summed
  cross-shard view (:func:`repro.service.metrics.aggregate_request_snapshots`).

Worker processes are real ``python -m repro.service`` subprocesses — the
same entry point, flags and lifecycle a single-process deployment uses
(SIGINT → drain → ``drained and closed``), so everything in
``docs/OPERATIONS.md`` about one service process applies verbatim to every
shard.  The router's own socket, connection loop, responses and routes are
the :class:`~repro.service.wire.FrontEnd` it shares with the service; this
module supplies the plan, the supervision, the connection pools and the
proxying.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import sys
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

from repro.service.metrics import LatencyReservoir, aggregate_request_snapshots
from repro.service.wire import FrontEnd, check_front_end_config, error_response, query_venue

#: Shard process states surfaced by ``/readyz`` and ``/metrics``.
SHARD_STARTING = "starting"  #: spawned, waiting for its ``listening on`` line.
SHARD_UP = "up"  #: serving; the only state the router proxies to.
SHARD_DOWN = "down"  #: died unexpectedly; the supervisor is respawning it.
SHARD_STOPPED = "stopped"  #: drained deliberately by :meth:`ShardRouter.aclose`.


@dataclass(frozen=True)
class ShardSpec:
    """One shard of the static plan: a name and the venues it owns.

    ``venue_specs`` are ``NAME=SPEC`` strings in the ``--venue`` syntax of
    ``python -m repro.service`` (``SPEC`` is ``example``, ``mall`` or a
    compiled-codec payload path); they become the worker's command line, so
    the worker builds or rehydrates exactly the venues this shard owns.
    """

    name: str
    venue_specs: Tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a shard needs a non-empty name")
        if not self.venue_specs:
            raise ValueError(f"shard {self.name!r} owns no venues")
        if len(set(self.venues)) != len(self.venues):
            raise ValueError(f"shard {self.name!r} lists a venue twice: {self.venues}")

    @property
    def venues(self) -> Tuple[str, ...]:
        """The venue names this shard owns (the routing keys)."""
        return tuple(spec.partition("=")[0] for spec in self.venue_specs)


def plan_shards(venue_specs: Sequence[str], shard_count: int) -> List[ShardSpec]:
    """Deal ``NAME=SPEC`` venue entries round-robin over ``shard_count`` shards.

    Slot *i* in ``range(max(N, V))`` puts venue ``i % V`` on shard ``i % N``.
    With no more shards than venues that is venue *i* on shard ``i % N``;
    with more, every shard gets one venue and the spare shards serve
    replicas.  The plan is deterministic, so the same command line always
    yields the same venue→shards map — static configuration, not runtime
    balancing.  Raises ``ValueError`` for an empty plan or duplicate venue
    names.
    """
    if shard_count < 1:
        raise ValueError(f"shard_count must be positive, got {shard_count}")
    entries = list(venue_specs)
    if not entries:
        raise ValueError("the shard plan needs at least one venue")
    names = [entry.partition("=")[0] for entry in entries]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate venue names in the shard plan: {sorted(names)}")
    buckets: List[List[str]] = [[] for _ in range(shard_count)]
    for slot in range(max(shard_count, len(entries))):
        buckets[slot % shard_count].append(entries[slot % len(entries)])
    return [
        ShardSpec(name=f"shard-{index}", venue_specs=tuple(bucket))
        for index, bucket in enumerate(buckets)
    ]


@dataclass
class ShardRouterConfig:
    """Tunables of one :class:`ShardRouter` (validated at construction —
    every violation names the offending field).

    Parameters
    ----------
    host / port:
        The router's bind address; ``port=0`` picks a free port (read it
        back from ``router.port`` after :meth:`ShardRouter.start`).
    pool_size:
        Idle keep-alive connections kept per shard; requests above the pool
        open (and then discard) extra connections rather than queueing.
    max_inflight_per_shard:
        Proxied requests in flight to one shard at once; excess sheds with
        a typed ``429`` at the router, before the shard sees any bytes.
    client_timeout_seconds:
        A client request not fully received this long after its first byte
        answers ``408``; a keep-alive connection idle this long between
        requests is closed without a reply.
    shard_request_timeout_seconds:
        A proxied request unanswered by its shard within this answers
        ``504`` and the connection is discarded (never pooled again).
    startup_timeout_seconds:
        How long a spawning worker may take to print ``listening on``.
    respawn_backoff_base / respawn_backoff_cap:
        The n-th consecutive respawn attempt after a shard death waits
        ``min(cap, base * 2**(n-1))`` seconds; attempts go on until one
        succeeds or the router drains.
    drain_timeout_seconds:
        How long :meth:`ShardRouter.aclose` waits for in-flight proxies,
        and then for each SIGINTed worker to drain, before escalating.
    worker_args:
        Extra command-line arguments appended to every worker's
        ``python -m repro.service`` invocation (``--cache``,
        ``--max-batch``, ...), so shard tuning is the single-process tuning.
    max_body_bytes:
        Client request bodies above this answer ``400`` (as does a negative
        or non-integer ``Content-Length``), without the body being read.
    """

    host: str = "127.0.0.1"
    port: int = 0
    pool_size: int = 4
    max_inflight_per_shard: int = 64
    client_timeout_seconds: float = 5.0
    shard_request_timeout_seconds: float = 30.0
    startup_timeout_seconds: float = 120.0
    respawn_backoff_base: float = 0.5
    respawn_backoff_cap: float = 30.0
    drain_timeout_seconds: float = 15.0
    worker_args: Tuple[str, ...] = ()
    max_body_bytes: int = 1 << 20

    def __post_init__(self) -> None:
        if self.pool_size < 1:
            raise ValueError(f"pool_size must be positive, got {self.pool_size}")
        if self.max_inflight_per_shard < 1:
            raise ValueError(
                f"max_inflight_per_shard must be positive, got {self.max_inflight_per_shard}"
            )
        if not self.shard_request_timeout_seconds > 0:
            raise ValueError(
                "shard_request_timeout_seconds must be positive, "
                f"got {self.shard_request_timeout_seconds}"
            )
        if not self.startup_timeout_seconds > 0:
            raise ValueError(
                f"startup_timeout_seconds must be positive, got {self.startup_timeout_seconds}"
            )
        if self.respawn_backoff_base < 0:
            raise ValueError(
                f"respawn_backoff_base must be non-negative, got {self.respawn_backoff_base}"
            )
        if self.respawn_backoff_cap < 0:
            raise ValueError(
                f"respawn_backoff_cap must be non-negative, got {self.respawn_backoff_cap}"
            )
        check_front_end_config(self)


class RouterMetrics:
    """The router's own counters (routing outcomes, not search outcomes).

    Search outcomes live in each shard's metrics; the router only counts
    what *it* decided (routed, shed, shard-unavailable, proxy failures) and
    what it relayed (``responses_by_status``), plus end-to-end latency over
    a bounded newest-wins reservoir.
    """

    def __init__(self) -> None:
        self.received = 0
        self.routed = 0  # forwarded to a shard and answered by it
        self.bad_requests = 0  # 400/411/431s the router itself produced
        self.shed = 0  # 429s from the per-shard in-flight budget
        self.shard_unavailable = 0  # 503s while every shard serving the venue is down
        self.proxy_failures = 0  # 502s: connection to the shard broke
        self.proxy_timeouts = 0  # 504s: shard_request_timeout_seconds expired
        self.client_timeouts = 0  # 408s: slow clients
        self.unavailable = 0  # 503s while the router drains
        self.routed_by_shard: Dict[str, int] = {}
        self.responses_by_status: Dict[str, int] = {}
        #: End-to-end latencies of the routed requests.
        self.latencies = LatencyReservoir()

    def observe_routed(self, shard: str, status: int, seconds: float) -> None:
        """Count one request answered end-to-end through ``shard``."""
        self.routed += 1
        self.routed_by_shard[shard] = self.routed_by_shard.get(shard, 0) + 1
        key = str(status)
        self.responses_by_status[key] = self.responses_by_status.get(key, 0) + 1
        self.latencies.observe(seconds)

    def snapshot(self) -> Dict[str, object]:
        """The ``/metrics`` payload's ``router`` section."""
        return {
            "received": self.received,
            "routed": self.routed,
            "bad_requests": self.bad_requests,
            "shed": self.shed,
            "shard_unavailable": self.shard_unavailable,
            "proxy_failures": self.proxy_failures,
            "proxy_timeouts": self.proxy_timeouts,
            "client_timeouts": self.client_timeouts,
            "unavailable": self.unavailable,
            "routed_by_shard": dict(self.routed_by_shard),
            "responses_by_status": dict(self.responses_by_status),
            **self.latencies.snapshot(),
        }


class _ShardHandle:
    """Mutable per-shard state: the worker process and its plumbing."""

    def __init__(self, spec: ShardSpec):
        self.spec = spec
        self.state = SHARD_STARTING
        self.process: Optional[asyncio.subprocess.Process] = None
        self.host = ""
        self.port = 0
        self.pid: Optional[int] = None
        self.deaths = 0  # unexpected worker exits
        self.respawns = 0  # successful supervised respawns
        self.inflight = 0
        self.idle: List[Tuple[asyncio.StreamReader, asyncio.StreamWriter]] = []
        self.last_error: Optional[str] = None
        self.stderr_tail: Deque[str] = deque(maxlen=50)
        self.supervisor: Optional[asyncio.Task] = None
        self.drain_tasks: List[asyncio.Task] = []

    def snapshot(self) -> Dict[str, object]:
        """Process-level state for ``/readyz`` and ``/metrics``."""
        return {
            "state": self.state,
            "pid": self.pid,
            "port": self.port,
            "venues": list(self.spec.venues),
            "deaths": self.deaths,
            "respawns": self.respawns,
            "inflight": self.inflight,
            "idle_connections": len(self.idle),
            "last_error": self.last_error,
        }


class ShardRouter(FrontEnd):
    """The sharded serving topology's front-end (see the module docstring)."""

    def __init__(self, shards: Sequence[ShardSpec], config: Optional[ShardRouterConfig] = None):
        shards = list(shards)
        if not shards:
            raise ValueError("the router needs at least one shard")
        names = [spec.name for spec in shards]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate shard names: {names}")
        super().__init__(config if config is not None else ShardRouterConfig())
        self._handles: Dict[str, _ShardHandle] = {spec.name: _ShardHandle(spec) for spec in shards}
        # Each venue's replicas in plan order; replicas must serve one payload.
        self._replicas: Dict[str, List[_ShardHandle]] = {}
        venue_spec_of: Dict[str, str] = {}
        for spec in shards:
            for venue, venue_spec in zip(spec.venues, spec.venue_specs):
                known = venue_spec_of.setdefault(venue, venue_spec)
                if known != venue_spec:
                    raise ValueError(
                        f"venue {venue!r} assigned to both {self._replicas[venue][0].spec.name!r} "
                        f"({known!r}) and {spec.name!r} ({venue_spec!r}): replicas must "
                        "serve one payload"
                    )
                self._replicas.setdefault(venue, []).append(self._handles[spec.name])
        self._metrics = RouterMetrics()

    # -- introspection ---------------------------------------------------------

    @property
    def config(self) -> ShardRouterConfig:
        return self._config

    @property
    def metrics(self) -> RouterMetrics:
        return self._metrics

    @property
    def venues(self) -> Tuple[str, ...]:
        return tuple(self._replicas)

    @property
    def shard_names(self) -> Tuple[str, ...]:
        return tuple(self._handles)

    def shards_of(self, venue: str) -> Tuple[str, ...]:
        """The names of the shards serving ``venue``, in plan order
        (KeyError for unknown venues)."""
        return tuple(handle.spec.name for handle in self._replicas[venue])

    def shard_snapshot(self, name: str) -> Dict[str, object]:
        """One shard's process-level state (see ``_ShardHandle.snapshot``)."""
        return self._handles[name].snapshot()

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> None:
        """Spawn every shard, wait for all of them to listen, bind the
        router socket and start the supervisors; idempotent."""
        if self._server is not None:
            return
        spawns = [self._spawn(handle) for handle in self._handles.values()]
        outcomes = await asyncio.gather(*spawns, return_exceptions=True)
        failures = [outcome for outcome in outcomes if isinstance(outcome, BaseException)]
        if failures:
            await self._kill_workers()
            raise RuntimeError(f"shard startup failed: {failures[0]}") from failures[0]
        for handle in self._handles.values():
            handle.supervisor = asyncio.get_running_loop().create_task(self._supervise(handle))
        await self._listen()

    async def _drain(self) -> None:
        """Wait for in-flight proxies, close the pools, SIGINT every worker
        and wait for its graceful drain."""
        await self._wait_for_handlers()
        for handle in self._handles.values():
            if handle.supervisor is not None:
                handle.supervisor.cancel()
        for handle in self._handles.values():
            if handle.supervisor is not None:
                try:
                    await handle.supervisor
                except (asyncio.CancelledError, Exception):
                    pass
        # Close the pools before the SIGINT, so that no worker's drain
        # finds a pooled connection of this router still open.
        for handle in self._handles.values():
            self._discard_idle(handle)
        await self._stop_workers()

    async def _stop_workers(self) -> None:
        """SIGINT every live worker (its drain path), escalating to SIGKILL
        after the drain timeout."""

        async def stop(handle: _ShardHandle) -> None:
            process = handle.process
            if process is None or process.returncode is not None:
                handle.state = SHARD_STOPPED
                return
            try:
                process.send_signal(signal.SIGINT)
            except ProcessLookupError:
                handle.state = SHARD_STOPPED
                return
            try:
                await asyncio.wait_for(process.wait(), timeout=self._config.drain_timeout_seconds)
            except asyncio.TimeoutError:
                process.kill()
                await process.wait()
            handle.state = SHARD_STOPPED

        await asyncio.gather(*(stop(handle) for handle in self._handles.values()))

    async def _kill_workers(self) -> None:
        for handle in self._handles.values():
            if handle.process is not None and handle.process.returncode is None:
                try:
                    handle.process.kill()
                    await handle.process.wait()
                except ProcessLookupError:
                    pass

    # -- worker process management ---------------------------------------------

    def _worker_command(self, spec: ShardSpec) -> List[str]:
        command = [
            sys.executable,
            "-m",
            "repro.service",
            "--host",
            "127.0.0.1",
            "--port",
            "0",
        ]
        for venue_spec in spec.venue_specs:
            command.extend(("--venue", venue_spec))
        command.extend(self._config.worker_args)
        return command

    @staticmethod
    def _worker_env() -> Dict[str, str]:
        """The child environment: the parent's, with the running ``repro``
        package's source root prepended to ``PYTHONPATH`` so workers import
        the exact code the router runs (checkout or installed alike)."""
        import repro

        env = dict(os.environ)
        source_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        existing = env.get("PYTHONPATH", "")
        parts = [source_root] + ([existing] if existing else [])
        env["PYTHONPATH"] = os.pathsep.join(parts)
        return env

    async def _spawn(self, handle: _ShardHandle) -> None:
        """Start one worker and wait for its ``listening on`` line."""
        handle.state = SHARD_STARTING
        process = await asyncio.create_subprocess_exec(
            *self._worker_command(handle.spec),
            stdout=asyncio.subprocess.PIPE,
            stderr=asyncio.subprocess.PIPE,
            env=self._worker_env(),
        )
        handle.process = process
        handle.pid = process.pid
        try:
            deadline = time.monotonic() + self._config.startup_timeout_seconds
            while True:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise asyncio.TimeoutError
                line = await asyncio.wait_for(process.stdout.readline(), timeout=remaining)
                if not line:
                    stderr = await process.stderr.read()
                    raise RuntimeError(
                        f"shard {handle.spec.name} exited before listening: "
                        f"{stderr.decode(errors='replace')[-2000:]}"
                    )
                text = line.decode(errors="replace").strip()
                if text.startswith("listening on "):
                    address = text.split(" ")[-1]
                    host, _, port = address.rpartition(":")
                    handle.host, handle.port = host, int(port)
                    break
        except asyncio.TimeoutError:
            process.kill()
            await process.wait()
            raise RuntimeError(
                f"shard {handle.spec.name} did not report listening within "
                f"{self._config.startup_timeout_seconds}s"
            ) from None
        except BaseException:
            if process.returncode is None:
                process.kill()
                await process.wait()
            raise
        handle.state = SHARD_UP
        handle.last_error = None
        loop = asyncio.get_running_loop()
        handle.drain_tasks = [
            loop.create_task(self._drain_stream(process.stdout, None)),
            loop.create_task(self._drain_stream(process.stderr, handle.stderr_tail)),
        ]

    @staticmethod
    async def _drain_stream(stream: asyncio.StreamReader, tail: Optional[Deque[str]]) -> None:
        """Keep a worker pipe from filling; remember the last lines."""
        try:
            while True:
                line = await stream.readline()
                if not line:
                    return
                if tail is not None:
                    tail.append(line.decode(errors="replace").rstrip())
        except (asyncio.CancelledError, Exception):
            return

    async def _supervise(self, handle: _ShardHandle) -> None:
        """Respawn ``handle`` with bounded backoff every time it dies."""
        while not self._draining:
            process = handle.process
            if process is None:
                return
            await process.wait()
            if self._draining:
                return
            handle.deaths += 1
            handle.state = SHARD_DOWN
            handle.last_error = (
                f"worker pid {handle.pid} exited with {process.returncode}"
            )
            self._discard_idle(handle)
            attempt = 0
            while not self._draining:
                delay = min(
                    self._config.respawn_backoff_cap,
                    self._config.respawn_backoff_base * (2**attempt),
                )
                await asyncio.sleep(delay)
                if self._draining:
                    return
                try:
                    await self._spawn(handle)
                except Exception as exc:
                    attempt += 1
                    handle.last_error = str(exc)
                else:
                    handle.respawns += 1
                    break

    # -- connection pooling ----------------------------------------------------

    def _discard_idle(self, handle: _ShardHandle) -> None:
        while handle.idle:
            _reader, writer = handle.idle.pop()
            try:
                writer.close()
            except Exception:
                pass

    async def _shard_request(
        self, handle: _ShardHandle, method: str, path: str, body: bytes, retry: bool = True
    ) -> Tuple[int, bytes]:
        """One request/response exchange with a shard over a pooled
        connection.  A send/receive failure on a *reused* connection retries
        once on a fresh one (the shard may have closed the idle socket);
        query proxying is safe to retry because a query is a pure read."""
        fresh = not handle.idle
        if handle.idle:
            reader, writer = handle.idle.pop()
        else:
            reader, writer = await asyncio.open_connection(handle.host, handle.port)
        try:
            head = (
                f"{method} {path} HTTP/1.1\r\nContent-Length: {len(body)}\r\n\r\n"
            ).encode("latin-1")
            writer.write(head + body)
            await writer.drain()
            status_head = await reader.readuntil(b"\r\n\r\n")
            status = int(status_head.split(b" ")[1])
            length = 0
            keep_alive = True
            for line in status_head.split(b"\r\n"):
                lowered = line.lower()
                if lowered.startswith(b"content-length"):
                    length = int(line.split(b":")[1])
                elif lowered.startswith(b"connection") and b"close" in lowered:
                    keep_alive = False
            payload = await reader.readexactly(length) if length else b""
        except (ConnectionError, asyncio.IncompleteReadError, OSError) as exc:
            try:
                writer.close()
            except Exception:
                pass
            if not fresh and retry:
                return await self._shard_request(handle, method, path, body, retry=False)
            raise ConnectionError(f"shard {handle.spec.name} connection failed: {exc}") from exc
        except BaseException:
            # Cancellation (the proxy timeout) or anything unexpected: the
            # connection may hold a half-read response — never pool it.
            try:
                writer.close()
            except Exception:
                pass
            raise
        if (
            keep_alive
            and handle.state == SHARD_UP
            and len(handle.idle) < self._config.pool_size
        ):
            handle.idle.append((reader, writer))
        else:
            try:
                writer.close()
            except Exception:
                pass
        return status, payload

    # -- what the routes answer ------------------------------------------------

    def _refused(self, status: int) -> None:
        self._metrics.received += 1
        if status == 408:
            self._metrics.client_timeouts += 1
        else:
            self._metrics.bad_requests += 1

    def _health(self) -> Dict[str, Any]:
        return {"shards": {name: handle.state for name, handle in self._handles.items()}}

    def _readiness(self, ready: bool) -> Tuple[bool, Dict[str, Any]]:
        all_up = all(handle.state == SHARD_UP for handle in self._handles.values())
        return ready and all_up, {
            "venues": sorted(self._replicas),
            "shards": {name: handle.snapshot() for name, handle in self._handles.items()},
        }

    async def _metrics_payload(self) -> Dict[str, Any]:
        """The aggregated ``/metrics`` document: the router's own counters,
        per-shard process state + each live shard's scraped metrics, and the
        summed cross-shard ``aggregate`` section."""

        async def scrape(handle: _ShardHandle) -> Optional[Dict[str, Any]]:
            if handle.state != SHARD_UP:
                return None
            try:
                status, payload = await asyncio.wait_for(
                    self._shard_request(handle, "GET", "/metrics", b""),
                    timeout=min(5.0, self._config.shard_request_timeout_seconds),
                )
            except (asyncio.TimeoutError, ConnectionError, OSError):
                return None
            if status != 200:
                return None
            try:
                return json.loads(payload)
            except ValueError:
                return None

        handles = list(self._handles.values())
        scraped = await asyncio.gather(*(scrape(handle) for handle in handles))
        shards: Dict[str, Any] = {}
        request_sections = []
        for handle, metrics in zip(handles, scraped):
            entry = handle.snapshot()
            entry["metrics"] = metrics
            shards[handle.spec.name] = entry
            if metrics is not None and isinstance(metrics.get("requests"), dict):
                request_sections.append(metrics["requests"])
        return {
            "router": self._metrics.snapshot(),
            "shards": shards,
            "aggregate": aggregate_request_snapshots(request_sections),
        }

    async def _query(self, body: bytes) -> Tuple[int, bytes]:
        """Proxy one ``POST /query`` to the live replica of its venue with
        the fewest requests in flight (ties go to the earlier shard in plan
        order)."""
        self._metrics.received += 1
        if not self._started or self._draining:
            self._metrics.unavailable += 1
            return error_response(
                503,
                "draining" if self._draining else "not started",
                "ServiceUnavailableError",
            )
        try:
            venue, _document = query_venue(body, self._replicas, "deployment")
        except (ValueError, TypeError, KeyError, RecursionError) as exc:
            self._metrics.bad_requests += 1
            return error_response(400, str(exc) or exc.__class__.__name__, type(exc).__name__)
        replicas = self._replicas[venue]
        live = [handle for handle in replicas if handle.state == SHARD_UP]
        if not live:
            self._metrics.shard_unavailable += 1
            states = ", ".join(f"{handle.spec.name} is {handle.state}" for handle in replicas)
            return error_response(
                503,
                f"no shard serving venue {venue!r} is up ({states})",
                "ServiceUnavailableError",
                shard=", ".join(handle.spec.name for handle in replicas),
            )
        handle = min(live, key=lambda replica: replica.inflight)
        shard_name = handle.spec.name
        if handle.inflight >= self._config.max_inflight_per_shard:
            self._metrics.shed += 1
            return error_response(
                429,
                f"shard {shard_name!r} in-flight budget full "
                f"({handle.inflight}/{self._config.max_inflight_per_shard})",
                "ServiceOverloadedError",
                shard=shard_name,
            )
        handle.inflight += 1
        started = time.perf_counter()
        try:
            status, payload = await asyncio.wait_for(
                self._shard_request(handle, "POST", "/query", body),
                timeout=self._config.shard_request_timeout_seconds,
            )
        except asyncio.TimeoutError:
            self._metrics.proxy_timeouts += 1
            return error_response(
                504,
                f"shard {shard_name!r} did not answer within "
                f"{self._config.shard_request_timeout_seconds}s",
                "ShardTimeoutError",
                shard=shard_name,
            )
        except (ConnectionError, OSError) as exc:
            # The shard died mid-request (the supervisor will notice and
            # respawn); this request is answered 502 rather than retried —
            # the router never silently re-runs work on a dying process.
            self._metrics.proxy_failures += 1
            return error_response(502, str(exc), "ShardConnectionError", shard=shard_name)
        finally:
            handle.inflight -= 1
        self._metrics.observe_routed(shard_name, status, time.perf_counter() - started)
        return status, payload
