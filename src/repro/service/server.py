"""The asyncio ITSPQ query service: HTTP front-end, micro-batching, rungs.

One :class:`ITSPQService` owns a set of named venues (each an
:class:`~repro.core.engine.ITSPQEngine`, built normally or rehydrated from a
:mod:`repro.io.compiled_codec` payload via :meth:`ITSPQService.from_payloads`)
and serves a minimal HTTP/1.1 API over raw asyncio streams — deliberately
dependency-free, like the rest of the repository:

``POST /query``
    Body: ``{"venue": name?, "source": [x, y, floor], "target":
    [x, y, floor], "time": "HH:MM[:SS]", "method": name?, "deadline_ms":
    number?}``.  Answers 200 with the result, 400 for malformed queries,
    408 for slow clients, 429 when shed, 503 while draining, 504 on
    deadline expiry, 500 otherwise — each error body carries the typed
    exception name.
``GET /healthz`` / ``GET /readyz`` / ``GET /metrics``
    Liveness (always 200 while the process runs), readiness (503 before
    start and while draining, with rung/breaker detail), and the full
    counter snapshot (requests, admission, ladder, per-venue engine stats).

Request path
------------
Admitted queries are buffered per ``(venue, method)`` for at most
``batch_window_ms`` (or until ``max_batch`` members arrive), then flushed as
one micro-batch through the :class:`~repro.service.degradation.DegradationLadder`:
the batch runs on the highest healthy rung — batch, sequential compiled,
cache-replay — descending on rung failure, with outcomes scored into the
rungs' circuit breakers.  Engines are synchronous and their shared state —
the SP-tree cache's LRU and counters — is **not** thread-safe, so every
rung execution runs on a worker thread under a per-venue lock; concurrency
comes from batching, not from racing searches.

Deadlines compose with batching conservatively: a micro-batch's shared
budget is the *largest* remaining member budget (no budget at all if any
member is unbounded), so the shared search is never cut short while some
member could still be served; members whose own budget expired by
completion are answered 504 individually — the "never partial, never
stale" contract per request.

Lifecycle
---------
:meth:`ITSPQService.start` compiles every venue off-loop and binds the
socket; :meth:`ITSPQService.aclose` drains — stop admitting, flush every
buffer, let in-flight batches and handlers finish — then closes the socket
(``aclose`` is idempotent).
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.deadline import SearchDeadline
from repro.core.engine import ITSPQEngine
from repro.core.query import ITSPQuery, QueryResult
from repro.core.tvcheck import canonical_method
from repro.exceptions import (
    DeadlineExceededError,
    QueryError,
    ReproError,
    ServiceOverloadedError,
    ServiceUnavailableError,
)
from repro.geometry.point import IndoorPoint
from repro.service.admission import AdmissionController
from repro.service.degradation import (
    RUNG_BATCH,
    RUNG_CACHE_REPLAY,
    RUNG_SEQUENTIAL,
    DegradationLadder,
)
from repro.service.metrics import ServiceMetrics
from repro.service.wire import ContentLengthError, read_request

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


@dataclass
class ServiceConfig:
    """Tunables of one :class:`ITSPQService` (validated at construction —
    every violation names the offending field).

    Parameters
    ----------
    host / port:
        Bind address; ``port=0`` picks a free port (read it back from
        ``service.port`` after :meth:`ITSPQService.start`).
    batch_window_ms:
        How long the first query of a micro-batch waits for company before
        the batch flushes (``0`` flushes on the next loop tick).
    max_batch:
        Flush immediately once a buffer holds this many queries.
    max_pending / max_inflight_batches:
        The admission budgets (see :class:`~repro.service.admission.AdmissionController`).
    default_deadline_ms:
        Budget applied to requests that do not send ``deadline_ms``;
        ``None`` leaves them unbounded.
    client_timeout_seconds:
        A request not fully received (headers + body) this long after its
        first byte answers 408 — the slow-client guard; a keep-alive
        connection idle this long between requests is closed without a
        reply.
    drain_timeout_seconds:
        How long :meth:`ITSPQService.aclose` waits for in-flight handlers
        after the batch queue empties.
    breaker_failure_threshold / breaker_backoff_base / breaker_backoff_cap:
        The per-rung circuit-breaker tuning.
    breaker_clock:
        Injectable monotonic clock for the breakers (chaos tests advance a
        fake clock instead of sleeping through recovery backoffs).
    rung_fault_hook:
        Test seam: called as ``hook(rung, venue)`` before a batch executes
        on a rung; an exception it raises is that rung's failure.  ``None``
        in production.
    max_body_bytes:
        Request bodies above this answer 400 (as does a negative or
        non-integer ``Content-Length``), without the body being read.
    """

    host: str = "127.0.0.1"
    port: int = 0
    batch_window_ms: float = 5.0
    max_batch: int = 16
    max_pending: int = 64
    max_inflight_batches: int = 4
    default_deadline_ms: Optional[float] = None
    client_timeout_seconds: float = 5.0
    drain_timeout_seconds: float = 10.0
    breaker_failure_threshold: int = 3
    breaker_backoff_base: float = 0.5
    breaker_backoff_cap: float = 30.0
    breaker_clock: Callable[[], float] = time.monotonic
    rung_fault_hook: Optional[Callable[[str, str], None]] = field(default=None, repr=False)
    max_body_bytes: int = 1 << 20

    def __post_init__(self) -> None:
        if self.batch_window_ms < 0:
            raise ValueError(f"batch_window_ms must be non-negative, got {self.batch_window_ms}")
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be positive, got {self.max_batch}")
        if self.max_pending < 1:
            raise ValueError(f"max_pending must be positive, got {self.max_pending}")
        if self.max_inflight_batches < 1:
            raise ValueError(
                f"max_inflight_batches must be positive, got {self.max_inflight_batches}"
            )
        if self.default_deadline_ms is not None and not self.default_deadline_ms > 0:
            raise ValueError(
                f"default_deadline_ms must be positive or None, got {self.default_deadline_ms}"
            )
        if not self.client_timeout_seconds > 0:
            raise ValueError(
                f"client_timeout_seconds must be positive, got {self.client_timeout_seconds}"
            )
        if self.drain_timeout_seconds < 0:
            raise ValueError(
                f"drain_timeout_seconds must be non-negative, got {self.drain_timeout_seconds}"
            )
        if self.breaker_failure_threshold < 1:
            raise ValueError(
                f"breaker_failure_threshold must be positive, got {self.breaker_failure_threshold}"
            )
        if self.breaker_backoff_base < 0:
            raise ValueError(
                f"breaker_backoff_base must be non-negative, got {self.breaker_backoff_base}"
            )
        if self.breaker_backoff_cap < 0:
            raise ValueError(
                f"breaker_backoff_cap must be non-negative, got {self.breaker_backoff_cap}"
            )
        if self.max_body_bytes < 1:
            raise ValueError(f"max_body_bytes must be positive, got {self.max_body_bytes}")


class _Member:
    """One admitted query waiting in (or flushed from) a micro-batch."""

    __slots__ = ("query", "deadline", "future", "admitted_at")

    def __init__(self, query: ITSPQuery, deadline: Optional[SearchDeadline], future: asyncio.Future):
        self.query = query
        self.deadline = deadline
        self.future = future
        self.admitted_at = time.perf_counter()


class ITSPQService:
    """The serving layer over one or more compiled venues (see module doc)."""

    def __init__(self, engines: Dict[str, ITSPQEngine], config: Optional[ServiceConfig] = None):
        if not engines:
            raise ValueError("the service needs at least one venue engine")
        self._engines: Dict[str, ITSPQEngine] = dict(engines)
        self._config = config if config is not None else ServiceConfig()
        # One lock per venue: the SP-tree cache's LRU and counters are not
        # thread-safe, so every rung execution of a venue is serialised
        # across worker threads.
        self._locks: Dict[str, threading.Lock] = {name: threading.Lock() for name in self._engines}
        rungs: List[str] = [RUNG_BATCH, RUNG_SEQUENTIAL]
        if all(engine.cache_enabled for engine in self._engines.values()):
            rungs.append(RUNG_CACHE_REPLAY)
        self._ladder = DegradationLadder(
            rungs,
            failure_threshold=self._config.breaker_failure_threshold,
            backoff_base=self._config.breaker_backoff_base,
            backoff_cap=self._config.breaker_backoff_cap,
            clock=self._config.breaker_clock,
        )
        self._admission = AdmissionController(
            self._config.max_pending, self._config.max_inflight_batches
        )
        self._metrics = ServiceMetrics()
        self._buffers: Dict[Tuple[str, str], List[_Member]] = {}
        self._flush_handles: Dict[Tuple[str, str], asyncio.TimerHandle] = {}
        self._batch_tasks: "set[asyncio.Task]" = set()
        self._server: Optional[asyncio.base_events.Server] = None
        self._started = False
        self._draining = False
        self._closed = False
        self._active_handlers = 0
        self.host: str = self._config.host
        self.port: int = self._config.port

    @classmethod
    def from_payloads(
        cls,
        payloads: Dict[str, bytes],
        config: Optional[ServiceConfig] = None,
        cache: Any = True,
        walking_speed: Optional[float] = None,
    ) -> "ITSPQService":
        """A service whose venues are rehydrated from codec payloads — the
        shard hand-off deployment: no object-level IT-Graph is ever built in
        the serving process.  ``cache`` (default ``True``) is passed to every
        :meth:`~repro.core.engine.ITSPQEngine.from_compiled_payload`, so the
        cache-replay rung exists unless explicitly disabled."""
        kwargs: Dict[str, Any] = {"cache": cache}
        if walking_speed is not None:
            kwargs["walking_speed"] = walking_speed
        engines = {
            name: ITSPQEngine.from_compiled_payload(payload, **kwargs)
            for name, payload in payloads.items()
        }
        return cls(engines, config)

    # -- introspection ---------------------------------------------------------

    @property
    def config(self) -> ServiceConfig:
        return self._config

    @property
    def ladder(self) -> DegradationLadder:
        return self._ladder

    @property
    def admission(self) -> AdmissionController:
        return self._admission

    @property
    def metrics(self) -> ServiceMetrics:
        return self._metrics

    @property
    def venues(self) -> Tuple[str, ...]:
        return tuple(self._engines)

    @property
    def draining(self) -> bool:
        return self._draining

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> None:
        """Compile every venue (off-loop) and bind the socket; idempotent."""
        if self._server is not None:
            return
        for engine in self._engines.values():
            await asyncio.to_thread(engine.ensure_compiled)
        self._server = await asyncio.start_server(
            self._handle_client, self._config.host, self._config.port
        )
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        self._started = True

    async def serve_forever(self) -> None:
        """Serve until cancelled (``python -m repro.service`` awaits this)."""
        if self._server is None:
            await self.start()
        await self._server.serve_forever()

    async def aclose(self) -> None:
        """Drain, then close: stop admitting, flush every buffer, wait for
        in-flight batches and handlers, close the socket.  Idempotent."""
        if self._closed:
            return
        self._draining = True
        for key in list(self._buffers):
            self._flush(key)
        while self._batch_tasks:
            await asyncio.gather(*list(self._batch_tasks), return_exceptions=True)
        deadline = time.monotonic() + self._config.drain_timeout_seconds
        while self._active_handlers > 0 and time.monotonic() < deadline:
            await asyncio.sleep(0.01)
        if self._server is not None:
            self._server.close()
            try:
                await self._server.wait_closed()
            except Exception:
                pass
            self._server = None
        self._closed = True

    # -- HTTP plumbing ---------------------------------------------------------

    async def _handle_client(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self._active_handlers += 1
        try:
            while True:
                try:
                    request = await read_request(
                        reader,
                        self._config.max_body_bytes,
                        self._config.client_timeout_seconds,
                    )
                except asyncio.TimeoutError:
                    self._metrics.received += 1
                    self._metrics.observe_outcome(408)
                    await self._respond(
                        writer,
                        408,
                        {"error": "request not received in time", "type": "ClientTimeout"},
                        keep_alive=False,
                    )
                    return
                except ContentLengthError as exc:
                    self._metrics.received += 1
                    self._metrics.observe_outcome(400)
                    await self._respond(
                        writer, 400, {"error": str(exc), "type": type(exc).__name__}, keep_alive=False
                    )
                    return
                except (asyncio.IncompleteReadError, ConnectionError, asyncio.LimitOverrunError):
                    return  # disconnect or garbage framing: nothing to answer
                if request is None:
                    return  # EOF or idle between requests: close without a reply
                http_method, path, body = request
                keep_alive = await self._dispatch(writer, http_method, path, body)
                if not keep_alive:
                    return
        finally:
            self._active_handlers -= 1
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: Dict[str, Any],
        keep_alive: bool = True,
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            f"\r\n"
        ).encode("latin-1")
        try:
            writer.write(head + body)
            await writer.drain()
        except (ConnectionError, RuntimeError):
            pass  # the client went away; its pending slot is still released

    async def _dispatch(
        self, writer: asyncio.StreamWriter, http_method: str, path: str, body: bytes
    ) -> bool:
        """Route one request; returns whether to keep the connection."""
        path = path.split("?", 1)[0]
        if path == "/query":
            if http_method != "POST":
                await self._respond(writer, 405, {"error": "POST only", "type": "MethodNotAllowed"})
                return True
            self._metrics.received += 1
            started = time.perf_counter()
            status, payload = await self._handle_query(body)
            self._metrics.observe_latency(time.perf_counter() - started)
            self._metrics.observe_outcome(status)
            await self._respond(writer, status, payload)
            return True
        if http_method != "GET":
            await self._respond(writer, 405, {"error": "GET only", "type": "MethodNotAllowed"})
            return True
        if path == "/healthz":
            await self._respond(writer, 200, {"status": "alive", "draining": self._draining})
            return True
        if path == "/readyz":
            ready = self._started and not self._draining
            payload = {
                "status": "ready" if ready else "not-ready",
                "draining": self._draining,
                "venues": list(self._engines),
                "ladder": self._ladder.snapshot(),
                "admission": self._admission.snapshot(),
            }
            await self._respond(writer, 200 if ready else 503, payload)
            return True
        if path == "/metrics":
            await self._respond(writer, 200, self._metrics_payload())
            return True
        await self._respond(writer, 404, {"error": f"no route {path}", "type": "NotFound"})
        return True

    def _metrics_payload(self) -> Dict[str, Any]:
        venues: Dict[str, Any] = {}
        for name, engine in self._engines.items():
            report = engine.last_execution_report
            venues[name] = {
                "cache": engine.cache.stats() if engine.cache is not None else None,
                "last_execution_report": report.as_dict() if report is not None else None,
            }
        return {
            "requests": self._metrics.snapshot(),
            "admission": self._admission.snapshot(),
            "ladder": self._ladder.snapshot(),
            "venues": venues,
        }

    # -- the query path --------------------------------------------------------

    async def _handle_query(self, body: bytes) -> Tuple[int, Dict[str, Any]]:
        if not self._started or self._draining:
            return 503, {
                "error": "draining" if self._draining else "not started",
                "type": "ServiceUnavailableError",
            }
        try:
            venue, method_name, query, deadline = self._parse_query(body)
        except (ReproError, ValueError, TypeError, KeyError, OverflowError, RecursionError) as exc:
            return 400, {"error": str(exc) or exc.__class__.__name__, "type": type(exc).__name__}
        try:
            self._admission.admit()
        except ServiceOverloadedError as exc:
            return 429, {"error": str(exc), "type": type(exc).__name__}
        try:
            result, rung = await self._enqueue(venue, method_name, query, deadline)
            return 200, self._result_payload(result, rung, venue)
        except DeadlineExceededError as exc:
            return 504, {"error": str(exc), "type": type(exc).__name__}
        except ServiceOverloadedError as exc:
            return 429, {"error": str(exc), "type": type(exc).__name__}
        except ServiceUnavailableError as exc:
            return 503, {"error": str(exc), "type": type(exc).__name__}
        except QueryError as exc:
            return 400, {"error": str(exc), "type": type(exc).__name__}
        except Exception as exc:  # noqa: BLE001 - the typed 500 boundary
            return 500, {"error": str(exc) or exc.__class__.__name__, "type": type(exc).__name__}
        finally:
            self._admission.release()

    def _parse_query(
        self, body: bytes
    ) -> Tuple[str, str, ITSPQuery, Optional[SearchDeadline]]:
        document = json.loads(body.decode("utf-8"))
        if not isinstance(document, dict):
            raise ValueError("the query body must be a JSON object")
        if "venue" in document:
            venue = str(document["venue"])
            if venue not in self._engines:
                raise ValueError(f"unknown venue {venue!r} (have {sorted(self._engines)})")
        elif len(self._engines) == 1:
            venue = next(iter(self._engines))
        else:
            raise ValueError(f"multi-venue service: pick a venue from {sorted(self._engines)}")
        method_name = canonical_method(str(document.get("method", "synchronous")))

        def point(name: str) -> IndoorPoint:
            raw = document[name]
            if not isinstance(raw, (list, tuple)) or len(raw) not in (2, 3):
                raise ValueError(f"{name} must be [x, y] or [x, y, floor]")
            floor = int(raw[2]) if len(raw) == 3 else 0
            return IndoorPoint(float(raw[0]), float(raw[1]), floor)

        query = ITSPQuery(point("source"), point("target"), document["time"])
        deadline_ms = document.get("deadline_ms", self._config.default_deadline_ms)
        deadline = None
        if deadline_ms is not None:
            budget = float(deadline_ms) / 1000.0
            if not budget > 0:
                raise ValueError(f"deadline_ms must be positive, got {deadline_ms}")
            deadline = SearchDeadline(budget)
        return venue, method_name, query, deadline

    @staticmethod
    def _result_payload(result: QueryResult, rung: str, venue: str) -> Dict[str, Any]:
        stats = result.statistics
        return {
            "venue": venue,
            "rung": rung,
            "method": result.method_label,
            "found": result.found,
            "length": result.length if result.found else None,
            "doors": list(result.path.door_sequence) if result.path is not None else [],
            "statistics": {
                "doors_settled": stats.doors_settled,
                "relaxations": stats.relaxations,
                "heap_pushes": stats.heap_pushes,
                "heap_pops": stats.heap_pops,
                "runtime_seconds": stats.runtime_seconds,
            },
        }

    async def _enqueue(
        self,
        venue: str,
        method_name: str,
        query: ITSPQuery,
        deadline: Optional[SearchDeadline],
    ) -> Tuple[QueryResult, str]:
        loop = asyncio.get_running_loop()
        member = _Member(query, deadline, loop.create_future())
        key = (venue, method_name)
        buffer = self._buffers.get(key)
        if buffer is None:
            buffer = self._buffers[key] = []
            self._flush_handles[key] = loop.call_later(
                self._config.batch_window_ms / 1000.0, self._flush, key
            )
        buffer.append(member)
        if len(buffer) >= self._config.max_batch:
            self._flush(key)
        return await member.future

    def _flush(self, key: Tuple[str, str]) -> None:
        members = self._buffers.pop(key, None)
        handle = self._flush_handles.pop(key, None)
        if handle is not None:
            handle.cancel()
        if not members:
            return
        self._metrics.batches += 1
        task = asyncio.get_running_loop().create_task(
            self._run_batch(key[0], key[1], members)
        )
        self._batch_tasks.add(task)
        task.add_done_callback(self._batch_tasks.discard)

    # -- rung execution --------------------------------------------------------

    async def _run_batch(self, venue: str, method_name: str, members: List[_Member]) -> None:
        """Run one flushed micro-batch down the ladder and resolve futures."""
        engine = self._engines[venue]
        lock = self._locks[venue]
        rung = None
        outcomes: List[Any] = []
        async with self._admission:
            rung = self._ladder.select()
            while True:
                try:
                    outcomes = await asyncio.to_thread(
                        self._execute_rung, engine, lock, venue, rung, method_name, members
                    )
                except DeadlineExceededError as exc:
                    # The shared budget (the *largest* member budget) ran
                    # out: every member is expired.  Not the rung's fault.
                    self._ladder.record(rung, True)
                    outcomes = [exc] * len(members)
                    break
                except QueryError as exc:
                    # A malformed member poisons a shared group search; the
                    # sequential rung isolates it so the other members still
                    # answer.  Not a rung-health event.
                    if rung == RUNG_BATCH:
                        self._ladder.record(rung, True)
                        rung = RUNG_SEQUENTIAL
                        continue
                    # Lower rungs catch QueryError per member; reaching here
                    # means the fault hook raised it — answer it typed.
                    outcomes = [exc] * len(members)
                    break
                except Exception as exc:  # noqa: BLE001 - rung failure boundary
                    self._ladder.record(rung, False)
                    lower = self._ladder.select(start_after=rung)
                    if lower == rung:
                        outcomes = [exc] * len(members)
                        break
                    rung = lower
                    continue
                else:
                    self._ladder.record(rung, True)
                    break
        answered = sum(1 for outcome in outcomes if isinstance(outcome, QueryResult))
        if answered:
            self._metrics.observe_rung(rung, answered)
        for member, outcome in zip(members, outcomes):
            if member.future.done():
                continue
            if isinstance(outcome, BaseException):
                member.future.set_exception(outcome)
            else:
                member.future.set_result((outcome, rung))

    def _execute_rung(
        self,
        engine: ITSPQEngine,
        lock: threading.Lock,
        venue: str,
        rung: str,
        method_name: str,
        members: List[_Member],
    ) -> List[Any]:
        """Synchronous rung execution on a worker thread (venue serialised).

        Returns per-member outcomes (a :class:`QueryResult` or the typed
        exception); raises on rung-level failure."""
        hook = self._config.rung_fault_hook
        if hook is not None:
            hook(rung, venue)
        queries = [member.query for member in members]
        with lock:
            if rung == RUNG_BATCH:
                group_deadline = self._group_deadline(members)
                results = engine.run_batch(queries, method_name, deadline=group_deadline)
                return self._post_hoc_deadlines(members, results)
            if rung == RUNG_SEQUENTIAL:
                outcomes: List[Any] = []
                for member in members:
                    try:
                        outcomes.append(
                            engine.run(member.query, method=method_name, deadline=member.deadline)
                        )
                    except (DeadlineExceededError, QueryError) as exc:
                        outcomes.append(exc)
                return outcomes
            # cache-replay: answers hits, sheds misses — no search ever runs.
            outcomes = []
            for member in members:
                try:
                    result = engine.answer_from_cache(member.query, method=method_name)
                except QueryError as exc:
                    outcomes.append(exc)
                    continue
                if result is None:
                    outcomes.append(
                        ServiceOverloadedError(
                            "degraded to cache-replay and this query's tree is not cached"
                        )
                    )
                else:
                    outcomes.append(result)
            return outcomes

    @staticmethod
    def _group_deadline(members: List[_Member]) -> Optional[SearchDeadline]:
        """The shared budget of one micro-batch: the largest remaining
        member budget, or none at all if any member is unbounded.  Raises
        when every member's budget is already spent."""
        budgets = []
        for member in members:
            if member.deadline is None:
                return None
            budgets.append(member.deadline.remaining())
        longest = max(budgets)
        if longest <= 0:
            raise DeadlineExceededError("every member budget expired before dispatch")
        return SearchDeadline(longest)

    @staticmethod
    def _post_hoc_deadlines(members: List[_Member], results: List[QueryResult]) -> List[Any]:
        """Per-member expiry after a shared run: the search completed, but a
        member whose own budget is gone is answered 504 — its client asked
        for a bound, not a best effort."""
        outcomes: List[Any] = []
        for member, result in zip(members, results):
            if member.deadline is not None and member.deadline.expired:
                outcomes.append(
                    DeadlineExceededError(
                        f"search deadline of {member.deadline.budget_seconds:.3f}s exceeded"
                    )
                )
            else:
                outcomes.append(result)
        return outcomes
