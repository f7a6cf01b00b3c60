"""The asyncio ITSPQ query service: venue queues and micro-batching.

One :class:`ITSPQService` owns a set of named venues (each an
:class:`~repro.core.engine.ITSPQEngine`, built normally or rehydrated from a
:mod:`repro.io.compiled_codec` payload via :meth:`ITSPQService.from_payloads`)
and serves a minimal HTTP/1.1 API over raw asyncio streams — deliberately
dependency-free, like the rest of the repository.  The socket, connection
loop, responses and routes are the :class:`~repro.service.wire.FrontEnd`
it shares with the shard router; this module supplies what the routes
answer:

``POST /query``
    Body: ``{"venue": name?, "source": [x, y, floor], "target":
    [x, y, floor], "time": "HH:MM[:SS]", "method": name?, "deadline_ms":
    number?}``, with the time inside one day.  Answers 200 with the result,
    400 for malformed queries, 408 for slow clients, 411 for a
    ``Transfer-Encoding`` body, 429 when shed, 431 for an oversized header
    block, 503 while draining, 504 on deadline expiry, 500 otherwise — each
    error body carries the typed exception name.
``GET /healthz`` / ``GET /readyz`` / ``GET /metrics``
    Liveness (always 200 while the process runs), readiness (503 before
    start and while draining), and the full counter snapshot (requests,
    admission, per-venue engine stats).

Request path
------------
Each venue has one FIFO queue and runs at most one micro-batch at a time.
A query for an idle venue is dispatched on the next loop tick; queries that
arrive while the venue executes wait, then leave together when it finishes
(up to ``max_batch`` of them, split by method into ``engine.run_batch``
calls).  Under light load a query therefore never waits for company, and
under heavy load batches grow by themselves.  When a shared search
raises :class:`~repro.exceptions.QueryError` — one malformed member poisons
the group — every member is re-run on its own with ``engine.run``, so the
others still answer and only the culprit gets its typed 400; the answers
of that re-run carry ``"rung": "sequential"`` instead of ``"batch"``.  Any
other exception answers every member of the batch with it (a typed 500, or
504 for an expired deadline) and the service keeps serving: both paths run
the same kernel, so nothing is retried.  Engines are synchronous and their
shared state — the SP-tree cache's LRU and counters — is **not**
thread-safe, so every execution runs on a worker thread under a per-venue
lock; concurrency comes from batching, not from racing searches.

Deadlines compose with batching conservatively: time spent in the queue
counts against each member's budget, and a micro-batch's shared budget,
computed at dispatch, is the *largest* remaining member budget (no budget
at all if any member is unbounded), so the shared search is never cut short
while some member could still be served; members whose own budget expired
by completion are answered 504 individually — the "never partial, never
stale" contract per request.

Lifecycle
---------
:meth:`ITSPQService.start` compiles every venue off-loop and binds the
socket; :meth:`ITSPQService.aclose` drains — stop admitting, hang up
keep-alive connections idle between requests, run every queue empty, let
in-flight handlers finish — then closes the socket (``aclose`` is
idempotent).
"""

from __future__ import annotations

import asyncio
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.core.deadline import SearchDeadline
from repro.core.engine import ITSPQEngine
from repro.core.query import ITSPQuery, QueryResult
from repro.core.tvcheck import canonical_method
from repro.exceptions import (
    DeadlineExceededError,
    InvalidTimeError,
    QueryError,
    ReproError,
    ServiceOverloadedError,
)
from repro.geometry.point import IndoorPoint
from repro.service.admission import AdmissionController
from repro.service.metrics import ServiceMetrics
from repro.service.wire import FrontEnd, check_front_end_config, error_response, json_body, query_venue

#: The ``"rung"`` of an answer: the shared micro-batch search, or the
#: one-by-one re-run that isolates a member whose query poisoned it.
RUNG_BATCH = "batch"
RUNG_SEQUENTIAL = "sequential"


@dataclass
class ServiceConfig:
    """Tunables of one :class:`ITSPQService` (validated at construction —
    every violation names the offending field).

    Parameters
    ----------
    host / port:
        Bind address; ``port=0`` picks a free port (read it back from
        ``service.port`` after :meth:`ITSPQService.start`).
    max_batch:
        The most queued queries of one venue that leave together when the
        venue's executing batch finishes.
    max_pending:
        The admission budget (see :class:`~repro.service.admission.AdmissionController`).
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
    max_body_bytes:
        Request bodies above this answer 400 (as does a negative or
        non-integer ``Content-Length``), without the body being read.
    """

    host: str = "127.0.0.1"
    port: int = 0
    max_batch: int = 16
    max_pending: int = 64
    default_deadline_ms: Optional[float] = None
    client_timeout_seconds: float = 5.0
    drain_timeout_seconds: float = 10.0
    max_body_bytes: int = 1 << 20

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be positive, got {self.max_batch}")
        if self.max_pending < 1:
            raise ValueError(f"max_pending must be positive, got {self.max_pending}")
        if self.default_deadline_ms is not None and not self.default_deadline_ms > 0:
            raise ValueError(
                f"default_deadline_ms must be positive or None, got {self.default_deadline_ms}"
            )
        check_front_end_config(self)


class _Member:
    """One admitted query waiting in its venue's queue (or executing)."""

    __slots__ = ("method_name", "query", "deadline", "future")

    def __init__(
        self,
        method_name: str,
        query: ITSPQuery,
        deadline: Optional[SearchDeadline],
        future: asyncio.Future,
    ):
        self.method_name = method_name
        self.query = query
        self.deadline = deadline
        self.future = future


class ITSPQService(FrontEnd):
    """The serving layer over one or more compiled venues (see module doc)."""

    def __init__(self, engines: Dict[str, ITSPQEngine], config: Optional[ServiceConfig] = None):
        if not engines:
            raise ValueError("the service needs at least one venue engine")
        super().__init__(config if config is not None else ServiceConfig())
        self._engines: Dict[str, ITSPQEngine] = dict(engines)
        # One lock per venue: the SP-tree cache's LRU and counters are not
        # thread-safe, so every execution of a venue is serialised across
        # worker threads.
        self._locks: Dict[str, threading.Lock] = {name: threading.Lock() for name in self._engines}
        self._admission = AdmissionController(self._config.max_pending)
        self._metrics = ServiceMetrics()
        # Per venue: the queries waiting for it, and the task running its
        # queue while it is busy (absent while the venue is idle).
        self._queues: Dict[str, List[_Member]] = {name: [] for name in self._engines}
        self._runners: Dict[str, asyncio.Task] = {}

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
        the serving process.  ``cache`` (default ``True``: an SP-tree cache
        with the default admission) is passed to every
        :meth:`~repro.core.engine.ITSPQEngine.from_compiled_payload`."""
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
    def admission(self) -> AdmissionController:
        return self._admission

    @property
    def metrics(self) -> ServiceMetrics:
        return self._metrics

    @property
    def venues(self) -> Tuple[str, ...]:
        return tuple(self._engines)

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> None:
        """Compile every venue (off-loop) and bind the socket; idempotent."""
        if self._server is not None:
            return
        for engine in self._engines.values():
            await asyncio.to_thread(engine.ensure_compiled)
        await self._listen()

    async def _drain(self) -> None:
        """Run every venue's queue empty, then wait for in-flight handlers."""
        while self._runners:
            await asyncio.gather(*list(self._runners.values()), return_exceptions=True)
        await self._wait_for_handlers()

    # -- what the routes answer ------------------------------------------------

    def _refused(self, status: int) -> None:
        self._metrics.received += 1
        self._metrics.observe_outcome(status)

    def _health(self) -> Dict[str, Any]:
        return {}

    def _readiness(self, ready: bool) -> Tuple[bool, Dict[str, Any]]:
        return ready, {"venues": list(self._engines), "admission": self._admission.snapshot()}

    async def _metrics_payload(self) -> Dict[str, Any]:
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
            # A constant: perfbench's traced runs read ``rungs[0]`` and
            # ``breakers`` here (docs/OPERATIONS.md, section 6).
            "ladder": {"rungs": [RUNG_BATCH, RUNG_SEQUENTIAL], "breakers": {}},
            "venues": venues,
        }

    async def _query(self, body: bytes) -> Tuple[int, bytes]:
        self._metrics.received += 1
        started = time.perf_counter()
        status, response = await self._handle_query(body)
        self._metrics.latencies.observe(time.perf_counter() - started)
        self._metrics.observe_outcome(status)
        return status, response

    # -- the query path --------------------------------------------------------

    async def _handle_query(self, body: bytes) -> Tuple[int, bytes]:
        if not self._started or self._draining:
            return error_response(
                503, "draining" if self._draining else "not started", "ServiceUnavailableError"
            )
        try:
            venue, method_name, query, deadline = self._parse_query(body)
        except (ReproError, ValueError, TypeError, KeyError, OverflowError, RecursionError) as exc:
            return error_response(400, str(exc) or exc.__class__.__name__, type(exc).__name__)
        try:
            self._admission.admit()
        except ServiceOverloadedError as exc:
            return error_response(429, str(exc), type(exc).__name__)
        try:
            result, rung = await self._enqueue(venue, method_name, query, deadline)
            return 200, json_body(self._result_payload(result, rung, venue))
        except DeadlineExceededError as exc:
            return error_response(504, str(exc), type(exc).__name__)
        except QueryError as exc:
            return error_response(400, str(exc), type(exc).__name__)
        except Exception as exc:  # noqa: BLE001 - the typed 500 boundary
            return error_response(500, str(exc) or exc.__class__.__name__, type(exc).__name__)
        finally:
            self._admission.release()

    def _parse_query(
        self, body: bytes
    ) -> Tuple[str, str, ITSPQuery, Optional[SearchDeadline]]:
        venue, document = query_venue(body, self._engines, "service")
        method_name = canonical_method(str(document.get("method", "synchronous")))

        def point(name: str) -> IndoorPoint:
            raw = document[name]
            if not isinstance(raw, (list, tuple)) or len(raw) not in (2, 3):
                raise ValueError(f"{name} must be [x, y] or [x, y, floor]")
            floor = int(raw[2]) if len(raw) == 3 else 0
            return IndoorPoint(float(raw[0]), float(raw[1]), floor)

        query = ITSPQuery(point("source"), point("target"), document["time"])
        if not query.query_time.within_day:
            raise InvalidTimeError(
                f"query time {query.query_time.seconds:g} s is outside one day (0..86400 s)"
            )
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
        member = _Member(method_name, query, deadline, loop.create_future())
        self._queues[venue].append(member)
        if venue not in self._runners:
            self._runners[venue] = loop.create_task(self._run_queue(venue))
        return await member.future

    async def _run_queue(self, venue: str) -> None:
        """Run ``venue``'s queue until it is empty: up to ``max_batch``
        queued members at a time, one ``run_batch`` per method among them."""
        queue = self._queues[venue]
        try:
            while queue:
                members = queue[: self._config.max_batch]
                del queue[: self._config.max_batch]
                by_method: Dict[str, List[_Member]] = {}
                for member in members:
                    by_method.setdefault(member.method_name, []).append(member)
                for method_name, group in by_method.items():
                    self._metrics.batches += 1
                    await self._run_batch(venue, method_name, group)
        finally:
            del self._runners[venue]

    # -- batch execution -------------------------------------------------------

    async def _run_batch(self, venue: str, method_name: str, members: List[_Member]) -> None:
        """Run one micro-batch and resolve its members' futures."""
        engine = self._engines[venue]
        lock = self._locks[venue]
        rung = RUNG_BATCH
        try:
            try:
                outcomes = await asyncio.to_thread(
                    self._run_shared, engine, lock, method_name, members
                )
            except QueryError:
                # A malformed member poisons the shared group search:
                # re-run the members one by one so the others still answer.
                rung = RUNG_SEQUENTIAL
                outcomes = await asyncio.to_thread(
                    self._run_each, engine, lock, method_name, members
                )
        except Exception as exc:  # noqa: BLE001 - the typed 500 boundary
            # Also an expired shared budget (the *largest* member budget):
            # every member is expired then, and answers 504.
            outcomes = [exc] * len(members)
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

    def _run_shared(
        self, engine: ITSPQEngine, lock: threading.Lock, method_name: str, members: List[_Member]
    ) -> List[Any]:
        """The micro-batch as one ``run_batch`` call (worker thread, venue
        serialised); per-member outcomes are results or expired deadlines."""
        with lock:
            results = engine.run_batch(
                [member.query for member in members],
                method_name,
                deadline=self._group_deadline(members),
            )
        return self._post_hoc_deadlines(members, results)

    @staticmethod
    def _run_each(
        engine: ITSPQEngine, lock: threading.Lock, method_name: str, members: List[_Member]
    ) -> List[Any]:
        """Each member on its own ``engine.run`` under its own deadline; a
        member's ``QueryError`` or expiry is its outcome, not the batch's."""
        outcomes: List[Any] = []
        with lock:
            for member in members:
                try:
                    outcomes.append(
                        engine.run(member.query, method=method_name, deadline=member.deadline)
                    )
                except (DeadlineExceededError, QueryError) as exc:
                    outcomes.append(exc)
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
