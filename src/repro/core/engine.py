"""``ITSPQ_ITGraph`` (Algorithm 1): the door-level Dijkstra answering ITSPQ.

The engine expands over *doors* (plus the two query points) exactly as the
paper's Algorithm 1: the distance label of a door is the length of the best
known valid path prefix from the source point to that door, intra-partition
moves are priced by the partition's distance matrix ``DM``, private
partitions (other than the two covering the query endpoints) are pruned, and
every relaxation of a door is subjected to the pluggable temporal-validity
check ``TV_Check`` — synchronous (ITG/S), asynchronous (ITG/A), or one of the
baseline checks.

Two expansion modes are provided:

``partition_once=False`` (default)
    Standard door-to-door Dijkstra: a settled door relaxes the leaveable
    doors of *every* partition it enters.  This is the exact label-setting
    search under the paper's semantics and is what the correctness tests
    compare against independent oracles.
``partition_once=True``
    The literal transcription of Algorithm 1, which marks partitions as
    visited and expands each partition only from the first door that settles
    into it (lines 18–19), and which stops expanding a door adjacent to the
    target partition after relaxing ``p_t`` (lines 20–24).  This does
    slightly less work and returns identical answers on venues whose
    intra-partition distances obey the triangle inequality (all venues in
    this repository); the ablation benchmark quantifies the difference.
    Both the reference and the compiled search implement this mode, with
    reference-vs-compiled parity enforced by the test suite; batch and
    cached execution require the standard expansion.

Temporal feasibility and edge pricing are delegated to the pluggable
semantics layer in :mod:`repro.core.semantics` — both searches run the same
``relax -> probe -> push`` kernel, so the paper's no-wait semantics and the
wait-tolerant / latest-departure / time-window variants all execute through
one code path per engine.
"""

from __future__ import annotations

import enum
import heapq
import itertools
import time
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Tuple, Union

from repro.constants import WALKING_SPEED_MPS
from repro.core.batch import BatchExecutor, BatchGroup
from repro.core.cache import CacheConfig, SPTreeCache
from repro.core.compiled import COMPILED_KINDS, CompiledITGraph
from repro.core.deadline import SearchDeadline
from repro.core.kernel import run_group
from repro.core.itgraph import ITGraph
from repro.core.path import IndoorPath, PathHop
from repro.core.query import ITSPQuery, QueryResult, SearchStatistics
from repro.core.semantics import NoWait, make_reference_probe
from repro.core.snapshot import CompiledSnapshotStore, GraphUpdater
from repro.core.tvcheck import TVCheckStrategy, canonical_method, make_strategy
from repro.exceptions import QueryError, UnknownEntityError
from repro.geometry.point import IndoorPoint
from repro.temporal.timeofday import TimeLike, TimeOfDay

#: Sentinel node identifiers for the two query points in the search graph.
SOURCE_NODE = "__source__"
TARGET_NODE = "__target__"

_INFINITY = float("inf")


class CheckMethod(enum.Enum):
    """The TV-check instantiations the engine knows how to run."""

    SYNCHRONOUS = "synchronous"
    ASYNCHRONOUS = "asynchronous"
    STATIC = "static"
    QUERY_TIME = "query-time"

    @property
    def label(self) -> str:
        """The paper's label for the method (``ITG/S``, ``ITG/A``, ...)."""
        return {
            CheckMethod.SYNCHRONOUS: "ITG/S",
            CheckMethod.ASYNCHRONOUS: "ITG/A",
            CheckMethod.STATIC: "static",
            CheckMethod.QUERY_TIME: "query-time-snapshot",
        }[self]


MethodLike = Union[str, CheckMethod]


@dataclass
class ExecutionReport:
    """How one :meth:`ITSPQEngine.run_batch` call executed its workload."""

    mode: str  #: ``"batched"`` (planned groups) or ``"sequential"`` (one search per query).
    queries: int  #: workload size.
    groups: int  #: planned batch groups (one per query when sequential).
    dispatch_unix: float  #: ``time.time()`` when the call started.
    elapsed_seconds: float  #: wall time of the whole call.

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready dictionary (the service's ``last_execution_report``)."""
        return asdict(self)


def _normalise_method(method: MethodLike) -> str:
    if isinstance(method, CheckMethod):
        return method.value
    return str(method)


class ITSPQEngine:
    """Answers ITSPQ queries over one IT-Graph.

    The engine owns a :class:`~repro.core.snapshot.GraphUpdater` so that the
    asynchronous method's snapshot cache is shared across the queries of one
    engine instance — matching the paper's setting where the time-dependent
    IT-Graph is maintained across queries and refreshed only at checkpoints.
    """

    def __init__(
        self,
        itgraph: ITGraph,
        walking_speed: float = WALKING_SPEED_MPS,
        partition_once: bool = False,
        compiled: bool = True,
        cache: Union[None, bool, CacheConfig] = None,
    ):
        if walking_speed <= 0:
            raise ValueError(f"walking speed must be positive, got {walking_speed}")
        self._itgraph = itgraph
        self._walking_speed = walking_speed
        self._partition_once = partition_once
        self._updater = GraphUpdater(itgraph)
        # The compiled fast path answers the four built-in methods over the
        # interned integer-indexed graph; ``compiled=False`` keeps the
        # object-level reference search, which parity tests and custom
        # strategies rely on.  ``partition_once`` (the literal-Algorithm-1
        # study mode) runs on either engine; batch and cached execution
        # require the standard expansion.
        self._compiled_enabled = bool(compiled)
        # ``cache`` opts into the interval-keyed shortest-path-tree cache on
        # the compiled path: ``True`` enables the defaults, a CacheConfig
        # tunes capacity and admission, ``None``/``False`` keeps every
        # query on the fresh-search path (the default — caching is a
        # service-workload optimisation, not a correctness feature).
        self._cache_config = self._normalise_cache_option(cache)
        if self._cache_config is not None and partition_once:
            # Cached trees record the standard expansion; replaying them
            # under the literal-Algorithm-1 pruning would not be parity.
            raise QueryError("the SP-tree cache requires the standard expansion (partition_once=False)")
        self._cache: Optional[SPTreeCache] = None
        self._compiled_graph: Optional[CompiledITGraph] = None
        self._compiled_store: Optional[CompiledSnapshotStore] = None
        self._batch_executor: Optional[BatchExecutor] = None
        self._last_execution_report: Optional[ExecutionReport] = None

    @staticmethod
    def _normalise_cache_option(cache: Union[None, bool, CacheConfig]) -> Optional[CacheConfig]:
        if cache is None or cache is False:
            return None
        if cache is True:
            return CacheConfig()
        if isinstance(cache, CacheConfig):
            return cache
        raise TypeError(f"cache must be a CacheConfig or boolean, got {cache!r}")

    @classmethod
    def from_compiled_payload(
        cls,
        payload: bytes,
        walking_speed: float = WALKING_SPEED_MPS,
        cache: Union[None, bool, CacheConfig] = None,
    ) -> "ITSPQEngine":
        """An engine rehydrated from a :mod:`repro.io.compiled_codec` payload.

        This is the serving-layer shard hand-off: a venue travels as one
        codec blob and the receiving process answers queries without ever
        materialising the object-level IT-Graph.  The engine is
        compiled-only — the reference search, explicit TV-check strategies
        and the ``partition_once`` study mode (all of which need the
        object-level graph) raise :class:`~repro.exceptions.QueryError`.
        """
        from repro.io.compiled_codec import compiled_graph_from_bytes

        if walking_speed <= 0:
            raise ValueError(f"walking speed must be positive, got {walking_speed}")
        engine = cls.__new__(cls)
        engine._itgraph = None
        engine._walking_speed = walking_speed
        engine._partition_once = False
        engine._updater = None
        engine._compiled_enabled = True
        engine._cache_config = cls._normalise_cache_option(cache)
        engine._cache = None
        engine._compiled_graph = compiled_graph_from_bytes(bytes(payload))
        engine._compiled_store = engine._compiled_graph.interval_bitsets.store()
        engine._batch_executor = None
        engine._last_execution_report = None
        return engine

    # -- public API ------------------------------------------------------------------

    @property
    def itgraph(self) -> ITGraph:
        """The IT-Graph queried by this engine."""
        return self._itgraph

    @property
    def updater(self) -> GraphUpdater:
        """The shared snapshot factory used by asynchronous checks."""
        return self._updater

    @property
    def partition_once(self) -> bool:
        """Whether the literal Algorithm 1 partition-visited pruning is active."""
        return self._partition_once

    @property
    def compiled(self) -> bool:
        """Whether the integer-indexed compiled fast path is enabled."""
        return self._compiled_enabled

    @property
    def last_execution_report(self) -> Optional[ExecutionReport]:
        """The :class:`ExecutionReport` of the most recent :meth:`run_batch`
        call (``None`` before the first one)."""
        return self._last_execution_report

    def ensure_compiled(self) -> CompiledITGraph:
        """Force the (otherwise lazy) compiled index build and return it.

        Benchmarks call this before timing so that index construction — an
        offline cost like ``build_itgraph`` itself — never pollutes the first
        measured query.
        """
        if self._compiled_graph is None:
            self._compiled_graph = self._itgraph.compiled()
            self._compiled_store = self._compiled_graph.interval_bitsets.store()
        if self._cache_config is not None and self._cache is None:
            self._cache = SPTreeCache(
                self._compiled_graph,
                self._compiled_store,
                self._walking_speed,
                self._cache_config,
            )
        return self._compiled_graph

    def query(
        self,
        source: IndoorPoint,
        target: IndoorPoint,
        query_time: TimeLike,
        method: MethodLike = CheckMethod.SYNCHRONOUS,
        strategy: Optional[TVCheckStrategy] = None,
        deadline: Optional[SearchDeadline] = None,
    ) -> QueryResult:
        """Answer ``ITSPQ(source, target, query_time)``.

        Parameters
        ----------
        source, target:
            The query endpoints; both must be covered by some partition.
        query_time:
            The instant the user starts walking (``t`` in the paper).
        method:
            Which ``TV_Check`` instantiation to use: ``"synchronous"``
            (ITG/S), ``"asynchronous"`` (ITG/A), ``"static"`` or
            ``"query-time"``; ignored when an explicit ``strategy`` is given.
        strategy:
            A pre-built :class:`TVCheckStrategy`, e.g. to share counters
            across a benchmark run.
        deadline:
            An optional :class:`~repro.core.deadline.SearchDeadline`; an
            expired budget raises
            :class:`~repro.exceptions.DeadlineExceededError` instead of
            returning a (never partial) result.
        """
        itsp_query = ITSPQuery(source, target, query_time)
        return self.run(itsp_query, method=method, strategy=strategy, deadline=deadline)

    def run(
        self,
        itsp_query: ITSPQuery,
        method: MethodLike = CheckMethod.SYNCHRONOUS,
        strategy: Optional[TVCheckStrategy] = None,
        deadline: Optional[SearchDeadline] = None,
    ) -> QueryResult:
        """Answer a pre-built :class:`~repro.core.query.ITSPQuery`.

        With the compiled fast path enabled (the default) the four built-in
        methods run as an integer-label Dijkstra over the compiled index —
        the query is planned as a group of one and answered by the compiled
        kernel (:func:`repro.core.kernel.run_group`), or replayed from the
        SP-tree cache on a cached engine — and return bit-identical results
        to the reference search; an explicit
        ``strategy`` always runs the reference search, since arbitrary
        strategies cannot be lowered.

        The query's :attr:`~repro.core.query.ITSPQuery.semantics` selects the
        temporal semantics; the non-default semantics require the synchronous
        method and run on both engines through the shared probe kernel.

        ``deadline`` arms the cooperative per-request budget on whichever
        tier answers (reference, compiled, or cache-recording): the search
        polls it every few heap pops and raises
        :class:`~repro.exceptions.DeadlineExceededError` once it expires —
        never a partial result.  A deadline that does not fire changes
        nothing: results are bit-identical to an un-deadlined run.
        """
        semantics = itsp_query.semantics
        if strategy is not None and self._itgraph is None:
            raise QueryError(
                "explicit TV-check strategies need the object-level IT-Graph "
                "(this engine was rehydrated from a compiled payload)"
            )
        if strategy is None:
            method_name = canonical_method(_normalise_method(method))
            semantics.validate_method(method_name)
            if self._compiled_enabled:
                started = time.perf_counter()
                group = self._plan_one(itsp_query, method_name)
                if self._cache is None:
                    result = self._search_one(group, deadline)
                else:
                    # lookup → promote → record → replay; a key not admitted
                    # yet runs the kernel.
                    result = self._executor().run_planned((group,), deadline)[0][1]
                result.statistics.runtime_seconds = time.perf_counter() - started
                return result
            if isinstance(semantics, NoWait):
                strategy = make_strategy(
                    method_name, self._itgraph, self._updater, self._walking_speed
                )
        elif not isinstance(semantics, NoWait):
            raise QueryError("explicit TV-check strategies answer only the no-wait semantics")
        started = time.perf_counter()
        result = self._search(itsp_query, strategy, deadline)
        result.statistics.runtime_seconds = time.perf_counter() - started
        return result

    @property
    def cache(self) -> Optional[SPTreeCache]:
        """The engine's shortest-path-tree cache (``None`` when caching is
        off or the compiled index is not yet built)."""
        return self._cache

    @property
    def cache_stats(self) -> Optional[Dict[str, object]]:
        """Hit/miss/build/eviction counters of the engine cache, or ``None``
        when caching is off."""
        if self._cache_config is not None:
            self.ensure_compiled()
        return self._cache.stats() if self._cache is not None else None

    def warm_cache(
        self,
        queries: List[ITSPQuery],
        method: MethodLike = CheckMethod.SYNCHRONOUS,
    ) -> int:
        """Record the shortest-path trees a workload will need, ahead of
        time; returns the number of trees built.

        Plans ``queries`` exactly as :meth:`run_batch` would and records one
        tree per group not already cached, regardless of the admission mode —
        warming is the explicit opt-in that bypasses promotion thresholds.
        """
        if not self._compiled_enabled:
            raise QueryError("cache warming requires the compiled fast path")
        self.ensure_compiled()
        if self._cache is None:
            raise QueryError("cache warming requires an engine cache (cache=... option)")
        method_name = canonical_method(_normalise_method(method))
        groups = self.batch_executor().planner.plan(list(queries), method_name)
        return self._cache.warm(groups)

    def _plan_one(self, itsp_query: ITSPQuery, method_name: str) -> BatchGroup:
        """Plan one query as a group of one (endpoint location included)."""
        return self._executor().planner.plan((itsp_query,), method_name)[0]

    def _search_one(
        self, group: BatchGroup, deadline: Optional[SearchDeadline] = None
    ) -> QueryResult:
        """Answer a group of one with the compiled kernel, no cache."""
        return run_group(
            self._compiled_graph,
            self._compiled_store,
            self._walking_speed,
            group,
            deadline,
            partition_once=self._partition_once,
        )[0]

    def batch_executor(self) -> BatchExecutor:
        """The engine's :class:`~repro.core.batch.BatchExecutor` (built lazily).

        The executor shares the engine's compiled index, snapshot store,
        walking speed and SP-tree cache, so repeated batches pay no
        per-batch setup beyond planning.
        """
        if not self._compiled_enabled:
            raise QueryError("batch execution requires the compiled fast path")
        if self._partition_once:
            raise QueryError("batch execution requires the standard expansion (partition_once=False)")
        return self._executor()

    def _executor(self) -> BatchExecutor:
        """The batch executor without the public accessor's mode checks:
        single queries plan through its planner on every compiled engine,
        the ``partition_once`` study mode included."""
        if self._batch_executor is None:
            self.ensure_compiled()
            self._batch_executor = BatchExecutor(
                self._compiled_graph,
                self._compiled_store,
                self._walking_speed,
                cache=self._cache,
            )
        return self._batch_executor

    def run_batch(
        self,
        queries: List[ITSPQuery],
        method: MethodLike = CheckMethod.SYNCHRONOUS,
        batch: bool = True,
        deadline: Optional[SearchDeadline] = None,
    ) -> List[QueryResult]:
        """Answer a list of queries with the same method.

        With ``batch=True`` (the default on a compiled engine) the workload
        runs through the :class:`~repro.core.batch.BatchExecutor`: queries
        are planned into common-source groups, each answered by one
        multi-target search.  Results are returned in
        input order and are bit-identical to sequential ``run`` calls (the
        parity suite enforces this); only ``runtime_seconds`` differs in
        meaning — it is the group's wall time amortised over its members.

        ``batch=False`` (and any non-compiled engine) keeps the sequential
        one-search-per-query path: each query is planned as a group of one
        and runs the same kernel, bypassing any cache.
        Either way the method/strategy resolution is hoisted out of the
        per-query loop — it is resolved exactly once per call.

        Every call leaves an :class:`ExecutionReport` on
        :attr:`last_execution_report` describing how the workload was
        executed.

        ``deadline`` is the cooperative budget shared by the whole call
        (batched, sequential compiled or reference).
        """
        method_name = canonical_method(_normalise_method(method))
        started_call = time.perf_counter()
        dispatch_unix = time.time()
        if self._compiled_enabled:
            if batch and self._partition_once:
                # The multi-target batch search shares one expansion across
                # members, which is incompatible with the literal-Algorithm-1
                # per-query partition pruning: run the study mode one compiled
                # search per query instead.
                batch = False
            if batch:
                batch_executor = self.batch_executor()
                results = batch_executor.run_batch(queries, method_name, deadline=deadline)
                self._last_execution_report = ExecutionReport(
                    mode="batched",
                    queries=len(queries),
                    groups=batch_executor.last_group_count,
                    dispatch_unix=dispatch_unix,
                    elapsed_seconds=time.perf_counter() - started_call,
                )
                return results
            results = []
            for query in queries:
                started = time.perf_counter()
                result = self._search_one(self._plan_one(query, method_name), deadline)
                result.statistics.runtime_seconds = time.perf_counter() - started
                results.append(result)
        else:
            # Reference engine: one strategy instance, reset per query by
            # ``begin_query`` — identical results to per-query construction.
            # Non-default semantics run the probe-kernel path instead.
            strategy = make_strategy(
                method_name, self._itgraph, self._updater, self._walking_speed
            )
            results = []
            for query in queries:
                started = time.perf_counter()
                if isinstance(query.semantics, NoWait):
                    result = self._search(query, strategy, deadline)
                else:
                    query.semantics.validate_method(method_name)
                    result = self._search(query, None, deadline)
                result.statistics.runtime_seconds = time.perf_counter() - started
                results.append(result)
        self._last_execution_report = ExecutionReport(
            mode="sequential",
            queries=len(queries),
            groups=len(queries),
            dispatch_unix=dispatch_unix,
            elapsed_seconds=time.perf_counter() - started_call,
        )
        return results

    # -- the search (Algorithm 1) ----------------------------------------------------------

    def _search(
        self,
        itsp_query: ITSPQuery,
        strategy: Optional[TVCheckStrategy],
        deadline: Optional[SearchDeadline] = None,
    ) -> QueryResult:
        itgraph = self._itgraph
        topology = itgraph.topology
        query_time = itsp_query.query_time
        semantics = itsp_query.semantics
        anchor_point, goal_point = semantics.search_endpoints(itsp_query)
        stats = SearchStatistics()

        try:
            source_partition = itgraph.covering_partition(anchor_point)
            target_partition = itgraph.covering_partition(goal_point)
        except UnknownEntityError as exc:
            raise QueryError(f"query endpoint outside the indoor space: {exc}") from exc

        source_pid = source_partition.partition_id
        target_pid = target_partition.partition_id
        allowed_private = {source_pid, target_pid}

        if strategy is not None:
            # No-wait queries keep the pluggable TV-check strategies (the
            # reusable standalone API, including custom strategies); the
            # probe wrapper gives them the same kernel shape as every other
            # semantics without changing a single float or counter.
            strategy.begin_query(query_time)
            method_label = strategy.method_label

            def probe(door_id: str, cost: float) -> Optional[float]:
                return cost if strategy.is_passable(door_id, cost, query_time) else None

            probe_counters = None
        else:
            method_label = COMPILED_KINDS["synchronous"][1]
            probe, probe_counters = make_reference_probe(
                semantics, itgraph, query_time.seconds, self._walking_speed
            )

        def finish(result: QueryResult) -> QueryResult:
            if probe_counters is None:
                stats.merge_strategy_counters(strategy.counters())
            else:
                stats.ati_probes += probe_counters[0]
                stats.snapshot_refreshes += probe_counters[1]
                stats.membership_checks += probe_counters[2]
            return semantics.finalise_result(result, self._walking_speed)

        dist: Dict[str, float] = {SOURCE_NODE: 0.0}
        prev: Dict[str, Tuple[str, str]] = {}
        settled: set = set()
        visited_partitions: set = set()
        heap: List[Tuple[float, int, str]] = []
        tie_breaker = itertools.count()
        heapq.heappush(heap, (0.0, next(tie_breaker), SOURCE_NODE))
        stats.heap_pushes += 1
        stats.peak_heap_size = max(stats.peak_heap_size, len(heap))

        def relax(node: str, new_distance: float, previous: str, via_partition: str) -> None:
            """Relax ``node`` with a candidate distance (no temporal check here)."""
            if new_distance < dist.get(node, _INFINITY):
                dist[node] = new_distance
                prev[node] = (previous, via_partition)
                heapq.heappush(heap, (new_distance, next(tie_breaker), node))
                stats.heap_pushes += 1
                stats.peak_heap_size = max(stats.peak_heap_size, len(heap))

        # A door-free direct path when both endpoints share a partition.
        if source_pid == target_pid and anchor_point.floor == goal_point.floor:
            direct = anchor_point.point2d.distance_to(goal_point.point2d)
            relax(TARGET_NODE, direct, SOURCE_NODE, source_pid)

        while heap:
            if deadline is not None:
                deadline.tick()
            distance, _, node = heapq.heappop(heap)
            stats.heap_pops += 1
            if node in settled or distance > dist.get(node, _INFINITY):
                continue
            settled.add(node)

            if node == TARGET_NODE:
                path = self._reconstruct(itsp_query, dist, prev, method_label)
                return finish(
                    QueryResult(
                        query=itsp_query,
                        method_label=method_label,
                        found=True,
                        path=path,
                        length=distance,
                        statistics=stats,
                    )
                )

            if node == SOURCE_NODE:
                self._expand_source(anchor_point, source_pid, probe, relax, stats)
                continue

            # ``node`` is a door with a settled (shortest) distance label.
            stats.doors_settled += 1
            door_distance = dist[node]

            for partition_id in topology.enterable_partitions(node):
                # ``partition_once`` checks membership inline (instead of
                # pre-filtering the frozenset) so the compiled search — whose
                # adjacency preserves this iteration order — stays bit-parity.
                if self._partition_once and partition_id in visited_partitions:
                    continue
                record = itgraph.partition_record(partition_id)
                if record.is_outdoor:
                    continue
                if record.is_private and partition_id not in allowed_private:
                    stats.private_partitions_pruned += 1
                    continue
                if self._partition_once:
                    visited_partitions.add(partition_id)
                stats.partitions_expanded += 1

                if partition_id == target_pid:
                    final_leg = self._safe_point_to_door(goal_point, node, partition_id)
                    if final_leg is not None:
                        relax(TARGET_NODE, door_distance + final_leg, node, partition_id)
                    if self._partition_once:
                        # Lines 20-24: a door adjacent to the target partition
                        # only relaxes p_t in the literal algorithm.
                        continue

                self._expand_partition(
                    node, partition_id, door_distance, probe, relax, settled, stats
                )

        # Heap exhausted without settling the target: no valid route exists
        # under the search semantics ("no such routes" in the paper).
        return finish(
            QueryResult(
                query=itsp_query,
                method_label=method_label,
                found=False,
                path=None,
                length=_INFINITY,
                statistics=stats,
            )
        )

    # -- expansion helpers ---------------------------------------------------------------------

    def _expand_source(
        self,
        anchor_point: IndoorPoint,
        source_pid: str,
        probe,
        relax,
        stats: SearchStatistics,
    ) -> None:
        """Expand from the anchor point across the leaveable doors of ``P(p_s)``."""
        topology = self._itgraph.topology
        stats.partitions_expanded += 1
        for door_id in topology.leaveable_doors(source_pid):
            leg = self._safe_point_to_door(anchor_point, door_id, source_pid)
            if leg is None:
                continue
            stats.relaxations += 1
            cost = probe(door_id, leg)
            if cost is None:
                stats.temporally_pruned_doors += 1
                continue
            relax(door_id, cost, SOURCE_NODE, source_pid)

    def _expand_partition(
        self,
        door_id: str,
        partition_id: str,
        door_distance: float,
        probe,
        relax,
        settled: set,
        stats: SearchStatistics,
    ) -> None:
        """Relax every leaveable door of ``partition_id`` reachable from ``door_id``."""
        itgraph = self._itgraph
        topology = itgraph.topology
        for next_door in topology.leaveable_doors(partition_id):
            if next_door == door_id or next_door in settled:
                continue
            try:
                leg = itgraph.intra_distance(partition_id, door_id, next_door)
            except UnknownEntityError:
                continue
            candidate = door_distance + leg
            stats.relaxations += 1
            # Algorithm 1 performs the temporal check before the distance
            # improvement test; keep that order so the per-method checking
            # work matches the paper's cost profile.
            cost = probe(next_door, candidate)
            if cost is None:
                stats.temporally_pruned_doors += 1
                continue
            relax(next_door, cost, door_id, partition_id)

    def _safe_point_to_door(
        self, point: IndoorPoint, door_id: str, partition_id: str
    ) -> Optional[float]:
        """Point-to-door distance, or ``None`` when undefined (cross-floor doors
        of staircase partitions)."""
        try:
            return self._itgraph.point_to_door(point, door_id, partition_id)
        except UnknownEntityError:
            return None

    # -- path reconstruction ----------------------------------------------------------------------

    def _reconstruct(
        self,
        itsp_query: ITSPQuery,
        dist: Dict[str, float],
        prev: Dict[str, Tuple[str, str]],
        method_label: str,
    ) -> IndoorPath:
        """Rebuild the path from the predecessor labels (lines 11-17).

        The path is anchor-rooted: under forward semantics the anchor is the
        query source and this *is* the user-facing path; latest-departure
        paths are re-oriented by ``finalise_result``.
        """
        semantics = itsp_query.semantics
        anchor_point, goal_point = semantics.search_endpoints(itsp_query)
        query_seconds = itsp_query.query_time.seconds
        # Walk back from the target to the source, collecting (node, via_partition).
        chain: List[Tuple[str, str]] = []
        node = TARGET_NODE
        while node != SOURCE_NODE:
            previous, via_partition = prev[node]
            chain.append((node, via_partition))
            node = previous
        chain.reverse()

        hops: List[PathHop] = []
        for index, (node, via_partition) in enumerate(chain):
            if node == TARGET_NODE:
                break
            # ``node`` is a door; the partition entered through it is recorded
            # on the *next* element of the chain.
            next_via = chain[index + 1][1]
            if isinstance(semantics, NoWait):
                arrival = itsp_query.query_time.add_seconds(dist[node] / self._walking_speed)
            else:
                offset = dist[node] / self._walking_speed
                arrival = TimeOfDay._from_seconds_unchecked(
                    query_seconds + offset if semantics.forward else query_seconds - offset
                )
            hops.append(
                PathHop(
                    door_id=node,
                    from_partition=via_partition,
                    to_partition=next_via,
                    distance_from_source=dist[node],
                    arrival_time=arrival,
                )
            )

        return IndoorPath(
            source=anchor_point,
            target=goal_point,
            query_time=itsp_query.query_time,
            hops=hops,
            total_length=dist[TARGET_NODE],
            method_label=method_label,
        )
