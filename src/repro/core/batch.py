"""Batch execution of ITSPQ queries over one compiled IT-Graph.

For service-style workloads (many users asking routes from the same
entrances at the same moment) most per-query searches repeat each other.
This module shares that work:

:class:`BatchPlanner`
    Groups a workload by (anchor location, effective query time, TV-check
    method, temporal semantics, private-partition context).  Queries in one
    group provably share
    their entire door-level search trajectory; only the target legs differ.
    Time-independent methods (``static``) collapse all query times into one
    group; the ``query-time`` snapshot method groups by the global
    ATI-boundary interval containing the query instant (probe outcomes are
    constant inside it); the arrival-time-exact methods (ITG/S, ITG/A) group
    by the exact query second.

:class:`BatchExecutor`
    Answers each group with a **single multi-target search** — the one
    compiled loop, :func:`repro.core.kernel.run_group` — terminating early
    once every target in the group is settled, or replays it from the
    shortest-path-tree cache when one is attached.  Per-query search
    statistics are reconstructed *exactly* (see :mod:`repro.core.kernel`):
    each returned :class:`~repro.core.query.QueryResult` is bit-identical
    (path, length and all counters) to what a sequential ``engine.run``
    would have produced, which ``tests/test_batch_parity.py`` enforces.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.constants import WALKING_SPEED_MPS
from repro.core.cache import CacheConfig, SPTreeCache, TimeKeyResolver
from repro.core.compiled import COMPILED_KINDS, CompiledITGraph
from repro.core.deadline import SearchDeadline
from repro.core.kernel import run_group
from repro.core.query import ITSPQuery, QueryResult
from repro.core.semantics import NO_WAIT, TemporalSemantics
from repro.core.snapshot import CompiledSnapshotStore
from repro.exceptions import QueryError, UnknownEntityError


class BatchGroup:
    """One shared-trajectory unit of a batch plan.

    All members share the anchor point (the query source, or the target
    under latest-departure semantics), the TV-check method, the temporal
    semantics, the effective query time (exactly for ITG/S and ITG/A, up to
    probe-equivalence for the snapshot methods) and the private-partition
    context, so a single multi-target search answers all of them.
    """

    __slots__ = (
        "kind",
        "method_label",
        "source",
        "source_pidx",
        "rep_seconds",
        "allowed_private",
        "members",
        "sequence",
        "cache_key",
        "semantics",
    )

    def __init__(
        self,
        kind,
        method_label,
        source,
        source_pidx,
        rep_seconds,
        allowed_private,
        sequence=-1,
        cache_key=None,
        semantics: TemporalSemantics = NO_WAIT,
    ):
        self.kind = kind
        self.method_label = method_label
        self.source = source
        self.source_pidx = source_pidx
        #: Probe instant shared by the group (any member's query second for
        #: the time-bucketed kinds — provably probe-equivalent).
        self.rep_seconds = rep_seconds
        self.allowed_private = allowed_private
        self.members: List[Tuple[int, ITSPQuery, int]] = []
        #: Plan-order index stamped by :class:`BatchPlanner` — the stable
        #: identity the supervised parallel executor uses to name a group in
        #: retry bookkeeping and failure diagnostics.
        self.sequence = sequence
        #: The planner's group key — also the address of this group's
        #: shortest-path tree in an :class:`~repro.core.cache.SPTreeCache`
        #: (plain floats/ints plus the frozen semantics value object, so it
        #: pickles with the group).
        self.cache_key = cache_key
        #: The temporal semantics every member runs under — part of the group
        #: key, so it travels with pickled groups to parallel workers.
        self.semantics = semantics

    @property
    def size(self) -> int:
        """Number of member queries."""
        return len(self.members)


class BatchPlanner:
    """Groups a workload into shared-trajectory :class:`BatchGroup` units.

    Effective-time bucketing is delegated to a
    :class:`~repro.core.cache.TimeKeyResolver` — ``query-time`` queries
    group by the checkpoint-interval index
    (:meth:`~repro.core.snapshot.IntervalBitsets.index_at`) whenever that is
    provably lossless, falling back to the merged-ATI-boundary bisection
    otherwise — so groups and shortest-path-tree cache entries share one
    address space: every group key is also a cache key.
    """

    def __init__(
        self,
        compiled_graph: CompiledITGraph,
        time_keys: Optional[TimeKeyResolver] = None,
    ):
        self._graph = compiled_graph
        self._time_keys = time_keys if time_keys is not None else TimeKeyResolver(compiled_graph)

    @property
    def time_keys(self) -> TimeKeyResolver:
        """The effective-time resolver groups and cache entries share."""
        return self._time_keys

    def plan(self, queries: Sequence[ITSPQuery], method_name: str) -> List[BatchGroup]:
        """Partition ``queries`` (one canonical method) into batch groups.

        Endpoint location runs here, once per *distinct* endpoint, through
        the compiled grid index (workloads reuse the same entrances and
        points of interest over and over, so location is cached per batch);
        a query endpoint outside the indoor space raises
        :class:`~repro.exceptions.QueryError` before anything executes.
        Group order follows first appearance, members keep input order, so
        planning is deterministic.
        """
        try:
            kind, method_label = COMPILED_KINDS[method_name]
        except KeyError:
            raise ValueError(f"unknown TV-check method {method_name!r}") from None
        graph = self._graph
        locate = graph.locate_index
        private = graph.partition_private
        located: Dict[Tuple[float, float, int], int] = {}
        groups: Dict[tuple, BatchGroup] = {}
        for index, query in enumerate(queries):
            semantics = query.semantics
            semantics.validate_method(method_name)
            # The search is rooted at the semantics' anchor (the source, or
            # the target under latest-departure); the goal is relaxed like a
            # target regardless of which query endpoint it is.
            anchor, goal = semantics.search_endpoints(query)
            try:
                point_key = (anchor.x, anchor.y, anchor.floor)
                source_pidx = located.get(point_key)
                if source_pidx is None:
                    source_pidx = located[point_key] = locate(anchor)
                point_key = (goal.x, goal.y, goal.floor)
                target_pidx = located.get(point_key)
                if target_pidx is None:
                    target_pidx = located[point_key] = locate(goal)
            except UnknownEntityError as exc:
                raise QueryError(f"query endpoint outside the indoor space: {exc}") from exc
            query_seconds = query.query_time.seconds
            time_key = self._time_keys.key(kind, query_seconds)
            # Queries whose goal partition is private widen the search's
            # allowed-private set, changing the shared trajectory; they may
            # only share a run with queries widening it identically.
            privacy_key = (
                target_pidx if private[target_pidx] and target_pidx != source_pidx else -1
            )
            key = (kind, anchor.x, anchor.y, anchor.floor, time_key, privacy_key, semantics)
            group = groups.get(key)
            if group is None:
                allowed = (
                    frozenset((source_pidx,))
                    if privacy_key < 0
                    else frozenset((source_pidx, target_pidx))
                )
                group = BatchGroup(
                    kind,
                    method_label,
                    anchor,
                    source_pidx,
                    query_seconds,
                    allowed,
                    len(groups),
                    cache_key=key,
                    semantics=semantics,
                )
                groups[key] = group
            group.members.append((index, query, target_pidx))
        return list(groups.values())


class BatchExecutor:
    """Answers ITSPQ workloads by planned multi-target searches over one
    :class:`~repro.core.compiled.CompiledITGraph`.

    The executor owns a :class:`~repro.core.snapshot.CompiledSnapshotStore`
    for the ITG/A interval probes; search state is allocated per group run,
    so nothing carries over between groups or calls.  Results are returned in input order and are
    bit-identical — paths, lengths and every
    :class:`~repro.core.query.SearchStatistics` counter — to sequential
    ``ITSPQEngine.run`` calls; ``runtime_seconds`` is the only field with
    different semantics (the group's wall time amortised over its members).
    """

    def __init__(
        self,
        compiled_graph: CompiledITGraph,
        store: Optional[CompiledSnapshotStore] = None,
        walking_speed: float = WALKING_SPEED_MPS,
        cache=None,
    ):
        if walking_speed <= 0:
            raise ValueError(f"walking speed must be positive, got {walking_speed}")
        self._graph = compiled_graph
        self._store = store if store is not None else compiled_graph.interval_bitsets.store()
        self._speed = walking_speed
        # ``cache`` accepts an engine-owned SPTreeCache (shared entries), a
        # CacheConfig (the executor builds its own — the parallel workers'
        # path), or None (no caching; identical to the pre-cache executor).
        if cache is None:
            self._cache: Optional[SPTreeCache] = None
        elif isinstance(cache, SPTreeCache):
            self._cache = cache
        elif isinstance(cache, CacheConfig):
            self._cache = SPTreeCache(compiled_graph, self._store, walking_speed, cache)
        else:
            raise TypeError(f"cache must be an SPTreeCache, CacheConfig or None, got {cache!r}")
        self._planner = BatchPlanner(
            compiled_graph, self._cache.resolver if self._cache is not None else None
        )
        #: Group count of the most recent run (planned here or handed in via
        #: :meth:`run_planned`) — observability for execution reports.
        self.last_group_count = 0

    @property
    def graph(self) -> CompiledITGraph:
        """The compiled graph all batches run over."""
        return self._graph

    @property
    def planner(self) -> BatchPlanner:
        """The workload planner (exposed for plan introspection in tests)."""
        return self._planner

    @property
    def cache(self) -> Optional[SPTreeCache]:
        """The shortest-path-tree cache consulted before each group's search
        (``None`` when caching is off)."""
        return self._cache

    def run_batch(
        self,
        queries: Sequence[ITSPQuery],
        method_name: str,
        deadline: Optional[SearchDeadline] = None,
    ) -> List[QueryResult]:
        """Answer ``queries`` (canonical ``method_name``) and return results
        in input order.  ``deadline`` is the cooperative budget shared by
        the whole call — expiry raises
        :class:`~repro.exceptions.DeadlineExceededError`, never a partial
        result list."""
        results: List[Optional[QueryResult]] = [None] * len(queries)
        for order, result in self.run_planned(
            self._planner.plan(queries, method_name), deadline=deadline
        ):
            results[order] = result
        return results  # type: ignore[return-value]

    def run_planned(
        self,
        groups: Sequence[BatchGroup],
        deadline: Optional[SearchDeadline] = None,
    ) -> List[Tuple[int, QueryResult]]:
        """Execute already-planned groups; returns ``(member order, result)``
        pairs in group-plan order.

        This is the unit of work the multiprocess executor
        (:mod:`repro.core.parallel`) ships to workers: groups are
        self-contained, so any subset can run in any process and the pairs
        merge deterministically by member order.  ``runtime_seconds`` is the
        group's wall time amortised over its members, as in
        :meth:`run_batch`.

        An armed ``deadline`` is polled inside every group's search (and any
        cache recording run); an aborted run leaves no state behind, so the
        executor stays fully usable after an expiry.
        """
        self.last_group_count = len(groups)
        cache = self._cache
        pairs: List[Tuple[int, QueryResult]] = []
        for group in groups:
            started = time.perf_counter()
            tree = None
            if cache is not None and group.cache_key is not None:
                tree = cache.lookup(group.cache_key)
                if tree is None and cache.should_build(group.cache_key):
                    tree = cache.build(group, deadline=deadline)
            if tree is not None:
                results = [
                    cache.answer(tree, query, target_pidx)
                    for _order, query, target_pidx in group.members
                ]
            else:
                results = run_group(self._graph, self._store, self._speed, group, deadline)
            elapsed = (time.perf_counter() - started) / len(results)
            for (order, _query, _target_pidx), result in zip(group.members, results):
                result.statistics.runtime_seconds = elapsed
                pairs.append((order, result))
        return pairs
