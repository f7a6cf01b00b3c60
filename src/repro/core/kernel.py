"""The compiled door-level search: Algorithm 1 over the integer-indexed graph.

Every compiled tier answers ITSPQ through the one loop in :func:`run_group`:

* ``ITSPQEngine.run`` and ``run_batch(batch=False)`` plan each query as a
  group of one (:class:`~repro.core.batch.BatchPlanner`) and run it here,
  the ``partition_once`` study mode included;
* :class:`~repro.core.batch.BatchExecutor` runs each planned common-anchor
  group as one multi-target search that stops once every member's target
  has settled;
* :class:`~repro.core.cache.SPTreeCache` records a tree by running a group
  with no targets to exhaustion while an :class:`EventLog` is filled.

The loop relaxes exactly as the reference ``ITSPQEngine._search`` does —
the same probe kernel (:func:`repro.core.semantics.make_edge_probe`), the
same check-before-relax order, the same tie-breaking (the compiled adjacency
preserves the reference iteration order) — so every tier returns paths,
lengths and :class:`~repro.core.query.SearchStatistics` bit-identical to
the reference engine.  The hot loop touches only list-indexed floats and
ints, allocated per run: an aborted run (an expired deadline) leaves
nothing behind for the next one.

Why exact per-member statistics come out of one shared run: target nodes
never relax anything, so the door-level event sequence (settles,
relaxations, temporal checks, pushes and pops of door entries) of the shared
search is identical to every member's private search, truncated at the
moment that member's target settles.  The loop therefore snapshots the
shared counters at each target's settling pop and adds the member's own
target-entry bookkeeping (pushes, the settling pop and the heap-occupancy
contribution of its target entries) on top.  The only subtle quantity is
``peak_heap_size``: for a member with ``k`` live target entries the virtual
heap size is ``D + k`` where ``D`` is the shared source/door occupancy, so
the loop tracks a prefix maximum of ``D`` for the (long) phase before a
member's target is first discovered and per-member maxima for the (short)
phase afterwards.
"""

from __future__ import annotations

from collections import defaultdict
from heapq import heappop, heappush
from math import hypot
from typing import Dict, List, Optional

from repro.core.deadline import SearchDeadline
from repro.core.path import IndoorPath, PathHop
from repro.core.query import ITSPQuery, QueryResult, SearchStatistics
from repro.core.semantics import derive_counters, make_edge_probe
from repro.temporal.timeofday import TimeOfDay

_INFINITY = float("inf")


class _Target:
    """Per-member search state of one query inside a group."""

    __slots__ = ("query", "target_pidx", "tnode", "tx", "ty", "tfloor", "settled", "t_count", "peak")

    def __init__(self, query, target_pidx, tnode, point):
        self.query = query
        self.target_pidx = target_pidx
        self.tnode = tnode
        self.tx = point.x
        self.ty = point.y
        self.tfloor = point.floor
        self.settled = False
        self.t_count = 0
        self.peak = 0


class EventLog:
    """What a recording run — a group run with no targets, to exhaustion —
    leaves behind for :class:`~repro.core.cache.SPTreeCache`.

    ``events`` holds one tuple per heap pop, stale pops included:
    ``(pop distance, push index, doors settled, relaxations, pushes,
    partitions expanded, private pruned, temporally pruned, ATI probes,
    snapshot refreshes, membership checks)`` with every counter sampled
    *before* the pop; ``totals`` holds the nine counters after the last pop.
    ``rows`` maps each partition to its chronological target-relax
    opportunities ``(door, door distance, pushes so far, heap occupancy)``;
    ``dist`` / ``prev_node`` / ``prev_part`` are the final labels.
    """

    __slots__ = ("events", "rows", "totals", "dist", "prev_node", "prev_part")

    def __init__(self):
        self.events: List[tuple] = []
        self.rows: Dict[int, list] = defaultdict(list)
        self.totals: tuple = ()
        self.dist: List[float] = []
        self.prev_node: List[int] = []
        self.prev_part: List[int] = []


def run_group(
    graph,
    store,
    speed: float,
    group,
    deadline: Optional[SearchDeadline] = None,
    partition_once: bool = False,
    log: Optional[EventLog] = None,
) -> List[QueryResult]:
    """Run one planned :class:`~repro.core.batch.BatchGroup` and return its
    members' results in member order.

    ``partition_once`` runs the literal Algorithm 1 (lines 18–24): each
    partition is expanded only from the first door that settles into it,
    and a door next to the target partition on the target's floor relaxes
    only the target.  It is meant for groups of one.

    With ``log`` the members are ignored: the search runs with no targets
    until the heap is empty, fills ``log`` and returns an empty list.
    """
    kind = group.kind
    semantics = group.semantics
    door_count = graph.door_count
    source_node = door_count
    source_pidx = group.source_pidx
    source = group.source
    source_x, source_y, source_floor = source.x, source.y, source.floor
    allowed_private = group.allowed_private

    # ``watched`` flags the partitions whose expansions matter beyond their
    # edges: the members' target partitions, or every partition when
    # recording (each expansion is a row of the log).
    targets: List[_Target] = []
    targets_by_pidx: Dict[int, List[_Target]] = {}
    if log is None:
        watched = bytearray(graph.partition_count)
        for _order, query, target_pidx in group.members:
            record = _Target(
                query,
                target_pidx,
                source_node + 1 + len(targets),
                semantics.search_endpoints(query)[1],
            )
            targets.append(record)
            targets_by_pidx.setdefault(target_pidx, []).append(record)
            watched[target_pidx] = 1
        events = rows = None
    else:
        watched = b"\x01" * graph.partition_count
        events = log.events
        rows = log.rows
    targets_get = targets_by_pidx.get

    node_count = source_node + 1 + len(targets)
    dist: List[float] = [_INFINITY] * node_count
    prev_node: List[int] = [-1] * node_count
    prev_part: List[int] = [-1] * node_count
    settled = bytearray(node_count)
    visited = bytearray(graph.partition_count) if partition_once else None

    adjacency = graph.adjacency
    door_x = graph.door_x
    door_y = graph.door_y
    door_floor = graph.door_floor
    # Local aliases: the loop below runs once per pop and per relaxation.
    push = heappush
    pop = heappop

    # -- shared counters (source/door events only) --------------------------
    # ``occupancy`` is the number of source/door entries currently in the
    # heap; ``prefix_peak`` its running maximum over pushes — the peak heap
    # size of any member whose target is still undiscovered.
    shared_pushes = 1  # the initial SOURCE push
    shared_pops = 0
    occupancy = 1
    prefix_peak = 1
    doors_settled = 0
    relaxations = 0
    partitions_expanded = 0
    private_pruned = 0
    temporally_pruned = 0
    #: Members whose target entered the heap and is not yet settled; only
    #: these need per-push peak updates (the phase is short: a discovered
    #: target settles as soon as no closer door entry remains).
    hot: List[_Target] = []
    results: List[Optional[QueryResult]] = [None] * len(targets)

    # Feasibility/pricing per the group's semantics and TV-check kind — see
    # make_edge_probe for which probe counters are counted live (snapshotted
    # per member below) and which are derived from ``relaxations``.
    probe, probe_counters = make_edge_probe(
        semantics,
        kind,
        graph.ati_bounds,
        group.rep_seconds,
        speed,
        interval_at=store.interval_at if kind == 1 else None,
    )

    heap = [(0.0, 0, source_node)]
    dist[source_node] = 0.0
    tie = 1

    # A door-free direct leg for members whose endpoints share a partition.
    for record in targets:
        if record.target_pidx == source_pidx and record.tfloor == source_floor:
            direct = hypot(source_x - record.tx, source_y - record.ty)
            tnode = record.tnode
            dist[tnode] = direct
            prev_node[tnode] = source_node
            prev_part[tnode] = source_pidx
            push(heap, (direct, tie, tnode))
            tie += 1
            record.t_count = 1
            record.peak = prefix_peak if prefix_peak > occupancy + 1 else occupancy + 1
            hot.append(record)

    remaining = len(targets)
    while heap:
        if deadline is not None:
            deadline.tick()
        distance, entry_tie, node = pop(heap)
        if node > source_node:
            # A member's target entry.  Stale entries (superseded pushes or
            # entries of an already-settled member) are invisible to every
            # member's private accounting.
            index = node - source_node - 1
            record = targets[index]
            if record.settled or distance > dist[node]:
                continue
            record.settled = True
            hot.remove(record)
            remaining -= 1
            results[index] = QueryResult(
                query=record.query,
                method_label=group.method_label,
                found=True,
                path=None,  # reconstructed after the run
                length=distance,
                statistics=SearchStatistics(
                    doors_settled=doors_settled,
                    relaxations=relaxations,
                    heap_pushes=shared_pushes + record.t_count,
                    heap_pops=shared_pops + 1,
                    partitions_expanded=partitions_expanded,
                    private_partitions_pruned=private_pruned,
                    temporally_pruned_doors=temporally_pruned,
                    ati_probes=probe_counters[0],
                    snapshot_refreshes=probe_counters[1],
                    membership_checks=probe_counters[2],
                    peak_heap_size=record.peak,
                ),
            )
            if remaining == 0:
                break
            continue

        if events is not None:
            events.append(
                (
                    distance,
                    entry_tie,
                    doors_settled,
                    relaxations,
                    shared_pushes,
                    partitions_expanded,
                    private_pruned,
                    temporally_pruned,
                    probe_counters[0],
                    probe_counters[1],
                    probe_counters[2],
                )
            )
        shared_pops += 1
        occupancy -= 1
        if settled[node] or distance > dist[node]:
            continue
        settled[node] = 1

        if node == source_node:
            partitions_expanded += 1
            for door_idx in graph.leaveable_by_partition[source_pidx]:
                if door_floor[door_idx] != source_floor:
                    continue
                leg = hypot(source_x - door_x[door_idx], source_y - door_y[door_idx])
                relaxations += 1
                leg = probe(door_idx, leg)
                if leg is None:
                    temporally_pruned += 1
                    continue
                if leg < dist[door_idx]:
                    dist[door_idx] = leg
                    prev_node[door_idx] = source_node
                    prev_part[door_idx] = source_pidx
                    push(heap, (leg, tie, door_idx))
                    tie += 1
                    shared_pushes += 1
                    occupancy += 1
                    if occupancy > prefix_peak:
                        prefix_peak = occupancy
                    if hot:
                        for record in hot:
                            peak = occupancy + record.t_count
                            if peak > record.peak:
                                record.peak = peak
            continue

        # ``node`` is a door with a settled (shortest) distance label.
        doors_settled += 1
        door_distance = dist[node]
        for partition_idx, is_private, edges in adjacency[node]:
            if is_private and partition_idx not in allowed_private:
                private_pruned += 1
                continue
            if partition_once:
                # A pruned private partition is never marked, so testing the
                # mark after the privacy check keeps the reference counts.
                if visited[partition_idx]:
                    continue
                visited[partition_idx] = 1
            partitions_expanded += 1

            if watched[partition_idx]:
                tlist = targets_get(partition_idx)
                if tlist is None:
                    # Recording: the target-relax opportunity of this (door,
                    # partition) expansion — a member targeting
                    # ``partition_idx`` would push here, before the edges.
                    rows[partition_idx].append((node, door_distance, shared_pushes, occupancy))
                else:
                    dfloor = door_floor[node]
                    for record in tlist:
                        if record.settled or dfloor != record.tfloor:
                            continue
                        candidate = door_distance + hypot(
                            record.tx - door_x[node], record.ty - door_y[node]
                        )
                        tnode = record.tnode
                        if candidate < dist[tnode]:
                            dist[tnode] = candidate
                            prev_node[tnode] = node
                            prev_part[tnode] = partition_idx
                            push(heap, (candidate, tie, tnode))
                            tie += 1
                            if record.t_count:
                                record.t_count += 1
                                peak = occupancy + record.t_count
                                if peak > record.peak:
                                    record.peak = peak
                            else:
                                record.t_count = 1
                                record.peak = (
                                    prefix_peak if prefix_peak > occupancy + 1 else occupancy + 1
                                )
                                hot.append(record)
                    if partition_once and dfloor == tlist[0].tfloor:
                        # Lines 20-24: a door adjacent to the target partition
                        # only relaxes p_t in the literal algorithm.
                        continue

            for next_idx, leg in edges:
                if settled[next_idx]:
                    continue
                candidate = door_distance + leg
                relaxations += 1
                candidate = probe(next_idx, candidate)
                if candidate is None:
                    temporally_pruned += 1
                    continue
                if candidate < dist[next_idx]:
                    dist[next_idx] = candidate
                    prev_node[next_idx] = node
                    prev_part[next_idx] = partition_idx
                    push(heap, (candidate, tie, next_idx))
                    tie += 1
                    shared_pushes += 1
                    occupancy += 1
                    if occupancy > prefix_peak:
                        prefix_peak = occupancy
                    if hot:
                        for record in hot:
                            peak = occupancy + record.t_count
                            if peak > record.peak:
                                record.peak = peak

    if log is not None:
        log.totals = (
            doors_settled,
            relaxations,
            shared_pushes,
            partitions_expanded,
            private_pruned,
            temporally_pruned,
            probe_counters[0],
            probe_counters[1],
            probe_counters[2],
        )
        log.dist = dist
        log.prev_node = prev_node
        log.prev_part = prev_part
        return []

    # -- finalisation -------------------------------------------------------
    # Probe counters that are exact functions of the relaxation count are
    # patched into each member's snapshot (see derive_counters); every
    # result then runs through the semantics' finalise hook (a no-op for
    # forward semantics).
    for index, record in enumerate(targets):
        result = results[index]
        if result is not None:
            derive_counters(semantics, kind, result.statistics)
            tnode = record.tnode
            result.path = reconstruct_path(
                graph,
                speed,
                record.query,
                group.method_label,
                dist,
                prev_node,
                prev_part,
                prev_node[tnode],
                prev_part[tnode],
                result.length,
            )
        else:
            # Heap exhausted: no valid route for this member.  Its private
            # search would have run the identical full trajectory.
            stats = SearchStatistics(
                doors_settled=doors_settled,
                relaxations=relaxations,
                heap_pushes=shared_pushes,
                heap_pops=shared_pops,
                partitions_expanded=partitions_expanded,
                private_partitions_pruned=private_pruned,
                temporally_pruned_doors=temporally_pruned,
                ati_probes=probe_counters[0],
                snapshot_refreshes=probe_counters[1],
                membership_checks=probe_counters[2],
                peak_heap_size=prefix_peak,
            )
            derive_counters(semantics, kind, stats)
            result = QueryResult(
                query=record.query,
                method_label=group.method_label,
                found=False,
                path=None,
                length=_INFINITY,
                statistics=stats,
            )
        results[index] = semantics.finalise_result(result, speed)
    return results  # type: ignore[return-value]


def reconstruct_path(
    graph,
    speed: float,
    query: ITSPQuery,
    method_label: str,
    dist,
    prev_node,
    prev_part,
    node: int,
    entered: int,
    length: float,
) -> IndoorPath:
    """Rebuild a path from predecessor labels (Algorithm 1, lines 11-17).

    ``node`` is the last door before the goal (the source sentinel for a
    door-free path) and ``entered`` the goal's partition.  Arrival times are
    stamped with the query's own second, so members of a time-bucketed group
    get their own.  The path is anchor-rooted: ``finalise_result``
    re-orients latest-departure paths afterwards.
    """
    semantics = query.semantics
    anchor_point, goal_point = semantics.search_endpoints(query)
    forward = semantics.forward
    query_seconds = query.query_time.seconds
    door_ids = graph.door_ids
    partition_ids = graph.partition_ids
    from_seconds = TimeOfDay._from_seconds_unchecked
    source_node = graph.door_count
    hops: List[PathHop] = []
    while node != source_node:
        via = prev_part[node]
        offset = dist[node] / speed
        hops.append(
            PathHop(
                door_ids[node],
                partition_ids[via],
                partition_ids[entered],
                dist[node],
                from_seconds(query_seconds + offset if forward else query_seconds - offset),
            )
        )
        entered = via
        node = prev_node[node]
    hops.reverse()
    return IndoorPath(
        source=anchor_point,
        target=goal_point,
        query_time=query.query_time,
        hops=hops,
        total_length=length,
        method_label=method_label,
    )
