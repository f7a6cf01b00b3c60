"""Pluggable temporal semantics for the ITSPQ search kernel.

The paper's query semantics — *no-wait* earliest arrival, where a door must be
open at the exact instant the walker reaches it — used to be hard-wired into
every execution tier: the reference search, the compiled integer-label search,
the batch multi-target search and the cache's tree recorder each carried their
own inline copy of the TV-check relaxation logic.  This module is now the
**single source of truth** for that logic: every tier asks
:func:`make_edge_probe` for one probe closure and runs the same
``relax -> probe -> push`` kernel, so a semantics is implemented exactly once
and automatically works everywhere.

A probe maps ``(door_index, candidate_cost) -> float | None``:

``None``
    The relaxation is temporally infeasible — the caller counts it as a
    temporally pruned door and moves on.
``float``
    The (possibly adjusted) cost label to use for the distance-improvement
    test and heap push.  All costs are *equivalent metres* — elapsed time
    multiplied by the walking speed — so a semantics that waits at a door
    simply returns a larger label and Dijkstra's invariants are preserved
    (waiting is FIFO: leaving earlier can never make you arrive later).

The four built-in TV-check methods of the paper's no-wait semantics keep
their exact per-kind cost profile (dispatch kinds as in
:data:`repro.core.compiled.COMPILED_KINDS`):

kind 0 — synchronous (ITG/S)
    One ATI boundary bisect per relaxation at the arrival instant.  The
    probe counter is *derived* after the search (one probe per relaxation by
    construction); see :func:`derive_counters`.
kind 1 — asynchronous (ITG/A)
    Membership tests against the current checkpoint snapshot, refreshed
    forward when the arrival instant passes the snapshot's interval, one
    direct ATI probe for arrivals before the snapshot started.  Counted
    live through the probe's counter list.
kind 2 — static
    Every door passes; membership counters derived after the search.
kind 3 — query-time snapshot
    One bisect at the *query* instant per relaxation; derived like kind 0.

The additional semantics all ride on the synchronous method (kind 0), the
only method whose probe sees exact ATI boundaries:

:class:`WaitTolerant`
    A closed door may be waited out: the probe charges the wait as extra
    equivalent metres (``(next_opening - t_query) * speed``) instead of
    pruning, and prunes only doors that never reopen before the end of day
    (the day does not wrap — midnight is a hard horizon).
:class:`TimeWindow`
    A door is feasible only if it stays open for ``window_seconds`` past the
    arrival instant (the walker needs the door usable for a follow-up trip
    through it); half-open ATIs make "closes exactly at the window end" feasible.
:class:`LatestDeparture`
    The inverse query: ``query_time`` is an arrival *deadline* and the search
    runs backwards from the target, probing each door at
    ``deadline - cost / speed``.  The raw search is anchor-rooted at the
    target; :meth:`LatestDeparture.finalise_result` re-orients the path and
    rejects routes whose departure would fall before midnight.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple, Union

from repro.core.path import IndoorPath, PathHop
from repro.exceptions import QueryError

#: Index layout of the live counter list handed out by :func:`make_edge_probe`:
#: ``counters[ATI_PROBES]``, ``counters[SNAPSHOT_REFRESHES]``,
#: ``counters[MEMBERSHIP_CHECKS]``.  Callers snapshot these per event (batch,
#: cache) or copy them once after the search (engine).
ATI_PROBES = 0
SNAPSHOT_REFRESHES = 1
MEMBERSHIP_CHECKS = 2

#: A probe: ``(door_key, candidate_cost) -> cost | None`` (``None`` = pruned).
EdgeProbe = Callable[[object, float], Optional[float]]

#: What user-facing APIs accept wherever a semantics is expected: an
#: instance, or a canonical name resolved by :func:`canonical_semantics`.
SemanticsLike = Union[str, "TemporalSemantics"]


@dataclass(frozen=True)
class TemporalSemantics:
    """Base class for ITSPQ temporal query semantics.

    Subclasses are small frozen value objects: hashable (they participate in
    batch group keys and cache keys — trees are only shareable within one
    semantics) and stateless (all per-query state lives in the probe closure).
    """

    #: Canonical name, accepted by :func:`canonical_semantics`.
    name = "abstract"
    #: Whether search time flows forward from the anchor (``False`` only for
    #: :class:`LatestDeparture`, whose anchor is the target).
    forward = True

    def validate_method(self, method_name: str) -> None:
        """Raise :class:`~repro.exceptions.QueryError` unless ``method_name``
        supports this semantics.

        The non-default semantics need exact ATI boundaries at probe time, so
        they run only on the synchronous method; :class:`NoWait` accepts all
        four TV-check methods.
        """
        if method_name != "synchronous":
            raise QueryError(
                f"{self.name} semantics requires the synchronous TV-check method, "
                f"got {method_name!r}"
            )

    def search_endpoints(self, query) -> Tuple[object, object]:
        """The ``(anchor, goal)`` points the kernel searches between.

        The anchor roots the shortest-path tree (it is the batch/cache
        sharing key); forward semantics anchor at the query source,
        :class:`LatestDeparture` anchors at the target.
        """
        return query.source, query.target

    def finalise_result(self, result, walking_speed: float):
        """Post-process a raw anchor-rooted result into the user-facing one.

        The default (all forward semantics) is the identity; the engine, the
        batch executor and the cache replay all funnel their results through
        this hook so a semantics needing re-orientation only writes it once.
        """
        return result


@dataclass(frozen=True)
class NoWait(TemporalSemantics):
    """The paper's ITSPQ semantics: a door must be open on arrival."""

    name = "no-wait"

    def validate_method(self, method_name: str) -> None:
        return None


@dataclass(frozen=True)
class WaitTolerant(TemporalSemantics):
    """Earliest arrival when waiting at closed doors is allowed."""

    name = "wait-tolerant"


@dataclass(frozen=True)
class TimeWindow(TemporalSemantics):
    """No-wait arrival, but every used door must stay open for
    ``window_seconds`` past the arrival instant."""

    window_seconds: float

    name = "time-window"

    def __post_init__(self) -> None:
        if not self.window_seconds > 0:
            raise QueryError(
                f"time-window semantics needs a positive window, got {self.window_seconds!r}"
            )


@dataclass(frozen=True)
class LatestDeparture(TemporalSemantics):
    """Latest feasible departure arriving by the ``query_time`` deadline.

    On fixed (always-open) intervals this is the exact inverse of no-wait
    earliest arrival: same path length, departure = deadline - length/speed.
    """

    name = "latest-departure"
    forward = False

    def search_endpoints(self, query):
        return query.target, query.source

    def finalise_result(self, result, walking_speed: float):
        if not result.found:
            return result
        deadline = result.query.query_time.seconds
        if deadline - result.length / walking_speed < 0.0:
            # The route exists but its departure falls before midnight —
            # outside the day the ATIs describe, so "no such routes".
            result.found = False
            result.path = None
            result.length = float("inf")
            return result
        raw = result.path
        total = raw.total_length
        hops = [
            PathHop(
                hop.door_id,
                hop.to_partition,
                hop.from_partition,
                total - hop.distance_from_source,
                hop.arrival_time,
            )
            for hop in reversed(raw.hops)
        ]
        result.path = IndoorPath(
            source=result.query.source,
            target=result.query.target,
            query_time=result.query.query_time,
            hops=hops,
            total_length=total,
            method_label=raw.method_label,
        )
        return result


#: The default semantics instance, shared so that identity checks and cache
#: keys coincide for the overwhelmingly common case.
NO_WAIT = NoWait()

_NAMED_SEMANTICS = {
    "no-wait": NO_WAIT,
    "no_wait": NO_WAIT,
    "nowait": NO_WAIT,
    "wait-tolerant": WaitTolerant(),
    "wait_tolerant": WaitTolerant(),
    "latest-departure": LatestDeparture(),
    "latest_departure": LatestDeparture(),
}


def canonical_semantics(value) -> TemporalSemantics:
    """Normalise a semantics argument: an instance passes through, a known
    name resolves to the shared instance."""
    if isinstance(value, TemporalSemantics):
        return value
    if isinstance(value, str):
        semantics = _NAMED_SEMANTICS.get(value.strip().lower())
        if semantics is not None:
            return semantics
        if value.strip().lower() in ("time-window", "time_window"):
            raise QueryError(
                "time-window semantics needs an explicit TimeWindow(window_seconds=...) instance"
            )
        raise QueryError(f"unknown temporal semantics {value!r}")
    raise QueryError(f"semantics must be a TemporalSemantics or name, got {value!r}")


def make_edge_probe(
    semantics: TemporalSemantics,
    kind: int,
    bounds,
    query_seconds: float,
    speed: float,
    interval_at=None,
) -> Tuple[EdgeProbe, List[int]]:
    """Build the relaxation probe for one search.

    ``bounds`` is anything subscriptable by the caller's door key — the
    compiled tiers pass :attr:`CompiledITGraph.ati_bounds` (integer keys),
    the reference search passes a lazy per-door map (string keys) — so the
    exact same closure, float math and counter accounting serve every tier.
    ``interval_at`` is the snapshot store probe, required for kind 1 only.

    Returns ``(probe, counters)`` where ``counters`` is the live
    ``[ati_probes, snapshot_refreshes, membership_checks]`` list the probe
    mutates in place (see :data:`ATI_PROBES` and friends).  For kinds whose
    probe count is an exact function of the relaxation count, the probe
    leaves the counter at zero and :func:`derive_counters` fills it in.
    """
    counters = [0, 0, 0]
    qs = query_seconds

    if isinstance(semantics, NoWait):
        if kind == 0:

            def probe(idx, cost):
                if bisect_right(bounds[idx], qs + cost / speed) & 1:
                    return cost
                return None

        elif kind == 1:
            if interval_at is None:
                raise QueryError("the asynchronous method needs a snapshot store probe")
            cur_start, cur_end, cur_bits = interval_at(qs)
            counters[SNAPSHOT_REFRESHES] = 1

            def probe(idx, cost):
                nonlocal cur_start, cur_end, cur_bits
                t_arr = qs + cost / speed
                if cur_start <= t_arr < cur_end:
                    counters[MEMBERSHIP_CHECKS] += 1
                    open_now = cur_bits[idx]
                elif t_arr >= cur_end:
                    cur_start, cur_end, cur_bits = interval_at(t_arr)
                    counters[SNAPSHOT_REFRESHES] += 1
                    counters[MEMBERSHIP_CHECKS] += 1
                    open_now = cur_bits[idx]
                else:
                    counters[ATI_PROBES] += 1
                    open_now = bisect_right(bounds[idx], t_arr) & 1
                return cost if open_now else None

        elif kind == 2:

            def probe(idx, cost):
                return cost

        else:

            def probe(idx, cost):
                if bisect_right(bounds[idx], qs) & 1:
                    return cost
                return None

        return probe, counters

    if kind != 0:
        raise QueryError(
            f"{semantics.name} semantics requires the synchronous TV-check method"
        )

    if isinstance(semantics, WaitTolerant):

        def probe(idx, cost):
            door_bounds = bounds[idx]
            counters[ATI_PROBES] += 1
            index = bisect_right(door_bounds, qs + cost / speed)
            if index & 1:
                return cost
            # Closed on arrival: one more probe finds the next opening (the
            # flat-array twin of ATISet.next_opening).  An even index past
            # the last boundary means the door never reopens today.
            counters[ATI_PROBES] += 1
            if index >= len(door_bounds):
                return None
            return (door_bounds[index] - qs) * speed

    elif isinstance(semantics, TimeWindow):
        window = semantics.window_seconds

        def probe(idx, cost):
            door_bounds = bounds[idx]
            t_arr = qs + cost / speed
            counters[ATI_PROBES] += 1
            index = bisect_right(door_bounds, t_arr)
            if not index & 1:
                return None
            # Open on arrival, so ``index`` is odd and ``door_bounds[index]``
            # is the closing instant of the containing interval.
            if t_arr + window > door_bounds[index]:
                return None
            return cost

    elif isinstance(semantics, LatestDeparture):

        def probe(idx, cost):
            counters[ATI_PROBES] += 1
            # Walking backwards from the deadline: the door is crossed
            # ``cost`` equivalent metres *before* the deadline.  Instants
            # before midnight bisect to index 0 (even) and prune naturally.
            if bisect_right(bounds[idx], qs - cost / speed) & 1:
                return cost
            return None

    else:
        raise QueryError(f"no probe kernel for semantics {semantics!r}")

    return probe, counters


class _LazyBoundsMap(dict):
    """Per-door ATI boundary arrays, materialised on first probe.

    Lets the reference search share :func:`make_edge_probe` with the compiled
    tiers: same closure, keyed by door id instead of door index.
    """

    def __init__(self, itgraph):
        super().__init__()
        self._itgraph = itgraph

    def __missing__(self, door_id):
        door_bounds = tuple(self._itgraph.door_record(door_id).atis.boundary_seconds())
        self[door_id] = door_bounds
        return door_bounds


def make_reference_probe(
    semantics: TemporalSemantics, itgraph, query_seconds: float, speed: float
) -> Tuple[EdgeProbe, List[int]]:
    """The object-level twin of :func:`make_edge_probe` (synchronous kinds
    only — exactly the methods the non-default semantics validate to)."""
    return make_edge_probe(semantics, 0, _LazyBoundsMap(itgraph), query_seconds, speed)


def derive_counters(semantics: TemporalSemantics, kind: int, stats) -> None:
    """Fill in the probe counters that are exact functions of the relaxation
    count (one probe per relaxation, by construction of the reference
    strategies), so the hot loop never increments them.

    Only the no-wait kinds 0/2/3 derive; kind 1 and every non-default
    semantics count live through the probe's counter list.
    """
    if not isinstance(semantics, NoWait):
        return
    if kind == 0 or kind == 3:
        stats.ati_probes = stats.relaxations
    elif kind == 2:
        stats.membership_checks = stats.relaxations
