"""Time-dependent IT-Graph snapshots — ``Graph_Update`` (Algorithm 3).

Between two consecutive checkpoints the indoor topology does not change, so
the asynchronous method ITG/A works on a *reduced* IT-Graph that simply lacks
every door closed during the current checkpoint interval.  ``GraphUpdater``
produces such reduced snapshots on demand and caches them per interval, which
is exactly the amortisation Algorithm 3 relies on: one topology reduction per
checkpoint interval instead of one ATI probe per encountered door.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.constants import SECONDS_PER_DAY
from repro.core.itgraph import ITGraph
from repro.indoor.topology import Topology
from repro.temporal.interval import TimeInterval
from repro.temporal.timeofday import TimeLike, TimeOfDay, as_time_of_day


@dataclass(frozen=True)
class GraphSnapshot:
    """A reduced IT-Graph valid throughout one checkpoint interval.

    Attributes
    ----------
    interval:
        The checkpoint interval ``[cp, next_cp)`` the snapshot is valid for
        (clamped to the day boundaries when ``t`` lies before the first or
        after the last checkpoint).
    checkpoint:
        The checkpoint the snapshot was derived at (``cp`` in Algorithm 3);
        equals ``interval.start``.
    closed_doors:
        The doors removed from the topology because they are closed during
        the interval.
    topology:
        The reduced topology ``G'_IT`` with those doors removed.
    """

    interval: TimeInterval
    checkpoint: TimeOfDay
    closed_doors: FrozenSet[str]
    topology: Topology = field(compare=False)

    def covers(self, instant: TimeLike) -> bool:
        """Return ``True`` when ``instant`` falls inside this snapshot's interval."""
        return self.interval.contains(instant)

    def door_available(self, door_id: str) -> bool:
        """Return ``True`` when ``door_id`` is open throughout the interval.

        A door missing from the original graph is reported unavailable rather
        than raising, because the asynchronous check treats availability as a
        pure pruning signal.
        """
        return door_id not in self.closed_doors and self.topology.has_door(door_id)

    @property
    def open_door_count(self) -> int:
        """Number of doors remaining in the reduced topology."""
        return len(self.topology.door_ids)


class GraphUpdater:
    """Produces and caches reduced snapshots of an IT-Graph (Algorithm 3).

    The updater is deliberately stateless with respect to any particular
    query; the per-query "current snapshot" pointer lives in the asynchronous
    check strategy so that concurrent queries cannot interfere.
    """

    def __init__(self, itgraph: ITGraph):
        self._itgraph = itgraph
        self._cache: Dict[float, GraphSnapshot] = {}
        self._updates_performed = 0

    @property
    def itgraph(self) -> ITGraph:
        """The underlying full IT-Graph ``G^0_IT``."""
        return self._itgraph

    @property
    def updates_performed(self) -> int:
        """Number of snapshot constructions that actually ran (cache misses)."""
        return self._updates_performed

    def clear_cache(self) -> None:
        """Drop all cached snapshots (used by memory-cost experiments)."""
        self._cache.clear()

    @property
    def cached_snapshot_count(self) -> int:
        """Number of snapshots currently cached."""
        return len(self._cache)

    def graph_update(self, instant: TimeLike) -> GraphSnapshot:
        """``Graph_Update(t, T)``: the reduced IT-Graph in force at ``instant``.

        Finds the previous checkpoint ``cp`` relative to ``instant``, removes
        every door closed during ``[cp, next_cp)`` from the topology mappings
        and returns the resulting snapshot.  Snapshots are cached per
        checkpoint interval, so repeated calls inside the same interval are
        O(1).
        """
        t = as_time_of_day(instant)
        interval = self._itgraph.checkpoints.interval_containing(t)
        key = interval.start.seconds
        cached = self._cache.get(key)
        if cached is not None:
            return cached

        # Representative instant: anywhere inside the interval gives the same
        # set of closed doors because the topology is constant between
        # checkpoints.  Use the interval start (the checkpoint itself).
        representative = interval.start
        closed = self._itgraph.doors_closed_at(representative)
        reduced = self._itgraph.topology.without_doors(closed)
        snapshot = GraphSnapshot(
            interval=interval,
            checkpoint=interval.start,
            closed_doors=frozenset(closed),
            topology=reduced,
        )
        self._cache[key] = snapshot
        self._updates_performed += 1
        return snapshot

    def snapshot_for_query(self, query_time: TimeLike) -> GraphSnapshot:
        """Convenience alias used at the start of an ITG/A search."""
        return self.graph_update(query_time)

    def all_snapshots(self) -> Dict[float, GraphSnapshot]:
        """Eagerly materialise snapshots for every checkpoint interval of the day.

        Useful for offline analyses and for the memory ablation benchmark; a
        live ITG/A search only ever materialises the intervals its arrival
        times actually visit.
        """
        boundaries = [TimeOfDay.midnight()] + list(self._itgraph.checkpoints.times)
        for boundary in boundaries:
            self.graph_update(boundary)
        return dict(self._cache)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"GraphUpdater({self._itgraph!r}, cached={len(self._cache)}, "
            f"updates={self._updates_performed})"
        )


class IntervalBitsets:
    """Precomputed per-checkpoint-interval open-door bitsets.

    This is the compiled counterpart of :class:`GraphUpdater`: instead of a
    reduced :class:`~repro.indoor.topology.Topology` per interval, it stores
    one ``bytes`` flag array per interval whose entry ``i`` is ``1`` when
    door ``i`` (in the compiled door numbering) is open throughout the
    interval.  The ITG/A membership test ``door_available(d)`` then lowers
    to ``flags[i]`` — a true O(1) index test with no set probing and no
    big-integer shifting, regardless of venue size.

    The candidate interval starts are midnight plus every checkpoint, exactly
    the keys :meth:`GraphUpdater.graph_update` can cache under.
    """

    __slots__ = ("_starts", "_bitsets")

    def __init__(self, itgraph: ITGraph, door_ids: Sequence[str]):
        checkpoint_seconds = [t.seconds for t in itgraph.checkpoints.times]
        starts = sorted({0.0, *checkpoint_seconds})
        atis_by_index = [itgraph.door_record(door_id).atis for door_id in door_ids]
        bitsets: List[bytes] = [
            bytes(1 if atis.contains_seconds(start) else 0 for atis in atis_by_index)
            for start in starts
        ]
        self._starts = starts
        self._bitsets = bitsets

    @classmethod
    def _from_state(cls, starts: Sequence[float], bitsets: Sequence[bytes]) -> "IntervalBitsets":
        """Rebuild bitsets from already-computed state (the ``repro.io`` codec).

        The rehydrated instance is indistinguishable from one built against
        the original IT-Graph: the starts and flag arrays *are* the whole
        state, so every probe — and therefore every ITG/A counter — matches
        bit for bit.
        """
        if len(starts) != len(bitsets):
            raise ValueError(
                f"interval starts and bitsets disagree: {len(starts)} vs {len(bitsets)}"
            )
        instance = object.__new__(cls)
        instance._starts = [float(start) for start in starts]
        instance._bitsets = [bytes(flags) for flags in bitsets]
        return instance

    @property
    def starts(self) -> List[float]:
        """The interval start instants in increasing order (seconds)."""
        return list(self._starts)

    @property
    def interval_count(self) -> int:
        """Number of distinct constant-topology intervals."""
        return len(self._starts)

    def index_at(self, instant_seconds: float) -> int:
        """Index of the constant-topology interval containing the instant.

        The allocation-free primitive shared by :meth:`bitset_at`, the
        per-engine :class:`CompiledSnapshotStore` and the batch planner: one
        ``bisect`` on raw floats, no object construction.
        """
        index = bisect.bisect_right(self._starts, instant_seconds) - 1
        return index if index > 0 else 0

    def bitset_by_index(self, index: int) -> bytes:
        """The open-door flag array of interval ``index`` (no bounds probe)."""
        return self._bitsets[index]

    def bitset_at(self, instant_seconds: float) -> bytes:
        """The open-door flag array in force at ``instant_seconds``."""
        return self._bitsets[self.index_at(instant_seconds)]

    def store(self) -> "CompiledSnapshotStore":
        """A fresh per-engine view over these bitsets (see the store's docs)."""
        return CompiledSnapshotStore(self)


class CompiledSnapshotStore:
    """Per-engine interval lookup over shared :class:`IntervalBitsets`.

    The bitsets themselves are immutable and shared, but the *end* of the
    interval past the last checkpoint mirrors
    :meth:`~repro.temporal.checkpoints.CheckpointSet.interval_containing`:
    it is pinned by the first instant that materialises that interval, just
    as :class:`GraphUpdater` caches the snapshot built at first access.
    Keeping that cache per engine keeps the compiled ITG/A refresh counters
    bit-identical to the reference strategy's.
    """

    __slots__ = ("_source", "_bitsets", "_starts", "_tail_end")

    def __init__(self, bitsets: IntervalBitsets):
        self._source = bitsets
        self._bitsets = bitsets._bitsets
        self._starts = bitsets._starts
        self._tail_end: Optional[float] = None

    @property
    def bitsets(self) -> IntervalBitsets:
        """The shared immutable bitsets this store serves."""
        return self._source

    def interval_at(self, instant_seconds: float) -> Tuple[float, float, bytes]:
        """``(start, end, open_bits)`` of the interval containing the instant."""
        starts = self._starts
        index = bisect.bisect_right(starts, instant_seconds) - 1
        if index < 0:
            index = 0
        if index + 1 < len(starts):
            end = starts[index + 1]
        else:
            if self._tail_end is None:
                self._tail_end = max(float(SECONDS_PER_DAY), instant_seconds) + SECONDS_PER_DAY
            end = self._tail_end
        return starts[index], end, self._bitsets[index]
