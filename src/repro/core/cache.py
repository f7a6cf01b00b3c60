"""Interval-keyed shortest-path-tree cache for the compiled ITSPQ core.

Within one checkpoint interval the open-door bitset — and therefore the
whole door-level search graph — is frozen, so ITSPQ is really answered
against a small family of static graphs indexed by
:meth:`~repro.core.snapshot.IntervalBitsets.index_at`.  Service workloads
cluster heavily inside that family: query times land in a few intervals and
sources (entrances, concierge desks) repeat.  Yet every execution tier built
so far — compiled and batch — re-runs Dijkstra from scratch for each
``(source, interval, method)`` even when it just computed that exact tree.

:class:`SPTreeCache` closes that gap.  It memoises **recorded shortest-path
trees**: one zero-target, full-exhaustion run of the compiled kernel
(:func:`repro.core.kernel.run_group` with an
:class:`~repro.core.kernel.EventLog`) per ``(method kind, anchor point,
effective-time key, privacy context, temporal semantics)`` — the group key
of the :class:`~repro.core.batch.BatchPlanner` — storing the final label
arrays *plus* a compact event log of the run (pop order, push counter,
cumulative statistics, heap-occupancy trajectory and the per-door "target
relax opportunity" rows).  A repeat query is then answered without any
search: an O(rows-until-settle) scan picks the winning door, a binary search
over the event log finds the exact moment the member's target would have
settled, and the member's :class:`~repro.core.query.SearchStatistics` are
reconstructed **bit-identically** to what a fresh search would report (the
repository's standing parity invariant; ``tests/test_cache_parity.py``
enforces it counter for counter).

Why exact reconstruction is possible (the argument the kernel's
multi-target groups rest on, taken one step further): target entries never
relax doors, so a member query's door-level event sequence is a prefix of
the zero-target run's event sequence.  Heap pops occur in globally sorted ``(distance,
tie)`` order — every push's priority is ≥ the priority being popped, and
ties increase monotonically — so the prefix length is a binary search over
the recorded ``(pop distance, push index)`` pairs, stale pops included.
Target-entry bookkeeping (pushes, the settling pop, peak-heap contribution)
is replayed from the opportunity rows: candidate distances strictly improve
at each target push, so the rows that would have pushed are exactly the
strictly-improving ones, and the peak decomposes into a prefix maximum
before the first target push plus per-segment range maxima (block-max
lookups) afterwards.

Admission and invalidation:

* keys are the batch planner's group keys, so the engine's single-query
  path (a group of one) and the batch path address the same tree space;
* ``mode="promote"`` (default) records a tree only after a key misses
  ``promote_after`` times — one-off queries never pay the full-exhaustion
  recording run; ``mode="eager"`` records on first miss (bench/warm-up);
* entries are LRU-evicted beyond ``max_entries`` and stamped with a
  **generation**: :meth:`SPTreeCache.invalidate` bumps it, instantly
  orphaning every cached tree (the hook a future graph-update path uses on
  recompilation).

A cached engine therefore answers bit-identically to an uncached one on
every query: a hit replays a recorded tree, a miss runs the kernel.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from collections import OrderedDict
from math import hypot, inf
from typing import Dict, List, Optional, Tuple

from repro.constants import WALKING_SPEED_MPS
from repro.core.compiled import CompiledITGraph
from repro.core.deadline import SearchDeadline
from repro.core.kernel import EventLog, reconstruct_path, run_group
from repro.core.query import ITSPQuery, QueryResult, SearchStatistics
from repro.core.semantics import derive_counters
from repro.core.snapshot import CompiledSnapshotStore

_INFINITY = inf
#: Block width of the occupancy range-max index (power of two for shifts).
_BLOCK = 64
_BLOCK_SHIFT = 6

_MODES = ("off", "promote", "eager")


class CacheConfig:
    """Configuration of one :class:`SPTreeCache`.

    Parameters
    ----------
    max_entries:
        LRU capacity in cached trees.
    mode:
        ``"promote"`` (default) records a tree after ``promote_after``
        misses of the same key; ``"eager"`` records on first miss;
        ``"off"`` disables recording (lookups still count misses).
    promote_after:
        Miss count that promotes a key to a recorded tree in promote mode.
    """

    __slots__ = ("max_entries", "mode", "promote_after")

    def __init__(self, max_entries: int = 256, mode: str = "promote", promote_after: int = 2):
        if not isinstance(max_entries, int) or isinstance(max_entries, bool):
            raise ValueError(f"max_entries must be an integer, got {max_entries!r}")
        if max_entries < 1:
            raise ValueError(f"max_entries must be positive, got {max_entries}")
        if mode not in _MODES:
            raise ValueError(f"unknown cache mode {mode!r} (expected one of {_MODES})")
        if not isinstance(promote_after, int) or isinstance(promote_after, bool):
            raise ValueError(f"promote_after must be an integer, got {promote_after!r}")
        if promote_after < 1:
            raise ValueError(f"promote_after must be positive, got {promote_after}")
        self.max_entries = int(max_entries)
        self.mode = mode
        self.promote_after = int(promote_after)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CacheConfig(max_entries={self.max_entries}, mode={self.mode!r}, "
            f"promote_after={self.promote_after})"
        )


class TimeKeyResolver:
    """Canonical effective-time key shared by the batch planner and the cache.

    Two queries with the same key provably share their entire door-level
    trajectory (method and source/privacy context being equal):

    * ``static`` (kind 2) never reads the clock — one bucket;
    * ``query-time`` (kind 3) probes every door at the query instant, so the
      checkpoint-interval index is the natural bucket — **when** every door
      ATI boundary is itself an interval start (true whenever the bitsets
      were built from the schedule's own checkpoints).  When a thinned
      checkpoint set leaves door boundaries strictly inside an interval,
      bucketing by interval would merge queries with different probe
      outcomes, so the resolver falls back to the merged-boundary bisection
      the planner always used;
    * the arrival-time methods (kinds 0 and 1) probe doors at per-door
      arrival instants that move continuously with the query second, so any
      time coarsening is unsound — they keep the exact second.
    """

    __slots__ = ("_graph", "_bitsets", "_index_sound", "_fallback")

    def __init__(self, graph: CompiledITGraph):
        self._graph = graph
        self._bitsets = graph.interval_bitsets
        self._index_sound: Optional[bool] = None
        self._fallback: Optional[Tuple[float, ...]] = None

    def interval_indexing_sound(self) -> bool:
        """Whether grouping kind-3 queries by interval index is lossless."""
        if self._index_sound is None:
            starts = set(self._bitsets.starts)
            self._index_sound = all(
                boundary in starts
                for bounds in self._graph.ati_bounds
                for boundary in bounds
            )
        return self._index_sound

    def _fallback_bounds(self) -> Tuple[float, ...]:
        if self._fallback is None:
            merged = set()
            for bounds in self._graph.ati_bounds:
                merged.update(bounds)
            self._fallback = tuple(sorted(merged))
        return self._fallback

    def key(self, kind: int, query_seconds: float) -> float:
        """The effective-time component of a group/cache key."""
        if kind == 2:
            return 0.0
        if kind == 3:
            if self.interval_indexing_sound():
                return float(self._bitsets.index_at(query_seconds))
            return float(bisect_right(self._fallback_bounds(), query_seconds))
        return query_seconds



class CachedTree:
    """One recorded zero-target run: labels + the event log that makes exact
    per-member statistics reconstruction possible (see the module docstring).

    Arrays are indexed two ways: *per node* (``dist`` / ``prev_node`` /
    ``prev_part``, door indices plus the source sentinel at ``door_count``)
    and *per event* (one heap pop of a source/door entry, stale pops
    included — ``pop_dist`` / ``pop_push`` and the nine cumulative counter
    arrays, sampled after each event completes).  ``occ_after``/
    ``prefix_peak``/``block_max`` are indexed per push (the heap-occupancy
    trajectory); ``rows_by_partition`` holds the chronological target-relax
    opportunities ``(door, door_distance, pushes_before, occupancy)`` per
    partition.
    """

    __slots__ = (
        "kind",
        "method_label",
        "semantics",
        "source_pidx",
        "source_x",
        "source_y",
        "source_floor",
        "rep_seconds",
        "generation",
        "dist",
        "prev_node",
        "prev_part",
        "pop_dist",
        "pop_push",
        "cum_settled",
        "cum_relax",
        "cum_pushes",
        "cum_parts",
        "cum_private",
        "cum_tpruned",
        "cum_ati",
        "cum_refresh",
        "cum_member",
        "occ_after",
        "prefix_peak",
        "block_max",
        "rows_by_partition",
        "total_pushes",
        "total_events",
    )

    def __init__(self) -> None:
        # What :meth:`memory_bytes` reads, so that a tree accounts for no
        # memory until a recording fills it in.
        self.dist = array("d")
        self.rows_by_partition: Dict[int, tuple] = {}
        self.total_events = 0
        self.total_pushes = 0

    def memory_bytes(self) -> int:
        """Approximate footprint of the recorded arrays (for reports)."""
        per_event = 8 + 8 + 9 * 8
        per_push = 3 * 8
        row_bytes = sum(len(rows) * 48 for rows in self.rows_by_partition.values())
        node_bytes = 3 * 8 * len(self.dist)
        return self.total_events * per_event + self.total_pushes * per_push + row_bytes + node_bytes


class SPTreeCache:
    """Generation-stamped LRU cache of recorded shortest-path trees.

    One instance serves an engine and its batch executor.
    """

    def __init__(
        self,
        graph: CompiledITGraph,
        store: Optional[CompiledSnapshotStore] = None,
        walking_speed: float = WALKING_SPEED_MPS,
        config: Optional[CacheConfig] = None,
    ):
        if walking_speed <= 0:
            raise ValueError(f"walking speed must be positive, got {walking_speed}")
        self._graph = graph
        self._store = store if store is not None else graph.interval_bitsets.store()
        self._speed = walking_speed
        self.config = config if config is not None else CacheConfig()
        self.resolver = TimeKeyResolver(graph)
        self.generation = 1
        self._entries: "OrderedDict[tuple, CachedTree]" = OrderedDict()
        # The entries' summed ``memory_bytes``, kept current on every store,
        # replacement, eviction and drop: ``stats`` runs on the service's
        # event-loop thread while a worker thread's batch stores trees, and
        # summing over ``_entries`` there could meet a mutation mid-iteration.
        self._memory_bytes = 0
        self._miss_tally: "OrderedDict[tuple, int]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.trees_built = 0
        self.evictions = 0

    # -- admission / eviction --------------------------------------------------

    def lookup(self, key: tuple) -> Optional[CachedTree]:
        """The cached tree for ``key``, or ``None`` (counts a hit or miss);
        stale-generation entries are dropped on contact."""
        tree = self._entries.get(key)
        if tree is not None:
            if tree.generation == self.generation:
                self._entries.move_to_end(key)
                self.hits += 1
                return tree
            del self._entries[key]
            self._memory_bytes -= tree.memory_bytes()
        self.misses += 1
        return None

    def peek(self, key: tuple) -> Optional[CachedTree]:
        """Like :meth:`lookup` but without touching counters or LRU order
        (used by cache warming)."""
        tree = self._entries.get(key)
        if tree is not None and tree.generation == self.generation:
            return tree
        return None

    def should_build(self, key: tuple) -> bool:
        """Whether a missed ``key`` has earned a recording run under the
        configured admission mode."""
        mode = self.config.mode
        if mode == "off":
            return False
        if mode == "eager":
            return True
        tally = self._miss_tally
        count = tally.get(key, 0) + 1
        if count >= self.config.promote_after:
            tally.pop(key, None)
            return True
        tally[key] = count
        tally.move_to_end(key)
        # The tally is bounded like the cache itself, so a stream of one-off
        # keys cannot grow it without limit.
        limit = 4 * self.config.max_entries
        while len(tally) > limit:
            tally.popitem(last=False)
        return False

    def store_tree(self, key: tuple, tree: CachedTree) -> None:
        """Insert a tree, evicting least-recently-used entries past capacity."""
        tree.generation = self.generation
        replaced = self._entries.get(key)
        if replaced is not None:
            self._memory_bytes -= replaced.memory_bytes()
        self._entries[key] = tree
        self._memory_bytes += tree.memory_bytes()
        self._entries.move_to_end(key)
        while len(self._entries) > self.config.max_entries:
            _key, evicted = self._entries.popitem(last=False)
            self._memory_bytes -= evicted.memory_bytes()
            self.evictions += 1

    def invalidate(self) -> None:
        """Bump the generation: every cached tree becomes stale at once (the
        recompile / graph-update hook)."""
        self.generation += 1
        self._entries.clear()
        self._memory_bytes = 0
        self._miss_tally.clear()

    def stats(self) -> Dict[str, object]:
        """Counter snapshot (what ``engine.cache_stats`` surfaces).  Reads
        counters and ``len`` only, so another thread may call it while a
        batch stores trees."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "trees_built": self.trees_built,
            "evictions": self.evictions,
            "entries": len(self._entries),
            "generation": self.generation,
            "max_entries": self.config.max_entries,
            "mode": self.config.mode,
            "memory_bytes": self._memory_bytes,
        }

    # -- recording -------------------------------------------------------------

    def build(self, group, deadline: Optional[SearchDeadline] = None) -> CachedTree:
        """Record and cache the tree of one planned batch group.

        The recording run is the kernel's zero-target mode: the group's
        search runs to exhaustion with an :class:`~repro.core.kernel.EventLog`
        attached.  An armed ``deadline`` is checked before the run starts and
        polled inside it; expiry raises before anything is cached, so the
        cache never holds a tree from an interrupted run."""
        if deadline is not None:
            # A recording run is a full-exhaustion search: refuse to start
            # one on an already-spent budget rather than discover it mid-run.
            deadline.check_now()
        log = EventLog()
        run_group(self._graph, self._store, self._speed, group, deadline, log=log)
        tree = self._tree_from_log(group, log)
        self.store_tree(group.cache_key, tree)
        self.trees_built += 1
        return tree

    def _tree_from_log(self, group, log: EventLog) -> CachedTree:
        """Pack a recording run into the compact ``array`` form of a tree,
        once, after the run."""
        columns = list(zip(*log.events))
        # The log samples counters before each pop; the tree indexes them by
        # the state after each pop, so shift by one and close with the totals.
        cumulative = [array("l", column[1:]) for column in columns[2:]]
        for column, total in zip(cumulative, log.totals):
            column.append(total)
        # Heap occupancy after push ``p`` made during pop ``e`` is ``p - e``
        # (``p + 1`` entries pushed, ``e + 1`` popped); the initial SOURCE
        # push leaves one entry.
        occupancies = [1]
        pushed = 1
        for event, total in enumerate(cumulative[2]):
            if total != pushed:
                occupancies += range(pushed - event, total - event)
                pushed = total
        prefix_peak = array("l")
        peak = 0
        for occupancy in occupancies:
            if occupancy > peak:
                peak = occupancy
            prefix_peak.append(peak)
        occ_after = array("l", occupancies)
        block_max = array("l")
        for start in range(0, len(occ_after), _BLOCK):
            block_max.append(max(occ_after[start : start + _BLOCK]))

        source = group.source
        tree = CachedTree()
        tree.kind = group.kind
        tree.method_label = group.method_label
        tree.semantics = group.semantics
        tree.source_pidx = group.source_pidx
        tree.source_x = source.x
        tree.source_y = source.y
        tree.source_floor = source.floor
        tree.rep_seconds = group.rep_seconds
        tree.generation = self.generation
        tree.dist = array("d", log.dist)
        tree.prev_node = array("l", log.prev_node)
        tree.prev_part = array("l", log.prev_part)
        tree.pop_dist = array("d", columns[0])
        tree.pop_push = array("l", columns[1])
        (
            tree.cum_settled,
            tree.cum_relax,
            tree.cum_pushes,
            tree.cum_parts,
            tree.cum_private,
            tree.cum_tpruned,
            tree.cum_ati,
            tree.cum_refresh,
            tree.cum_member,
        ) = cumulative
        tree.occ_after = occ_after
        tree.prefix_peak = prefix_peak
        tree.block_max = block_max
        tree.rows_by_partition = {pidx: tuple(rows) for pidx, rows in log.rows.items()}
        tree.total_pushes = log.totals[2]
        tree.total_events = len(tree.pop_dist)
        return tree

    # -- answering -------------------------------------------------------------

    def answer(self, tree: CachedTree, query: ITSPQuery, target_pidx: int) -> QueryResult:
        """Answer one member query from a recorded tree — O(path length +
        rows until settle), no Dijkstra, bit-identical result and statistics
        (``runtime_seconds`` is the caller's to fill in).  ``target_pidx`` is
        the partition of the search *goal* — under latest-departure semantics
        that is the query's source, matching the tree's backward anchor."""
        graph = self._graph
        kind = tree.kind
        semantics = tree.semantics
        goal_point = semantics.search_endpoints(query)[1]
        tx, ty, tfloor = goal_point.x, goal_point.y, goal_point.floor

        # -- replay the member's target pushes from the opportunity rows -----
        best = _INFINITY
        t_count = 0
        push_points: List[Tuple[int, int]] = []
        win_node = -1
        win_part = -1
        source_node = graph.door_count
        if target_pidx == tree.source_pidx and tfloor == tree.source_floor:
            best = hypot(tree.source_x - tx, tree.source_y - ty)
            t_count = 1
            push_points.append((1, 1))
            win_node = source_node
            win_part = tree.source_pidx
        rows = tree.rows_by_partition.get(target_pidx)
        if rows is not None:
            door_floor = graph.door_floor
            door_x = graph.door_x
            door_y = graph.door_y
            for node, door_distance, push_count, occupancy in rows:
                if door_distance >= best:
                    # Rows are chronological, hence nondecreasing in door
                    # distance: nothing further can improve the candidate.
                    break
                if door_floor[node] != tfloor:
                    continue
                candidate = door_distance + hypot(tx - door_x[node], ty - door_y[node])
                if candidate < best:
                    best = candidate
                    t_count += 1
                    push_points.append((push_count, occupancy))
                    win_node = node
                    win_part = target_pidx

        if t_count == 0:
            # The member's target never enters the heap: its private search
            # runs the identical full trajectory and exhausts the heap.
            last = tree.total_events - 1
            stats = SearchStatistics(
                doors_settled=tree.cum_settled[last],
                relaxations=tree.cum_relax[last],
                heap_pushes=tree.total_pushes,
                heap_pops=tree.total_events,
                partitions_expanded=tree.cum_parts[last],
                private_partitions_pruned=tree.cum_private[last],
                temporally_pruned_doors=tree.cum_tpruned[last],
                ati_probes=tree.cum_ati[last],
                snapshot_refreshes=tree.cum_refresh[last],
                membership_checks=tree.cum_member[last],
                peak_heap_size=tree.prefix_peak[tree.total_pushes - 1],
            )
            derive_counters(semantics, kind, stats)
            return semantics.finalise_result(
                QueryResult(
                    query=query,
                    method_label=tree.method_label,
                    found=False,
                    path=None,
                    length=_INFINITY,
                    statistics=stats,
                ),
                self._speed,
            )

        # -- settle position: binary search over the sorted event log --------
        best_push = push_points[-1][0]
        pop_dist = tree.pop_dist
        pop_push = tree.pop_push
        lo, hi = 0, tree.total_events
        while lo < hi:
            mid = (lo + hi) >> 1
            event_dist = pop_dist[mid]
            if event_dist < best or (event_dist == best and pop_push[mid] < best_push):
                lo = mid + 1
            else:
                hi = mid
        settle = lo  # events completed before the target's settling pop; >= 1
        last = settle - 1

        # -- peak heap size: prefix max before the first target push, then ---
        # per-segment range maxima with the member's live-target count added.
        first_push, first_occ = push_points[0]
        peak = tree.prefix_peak[first_push - 1]
        if first_occ + 1 > peak:
            peak = first_occ + 1
        for index in range(1, t_count):
            candidate_peak = push_points[index][1] + index + 1
            if candidate_peak > peak:
                peak = candidate_peak
        shared_pushes = tree.cum_pushes[last]
        occ_after = tree.occ_after
        block_max = tree.block_max
        for index in range(t_count):
            lo_push = push_points[index][0]
            hi_push = (push_points[index + 1][0] if index + 1 < t_count else shared_pushes) - 1
            if lo_push > hi_push:
                continue
            lo_block = lo_push >> _BLOCK_SHIFT
            hi_block = hi_push >> _BLOCK_SHIFT
            if lo_block == hi_block:
                segment_max = max(occ_after[lo_push : hi_push + 1])
            else:
                segment_max = max(occ_after[lo_push : (lo_block + 1) << _BLOCK_SHIFT])
                tail_max = max(occ_after[hi_block << _BLOCK_SHIFT : hi_push + 1])
                if tail_max > segment_max:
                    segment_max = tail_max
                if hi_block > lo_block + 1:
                    middle = max(block_max[lo_block + 1 : hi_block])
                    if middle > segment_max:
                        segment_max = middle
            candidate_peak = segment_max + index + 1
            if candidate_peak > peak:
                peak = candidate_peak

        stats = SearchStatistics(
            doors_settled=tree.cum_settled[last],
            relaxations=tree.cum_relax[last],
            heap_pushes=shared_pushes + t_count,
            heap_pops=settle + 1,
            partitions_expanded=tree.cum_parts[last],
            private_partitions_pruned=tree.cum_private[last],
            temporally_pruned_doors=tree.cum_tpruned[last],
            ati_probes=tree.cum_ati[last],
            snapshot_refreshes=tree.cum_refresh[last],
            membership_checks=tree.cum_member[last],
            peak_heap_size=peak,
        )
        derive_counters(semantics, kind, stats)

        return semantics.finalise_result(
            QueryResult(
                query=query,
                method_label=tree.method_label,
                found=True,
                path=reconstruct_path(
                    graph,
                    self._speed,
                    query,
                    tree.method_label,
                    tree.dist,
                    tree.prev_node,
                    tree.prev_part,
                    win_node,
                    win_part,
                    best,
                ),
                length=best,
                statistics=stats,
            ),
            self._speed,
        )

    # -- warming ---------------------------------------------------------------

    def warm(self, groups) -> int:
        """Record trees for every planned group not already cached; returns
        the number of trees built (the compile-time warm-up pass)."""
        built = 0
        for group in groups:
            key = getattr(group, "cache_key", None)
            if key is None or self.peek(key) is not None:
                continue
            self.build(group)
            built += 1
        return built
