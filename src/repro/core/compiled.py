"""The compiled integer-indexed query core: an array-backed IT-Graph fast path.

The reference engine (:mod:`repro.core.engine`, ``compiled=False``) is a
faithful object-level transcription of Algorithm 1: every relaxation probes
string-keyed dicts, every ``DM`` lookup allocates a ``frozenset`` pair key,
and every temporal check builds a fresh
:class:`~repro.temporal.timeofday.TimeOfDay`.  Those per-relaxation Python
object costs dominate the millisecond budget the paper claims for ITSPQ.

:class:`CompiledITGraph` removes them by lowering the IT-Graph once into flat
integer-indexed arrays:

* doors and partitions are interned to contiguous integer ids;
* each partition's distance matrix ``DM`` becomes a dense row-major
  ``array('d')`` — an O(1) offset lookup with no pair-key allocation;
* the ``D2P⊢`` / ``P2D⊣`` adjacency used by the door-level Dijkstra is
  flattened into prebuilt per-door lists of ``(partition, [(door, leg), …])``
  groups, priced from the dense matrices at build time;
* every door's ATI set is lowered to a flat sorted array of boundary seconds,
  so a passability probe is a single ``bisect`` on a raw float; and
* the snapshot layer's per-checkpoint-interval reductions become precomputed
  open-door **bitsets** (:class:`~repro.core.snapshot.IntervalBitsets`), so
  the ITG/A membership test is a flat ``flags[door]`` index test.

The compiled structures preserve the *iteration order* the reference search
would observe (the order of the topology's frozenset views), so the compiled
search (:mod:`repro.core.kernel`) settles nodes in exactly the same sequence
and returns bit-identical paths, lengths and search statistics — the parity
tests assert this.  The four ``TV_Check`` instantiations run over these
arrays as the seconds-based probes of
:func:`repro.core.semantics.make_edge_probe`, selected by the kinds in
:data:`COMPILED_KINDS`.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from heapq import heappop, heappush
from typing import Dict, List, Optional, Tuple

from repro.core.itgraph import ITGraph
from repro.core.snapshot import IntervalBitsets
from repro.exceptions import UnknownEntityError
from repro.indoor.entities import Partition

#: ``(next_door_index, intra-partition leg metres)``
CompiledEdge = Tuple[int, float]
#: ``(partition_index, partition_is_private, edges)``
CompiledGroup = Tuple[int, bool, Tuple[CompiledEdge, ...]]

#: canonical method name -> (dispatch kind, paper label); the kind selects the
#: TV-check probe :func:`repro.core.semantics.make_edge_probe` builds for the
#: compiled search (:mod:`repro.core.kernel`).
COMPILED_KINDS: Dict[str, Tuple[int, str]] = {
    "synchronous": (0, "ITG/S"),
    "asynchronous": (1, "ITG/A"),
    "static": (2, "static"),
    "query-time": (3, "query-time-snapshot"),
}

_NAN = float("nan")


class CompiledITGraph:
    """The integer-indexed compiled form of one (immutable) IT-Graph.

    Built once via :meth:`ITGraph.compiled` and shared by every engine that
    queries the same graph.  All hot-loop state is indexed by the interned
    door/partition ids; the original string identifiers are kept only for
    path reconstruction and for the (cold) query-endpoint legs.
    """

    __slots__ = (
        "itgraph",
        "door_ids",
        "door_index",
        "partition_ids",
        "partition_index",
        "partition_private",
        "partition_outdoor",
        "dm_arrays",
        "dm_locals",
        "dm_sizes",
        "adjacency",
        "ati_bounds",
        "interval_bitsets",
        "door_x",
        "door_y",
        "door_floor",
        "leaveable_by_partition",
        "locate_specs",
        "overlays",
        "_locate_entries",
        "_locate_grid",
    )

    def __init__(self, itgraph: ITGraph):
        self.itgraph = itgraph
        topology = itgraph.topology

        # -- interning ---------------------------------------------------------
        self.door_ids: List[str] = itgraph.door_ids()
        self.door_index: Dict[str, int] = {d: i for i, d in enumerate(self.door_ids)}
        self.partition_ids: List[str] = itgraph.partition_ids()
        self.partition_index: Dict[str, int] = {p: i for i, p in enumerate(self.partition_ids)}

        self.partition_private: List[bool] = []
        self.partition_outdoor: List[bool] = []
        for partition_id in self.partition_ids:
            record = itgraph.partition_record(partition_id)
            self.partition_private.append(record.is_private)
            self.partition_outdoor.append(record.is_outdoor)

        # -- dense per-partition distance matrices -----------------------------
        self.dm_arrays: List[array] = []
        self.dm_locals: List[Dict[int, int]] = []
        self.dm_sizes: List[int] = []
        for partition_id in self.partition_ids:
            matrix = itgraph.partition_record(partition_id).distance_matrix
            member_ids = list(matrix.doors)
            size = len(member_ids)
            dense = array("d", [0.0]) * (size * size) if size else array("d")
            for a, door_a in enumerate(member_ids):
                base = a * size
                for b, door_b in enumerate(member_ids):
                    try:
                        dense[base + b] = matrix.distance(door_a, door_b)
                    except UnknownEntityError:
                        dense[base + b] = _NAN
            self.dm_arrays.append(dense)
            self.dm_locals.append(
                {self.door_index[door_id]: local for local, door_id in enumerate(member_ids)}
            )
            self.dm_sizes.append(size)

        # -- flattened search adjacency ----------------------------------------
        # The group order per door and the edge order per group deliberately
        # follow the topology's frozenset iteration order: it is what the
        # reference search iterates at query time, and matching it keeps heap
        # tie-breaking (and therefore returned paths) bit-identical.
        adjacency: List[Tuple[CompiledGroup, ...]] = []
        for door_id in self.door_ids:
            groups: List[CompiledGroup] = []
            for partition_id in topology.enterable_partitions(door_id):
                pidx = self.partition_index[partition_id]
                if self.partition_outdoor[pidx]:
                    continue
                dense = self.dm_arrays[pidx]
                local = self.dm_locals[pidx]
                size = self.dm_sizes[pidx]
                row = local.get(self.door_index[door_id])
                edges: List[CompiledEdge] = []
                if row is not None:
                    base = row * size
                    for next_door in topology.leaveable_doors(partition_id):
                        if next_door == door_id:
                            continue
                        next_idx = self.door_index[next_door]
                        column = local.get(next_idx)
                        if column is None:
                            continue
                        leg = dense[base + column]
                        if leg != leg:  # NaN: no intra-partition distance defined
                            continue
                        edges.append((next_idx, leg))
                groups.append((pidx, self.partition_private[pidx], tuple(edges)))
            adjacency.append(tuple(groups))
        self.adjacency: Tuple[Tuple[CompiledGroup, ...], ...] = tuple(adjacency)

        # -- flat temporal state -----------------------------------------------
        self.ati_bounds: Tuple[Tuple[float, ...], ...] = tuple(
            tuple(itgraph.door_record(door_id).atis.boundary_seconds())
            for door_id in self.door_ids
        )
        self.interval_bitsets = IntervalBitsets(itgraph, self.door_ids)

        # -- flat door geometry (query endpoint legs) --------------------------
        self.door_x = array("d", [0.0]) * len(self.door_ids)
        self.door_y = array("d", [0.0]) * len(self.door_ids)
        self.door_floor: List[int] = [0] * len(self.door_ids)
        for index, door_id in enumerate(self.door_ids):
            position = itgraph.door_record(door_id).position
            self.door_x[index] = position.x
            self.door_y[index] = position.y
            self.door_floor[index] = position.floor

        # ``P2D⊣`` lowered to index lists (same frozenset iteration order the
        # reference search observes when expanding the source partition).
        self.leaveable_by_partition: List[Tuple[int, ...]] = [
            tuple(self.door_index[door_id] for door_id in topology.leaveable_doors(partition_id))
            for partition_id in self.partition_ids
        ]

        # -- compiled point location -------------------------------------------
        # ``locate_specs`` is the flat, serialisable source of the point
        # location structures: one row per located partition, in the space's
        # insertion order (which fixes first-match semantics).  The entry and
        # grid build lives in :meth:`_install_point_location` so a graph
        # rehydrated from the ``repro.io`` codec constructs identical
        # structures from the same rows.
        self.locate_specs: Tuple[Tuple[int, int, object, object], ...] = tuple(
            (
                self.partition_index[partition.partition_id],
                partition.floor,
                partition.spans_floors,
                partition.polygon,
            )
            for partition in itgraph.space.iter_partitions()
            if partition.polygon is not None
        )
        #: Optional per-interval precompute (:class:`IntervalOverlays`); built
        #: on demand by :meth:`build_overlays` and carried through the codec.
        self.overlays: Optional["IntervalOverlays"] = None
        self._install_point_location()

    def _install_point_location(self) -> None:
        """Build the per-floor locate entries and grids from :attr:`locate_specs`.

        Same first-match-in-insertion-order semantics as ``IndoorSpace.locate``
        but bucketed per floor with a flat bbox prefilter, so most partitions
        are rejected without any method call.  Bucketing preserves the
        insertion order within each floor (a point has exactly one floor, so
        the first bucketed match is the first global match), and the bbox
        test uses the same 1e-9 tolerance as the polygon containment tests,
        so it never rejects a partition the exact test would accept.

        The containment probe is :meth:`Partition.contains_point` of a
        partition rebuilt from the spec row — the method reads only the
        polygon, floor and floor span, so the probe is bit-identical whether
        the graph was compiled from an IT-Graph or rehydrated from bytes.
        """
        locate_by_floor: Dict[int, List[Tuple[float, float, float, float, object, int]]] = {}
        for pidx, floor, spans, polygon in self.locate_specs:
            probe = Partition(
                partition_id=self.partition_ids[pidx],
                polygon=polygon,
                floor=floor,
                spans_floors=spans,
            )
            if spans is not None:
                floor_low, floor_high = spans
            else:
                floor_low = floor_high = floor
            box = polygon.bounding_box
            entry = (
                box.min_x - 1e-9,
                box.max_x + 1e-9,
                box.min_y - 1e-9,
                box.max_y + 1e-9,
                probe.contains_point,
                pidx,
            )
            for bucket_floor in range(floor_low, floor_high + 1):
                locate_by_floor.setdefault(bucket_floor, []).append(entry)
        self._locate_entries = {floor: tuple(rows) for floor, rows in locate_by_floor.items()}

        # Uniform point-location grid per floor: each cell holds, in the same
        # insertion order as ``_locate_entries``, the entries whose (inflated)
        # bbox overlaps the cell.  A lookup inspects one cell instead of the
        # whole floor, making ``locate_index`` O(1)-ish at paper scale while
        # preserving the exact first-match semantics (any entry containing a
        # point overlaps the point's cell, and cell lists keep global order).
        self._locate_grid = {
            floor: self._build_floor_grid(rows) for floor, rows in self._locate_entries.items()
        }

    @classmethod
    def _from_state(cls, state: Dict[str, object]) -> "CompiledITGraph":
        """Rebuild a compiled graph from the ``repro.io`` codec's state dict.

        The rehydrated graph serves queries (sequential and batch) with
        bit-identical results and statistics, but carries no
        :class:`~repro.core.itgraph.ITGraph`: :attr:`itgraph` is ``None``,
        which only matters to callers that want the object-level reference
        engine.  This is what venue shards build their engines from.
        """
        graph = object.__new__(cls)
        graph.itgraph = None
        graph.door_ids = list(state["door_ids"])
        graph.door_index = {door_id: i for i, door_id in enumerate(graph.door_ids)}
        graph.partition_ids = list(state["partition_ids"])
        graph.partition_index = {pid: i for i, pid in enumerate(graph.partition_ids)}
        graph.partition_private = list(state["partition_private"])
        graph.partition_outdoor = list(state["partition_outdoor"])
        graph.dm_arrays = list(state["dm_arrays"])
        graph.dm_locals = list(state["dm_locals"])
        graph.dm_sizes = [len(local) for local in graph.dm_locals]
        graph.adjacency = tuple(state["adjacency"])
        graph.ati_bounds = tuple(state["ati_bounds"])
        graph.interval_bitsets = state["interval_bitsets"]
        graph.door_x = state["door_x"]
        graph.door_y = state["door_y"]
        graph.door_floor = list(state["door_floor"])
        graph.leaveable_by_partition = list(state["leaveable_by_partition"])
        graph.locate_specs = tuple(state["locate_specs"])
        graph.overlays = state.get("overlays")
        graph._install_point_location()
        return graph

    def build_overlays(self, landmark_count: int = 4) -> "IntervalOverlays":
        """Build (or rebuild) the per-interval precompute pass and attach it.

        An offline cost like compilation itself: reachability closures for
        every checkpoint interval plus interval-keyed landmark distance rows.
        Once attached, :func:`repro.io.compiled_codec.compiled_graph_to_bytes`
        serialises the overlays as the payload's optional ``precompute``
        section, so venue shards rehydrate them for free.
        """
        self.overlays = IntervalOverlays.build(self, landmark_count=landmark_count)
        return self.overlays

    @staticmethod
    def _build_floor_grid(rows):
        """``(min_x, min_y, inv_w, inv_h, nx, ny, cells)`` for one floor."""
        min_x = min(row[0] for row in rows)
        max_x = max(row[1] for row in rows)
        min_y = min(row[2] for row in rows)
        max_y = max(row[3] for row in rows)
        # Aim for about one partition per cell on a roughly square grid.
        side = max(1, math.isqrt(len(rows)))
        nx = side if max_x > min_x else 1
        ny = side if max_y > min_y else 1
        inv_w = nx / (max_x - min_x) if max_x > min_x else 0.0
        inv_h = ny / (max_y - min_y) if max_y > min_y else 0.0
        cells: List[List[tuple]] = [[] for _ in range(nx * ny)]
        for row in rows:
            x_low = min(int((row[0] - min_x) * inv_w), nx - 1)
            x_high = min(int((row[1] - min_x) * inv_w), nx - 1)
            y_low = min(int((row[2] - min_y) * inv_h), ny - 1)
            y_high = min(int((row[3] - min_y) * inv_h), ny - 1)
            for cx in range(x_low, x_high + 1):
                base = cx * ny
                for cy in range(y_low, y_high + 1):
                    cells[base + cy].append(row)
        return (min_x, min_y, inv_w, inv_h, nx, ny, tuple(tuple(cell) for cell in cells))

    # -- accessors -------------------------------------------------------------

    @property
    def door_count(self) -> int:
        """Number of interned doors."""
        return len(self.door_ids)

    @property
    def partition_count(self) -> int:
        """Number of interned partitions."""
        return len(self.partition_ids)

    def intra_distance_idx(self, partition_idx: int, door_a_idx: int, door_b_idx: int) -> float:
        """``DM`` lookup by integer ids: O(1) dense-array offset, no allocation.

        Raises
        ------
        UnknownEntityError
            If either door does not belong to the partition or the distance
            is undefined (cross-floor pair without a stairway override).
        """
        local = self.dm_locals[partition_idx]
        try:
            row = local[door_a_idx]
            column = local[door_b_idx]
        except KeyError as exc:
            raise UnknownEntityError(
                f"door index {exc.args[0]} is not a door of partition "
                f"{self.partition_ids[partition_idx]!r}"
            ) from exc
        value = self.dm_arrays[partition_idx][row * self.dm_sizes[partition_idx] + column]
        if value != value:
            raise UnknownEntityError(
                "no intra-partition distance between doors "
                f"{self.door_ids[door_a_idx]!r} and {self.door_ids[door_b_idx]!r}"
            )
        return value

    def door_open_at_seconds(self, door_idx: int, instant_seconds: float) -> bool:
        """Flat-array passability probe: one ``bisect`` on raw floats."""
        return bisect_right(self.ati_bounds[door_idx], instant_seconds) & 1 == 1

    def locate_index(self, point) -> int:
        """Partition index covering ``point`` — compiled ``P(p)``.

        First-match-in-insertion-order, exactly like
        :meth:`~repro.indoor.space.IndoorSpace.locate`, but served from the
        per-floor uniform grid: only the partitions whose bounding box
        overlaps the point's grid cell are tested, so endpoint location costs
        a handful of containment tests regardless of venue size.  Any
        partition containing the point overlaps its cell and cell lists keep
        the global insertion order, so the first match is the same partition
        the linear scan (:meth:`locate_index_linear`) returns.

        Raises
        ------
        UnknownEntityError
            If no partition covers the point.
        """
        grid = self._locate_grid.get(point.floor)
        if grid is None:
            raise UnknownEntityError(f"no partition covers point {point!r}")
        min_x, min_y, inv_w, inv_h, nx, ny, cells = grid
        x = point.x
        y = point.y
        cx = int((x - min_x) * inv_w)
        if cx < 0:
            cx = 0
        elif cx >= nx:
            cx = nx - 1
        cy = int((y - min_y) * inv_h)
        if cy < 0:
            cy = 0
        elif cy >= ny:
            cy = ny - 1
        for bbox_min_x, bbox_max_x, bbox_min_y, bbox_max_y, contains_point, pidx in cells[
            cx * ny + cy
        ]:
            if (
                bbox_min_x <= x <= bbox_max_x
                and bbox_min_y <= y <= bbox_max_y
                and contains_point(point)
            ):
                return pidx
        raise UnknownEntityError(f"no partition covers point {point!r}")

    def locate_index_linear(self, point) -> int:
        """The pre-grid linear bbox scan (the oracle for grid equivalence).

        Same first-match-in-insertion-order semantics as :meth:`locate_index`;
        kept for tests and as a reference for venues whose geometry defeats
        uniform bucketing.

        Raises
        ------
        UnknownEntityError
            If no partition covers the point.
        """
        x = point.x
        y = point.y
        for min_x, max_x, min_y, max_y, contains_point, pidx in self._locate_entries.get(
            point.floor, ()
        ):
            if min_x <= x <= max_x and min_y <= y <= max_y and contains_point(point):
                return pidx
        raise UnknownEntityError(f"no partition covers point {point!r}")

    def memory_bytes(self) -> int:
        """Approximate payload size of the compiled arrays (for reports)."""
        dm_bytes = sum(dense.itemsize * len(dense) for dense in self.dm_arrays)
        ati_bytes = sum(8 * len(bounds) for bounds in self.ati_bounds)
        edge_bytes = sum(
            16 * len(edges) for groups in self.adjacency for _, _, edges in groups
        )
        return dm_bytes + ati_bytes + edge_bytes

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CompiledITGraph({self.partition_count} partitions, {self.door_count} doors, "
            f"{self.interval_bitsets.interval_count} intervals)"
        )


class IntervalOverlays:
    """Per-interval precompute: reachability closures + landmark distance rows.

    Within one checkpoint interval the open-door bitset is frozen, so the
    search graph is one member of a small family of static graphs.  This
    class precomputes, for every interval:

    * a **component row** — a connected-component label per door over the
      doors open in that interval (closed doors get ``-1``), computed over
      the *most permissive* door-to-door adjacency (edges through private
      partitions included, treated as undirected).  Two doors in different
      components are provably mutually unreachable in that interval under
      any privacy context — the sound direction for pruning; and
    * **landmark distance rows** — exact door-to-door shortest distances
      from a few high-degree landmark doors over the interval's frozen
      graph (``inf`` = unreachable), usable as triangle-inequality lower
      bounds on door-to-door distances.

    Two extra component rows cover the time-free views: row
    ``interval_count`` labels doors that are open at *some* time of day
    (the sound row for the arrival-time methods, whose probes move through
    many instants), and row ``interval_count + 1`` ignores schedules
    entirely (the row for the ``static`` method).

    Overlays are deterministic functions of the compiled graph, so they
    serialise byte-stably in the codec's optional ``precompute`` section and
    an overlay rehydrated from bytes re-serialises to identical bytes.
    """

    __slots__ = (
        "door_count",
        "interval_count",
        "component_rows",
        "landmark_indices",
        "landmark_rows",
        "entering_doors",
    )

    def __init__(
        self,
        door_count: int,
        interval_count: int,
        component_rows: Tuple[array, ...],
        landmark_indices: Tuple[int, ...],
        landmark_rows: Tuple[Tuple[array, ...], ...],
        entering_doors: Tuple[Tuple[int, ...], ...],
    ):
        if len(component_rows) != interval_count + 2:
            raise ValueError(
                f"expected {interval_count + 2} component rows, got {len(component_rows)}"
            )
        self.door_count = door_count
        self.interval_count = interval_count
        #: ``component_rows[i][door]`` = component label of ``door`` among the
        #: doors open in interval ``i`` (``-1`` = closed); rows
        #: ``interval_count`` and ``interval_count + 1`` are the any-time and
        #: topology-only views.
        self.component_rows = component_rows
        self.landmark_indices = landmark_indices
        #: ``landmark_rows[i][k][door]`` = exact distance from landmark ``k``
        #: to ``door`` over the interval-``i`` frozen graph (``inf`` =
        #: unreachable there).
        self.landmark_rows = landmark_rows
        #: Doors adjacent *into* each partition (the doors that can relax a
        #: target inside it) — derived from the adjacency, not serialised.
        self.entering_doors = entering_doors

    # -- construction ----------------------------------------------------------

    @classmethod
    def build(cls, graph: "CompiledITGraph", landmark_count: int = 4) -> "IntervalOverlays":
        """Compute the overlays of ``graph`` (deterministic, compile-time)."""
        door_count = graph.door_count
        bitsets = graph.interval_bitsets
        interval_count = bitsets.interval_count

        out_edges: List[List[Tuple[int, float]]] = [[] for _ in range(door_count)]
        undirected = set()
        degree = [0] * door_count
        for door, groups in enumerate(graph.adjacency):
            for _pidx, _is_private, edges in groups:
                for next_door, leg in edges:
                    out_edges[door].append((next_door, leg))
                    degree[door] += 1
                    undirected.add(
                        (door, next_door) if door < next_door else (next_door, door)
                    )
        edge_list = sorted(undirected)

        rows: List[array] = []
        for index in range(interval_count):
            rows.append(cls._components(door_count, edge_list, bitsets.bitset_by_index(index)))
        any_open = bytes(1 if graph.ati_bounds[d] else 0 for d in range(door_count))
        rows.append(cls._components(door_count, edge_list, any_open))
        rows.append(cls._components(door_count, edge_list, b"\x01" * door_count))

        count = max(0, min(landmark_count, door_count))
        landmarks = tuple(sorted(range(door_count), key=lambda d: (-degree[d], d))[:count])
        landmark_rows = tuple(
            tuple(
                cls._distances(door_count, out_edges, bitsets.bitset_by_index(index), landmark)
                for landmark in landmarks
            )
            for index in range(interval_count)
        )

        return cls(
            door_count,
            interval_count,
            tuple(rows),
            landmarks,
            landmark_rows,
            cls.entering_from_adjacency(graph.adjacency, graph.partition_count),
        )

    @staticmethod
    def entering_from_adjacency(adjacency, partition_count: int) -> Tuple[Tuple[int, ...], ...]:
        """Doors whose adjacency enters each partition (deterministic order)."""
        entering: List[List[int]] = [[] for _ in range(partition_count)]
        for door, groups in enumerate(adjacency):
            for pidx, _is_private, _edges in groups:
                entering[pidx].append(door)
        return tuple(tuple(doors) for doors in entering)

    @staticmethod
    def _components(door_count: int, edge_list, open_flags) -> array:
        """Component label per open door (``-1`` = closed); labels are the
        smallest door index of each component, so the row is canonical."""
        parent = list(range(door_count))

        def find(node: int) -> int:
            root = node
            while parent[root] != root:
                root = parent[root]
            while parent[node] != root:
                parent[node], node = root, parent[node]
            return root

        for door_a, door_b in edge_list:
            if open_flags[door_a] and open_flags[door_b]:
                root_a = find(door_a)
                root_b = find(door_b)
                if root_a != root_b:
                    if root_a < root_b:
                        parent[root_b] = root_a
                    else:
                        parent[root_a] = root_b
        row = array("i", [-1]) * door_count
        for door in range(door_count):
            if open_flags[door]:
                row[door] = find(door)
        return row

    @staticmethod
    def _distances(door_count: int, out_edges, open_flags, landmark: int) -> array:
        """Exact Dijkstra distances from ``landmark`` over the open doors."""
        infinity = math.inf
        dist = array("d", [infinity]) * door_count
        if not open_flags[landmark]:
            return dist
        dist[landmark] = 0.0
        settled = bytearray(door_count)
        heap: List[Tuple[float, int]] = [(0.0, landmark)]
        while heap:
            distance, door = heappop(heap)
            if settled[door]:
                continue
            settled[door] = 1
            for next_door, leg in out_edges[door]:
                if settled[next_door] or not open_flags[next_door]:
                    continue
                candidate = distance + leg
                if candidate < dist[next_door]:
                    dist[next_door] = candidate
                    heappush(heap, (candidate, next_door))
        return dist

    # -- probes ----------------------------------------------------------------

    @property
    def any_time_row(self) -> int:
        """Index of the any-time component row (arrival-time methods)."""
        return self.interval_count

    @property
    def topology_row(self) -> int:
        """Index of the schedule-free component row (``static`` method)."""
        return self.interval_count + 1

    def row_for_kind(self, kind: int, interval_index: Optional[int] = None) -> array:
        """The sound component row for one TV-check dispatch kind.

        ``static`` never looks at the clock (topology row); ``query-time``
        probes exactly one interval (its row, when the caller knows the
        index); the arrival-time methods probe many instants, so only the
        any-time row is sound for them.
        """
        if kind == 2:
            return self.component_rows[self.topology_row]
        if kind == 3 and interval_index is not None:
            return self.component_rows[min(interval_index, self.interval_count - 1)]
        return self.component_rows[self.any_time_row]

    def connected(self, row: array, doors_a, doors_b) -> bool:
        """Whether any open door of ``doors_a`` shares a component with any
        open door of ``doors_b`` under ``row`` (the *may-be-reachable* test;
        ``False`` is a proof of unreachability)."""
        components = {row[door] for door in doors_a if row[door] >= 0}
        if not components:
            return False
        for door in doors_b:
            label = row[door]
            if label >= 0 and label in components:
                return True
        return False

    def landmark_bound(self, interval_index: int, door_a: int, door_b: int) -> float:
        """Triangle-inequality lower bound on the interval's door-to-door
        distance: ``max_k |d(L_k, a) - d(L_k, b)|`` (``inf`` = provably
        unreachable, ``0.0`` = no information)."""
        best = 0.0
        for row in self.landmark_rows[min(interval_index, self.interval_count - 1)]:
            da = row[door_a]
            db = row[door_b]
            finite_a = da < math.inf
            finite_b = db < math.inf
            if finite_a and finite_b:
                gap = da - db if da >= db else db - da
                if gap > best:
                    best = gap
            elif finite_a or finite_b:
                return math.inf
        return best

    def memory_bytes(self) -> int:
        """Approximate footprint of the overlay arrays (for reports)."""
        component_bytes = sum(row.itemsize * len(row) for row in self.component_rows)
        landmark_bytes = sum(
            row.itemsize * len(row) for per_interval in self.landmark_rows for row in per_interval
        )
        return component_bytes + landmark_bytes

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"IntervalOverlays({self.interval_count} intervals, {self.door_count} doors, "
            f"{len(self.landmark_indices)} landmarks)"
        )
