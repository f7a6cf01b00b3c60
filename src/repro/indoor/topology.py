"""Topology mappings between doors and partitions.

The paper (following Lu et al., ICDE 2012) works with six mappings:

========================  =====================================================
``P2D(v)``                doors attached to partition ``v``
``D2P(d)``                partitions attached to door ``d``
``P2D_enterable(v)``      doors through which one can *enter* ``v``  (``P2D⊢``)
``P2D_leaveable(v)``      doors through which one can *leave* ``v``  (``P2D⊣``)
``D2P_enterable(d)``      partitions one can *enter* through ``d``   (``D2P⊢``)
``D2P_leaveable(d)``      partitions one can *leave* through ``d``   (``D2P⊣``)
========================  =====================================================

``Topology`` materialises all six from the directed connection list of an
:class:`~repro.indoor.space.IndoorSpace` and is also the object that
``Graph_Update`` (Algorithm 3) reduces when doors close: removing a door from
the mappings removes it from the search frontier without touching the
underlying space.

Every mapping iterates in insertion order, never in hash order: the searches
walk them, so a venue built from the same calls in two processes answers
every query with the same route and the same counters whatever each
process's ``PYTHONHASHSEED``.
"""

from __future__ import annotations

from typing import Dict, Iterable, KeysView, Tuple

from repro.exceptions import UnknownEntityError


class Topology:
    """Door/partition incidence mappings with directionality.

    The class is deliberately a plain container of insertion-ordered sets
    (dicts with ``None`` values) so that reduced copies (snapshots with
    closed doors removed) are cheap to derive; see :meth:`without_doors`.
    The mappings are returned as read-only ``dict.keys()`` views, which
    compare equal to sets.
    """

    __slots__ = (
        "_p2d",
        "_d2p",
        "_p2d_enterable",
        "_p2d_leaveable",
        "_d2p_enterable",
        "_d2p_leaveable",
        "_directed_edges",
    )

    def __init__(self) -> None:
        self._p2d: Dict[str, Dict[str, None]] = {}
        self._d2p: Dict[str, Dict[str, None]] = {}
        self._p2d_enterable: Dict[str, Dict[str, None]] = {}
        self._p2d_leaveable: Dict[str, Dict[str, None]] = {}
        self._d2p_enterable: Dict[str, Dict[str, None]] = {}
        self._d2p_leaveable: Dict[str, Dict[str, None]] = {}
        self._directed_edges: Dict[Tuple[str, str, str], None] = {}

    # -- construction ----------------------------------------------------------

    def register_partition(self, partition_id: str) -> None:
        """Ensure ``partition_id`` has (possibly empty) entries in the mappings."""
        self._p2d.setdefault(partition_id, {})
        self._p2d_enterable.setdefault(partition_id, {})
        self._p2d_leaveable.setdefault(partition_id, {})

    def register_door(self, door_id: str) -> None:
        """Ensure ``door_id`` has (possibly empty) entries in the mappings."""
        self._d2p.setdefault(door_id, {})
        self._d2p_enterable.setdefault(door_id, {})
        self._d2p_leaveable.setdefault(door_id, {})

    def add_directed_connection(self, from_partition: str, to_partition: str, door_id: str) -> None:
        """Record that one can move from ``from_partition`` to ``to_partition``
        through ``door_id``.

        A bidirectional door is recorded as two directed connections.
        """
        self.register_partition(from_partition)
        self.register_partition(to_partition)
        self.register_door(door_id)
        self._directed_edges[(from_partition, to_partition, door_id)] = None

        self._p2d[from_partition][door_id] = None
        self._p2d[to_partition][door_id] = None
        self._d2p[door_id][from_partition] = None
        self._d2p[door_id][to_partition] = None

        self._p2d_leaveable[from_partition][door_id] = None
        self._p2d_enterable[to_partition][door_id] = None
        self._d2p_leaveable[door_id][from_partition] = None
        self._d2p_enterable[door_id][to_partition] = None

    # -- the six mappings --------------------------------------------------------

    def _require_partition(self, partition_id: str) -> None:
        if partition_id not in self._p2d:
            raise UnknownEntityError(f"unknown partition {partition_id!r}")

    def _require_door(self, door_id: str) -> None:
        if door_id not in self._d2p:
            raise UnknownEntityError(f"unknown door {door_id!r}")

    def doors_of(self, partition_id: str) -> KeysView[str]:
        """``P2D(v)``: doors attached to ``partition_id``."""
        self._require_partition(partition_id)
        return self._p2d[partition_id].keys()

    def partitions_of(self, door_id: str) -> KeysView[str]:
        """``D2P(d)``: partitions attached to ``door_id``."""
        self._require_door(door_id)
        return self._d2p[door_id].keys()

    def enterable_doors(self, partition_id: str) -> KeysView[str]:
        """``P2D⊢(v)``: doors through which one can enter ``partition_id``."""
        self._require_partition(partition_id)
        return self._p2d_enterable[partition_id].keys()

    def leaveable_doors(self, partition_id: str) -> KeysView[str]:
        """``P2D⊣(v)``: doors through which one can leave ``partition_id``."""
        self._require_partition(partition_id)
        return self._p2d_leaveable[partition_id].keys()

    def enterable_partitions(self, door_id: str) -> KeysView[str]:
        """``D2P⊢(d)``: partitions one can enter through ``door_id``."""
        self._require_door(door_id)
        return self._d2p_enterable[door_id].keys()

    def leaveable_partitions(self, door_id: str) -> KeysView[str]:
        """``D2P⊣(d)``: partitions one can leave through ``door_id``."""
        self._require_door(door_id)
        return self._d2p_leaveable[door_id].keys()

    # -- collection views ----------------------------------------------------------

    @property
    def partition_ids(self) -> KeysView[str]:
        """All partitions known to the topology."""
        return self._p2d.keys()

    @property
    def door_ids(self) -> KeysView[str]:
        """All doors known to the topology."""
        return self._d2p.keys()

    @property
    def directed_edges(self) -> KeysView[Tuple[str, str, str]]:
        """All directed connections ``(from_partition, to_partition, door)``."""
        return self._directed_edges.keys()

    def has_door(self, door_id: str) -> bool:
        """Return ``True`` when ``door_id`` is present in the topology."""
        return door_id in self._d2p

    def has_partition(self, partition_id: str) -> bool:
        """Return ``True`` when ``partition_id`` is present in the topology."""
        return partition_id in self._p2d

    def degree(self, partition_id: str) -> int:
        """Number of doors attached to ``partition_id``."""
        return len(self.doors_of(partition_id))

    # -- reduction (Algorithm 3 support) ----------------------------------------------

    def without_doors(self, closed_doors: Iterable[str]) -> "Topology":
        """Return a copy of the topology with ``closed_doors`` removed.

        This is the structural core of ``Graph_Update``: the reduced topology
        in force between two checkpoints simply lacks the doors closed during
        that interval, so the search never even considers them.
        """
        closed = set(closed_doors)
        reduced = Topology()
        for partition_id in self._p2d:
            reduced.register_partition(partition_id)
        for door_id in self._d2p:
            if door_id not in closed:
                reduced.register_door(door_id)
        for from_partition, to_partition, door_id in self._directed_edges:
            if door_id not in closed:
                reduced.add_directed_connection(from_partition, to_partition, door_id)
        return reduced

    def copy(self) -> "Topology":
        """Return an independent deep copy of the topology."""
        return self.without_doors(())

    # -- statistics ------------------------------------------------------------------

    def edge_count(self) -> int:
        """Number of directed connections."""
        return len(self._directed_edges)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Topology({len(self._p2d)} partitions, {len(self._d2p)} doors, "
            f"{len(self._directed_edges)} directed connections)"
        )
