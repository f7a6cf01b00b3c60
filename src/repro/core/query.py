"""Query and result value objects for ITSPQ processing."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.exceptions import QueryError
from repro.geometry.point import IndoorPoint
from repro.core.path import IndoorPath
from repro.core.semantics import NO_WAIT, SemanticsLike, TemporalSemantics, canonical_semantics
from repro.temporal.timeofday import TimeLike, TimeOfDay, as_time_of_day


@dataclass(frozen=True)
class ITSPQuery:
    """An Indoor Temporal-variation aware Shortest Path Query ``ITSPQ(ps, pt, t)``.

    Attributes
    ----------
    source:
        The start point ``p_s``.
    target:
        The target point ``p_t``.
    query_time:
        The timestamp ``t`` at which the user starts walking (or, under
        latest-departure semantics, the arrival deadline).
    label:
        Optional free-form tag used by workload generators (e.g. the δs2t
        bucket the query instance was generated for).
    semantics:
        The :class:`~repro.core.semantics.TemporalSemantics` the query is to
        be answered under; defaults to the paper's no-wait semantics.  All
        normalisation/validation of the semantics argument happens here, once,
        rather than per engine tier.
    """

    source: IndoorPoint
    target: IndoorPoint
    query_time: TimeOfDay
    label: str = ""
    semantics: TemporalSemantics = NO_WAIT

    def __init__(
        self,
        source: IndoorPoint,
        target: IndoorPoint,
        query_time: TimeLike,
        label: str = "",
        semantics: SemanticsLike = NO_WAIT,
    ):
        if not isinstance(source, IndoorPoint) or not isinstance(target, IndoorPoint):
            raise QueryError("query endpoints must be IndoorPoint instances")
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "query_time", as_time_of_day(query_time))
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "semantics", canonical_semantics(semantics))

    def at_time(self, query_time: TimeLike) -> "ITSPQuery":
        """Return the same origin/destination pair issued at a different time."""
        return ITSPQuery(self.source, self.target, query_time, self.label, self.semantics)

    def with_semantics(self, semantics: SemanticsLike) -> "ITSPQuery":
        """Return the same query under a different temporal semantics.

        Accepts an instance or a canonical name (``"no-wait"``,
        ``"wait-tolerant"``, ``"latest-departure"``; a time window needs an
        explicit :class:`~repro.core.semantics.TimeWindow` instance).
        """
        return ITSPQuery(self.source, self.target, self.query_time, self.label, semantics)

    def __str__(self) -> str:
        return f"ITSPQ({self.source}, {self.target}, {self.query_time})"


@dataclass
class SearchStatistics:
    """Instrumentation collected during one ITSPQ search.

    The counters mirror the cost factors the paper's evaluation discusses:
    how much of the graph the search touches (settled doors, relaxations,
    heap traffic) and how much temporal-checking work each method performs
    (ATI probes for ITG/S, snapshot refreshes and membership tests for
    ITG/A).
    """

    #: The deterministic counters, i.e. every field that must be bit-identical
    #: across execution tiers (sequential, compiled, batch, cache) for the
    #: same query — everything except ``runtime_seconds`` and ``extra``.  The
    #: parity gates and benchmarks iterate this instead of hand-maintaining
    #: their own field lists, so a newly added counter is gated automatically.
    COUNTER_FIELDS = (
        "doors_settled",
        "relaxations",
        "heap_pushes",
        "heap_pops",
        "partitions_expanded",
        "private_partitions_pruned",
        "temporally_pruned_doors",
        "ati_probes",
        "snapshot_refreshes",
        "membership_checks",
        "peak_heap_size",
    )

    doors_settled: int = 0
    relaxations: int = 0
    heap_pushes: int = 0
    heap_pops: int = 0
    partitions_expanded: int = 0
    private_partitions_pruned: int = 0
    temporally_pruned_doors: int = 0
    ati_probes: int = 0
    snapshot_refreshes: int = 0
    membership_checks: int = 0
    runtime_seconds: float = 0.0
    peak_heap_size: int = 0
    extra: Dict[str, float] = field(default_factory=dict)

    def merge_strategy_counters(self, counters: Dict[str, int]) -> None:
        """Fold the TV-check strategy counters into these statistics."""
        self.ati_probes += counters.get("ati_probes", 0)
        self.snapshot_refreshes += counters.get("snapshot_refreshes", 0)
        self.membership_checks += counters.get("membership_checks", 0)

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict view used by the benchmark reporter."""
        result = {
            "doors_settled": self.doors_settled,
            "relaxations": self.relaxations,
            "heap_pushes": self.heap_pushes,
            "heap_pops": self.heap_pops,
            "partitions_expanded": self.partitions_expanded,
            "private_partitions_pruned": self.private_partitions_pruned,
            "temporally_pruned_doors": self.temporally_pruned_doors,
            "ati_probes": self.ati_probes,
            "snapshot_refreshes": self.snapshot_refreshes,
            "membership_checks": self.membership_checks,
            "runtime_seconds": self.runtime_seconds,
            "peak_heap_size": self.peak_heap_size,
        }
        result.update(self.extra)
        return result


@dataclass
class QueryResult:
    """Outcome of one ITSPQ evaluation.

    ``found`` is ``False`` when no valid route exists at the query time (the
    paper's "no such routes" outcome, e.g. ``ITSPQ(p3, p4, 23:30)`` in
    Example 1); ``path`` is then ``None`` and ``length`` is ``inf``.
    """

    query: ITSPQuery
    method_label: str
    found: bool
    path: Optional[IndoorPath] = None
    length: float = float("inf")
    statistics: SearchStatistics = field(default_factory=SearchStatistics)

    @property
    def is_reachable(self) -> bool:
        """Alias of ``found``."""
        return self.found

    @property
    def semantics(self) -> TemporalSemantics:
        """The temporal semantics the result was computed under (the
        query's — a result can never answer a different semantics)."""
        return self.query.semantics

    def require_path(self) -> IndoorPath:
        """Return the path or raise :class:`~repro.exceptions.NoPathExistsError`."""
        from repro.exceptions import NoPathExistsError

        if not self.found or self.path is None:
            raise NoPathExistsError(f"no valid route for {self.query}")
        return self.path

    def summary(self) -> str:
        """One-line human-readable summary."""
        if not self.found or self.path is None:
            return f"{self.method_label}: no such routes for {self.query}"
        return f"{self.method_label}: {self.path.describe()}"
