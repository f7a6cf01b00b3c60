"""The paper's primary contribution: the IT-Graph and ITSPQ query processing.

Contents
--------
:mod:`repro.core.itgraph`
    The Indoor Temporal-variation Graph (IT-Graph) of Section II-A: the
    accessibility topology decorated with a partition table (types + distance
    matrices) and a door table (types + ATIs).
:mod:`repro.core.snapshot`
    ``Graph_Update`` (Algorithm 3): reduced topology snapshots per checkpoint
    interval.
:mod:`repro.core.tvcheck`
    The temporal-validity check strategies: ``Syn_Check`` (Algorithm 2),
    ``Asyn_Check`` (Algorithm 4) and a temporal-unaware baseline check.
:mod:`repro.core.engine`
    ``ITSPQ_ITGraph`` (Algorithm 1): the door-level Dijkstra that answers
    ITSPQ, in the two flavours the paper evaluates (ITG/S and ITG/A).
:mod:`repro.core.compiled`
    The integer-indexed compiled search index: dense ``DM`` arrays, flattened
    adjacency, flat ATI boundary arrays and per-interval open-door bitsets,
    powering the engine's default fast path (``compiled=True``).
:mod:`repro.core.kernel`
    The one compiled door-level search: every compiled tier — single
    queries (as groups of one), batch groups and SP-tree cache recording —
    runs its multi-target Dijkstra loop.
:mod:`repro.core.batch`
    Batch query execution: the common-source batch planner and the executor
    behind ``ITSPQEngine.run_batch`` that answers each planned group with
    one multi-target kernel run.
:mod:`repro.core.cache`
    The interval-keyed shortest-path-tree cache: recorded kernel runs
    replayed per query, statistics included.
:mod:`repro.core.parallel`
    Supervised multiprocess batch execution: planned groups fanned out as
    tracked, retryable chunks over a pool of worker processes (a batch
    executor per worker, compiled index handed off in its serialised
    ``repro.io`` form),
    with a degradation ladder — retry on a respawned pool, then in-process
    fallback — that keeps ``ITSPQEngine.run_batch(workers=N)`` bit-identical
    to sequential execution even under worker crashes, chunk timeouts and
    corrupt rehydration payloads.  Every run is summarised by an
    ``ExecutionReport``.
:mod:`repro.core.path` / :mod:`repro.core.query`
    Query and result value objects, including per-hop arrival times and
    re-validation of returned paths.
:mod:`repro.core.baselines` / :mod:`repro.core.reference`
    Temporal-unaware baselines and independent reference implementations used
    as correctness oracles by the test-suite.
"""

from repro.core.batch import BatchExecutor, BatchGroup, BatchPlanner
from repro.core.cache import CacheConfig, SPTreeCache
from repro.core.compiled import CompiledITGraph
from repro.core.deadline import SearchDeadline
from repro.core.parallel import ExecutionReport, ParallelBatchExecutor, default_worker_count
from repro.core.itgraph import DoorRecord, ITGraph, PartitionRecord, build_itgraph
from repro.core.snapshot import GraphSnapshot, GraphUpdater, IntervalBitsets
from repro.core.tvcheck import (
    AsynchronousCheck,
    StaticCheck,
    SynchronousCheck,
    TVCheckStrategy,
)
from repro.core.path import IndoorPath, PathHop
from repro.core.query import ITSPQuery, QueryResult, SearchStatistics
from repro.core.engine import CheckMethod, ITSPQEngine
from repro.core.baselines import static_shortest_path, query_time_snapshot_path
from repro.core.reference import (
    selection_dijkstra_reference,
    time_expanded_exact,
)

__all__ = [
    "ITGraph",
    "DoorRecord",
    "PartitionRecord",
    "build_itgraph",
    "BatchExecutor",
    "BatchGroup",
    "BatchPlanner",
    "CacheConfig",
    "SPTreeCache",
    "SearchDeadline",
    "ExecutionReport",
    "ParallelBatchExecutor",
    "default_worker_count",
    "CompiledITGraph",
    "GraphSnapshot",
    "GraphUpdater",
    "IntervalBitsets",
    "TVCheckStrategy",
    "SynchronousCheck",
    "AsynchronousCheck",
    "StaticCheck",
    "IndoorPath",
    "PathHop",
    "ITSPQuery",
    "QueryResult",
    "SearchStatistics",
    "ITSPQEngine",
    "CheckMethod",
    "static_shortest_path",
    "query_time_snapshot_path",
    "selection_dijkstra_reference",
    "time_expanded_exact",
]
