#!/usr/bin/env python
"""Parallel batch throughput: speedup vs worker count on the fig6 workload.

Measures how many ITSPQ queries per second the engine answers when one
combined fan-out workload (every generated source routed to every generated
target, across all Figure 6 query times — the many-users-few-entrances
service shape) is executed:

``sequential``
    One search per query (``run_batch(batch=False)``), the per-query oracle.
``workers=1``
    The single-process :class:`~repro.core.batch.BatchExecutor` (the PR 2
    planned multi-target path) — the baseline parallel speedups are measured
    against.
``workers=N``
    The :class:`~repro.core.parallel.ParallelBatchExecutor`: the same plan
    fanned out over ``N`` worker processes, each rehydrating the compiled
    index from its serialised ``repro.io`` form and owning a private batch
    executor.  Results are asserted bit-identical to the sequential engine
    before any timing is trusted.

Parallel speedup is bounded by the machine: on a single-core host the pool
only adds IPC overhead, so the JSON record always carries ``cpu_count``
(in its shared ``environment`` provenance block) and ``usable_cpus`` next
to the numbers.  CI regenerates this benchmark on
multi-core runners and uploads it as a workflow artifact.

Writes a JSON perf record (default ``BENCH_parallel.json`` at the repository
root) with per-mode throughput and the headline summary: speedup per worker
count and method, relative to ``workers=1``.

Usage::

    PYTHONPATH=src python benchmarks/bench_parallel_scaling.py
    PYTHONPATH=src python benchmarks/bench_parallel_scaling.py --scale small --workers 1,2
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

_REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(_REPO_ROOT / "src"))

from _bench_env import bench_environment  # noqa: E402
from repro.bench.experiments import (  # noqa: E402
    ExperimentScale,
    build_environment,
    default_grid,
)
from repro.bench.harness import run_batch_query_set  # noqa: E402
from repro.bench.reporting import format_table  # noqa: E402
from repro.core.engine import ITSPQEngine  # noqa: E402
from repro.core.parallel import default_worker_count  # noqa: E402
from repro.core.query import ITSPQuery, SearchStatistics  # noqa: E402
from repro.synthetic.queries import QueryWorkloadConfig, generate_query_instances  # noqa: E402

METHODS = ("ITG/S", "ITG/A")


def fig6_fanout_workload(scale: ExperimentScale):
    """One combined fan-out workload over all fig6 query times.

    The venue, schedule and IT-Graph are the fig6 defaults; per query time
    the generated δs2t-constrained pairs are expanded into the source x
    target cross product, and all times are concatenated so one batch call
    carries the whole day's service traffic (the shape that gives the
    planner many independent groups to spread over workers).
    """
    grid = default_grid(scale)
    environment = build_environment(scale, grid=grid)
    itgraph = environment.itgraph
    queries = []
    for query_time in grid.query_times:
        generated = generate_query_instances(
            itgraph,
            QueryWorkloadConfig(
                s2t_distance=grid.default_s2t,
                pairs=grid.query_pairs,
                query_time=query_time,
                seed=grid.workload_seed,
            ),
        )
        sources = [g.query.source for g in generated]
        targets = [g.query.target for g in generated]
        queries.extend(
            ITSPQuery(source, target, query_time)
            for source in sources
            for target in targets
            if source != target
        )
    return itgraph, queries


#: Statistics fields the parity check compares (everything but runtime).
_STAT_KEYS = SearchStatistics.COUNTER_FIELDS


def assert_parity(engine, queries, method, workers):
    """Parallel answers must be bit-identical to the sequential engine —
    found flag, length, door sequence and every statistics counter — before
    any timing is trusted."""
    sequential = engine.run_batch(queries, method=method, batch=False)
    parallel = engine.run_batch(queries, method=method, workers=workers)
    for seq, par in zip(sequential, parallel):
        same_path = (seq.path.door_sequence if seq.found else None) == (
            par.path.door_sequence if par.found else None
        )
        same_stats = all(
            getattr(seq.statistics, key) == getattr(par.statistics, key) for key in _STAT_KEYS
        )
        if seq.found != par.found or seq.length != par.length or not same_path or not same_stats:
            raise AssertionError(
                f"parallel/sequential disagreement on {seq.query} ({method}, "
                f"workers={workers}): sequential={seq.length}, parallel={par.length}"
            )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scale",
        default=os.environ.get("REPRO_BENCH_SCALE", "paper"),
        choices=[scale.value for scale in ExperimentScale],
        help="fig6 venue/workload scale (default: paper, the Table II setting)",
    )
    parser.add_argument(
        "--workers",
        default="1,2,4",
        help="comma-separated worker counts to sweep (default: 1,2,4)",
    )
    parser.add_argument(
        "--repetitions", type=int, default=3, help="whole-workload repetitions per mode"
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=0.0,
        help="fail (exit 1) when any workers>1 mode is below this speedup vs the "
        "1-worker baseline; 0 (default) records without gating — single-core "
        "hosts cannot meet any floor, so only set this on multi-core hardware",
    )
    parser.add_argument(
        "-o",
        "--output",
        type=Path,
        default=_REPO_ROOT / "BENCH_parallel.json",
        help="where to write the JSON perf record",
    )
    args = parser.parse_args(argv)
    worker_counts = sorted({int(token) for token in args.workers.split(",") if token.strip()})
    if any(count < 1 for count in worker_counts):
        parser.error("worker counts must be positive")

    itgraph, queries = fig6_fanout_workload(ExperimentScale(args.scale))
    engine = ITSPQEngine(itgraph)
    engine.ensure_compiled()
    groups = len(engine.batch_executor().planner.plan(queries, "synchronous"))
    payload_bytes = len(engine.parallel_executor(max(worker_counts)).payload_bytes())
    print(
        f"workload: {len(queries)} queries in {groups} groups "
        f"({args.scale} scale, {payload_bytes} payload bytes, "
        f"{default_worker_count()} usable cpus)"
    )

    rows = []
    execution_reports = {}
    try:
        for method in METHODS:
            assert_parity(engine, queries, method, workers=max(worker_counts))
            sequential = run_batch_query_set(
                engine, queries, method, repetitions=args.repetitions, batch=False
            )
            baseline = None
            for mode, workers in [("sequential", None)] + [
                (f"workers={count}", count) for count in worker_counts
            ]:
                if mode == "sequential":
                    measurement = sequential
                else:
                    measurement = run_batch_query_set(
                        engine,
                        queries,
                        method,
                        repetitions=args.repetitions,
                        batch=True,
                        workers=workers,
                    )
                if workers == 1:
                    baseline = measurement
                # The supervision counters of the last timed run: a bench
                # number measured on a degraded pool (retries, respawns,
                # in-process fallbacks) is not a pool measurement at all, so
                # the record keeps the evidence next to the throughput.
                last_report = engine.last_execution_report
                if workers is not None and last_report is not None:
                    execution_reports[f"{method} {mode}"] = last_report.as_dict()
                    if not last_report.clean:
                        print(
                            f"WARNING: degraded execution while timing {method} {mode}: "
                            f"{last_report.summary()}"
                        )
                rows.append(
                    {
                        "method": method,
                        "mode": mode,
                        "queries": len(queries),
                        "groups": groups,
                        "repetitions": args.repetitions,
                        "qps": round(measurement.queries_per_second, 1),
                        "speedup_vs_sequential": round(
                            measurement.queries_per_second / sequential.queries_per_second, 2
                        ),
                        "speedup_vs_1worker": (
                            round(measurement.queries_per_second / baseline.queries_per_second, 2)
                            if baseline is not None
                            else None
                        ),
                    }
                )
    finally:
        engine.close()

    summary = {}
    for method in METHODS:
        for row in rows:
            if row["method"] == method and row["mode"].startswith("workers="):
                summary[f"{method} {row['mode']}"] = {
                    "qps": row["qps"],
                    "speedup_vs_1worker": row["speedup_vs_1worker"],
                    "speedup_vs_sequential": row["speedup_vs_sequential"],
                }

    record = {
        "benchmark": "bench_parallel_scaling",
        "workload": "combined fig6 fan-out query set (all query times, sources x targets)",
        "scale": args.scale,
        "environment": bench_environment(),
        "platform": platform.platform(),
        "usable_cpus": default_worker_count(),
        "worker_counts": worker_counts,
        "payload_bytes": payload_bytes,
        "summary": summary,
        "rows": rows,
        "execution_reports": execution_reports,
        "all_runs_clean": all(
            entry.get("clean", False) for entry in execution_reports.values()
        )
        if execution_reports
        else None,
    }
    args.output.write_text(json.dumps(record, indent=2) + "\n")

    print(format_table(rows))
    print()
    for label, stats in summary.items():
        versus_baseline = (
            f"{stats['speedup_vs_1worker']:.2f}x vs 1 worker"
            if stats["speedup_vs_1worker"] is not None
            else "(no 1-worker baseline in sweep)"
        )
        print(
            f"{label}: {stats['qps']:,.0f} q/s -> {versus_baseline} "
            f"({stats['speedup_vs_sequential']:.2f}x vs sequential)"
        )
    if record["usable_cpus"] < 2:
        print(
            "\nNOTE: this host exposes a single usable CPU; multiprocess speedup "
            "is physically impossible here and the numbers above measure pure "
            "dispatch overhead.  Run on a multi-core host (or read the CI "
            "artifact) for the scaling curve."
        )
    print(f"\nperf record written to {args.output}")

    if args.min_speedup > 0:
        below = [
            f"{label}: {stats['speedup_vs_1worker']:.2f}x"
            for label, stats in summary.items()
            if stats["speedup_vs_1worker"] is not None
            and stats["speedup_vs_1worker"] < args.min_speedup
        ]
        if below:
            print(
                f"SPEEDUP GATE FAILED (< {args.min_speedup:.2f}x vs 1 worker): "
                + "; ".join(below),
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
