#!/usr/bin/env python
"""Batch-vs-sequential query throughput over the compiled ITSPQ core.

Measures how many ITSPQ queries per second the engine answers when a
workload is executed through the :class:`~repro.core.batch.BatchExecutor`
(planned common-source groups, one multi-target search per group) versus
the sequential one-search-per-query loop, on two venues:

``example``
    The paper's running example (Figure 1 / Table I).
``fig6-mall``
    The synthetic multi-floor mall of the evaluation at the chosen scale
    (default ``paper``: the Table II setting), swept over the Figure 6 query
    times of day.

The workload per query time is the *fan-out* form of the fig6 query set:
every source of the generated (source, target) pairs is routed to every
generated target — the service-batch shape (many users, few entrances)
batch execution is built for.  Batch results are asserted bit-identical to
the sequential engine before any timing is trusted.

Writes a JSON perf record (default ``BENCH_batch.json`` at the repository
root) with per-time-point throughput and the headline summary: aggregate
queries/sec per execution mode and the batch speedup, per method and venue.

Usage::

    PYTHONPATH=src python benchmarks/bench_batch_throughput.py
    PYTHONPATH=src python benchmarks/bench_batch_throughput.py --scale small -o out.json
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
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
from repro.core.query import ITSPQuery  # noqa: E402
from repro.datasets.example_floorplan import (  # noqa: E402
    build_example_itgraph,
    example_fanout_endpoints,
)
from repro.synthetic.queries import QueryWorkloadConfig, generate_query_instances  # noqa: E402

METHODS = ("ITG/S", "ITG/A")


def fanout_queries(sources, targets, query_time):
    """Every source routed to every distinct target at one query time."""
    return [
        ITSPQuery(source, target, query_time)
        for source in sources
        for target in targets
        if source is not target
    ]


def example_workloads():
    """Per-time fan-out workloads on the running example.

    Endpoints come from :func:`example_fanout_endpoints` (the four query
    points fanning out to an interior point of every public partition) —
    the same workload the ``scripts/check_perf.py`` batch gate measures.
    """
    itgraph = build_example_itgraph()
    sources, targets = example_fanout_endpoints(itgraph)
    query_times = ("6:30", "9:00", "12:00", "15:55", "21:00")
    return itgraph, {t: fanout_queries(sources, targets, t) for t in query_times}


def fig6_workloads(scale: ExperimentScale):
    """Per-time fan-out workloads on the fig6 synthetic mall.

    The venue, schedule and IT-Graph are the fig6 defaults (built once); per
    query time the generated δs2t-constrained pairs are expanded into the
    source x target cross product.
    """
    grid = default_grid(scale)
    environment = build_environment(scale, grid=grid)
    itgraph = environment.itgraph
    workloads = {}
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
        workloads[query_time] = fanout_queries(sources, targets, query_time)
    return itgraph, workloads


def assert_parity(engine, queries, method):
    """Batch answers must match the sequential engine before timing."""
    sequential = engine.run_batch(queries, method=method, batch=False)
    batched = engine.run_batch(queries, method=method)
    for seq, bat in zip(sequential, batched):
        if seq.found != bat.found or seq.length != bat.length:
            raise AssertionError(
                f"batch/sequential disagreement on {seq.query} ({method}): "
                f"sequential={seq.length}, batch={bat.length}"
            )


def run_venue(venue_name, itgraph, workloads, repetitions):
    """Benchmark one venue; returns its result rows."""
    engine = ITSPQEngine(itgraph)
    engine.ensure_compiled()
    executor = engine.batch_executor()
    rows = []
    for query_time, queries in workloads.items():
        plan_sizes = [group.size for group in executor.planner.plan(queries, "synchronous")]
        for method in METHODS:
            assert_parity(engine, queries, method)
            sequential = run_batch_query_set(
                engine, queries, method, repetitions=repetitions, batch=False
            )
            batched = run_batch_query_set(
                engine, queries, method, repetitions=repetitions, batch=True
            )
            rows.append(
                {
                    "venue": venue_name,
                    "query_time": query_time,
                    "method": method,
                    "queries": len(queries),
                    "groups": len(plan_sizes),
                    "mean_group_size": round(sum(plan_sizes) / len(plan_sizes), 2),
                    "repetitions": repetitions,
                    "sequential_qps": round(sequential.queries_per_second, 1),
                    "batch_qps": round(batched.queries_per_second, 1),
                    "speedup": round(
                        batched.queries_per_second / sequential.queries_per_second, 2
                    ),
                }
            )
    return rows


def summarise(rows):
    """Aggregate per (venue, method): total qps and median speedup."""
    summary = {}
    for venue in sorted({row["venue"] for row in rows}):
        for method in METHODS:
            selected = [
                row for row in rows if row["venue"] == venue and row["method"] == method
            ]
            summary[f"{venue} {method}"] = {
                "median_sequential_qps": round(
                    statistics.median(row["sequential_qps"] for row in selected), 1
                ),
                "median_batch_qps": round(
                    statistics.median(row["batch_qps"] for row in selected), 1
                ),
                "median_speedup": round(
                    statistics.median(row["speedup"] for row in selected), 2
                ),
            }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scale",
        default=os.environ.get("REPRO_BENCH_SCALE", "paper"),
        choices=[scale.value for scale in ExperimentScale],
        help="fig6 venue/workload scale (default: paper, the Table II setting)",
    )
    parser.add_argument(
        "--repetitions", type=int, default=5, help="whole-workload repetitions per mode"
    )
    parser.add_argument(
        "-o",
        "--output",
        type=Path,
        default=_REPO_ROOT / "BENCH_batch.json",
        help="where to write the JSON perf record",
    )
    args = parser.parse_args(argv)

    rows = []
    itgraph, workloads = example_workloads()
    rows += run_venue("example", itgraph, workloads, args.repetitions)
    itgraph, workloads = fig6_workloads(ExperimentScale(args.scale))
    rows += run_venue("fig6-mall", itgraph, workloads, args.repetitions)

    record = {
        "benchmark": "bench_batch_throughput",
        "workload": "fan-out fig6 query sets (sources x targets per query time)",
        "scale": args.scale,
        "environment": bench_environment(),
        "summary": summarise(rows),
        "rows": rows,
    }
    args.output.write_text(json.dumps(record, indent=2) + "\n")

    print(format_table(rows))
    print()
    for label, stats in record["summary"].items():
        print(
            f"{label}: batch {stats['median_batch_qps']:,.0f} q/s vs sequential "
            f"{stats['median_sequential_qps']:,.0f} q/s -> {stats['median_speedup']:.2f}x"
        )
    print(f"\nperf record written to {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
