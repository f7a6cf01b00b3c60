#!/usr/bin/env python
"""Perf gate: compiled beats reference, batch beats sequential, every tier agrees.

Intended for CI/pre-merge use, on the paper's running-example floorplan
(Figure 1 / Table I):

1. **Compiled gates** — run the example workload through the reference and
   the compiled engine for ITG/S and ITG/A, compare median query latencies
   via :func:`repro.bench.harness.run_query_set` and fail when the compiled
   fast path is not strictly faster (or the engines disagree on any answer).
2. **Batch gates** — run a fan-out batch workload (every source to every
   target, the service shape batching is for) through the sequential loop
   and the :class:`~repro.core.batch.BatchExecutor` via
   :func:`repro.bench.harness.run_batch_query_set` and fail when batch
   execution is below ``--min-batch-speedup`` (default 1.5x) or disagrees
   with the sequential engine on any answer.
3. **Cache gates** — answer the workload through an engine with the
   interval-keyed shortest-path-tree cache enabled (eager admission) and
   fail when any cached answer — found flag, length or **any**
   ``SearchStatistics`` counter — differs from the fresh compiled answer
   (all four TV-check methods), or when the median warm-hit latency is not
   at least ``--min-cache-speedup`` (default 1.25x) below the cold compiled
   median for ITG/S and ITG/A.  The floor is deliberately modest: on the
   tiny example venue a cold search is already tens of microseconds, so the
   gate only proves warm hits beat cold searches at all — the headline
   warm-path speedup is measured on the clustered mall workload by
   ``benchmarks/bench_cache_hit.py`` (``BENCH_cache.json``).
4. **Semantics gates** — re-tag the example workload under every temporal
   semantics (no-wait, wait-tolerant, latest-departure, a 10-minute time
   window) and fail when the reference engine, the compiled engine and the
   batch executor disagree on any answer — found flag, length or **any**
   ``SearchStatistics`` counter.  This is the cross-tier contract of the
   pluggable-semantics kernel (:mod:`repro.core.semantics`): one probe
   closure serves every tier, so a drift between tiers is a kernel bug.

Every check runs to completion and the script always prints one summary
table covering all of them, so a CI log shows every regression at once
instead of stopping at the first failed gate; the exit status is non-zero
when any check failed.  A gate that *crashes* (rather than measuring a
regression) is reported the same way — one ``FAIL`` row carrying a one-line
``ExceptionType: message`` diagnosis instead of a traceback — so the
summary table stays the single place to read the outcome.

Usage::

    PYTHONPATH=src python scripts/check_perf.py
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

_REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(_REPO_ROOT / "src"))

from repro.bench.harness import run_batch_query_set, run_query_set  # noqa: E402
from repro.bench.reporting import format_table  # noqa: E402
from repro.core.cache import CacheConfig  # noqa: E402
from repro.core.engine import ITSPQEngine  # noqa: E402
from repro.core.query import ITSPQuery, SearchStatistics  # noqa: E402
from repro.core.semantics import (  # noqa: E402
    NO_WAIT,
    LatestDeparture,
    TimeWindow,
    WaitTolerant,
)
from repro.datasets.example_floorplan import (  # noqa: E402
    build_example_itgraph,
    example_fanout_endpoints,
    example_query_points,
)

METHODS = ("ITG/S", "ITG/A")
#: The cache-correctness gate covers every TV-check method the cache serves.
CACHE_METHODS = ("ITG/S", "ITG/A", "static", "query-time")
QUERY_TIMES = ("6:30", "9:00", "12:00", "15:55", "21:00")

#: Statistics fields the cache and semantics gates compare (everything but runtime).
_STAT_KEYS = SearchStatistics.COUNTER_FIELDS

#: Every temporal semantics the cross-tier semantics gate covers.
SEMANTICS = (
    ("no-wait", NO_WAIT),
    ("wait-tolerant", WaitTolerant()),
    ("latest-departure", LatestDeparture()),
    ("time-window(600s)", TimeWindow(window_seconds=600.0)),
)


def build_workload():
    """Every ordered pair of the example query points at several times."""
    points = example_query_points()
    names = sorted(points)
    return [
        ITSPQuery(points[a], points[b], query_time)
        for a in names
        for b in names
        if a != b
        for query_time in QUERY_TIMES
    ]


def build_batch_workload(itgraph):
    """Fan-out workload: every source to every public-partition target.

    This is the workload shape batch execution exists for — many queries
    sharing entrances and query times.  The endpoints come from
    :func:`example_fanout_endpoints`, shared with
    ``benchmarks/bench_batch_throughput.py`` so the gate measures exactly
    the workload ``BENCH_batch.json`` reports.
    """
    sources, targets = example_fanout_endpoints(itgraph)
    return [
        ITSPQuery(source, target, query_time)
        for source in sources
        for target in targets
        if source is not target
        for query_time in QUERY_TIMES
    ]


class GateReport:
    """Collects every check's outcome; one summary table at the end."""

    def __init__(self) -> None:
        self.checks = []

    def record(self, name: str, passed: bool, measured: str = "", required: str = "") -> None:
        self.checks.append(
            {
                "check": name,
                "status": "ok" if passed else "FAIL",
                "measured": measured,
                "required": required,
            }
        )
        suffix = f" (required {required})" if required else ""
        print(f"[{'ok' if passed else 'FAIL'}] {name}: {measured}{suffix}")

    @property
    def failures(self):
        return [check for check in self.checks if check["status"] != "ok"]

    def summary_table(self) -> str:
        return format_table(self.checks, columns=("check", "status", "measured", "required"))


def run_gate(report: GateReport, name: str, gate, *args) -> None:
    """Run one gate; a crash becomes a FAIL row with a one-line diagnosis."""
    try:
        gate(report, *args)
    except Exception as exc:  # noqa: BLE001 - the diagnosis row is the point
        report.record(
            f"{name} gate crashed",
            False,
            f"{type(exc).__name__}: {exc}",
            "gate runs to completion",
        )


def check_compiled(report: GateReport, reference, compiled_engine, queries, repetitions) -> None:
    for method in METHODS:
        disagreements = 0
        for query in queries:
            ref = reference.run(query, method=method)
            cmp = compiled_engine.run(query, method=method)
            if ref.found != cmp.found or ref.length != cmp.length:
                disagreements += 1
        report.record(
            f"{method} compiled/reference agreement",
            disagreements == 0,
            f"{disagreements} disagreements on {len(queries)} queries",
            "0 disagreements",
        )

        ref_measure = run_query_set(reference, queries, method, repetitions=repetitions)
        cmp_measure = run_query_set(compiled_engine, queries, method, repetitions=repetitions)
        speedup = ref_measure.p50_time_us / cmp_measure.p50_time_us
        report.record(
            f"{method} compiled speedup",
            cmp_measure.p50_time_us < ref_measure.p50_time_us,
            f"{speedup:.2f}x (p50 {cmp_measure.p50_time_us:.1f} us vs {ref_measure.p50_time_us:.1f} us)",
            "> 1.00x",
        )


def check_batch(report: GateReport, compiled_engine, batch_queries, repetitions, min_speedup) -> None:
    for method in METHODS:
        sequential_results = compiled_engine.run_batch(batch_queries, method=method, batch=False)
        batch_results = compiled_engine.run_batch(batch_queries, method=method)
        disagreements = sum(
            1
            for seq, bat in zip(sequential_results, batch_results)
            if seq.found != bat.found or seq.length != bat.length
        )
        report.record(
            f"{method} batch/sequential agreement",
            disagreements == 0,
            f"{disagreements} disagreements on {len(batch_queries)} queries",
            "0 disagreements",
        )

        # Interleave the two modes rep by rep so CPU-state drift during the
        # measurement hits both equally and the ratio stays stable.
        sequential_best = batched_best = float("inf")
        for _ in range(repetitions):
            sequential = run_batch_query_set(
                compiled_engine, batch_queries, method, repetitions=1, warmup=0, batch=False
            )
            batched = run_batch_query_set(
                compiled_engine, batch_queries, method, repetitions=1, warmup=0, batch=True
            )
            sequential_best = min(sequential_best, sequential.best_seconds)
            batched_best = min(batched_best, batched.best_seconds)
        sequential_qps = len(batch_queries) / sequential_best
        batched_qps = len(batch_queries) / batched_best
        speedup = batched_qps / sequential_qps
        report.record(
            f"{method} batch speedup",
            speedup >= min_speedup,
            f"{speedup:.2f}x ({batched_qps:,.0f} vs {sequential_qps:,.0f} q/s)",
            f">= {min_speedup:.2f}x",
        )


def check_cache(report: GateReport, itgraph, queries, repetitions, min_speedup) -> None:
    import time as _time
    from statistics import median

    fresh_engine = ITSPQEngine(itgraph)
    cached_engine = ITSPQEngine(itgraph, cache=CacheConfig(mode="eager", max_entries=1024))
    for method in CACHE_METHODS:
        disagreements = 0
        for query in queries:
            fresh = fresh_engine.run(query, method=method)
            first = cached_engine.run(query, method=method)  # records the tree
            warm = cached_engine.run(query, method=method)  # guaranteed warm hit
            for cached in (first, warm):
                if (
                    fresh.found != cached.found
                    or fresh.length != cached.length
                    or any(
                        getattr(fresh.statistics, key) != getattr(cached.statistics, key)
                        for key in _STAT_KEYS
                    )
                ):
                    disagreements += 1
        report.record(
            f"{method} cached/fresh agreement",
            disagreements == 0,
            f"{disagreements} disagreements on {2 * len(queries)} cached answers",
            "0 disagreements (incl. statistics)",
        )

    for method in METHODS:
        # Everything is cached by now: time warm hits against cold searches,
        # interleaved per repetition so CPU-state drift hits both equally.
        cold_times, warm_times = [], []
        for _ in range(repetitions):
            for query in queries:
                started = _time.perf_counter()
                fresh_engine.run(query, method=method)
                cold_times.append(_time.perf_counter() - started)
                started = _time.perf_counter()
                cached_engine.run(query, method=method)
                warm_times.append(_time.perf_counter() - started)
        speedup = median(cold_times) / median(warm_times)
        report.record(
            f"{method} warm-hit speedup",
            speedup >= min_speedup,
            f"{speedup:.2f}x (median {median(warm_times) * 1e6:.1f} us "
            f"vs cold {median(cold_times) * 1e6:.1f} us)",
            f">= {min_speedup:.2f}x",
        )

    stats = cached_engine.cache_stats
    report.record(
        "cache hit accounting",
        stats is not None and stats["hits"] > 0 and stats["trees_built"] > 0,
        f"{stats['hits']} hits, {stats['misses']} misses, "
        f"{stats['trees_built']} trees, {stats['evictions']} evictions",
        "> 0 hits and > 0 trees built",
    )


def check_semantics(report: GateReport, itgraph, queries) -> None:
    """Reference vs compiled vs batch under every temporal semantics, with
    strict statistics comparison — the pluggable-kernel cross-tier gate."""
    reference = ITSPQEngine(itgraph, compiled=False)
    compiled_engine = ITSPQEngine(itgraph, compiled=True)
    for name, semantics in SEMANTICS:
        tagged = [query.with_semantics(semantics) for query in queries]
        ref_results = [reference.run(query) for query in tagged]
        cmp_results = [compiled_engine.run(query) for query in tagged]
        batch_results = compiled_engine.run_batch(tagged)
        disagreements = 0
        for ref, cmp, bat in zip(ref_results, cmp_results, batch_results):
            for other in (cmp, bat):
                if (
                    ref.found != other.found
                    or ref.length != other.length
                    or any(
                        getattr(ref.statistics, key) != getattr(other.statistics, key)
                        for key in _STAT_KEYS
                    )
                ):
                    disagreements += 1
        found = sum(1 for ref in ref_results if ref.found)
        report.record(
            f"{name} cross-tier agreement",
            disagreements == 0,
            f"{disagreements} disagreements on {len(tagged)} queries "
            f"x 2 tiers ({found} routes found)",
            "0 disagreements (incl. statistics)",
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--repetitions", type=int, default=10, help="measurement repetitions per query"
    )
    parser.add_argument(
        "--min-batch-speedup",
        type=float,
        default=1.5,
        help="required batch-vs-sequential throughput ratio (default 1.5)",
    )
    parser.add_argument(
        "--min-cache-speedup",
        type=float,
        default=1.25,
        help="required warm-hit-vs-cold median latency ratio (default 1.25; "
        "the example venue's cold searches are already microseconds, so this "
        "is a regression floor — BENCH_cache.json carries the headline)",
    )
    args = parser.parse_args(argv)

    itgraph = build_example_itgraph()
    reference = ITSPQEngine(itgraph, compiled=False)
    compiled_engine = ITSPQEngine(itgraph, compiled=True)
    compiled_engine.ensure_compiled()

    report = GateReport()
    run_gate(
        report,
        "compiled",
        check_compiled,
        reference,
        compiled_engine,
        build_workload(),
        args.repetitions,
    )
    run_gate(
        report,
        "batch",
        check_batch,
        compiled_engine,
        build_batch_workload(itgraph),
        args.repetitions,
        args.min_batch_speedup,
    )
    run_gate(
        report,
        "cache",
        check_cache,
        itgraph,
        build_workload(),
        args.repetitions,
        args.min_cache_speedup,
    )
    run_gate(report, "semantics", check_semantics, itgraph, build_workload())

    print()
    print(report.summary_table())
    failures = report.failures
    if failures:
        print()
        for failure in failures:
            print(
                f"PERF GATE FAILED: {failure['check']} — {failure['measured']} "
                f"(required {failure['required']})",
                file=sys.stderr,
            )
        return 1
    print()
    print(f"perf gate passed: all {len(report.checks)} checks ok on the example venue")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
