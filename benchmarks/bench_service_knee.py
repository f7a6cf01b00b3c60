#!/usr/bin/env python
"""Saturation knee of ``python -m repro.service``: latency, shed and batch
size per offered rate, for a single process and for a ``--shards 2`` router.

Each topology is started with its CLI defaults as a real subprocess and
driven with open-loop arrivals (``perfbench/loadgen.py``) at each rate of
``--rates`` in turn, ``--seconds`` per level, over ``CONNECTIONS`` keep-alive
connections: more than either topology admits at once with its defaults (64
pending per service, 64 in flight per shard at the router), so the server
sheds before the generator runs out of connections.  The requests are the
``serve-sharded`` trip stream of ``perfbench/inputs.py`` (seed 1): uniform
source, target and minute of the day on the running example (single
process), or on the example and the small mall (router, one venue per
shard).  As in perfbench, the servers load each venue from the codec
payload of the in-process engine that checks their answers, so that both
hold one compiled index.

Per level the record holds the offered and achieved rate, the answers'
p50/p99 latency (from each request's due time), the shed 429s, every other
error, the generator's lag and the mean micro-batch size (from ``/metrics``
deltas).  The **knee** is the highest rate answered with p99 under
``P99_BOUND_MS``, no shed and no error.

The run fails (exit status 1) unless every 200 matches an in-process engine
field for field, every other answer is a typed 429
(``ServiceOverloadedError``), and both servers print ``drained and closed``
on SIGINT.  Writes ``BENCH_service.json`` (or ``--out``) with provenance.

Usage (from the repository root)::

    python benchmarks/bench_service_knee.py
    python benchmarks/bench_service_knee.py --rates 100,300 --seconds 1.5 --out BENCH_service_ci.json
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import inputs  # noqa: E402
from common import (  # noqa: E402
    WORK_DIR,
    collector_off,
    percentile,
    provenance,
    usable_cpus,
    wire_projection,
    wire_projection_of_result,
)
from loadgen import Server, get_json, open_loop  # noqa: E402
from repro.core.engine import ITSPQEngine  # noqa: E402
from repro.io.compiled_codec import compiled_graph_to_bytes  # noqa: E402

P99_BOUND_MS = 25.0
CONNECTIONS = 256
SEED = 1
DEFAULT_RATES = "250,500,1000,1500,2000,2500,3000,4000"

#: (name, extra server arguments, venues as (name, ``inputs`` venue function)).
TOPOLOGIES = (
    ("single", [], [("example", inputs.example_venue)]),
    (
        "router",
        ["--shards", "2"],
        [("example", inputs.example_venue), ("mall", inputs.small_mall_venue)],
    ),
)


def batch_counters(metrics: dict) -> tuple:
    """``(answered, batches)`` of a service's or a router's ``/metrics``."""
    requests = metrics["aggregate"] if "aggregate" in metrics else metrics["requests"]
    return requests["answered"], requests["batches"]


def run_level(server: Server, bodies, rate: float) -> tuple:
    """One open-loop level; returns ``(outcomes, level record)``."""
    before = asyncio.run(get_json(server.host, server.port, "/metrics"))
    with collector_off():
        outcomes = asyncio.run(open_loop(server.host, server.port, bodies, rate, CONNECTIONS))
    after = asyncio.run(get_json(server.host, server.port, "/metrics"))
    answered = [outcome for outcome in outcomes if outcome.status == 200]
    shed = [outcome for outcome in outcomes if outcome.status == 429]
    latencies = [outcome.latency for outcome in answered]
    elapsed = max(outcome.done for outcome in outcomes) - min(outcome.due for outcome in outcomes)
    (answered_before, batches_before), (answered_after, batches_after) = map(
        batch_counters, (before, after)
    )
    record = {
        "offered_qps": rate,
        "requests": len(outcomes),
        "achieved_qps": len(answered) / elapsed,
        "answered": len(answered),
        "shed": len(shed),
        "errors": len(outcomes) - len(answered) - len(shed),
        "latency_p50_ms": percentile(latencies, 0.50) * 1e3 if latencies else None,
        "latency_p99_ms": percentile(latencies, 0.99) * 1e3 if latencies else None,
        "lag_p99_ms": percentile([outcome.lag for outcome in outcomes], 0.99) * 1e3,
        "batch_size_mean": (answered_after - answered_before)
        / max(1, batches_after - batches_before),
    }
    return outcomes, record


def meets_bound(level: dict) -> bool:
    return (
        level["shed"] == 0
        and level["errors"] == 0
        and level["latency_p99_ms"] is not None
        and level["latency_p99_ms"] < P99_BOUND_MS
    )


def check_answers(outcomes, bodies, engines) -> list:
    """Every problem with ``outcomes`` (of ``bodies``): a 200 that differs
    from the in-process engine, or any other answer that is not a typed
    429."""
    problems = []
    expected = {}
    for outcome in outcomes:
        if outcome.status == 429:
            if json.loads(outcome.payload).get("type") != "ServiceOverloadedError":
                problems.append(f"untyped 429: {outcome.payload[:200]!r}")
            continue
        if outcome.status != 200:
            problems.append(f"status {outcome.status}: {outcome.payload[:200]!r}")
            continue
        body = bodies[outcome.index]
        if body not in expected:
            venue, query, method = inputs.parse_body(body)
            expected[body] = wire_projection_of_result(engines[venue].run(query, method=method))
        answer = wire_projection(json.loads(outcome.payload))
        if answer != expected[body]:
            problems.append(f"{body!r} answered {answer}, the engine {expected[body]}")
    return problems


def sweep(name: str, args, venues, rates, seconds: float) -> dict:
    graphs = [(venue, inputs.build_graph(*build())) for venue, build in venues]
    engines = {venue: ITSPQEngine(graph) for venue, graph in graphs}
    venue_args = []
    for venue, engine in engines.items():
        path = WORK_DIR / f"knee-{venue}.bin"
        path.write_bytes(compiled_graph_to_bytes(engine.ensure_compiled()))
        venue_args += ["--venue", f"{venue}={path.relative_to(ROOT)}"]
    args = venue_args + args
    counts = [round(rate * seconds) for rate in rates]
    stream = inputs.trip_stream(graphs, SEED, sum(counts))
    server = Server(args, f"knee-{name}")
    levels, problems, first = [], [], 0
    try:
        for rate, count in zip(rates, counts):
            bodies = stream[first : first + count]
            first += count
            outcomes, level = run_level(server, bodies, rate)
            levels.append(level)
            problems += check_answers(outcomes, bodies, engines)
            print(
                f"[{name}] {rate:7.0f} req/s offered  {level['achieved_qps']:7.1f} achieved  "
                f"p50 {level['latency_p50_ms'] or float('nan'):7.2f} ms  "
                f"p99 {level['latency_p99_ms'] or float('nan'):7.2f} ms  "
                f"shed {level['shed']:5d}  errors {level['errors']:3d}  "
                f"lag p99 {level['lag_p99_ms']:7.2f} ms  batch {level['batch_size_mean']:.2f}",
                flush=True,
            )
    finally:
        drained = server.stop()
    print(f"[{name}] {'drained and closed' if drained else 'DID NOT DRAIN'}", flush=True)
    if not drained:
        problems.append(f"{name}: the server did not print 'drained and closed'")
    knee = max((level["offered_qps"] for level in levels if meets_bound(level)), default=None)
    return {
        "server_args": list(args),
        "venues": [venue for venue, _build in venues],
        "levels": levels,
        "knee_qps": knee,
        "drained": drained,
        "problems": problems[:20],
        "problem_count": len(problems),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rates", default=DEFAULT_RATES, help="comma-separated offered req/s levels")
    parser.add_argument("--seconds", type=float, default=2.0, help="seconds per level")
    parser.add_argument("--out", default=str(ROOT / "BENCH_service.json"))
    args = parser.parse_args(argv)
    rates = [float(rate) for rate in args.rates.split(",")]
    WORK_DIR.mkdir(exist_ok=True)
    record = {
        "benchmark": "service_knee",
        "environment": {**provenance(), "usable_cpus": usable_cpus()},
        "config": {
            "arrivals": "open loop, keep-alive connections",
            "connections": CONNECTIONS,
            "seconds_per_level": args.seconds,
            "stream": f"perfbench trip stream, seed {SEED}",
            "server": "python -m repro.service with its CLI defaults",
            "knee_rule": f"highest rate with p99 < {P99_BOUND_MS} ms, no shed and no error",
        },
        "topologies": {
            name: sweep(name, server_args, venues, rates, args.seconds)
            for name, server_args, venues in TOPOLOGIES
        },
    }
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n")
    for name, result in record["topologies"].items():
        print(f"[{name}] knee: {result['knee_qps']} req/s")
        for problem in result["problems"]:
            print(f"[{name}] FAIL {problem}")
    print(f"wrote {args.out}")
    return 1 if any(result["problem_count"] for result in record["topologies"].values()) else 0


if __name__ == "__main__":
    raise SystemExit(main())
