#!/usr/bin/env python
"""Service load generator: latency vs offered QPS against a live server.

Spawns ``python -m repro.service`` as a real subprocess (the same entry
point a deployment uses), waits for its ``listening on HOST:PORT`` line,
then drives **open-loop** arrivals at each configured QPS level: requests
fire on a fixed schedule regardless of how fast earlier ones complete, so
queueing delay shows up in the latencies instead of silently throttling the
generator (the coordinated-omission trap of closed-loop load tools).

Per level the record carries offered vs achieved QPS, latency p50/p99, and
the outcome split — answered 200s, shed 429s (admission control working as
designed under overload), and anything else (which fails the run).  The
server is then shut down with SIGINT and must print ``drained and closed``:
the graceful-lifecycle contract is part of the benchmark's acceptance, not
a separate test.

Two topologies:

* default — one service process serving every ``--venues`` entry; writes
  ``BENCH_service.json``;
* ``--shards N`` — the sharded comparison: the same mixed-venue workload is
  run against a single process *and* against a ``--shards N`` router, with
  a **parity sweep** first (every distinct query answered by both
  topologies must be bit-identical: reachability, length, door sequence and
  the deterministic search counters), then a **shard-kill phase** (one
  shard SIGKILLed under load: its venues must shed typed 503s while every
  other shard keeps answering 200, and the supervised respawn must restore
  bit-identical service).  Writes ``BENCH_shards.json`` with per-venue
  (= per-shard) and aggregate curves for both topologies.

Usage::

    PYTHONPATH=src python benchmarks/bench_service_load.py
    PYTHONPATH=src python benchmarks/bench_service_load.py --qps 10,50 --duration 1 --out BENCH_service_ci.json
    PYTHONPATH=src python benchmarks/bench_service_load.py --shards 2 --venues a=example,b=example
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

_REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(_REPO_ROOT / "src"))

from _bench_env import bench_environment  # noqa: E402
from repro.datasets.example_floorplan import example_query_points  # noqa: E402


def percentile(samples, fraction):
    """Nearest-rank percentile (the service metrics use the same rule)."""
    if not samples:
        return None
    ordered = sorted(samples)
    rank = max(0, min(len(ordered) - 1, int(round(fraction * (len(ordered) - 1)))))
    return ordered[rank]


def parse_venues(text: str):
    """``--venues`` as a list of ``(name, "name=spec")`` entries."""
    entries = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        name = item.partition("=")[0]
        spec = item if "=" in item else f"{item}={item}"
        entries.append((name, spec))
    if not entries:
        raise SystemExit("--venues needs at least one entry")
    return entries


def request_bodies(venue_names):
    """A rotation of distinct queries over the running example, tagged per
    venue — the mixed-venue workload.  Returns ``[(venue, body_bytes)]``."""
    points = example_query_points()
    pairs = [
        (points["p3"], points["p4"], "9:00"),
        (points["p4"], points["p3"], "14:00"),
        (points["p1"], points["p2"], "10:30"),
        (points["p2"], points["p1"], "18:00"),
    ]
    bodies = []
    for venue in venue_names:
        for source, target, when in pairs:
            bodies.append(
                (
                    venue,
                    json.dumps(
                        {
                            "venue": venue,
                            "source": [source.x, source.y, source.floor],
                            "target": [target.x, target.y, target.floor],
                            "time": when,
                        }
                    ).encode(),
                )
            )
    # Interleave venues so every batch window sees mixed-venue traffic.
    bodies.sort(key=lambda entry: hash(entry[1]) % 97)
    return bodies


async def one_request(host: str, port: int, body: bytes, want_payload: bool = False):
    """One timed POST /query; returns ``(status, latency[, payload])``."""
    started = time.perf_counter()
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(
            (b"POST /query HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % len(body)) + body
        )
        await writer.drain()
        head = await reader.readuntil(b"\r\n\r\n")
        status = int(head.split(b" ")[1])
        length = 0
        for line in head.split(b"\r\n"):
            if line.lower().startswith(b"content-length"):
                length = int(line.split(b":")[1])
        raw = await reader.readexactly(length) if length else b"{}"
        latency = time.perf_counter() - started
        if want_payload:
            return status, latency, json.loads(raw)
        return status, latency
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except Exception:
            pass


async def get_json(host: str, port: int, path: str):
    """One GET; returns ``(status, payload_dict)``."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(f"GET {path} HTTP/1.1\r\nContent-Length: 0\r\n\r\n".encode())
        await writer.drain()
        head = await reader.readuntil(b"\r\n\r\n")
        status = int(head.split(b" ")[1])
        length = 0
        for line in head.split(b"\r\n"):
            if line.lower().startswith(b"content-length"):
                length = int(line.split(b":")[1])
        raw = await reader.readexactly(length) if length else b"{}"
        return status, json.loads(raw)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except Exception:
            pass


async def run_level(host: str, port: int, qps: float, duration: float, bodies):
    """Open-loop arrivals at ``qps`` for ``duration`` seconds.

    ``bodies`` are ``(venue, body_bytes)`` pairs; the record carries the
    aggregate curve plus a per-venue split (on a sharded deployment the
    venue split *is* the per-shard split — the map is static)."""
    interval = 1.0 / qps
    total = max(1, int(duration * qps))
    tasks = []
    venues_fired = []
    started = time.perf_counter()
    for index in range(total):
        delay = started + index * interval - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        venue, body = bodies[index % len(bodies)]
        venues_fired.append(venue)
        tasks.append(asyncio.ensure_future(one_request(host, port, body)))
    outcomes = await asyncio.gather(*tasks, return_exceptions=True)
    elapsed = time.perf_counter() - started

    latencies_ok = []
    per_venue = {venue: {"answered": 0, "shed": 0, "errors": 0, "latencies": []} for venue in set(venues_fired)}
    answered = shed = errors = 0
    for venue, outcome in zip(venues_fired, outcomes):
        bucket = per_venue[venue]
        if isinstance(outcome, BaseException):
            errors += 1
            bucket["errors"] += 1
            continue
        status, latency = outcome
        if status == 200:
            answered += 1
            bucket["answered"] += 1
            latencies_ok.append(latency)
            bucket["latencies"].append(latency)
        elif status == 429:
            shed += 1
            bucket["shed"] += 1
        else:
            errors += 1
            bucket["errors"] += 1
    venues_record = {}
    for venue, bucket in sorted(per_venue.items()):
        venues_record[venue] = {
            "answered": bucket["answered"],
            "shed": bucket["shed"],
            "errors": bucket["errors"],
            "latency_p50_seconds": percentile(bucket["latencies"], 0.50),
            "latency_p99_seconds": percentile(bucket["latencies"], 0.99),
        }
    return {
        "offered_qps": qps,
        "requests": total,
        "achieved_qps": total / elapsed if elapsed > 0 else None,
        "answered": answered,
        "shed": shed,
        "errors": errors,
        "shed_rate": shed / total,
        "latency_p50_seconds": percentile(latencies_ok, 0.50),
        "latency_p99_seconds": percentile(latencies_ok, 0.99),
        "latency_max_seconds": max(latencies_ok) if latencies_ok else None,
        "venues": venues_record,
    }


def start_server(args, venues, shards: int = 0) -> "tuple[subprocess.Popen, str, int]":
    env = dict(os.environ)
    env["PYTHONPATH"] = str(_REPO_ROOT / "src")
    command = [
        sys.executable,
        "-m",
        "repro.service",
        "--port",
        "0",
        "--cache",
        "eager",
        "--window-ms",
        str(args.window_ms),
        "--max-pending",
        str(args.max_pending),
    ]
    for _name, spec in venues:
        command.extend(("--venue", spec))
    if shards:
        command.extend(("--shards", str(shards), "--respawn-backoff", str(args.respawn_backoff)))
    process = subprocess.Popen(
        command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env
    )
    deadline = time.monotonic() + 120.0
    line = ""
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if line.startswith("listening on "):
            break
        if process.poll() is not None:
            raise SystemExit(
                f"server exited before listening: {process.stderr.read()[-2000:]}"
            )
    else:
        process.kill()
        raise SystemExit("server did not report listening within 120s")
    address = line.strip().split(" ")[-1]
    host, _, port = address.rpartition(":")
    return process, host, int(port)


def stop_server(process: subprocess.Popen) -> str:
    """SIGINT the server and return its remaining stdout (the drain line)."""
    process.send_signal(signal.SIGINT)
    try:
        stdout, stderr = process.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        process.kill()
        raise SystemExit("server did not drain within 60s of SIGINT")
    if process.returncode != 0:
        raise SystemExit(f"server exited with {process.returncode}: {stderr[-2000:]}")
    return stdout


def comparable(payload):
    """The bit-identical projection of a ``/query`` answer: everything
    deterministic (venue, method, reachability, length, door sequence and
    the exact search counters), excluding wall-clock fields and the rung
    (a batch isolation re-run answers the same query as ``sequential``)."""
    stats = payload.get("statistics", {})
    return {
        "venue": payload.get("venue"),
        "method": payload.get("method"),
        "found": payload.get("found"),
        "length": payload.get("length"),
        "doors": payload.get("doors"),
        "statistics": {
            key: stats.get(key)
            for key in ("doors_settled", "relaxations", "heap_pushes", "heap_pops")
        },
    }


async def parity_sweep(host, port, bodies):
    """Answer every distinct body once; returns ``{body: comparable}``."""
    answers = {}
    for venue, body in bodies:
        status, _latency, payload = await one_request(host, port, body, want_payload=True)
        if status != 200:
            raise SystemExit(f"parity sweep: {venue} answered {status}: {payload}")
        answers[body] = comparable(payload)
    return answers


async def shard_kill_phase(host, port, bodies, victim_venue, respawn_timeout, oracle):
    """SIGKILL the shard owning ``victim_venue`` under traffic and record
    the isolation + recovery story.  Healthy-shard venues must keep
    answering 200 bit-identically; the dead shard's venues must answer
    typed 503s until the supervised respawn lands; after recovery the dead
    venue must answer 200 bit-identically again."""
    from repro.testing.faults import shard_owning, sigkill_shard

    status, ready = await get_json(host, port, "/readyz")
    if status != 200:
        raise SystemExit(f"router not ready before kill phase: {ready}")
    shard_name, entry = shard_owning(ready["shards"], victim_venue)
    killed_pid = sigkill_shard(entry)
    await asyncio.sleep(0.05)  # let the supervisor notice the death

    dead = {"answered": 0, "isolated_503": 0, "other": 0}
    live = {"answered": 0, "isolated_503": 0, "other": 0}
    burst = 0
    deadline = time.monotonic() + 1.0
    while time.monotonic() < deadline:
        for venue, body in bodies:
            status, _latency, payload = await one_request(host, port, body, want_payload=True)
            bucket = dead if venue in entry["venues"] else live
            if status == 200:
                bucket["answered"] += 1
                if comparable(payload) != oracle[body]:
                    raise SystemExit(f"non-identical answer during kill phase: {payload}")
            elif status == 503 and payload.get("type") == "ServiceUnavailableError":
                bucket["isolated_503"] += 1
            else:
                bucket["other"] += 1
            burst += 1
        await asyncio.sleep(0.02)

    if live["isolated_503"] or live["other"]:
        raise SystemExit(f"healthy shards degraded during the kill: {live}")
    if not dead["isolated_503"]:
        raise SystemExit(f"dead shard's venues never shed a 503: {dead}")

    started = time.monotonic()
    from repro.testing.faults import await_router_ready

    await await_router_ready(host, port, timeout=respawn_timeout)
    recovery_seconds = time.monotonic() - started

    recovered = {"answered": 0, "other": 0}
    for venue, body in bodies:
        if venue not in entry["venues"]:
            continue
        status, _latency, payload = await one_request(host, port, body, want_payload=True)
        if status == 200 and comparable(payload) == oracle[body]:
            recovered["answered"] += 1
        else:
            recovered["other"] += 1
    if recovered["other"]:
        raise SystemExit(f"respawned shard is not bit-identical: {recovered}")

    return {
        "victim_shard": shard_name,
        "victim_venues": list(entry["venues"]),
        "killed_pid": killed_pid,
        "burst_requests": burst,
        "dead_venues": dead,
        "live_venues": live,
        "recovery_seconds": recovery_seconds,
        "recovered_requests": recovered,
    }


def drive_levels(host, port, levels, duration, bodies, label):
    results = []
    for qps in levels:
        result = asyncio.run(run_level(host, port, qps, duration, bodies))
        results.append(result)
        p50 = result["latency_p50_seconds"]
        p99 = result["latency_p99_seconds"]
        print(
            f"[{label}] qps={qps:>6.1f}  answered={result['answered']:>4}  "
            f"shed={result['shed']:>4}  errors={result['errors']:>2}  "
            f"p50={p50 * 1e3 if p50 is not None else float('nan'):8.2f}ms  "
            f"p99={p99 * 1e3 if p99 is not None else float('nan'):8.2f}ms"
        )
    total_errors = sum(result["errors"] for result in results)
    if total_errors:
        raise SystemExit(f"[{label}] {total_errors} request(s) failed with unexpected errors")
    return results


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--qps", default="20,50,100", help="comma-separated offered QPS levels")
    parser.add_argument("--duration", type=float, default=2.0, help="seconds per level")
    parser.add_argument(
        "--venues",
        default="example",
        help="comma-separated [NAME=]SPEC venue entries served (and queried, tagged per venue)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=0,
        help="compare a single process against a --shards N router on the same "
        "workload (parity sweep + shard-kill phase); writes BENCH_shards.json",
    )
    parser.add_argument("--window-ms", type=float, default=2.0)
    parser.add_argument("--max-pending", type=int, default=64)
    parser.add_argument("--respawn-backoff", type=float, default=0.2)
    parser.add_argument(
        "--respawn-timeout", type=float, default=60.0, help="kill-phase recovery budget"
    )
    parser.add_argument("--out", default=None, help="output path (default depends on --shards)")
    args = parser.parse_args()
    levels = [float(level) for level in args.qps.split(",") if level.strip()]
    venues = parse_venues(args.venues)
    bodies = request_bodies([name for name, _spec in venues])
    default_out = "BENCH_shards.json" if args.shards else "BENCH_service.json"
    out_path = Path(args.out) if args.out else _REPO_ROOT / default_out

    record = {
        "benchmark": "service_shards" if args.shards else "service_load",
        "environment": bench_environment(),
        "config": {
            "venues": [spec for _name, spec in venues],
            "shards": args.shards,
            "window_ms": args.window_ms,
            "max_pending": args.max_pending,
            "duration_seconds": args.duration,
            "arrivals": "open-loop",
        },
    }

    # -- single-process topology (always measured: it is the whole story
    # without --shards, and the comparison baseline + parity oracle with it).
    process, host, port = start_server(args, venues)
    try:
        oracle = asyncio.run(parity_sweep(host, port, bodies))
        single_levels = drive_levels(host, port, levels, args.duration, bodies, "single")
    finally:
        stdout = stop_server(process)
    if "drained and closed" not in stdout:
        raise SystemExit(f"single-process server did not drain; stdout tail: {stdout[-500:]}")

    if not args.shards:
        record["levels"] = single_levels
        out_path.write_text(json.dumps(record, indent=2) + "\n")
        print(f"wrote {out_path}")
        return

    # -- sharded topology: parity, curves, then the kill phase.
    process, host, port = start_server(args, venues, shards=args.shards)
    try:
        sharded_answers = asyncio.run(parity_sweep(host, port, bodies))
        mismatches = [
            body for body, answer in sharded_answers.items() if answer != oracle[body]
        ]
        if mismatches:
            raise SystemExit(
                f"{len(mismatches)} sharded answer(s) differ from the single process: "
                f"{mismatches[0]!r}"
            )
        print(f"[parity] {len(oracle)} distinct queries bit-identical across topologies")
        sharded_levels = drive_levels(host, port, levels, args.duration, bodies, "sharded")
        status, metrics = asyncio.run(get_json(host, port, "/metrics"))
        if status != 200:
            raise SystemExit(f"router /metrics answered {status}")
        kill_record = asyncio.run(
            shard_kill_phase(host, port, bodies, venues[0][0], args.respawn_timeout, oracle)
        )
        print(
            f"[kill] shard {kill_record['victim_shard']} SIGKILLed: "
            f"{kill_record['dead_venues']['isolated_503']} isolated 503s, "
            f"live venues clean, respawn in {kill_record['recovery_seconds']:.2f}s"
        )
    finally:
        stdout = stop_server(process)
    if "drained and closed" not in stdout:
        raise SystemExit(f"router did not drain; stdout tail: {stdout[-500:]}")
    print("router drained and closed cleanly")

    record["parity"] = {"queries": len(oracle), "identical": True}
    record["single_process"] = single_levels
    record["sharded"] = sharded_levels
    record["router_metrics"] = {
        "router": metrics.get("router"),
        "aggregate": metrics.get("aggregate"),
        "shards": {
            name: {key: entry.get(key) for key in ("state", "venues", "deaths", "respawns")}
            for name, entry in metrics.get("shards", {}).items()
        },
    }
    record["shard_kill"] = kill_record
    out_path.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {out_path}")


if __name__ == "__main__":
    main()
