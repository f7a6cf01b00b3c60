"""``python -m repro.service`` — run an ITSPQ query server on localhost.

Venue selection (``--venue``, repeatable):

* ``--venue example`` (default) serves the Figure 1 / Table I running
  example;
* ``--venue mall`` serves a small synthetic multi-floor mall (deterministic
  seed, built at startup);
* ``--venue /path/to/payload.bin`` serves a venue rehydrated from a
  :mod:`repro.io.compiled_codec` payload file — the **payload-venue mode**
  used by shard deployments: no object-level IT-Graph is ever built in the
  serving process, the compiled index travels as one binary blob (write one
  with ``repro.io.serialize.save_compiled_graph``).  The venue is named
  after the file stem (``/data/mall_a.bin`` serves venue ``mall_a``);
* any form takes an explicit name as ``--venue NAME=SPEC``
  (``--venue a=example --venue b=/data/b.bin`` serves venues ``a``, ``b``).

Topology selection:

* without ``--shards`` one process serves every ``--venue`` directly;
* ``--shards N`` runs a :class:`~repro.service.shard.ShardRouter` instead:
  the venues are dealt round-robin over N supervised worker subprocesses
  (each an ordinary ``python -m repro.service`` on its own localhost port;
  with more shards than venues the spare shards serve replicas) and this
  process proxies ``POST /query`` by venue to the live replica with the
  fewest requests in flight, aggregates ``/healthz`` ``/readyz``
  ``/metrics``, and respawns dead shards with bounded backoff.  Engine
  flags (``--cache``, ``--window-ms``, ...) are forwarded to every worker.
  This is the one way to use more than one core.

Either way the process prints exactly one ``listening on HOST:PORT`` line
to stdout once ready (the line the load generator and the CI job wait
for), serves until SIGINT/SIGTERM, then drains and closes gracefully,
printing ``drained and closed``.

End-to-end example (build payloads → serve sharded → query)::

    # 1. compile two venues offline into codec payloads
    PYTHONPATH=src python - <<'EOF'
    from repro.datasets.example_floorplan import build_example_itgraph
    from repro.io.serialize import save_compiled_graph
    graph = build_example_itgraph().compiled()
    save_compiled_graph(graph, "/tmp/venue_a.bin")
    save_compiled_graph(graph, "/tmp/venue_b.bin")
    EOF

    # 2. serve them: a router over 2 shards, one venue each
    PYTHONPATH=src python -m repro.service --shards 2 --port 8321 \\
        --venue a=/tmp/venue_a.bin --venue b=/tmp/venue_b.bin --cache eager &
    # wait for: listening on 127.0.0.1:8321

    # 3. query by venue; deadline_ms rides in the body through the router
    curl -s localhost:8321/query -d '{"venue": "a", "source": [26, 5, 0],
        "target": [9, 10, 0], "time": "9:00", "deadline_ms": 250}'
    curl -s localhost:8321/readyz    # per-shard state (pid, port, respawns)
    curl -s localhost:8321/metrics   # router + per-shard + aggregate
    kill -INT %1                     # drains every shard, then the router
"""

from __future__ import annotations

import argparse
import asyncio
import os
import signal
import sys
from pathlib import Path
from typing import List, Tuple

from repro.core.cache import CacheConfig
from repro.core.engine import ITSPQEngine
from repro.service.server import ITSPQService, ServiceConfig
from repro.service.shard import ShardRouter, ShardRouterConfig, plan_shards


def parse_venue_arg(entry: str) -> Tuple[str, str]:
    """One ``--venue`` entry as a ``(name, spec)`` pair.

    ``NAME=SPEC`` is explicit naming; a bare builtin (``example``/``mall``)
    names itself; a bare payload path is named after its file stem.
    """
    name, sep, spec = entry.partition("=")
    if sep:
        if not name:
            raise SystemExit(f"--venue {entry!r}: empty venue name")
        return name, spec
    if entry in ("example", "mall"):
        return entry, entry
    if os.path.exists(entry):
        return Path(entry).stem, entry
    return entry, entry  # an unknown spec: build_engine reports it properly


def build_engine(spec: str, cache: str) -> ITSPQEngine:
    """Build the engine for a ``--venue`` spec (see the module docstring)."""
    cache_option = None if cache == "off" else CacheConfig(mode=cache)
    if os.path.exists(spec):
        with open(spec, "rb") as handle:
            payload = handle.read()
        return ITSPQEngine.from_compiled_payload(payload, cache=cache_option)
    if spec == "example":
        from repro.datasets.example_floorplan import build_example_itgraph

        return ITSPQEngine(build_example_itgraph(), cache=cache_option)
    if spec == "mall":
        from repro.core.itgraph import build_itgraph
        from repro.synthetic.floorplan import MallFloorConfig
        from repro.synthetic.multifloor import MultiFloorConfig, generate_mall_venue
        from repro.synthetic.schedules import ScheduleConfig, generate_schedule

        config = MultiFloorConfig(
            floors=2,
            staircases_per_floor_pair=2,
            floor_config=MallFloorConfig(
                side=300.0,
                corridors=2,
                corridor_cells=3,
                shop_depth=25.0,
                shops_per_row=6,
                double_door_fraction=0.4,
                private_shop_fraction=0.1,
            ),
        )
        venue_obj = generate_mall_venue(config, seed=5)
        schedule, _ = generate_schedule(venue_obj.space, ScheduleConfig(checkpoint_count=8, seed=3))
        return ITSPQEngine(build_itgraph(venue_obj.space, schedule, validate=False), cache=cache_option)
    raise SystemExit(
        f"unknown venue spec {spec!r}: expected 'example', 'mall' or a compiled-codec payload path"
    )


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Serve ITSPQ queries over localhost HTTP with deadlines, "
        "admission control and batch isolation — one process per venue set, "
        "or a sharded router over N worker processes (--shards).",
    )
    parser.add_argument(
        "--venue",
        action="append",
        metavar="[NAME=]SPEC",
        help="venue to serve: 'example', 'mall', or a compiled-codec payload path "
        "(the payload-venue / shard deployment; named after the file stem unless "
        "NAME= is given).  Repeatable; default: example",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0, help="0 picks a free port")
    parser.add_argument(
        "--shards",
        type=int,
        default=0,
        help="run a ShardRouter over this many service subprocesses (venues are "
        "dealt round-robin, spare shards serve replicas; 0 = single-process "
        "serving, the default)",
    )
    parser.add_argument(
        "--cache",
        choices=("off", "promote", "eager"),
        default="promote",
        help="SP-tree cache mode",
    )
    parser.add_argument("--window-ms", type=float, default=5.0, help="micro-batch window")
    parser.add_argument("--max-batch", type=int, default=16)
    parser.add_argument("--max-pending", type=int, default=64)
    parser.add_argument("--max-inflight", type=int, default=4)
    parser.add_argument(
        "--deadline-ms", type=float, default=None, help="default per-request budget"
    )
    router = parser.add_argument_group("router options (only with --shards)")
    router.add_argument(
        "--pool-size", type=int, default=4, help="idle keep-alive connections kept per shard"
    )
    router.add_argument(
        "--max-inflight-per-shard",
        type=int,
        default=64,
        help="proxied requests in flight per shard; excess sheds a typed 429",
    )
    router.add_argument(
        "--respawn-backoff", type=float, default=0.5, help="dead-shard respawn backoff base"
    )
    router.add_argument(
        "--respawn-backoff-cap", type=float, default=30.0, help="dead-shard respawn backoff cap"
    )
    return parser


def venue_entries(args: argparse.Namespace) -> List[str]:
    """The normalised ``NAME=SPEC`` venue entries of this invocation."""
    raw = args.venue if args.venue else ["example"]
    entries = []
    names = set()
    for item in raw:
        name, spec = parse_venue_arg(item)
        if name in names:
            raise SystemExit(f"duplicate venue name {name!r}")
        names.add(name)
        entries.append(f"{name}={spec}")
    return entries


def forwarded_worker_args(args: argparse.Namespace) -> Tuple[str, ...]:
    """Engine/service flags every shard worker inherits from the router CLI."""
    forwarded = [
        "--cache", args.cache,
        "--window-ms", str(args.window_ms),
        "--max-batch", str(args.max_batch),
        "--max-pending", str(args.max_pending),
        "--max-inflight", str(args.max_inflight),
    ]
    if args.deadline_ms is not None:
        forwarded.extend(("--deadline-ms", str(args.deadline_ms)))
    return tuple(forwarded)


async def amain(args: argparse.Namespace) -> None:
    entries = venue_entries(args)
    if args.shards:
        front = ShardRouter(
            plan_shards(entries, args.shards),
            ShardRouterConfig(
                host=args.host,
                port=args.port,
                pool_size=args.pool_size,
                max_inflight_per_shard=args.max_inflight_per_shard,
                respawn_backoff_base=args.respawn_backoff,
                respawn_backoff_cap=args.respawn_backoff_cap,
                worker_args=forwarded_worker_args(args),
            ),
        )
    else:
        engines = {}
        for entry in entries:
            name, _, spec = entry.partition("=")
            engines[name] = build_engine(spec, args.cache)
        config = ServiceConfig(
            host=args.host,
            port=args.port,
            batch_window_ms=args.window_ms,
            max_batch=args.max_batch,
            max_pending=args.max_pending,
            max_inflight_batches=args.max_inflight,
            default_deadline_ms=args.deadline_ms,
        )
        front = ITSPQService(engines, config)
    await front.start()
    print(f"listening on {front.host}:{front.port}", flush=True)

    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        loop.add_signal_handler(signum, stop.set)
    serve = asyncio.ensure_future(front.serve_forever())
    stopper = asyncio.ensure_future(stop.wait())
    await asyncio.wait((serve, stopper), return_when=asyncio.FIRST_COMPLETED)
    serve.cancel()
    await front.aclose()
    print("drained and closed", flush=True)


def main(argv=None) -> None:
    args = make_parser().parse_args(argv)
    try:
        asyncio.run(amain(args))
    except KeyboardInterrupt:  # pragma: no cover - direct ^C race
        pass


if __name__ == "__main__":
    main(sys.argv[1:])
