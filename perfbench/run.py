#!/usr/bin/env python3
"""The repository benchmark: paper-scale search, live serving and sharded
routing, with a traced mode that splits the end-to-end numbers by layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-mall --seed 1 --seconds 30 --trace 0

Workloads (why each exists: ``BENCHMARK.json``; every metric: ``METRICS.md``):

* ``paper-mall``: the library in process on the paper's Table II mall;
* ``serve-live``: ``python -m repro.service`` serving that mall;
* ``serve-sharded``: ``python -m repro.service --shards 2`` over two venues.

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is a separate
run that records spans around the calls into each layer and reports the
per-layer metrics.  Both check every answer against in-process engines.
The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the full record (with
provenance) and, when traced, the spans are written to ``.perfbench_work/``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("paper-mall", "serve-live", "serve-sharded"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured time of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    source = ROOT / "src"
    if not (source / "repro").is_dir():
        print(f"no program sources under {source}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))

    import workloads
    from common import WORK_DIR, Tracer, provenance, usable_cpus

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    WORK_DIR.mkdir(exist_ok=True)
    tracer = Tracer(args.trace == 1)
    run = {
        "paper-mall": workloads.paper_mall,
        "serve-live": workloads.serve_live,
        "serve-sharded": workloads.serve_sharded,
    }[args.workload]
    report = run(args.seed, args.seconds, tracer)

    wanted = spec["per_layer"] if tracer.enabled else spec["end_to_end"]
    values = report.per_layer if tracer.enabled else report.end_to_end
    missing = [entry["name"] for entry in wanted if entry["name"] not in values]
    if missing:
        raise RuntimeError(f"{args.workload} did not measure {missing}")
    metrics = {entry["name"]: {"value": values[entry["name"]], "unit": entry["unit"]} for entry in wanted}

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": {**provenance(), "usable_cpus": usable_cpus()},
        "attempted": report.attempted,
        "failed": report.failed,
        "mismatches": report.mismatches,
        "error_rate": report.failed / max(1, report.attempted),
        "metrics": values,
        "details": report.details,
    }
    (WORK_DIR / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if tracer.enabled:
        tracer.dump(WORK_DIR / f"{stem}-spans.json")

    for name, metric in metrics.items():
        print(f"{name:28s} {metric['value']:14.4f} {metric['unit']}")
    for name, value in sorted(report.details.items()):
        print(f"{name:28s} {value}")
    print(f"{'error_rate':28s} {record['error_rate']:14.6f} ({report.failed}/{report.attempted})")
    correct = report.mismatches == 0 and report.details.get("failed_drains", 0) == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": report.attempted,
                "failed": report.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
