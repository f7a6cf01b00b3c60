"""Shared pieces of the benchmark: span recording, statistics, answer
projections, process memory and provenance."""

from __future__ import annotations

import gc
import itertools
import json
import math
import os
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

from repro.core.query import SearchStatistics

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".perfbench_work"

#: The clock of in-process timings (set-up, ``run``, ``run_batch``): CPU time
#: of the calling thread.  The work it times is single-threaded and never
#: blocks, so on an idle machine it reads the same as the wall clock; on a
#: busy one it leaves out the time the thread waited for a CPU, behind
#: another process or behind the hypervisor (steal time).  It does not
#: leave out a slow spell of the host, in which the CPU itself runs slower;
#: the best-of-visits estimators deal with those.  Timings that cross
#: processes (HTTP latency, server set-up, ``peak_qps`` of a server) stay
#: wall time.
cpu_clock = time.thread_time

#: The counters a ``POST /query`` answer carries; the service-side checks
#: compare exactly these (the library-side checks compare every counter).
WIRE_COUNTERS = ("doors_settled", "relaxations", "heap_pushes", "heap_pops")


class Tracer:
    """In-memory span recorder used only by traced runs.

    A span is ``(id, name, start, end, parent, request_id)`` with
    ``perf_counter`` times.  A disabled tracer records nothing, so the
    untraced runs that produce the end-to-end numbers pay one attribute
    check per call site.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: List[tuple] = []
        self._ids = itertools.count(1)

    def record(self, name, start, end, parent=None, request_id=None) -> Optional[int]:
        if not self.enabled:
            return None
        span_id = next(self._ids)
        self.spans.append((span_id, name, start, end, parent, request_id))
        return span_id

    @contextmanager
    def span(self, name, parent=None, request_id=None):
        """Time the enclosed block as one span; yields the span id (``None``
        when disabled) so calls inside can name it as their parent."""
        if not self.enabled:
            yield None
            return
        span_id = next(self._ids)
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            self.spans.append((span_id, name, start, time.perf_counter(), parent, request_id))

    def durations(self, name: str) -> List[float]:
        return [end - start for _id, span_name, start, end, _p, _r in self.spans if span_name == name]

    def dump(self, path: Path) -> None:
        keys = ("id", "name", "start", "end", "parent", "request_id")
        with open(path, "w") as handle:
            json.dump([dict(zip(keys, span)) for span in self.spans], handle)


@contextmanager
def collector_off():
    """Run the enclosed block with the garbage collector off, after a full
    collection: its pauses grow with everything the benchmark holds and
    would land in the times measured inside."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def percentile(samples: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile: the ``ceil(fraction * n)``-th smallest."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def beyond(count: int, fraction: float) -> int:
    """How many of ``count`` samples lie beyond their nearest-rank percentile."""
    return count - max(1, math.ceil(fraction * count)) if count else 0


def median(samples: Iterable[float]) -> float:
    return statistics.median(list(samples))


def median_of_best(samples: Sequence[float], group: int) -> float:
    """Median, over consecutive groups of ``group`` samples taken back to
    back, of each group's smallest.  The shared host's speed switches
    between a fast and a slow state about as often as a set-up takes; the
    median of single set-ups sits on the cliff between the two, the median
    of group minima in the fast state."""
    return median(min(samples[start : start + group]) for start in range(0, len(samples) - group + 1, group))


def mean(samples: Iterable[float]) -> float:
    values = list(samples)
    return sum(values) / len(values) if values else 0.0


def result_projection(result) -> tuple:
    """The bit-identical part of a library ``QueryResult``: reachability,
    exact length, door sequence and every deterministic counter."""
    stats = result.statistics
    return (
        result.found,
        result.length if result.found else None,
        tuple(result.path.door_sequence) if result.path is not None else (),
        tuple(getattr(stats, name) for name in SearchStatistics.COUNTER_FIELDS),
    )


def wire_projection_of_result(result) -> tuple:
    """What a service answer for ``result`` must carry, field for field."""
    stats = result.statistics
    return (
        result.found,
        result.length if result.found else None,
        tuple(result.path.door_sequence) if result.path is not None else (),
        tuple(getattr(stats, name) for name in WIRE_COUNTERS),
    )


def wire_projection(payload: dict) -> tuple:
    stats = payload.get("statistics", {})
    return (
        payload.get("found"),
        payload.get("length"),
        tuple(payload.get("doors", ())),
        tuple(stats.get(name) for name in WIRE_COUNTERS),
    )


def peak_rss_mb(pid="self") -> float:
    """``VmHWM`` of a live process, in MB (0.0 once it has exited)."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def usable_cpus() -> int:
    return len(os.sched_getaffinity(0))


def provenance() -> Dict[str, object]:
    """The provenance block every repository benchmark record carries."""
    sys.path.insert(0, str(ROOT / "benchmarks"))
    try:
        from _bench_env import bench_environment
    finally:
        sys.path.pop(0)
    return bench_environment()
