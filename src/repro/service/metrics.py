"""Service counters and latency percentiles for ``/metrics``.

Deliberately dependency-free: a :class:`LatencyReservoir` of recent request
latencies (newest-wins ring buffer, so percentiles reflect the current
regime rather than the whole process lifetime; the shard router's
``RouterMetrics`` keeps one too) plus plain counters keyed by outcome and
by rung (the shared ``batch`` search or the ``sequential`` re-run that
isolates a malformed member).  The knee sweep
(``benchmarks/bench_service_knee.py``) reads ``answered`` and ``batches``
from this snapshot for the mean batch size it writes to
``BENCH_service.json``.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, Dict, Iterable, Optional


#: The latencies a :class:`LatencyReservoir` keeps.
RESERVOIR_SIZE = 8192


class LatencyReservoir:
    """The newest :data:`RESERVOIR_SIZE` latencies of one front-end
    (seconds) and their nearest-rank percentiles (single event-loop use)."""

    def __init__(self) -> None:
        self._samples: Deque[float] = deque(maxlen=RESERVOIR_SIZE)

    def observe(self, seconds: float) -> None:
        self._samples.append(seconds)

    def percentile(self, fraction: float) -> Optional[float]:
        """The nearest-rank ``fraction`` (0..1) percentile, the
        ``ceil(fraction * n)``-th smallest sample, or ``None`` when empty.
        Sorts a copy: the reservoir is small and ``/metrics`` is not a hot
        path."""
        if not self._samples:
            return None
        ordered = sorted(self._samples)
        return ordered[max(1, math.ceil(fraction * len(ordered))) - 1]

    def snapshot(self) -> Dict[str, object]:
        """The latency fields that end a ``/metrics`` request section."""
        return {
            "latency_samples": len(self._samples),
            "latency_p50_seconds": self.percentile(0.50),
            "latency_p99_seconds": self.percentile(0.99),
        }


class ServiceMetrics:
    """Counters + a bounded latency reservoir (single event-loop use)."""

    def __init__(self) -> None:
        self.received = 0
        self.answered = 0
        self.shed = 0  # 429s: admission
        self.deadline_exceeded = 0  # 504s
        self.bad_requests = 0  # 400s, plus 411/431 framing refusals
        self.client_timeouts = 0  # 408s: slow clients
        self.unavailable = 0  # 503s: draining / not ready
        self.internal_errors = 0  # 500s
        self.batches = 0
        self.answered_by_rung: Dict[str, int] = {}
        #: Service-side request latencies (admit → response).
        self.latencies = LatencyReservoir()

    def observe_outcome(self, status: int) -> None:
        """Count one finished request by its HTTP status."""
        if status == 200:
            self.answered += 1
        elif status == 429:
            self.shed += 1
        elif status == 504:
            self.deadline_exceeded += 1
        elif status in (400, 411, 431):
            self.bad_requests += 1
        elif status == 408:
            self.client_timeouts += 1
        elif status == 503:
            self.unavailable += 1
        else:
            self.internal_errors += 1

    def observe_rung(self, rung: str, count: int = 1) -> None:
        """Count ``count`` queries answered on ``rung``."""
        self.answered_by_rung[rung] = self.answered_by_rung.get(rung, 0) + count

    def snapshot(self) -> Dict[str, object]:
        """The ``/metrics`` payload's request section."""
        return {
            "received": self.received,
            "answered": self.answered,
            "shed": self.shed,
            "deadline_exceeded": self.deadline_exceeded,
            "bad_requests": self.bad_requests,
            "client_timeouts": self.client_timeouts,
            "unavailable": self.unavailable,
            "internal_errors": self.internal_errors,
            "batches": self.batches,
            "answered_by_rung": dict(self.answered_by_rung),
            **self.latencies.snapshot(),
        }


def aggregate_request_snapshots(snapshots: Iterable[Dict[str, object]]) -> Dict[str, object]:
    """The cross-shard ``aggregate`` section of a router's ``/metrics``.

    ``snapshots`` are the per-shard ``requests`` sections (the shape
    :meth:`ServiceMetrics.snapshot` emits).  Counters sum; the per-rung
    split merges by summation; ``latency_samples`` sums.  Percentiles do
    **not** compose across processes (a p99 of p99s is not the deployment's
    p99), so the aggregate reports the *worst shard's* p50/p99 — the
    conservative number an operator should alert on — and keeps the exact
    per-shard values available next to it in the ``shards`` section.

    ``shards_reporting`` counts the snapshots that actually contributed:
    during a shard death it is smaller than the shard count, which is
    itself a signal (the aggregate silently covering fewer shards would
    read as "traffic dropped" when it did not).
    """
    summed = {
        "received": 0,
        "answered": 0,
        "shed": 0,
        "deadline_exceeded": 0,
        "bad_requests": 0,
        "client_timeouts": 0,
        "unavailable": 0,
        "internal_errors": 0,
        "batches": 0,
        "latency_samples": 0,
    }
    answered_by_rung: Dict[str, int] = {}
    worst: Dict[str, Optional[float]] = {
        "latency_p50_seconds": None,
        "latency_p99_seconds": None,
    }
    reporting = 0
    for snapshot in snapshots:
        reporting += 1
        for key in summed:
            value = snapshot.get(key)
            if isinstance(value, (int, float)):
                summed[key] += int(value)
        rungs = snapshot.get("answered_by_rung")
        if isinstance(rungs, dict):
            for rung, count in rungs.items():
                answered_by_rung[rung] = answered_by_rung.get(rung, 0) + int(count)
        for field in worst:
            value = snapshot.get(field)
            if isinstance(value, (int, float)) and (worst[field] is None or value > worst[field]):
                worst[field] = float(value)
    return {
        **summed,
        "answered_by_rung": answered_by_rung,
        **worst,
        "shards_reporting": reporting,
    }
