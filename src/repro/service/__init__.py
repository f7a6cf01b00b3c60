"""``repro.service`` — a resilient localhost query service over the engine.

The serving layer the ROADMAP's north star calls for: one asyncio process
owns one or more compiled venues (engines built normally or rehydrated from
:mod:`repro.io.compiled_codec` payloads), collects incoming single queries
into short time-windowed micro-batches for the
:class:`~repro.core.batch.BatchPlanner`, and wraps the whole request path in
robustness machinery:

* **cooperative deadlines** — every admitted request may carry a
  :class:`~repro.core.deadline.SearchDeadline`; expiry raises the typed
  :class:`~repro.exceptions.DeadlineExceededError` (HTTP 504), never a
  partial result;
* **admission control** — a bounded pending-request budget sheds load with
  :class:`~repro.exceptions.ServiceOverloadedError` (HTTP 429) and a
  semaphore caps in-flight batches (:mod:`repro.service.admission`);
* **a circuit-breaker degradation ladder** — batch → sequential compiled
  → cache-replay-only, each rung guarded by a breaker scored from
  outcomes, with bounded-backoff recovery probes
  (:mod:`repro.service.degradation`);
* **graceful lifecycle** — ``/healthz`` / ``/readyz`` / ``/metrics``
  endpoints and idempotent drain-then-close shutdown
  (:mod:`repro.service.server`);
* **sharded serving** — a :class:`~repro.service.shard.ShardRouter`
  front-end over N supervised service subprocesses (one venue subset each,
  static venue→shards map with replicas on spare shards, pooled proxying
  to the least-loaded live replica, bounded-backoff respawn, aggregated
  health/metrics), the ``--shards`` mode of ``python -m repro.service``
  and the one way to use more than one core (:mod:`repro.service.shard`).

Every rung answers **bit-identically** to the sequential oracle (the
repository's standing parity invariant); degradation changes latency and
availability, never answers.  ``python -m repro.service`` runs a server;
``benchmarks/bench_service_load.py`` drives it with open-loop load.
"""

from repro.service.admission import AdmissionController
from repro.service.degradation import CircuitBreaker, DegradationLadder
from repro.service.metrics import ServiceMetrics, aggregate_request_snapshots
from repro.service.server import ITSPQService, ServiceConfig
from repro.service.shard import ShardRouter, ShardRouterConfig, ShardSpec, plan_shards

__all__ = [
    "AdmissionController",
    "CircuitBreaker",
    "DegradationLadder",
    "ServiceMetrics",
    "ITSPQService",
    "ServiceConfig",
    "ShardRouter",
    "ShardRouterConfig",
    "ShardSpec",
    "aggregate_request_snapshots",
    "plan_shards",
]
