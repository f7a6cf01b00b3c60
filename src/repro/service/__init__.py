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
* **batch isolation** — a micro-batch whose shared search raises
  :class:`~repro.exceptions.QueryError` re-runs its members one by one, so
  only the malformed member answers 400; any other failure answers its
  batch with a typed 500 and the service keeps serving;
* **graceful lifecycle** — ``/healthz`` / ``/readyz`` / ``/metrics``
  endpoints and idempotent drain-then-close shutdown
  (:mod:`repro.service.server`);
* **sharded serving** — a :class:`~repro.service.shard.ShardRouter`
  front-end over N supervised service subprocesses (one venue subset each,
  static venue→shards map with replicas on spare shards, pooled proxying
  to the least-loaded live replica, bounded-backoff respawn, aggregated
  health/metrics), the ``--shards`` mode of ``python -m repro.service``
  and the one way to use more than one core (:mod:`repro.service.shard`).

Both execution paths answer **bit-identically** to the sequential oracle
(the repository's standing parity invariant).  ``python -m repro.service``
runs a server;
``benchmarks/bench_service_load.py`` drives it with open-loop load.
"""

from repro.service.admission import AdmissionController
from repro.service.metrics import ServiceMetrics, aggregate_request_snapshots
from repro.service.server import ITSPQService, ServiceConfig
from repro.service.shard import ShardRouter, ShardRouterConfig, ShardSpec, plan_shards

__all__ = [
    "AdmissionController",
    "ServiceMetrics",
    "ITSPQService",
    "ServiceConfig",
    "ShardRouter",
    "ShardRouterConfig",
    "ShardSpec",
    "aggregate_request_snapshots",
    "plan_shards",
]
