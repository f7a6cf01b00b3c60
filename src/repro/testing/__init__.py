"""Deterministic chaos tooling for the serving layer.

:mod:`repro.testing.faults` holds the fault helpers behind the service and
shard-router chaos suites: a slow client, a request flood, and a SIGKILLed
shard with the wait for its respawn.  Nothing in here runs in production.
"""

from repro.testing.faults import (
    await_router_ready,
    drip_feed_request,
    flood_requests,
    shard_owning,
    sigkill_shard,
)

__all__ = [
    "await_router_ready",
    "drip_feed_request",
    "flood_requests",
    "shard_owning",
    "sigkill_shard",
]
