"""The circuit-breaker degradation ladder over the execution tiers.

Every execution tier of the service is a **rung** with its own circuit
breaker, and each micro-batch runs on the highest healthy rung —

1. ``batch`` — the multi-target batch executor;
2. ``sequential`` — one compiled search per query;
3. ``cache-replay`` — answers **only** queries whose shortest-path tree is
   already cached (present when the engines carry an SP-tree cache); misses
   are shed with :class:`~repro.exceptions.ServiceOverloadedError`.

Rung order is strictly decreasing capability and strictly increasing
isolation from failure: the bottom rung does no search at all, so it cannot
be sick in the ways the rungs above it can.  Degradation trades throughput
and coverage for availability — never correctness: every rung's answers are
bit-identical to the sequential oracle by the repository's standing parity
contracts, and the chaos suite re-proves it per rung.

Breaker semantics are classic: ``failure_threshold`` consecutive failures
open a rung's breaker; while open, traffic skips the rung; after a bounded,
doubling backoff one **probe** batch is allowed through (half-open) — its
success re-closes the breaker, its failure re-opens with a doubled delay up
to ``backoff_cap``.

The bottom rung is always allowed to answer regardless of its breaker —
a service with every breaker open still serves what it can serve.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Sequence

#: Canonical rung names, highest capability first.
RUNG_BATCH = "batch"
RUNG_SEQUENTIAL = "sequential"
RUNG_CACHE_REPLAY = "cache-replay"

ALL_RUNGS = (RUNG_BATCH, RUNG_SEQUENTIAL, RUNG_CACHE_REPLAY)


class CircuitBreaker:
    """One rung's health state machine (closed → open → half-open).

    Parameters
    ----------
    failure_threshold:
        Consecutive failures that trip the breaker open.
    backoff_base / backoff_cap:
        The n-th consecutive open lasts ``min(cap, base * 2**(n-1))``
        seconds before a recovery probe is allowed.
    clock:
        Injectable monotonic clock (tests advance a fake one instead of
        sleeping).
    """

    def __init__(
        self,
        failure_threshold: int = 3,
        backoff_base: float = 0.5,
        backoff_cap: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        if failure_threshold < 1:
            raise ValueError(f"failure_threshold must be positive, got {failure_threshold}")
        if backoff_base < 0:
            raise ValueError(f"backoff_base must be non-negative, got {backoff_base}")
        if backoff_cap < 0:
            raise ValueError(f"backoff_cap must be non-negative, got {backoff_cap}")
        self.failure_threshold = int(failure_threshold)
        self.backoff_base = float(backoff_base)
        self.backoff_cap = float(backoff_cap)
        self._clock = clock
        self._failures = 0  # consecutive, since the last success
        self._opens = 0  # consecutive opens, for the doubling backoff
        self._open_until: Optional[float] = None
        self._probe_inflight = False
        self.trips = 0  # lifetime open count (observability)

    @property
    def state(self) -> str:
        """``"closed"``, ``"open"`` or ``"half-open"``."""
        if self._open_until is None:
            return "closed"
        if self._probe_inflight or self._clock() >= self._open_until:
            return "half-open"
        return "open"

    def allow(self) -> bool:
        """Whether a batch may run on this rung right now.

        While open, returns ``False`` until the backoff elapses; then admits
        exactly one probe (half-open) until its outcome is recorded.
        """
        if self._open_until is None:
            return True
        if self._probe_inflight:
            return False
        if self._clock() >= self._open_until:
            self._probe_inflight = True
            return True
        return False

    def record_success(self) -> None:
        """A batch completed on this rung: close the breaker, reset backoff."""
        self._failures = 0
        self._opens = 0
        self._open_until = None
        self._probe_inflight = False

    def record_failure(self) -> None:
        """A batch failed on this rung (or a health strike was scored)."""
        self._probe_inflight = False
        if self._open_until is not None:
            # A failed recovery probe: re-open with a doubled delay.
            self._trip()
            return
        self._failures += 1
        if self._failures >= self.failure_threshold:
            self._trip()

    def _trip(self) -> None:
        self._opens += 1
        self.trips += 1
        self._failures = 0
        delay = min(self.backoff_cap, self.backoff_base * (2 ** (self._opens - 1)))
        self._open_until = self._clock() + delay

    def snapshot(self) -> Dict[str, object]:
        """State for ``/metrics`` and ``/readyz``."""
        remaining = 0.0
        if self._open_until is not None:
            remaining = max(0.0, self._open_until - self._clock())
        return {
            "state": self.state,
            "consecutive_failures": self._failures,
            "trips": self.trips,
            "backoff_remaining_seconds": remaining,
        }


class DegradationLadder:
    """Rung selection over per-rung circuit breakers.

    ``rungs`` is the ordered subset of :data:`ALL_RUNGS` this deployment
    actually has (no cache-replay rung without engine caches).  :meth:`select` returns the highest rung whose
    breaker admits traffic; when every breaker is open the bottom rung
    answers anyway — the ladder never refuses outright, it only narrows
    what it can promise.
    """

    def __init__(
        self,
        rungs: Sequence[str],
        failure_threshold: int = 3,
        backoff_base: float = 0.5,
        backoff_cap: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        rungs = tuple(rungs)
        if not rungs:
            raise ValueError("the ladder needs at least one rung")
        for rung in rungs:
            if rung not in ALL_RUNGS:
                raise ValueError(f"unknown rung {rung!r} (expected one of {ALL_RUNGS})")
        self.rungs: List[str] = list(rungs)
        self._breakers: Dict[str, CircuitBreaker] = {
            rung: CircuitBreaker(failure_threshold, backoff_base, backoff_cap, clock)
            for rung in rungs
        }
        self.selections: Dict[str, int] = {rung: 0 for rung in rungs}

    def breaker(self, rung: str) -> CircuitBreaker:
        """The breaker guarding ``rung``."""
        return self._breakers[rung]

    def select(self, start_after: Optional[str] = None) -> str:
        """The rung the next batch should run on.

        ``start_after`` (a rung name) restricts the choice to rungs strictly
        below it — the in-batch descent path after a rung failure.  Returns
        the bottom rung when nothing healthier admits traffic.
        """
        candidates = self.rungs
        if start_after is not None:
            candidates = candidates[candidates.index(start_after) + 1 :]
            if not candidates:
                candidates = self.rungs[-1:]
        for rung in candidates[:-1]:
            if self._breakers[rung].allow():
                self.selections[rung] += 1
                return rung
        bottom = candidates[-1]
        # The bottom candidate answers regardless; still consume its allow()
        # so a half-open probe there is tracked like any other.
        self._breakers[bottom].allow()
        self.selections[bottom] += 1
        return bottom

    def record(self, rung: str, ok: bool) -> None:
        """Record a batch outcome on ``rung``."""
        breaker = self._breakers[rung]
        if ok:
            breaker.record_success()
        else:
            breaker.record_failure()

    def snapshot(self) -> Dict[str, object]:
        """Per-rung breaker state plus selection counts."""
        return {
            "rungs": list(self.rungs),
            "selections": dict(self.selections),
            "breakers": {rung: self._breakers[rung].snapshot() for rung in self.rungs},
        }
