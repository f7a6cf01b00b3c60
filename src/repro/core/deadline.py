"""Cooperative per-request deadlines for the ITSPQ search tiers.

A production query service cannot let one oversized or stuck search pin a
process: every admitted request carries a wall-clock budget, and the search
itself must observe it.  :class:`SearchDeadline` is that budget as a value
the Dijkstra loops can poll cheaply — the reference search
(``ITSPQEngine._search``) and the compiled search
(:func:`repro.core.kernel.run_group`, which answers single queries, batch
groups and the cache's recording runs alike) both call
:meth:`SearchDeadline.tick` once per heap pop.

Design constraints, in order:

* **Never partial.**  An expired deadline raises
  :class:`~repro.exceptions.DeadlineExceededError` out of the search; no
  result object is ever built from an interrupted run.  The engines and
  executors keep no cross-query mutable state that an abort could poison
  (both searches allocate their state per run), so the next query on the
  same engine is unaffected.
* **Cheap when armed, free when absent.**  The hot loops guard the call
  with ``if deadline is not None``; an armed deadline costs one integer
  decrement per pop and reads the clock only every ``check_interval`` pops
  (default 64), keeping the clock syscall off the critical path.
* **Deterministic results.**  Polling mutates nothing the search reads: a
  deadline that does not fire leaves every label, counter and tie-break
  exactly as an un-deadlined run — the parity suites run both ways.

One deadline instance describes one request (or one shared batch run) and is
not reusable across requests; :meth:`SearchDeadline.after` is the one-line
constructor services use per admitted query.
"""

from __future__ import annotations

import time
from typing import Callable

from repro.exceptions import DeadlineExceededError

#: Heap pops between clock reads (a power of two, but nothing relies on it).
DEFAULT_CHECK_INTERVAL = 64


class SearchDeadline:
    """A cooperative wall-clock budget polled from inside search loops.

    Parameters
    ----------
    budget_seconds:
        The wall-clock budget; must be positive and finite.
    check_interval:
        How many :meth:`tick` calls (heap pops) elapse between clock reads;
        must be positive.  Lower values bound overshoot more tightly at the
        price of more clock syscalls.
    clock:
        The monotonic clock to read (injectable for tests).
    """

    __slots__ = ("budget_seconds", "check_interval", "expires_at", "_clock", "_countdown")

    def __init__(
        self,
        budget_seconds: float,
        check_interval: int = DEFAULT_CHECK_INTERVAL,
        clock: Callable[[], float] = time.monotonic,
    ):
        budget = float(budget_seconds)
        if not budget > 0 or budget != budget or budget == float("inf"):
            raise ValueError(f"budget_seconds must be positive and finite, got {budget_seconds!r}")
        if int(check_interval) < 1:
            raise ValueError(f"check_interval must be positive, got {check_interval!r}")
        self.budget_seconds = budget
        self.check_interval = int(check_interval)
        self._clock = clock
        self.expires_at = clock() + budget
        self._countdown = self.check_interval

    @classmethod
    def after(
        cls,
        budget_seconds: float,
        check_interval: int = DEFAULT_CHECK_INTERVAL,
        clock: Callable[[], float] = time.monotonic,
    ) -> "SearchDeadline":
        """A deadline ``budget_seconds`` from now (the service's per-request
        constructor; identical to calling the class, provided for read-site
        clarity)."""
        return cls(budget_seconds, check_interval=check_interval, clock=clock)

    def remaining(self) -> float:
        """Seconds left before expiry (negative once expired)."""
        return self.expires_at - self._clock()

    @property
    def expired(self) -> bool:
        """Whether the budget is exhausted (reads the clock immediately)."""
        return self._clock() >= self.expires_at

    def tick(self) -> None:
        """One search step: reads the clock every ``check_interval`` calls
        and raises :class:`~repro.exceptions.DeadlineExceededError` once the
        budget is gone.  This is the call sites' per-heap-pop hook."""
        countdown = self._countdown - 1
        if countdown > 0:
            self._countdown = countdown
            return
        self._countdown = self.check_interval
        if self._clock() >= self.expires_at:
            raise DeadlineExceededError(
                f"search deadline of {self.budget_seconds:.3f}s exceeded"
            )

    def check_now(self) -> None:
        """Raise immediately when expired, regardless of the tick interval
        (used at tier boundaries: before dispatch, before cache recording)."""
        if self._clock() >= self.expires_at:
            raise DeadlineExceededError(
                f"search deadline of {self.budget_seconds:.3f}s exceeded"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SearchDeadline(budget={self.budget_seconds:.3f}s, "
            f"remaining={self.remaining():.3f}s)"
        )
