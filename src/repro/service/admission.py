"""Admission control: bounded pending work.

Every request entering the service holds one *pending* slot from arrival
until its response is written.  The budget is a plain counter (all mutation
happens on the event-loop thread), and a full budget sheds the request
immediately with :class:`~repro.exceptions.ServiceOverloadedError` — the
typed 429.  Shedding at the door is the whole point: a request the service
cannot serve within its deadline is cheapest to refuse before any search
runs.  Admitted requests wait in their venue's queue, which runs one
micro-batch at a time, so the pending budget also bounds every queue; their
deadlines keep ticking while they wait, which is exactly the behaviour an
overloaded service should exhibit (latency first, then 504s, then 429s).
"""

from __future__ import annotations

from typing import Dict

from repro.exceptions import ServiceOverloadedError


class AdmissionController:
    """Bounded admission: ``max_pending`` requests in the building at once.

    Single event-loop use only (counters are not thread-safe by design —
    the server mutates them exclusively from loop callbacks).
    """

    def __init__(self, max_pending: int):
        if max_pending < 1:
            raise ValueError(f"max_pending must be positive, got {max_pending}")
        self.max_pending = int(max_pending)
        self._pending = 0
        self.admitted = 0
        self.shed = 0

    def admit(self) -> None:
        """Take one pending slot or shed the request (the typed 429)."""
        if self._pending >= self.max_pending:
            self.shed += 1
            raise ServiceOverloadedError(
                f"request queue full ({self._pending}/{self.max_pending} pending)"
            )
        self._pending += 1
        self.admitted += 1

    def release(self) -> None:
        """Return a pending slot (exactly once per successful :meth:`admit`)."""
        if self._pending > 0:
            self._pending -= 1

    @property
    def pending(self) -> int:
        """Requests currently holding a pending slot."""
        return self._pending

    def snapshot(self) -> Dict[str, int]:
        """Counter snapshot for ``/metrics`` and ``/readyz``."""
        return {
            "pending": self._pending,
            "max_pending": self.max_pending,
            "admitted": self.admitted,
            "shed": self.shed,
        }
