"""Exception hierarchy for the ITSPQ reproduction library.

All library-specific errors derive from :class:`ReproError` so that callers
can catch everything raised by this package with a single ``except`` clause
while still being able to distinguish the individual failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class InvalidTimeError(ReproError, ValueError):
    """A time of day or time interval was malformed (e.g. outside a day)."""


class InvalidGeometryError(ReproError, ValueError):
    """A geometric primitive was constructed with inconsistent data."""


class TopologyError(ReproError):
    """The indoor space topology is inconsistent (unknown door/partition,
    dangling references, duplicate identifiers, ...)."""


class UnknownEntityError(TopologyError, KeyError):
    """A door or partition identifier was looked up but does not exist."""


class DuplicateEntityError(TopologyError, ValueError):
    """A door or partition identifier was registered twice."""


class QueryError(ReproError):
    """An ITSPQ query was malformed (e.g. points outside the indoor space)."""


class NoPathExistsError(QueryError):
    """Raised by APIs that must return a path when no valid route exists.

    The main query engine returns an empty :class:`~repro.core.query.QueryResult`
    instead of raising; this exception is used by convenience wrappers that
    promise a path.
    """


class SerializationError(ReproError, ValueError):
    """A document could not be parsed into library objects."""


class CorruptPayloadError(SerializationError):
    """A binary payload failed an integrity checksum.

    Raised by :mod:`repro.io.compiled_codec` when a section CRC or the
    whole-payload CRC does not match — bit-flips, partial overwrites and
    framing corruption, as opposed to mere truncation (which stays a plain
    :class:`SerializationError`).  Catching :class:`SerializationError`
    catches both.
    """


class DeadlineExceededError(ReproError, TimeoutError):
    """A search exhausted its cooperative :class:`~repro.core.deadline.SearchDeadline`.

    Raised from inside the Dijkstra loops of the reference, compiled, batch
    and cache-recording tiers when the per-request time budget runs out.
    The search never returns a partial result: the exception is the *only*
    outcome of an expired deadline, and the engine/executor remains fully
    usable for the next query.  Also a :class:`TimeoutError`, so generic
    timeout handling catches it.
    """


class ServiceError(ReproError):
    """Base class for errors raised by the :mod:`repro.service` query service."""


class ServiceOverloadedError(ServiceError):
    """The service shed a request because offered load exceeds capacity.

    The admission controller raises this when the bounded pending queue is
    full; the shard router answers with this type when a shard's in-flight
    budget is spent.  Maps to HTTP 429.
    """


class ServiceUnavailableError(ServiceError):
    """The service cannot take the request at all: it is not started yet or
    is draining, or (at the shard router) no shard serving the venue is up.
    Maps to HTTP 503."""
