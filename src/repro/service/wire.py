"""The HTTP/1.1 front-end shared by the service and the shard router.

Both front-ends speak the same minimal dialect over raw asyncio streams: a
request line, headers (only ``Content-Length`` is honoured) and a body, with
keep-alive connections carrying any number of requests.  A request the
reader cannot frame safely is refused with a :class:`FramingError` before
any of its body is read.

:class:`FrontEnd` owns that dialect once: the listening socket, the
connection loop (reading through one :class:`KeepAliveConnections`, which
lets the drain hang up the connections that sit idle between requests
instead of waiting out their timeout), the response writer, the reason
table, the four routes with their 404/405s, and the drain's wait for
in-flight handlers.  Its subclasses —
:class:`~repro.service.server.ITSPQService` and
:class:`~repro.service.shard.ShardRouter` — implement only its abstract
hooks: what ``POST /query``, ``/healthz``, ``/readyz`` and ``/metrics``
answer, how to count a request the reader refused, and what a drain does
besides.  :func:`query_venue` resolves the venue of a query body for both.
"""

from __future__ import annotations

import abc
import asyncio
import json
import time
from typing import Any, Collection, Dict, Optional, Set, Tuple

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    411: "Length Required",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    502: "Bad Gateway",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class FramingError(ValueError):
    """A request refused before its body is read.  The caller answers
    :attr:`status` and closes the connection: the unread bytes cannot be
    told apart from a next request."""

    status = 400


class ContentLengthError(FramingError):
    """A request's ``Content-Length`` is not an integer, is negative, or is
    above the body limit (``400``)."""


class HeaderTooLargeError(FramingError):
    """The request line and headers overrun the stream reader's limit
    (64 KiB by default) before their blank line (``431``)."""

    status = 431


class TransferEncodingError(FramingError):
    """The request sends a ``Transfer-Encoding`` body; only
    ``Content-Length`` bodies are understood (``411``)."""

    status = 411


class KeepAliveConnections:
    """The client connections of one front-end.

    A connection waiting for the first byte of its next request is *idle*.
    :meth:`close_idle` (the drain) hangs up every idle connection without a
    reply, so the client reads EOF; a request whose first byte has been
    read is still read to its end and answered, and its connection closes
    after that answer.  A request that reaches an idle connection in the
    loop iteration that hangs it up is lost with it: the keep-alive race
    every HTTP/1.1 client already handles for a server closing an idle
    connection.
    """

    def __init__(self) -> None:
        self._idle: Set[asyncio.StreamWriter] = set()
        self._closing = False

    async def read_request(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        max_body_bytes: int,
        timeout: float,
    ) -> Optional[Tuple[str, str, bytes]]:
        """Read one request as ``(method, path, body)``.

        Returns ``None`` when the client closed the connection, left it
        idle for ``timeout`` seconds between requests, or the front-end is
        draining: no request is waiting for an answer then, so the caller
        closes the connection without writing anything.  Raises
        :class:`asyncio.TimeoutError` when a request started arriving but
        was not complete ``timeout`` seconds after its first byte (the
        caller's 408), a :class:`FramingError` for a request it refuses
        (the caller answers its ``status``), and :class:`ConnectionError`
        or :class:`asyncio.IncompleteReadError` on a disconnect mid-request
        or a malformed request line.
        """
        if self._closing:
            return None
        self._idle.add(writer)
        try:
            first = await asyncio.wait_for(reader.read(1), timeout)
        except asyncio.TimeoutError:
            return None
        finally:
            self._idle.discard(writer)
        if not first:
            return None
        return await asyncio.wait_for(_read_started(reader, first, max_body_bytes), timeout)

    def close_idle(self) -> None:
        """Start the drain: hang up every idle connection, and read no
        further request on any connection."""
        self._closing = True
        for writer in self._idle:
            writer.close()


async def _read_started(
    reader: asyncio.StreamReader, first: bytes, max_body_bytes: int
) -> Tuple[str, str, bytes]:
    try:
        head = first + await reader.readuntil(b"\r\n\r\n")
    except asyncio.LimitOverrunError:
        raise HeaderTooLargeError("request header block exceeds the reader limit") from None
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) < 3:
        raise ConnectionError("malformed request line")
    http_method, path = parts[0].upper(), parts[1]
    length = 0
    for line in lines[1:]:
        if ":" in line:
            name, _, value = line.partition(":")
            name = name.strip().lower()
            if name == "transfer-encoding":
                raise TransferEncodingError("Transfer-Encoding is not accepted; send Content-Length")
            if name == "content-length":
                try:
                    length = int(value.strip())
                except ValueError:
                    raise ContentLengthError("Content-Length is not an integer") from None
    if length < 0 or length > max_body_bytes:
        raise ContentLengthError(f"Content-Length {length} is outside 0..{max_body_bytes}")
    body = await reader.readexactly(length) if length else b""
    return http_method, path, body


def check_front_end_config(config: Any) -> None:
    """Validate the fields every front-end config has
    (``client_timeout_seconds``, ``drain_timeout_seconds``,
    ``max_body_bytes``); each violation names its field."""
    if not config.client_timeout_seconds > 0:
        raise ValueError(
            f"client_timeout_seconds must be positive, got {config.client_timeout_seconds}"
        )
    if config.drain_timeout_seconds < 0:
        raise ValueError(
            f"drain_timeout_seconds must be non-negative, got {config.drain_timeout_seconds}"
        )
    if config.max_body_bytes < 1:
        raise ValueError(f"max_body_bytes must be positive, got {config.max_body_bytes}")


def json_body(payload: Dict[str, Any]) -> bytes:
    """A JSON response body."""
    return json.dumps(payload).encode("utf-8")


def error_response(status: int, message: str, error_type: str, **extra: Any) -> Tuple[int, bytes]:
    """A typed error answer: ``status`` with ``{"error", "type", **extra}``."""
    return status, json_body({"error": message, "type": error_type, **extra})


def query_venue(body: bytes, venues: Collection[str], scope: str) -> Tuple[str, Dict[str, Any]]:
    """The venue a ``POST /query`` body asks for, and the parsed body.

    ``venues`` are the names served; a body without ``"venue"`` goes to the
    only one, and is refused when there are several (``scope`` names the
    server in that message).  Raises ``ValueError`` (a non-UTF-8 or
    non-JSON body, a non-object body, an unknown or missing venue) or
    ``RecursionError`` (nesting past the parser's limit).
    """
    document = json.loads(body.decode("utf-8"))
    if not isinstance(document, dict):
        raise ValueError("the query body must be a JSON object")
    if "venue" in document:
        venue = str(document["venue"])
        if venue not in venues:
            raise ValueError(f"unknown venue {venue!r} (have {sorted(venues)})")
        return venue, document
    if len(venues) == 1:
        return next(iter(venues)), document
    raise ValueError(f"multi-venue {scope}: pick a venue from {sorted(venues)}")


class FrontEnd(abc.ABC):
    """The socket, connection loop, responses and routes of one front-end.

    ``config`` carries ``host``, ``port`` and the fields
    :func:`check_front_end_config` validates.  A subclass binds the socket
    with :meth:`_listen` at the end of its :meth:`start` and implements the
    abstract hooks below.
    """

    def __init__(self, config: Any) -> None:
        self._config = config
        self._connections = KeepAliveConnections()
        self._server: Optional[asyncio.base_events.Server] = None
        self._started = False
        self._draining = False
        self._closed = False
        self._active_handlers = 0
        self.host: str = config.host
        self.port: int = config.port

    @property
    def draining(self) -> bool:
        return self._draining

    # -- lifecycle -------------------------------------------------------------

    @abc.abstractmethod
    async def start(self) -> None:
        """Prepare whatever the routes answer from, then :meth:`_listen`;
        idempotent."""

    async def _listen(self) -> None:
        """Bind the socket; the front-end counts as started from here on."""
        self._server = await asyncio.start_server(
            self._handle_client, self._config.host, self._config.port
        )
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        self._started = True

    async def serve_forever(self) -> None:
        """Serve until cancelled (``python -m repro.service`` awaits this)."""
        if self._server is None:
            await self.start()
        await self._server.serve_forever()

    async def aclose(self) -> None:
        """Drain, then close: stop admitting, hang up idle keep-alive
        connections, :meth:`_drain`, close the socket.  Idempotent."""
        if self._closed:
            return
        self._draining = True
        self._connections.close_idle()
        await self._drain()
        if self._server is not None:
            self._server.close()
            try:
                await self._server.wait_closed()
            except Exception:
                pass
            self._server = None
        self._closed = True

    @abc.abstractmethod
    async def _drain(self) -> None:
        """The drain between hanging up the idle connections and closing
        the socket (both front-ends call :meth:`_wait_for_handlers`)."""

    async def _wait_for_handlers(self) -> None:
        """Wait up to ``drain_timeout_seconds`` for in-flight handlers."""
        deadline = time.monotonic() + self._config.drain_timeout_seconds
        while self._active_handlers > 0 and time.monotonic() < deadline:
            await asyncio.sleep(0.01)

    # -- the connection loop ---------------------------------------------------

    async def _handle_client(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self._active_handlers += 1
        try:
            while True:
                try:
                    request = await self._connections.read_request(
                        reader,
                        writer,
                        self._config.max_body_bytes,
                        self._config.client_timeout_seconds,
                    )
                except asyncio.TimeoutError:
                    self._refused(408)
                    status, body = error_response(408, "request not received in time", "ClientTimeout")
                    await self._respond(writer, status, body, keep_alive=False)
                    return
                except FramingError as exc:
                    self._refused(exc.status)
                    status, body = error_response(exc.status, str(exc), type(exc).__name__)
                    await self._respond(writer, status, body, keep_alive=False)
                    return
                except (asyncio.IncompleteReadError, ConnectionError):
                    return  # disconnect or garbage framing: nothing to answer
                if request is None:
                    return  # EOF, idle between requests, or draining: no reply
                await self._route(writer, *request)
        finally:
            self._active_handlers -= 1
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    @staticmethod
    async def _respond(
        writer: asyncio.StreamWriter, status: int, body: bytes, keep_alive: bool = True
    ) -> None:
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            f"\r\n"
        ).encode("latin-1")
        try:
            writer.write(head + body)
            await writer.drain()
        except (ConnectionError, RuntimeError):
            pass  # the client went away; the request was still counted

    async def _route(self, writer: asyncio.StreamWriter, http_method: str, path: str, body: bytes) -> None:
        path = path.split("?", 1)[0]
        if path == "/query":
            if http_method == "POST":
                status, response = await self._query(body)
            else:
                status, response = error_response(405, "POST only", "MethodNotAllowed")
        elif http_method != "GET":
            status, response = error_response(405, "GET only", "MethodNotAllowed")
        elif path == "/healthz":
            status = 200
            response = json_body({"status": "alive", "draining": self._draining, **self._health()})
        elif path == "/readyz":
            ready, detail = self._readiness(self._started and not self._draining)
            status = 200 if ready else 503
            response = json_body(
                {"status": "ready" if ready else "not-ready", "draining": self._draining, **detail}
            )
        elif path == "/metrics":
            status, response = 200, json_body(await self._metrics_payload())
        else:
            status, response = error_response(404, f"no route {path}", "NotFound")
        await self._respond(writer, status, response)

    # -- what the routes answer ------------------------------------------------

    @abc.abstractmethod
    async def _query(self, body: bytes) -> Tuple[int, bytes]:
        """The status and body of one ``POST /query``, counted."""

    @abc.abstractmethod
    def _health(self) -> Dict[str, Any]:
        """What ``GET /healthz`` adds after ``status`` and ``draining``."""

    @abc.abstractmethod
    def _readiness(self, ready: bool) -> Tuple[bool, Dict[str, Any]]:
        """Whether ``GET /readyz`` answers ready, given ``ready`` (started
        and not draining), and what it adds after ``status`` and
        ``draining``."""

    @abc.abstractmethod
    async def _metrics_payload(self) -> Dict[str, Any]:
        """The ``GET /metrics`` document."""

    @abc.abstractmethod
    def _refused(self, status: int) -> None:
        """Count one request the reader refused: ``408`` for a slow client,
        else a :class:`FramingError`'s status."""
