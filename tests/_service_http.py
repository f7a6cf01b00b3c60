"""Tiny asyncio HTTP client helpers shared by the service test suites.

No third-party HTTP stack exists in the test environment (by design — the
server itself is raw asyncio streams), so the tests speak the same minimal
HTTP/1.1 dialect back at it.  Every helper opens a fresh connection unless
handed an existing reader/writer pair, so keep-alive behaviour is exercised
explicitly where a test cares about it.  :func:`wrap_run_batch` is the one
engine-side helper: it makes a service's batches slow or failing.
"""

from __future__ import annotations

import asyncio
import json
import time
from typing import Any, Callable, Dict, Optional, Tuple


async def raw_request(
    host: str,
    port: int,
    method: str,
    path: str,
    body: bytes = b"",
    reader: Optional[asyncio.StreamReader] = None,
    writer: Optional[asyncio.StreamWriter] = None,
) -> Tuple[int, Dict[str, Any]]:
    """One request/response exchange; returns ``(status, json_payload)``.

    With ``reader``/``writer`` supplied the exchange reuses that connection
    (keep-alive) and leaves it open; otherwise a fresh connection is opened
    and closed around the exchange.
    """
    own_connection = writer is None
    if own_connection:
        reader, writer = await asyncio.open_connection(host, port)
    try:
        head = f"{method} {path} HTTP/1.1\r\nContent-Length: {len(body)}\r\n\r\n"
        writer.write(head.encode("latin-1") + body)
        await writer.drain()
        status_head = await reader.readuntil(b"\r\n\r\n")
        status = int(status_head.split(b" ")[1])
        length = 0
        for line in status_head.split(b"\r\n"):
            if line.lower().startswith(b"content-length"):
                length = int(line.split(b":")[1])
        payload = json.loads(await reader.readexactly(length)) if length else {}
        return status, payload
    finally:
        if own_connection:
            writer.close()
            try:
                await writer.wait_closed()
            except Exception:
                pass


async def send_expecting_close(host: str, port: int, data: bytes) -> Tuple[int, bytes, Dict[str, Any]]:
    """Write ``data`` as is and read one response; returns ``(status,
    response head, json_payload)`` after checking that the server then
    closed the connection without writing anything more."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        # No drain: the server may answer before it has read all of ``data``.
        writer.write(data)
        head = await reader.readuntil(b"\r\n\r\n")
        length = 0
        for line in head.split(b"\r\n"):
            if line.lower().startswith(b"content-length"):
                length = int(line.split(b":")[1])
        payload = json.loads(await reader.readexactly(length))
        try:
            rest = await asyncio.wait_for(reader.read(), timeout=5.0)
        except ConnectionResetError:
            rest = b""  # closed with some of ``data`` unread: a reset, not a FIN
        assert rest == b"", rest[:200]
        return int(head.split(b" ")[1]), head, payload
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except Exception:
            pass


async def send_content_length(
    host: str, port: int, content_length: str
) -> Tuple[int, bytes, Dict[str, Any]]:
    """POST ``/query`` headers declaring ``Content-Length: content_length``
    and send no body (see :func:`send_expecting_close`)."""
    return await send_expecting_close(
        host, port, f"POST /query HTTP/1.1\r\nContent-Length: {content_length}\r\n\r\n".encode()
    )


#: A POST whose header block (200 KB) overruns the readers' 64 KiB limit.
OVERSIZED_HEADER_REQUEST = (
    b"POST /query HTTP/1.1\r\nX-Padding: " + b"a" * 200_000 + b"\r\nContent-Length: 2\r\n\r\n{}"
)


def chunked_then_valid_request(valid_body: bytes) -> bytes:
    """A chunked POST with a valid ``Content-Length`` request pipelined
    behind it on the same connection."""
    return (
        b"POST /query HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
        + b"%x\r\n%s\r\n0\r\n\r\n" % (len(valid_body), valid_body)
        + b"POST /query HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s" % (len(valid_body), valid_body)
    )


async def post_query(host: str, port: int, document: Dict[str, Any]) -> Tuple[int, Dict[str, Any]]:
    """POST ``document`` to ``/query`` on a fresh connection."""
    return await raw_request(host, port, "POST", "/query", json.dumps(document).encode())


async def get(host: str, port: int, path: str) -> Tuple[int, Dict[str, Any]]:
    """GET ``path`` on a fresh connection."""
    return await raw_request(host, port, "GET", path)


def query_body(
    source,
    target,
    time: str = "9:00",
    method: Optional[str] = None,
    deadline_ms: Optional[float] = None,
    venue: Optional[str] = None,
) -> Dict[str, Any]:
    """The ``/query`` body for a pair of :class:`IndoorPoint` endpoints."""
    body: Dict[str, Any] = {
        "source": [source.x, source.y, source.floor],
        "target": [target.x, target.y, target.floor],
        "time": time,
    }
    if method is not None:
        body["method"] = method
    if deadline_ms is not None:
        body["deadline_ms"] = deadline_ms
    if venue is not None:
        body["venue"] = venue
    return body


#: ``/metrics`` keys whose *children* are data (venue names, rung names,
#: shard names, status codes), not schema: recursion continues into the
#: values but the child keys themselves are not schema fields.
DYNAMIC_KEY_CONTAINERS = frozenset(
    {
        "venues",
        "answered_by_rung",
        "breakers",
        "shards",
        "routed_by_shard",
        "responses_by_status",
    }
)


def collect_metric_fields(payload: Any, _under_dynamic: bool = False) -> set:
    """Every schema field name a ``/metrics`` (or ``/readyz``) payload
    emits, walking nested dicts but skipping dynamic-key levels (see
    :data:`DYNAMIC_KEY_CONTAINERS`) — the set the operator handbook must
    document, computed from a live scrape so doc and code cannot drift."""
    fields = set()
    if isinstance(payload, dict):
        for key, value in payload.items():
            if not _under_dynamic:
                fields.add(key)
            fields |= collect_metric_fields(value, _under_dynamic=key in DYNAMIC_KEY_CONTAINERS)
    elif isinstance(payload, (list, tuple)):
        for item in payload:
            fields |= collect_metric_fields(item, _under_dynamic=False)
    return fields


def assert_fields_documented(payload: Any, doc_text: str, context: str) -> None:
    """Every schema field of ``payload`` must appear backticked in the
    operator handbook — the live-scrape-vs-docs diff of the acceptance
    criteria."""
    missing = sorted(
        field for field in collect_metric_fields(payload) if f"`{field}`" not in doc_text
    )
    assert not missing, (
        f"{context}: fields emitted by the live service but undocumented in "
        f"docs/OPERATIONS.md: {missing}"
    )


def assert_matches_oracle(payload: Dict[str, Any], oracle) -> None:
    """The service answer must be bit-identical to an in-process engine run:
    same reachability, same length, same door sequence, same deterministic
    counters (the ones the payload carries)."""
    assert payload["found"] == oracle.found
    if oracle.found:
        assert payload["length"] == oracle.length
    else:
        assert payload["length"] is None
    expected_doors = list(oracle.path.door_sequence) if oracle.path is not None else []
    assert payload["doors"] == expected_doors
    stats = payload["statistics"]
    assert stats["doors_settled"] == oracle.statistics.doors_settled
    assert stats["relaxations"] == oracle.statistics.relaxations
    assert stats["heap_pushes"] == oracle.statistics.heap_pushes
    assert stats["heap_pops"] == oracle.statistics.heap_pops


def wrap_run_batch(engine, before: Callable[[], None]):
    """Make ``engine.run_batch`` call ``before()`` first, through an
    instance attribute that wraps the real method; returns ``engine``.

    ``before`` may sleep (holding the venue's batch slot on its worker
    thread) or raise (a failing shared search)."""
    run_batch = engine.run_batch

    def wrapped(*args, **kwargs):
        before()
        return run_batch(*args, **kwargs)

    engine.run_batch = wrapped
    return engine


def slow_run_batch(engine, seconds: float):
    """``engine`` whose every ``run_batch`` sleeps ``seconds`` first."""
    return wrap_run_batch(engine, lambda: time.sleep(seconds))
