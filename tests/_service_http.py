"""Tiny asyncio HTTP client helpers shared by the service test suites.

No third-party HTTP stack exists in the test environment (by design — the
server itself is raw asyncio streams), so the tests speak the same minimal
HTTP/1.1 dialect back at it.  Every helper opens a fresh connection unless
handed an existing reader/writer pair, so keep-alive behaviour is exercised
explicitly where a test cares about it.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Dict, Optional, Tuple


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


async def send_content_length(
    host: str, port: int, content_length: str
) -> Tuple[int, bytes, Dict[str, Any]]:
    """POST ``/query`` headers declaring ``Content-Length: content_length``
    and send no body; returns ``(status, response head, json_payload)``
    after checking that the server then closed the connection."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(f"POST /query HTTP/1.1\r\nContent-Length: {content_length}\r\n\r\n".encode())
        await writer.drain()
        head = await reader.readuntil(b"\r\n\r\n")
        length = 0
        for line in head.split(b"\r\n"):
            if line.lower().startswith(b"content-length"):
                length = int(line.split(b":")[1])
        payload = json.loads(await reader.readexactly(length))
        assert await asyncio.wait_for(reader.read(), timeout=5.0) == b""
        return int(head.split(b" ")[1]), head, payload
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except Exception:
            pass


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
        "selections",
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
