"""The HTTP/1.1 request reader shared by the service and the shard router.

Both front-ends speak the same minimal dialect over raw asyncio streams: a
request line, headers (only ``Content-Length`` is honoured) and a body, with
keep-alive connections carrying any number of requests.
"""

from __future__ import annotations

import asyncio
from typing import Optional, Tuple


async def read_request(
    reader: asyncio.StreamReader, max_body_bytes: int, timeout: float
) -> Optional[Tuple[str, str, bytes]]:
    """Read one request as ``(method, path, body)``.

    Returns ``None`` when the client closed the connection, or left it idle
    for ``timeout`` seconds between requests: no request is waiting for an
    answer then, so the caller closes the connection without writing
    anything.  Raises :class:`asyncio.TimeoutError` when a request started
    arriving but was not complete ``timeout`` seconds after its first byte
    (the caller's 408), and :class:`ConnectionError`,
    :class:`asyncio.IncompleteReadError` or :class:`asyncio.LimitOverrunError`
    on a disconnect mid-request or garbage framing.
    """
    try:
        first = await asyncio.wait_for(reader.read(1), timeout)
    except asyncio.TimeoutError:
        return None
    if not first:
        return None
    return await asyncio.wait_for(_read_started(reader, first, max_body_bytes), timeout)


async def _read_started(
    reader: asyncio.StreamReader, first: bytes, max_body_bytes: int
) -> Tuple[str, str, bytes]:
    head = first + await reader.readuntil(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) < 3:
        raise ConnectionError("malformed request line")
    http_method, path = parts[0].upper(), parts[1]
    length = 0
    for line in lines[1:]:
        if ":" in line:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                try:
                    length = int(value.strip())
                except ValueError as exc:
                    raise ConnectionError("malformed content-length") from exc
    if length < 0 or length > max_body_bytes:
        raise ConnectionError("unacceptable content-length")
    body = await reader.readexactly(length) if length else b""
    return http_method, path, body
