"""The HTTP/1.1 request reader shared by the service and the shard router.

Both front-ends speak the same minimal dialect over raw asyncio streams: a
request line, headers (only ``Content-Length`` is honoured) and a body, with
keep-alive connections carrying any number of requests.  A request the
reader cannot frame safely is refused with a :class:`FramingError` before
any of its body is read.
"""

from __future__ import annotations

import asyncio
from typing import Optional, Tuple


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


async def read_request(
    reader: asyncio.StreamReader, max_body_bytes: int, timeout: float
) -> Optional[Tuple[str, str, bytes]]:
    """Read one request as ``(method, path, body)``.

    Returns ``None`` when the client closed the connection, or left it idle
    for ``timeout`` seconds between requests: no request is waiting for an
    answer then, so the caller closes the connection without writing
    anything.  Raises :class:`asyncio.TimeoutError` when a request started
    arriving but was not complete ``timeout`` seconds after its first byte
    (the caller's 408), a :class:`FramingError` for a request it refuses
    (the caller answers its ``status``), and :class:`ConnectionError` or
    :class:`asyncio.IncompleteReadError` on a disconnect mid-request or a
    malformed request line.
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
