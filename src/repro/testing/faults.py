"""Deterministic fault tooling for the serving layer's chaos suites.

The service and the shard router have failure surfaces that random chaos
cannot anchor an assertion on: clients that stall mid-request, offered load
past the admission budget, and shard processes dying under load.  The
helpers here make each of them deterministic and replayable:

* :func:`drip_feed_request` and :func:`flood_requests` are the slow-client
  and queue-overflow faults;
* :func:`shard_owning`, :func:`sigkill_shard` and :func:`await_router_ready`
  kill a router shard and wait for its supervised respawn.
"""

from __future__ import annotations

import os
import signal
import time
from typing import Optional, Tuple


async def drip_feed_request(
    host: str,
    port: int,
    body: bytes = b"{}",
    first_bytes: int = 4,
    hold_seconds: float = 30.0,
):
    """The slow-client fault: open a connection, send only the first few
    bytes of a request, then stall.  Returns ``(status, payload_bytes)``
    once the server gives up on us (the 408 path) or ``(None, b"")`` if the
    server just closes the socket.  ``hold_seconds`` bounds the stall so a
    misbehaving server cannot hang the test."""
    import asyncio

    request = (
        b"POST /query HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % len(body)
    ) + body
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(request[:first_bytes])
        await writer.drain()
        try:
            head = await asyncio.wait_for(reader.readuntil(b"\r\n\r\n"), timeout=hold_seconds)
        except (asyncio.TimeoutError, asyncio.IncompleteReadError, ConnectionError):
            return None, b""
        status = int(head.split(b" ")[1])
        length = 0
        for line in head.split(b"\r\n"):
            if line.lower().startswith(b"content-length"):
                length = int(line.split(b":")[1])
        payload = await reader.readexactly(length) if length else b""
        return status, payload
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except Exception:
            pass


def shard_owning(shards_snapshot: dict, venue: str) -> Tuple[str, dict]:
    """The ``(shard_name, shard_entry)`` owning ``venue`` inside a router's
    ``/readyz`` or ``/metrics`` ``shards`` section.  Raises ``KeyError``
    when no shard owns the venue — a chaos test aiming at a venue that is
    not actually deployed should fail loudly, not kill a random shard."""
    for name, entry in shards_snapshot.items():
        if venue in entry.get("venues", ()):
            return name, entry
    raise KeyError(f"no shard owns venue {venue!r} (shards: {sorted(shards_snapshot)})")


def sigkill_shard(shard_entry: dict) -> int:
    """SIGKILL the worker process behind one router shard entry (as found
    by :func:`shard_owning`) and return its pid: no cleanup, no goodbye,
    the supervisor must notice the death and respawn."""
    pid = shard_entry.get("pid")
    if not isinstance(pid, int):
        raise ValueError(f"shard entry carries no pid: {shard_entry!r}")
    os.kill(pid, signal.SIGKILL)
    return pid


async def await_router_ready(
    host: str, port: int, timeout: float = 30.0, interval: float = 0.1
) -> dict:
    """Poll a router's ``/readyz`` until it answers 200 (every shard up) and
    return the final readiness payload — the recovery barrier after
    :func:`sigkill_shard`.  Raises ``TimeoutError`` if readiness never
    returns within ``timeout`` (a respawn that never lands is a supervisor
    bug, not a reason to wait forever)."""
    import asyncio
    import json

    deadline = time.monotonic() + timeout
    last: dict = {}
    while time.monotonic() < deadline:
        try:
            reader, writer = await asyncio.open_connection(host, port)
        except (ConnectionError, OSError):
            await asyncio.sleep(interval)
            continue
        try:
            writer.write(b"GET /readyz HTTP/1.1\r\nContent-Length: 0\r\n\r\n")
            await writer.drain()
            head = await reader.readuntil(b"\r\n\r\n")
            status = int(head.split(b" ")[1])
            length = 0
            for line in head.split(b"\r\n"):
                if line.lower().startswith(b"content-length"):
                    length = int(line.split(b":")[1])
            payload = await reader.readexactly(length) if length else b"{}"
            last = json.loads(payload)
            if status == 200:
                return last
        except (ConnectionError, asyncio.IncompleteReadError, ValueError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except Exception:
                pass
        await asyncio.sleep(interval)
    raise TimeoutError(f"router at {host}:{port} not ready within {timeout}s; last: {last}")


async def flood_requests(host: str, port: int, bodies, concurrency: Optional[int] = None):
    """The queue-overflow fault: fire every request in ``bodies`` at once
    (or ``concurrency`` at a time) and return the list of ``(status,
    payload_dict)`` outcomes in input order.  The chaos suite asserts the
    outcome *set* — every request either answered 200 (bit-identically) or
    was shed with a typed 429 — rather than any particular split."""
    import asyncio
    import json

    semaphore = asyncio.Semaphore(concurrency) if concurrency else None

    async def one(body: dict):
        if semaphore is not None:
            await semaphore.acquire()
        try:
            payload = json.dumps(body).encode()
            reader, writer = await asyncio.open_connection(host, port)
            try:
                writer.write(
                    (b"POST /query HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % len(payload))
                    + payload
                )
                await writer.drain()
                head = await reader.readuntil(b"\r\n\r\n")
                status = int(head.split(b" ")[1])
                length = 0
                for line in head.split(b"\r\n"):
                    if line.lower().startswith(b"content-length"):
                        length = int(line.split(b":")[1])
                raw = await reader.readexactly(length) if length else b"{}"
                return status, json.loads(raw)
            finally:
                writer.close()
                try:
                    await writer.wait_closed()
                except Exception:
                    pass
        finally:
            if semaphore is not None:
                semaphore.release()

    return await asyncio.gather(*(one(body) for body in bodies))
