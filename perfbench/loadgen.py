"""Load generation against ``python -m repro.service``: the server process,
keep-alive HTTP connections, and the open- and closed-loop phases.

All load comes from this one process: one asyncio thread driving at most
``usable_cpus()`` keep-alive connections.
"""

from __future__ import annotations

import asyncio
import json
import os
import select
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

from common import ROOT, WORK_DIR

LISTEN_TIMEOUT = 60.0
DRAIN_TIMEOUT = 60.0


class Server:
    """One ``python -m repro.service`` process (a single service or a shard
    router); ``setup_seconds`` runs from spawn to its ``listening on`` line."""

    def __init__(self, args: Sequence[str], log_name: str):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src")
        self._stderr = open(WORK_DIR / f"{log_name}.stderr", "w")
        started = time.perf_counter()
        # A new session makes the server and its shard workers one process
        # group, so a failed run can still stop all of them.
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.service", *args],
            stdout=subprocess.PIPE,
            stderr=self._stderr,
            text=True,
            env=env,
            cwd=str(ROOT),
            start_new_session=True,
        )
        deadline = started + LISTEN_TIMEOUT
        line = ""
        while not line.startswith("listening on "):
            remaining = max(0.0, deadline - time.perf_counter())
            ready, _, _ = select.select([self.process.stdout], [], [], remaining)
            line = self.process.stdout.readline() if ready else ""
            if not line:
                self.kill()
                raise RuntimeError(f"server did not start listening (see {self._stderr.name})")
        self.setup_seconds = time.perf_counter() - started
        host, _, port = line.strip().split(" ")[-1].rpartition(":")
        self.host, self.port = host, int(port)

    @property
    def pid(self) -> int:
        return self.process.pid

    def stop(self) -> bool:
        """SIGINT, then wait; ``True`` when the server printed its
        ``drained and closed`` line and exited with status 0."""
        self.process.send_signal(signal.SIGINT)
        try:
            stdout, _ = self.process.communicate(timeout=DRAIN_TIMEOUT)
        except subprocess.TimeoutExpired:
            stdout = ""
        drained = self.process.returncode == 0 and "drained and closed" in stdout
        if not drained:
            self.kill()  # a router that did not drain may leave shard workers
        self._stderr.close()
        return drained

    def kill(self) -> None:
        """Stop the whole process group without draining and reap the server."""
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.process.wait()
        self._stderr.close()


def spawn_timed(args: Sequence[str], log_name: str, repeats: int) -> Tuple[Server, List[float], int]:
    """Spawn the server ``repeats`` times, draining all but the last one.

    Returns the running server, every set-up time and the number of drains
    that failed."""
    setups: List[float] = []
    failed_drains = 0
    for attempt in range(repeats - 1):
        server = Server(args, f"{log_name}-{attempt}")
        setups.append(server.setup_seconds)
        # The CLI installs its SIGINT handler just after printing the
        # listening line; an answered request proves that it is in place.
        try:
            asyncio.run(get_json(server.host, server.port, "/healthz"))
        except BaseException:
            server.kill()
            raise
        failed_drains += 0 if server.stop() else 1
    server = Server(args, log_name)
    setups.append(server.setup_seconds)
    return server, setups, failed_drains


class Connection:
    """A keep-alive HTTP/1.1 client connection (Content-Length framing)."""

    def __init__(self, host: str, port: int):
        self.host, self.port = host, port
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None

    async def request(self, method: str, path: str, body: bytes = b"") -> Tuple[int, bytes]:
        if self.writer is None:
            self.reader, self.writer = await asyncio.open_connection(self.host, self.port)
        try:
            self.writer.write(
                b"%s %s HTTP/1.1\r\nHost: bench\r\nContent-Length: %d\r\n\r\n%s"
                % (method.encode(), path.encode(), len(body), body)
            )
            head = await self.reader.readuntil(b"\r\n\r\n")
            length = 0
            for line in head.split(b"\r\n")[1:]:
                name, _, value = line.partition(b":")
                if name.strip().lower() == b"content-length":
                    length = int(value)
            payload = await self.reader.readexactly(length)
            return int(head.split(b" ", 2)[1]), payload
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            self.writer = self.reader = None


class Outcome:
    """One request: its stream index, status (0 on a transport error), raw
    answer, and ``perf_counter`` times when it was due, sent and answered.
    Latency runs from the due time: the schedule in the open loop, the send
    in the closed loop."""

    __slots__ = ("index", "status", "payload", "due", "sent", "done")

    def __init__(self, index, status, payload, due, sent, done):
        self.index, self.status, self.payload = index, status, payload
        self.due, self.sent, self.done = due, sent, done

    @property
    def latency(self) -> float:
        return self.done - self.due

    @property
    def lag(self) -> float:
        return self.sent - self.due


async def _send(connection: Connection, index: int, body: bytes, due: float) -> Outcome:
    sent = time.perf_counter()
    try:
        status, payload = await connection.request("POST", "/query", body)
    except (OSError, asyncio.IncompleteReadError, asyncio.LimitOverrunError, ValueError):
        status, payload = 0, b""
    return Outcome(index, status, payload, due, sent, time.perf_counter())


async def open_loop(host, port, bodies: Sequence[bytes], rate: float, connections: int) -> List[Outcome]:
    """Send ``bodies`` on a fixed schedule (request ``i`` is due at
    ``i / rate``) over ``connections`` keep-alive connections.  A request
    due while every connection is busy waits, and that wait counts."""
    outcomes: List[Outcome] = []
    next_index = 0
    start = time.perf_counter() + 0.05

    async def worker() -> None:
        nonlocal next_index
        connection = Connection(host, port)
        try:
            while next_index < len(bodies):
                index = next_index
                next_index += 1
                due = start + index / rate
                delay = due - time.perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
                outcomes.append(await _send(connection, index, bodies[index], due))
        finally:
            connection.close()

    await asyncio.gather(*(worker() for _ in range(connections)))
    outcomes.sort(key=lambda outcome: outcome.index)
    return outcomes


async def closed_loop(host, port, bodies: Sequence[bytes], first: int, seconds: float, connections: int):
    """Each connection sends its next request as soon as its reply arrives,
    for ``seconds``; requests continue the stream at index ``first``.
    Returns ``(outcomes, elapsed_seconds)``."""
    outcomes: List[Outcome] = []
    next_index = first
    stop_at = time.perf_counter() + seconds

    async def worker() -> None:
        nonlocal next_index
        connection = Connection(host, port)
        try:
            while time.perf_counter() < stop_at:
                index = next_index
                next_index += 1
                outcomes.append(
                    await _send(connection, index, bodies[index % len(bodies)], time.perf_counter())
                )
        finally:
            connection.close()

    started = time.perf_counter()
    await asyncio.gather(*(worker() for _ in range(connections)))
    return outcomes, time.perf_counter() - started


async def get_json(host: str, port: int, path: str) -> Dict:
    connection = Connection(host, port)
    try:
        status, payload = await connection.request("GET", path)
    finally:
        connection.close()
    if status != 200:
        raise RuntimeError(f"GET {path} answered {status}")
    return json.loads(payload)


async def paired_hops(
    router: Tuple[str, int], owners: Dict[str, Tuple[str, int]], bodies, first: int, pairs: int
):
    """Router-versus-direct pairs: request ``first + 2i`` goes through the
    router and ``first + 2i + 1`` straight to the shard owning its venue,
    alternating which of the two is sent first.  Both are fresh stream
    requests, so neither finds the other's work in a cache.  Returns
    ``(routed, direct)`` outcome lists."""
    via_router = Connection(*router)
    shards = {venue: Connection(*address) for venue, address in owners.items()}
    routed: List[Outcome] = []
    direct: List[Outcome] = []
    try:
        for pair in range(pairs):
            index = (first + 2 * pair) % len(bodies)
            direct_index = (index + 1) % len(bodies)
            venue = json.loads(bodies[direct_index])["venue"]
            legs = [(via_router, index, routed), (shards[venue], direct_index, direct)]
            for connection, leg_index, sink in legs if pair % 2 == 0 else reversed(legs):
                sink.append(await _send(connection, leg_index, bodies[leg_index], time.perf_counter()))
    finally:
        via_router.close()
        for connection in shards.values():
            connection.close()
    return routed, direct
