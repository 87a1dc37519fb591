"""HTTP/1.1 load generators for the serve workloads.

Each serve workload sends one kind of request, so no latency it reports
depends on an assumed traffic mix.

* :func:`plan_queries` builds an **open-loop** schedule, as from
  independent users: requests fall due at evenly spaced times whether
  or not earlier ones have been answered.
  :func:`replay` sends them over :data:`CONNECTIONS` keep-alive
  connections.  A request that finds every connection busy waits for
  one, and that wait counts: latency runs from the request's due time to
  the end of its response.  ``replay`` also returns how late the
  generator itself released each request.
* :func:`ingest_feed` is one feeder on a schedule: at each due time it
  posts the next snapshot day and, as soon as the write is answered,
  reads ``/leaks``.  A pair that overruns its slot delays the next one,
  and that wait counts too.
"""

from __future__ import annotations

import asyncio
import datetime as dt
import http.client
import json
import random
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

#: Keep-alive connections one client process holds open to the server.
CONNECTIONS = 2
REQUEST_TIMEOUT = 30.0


@dataclass
class Request:
    due: float
    method: str
    path: str
    body: bytes = b""
    status: int = 0
    #: Seconds after the schedule's start, like ``due``.
    done: float = 0.0
    payload: Optional[dict] = None
    error: str = ""
    #: Sent after the server's layer trace was switched on.
    traced: bool = False

    @property
    def latency(self) -> float:
        return self.done - self.due

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300


def plan_queries(seed: int, seconds: float, count: int, prefixes: Sequence[str]) -> List[Request]:
    """``count`` per-/24 verdict lookups spread evenly over ``seconds``, each
    for a /24 the seed draws."""
    rng = random.Random(seed)
    interval = seconds / count
    return [
        Request((index + 0.5) * interval, "GET", f"/prefix/{rng.choice(prefixes)}/dynamicity")
        for index in range(count)
    ]


# -- open loop ------------------------------------------------------------------


async def _exchange(reader, writer, request: Request) -> None:
    head = (
        f"{request.method} {request.path} HTTP/1.1\r\n"
        "Host: 127.0.0.1\r\n"
        f"Content-Length: {len(request.body)}\r\n"
        "\r\n"
    )
    writer.write(head.encode("latin-1") + request.body)
    await writer.drain()
    status_line = await reader.readline()
    if not status_line:
        raise ConnectionError("connection closed by the server")
    request.status = int(status_line.split()[1])
    length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            length = int(value)
    request.payload = json.loads(await reader.readexactly(length))


async def _connection(port: int, queue: asyncio.Queue, clock: Callable[[], float]) -> None:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        while True:
            request = await queue.get()
            if request is None:
                return
            try:
                await asyncio.wait_for(_exchange(reader, writer, request), REQUEST_TIMEOUT)
            except (OSError, ConnectionError, asyncio.TimeoutError, ValueError) as error:
                request.status = 0
                request.error = f"{type(error).__name__}: {error}"
                writer.close()
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
            request.done = clock()
    finally:
        writer.close()
        await writer.wait_closed()


async def _replay(
    port: int, requests: List[Request], midpoint: Optional[Callable[[], None]]
) -> List[float]:
    loop = asyncio.get_running_loop()
    start = loop.time()

    def clock() -> float:
        return loop.time() - start

    halfway = requests[-1].due / 2
    queue: asyncio.Queue = asyncio.Queue()
    workers = [
        asyncio.ensure_future(_connection(port, queue, clock)) for _ in range(CONNECTIONS)
    ]
    lags, tracing = [], False
    for request in requests:
        delay = request.due - clock()
        if delay > 0:
            await asyncio.sleep(delay)
        if midpoint is not None and request.due >= halfway:
            midpoint()
            midpoint, tracing = None, True
        request.traced = tracing
        lags.append(clock() - request.due)
        queue.put_nowait(request)
    for _ in workers:
        queue.put_nowait(None)
    await asyncio.gather(*workers)
    return lags


def replay(
    port: int, requests: List[Request], *, midpoint: Optional[Callable[[], None]] = None
) -> List[float]:
    """Send ``requests`` to ``127.0.0.1:port``; fills in each one's outcome.

    ``midpoint`` is called once, when the schedule reaches half its
    length; requests due from then on are marked ``traced``.  Returns the
    generator's lag behind each due time (s).
    """
    return asyncio.run(_replay(port, requests, midpoint))


# -- ingest feed ----------------------------------------------------------------


def _send(connection: http.client.HTTPConnection, request: Request, start: float) -> None:
    try:
        connection.request(request.method, request.path, body=request.body)
        response = connection.getresponse()
        request.status = response.status
        request.payload = json.loads(response.read())
    except (OSError, http.client.HTTPException, ValueError) as error:
        request.status = 0
        request.error = f"{type(error).__name__}: {error}"
        connection.close()
    request.done = time.perf_counter() - start


def ingest_feed(
    port: int,
    first_day: dt.date,
    count: int,
    interval: float,
    *,
    midpoint: Optional[Callable[[], None]] = None,
) -> List[tuple]:
    """Ingest ``count`` consecutive days from ``first_day``, one due every
    ``interval`` seconds, each followed by a fresh ``GET /leaks``; returns
    the ``(write, read)`` request pairs.

    The write is due at its slot and the read once the write is answered,
    so a pair's latency (``read.done - write.due``) is the time from the
    slot to fresh leak verdicts.  The feed stops after a failed write:
    every later day would be refused for not extending the window.
    ``midpoint`` is called once, at the middle slot; pairs from then on
    are ``traced``.
    """
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT)
    start = time.perf_counter()
    pairs: List[tuple] = []
    tracing = False
    try:
        for index in range(count):
            due = index * interval
            delay = due - (time.perf_counter() - start)
            if delay > 0:
                time.sleep(delay)
            if midpoint is not None and index >= count // 2:
                midpoint()
                midpoint, tracing = None, True
            day = (first_day + dt.timedelta(days=index)).isoformat()
            body = json.dumps({"day": day}).encode("utf-8")
            write = Request(due, "POST", "/ingest/day", body, traced=tracing)
            _send(connection, write, start)
            read = Request(write.done, "GET", "/leaks", traced=tracing)
            if write.ok:
                _send(connection, read, start)
            else:
                read.done, read.error = write.done, "not sent: the write failed"
            pairs.append((write, read))
            if not write.ok:
                break
    finally:
        connection.close()
    return pairs
