"""The ``model_mix`` workload: closed-form model requests over HTTP.

One asyncio client with two keep-alive connections, each a closed loop
over a seeded plan.  Per cycle of eight requests on a connection:
one ``POST /v1/model/conflict`` with 256 points, six scalar
``GET /v1/model/conflict`` (the server micro-batches concurrent ones),
and one ``POST /v1/model/capacity`` with 32 points.  No simulation code
runs, so a kernel change should leave these numbers alone.

Output checks, after the timed window: every scalar GET asks for a point
of its connection's last batch POST and must answer it bit-identically;
a sample of capacity batch elements must equal the scalar
``GET /v1/model/capacity`` for the same point.
"""

from __future__ import annotations

import asyncio
import json
import random
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional

from benchutil import OpLog, no_cyclic_gc

CONNECTIONS = 2
CONFLICT_BATCH = 256
CAPACITY_BATCH = 32
CYCLE = 8
WARMUP_S = 2.0
CAPACITY_CHECKS = 32
OP_TIMEOUT_S = 10.0


@dataclass
class Req:
    role: str  # "scalar", "batch" or "capacity"
    method: str
    path: str
    body: Optional[bytes] = None
    start_ns: int = 0
    end_ns: int = 0
    status: int = 0
    body_out: bytes = b""  # raw reply, parsed after the window
    expect: Any = None  # (batch request, index) a scalar GET must match
    failed: Optional[str] = None
    _parsed: Any = None

    @property
    def reply(self) -> Any:
        if self._parsed is None:
            self._parsed = json.loads(self.body_out)
        return self._parsed


def _conflict_points(rng: random.Random, n: int) -> dict[str, list]:
    return {
        "w": [float(rng.randint(1, 64)) for _ in range(n)],
        "n": [1 << rng.randint(8, 16) for _ in range(n)],
        "c": [rng.randint(2, 8) for _ in range(n)],
        "alpha": [round(rng.uniform(1.0, 3.0), 2) for _ in range(n)],
    }


def _capacity_points(rng: random.Random, n: int) -> dict[str, list]:
    return {
        "w": [rng.randint(1, 64) for _ in range(n)],
        "commit": [round(rng.uniform(0.5, 0.99), 3) for _ in range(n)],
        "c": [rng.randint(2, 8) for _ in range(n)],
        "alpha": [round(rng.uniform(1.0, 3.0), 2) for _ in range(n)],
    }


class Connection:
    """A minimal HTTP/1.1 keep-alive client on asyncio streams."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self.reader = reader
        self.writer = writer

    @classmethod
    async def open(cls, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        return cls(reader, writer)

    async def request(self, method: str, path: str, body: Optional[bytes]) -> tuple[int, bytes]:
        head = f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        if body is not None:
            head += f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
        self.writer.write(head.encode() + b"\r\n" + (body or b""))
        await self.writer.drain()
        status_line = await self.reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.split()[1])
        length = 0
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        return status, await self.reader.readexactly(length)

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except ConnectionError:
            pass


def _plan(rng: random.Random):
    """One connection's request sequence (infinite)."""
    last_batch: Optional[Req] = None
    index = 0
    while True:
        slot = index % CYCLE
        if slot == 0 or last_batch is None:
            body = json.dumps(_conflict_points(rng, CONFLICT_BATCH)).encode()
            last_batch = Req("batch", "POST", "/v1/model/conflict", body)
            yield last_batch
        elif slot == CYCLE - 1:
            body = json.dumps(_capacity_points(rng, CAPACITY_BATCH)).encode()
            yield Req("capacity", "POST", "/v1/model/capacity", body)
        else:
            i = rng.randrange(CONFLICT_BATCH)
            point = json.loads(last_batch.body)
            query = "&".join(f"{k}={point[k][i]}" for k in ("w", "n", "c", "alpha"))
            yield Req("scalar", "GET", f"/v1/model/conflict?{query}",
                      expect=(last_batch, i))
        index += 1


async def _loop(port: int, plan, until_ns: int, out: list[Req]) -> None:
    conn = await Connection.open(port)
    try:
        while time.perf_counter_ns() < until_ns:
            req = next(plan)
            req.start_ns = time.perf_counter_ns()
            try:
                req.status, data = await asyncio.wait_for(
                    conn.request(req.method, req.path, req.body), OP_TIMEOUT_S
                )
                req.end_ns = time.perf_counter_ns()
                req.body_out = data
                if req.status != 200:
                    req.failed = f"{req.method} {req.path[:40]} -> {req.status}"
            except (OSError, asyncio.TimeoutError, asyncio.IncompleteReadError,
                    ValueError) as exc:
                req.failed = f"{type(exc).__name__}: {exc}"
                await conn.close()
                conn = await Connection.open(port)
            out.append(req)
    finally:
        await conn.close()


async def _drive(port: int, seed: int, seconds: float, warmup_s: float,
                 edge: Callable[[], Any]) -> dict:
    warm: list[Req] = []
    until = time.perf_counter_ns() + int(warmup_s * 1e9)
    plans = [_plan(random.Random(f"warmup-{seed}-{c}")) for c in range(CONNECTIONS)]
    await asyncio.gather(*(_loop(port, p, until, warm) for p in plans))
    if any(r.failed for r in warm):
        raise RuntimeError(f"warm-up request failed: {next(r.failed for r in warm if r.failed)}")
    before = edge()
    reqs: list[Req] = []
    begin = time.perf_counter_ns()
    until = begin + int(seconds * 1e9)
    plans = [_plan(random.Random(f"{seed}-{c}")) for c in range(CONNECTIONS)]
    with no_cyclic_gc():
        await asyncio.gather(*(_loop(port, p, until, reqs) for p in plans))
    end = time.perf_counter_ns()
    return {"reqs": reqs, "begin": begin, "end": end, "edges": (before, edge())}


def drive(port: int, seed: int, seconds: float, *, warmup_s: float = WARMUP_S,
          edge: Callable[[], Any] = lambda: None) -> dict:
    """Warm up, then run both connections for ``seconds``.

    ``edge`` is called right before and right after the timed window;
    its two results are returned as ``edges``.
    """
    return asyncio.run(_drive(port, seed, seconds, warmup_s, edge))


def check(port: int, reqs: list[Req]) -> None:
    """Batch-vs-scalar checks; marks failing requests."""
    for req in reqs:
        if req.failed or req.role != "scalar":
            continue
        batch, i = req.expect
        if batch.failed or not batch.body_out:
            req.failed = "its batch request failed"
            continue
        for key in ("raw", "conflict_probability", "commit_probability"):
            if json.dumps(req.reply[key]) != json.dumps(batch.reply[key][i]):
                req.failed = f"scalar {key} differs from batch element"
                break
    sampled = [r for r in reqs if r.role == "capacity" and not r.failed][:CAPACITY_CHECKS]
    if not sampled:
        return

    async def scalar_capacity() -> None:
        conn = await Connection.open(port)
        try:
            for req in sampled:
                point = json.loads(req.body)
                i = len(point["w"]) // 2
                query = "&".join(f"{k}={point[k][i]}" for k in ("w", "commit", "c", "alpha"))
                status, data = await conn.request("GET", f"/v1/model/capacity?{query}", None)
                reply = json.loads(data)
                if status != 200:
                    req.failed = f"scalar capacity GET -> {status}"
                    continue
                for key in ("entries", "entries_pow2", "achieved_commit_probability"):
                    if json.dumps(reply[key]) != json.dumps(req.reply[key][i]):
                        req.failed = f"capacity {key} differs from scalar GET"
                        break
        finally:
            await conn.close()

    asyncio.run(scalar_capacity())


def summarize(raw: dict, log: OpLog) -> dict:
    """Fold checked requests into the op log; returns workload figures."""
    for req in raw["reqs"]:
        if req.failed:
            log.fail(req.failed)
        else:
            log.ok(req.role, (req.end_ns - req.start_ns) / 1e9)
    return {"elapsed_s": (raw["end"] - raw["begin"]) / 1e9}
