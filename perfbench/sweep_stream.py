"""The ``sweep_stream`` workload: a closed loop of small sweeps over HTTP.

One keep-alive connection to a fresh server.  A seeded plan of sweep
requests, each with a fresh seed: ``POST /v1/sweeps``, then row windows
``GET /v1/sweeps/<id>?format=rows`` (every other sweep ``format=frame``)
polled at a fixed cadence until the grid is complete, then the status
body.  A poll that finds nothing new (an empty window, or a status that
is not final yet) is *idle*; how many there are depends on how fast the
job runs, not on how much work it is.  After the timed window the run
measures the server CPU of one idle poll, so the caller can take the
idle polls out of the server's CPU per sweep.  Every 4th request
resubmits an earlier body, which the server answers from its cache;
every 6th fresh request runs with ``execution: cluster`` on the
server's in-process fleet.

Output checks run after the timed window, so they cost no op time; a
failed check fails the op it belongs to:

* the streamed rows (decoded frames, for ``format=frame``) assemble into
  exactly the final result;
* every cache hit is byte-identical to the miss it repeats;
* a sample of cluster results equals a local ``execute_sweep``.
"""

from __future__ import annotations

import http.client
import json
import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Optional

from benchutil import OpLog, dumps_canonical, no_cyclic_gc

# Seconds between polls of a sweep whose next row window is not full yet.
POLL_CADENCE_S = 0.005
# Rows asked for per window GET.
WINDOW = 32
# Cluster results recomputed locally per run.
CLUSTER_CHECKS = 4
# Per-op deadline: a sweep taking longer counts as failed.
OP_TIMEOUT_S = 20.0
# Fresh-kind rotation; its length (5) is coprime with the cluster period
# (6), so every kind also runs under ``execution: cluster``.
KIND_CYCLE = ("fig4a", "closed", "fig7", "fig4a", "closed")
CLUSTER_EVERY = 6
HIT_EVERY = 4
WARMUP_OPS = 30
# The CPU of one idle poll is measured over this many empty-window GETs.
IDLE_GETS = 500

_FIG4A_GRID = {
    "n_values": [256, 512, 1024, 2048, 4096, 8192, 16384, 32768],
    "w_values": [2, 4, 6, 8, 12, 16, 24, 32],
    "samples": 20,
}
_CLOSED_GRID = {"n_values": [1024, 4096], "c_values": [2], "w_values": [8, 12]}
_FIG7_GRID = {
    "n_values": [256, 1024], "w_values": [4, 8], "rounds": 6, "objects": 128,
    "concurrency": 3,
}
PARAMS = {"fig4a": _FIG4A_GRID, "closed": _CLOSED_GRID, "fig7": _FIG7_GRID}


@dataclass
class Op:
    index: int
    role: str  # "miss", "cluster" or "hit"
    body: dict
    fmt: str = "rows"
    href: str = ""
    points_total: int = 0
    start_ns: int = 0
    end_ns: int = 0
    windows: list = field(default_factory=list)
    reply: bytes = b""  # raw body holding the result, parsed after the window
    failed: Optional[str] = None

    @property
    def result(self) -> Any:
        return json.loads(self.reply)["result"]


def plan(seed: int) -> Iterator[Op]:
    """The seeded request sequence (infinite)."""
    rng = random.Random(seed)
    fresh: list[dict] = []
    n_fresh = 0
    index = 0
    while True:
        if index % HIT_EVERY == HIT_EVERY - 1 and fresh:
            body = fresh[-1 - rng.randrange(min(len(fresh), 8))]
            yield Op(index, "hit", body)
        else:
            kind = KIND_CYCLE[n_fresh % len(KIND_CYCLE)]
            body = {"kind": kind, "params": PARAMS[kind], "seed": rng.randrange(2**31)}
            role = "miss"
            if n_fresh % CLUSTER_EVERY == CLUSTER_EVERY - 1:
                body["execution"] = "cluster"
                role = "cluster"
            fresh.append(body)
            n_fresh += 1
            yield Op(index, role, body, fmt="frame" if index % 2 else "rows")
        index += 1


class Client:
    """One keep-alive HTTP/1.1 connection, reopened after an error."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=OP_TIMEOUT_S)
        self.gets = 0
        self.bytes = 0
        self.idle_gets = 0  # polls that found nothing new

    def request(self, method: str, path: str, body: Optional[bytes] = None,
                ) -> tuple[int, dict[str, str], bytes]:
        headers = {"Content-Type": "application/json"} if body is not None else {}
        self.conn.request(method, path, body=body, headers=headers)
        resp = self.conn.getresponse()
        data = resp.read()
        return resp.status, {k.lower(): v for k, v in resp.getheaders()}, data

    def reopen(self) -> None:
        self.conn.close()
        self.conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=OP_TIMEOUT_S)

    def close(self) -> None:
        self.conn.close()


def _run_op(client: Client, op: Op) -> None:
    op.start_ns = time.perf_counter_ns()
    deadline = time.monotonic() + OP_TIMEOUT_S
    status, _, data = client.request("POST", "/v1/sweeps", json.dumps(op.body).encode())
    if status not in (200, 202):
        op.failed = f"POST -> {status}: {data[:200]!r}"
        return
    reply = json.loads(data)
    if op.role == "hit":
        op.end_ns = time.perf_counter_ns()
        if not reply.get("cache_hit"):
            op.failed = "resubmitted body was not a cache hit"
        op.reply = data
        return
    if reply.get("cache_hit"):
        op.failed = "fresh body was answered from the cache"
        return
    href = op.href = reply["href"]
    received = 0
    while True:
        status, headers, data = client.request(
            "GET", f"{href}?format={op.fmt}&offset={received}&limit={WINDOW}"
        )
        client.gets += 1
        client.bytes += len(data)
        if status != 200:
            op.failed = f"GET window -> {status}: {data[:200]!r}"
            return
        count = int(headers["x-sweep-count"])
        if count:
            op.windows.append((time.perf_counter_ns(), data))
            received += count
        else:
            client.idle_gets += 1
        op.points_total = int(headers["x-sweep-points-total"])
        if received == op.points_total:
            break
        if time.monotonic() > deadline:
            op.failed = "sweep did not complete in time"
            return
        if count < WINDOW:
            time.sleep(POLL_CADENCE_S)
    while True:
        status, _, data = client.request("GET", href)
        client.gets += 1
        client.bytes += len(data)
        if status != 200:
            op.failed = f"GET status -> {status}"
            return
        snapshot = json.loads(data)
        if snapshot["state"] == "succeeded":
            op.end_ns = time.perf_counter_ns()
            op.reply = data
            return
        if snapshot["state"] in ("failed", "cancelled") or time.monotonic() > deadline:
            op.failed = f"job ended {snapshot['state']}"
            return
        client.idle_gets += 1
        time.sleep(POLL_CADENCE_S)


def idle_get_cpu_s(client: Client, op: Op, server_cpu: Callable[[], float]) -> float:
    """Server CPU seconds of one idle poll: a GET of the empty window past ``op``'s grid."""
    path = f"{op.href}?format=rows&offset={op.points_total}&limit={WINDOW}"
    cpu0 = server_cpu()
    for _ in range(IDLE_GETS):
        status, headers, _ = client.request("GET", path)
        if status != 200 or headers["x-sweep-count"] != "0":
            raise RuntimeError(f"idle poll of {path} -> {status}")
    return (server_cpu() - cpu0) / IDLE_GETS


def drive(port: int, seed: int, seconds: float, *, warmup_ops: int = WARMUP_OPS,
          edge: Callable[[], Any] = lambda: None,
          server_cpu: Callable[[], float]) -> dict:
    """Warm up, then run the plan for ``seconds``; returns the raw ops.

    ``edge`` is called right before and right after the timed window;
    its two results are returned as ``edges``.  ``server_cpu`` reads the
    server's CPU seconds at fine resolution, for :func:`idle_get_cpu_s`.
    """
    client = Client(port)
    try:
        warm = plan(seed ^ 0x5EED)
        for _ in range(warmup_ops):
            op = next(warm)
            _run_op(client, op)
            if op.failed:
                raise RuntimeError(f"warm-up op failed: {op.failed}")
        client.gets = client.bytes = client.idle_gets = 0
        before = edge()
        ops: list[Op] = []
        begin = time.perf_counter_ns()
        stop = begin + int(seconds * 1e9)
        with no_cyclic_gc():
            for op in plan(seed):
                try:
                    _run_op(client, op)
                except (OSError, http.client.HTTPException, ValueError, KeyError) as exc:
                    op.failed = f"{type(exc).__name__}: {exc}"
                    client.reopen()
                ops.append(op)
                if time.perf_counter_ns() >= stop:
                    break
        end = time.perf_counter_ns()
        after = edge()
        streamed = next((op for op in reversed(ops) if op.href and not op.failed), None)
        return {"ops": ops, "begin": begin, "end": end, "gets": client.gets,
                "bytes": client.bytes, "idle_gets": client.idle_gets,
                "idle_get_cpu_s": (idle_get_cpu_s(client, streamed, server_cpu)
                                   if streamed else 0.0),
                "edges": (before, after)}
    finally:
        client.close()


def _streamed_rows(op: Op) -> list[tuple[int, dict, Any]]:
    from repro.sim.frame import frame_from_wire

    rows = []
    for _, data in op.windows:
        if op.fmt == "rows":
            for line in data.decode().splitlines():
                row = json.loads(line)
                rows.append((row["index"], row["point"], row["outcome"]))
        else:
            payload = json.loads(data)
            frame = frame_from_wire(payload)
            offset = int(payload["offset"])
            for i in range(offset, offset + int(payload["count"])):
                rows.append((i, frame.point_at(i), frame.outcome_at(i)))
    return rows


def check(ops: list[Op]) -> None:
    """Output checks; marks failing ops (see module docstring)."""
    from repro.sim.catalog import SWEEP_KINDS, execute_sweep
    from repro.sim.frame import FrameBackedSweepResult

    misses: dict[str, str] = {}
    cluster_checked = 0
    for op in ops:
        if op.failed:
            continue
        kind = SWEEP_KINDS[op.body["kind"]]
        params = kind.validate(op.body["params"])
        body_key = dumps_canonical({k: v for k, v in op.body.items() if k != "execution"})
        result = dumps_canonical(op.result)
        if op.role == "hit":
            if body_key in misses and misses[body_key] != result:
                op.failed = "cache hit differs from its miss"
            continue
        misses[body_key] = result
        frame = kind.make_frame(params)
        if frame is not None:  # grid kinds stream rows
            for index, point, outcome in _streamed_rows(op):
                frame.fill(index, point, outcome)
            if not frame.complete:
                op.failed = "streamed rows do not cover the grid"
                continue
            assembled = kind.assemble(params, FrameBackedSweepResult(frame))
            if dumps_canonical(assembled) != result:
                op.failed = "streamed rows differ from the final result"
                continue
        if op.role == "cluster" and cluster_checked < CLUSTER_CHECKS:
            cluster_checked += 1
            local = execute_sweep(op.body["kind"], params, op.body["seed"])
            if dumps_canonical(local) != result:
                op.failed = "cluster result differs from a local execute_sweep"


def summarize(raw: dict, log: OpLog) -> dict:
    """Fold checked ops into the op log; returns workload figures."""
    first_rows = []
    for op in raw["ops"]:
        if op.failed:
            log.fail(f"op {op.index} ({op.role} {op.body['kind']}): {op.failed}")
            continue
        log.ok(op.role, (op.end_ns - op.start_ns) / 1e9)
        if op.windows:
            first_rows.append((op.windows[0][0] - op.start_ns) / 1e9)
    log.samples["first_row"] = first_rows
    elapsed = (raw["end"] - raw["begin"]) / 1e9
    streamed = sum(1 for op in raw["ops"] if op.role != "hit")
    return {
        "elapsed_s": elapsed,
        "completed": sum(1 for op in raw["ops"] if not op.failed),
        "streamed": streamed,
    }
