"""Cluster coordinator: shards one sweep into leases and merges results.

The coordinator owns a single run.  It chunks the grid
(:func:`repro.cluster.protocol.chunk_grid`), probes the content-addressed
:class:`~repro.service.cache.ResultCache` so already-computed chunks are
never dispatched, and serves the cluster protocol over the shared
:class:`~repro.service.http.JsonHttpServer` plumbing.  Workers claim
leases, evaluate chunks, and submit outcomes; the
:class:`~repro.cluster.leases.LeaseManager` supplies the fault envelope
(expiry, reassignment, bounded retries, idempotent completion).

Determinism: the coordinator never evaluates a point itself and never
reorders anything — outcomes land at their grid indices (``chunk.start``
onward) in the run's :class:`~repro.sim.sweep.SweepSink`, which also
decides between the caller's frame and a plain outcome list, so the
merged :class:`~repro.sim.sweep.SweepResult` is
byte-identical to ``run_sweep`` on one machine no matter how chunks were
interleaved, retried, or reassigned.  JSON transport preserves this:
outcome payloads are finite floats/ints/strings/dicts, which round-trip
exactly.

:func:`run_sweep_cluster` is the batteries-included entry point — boot a
coordinator thread plus N in-process worker threads, wait, return the
merged result — reached through :func:`repro.sim.sweep.run_grid` by the
service's ``execution: cluster`` mode and the CLI's ``--cluster`` flag.
"""

from __future__ import annotations

import threading
import time
import uuid
from dataclasses import dataclass
from functools import partial
from http import HTTPStatus
from typing import Any, Callable, Iterable, Mapping, Optional, Sequence

from repro.cluster.leases import ChunkExhausted, LeaseManager
from repro.cluster.protocol import (
    ChunkSpec,
    ClusterTask,
    HEARTBEAT_PATH,
    LEASE_PATH,
    RESULT_PATH,
    SPEC_PATH,
    STATUS_PATH,
    SweepSpec,
    task_from_callable,
)
from repro.service.cache import ResultCache, cache_key
from repro.service.http import HTTPError, JsonHttpServer, ServerThread
from repro.service.metrics import MetricsRegistry
from repro.sim.frame import SweepFrame
from repro.sim.parallel import process_pool
from repro.sim.sweep import SweepResult, SweepSink

__all__ = [
    "ClusterError",
    "ClusterTelemetry",
    "Coordinator",
    "CoordinatorConfig",
    "CoordinatorThread",
    "chunk_cache_key",
    "run_sweep_cluster",
    "run_sweep_cluster_from_callable",
]

def chunk_cache_key(task: ClusterTask, points: Sequence[Mapping[str, Any]]) -> str:
    """Content address of one chunk's outcomes.

    Keyed by what is computed (function, bound kwargs, label, the
    sweep kind's ``result_version``, the chunk's points) and the master
    seed — never by run id or chunk geometry — so any run covering the
    same points reuses them.
    :func:`repro.sim.sweep.run_grid` uses the same key for its local
    checkpoints, which is what lets a run switch between ``--jobs`` and
    ``--cluster`` and still resume from the same cache.
    """
    return cache_key(
        {
            "kind": "cluster-chunk",
            "fn": task.fn,
            "kwargs": dict(task.kwargs),
            "label": task.label,
            "result_version": task.result_version,
            "points": list(points),
        },
        task.seed,
    )


class ClusterError(ValueError):
    """A distributed run could not complete (exhausted chunk, timeout,
    or every worker gone with work still outstanding).

    A :class:`ValueError`, like the error a failed point raises in the
    serial and pool modes, so every surface reports it the same way.
    """


@dataclass(frozen=True)
class ClusterTelemetry:
    """Observability record of one distributed sweep.

    Mirrors :class:`repro.sim.parallel.SweepTelemetry` closely enough
    that report tables can render either (``jobs``, ``n_points``,
    ``wall_seconds``, ``points_per_second``, ``worker_utilization``,
    ``retries``, ``failures``).

    Attributes
    ----------
    workers:
        Distinct workers that completed at least one chunk.
    chunk_size:
        Grid points per lease.
    n_points:
        Total grid points.
    wall_seconds:
        Submission-to-merge wall-clock time.
    retries:
        Chunk re-dispatches (expired or failed leases re-claimed).
    leases_expired:
        Leases that lapsed without completion.
    duplicates:
        Result submissions discarded as already-completed.
    cache_hits:
        Chunks answered from the result cache without dispatch.
    leases_stolen:
        Straggler leases reassigned to idle workers by work stealing.
    points_by_worker:
        Completed points attributed to each worker id.
    """

    workers: int
    chunk_size: int
    n_points: int
    wall_seconds: float
    retries: int
    leases_expired: int
    duplicates: int
    cache_hits: int
    leases_stolen: int
    points_by_worker: Mapping[str, int]

    @property
    def jobs(self) -> int:
        """Worker count, under the name report tables expect."""
        return max(1, self.workers)

    @property
    def failures(self) -> int:
        """Unrecovered point failures (always 0 — exhaustion aborts)."""
        return 0

    @property
    def points_per_second(self) -> float:
        """Merged throughput over wall-clock time."""
        return self.n_points / self.wall_seconds if self.wall_seconds > 0 else 0.0

    @property
    def worker_utilization(self) -> float:
        """Load balance across workers: mean over max per-worker points.

        1.0 means every worker completed the same number of points; a
        straggler-dominated run trends toward ``1 / workers``.
        """
        counts = [n for n in self.points_by_worker.values() if n > 0]
        if not counts or max(counts) == 0:
            return 0.0
        return (sum(counts) / len(counts)) / max(counts)

    def summary(self) -> str:
        """One-line human-readable digest for logs and CLI output."""
        return (
            f"{self.n_points} points in {self.wall_seconds:.2f}s "
            f"({self.points_per_second:.1f} pts/s, workers={self.workers}, "
            f"balance={self.worker_utilization:.0%}, retries={self.retries}, "
            f"expired={self.leases_expired}, stolen={self.leases_stolen}, "
            f"cached_chunks={self.cache_hits})"
        )


@dataclass(frozen=True)
class CoordinatorConfig:
    """Everything a coordinator needs to boot.

    Attributes
    ----------
    host, port:
        Bind address; ``port=0`` takes an ephemeral port.
    lease_ttl:
        Seconds a lease survives between heartbeats.
    max_attempts:
        Dispatches allowed per chunk before the run fails.
    chunk_size:
        Grid points per lease; ``None`` derives ~4 chunks per expected
        worker (:func:`~repro.cluster.protocol.default_chunk_size`, the
        parallel engine's default too).
    expected_workers:
        Sizing hint for the default chunk size.
    steal_min_age:
        Enable work stealing: an idle worker with nothing pending may
        take over a lease outstanding at least this many seconds (see
        :class:`~repro.cluster.leases.LeaseManager`).  ``None`` (the
        default) keeps the pre-stealing behaviour.
    """

    host: str = "127.0.0.1"
    port: int = 0
    lease_ttl: float = 10.0
    max_attempts: int = 3
    chunk_size: Optional[int] = None
    expected_workers: int = 2
    steal_min_age: Optional[float] = None

    def __post_init__(self) -> None:
        if self.lease_ttl <= 0:
            raise ValueError(f"lease_ttl must be positive, got {self.lease_ttl}")
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.chunk_size is not None and self.chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {self.chunk_size}")
        if self.expected_workers < 1:
            raise ValueError(
                f"expected_workers must be >= 1, got {self.expected_workers}"
            )
        if self.steal_min_age is not None and self.steal_min_age < 0:
            raise ValueError(
                f"steal_min_age must be >= 0, got {self.steal_min_age}"
            )


class Coordinator(JsonHttpServer):
    """One distributed sweep run, served over the cluster protocol.

    Construct with the task and grid, start (directly on an event loop
    or via :class:`CoordinatorThread`), point workers at ``url``, then
    :meth:`result` blocks until the merged sweep is ready.
    """

    server_name = "repro-cluster"

    def __init__(
        self,
        task: ClusterTask,
        grid: Sequence[Mapping[str, Any]],
        config: Optional[CoordinatorConfig] = None,
        *,
        cache: Optional[ResultCache] = None,
        metrics: Optional[MetricsRegistry] = None,
        run_id: Optional[str] = None,
        clock: Optional[Callable[[], float]] = None,
        frame: Optional[SweepFrame] = None,
    ) -> None:
        self.config = config or CoordinatorConfig()
        super().__init__(self.config.host, self.config.port)
        self.spec = SweepSpec.build(
            task,
            grid,
            run_id=run_id or f"run-{uuid.uuid4().hex[:12]}",
            chunk_size=self.config.chunk_size,
            lease_ttl=self.config.lease_ttl,
            expected_workers=self.config.expected_workers,
        )
        self.cache = cache
        self.metrics = metrics or MetricsRegistry()
        m = self.metrics
        self._m_leases_outstanding = m.gauge(
            "repro_cluster_leases_outstanding", "Active (unexpired) chunk leases"
        )
        self._m_leases_expired = m.counter(
            "repro_cluster_leases_expired_total", "Leases that lapsed without completion"
        )
        self._m_workers_live = m.gauge(
            "repro_cluster_workers_live", "Workers heard from within one lease ttl"
        )
        self._m_chunks_done = m.gauge(
            "repro_cluster_chunks_done", "Chunks completed (cache hits included)"
        )
        self._m_points_total = m.counter(
            "repro_cluster_points_total", "Grid points completed by worker", label="worker"
        )
        self._m_worker_rate = m.gauge(
            "repro_cluster_worker_points_per_second",
            "Per-worker completed points over run wall time", label="worker",
        )
        self._m_duplicates = m.counter(
            "repro_cluster_duplicate_results_total",
            "Result submissions discarded as already completed",
        )
        self._m_cached_chunks = m.counter(
            "repro_cluster_cached_chunks_total",
            "Chunks answered from the result cache without dispatch",
        )
        self._m_chunk_size = m.gauge(
            "repro_cluster_chunk_size", "Grid points per lease for this run"
        )
        self._m_leases_stolen = m.counter(
            "repro_cluster_leases_stolen_total",
            "Straggler leases reassigned to idle workers by work stealing",
        )
        chunks = self.spec.chunks()
        self.leases = LeaseManager(
            chunks,
            ttl=self.config.lease_ttl,
            max_attempts=self.config.max_attempts,
            clock=clock,
            steal_min_age=self.config.steal_min_age,
        )
        self._m_chunk_size.set(self.spec.chunk_size)
        self._sink = SweepSink([dict(p) for p in self.spec.grid], frame)
        self._done = threading.Event()
        self._draining = False
        self._started = time.perf_counter()
        self._wall_seconds: Optional[float] = None
        self._cache_hits = 0
        self._expired_seen = 0
        self._points_seen: dict[str, int] = {}
        self._duplicates_seen = 0
        self._stolen_seen = 0
        self._probe_cache(chunks)
        self._maybe_finish()

    # -- cache integration --------------------------------------------

    def _chunk_key(self, chunk: ChunkSpec) -> str:
        """Content address of one chunk's outcomes (:func:`chunk_cache_key`)."""
        return chunk_cache_key(self.spec.task, self.spec.points(chunk))

    def _probe_cache(self, chunks: Iterable[ChunkSpec]) -> None:
        if self.cache is None:
            return
        for chunk in chunks:
            hit, _ = self.cache.lookup(self._chunk_key(chunk), accept=partial(
                self._sink.fill_cached, chunk.start, chunk.count))
            if not hit:
                continue
            self.leases.mark_done(chunk.index)
            self._cache_hits += 1
            self._m_cached_chunks.inc()

    # -- run state ----------------------------------------------------

    @property
    def url(self) -> str:
        """Coordinator base URL (valid once the socket is bound)."""
        return f"http://{self.host}:{self.port}"

    @property
    def run_id(self) -> str:
        """This run's identifier (echoed by every worker request)."""
        return self.spec.run_id

    def _state(self) -> str:
        if self.leases.failed is not None:
            return "failed"
        if self.leases.done:
            return "done"
        if self._draining:
            return "draining"
        return "running"

    def drain(self) -> None:
        """Stop dispensing new leases; in-flight results stay accepted.

        Polling workers see ``state: done`` and exit gracefully; the
        run's outcome slots keep whatever has been merged so far.
        """
        self._draining = True

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the run reaches a terminal state (or timeout)."""
        return self._done.wait(timeout)

    def result(self, timeout: Optional[float] = None) -> SweepResult:
        """Wait for completion and return the merged sweep.

        Raises :class:`ClusterError` on timeout or if any chunk
        exhausted its attempts.
        """
        if not self._done.wait(timeout):
            raise ClusterError(
                f"run {self.run_id} did not complete within {timeout:g}s "
                f"({self.leases.snapshot()['done']}/{len(self.spec.chunks())} chunks done)"
            )
        failed = self.leases.failed
        if failed is not None:
            raise ClusterError(str(failed))
        snapshot = self.leases.snapshot()
        points_by_worker = self.leases.points_by_worker()
        telemetry = ClusterTelemetry(
            workers=sum(1 for n in points_by_worker.values() if n > 0),
            chunk_size=self.spec.chunk_size,
            n_points=self.spec.n_points,
            wall_seconds=self._wall_seconds if self._wall_seconds is not None else 0.0,
            retries=int(snapshot["retries_total"]),
            leases_expired=int(snapshot["expired_total"]),
            duplicates=int(snapshot["duplicates_total"]),
            cache_hits=self._cache_hits,
            leases_stolen=int(snapshot["stolen_total"]),
            points_by_worker=points_by_worker,
        )
        return self._sink.result(telemetry)

    def _maybe_finish(self) -> None:
        if self.leases.done or self.leases.failed is not None:
            if self._wall_seconds is None:
                self._wall_seconds = time.perf_counter() - self._started
            self._done.set()

    # -- metrics ------------------------------------------------------

    def _refresh_metrics(self) -> None:
        snapshot = self.leases.snapshot()
        self._m_leases_outstanding.set(snapshot["leased"])
        self._m_chunks_done.set(snapshot["done"])
        self._m_workers_live.set(self.leases.workers_live())
        expired = int(snapshot["expired_total"])
        if expired > self._expired_seen:
            self._m_leases_expired.inc(expired - self._expired_seen)
            self._expired_seen = expired
        duplicates = int(snapshot["duplicates_total"])
        if duplicates > self._duplicates_seen:
            self._m_duplicates.inc(duplicates - self._duplicates_seen)
            self._duplicates_seen = duplicates
        stolen = int(snapshot["stolen_total"])
        if stolen > self._stolen_seen:
            self._m_leases_stolen.inc(stolen - self._stolen_seen)
            self._stolen_seen = stolen
        elapsed = time.perf_counter() - self._started
        for worker, points in self.leases.points_by_worker().items():
            seen = self._points_seen.get(worker, 0)
            if points > seen:
                self._m_points_total.inc(points - seen, label=worker)
                self._points_seen[worker] = points
            if elapsed > 0:
                self._m_worker_rate.set(points / elapsed, label=worker)

    # -- protocol routing ---------------------------------------------

    def _route(self, method: str, path: str):
        fixed = {
            ("GET", "/healthz"): self._handle_healthz,
            ("GET", "/metrics"): self._handle_metrics,
            ("GET", SPEC_PATH): self._handle_spec,
            ("GET", STATUS_PATH): self._handle_status,
            ("POST", LEASE_PATH): self._handle_lease,
            ("POST", HEARTBEAT_PATH): self._handle_heartbeat,
            ("POST", RESULT_PATH): self._handle_result,
        }
        if (method, path) in fixed:
            return path, fixed[(method, path)]
        if path in {p for (_, p) in fixed}:
            raise HTTPError(HTTPStatus.METHOD_NOT_ALLOWED, f"{method} not allowed here")
        raise HTTPError(HTTPStatus.NOT_FOUND, f"no such endpoint: {path}")

    def _parse(self, body: bytes, *required: str) -> dict[str, Any]:
        payload = self.parse_json_body(body)
        if not isinstance(payload, dict):
            raise HTTPError(HTTPStatus.BAD_REQUEST, "request body must be a JSON object")
        for key in required:
            if key not in payload:
                raise HTTPError(HTTPStatus.BAD_REQUEST, f"missing field {key!r}")
        run_id = payload.get("run_id")
        if run_id is not None and run_id != self.run_id:
            raise HTTPError(
                HTTPStatus.CONFLICT,
                f"run id mismatch: coordinator is {self.run_id}, request says {run_id}",
            )
        return payload

    # -- handlers ------------------------------------------------------

    def _handle_healthz(self, query, body):
        del query, body
        return HTTPStatus.OK, {"status": "ok", "run_id": self.run_id,
                               "state": self._state()}, {}

    def _handle_metrics(self, query, body):
        del query, body
        self._refresh_metrics()
        return (
            HTTPStatus.OK,
            ("text/plain; version=0.0.4; charset=utf-8", self.metrics.render()),
            {},
        )

    def _handle_spec(self, query, body):
        del query, body
        return HTTPStatus.OK, self.spec.to_wire(), {}

    def _handle_status(self, query, body):
        del query, body
        return (
            HTTPStatus.OK,
            {
                "run_id": self.run_id,
                "state": self._state(),
                "elapsed_seconds": time.perf_counter() - self._started,
                "cache_hits": self._cache_hits,
                "leases": self.leases.snapshot(),
            },
            {},
        )

    def _handle_lease(self, query, body):
        del query
        payload = self._parse(body, "worker")
        worker = str(payload["worker"])
        state = self._state()
        if state == "failed":
            self._maybe_finish()
            return (HTTPStatus.OK,
                    {"state": "failed", "detail": str(self.leases.failed)}, {})
        if state in ("done", "draining"):
            # Draining reads as done on purpose: workers should exit.
            return HTTPStatus.OK, {"state": "done"}, {}
        try:
            lease = self.leases.claim(worker)
        except ChunkExhausted as exc:
            self._maybe_finish()
            self._refresh_metrics()
            return HTTPStatus.OK, {"state": "failed", "detail": str(exc)}, {}
        self._refresh_metrics()
        if lease is None:
            return (
                HTTPStatus.OK,
                {"state": "wait", "retry_after": min(1.0, self.config.lease_ttl / 4)},
                {},
            )
        return (
            HTTPStatus.OK,
            {
                "state": "lease",
                "lease": {
                    "id": lease.id,
                    "attempt": lease.attempt,
                    "ttl": self.config.lease_ttl,
                },
                "chunk": lease.chunk.to_wire(),
            },
            {},
        )

    def _handle_heartbeat(self, query, body):
        del query
        payload = self._parse(body, "worker", "leases")
        worker = str(payload["worker"])
        lease_ids = [str(x) for x in payload["leases"]]
        reply = self.leases.heartbeat(worker, lease_ids)
        reply["state"] = self._state()
        self._maybe_finish()  # an expiry sweep may have exhausted a chunk
        self._refresh_metrics()
        return HTTPStatus.OK, reply, {}

    def _handle_result(self, query, body):
        del query
        payload = self._parse(body, "worker", "chunk_index", "ok")
        worker = str(payload["worker"])
        try:
            chunk_index = int(payload["chunk_index"])
        except (TypeError, ValueError):
            raise HTTPError(HTTPStatus.BAD_REQUEST, "chunk_index must be an integer") from None
        chunks = self.spec.chunks()
        if not 0 <= chunk_index < len(chunks):
            raise HTTPError(HTTPStatus.NOT_FOUND, f"no such chunk: {chunk_index}")
        chunk = chunks[chunk_index]
        if not payload["ok"]:
            detail = str(payload.get("detail", "worker reported failure"))
            self.leases.fail(chunk_index, worker, detail)
            self._maybe_finish()
            self._refresh_metrics()
            return HTTPStatus.OK, {"status": "recorded", "state": self._state()}, {}
        outcomes = payload.get("outcomes")
        if not isinstance(outcomes, list) or len(outcomes) != chunk.count:
            raise HTTPError(
                HTTPStatus.BAD_REQUEST,
                f"chunk {chunk_index} expects {chunk.count} outcomes, "
                f"got {len(outcomes) if isinstance(outcomes, list) else type(outcomes).__name__}",
            )
        if not self.leases.is_done(chunk_index):
            # Fill before completing: the fill checks the outcomes against
            # the frame schema, and a chunk that cannot be filled must stay
            # leased, to expire and be dispatched again.  Results settle one
            # at a time on the event loop, so none completes this chunk
            # between the check and ``complete``.
            try:
                self._sink.fill_many(chunk.start, outcomes)
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise HTTPError(
                    HTTPStatus.BAD_REQUEST,
                    f"chunk {chunk_index} outcomes do not fit the sweep: "
                    f"{type(exc).__name__}: {exc}",
                ) from None
        status = self.leases.complete(chunk_index, worker, points=chunk.count)
        if status == "fresh" and self.cache is not None:
            self.cache.put(self._chunk_key(chunk), outcomes)
        self._maybe_finish()
        self._refresh_metrics()
        return HTTPStatus.OK, {"status": status, "state": self._state()}, {}


class CoordinatorThread(ServerThread):
    """A :class:`Coordinator` on a private event loop in a thread."""

    thread_name = "repro-cluster"

    @property
    def coordinator(self) -> Coordinator:
        """The wrapped coordinator."""
        server = self.server
        assert isinstance(server, Coordinator)
        return server

    @property
    def url(self) -> str:
        """Coordinator base URL (valid once started)."""
        return self.coordinator.url


def run_sweep_cluster(
    task: ClusterTask,
    grid: Sequence[Mapping[str, Any]],
    *,
    workers: int = 2,
    jobs_per_worker: int = 1,
    config: Optional[CoordinatorConfig] = None,
    cache: Optional[ResultCache] = None,
    metrics: Optional[MetricsRegistry] = None,
    timeout: Optional[float] = None,
    frame: Optional[SweepFrame] = None,
    depart_after: Optional[int] = None,
    join_after: Optional[float] = None,
) -> SweepResult:
    """Run one sweep across an in-process coordinator + worker fleet.

    Boots a :class:`CoordinatorThread` and ``workers`` in-process
    :class:`~repro.cluster.worker.WorkerThread` loops against it, waits
    for the merged result, and tears everything down; the fleet shares
    one pool of ``jobs_per_worker`` processes.  This is the
    localhost execution path behind the service's ``execution: cluster``
    mode and the ``--cluster`` flag of the CLI and of ``repro
    experiments run``; multi-machine runs use ``repro cluster
    coordinate`` / ``repro cluster work`` instead.

    ``depart_after``/``join_after`` inject one membership change each:
    worker 0 crashes mid-chunk after ``depart_after`` completed chunks
    (its lease expires and the chunk is reassigned), and one extra
    worker joins ``join_after`` seconds into the run.

    Raises :class:`ClusterError` if the run fails, times out, or every
    worker exits with chunks still outstanding.
    """
    from repro.cluster.worker import WorkerConfig, WorkerThread

    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if config is None:
        config = CoordinatorConfig(expected_workers=workers)
    coordinator = Coordinator(
        task, grid, config, cache=cache, metrics=metrics, frame=frame
    )
    handle = CoordinatorThread(coordinator)
    handle.start()
    fleet: list[WorkerThread] = []

    def spawn(worker_id: str, crash_after: Optional[int] = None) -> None:
        fleet.append(WorkerThread(WorkerConfig(
            coordinator=handle.url, worker_id=worker_id, jobs=jobs_per_worker,
            crash_after=crash_after,
        )).start())

    with process_pool(jobs_per_worker):
        try:
            for i in range(workers):
                spawn(f"local-{i}", depart_after if i == 0 else None)
            join_at = None if join_after is None else time.monotonic() + join_after
            deadline = None if timeout is None else time.monotonic() + timeout
            while not coordinator.wait(0.05):
                now = time.monotonic()
                if join_at is not None and now >= join_at:
                    spawn(f"local-join-{len(fleet)}")
                    join_at = None
                if deadline is not None and now > deadline:
                    raise ClusterError(
                        f"run {coordinator.run_id} did not complete within {timeout:g}s"
                    )
                if join_at is None and not any(w.alive for w in fleet):
                    raise ClusterError(
                        f"all {len(fleet)} workers exited with run {coordinator.run_id} "
                        f"incomplete: {coordinator.leases.snapshot()}"
                    )
            return coordinator.result(timeout=0.0)
        finally:
            coordinator.drain()
            for w in fleet:
                w.stop(timeout=10.0)
            handle.stop()


def run_sweep_cluster_from_callable(
    fn: Callable[..., Any],
    points: Sequence[Mapping[str, Any]],
    *,
    seed: Optional[int] = None,
    label: str = "sweep-point",
    result_version: Optional[int] = None,
    **options: Any,
) -> SweepResult:
    """Distribute an in-process sweep callable across local workers.

    ``fn`` must be clusterable — a module-level function or a keyword
    :func:`functools.partial` of one with JSON-safe bindings (see
    :func:`repro.cluster.protocol.task_from_callable`, whose
    :class:`ValueError` propagates).  Same signature spirit as
    ``run_sweep(fn, points, seed=..., label=...)``, same bytes out;
    ``result_version`` goes into the chunk cache keys, and ``options``
    are :func:`run_sweep_cluster`'s.
    """
    task = task_from_callable(fn, seed=seed, label=label, result_version=result_version)
    return run_sweep_cluster(task, points, **options)
