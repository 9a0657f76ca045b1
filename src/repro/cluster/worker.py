"""Cluster worker: claims leases, evaluates chunks, submits results.

A worker is a plain synchronous loop around the coordinator protocol:

1. ``GET /cluster/v1/spec`` — learn the run (task, grid, chunking, ttl).
2. ``POST /cluster/v1/lease`` — claim the next chunk, or learn to wait.
3. Evaluate the chunk through :func:`repro.sim.sweep.run_grid` — the
   executor every surface uses, serial or on the worker's one
   ``jobs``-process pool, held for its whole lease loop —
   so per-point seeds, and therefore outcomes, are byte-identical to a
   single-machine run.
4. ``POST /cluster/v1/result`` — submit outcomes (idempotent on the
   coordinator; a duplicate is acknowledged and discarded).

A background heartbeat thread renews held leases every ``ttl / 3``
seconds; if the worker dies, heartbeats stop, the lease expires, and the
coordinator reassigns the chunk.  ``crash_after`` deliberately simulates
that death (claim a lease, then vanish) for fault-injection tests and
the CI smoke job.
"""

from __future__ import annotations

import contextvars
import threading
import uuid
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.cluster.client import ClusterClient, CoordinatorError, CoordinatorUnavailable
from repro.cluster.protocol import (
    ChunkSpec,
    HEARTBEAT_PATH,
    LEASE_PATH,
    RESULT_PATH,
    SPEC_PATH,
    SweepSpec,
)
from repro.sim.parallel import first_failure, process_pool
from repro.sim.sweep import run_grid

__all__ = ["ClusterWorker", "WorkerConfig", "WorkerThread", "run_worker"]


def _default_worker_id() -> str:
    return f"worker-{uuid.uuid4().hex[:8]}"


@dataclass
class WorkerConfig:
    """Tuning for one cluster worker.

    Attributes
    ----------
    coordinator:
        ``http://host:port`` of the coordinator.
    worker_id:
        Stable identity used in leases and liveness tracking; generated
        when omitted.
    jobs:
        In-worker parallelism: 1 evaluates chunks serially; more fans
        each chunk out over one process pool of that size, kept for the
        worker's whole run (requires a picklable point function).
    poll_interval:
        Sleep between lease polls while the run has work outstanding
        but nothing currently claimable.
    request_timeout:
        Socket timeout per coordinator request.
    crash_after:
        Fault injection: after completing this many chunks, claim one
        more lease and exit without submitting or heartbeating —
        simulating a worker killed mid-chunk.  ``None`` disables.
    """

    coordinator: str = "http://127.0.0.1:8642"
    worker_id: str = field(default_factory=_default_worker_id)
    jobs: int = 1
    poll_interval: float = 0.05
    request_timeout: float = 30.0
    crash_after: Optional[int] = None

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        if self.poll_interval <= 0:
            raise ValueError(f"poll_interval must be positive, got {self.poll_interval}")
        if self.crash_after is not None and self.crash_after < 0:
            raise ValueError(f"crash_after must be >= 0, got {self.crash_after}")


class ClusterWorker:
    """One worker node's claim/evaluate/submit loop."""

    def __init__(self, config: WorkerConfig) -> None:
        self.config = config
        self._stop = threading.Event()
        self._held_lock = threading.Lock()
        self._held: set[str] = set()
        self._spec: Optional[SweepSpec] = None

    def request_stop(self) -> None:
        """Ask the loop to exit after the in-flight chunk (thread-safe)."""
        self._stop.set()

    # -- main loop ----------------------------------------------------

    def run(self) -> dict[str, Any]:
        """Claim and evaluate chunks until the run finishes.

        Returns a summary dict: chunks/points completed, failures seen,
        whether a crash was injected, and the final run state observed.
        """
        cfg = self.config
        client = ClusterClient(cfg.coordinator, timeout=cfg.request_timeout)
        summary: dict[str, Any] = {
            "worker": cfg.worker_id,
            "chunks_completed": 0,
            "points_completed": 0,
            "chunks_errored": 0,
            "crashed": False,
            "state": "unknown",
        }
        try:
            spec = SweepSpec.from_wire(client.get(SPEC_PATH))
        except (CoordinatorError, CoordinatorUnavailable) as exc:
            summary["state"] = f"no-spec: {exc}"
            client.close()
            return summary
        self._spec = spec
        fn = spec.task.bind()
        heartbeat = threading.Thread(
            target=self._heartbeat_loop,
            args=(spec,),
            name=f"{cfg.worker_id}-heartbeat",
            daemon=True,
        )
        heartbeat.start()
        try:
            with process_pool(cfg.jobs):
                while not self._stop.is_set():
                    try:
                        reply = client.post(
                            LEASE_PATH, {"worker": cfg.worker_id, "run_id": spec.run_id}
                        )
                    except (CoordinatorError, CoordinatorUnavailable) as exc:
                        summary["state"] = f"lost-coordinator: {exc}"
                        break
                    state = reply.get("state")
                    if state == "lease":
                        if (
                            cfg.crash_after is not None
                            and summary["chunks_completed"] >= cfg.crash_after
                        ):
                            # Injected death: hold the lease, stop heartbeating,
                            # never submit.  The coordinator must recover.
                            summary["crashed"] = True
                            summary["state"] = "crashed"
                            return summary
                        self._execute(client, spec, fn, reply, summary)
                    elif state == "wait":
                        if self._stop.wait(cfg.poll_interval):
                            break
                    else:  # done / failed / anything terminal
                        summary["state"] = str(state)
                        break
                else:
                    summary["state"] = "stopped"
            if summary["state"] == "unknown":
                summary["state"] = "stopped"
        finally:
            self._stop.set()
            heartbeat.join(timeout=5.0)
            client.close()
        return summary

    # -- chunk execution ----------------------------------------------

    def _execute(self, client: ClusterClient, spec: SweepSpec, fn: Any,
                 reply: dict[str, Any], summary: dict[str, Any]) -> None:
        lease_id = str(reply["lease"]["id"])
        chunk = ChunkSpec.from_wire(reply["chunk"])
        points = spec.points(chunk)
        with self._held_lock:
            self._held.add(lease_id)
        try:
            try:
                result = run_grid(
                    fn, points, jobs=self.config.jobs,
                    seed=spec.task.seed, label=spec.task.label,
                )
                # A pool records a failed point instead of raising it;
                # report it the way a serial run's exception is.
                failure = first_failure(result)
                detail = None if failure is None else failure.summary
            except Exception as exc:  # point function failed — report it
                detail = f"{type(exc).__name__}: {exc}"
            if detail is not None:
                summary["chunks_errored"] += 1
                self._submit(client, spec, lease_id, chunk, ok=False, detail=detail)
                return
            self._submit(client, spec, lease_id, chunk, ok=True,
                         outcomes=list(result.outcomes))
            summary["chunks_completed"] += 1
            summary["points_completed"] += chunk.count
        finally:
            with self._held_lock:
                self._held.discard(lease_id)

    def _submit(self, client: ClusterClient, spec: SweepSpec, lease_id: str,
                chunk: ChunkSpec, *, ok: bool,
                outcomes: Optional[list[Any]] = None,
                detail: str = "") -> None:
        payload: dict[str, Any] = {
            "worker": self.config.worker_id,
            "run_id": spec.run_id,
            "lease_id": lease_id,
            "chunk_index": chunk.index,
            "ok": ok,
        }
        if ok:
            payload["outcomes"] = outcomes
        else:
            payload["detail"] = detail
        try:
            client.post(RESULT_PATH, payload)
        except (CoordinatorError, CoordinatorUnavailable):
            pass  # the lease will expire and the chunk will be reassigned

    # -- heartbeats ---------------------------------------------------

    def _heartbeat_loop(self, spec: SweepSpec) -> None:
        # Dedicated connection: the main loop's is busy mid-request.
        client = ClusterClient(
            self.config.coordinator, timeout=self.config.request_timeout, retries=1
        )
        period = max(spec.lease_ttl / 3.0, 0.01)
        try:
            while not self._stop.wait(period):
                with self._held_lock:
                    held = sorted(self._held)
                if not held:
                    continue
                try:
                    client.post(HEARTBEAT_PATH, {
                        "worker": self.config.worker_id,
                        "run_id": spec.run_id,
                        "leases": held,
                    })
                except (CoordinatorError, CoordinatorUnavailable):
                    pass  # transient; the next beat retries
        finally:
            client.close()


def run_worker(config: WorkerConfig) -> dict[str, Any]:
    """Run one worker to completion; returns its summary dict."""
    return ClusterWorker(config).run()


class WorkerThread:
    """A :class:`ClusterWorker` on a background thread.

    The shape tests and service-local cluster mode need: start N of
    these against an in-process coordinator, join them, read summaries.
    The loop runs in a copy of its creator's context, so the workers of
    one fleet share the fleet's :func:`~repro.sim.parallel.process_pool`.
    """

    def __init__(self, config: WorkerConfig) -> None:
        self.worker = ClusterWorker(config)
        self.summary: Optional[dict[str, Any]] = None
        self._thread = threading.Thread(
            target=contextvars.copy_context().run, args=(self._run,),
            name=config.worker_id, daemon=True,
        )

    def _run(self) -> None:
        self.summary = self.worker.run()

    def start(self) -> "WorkerThread":
        """Start the worker loop."""
        self._thread.start()
        return self

    def join(self, timeout: Optional[float] = None) -> Optional[dict[str, Any]]:
        """Wait for the worker to finish; returns its summary (or None)."""
        self._thread.join(timeout)
        return self.summary

    def stop(self, timeout: float = 10.0) -> Optional[dict[str, Any]]:
        """Request a graceful stop and join."""
        self.worker.request_stop()
        return self.join(timeout)

    @property
    def alive(self) -> bool:
        """Whether the worker loop is still running."""
        return self._thread.is_alive()
