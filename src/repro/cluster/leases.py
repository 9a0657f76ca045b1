"""Lease bookkeeping for the cluster coordinator.

The coordinator's fault envelope lives here: every chunk of the grid is
either pending, leased to exactly one worker, or done.  A lease is a
time-bounded claim — the worker must heartbeat before ``ttl`` elapses or
the chunk silently returns to the pending pool for reassignment (the
worker is presumed dead; if it was merely slow, its late result is still
accepted idempotently, because results are deterministic and keyed by
chunk index).  Chunks that fail or expire repeatedly are bounded by
``max_attempts``; exhausting a chunk fails the run rather than looping
forever on a poisoned point.

All methods are thread-safe (the coordinator's asyncio handlers and the
caller's wait loop touch the manager concurrently) and take time from an
injectable monotonic clock so tests can expire leases without sleeping.
"""

from __future__ import annotations

import threading
import uuid
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional

from repro.cluster.protocol import ChunkSpec

__all__ = ["ChunkExhausted", "Lease", "LeaseManager"]


class ChunkExhausted(Exception):
    """A chunk consumed every allowed attempt without completing."""

    def __init__(self, chunk: ChunkSpec, attempts: int, detail: str) -> None:
        super().__init__(
            f"chunk {chunk.index} (points [{chunk.start}, {chunk.stop})) failed "
            f"after {attempts} attempts: {detail}"
        )
        self.chunk = chunk
        self.attempts = attempts
        self.detail = detail


@dataclass(frozen=True)
class Lease:
    """One time-bounded claim on a chunk by a worker.

    Attributes
    ----------
    id:
        Opaque lease identifier; a reassigned chunk gets a fresh one, so
        a stale worker's heartbeats cannot keep the new lease alive.
    chunk:
        The claimed chunk.
    worker:
        Claiming worker's id.
    expires_at:
        Monotonic-clock expiry; heartbeats push it forward.
    attempt:
        1-based execution attempt this lease represents.
    granted_at:
        Monotonic-clock grant time; heartbeats do *not* move it, so it
        measures how long the chunk has been in flight — the signal the
        work-stealing policy ages leases by.
    """

    id: str
    chunk: ChunkSpec
    worker: str
    expires_at: float
    attempt: int
    granted_at: float = 0.0


class LeaseManager:
    """Tracks chunk states, lease expiry, retries, and worker liveness.

    Parameters
    ----------
    chunks:
        The run's chunk layout.
    ttl:
        Lease lifetime in seconds; a heartbeat resets the full ttl.
    max_attempts:
        Executions allowed per chunk (first try included) before the
        chunk — and therefore the run — is declared failed.
    clock:
        Monotonic time source (injectable for tests).
    steal_min_age:
        Work-stealing threshold in seconds: when no chunk is pending, an
        idle worker may *steal* (be granted a fresh lease for) the
        longest-in-flight chunk held by another worker, provided that
        lease has been outstanding at least this long.  The original
        holder keeps computing — whichever submission lands first wins
        and the loser is discarded as a duplicate, so stealing bounds
        straggler latency without ever perturbing results.  ``None``
        (the default) disables stealing.
    """

    def __init__(
        self,
        chunks: Iterable[ChunkSpec],
        *,
        ttl: float = 10.0,
        max_attempts: int = 3,
        clock: Callable[[], float] = None,  # type: ignore[assignment]
        steal_min_age: Optional[float] = None,
    ) -> None:
        if ttl <= 0:
            raise ValueError(f"ttl must be positive, got {ttl}")
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        if steal_min_age is not None and steal_min_age < 0:
            raise ValueError(f"steal_min_age must be >= 0, got {steal_min_age}")
        if clock is None:
            import time

            clock = time.monotonic
        self.ttl = ttl
        self.max_attempts = max_attempts
        self.steal_min_age = steal_min_age
        self._clock = clock
        self._lock = threading.Lock()
        self._chunks: dict[int, ChunkSpec] = {c.index: c for c in chunks}
        self._pending: list[int] = sorted(self._chunks)
        self._leases: dict[str, Lease] = {}          # lease id -> active lease
        self._by_chunk: dict[int, str] = {}          # chunk index -> lease id
        self._done: set[int] = set()
        self._attempts: dict[int, int] = {i: 0 for i in self._chunks}
        self._last_error: dict[int, str] = {}
        self._exhausted: Optional[ChunkExhausted] = None
        self._last_seen: dict[str, float] = {}       # worker id -> clock time
        self._completed_points: dict[str, int] = {}  # worker id -> points done
        self._expired_total = 0
        self._retries_total = 0
        self._duplicates_total = 0
        self._granted_total = 0
        self._stolen_total = 0

    # -- claims -------------------------------------------------------

    def claim(self, worker: str) -> Optional[Lease]:
        """Hand the next pending chunk to ``worker``, or ``None``.

        Expired leases are swept first, so an idle worker polling for
        work is also what drives reassignment of dead workers' chunks.
        When the pending pool is empty and ``steal_min_age`` is set, an
        aged in-flight chunk held by another worker may be stolen
        instead (see :meth:`_steal_locked`).  Raises
        :class:`ChunkExhausted` once any chunk has burned through its
        attempts — the run cannot complete.
        """
        now = self._clock()
        with self._lock:
            self._expire_locked(now)
            self._raise_if_exhausted_locked()
            self._last_seen[worker] = now
            if not self._pending:
                return self._steal_locked(worker, now)
            index = self._pending.pop(0)
            self._attempts[index] += 1
            if self._attempts[index] > 1:
                self._retries_total += 1
            lease = Lease(
                id=uuid.uuid4().hex[:16],
                chunk=self._chunks[index],
                worker=worker,
                expires_at=now + self.ttl,
                attempt=self._attempts[index],
                granted_at=now,
            )
            self._leases[lease.id] = lease
            self._by_chunk[index] = lease.id
            self._granted_total += 1
            return lease

    def _steal_locked(self, worker: str, now: float) -> Optional[Lease]:
        """Reassign the longest-in-flight straggler lease to ``worker``.

        A steal revokes the victim lease (its holder's heartbeats will
        report it lost) and issues a fresh lease for the same chunk to
        the idle worker.  The original holder usually keeps computing;
        completion is idempotent by chunk index and outcomes are
        deterministic, so the race is benign — first submission wins,
        the other is discarded as a duplicate.  Steals do not count as
        attempts: they are reassignment for latency, not failure
        recovery, and must never push a healthy chunk toward
        :class:`ChunkExhausted`.
        """
        if self.steal_min_age is None:
            return None
        candidates = [
            lease
            for lease in self._leases.values()
            if lease.worker != worker
            and lease.chunk.index not in self._done
            and now - lease.granted_at >= self.steal_min_age
        ]
        if not candidates:
            return None
        victim = min(candidates, key=lambda l: (l.granted_at, l.chunk.index))
        self._release_locked(victim.chunk.index)
        lease = Lease(
            id=uuid.uuid4().hex[:16],
            chunk=victim.chunk,
            worker=worker,
            expires_at=now + self.ttl,
            attempt=self._attempts[victim.chunk.index],
            granted_at=now,
        )
        self._leases[lease.id] = lease
        self._by_chunk[victim.chunk.index] = lease.id
        self._granted_total += 1
        self._stolen_total += 1
        return lease

    def heartbeat(self, worker: str, lease_ids: Iterable[str]) -> dict[str, list[str]]:
        """Renew the given leases; report which are still live vs lost.

        A lease is *lost* when it expired (and was possibly reassigned)
        or never existed; the worker should abandon that chunk's
        submission urgency — though a late submission is still safe.
        """
        now = self._clock()
        with self._lock:
            self._expire_locked(now)
            self._last_seen[worker] = now
            renewed: list[str] = []
            lost: list[str] = []
            for lease_id in lease_ids:
                lease = self._leases.get(lease_id)
                if lease is None or lease.worker != worker:
                    lost.append(lease_id)
                    continue
                self._leases[lease_id] = Lease(
                    id=lease.id,
                    chunk=lease.chunk,
                    worker=lease.worker,
                    expires_at=now + self.ttl,
                    attempt=lease.attempt,
                    granted_at=lease.granted_at,
                )
                renewed.append(lease_id)
            return {"renewed": renewed, "lost": lost}

    # -- completion ---------------------------------------------------

    def complete(self, chunk_index: int, worker: str, *, points: int = 0) -> str:
        """Record a finished chunk; returns ``"fresh"`` or ``"duplicate"``.

        Idempotent by chunk index: the first submission wins, any later
        one (a slow worker whose lease expired and was reassigned, a
        retransmission) is acknowledged and discarded.  A submission for
        an expired-but-unreassigned lease is accepted — outcomes are
        deterministic, so the bytes are the same no matter who computed
        them.  Raises :class:`KeyError` for an unknown chunk index.
        """
        now = self._clock()
        with self._lock:
            if chunk_index not in self._chunks:
                raise KeyError(f"unknown chunk index {chunk_index}")
            self._last_seen[worker] = now
            if chunk_index in self._done:
                self._duplicates_total += 1
                return "duplicate"
            self._done.add(chunk_index)
            self._completed_points[worker] = (
                self._completed_points.get(worker, 0) + points
            )
            self._release_locked(chunk_index)
            if chunk_index in self._pending:
                self._pending.remove(chunk_index)
            self._last_error.pop(chunk_index, None)
            return "fresh"

    def fail(self, chunk_index: int, worker: str, detail: str) -> None:
        """Record a failed attempt; the chunk returns to the pool.

        Once attempts are exhausted the failure is latched and every
        subsequent :meth:`claim` raises :class:`ChunkExhausted`.
        """
        now = self._clock()
        with self._lock:
            if chunk_index not in self._chunks:
                raise KeyError(f"unknown chunk index {chunk_index}")
            self._last_seen[worker] = now
            if chunk_index in self._done:
                return  # someone else already finished it; nothing to do
            self._last_error[chunk_index] = detail
            self._release_locked(chunk_index)
            self._requeue_or_exhaust_locked(chunk_index)

    def mark_done(self, chunk_index: int) -> None:
        """Pre-complete a chunk (cache hit) so it is never dispatched."""
        with self._lock:
            if chunk_index not in self._chunks:
                raise KeyError(f"unknown chunk index {chunk_index}")
            self._done.add(chunk_index)
            if chunk_index in self._pending:
                self._pending.remove(chunk_index)
            self._release_locked(chunk_index)

    # -- inspection ---------------------------------------------------

    def expire_now(self) -> int:
        """Sweep expired leases immediately; returns how many lapsed."""
        with self._lock:
            return self._expire_locked(self._clock())

    def is_done(self, chunk_index: int) -> bool:
        """Whether ``chunk_index`` has a recorded result."""
        with self._lock:
            return chunk_index in self._done

    @property
    def done(self) -> bool:
        """True once every chunk has completed."""
        with self._lock:
            return len(self._done) == len(self._chunks)

    @property
    def failed(self) -> Optional[ChunkExhausted]:
        """The latched run-fatal failure, if any chunk exhausted."""
        with self._lock:
            return self._exhausted

    def outstanding(self) -> int:
        """Currently active (unexpired, uncompleted) leases."""
        with self._lock:
            return len(self._leases)

    def workers_live(self, horizon: Optional[float] = None) -> int:
        """Workers heard from within ``horizon`` seconds (default: ttl)."""
        horizon = self.ttl if horizon is None else horizon
        now = self._clock()
        with self._lock:
            return sum(1 for t in self._last_seen.values() if now - t <= horizon)

    def points_by_worker(self) -> dict[str, int]:
        """Completed grid points attributed to each worker."""
        with self._lock:
            return dict(self._completed_points)

    def snapshot(self) -> dict[str, Any]:
        """JSON-safe progress view for the status endpoint and metrics."""
        now = self._clock()
        with self._lock:
            return {
                "chunks": len(self._chunks),
                "done": len(self._done),
                "pending": len(self._pending),
                "leased": len(self._leases),
                "expired_total": self._expired_total,
                "retries_total": self._retries_total,
                "duplicates_total": self._duplicates_total,
                "granted_total": self._granted_total,
                "stolen_total": self._stolen_total,
                "workers": {
                    worker: {
                        "last_seen_seconds_ago": now - seen,
                        "points_completed": self._completed_points.get(worker, 0),
                    }
                    for worker, seen in self._last_seen.items()
                },
                "failed": str(self._exhausted) if self._exhausted else None,
            }

    # -- internals (caller holds the lock) ----------------------------

    def _release_locked(self, chunk_index: int) -> None:
        lease_id = self._by_chunk.pop(chunk_index, None)
        if lease_id is not None:
            self._leases.pop(lease_id, None)

    def _requeue_or_exhaust_locked(self, chunk_index: int) -> None:
        if self._attempts[chunk_index] >= self.max_attempts:
            if self._exhausted is None:
                self._exhausted = ChunkExhausted(
                    self._chunks[chunk_index],
                    self._attempts[chunk_index],
                    self._last_error.get(chunk_index, "lease expired"),
                )
        elif chunk_index not in self._pending:
            self._pending.append(chunk_index)

    def _expire_locked(self, now: float) -> int:
        lapsed = [
            lease for lease in self._leases.values() if lease.expires_at <= now
        ]
        for lease in lapsed:
            self._expired_total += 1
            self._release_locked(lease.chunk.index)
            self._last_error.setdefault(
                lease.chunk.index,
                f"lease {lease.id} (worker {lease.worker!r}) expired",
            )
            self._requeue_or_exhaust_locked(lease.chunk.index)
        return len(lapsed)

    def _raise_if_exhausted_locked(self) -> None:
        if self._exhausted is not None:
            raise self._exhausted
