"""The process pool behind :func:`repro.sim.sweep.run_grid`'s ``jobs > 1`` branch.

The paper's validation (§4, Figures 4–6) rests on exhaustive N × C × W
grids of Monte Carlo runs whose points are independent.  Parallelism
keeps the determinism contract of :func:`repro.sim.sweep.run_sweep`:
every point's randomness derives only from its coordinates (via
:func:`repro.util.rng.point_seed`), and outcomes land at their grid
indices whichever worker finishes first, so ``run_grid(fn, points,
jobs=k)`` is bit-identical to the serial runner for every ``k`` and
``chunk_size``.

A point that raises is retried up to :data:`RETRIES` times and then
recorded as a :class:`SweepFailure`; a worker that dies mid-chunk
(segfault, ``os._exit``) breaks the pool, which is replaced, and the
lost points re-run in isolated one-worker pools so a poisoned point
cannot take its chunk-mates down.  A run never hangs or returns a
partial grid.

:func:`process_pool` opens a scope whose one executor, started on the
first submit, serves every pool run inside it: an experiments run, an
in-process cluster fleet and a cluster worker each hold one, so worker
processes (and the caches they keep warm) live as long as the run.  A
``run_grid`` call outside any scope opens one for itself.
"""

from __future__ import annotations

import threading
import time
import traceback
from collections import deque
from concurrent.futures import FIRST_COMPLETED, CancelledError, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Mapping, Optional, Sequence

from repro.sim.sweep import SweepResult, SweepSink, _call_point

__all__ = [
    "SweepFailure",
    "SweepTelemetry",
    "first_failure",
    "process_pool",
    "raise_first_failure",
]

#: Re-executions allowed per point before it is recorded as a :class:`SweepFailure`.
RETRIES = 1
_CRASH_MESSAGE = "worker process died"


@dataclass(frozen=True)
class SweepFailure:
    """Recorded outcome of a grid point that could not be evaluated.

    Attributes
    ----------
    point:
        The grid point's coordinates.
    kind:
        ``"error"`` (``fn`` raised) or ``"crash"`` (the worker process
        died).
    error:
        Human-readable detail — a traceback for errors, a crash
        message otherwise.
    attempts:
        Executions consumed before giving up (1 + retries used).
    """

    point: dict[str, Any]
    kind: str
    error: str
    attempts: int

    @property
    def summary(self) -> str:
        """The last line of ``error`` — ``ValueError: ...`` when ``fn`` raised."""
        return self.error.strip().splitlines()[-1]


def first_failure(result: SweepResult) -> Optional[SweepFailure]:
    """The first point a run recorded as failed, or ``None`` for a clean run.

    Only pool runs record failures (their telemetry counts them); a
    serial run raises the point's own error instead.
    """
    if not getattr(result.telemetry, "failures", 0):
        return None
    return next(o for o in result.outcomes if isinstance(o, SweepFailure))


def raise_first_failure(result: SweepResult, name: str) -> None:
    """Raise a run's first recorded failure as a :class:`ValueError`.

    The message names the point and its error's last line, so a pool
    run fails as visibly as a serial run, whose point raises itself.
    """
    failure = first_failure(result)
    if failure is not None:
        raise ValueError(f"{name} point {failure.point} failed: {failure.summary}")


@dataclass(frozen=True)
class SweepTelemetry:
    """Observability record of one pool run.

    Attributes
    ----------
    jobs:
        Worker processes used.
    chunk_size:
        Grid points per submitted chunk.
    n_points:
        Total grid points.
    wall_seconds:
        End-to-end wall-clock time of the sweep.
    point_seconds:
        Per-point in-worker evaluation time, in grid order (summed over
        retries for retried points).
    failures:
        Points recorded as :class:`SweepFailure`.
    retries:
        Total re-executions performed (0 on a clean run).
    """

    jobs: int
    chunk_size: int
    n_points: int
    wall_seconds: float
    point_seconds: tuple[float, ...]
    failures: int
    retries: int

    @property
    def busy_seconds(self) -> float:
        """Total in-worker compute time across all points."""
        return float(sum(self.point_seconds))

    @property
    def points_per_second(self) -> float:
        """Sweep throughput over wall-clock time."""
        return self.n_points / self.wall_seconds if self.wall_seconds > 0 else 0.0

    @property
    def worker_utilization(self) -> float:
        """Busy fraction of the pool: busy time over ``jobs`` × wall."""
        if self.wall_seconds <= 0 or self.jobs <= 0:
            return 0.0
        return min(1.0, self.busy_seconds / (self.wall_seconds * self.jobs))

    def summary(self) -> str:
        """One-line human-readable digest for logs and CLI output."""
        return (
            f"{self.n_points} points in {self.wall_seconds:.2f}s "
            f"({self.points_per_second:.1f} pts/s, jobs={self.jobs}, "
            f"util={self.worker_utilization:.0%}, "
            f"retries={self.retries}, failures={self.failures})"
        )


def _abandon(executor: ProcessPoolExecutor) -> None:
    """Tear a pool down without waiting for in-flight work.

    ``shutdown(wait=False)`` alone is not enough for a prompt exit: the
    interpreter's atexit hooks still join the pool's workers and flush
    its call-queue feeder thread, so a Ctrl-C mid-sweep would hang until
    every in-flight chunk finished. Killing the workers and then joining
    the executor's manager thread (private attributes, hence the
    defensive getattr) makes abort — and normal teardown, where the
    workers are idle — prompt.

    Joining the manager matters beyond promptness: it is what closes
    the call queue and its feeder thread.  A pool that is merely
    abandoned keeps the queue's OS resources (a semaphore and a pipe)
    alive until garbage collection, so repeated crash recoveries — each
    abandoning a broken pool and building a fresh one — would
    accumulate semaphores until the process hits its file-descriptor or
    semaphore limit.  Closing the queue ourselves is the fallback for
    the manager not exiting in time.
    """
    # Snapshot first: shutdown() drops these references even with
    # wait=False, and killing nothing is how sweeps used to hang.
    processes = list((getattr(executor, "_processes", None) or {}).values())
    call_queue = getattr(executor, "_call_queue", None)
    manager = getattr(executor, "_executor_manager_thread", None)
    executor.shutdown(wait=False, cancel_futures=True)
    for process in processes:
        try:
            process.kill()
        except Exception:
            pass
    # With the workers dead, the manager thread unblocks, closes the
    # call queue, joins the feeder, and exits — give it a bounded wait.
    if manager is not None:
        manager.join(timeout=5.0)
    if call_queue is not None:
        if manager is None or not manager.is_alive():
            # Manager is gone; make sure the queue really released its
            # feeder thread and OS handles (idempotent if it already did).
            try:
                call_queue.close()
                call_queue.join_thread()
            except Exception:
                pass
        else:
            # Manager is stuck mid-teardown: the queue cannot be closed
            # safely (the manager still puts sentinels into it), so at
            # least keep interpreter exit from blocking on the feeder.
            try:
                call_queue.cancel_join_thread()
            except Exception:
                pass
    # Reap the killed workers so abandoned pools do not pile up zombies.
    for process in processes:
        try:
            process.join(timeout=1.0)
        except Exception:
            pass


def _run_point(
    fn: Callable[..., Any],
    point: Mapping[str, Any],
    seed: Optional[int],
    label: str,
) -> tuple[str, Any, float]:
    """Worker-side evaluation of one point: (status, payload, seconds).

    ``status`` is ``"ok"`` (payload = outcome) or ``"error"`` (payload =
    traceback text).
    """
    start = time.perf_counter()
    try:
        value = _call_point(fn, point, seed, label)
        return ("ok", value, time.perf_counter() - start)
    except Exception:
        return ("error", traceback.format_exc(limit=16), time.perf_counter() - start)


def _run_chunk(
    fn: Callable[..., Any],
    chunk: list[tuple[int, dict[str, Any]]],
    seed: Optional[int],
    label: str,
) -> list[tuple[int, tuple[str, Any, float]]]:
    """Worker-side evaluation of a chunk of indexed points."""
    return [(index, _run_point(fn, point, seed, label)) for index, point in chunk]


class _PoolScope:
    """The one executor of a :func:`process_pool` block, shared by its threads."""

    def __init__(self, jobs: int) -> None:
        self.jobs = jobs
        self.lock = threading.Lock()
        self.executor: Optional[ProcessPoolExecutor] = None

    def start(self) -> ProcessPoolExecutor:
        """The scope's executor, started now if there is none."""
        with self.lock:
            if self.executor is None:
                self.executor = ProcessPoolExecutor(max_workers=self.jobs)
            return self.executor

    def discard(self, executor: Optional[ProcessPoolExecutor]) -> None:
        """Abandon ``executor`` unless another run already replaced it."""
        with self.lock:
            if executor is None or executor is not self.executor:
                return
            self.executor = None
        _abandon(executor)


_SCOPE: ContextVar[Optional[_PoolScope]] = ContextVar("repro_process_pool", default=None)


@contextmanager
def process_pool(jobs: int) -> Iterator[None]:
    """Run every ``run_grid(jobs=jobs)`` inside the block on one process pool.

    The pool starts on the first submit, so a block that runs nothing on
    it starts no process.  Runs in this context, and in threads started
    in a copy of it, share the pool, each with at most ``jobs`` chunks in
    flight.  It is replaced after a worker crash, and abandoned (workers
    killed) when a run leaves with chunks still in flight and when the
    block exits.  Inside a scope of the same width the block joins it.
    """
    current = _SCOPE.get()
    if current is not None and current.jobs == jobs:
        yield
        return
    scope = _PoolScope(jobs)
    token = _SCOPE.set(scope)
    try:
        yield
    finally:
        _SCOPE.reset(token)
        scope.discard(scope.executor)


def _run_on_pool(
    fn: Callable[..., Any],
    sink: SweepSink,
    chunks: Sequence[Any],
    settle: Callable[[Any, list[Any]], None],
    *,
    jobs: int,
    chunk_size: int,
    seed: Optional[int],
    label: str,
    progress: Optional[Callable[[int, int], None]],
) -> SweepResult:
    """Evaluate ``chunks`` of ``sink``'s grid on the scope's pool, ``jobs`` in flight.

    :func:`repro.sim.sweep.run_grid` calls this inside ``process_pool(jobs)``.
    Each chunk whose points all settle cleanly goes to ``settle(chunk,
    outcomes)``; a chunk with a failed point never does, and the result
    is then list-backed, holding a :class:`SweepFailure` at each failed
    index (and, when ``sink`` has no frame, every settled outcome).
    ``result.telemetry`` is a :class:`SweepTelemetry` over the
    evaluated points; ``progress(done, total)`` hears of them as they settle.
    """
    scope = _SCOPE.get()
    assert scope is not None, "run inside process_pool()"
    rows = sink.points
    start = time.perf_counter()
    durations = [0.0] * len(rows)
    attempts = [0] * len(rows)
    pending = {chunk: [None] * chunk.count for chunk in chunks}
    unsettled = {chunk: chunk.count for chunk in chunks}
    failed: dict[Any, list[Any]] = {}
    failures = retries_used = settled = 0
    total = sum(unsettled.values())
    report = progress or (lambda done, total: None)
    todo = deque(  # units of work: (chunk, its indexed points)
        (chunk, [(i, rows[i]) for i in range(chunk.start, chunk.stop)]) for chunk in chunks
    )

    def record(chunk: Any, index: int, result: Optional[tuple[str, Any, float]]) -> None:
        """Settle one point from its final worker triple (``None``: crashed)."""
        nonlocal failures, settled
        status, payload, seconds = result or ("crash", _CRASH_MESSAGE, 0.0)
        durations[index] += seconds
        failures += status != "ok"
        pending[chunk][index - chunk.start] = payload if status == "ok" else SweepFailure(
            dict(rows[index]), status, payload, attempts[index]
        )
        settled += 1
        unsettled[chunk] -= 1
        if not unsettled[chunk]:
            outcomes = pending.pop(chunk)
            if any(isinstance(o, SweepFailure) for o in outcomes):
                failed[chunk] = outcomes
            else:
                settle(chunk, outcomes)

    def retry_isolated(index: int, point: dict[str, Any]) -> Optional[tuple[str, Any, float]]:
        """Re-run one crash-affected point in throwaway one-worker pools.

        Isolation means a point that kills its worker only ever takes
        itself down; innocent chunk-mates settle on their first isolated
        attempt. Returns the final worker triple, or ``None`` if every
        remaining attempt died.
        """
        nonlocal retries_used
        last: Optional[tuple[str, Any, float]] = None
        while attempts[index] < 1 + RETRIES:
            attempts[index] += 1
            retries_used += 1
            with ProcessPoolExecutor(max_workers=1) as solo:
                future = solo.submit(_run_chunk, fn, [(index, point)], seed, label)
                try:
                    [(_, triple)] = future.result()
                except BrokenProcessPool:
                    last = None
                    continue
            last = triple
            if triple[0] == "ok":
                return triple
        return last

    executor: Optional[ProcessPoolExecutor] = None
    in_flight: dict[Future, tuple[Any, list[tuple[int, dict[str, Any]]]]] = {}
    try:
        while todo or in_flight:
            crashed = []
            while todo and len(in_flight) < jobs:
                chunk, items = todo.popleft()
                executor = scope.start()
                try:
                    future = executor.submit(_run_chunk, fn, items, seed, label)
                except Exception:  # pool already broken: recover below
                    crashed.append((chunk, items))
                    break
                for index, _ in items:
                    attempts[index] += 1
                in_flight[future] = (chunk, items)

            if not crashed and in_flight:
                done, _ = wait(list(in_flight), return_when=FIRST_COMPLETED)
                for future in done:
                    chunk, items = in_flight.pop(future)
                    try:
                        results = future.result()
                    except (BrokenProcessPool, CancelledError):  # cancelled: another run's abandon
                        crashed.append((chunk, items))
                        continue
                    for index, triple in results:
                        if triple[0] != "ok" and attempts[index] < 1 + RETRIES:
                            durations[index] += triple[2]
                            retries_used += 1
                            todo.append((chunk, [(index, rows[index])]))
                        else:
                            record(chunk, index, triple)
                    report(settled, total)

            if crashed:
                # The pool is broken; every in-flight chunk is lost too.
                crashed.extend(in_flight.values())
                in_flight.clear()
                scope.discard(executor)
                for chunk, items in crashed:
                    for index, point in items:
                        record(chunk, index, retry_isolated(index, point))
                        report(settled, total)
    finally:
        if in_flight:  # leaving early: nothing may outlive the run
            scope.discard(executor)

    telemetry = SweepTelemetry(
        jobs=jobs, chunk_size=chunk_size, n_points=total,
        wall_seconds=time.perf_counter() - start,
        point_seconds=tuple(durations[i] for c in chunks for i in range(c.start, c.stop)),
        failures=failures, retries=retries_used,
    )
    if not failed:
        return sink.result(telemetry)
    outcomes = list(sink.outcomes) if sink.frame is None else [None] * len(rows)
    for chunk, chunk_outcomes in failed.items():
        outcomes[chunk.start:chunk.stop] = chunk_outcomes
    return SweepResult(rows, outcomes, telemetry)
