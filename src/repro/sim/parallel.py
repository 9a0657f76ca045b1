"""Process-pool execution engine for parameter sweeps.

The paper's validation (§4, Figures 4–6) rests on exhaustive N × C × W
grids of 1000–10000-sample Monte Carlo runs.  Each grid point is
independent, so the sweep is embarrassingly parallel — but naive
parallelism breaks reproducibility if randomness leaks from worker
identity, chunk layout, or completion order.  This engine keeps the
determinism contract of :func:`repro.sim.sweep.run_sweep`:

* every point's randomness derives only from its coordinates (via
  :func:`repro.util.rng.point_seed` when ``seed`` is given, or from the
  point's own config seed otherwise), and
* outcomes are reassembled in grid order regardless of which worker
  finished first,

so ``run_sweep_parallel(fn, points, jobs=k)`` is bit-identical to the
serial runner for every ``k`` and ``chunk_size``.

Robustness: a point that raises is retried up to ``retries`` times and then recorded as a :class:`SweepFailure` outcome;
a worker that dies mid-chunk (segfault, ``os._exit``) breaks the pool,
which the engine rebuilds, re-running the lost points in isolated
single-worker pools so one poisoned point cannot take its chunk-mates
down with it.  The run always completes with a full-length
:class:`~repro.sim.sweep.SweepResult` — never a hang or a partial grid.

One pool serves every chunk it is handed, and ``on_chunk`` hears of
each as soon as all its points settle cleanly: that is how
:func:`repro.sim.sweep.run_grid` checkpoints a grid from one pool.
"""

from __future__ import annotations

import time
import traceback
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping, Optional, Sequence

from repro.sim.sweep import SweepResult, SweepSink, _call_point

__all__ = [
    "SweepFailure",
    "SweepTelemetry",
    "first_failure",
    "raise_first_failure",
    "run_sweep_parallel",
]

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
    """Observability record of one parallel sweep.

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


def run_sweep_parallel(
    fn: Callable[..., Any],
    points: Iterable[Mapping[str, Any]],
    *,
    jobs: int = 1,
    chunk_size: Optional[int] = None,
    seed: Optional[int] = None,
    label: str = "sweep-point",
    retries: int = 1,
    progress: Optional[Callable[[int, int], None]] = None,
    chunks: Optional[Sequence[Any]] = None,
    on_chunk: Optional[Callable[[Any, list[Any]], None]] = None,
) -> SweepResult:
    """Evaluate ``fn(**point)`` at every grid point on a process pool.

    Bit-identical to :func:`repro.sim.sweep.run_sweep` with the same
    ``seed``/``label``, for any ``jobs`` and ``chunk_size``: each point's
    randomness is sharded by coordinates, and outcomes are reassembled in
    grid order.  ``fn`` must be picklable (a module-level function or a
    :func:`functools.partial` of one).

    Parameters
    ----------
    fn:
        Point evaluator, called as ``fn(**point)`` (plus ``seed=`` when
        ``seed`` is given).
    points:
        The grid, e.g. from :func:`repro.sim.sweep.sweep_grid`.
    jobs:
        Worker processes (>= 1).
    chunk_size:
        Points per submitted task; the default,
        :func:`repro.cluster.protocol.default_chunk_size`, splits the
        grid into about four chunks per worker to balance scheduling
        overhead against tail latency.
    seed:
        Master seed; when given, each call receives an independent
        ``seed=`` keyword from :func:`repro.util.rng.point_seed`.
    label:
        Stream label folded into each point's derived seed.
    retries:
        Re-executions allowed per point before recording a
        :class:`SweepFailure`.
    progress:
        Optional callback ``progress(done, total)`` invoked from the
        driving process as points settle.
    chunks:
        The :class:`~repro.cluster.protocol.ChunkSpec` slices of the
        grid to evaluate (default: all of it, by ``chunk_size``); the
        points outside them keep a ``None`` outcome.
    on_chunk:
        Optional callback ``on_chunk(chunk, outcomes)`` invoked from the
        driving process once a chunk's points all settle cleanly.

    Returns
    -------
    SweepResult
        Points in grid order; failed points carry a
        :class:`SweepFailure` outcome.  ``result.telemetry`` holds a
        :class:`SweepTelemetry` over the evaluated points.
    """
    from repro.cluster.protocol import chunk_grid, default_chunk_size

    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if retries < 0:
        raise ValueError(f"retries must be non-negative, got {retries}")

    grid = [dict(point) for point in points]
    if chunk_size is None:
        chunk_size = default_chunk_size(len(grid), jobs)
    if chunks is None:
        chunks = chunk_grid(len(grid), chunk_size)
    owner = {i: chunk for chunk in chunks for i in range(chunk.start, chunk.stop)}
    n = len(owner)
    unsettled = {chunk: chunk.count for chunk in chunks}

    start = time.perf_counter()
    sink = SweepSink(grid)
    durations = [0.0] * len(grid)
    attempts = [0] * len(grid)
    failures = 0
    retries_used = 0
    settled = 0

    def note_progress() -> None:
        if progress is not None:
            progress(settled, n)

    todo: deque[list[tuple[int, dict[str, Any]]]] = deque(
        [(i, grid[i]) for i in range(chunk.start, chunk.stop)] for chunk in chunks
    )

    def record(index: int, result: Optional[tuple[str, Any, float]]) -> None:
        """Settle one point from its final worker triple (``None``: crashed)."""
        nonlocal failures, settled
        status, payload, seconds = result or ("crash", _CRASH_MESSAGE, 0.0)
        durations[index] += seconds
        outcome = payload if status == "ok" else SweepFailure(
            dict(grid[index]), status, payload, attempts[index]
        )
        failures += status != "ok"
        sink.fill(index, outcome)
        settled += 1
        chunk = owner[index]
        unsettled[chunk] -= 1
        if on_chunk is not None and not unsettled[chunk]:
            outcomes = sink.outcomes[chunk.start:chunk.stop]
            if not any(isinstance(o, SweepFailure) for o in outcomes):
                on_chunk(chunk, outcomes)

    def retry_isolated(index: int, point: dict[str, Any]) -> Optional[tuple[str, Any, float]]:
        """Re-run one crash-affected point in throwaway one-worker pools.

        Isolation means a point that kills its worker only ever takes
        itself down; innocent chunk-mates settle on their first isolated
        attempt. Returns the final worker triple, or ``None`` if every
        remaining attempt died.
        """
        nonlocal retries_used
        last: Optional[tuple[str, Any, float]] = None
        while attempts[index] < 1 + retries:
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

    executor = ProcessPoolExecutor(max_workers=jobs) if todo else None
    in_flight: dict[Future, list[tuple[int, dict[str, Any]]]] = {}
    try:
        while todo or in_flight:
            crashed: list[list[tuple[int, dict[str, Any]]]] = []
            while todo:
                chunk = todo.popleft()
                for index, _ in chunk:
                    attempts[index] += 1
                try:
                    future = executor.submit(_run_chunk, fn, chunk, seed, label)
                except Exception:  # pool already broken: recover below
                    for index, _ in chunk:
                        attempts[index] -= 1
                    crashed.append(chunk)
                    break
                in_flight[future] = chunk

            if not crashed and in_flight:
                done, _ = wait(list(in_flight), return_when=FIRST_COMPLETED)
                for future in done:
                    chunk = in_flight.pop(future)
                    try:
                        results = future.result()
                    except BrokenProcessPool:
                        crashed.append(chunk)
                        continue
                    for index, triple in results:
                        if triple[0] != "ok" and attempts[index] < 1 + retries:
                            durations[index] += triple[2]
                            retries_used += 1
                            todo.append([(index, grid[index])])
                        else:
                            record(index, triple)
                    note_progress()

            if crashed:
                # The pool is broken; every in-flight chunk is lost too.
                crashed.extend(in_flight.values())
                in_flight.clear()
                _abandon(executor)
                for chunk in crashed:
                    for index, point in chunk:
                        record(index, retry_isolated(index, point))
                        note_progress()
                executor = ProcessPoolExecutor(max_workers=jobs)
    finally:
        if executor is not None:
            _abandon(executor)

    telemetry = SweepTelemetry(
        jobs=jobs,
        chunk_size=chunk_size,
        n_points=n,
        wall_seconds=time.perf_counter() - start,
        point_seconds=tuple(durations[i] for i in owner),
        failures=failures,
        retries=retries_used,
    )
    return sink.result(telemetry)
