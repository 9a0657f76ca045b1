"""Tests for the process-pool sweep engine.

Two families:

* **Differential determinism** — for representative open-system and
  closed-system sweeps, ``run_grid(jobs=...)`` must be bit-identical to
  serial ``run_sweep`` for every ``jobs`` and ``chunk_size``, including
  point ordering and RNG-dependent outcomes.
* **Fault injection** — a raising point and a dead worker each exercise the retry/recovery path and still yield a
  complete :class:`SweepResult` with the failure recorded.
* **Execution policy** — :func:`run_grid` picks serial, pool or cluster
  from ``jobs``/``cluster`` alone, with identical outcomes in each.

All point functions live at module level so they pickle into workers.
"""

from __future__ import annotations

import os
import time

import pytest

import repro.sim.parallel as parallel
from repro.sim.closed_system import ClosedSystemConfig, simulate_closed_system
from repro.sim.open_system import OpenSystemConfig, simulate_open_system
from repro.sim.parallel import SweepFailure, SweepTelemetry
from repro.sim.sweep import run_grid, run_sweep, sweep_grid

JOBS = [1, 2, 4]


def open_point(n, w, samples=150, seed=3):
    """Open-system outcome at one (N, W) grid point."""
    return simulate_open_system(OpenSystemConfig(n, 2, w, samples=samples, seed=seed))


def closed_point(n, c, seed=3):
    """Closed-system outcome at one (N, C) grid point (short horizon)."""
    return simulate_closed_system(
        ClosedSystemConfig(
            n_entries=n, concurrency=c, write_footprint=4, target_transactions=30, seed=seed
        )
    )


def seeded_point(x, seed):
    """Echoes the injected per-point seed (tests the sharded-RNG path)."""
    return (x, seed)


def arith_point(a, b):
    """Deterministic arithmetic point, no RNG at all."""
    return a * 100 + b


def raise_on_two(x):
    """Fails deterministically at x == 2."""
    if x == 2:
        raise RuntimeError("boom at x=2")
    return x


def sleep_on_one(x):
    """Blocks far past any test timeout at x == 1."""
    if x == 1:
        time.sleep(30)
    return x


def exit_on_three(x):
    """Kills the hosting worker process at x == 3."""
    if x == 3:
        os._exit(23)
    return x


class TestDifferentialDeterminism:
    """parallel ≡ serial, for every jobs/chunk_size combination."""

    @pytest.mark.parametrize("jobs", JOBS)
    def test_open_system_matches_serial(self, jobs):
        grid = sweep_grid(n=[256, 1024], w=[4, 8, 16])
        serial = run_sweep(open_point, grid)
        par = run_grid(open_point, grid, jobs=jobs)
        assert par.points == serial.points
        assert par.outcomes == serial.outcomes

    @pytest.mark.parametrize("jobs", JOBS)
    def test_closed_system_matches_serial(self, jobs):
        grid = sweep_grid(n=[128, 512], c=[2, 4])
        serial = run_sweep(closed_point, grid)
        par = run_grid(closed_point, grid, jobs=jobs)
        assert par.points == serial.points
        assert par.outcomes == serial.outcomes

    @pytest.mark.parametrize("jobs", JOBS)
    @pytest.mark.parametrize("chunk_size", [1, 2, 100])
    def test_sharded_seeds_independent_of_layout(self, jobs, chunk_size):
        grid = [{"x": i} for i in range(7)]
        serial = run_sweep(seeded_point, grid, seed=99)
        par = run_grid(seeded_point, grid, jobs=jobs, chunk_size=chunk_size, seed=99)
        assert par.outcomes == serial.outcomes

    def test_seed_changes_streams(self):
        grid = [{"x": i} for i in range(3)]
        a = run_grid(seeded_point, grid, jobs=2, seed=1)
        b = run_grid(seeded_point, grid, jobs=2, seed=2)
        assert a.outcomes != b.outcomes

    def test_point_order_preserved(self):
        grid = sweep_grid(a=[3, 1, 2], b=[9, 7])
        par = run_grid(arith_point, grid, jobs=4, chunk_size=1)
        assert par.points == grid
        assert par.outcomes == [a * 100 + b for a, b in ((3, 9), (3, 7), (1, 9), (1, 7), (2, 9), (2, 7))]

    def test_empty_grid(self):
        result = run_grid(arith_point, [], jobs=2)
        assert len(result) == 0
        assert result.telemetry is not None and result.telemetry.n_points == 0

    def test_generator_axis_grid_matches_serial(self):
        """Grids built from one-shot iterator axes sweep identically
        serially and in parallel (sweep_grid materializes them once)."""
        serial = run_sweep(arith_point, sweep_grid(a=range(3), b=(x for x in (7, 9))))
        par = run_grid(
            arith_point, sweep_grid(a=range(3), b=(x for x in (7, 9))), jobs=2
        )
        assert par.points == serial.points
        assert par.outcomes == serial.outcomes


class TestValidation:
    def test_bad_jobs_rejected(self):
        with pytest.raises(ValueError, match="jobs"):
            run_grid(arith_point, [{"a": 1, "b": 2}], jobs=0)

    def test_bad_chunk_size_rejected(self):
        with pytest.raises(ValueError, match="chunk_size"):
            run_grid(arith_point, [{"a": 1, "b": 2}], jobs=2, chunk_size=0)


class TestFaultInjection:
    def test_raising_point_recorded_after_retries(self):
        grid = [{"x": i} for i in range(4)]
        result = run_grid(raise_on_two, grid, jobs=2)  # parallel.RETRIES == 1
        failure = result.outcomes[2]
        assert isinstance(failure, SweepFailure)
        assert failure.kind == "error"
        assert failure.point == {"x": 2}
        assert failure.attempts == 2  # initial run + one retry
        assert "RuntimeError" in failure.error
        assert [result.outcomes[i] for i in (0, 1, 3)] == [0, 1, 3]
        assert result.telemetry.failures == 1
        assert result.telemetry.retries == 1

    def test_worker_death_recovered(self):
        grid = [{"x": i} for i in range(6)]
        result = run_grid(exit_on_three, grid, jobs=2, chunk_size=2)
        failure = result.outcomes[3]
        assert isinstance(failure, SweepFailure)
        assert failure.kind == "crash"
        assert failure.point == {"x": 3}
        # every other point survived the pool rebuild
        assert [result.outcomes[i] for i in (0, 1, 2, 4, 5)] == [0, 1, 2, 4, 5]
        assert result.telemetry.failures == 1

    def test_worker_death_with_no_retry_budget(self, monkeypatch):
        monkeypatch.setattr(parallel, "RETRIES", 2)
        grid = [{"x": i} for i in range(4)]
        result = run_grid(exit_on_three, grid, jobs=2, chunk_size=4)
        assert isinstance(result.outcomes[3], SweepFailure)
        assert all(result.outcomes[i] == i for i in (0, 1, 2))


class TestTelemetryAndProgress:
    def test_telemetry_shape(self):
        grid = sweep_grid(a=[1, 2], b=[3, 4, 5])
        result = run_grid(arith_point, grid, jobs=2)
        t = result.telemetry
        assert isinstance(t, SweepTelemetry)
        assert t.n_points == 6
        assert t.jobs == 2
        assert len(t.point_seconds) == 6
        assert t.wall_seconds > 0
        assert t.points_per_second > 0
        assert 0.0 <= t.worker_utilization <= 1.0
        assert t.failures == 0 and t.retries == 0

    def test_summary_line(self):
        result = run_grid(arith_point, [{"a": 1, "b": 2}], jobs=2)
        line = result.telemetry.summary()
        assert "1 points" in line and "jobs=2" in line and "failures=0" in line

    def test_progress_callback_reaches_total(self):
        calls = []
        grid = [{"a": i, "b": 0} for i in range(5)]
        run_grid(
            arith_point, grid, jobs=2, chunk_size=1, progress=lambda d, t: calls.append((d, t))
        )
        assert calls[-1] == (5, 5)
        assert all(t == 5 for _, t in calls)
        assert [d for d, _ in calls] == sorted(d for d, _ in calls)

    def test_serial_run_sweep_has_no_telemetry(self):
        result = run_sweep(arith_point, [{"a": 1, "b": 2}])
        assert result.telemetry is None


class TestRunGrid:
    """One executor, one policy: serial, pool or cluster, same outcomes."""

    GRID = [{"x": i} for i in range(7)]

    @pytest.mark.parametrize("jobs", [None, 1])
    def test_jobs_one_creates_no_pool(self, jobs, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("serial run created a process pool")

        monkeypatch.setattr(parallel, "ProcessPoolExecutor", no_pool)
        result = run_grid(seeded_point, self.GRID, jobs=jobs, seed=5, label="g")
        assert result.telemetry is None
        assert result.outcomes == run_sweep(
            seeded_point, self.GRID, seed=5, label="g"
        ).outcomes

    def test_pool_matches_serial_and_reports_progress(self):
        calls = []
        result = run_grid(
            seeded_point, self.GRID, jobs=2, seed=5, label="g",
            progress=lambda done, total: calls.append((done, total)),
        )
        assert isinstance(result.telemetry, SweepTelemetry)
        assert result.outcomes == run_sweep(
            seeded_point, self.GRID, seed=5, label="g"
        ).outcomes
        assert calls[-1] == (7, 7)

    @pytest.mark.parametrize("jobs", [None, 2])
    def test_cluster_matches_serial(self, jobs):
        # Cluster workers only import point functions from trusted
        # package modules, so use a sweep kind's bound point callable.
        from repro.sim.catalog import SWEEP_KINDS

        kind = SWEEP_KINDS["fig4a"]
        params = kind.validate({"n_values": [64, 128], "w_values": [2, 3], "samples": 20})
        fn, grid = kind.bind(params, 5), kind.grid(params)
        result = run_grid(fn, grid, jobs=jobs, cluster=2)
        assert result.telemetry.n_points == len(grid)
        assert result.outcomes == run_sweep(fn, grid).outcomes


class TestAbandonCleanup:
    """Abandoned pools must not leak processes, threads, or semaphores."""

    def test_repeated_abandon_leaks_nothing(self):
        import multiprocessing
        import threading
        from concurrent.futures import ProcessPoolExecutor

        from repro.sim.parallel import _abandon

        for _ in range(3):
            executor = ProcessPoolExecutor(max_workers=2)
            executor.submit(sleep_on_one, 1)  # a stuck task, as after a Ctrl-C
            time.sleep(0.2)  # let workers spawn and pick the task up
            _abandon(executor)

        deadline = time.monotonic() + 10
        while time.monotonic() < deadline and multiprocessing.active_children():
            time.sleep(0.05)
        assert multiprocessing.active_children() == []

        # The call-queue feeder and executor-manager threads must be gone
        # too — these pin the queue's semaphores/fds when leaked.
        while time.monotonic() < deadline:
            leftover = [
                t.name
                for t in threading.enumerate()
                if "QueueFeederThread" in t.name or "ExecutorManager" in t.name
            ]
            if not leftover:
                break
            time.sleep(0.05)
        assert not leftover
