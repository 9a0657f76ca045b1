"""One process pool per run: a scope's executor serves every run in it.

An experiments run, an in-process cluster fleet and a cluster worker
each hold one :func:`~repro.sim.parallel.process_pool`, so each builds
exactly one ``ProcessPoolExecutor`` however many figures or chunks it
runs, and none leaves a worker process behind.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro.cluster.coordinator import Coordinator, CoordinatorConfig, CoordinatorThread
from repro.cluster.worker import ClusterWorker, WorkerConfig
from repro.experiments import ExperimentsConfig, run_experiments
from repro.sim.catalog import SWEEP_KINDS
from repro.sim.parallel import process_pool
from repro.sim.sweep import run_grid, run_sweep
from tests.sim.test_grid_checkpoint import FIG4A, pools  # noqa: F401  (fixture)
from tests.sim.test_parallel import exit_on_three


def _fig4a():
    kind = SWEEP_KINDS["fig4a"]
    params = kind.validate(FIG4A)
    return kind, params, kind.bind(params, 3), kind.grid(params)


def test_experiments_run_holds_one_pool(pools, tmp_path):
    run = run_experiments(ExperimentsConfig(
        out_dir=tmp_path, quality="smoke", seed=7, figures=("fig4a", "placement"), jobs=2,
    ))
    assert [t.figure for t in run.figures if t.computed_chunks] == ["fig4a", "placement"]
    assert len(pools) == 1
    assert multiprocessing.active_children() == []


def test_cluster_figure_holds_one_pool(pools):
    _, _, fn, grid = _fig4a()
    result = run_grid(fn, grid, jobs=2, cluster=2, chunk_size=1)
    assert result.outcomes == run_sweep(fn, grid).outcomes
    assert len(pools) == 1
    assert len(pools[0].indices) >= len(grid)  # every chunk ran on it


def test_cluster_worker_holds_one_pool_and_leaves_no_workers(pools):
    kind, params, fn, grid = _fig4a()
    coordinator = Coordinator(kind.task(params, 3), grid, CoordinatorConfig(chunk_size=2))
    with CoordinatorThread(coordinator):
        summary = ClusterWorker(WorkerConfig(coordinator=coordinator.url, jobs=2)).run()
        result = coordinator.result(timeout=30)
    assert summary["chunks_completed"] == 3 and summary["chunks_errored"] == 0
    assert len(pools) == 1
    assert multiprocessing.active_children() == []
    assert result.outcomes == run_sweep(fn, grid).outcomes


def test_runs_in_a_scope_share_its_pool(pools):
    _, _, fn, grid = _fig4a()
    serial = run_sweep(fn, grid).outcomes
    with process_pool(2):
        assert not pools  # started on the first submit
        assert run_grid(fn, grid, jobs=2).outcomes == serial
        assert run_grid(fn, grid, jobs=2, chunk_size=1).outcomes == serial
        assert len(pools) == 1
        assert run_grid(fn, grid, jobs=3).outcomes == serial  # another width: its own pool
        assert len(pools) == 2
    assert multiprocessing.active_children() == []


def test_exception_inside_a_scoped_run_leaves_no_workers():
    _, _, fn, grid = _fig4a()

    def interrupt(done, total):
        raise RuntimeError("stop")

    with process_pool(2):
        with pytest.raises(RuntimeError, match="stop"):
            run_grid(fn, grid, jobs=2, chunk_size=1, progress=interrupt)
        # left with chunks in flight: the pool went with the run
        assert multiprocessing.active_children() == []
        assert run_grid(fn, grid, jobs=2).outcomes == run_sweep(fn, grid).outcomes
    assert multiprocessing.active_children() == []


def test_a_crash_replaces_the_scope_pool():
    grid = [{"x": i} for i in range(6)]
    with process_pool(2):
        crashed = run_grid(exit_on_three, grid, jobs=2, chunk_size=2)
        assert crashed.telemetry.failures == 1
        again = run_grid(exit_on_three, grid[:3], jobs=2)
        assert again.outcomes == [0, 1, 2] and again.telemetry.failures == 0
    assert multiprocessing.active_children() == []
