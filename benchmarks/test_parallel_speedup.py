"""Parallel sweep engine — wall-clock speedup and equivalence.

The engine's contract is twofold: ``run_grid(jobs=...)`` must return
bit-identical results to serial ``run_sweep`` (checked here on the full
Figure 4(a) grid), and on multi-core hardware it must actually buy
wall-clock — the acceptance bar is >= 2x at ``jobs=4`` on a 4-core
machine. The speedup assertion is skipped where fewer than 4 cores are
available (pool overhead with nothing to fan out over proves nothing);
the equivalence assertion always runs.
"""

from __future__ import annotations

import os
import time

import pytest

from benchmarks.conftest import BENCH_SEED, emit
from repro.sim.open_system import OpenSystemConfig, simulate_open_system
from repro.sim.sweep import run_grid, run_sweep, sweep_grid

CORES = os.cpu_count() or 1
SAMPLES = 4000
GRID = dict(n=[512, 1024, 2048, 4096], w=[4, 8, 16, 24, 32])


def fig4a_point(n, w):
    """One Figure 4(a) point at benchmark resolution (picklable)."""
    r = simulate_open_system(OpenSystemConfig(n, 2, w, samples=SAMPLES, seed=BENCH_SEED))
    return r.conflict_probability


def test_parallel_matches_serial_full_grid(benchmark):
    """jobs=2 reproduces the serial Figure 4(a) grid bit-for-bit."""
    grid = sweep_grid(**GRID)
    serial = run_sweep(fig4a_point, grid)

    par = benchmark.pedantic(
        lambda: run_grid(fig4a_point, grid, jobs=2), rounds=1, iterations=1
    )

    assert par.points == serial.points
    assert par.outcomes == serial.outcomes
    emit(f"parallel engine equivalence: {par.telemetry.summary()}")


@pytest.mark.skipif(CORES < 4, reason=f"needs >= 4 cores for a 4-way speedup (have {CORES})")
def test_parallel_speedup_4_jobs(benchmark):
    """jobs=4 completes the Figure 4(a) grid >= 2x faster than serial."""
    grid = sweep_grid(**GRID)

    start = time.perf_counter()
    serial = run_sweep(fig4a_point, grid)
    serial_seconds = time.perf_counter() - start

    start = time.perf_counter()
    par = benchmark.pedantic(
        lambda: run_grid(fig4a_point, grid, jobs=4), rounds=1, iterations=1
    )
    parallel_seconds = time.perf_counter() - start

    assert par.outcomes == serial.outcomes
    speedup = serial_seconds / parallel_seconds
    emit(
        f"fig4a grid ({len(grid)} points, {SAMPLES} samples): "
        f"serial {serial_seconds:.2f}s, jobs=4 {parallel_seconds:.2f}s, "
        f"speedup {speedup:.2f}x; {par.telemetry.summary()}"
    )
    assert speedup >= 2.0, f"expected >= 2x speedup at jobs=4, got {speedup:.2f}x"
