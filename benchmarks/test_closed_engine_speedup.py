"""Closed-system engines — fast-vs-reference speedup and equivalence.

The ``fast`` engine's contract is byte-identical results at a multiple
of the reference's speed.  This bench runs a Figure 5-shaped sweep
(N × W grid at fixed C, α) on both engines, asserts exact equality of
every point, and enforces the speedup bar in points per second:

* **full mode** (default): the paper-sized Figure 5 grid, >= 5x.
* **smoke mode** (``CLOSED_ENGINE_SMOKE=1``): a reduced grid with a
  relaxed >= 2x bar, for CI runners with noisy neighbours.
"""

from __future__ import annotations

import os
import time

from benchmarks.conftest import BENCH_SEED, emit
from repro.sim.closed_system import ClosedSystemConfig
from repro.sim.engines import get_engine
from repro.sim.sweep import sweep_grid

SMOKE = os.environ.get("CLOSED_ENGINE_SMOKE", "") not in ("", "0")

if SMOKE:
    GRID = dict(n=[1024, 4096], w=[8, 16])
    MIN_SPEEDUP = 2.0
else:
    GRID = dict(n=[1024, 4096, 16384], w=[8, 12, 16, 20])
    MIN_SPEEDUP = 5.0

CONCURRENCY = 8
ALPHA = 2


def _run_engine(name: str) -> tuple[list[tuple], float]:
    """All grid points on one engine: (result tuples, points/second)."""
    engine = get_engine("closed", name)
    grid = sweep_grid(**GRID)
    results = []
    start = time.perf_counter()
    for point in grid:
        r = engine(
            ClosedSystemConfig(
                n_entries=point["n"],
                concurrency=CONCURRENCY,
                write_footprint=point["w"],
                alpha=ALPHA,
                seed=BENCH_SEED,
            )
        )
        results.append(
            (r.conflicts, r.committed, r.mean_occupancy, r.expected_occupancy)
        )
    seconds = time.perf_counter() - start
    return results, len(grid) / seconds


def test_fast_engine_speedup(benchmark):
    """The fast engine reproduces the reference grid byte-for-byte at
    the required points/s multiple."""
    ref_results, ref_rate = _run_engine("reference")
    fast_results, fast_rate = benchmark.pedantic(
        lambda: _run_engine("fast"), rounds=1, iterations=1
    )

    assert fast_results == ref_results  # byte-identical, every field
    speedup = fast_rate / ref_rate
    mode = "smoke" if SMOKE else "full"
    emit(
        f"closed-system engines ({mode}, {len(sweep_grid(**GRID))} points, "
        f"C={CONCURRENCY}, alpha={ALPHA}): reference {ref_rate:.2f} pts/s, "
        f"fast {fast_rate:.2f} pts/s, speedup {speedup:.2f}x"
    )
    assert speedup >= MIN_SPEEDUP, (
        f"expected >= {MIN_SPEEDUP}x points/s over the reference engine, "
        f"got {speedup:.2f}x"
    )
