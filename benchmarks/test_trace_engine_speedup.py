"""Trace-driven engines — fast-vs-reference speedup and equivalence.

The ``fast`` trace engine's contract is byte-identical results at a
multiple of the reference's speed.  This bench runs a Figure 2-shaped
sweep (N × W grid at fixed C on a cleaned SPECjbb-like trace) on both
engines, asserts exact equality of every point, and enforces the
speedup bar in points per second:

* **full mode** (default): a paper-shaped N × W grid, >= 5x.
* **smoke mode** (``TRACE_ENGINE_SMOKE=1``): a reduced grid with a
  relaxed >= 2x bar, for CI runners with noisy neighbours.

The trace is deliberately smaller than the session-scoped ``jbb_trace``
fixture: the fast engine's window index is rebuilt per point, so the
speedup is measured in the regime the service sweeps actually use
(thousands of samples against a trace of a few thousand accesses per
stream).
"""

from __future__ import annotations

import os
import time

from benchmarks.conftest import BENCH_SEED, emit
from repro.sim.engines import get_engine
from repro.sim.sweep import sweep_grid
from repro.sim.trace_driven import TraceAliasConfig
from repro.traces import remove_true_conflicts, specjbb_like

SMOKE = os.environ.get("TRACE_ENGINE_SMOKE", "") not in ("", "0")

if SMOKE:
    GRID = dict(n=[4096, 16384], w=[5, 10])
    SAMPLES = 1500
    MIN_SPEEDUP = 2.0
else:
    GRID = dict(n=[4096, 16384], w=[5, 10, 20])
    SAMPLES = 4000
    MIN_SPEEDUP = 5.0

CONCURRENCY = 2
THREADS = 4
ACCESSES = 8000


def _run_engine(name: str, trace) -> tuple[list[tuple], float]:
    """All grid points on one engine: (result tuples, points/second)."""
    engine = get_engine("trace", name)
    grid = sweep_grid(**GRID)
    results = []
    start = time.perf_counter()
    for point in grid:
        r = engine(
            trace,
            TraceAliasConfig(
                n_entries=point["n"],
                concurrency=CONCURRENCY,
                write_footprint=point["w"],
                samples=SAMPLES,
                seed=BENCH_SEED,
            ),
        )
        results.append(
            (r.alias_probability, r.stderr, r.mean_window_accesses)
        )
    seconds = time.perf_counter() - start
    return results, len(grid) / seconds


def test_fast_trace_engine_speedup(benchmark):
    """The fast engine reproduces the reference grid byte-for-byte at
    the required points/s multiple."""
    trace = remove_true_conflicts(specjbb_like(THREADS, ACCESSES, seed=BENCH_SEED))
    ref_results, ref_rate = _run_engine("reference", trace)
    fast_results, fast_rate = benchmark.pedantic(
        lambda: _run_engine("fast", trace), rounds=1, iterations=1
    )

    assert fast_results == ref_results  # byte-identical, every field
    speedup = fast_rate / ref_rate
    mode = "smoke" if SMOKE else "full"
    emit(
        f"trace-driven engines ({mode}, {len(sweep_grid(**GRID))} points, "
        f"C={CONCURRENCY}, samples={SAMPLES}): reference {ref_rate:.2f} pts/s, "
        f"fast {fast_rate:.2f} pts/s, speedup {speedup:.2f}x"
    )
    assert speedup >= MIN_SPEEDUP, (
        f"expected >= {MIN_SPEEDUP}x points/s over the reference engine, "
        f"got {speedup:.2f}x"
    )
