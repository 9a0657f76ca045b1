"""Parameter-sweep utilities.

The paper "exhaustively evaluates the space spanned by" N × C × W grids;
these helpers express that as data: build the grid, run a function at
every point, and collect results keyed by their coordinates so reports
can slice by any axis.

Three execution strategies share one contract:

* :func:`run_sweep` (here) evaluates points serially.
* :func:`repro.sim.parallel.run_sweep_parallel` shards the same grid
  across a process pool and reassembles results in grid order.
* :func:`repro.cluster.coordinator.run_sweep_cluster_from_callable`
  leases chunks of the grid to in-process cluster workers.

All derive each point's randomness only from the point's coordinates
(via :func:`repro.util.rng.point_seed` when ``seed`` is given), so they
return bit-identical :class:`SweepResult` objects.  :func:`run_grid` is
the one place that picks between them; every surface (CLI, service,
report, experiments, cluster workers) calls it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, Optional

from repro.util.rng import point_seed

__all__ = ["SweepResult", "run_grid", "run_sweep", "sweep_grid"]


def sweep_grid(**axes: Iterable[Any]) -> list[dict[str, Any]]:
    """Cartesian product of named axes as a list of parameter dicts.

    ``sweep_grid(n=[1024, 4096], w=[5, 10])`` yields four dicts in
    row-major (last axis fastest) order. Axis order follows keyword
    order, so reports iterate deterministically.

    Axes may be any iterable — generators and other one-shot iterators
    are materialized up front, so ``sweep_grid(n=range(3), w=(2**k for
    k in range(4)))`` works. An axis with no values is still an error.
    """
    if not axes:
        return [{}]
    names = list(axes)
    columns = []
    for name, values in axes.items():
        column = list(values)
        if not column:
            raise ValueError(f"axis {name!r} has no values")
        columns.append(column)
    return [dict(zip(names, combo)) for combo in itertools.product(*columns)]


@dataclass
class SweepResult:
    """Results of a sweep: parallel lists of points and outcomes.

    ``telemetry`` is ``None`` for serial sweeps; the parallel engine
    attaches a :class:`repro.sim.parallel.SweepTelemetry` describing the
    run (wall time, throughput, worker utilization, retries).
    """

    points: list[dict[str, Any]] = field(default_factory=list)
    outcomes: list[Any] = field(default_factory=list)
    telemetry: Optional[Any] = None

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(zip(self.points, self.outcomes))

    def where(self, **criteria: Any) -> "SweepResult":
        """Sub-sweep matching all ``criteria`` exactly.

        ``sweep.where(c=2)`` selects one Figure 4(a) line family.  One
        boolean-mask pass over the rows, then one selection pass — no
        per-criterion intermediates.  (The frame-backed subclass does
        the same mask as vectorized column comparisons.)
        """
        items = criteria.items()
        mask = [
            all(point.get(k) == v for k, v in items) for point in self.points
        ]
        return SweepResult(
            points=[p for p, keep in zip(self.points, mask) if keep],
            outcomes=[o for o, keep in zip(self.outcomes, mask) if keep],
        )

    def series(self, x: str, y: Callable[[Any], float]) -> tuple[list[Any], list[float]]:
        """Extract an (x-values, y-values) series for plotting/printing.

        ``y`` maps each outcome to a number, e.g.
        ``lambda r: r.conflict_probability``.
        """
        xs = [point[x] for point in self.points]
        ys = [y(outcome) for outcome in self.outcomes]
        return xs, ys

    def axis_values(self, name: str) -> list[Any]:
        """Distinct values of one axis, in first-seen order."""
        seen: set[Any] = set()
        ordered: list[Any] = []
        for point in self.points:
            value = point.get(name)
            try:
                fresh = value not in seen
                if fresh:
                    seen.add(value)
            except TypeError:  # unhashable axis value: fall back to a scan
                fresh = value not in ordered
            if fresh:
                ordered.append(value)
        return ordered


def _call_point(
    fn: Callable[..., Any],
    point: Mapping[str, Any],
    seed: Optional[int],
    label: str,
) -> Any:
    """Evaluate ``fn`` at one grid point, injecting a per-point seed.

    Shared by the serial and parallel runners so both make the exact
    same call — the determinism contract between them lives here.
    """
    kwargs = dict(point)
    if seed is not None:
        kwargs["seed"] = point_seed(seed, label, **point)
    return fn(**kwargs)


def run_sweep(
    fn: Callable[..., Any],
    points: Iterable[Mapping[str, Any]],
    *,
    seed: Optional[int] = None,
    label: str = "sweep-point",
    frame: Optional[Any] = None,
) -> SweepResult:
    """Evaluate ``fn(**point)`` at every grid point, collecting results.

    When ``seed`` is given, each call also receives an independent
    ``seed=`` keyword derived from :func:`repro.util.rng.point_seed`
    keyed by the point's coordinates, so outcomes are independent of
    evaluation order (and identical to the parallel engine's).

    When ``frame`` (a :class:`repro.sim.frame.SweepFrame` sized to the
    grid) is given, results accumulate into its typed columns and the
    returned result is the frame's lazy row view, with mid-run progress
    visible through the frame's filled prefix.  Sweep kinds always pass
    one (:meth:`repro.sim.catalog.SweepKind.run`); callers that only
    need the outcome list, like a cluster worker's chunk, do not.
    """
    if frame is None:
        result = SweepResult()
        for point in points:
            result.points.append(dict(point))
            result.outcomes.append(_call_point(fn, point, seed, label))
        return result
    from repro.sim.frame import FrameBackedSweepResult

    for index, point in enumerate(points):
        frame.fill(index, point, _call_point(fn, point, seed, label))
    return FrameBackedSweepResult(frame)


def run_grid(
    fn: Callable[..., Any],
    grid: Iterable[Mapping[str, Any]],
    *,
    jobs: Optional[int] = None,
    cluster: Optional[int] = None,
    frame: Optional[Any] = None,
    progress: Optional[Callable[[int, int], None]] = None,
    seed: Optional[int] = None,
    label: str = "sweep-point",
    cache: Optional[Any] = None,
    chunk_size: Optional[int] = None,
) -> SweepResult:
    """Evaluate ``fn`` over ``grid`` serially, on a process pool, or on a cluster.

    The single execution policy:

    * ``cluster=N`` runs on N in-process cluster workers, each fanning
      its chunks over a pool of ``jobs`` processes when ``jobs > 1``.
    * Otherwise ``jobs > 1`` runs on a process pool, reporting
      ``progress(done, total)`` as points settle.
    * Otherwise (``jobs`` of ``None`` or 1) the grid runs serially.

    ``cache`` (a :class:`~repro.service.cache.ResultCache`) checkpoints
    the grid in every mode, in chunks of ``chunk_size`` points (default:
    about four per worker) keyed by
    :func:`~repro.cluster.coordinator.chunk_cache_key`, so ``fn`` must
    be clusterable.  A cached chunk is filled in without being
    evaluated; a missing one is evaluated and stored before the next
    starts.  A chunk with a failed point is never stored: locally it
    ends the run, and its result, carrying the failure, is returned.

    Every mode returns the same bytes; pool and cluster runs attach
    their telemetry to the result.  ``seed``/``label`` derive per-point
    seeds as in :func:`run_sweep`, and ``frame`` makes every mode
    accumulate into typed columns.
    """
    if cluster is not None:
        # Imported lazily: the cluster layer depends on service plumbing.
        from repro.cluster.coordinator import (
            CoordinatorConfig,
            run_sweep_cluster_from_callable,
        )

        return run_sweep_cluster_from_callable(
            fn, list(grid), seed=seed, label=label, workers=cluster,
            jobs_per_worker=jobs or 1, cache=cache, frame=frame,
            config=CoordinatorConfig(chunk_size=chunk_size, expected_workers=cluster),
        )
    if cache is not None:
        from repro.cluster.coordinator import chunk_cache_key
        from repro.cluster.protocol import chunk_grid, default_chunk_size, task_from_callable
        from repro.sim.parallel import first_failure

        task = task_from_callable(fn, seed=seed, label=label)
        rows = [dict(point) for point in grid]
        size = chunk_size or default_chunk_size(len(rows), jobs or 1)
        filled: list[Any] = []
        for chunk in chunk_grid(len(rows), size):
            points = rows[chunk.start:chunk.stop]
            key = chunk_cache_key(task, points)
            hit, outcomes = cache.lookup(key)
            if not (hit and len(outcomes) == chunk.count):
                sweep = run_grid(fn, points, jobs=jobs, seed=seed, label=label)
                if first_failure(sweep) is not None:
                    return sweep
                outcomes = sweep.outcomes
                cache.put(key, outcomes)
            if frame is not None:
                frame.fill_many(chunk.start, points, outcomes)
            else:
                filled.extend(outcomes)
        if frame is None:
            return SweepResult(points=rows, outcomes=filled)
        from repro.sim.frame import FrameBackedSweepResult

        return FrameBackedSweepResult(frame)
    if jobs is not None and jobs > 1:
        from repro.sim.parallel import run_sweep_parallel

        return run_sweep_parallel(
            fn, grid, jobs=jobs, seed=seed, label=label, progress=progress,
            frame=frame,
        )
    return run_sweep(fn, grid, seed=seed, label=label, frame=frame)

