"""Parameter-sweep utilities.

The paper "exhaustively evaluates the space spanned by" N × C × W grids;
these helpers express that as data: build the grid, run a function at
every point, and collect results keyed by their coordinates so reports
can slice by any axis.

Three execution strategies share one contract:

* :func:`run_sweep` (here) evaluates points serially.
* :func:`run_grid` with ``jobs > 1`` shards the same grid across a
  process pool (:mod:`repro.sim.parallel`), outcomes in grid order.
* :func:`repro.cluster.coordinator.run_sweep_cluster_from_callable`
  leases chunks of the grid to in-process cluster workers.

All derive each point's randomness only from the point's coordinates
(via :func:`repro.util.rng.point_seed` when ``seed`` is given), so they
return bit-identical :class:`SweepResult` objects.  :func:`run_grid` is
the one place that picks between them; every surface (CLI, service,
experiments, cluster workers) calls it.  Settled outcomes land
in a :class:`SweepSink`, the one place that decides between a
:class:`~repro.sim.frame.SweepFrame`'s typed columns and a plain outcome
list, and builds the result.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Iterable, Mapping, Optional

from repro.util.rng import point_seed

__all__ = ["SweepResult", "SweepSink", "run_grid", "run_sweep", "sweep_grid"]


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

    ``telemetry`` is ``None`` for serial sweeps; a pool run
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


class SweepSink:
    """Where a run's settled outcomes land, in any order.

    With ``frame`` (a :class:`repro.sim.frame.SweepFrame` sized to the
    grid) they fill its typed columns and :meth:`result` is the frame's
    lazy row view; without one they fill a plain list.
    """

    def __init__(self, points: list[dict[str, Any]], frame: Optional[Any] = None) -> None:
        if frame is not None and len(frame) != len(points):
            raise ValueError(
                f"frame holds {len(frame)} points but the grid has {len(points)}"
            )
        self.points = points
        self.frame = frame
        self.outcomes: list[Any] = [None] * len(points) if frame is None else []

    def fill(self, index: int, outcome: Any) -> None:
        """Settle one point."""
        if self.frame is None:
            self.outcomes[index] = outcome
        else:
            self.frame.fill(index, self.points[index], outcome)

    def fill_many(self, start: int, outcomes: list[Any]) -> None:
        """Settle the contiguous chunk of points starting at ``start``."""
        stop = start + len(outcomes)
        if self.frame is None:
            self.outcomes[start:stop] = outcomes
        else:
            self.frame.fill_many(start, self.points[start:stop], outcomes)

    def fill_cached(self, start: int, count: int, outcomes: Any) -> bool:
        """Settle a chunk from a cache entry; ``False`` if the entry does not fit.

        An entry fits only if it is a list of ``count`` outcomes that
        :meth:`fill_many` accepts (a frame writes nothing when it
        refuses one).  Anything else is a miss: the caller recomputes
        the chunk and overwrites the entry.
        """
        if not isinstance(outcomes, list) or len(outcomes) != count:
            return False
        try:
            self.fill_many(start, outcomes)
        except (KeyError, TypeError, ValueError, OverflowError):
            return False
        return True

    def result(self, telemetry: Optional[Any] = None) -> SweepResult:
        """The run's result, once every point has settled."""
        if self.frame is None:
            return SweepResult(self.points, self.outcomes, telemetry)
        from repro.sim.frame import FrameBackedSweepResult

        return FrameBackedSweepResult(self.frame, telemetry)


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

    With ``frame``, each point lands in the :class:`SweepSink`'s frame
    as it settles, so mid-run progress shows in the frame's filled
    prefix.
    """
    sink = SweepSink([dict(point) for point in points], frame)
    for index, point in enumerate(sink.points):
        sink.fill(index, _call_point(fn, point, seed, label))
    return sink.result()


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
    result_version: Optional[int] = None,
) -> SweepResult:
    """Evaluate ``fn`` over ``grid`` serially, on a process pool, or on a cluster.

    The single execution policy:

    * ``cluster=N`` runs on N in-process cluster workers, which share one
      pool of ``jobs`` processes when ``jobs > 1``.
    * Otherwise ``jobs > 1`` runs on the enclosing
      :func:`~repro.sim.parallel.process_pool` of that width (or one for
      this call), reporting ``progress(done, total)`` as points settle.
    * Otherwise (``jobs`` of ``None`` or 1) the grid runs serially.

    ``cache`` (a :class:`~repro.service.cache.ResultCache`) checkpoints
    the grid in every mode, in chunks of ``chunk_size`` points (default:
    about four per worker) keyed by
    :func:`~repro.cluster.coordinator.chunk_cache_key` with the sweep
    kind's ``result_version``, so ``fn`` must be clusterable.  Locally
    every chunk is looked up first, and only the missing ones run:
    serially in grid order, or on the pool, which stores each chunk once
    its points settle (out of grid order).  An entry that does not fit
    its chunk (:meth:`SweepSink.fill_cached`) is missing too, and is
    overwritten.  A chunk with a failed point is never stored; a pool
    run then returns a list-backed result holding the failures.

    Every mode returns the same bytes; pool and cluster runs attach
    their telemetry to the result.  ``seed``/``label`` derive per-point
    seeds as in :func:`run_sweep`, and ``frame`` makes every mode
    accumulate into typed columns.
    """
    if jobs is not None and jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if cluster is not None:
        # Imported lazily: the cluster layer depends on service plumbing.
        from repro.cluster.coordinator import (
            CoordinatorConfig,
            run_sweep_cluster_from_callable,
        )

        return run_sweep_cluster_from_callable(
            fn, list(grid), seed=seed, label=label, result_version=result_version,
            workers=cluster, jobs_per_worker=jobs or 1, cache=cache, frame=frame,
            config=CoordinatorConfig(chunk_size=chunk_size, expected_workers=cluster),
        )
    pool = jobs is not None and jobs > 1
    if cache is None and not pool:
        return run_sweep(fn, grid, seed=seed, label=label, frame=frame)
    from repro.cluster.coordinator import chunk_cache_key
    from repro.cluster.protocol import chunk_grid, default_chunk_size, task_from_callable

    rows = [dict(point) for point in grid]
    size = default_chunk_size(len(rows), jobs or 1) if chunk_size is None else chunk_size
    sink = SweepSink(rows, frame)
    missing = chunk_grid(len(rows), size)
    keys: dict[Any, str] = {}
    if cache is not None:
        task = task_from_callable(
            fn, seed=seed, label=label, result_version=result_version
        )
        chunks, missing = missing, []
        for chunk in chunks:
            keys[chunk] = chunk_cache_key(task, rows[chunk.start:chunk.stop])
            hit, _ = cache.lookup(keys[chunk], accept=partial(
                sink.fill_cached, chunk.start, chunk.count))
            if not hit:
                missing.append(chunk)

    def settle(chunk: Any, outcomes: list[Any]) -> None:
        sink.fill_many(chunk.start, outcomes)  # raises before a bad chunk is stored
        if cache is not None:
            cache.put(keys[chunk], outcomes)

    if not pool:
        for chunk in missing:
            settle(chunk, [_call_point(fn, point, seed, label)
                           for point in rows[chunk.start:chunk.stop]])
        return sink.result()
    from repro.sim.parallel import _run_on_pool, process_pool

    with process_pool(jobs):
        return _run_on_pool(
            fn, sink, missing, settle, jobs=jobs, chunk_size=size, seed=seed,
            label=label, progress=progress,
        )
