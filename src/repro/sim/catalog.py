"""The declarative sweep-kind table: every runnable sweep, one row each.

A *sweep kind* is the unit every execution surface shares: the CLI
subcommands, the service's ``POST /v1/sweeps`` endpoint, and the cluster
coordinator all resolve a kind name through :data:`SWEEP_KINDS` and use
the same five ingredients:

* a **parameter schema** (:class:`ParamSpec` tuple) — validation and
  normalization derive from it, so the normalized dict doubles as the
  cache-key payload (two requests that normalize identically share one
  cache entry);
* a **point callable** — a module-level function taking grid axes
  positionally and wire kwargs by keyword, which is exactly the shape
  :func:`repro.cluster.protocol.task_from_callable` can describe across
  the cluster wire;
* the **grid axes** — which list-valued parameters fan out into points;
* the **wire kwargs** — which scalar parameters (plus the seed) are
  partially applied to the point callable;
* an **assembler** — folds the sweep's :class:`~repro.sim.frame.SweepFrame`
  into the JSON-safe response shape.

Adding a kind is one table row: declare the schema, write a ~10-line
point function and assembler, and the kind is immediately validatable,
cacheable, clusterable and CLI-selectable.  The rows:

* ``fig4a`` — the open-system conflict-likelihood sweep of Figure 4(a):
  grid of table sizes × write footprints, Monte Carlo per point.
* ``fig2a`` — the trace-driven aliasing sweep of Figure 2(a): grid of
  table sizes × write footprints against a synthetic SPECjbb-like trace
  rebuilt from (threads, accesses, seed) on whichever process runs the
  point — only JSON-safe scalars cross the wire, never the trace.
* ``fig3`` — the HTM overflow characterization of Figure 3: one point
  per benchmark profile, plus the paper's ``AVG`` column, matching
  :func:`repro.sim.overflow.fleet_summary` float for float.
* ``closed`` — closed-system runs (Figures 5–6 protocol) over a grid of
  table sizes × concurrency × footprints.
* ``model`` — the Eq. 8 closed forms over a grid; no randomness, useful
  for cheap smoke traffic.
* ``placement`` — allocator-placement sensitivity (Dice et al.): false-
  conflict rate over a placement × hash kind × table size grid, streams
  rebuilt per process from scalars via ``repro.alloc``.
* ``fig7`` — tagless vs tagged ownership-table A/B (§5) over table kind
  × table size × write footprint, replaying identical placed streams so
  the table organization is the only variable.

The simulating kinds (``fig4a``, ``fig2a``, ``fig3``, ``closed``) always
run the fast engine of their family: each point function resolves
``get_engine(kind)`` at call time (see :mod:`repro.sim.engines`).  The
reference engines are byte-identical by contract, so they live on only
as oracles for the differential suites and the speedup benchmarks; no
request names an engine, and one that tries gets the usual
``unknown parameter(s)`` 400.

Each row carries a ``result_version``, folded into every key that names
the kind's outcomes — the assembled-result key (:meth:`SweepKind.result_key`,
also the experiments manifest's spec hash) and the chunk checkpoint
keys (:func:`repro.cluster.coordinator.chunk_cache_key`).  Bump it when
a change alters the kind's outcome bytes, so disk caches written by
older code miss instead of serving stale numbers.  It never reaches the
point kwargs or the per-point seeds, so it cannot change outcomes.

Grid kinds run through :meth:`SweepKind.run`: it fills a
:class:`~repro.sim.frame.SweepFrame` via :func:`repro.sim.sweep.run_grid`,
which runs the grid serially, on the process pool (``jobs > 1``) or on
the cluster (``execution: cluster``), and raises on any failed point.
All paths return identical numbers — the engines' determinism
contract — so a cached result is indistinguishable from a recomputed
one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Any, Callable, Mapping, Optional, Sequence

import numpy as np

from repro.alloc.spec import available_placements, placement_preset
from repro.core.model import (
    ModelParams,
    conflict_likelihood,
    conflict_likelihood_product_form,
)
from repro.ownership.hashing import available_hash_kinds, make_hash
from repro.sim.closed_system import ClosedSystemConfig
from repro.sim.engines import get_engine
from repro.sim.frame import FrameBackedSweepResult, FrameField, FrameSchema, SweepFrame
from repro.sim.open_system import OpenSystemConfig
from repro.sim.overflow import OverflowConfig, characterize_overflow
from repro.sim.parallel import raise_first_failure
from repro.sim.sweep import run_grid, sweep_grid
from repro.sim.trace_driven import TraceAliasConfig
from repro.util.units import is_power_of_two

__all__ = [
    "EXECUTION_MODES",
    "MAX_GRID_POINTS",
    "MAX_SAMPLES",
    "MAX_TRACE_ACCESSES",
    "ParamSpec",
    "SWEEP_KINDS",
    "SweepKind",
    "SweepValidationError",
    "execute_sweep",
    "validate_sweep_request",
]

# Admission-control ceilings: a request beyond these is a 400, not a
# multi-hour job. Generous relative to the paper's grids (Fig 4a uses
# 20 points x 2000 samples).
MAX_GRID_POINTS = 4096
MAX_SAMPLES = 200_000
MAX_TRACE_ACCESSES = 2_000_000


class SweepValidationError(ValueError):
    """A sweep request that fails validation (HTTP 400 at the edge)."""


def _require_int(params: Mapping[str, Any], key: str, default: Optional[int] = None,
                 *, lo: int = 1, hi: Optional[int] = None) -> int:
    value = params.get(key, default)
    if value is None:
        raise SweepValidationError(f"missing required parameter {key!r}")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SweepValidationError(f"parameter {key!r} must be a number, got {value!r}")
    if isinstance(value, float):
        if not value.is_integer():
            raise SweepValidationError(f"parameter {key!r} must be an integer, got {value!r}")
        value = int(value)
    if value < lo or (hi is not None and value > hi):
        bound = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise SweepValidationError(f"parameter {key!r} must be {bound}, got {value}")
    return value


def _require_float(params: Mapping[str, Any], key: str, default: float,
                   *, lo: float = 0.0) -> float:
    value = params.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SweepValidationError(f"parameter {key!r} must be a number, got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an int past the float range
        finite = False
    if not finite:
        raise SweepValidationError(f"parameter {key!r} must be a finite number")
    if value < lo:
        raise SweepValidationError(f"parameter {key!r} must be >= {lo}, got {value}")
    return float(value)


def _require_int_list(params: Mapping[str, Any], key: str,
                      default: Optional[list[int]] = None) -> list[int]:
    values = params.get(key, default)
    if values is None:
        raise SweepValidationError(f"missing required parameter {key!r}")
    if not isinstance(values, (list, tuple)) or not values:
        raise SweepValidationError(f"parameter {key!r} must be a non-empty list")
    out = []
    for v in values:
        if isinstance(v, bool) or not isinstance(v, (int, float)) or (
            isinstance(v, float) and not v.is_integer()
        ):
            raise SweepValidationError(f"parameter {key!r} must hold integers, got {v!r}")
        if int(v) < 1:
            raise SweepValidationError(f"parameter {key!r} values must be >= 1, got {v}")
        out.append(int(v))
    return out


def _require_str_choice_list(params: Mapping[str, Any], key: str,
                             default: Optional[Sequence[str]],
                             choices: Sequence[str]) -> list[str]:
    values = params.get(key, list(default) if default is not None else None)
    if values is None:
        raise SweepValidationError(f"missing required parameter {key!r}")
    if not isinstance(values, (list, tuple)) or not values:
        raise SweepValidationError(f"parameter {key!r} must be a non-empty list")
    out = []
    for v in values:
        if not isinstance(v, str) or v not in choices:
            known = ", ".join(choices)
            raise SweepValidationError(
                f"unknown value {v!r} in {key!r}; expected one of: {known}"
            )
        out.append(v)
    return out


def _require_checked_str(params: Mapping[str, Any], key: str,
                         default: Optional[str],
                         resolve: Callable[[str], Any]) -> str:
    value = params.get(key, default)
    if value is None:
        raise SweepValidationError(f"missing required parameter {key!r}")
    if not isinstance(value, str):
        raise SweepValidationError(f"parameter {key!r} must be a string, got {value!r}")
    try:
        resolve(value)
    except ValueError as exc:
        # Surface the registry's own message (it lists the options) as
        # the admission error — e.g. make_hash's "unknown hash kind".
        raise SweepValidationError(str(exc)) from None
    return value


def _require_checked_str_list(params: Mapping[str, Any], key: str,
                              default: Optional[Sequence[str]],
                              resolve: Callable[[str], Any]) -> list[str]:
    values = params.get(key, list(default) if default is not None else None)
    if values is None:
        raise SweepValidationError(f"missing required parameter {key!r}")
    if not isinstance(values, (list, tuple)) or not values:
        raise SweepValidationError(f"parameter {key!r} must be a non-empty list")
    out = []
    for v in values:
        if not isinstance(v, str):
            raise SweepValidationError(f"parameter {key!r} must hold strings, got {v!r}")
        try:
            resolve(v)
        except ValueError as exc:
            raise SweepValidationError(str(exc)) from None
        out.append(v)
    return out


def _reject_unknown(params: Mapping[str, Any], allowed: frozenset[str]) -> None:
    unknown = sorted(set(params) - allowed)
    if unknown:
        raise SweepValidationError(f"unknown parameter(s): {', '.join(unknown)}")


@dataclass(frozen=True)
class ParamSpec:
    """One request parameter of a sweep kind: its type, bounds, default.

    ``kind`` selects the validator: ``"int"``, ``"float"``,
    ``"int_list"``, ``"str_choice_list"`` (each value must be one of
    ``choices``), ``"checked_str"``/``"checked_str_list"`` (each value
    is passed to ``resolve``, whose :class:`ValueError` — typically
    already listing the options, like ``make_hash``'s — becomes the
    admission error).  A ``default`` of ``None`` on ``int``/
    ``int_list``/``str_choice_list``/``checked_str``/
    ``checked_str_list`` makes the parameter required.
    """

    name: str
    kind: str
    default: Any = None
    lo: Optional[float] = None
    hi: Optional[float] = None
    choices: Optional[tuple[str, ...]] = None
    resolve: Optional[Callable[[str], Any]] = None

    def validated(self, params: Mapping[str, Any]) -> Any:
        """Extract, validate and normalize this parameter from a request."""
        if self.kind == "int":
            lo = 1 if self.lo is None else int(self.lo)
            hi = None if self.hi is None else int(self.hi)
            return _require_int(params, self.name, self.default, lo=lo, hi=hi)
        if self.kind == "float":
            lo = 0.0 if self.lo is None else float(self.lo)
            return _require_float(params, self.name, self.default, lo=lo)
        if self.kind == "int_list":
            return _require_int_list(params, self.name, self.default)
        if self.kind == "str_choice_list":
            assert self.choices is not None
            return _require_str_choice_list(params, self.name, self.default, self.choices)
        if self.kind == "checked_str":
            assert self.resolve is not None
            return _require_checked_str(params, self.name, self.default, self.resolve)
        if self.kind == "checked_str_list":
            assert self.resolve is not None
            return _require_checked_str_list(params, self.name, self.default, self.resolve)
        raise ValueError(f"unknown ParamSpec kind {self.kind!r}")  # pragma: no cover


class SweepKind:
    """One row of the sweep-kind table.

    Grid-shaped kinds are declared by decomposition — ``point`` (the
    module-level point callable), ``axes`` (grid-axis name → list-valued
    parameter), ``wire`` (point kwarg → scalar parameter; the seed is
    appended automatically), ``schema`` (the result's frame columns) and
    ``assemble`` — and execution is derived: ``bind(params, seed)`` is a
    keyword :func:`functools.partial` of ``point``, which is what lets it
    cross the cluster wire, and :meth:`run` evaluates the grid into a
    fresh frame.  Kinds that instead pass ``execute`` (the closed-form
    ``model``) always run locally, even under ``execution: cluster`` —
    there is nothing worth distributing.

    ``validate(params)`` returns the normalized parameter dict that is
    both executed and folded into the cache key, together with
    ``result_version`` (see the module docstring).  ``checks`` run against
    that dict after the schema pass, for cross-parameter rules with
    bespoke error messages (they may also coerce values in place); the
    generic grid-point ceiling runs last, over ``ceiling`` (defaulting
    to the axes' parameters).
    """

    def __init__(
        self,
        name: str,
        description: str,
        *,
        result_version: int,
        params: Sequence[ParamSpec],
        point: Optional[Callable[..., Any]] = None,
        axes: Optional[Mapping[str, str]] = None,
        wire: Optional[Mapping[str, str]] = None,
        assemble: Optional[Callable[[dict[str, Any], Any], dict[str, Any]]] = None,
        checks: Sequence[Callable[[dict[str, Any]], None]] = (),
        execute: Optional[Callable[[dict[str, Any], int, Optional[int]], dict[str, Any]]] = None,
        ceiling: Optional[Sequence[str]] = None,
        schema: Optional[FrameSchema] = None,
    ) -> None:
        if execute is None and None in (point, axes, assemble, schema):
            raise ValueError(
                f"sweep kind {name!r} needs either an executor or the full "
                f"point/axes/assemble/schema decomposition"
            )
        self.name = name
        self.description = description
        self.result_version = result_version
        self.params = tuple(params)
        self.point = point
        self.axes = dict(axes) if axes is not None else None
        self.wire = dict(wire) if wire is not None else {}
        self.checks = tuple(checks)
        self.schema = schema
        self._assemble = assemble
        self._execute = execute
        if ceiling is not None:
            self.ceiling = tuple(ceiling)
        else:
            self.ceiling = tuple(self.axes.values()) if self.axes else ()
        self._allowed = frozenset(spec.name for spec in self.params)

    @property
    def clusterable(self) -> bool:
        """Whether this kind can run under ``execution: cluster``."""
        return self.axes is not None

    def validate(self, params: Mapping[str, Any]) -> dict[str, Any]:
        """Validate a raw request into the normalized parameter dict."""
        _reject_unknown(params, self._allowed)
        out = {spec.name: spec.validated(params) for spec in self.params}
        for check in self.checks:
            check(out)
        if self.ceiling:
            points = 1
            for field in self.ceiling:
                points *= len(out[field])
            if points > MAX_GRID_POINTS:
                raise SweepValidationError(
                    f"grid of {points} points exceeds the {MAX_GRID_POINTS}-point ceiling"
                )
        return out

    def grid(self, params: dict[str, Any]) -> list[dict[str, Any]]:
        """The grid of point kwargs this parameterization fans out to."""
        assert self.axes is not None
        return sweep_grid(**{axis: params[name] for axis, name in self.axes.items()})

    def make_frame(self, params: dict[str, Any]) -> Optional[SweepFrame]:
        """A fresh :class:`SweepFrame` sized to this parameterization.

        ``None`` for the closed-form ``model``, which never runs a grid.
        """
        if self.schema is None or self.axes is None:
            return None
        n_points = 1
        for name in self.axes.values():
            n_points *= len(params[name])
        return SweepFrame(self.schema, n_points)

    def wire_kwargs(self, params: dict[str, Any], seed: int) -> dict[str, Any]:
        """The JSON-safe kwargs bound to the point callable (seed included)."""
        kwargs = {kwarg: params[name] for kwarg, name in self.wire.items()}
        kwargs["seed"] = seed
        return kwargs

    def bind(self, params: dict[str, Any], seed: int) -> Callable[..., Any]:
        """The point callable with wire kwargs applied — cluster-shippable."""
        assert self.point is not None
        return partial(self.point, **self.wire_kwargs(params, seed))

    def task(self, params: dict[str, Any], seed: int) -> Any:
        """:meth:`bind` as a :class:`~repro.cluster.protocol.ClusterTask`
        whose chunk keys carry this kind's ``result_version``."""
        from repro.cluster.protocol import task_from_callable  # repro.cluster imports us

        return task_from_callable(
            self.bind(params, seed), result_version=self.result_version
        )

    def result_key(self, params: Mapping[str, Any], seed: int) -> str:
        """Content address of this kind's assembled result.

        The service's result-cache key and the experiments manifest's
        spec hash: the normalized params, the seed and
        ``result_version``.
        """
        from repro.service.cache import cache_key  # repro.service imports us

        return cache_key(
            {"kind": self.name, "params": dict(params),
             "result_version": self.result_version},
            seed,
        )

    def assemble(self, params: dict[str, Any], sweep: Any) -> dict[str, Any]:
        """Fold sweep outcomes into the JSON-safe response shape."""
        assert self._assemble is not None
        return self._assemble(params, sweep)

    def run(self, params: dict[str, Any], seed: int, *,
            jobs: Optional[int] = None,
            cluster: Optional[int] = None,
            cache: Any = None,
            chunk_size: Optional[int] = None,
            frame: Optional[SweepFrame] = None,
            progress: Optional[Callable[[int, int], None]] = None,
            ) -> FrameBackedSweepResult:
        """Run this kind's grid through :func:`repro.sim.sweep.run_grid`.

        Results fill ``frame`` — a fresh :meth:`make_frame` unless the
        caller passes one to read while the run fills it.  ``jobs``,
        ``cluster``, ``cache``, ``chunk_size`` and ``progress`` are
        :func:`~repro.sim.sweep.run_grid`'s.  A failed point raises in
        every mode: a pool's recorded failure becomes a
        :class:`ValueError` naming the point and its error's last line.
        """
        if frame is None:
            frame = self.make_frame(params)
        sweep = run_grid(
            self.bind(params, seed), self.grid(params), jobs=jobs,
            cluster=cluster, cache=cache, chunk_size=chunk_size, frame=frame,
            progress=progress, result_version=self.result_version,
        )
        raise_first_failure(sweep, self.name)
        return sweep

    def execute(self, params: dict[str, Any], seed: int,
                jobs: Optional[int],
                frame: Optional[SweepFrame] = None, *,
                cluster: Optional[int] = None,
                cache: Any = None) -> dict[str, Any]:
        """Run the sweep and fold it into the JSON-safe response shape.

        Grid kinds go through :meth:`run`; kinds without a grid
        (``model``) always evaluate in-process.
        """
        if self._execute is not None:
            return self._execute(params, seed, jobs)
        return self.assemble(params, self.run(
            params, seed, jobs=jobs, cluster=cluster, cache=cache, frame=frame,
        ))


# -- point callables ---------------------------------------------------
#
# Module-level, grid axes positional, everything else keyword-only and
# JSON-safe: the exact shape task_from_callable() ships to workers.


def _open_point(n: int, w: int, *, concurrency: int, samples: int, seed: int) -> float:
    """One open-system grid point: conflict likelihood in percent."""
    cfg = OpenSystemConfig(n, concurrency, w, samples=samples, seed=seed)
    return 100 * get_engine("open")(cfg).conflict_probability


@lru_cache(maxsize=4)
def _fig2a_trace(threads: int, accesses: int, seed: int):
    """The cleaned trace for a (threads, accesses, seed) triple.

    Rebuilt (and memoized) per process: cluster workers receive only
    these scalars in the point kwargs and reconstruct the trace locally,
    which keeps the wire format code- and array-free.
    """
    from repro.traces.dedup import remove_true_conflicts
    from repro.traces.workloads import specjbb_like

    return remove_true_conflicts(specjbb_like(threads, accesses, seed=seed))


def _fig2a_point(n: int, w: int, *, threads: int, accesses: int, concurrency: int,
                 samples: int, seed: int) -> float:
    """One trace-driven grid point: alias likelihood in percent."""
    cfg = TraceAliasConfig(
        n_entries=n,
        concurrency=concurrency,
        write_footprint=w,
        samples=samples,
        seed=seed,
    )
    trace = _fig2a_trace(threads, accesses, seed)
    return 100 * get_engine("trace")(trace, cfg).alias_probability


def _fig3_point(bench: str, *, traces: int, accesses: int, victim: int,
                seed: int) -> dict[str, Any]:
    """One Figure 3 grid point: a benchmark's overflow averages, JSON-safe."""
    from repro.traces.workloads import SPEC2000_PROFILES

    cfg = OverflowConfig(
        n_traces=traces,
        trace_accesses=accesses,
        victim_entries=victim,
        seed=seed,
    )
    r = characterize_overflow(SPEC2000_PROFILES[bench], cfg)
    return {
        "bench": bench,
        "mean_read_blocks": r.mean_read_blocks,
        "mean_write_blocks": r.mean_write_blocks,
        "mean_instructions": r.mean_instructions,
        "mean_utilization": r.mean_utilization,
        "traces_overflowed": r.traces_overflowed,
        "traces_fit": r.traces_fit,
    }


def _closed_point(n_entries: int, concurrency: int, write_footprint: int,
                  *, alpha: int, seed: int) -> dict[str, Any]:
    """One closed-system grid point as a JSON-safe record."""
    r = get_engine("closed")(
        ClosedSystemConfig(
            n_entries=n_entries,
            concurrency=concurrency,
            write_footprint=write_footprint,
            alpha=alpha,
            seed=seed,
        )
    )
    return {
        "n_entries": n_entries,
        "concurrency": concurrency,
        "write_footprint": write_footprint,
        "conflicts": r.conflicts,
        "committed": r.committed,
        "mean_occupancy": r.mean_occupancy,
        "expected_occupancy": r.expected_occupancy,
        "actual_concurrency": r.actual_concurrency,
    }


def _placement_point(placement: str, hash_kind: str, n: int, *, w: int,
                     concurrency: int, samples: int, objects: int, skew: float,
                     write_fraction: float, seed: int) -> dict[str, Any]:
    """One placement grid point: the conflict decomposition, JSON-safe."""
    from repro.sim.placement import (
        PlacementConflictConfig,
        simulate_placement_conflicts,
    )

    r = simulate_placement_conflicts(
        PlacementConflictConfig(
            n_entries=n,
            placement=placement,
            hash_kind=hash_kind,
            concurrency=concurrency,
            write_footprint=w,
            samples=samples,
            objects_per_thread=objects,
            skew=skew,
            write_fraction=write_fraction,
            seed=seed,
        )
    )
    return {
        "placement": placement,
        "hash_kind": hash_kind,
        "n": n,
        "conflict_pct": 100 * r.conflict_probability,
        "block_conflict_pct": 100 * r.block_conflict_probability,
        "false_conflict_pct": 100 * r.false_conflict_probability,
        "stderr_pct": 100 * r.stderr,
        "mean_window_accesses": r.mean_window_accesses,
    }


def _fig7_point(table: str, n: int, w: int, *, placement: str, hash_kind: str,
                concurrency: int, rounds: int, objects: int, skew: float,
                write_fraction: float, seed: int) -> dict[str, Any]:
    """One fig7 grid point: an ownership-table replay ledger, JSON-safe."""
    from repro.sim.placement import TableABConfig, simulate_table_ab

    r = simulate_table_ab(
        TableABConfig(
            n_entries=n,
            table=table,
            placement=placement,
            hash_kind=hash_kind,
            concurrency=concurrency,
            write_footprint=w,
            rounds=rounds,
            objects_per_thread=objects,
            skew=skew,
            write_fraction=write_fraction,
            seed=seed,
        )
    )
    return {
        "table": table,
        "n": n,
        "w": w,
        "acquires": r.acquires,
        "grants": r.grants,
        "true_conflicts": r.true_conflicts,
        "false_conflicts": r.false_conflicts,
        "unclassified_conflicts": r.unclassified_conflicts,
        "conflicts": r.conflicts,
        "upgrades": r.upgrades,
        "aborts": r.aborts,
        "committed": r.committed,
        "indirection_rate": r.indirection_rate,
        "mean_fraction_simple": r.mean_fraction_simple,
        "max_chain": r.max_chain,
    }


# -- frame schemas -----------------------------------------------------
#
# One FrameSchema per grid-shaped kind: the typed column layout of its
# results (see repro.sim.frame), the only form a grid kind's result
# takes.  Outcome field order matches the point function's dict order
# exactly — the frame rebuilds rows in declared order, so a row read
# back equals the record the point returned.  fig4a/fig2a points return
# a bare float, hence the scalar schemas.

_FIG4A_SCHEMA = FrameSchema(
    kind="fig4a",
    axes=(FrameField("n", "i8"), FrameField("w", "i8")),
    scalar=True,
)

_FIG2A_SCHEMA = FrameSchema(
    kind="fig2a",
    axes=(FrameField("n", "i8"), FrameField("w", "i8")),
    scalar=True,
)

_FIG3_SCHEMA = FrameSchema(
    kind="fig3",
    axes=(FrameField("bench", "str"),),
    fields=(
        FrameField("bench", "str"),
        FrameField("mean_read_blocks", "f8"),
        FrameField("mean_write_blocks", "f8"),
        FrameField("mean_instructions", "f8"),
        FrameField("mean_utilization", "f8"),
        FrameField("traces_overflowed", "i8"),
        FrameField("traces_fit", "i8"),
    ),
)

_CLOSED_SCHEMA = FrameSchema(
    kind="closed",
    axes=(
        FrameField("n_entries", "i8"),
        FrameField("concurrency", "i8"),
        FrameField("write_footprint", "i8"),
    ),
    fields=(
        FrameField("n_entries", "i8"),
        FrameField("concurrency", "i8"),
        FrameField("write_footprint", "i8"),
        FrameField("conflicts", "i8"),
        FrameField("committed", "i8"),
        FrameField("mean_occupancy", "f8"),
        FrameField("expected_occupancy", "f8"),
        FrameField("actual_concurrency", "f8"),
    ),
)

_PLACEMENT_SCHEMA = FrameSchema(
    kind="placement",
    axes=(
        FrameField("placement", "str"),
        FrameField("hash_kind", "str"),
        FrameField("n", "i8"),
    ),
    fields=(
        FrameField("placement", "str"),
        FrameField("hash_kind", "str"),
        FrameField("n", "i8"),
        FrameField("conflict_pct", "f8"),
        FrameField("block_conflict_pct", "f8"),
        FrameField("false_conflict_pct", "f8"),
        FrameField("stderr_pct", "f8"),
        FrameField("mean_window_accesses", "f8"),
    ),
)

_FIG7_SCHEMA = FrameSchema(
    kind="fig7",
    axes=(FrameField("table", "str"), FrameField("n", "i8"), FrameField("w", "i8")),
    fields=(
        FrameField("table", "str"),
        FrameField("n", "i8"),
        FrameField("w", "i8"),
        FrameField("acquires", "i8"),
        FrameField("grants", "i8"),
        FrameField("true_conflicts", "i8"),
        FrameField("false_conflicts", "i8"),
        FrameField("unclassified_conflicts", "i8"),
        FrameField("conflicts", "i8"),
        FrameField("upgrades", "i8"),
        FrameField("aborts", "i8"),
        FrameField("committed", "i8"),
        FrameField("indirection_rate", "f8"),
        FrameField("mean_fraction_simple", "f8"),
        FrameField("max_chain", "i8"),
    ),
)


# -- assemblers and cross-parameter checks -----------------------------


def _nw_series_assemble(kind: str) -> Callable[[dict[str, Any], Any], dict[str, Any]]:
    """Response shape shared by the N x W percent-series kinds."""

    def assemble(params: dict[str, Any], sweep: Any) -> dict[str, Any]:
        series = {
            f"N={n}": sweep.where(n=n).series("w", float)[1] for n in params["n_values"]
        }
        return {"kind": kind, "x": "w", "w_values": params["w_values"], "series": series}

    return assemble


def _fig3_assemble(params: dict[str, Any],
                   sweep: FrameBackedSweepResult) -> dict[str, Any]:
    """Per-benchmark records plus the paper's ``AVG`` row.

    The mean of per-benchmark means over the benchmarks that overflowed,
    in grid order — the same operations, on the same floats, as
    :func:`repro.sim.overflow.fleet_summary`, so the two agree exactly:
    the reduction runs over the typed float64 columns in grid order, so
    ``np.mean`` produces the identical bits.
    """
    frame = sweep.frame
    points = list(sweep.outcomes)
    overflowed = frame.column("traces_overflowed")
    mask = overflowed > 0
    if mask.any():
        points.append({
            "bench": "AVG",
            "mean_read_blocks": float(np.mean(frame.column("mean_read_blocks")[mask])),
            "mean_write_blocks": float(np.mean(frame.column("mean_write_blocks")[mask])),
            "mean_instructions": float(np.mean(frame.column("mean_instructions")[mask])),
            "mean_utilization": float(np.mean(frame.column("mean_utilization")[mask])),
            "traces_overflowed": int(overflowed[mask].sum()),
            "traces_fit": int(frame.column("traces_fit")[mask].sum()),
        })
    return {"kind": "fig3", "benchmarks": params["benchmarks"], "points": points}


def _closed_assemble(params: dict[str, Any], sweep: Any) -> dict[str, Any]:
    del params
    return {"kind": "closed", "points": list(sweep.outcomes)}


def _placement_assemble(params: dict[str, Any],
                        sweep: FrameBackedSweepResult) -> dict[str, Any]:
    """False-conflict-% series per placement/hash pair, plus raw points.

    Each series slices the ``false_conflict_pct`` column with one
    vectorized axis mask instead of scanning row dicts.
    """
    frame = sweep.frame
    pct = frame.column("false_conflict_pct")
    series = {
        f"{p}/{h}": [float(v) for v in pct[frame.mask(placement=p, hash_kind=h)]]
        for p in params["placements"]
        for h in params["hash_kinds"]
    }
    return {
        "kind": "placement",
        "x": "n",
        "n_values": params["n_values"],
        "placements": params["placements"],
        "hash_kinds": params["hash_kinds"],
        "series": series,
        "points": sweep.outcomes,
    }


def _fig7_assemble(params: dict[str, Any],
                   sweep: FrameBackedSweepResult) -> dict[str, Any]:
    """Per-table false-conflict series over W, plus the elimination ledger.

    ``false_conflicts_by_table`` totals each table kind's false conflicts
    per table size across the whole W axis — on any shared grid the
    tagged column is identically zero, which *is* the §5 claim.  Both
    reduce the ``false_conflicts`` column under one vectorized
    (table, n) axis mask per family.
    """
    frame = sweep.frame
    fc = frame.column("false_conflicts")
    masks = {
        (t, n): frame.mask(table=t, n=n)
        for t in params["tables"]
        for n in params["n_values"]
    }
    series = {
        f"{t} N={n}": [float(v) for v in fc[masks[t, n]]]
        for t in params["tables"]
        for n in params["n_values"]
    }
    elimination = {
        f"N={n}": {t: int(fc[masks[t, n]].sum()) for t in params["tables"]}
        for n in params["n_values"]
    }
    return {
        "kind": "fig7",
        "x": "w",
        "w_values": params["w_values"],
        "n_values": params["n_values"],
        "tables": params["tables"],
        "series": series,
        "false_conflicts_by_table": elimination,
        "points": sweep.outcomes,
    }


def _check_power_of_two_tables(params: dict[str, Any]) -> None:
    for n in params["n_values"]:
        if not is_power_of_two(n):
            # Every hash kind masks into a power-of-two table; catch the
            # bound at admission so the run costs a 400, not a worker.
            raise SweepValidationError(
                f"hashed table sizes must be powers of two, got {n} in 'n_values'"
            )


def _check_alloc_workload(params: dict[str, Any]) -> None:
    w = max(params["w_values"]) if "w_values" in params else params["w"]
    objects = params["objects"]
    if 8 * w > objects:
        # Mirrors the engine configs' bound: a W-write window needs slack
        # in the per-thread working set to terminate.
        raise SweepValidationError(
            f"write footprint {w} needs at least 8*W={8 * w} objects per "
            f"thread, got 'objects'={objects}"
        )
    if params["skew"] > 4.0:
        raise SweepValidationError(
            f"parameter 'skew' must be <= 4.0, got {params['skew']}"
        )
    if params["write_fraction"] > 1.0:
        raise SweepValidationError(
            f"parameter 'write_fraction' must be <= 1.0, got {params['write_fraction']}"
        )


def _resolve_placement(name: str) -> None:
    placement_preset(name)  # unknown names raise, listing the presets


def _resolve_hash_kind(kind: str) -> None:
    make_hash(kind, 1024)  # unknown kinds raise, listing the options


def _check_thread_cap(params: dict[str, Any]) -> None:
    for c in params["c_values"]:
        if c > 63:
            # Mirrors ClosedSystemConfig.__post_init__: catch the bound at
            # admission so an impossible run costs a 400, not a worker.
            raise SweepValidationError(
                f"closed system supports at most 63 threads, got {c} in 'c_values'"
            )


def _check_integral_alpha(params: dict[str, Any]) -> None:
    alpha = params["alpha"]
    if not float(alpha).is_integer():
        raise SweepValidationError(f"closed-system alpha must be integral, got {alpha}")
    params["alpha"] = int(alpha)


# -- model: Eq. 8 closed forms (no randomness) ------------------------


def _execute_model(params: dict[str, Any], seed: int, jobs: Optional[int]) -> dict[str, Any]:
    del seed, jobs  # closed-form: no randomness, never worth a pool
    raw: dict[str, list[float]] = {}
    product: dict[str, list[float]] = {}
    for n in params["n_values"]:
        mp = ModelParams(
            n_entries=n, concurrency=params["concurrency"], alpha=params["alpha"]
        )
        raw[f"N={n}"] = [float(conflict_likelihood(float(w), mp)) for w in params["w_values"]]
        product[f"N={n}"] = [
            float(conflict_likelihood_product_form(float(w), mp))
            for w in params["w_values"]
        ]
    return {
        "kind": "model",
        "x": "w",
        "w_values": params["w_values"],
        "raw": raw,
        "conflict_probability": product,
    }


def _spec2000_names() -> tuple[str, ...]:
    from repro.traces.workloads import SPEC2000_PROFILES

    return tuple(SPEC2000_PROFILES)


# -- the table ---------------------------------------------------------

SWEEP_KINDS: dict[str, SweepKind] = {
    kind.name: kind
    for kind in (
        SweepKind(
            "fig4a",
            "open-system conflict likelihood over an N x W grid (Figure 4a)",
            result_version=1,
            params=(
                ParamSpec("n_values", "int_list", default=[512, 1024, 2048, 4096]),
                ParamSpec("w_values", "int_list", default=[4, 8, 16, 24, 32]),
                ParamSpec("samples", "int", default=2000, hi=MAX_SAMPLES),
                ParamSpec("concurrency", "int", default=2, lo=2, hi=64),
            ),
            point=_open_point,
            axes={"n": "n_values", "w": "w_values"},
            wire={"concurrency": "concurrency", "samples": "samples"},
            assemble=_nw_series_assemble("fig4a"),
            schema=_FIG4A_SCHEMA,
        ),
        SweepKind(
            "fig2a",
            "trace-driven alias likelihood over an N x W grid (Figure 2a)",
            result_version=1,
            params=(
                ParamSpec("n_values", "int_list", default=[4096, 16384, 65536]),
                ParamSpec("w_values", "int_list", default=[5, 10, 20, 40]),
                ParamSpec("samples", "int", default=500, hi=MAX_SAMPLES),
                ParamSpec("concurrency", "int", default=2, lo=2, hi=64),
                ParamSpec("threads", "int", default=4, lo=1, hi=64),
                ParamSpec("accesses", "int", default=100_000, lo=100, hi=MAX_TRACE_ACCESSES),
            ),
            point=_fig2a_point,
            axes={"n": "n_values", "w": "w_values"},
            wire={
                "threads": "threads",
                "accesses": "accesses",
                "concurrency": "concurrency",
                "samples": "samples",
            },
            assemble=_nw_series_assemble("fig2a"),
            checks=(_check_power_of_two_tables,),
            schema=_FIG2A_SCHEMA,
        ),
        SweepKind(
            "fig3",
            "HTM overflow characterization over the benchmark fleet (Figure 3)",
            result_version=1,
            params=(
                ParamSpec(
                    "benchmarks", "str_choice_list",
                    default=_spec2000_names(), choices=_spec2000_names(),
                ),
                ParamSpec("traces", "int", default=5, hi=1000),
                ParamSpec("accesses", "int", default=200_000, lo=1000, hi=MAX_TRACE_ACCESSES),
                ParamSpec("victim", "int", default=0, lo=0, hi=64),
            ),
            point=_fig3_point,
            axes={"bench": "benchmarks"},
            wire={"traces": "traces", "accesses": "accesses", "victim": "victim"},
            assemble=_fig3_assemble,
            schema=_FIG3_SCHEMA,
        ),
        SweepKind(
            "closed",
            "closed-system protocol runs over an N x C x W grid (Figures 5-6)",
            result_version=1,
            params=(
                ParamSpec("n_values", "int_list"),
                ParamSpec("c_values", "int_list", default=[2]),
                ParamSpec("w_values", "int_list", default=[10]),
                ParamSpec("alpha", "float", default=2.0),
            ),
            point=_closed_point,
            axes={
                "n_entries": "n_values",
                "concurrency": "c_values",
                "write_footprint": "w_values",
            },
            wire={"alpha": "alpha"},
            assemble=_closed_assemble,
            checks=(_check_thread_cap, _check_integral_alpha),
            schema=_CLOSED_SCHEMA,
        ),
        SweepKind(
            "model",
            "Eq. 8 closed forms over an N x W grid (no simulation)",
            result_version=1,
            params=(
                ParamSpec("n_values", "int_list"),
                ParamSpec("w_values", "int_list"),
                ParamSpec("concurrency", "int", default=2, lo=2, hi=1024),
                ParamSpec("alpha", "float", default=2.0),
            ),
            execute=_execute_model,
            ceiling=("n_values", "w_values"),
        ),
        SweepKind(
            "placement",
            "allocator-placement false-conflict sensitivity over a "
            "placement x hash x N grid (Dice et al.)",
            result_version=1,
            params=(
                ParamSpec("n_values", "int_list", default=[1024, 4096, 16384]),
                ParamSpec(
                    "placements", "checked_str_list",
                    default=available_placements(), resolve=_resolve_placement,
                ),
                ParamSpec(
                    "hash_kinds", "checked_str_list",
                    default=available_hash_kinds(), resolve=_resolve_hash_kind,
                ),
                ParamSpec("w", "int", default=8, hi=64),
                ParamSpec("concurrency", "int", default=2, lo=2, hi=16),
                ParamSpec("samples", "int", default=400, hi=MAX_SAMPLES),
                ParamSpec("objects", "int", default=512, lo=64, hi=65536),
                ParamSpec("skew", "float", default=1.2, lo=0.05),
                ParamSpec("write_fraction", "float", default=0.3, lo=0.01),
            ),
            point=_placement_point,
            axes={"placement": "placements", "hash_kind": "hash_kinds", "n": "n_values"},
            wire={
                "w": "w",
                "concurrency": "concurrency",
                "samples": "samples",
                "objects": "objects",
                "skew": "skew",
                "write_fraction": "write_fraction",
            },
            assemble=_placement_assemble,
            checks=(_check_power_of_two_tables, _check_alloc_workload),
            schema=_PLACEMENT_SCHEMA,
        ),
        SweepKind(
            "fig7",
            "tagless vs tagged ownership-table A/B over identical placed "
            "streams (Figure 7 / section 5)",
            result_version=1,
            params=(
                ParamSpec("n_values", "int_list", default=[256, 1024, 4096]),
                ParamSpec("w_values", "int_list", default=[4, 8, 16]),
                ParamSpec(
                    "tables", "str_choice_list",
                    default=("tagless", "tagged"), choices=("tagless", "tagged"),
                ),
                ParamSpec(
                    "placement", "checked_str",
                    default="slab", resolve=_resolve_placement,
                ),
                ParamSpec(
                    "hash_kind", "checked_str",
                    default="mask", resolve=_resolve_hash_kind,
                ),
                ParamSpec("concurrency", "int", default=4, lo=2, hi=16),
                ParamSpec("rounds", "int", default=60, hi=10_000),
                ParamSpec("objects", "int", default=512, lo=64, hi=65536),
                ParamSpec("skew", "float", default=1.2, lo=0.05),
                ParamSpec("write_fraction", "float", default=0.3, lo=0.01),
            ),
            point=_fig7_point,
            axes={"table": "tables", "n": "n_values", "w": "w_values"},
            wire={
                "placement": "placement",
                "hash_kind": "hash_kind",
                "concurrency": "concurrency",
                "rounds": "rounds",
                "objects": "objects",
                "skew": "skew",
                "write_fraction": "write_fraction",
            },
            assemble=_fig7_assemble,
            checks=(_check_power_of_two_tables, _check_alloc_workload),
            schema=_FIG7_SCHEMA,
        ),
    )
}


EXECUTION_MODES = frozenset({"local", "cluster"})


def validate_sweep_request(
    body: Mapping[str, Any],
) -> tuple[str, dict[str, Any], int, Optional[int], str]:
    """Validate a POST /v1/sweeps body into (kind, params, seed, jobs, execution).

    Raises :class:`SweepValidationError` on any malformed field; the
    HTTP layer maps that to a 400 with the message as detail.
    ``execution`` is ``"local"`` (default) or ``"cluster"``; it selects
    *how* the sweep runs, never *what* it computes, so it is excluded
    from the cache key.
    """
    if not isinstance(body, Mapping):
        raise SweepValidationError("request body must be a JSON object")
    _reject_unknown(body, frozenset({"kind", "params", "seed", "jobs", "execution"}))
    kind_name = body.get("kind")
    if not isinstance(kind_name, str) or kind_name not in SWEEP_KINDS:
        known = ", ".join(sorted(SWEEP_KINDS))
        raise SweepValidationError(f"unknown sweep kind {kind_name!r}; expected one of: {known}")
    raw_params = body.get("params", {})
    if not isinstance(raw_params, Mapping):
        raise SweepValidationError("'params' must be a JSON object")
    params = SWEEP_KINDS[kind_name].validate(raw_params)
    seed = _require_int(dict(body), "seed", 0, lo=0)
    jobs_value = body.get("jobs")
    jobs: Optional[int] = None
    if jobs_value is not None:
        jobs = _require_int(dict(body), "jobs", None, lo=1, hi=64)
    execution = body.get("execution", "local")
    if not isinstance(execution, str) or execution not in EXECUTION_MODES:
        known = ", ".join(sorted(EXECUTION_MODES))
        raise SweepValidationError(
            f"unknown execution mode {execution!r}; expected one of: {known}"
        )
    return kind_name, params, seed, jobs, execution


def execute_sweep(
    kind: str,
    params: dict[str, Any],
    seed: int,
    jobs: Optional[int] = None,
    *,
    execution: str = "local",
    cluster_workers: int = 2,
    cache: Any = None,
    frame: Optional[SweepFrame] = None,
) -> dict[str, Any]:
    """Run one validated sweep to completion (the job-queue body).

    ``execution="cluster"`` distributes a grid-shaped kind across an
    in-process coordinator + worker fleet (``cluster_workers`` strong,
    sharing one pool of ``jobs`` processes) via
    :meth:`SweepKind.run`; the determinism contract makes the response
    byte-identical to the local path, so callers need not care which
    ran.  Kinds without a grid decomposition (``model``) always execute
    locally.  ``cache`` is an optional
    :class:`~repro.service.cache.ResultCache` that checkpoints the grid
    chunk by chunk (see :func:`~repro.sim.sweep.run_grid`).  Pass
    ``frame`` (from :meth:`SweepKind.make_frame`) to read progress and
    stream rows while the run fills it.
    """
    cluster = cluster_workers if execution == "cluster" else None
    return SWEEP_KINDS[kind].execute(
        params, seed, jobs, frame, cluster=cluster, cache=cache
    )
