"""Wire protocol for distributed sweep execution.

The cluster ships *work descriptions*, never code: a sweep crosses the
wire as a :class:`SweepSpec` — a point-function reference (resolved
through :mod:`repro.cluster.registry`), its JSON-safe bound keyword
arguments, the explicit grid of points, and the chunking geometry.
Workers rebuild the exact callable the serial engine would have used
and evaluate their chunks through the same
:func:`repro.sim.sweep._call_point` contract, which is what makes a
distributed run byte-identical to :func:`repro.sim.sweep.run_sweep`.

Everything here is deliberately dependency-light (stdlib + the sweep
utilities): the protocol layer must be importable by a bare worker
process without dragging in the serving layer.

Wire endpoints (JSON over HTTP, served by the coordinator):

==============================  ======  ================================
Path                            Method  Purpose
==============================  ======  ================================
``/cluster/v1/spec``            GET     the :class:`SweepSpec` for this run
``/cluster/v1/lease``           POST    claim the next chunk lease
``/cluster/v1/heartbeat``       POST    renew held leases, prove liveness
``/cluster/v1/result``          POST    submit a chunk result (idempotent)
``/cluster/v1/status``          GET     progress + lease/worker snapshot
==============================  ======  ================================
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Mapping, Optional, Sequence

from repro.cluster.registry import resolve_point_fn

__all__ = [
    "ChunkSpec",
    "ClusterTask",
    "HEARTBEAT_PATH",
    "LEASE_PATH",
    "PROTOCOL_VERSION",
    "RESULT_PATH",
    "SPEC_PATH",
    "STATUS_PATH",
    "SweepSpec",
    "chunk_grid",
    "default_chunk_size",
    "dotted_name",
    "task_from_callable",
]

#: Protocol revision; a worker refuses a spec whose version it does not speak.
PROTOCOL_VERSION = 1

SPEC_PATH = "/cluster/v1/spec"
LEASE_PATH = "/cluster/v1/lease"
HEARTBEAT_PATH = "/cluster/v1/heartbeat"
RESULT_PATH = "/cluster/v1/result"
STATUS_PATH = "/cluster/v1/status"


def dotted_name(fn: Callable[..., Any]) -> str:
    """Render a module-level callable as an importable ``module:name``.

    Raises :class:`ValueError` for callables that cannot round-trip
    (lambdas, closures, bound methods, ``functools.partial`` objects) —
    those cannot be named across a process boundary.
    """
    module = getattr(fn, "__module__", None)
    qualname = getattr(fn, "__qualname__", None)
    if not module or not qualname or "<" in qualname or "." in qualname:
        raise ValueError(f"{fn!r} is not an importable module-level function")
    name = f"{module}:{qualname}"
    try:
        resolved = resolve_point_fn(name)
    except (ImportError, AttributeError, ValueError) as exc:
        raise ValueError(f"cannot resolve {name!r} back to a callable: {exc}") from exc
    if resolved is not fn:
        raise ValueError(f"{name!r} resolves to a different object than {fn!r}")
    return name


def _require_json_safe(what: str, value: Any) -> Any:
    """Assert a value survives a JSON round trip unchanged; return it."""
    try:
        encoded = json.dumps(value, allow_nan=False)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{what} is not JSON-serializable: {exc}") from exc
    return json.loads(encoded)


@dataclass(frozen=True)
class ClusterTask:
    """One distributable point function: a name plus bound JSON kwargs.

    Attributes
    ----------
    fn:
        Registry name or importable ``module:function`` reference of the
        point evaluator (see :mod:`repro.cluster.registry`).
    kwargs:
        JSON-safe keyword arguments partially applied to ``fn`` on every
        worker — exactly what :func:`functools.partial` would bind.
    seed:
        Optional master seed; when set, workers inject a per-point
        ``seed=`` keyword via :func:`repro.util.rng.point_seed`, mirroring
        ``run_sweep(..., seed=seed)``.
    label:
        Stream label folded into derived point seeds.
    result_version:
        The sweep kind's ``result_version`` (see
        :mod:`repro.sim.catalog`), folded into the chunk cache keys only
        — workers never pass it to the point function.
    """

    fn: str
    kwargs: dict[str, Any] = field(default_factory=dict)
    seed: Optional[int] = None
    label: str = "sweep-point"
    result_version: Optional[int] = None

    def bind(self) -> Callable[..., Any]:
        """Resolve ``fn`` and bind ``kwargs``, yielding the point callable."""
        resolved = resolve_point_fn(self.fn)
        return partial(resolved, **self.kwargs) if self.kwargs else resolved

    def to_wire(self) -> dict[str, Any]:
        """JSON-safe wire encoding."""
        return {
            "fn": self.fn,
            "kwargs": dict(self.kwargs),
            "seed": self.seed,
            "label": self.label,
            "result_version": self.result_version,
        }

    @classmethod
    def from_wire(cls, payload: Mapping[str, Any]) -> "ClusterTask":
        """Decode a wire payload back into a task."""
        return cls(
            fn=str(payload["fn"]),
            kwargs=dict(payload.get("kwargs") or {}),
            seed=payload.get("seed"),
            label=str(payload.get("label", "sweep-point")),
            result_version=payload.get("result_version"),
        )


def task_from_callable(
    fn: Callable[..., Any],
    *,
    seed: Optional[int] = None,
    label: str = "sweep-point",
    result_version: Optional[int] = None,
) -> ClusterTask:
    """Describe an in-process sweep callable as a :class:`ClusterTask`.

    Accepts a module-level function, or a :func:`functools.partial` of
    one with keyword-only, JSON-safe bindings (the idiom every sweep in
    this codebase uses).  Raises :class:`ValueError` for callables that
    cannot cross the wire — positional partial arguments (e.g. a trace
    object), closures, or non-JSON keyword values — so callers can fall
    back to local execution.
    """
    kwargs: dict[str, Any] = {}
    target = fn
    if isinstance(fn, partial):
        if fn.args:
            raise ValueError(
                "partial with positional arguments cannot cross the wire; "
                "bind by keyword or run locally"
            )
        kwargs = dict(fn.keywords)
        target = fn.func
        if isinstance(target, partial):
            raise ValueError("nested partials are not supported")
    name = dotted_name(target)
    kwargs = _require_json_safe(f"kwargs of {name}", kwargs)
    return ClusterTask(
        fn=name, kwargs=kwargs, seed=seed, label=label, result_version=result_version
    )


@dataclass(frozen=True)
class ChunkSpec:
    """A contiguous slice of the grid: points ``[start, stop)``.

    Chunks are identified by ``index`` (their position in the chunk
    list), which doubles as the idempotency key for result submission.
    """

    index: int
    start: int
    stop: int

    @property
    def count(self) -> int:
        """Number of grid points in the chunk."""
        return self.stop - self.start

    def to_wire(self) -> dict[str, int]:
        """JSON-safe wire encoding."""
        return {"index": self.index, "start": self.start, "stop": self.stop}

    @classmethod
    def from_wire(cls, payload: Mapping[str, Any]) -> "ChunkSpec":
        """Decode a wire payload back into a chunk."""
        return cls(
            index=int(payload["index"]),
            start=int(payload["start"]),
            stop=int(payload["stop"]),
        )


def chunk_grid(n_points: int, chunk_size: int) -> list[ChunkSpec]:
    """Split ``n_points`` grid indices into contiguous chunks.

    The chunk layout is part of the protocol's determinism story only in
    that it must be *consistent* between coordinator and workers — the
    merged result is reassembled by grid index, so the layout itself
    never affects outcomes.
    """
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    return [
        ChunkSpec(index=i, start=lo, stop=min(lo + chunk_size, n_points))
        for i, lo in enumerate(range(0, n_points, chunk_size))
    ]


def default_chunk_size(n_points: int, workers: int) -> int:
    """Default chunk size: about four chunks per expected worker.

    The one default for coordinator leases and for
    :func:`repro.sim.sweep.run_grid`'s chunks, which are both its
    checkpoints and its pool tasks — small enough to balance stragglers,
    large enough that per-chunk overhead stays negligible.
    """
    if n_points <= 0:
        return 1
    return max(1, math.ceil(n_points / (max(1, workers) * 4)))


@dataclass(frozen=True)
class SweepSpec:
    """Everything a worker needs to evaluate chunks of one sweep run.

    Attributes
    ----------
    run_id:
        Opaque identifier of this run; echoed in every worker request so
        a coordinator restart cannot silently mix results across runs.
    task:
        The point function description.
    grid:
        The full grid, as JSON-safe parameter dicts in evaluation order.
    chunk_size:
        Grid points per lease.
    lease_ttl:
        Seconds a lease stays valid between heartbeats; workers derive
        their heartbeat cadence from it.
    version:
        Protocol revision (see :data:`PROTOCOL_VERSION`).
    """

    run_id: str
    task: ClusterTask
    grid: tuple[dict[str, Any], ...]
    chunk_size: int
    lease_ttl: float
    version: int = PROTOCOL_VERSION

    def __post_init__(self) -> None:
        if self.chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {self.chunk_size}")
        if self.lease_ttl <= 0:
            raise ValueError(f"lease_ttl must be positive, got {self.lease_ttl}")

    @property
    def n_points(self) -> int:
        """Total grid points in the run."""
        return len(self.grid)

    def chunks(self) -> list[ChunkSpec]:
        """The run's chunk layout (identical on every node)."""
        return chunk_grid(len(self.grid), self.chunk_size)

    def points(self, chunk: ChunkSpec) -> list[dict[str, Any]]:
        """The grid points covered by one chunk."""
        return [dict(p) for p in self.grid[chunk.start:chunk.stop]]

    def to_wire(self) -> dict[str, Any]:
        """JSON-safe wire encoding (the ``GET /cluster/v1/spec`` body)."""
        return {
            "version": self.version,
            "run_id": self.run_id,
            "task": self.task.to_wire(),
            "grid": [dict(p) for p in self.grid],
            "chunk_size": self.chunk_size,
            "lease_ttl": self.lease_ttl,
        }

    @classmethod
    def from_wire(cls, payload: Mapping[str, Any]) -> "SweepSpec":
        """Decode a wire payload, rejecting protocol-version mismatches."""
        version = int(payload.get("version", -1))
        if version != PROTOCOL_VERSION:
            raise ValueError(
                f"protocol version mismatch: coordinator speaks {version}, "
                f"this worker speaks {PROTOCOL_VERSION}"
            )
        return cls(
            run_id=str(payload["run_id"]),
            task=ClusterTask.from_wire(payload["task"]),
            grid=tuple(dict(p) for p in payload["grid"]),
            chunk_size=int(payload["chunk_size"]),
            lease_ttl=float(payload["lease_ttl"]),
            version=version,
        )

    @classmethod
    def build(
        cls,
        task: ClusterTask,
        grid: Sequence[Mapping[str, Any]],
        *,
        run_id: str,
        chunk_size: Optional[int] = None,
        lease_ttl: float = 10.0,
        expected_workers: int = 2,
    ) -> "SweepSpec":
        """Validate and assemble a spec from in-process objects.

        Grid points are checked for JSON round-trip safety up front so a
        non-serializable sweep fails at submission, not on a worker.
        """
        points = tuple(
            _require_json_safe(f"grid point {i}", dict(p)) for i, p in enumerate(grid)
        )
        if chunk_size is None:
            chunk_size = default_chunk_size(len(points), expected_workers)
        return cls(
            run_id=run_id,
            task=task,
            grid=points,
            chunk_size=chunk_size,
            lease_ttl=lease_ttl,
        )
