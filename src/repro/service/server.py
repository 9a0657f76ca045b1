"""The asyncio JSON-over-HTTP serving layer.

Architecture: one asyncio event loop owns every socket; job bodies run
on :class:`repro.service.queue.JobQueue` worker threads; the two sides
meet only through thread-safe objects (the queue, the cache, the
metrics registry).  The loop therefore never blocks on simulation work
and the closed-form endpoints answer in microseconds even while sweep
jobs grind in the background.

Transport lives in :mod:`repro.service.http` (shared with the cluster
coordinator): a deliberately small hand-rolled HTTP/1.1 subset
(stdlib-only is a hard constraint).  This module adds the API:

======================  ======  ============================================
Path                    Method  Purpose
======================  ======  ============================================
``/healthz``            GET     liveness + uptime + queue/cache snapshot
``/metrics``            GET     Prometheus text exposition
``/v1/model/conflict``  GET     Eq. 8 conflict likelihood (closed form)
``/v1/model/conflict``  POST    same, arrays of (W, N, C, α) per request
``/v1/model/sizing``    GET     Eq. 8 inverted: table entries for a target
``/v1/model/sizing``    POST    same, arrays of (W, commit, C, α)
``/v1/model/capacity``  GET     smallest power-of-two table for a target
``/v1/model/capacity``  POST    same, arrays of (W, commit, C, α)
``/v1/birthday``        GET     classical birthday-paradox numbers
``/v1/birthday``        POST    same, arrays of (people|target, days)
``/v1/sweeps``          POST    submit an async sweep job -> 202 + job id
``/v1/sweeps/<id>``     GET     poll job status / fetch result
``/v1/sweeps/<id>``     DELETE  cancel a queued job
======================  ======  ============================================

Each model endpoint has one function from point columns to response
columns, built on the ``repro.core`` ``*_batch`` entry points.  A POST
evaluates its body's columns through it and adds ``count``; a GET is a
one-point batch through the same function, unwrapped, so a GET body is
element 0 of the POST body for the same point — the batch-identity
contract the differential tests pin.  Conflict GETs are also
*micro-batched*: one event loop owns every connection, so concurrent
GETs that land within ``microbatch_window`` seconds of each other
coalesce into a single evaluation (``repro.service.batching``).

Submission flow: validate (400 on bad input) -> cache probe (content
address of the canonicalized request; a hit returns a completed job
without touching the queue) -> admission (429 + ``Retry-After`` when
the bounded queue is full) -> 202.  Results enter the cache when the
job succeeds, so the next identical submission is a hit.  A request
with ``"execution": "cluster"`` runs its sweep on an in-process
coordinator + worker fleet (:mod:`repro.cluster`) instead of the
process pool — same bytes out, same cache entry.
"""

from __future__ import annotations

import asyncio
import json
import math
import time
from collections import OrderedDict
from dataclasses import dataclass
from functools import partial
from http import HTTPStatus
from typing import Any, Callable, Container, Mapping, Optional, Sequence

import numpy as np

from repro.core.birthday import (
    birthday_collision_probability_batch,
    people_for_collision_probability_batch,
)
from repro.core.model import (
    ModelParams,
    conflict_likelihood_batch,
    conflict_likelihood_product_form_batch,
)
from repro.core.sizing import (
    pow2_table_entries_for_commit_probability_batch,
    table_entries_for_commit_probability_batch,
)
from repro.service.batching import MicroBatcher
from repro.service.cache import ResultCache, cache_key
from repro.service.http import (
    HTTPError,
    JsonHttpServer,
    ServerThread,
    query_float,
    query_int,
)
from repro.service.metrics import MetricsRegistry
from repro.service.queue import Job, JobQueue, JobState, QueueClosed, QueueFull
from repro.sim.catalog import (
    SWEEP_KINDS,
    SweepValidationError,
    execute_sweep,
    validate_sweep_request,
)
from repro.sim.frame import SweepFrame

__all__ = [
    "MAX_BATCH_POINTS",
    "Service",
    "ServiceConfig",
    "ServiceThread",
    "serve",
    "start_in_thread",
]

# Bound on points per batch request: 64k points of four float64 columns
# is ~2 MiB of arrays, well under the 4 MiB body cap and microseconds of
# NumPy time, while still refusing absurd requests before allocation.
MAX_BATCH_POINTS = 65536

# Sweep frames kept addressable for streaming reads after submission.
# The registry is an LRU keyed by job id: jobs past this bound fall back
# to the materialized result in the job snapshot / cache.
MAX_TRACKED_FRAMES = 64

# Media type of the streamed row form of a sweep result.
NDJSON_CONTENT_TYPE = "application/x-ndjson"

_REQUIRED = object()

# A model endpoint's input field: ``(name, int or float, default)``; the
# type picks the query parser and the type of the column values, and the
# default ``_REQUIRED`` marks a mandatory field.
_Field = tuple[str, type, Any]
_Columns = dict[str, list[Any]]


def _batch_columns(
    parsed: dict[str, Any], fields: Sequence[_Field]
) -> tuple[_Columns, int]:
    """Validate a batch request body into per-field columns of the field's type.

    Each present field is a number or a list of numbers; all lists must
    share one length, and at least one field must be a list (otherwise
    the scalar GET form is the right endpoint).  Scalars broadcast to the
    common length.  Unknown fields, empty lists, length mismatches,
    non-numbers, non-finite values and fractional values of an integer
    field are all 400s — same strictness as the query-string parsers.
    """
    allowed = [name for name, _, _ in fields]
    unknown = sorted(set(parsed) - set(allowed))
    if unknown:
        raise HTTPError(
            HTTPStatus.BAD_REQUEST,
            f"unknown field(s): {', '.join(map(repr, unknown))}; expected {allowed}",
        )
    length: Optional[int] = None
    for name, _, default in fields:
        value = parsed.get(name, default)
        if value is _REQUIRED:
            raise HTTPError(HTTPStatus.BAD_REQUEST, f"missing required field {name!r}")
        if isinstance(value, list):
            if not value:
                raise HTTPError(
                    HTTPStatus.BAD_REQUEST, f"field {name!r} must not be empty"
                )
            if length is None:
                length = len(value)
            elif len(value) != length:
                raise HTTPError(
                    HTTPStatus.BAD_REQUEST,
                    f"field {name!r} has length {len(value)}, expected {length}",
                )
    if length is None:
        raise HTTPError(
            HTTPStatus.BAD_REQUEST,
            "at least one field must be a JSON array of points "
            "(use the GET endpoint for single points)",
        )
    if length > MAX_BATCH_POINTS:
        raise HTTPError(
            HTTPStatus.BAD_REQUEST,
            f"batch of {length} points exceeds the limit of {MAX_BATCH_POINTS}",
        )
    columns: _Columns = {}
    for name, kind, default in fields:
        value = parsed.get(name, default)
        items = value if isinstance(value, list) else [value] * length
        try:
            for item in items:
                if isinstance(item, bool) or not isinstance(item, (int, float)):
                    raise HTTPError(
                        HTTPStatus.BAD_REQUEST, f"field {name!r} must contain only numbers"
                    )
                if not math.isfinite(item):
                    raise HTTPError(
                        HTTPStatus.BAD_REQUEST, f"field {name!r} must be finite everywhere"
                    )
                if kind is int and not float(item).is_integer():
                    raise HTTPError(
                        HTTPStatus.BAD_REQUEST, f"field {name!r} must contain integers"
                    )
        except OverflowError:  # an int past the float range, which a GET parses to inf
            raise HTTPError(
                HTTPStatus.BAD_REQUEST, f"field {name!r} must be finite everywhere"
            ) from None
        columns[name] = [kind(item) for item in items]
    return columns, length


# -- model endpoints ----------------------------------------------------
# Each maps validated point columns to output columns.  The batch kernels
# are read from this module's globals at call time.


def _mib(entries: np.ndarray) -> list[float]:
    return (entries.astype(np.float64) * 8 / (1 << 20)).tolist()


def _conflict_columns(cols: _Columns) -> _Columns:
    args = cols["w"], cols["n"], cols["c"], cols["alpha"]
    prob = conflict_likelihood_product_form_batch(*args).tolist()
    return {
        "raw": conflict_likelihood_batch(*args).tolist(),
        "conflict_probability": prob,
        "commit_probability": [1.0 - p for p in prob],
    }


def _sizing_columns(cols: _Columns) -> _Columns:
    entries = table_entries_for_commit_probability_batch(
        cols["w"], cols["commit"], concurrency=cols["c"], alpha=cols["alpha"]
    )
    return {"entries": entries.tolist(), "mib_at_8_bytes": _mib(entries)}


def _capacity_columns(cols: _Columns) -> _Columns:
    sizing = dict(concurrency=cols["c"], alpha=cols["alpha"])
    entries = table_entries_for_commit_probability_batch(cols["w"], cols["commit"], **sizing)
    pow2 = pow2_table_entries_for_commit_probability_batch(cols["w"], cols["commit"], **sizing)
    raw = conflict_likelihood_batch(cols["w"], pow2, cols["c"], cols["alpha"])
    return {
        "entries": entries.tolist(),
        "entries_pow2": pow2.tolist(),
        "log2_entries_pow2": np.log2(pow2.astype(np.float64)).astype(np.int64).tolist(),
        "mib_at_8_bytes": _mib(pow2),
        "achieved_commit_probability": (1.0 - raw).tolist(),
    }


def _birthday_people_columns(cols: _Columns) -> _Columns:
    prob = birthday_collision_probability_batch(cols["people"], cols["days"])
    return {"collision_probability": prob.tolist()}


def _birthday_target_columns(cols: _Columns) -> _Columns:
    people = people_for_collision_probability_batch(cols["target"], cols["days"])
    days = np.asarray(cols["days"], dtype=np.int64)
    return {
        "people": people.tolist(),
        "collision_probability": birthday_collision_probability_batch(people, days).tolist(),
        "occupancy_at_threshold": (people / days).tolist(),
    }


@dataclass(frozen=True)
class _ModelForm:
    """One request form of a model endpoint.

    The response echoes ``fields`` in order, then ``evaluate``'s outputs;
    ``finite`` names an output that must be finite to answer 200.
    """

    fields: tuple[_Field, ...]
    evaluate: Callable[[_Columns], _Columns]
    finite: Optional[str] = None


_TABLE_FIELDS: tuple[_Field, ...] = (("c", int, 2), ("alpha", float, 2.0))
_CONFLICT = _ModelForm(
    (("w", float, _REQUIRED), ("n", int, _REQUIRED), *_TABLE_FIELDS),
    _conflict_columns,
    finite="raw",
)
_SIZING_FIELDS = (("w", int, _REQUIRED), ("commit", float, _REQUIRED), *_TABLE_FIELDS)
_SIZING = _ModelForm(_SIZING_FIELDS, _sizing_columns)
_CAPACITY = _ModelForm(_SIZING_FIELDS, _capacity_columns)
_DAYS: _Field = ("days", int, 365)
_BIRTHDAY_PEOPLE = _ModelForm((("people", int, _REQUIRED), _DAYS), _birthday_people_columns)
_BIRTHDAY_TARGET = _ModelForm((("target", float, _REQUIRED), _DAYS), _birthday_target_columns)
_BIRTHDAY_TARGET_GET = _ModelForm((("target", float, 0.5), _DAYS), _birthday_target_columns)


def _birthday_form(keys: Container[str], get: bool) -> _ModelForm:
    """People mode when ``people`` is given, else target mode."""
    if "people" not in keys:
        return _BIRTHDAY_TARGET_GET if get else _BIRTHDAY_TARGET
    if "target" in keys and not get:
        raise HTTPError(
            HTTPStatus.BAD_REQUEST, "pass either 'people' or 'target', not both"
        )
    return _BIRTHDAY_PEOPLE


# Path -> form for the request's query or body keys (GET or POST).  A GET
# is a one-point batch; a POST is the batch plus its ``count``.
_MODEL_ENDPOINTS: dict[str, Callable[[Container[str], bool], _ModelForm]] = {
    "/v1/model/conflict": lambda keys, get: _CONFLICT,
    "/v1/model/sizing": lambda keys, get: _SIZING,
    "/v1/model/capacity": lambda keys, get: _CAPACITY,
    "/v1/birthday": _birthday_form,
}


@dataclass(frozen=True)
class ServiceConfig:
    """Everything the service needs to boot.

    Attributes
    ----------
    host, port:
        Bind address; ``port=0`` asks the kernel for an ephemeral port
        (the bound port is reported on :class:`Service`).
    workers:
        Job-queue worker threads executing sweep bodies.
    queue_capacity:
        Maximum pending + running jobs before submissions get 429.
    job_timeout:
        Per-job wall-clock budget in seconds (``None`` = unlimited).
    cache_capacity:
        In-memory LRU entries of the result cache.
    cache_dir:
        Optional directory for the persistent disk tier.
    drain_timeout:
        Seconds to wait for in-flight jobs during graceful shutdown.
    cluster_workers:
        Worker threads per ``execution: cluster`` sweep job.
    microbatch_window:
        Seconds a conflict GET waits for company before its
        micro-batch flushes (``0`` disables coalescing; each request
        still evaluates through the batch code path, alone).
    microbatch_max:
        Conflict GETs per micro-batch before an immediate flush.
    """

    host: str = "127.0.0.1"
    port: int = 8642
    workers: int = 2
    queue_capacity: int = 16
    job_timeout: Optional[float] = 300.0
    cache_capacity: int = 256
    cache_dir: Optional[str] = None
    drain_timeout: float = 10.0
    cluster_workers: int = 2
    microbatch_window: float = 0.0005
    microbatch_max: int = 128

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.microbatch_window < 0:
            raise ValueError(
                f"microbatch_window must be non-negative, got {self.microbatch_window}"
            )
        if self.microbatch_max < 1:
            raise ValueError(f"microbatch_max must be >= 1, got {self.microbatch_max}")
        if self.queue_capacity < 1:
            raise ValueError(f"queue_capacity must be >= 1, got {self.queue_capacity}")
        if self.job_timeout is not None and self.job_timeout <= 0:
            raise ValueError(f"job_timeout must be positive, got {self.job_timeout}")
        if self.cache_capacity < 1:
            raise ValueError(f"cache_capacity must be >= 1, got {self.cache_capacity}")
        if self.cluster_workers < 1:
            raise ValueError(f"cluster_workers must be >= 1, got {self.cluster_workers}")


class Service(JsonHttpServer):
    """One bound instance of the serving layer.

    Owns the cache, the job queue, the metrics registry, and (once
    started) the listening socket.  Tests construct it directly with
    ``port=0``; production goes through :func:`serve`.
    """

    server_name = "repro-service"

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        self.config = config or ServiceConfig()
        super().__init__(self.config.host, self.config.port)
        self.metrics = MetricsRegistry()
        m = self.metrics
        self._requests = m.counter(
            "repro_requests_total", "HTTP requests by endpoint", label="endpoint"
        )
        self._responses = m.counter(
            "repro_responses_total", "HTTP responses by status code", label="status"
        )
        self._latency = m.histogram(
            "repro_request_latency_seconds", "Request handling latency", label="endpoint"
        )
        self._jobs_terminal = m.counter(
            "repro_jobs_total", "Sweep jobs by terminal state", label="state"
        )
        self._rejections = m.counter(
            "repro_queue_rejections_total", "Submissions rejected by backpressure"
        )
        self._cache_hits = m.counter(
            "repro_cache_hits_total", "Sweep submissions answered from the result cache"
        )
        self._cache_misses = m.counter(
            "repro_cache_misses_total", "Sweep submissions that required computation"
        )
        self._queue_depth = m.gauge(
            "repro_queue_depth", "Jobs admitted and not yet finished"
        )
        self._jobs_running = m.gauge("repro_jobs_running", "Jobs currently executing")
        self._queue_wait = m.histogram(
            "repro_queue_wait_seconds",
            "Queue wait from admission to execution start",
        )
        self._cache_ratio = m.gauge(
            "repro_cache_hit_ratio", "Result-cache hit fraction since boot"
        )
        self._uptime = m.gauge("repro_uptime_seconds", "Seconds since service start")
        self._model_points = m.counter(
            "repro_model_points_total",
            "Model points evaluated, by endpoint",
            label="endpoint",
        )
        self._microbatch_occupancy = m.histogram(
            "repro_microbatch_occupancy",
            "Scalar model GETs coalesced per micro-batch flush",
            buckets=(1, 2, 4, 8, 16, 32, 64, 128, 256),
        )
        self._microbatch_wait = m.histogram(
            "repro_microbatch_flush_wait_seconds",
            "Collection time from first request to flush per micro-batch",
        )
        self._microbatch_flushes = m.counter(
            "repro_microbatch_flushes_total", "Micro-batch flushes"
        )
        self._sweep_points_done = m.gauge(
            "repro_sweep_points_done",
            "Grid points settled so far for a tracked sweep job",
            label="job",
        )
        self._cache_entry_bytes = m.histogram(
            "repro_cache_entry_bytes",
            "On-disk size of result-cache entries (post-compression)",
            buckets=(256, 1024, 4096, 16384, 65536, 262144, 1048576, 4194304),
        )
        self.cache = ResultCache(
            self.config.cache_capacity,
            disk_dir=self.config.cache_dir,
            on_entry_bytes=self._cache_entry_bytes.observe,
        )
        # Live columnar results by job id: filled by the worker thread
        # running the job, read by the event loop for progress and
        # streaming delivery.  SweepFrame itself is thread-safe; the
        # registry is only touched from the event loop.
        self._frames: "OrderedDict[str, SweepFrame]" = OrderedDict()
        self._conflict_batcher = MicroBatcher(
            partial(self._evaluate_rows, "/v1/model/conflict", _CONFLICT),
            window=self.config.microbatch_window,
            max_batch=self.config.microbatch_max,
            observe=self._observe_microbatch,
        )
        self.queue = JobQueue(
            workers=self.config.workers,
            capacity=self.config.queue_capacity,
            default_timeout=self.config.job_timeout,
            on_transition=self._on_job_transition,
        )
        self._routes: dict[tuple[str, str], Callable[..., Any]] = {
            ("GET", "/healthz"): self._handle_healthz,
            ("GET", "/metrics"): self._handle_metrics,
            ("POST", "/v1/sweeps"): self._handle_submit,
        }
        for path in _MODEL_ENDPOINTS:
            self._routes["GET", path] = partial(self._handle_model_get, path)
            self._routes["POST", path] = partial(self._handle_model_post, path)
        self._started_at = time.monotonic()

    # -- lifecycle ----------------------------------------------------

    def _on_start(self) -> None:
        self._started_at = time.monotonic()

    async def stop(self, *, drain: bool = True) -> None:
        """Graceful shutdown: close the socket, drain the queue.

        With ``drain=True``, in-flight and queued jobs run to
        completion (up to ``config.drain_timeout``); new submissions
        are already impossible because the socket is closed.
        """
        await super().stop()
        if drain:
            await asyncio.get_running_loop().run_in_executor(
                None, partial(self.queue.drain, self.config.drain_timeout)
            )
        self.queue.close()

    # -- job bookkeeping ----------------------------------------------

    def _on_job_transition(self, job: Job, old: JobState) -> None:
        if old is JobState.QUEUED and job.state is JobState.RUNNING:
            wait = job.wait_seconds
            if wait is not None:
                self._queue_wait.observe(wait)
        if job.state.terminal:
            self._jobs_terminal.inc(label=job.state.value)
            self._sweep_points_done.remove(label=job.id)

    def _refresh_gauges(self) -> None:
        self._queue_depth.set(self.queue.depth)
        self._jobs_running.set(self.queue.running)
        self._cache_ratio.set(self.cache.stats().hit_ratio)
        self._uptime.set(time.monotonic() - self._started_at)

    def _run_job(self, kind: str, params: dict[str, Any], seed: int,
                 jobs: Optional[int], execution: str, key: str,
                 frame: Optional[SweepFrame] = None) -> dict[str, Any]:
        result = execute_sweep(
            kind,
            params,
            seed,
            jobs,
            execution=execution,
            cluster_workers=self.config.cluster_workers,
            cache=self.cache if execution == "cluster" else None,
            frame=frame,
        )
        self.cache.put(key, result)
        return result

    def _register_frame(self, job_id: str, frame: SweepFrame) -> None:
        self._frames[job_id] = frame
        self._frames.move_to_end(job_id)
        while len(self._frames) > MAX_TRACKED_FRAMES:
            evicted, _ = self._frames.popitem(last=False)
            self._sweep_points_done.remove(label=evicted)

    def submit_sweep(self, body: Mapping[str, Any]) -> tuple[Job, bool]:
        """Validate + cache-probe + admit one sweep request.

        Returns ``(job, was_cache_hit)``.  Raises
        :class:`~repro.sim.catalog.SweepValidationError`,
        :class:`~repro.service.queue.QueueFull`, or
        :class:`~repro.service.queue.QueueClosed` — callers map those
        to 400/429/503.
        """
        kind, params, seed, jobs, execution = validate_sweep_request(body)
        # Execution mode selects how the sweep runs, never what it
        # computes — the determinism contract — so it is not in the key.
        key = cache_key({"kind": kind, "params": params}, seed)
        request_echo = {"kind": kind, "params": params, "seed": seed}
        if execution != "local":
            request_echo["execution"] = execution
        hit, cached = self.cache.lookup(key)
        if hit:
            self._cache_hits.inc()
            job = Job(
                id=f"hit-{key[:12]}",
                params=request_echo,
                state=JobState.SUCCEEDED,
                result=cached,
                cache_hit=True,
            )
            # Polling must work for cache hits too; tolerate the same
            # content being re-submitted while a prior hit is retained.
            if self.queue.get(job.id) is None:
                self.queue.add_completed(job)
                self._jobs_terminal.inc(label=JobState.SUCCEEDED.value)
            return self.queue.get(job.id) or job, True
        self._cache_misses.inc()
        frame = SWEEP_KINDS[kind].make_frame(params)
        job = self.queue.submit(
            partial(self._run_job, kind, params, seed, jobs, execution, key, frame),
            params=request_echo,
        )
        if frame is not None:
            self._register_frame(job.id, frame)
        return job, False

    # -- transport hooks ----------------------------------------------

    def _observe_request(self, endpoint: str, status: HTTPStatus,
                         seconds: float) -> None:
        if endpoint != "bad":  # protocol garbage: count the response only
            self._requests.inc(label=endpoint)
            self._latency.observe(seconds, label=endpoint)
        self._responses.inc(label=str(int(status)))

    def _map_exception(self, exc: Exception, path: str):
        if isinstance(exc, QueueFull):
            self._rejections.inc()
            return (
                "/v1/sweeps",
                HTTPStatus.TOO_MANY_REQUESTS,
                {
                    "error": str(exc),
                    "queue_depth": exc.depth,
                    "queue_capacity": exc.capacity,
                    "retry_after_seconds": exc.retry_after,
                },
                {"Retry-After": str(int(round(exc.retry_after)))},
            )
        if isinstance(exc, QueueClosed):
            return (
                "/v1/sweeps",
                HTTPStatus.SERVICE_UNAVAILABLE,
                {"error": "service is shutting down"},
                {},
            )
        if isinstance(exc, SweepValidationError):
            return ("/v1/sweeps", HTTPStatus.BAD_REQUEST, {"error": str(exc)}, {})
        if isinstance(exc, ValueError):
            # Model-layer validation (e.g. commit probability out of range).
            return (path, HTTPStatus.BAD_REQUEST, {"error": str(exc)}, {})
        return None

    def _route(self, method: str, path: str) -> tuple[str, Callable[..., Any]]:
        fixed = self._routes
        if (method, path) in fixed:
            return path, fixed[(method, path)]
        if path.startswith("/v1/sweeps/"):
            job_id = path[len("/v1/sweeps/"):]
            if method == "GET":
                return "/v1/sweeps/{id}", partial(self._handle_job_status, job_id)
            if method == "DELETE":
                return "/v1/sweeps/{id}", partial(self._handle_job_cancel, job_id)
        known_paths = {p for (_, p) in fixed} | {"/v1/sweeps"}
        if path in known_paths or path.startswith("/v1/sweeps/"):
            raise HTTPError(HTTPStatus.METHOD_NOT_ALLOWED, f"{method} not allowed here")
        raise HTTPError(HTTPStatus.NOT_FOUND, f"no such endpoint: {path}")

    # -- handlers -----------------------------------------------------

    def _handle_healthz(self, query: Mapping[str, list[str]], body: bytes):
        del query, body
        stats = self.cache.stats()
        return (
            HTTPStatus.OK,
            {
                "status": "ok",
                "uptime_seconds": time.monotonic() - self._started_at,
                "queue": {
                    "depth": self.queue.depth,
                    "running": self.queue.running,
                    "capacity": self.queue.capacity,
                },
                "cache": {
                    "hits": stats.hits,
                    "misses": stats.misses,
                    "hit_ratio": stats.hit_ratio,
                },
            },
            {},
        )

    def _handle_metrics(self, query: Mapping[str, list[str]], body: bytes):
        del query, body
        self._refresh_gauges()
        text = self.metrics.render()
        return (
            HTTPStatus.OK,
            ("text/plain; version=0.0.4; charset=utf-8", text),
            {},
        )

    def _observe_microbatch(self, size: int, wait: float) -> None:
        self._microbatch_occupancy.observe(size)
        self._microbatch_wait.observe(wait)
        self._microbatch_flushes.inc()

    def _evaluate(self, path: str, form: _ModelForm, cols: _Columns,
                  count: int) -> _Columns:
        """Response columns for validated points: the inputs, then the outputs."""
        out = {**cols, **form.evaluate(cols)}
        self._model_points.inc(count, label=path)
        return out

    def _evaluate_rows(self, path: str, form: _ModelForm,
                       points: list[dict[str, Any]]) -> list[dict[str, Any]]:
        """Evaluate single points as one batch; row ``i`` answers ``points[i]``."""
        cols = {name: [p[name] for p in points] for name, _, _ in form.fields}
        out = self._evaluate(path, form, cols, len(points))
        return [dict(zip(out, values)) for values in zip(*out.values())]

    @staticmethod
    def _require_finite(values: Sequence[float], field: str) -> None:
        if not all(map(math.isfinite, values)):
            bad = next(i for i, value in enumerate(values) if not math.isfinite(value))
            raise HTTPError(
                HTTPStatus.BAD_REQUEST,
                f"result {field!r} is non-finite at point {bad}; "
                "the model overflows for these parameters",
            )

    async def _handle_model_get(self, path: str, query: Mapping[str, list[str]],
                                body: bytes):
        """One point from the query string, answered as a one-point batch."""
        del body
        form = _MODEL_ENDPOINTS[path](query, True)
        point = {
            name: (query_int if kind is int else query_float)(
                query, name, None if default is _REQUIRED else default
            )
            for name, kind, default in form.fields
        }
        if form is _CONFLICT:
            # Validate *before* joining a batch: a bad point must 400 alone,
            # never poison the flush it would have ridden in.
            ModelParams(n_entries=point["n"], concurrency=point["c"], alpha=point["alpha"])
            if point["w"] < 0:
                raise ValueError("write footprint W must be non-negative")
            row = await self._conflict_batcher.submit(point)
        else:
            row = self._evaluate_rows(path, form, [point])[0]
        if form.finite is not None:
            self._require_finite([row[form.finite]], form.finite)
        return HTTPStatus.OK, row, {}

    def _handle_model_post(self, path: str, query: Mapping[str, list[str]],
                           body: bytes):
        """A batch of points from a JSON body of columns."""
        del query
        parsed = self.parse_json_body(body)
        if not isinstance(parsed, dict):
            raise HTTPError(HTTPStatus.BAD_REQUEST, "request body must be a JSON object")
        form = _MODEL_ENDPOINTS[path](parsed, False)
        cols, count = _batch_columns(parsed, form.fields)
        out = self._evaluate(path, form, cols, count)
        if form.finite is not None:
            self._require_finite(out[form.finite], form.finite)
        return HTTPStatus.OK, {"count": count, **out}, {}

    def _handle_submit(self, query: Mapping[str, list[str]], body: bytes):
        del query
        parsed = self.parse_json_body(body)
        job, hit = self.submit_sweep(parsed)
        status = HTTPStatus.OK if hit else HTTPStatus.ACCEPTED
        payload = {
            "id": job.id,
            "state": job.state.value,
            "cache_hit": hit,
            "href": f"/v1/sweeps/{job.id}",
        }
        if hit:
            payload["result"] = job.result  # spare the client a round trip
        return status, payload, {}

    @staticmethod
    def _query_format(query: Mapping[str, list[str]]) -> str:
        values = query.get("format", ["status"])
        if len(values) > 1:
            raise HTTPError(
                HTTPStatus.BAD_REQUEST, "query parameter 'format' given more than once"
            )
        fmt = values[0]
        if fmt not in ("status", "rows", "frame"):
            raise HTTPError(
                HTTPStatus.BAD_REQUEST,
                f"unknown format {fmt!r}; expected one of: frame, rows, status",
            )
        return fmt

    @staticmethod
    def _stream_window(query: Mapping[str, list[str]], frame: SweepFrame,
                       ) -> tuple[int, Optional[int]]:
        """Validate offset/limit against the frame: (offset, limit).

        ``offset`` past the grid is a clean 416 — the client has walked
        off the end and should stop; an offset inside the grid but past
        the filled prefix simply yields an empty window (poll again).
        """
        offset = query_int(query, "offset", 0)
        if offset < 0:
            raise HTTPError(
                HTTPStatus.BAD_REQUEST, "query parameter 'offset' must be >= 0"
            )
        if offset > frame.capacity:
            raise HTTPError(
                HTTPStatus.REQUESTED_RANGE_NOT_SATISFIABLE,
                f"offset {offset} is beyond the {frame.capacity}-point grid",
            )
        limit: Optional[int] = None
        if "limit" in query:
            limit = query_int(query, "limit")
            if limit < 1:
                raise HTTPError(
                    HTTPStatus.BAD_REQUEST, "query parameter 'limit' must be >= 1"
                )
        return offset, limit

    @staticmethod
    def _stream_headers(frame: SweepFrame, offset: int, count: int) -> dict[str, str]:
        return {
            "X-Sweep-Points-Done": str(frame.filled_count),
            "X-Sweep-Points-Total": str(frame.capacity),
            "X-Sweep-Offset": str(offset),
            "X-Sweep-Count": str(count),
            "X-Sweep-Complete": "true" if frame.complete else "false",
        }

    def _handle_job_status(self, job_id: str, query: Mapping[str, list[str]], body: bytes):
        del body
        job = self.queue.get(job_id)
        if job is None:
            raise HTTPError(HTTPStatus.NOT_FOUND, f"no such job: {job_id}")
        fmt = self._query_format(query)
        frame = self._frames.get(job_id)
        if fmt == "status":
            snapshot = job.snapshot()
            if frame is not None:
                done = frame.filled_count
                self._sweep_points_done.set(done, label=job_id)
                if not job.state.terminal:
                    # The progress signal for still-running sweeps.
                    snapshot["points_done"] = done
                    snapshot["points_total"] = frame.capacity
            return HTTPStatus.OK, snapshot, {}
        if frame is None:
            raise HTTPError(
                HTTPStatus.BAD_REQUEST,
                f"job {job_id} has no columnar result stream (cache hits and "
                f"non-grid kinds answer inline; use the plain status GET)",
            )
        offset, limit = self._stream_window(query, frame)
        if fmt == "frame":
            payload = frame.to_wire(offset, limit)
            headers = self._stream_headers(frame, offset, int(payload["count"]))
            return HTTPStatus.OK, payload, headers
        # format=rows: NDJSON over the contiguous filled prefix.  Each
        # line is a self-contained row keyed by grid index, so windowed
        # reads concatenate byte-identically to one full read.
        lines = [
            json.dumps(
                {"index": i, "point": point, "outcome": outcome},
                separators=(",", ":"),
                allow_nan=False,
            )
            + "\n"
            for i, point, outcome in frame.rows(offset, limit)
        ]
        headers = self._stream_headers(frame, offset, len(lines))
        return HTTPStatus.OK, (NDJSON_CONTENT_TYPE, "".join(lines)), headers

    def _handle_job_cancel(self, job_id: str, query: Mapping[str, list[str]], body: bytes):
        del query, body
        job = self.queue.get(job_id)
        if job is None:
            raise HTTPError(HTTPStatus.NOT_FOUND, f"no such job: {job_id}")
        cancelled = self.queue.cancel(job_id)
        if not cancelled:
            raise HTTPError(
                HTTPStatus.CONFLICT,
                f"job {job_id} is {job.state.value}; only queued jobs can be cancelled",
            )
        return HTTPStatus.OK, job.snapshot(), {}


class ServiceThread(ServerThread):
    """A :class:`Service` running on a private event loop in a thread.

    The shape tests, benchmarks, and the load generator's self-serve
    mode all need: boot in-process, learn the bound port, talk to it
    over real sockets from ordinary synchronous code, stop cleanly.

    Use as a context manager::

        with start_in_thread(ServiceConfig(port=0)) as svc:
            requests_go_to(svc.host, svc.port)
    """

    thread_name = "repro-service"

    @property
    def service(self) -> Service:
        """The wrapped service."""
        server = self.server
        assert isinstance(server, Service)
        return server

    def stop(self, timeout: float = 30.0, *, drain: bool = True, **stop_kwargs: Any) -> None:
        """Stop the service and join the loop thread."""
        super().stop(timeout, drain=drain, **stop_kwargs)


def start_in_thread(config: Optional[ServiceConfig] = None) -> ServiceThread:
    """Boot a service on a background thread; returns the handle (started)."""
    return ServiceThread(Service(config)).start()


def serve(config: Optional[ServiceConfig] = None) -> int:
    """Run the service in the foreground until interrupted.

    The blocking entry point behind ``repro serve``.  SIGINT/SIGTERM
    (or Ctrl-C) triggers graceful shutdown: the socket closes first, so
    no new work is admitted, then the queue drains for up to
    ``config.drain_timeout`` seconds.
    """
    service = Service(config)

    async def run() -> None:
        await service.start()
        print(
            f"[repro-service] listening on http://{service.host}:{service.port} "
            f"(workers={service.config.workers}, "
            f"queue={service.config.queue_capacity})",
            flush=True,
        )
        try:
            await service.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await service.stop()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("[repro-service] shut down", flush=True)
    return 0
