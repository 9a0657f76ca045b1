"""repro.service — the async model-and-sweep serving layer.

Everything the reproduction computes is a pure function of explicit
configuration, which makes it unusually easy to serve: this package
wraps the closed-form model (:mod:`repro.core`) and the sweep-kind
table (:mod:`repro.sim.catalog`) in a JSON-over-HTTP API suitable for
capacity planning queries — "what conflict rate will this table see?",
"how big must the table be?", "run the Figure 4(a) sweep for these
parameters".

Module map
----------
* :mod:`repro.service.server` — the asyncio HTTP server, endpoints,
  and :func:`serve` / :class:`Service` / :class:`ServiceThread`.
* :mod:`repro.service.queue` — bounded job queue with overload
  rejection (the 429 path), per-job timeout, and graceful drain.
* :mod:`repro.service.cache` — content-addressed result cache
  (canonical JSON + SHA-256) with memory-LRU and disk tiers.
* :mod:`repro.service.metrics` — counter/gauge/histogram registry with
  Prometheus text rendering for ``GET /metrics``.
* :mod:`repro.service.batching` — the micro-batcher coalescing
  concurrent scalar model GETs into single vectorized evaluations.
* :mod:`repro.service.loadgen` — closed-loop async load generator
  behind ``repro loadgen`` and the service benchmarks.

Stdlib-only by design (``asyncio`` + ``http``): the service adds no
runtime dependencies beyond what the library already requires.

Quickstart
----------
>>> from repro.service import ServiceConfig, start_in_thread
>>> svc = start_in_thread(ServiceConfig(port=0))   # ephemeral port
>>> svc.port  # doctest: +SKIP
54321
>>> svc.stop()
"""

from repro.service.batching import MicroBatcher
from repro.service.cache import CacheStats, ResultCache, cache_key, canonical_json
from repro.service.loadgen import LoadGenConfig, LoadGenReport, run_loadgen, run_loadgen_sync
from repro.service.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.service.queue import Job, JobQueue, JobState, QueueClosed, QueueFull
from repro.service.server import (
    Service,
    ServiceConfig,
    ServiceThread,
    serve,
    start_in_thread,
)
from repro.sim.catalog import SWEEP_KINDS, execute_sweep, validate_sweep_request

__all__ = [
    "CacheStats",
    "Counter",
    "Gauge",
    "Histogram",
    "Job",
    "JobQueue",
    "JobState",
    "LoadGenConfig",
    "LoadGenReport",
    "MetricsRegistry",
    "MicroBatcher",
    "QueueClosed",
    "QueueFull",
    "ResultCache",
    "SWEEP_KINDS",
    "Service",
    "ServiceConfig",
    "ServiceThread",
    "cache_key",
    "canonical_json",
    "execute_sweep",
    "run_loadgen",
    "run_loadgen_sync",
    "serve",
    "start_in_thread",
    "validate_sweep_request",
]
