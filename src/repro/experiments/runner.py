"""The orchestrator behind ``repro experiments run``.

One call of :func:`run_experiments` executes every paper figure (or a
subset) at the requested quality tier, checkpointing each chunk of each
figure through the content-addressed
:class:`~repro.service.cache.ResultCache` on disk under the output dir.
The per-run :class:`~repro.experiments.manifest.RunManifest` pins what
is being computed (spec hashes) and how it is chunked, so an
interrupted run restarted with the same command finds every finished
chunk already in the cache and converges on a byte-identical report
artifact.

Figures run on the shared executors, which checkpoint chunks the same
way in every mode (keyed by
:func:`~repro.cluster.coordinator.chunk_cache_key`):

* serial / ``--jobs N`` — :meth:`~repro.sim.catalog.SweepKind.run`,
  i.e. :func:`repro.sim.sweep.run_grid` serially or on one process pool
  per figure;
* ``--cluster N`` (with ``--jobs M``, a pool per worker) —
  :func:`~repro.cluster.coordinator.run_sweep_cluster`, an in-process
  elastic fleet with work stealing enabled and optional mid-run
  membership churn (one injected departure, one late join) for
  elasticity tests and the CI smoke job.

The runner's cache counts the chunks it stores to trip
``crash_after_chunks``; the manifest is saved per figure, not per chunk.
Because engines are deterministic and chunk keys are content-addressed,
the same run can even switch modes between interrupt and resume and
still reuse every finished chunk.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional, Sequence

from repro.cluster.coordinator import CoordinatorConfig, run_sweep_cluster
from repro.cluster.protocol import chunk_grid
from repro.experiments.artifact import write_artifact
from repro.experiments.manifest import RunManifest
from repro.experiments.sizing import DEFAULT_TARGET_SECONDS, ChunkSizer
from repro.experiments.specs import EXPERIMENTS, QUALITIES, ExperimentSpec
from repro.service.cache import ResultCache
from repro.sim.catalog import SWEEP_KINDS

__all__ = [
    "ExperimentInterrupted",
    "ExperimentsConfig",
    "ExperimentsResult",
    "FigureTelemetry",
    "run_experiments",
]

CACHE_DIR = "cache"


class ExperimentInterrupted(Exception):
    """Deterministic fault injection tripped (``crash_after_chunks``).

    Raised *after* the triggering chunk's result hits disk (the manifest
    was saved when the figure's chunking was pinned), so the interrupted
    run is exactly what a SIGKILL between two chunks would leave behind
    — the shape the resume tests exercise without needing a subprocess.
    """


@dataclass(frozen=True)
class FigureTelemetry:
    """What one figure's execution cost, and where the chunks came from.

    ``cache_hits`` + ``computed_chunks`` equals ``chunks``; a resumed
    run shows all hits and no computation.  ``workers`` is 0 for
    local execution; ``leases_stolen`` is only nonzero under
    ``--cluster`` with stealing triggered.
    """

    figure: str
    kind: str
    n_points: int
    chunks: int
    chunk_size: int
    cache_hits: int
    computed_chunks: int
    wall_seconds: float
    workers: int = 0
    leases_stolen: int = 0

    def summary(self) -> str:
        """One log line: ``fig4a: 20 points, 3/5 chunks cached, 1.2s``."""
        return (
            f"{self.figure}: {self.n_points} points, "
            f"{self.cache_hits}/{self.chunks} chunks cached, "
            f"{self.computed_chunks} computed in {self.wall_seconds:.2f}s"
            + (f", workers={self.workers}, stolen={self.leases_stolen}"
               if self.workers else "")
        )


@dataclass(frozen=True)
class ExperimentsConfig:
    """Everything one ``repro experiments run`` needs.

    Attributes
    ----------
    out_dir:
        Output directory: manifest, chunk cache and report artifact all
        live here; point a rerun at the same dir to resume.
    quality:
        Grid tier, ``smoke`` or ``normal``.
    seed:
        Master seed shared by every figure.
    jobs:
        Process-pool width: of the run, or of each cluster worker when
        combined with ``cluster``.
    cluster:
        Elastic in-process worker count.
    figures:
        Subset of figure ids to run; ``None`` runs all of them.
    lease_ttl:
        Cluster lease ttl; work stealing kicks in at half of it.
    chunk_target_seconds:
        Adaptive sizing target per lease.
    figure_timeout:
        Per-figure wall-clock cap for cluster runs.
    crash_after_chunks:
        Deterministic interrupt: raise
        :class:`ExperimentInterrupted` after this many *computed*
        chunks.  Serial and ``jobs`` runs only; rejected together with
        ``cluster``.  ``None`` disables.
    elastic_depart_after:
        Inject one worker departure: the first cluster figure's first
        worker vanishes mid-chunk after completing this many chunks.
    elastic_join_after:
        Inject one late join: an extra worker joins the first cluster
        figure this many seconds after it starts.
    """

    out_dir: Path
    quality: str = "smoke"
    seed: int = 0
    jobs: Optional[int] = None
    cluster: Optional[int] = None
    figures: Optional[Sequence[str]] = None
    lease_ttl: float = 10.0
    chunk_target_seconds: float = DEFAULT_TARGET_SECONDS
    figure_timeout: float = 600.0
    crash_after_chunks: Optional[int] = None
    elastic_depart_after: Optional[int] = None
    elastic_join_after: Optional[float] = None

    def __post_init__(self) -> None:
        if self.quality not in QUALITIES:
            raise ValueError(
                f"quality must be one of {', '.join(QUALITIES)}, got {self.quality!r}"
            )
        if self.jobs is not None and self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        if self.cluster is not None and self.cluster < 1:
            raise ValueError(f"cluster must be >= 1, got {self.cluster}")
        if self.figures is not None:
            unknown = sorted(set(self.figures) - set(EXPERIMENTS))
            if unknown:
                known = ", ".join(EXPERIMENTS)
                raise ValueError(
                    f"unknown figure(s) {', '.join(unknown)}; expected from: {known}"
                )
        if self.lease_ttl <= 0:
            raise ValueError(f"lease_ttl must be positive, got {self.lease_ttl}")
        if self.crash_after_chunks is not None and self.crash_after_chunks < 1:
            raise ValueError(
                f"crash_after_chunks must be >= 1, got {self.crash_after_chunks}"
            )
        if self.crash_after_chunks is not None and self.cluster is not None:
            raise ValueError("crash_after_chunks cannot be combined with cluster")


@dataclass(frozen=True)
class ExperimentsResult:
    """What a completed run produced, and how."""

    out_dir: Path
    manifest_path: Path
    report_md: Path
    report_json: Path
    figures: tuple[FigureTelemetry, ...]

    @property
    def cache_hits(self) -> int:
        """Chunks served from the checkpoint cache across all figures."""
        return sum(t.cache_hits for t in self.figures)

    @property
    def computed_chunks(self) -> int:
        """Chunks actually evaluated across all figures."""
        return sum(t.computed_chunks for t in self.figures)


def _selected(cfg: ExperimentsConfig) -> list[ExperimentSpec]:
    wanted = set(cfg.figures) if cfg.figures is not None else None
    return [
        spec for fig, spec in EXPERIMENTS.items()
        if wanted is None or fig in wanted
    ]


def _log(message: str) -> None:
    print(f"[experiments] {message}", file=sys.stderr, flush=True)


class _CheckpointCache(ResultCache):
    """The run's chunk cache, counting the chunks it stores.

    Each :meth:`put` counts toward ``crash_after_chunks``, raised only
    once that chunk is on disk.
    """

    def __init__(self, cfg: ExperimentsConfig) -> None:
        super().__init__(disk_dir=Path(cfg.out_dir) / CACHE_DIR)
        self.crash_after = cfg.crash_after_chunks
        self.computed = 0

    def put(self, key: str, value: Any) -> None:
        super().put(key, value)
        self.computed += 1
        if self.crash_after is not None and self.computed >= self.crash_after:
            raise ExperimentInterrupted(
                f"injected interrupt after {self.computed} computed chunks"
            )


def run_experiments(cfg: ExperimentsConfig) -> ExperimentsResult:
    """Execute every selected figure, checkpointed and resumable.

    Creates (or resumes) the manifest under ``cfg.out_dir``, walks the
    figures in report order, assembles each kind's result, and writes
    the deterministic report artifact.  Raises
    :class:`~repro.experiments.manifest.ManifestMismatch` if the output
    dir holds an incompatible run, :class:`ExperimentInterrupted` when
    fault injection trips, and :class:`ValueError` (a
    :class:`~repro.cluster.coordinator.ClusterError` under ``cluster``)
    if a point fails or the elastic fleet cannot finish a figure.
    """
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = RunManifest.load(out_dir)
    if manifest is None:
        manifest = RunManifest(quality=cfg.quality, seed=cfg.seed)
    else:
        for warning in manifest.check_resume(cfg.quality, cfg.seed):
            _log(warning)
        _log("resuming from existing manifest")
    manifest.complete = False
    cache = _CheckpointCache(cfg)
    sizer = ChunkSizer(cfg.chunk_target_seconds)
    workers = cfg.cluster if cfg.cluster is not None else (cfg.jobs or 1)
    depart_after = cfg.elastic_depart_after
    join_after = cfg.elastic_join_after
    results: dict[str, dict[str, Any]] = {}
    all_params: dict[str, dict[str, Any]] = {}
    telemetry: list[FigureTelemetry] = []

    for spec in _selected(cfg):
        kind = SWEEP_KINDS[spec.kind]
        params = spec.params(cfg.quality)
        all_params[spec.figure] = params
        manifest.plan_figure(spec.figure, spec.kind, params, cfg.seed)
        started = time.perf_counter()
        hits_before = cache.stats().hits
        stolen = cluster_workers = 0
        sweep = None
        if not kind.clusterable:
            n_points = chunk_size = chunks = manifest.pin_chunking(spec.figure, 1, 1)
            manifest.save(out_dir)
            key = kind.result_key(params, cfg.seed)
            hit, result = cache.lookup(key)
            if not hit:
                result = kind.execute(params, cfg.seed, cfg.jobs)
                cache.put(key, result)
        else:
            grid = kind.grid(params)
            n_points = len(grid)
            recommended = sizer.recommend(n_points, workers)
            chunk_size = manifest.pin_chunking(
                spec.figure, recommended, len(chunk_grid(n_points, recommended))
            )
            chunks = len(chunk_grid(n_points, chunk_size))
            manifest.save(out_dir)
            if cfg.cluster is None:
                sweep = kind.run(
                    params, cfg.seed, jobs=cfg.jobs, cache=cache,
                    chunk_size=chunk_size,
                )
            else:
                sweep = run_sweep_cluster(
                    kind.task(params, cfg.seed), grid,
                    workers=cfg.cluster, jobs_per_worker=cfg.jobs or 1,
                    config=CoordinatorConfig(
                        lease_ttl=cfg.lease_ttl, chunk_size=chunk_size,
                        steal_min_age=cfg.lease_ttl / 2,
                    ),
                    cache=cache, timeout=cfg.figure_timeout,
                    frame=kind.make_frame(params),
                    depart_after=depart_after, join_after=join_after,
                )
                depart_after = join_after = None  # one churn event each per run
                stolen = sweep.telemetry.leases_stolen
                cluster_workers = max(1, sweep.telemetry.workers)
        wall = time.perf_counter() - started
        computed = chunks - (cache.stats().hits - hits_before)
        if sweep is not None:
            if computed:
                sizer.observe(computed * chunk_size, wall, workers)
            result = kind.assemble(params, sweep)
        results[spec.figure] = result
        manifest.mark_done(spec.figure)
        manifest.save(out_dir)
        fig_t = FigureTelemetry(
            figure=spec.figure, kind=spec.kind, n_points=n_points,
            chunks=chunks, chunk_size=chunk_size, cache_hits=chunks - computed,
            computed_chunks=computed, wall_seconds=wall,
            workers=cluster_workers, leases_stolen=stolen,
        )
        telemetry.append(fig_t)
        _log(fig_t.summary())

    report_md, report_json = write_artifact(
        out_dir, cfg.quality, cfg.seed, results, all_params
    )
    manifest.complete = True
    manifest_path = manifest.save(out_dir)
    _log(
        f"run complete: {sum(t.cache_hits for t in telemetry)} chunks cached, "
        f"{sum(t.computed_chunks for t in telemetry)} computed; "
        f"artifact at {report_md}"
    )
    return ExperimentsResult(
        out_dir=out_dir,
        manifest_path=manifest_path,
        report_md=report_md,
        report_json=report_json,
        figures=tuple(telemetry),
    )
