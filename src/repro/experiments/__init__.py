"""One-command reproduction of every paper figure, resumably.

``repro.experiments`` turns the declarative sweep-kind table
(:data:`repro.sim.catalog.SWEEP_KINDS`) into a figure-level pipeline:

* :mod:`repro.experiments.specs` — one :class:`ExperimentSpec` per
  paper figure (grid presets per quality tier, the paper claims the
  figure supports, and the paper's in-text numbers it measures);
* :mod:`repro.experiments.manifest` — the per-run :class:`RunManifest`
  (spec hashes, pinned chunk geometry, completion state, environment
  fingerprint) that makes an interrupted run resumable;
* :mod:`repro.experiments.sizing` — :class:`ChunkSizer`, adaptive chunk
  sizing from observed per-worker throughput;
* :mod:`repro.experiments.runner` — :func:`run_experiments`, the
  orchestrator behind ``repro experiments run`` (serial, process-pool
  or elastic cluster execution, checkpointed per chunk through the
  content-addressed :class:`~repro.service.cache.ResultCache`);
* :mod:`repro.experiments.artifact` — the deterministic report bundle
  (``report.md`` + ``report.json``) written under the output dir, the
  one reproduction report.

The contract: a run interrupted at any point and restarted with the
same command skips every finished chunk (cache hits, visible in
telemetry) and produces a byte-identical artifact.
"""

from repro.experiments.artifact import write_artifact
from repro.experiments.manifest import ManifestMismatch, RunManifest
from repro.experiments.runner import (
    ExperimentInterrupted,
    ExperimentsConfig,
    ExperimentsResult,
    FigureTelemetry,
    run_experiments,
)
from repro.experiments.sizing import ChunkSizer
from repro.experiments.specs import EXPERIMENTS, Claim, ExperimentSpec

__all__ = [
    "ChunkSizer",
    "Claim",
    "EXPERIMENTS",
    "ExperimentInterrupted",
    "ExperimentSpec",
    "ExperimentsConfig",
    "ExperimentsResult",
    "FigureTelemetry",
    "ManifestMismatch",
    "RunManifest",
    "run_experiments",
    "write_artifact",
]
