"""The per-run manifest that makes an experiments run resumable.

The manifest is the run's durable control state: which figures exist,
each figure's spec hash (the content address of *what* will be
computed), the pinned chunk geometry, which figures are done, and a
fingerprint of the environment that produced it.  Results themselves
live in the content-addressed :class:`~repro.service.cache.ResultCache`
next to the manifest; the manifest is the map, the cache is the
territory.

Resume semantics: ``repro experiments run`` pointed at an output dir
with a manifest reloads it, refuses to continue if the spec hashes,
quality or seed diverge (:class:`ManifestMismatch` — the cache would
silently recompute everything, which is almost never what the operator
meant), warns on an environment drift, and reuses the pinned chunk
sizes so the chunk cache keys are identical to the interrupted run's.

The runner saves it once a figure's chunking is pinned, once the
figure is done, and at the end of the run — never per chunk: a resume
trusts the chunk cache, not a chunk count.  Saves are atomic (write to
a temp file, then ``os.replace``) so a kill mid-save leaves the
previous manifest intact.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Optional

from repro.sim.catalog import SWEEP_KINDS

__all__ = [
    "MANIFEST_NAME",
    "MANIFEST_VERSION",
    "ManifestMismatch",
    "RunManifest",
    "environment_fingerprint",
    "spec_hash",
]

MANIFEST_NAME = "manifest.json"
MANIFEST_VERSION = 2


class ManifestMismatch(Exception):
    """An existing manifest disagrees with the requested run.

    Raised when the manifest version, quality, seed or any figure's
    spec hash differ: the chunk cache keys would not line up, so
    "resume" would silently be a fresh run. The operator should pick a
    new ``--out`` dir (or delete the old one) instead.
    """


def spec_hash(kind: str, params: Mapping[str, Any], seed: int) -> str:
    """Content address of one figure's computation.

    The sweep kind's result key
    (:meth:`~repro.sim.catalog.SweepKind.result_key`): normalized
    params, seed and the kind's ``result_version``, so two runs that
    would compute the same figure bytes get the same hash.
    """
    return SWEEP_KINDS[kind].result_key(params, seed)


def environment_fingerprint() -> dict[str, str]:
    """Versions that could plausibly change simulated bytes.

    Recorded for provenance and compared on resume — a drift only warns
    (the cache keys are content-addressed, so stale entries are
    impossible; at worst a changed numpy recomputes chunks under new
    keys and the artifact diff catches any divergence).
    """
    import numpy

    import repro

    return {
        "python": platform.python_version(),
        "platform": sys.platform,
        "numpy": numpy.__version__,
        "repro": repro.__version__,
    }


@dataclass
class RunManifest:
    """Durable control state of one ``repro experiments run``.

    ``figures`` maps figure id to a JSON-safe record::

        {"kind": ..., "spec_hash": ..., "params": {...},
         "chunk_size": int | None, "chunks": int | None, "done": bool}

    ``chunk_size``/``chunks`` are pinned the first time the figure is
    planned and must be reused verbatim on resume — chunk cache keys
    depend on chunk geometry through the per-chunk point lists.
    """

    quality: str
    seed: int
    figures: dict[str, dict[str, Any]] = field(default_factory=dict)
    environment: dict[str, str] = field(default_factory=environment_fingerprint)
    version: int = MANIFEST_VERSION
    complete: bool = False

    # -- figure state --------------------------------------------------

    def plan_figure(self, figure: str, kind: str, params: Mapping[str, Any],
                    seed: int) -> dict[str, Any]:
        """Register (or fetch) a figure's record, verifying its hash.

        Raises :class:`ManifestMismatch` if a previously planned figure
        now hashes differently — params, seed or the kind's
        ``result_version`` changed under the same output dir.
        """
        digest = spec_hash(kind, params, seed)
        record = self.figures.get(figure)
        if record is None:
            record = {
                "kind": kind,
                "spec_hash": digest,
                "params": dict(params),
                "chunk_size": None,
                "chunks": None,
                "done": False,
            }
            self.figures[figure] = record
        elif record["spec_hash"] != digest:
            raise ManifestMismatch(
                f"figure {figure!r}: manifest spec hash {record['spec_hash']} "
                f"!= requested {digest}; params, seed or result version "
                f"changed — use a fresh output dir"
            )
        return record

    def pin_chunking(self, figure: str, chunk_size: int, chunks: int) -> int:
        """Pin (or reload) a figure's chunk geometry; returns chunk_size.

        The first call records the geometry; later calls (resumes)
        return the pinned size so cache keys stay stable even if the
        adaptive sizer would now recommend something else.
        """
        record = self.figures[figure]
        if record["chunk_size"] is None:
            record["chunk_size"] = int(chunk_size)
            record["chunks"] = int(chunks)
        return int(record["chunk_size"])

    def mark_done(self, figure: str) -> None:
        """Mark a figure fully assembled."""
        self.figures[figure]["done"] = True

    # -- persistence ---------------------------------------------------

    def to_wire(self) -> dict[str, Any]:
        """JSON-safe dict for persistence."""
        return {
            "version": self.version,
            "quality": self.quality,
            "seed": self.seed,
            "complete": self.complete,
            "environment": dict(self.environment),
            "figures": {k: dict(v) for k, v in self.figures.items()},
        }

    def save(self, out_dir: Path) -> Path:
        """Atomically write the manifest under ``out_dir``."""
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        target = out_dir / MANIFEST_NAME
        payload = json.dumps(self.to_wire(), indent=2, sort_keys=True) + "\n"
        fd, tmp = tempfile.mkstemp(dir=str(out_dir), prefix=".manifest-")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(payload)
            os.replace(tmp, target)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return target

    @classmethod
    def load(cls, out_dir: Path) -> Optional["RunManifest"]:
        """Load the manifest under ``out_dir``, or ``None`` if absent."""
        path = Path(out_dir) / MANIFEST_NAME
        if not path.exists():
            return None
        data = json.loads(path.read_text())
        if data.get("version") != MANIFEST_VERSION:
            raise ManifestMismatch(
                f"manifest version {data.get('version')!r} != {MANIFEST_VERSION}; "
                f"use a fresh output dir"
            )
        return cls(
            quality=data["quality"],
            seed=int(data["seed"]),
            figures={k: dict(v) for k, v in data.get("figures", {}).items()},
            environment=dict(data.get("environment", {})),
            version=int(data["version"]),
            complete=bool(data.get("complete", False)),
        )

    def check_resume(self, quality: str, seed: int) -> list[str]:
        """Validate this manifest against a resume request.

        Raises :class:`ManifestMismatch` on quality/seed divergence;
        returns human-readable warnings (environment drift) otherwise.
        """
        if self.quality != quality or self.seed != seed:
            raise ManifestMismatch(
                f"output dir holds a quality={self.quality!r} seed={self.seed} "
                f"run; requested quality={quality!r} seed={seed} — use a "
                f"fresh output dir"
            )
        warnings = []
        current = environment_fingerprint()
        for key in sorted(set(self.environment) | set(current)):
            then, now = self.environment.get(key), current.get(key)
            if then != now:
                warnings.append(
                    f"environment drift: {key} was {then!r}, now {now!r}"
                )
        return warnings
