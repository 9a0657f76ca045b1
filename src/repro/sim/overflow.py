"""HTM overflow characterization (§2.3 → Figure 3).

"We extract traces synthetically representing transactions from
sequential applications and execute each trace on a cache simulator to
identify the point at which an eviction of a data item touched by the
trace occurs. ... For each benchmark, we collected ... at least 20
traces from at least two randomly selected checkpoints per benchmark.
The data plotted is a simple arithmetic mean."

:func:`characterize_overflow` measures one benchmark profile;
:func:`fleet_summary` runs the whole Figure 3 fleet and the AVG column.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Iterator, Mapping, Optional, Sequence

import numpy as np

from repro.htm.cache import CacheGeometry
from repro.htm.htm import HTMContext, HTMOverflow
from repro.sim.overflow_fast import _FIRST_CHUNK
from repro.sim.parallel import raise_first_failure
from repro.sim.sweep import run_grid
from repro.traces.workloads import SPEC2000_PROFILES, BenchmarkProfile, _trace_prefixes
from repro.util.rng import stream_rng

__all__ = [
    "OverflowConfig",
    "OverflowDistribution",
    "OverflowResult",
    "characterize_overflow",
    "fleet_summary",
    "overflow_distribution",
    "simulate_htm_overflow",
]


@dataclass(frozen=True)
class OverflowConfig:
    """Parameters of an overflow characterization run.

    Attributes
    ----------
    n_traces:
        Traces per benchmark (paper: ≥ 20, from ≥ 2 checkpoints — our
        checkpoints are independent seeds).
    trace_accesses:
        Length of each synthesized trace; must be long enough that every
        trace overflows (traces that fit are reported separately).
    victim_entries:
        Victim-buffer capacity (0 = the baseline bars; 1 = the "w/VB"
        bars of Figure 3).
    geometry:
        Cache geometry; defaults to the paper's 32 KB 4-way.
    seed:
        Master seed.
    """

    n_traces: int = 20
    trace_accesses: int = 200_000
    victim_entries: int = 0
    geometry: Optional[CacheGeometry] = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_traces <= 0:
            raise ValueError(f"n_traces must be positive, got {self.n_traces}")
        if self.trace_accesses <= 0:
            raise ValueError(f"trace_accesses must be positive, got {self.trace_accesses}")
        if self.victim_entries < 0:
            raise ValueError(f"victim_entries must be non-negative, got {self.victim_entries}")


@dataclass(frozen=True)
class OverflowResult:
    """Per-benchmark overflow averages (one Figure 3 bar group).

    All fields are arithmetic means over the overflowing traces, matching
    the paper's aggregation.
    """

    benchmark: str
    mean_read_blocks: float
    mean_write_blocks: float
    mean_instructions: float
    mean_utilization: float
    traces_overflowed: int
    traces_fit: int

    @property
    def mean_footprint(self) -> float:
        """Mean distinct blocks at overflow (reads + writes)."""
        return self.mean_read_blocks + self.mean_write_blocks

    @property
    def write_fraction(self) -> float:
        """Written share of the footprint (paper: about one-third)."""
        total = self.mean_footprint
        return self.mean_write_blocks / total if total else 0.0


def simulate_htm_overflow(
    trace,
    geometry: Optional[CacheGeometry] = None,
    *,
    victim_entries: int = 0,
):
    """Run one trace transactionally; ``None`` means it fit.

    The ``"reference"`` entry of the ``overflow`` engine kind
    (:mod:`repro.sim.engines`): a direct replay through
    :class:`~repro.htm.htm.HTMContext`.  The fast engine
    (:func:`repro.sim.overflow_fast.simulate_htm_overflow_fast`) returns
    byte-identical :class:`~repro.htm.htm.HTMOverflow` fields.
    """
    ctx = HTMContext(geometry, victim_entries=victim_entries)
    return ctx.run(trace)


def _overflow_points(
    profile: BenchmarkProfile,
    cfg: OverflowConfig,
    engine: Optional[str],
) -> Iterator[Optional[HTMOverflow]]:
    """Each of ``cfg``'s traces' overflow point, or ``None`` if it fits.

    Feeds the engine growing prefixes of each trace and stops at the
    first overflow.  The HTM model is causal, so an engine run on
    ``trace[:hi]`` returns its full-trace verdict when the overflow index
    is below ``hi`` and ``None`` otherwise; a trace that fits reaches
    ``hi == trace_accesses`` and reports ``None`` as a full run would.
    """
    from repro.sim.engines import get_engine  # avoid import cycle

    simulate = get_engine("overflow", engine)
    for k in range(cfg.n_traces):
        rng = stream_rng(cfg.seed, "overflow", bench=profile.name, trace=k)
        ov = None
        for prefix in _trace_prefixes(profile, cfg.trace_accesses, rng, _FIRST_CHUNK):
            ov = simulate(prefix, cfg.geometry, victim_entries=cfg.victim_entries)
            if ov is not None:
                break
        yield ov


def characterize_overflow(
    profile: BenchmarkProfile,
    cfg: OverflowConfig,
    *,
    engine: Optional[str] = None,
) -> OverflowResult:
    """Measure mean overflow footprint/instructions for one benchmark.

    ``engine`` names an ``overflow`` entry of :mod:`repro.sim.engines`
    (``None`` means ``"fast"``); it is a test seam — engines are
    byte-identical, so the differential suites and the speedup
    benchmark pass ``"reference"`` to compare the pair.
    """
    points = list(_overflow_points(profile, cfg, engine))
    overflowed = [ov for ov in points if ov is not None]
    fit = len(points) - len(overflowed)
    if not overflowed:
        return OverflowResult(profile.name, 0.0, 0.0, 0.0, 0.0, 0, fit)
    return OverflowResult(
        benchmark=profile.name,
        mean_read_blocks=float(np.mean([ov.footprint.read_blocks for ov in overflowed])),
        mean_write_blocks=float(np.mean([ov.footprint.write_blocks for ov in overflowed])),
        mean_instructions=float(np.mean([ov.instructions for ov in overflowed])),
        mean_utilization=float(np.mean([ov.utilization for ov in overflowed])),
        traces_overflowed=len(overflowed),
        traces_fit=fit,
    )


def _characterize_named(
    bench: str,
    *,
    profile_table: Mapping[str, BenchmarkProfile],
    cfg: OverflowConfig,
    engine: Optional[str] = None,
) -> OverflowResult:
    """Sweep-point adapter: characterize one benchmark by name."""
    return characterize_overflow(profile_table[bench], cfg, engine=engine)


def fleet_summary(
    cfg: OverflowConfig,
    *,
    benchmarks: Optional[Sequence[str]] = None,
    profiles: Optional[Mapping[str, BenchmarkProfile]] = None,
    jobs: Optional[int] = None,
    engine: Optional[str] = None,
) -> dict[str, OverflowResult]:
    """Characterize every benchmark plus the paper's ``AVG`` column.

    Returns an ordered mapping benchmark → result, with a final ``"AVG"``
    entry holding the arithmetic mean of the per-benchmark means (the
    paper's aggregation). ``jobs`` fans the per-benchmark runs out over
    a process pool; each benchmark's RNG streams are keyed by its name,
    so results are identical to the serial default.
    """
    table = dict(profiles if profiles is not None else SPEC2000_PROFILES)
    names = list(benchmarks) if benchmarks is not None else list(table)
    unknown = [n for n in names if n not in table]
    if unknown:
        raise KeyError(f"unknown benchmarks: {unknown}; available: {sorted(table)}")

    grid = [{"bench": name} for name in names]
    fn = partial(_characterize_named, profile_table=table, cfg=cfg, engine=engine)
    sweep = run_grid(fn, grid, jobs=jobs)
    raise_first_failure(sweep, "fleet_summary")
    out: dict[str, OverflowResult] = {point["bench"]: result for point, result in sweep}

    measured = [r for r in out.values() if r.traces_overflowed > 0]
    if measured:
        out["AVG"] = OverflowResult(
            benchmark="AVG",
            mean_read_blocks=float(np.mean([r.mean_read_blocks for r in measured])),
            mean_write_blocks=float(np.mean([r.mean_write_blocks for r in measured])),
            mean_instructions=float(np.mean([r.mean_instructions for r in measured])),
            mean_utilization=float(np.mean([r.mean_utilization for r in measured])),
            traces_overflowed=sum(r.traces_overflowed for r in measured),
            traces_fit=sum(r.traces_fit for r in measured),
        )
    return out


@dataclass(frozen=True)
class OverflowDistribution:
    """Raw per-trace overflow samples for one benchmark.

    Figure 3 plots arithmetic means; the *distribution* matters for
    hybrid-TM design too (the STM must handle the tail, not the mean).
    Arrays are aligned: sample ``i`` is one trace's overflow point.
    """

    benchmark: str
    footprints: np.ndarray
    write_blocks: np.ndarray
    instructions: np.ndarray

    def __post_init__(self) -> None:
        if not (
            len(self.footprints) == len(self.write_blocks) == len(self.instructions)
        ):
            raise ValueError("sample arrays must be aligned")

    @property
    def n_samples(self) -> int:
        """Number of overflowing traces measured."""
        return len(self.footprints)

    def footprint_percentile(self, q: float) -> float:
        """Footprint percentile (q in [0, 100])."""
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"q must be in [0, 100], got {q}")
        if self.n_samples == 0:
            raise ValueError("no overflow samples")
        return float(np.percentile(self.footprints, q))

    def instruction_percentile(self, q: float) -> float:
        """Dynamic-instruction percentile (q in [0, 100])."""
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"q must be in [0, 100], got {q}")
        if self.n_samples == 0:
            raise ValueError("no overflow samples")
        return float(np.percentile(self.instructions, q))

    @property
    def tail_ratio(self) -> float:
        """p90 / median footprint — how heavy the design-relevant tail is."""
        return self.footprint_percentile(90) / max(self.footprint_percentile(50), 1.0)


def overflow_distribution(
    profile: BenchmarkProfile,
    cfg: OverflowConfig,
    *,
    engine: Optional[str] = None,
) -> OverflowDistribution:
    """Collect the raw overflow samples behind :func:`characterize_overflow`.

    Uses the same per-trace seeds, so the distribution's means equal the
    summary's means exactly.
    """
    overflowed = [ov for ov in _overflow_points(profile, cfg, engine) if ov is not None]
    return OverflowDistribution(
        benchmark=profile.name,
        footprints=np.asarray([ov.footprint.total for ov in overflowed], dtype=np.int64),
        write_blocks=np.asarray([ov.footprint.write_blocks for ov in overflowed], dtype=np.int64),
        instructions=np.asarray([ov.instructions for ov in overflowed], dtype=np.int64),
    )
