"""One-shot reproduction report generator.

Runs a configurable-quality subset of every experiment family and
renders a self-contained markdown report — paper claim next to measured
value — suitable for dropping into a lab notebook or CI artifact. The
CLI exposes it as ``python -m repro report``.

Quality levels trade Monte Carlo samples for wall-clock:

* ``smoke``  — seconds; big error bars, still shape-correct.
* ``normal`` — a couple of minutes; the EXPERIMENTS.md quality.

Sweep-shaped sections are defined once, in the declarative sweep-kind
table (:data:`repro.sim.catalog.SWEEP_KINDS`) — the report validates a
parameter dict through the kind's schema and runs the kind's own point
function, so report, service, CLI and the experiments pipeline all
compute any given figure from one definition.  Setting ``jobs`` fans
sweeps out over a process pool (:mod:`repro.sim.parallel`) without
changing a single digit of the output tables; setting ``cluster``
routes them through an in-process coordinator + worker fleet
(:mod:`repro.cluster`) — same bytes again.  Both choices are made by
:meth:`repro.sim.catalog.SweepKind.run`, as on every other surface.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Any, Mapping, Optional

from repro.analysis.tables import format_series, format_table
from repro.core.model import ModelParams, conflict_likelihood_product_form
from repro.core.sizing import concurrency_scaling_factor, table_entries_for_commit_probability
from repro.sim.catalog import SWEEP_KINDS
from repro.sim.sweep import SweepResult
from repro.sim.throughput import throughput_curve

__all__ = ["ReportConfig", "generate_report"]

_QUALITY = {
    "smoke": dict(samples=300, traces=3, trace_accesses=80_000, ticks=1500),
    "normal": dict(samples=2000, traces=8, trace_accesses=250_000, ticks=4000),
}


@dataclass(frozen=True)
class ReportConfig:
    """Report generation parameters.

    ``jobs`` > 1 parallelizes the sweep-shaped sections over that many
    worker processes; ``None`` (the default) or 1 keeps them serial.
    ``cluster`` distributes the sweeps over that many in-process
    cluster workers, each with a pool of ``jobs`` processes. The report
    body is identical in every mode — non-serial runs only add a
    telemetry section at the end.
    """

    quality: str = "smoke"
    seed: int = 20070609
    jobs: Optional[int] = None
    cluster: Optional[int] = None

    def __post_init__(self) -> None:
        if self.quality not in _QUALITY:
            raise ValueError(f"quality must be one of {sorted(_QUALITY)}, got {self.quality!r}")
        if self.jobs is not None and self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        if self.cluster is not None and self.cluster < 1:
            raise ValueError(f"cluster must be >= 1, got {self.cluster}")

    @property
    def knobs(self) -> dict:
        """Resolved sample counts for the chosen quality."""
        return _QUALITY[self.quality]


class _SweepRunner:
    """Run report sweeps through :meth:`repro.sim.catalog.SweepKind.run`.

    Collects one telemetry record per pool or cluster sweep so the
    report can surface throughput and worker utilization at the end.
    """

    def __init__(self, jobs: Optional[int], cluster: Optional[int] = None) -> None:
        self.jobs = jobs
        self.cluster = cluster
        self.telemetry: list[tuple[str, Any]] = []

    def kind(self, name: str, kind_name: str, raw_params: Mapping[str, Any],
             seed: int) -> tuple[dict[str, Any], SweepResult]:
        """Validate and run one named sweep-kind grid; returns (params, sweep).

        The single figure-definition path: the kind's schema normalizes
        the request and its :meth:`~repro.sim.catalog.SweepKind.run`
        executes exactly what every other surface (CLI, service,
        cluster, experiments) would run.
        """
        kind = SWEEP_KINDS[kind_name]
        params = kind.validate(raw_params)
        sweep = kind.run(params, seed, jobs=self.jobs, cluster=self.cluster)
        if sweep.telemetry is not None:
            self.telemetry.append((name, sweep.telemetry))
        return params, sweep


def _section_model(out: io.StringIO, cfg: ReportConfig) -> None:
    out.write("## Analytical model (§3)\n\n")
    rows = [
        ["entries for 50% commit (W=71, C=2)", ">50,000", f"{table_entries_for_commit_probability(71, 0.5):,}"],
        ["entries for 95% commit (W=71, C=2)", ">500,000", f"{table_entries_for_commit_probability(71, 0.95):,}"],
        ["entries for 95% commit (W=71, C=8)", ">14,000,000", f"{table_entries_for_commit_probability(71, 0.95, concurrency=8):,}"],
        ["conflict ratio C=2 to C=4", "6x", f"{concurrency_scaling_factor(2, 4):.1f}x"],
    ]
    out.write(format_table(["claim", "paper", "measured"], rows))
    out.write("\n\n")


def _section_fig4(out: io.StringIO, cfg: ReportConfig, run: _SweepRunner) -> None:
    out.write("## Open-system validation (Figure 4a, W=8 column)\n\n")
    paper = {512: 0.48, 1024: 0.27, 2048: 0.14, 4096: 0.077}
    _, sweep = run.kind(
        "fig4a W=8 column",
        "fig4a",
        {"n_values": list(paper), "w_values": [8], "samples": cfg.knobs["samples"]},
        cfg.seed,
    )
    rows = []
    for (point, pct), expected in zip(sweep, paper.values()):
        n = point["n"]
        model = conflict_likelihood_product_form(8, ModelParams(n, 2, 2.0))
        rows.append([n, f"{expected:.1%}", f"{pct / 100:.1%}", f"{model:.1%}"])
    out.write(format_table(["N", "paper", "simulated", "model"], rows))
    out.write("\n\n")


def _section_fig2(out: io.StringIO, cfg: ReportConfig, run: _SweepRunner) -> None:
    out.write("## Trace-driven aliasing (Figure 2 trends)\n\n")
    w_values = [5, 10, 20]
    n_values = [4096, 16384, 65536]
    _, sweep = run.kind(
        "fig2 aliasing grid",
        "fig2a",
        {
            "n_values": n_values,
            "w_values": w_values,
            "samples": cfg.knobs["samples"],
            "accesses": cfg.knobs["trace_accesses"],
        },
        cfg.seed,
    )
    series = {f"N={n}": sweep.where(n=n).series("w", float)[1] for n in n_values}
    out.write(format_series("W", w_values, series, title="alias likelihood (%), C=2"))
    out.write("\n\n")


def _section_fig3(out: io.StringIO, cfg: ReportConfig, run: _SweepRunner) -> None:
    out.write("## HTM overflow (Figure 3 fleet average)\n\n")
    params, sweep = run.kind(
        "fig3 overflow fleet",
        "fig3",
        {"traces": cfg.knobs["traces"], "accesses": cfg.knobs["trace_accesses"]},
        cfg.seed,
    )
    assembled = SWEEP_KINDS["fig3"].assemble(params, sweep)
    base = next(r for r in reversed(assembled["points"]) if r["bench"] == "AVG")
    total = base["mean_read_blocks"] + base["mean_write_blocks"]
    write_fraction = base["mean_write_blocks"] / total if total > 0 else 0.0
    rows = [
        ["cache utilization at overflow", "~36%", f"{base['mean_utilization']:.0%}"],
        ["written share of footprint", "~33%", f"{write_fraction:.0%}"],
        ["dynamic instructions", ">23K", f"{base['mean_instructions'] / 1e3:.1f}K"],
    ]
    out.write(format_table(["quantity", "paper", "measured"], rows))
    out.write("\n\n")


def _section_closed(out: io.StringIO, cfg: ReportConfig, run: _SweepRunner) -> None:
    out.write("## Closed system (Figures 5-6 spot checks)\n\n")
    _, sweep = run.kind(
        "closed-system spot checks",
        "closed",
        {
            "n_values": [1024, 16384],
            "c_values": [2, 8],
            "w_values": [10],
        },
        cfg.seed,
    )
    rows = [
        [f"{p['n_entries']}-{p['concurrency']}-{p['write_footprint']}",
         r["conflicts"], r["committed"], f"{r['actual_concurrency']:.2f}"]
        for p, r in sweep
    ]
    out.write(format_table(["N-C-W", "conflicts", "committed", "actual C"], rows))
    out.write("\n\n")


def _section_scalability(out: io.StringIO, cfg: ReportConfig) -> None:
    out.write("## Scalability collapse (§2.1 Damron anecdote)\n\n")
    cs = [1, 8, 16, 32, 48]
    curve = throughput_curve(
        cs, n_entries=1024, ticks_per_thread=cfg.knobs["ticks"], seed=cfg.seed
    )
    speedups = {"tagless 1k speedup": [r.speedup for r in curve]}
    out.write(format_series("C", cs, speedups, y_format=lambda v: f"{v:.1f}"))
    peak = max(speedups["tagless 1k speedup"])
    final = speedups["tagless 1k speedup"][-1]
    out.write(
        f"\n\nThroughput peaks at {peak:.1f}x and falls to {final:.1f}x at C=48 — "
        "adding processors reduces completed work.\n\n"
    )


def _section_telemetry(out: io.StringIO, run: _SweepRunner) -> None:
    out.write("## Parallel execution telemetry\n\n")
    rows = [
        [
            name,
            t.jobs,
            t.n_points,
            f"{t.wall_seconds:.2f}s",
            f"{t.points_per_second:.1f}",
            f"{t.worker_utilization:.0%}",
            t.retries,
            t.failures,
        ]
        for name, t in run.telemetry
    ]
    out.write(format_table(["sweep", "jobs", "points", "wall", "pts/s", "util", "retries", "failures"], rows))
    out.write("\n\n")


def generate_report(cfg: Optional[ReportConfig] = None) -> str:
    """Run the suite and return the markdown report text."""
    cfg = cfg if cfg is not None else ReportConfig()
    run = _SweepRunner(cfg.jobs, cfg.cluster)
    out = io.StringIO()
    out.write("# Reproduction report — Transactional Memory and the Birthday Paradox\n\n")
    out.write(f"quality: `{cfg.quality}`, seed: `{cfg.seed}`\n\n")
    _section_model(out, cfg)
    _section_fig4(out, cfg, run)
    _section_fig2(out, cfg, run)
    _section_fig3(out, cfg, run)
    _section_closed(out, cfg, run)
    _section_scalability(out, cfg)
    if run.telemetry:
        _section_telemetry(out, run)
    out.write(
        "Generated by `repro.analysis.report`. Full-resolution series: "
        "`pytest benchmarks/ --benchmark-only -s`.\n"
    )
    return out.getvalue()
