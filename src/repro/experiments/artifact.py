"""The deterministic report bundle an experiments run emits.

``write_artifact`` renders every figure's assembled result into a
markdown report (tables via :mod:`repro.analysis.tables`, one section
per figure, each section leading with the paper claims the figure
supports and closing with its ``quantity | paper | measured`` rows)
plus a machine-readable JSON twin, both under the run's output dir.

Determinism is a hard requirement, not a nicety: the resume contract is
"a SIGKILL'd run rerun with the same command produces a byte-identical
artifact", and CI diffs the files.  So the artifact contains only
content-addressed inputs (quality, seed, normalized params) and
simulated outputs — never wall-clock, telemetry, hostnames or dates.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Mapping

from repro.analysis.tables import format_series, format_table
from repro.experiments.specs import EXPERIMENTS

__all__ = ["REPORT_JSON", "REPORT_MD", "render_figure", "write_artifact"]

REPORT_MD = "report.md"
REPORT_JSON = "report.json"


def _render_nw_series(result: Mapping[str, Any]) -> str:
    return format_series(
        "W",
        result["w_values"],
        result["series"],
        y_format=lambda v: f"{v:.3g}%",
    )


def _render_fig3(result: Mapping[str, Any]) -> str:
    rows = []
    for r in result["points"]:
        total = r["mean_read_blocks"] + r["mean_write_blocks"]
        written = r["mean_write_blocks"] / total if total > 0 else 0.0
        rows.append([
            r["bench"],
            r["mean_read_blocks"],
            r["mean_write_blocks"],
            f"{written:.1%}",
            r["mean_instructions"],
            f"{r['mean_utilization']:.1%}",
            r["traces_overflowed"],
            r["traces_fit"],
        ])
    return format_table(
        ["bench", "read blocks", "write blocks", "written", "instructions",
         "utilization", "overflowed", "fit"],
        rows,
    )


def _render_closed(result: Mapping[str, Any]) -> str:
    rows = [
        [
            r["n_entries"],
            r["concurrency"],
            r["write_footprint"],
            r["conflicts"],
            r["committed"],
            r["mean_occupancy"],
            r["expected_occupancy"],
            r["actual_concurrency"],
        ]
        for r in result["points"]
    ]
    return format_table(
        ["N", "C", "W", "conflicts", "committed", "occupancy",
         "expected", "achieved C"],
        rows,
    )


def _render_model(result: Mapping[str, Any]) -> str:
    return format_series(
        "W",
        result["w_values"],
        result["conflict_probability"],
        y_format=lambda v: f"{v:.3g}",
    )


def _render_placement(result: Mapping[str, Any]) -> str:
    return format_series(
        "N",
        result["n_values"],
        result["series"],
        y_format=lambda v: f"{v:.3g}%",
    )


def _render_fig7(result: Mapping[str, Any]) -> str:
    # The false-conflict series per table kind, then the elimination
    # ledger: tagged's total per N should read 0 wherever tagless > 0.
    series = format_series(
        "W",
        result["w_values"],
        result["series"],
        y_format=lambda v: f"{v:g}",
    )
    rows = [
        [label] + [totals[t] for t in result["tables"]]
        for label, totals in result["false_conflicts_by_table"].items()
    ]
    ledger = format_table(
        ["false conflicts"] + list(result["tables"]),
        rows,
    )
    return series + "\n\n" + ledger


_RENDERERS = {
    "fig4a": _render_nw_series,
    "fig2a": _render_nw_series,
    "fig3": _render_fig3,
    "closed": _render_closed,
    "model": _render_model,
    "placement": _render_placement,
    "fig7": _render_fig7,
}


def render_figure(kind: str, result: Mapping[str, Any]) -> str:
    """Render one figure's assembled result as an ASCII table."""
    return _RENDERERS[kind](result)


def write_artifact(
    out_dir: Path,
    quality: str,
    seed: int,
    results: Mapping[str, Mapping[str, Any]],
    params: Mapping[str, Mapping[str, Any]],
) -> tuple[Path, Path]:
    """Write ``report.md`` and ``report.json`` under ``out_dir``.

    ``results`` maps figure id to the kind-assembled result dict and
    ``params`` to the normalized parameters that produced it; figures
    appear in :data:`~repro.experiments.specs.EXPERIMENTS` order.  Each
    spec's :attr:`~repro.experiments.specs.ExperimentSpec.paper_rows`
    land under its figure in ``report.md`` and in the JSON's ``paper``
    block.  Returns the two paths.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = [
        "# Transactional memory and the birthday paradox — reproduction report",
        "",
        f"- quality: `{quality}`",
        f"- seed: `{seed}`",
        "",
    ]
    json_figures: dict[str, Any] = {}
    json_paper: dict[str, Any] = {}
    for figure, spec in EXPERIMENTS.items():
        if figure not in results:
            continue
        result = results[figure]
        figure_params = params[figure]
        lines.append(f"## {spec.section}: {spec.title}")
        lines.append("")
        for claim in spec.claims:
            lines.append(f"> {claim.statement}")
            lines.append(f"> Expected: {claim.expectation}")
            lines.append("")
        lines.append(
            "Parameters: `"
            + json.dumps(dict(figure_params), sort_keys=True)
            + "`"
        )
        lines.append("")
        lines.append("```")
        lines.append(render_figure(spec.kind, result))
        lines.append("```")
        lines.append("")
        rows = spec.paper_rows(figure_params, result)
        if rows:
            lines.append("```")
            lines.append(format_table(["quantity", "paper", "measured"], rows))
            lines.append("```")
            lines.append("")
            json_paper[figure] = [
                {"quantity": q, "paper": paper, "measured": measured}
                for q, paper, measured in rows
            ]
        json_figures[figure] = {
            "kind": spec.kind,
            "title": spec.title,
            "section": spec.section,
            "params": dict(figure_params),
            "result": dict(result),
        }
    md_path = out_dir / REPORT_MD
    json_path = out_dir / REPORT_JSON
    md_path.write_text("\n".join(lines))
    json_path.write_text(
        json.dumps(
            {"quality": quality, "seed": seed, "figures": json_figures,
             "paper": json_paper},
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
    return md_path, json_path
