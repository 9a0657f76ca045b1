"""Declarative per-figure experiment specs for the all-figures pipeline.

Each paper figure is one :class:`ExperimentSpec`: which sweep kind from
:data:`repro.sim.catalog.SWEEP_KINDS` reproduces it, the grid to run at
each quality tier, the paper claims the figure supports (so the report
artifact can print what each table is evidence *for*), and the paper's
in-text numbers it measures, as ``quantity | paper | measured`` rows.
Specs hold only raw parameter dicts; validation and normalization stay
with the kind's schema, so an experiment can never request a grid the
service or cluster would reject.

Quality tiers: ``smoke`` is minutes-on-a-laptop CI food — every figure,
tiny grids; ``normal`` is the paper-faithful grid.  Both tiers of every
spec validate at import-test time (``tests/experiments/test_specs.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from repro.core.sizing import concurrency_scaling_factor, table_entries_for_commit_probability
from repro.sim.catalog import SWEEP_KINDS

__all__ = ["Claim", "EXPERIMENTS", "ExperimentSpec", "QUALITIES", "figures"]

QUALITIES = ("smoke", "normal")


@dataclass(frozen=True)
class Claim:
    """One paper claim an experiment produces evidence for.

    ``statement`` quotes or paraphrases the paper; ``expectation``
    says what the reproduced numbers should show, at the paper-faithful
    (``normal``) quality tier — smoke grids are too small to check
    claims against and are only exercised for pipeline coverage.
    """

    statement: str
    expectation: str


PaperRow = tuple[str, str, str]
"""One ``(quantity, paper, measured)`` row of a figure's paper table."""


def _no_rows(params: Mapping[str, Any], result: Mapping[str, Any]) -> list[PaperRow]:
    return []


@dataclass(frozen=True)
class ExperimentSpec:
    """One paper figure as a runnable experiment.

    Attributes
    ----------
    figure:
        Stable identifier (``fig2a`` … ``model``); doubles as the
        section key in the manifest and report artifact.
    kind:
        The :data:`~repro.sim.catalog.SWEEP_KINDS` row that computes it.
    title:
        Human-readable figure title for the report.
    section:
        Paper section/figure reference.
    quality_params:
        Raw (unvalidated) parameter dicts per quality tier.
    claims:
        Paper claims this figure supports.
    paper_rows:
        ``(params, result) -> rows``: the paper's in-text numbers next
        to what this run measured.  Rows for grid points the tier does
        not hold are left out.
    """

    figure: str
    kind: str
    title: str
    section: str
    quality_params: Mapping[str, Mapping[str, Any]]
    claims: tuple[Claim, ...] = field(default=())
    paper_rows: Callable[[Mapping[str, Any], Mapping[str, Any]], list[PaperRow]] = _no_rows

    def params(self, quality: str) -> dict[str, Any]:
        """The normalized parameter dict for ``quality``.

        Validates through the kind's schema, so the result is exactly
        what the service, CLI and cluster would execute — and exactly
        what folds into cache keys and the manifest's spec hash.
        """
        if quality not in self.quality_params:
            known = ", ".join(sorted(self.quality_params))
            raise KeyError(
                f"experiment {self.figure!r} has no {quality!r} tier; "
                f"expected one of: {known}"
            )
        return SWEEP_KINDS[self.kind].validate(self.quality_params[quality])


def _sizing_rows(params: Mapping[str, Any], result: Mapping[str, Any]) -> list[PaperRow]:
    # Section 3's table-size claims, from the closed forms.
    return [
        ("entries for 50% commit (W=71, C=2)", ">50,000",
         f"{table_entries_for_commit_probability(71, 0.5):,}"),
        ("entries for 95% commit (W=71, C=2)", ">500,000",
         f"{table_entries_for_commit_probability(71, 0.95):,}"),
        ("entries for 95% commit (W=71, C=8)", ">14,000,000",
         f"{table_entries_for_commit_probability(71, 0.95, concurrency=8):,}"),
        ("conflict ratio C=2 to C=4", "6x", f"{concurrency_scaling_factor(2, 4):.1f}x"),
    ]


_FIG4A_W8 = {512: 0.48, 1024: 0.27, 2048: 0.14, 4096: 0.077}


def _fig4a_rows(params: Mapping[str, Any], result: Mapping[str, Any]) -> list[PaperRow]:
    # Figure 4(a)'s W=8 column at C=2, as the paper quotes it.
    if 8 not in result["w_values"] or params["concurrency"] != 2:
        return []
    column = result["w_values"].index(8)
    return [
        (f"conflict likelihood (N={n}, W=8)", f"{paper:.1%}",
         f"{result['series'][f'N={n}'][column] / 100:.1%}")
        for n, paper in _FIG4A_W8.items()
        if f"N={n}" in result["series"]
    ]


def _fig3_rows(params: Mapping[str, Any], result: Mapping[str, Any]) -> list[PaperRow]:
    # Section 2.3's fleet averages: utilization, write share, length.
    avg = next((r for r in result["points"] if r["bench"] == "AVG"), None)
    if avg is None:
        return []
    total = avg["mean_read_blocks"] + avg["mean_write_blocks"]
    written = avg["mean_write_blocks"] / total if total > 0 else 0.0
    return [
        ("cache utilization at overflow", "~36%", f"{avg['mean_utilization']:.0%}"),
        ("written share of footprint", "~33%", f"{written:.0%}"),
        ("dynamic instructions", ">23K", f"{avg['mean_instructions'] / 1e3:.1f}K"),
    ]


def figures() -> list[str]:
    """The figure identifiers in report order."""
    return list(EXPERIMENTS)


EXPERIMENTS: dict[str, ExperimentSpec] = {
    spec.figure: spec
    for spec in (
        ExperimentSpec(
            figure="fig2a",
            kind="fig2a",
            title="Alias likelihood under trace-driven hashing",
            section="Figure 2(a)",
            quality_params={
                "smoke": {
                    "n_values": [4096, 16384],
                    "w_values": [5, 10],
                    "samples": 60,
                    "accesses": 20_000,
                },
                "normal": {},
            },
            claims=(
                Claim(
                    statement=(
                        "Even with true conflicts removed, tagless tables "
                        "alias distinct addresses onto shared entries."
                    ),
                    expectation=(
                        "Alias likelihood falls with table size N and rises "
                        "with write footprint W; small tables alias on a "
                        "large fraction of transaction pairs."
                    ),
                ),
            ),
        ),
        ExperimentSpec(
            figure="fig3",
            kind="fig3",
            title="HTM overflow characterization of the SPEC2000 fleet",
            section="Figure 3",
            quality_params={
                "smoke": {
                    "benchmarks": ["bzip2", "gcc", "mcf"],
                    "traces": 2,
                    "accesses": 20_000,
                },
                "normal": {"traces": 8, "accesses": 250_000},
            },
            claims=(
                Claim(
                    statement=(
                        "Overflowing transactions are long: tens of "
                        "thousands of instructions with low cache-line "
                        "utilization."
                    ),
                    expectation=(
                        "The fleet AVG row shows mean overflow transactions "
                        ">20k instructions with utilization well under 50%, "
                        "and roughly a third of touched blocks written."
                    ),
                ),
            ),
            paper_rows=_fig3_rows,
        ),
        ExperimentSpec(
            figure="fig4a",
            kind="fig4a",
            title="Open-system conflict likelihood (birthday bound)",
            section="Figure 4(a)",
            quality_params={
                "smoke": {
                    "n_values": [512, 1024],
                    "w_values": [4, 8],
                    "samples": 60,
                },
                "normal": {},
            },
            claims=(
                Claim(
                    statement=(
                        "Conflict likelihood follows the birthday paradox: "
                        "it grows with W^2/N, so modest footprints conflict "
                        "often in small tables."
                    ),
                    expectation=(
                        "At N=512, W=8, C=2 the measured conflict "
                        "likelihood is near the paper's ~48%; doubling N "
                        "roughly halves the small-W likelihood."
                    ),
                ),
            ),
            paper_rows=_fig4a_rows,
        ),
        ExperimentSpec(
            figure="fig5",
            kind="closed",
            title="Closed-system occupancy vs table size",
            section="Figure 5",
            quality_params={
                "smoke": {"n_values": [1024, 4096], "w_values": [8, 12]},
                "normal": {
                    "n_values": [1024, 4096, 16384],
                    "w_values": [8, 12, 16, 20],
                },
            },
            claims=(
                Claim(
                    statement=(
                        "In the closed system, measured occupancy tracks "
                        "the model's expectation until conflicts throttle "
                        "admission."
                    ),
                    expectation=(
                        "mean_occupancy stays close to expected_occupancy "
                        "at large N and falls below it as N shrinks or W "
                        "grows and conflicts mount."
                    ),
                ),
            ),
        ),
        ExperimentSpec(
            figure="fig6",
            kind="closed",
            title="Closed-system achieved concurrency vs offered threads",
            section="Figure 6",
            quality_params={
                "smoke": {"n_values": [1024], "c_values": [2, 4]},
                "normal": {"n_values": [4096], "c_values": [2, 4, 8, 16, 32]},
            },
            claims=(
                Claim(
                    statement=(
                        "Offered concurrency beyond what the table supports "
                        "is wasted: achieved concurrency saturates."
                    ),
                    expectation=(
                        "actual_concurrency grows sublinearly in C and "
                        "flattens once conflicts dominate admission."
                    ),
                ),
            ),
        ),
        ExperimentSpec(
            figure="model",
            kind="model",
            title="Eq. 8 closed-form conflict likelihood",
            section="Section 3, Eq. 8",
            quality_params={
                "smoke": {"n_values": [512, 1024], "w_values": [4, 8]},
                "normal": {
                    "n_values": [512, 1024, 2048, 4096],
                    "w_values": [4, 8, 16, 24, 32],
                },
            },
            claims=(
                Claim(
                    statement=(
                        "The closed-form model matches the simulated "
                        "open-system likelihoods."
                    ),
                    expectation=(
                        "Eq. 8 values lie within Monte Carlo noise of the "
                        "fig4a series for every shared (N, W) point."
                    ),
                ),
            ),
            paper_rows=_sizing_rows,
        ),
        ExperimentSpec(
            figure="placement",
            kind="placement",
            title="Allocator-placement sensitivity of false conflicts",
            section="Related work: Dice et al., malloc placement",
            quality_params={
                "smoke": {
                    "n_values": [256, 1024],
                    "placements": ["bump", "slab"],
                    "hash_kinds": ["mask"],
                    "samples": 40,
                    "objects": 128,
                    "w": 6,
                },
                "normal": {},
            },
            claims=(
                Claim(
                    statement=(
                        "Where the allocator places objects changes index-"
                        "collision rates as much as the hash function does "
                        "(Dice et al.): slab placement recurs at identical "
                        "low-order bits, the pathological case for a mask "
                        "hash."
                    ),
                    expectation=(
                        "slab/mask false-conflict rates dwarf bump/mask at "
                        "every N; switching the same slab heap to a mixing "
                        "hash (multiplicative, xorfold) collapses the gap."
                    ),
                ),
            ),
        ),
        ExperimentSpec(
            figure="fig7",
            kind="fig7",
            title="Tagged vs tagless ownership tables on identical streams",
            section="Section 5, Figure 7",
            quality_params={
                "smoke": {
                    "n_values": [256, 1024],
                    "w_values": [4, 8],
                    "rounds": 12,
                    "objects": 128,
                    "concurrency": 3,
                },
                "normal": {
                    "n_values": [256, 1024, 4096],
                    "w_values": [4, 8, 16],
                    "rounds": 80,
                },
            },
            claims=(
                Claim(
                    statement=(
                        "Storing address tags and chaining on collision "
                        "eliminates false conflicts entirely, at the cost "
                        "of an occasional pointer indirection (section 5)."
                    ),
                    expectation=(
                        "The tagged column of false_conflicts_by_table is "
                        "identically zero on every grid where tagless "
                        "reports false conflicts, while indirection_rate "
                        "stays small and mean_fraction_simple near 1."
                    ),
                ),
            ),
        ),
    )
}
