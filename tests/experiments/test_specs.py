"""Tests for the per-figure experiment specs."""

from __future__ import annotations

import pytest

from repro.experiments.specs import EXPERIMENTS, QUALITIES, figures
from repro.sim.catalog import SWEEP_KINDS


class TestCatalogCoverage:
    def test_every_sweep_kind_has_an_experiment(self):
        used = {spec.kind for spec in EXPERIMENTS.values()}
        assert used == set(SWEEP_KINDS)

    def test_figures_lists_report_order(self):
        assert figures() == list(EXPERIMENTS)

    def test_figure_key_matches_spec(self):
        for figure, spec in EXPERIMENTS.items():
            assert spec.figure == figure

    def test_every_spec_kind_has_a_renderer(self):
        from repro.experiments.artifact import _RENDERERS

        assert {spec.kind for spec in EXPERIMENTS.values()} <= set(_RENDERERS)


class TestQualityTiers:
    @pytest.mark.parametrize("quality", QUALITIES)
    def test_every_tier_of_every_spec_validates(self, quality):
        for spec in EXPERIMENTS.values():
            params = spec.params(quality)
            assert params == SWEEP_KINDS[spec.kind].validate(params)

    def test_unknown_tier_rejected(self):
        spec = next(iter(EXPERIMENTS.values()))
        with pytest.raises(KeyError, match="no 'paper' tier"):
            spec.params("paper")

    def test_smoke_grids_are_smaller_than_normal(self):
        for spec in EXPERIMENTS.values():
            kind = SWEEP_KINDS[spec.kind]
            if not kind.clusterable:
                continue
            smoke = len(kind.grid(spec.params("smoke")))
            normal = len(kind.grid(spec.params("normal")))
            assert smoke <= normal


class TestClaims:
    def test_every_figure_states_a_claim(self):
        for spec in EXPERIMENTS.values():
            assert spec.claims, f"{spec.figure} has no paper claims"
            for claim in spec.claims:
                assert claim.statement and claim.expectation


SEED = 7

SIZING_ROWS = [
    ("entries for 50% commit (W=71, C=2)", ">50,000", "50,410"),
    ("entries for 95% commit (W=71, C=2)", ">500,000", "504,100"),
    ("entries for 95% commit (W=71, C=8)", ">14,000,000", "14,114,800"),
    ("conflict ratio C=2 to C=4", "6x", "6.0x"),
]

# The paper's in-text numbers next to what seed 7 measures, per tier.
# The smoke fig4a grid holds N=512 and N=1024 only, so its other two
# W=8 rows are left out.
PAPER_ROWS = {
    "normal": {
        "model": SIZING_ROWS,
        "fig4a": [
            ("conflict likelihood (N=512, W=8)", "48.0%", "45.9%"),
            ("conflict likelihood (N=1024, W=8)", "27.0%", "27.1%"),
            ("conflict likelihood (N=2048, W=8)", "14.0%", "14.8%"),
            ("conflict likelihood (N=4096, W=8)", "7.7%", "7.6%"),
        ],
        "fig3": [
            ("cache utilization at overflow", "~36%", "38%"),
            ("written share of footprint", "~33%", "36%"),
            ("dynamic instructions", ">23K", "26.0K"),
        ],
    },
    "smoke": {
        "model": SIZING_ROWS,
        "fig4a": [
            ("conflict likelihood (N=512, W=8)", "48.0%", "46.7%"),
            ("conflict likelihood (N=1024, W=8)", "27.0%", "25.0%"),
        ],
        "fig3": [
            ("cache utilization at overflow", "~36%", "38%"),
            ("written share of footprint", "~33%", "35%"),
            ("dynamic instructions", ">23K", "15.4K"),
        ],
    },
}


@pytest.fixture(scope="module")
def tier_results():
    """Seed-7 params and results of every figure with paper rows, per tier."""
    from repro.sim.catalog import execute_sweep

    out = {}
    for quality, figures_ in PAPER_ROWS.items():
        for figure in figures_:
            spec = EXPERIMENTS[figure]
            params = spec.params(quality)
            out[quality, figure] = params, execute_sweep(spec.kind, params, SEED)
    return out


class TestPaperRows:
    @pytest.mark.parametrize("quality", QUALITIES)
    @pytest.mark.parametrize("figure", ["model", "fig4a", "fig3"])
    def test_rows_pinned(self, tier_results, quality, figure):
        params, result = tier_results[quality, figure]
        rows = EXPERIMENTS[figure].paper_rows(params, result)
        assert rows == PAPER_ROWS[quality][figure]

    def test_other_figures_have_no_rows(self):
        for figure, spec in EXPERIMENTS.items():
            if figure not in PAPER_ROWS["normal"]:
                assert spec.paper_rows({}, {}) == []

    def test_fig4a_rows_need_the_w8_column(self, tier_results):
        params, result = tier_results["smoke", "fig4a"]
        no_w8 = dict(result, w_values=[4, 16])
        assert EXPERIMENTS["fig4a"].paper_rows(params, no_w8) == []
        c4 = dict(params, concurrency=4)
        assert EXPERIMENTS["fig4a"].paper_rows(c4, result) == []

    def test_fig3_rows_need_an_avg_row(self, tier_results):
        params, result = tier_results["smoke", "fig3"]
        no_avg = dict(result, points=[p for p in result["points"] if p["bench"] != "AVG"])
        assert EXPERIMENTS["fig3"].paper_rows(params, no_avg) == []

    def test_paper_numbers_present(self, tier_results, tmp_path):
        import json

        from repro.experiments.artifact import write_artifact

        results = {f: r for (q, f), (_, r) in tier_results.items() if q == "normal"}
        params = {f: p for (q, f), (p, _) in tier_results.items() if q == "normal"}
        md, js = write_artifact(tmp_path, "normal", SEED, results, params)
        text = md.read_text()
        for cell in ("50,410", "14,114,800", "48.0%", "~36%"):
            assert cell in text
        paper = json.loads(js.read_text())["paper"]
        assert list(paper) == ["fig3", "fig4a", "model"]
        assert paper["model"][0] == {
            "quantity": "entries for 50% commit (W=71, C=2)",
            "paper": ">50,000",
            "measured": "50,410",
        }
