"""Golden pinned-output regressions for the figure-level pipelines.

Exact floats from a fixed seed, run on *both* engines of each kind.
These pins are the repo's tripwire for silent behavioural drift: any
change to trace synthesis, RNG stream derivation, overflow accounting
or the open-system kernel that alters results — even in the last ulp —
fails loudly here, while pure-performance changes sail through.  If a
pin moves on purpose (e.g. a deliberate model fix), regenerate the
constants and say so in the commit.
"""

from __future__ import annotations

import pytest

from repro.sim.catalog import _fig3_point, _open_point
from repro.sim.engines import get_engine
from repro.sim.open_system import OpenSystemConfig
from repro.sim.overflow import OverflowConfig, fleet_summary

GOLDEN_SEED = 20070609  # SPAA 2007

#: fleet_summary(OverflowConfig(n_traces=4, trace_accesses=30_000,
#: victim_entries=v, seed=GOLDEN_SEED), benchmarks=[bzip2, mcf, gcc]) →
#: (mean_read_blocks, mean_write_blocks, mean_instructions,
#:  mean_utilization, traces_overflowed, traces_fit) per bar.
_FIG3_GOLDEN = {
    0: {
        "bzip2": (154.75, 98.0, 21871.25, 0.49365234375, 4, 0),
        "mcf": (130.0, 46.5, 8736.5, 0.3447265625, 4, 0),
        "gcc": (91.0, 56.75, 14904.0, 0.28857421875, 4, 0),
        "AVG": (125.25, 67.08333333333333, 15170.583333333334,
                0.3756510416666667, 12, 0),
    },
    1: {
        "bzip2": (164.25, 105.5, 23217.0, 0.52685546875, 4, 0),
        "mcf": (142.25, 50.5, 9509.0, 0.37646484375, 4, 0),
        "gcc": (109.25, 65.0, 17692.5, 0.34033203125, 4, 0),
        "AVG": (138.58333333333334, 73.66666666666667, 16806.166666666668,
                0.41455078125, 12, 0),
    },
}

#: _open_point(n, w, concurrency=2, samples=500, seed=GOLDEN_SEED) →
#: conflict likelihood in percent (the Figure 4(a) y-axis).
_FIG4A_GOLDEN = [
    ((512, 4), 14.399999999999999),
    ((512, 16), 93.4),
    ((2048, 4), 3.8),
    ((2048, 16), 45.6),
]


class TestFig3Golden:
    @pytest.mark.parametrize("engine", ["reference", "fast"])
    @pytest.mark.parametrize("victim", sorted(_FIG3_GOLDEN))
    def test_fleet_summary_pinned(self, victim, engine):
        cfg = OverflowConfig(
            n_traces=4, trace_accesses=30_000,
            victim_entries=victim, seed=GOLDEN_SEED,
        )
        out = fleet_summary(cfg, benchmarks=["bzip2", "mcf", "gcc"], engine=engine)
        assert list(out) == ["bzip2", "mcf", "gcc", "AVG"]
        for name, expected in _FIG3_GOLDEN[victim].items():
            r = out[name]
            got = (r.mean_read_blocks, r.mean_write_blocks, r.mean_instructions,
                   r.mean_utilization, r.traces_overflowed, r.traces_fit)
            assert got == expected, f"{name} (victim={victim}, {engine})"

    def test_catalog_point_matches_fleet_summary(self):
        """The sweep-kind table's fig3 point is the same computation the
        figure-level API performs — pinned through both spellings."""
        point = _fig3_point("mcf", traces=4, accesses=30_000, victim=1,
                            seed=GOLDEN_SEED)
        expected = _FIG3_GOLDEN[1]["mcf"]
        assert (
            point["mean_read_blocks"], point["mean_write_blocks"],
            point["mean_instructions"], point["mean_utilization"],
            point["traces_overflowed"], point["traces_fit"],
        ) == expected


class TestFig4aGolden:
    @pytest.mark.parametrize("engine", ["reference", "fast"])
    @pytest.mark.parametrize("params,expected", _FIG4A_GOLDEN)
    def test_open_grid_pinned(self, params, expected, engine):
        n, w = params
        cfg = OpenSystemConfig(n, 2, w, samples=500, seed=GOLDEN_SEED)
        assert 100 * get_engine("open", engine)(cfg).conflict_probability == expected
        # The catalog point, which always runs the fast engine.
        assert _open_point(n, w, concurrency=2, samples=500, seed=GOLDEN_SEED) == expected
