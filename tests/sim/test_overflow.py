"""Tests for the overflow characterization engine (Figure 3)."""

from __future__ import annotations

import pytest

from repro.htm.cache import CacheGeometry
from repro.sim.overflow import OverflowConfig, OverflowResult, characterize_overflow, fleet_summary
from repro.traces.workloads import SPEC2000_PROFILES, BenchmarkProfile

FAST = OverflowConfig(n_traces=4, trace_accesses=120_000, seed=1)


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [{"n_traces": 0}, {"trace_accesses": 0}, {"victim_entries": -1}],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            OverflowConfig(**kwargs)


class TestCharacterize:
    def test_basic_fields(self):
        r = characterize_overflow(SPEC2000_PROFILES["gcc"], FAST)
        assert isinstance(r, OverflowResult)
        assert r.traces_overflowed == 4
        assert r.mean_footprint > 0
        assert 0 < r.mean_utilization < 1
        assert r.mean_instructions > 0

    def test_write_fraction_consistent(self):
        r = characterize_overflow(SPEC2000_PROFILES["eon"], FAST)
        assert r.write_fraction == pytest.approx(
            r.mean_write_blocks / r.mean_footprint
        )

    def test_non_overflowing_profile_reports_fit(self):
        """A tiny-footprint profile never overflows within a short trace."""
        tiny = BenchmarkProfile(name="tiny", new_block_rate=0.001, hot_frac=0.0)
        cfg = OverflowConfig(n_traces=3, trace_accesses=2_000, seed=2)
        r = characterize_overflow(tiny, cfg)
        assert r.traces_fit == 3
        assert r.traces_overflowed == 0
        assert r.mean_footprint == 0.0

    def test_victim_buffer_extends_footprint(self):
        base = characterize_overflow(SPEC2000_PROFILES["parser"], FAST)
        import dataclasses

        with_vb = characterize_overflow(
            SPEC2000_PROFILES["parser"], dataclasses.replace(FAST, victim_entries=1)
        )
        assert with_vb.mean_footprint > base.mean_footprint

    def test_custom_geometry(self):
        small = CacheGeometry(size_bytes=8 * 1024, ways=4)
        cfg = OverflowConfig(n_traces=3, trace_accesses=60_000, geometry=small, seed=3)
        r_small = characterize_overflow(SPEC2000_PROFILES["gcc"], cfg)
        r_big = characterize_overflow(SPEC2000_PROFILES["gcc"], FAST)
        assert r_small.mean_footprint < r_big.mean_footprint

    def test_deterministic(self):
        a = characterize_overflow(SPEC2000_PROFILES["vpr"], FAST)
        b = characterize_overflow(SPEC2000_PROFILES["vpr"], FAST)
        assert a == b


class TestFleet:
    def test_avg_row_present(self):
        out = fleet_summary(FAST, benchmarks=["gcc", "mcf"])
        assert set(out) == {"gcc", "mcf", "AVG"}
        avg = out["AVG"]
        assert avg.mean_footprint == pytest.approx(
            (out["gcc"].mean_footprint + out["mcf"].mean_footprint) / 2
        )

    def test_failed_point_raises_value_error_serial_and_pooled(self):
        with pytest.raises(ValueError) as serial:
            fleet_summary(FAST, benchmarks=["gcc", "mcf"], engine="bogus")
        with pytest.raises(ValueError) as pooled:
            fleet_summary(FAST, benchmarks=["gcc", "mcf"], engine="bogus", jobs=2)
        assert "fleet_summary point {'bench': 'gcc'} failed" in str(pooled.value)
        assert str(serial.value) in str(pooled.value)

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(KeyError, match="unknown benchmarks"):
            fleet_summary(FAST, benchmarks=["nonesuch"])

    def test_paper_regime(self):
        """The fleet average lands in the §2.3 reported regime: overflow
        around a third of the cache, reads:writes ≈ 2:1, and dynamic
        instructions in the tens of thousands."""
        out = fleet_summary(OverflowConfig(n_traces=5, trace_accesses=200_000, seed=4))
        avg = out["AVG"]
        assert 0.35 * 0.6 < avg.mean_utilization < 0.36 * 1.45
        assert 0.25 < avg.write_fraction < 0.45
        assert 5_000 < avg.mean_instructions < 60_000
