"""Tests for benchmark-profile trace synthesis."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.traces.workloads import (
    SPEC2000_PROFILES,
    BenchmarkProfile,
    _synthesize_layout,
    _trace_prefixes,
    specjbb_like,
    synthesize_trace,
)
from repro.util.rng import stream_rng


class TestProfileValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"new_block_rate": 0.0},
            {"new_block_rate": 1.5},
            {"seq_frac": -1.0},
            {"seq_frac": 0.0, "stride_frac": 0.0, "rand_frac": 0.0},
            {"strides": ()},
            {"strides": (0,)},
            {"hot_frac": 1.5},
            {"burst_length": 0},
            {"span": 0},
            {"writable_fraction": -0.1},
            {"write_prob": 2.0},
            {"reuse_recency": 0.0},
            {"instr_per_access": 0.5},
        ],
    )
    def test_rejects_bad_params(self, kwargs):
        with pytest.raises(ValueError):
            BenchmarkProfile(name="bad", **kwargs)

    @pytest.mark.parametrize("burst_length", [0.5, 0.999, float("nan")])
    def test_burst_length_below_one(self, burst_length):
        # numpy's geometric would fail later: p = 1 / burst_length > 1
        with pytest.raises(ValueError, match="burst_length must be at least 1"):
            BenchmarkProfile(name="bad", burst_length=burst_length)

    @pytest.mark.parametrize("strides", [(1.5, 2), (2, True), (4.0,)])
    def test_strides_must_be_integers(self, strides):
        # a fractional stride used to be truncated silently
        with pytest.raises(ValueError, match="strides must be positive integers"):
            BenchmarkProfile(name="bad", strides=strides)

    @pytest.mark.parametrize("span", [1000.5, 1024.0, True])
    def test_span_must_be_an_integer(self, span):
        with pytest.raises(ValueError, match="span must be a positive integer"):
            BenchmarkProfile(name="bad", span=span)

    def test_integer_fields_take_numpy_integers(self):
        profile = BenchmarkProfile(name="ok", strides=(np.int64(3), 5), span=np.int32(4096))
        assert len(synthesize_trace(profile, 2000, np.random.default_rng(0))) == 2000

    def test_shipped_profiles_pass(self):
        for profile in SPEC2000_PROFILES.values():
            assert dataclasses.replace(profile) == profile

    def test_fleet_is_twelve_spec_benchmarks(self):
        expected = {
            "bzip2", "crafty", "eon", "gap", "gcc", "gzip",
            "mcf", "parser", "perlbmk", "twolf", "vortex", "vpr",
        }
        assert set(SPEC2000_PROFILES) == expected

    def test_fleet_profiles_named_consistently(self):
        for name, prof in SPEC2000_PROFILES.items():
            assert prof.name == name


class TestSynthesizeTrace:
    def test_length(self):
        rng = stream_rng(1, "t")
        t = synthesize_trace(SPEC2000_PROFILES["gcc"], 5000, rng)
        assert len(t) == 5000

    def test_zero_length(self):
        rng = stream_rng(1, "t")
        assert len(synthesize_trace(SPEC2000_PROFILES["gcc"], 0, rng)) == 0

    def test_prefixes_of_a_negative_length_rejected(self):
        prefixes = _trace_prefixes(SPEC2000_PROFILES["gcc"], -5, np.random.default_rng(0), 1024)
        with pytest.raises(ValueError, match="n_accesses must be non-negative, got -5"):
            next(prefixes)

    def test_negative_rejected(self):
        rng = stream_rng(1, "t")
        with pytest.raises(ValueError):
            synthesize_trace(SPEC2000_PROFILES["gcc"], -1, rng)

    def test_deterministic_given_rng(self):
        a = synthesize_trace(SPEC2000_PROFILES["mcf"], 2000, stream_rng(7, "x"))
        b = synthesize_trace(SPEC2000_PROFILES["mcf"], 2000, stream_rng(7, "x"))
        assert a == b

    def test_footprint_tracks_new_block_rate(self):
        """Distinct blocks ≈ new_block_rate × accesses."""
        prof = dataclasses.replace(SPEC2000_PROFILES["gcc"], new_block_rate=0.05)
        t = synthesize_trace(prof, 20_000, stream_rng(3, "fp"))
        assert t.footprint == pytest.approx(1000, rel=0.15)

    def test_instr_monotone_nondecreasing(self):
        t = synthesize_trace(SPEC2000_PROFILES["gzip"], 3000, stream_rng(5, "i"))
        assert np.all(np.diff(t.instr) >= 1)

    def test_instr_density_matches_profile(self):
        prof = SPEC2000_PROFILES["gzip"]
        t = synthesize_trace(prof, 30_000, stream_rng(5, "d"))
        density = float(t.instr[-1]) / len(t)
        assert density == pytest.approx(prof.instr_per_access, rel=0.1)

    def test_write_fraction_of_footprint(self):
        """Written share of *distinct blocks* tracks writable_fraction
        (heavily reused writable blocks almost surely get a write)."""
        prof = SPEC2000_PROFILES["eon"]
        t = synthesize_trace(prof, 50_000, stream_rng(5, "w"))
        frac = len(t.write_blocks) / t.footprint
        assert frac == pytest.approx(prof.writable_fraction, abs=0.12)

    def test_base_offsets_address_range(self):
        t = synthesize_trace(SPEC2000_PROFILES["gcc"], 1000, stream_rng(5, "b"), base=1 << 30)
        assert t.blocks.min() >= 1 << 30

    def test_reuse_present(self):
        t = synthesize_trace(SPEC2000_PROFILES["crafty"], 10_000, stream_rng(5, "r"))
        assert t.footprint < 0.1 * len(t)  # strong temporal locality


class TestLayoutSpan:
    """The duplicate fix draws fresh addresses from ``[base, base + span)``."""

    def random_only(self, span):
        return BenchmarkProfile(
            name="x", new_block_rate=1.0, span=span, seq_frac=0, stride_frac=0, rand_frac=1,
            hot_frac=0,
        )

    def test_span_too_small_for_the_new_blocks_raises(self):
        with pytest.raises(ValueError, match=r"span 4 cannot hold 100 distinct new blocks"):
            synthesize_trace(self.random_only(4), 100, np.random.default_rng(0))

    @pytest.mark.parametrize("base", [0, 1 << 30])
    def test_span_with_exactly_enough_room(self, base):
        trace = synthesize_trace(self.random_only(100), 100, np.random.default_rng(0), base=base)
        assert sorted(trace.blocks.tolist()) == list(range(base, base + 100))


class TestLayoutBuffer:
    @pytest.mark.parametrize("reuse_recency", [0.02, 0.5])  # exponential, geometric draws
    def test_targets_are_worked_out_in_the_draw_buffer(self, reuse_recency):
        profile = BenchmarkProfile(name="x", reuse_recency=reuse_recency)
        layout = _synthesize_layout(profile, 5000, np.random.default_rng(0), 0)
        assert np.shares_memory(layout.alloc_of, layout.offsets)


class TestSpecjbbLike:
    def test_shape(self):
        tt = specjbb_like(4, 5000, seed=11)
        assert tt.n_threads == 4
        assert all(len(t) == 5000 for t in tt)

    def test_deterministic(self):
        a = specjbb_like(2, 2000, seed=11)
        b = specjbb_like(2, 2000, seed=11)
        for ta, tb in zip(a, b):
            assert ta == tb

    def test_threads_differ(self):
        tt = specjbb_like(2, 2000, seed=11)
        assert tt[0] != tt[1]

    def test_shared_region_produces_overlap(self):
        tt = specjbb_like(4, 10_000, seed=11, shared_fraction=0.1)
        sets = [set(t.unique_blocks.tolist()) for t in tt]
        overlap = sets[0] & sets[1]
        assert overlap  # shared region hit by both threads

    def test_zero_shared_fraction_disjoint(self):
        tt = specjbb_like(3, 5000, seed=11, shared_fraction=0.0)
        sets = [set(t.unique_blocks.tolist()) for t in tt]
        assert not (sets[0] & sets[1])
        assert not (sets[0] & sets[2])

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_threads": 0, "accesses_per_thread": 10},
            {"n_threads": 2, "accesses_per_thread": -1},
            {"n_threads": 2, "accesses_per_thread": 10, "shared_fraction": 1.5},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            specjbb_like(**kwargs)

    @pytest.mark.parametrize("write_fraction", [1.5, -0.1, float("nan")])
    def test_write_fraction_outside_the_unit_interval(self, write_fraction):
        # 1.5 used to make every writable access store and every shared access write
        with pytest.raises(ValueError, match="write_fraction must be in"):
            specjbb_like(2, 100, write_fraction=write_fraction)

    @pytest.mark.parametrize("span", [0, -3, 2.5, True])
    def test_shared_blocks_span_must_be_positive(self, span):
        with pytest.raises(ValueError, match="shared_blocks_span must be a positive integer"):
            specjbb_like(2, 100, shared_blocks_span=span)
