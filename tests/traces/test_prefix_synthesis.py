"""Prefix synthesis: the Figure 3 loop draws each trace only as far as it looks.

``workloads._trace_prefixes`` yields prefixes ``[0, hi)`` of the trace
:func:`synthesize_trace` would return, drawing the per-access tail (store
flags, then instruction gaps) only up to ``hi``.  These tests pin

* prefix equivalence: every yielded prefix equals the full trace cut at
  ``hi``, field for field, for every SPEC2000 profile;
* the numpy stream facts that equivalence rests on: ``PCG64.advance(k)``
  lands where ``random(k)`` does, and ``geometric`` draws split across
  calls equal one call on both sides of numpy's ``p >= 1/3`` branch;
* the characterization built on it: same results as running every full
  trace, and a tail drawn only to about four times the overflow index.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.specs import EXPERIMENTS
from repro.sim.engines import available_engines, get_engine
from repro.sim.overflow import OverflowConfig, characterize_overflow, overflow_distribution
from repro.sim.overflow_fast import _FIRST_CHUNK
from repro.traces import workloads
from repro.traces.workloads import SPEC2000_PROFILES, _trace_prefixes, synthesize_trace
from repro.util.rng import stream_rng

FIELDS = ("blocks", "is_write", "instr")


def assert_same_trace(got, expected):
    for field in FIELDS:
        a, b = getattr(got, field), getattr(expected, field)
        assert a.dtype == b.dtype, field
        assert np.array_equal(a, b), field


def prefix_ends(n: int, first: int) -> list[int]:
    """The ``hi`` sequence the prefix source must yield."""
    ends = [min(n, first)]
    while ends[-1] < n:
        ends.append(min(n, ends[-1] * 4))
    return ends


class TestPrefixEquivalence:
    @pytest.mark.parametrize("name", sorted(SPEC2000_PROFILES))
    @pytest.mark.parametrize(
        "n", [0, 1, _FIRST_CHUNK - 1, _FIRST_CHUNK, 5 * _FIRST_CHUNK + 3]
    )
    def test_every_prefix_is_the_full_trace_cut(self, name, n):
        profile = SPEC2000_PROFILES[name]
        full = synthesize_trace(profile, n, stream_rng(4, "prefix", bench=name))
        prefixes = list(
            _trace_prefixes(profile, n, stream_rng(4, "prefix", bench=name), _FIRST_CHUNK)
        )
        assert [len(p) for p in prefixes] == prefix_ends(n, _FIRST_CHUNK)
        for prefix in prefixes:
            assert_same_trace(prefix, full[: len(prefix)])

    @pytest.mark.parametrize("first", [1, 3, 64])
    def test_small_first_chunk_many_steps(self, first):
        profile = SPEC2000_PROFILES["crafty"]
        full = synthesize_trace(profile, 5000, np.random.default_rng(9), base=1 << 30)
        prefixes = list(
            _trace_prefixes(profile, 5000, np.random.default_rng(9), first, base=1 << 30)
        )
        assert [len(p) for p in prefixes] == prefix_ends(5000, first)
        for prefix in prefixes:
            assert_same_trace(prefix, full[: len(prefix)])

    @pytest.mark.parametrize("first", [0, -1])
    def test_rejects_a_first_chunk_below_one(self, first):
        profile = SPEC2000_PROFILES["gcc"]
        with pytest.raises(ValueError, match="first must be at least 1"):
            next(_trace_prefixes(profile, 10, np.random.default_rng(0), first))

    def test_rejects_generators_without_pcg64_advance(self):
        profile = SPEC2000_PROFILES["gcc"]
        philox = np.random.Generator(np.random.Philox(0))
        with pytest.raises(TypeError, match="PCG64"):
            next(_trace_prefixes(profile, 10, philox, 8))


class TestStreamPins:
    """The numpy facts prefix synthesis relies on."""

    @pytest.mark.parametrize("k", [0, 1, 7, 8192, 250_001])
    @pytest.mark.parametrize("buffered", [False, True])
    def test_advance_lands_where_random_does(self, k, buffered):
        rng = np.random.default_rng(123)
        if buffered:
            rng.integers(0, 1 << 20)  # leaves a buffered 32-bit half behind
        clone = np.random.PCG64()
        clone.state = rng.bit_generator.state
        clone.advance(k)
        rng.random(k)
        # advance() drops the buffered half; random() and geometric()
        # never read it, so the 128-bit state is what must agree.
        assert clone.state["state"] == rng.bit_generator.state["state"]
        moved = np.random.Generator(clone)
        assert np.array_equal(moved.geometric(0.4, size=50), rng.geometric(0.4, size=50))
        assert np.array_equal(moved.random(50), rng.random(50))

    def test_gap_branch_per_profile(self):
        """crafty's gaps take numpy's inversion branch, the rest the search."""
        below = {
            name for name, prof in SPEC2000_PROFILES.items()
            if min(1.0, 1.0 / prof.instr_per_access) < 1 / 3
        }
        assert below == {"crafty"}
        assert 1.0 / SPEC2000_PROFILES["crafty"].instr_per_access == 0.3125

    @pytest.mark.parametrize(
        "p",
        sorted({min(1.0, 1.0 / prof.instr_per_access) for prof in SPEC2000_PROFILES.values()})
        + [0.02, 0.333, 1 / 3, 0.34, 1.0],
    )
    def test_geometric_split_equals_one_call(self, p):
        whole = np.random.default_rng(77).geometric(p, size=10_000)
        rng = np.random.default_rng(77)
        parts = [rng.geometric(p, size=m) for m in (1, 8191, 0, 1808)]
        assert np.array_equal(np.concatenate(parts), whole)


def full_trace_oracle(profile, cfg, engine):
    """Every trace drawn and simulated whole, as before prefix synthesis."""
    simulate = get_engine("overflow", engine)
    out = []
    for k in range(cfg.n_traces):
        rng = stream_rng(cfg.seed, "overflow", bench=profile.name, trace=k)
        trace = synthesize_trace(profile, cfg.trace_accesses, rng)
        out.append(simulate(trace, cfg.geometry, victim_entries=cfg.victim_entries))
    return out


class TestCharacterization:
    @pytest.mark.parametrize("engine", available_engines("overflow"))
    @pytest.mark.parametrize("victim", [0, 1])
    def test_matches_full_trace_oracle(self, engine, victim):
        """Traces straddle the first chunk: some overflow past it, and
        one fits."""
        profile = SPEC2000_PROFILES["twolf"]
        cfg = OverflowConfig(n_traces=6, trace_accesses=14_000,
                             victim_entries=victim, seed=0)
        oracle = full_trace_oracle(profile, cfg, engine)
        overflowed = [ov for ov in oracle if ov is not None]
        assert 0 < len(overflowed) < len(oracle)
        assert any(ov.access_index >= _FIRST_CHUNK for ov in overflowed)

        summary = characterize_overflow(profile, cfg, engine=engine)
        assert summary.traces_overflowed == len(overflowed)
        assert summary.traces_fit == len(oracle) - len(overflowed)
        assert summary.mean_instructions == float(np.mean([ov.instructions for ov in overflowed]))
        assert summary.mean_utilization == float(np.mean([ov.utilization for ov in overflowed]))
        dist = overflow_distribution(profile, cfg, engine=engine)
        assert dist.footprints.tolist() == [ov.footprint.total for ov in overflowed]
        assert dist.instructions.tolist() == [ov.instructions for ov in overflowed]


class TestBoundedDraws:
    """A slide back to full-length tails fails here, not only in the benchmark."""

    @pytest.mark.parametrize("name", ["bzip2", "crafty", "mcf"])
    def test_tail_drawn_to_at_most_four_times_the_overflow(self, name, monkeypatch):
        normal = EXPERIMENTS["fig3"].quality_params["normal"]
        cfg = OverflowConfig(n_traces=normal["traces"], trace_accesses=normal["accesses"],
                             seed=12345)
        profile = SPEC2000_PROFILES[name]

        drawn: list[int] = []  # per trace: accesses whose tail was drawn
        draw_tail = workloads._draw_tail

        def counting(profile, writable_of, flags_rng, gaps_rng, lo, hi, is_write, instr):
            if lo == 0:
                drawn.append(0)
            drawn[-1] += hi - lo
            draw_tail(profile, writable_of, flags_rng, gaps_rng, lo, hi, is_write, instr)

        monkeypatch.setattr(workloads, "_draw_tail", counting)
        summary = characterize_overflow(profile, cfg)
        monkeypatch.undo()

        oracle = full_trace_oracle(profile, cfg, None)
        assert summary.traces_overflowed == cfg.n_traces
        assert len(drawn) == cfg.n_traces
        for n_drawn, ov in zip(drawn, oracle):
            assert n_drawn <= max(_FIRST_CHUNK, 4 * (ov.access_index + 1))
            assert n_drawn < cfg.trace_accesses
