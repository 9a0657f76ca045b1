"""Differential tests: the fast HTM-overflow engine vs the reference.

The fast engine's contract is *byte-identical* results — the same
:class:`~repro.htm.htm.HTMOverflow` fields the :class:`HTMContext`
replay produces, or the same ``None`` when the trace fits — enforced
through the shared :mod:`tests.sim.engine_contract` harness: exact
equality (``==``, never ``approx``) across synthesized benchmark
traces, adversarial hand-built streams, a geometry × victim-capacity
grid, and hypothesis-random traces.  Neither engine consumes RNG, so
identity here is structural: the E-event accounting (victim occupancy
== eviction-event count; overflow at event ``victim_entries + 1``)
must reproduce the reference's per-access LRU machine exactly.

Also covers the ``overflow`` and ``open`` rows of the generalized
engine registry (``open`` is the kind whose "fast" entry aliases the
already-vectorized reference).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.htm.cache import CacheGeometry
from repro.sim.engines import available_engines, get_engine, simulate_overflow
from repro.sim.open_system import simulate_open_system
from repro.sim.overflow import (
    OverflowConfig,
    characterize_overflow,
    simulate_htm_overflow,
)
from repro.sim.overflow_fast import simulate_htm_overflow_fast
from repro.traces.events import AccessTrace
from repro.traces.workloads import SPEC2000_PROFILES, synthesize_trace
from tests.sim.engine_contract import EngineContract, registry_test_class

CONTRACT = EngineContract(
    kind="overflow",
    fields=("access_index", "instructions", "footprint", "lost_block", "utilization"),
    run=lambda engine, case: engine(case[0], case[1], victim_entries=case[2]),
)

#: Small geometries overflow within a few hundred accesses, covering
#: direct-mapped, low-associativity and wide sets beyond the default
#: 32 KB 4-way (None).  n_sets must stay a power of two.
GEOMETRIES = {
    "default-32K-4way": None,
    "4K-1way": CacheGeometry(size_bytes=4096, ways=1, line_bytes=64),
    "2K-2way": CacheGeometry(size_bytes=2048, ways=2, line_bytes=64),
    "8K-8way": CacheGeometry(size_bytes=8192, ways=8, line_bytes=64),
    "512B-2way": CacheGeometry(size_bytes=512, ways=2, line_bytes=64),
}


def assert_identical(trace, geometry=None, victim_entries=0):
    """Both engines on one trace; exact equality, or both ``None``."""
    return CONTRACT.assert_identical((trace, geometry, victim_entries))


def make_trace(blocks, writes=None) -> AccessTrace:
    blocks = np.asarray(blocks, dtype=np.int64)
    if writes is None:
        writes = np.zeros(len(blocks), dtype=bool)
    return AccessTrace(blocks, np.asarray(writes, dtype=bool))


def synth(bench: str, n: int, seed: int) -> AccessTrace:
    return synthesize_trace(SPEC2000_PROFILES[bench], n, np.random.default_rng(seed))


class TestDifferentialGrid:
    """Exact equality over benchmark traces × geometry × victim capacity."""

    @pytest.mark.parametrize("bench", ["bzip2", "mcf", "crafty", "gcc"])
    @pytest.mark.parametrize("victim", [0, 1])
    def test_identical_on_benchmark_traces(self, bench, victim):
        trace = synth(bench, 60_000, seed=7)
        result = assert_identical(trace, None, victim)
        assert result is not None  # 60 K accesses always overflow 32 KB

    @pytest.mark.parametrize("geo_name", sorted(GEOMETRIES))
    @pytest.mark.parametrize("victim", [0, 1, 2, 5, 17])
    def test_identical_over_geometry_victim_grid(self, geo_name, victim):
        seed = 100 * sorted(GEOMETRIES).index(geo_name) + victim
        trace = synth("gcc", 8000, seed=seed)
        assert_identical(trace, GEOMETRIES[geo_name], victim)

    @pytest.mark.parametrize("victim", [0, 1, 3])
    def test_identical_on_dense_small_universe(self, victim):
        """Dense re-access: many hits, few E-events, late overflow."""
        rng = np.random.default_rng(42)
        trace = make_trace(rng.integers(0, 40, size=3000), rng.random(3000) < 0.4)
        assert_identical(trace, GEOMETRIES["512B-2way"], victim)


class TestAdversarialStreams:
    """Hand-built streams targeting the E-event invariants."""

    def test_single_set_conflict_overflows_at_ways_plus_one(self):
        """Blocks strided by n_sets land in one set; the (ways+1)-th
        distinct block is the first eviction event."""
        geo = GEOMETRIES["2K-2way"]  # 16 sets, 2 ways
        blocks = [16 * k for k in range(5)]  # all map to set 0
        result = assert_identical(make_trace(blocks), geo, 0)
        assert result is not None
        assert result.access_index == 2  # third distinct block evicts
        assert result.lost_block == 0  # LRU resident of set 0

    def test_victim_buffer_delays_overflow_by_capacity(self):
        geo = GEOMETRIES["2K-2way"]
        blocks = [16 * k for k in range(8)]
        baseline = assert_identical(make_trace(blocks), geo, 0)
        delayed = assert_identical(make_trace(blocks), geo, 2)
        assert delayed.access_index == baseline.access_index + 2

    def test_reaccess_of_victimized_block_swaps_back(self):
        """Re-touching a victimized block extracts + re-inserts (net 0):
        the overflow point must not move, and the hit must reorder LRU."""
        geo = GEOMETRIES["2K-2way"]
        # Fill set 0, evict block 0 into the victim buffer, then touch 0
        # again (swap back, evicting 16), then new distinct blocks.
        blocks = [0, 16, 32, 0, 48, 64, 80]
        assert_identical(make_trace(blocks), geo, 1)
        assert_identical(make_trace(blocks), geo, 2)

    def test_write_reclassifies_read_block(self):
        """A write after a read moves the block read→written; footprint
        split at overflow must agree."""
        geo = GEOMETRIES["2K-2way"]
        blocks = [0, 0, 16, 32, 48]
        writes = [False, True, False, True, False]
        result = assert_identical(make_trace(blocks, writes), geo, 0)
        assert result.footprint.write_blocks == 2

    def test_fitting_trace_returns_none_from_both(self):
        geo = GEOMETRIES["2K-2way"]
        result = assert_identical(make_trace([0, 16, 0, 16, 1, 17]), geo, 0)
        assert result is None

    def test_empty_trace_fits(self):
        assert assert_identical(make_trace([]), None, 0) is None
        assert assert_identical(make_trace([]), GEOMETRIES["4K-1way"], 3) is None

    def test_sparse_addresses_take_unique_fallback(self):
        """Blocks above 2^26 exercise the fast engine's np.unique path
        for first-occurrence detection."""
        geo = GEOMETRIES["4K-1way"]  # 64 sets, 1 way
        base = 1 << 30
        # Stride 4096 folds every block into set 0 of the 64-set cache.
        colliding = [base + 4096 * k for k in (0, 1, 2, 1, 3)]
        result = assert_identical(make_trace(colliding), geo, 0)
        assert result is not None and result.access_index == 1
        assert_identical(make_trace(colliding), geo, 2)
        # Distinct sets (consecutive blocks): the trace fits; both agree.
        spread = [base + k for k in range(5)]
        assert assert_identical(make_trace(spread), geo, 0) is None

    def test_negative_victim_entries_identical_error(self):
        CONTRACT.assert_identical_error(
            (make_trace([1, 2, 3]), None, -1),
            message="capacity must be non-negative, got -1",
        )


#: Hypothesis-drawn random traces: small universes over small caches,
#: so overflow, swap-backs and fitting traces all occur.
RANDOM_TRACE_CASES = dict(
    seed=st.integers(0, 2**31 - 1),
    length=st.integers(1, 600),
    universe=st.integers(1, 120),
    write_fraction=st.floats(0.0, 1.0),
    geo_name=st.sampled_from(sorted(GEOMETRIES)),
    victim=st.integers(0, 6),
)


class TestDifferentialProperty:
    @given(**RANDOM_TRACE_CASES)
    @settings(max_examples=40, deadline=None)
    def test_identical_on_random_traces(self, seed, length, universe,
                                        write_fraction, geo_name, victim):
        rng = np.random.default_rng(seed)
        trace = make_trace(
            rng.integers(0, universe, size=length),
            rng.random(length) < write_fraction,
        )
        assert_identical(trace, GEOMETRIES[geo_name], victim)


class TestPrefixCausality:
    """The contract Figure 3's prefix loop relies on: on ``trace[:hi]``
    each engine returns its full-trace verdict when the overflow index
    is below ``hi``, and ``None`` otherwise."""

    @given(**RANDOM_TRACE_CASES)
    @settings(max_examples=40, deadline=None)
    def test_prefix_verdict_is_the_full_verdict_or_none(
        self, seed, length, universe, write_fraction, geo_name, victim
    ):
        rng = np.random.default_rng(seed)
        trace = make_trace(
            rng.integers(0, universe, size=length),
            rng.random(length) < write_fraction,
        )
        geo = GEOMETRIES[geo_name]
        for name in available_engines("overflow"):
            simulate = get_engine("overflow", name)
            full = simulate(trace, geo, victim_entries=victim)
            cuts = {0, 1, length // 3, length // 2, length - 1, length}
            if full is not None:
                cuts |= {full.access_index, full.access_index + 1}
            for hi in sorted(cuts):
                got = simulate(trace[:hi], geo, victim_entries=victim)
                if full is not None and full.access_index < hi:
                    assert got == full, (name, hi)
                else:
                    assert got is None, (name, hi)


class TestCharacterizationLevel:
    """Engine selection through the §2.3 aggregation layer."""

    def test_characterize_overflow_identical_across_engines(self):
        cfg = OverflowConfig(n_traces=3, trace_accesses=40_000, seed=5)
        profile = SPEC2000_PROFILES["bzip2"]
        ref = characterize_overflow(profile, cfg, engine="reference")
        fast = characterize_overflow(profile, cfg, engine="fast")
        default = characterize_overflow(profile, cfg)
        assert fast == ref == default
        assert ref.traces_overflowed + ref.traces_fit == 3

    def test_simulate_overflow_dispatches(self):
        trace = synth("mcf", 8000, seed=3)
        geo = GEOMETRIES["8K-8way"]
        default = simulate_overflow(trace, geo, victim_entries=1)
        ref = simulate_overflow(trace, geo, victim_entries=1, engine="reference")
        fast = simulate_overflow(trace, geo, victim_entries=1, engine="fast")
        assert default == fast == ref


TestRegistryContract = registry_test_class(
    "overflow",
    reference=simulate_htm_overflow,
    fast=simulate_htm_overflow_fast,
    display="overflow",
)

#: The open kind's "fast" entry deliberately aliases the vectorized
#: reference; the registry shape must hold anyway.
TestOpenRegistryContract = registry_test_class(
    "open",
    reference=simulate_open_system,
    fast=simulate_open_system,
    display="open-system",
)
