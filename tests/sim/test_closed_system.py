"""Tests for the closed-system simulator (Figures 5, 6)."""

from __future__ import annotations

import pytest

import repro.sim.closed_system as closed_system
from repro.sim.closed_system import ClosedSystemConfig, simulate_closed_system
from repro.sim.engines import get_engine


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_entries": 0},
            {"n_entries": 8, "concurrency": 0},
            {"n_entries": 8, "write_footprint": 0},
            {"n_entries": 8, "alpha": -1},
            {"n_entries": 8, "target_transactions": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ClosedSystemConfig(**kwargs)

    def test_footprint_and_horizon(self):
        cfg = ClosedSystemConfig(1024, concurrency=2, write_footprint=10, alpha=2)
        assert cfg.footprint == 30
        assert cfg.horizon_ticks == 650 * 30 // 2

    def test_too_many_threads_rejected(self):
        with pytest.raises(ValueError):
            simulate_closed_system(ClosedSystemConfig(1024, concurrency=64))

    def test_too_many_threads_rejected_at_construction(self):
        """The C <= 63 bound lives in ``__post_init__``, so an invalid
        config fails on construction — before any simulation, sweep
        admission, or service job could be built around it."""
        with pytest.raises(ValueError, match="at most 63 threads"):
            ClosedSystemConfig(1024, concurrency=64)
        # The boundary itself is legal.
        ClosedSystemConfig(1024, concurrency=63)


class TestNoConflictBaseline:
    def test_huge_table_completes_target(self):
        """With a vast table, ~650 transactions commit and no conflicts
        occur — the paper's calibration."""
        cfg = ClosedSystemConfig(1 << 22, concurrency=2, write_footprint=5, seed=1)
        r = simulate_closed_system(cfg)
        assert r.conflicts <= 2  # vanishingly rare
        assert r.committed == pytest.approx(650, abs=6)  # stagger rounding

    def test_occupancy_matches_expectation_at_low_conflict(self):
        """§4: low-conflict occupancy ≈ C · F/2."""
        cfg = ClosedSystemConfig(1 << 20, concurrency=4, write_footprint=10, seed=2)
        r = simulate_closed_system(cfg)
        assert r.occupancy_ratio == pytest.approx(1.0, abs=0.08)
        assert r.actual_concurrency == pytest.approx(4.0, abs=0.35)


class TestConflictScaling:
    def test_conflicts_grow_with_footprint(self):
        base = dict(n_entries=4096, concurrency=4, seed=3)
        c5 = simulate_closed_system(ClosedSystemConfig(write_footprint=5, **base)).conflicts
        c10 = simulate_closed_system(ClosedSystemConfig(write_footprint=10, **base)).conflicts
        c20 = simulate_closed_system(ClosedSystemConfig(write_footprint=20, **base)).conflicts
        assert c5 < c10 < c20

    def test_conflicts_shrink_with_table(self):
        base = dict(concurrency=4, write_footprint=10, seed=3)
        c1k = simulate_closed_system(ClosedSystemConfig(n_entries=1024, **base)).conflicts
        c16k = simulate_closed_system(ClosedSystemConfig(n_entries=16384, **base)).conflicts
        assert c16k < c1k

    def test_conflicts_grow_with_concurrency(self):
        base = dict(n_entries=4096, write_footprint=10, seed=3)
        c2 = simulate_closed_system(ClosedSystemConfig(concurrency=2, **base)).conflicts
        c8 = simulate_closed_system(ClosedSystemConfig(concurrency=8, **base)).conflicts
        assert c8 > 3 * c2  # strongly superlinear

    def test_linear_conflicts_in_w_squared(self):
        """Per-transaction conflict probability ∝ W² at fixed commits:
        W=8 → W=16 should give roughly 4× conflicts (moderate regime)."""
        base = dict(n_entries=16384, concurrency=2, seed=5)
        c8 = simulate_closed_system(ClosedSystemConfig(write_footprint=8, **base)).conflicts
        c16 = simulate_closed_system(ClosedSystemConfig(write_footprint=16, **base)).conflicts
        assert c16 / max(c8, 1) == pytest.approx(4.0, rel=0.6)


class TestDepopulationEffect:
    def test_high_conflict_depresses_occupancy(self):
        """§4: at high conflict rates mean occupancy falls as much as
        ~40% below C·F/2 because aborts depopulate the table."""
        cfg = ClosedSystemConfig(512, concurrency=8, write_footprint=20, seed=4)
        r = simulate_closed_system(cfg)
        assert r.conflicts > 500
        assert r.occupancy_ratio < 0.8
        assert r.actual_concurrency < 6.5

    def test_committed_falls_under_contention(self):
        lo = simulate_closed_system(ClosedSystemConfig(1 << 18, 4, 10, seed=6))
        hi = simulate_closed_system(ClosedSystemConfig(256, 4, 10, seed=6))
        assert hi.committed < lo.committed


class TestDeterminism:
    def test_same_seed_same_run(self):
        cfg = ClosedSystemConfig(2048, 4, 10, seed=8)
        a = simulate_closed_system(cfg)
        b = simulate_closed_system(cfg)
        assert (a.conflicts, a.committed, a.mean_occupancy) == (
            b.conflicts,
            b.committed,
            b.mean_occupancy,
        )


# Outputs captured before the held-list bookkeeping fix (the read→write
# upgrade used to append a duplicate entry, and every write access paid
# an O(F) membership scan).  The fix must be behavior-preserving, so
# these exact values pin it — and both engines must reproduce them.
_GOLDEN = [
    # (n, c, w, alpha, seed) -> (conflicts, committed, mean_occupancy)
    ((512, 8, 20, 2, 4), (3085, 40, 86.00492307692308)),
    ((1024, 2, 10, 2, 0), (140, 581, 27.575076923076924)),
    ((2048, 4, 10, 2, 8), (219, 541, 53.776)),
    ((4096, 8, 16, 1, 3), (365, 463, 110.13730769230769)),
    ((256, 4, 10, 0, 6), (316, 484, 16.081230769230768)),
    ((1024, 1, 10, 2, 7), (0, 649, 14.352923076923076)),
    ((333, 5, 1, 3, 11), (19, 626, 7.375)),
]


class TestGoldenRegression:
    @pytest.mark.parametrize("engine", ["reference", "fast"])
    @pytest.mark.parametrize("params,expected", _GOLDEN)
    def test_pinned_outputs(self, params, expected, engine):
        n, c, w, alpha, seed = params
        r = get_engine("closed", engine)(
            ClosedSystemConfig(
                n_entries=n, concurrency=c, write_footprint=w, alpha=alpha, seed=seed
            )
        )
        assert (r.conflicts, r.committed, r.mean_occupancy) == expected


class _NoDupList(list):
    """A held list that refuses duplicate entries at append time."""

    def append(self, item):
        assert item not in self, f"entry {item} acquired twice in one transaction"
        super().append(item)


class _CheckedThread(closed_system._Thread):
    """A ``_Thread`` whose ``held`` list enforces the no-duplicates
    invariant on every append (the read→write upgrade bug appended the
    entry a second time)."""

    __slots__ = ("_held_store",)

    @property
    def held(self):
        return self._held_store

    @held.setter
    def held(self, value):
        self._held_store = _NoDupList(value)


class TestHeldInvariant:
    def test_held_never_contains_duplicates(self, monkeypatch):
        """Run a write-heavy, upgrade-heavy workload with duplicate
        appends turned into assertion failures."""
        monkeypatch.setattr(closed_system, "_Thread", _CheckedThread)
        # Small table + alpha>0 maximizes read-then-write upgrades of
        # the same entry within one transaction.
        cfg = ClosedSystemConfig(n_entries=32, concurrency=8, write_footprint=6,
                                 alpha=2, seed=12)
        r = simulate_closed_system(cfg)
        assert r.conflicts > 0  # the workload actually contends

    def test_checked_run_matches_unchecked(self, monkeypatch):
        """The checking wrapper observes; it must not perturb."""
        cfg = ClosedSystemConfig(n_entries=64, concurrency=4, write_footprint=8,
                                 alpha=1, seed=13)
        plain = simulate_closed_system(cfg)
        monkeypatch.setattr(closed_system, "_Thread", _CheckedThread)
        checked = simulate_closed_system(cfg)
        assert (checked.conflicts, checked.committed, checked.mean_occupancy) == (
            plain.conflicts,
            plain.committed,
            plain.mean_occupancy,
        )
