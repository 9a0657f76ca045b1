"""Tests for true-conflict removal (§2.2)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.traces.dedup import _truly_conflicting_blocks, remove_true_conflicts, shared_blocks
from repro.traces.events import AccessTrace, ThreadedTrace


def trace(blocks, writes):
    return AccessTrace(np.asarray(blocks, dtype=np.int64), np.asarray(writes, dtype=bool))


class TestSharedBlocks:
    def test_empty(self):
        assert len(shared_blocks(ThreadedTrace([]))) == 0

    def test_detects_overlap(self):
        tt = ThreadedTrace([trace([1, 2], [0, 0]), trace([2, 3], [0, 0])])
        assert list(shared_blocks(tt)) == [2]

    def test_within_thread_repeat_not_shared(self):
        tt = ThreadedTrace([trace([1, 1], [0, 0]), trace([2], [0])])
        assert len(shared_blocks(tt)) == 0


class TestTrulyConflicting:
    def test_read_read_sharing_is_not_conflict(self):
        tt = ThreadedTrace([trace([5], [False]), trace([5], [False])])
        assert len(_truly_conflicting_blocks(tt)) == 0

    def test_read_write_is_conflict(self):
        tt = ThreadedTrace([trace([5], [False]), trace([5], [True])])
        assert list(_truly_conflicting_blocks(tt)) == [5]

    def test_write_write_is_conflict(self):
        tt = ThreadedTrace([trace([5], [True]), trace([5], [True])])
        assert list(_truly_conflicting_blocks(tt)) == [5]

    def test_private_write_is_not_conflict(self):
        tt = ThreadedTrace([trace([5], [True]), trace([6], [True])])
        assert len(_truly_conflicting_blocks(tt)) == 0


class TestRemoveTrueConflicts:
    def test_removes_conflicting_accesses_everywhere(self):
        tt = ThreadedTrace(
            [trace([1, 5, 2], [True, True, False]), trace([5, 3], [False, True])]
        )
        cleaned = remove_true_conflicts(tt)
        assert list(cleaned[0].blocks) == [1, 2]
        assert list(cleaned[1].blocks) == [3]

    def test_keeps_read_only_sharing(self):
        tt = ThreadedTrace([trace([5, 1], [False, True]), trace([5], [False])])
        cleaned = remove_true_conflicts(tt)
        assert 5 in cleaned[0].blocks
        assert 5 in cleaned[1].blocks

    def test_no_conflicts_identity(self):
        tt = ThreadedTrace([trace([1], [True]), trace([2], [True])])
        assert remove_true_conflicts(tt) is tt

    def test_preserves_instr_of_survivors(self):
        t0 = AccessTrace(np.array([1, 5, 2]), np.array([True, True, False]), np.array([10, 20, 30]))
        t1 = trace([5], [True])
        cleaned = remove_true_conflicts(ThreadedTrace([t0, t1]))
        assert list(cleaned[0].instr) == [10, 30]

    @given(
        streams=st.lists(
            st.lists(
                st.tuples(st.integers(min_value=0, max_value=15), st.booleans()),
                max_size=30,
            ),
            min_size=2,
            max_size=4,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_result_is_conflict_free(self, streams):
        tt = ThreadedTrace(
            [trace([b for b, _ in s], [w for _, w in s]) for s in streams]
        )
        cleaned = remove_true_conflicts(tt)
        assert len(_truly_conflicting_blocks(cleaned)) == 0

    @given(
        streams=st.lists(
            st.lists(
                st.tuples(st.integers(min_value=0, max_value=15), st.booleans()),
                max_size=30,
            ),
            min_size=2,
            max_size=4,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_only_conflicting_blocks_removed(self, streams):
        tt = ThreadedTrace(
            [trace([b for b, _ in s], [w for _, w in s]) for s in streams]
        )
        bad = set(int(b) for b in _truly_conflicting_blocks(tt))
        cleaned = remove_true_conflicts(tt)
        for orig, new in zip(tt, cleaned):
            kept = [int(b) for b in orig.blocks if int(b) not in bad]
            assert list(new.blocks) == kept


def _oracle(streams):
    """Pure-Python (shared, truly conflicting) block lists."""
    touchers: dict[int, int] = {}
    writers: set[int] = set()
    for stream in streams:
        for block in {b for b, _ in stream}:
            touchers[block] = touchers.get(block, 0) + 1
        writers |= {b for b, w in stream if w}
    shared = sorted(b for b, n in touchers.items() if n >= 2)
    return shared, [b for b in shared if b in writers]


class TestAgainstOracle:
    @given(
        streams=st.lists(
            st.lists(
                st.tuples(
                    st.one_of(
                        st.integers(min_value=0, max_value=20),
                        st.integers(min_value=0, max_value=2**62),
                    ),
                    st.booleans(),
                ),
                max_size=40,
            ),
            max_size=5,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_pure_python(self, streams):
        tt = ThreadedTrace(
            [trace([b for b, _ in s], [w for _, w in s]) for s in streams]
        )
        shared, conflicting = _oracle(streams)
        for got, expected in (
            (shared_blocks(tt), shared),
            (_truly_conflicting_blocks(tt), conflicting),
        ):
            assert got.dtype == np.int64
            assert got.tolist() == expected
