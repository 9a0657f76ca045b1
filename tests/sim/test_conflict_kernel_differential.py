"""Differential suite: the packed-key conflict kernel against its predecessor.

:func:`repro.sim.montecarlo.cross_thread_conflicts` sorts each sample's
row of packed ``(entry, thread, write)`` int64 keys.  The kernel it
replaced, one global stable ``argsort`` over per-sample key ranges plus
``reduceat`` over the runs, is kept here verbatim as the oracle; every
case must return the same booleans.

The oracle offsets sample ``s`` by ``s * (max entry + 1)``, which wraps
int64 once entries approach 2**62.  Cases with wide entries therefore
ask the oracle one sample at a time (offset 0), where it is exact.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.montecarlo import cross_thread_conflicts


def oracle_cross_thread_conflicts(
    entries: np.ndarray, is_write: np.ndarray, thread_of: np.ndarray
) -> np.ndarray:
    """The global-argsort kernel, as it stood before the packed-key sort."""
    entries = np.asarray(entries, dtype=np.int64)
    is_write = np.asarray(is_write, dtype=bool)
    if entries.ndim != 2 or entries.shape != is_write.shape:
        raise ValueError(
            f"entries and is_write must be matching 2-D arrays, got {entries.shape} vs {is_write.shape}"
        )
    thread_of = np.asarray(thread_of, dtype=np.int64)
    if thread_of.shape != (entries.shape[1],):
        raise ValueError(
            f"thread_of must have shape ({entries.shape[1]},), got {thread_of.shape}"
        )
    samples, accesses = entries.shape
    if accesses == 0:
        return np.zeros(samples, dtype=bool)
    if np.any(entries < 0):
        raise ValueError("entries must be non-negative table indices")

    stride = np.int64(int(entries.max()) + 1)
    keys = (entries + stride * np.arange(samples, dtype=np.int64)[:, None]).ravel()
    writes = is_write.ravel()
    threads = np.broadcast_to(thread_of, entries.shape).ravel()

    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    writes = writes[order]
    threads = threads[order]

    run_start = np.empty(keys.shape, dtype=bool)
    run_start[0] = True
    np.not_equal(keys[1:], keys[:-1], out=run_start[1:])
    boundaries = np.flatnonzero(run_start)

    any_write = np.maximum.reduceat(writes.astype(np.int8), boundaries) > 0
    tmin = np.minimum.reduceat(threads, boundaries)
    tmax = np.maximum.reduceat(threads, boundaries)
    conflicting_run = any_write & (tmin != tmax)

    sample_of_run = keys[boundaries] // stride
    out = np.zeros(samples, dtype=bool)
    out[sample_of_run[conflicting_run]] = True
    return out


def oracle_by_sample(entries, is_write, thread_of) -> np.ndarray:
    """The oracle one sample at a time: exact for entries up to 2**63 - 2."""
    return np.array(
        [
            oracle_cross_thread_conflicts(entries[s : s + 1], is_write[s : s + 1], thread_of)[0]
            for s in range(entries.shape[0])
        ],
        dtype=bool,
    )


def assert_same(entries, is_write, thread_of, *, by_sample: bool = False) -> np.ndarray:
    got = cross_thread_conflicts(entries, is_write, thread_of)
    oracle = oracle_by_sample if by_sample else oracle_cross_thread_conflicts
    want = oracle(entries, is_write, thread_of)
    assert got.dtype == bool and got.shape == (entries.shape[0],)
    assert np.array_equal(got, want)
    return got


@st.composite
def kernel_inputs(draw, *, max_entry=st.integers(1, 64), threads=st.integers(1, 5)):
    """A batch with padded per-thread footprints, as the engines build them.

    Each thread's footprint may end in pads: distinct read-only entries
    at or above the table size ``n``, which can never conflict.
    """
    n = draw(max_entry)
    c = draw(threads)
    per_thread = draw(st.integers(0, 8))
    samples = draw(st.integers(1, 12))
    write_mode = draw(st.sampled_from(["mixed", "all_read", "all_write"]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    a = c * per_thread
    entries = rng.integers(0, n, size=(samples, a), dtype=np.int64)
    if write_mode == "all_read":
        writes = np.zeros((samples, a), dtype=bool)
    elif write_mode == "all_write":
        writes = np.ones((samples, a), dtype=bool)
    else:
        writes = rng.random((samples, a)) < draw(st.sampled_from([0.1, 0.4, 0.9]))
    if a and draw(st.booleans()):
        pads = rng.random((samples, a)) < 0.3
        entries = np.where(pads, n + np.arange(a), entries)
        writes &= ~pads
    thread_of = np.repeat(np.arange(c, dtype=np.int64), per_thread)
    return entries, writes, thread_of


class TestAgainstOracle:
    @given(kernel_inputs())
    @settings(max_examples=300, deadline=None)
    def test_padded_batches(self, case):
        assert_same(*case)

    @given(kernel_inputs(threads=st.just(1)))
    @settings(max_examples=50, deadline=None)
    def test_single_thread_never_conflicts(self, case):
        assert not assert_same(*case).any()

    @given(
        kernel_inputs(),
        st.sampled_from(
            [
                lambda t: t + 5,
                lambda t: 3 * t - 7,
                lambda t: (t * 2**40) - 2**61,
                lambda t: np.where(t % 2 == 0, -(2**63), 2**63 - 1 - t),
            ]
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_thread_ids_outside_zero_to_c(self, case, relabel):
        entries, writes, thread_of = case
        assert_same(entries, writes, np.asarray(relabel(thread_of), dtype=np.int64))

    @given(
        kernel_inputs(max_entry=st.integers(1, 6), threads=st.integers(1, 4)),
        st.sampled_from([2**61 - 4, 2**61 - 1, 2**61, 2**62 - 3, 2**63 - 2**10]),
    )
    @settings(max_examples=150, deadline=None)
    def test_entries_at_and_above_the_packing_bound(self, case, base):
        # With threads 0..C-1 the key packs entries below 2**(62 - bits(C-1));
        # these bases straddle that bound, so both sides of the relabel run.
        entries, writes, thread_of = case
        assert_same(base + entries, writes, thread_of, by_sample=True)


class TestEdges:
    def test_one_sample(self):
        entries = np.array([[3, 1, 3, 2]])
        writes = np.array([[False, False, True, False]])
        assert list(assert_same(entries, writes, np.array([0, 0, 1, 1]))) == [True]

    def test_one_access(self):
        assert_same(np.array([[4], [0]]), np.array([[True], [False]]), np.array([7]))

    def test_zero_accesses(self):
        got = assert_same(
            np.empty((3, 0), dtype=np.int64), np.empty((3, 0), dtype=bool), np.empty(0)
        )
        assert not got.any()

    def test_zero_samples(self):
        # The oracle raised numpy's zero-size reduction error here.
        got = cross_thread_conflicts(
            np.empty((0, 4), dtype=np.int64), np.empty((0, 4), dtype=bool), np.arange(4)
        )
        assert got.shape == (0,) and got.dtype == bool

    def test_largest_entry(self):
        # The oracle's stride is max + 1, so 2**63 - 2 is the widest it takes.
        entries = np.array([[2**63 - 2, 2**63 - 2], [0, 2**63 - 2]])
        writes = np.array([[True, False], [True, True]])
        got = assert_same(entries, writes, np.array([0, 1]), by_sample=True)
        assert list(got) == [True, False]

    def test_runs_do_not_join_across_samples(self):
        # Sample 0 ends and sample 1 starts on entry 5 with different threads.
        entries = np.array([[1, 5], [5, 9]])
        writes = np.ones((2, 2), dtype=bool)
        assert list(assert_same(entries, writes, np.array([0, 1]))) == [False, False]


class TestValidation:
    """The error texts are unchanged from the oracle's."""

    @pytest.mark.parametrize(
        "args",
        [
            (np.zeros((2, 3)), np.zeros((2, 4), dtype=bool), np.zeros(3)),
            (np.zeros(3), np.zeros(3, dtype=bool), np.zeros(3)),
            (np.zeros((2, 3)), np.zeros((2, 3), dtype=bool), np.zeros(4)),
            (np.array([[-1, 0]]), np.zeros((1, 2), dtype=bool), np.array([0, 1])),
        ],
    )
    def test_same_value_error(self, args):
        with pytest.raises(ValueError) as want:
            oracle_cross_thread_conflicts(*args)
        with pytest.raises(ValueError) as got:
            cross_thread_conflicts(*args)
        assert str(got.value) == str(want.value)
