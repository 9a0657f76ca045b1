"""Differential suite: stage 1 works out reuse targets only as far as it is read.

``workloads._synthesize_layout`` makes every stage-1 draw at full length
but does the arithmetic on the reuse draws (geometric inversion,
allocation count, subtraction, new-access scatter) eagerly only up to
the last access whose target can be negative; ``_gather_layout`` does
the rest for each prefix it fills.  The eager stage 1 it replaced is
kept here verbatim as the oracle, with the ``_geometric`` it called and
the prefix loop around it.  Every prefix a consumer is handed, and the
generator state after it, must equal the oracle's, as must every whole
trace and the generator state after it.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.traces import workloads
from repro.traces.events import AccessTrace
from repro.traces.workloads import (
    SPEC2000_PROFILES,
    BenchmarkProfile,
    _draw_tail,
    _trace_prefixes,
    synthesize_trace,
)

_INT64_LIMIT = 9.223372036854776e18
_INT64_MAX = np.iinfo(np.int64).max


def oracle_geometric(rng: np.random.Generator, p: float, size: int) -> np.ndarray:
    if p >= 1 / 3:
        return rng.geometric(p, size=size)
    z = rng.standard_exponential(size)
    z /= -math.log1p(-p)
    np.ceil(z, out=z)
    big = z >= _INT64_LIMIT
    if big.any():
        z[big] = 0.0
    out = z.astype(np.int64)
    out[big] = _INT64_MAX
    return out


def oracle_synthesize_layout(
    profile: BenchmarkProfile, n_accesses: int, rng: np.random.Generator, base: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    is_new = rng.random(n_accesses) < profile.new_block_rate
    is_new[0] = True  # the first access necessarily touches a new block
    n_new = int(np.count_nonzero(is_new))

    new_blocks = workloads._layout_new_blocks(profile, n_new, rng, base)
    writable = rng.random(n_new) < profile.writable_fraction

    # alloc_of[i] = index (into allocation order) of the block access i
    # touches. New accesses touch their own allocation; reuse accesses
    # pick a recency-biased earlier allocation, allocated[i] - g for a
    # geometric g >= 1 (g = 1 is the newest).
    allocated = is_new.astype(np.int64)  # allocations up to access i
    np.cumsum(allocated, out=allocated)  # in place: 3x faster than from bool
    alloc_of = oracle_geometric(rng, profile.reuse_recency, n_accesses)
    np.subtract(allocated, alloc_of, out=alloc_of)
    # Fold out-of-range (too-old) targets back uniformly over history.
    # ``neg`` spans every access, new ones too: its length is a draw count.
    neg = np.flatnonzero(alloc_of < 0)
    alloc_of[neg] = (rng.random(len(neg)) * allocated[neg]).astype(np.int64)
    alloc_of[np.flatnonzero(is_new)] = np.arange(n_new)  # the k-th new access is allocation k
    return new_blocks, writable, alloc_of


def oracle_gather_layout(
    layout: tuple[np.ndarray, np.ndarray, np.ndarray],
    lo: int,
    hi: int,
    blocks: np.ndarray,
    writable_of: np.ndarray,
) -> None:
    new_blocks, writable, alloc_of = layout
    np.take(new_blocks, alloc_of[lo:hi], out=blocks[lo:hi], mode="clip")
    np.take(writable, alloc_of[lo:hi], out=writable_of[lo:hi], mode="clip")


def oracle_synthesize_trace(profile, n_accesses, rng, *, base=0):
    layout = oracle_synthesize_layout(profile, n_accesses, rng, base)
    blocks = np.empty(n_accesses, dtype=np.int64)
    writable_of = np.empty(n_accesses, dtype=bool)
    oracle_gather_layout(layout, 0, n_accesses, blocks, writable_of)
    is_write = np.empty(n_accesses, dtype=bool)
    instr = np.empty(n_accesses, dtype=np.int64)
    _draw_tail(profile, writable_of, rng, rng, 0, n_accesses, is_write, instr)
    return AccessTrace(blocks, is_write, instr)


def oracle_trace_prefixes(profile, n_accesses, rng, first, *, base=0):
    layout = oracle_synthesize_layout(profile, n_accesses, rng, base)
    gaps_bits = np.random.PCG64()
    gaps_bits.state = rng.bit_generator.state
    gaps_bits.advance(n_accesses)
    gaps_rng = np.random.Generator(gaps_bits)
    blocks = np.empty(n_accesses, dtype=np.int64)
    writable_of = np.empty(n_accesses, dtype=bool)
    is_write = np.empty(n_accesses, dtype=bool)
    instr = np.empty(n_accesses, dtype=np.int64)
    lo, hi = 0, min(n_accesses, first)
    while True:
        oracle_gather_layout(layout, lo, hi, blocks, writable_of)
        _draw_tail(profile, writable_of, rng, gaps_rng, lo, hi, is_write, instr)
        yield AccessTrace(blocks[:hi], is_write[:hi], instr[:hi])
        if hi == n_accesses:
            return
        lo, hi = hi, min(n_accesses, hi * 4)


def assert_same_trace(got, expected):
    for field in ("blocks", "is_write", "instr"):
        a, b = getattr(got, field), getattr(expected, field)
        assert a.dtype == b.dtype, field
        assert np.array_equal(a, b), field


def assert_matches_oracle(profile, n, seed, first, base=0):
    """Prefixes, whole trace and the generator state after each equal the oracle's."""
    rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = _trace_prefixes(profile, n, rng, first, base=base)
    want = oracle_trace_prefixes(profile, n, want_rng, first, base=base)
    ends = []
    for a, b in zip(got, want, strict=True):
        assert_same_trace(a, b)
        assert rng.bit_generator.state == want_rng.bit_generator.state
        ends.append(len(a))
    assert ends[-1] == n

    rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    whole = synthesize_trace(profile, n, rng, base=base)
    assert_same_trace(whole, oracle_synthesize_trace(profile, n, want_rng, base=base))
    assert rng.bit_generator.state == want_rng.bit_generator.state


#: the SPECJBB2005 warehouse profile ``specjbb_like`` builds (write_fraction 0.3)
WAREHOUSE = BenchmarkProfile(
    name="specjbb-warehouse", new_block_rate=0.08, seq_frac=1.2, stride_frac=0.8, rand_frac=2.0,
    hot_frac=0.0, burst_length=8, span=1 << 22, writable_fraction=0.6, write_prob=0.3 / 0.6,
    reuse_recency=0.04, instr_per_access=2.8,
)

PROFILES = {**SPEC2000_PROFILES, WAREHOUSE.name: WAREHOUSE}

#: (n_accesses, first): the normal fig3 trace, a first prefix cut inside
#: the eagerly worked-out head, prefixes from one access up, one prefix
#: that is the whole trace, and a first chunk past the end
SHAPES = [(250_000, 8192), (40_963, 1), (8191, 64), (5000, 5000), (3000, 99_999), (1, 1)]


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"n{s[0]}-first{s[1]}")
@pytest.mark.parametrize("name", sorted(PROFILES))
def test_profiles(name, shape):
    n, first = shape
    for seed in (0, 1, 2) if n < 250_000 else (0,):
        assert_matches_oracle(PROFILES[name], n, seed, first, base=seed << 30)


EDGE_PROFILES = {
    # numpy's search regime: the reuse draws are geometric integers
    "search-1/3": dict(reuse_recency=1 / 3),
    "search-half": dict(reuse_recency=0.5),
    "search-one": dict(reuse_recency=1.0),
    "inversion-edge": dict(reuse_recency=np.nextafter(1 / 3, 0)),
    # the INT64 clamp: a few draws clamp, then most do
    "clamp-some": dict(reuse_recency=1e-18),
    "clamp-all": dict(reuse_recency=1e-20),
    # every access new: no reuse target is ever read
    "all-new": dict(new_block_rate=1.0),
    "all-new-search": dict(new_block_rate=1.0, reuse_recency=0.5),
    # almost no new blocks: the head is the whole trace
    "few-new": dict(new_block_rate=1e-4),
}


@pytest.mark.parametrize("shape", [(60_000, 8192), (5000, 1), (7, 3), (1, 1), (1, 50)],
                         ids=lambda s: f"n{s[0]}-first{s[1]}")
@pytest.mark.parametrize("edge", sorted(EDGE_PROFILES))
def test_edge_profiles(edge, shape):
    profile = replace(SPEC2000_PROFILES["gcc"], **EDGE_PROFILES[edge])
    n, first = shape
    for seed in (3, 4):
        assert_matches_oracle(profile, n, seed, first)


def test_clamp_profile_clamps():
    """``clamp-some`` does reach the clamp, and not on every draw."""
    z = np.random.default_rng(3).standard_exponential(60_000) / -math.log1p(-1e-18)
    assert 0 < np.count_nonzero(np.ceil(z) >= _INT64_LIMIT) < len(z)


def last_fold_reaches_bound(profile: BenchmarkProfile, n: int, seed: int) -> bool:
    """Whether the oracle folds a target past the ``(G-1)``-th new access.

    ``G`` is the largest reuse offset.  Such a trace leaves no slack in
    the bound: a stage 1 that stopped its eager arithmetic at the
    ``(G-1)``-th new access instead of the ``G``-th would miss the fold.
    """
    rng = np.random.default_rng(seed)
    is_new = rng.random(n) < profile.new_block_rate
    is_new[0] = True
    n_new = int(np.count_nonzero(is_new))
    workloads._layout_new_blocks(profile, n_new, rng, 0)
    rng.random(n_new)
    g = oracle_geometric(rng, profile.reuse_recency, n)
    top = int(g.max())
    if not 2 <= top <= n_new:
        return False
    neg = np.flatnonzero(np.cumsum(is_new) - g < 0)
    return len(neg) > 0 and neg[-1] >= np.flatnonzero(is_new)[top - 2]


def test_fold_bound_is_tight():
    profile = replace(SPEC2000_PROFILES["gcc"], new_block_rate=0.3, reuse_recency=0.3)
    tight = [seed for seed in range(200) if last_fold_reaches_bound(profile, 40, seed)]
    assert len(tight) >= 5
    for seed in tight:
        assert_matches_oracle(profile, 40, seed, 1)


_unit = st.floats(0.0, 1.0)
_open_unit = st.one_of(st.floats(1e-6, 1.0), st.sampled_from([1e-19, 0.3, 1 / 3, 0.9, 1.0]))


@settings(max_examples=60, deadline=None)
@given(
    new_block_rate=_open_unit,
    fracs=st.tuples(_unit, _unit, _unit).filter(lambda f: sum(f) > 0),
    strides=st.lists(st.integers(1, 200), min_size=1, max_size=4).map(tuple),
    hot_frac=_unit,
    burst_length=st.integers(1, 64),
    span=st.integers(1 << 13, 1 << 34),
    writable_fraction=_unit,
    write_prob=_unit,
    reuse_recency=_open_unit,
    instr_per_access=st.floats(1.0, 8.0),
    n=st.integers(1, 3000),
    first=st.integers(1, 4000),
    seed=st.integers(0, 2**32 - 1),
)
def test_random_profiles(
    new_block_rate, fracs, strides, hot_frac, burst_length, span, writable_fraction, write_prob,
    reuse_recency, instr_per_access, n, first, seed,
):
    profile = BenchmarkProfile(
        name="random", new_block_rate=new_block_rate, seq_frac=fracs[0], stride_frac=fracs[1],
        rand_frac=fracs[2], strides=strides, hot_frac=hot_frac, burst_length=burst_length,
        span=span, writable_fraction=writable_fraction, write_prob=write_prob,
        reuse_recency=reuse_recency, instr_per_access=instr_per_access,
    )
    assert_matches_oracle(profile, n, seed, first)
