"""Differential suite: the burst layout is decoded from raw words, byte-identically.

``workloads._layout_new_blocks`` reads the words its burst loop would
consume with one ``random_raw`` call, decodes every burst from them
(``_Bursts.decode``) and leaves each burst it cannot read exactly to
numpy's own scalar draws.  The per-burst loop it replaced is kept here
verbatim as the oracle, with the ``_scalar_draws`` it called (pinned
against numpy in ``tests/sim/test_trace_fast.py::TestRawDraws``).  After
every call the blocks, the whole generator state and the draws that
follow must equal the oracle's.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import replace
from functools import partial
from typing import Callable

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.traces import workloads
from repro.traces.workloads import (
    SPEC2000_PROFILES,
    BenchmarkProfile,
    _exponentials,
    _layout_new_blocks,
    _pcg64_state_before,
)


def _scalar_draws(rng: np.random.Generator) -> tuple[Callable[[], float], Callable[[int], int]]:
    """``(random, below)``: ``rng.random()`` and ``int(rng.integers(0, n))`` from raw bits.

    Both read the bit generator through its ctypes interface, a quarter
    of the cost of a scalar numpy call for ``integers``.  ``random`` is
    the generator's ``next_double``, which ``rng.random()`` returns as
    is.  ``below(n)`` is numpy's Lemire draw for ``2 <= n < 2**32``: one
    ``next_uint32`` scaled by ``n``, redrawn while the low word is below
    ``(2**32 - n) % n``; the 32-bit carry lives in the bit generator's
    state, so raw and numpy draws interleave exactly.  ``n == 1`` draws
    nothing, and ``n >= 2**32`` defers to ``rng.integers``.  The caller
    must own ``rng``: these calls skip numpy's lock.  Pinned in
    tests/sim/test_trace_fast.py.
    """
    bits = rng.bit_generator.ctypes
    next_uint32, state = bits.next_uint32, bits.state

    def below(n: int) -> int:
        if n >= 1 << 32:
            return int(rng.integers(0, n))
        if n == 1:
            return 0
        m = next_uint32(state) * n
        if (m & 0xFFFFFFFF) < n:
            threshold = ((1 << 32) - n) % n
            while (m & 0xFFFFFFFF) < threshold:
                m = next_uint32(state) * n
        return m >> 32

    return partial(bits.next_double, state), below


def oracle_layout_new_blocks(
    profile: BenchmarkProfile, n_new: int, rng: np.random.Generator, base: int
) -> np.ndarray:
    """Lay out ``n_new`` distinct blocks as a burst sequence.

    Returns the blocks in allocation order. Uniqueness is enforced by
    remapping any repeated address to a fresh random one.
    """
    if n_new == 0:
        return np.empty(0, dtype=np.int64)
    fracs = np.array([profile.seq_frac, profile.stride_frac, profile.rand_frac], dtype=np.float64)
    fracs = fracs / fracs.sum() * (1.0 - profile.hot_frac)
    fracs = np.append(fracs, profile.hot_frac)  # kinds: seq, stride, rand, hot

    # The cdf ``rng.choice(4, p=fracs)`` searches; drawing the kind as
    # ``bisect_right(cdf, rng.random())`` consumes the generator exactly
    # as that call does, and ``strides[rng.integers(0, k)]`` exactly as
    # ``rng.choice(strides)`` (both pinned in tests/sim/test_trace_fast.py).
    # ``random`` and ``below`` make those scalar draws from raw bits.
    cdf = fracs.cumsum()
    cdf /= cdf[-1]
    cdf = cdf.tolist()
    strides = profile.strides
    span = profile.span
    p_length = 1.0 / profile.burst_length
    random, below = _scalar_draws(rng)
    geometric = rng.geometric

    #: the page-aligned hot-set stride (8 KB in 64 B blocks)
    hot_stride = 128
    hot_base = base + span + below(span)
    hot_count = 0

    # Burst i covers starts[i] + steps[i] * arange(lengths[i]).
    starts: list[int] = []
    steps: list[int] = []
    lengths: list[int] = []
    produced = 0
    while produced < n_new:
        kind = bisect_right(cdf, random())
        if kind == 3:  # hot-set singleton: next page-aligned slot
            start, step, length = hot_base + hot_stride * hot_count, 0, 1
            hot_count += 1
        elif kind == 2:  # random singleton
            start, step, length = base + below(span), 0, 1
        else:
            length = min(n_new - produced, 1 + int(geometric(p_length)))
            start = base + below(span)
            step = 1 if kind == 0 else strides[below(len(strides))]
        starts.append(start)
        steps.append(step)
        lengths.append(length)
        produced += length
    reps = np.array(lengths, dtype=np.int64)
    within = np.arange(n_new, dtype=np.int64) - np.repeat(np.cumsum(reps) - reps, reps)
    out = (
        np.repeat(np.array(starts, dtype=np.int64), reps)
        + np.repeat(np.array(steps, dtype=np.int64), reps) * within
    )

    # Enforce distinctness: collide-and-retry for the (rare) duplicates.
    seen, first_idx = np.unique(out, return_index=True)
    if len(seen) < n_new:
        dup_mask = np.ones(n_new, dtype=bool)
        dup_mask[first_idx] = False
        n_dup = n_new - len(seen)
        laid = seen.tolist()  # sorted: a membership test is a bisect
        free = span - (bisect_left(laid, base + span) - bisect_left(laid, base))
        if free < n_dup:
            raise ValueError(
                f"span {span} cannot hold {n_new} distinct new blocks: "
                f"{n_dup} duplicates need fresh addresses and {free} are left"
            )
        fresh: dict[int, None] = {}  # insertion-ordered
        while len(fresh) < n_dup:
            candidate = base + below(span)
            at = bisect_left(laid, candidate)
            if (at == len(laid) or laid[at] != candidate) and candidate not in fresh:
                fresh[candidate] = None
        out[dup_mask] = np.fromiter(fresh, dtype=np.int64, count=n_dup)
    return out


def state_of(rng: np.random.Generator) -> dict:
    """``rng.bit_generator.state`` with arrays as lists, comparable with ``==``."""

    def plain(x):
        if isinstance(x, dict):
            return {k: plain(v) for k, v in x.items()}
        return x.tolist() if isinstance(x, np.ndarray) else x

    return plain(rng.bit_generator.state)


def assert_matches_oracle(profile, n_new, make_rng, *, base=0, prime=0):
    """Blocks, generator state and the draws after equal the loop's.

    ``prime`` integer draws first: 1 leaves a buffered 32-bit half, 2 a
    stale ``uinteger`` behind ``has_uint32 == 0``.
    """
    rng, want = make_rng(), make_rng()
    for r in (rng, want):
        for _ in range(prime):
            r.integers(0, 9)
    got = _layout_new_blocks(profile, n_new, rng, base)
    expected = oracle_layout_new_blocks(profile, n_new, want, base)
    assert got.dtype == expected.dtype
    assert np.array_equal(got, expected)
    assert state_of(rng) == state_of(want)
    assert rng.integers(0, 9) == want.integers(0, 9)
    assert rng.random() == want.random()
    assert rng.standard_exponential() == want.standard_exponential()
    assert state_of(rng) == state_of(want)


def pcg64(seed) -> Callable[[], np.random.Generator]:
    return lambda: np.random.default_rng(seed)


@pytest.fixture
def numpy_bursts(monkeypatch):
    """Counts the bursts left to numpy's scalar draws."""
    calls = []
    real = workloads._Bursts.draw

    def draw(self, rng):
        calls.append(1)
        return real(self, rng)

    monkeypatch.setattr(workloads._Bursts, "draw", draw)
    return calls


#: the SPECJBB2005 warehouse profile ``specjbb_like`` builds (write_fraction 0.3)
WAREHOUSE = BenchmarkProfile(
    name="specjbb-warehouse", new_block_rate=0.08, seq_frac=1.2, stride_frac=0.8, rand_frac=2.0,
    hot_frac=0.0, burst_length=8, span=1 << 22, writable_fraction=0.6, write_prob=0.3 / 0.6,
    reuse_recency=0.04, instr_per_access=2.8,
)

#: each profile at its normal length: fig3's traces, fig2a's threads
NORMAL = {**{name: (p, 250_000) for name, p in SPEC2000_PROFILES.items()},
          WAREHOUSE.name: (WAREHOUSE, 100_000)}


@pytest.mark.parametrize("name", sorted(NORMAL))
def test_profiles_at_normal_length(name, numpy_bursts):
    profile, n = NORMAL[name]
    for seed in (0, 1, 2):
        for trace in range(8):
            ss = [seed, trace]
            # the layout's entry in synthesis: after the new-block flags
            is_new = np.random.default_rng(ss).random(n) < profile.new_block_rate
            n_new = int(np.count_nonzero(is_new[1:])) + 1

            def make_rng(ss=ss):
                rng = np.random.default_rng(ss)
                rng.random(n)
                return rng

            assert_matches_oracle(profile, n_new, make_rng, base=seed << 30)
    # one raw read decodes a whole normal-length layout
    assert len(numpy_bursts) < 3 * 8


@pytest.mark.parametrize("prime", [1, 2])
@pytest.mark.parametrize("name", ["bzip2", "mcf", "twolf"])
def test_entry_with_a_buffered_or_stale_half(name, prime):
    for seed in range(6):
        assert_matches_oracle(SPEC2000_PROFILES[name], 3000, pcg64(seed), prime=prime)


VARIANTS = {
    # numpy's geometric search: one double per length
    "burst-1": dict(burst_length=1),
    "burst-2": dict(burst_length=2),
    "burst-3": dict(burst_length=3),
    "burst-2.5": dict(burst_length=2.5),
    "no-hot": dict(hot_frac=0.0),
    "all-hot": dict(hot_frac=1.0),
    "one-stride": dict(strides=(5,)),
    "strides-only": dict(seq_frac=0, rand_frac=0, hot_frac=0, strides=(3, 5, 7, 11, 13)),
    "random-only": dict(seq_frac=0, stride_frac=0, hot_frac=0),
    "odd-span": dict(span=3_000_017),
    "tight-span": dict(span=9_001, seq_frac=0, stride_frac=0),
    "top-32-bit-span": dict(span=2**32 - 1),
    "long-bursts": dict(burst_length=10**6),
}


@pytest.mark.parametrize("prime", [0, 1, 2])
@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_profile_variants(variant, prime):
    profile = replace(SPEC2000_PROFILES["gcc"], **VARIANTS[variant])
    for seed in range(4):
        for n_new in (1, 2, 57, 4000):
            assert_matches_oracle(profile, n_new, pcg64(seed), base=seed << 30, prime=prime)


def test_lemire_rejections_are_left_to_numpy(numpy_bursts):
    # (2**32 - n) % n is 2**31 - 1 here: about half of all start draws reject
    profile = replace(SPEC2000_PROFILES["mcf"], span=2**31 + 1)
    for seed in range(3):
        assert_matches_oracle(profile, 2000, pcg64(seed), prime=seed)
    assert len(numpy_bursts) > 100


@pytest.mark.parametrize("span", [2**32, 2**33, 2**40 + 3])
def test_wide_spans_draw_with_numpy(span, numpy_bursts):
    profile = replace(SPEC2000_PROFILES["twolf"], span=span)
    for seed in range(3):
        assert_matches_oracle(profile, 1500, pcg64(seed), prime=seed)
    assert numpy_bursts


@pytest.mark.parametrize("bits", [np.random.Philox, np.random.SFC64, np.random.PCG64DXSM])
def test_other_bit_generators_draw_with_numpy(bits, numpy_bursts):
    for seed in range(3):
        make_rng = lambda seed=seed: np.random.Generator(bits(seed))  # noqa: E731
        assert_matches_oracle(SPEC2000_PROFILES["vpr"], 2000, make_rng, prime=seed)
    assert numpy_bursts


def test_short_reads_resume(monkeypatch, numpy_bursts):
    """A read that runs out of words commits what it decoded and reads again."""
    real = workloads._Bursts.__init__

    def init(self, *args):
        real(self, *args)
        self.words_per_block /= 20

    monkeypatch.setattr(workloads._Bursts, "__init__", init)
    for seed in range(3):
        assert_matches_oracle(SPEC2000_PROFILES["gap"], 5000, pcg64(seed), prime=seed)
    assert len(numpy_bursts) > 10


def test_near_ties_are_left_to_numpy(monkeypatch, numpy_bursts):
    """Every slow-path accept test counts as a near tie and is numpy's to decide."""
    monkeypatch.setattr(workloads, "_TIE", 2.0)
    for seed in range(3):
        assert_matches_oracle(SPEC2000_PROFILES["parser"], 5000, pcg64(seed), prime=seed)
    assert len(numpy_bursts) > 5


def test_ke_bands_are_left_to_numpy(monkeypatch, numpy_bursts):
    """A draw whose ``ri`` falls in a ``ke`` band is numpy's to decide."""
    we, ke_lo, ke_hi, fe = workloads._ziggurat()
    wide = (we, ke_lo - (ke_lo >> np.uint64(6)), ke_hi, fe)
    monkeypatch.setattr(workloads, "_ziggurat", lambda: wide)
    for seed in range(3):
        assert_matches_oracle(SPEC2000_PROFILES["crafty"], 5000, pcg64(seed), prime=seed)
    assert len(numpy_bursts) > 5


def state_with_word(word: int, ahead: int, hi: int) -> dict:
    """A PCG64 state whose ``ahead``-th next output (from 0) is ``word``.

    ``hi`` (below ``2**58``, so no rotation) picks one of the many.
    """
    state = hi << 64 | (hi ^ word)
    for _ in range(ahead + 1):
        state = (state - 1) * workloads._PCG64_MULT_INVERSE % (1 << 128)
    return {"bit_generator": "PCG64", "state": {"state": state, "inc": 1},
            "has_uint32": 1, "uinteger": 0x9E3779B9}


def generator_at(state: dict) -> Callable[[], np.random.Generator]:
    def make_rng():
        bits = np.random.PCG64()
        bits.state = state
        return np.random.Generator(bits)

    return make_rng


def first_length_word_at(word: int) -> list[dict]:
    """States whose first bzip2 burst is sequential and draws its length from ``word``.

    With a buffered half the hot-set base draws no word, so word 0 is the
    first burst's kind and word 1 starts its exponential.
    """
    states = []
    for hi in range(1, 40):
        state = state_with_word(word, 1, hi)
        bits = np.random.PCG64()
        bits.state = state
        words = bits.random_raw(2)
        assert words[1] == word
        if (int(words[0]) >> 11) * 2.0**-53 < 0.85:  # bzip2's cdf[0] is 0.90
            states.append(state)
    assert states
    return states


def test_forced_slow_path_recursion():
    """The first burst's length draw takes the slow path, rejects and draws again.

    The top ``ri`` of a layer sits on the layer's edge, whose accept test
    fails for all but the smallest ``u``.
    """
    word = ((1 << 53) - 1) << 11 | 77 << 3
    forced = 0
    for state in first_length_word_at(word):
        bits = np.random.PCG64()
        bits.state = state
        if _exponentials(bits.random_raw(8))[1][1] > 2:
            forced += 1
            assert_matches_oracle(SPEC2000_PROFILES["bzip2"], 3000, generator_at(state))
    assert forced >= 10


def takes_one_word(word: int) -> bool:
    """Whether numpy's ``standard_exponential`` from ``word`` returns without the slow path."""
    bits = np.random.PCG64()
    bits.state = _pcg64_state_before(word)
    np.random.Generator(bits).standard_exponential()
    after = bits.state["state"]["state"]
    bits.state = _pcg64_state_before(word)
    bits.advance(1)
    return bits.state["state"]["state"] == after


def numpy_ke(idx: int) -> int:
    """numpy's ``ke[idx]``, the least ``ri`` that takes the slow path, searched near the band."""
    _, ke_lo, ke_hi, _ = workloads._ziggurat()
    lo, hi = int(ke_lo[idx]) - 64, int(ke_hi[idx]) + 64
    assert takes_one_word(lo << 11 | idx << 3) and not takes_one_word(hi << 11 | idx << 3)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if takes_one_word(mid << 11 | idx << 3) else (lo, mid)
    return hi


@pytest.mark.parametrize("idx", [0, 2, 77, 200, 255])
def test_length_words_on_a_ke_edge(idx):
    """A length word just below numpy's ``ke`` and one on it: the fast path, then the slow."""
    ke = numpy_ke(idx)
    assert takes_one_word((ke - 1) << 11 | idx << 3)
    for ri in (ke - 1, ke):
        for state in first_length_word_at(ri << 11 | idx << 3)[:3]:
            assert_matches_oracle(SPEC2000_PROFILES["bzip2"], 3000, generator_at(state))


_unit = st.floats(0.0, 1.0)


@settings(max_examples=80, deadline=None)
@given(
    fracs=st.tuples(_unit, _unit, _unit).filter(lambda f: sum(f) > 0),
    strides=st.lists(st.integers(1, 200), min_size=1, max_size=4).map(tuple),
    hot_frac=_unit,
    burst_length=st.one_of(st.integers(1, 64), st.floats(1.0, 8.0)),
    span=st.one_of(
        st.integers(1 << 13, 1 << 34),
        st.sampled_from([1 << 13, 1 << 20, 3_000_017, 2**31 + 1, 2**32 - 1, 2**32]),
    ),
    n_new=st.integers(1, 3000),
    seed=st.integers(0, 2**32 - 1),
    prime=st.integers(0, 2),
)
def test_random_profiles(fracs, strides, hot_frac, burst_length, span, n_new, seed, prime):
    profile = BenchmarkProfile(
        name="random", seq_frac=fracs[0], stride_frac=fracs[1], rand_frac=fracs[2],
        strides=strides, hot_frac=hot_frac, burst_length=burst_length, span=span,
    )
    assert_matches_oracle(profile, n_new, pcg64(seed), base=seed, prime=prime)
