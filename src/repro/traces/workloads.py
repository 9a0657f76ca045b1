"""Benchmark-profile trace synthesis.

This module is the documented substitution (DESIGN.md §3) for the paper's
proprietary trace inputs:

* :data:`SPEC2000_PROFILES` — twelve profiles named after the SPEC2000int
  benchmarks of Figure 3 (bzip2 … vpr).
* :func:`specjbb_like` — a multithreaded workload standing in for the
  4-warehouse SPECJBB2005 traces of §2.2.

The generator models a program's memory behaviour as an **allocation +
reuse process**, the structure that actually determines both of the
paper's measurements:

* Each access either touches a *new* distinct block (with probability
  ``new_block_rate`` — the footprint growth rate; SPECint's ≈ 23 K
  instructions for ≈ 185 blocks implies strong reuse) or *revisits* an
  already-touched block with recency bias (temporal locality).
* New blocks are laid out in bursts: sequential runs (array scans),
  strided runs (fields/columns — power-of-two strides alias in cache
  sets and in ownership tables, the §2.3 overflow cause and the §4
  consecutive-entry structure), or random placements (pointer chasing).
* A fixed fraction of blocks is *writable* (heap objects vs read-mostly
  data); accesses to writable blocks store with some probability. This
  reproduces Figure 3(a)'s footprint split — about one-third written,
  two-thirds read-only — without making every hot block eventually dirty.

Per-benchmark absolute numbers are not claims; the fleet is parameterized
to land in the regimes the paper reports while preserving per-benchmark
variability.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator, Mapping

import numpy as np

from repro.traces.events import AccessTrace, ThreadedTrace
from repro.util.rng import stream_rng

__all__ = ["BenchmarkProfile", "SPEC2000_PROFILES", "specjbb_like", "synthesize_trace"]


@dataclass(frozen=True)
class BenchmarkProfile:
    """Parameters of one benchmark-like allocation + reuse process.

    Attributes
    ----------
    name:
        Benchmark label (matches the Figure 3 x-axis abbreviations).
    new_block_rate:
        Probability an access touches a never-before-seen block; the
        footprint growth rate (distinct blocks ≈ rate × accesses).
    seq_frac, stride_frac, rand_frac:
        Relative burst-type mix for laying out new blocks (normalized
        internally).
    strides:
        Stride choices (in blocks) for strided bursts; defaults spread
        across cache sets while still producing the structured
        ownership-table index patterns §4 discusses.
    hot_frac:
        Per-*burst* probability of allocating one block into a hot set
        (successive blocks at an 8 KB / 128-block stride — page/row-
        aligned layout landing repeatedly in one set of a 128-set L1).
        A second-order skew knob: the dominant §2.3 overflow pressure is
        the generalized (k = ways+1) birthday effect of the random and
        strided placements themselves (see
        :mod:`repro.core.generalized`), with sequential runs striping
        sets evenly in the other direction.
    burst_length:
        Mean burst length for sequential and strided layout bursts.
    span:
        Address span (blocks) for random placements.
    writable_fraction:
        Fraction of blocks eligible to be written.
    write_prob:
        Store probability for an access that lands on a writable block.
    reuse_recency:
        Geometric parameter in (0, 1] biasing revisits toward recently
        allocated blocks; smaller = flatter (longer reuse distances).
    instr_per_access:
        Mean dynamic instructions between memory accesses (geometric
        gaps); SPECint issues roughly one access per 2–4 instructions.
    """

    name: str
    new_block_rate: float = 0.025
    seq_frac: float = 1.0
    stride_frac: float = 1.0
    rand_frac: float = 1.0
    strides: tuple[int, ...] = (7, 33, 97)
    hot_frac: float = 0.03
    burst_length: int = 12
    span: int = 1 << 20
    writable_fraction: float = 0.35
    write_prob: float = 0.55
    reuse_recency: float = 0.02
    instr_per_access: float = 3.0

    def __post_init__(self) -> None:
        if not 0.0 < self.new_block_rate <= 1.0:
            raise ValueError(f"new_block_rate must be in (0, 1], got {self.new_block_rate}")
        fracs = (self.seq_frac, self.stride_frac, self.rand_frac)
        if any(f < 0 for f in fracs) or sum(fracs) <= 0:
            raise ValueError(f"burst fractions must be non-negative, not all zero: {fracs}")
        if not self.strides or any(s <= 0 for s in self.strides):
            raise ValueError(f"strides must be positive, got {self.strides}")
        if not 0.0 <= self.hot_frac <= 1.0:
            raise ValueError(f"hot_frac must be in [0, 1], got {self.hot_frac}")
        if self.burst_length <= 0:
            raise ValueError(f"burst_length must be positive, got {self.burst_length}")
        if self.span <= 0:
            raise ValueError(f"span must be positive, got {self.span}")
        if not 0.0 <= self.writable_fraction <= 1.0:
            raise ValueError(f"writable_fraction must be in [0,1], got {self.writable_fraction}")
        if not 0.0 <= self.write_prob <= 1.0:
            raise ValueError(f"write_prob must be in [0,1], got {self.write_prob}")
        if not 0.0 < self.reuse_recency <= 1.0:
            raise ValueError(f"reuse_recency must be in (0,1], got {self.reuse_recency}")
        if self.instr_per_access < 1.0:
            raise ValueError(f"instr_per_access must be >= 1, got {self.instr_per_access}")


#: the smallest double above INT64_MAX, where numpy clamps an inverted
#: geometric draw
_INT64_LIMIT = 9.223372036854776e18
_INT64_MAX = np.iinfo(np.int64).max


def _invert(z: np.ndarray, scale: float, out: np.ndarray) -> None:
    """``out[:] = ceil(z / scale)``: numpy's geometric inversion of exponential draws ``z``.

    ``scale`` is ``-log1p(-p)``.  ``z`` is overwritten with the quotient.
    Quotients from :data:`_INT64_LIMIT` up clamp to INT64_MAX, as numpy's
    do; only then is there a mask pass.
    """
    np.divide(z, scale, out=z)
    np.ceil(z, out=z)
    if len(z) and z.max() >= _INT64_LIMIT:
        big = z >= _INT64_LIMIT
        z[big] = 0.0
        out[...] = z
        out[big] = _INT64_MAX
    else:
        out[...] = z


def _geometric(rng: np.random.Generator, p: float, size: int) -> np.ndarray:
    """``rng.geometric(p, size=size)``: the same values and the same generator state.

    Below ``p = 1/3`` numpy draws each value as ``ceil(-E / log1p(-p))``
    from one ziggurat ``standard_exponential`` draw ``E``, clamped to
    INT64_MAX from :data:`_INT64_LIMIT` up; one vector exponential draw
    inverted in place (:func:`_invert`) costs half as much.  From ``1/3``
    up numpy searches, and so does this (pinned in
    tests/sim/test_trace_fast.py).
    """
    if p >= 1 / 3:
        return rng.geometric(p, size=size)
    out = np.empty(size, dtype=np.int64)
    _invert(rng.standard_exponential(size), -math.log1p(-p), out)
    return out


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


def _layout_new_blocks(
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


@dataclass(eq=False)
class _Layout:
    """Stage 1's draws, and the allocation targets worked out from them so far.

    ``new_blocks`` and ``writable`` are the laid-out blocks and their
    writable classes in allocation order.  Per access, ``is_new`` flags a
    new block and ``offsets`` holds the reuse draw: a
    ``standard_exponential`` value inverted with ``scale``
    (``-log1p(-p)``) or, when ``scale`` is ``None``, a geometric integer.
    ``new_at`` lists the new accesses' indices.  ``alloc_of[:done]`` holds
    each access's allocation index, and ``allocated`` counts the new
    accesses among ``[0, done)``.  Working out ``[done, hi)`` overwrites
    that part of ``offsets``.
    """

    new_blocks: np.ndarray
    writable: np.ndarray
    is_new: np.ndarray
    new_at: np.ndarray
    offsets: np.ndarray
    scale: float | None
    alloc_of: np.ndarray
    done: int = 0
    allocated: int = 0

    def extend(self, hi: int, fold: np.random.Generator | None = None) -> None:
        """Work out ``alloc_of[done:hi]``, folding too-old targets with ``fold``'s doubles.

        A reuse access touches ``allocated[i] - g`` (allocations up to
        access ``i``, less its geometric offset ``g >= 1``; ``g = 1`` is
        the newest), a new access its own allocation.  A target below 0
        is folded back uniformly over history with one ``fold.random()``
        double, drawn for new accesses too (the count is a draw count);
        without ``fold`` no target in the range may be negative.
        """
        lo = self.done
        if hi <= lo:
            return
        out = self.alloc_of[lo:hi]
        if self.scale is None:
            np.copyto(out, self.offsets[lo:hi])
        else:
            _invert(self.offsets[lo:hi], self.scale, out)
        allocated = self.is_new[lo:hi].astype(np.int64)
        allocated[0] += self.allocated
        np.cumsum(allocated, out=allocated)  # in place: 3x faster than from bool
        np.subtract(allocated, out, out=out)
        if fold is not None:
            neg = np.flatnonzero(out < 0)
            out[neg] = (fold.random(len(neg)) * allocated[neg]).astype(np.int64)
        a0, a1 = self.allocated, int(allocated[-1])
        # the k-th new access is allocation k
        self.alloc_of[self.new_at[a0:a1]] = np.arange(a0, a1)
        self.done, self.allocated = hi, a1


def _synthesize_layout(
    profile: BenchmarkProfile, n_accesses: int, rng: np.random.Generator, base: int
) -> _Layout:
    """Stage 1 of :func:`synthesize_trace`: every draw whose count depends on ``n``.

    The draws are full length: new-block flags, the layout, writable
    classes, reuse offsets and the too-old fold fix the generator position
    of everything after them, and the layout's duplicate fix checks each
    fresh address against every laid-out block.  The arithmetic on the
    reuse offsets is not: it runs here only as far as the fold needs it,
    and :func:`_gather_layout` does the rest for the prefix it fills.

    The fold's count is exact because no target from access ``m`` on can
    be negative.  The inversion is monotone, so every offset is at most
    ``G``, the inverted largest draw; the allocation count never falls,
    and from the ``G``-th new access (index ``m``) on it is at least
    ``G``.  When ``G`` exceeds the new-access count (or clamps), ``m`` is
    the whole trace.
    """
    doubles = rng.random(n_accesses)
    is_new = doubles < profile.new_block_rate
    is_new[0] = True  # the first access necessarily touches a new block
    n_new = int(np.count_nonzero(is_new))

    new_blocks = _layout_new_blocks(profile, n_new, rng, base)
    writable = rng.random(n_new) < profile.writable_fraction

    p = profile.reuse_recency
    if p >= 1 / 3:  # numpy searches: the draws are the offsets
        offsets, scale = rng.geometric(p, size=n_accesses), None
        top = float(offsets.max())
    else:  # the exponentials overwrite the flag doubles, in pages already touched
        offsets, scale = rng.standard_exponential(out=doubles), -math.log1p(-p)
        top = offsets.max() / scale
    new_at = np.flatnonzero(is_new)
    m = n_accesses if top > n_new else int(new_at[max(1, math.ceil(top)) - 1])
    layout = _Layout(
        new_blocks, writable, is_new, new_at, offsets, scale, np.empty(n_accesses, dtype=np.int64)
    )
    layout.extend(m, rng)
    return layout


def _gather_layout(
    layout: _Layout,
    lo: int,
    hi: int,
    blocks: np.ndarray,
    writable_of: np.ndarray,
) -> None:
    """Fill ``blocks[lo:hi]`` and ``writable_of[lo:hi]`` from a stage-1 layout."""
    layout.extend(hi)
    alloc_of = layout.alloc_of[lo:hi]
    # Every index is in range, so ``clip`` changes nothing; unlike the
    # default ``raise`` it writes into ``out`` without a bounce buffer.
    np.take(layout.new_blocks, alloc_of, out=blocks[lo:hi], mode="clip")
    np.take(layout.writable, alloc_of, out=writable_of[lo:hi], mode="clip")


def _draw_tail(
    profile: BenchmarkProfile,
    writable_of: np.ndarray,
    flags_rng: np.random.Generator,
    gaps_rng: np.random.Generator,
    lo: int,
    hi: int,
    is_write: np.ndarray,
    instr: np.ndarray,
) -> None:
    """Stage 2: fill ``is_write[lo:hi]`` and ``instr[lo:hi]`` in place.

    One store-flag double per access from ``flags_rng``, then one
    geometric instruction gap per access from ``gaps_rng``.  Each value
    depends only on its own draw, so a tail drawn in pieces equals one
    drawn whole.
    """
    is_write[lo:hi] = writable_of[lo:hi] & (flags_rng.random(hi - lo) < profile.write_prob)
    p = min(1.0, 1.0 / profile.instr_per_access)
    np.cumsum(_geometric(gaps_rng, p, hi - lo), out=instr[lo:hi])
    if lo:
        instr[lo:hi] += instr[lo - 1]


def synthesize_trace(
    profile: BenchmarkProfile,
    n_accesses: int,
    rng: np.random.Generator,
    *,
    base: int = 0,
) -> AccessTrace:
    """Generate one trace of ``n_accesses`` accesses from ``profile``.

    Allocation positions, recency-biased reuse targets, writable classes
    and instruction gaps are drawn as arrays; the new-block layout is a
    Python loop over bursts, about one per ``burst_length`` new blocks
    (the Figure 3 sweep replays hundreds of these traces).
    """
    if n_accesses < 0:
        raise ValueError(f"n_accesses must be non-negative, got {n_accesses}")
    if n_accesses == 0:
        return AccessTrace(np.empty(0, dtype=np.int64), np.empty(0, dtype=bool))
    layout = _synthesize_layout(profile, n_accesses, rng, base)
    blocks = np.empty(n_accesses, dtype=np.int64)
    writable_of = np.empty(n_accesses, dtype=bool)
    _gather_layout(layout, 0, n_accesses, blocks, writable_of)
    del layout  # the tail's draws reuse its pages
    is_write = np.empty(n_accesses, dtype=bool)
    instr = np.empty(n_accesses, dtype=np.int64)
    _draw_tail(profile, writable_of, rng, rng, 0, n_accesses, is_write, instr)
    return AccessTrace(blocks, is_write, instr)


def _trace_prefixes(
    profile: BenchmarkProfile,
    n_accesses: int,
    rng: np.random.Generator,
    first: int,
    *,
    base: int = 0,
) -> Iterator[AccessTrace]:
    """Yield prefixes ``[0, hi)`` of ``synthesize_trace(profile, n_accesses, rng)``.

    ``hi`` starts at ``first`` (at least 1), grows ×4 and stops at
    ``n_accesses``; a consumer that stops early never pays for the rest of
    the per-access work.  Stage 1's draws are full length (their counts
    fix the generator position), but each prefix works out its reuse
    targets, blocks and writable classes for ``[lo, hi)`` only.  Store
    flags come from ``rng`` as in :func:`synthesize_trace`; the gaps come
    from a clone moved past all ``n_accesses`` store-flag doubles with
    ``PCG64.advance`` (each ``random()`` double is exactly one 64-bit
    output), where the full draw would start them.
    """
    if first < 1:
        raise ValueError(f"first must be at least 1, got {first}")
    if n_accesses == 0:
        yield AccessTrace(np.empty(0, dtype=np.int64), np.empty(0, dtype=bool))
        return
    if not isinstance(rng.bit_generator, np.random.PCG64):
        raise TypeError(f"prefix synthesis needs a PCG64 generator, got {rng.bit_generator!r}")
    layout = _synthesize_layout(profile, n_accesses, rng, base)
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
        _gather_layout(layout, lo, hi, blocks, writable_of)
        _draw_tail(profile, writable_of, rng, gaps_rng, lo, hi, is_write, instr)
        yield AccessTrace(blocks[:hi], is_write[:hi], instr[:hi])
        if hi == n_accesses:
            return
        lo, hi = hi, min(n_accesses, hi * 4)


def _profiles() -> Mapping[str, BenchmarkProfile]:
    """The twelve Figure 3 benchmark stand-ins.

    Footprint growth, layout structure and density vary per benchmark so
    the fleet spans the paper's reported ranges: streaming codecs
    (bzip2/gzip) scan sequentially with modest reuse; pointer codes
    (mcf/parser/twolf) allocate faster with random placement; cache-
    friendly codes (crafty/eon) reuse heavily and overflow late.
    """
    return {
        "bzip2": BenchmarkProfile(
            name="bzip2", new_block_rate=0.030, seq_frac=8, stride_frac=0.6, rand_frac=0.18,
            hot_frac=0.0084, burst_length=32, writable_fraction=0.40, reuse_recency=0.03,
            instr_per_access=2.6,
        ),
        "crafty": BenchmarkProfile(
            name="crafty", new_block_rate=0.012, seq_frac=2, stride_frac=1.0, rand_frac=0.45,
            hot_frac=0.0168, burst_length=8, writable_fraction=0.30, reuse_recency=0.012,
            instr_per_access=3.2,
        ),
        "eon": BenchmarkProfile(
            name="eon", new_block_rate=0.010, seq_frac=3, stride_frac=0.8, rand_frac=0.3,
            hot_frac=0.0132, burst_length=10, writable_fraction=0.45, reuse_recency=0.015,
            instr_per_access=2.4,
        ),
        "gap": BenchmarkProfile(
            name="gap", new_block_rate=0.022, seq_frac=4, stride_frac=1.0, rand_frac=0.36,
            hot_frac=0.0116, burst_length=16, writable_fraction=0.35, reuse_recency=0.02,
            instr_per_access=2.8,
        ),
        "gcc": BenchmarkProfile(
            name="gcc", new_block_rate=0.028, seq_frac=3, stride_frac=1.5, rand_frac=0.6,
            hot_frac=0.0096, burst_length=10, writable_fraction=0.38, reuse_recency=0.025,
            instr_per_access=3.0,
        ),
        "gzip": BenchmarkProfile(
            name="gzip", new_block_rate=0.026, seq_frac=8, stride_frac=0.4, rand_frac=0.12,
            hot_frac=0.0048, burst_length=48, writable_fraction=0.40, reuse_recency=0.03,
            instr_per_access=2.5,
        ),
        "mcf": BenchmarkProfile(
            name="mcf", new_block_rate=0.045, seq_frac=1, stride_frac=1.0, rand_frac=0.9,
            hot_frac=0.0152, burst_length=6, writable_fraction=0.25, reuse_recency=0.05,
            instr_per_access=2.2,
        ),
        "parser": BenchmarkProfile(
            name="parser", new_block_rate=0.020, seq_frac=2, stride_frac=0.8, rand_frac=0.6,
            hot_frac=0.0144, burst_length=8, writable_fraction=0.32, reuse_recency=0.02,
            instr_per_access=2.9,
        ),
        "perlbmk": BenchmarkProfile(
            name="perlbmk", new_block_rate=0.018, seq_frac=2.4, stride_frac=1.0, rand_frac=0.54,
            hot_frac=0.0124, burst_length=12, writable_fraction=0.40, reuse_recency=0.018,
            instr_per_access=2.7,
        ),
        "twolf": BenchmarkProfile(
            name="twolf", new_block_rate=0.016, seq_frac=1.2, stride_frac=1.5, rand_frac=0.6,
            hot_frac=0.018, burst_length=8, writable_fraction=0.28, reuse_recency=0.015,
            instr_per_access=2.3,
        ),
        "vortex": BenchmarkProfile(
            name="vortex", new_block_rate=0.024, seq_frac=2.4, stride_frac=1.2, rand_frac=0.48,
            hot_frac=0.0096, burst_length=14, writable_fraction=0.42, reuse_recency=0.022,
            instr_per_access=2.8,
        ),
        "vpr": BenchmarkProfile(
            name="vpr", new_block_rate=0.018, seq_frac=1.6, stride_frac=1.8, rand_frac=0.42,
            hot_frac=0.0152, burst_length=10, writable_fraction=0.33, reuse_recency=0.018,
            instr_per_access=2.6,
        ),
    }


#: The Figure 3 benchmark fleet, keyed by name.
SPEC2000_PROFILES: Mapping[str, BenchmarkProfile] = _profiles()


def specjbb_like(
    n_threads: int,
    accesses_per_thread: int,
    *,
    seed: int = 0,
    shared_fraction: float = 0.05,
    shared_blocks_span: int = 512,
    write_fraction: float = 0.3,
    layout_correlation: float = 0.0,
) -> ThreadedTrace:
    """A SPECJBB2005-like multithreaded trace (the §2.2 input substitute).

    Each thread ("warehouse") runs its own allocation + reuse process
    over a private heap — object churn with recency-biased revisits and
    structured layout — and a ``shared_fraction`` of its accesses land in
    a shared region (allocator metadata, global statistics), producing
    the true conflicts the paper filters out before measuring aliasing.

    Parameters
    ----------
    n_threads:
        Number of concurrent streams (the paper uses 4 warehouses and
        evaluates C ∈ [2, 4] over them).
    accesses_per_thread:
        Length of each per-thread stream.
    seed:
        Master seed; per-thread streams are derived deterministically.
    shared_fraction:
        Fraction of each thread's accesses redirected to the shared
        region.
    shared_blocks_span:
        Size of the shared region in blocks.
    write_fraction:
        Overall store probability (per access to a writable block).
    layout_correlation:
        Fraction of each thread's accesses that follow a *shared layout
        template*: the same within-region block offset as every other
        thread (at the thread's own power-of-two-aligned base). Threads
        running identical warehouse code allocate identically-shaped
        heaps, and under a mask hash such offset coincidences collide at
        the same ownership-table entry for *any* table size up to the
        base alignment — the mechanism behind Figure 2(b)'s large-table
        asymptote (modelled by
        :class:`repro.core.refinement.StructuralAliasModel`). 0 disables
        the effect.
    """
    if n_threads <= 0:
        raise ValueError(f"n_threads must be positive, got {n_threads}")
    if accesses_per_thread < 0:
        raise ValueError(f"accesses_per_thread must be non-negative, got {accesses_per_thread}")
    if not 0.0 <= shared_fraction <= 1.0:
        raise ValueError(f"shared_fraction must be in [0, 1], got {shared_fraction}")
    if not 0.0 <= layout_correlation <= 1.0:
        raise ValueError(f"layout_correlation must be in [0, 1], got {layout_correlation}")

    # A warehouse allocates object blocks relatively fast (transaction
    # churn) but with strong recency reuse and moderate structure.
    warehouse = BenchmarkProfile(
        name="specjbb-warehouse",
        new_block_rate=0.08,
        seq_frac=1.2,
        stride_frac=0.8,
        rand_frac=2.0,
        hot_frac=0.0,
        burst_length=8,
        span=1 << 22,
        writable_fraction=0.6,
        write_prob=write_fraction / 0.6 if write_fraction <= 0.6 else 1.0,
        reuse_recency=0.04,
        instr_per_access=2.8,
    )

    shared_base = 1 << 40  # far above any private region
    region_bits = 28  # per-thread heap bases are 2^28-block aligned
    threads: list[AccessTrace] = []
    for tid in range(n_threads):
        rng = stream_rng(seed, "specjbb-thread", tid=tid)
        private = synthesize_trace(warehouse, accesses_per_thread, rng, base=tid << region_bits)
        if layout_correlation > 0.0 and len(private):
            # The shared layout template: every thread draws it with the
            # SAME stream, so template offsets coincide across threads.
            template = synthesize_trace(
                warehouse,
                accesses_per_thread,
                stream_rng(seed, "specjbb-layout-template"),
                base=tid << region_bits,
            )
            follow = rng.random(len(private)) < layout_correlation
            blocks = np.where(follow, template.blocks, private.blocks)
            writes = np.where(follow, template.is_write, private.is_write)
            private = AccessTrace(blocks, writes, private.instr)
        if shared_fraction > 0.0 and len(private):
            n_shared = int(round(shared_fraction * len(private)))
            if n_shared:
                idx = rng.choice(len(private), size=n_shared, replace=False)
                blocks = private.blocks.copy()
                writes = private.is_write.copy()
                # Zipf-hot shared region: a few blocks take most traffic.
                ranks = np.arange(1, shared_blocks_span + 1, dtype=np.float64) ** -1.1
                ranks /= ranks.sum()
                blocks[idx] = shared_base + rng.choice(shared_blocks_span, size=n_shared, p=ranks)
                writes[idx] = rng.random(n_shared) < write_fraction
                private = AccessTrace(blocks, writes, private.instr)
        threads.append(private)
    return ThreadedTrace(threads)
