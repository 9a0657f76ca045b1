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
from bisect import bisect_right
from dataclasses import dataclass
from functools import cache
from typing import Iterator, Mapping

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
        if not self.strides or not all(_is_count(s) for s in self.strides):
            raise ValueError(f"strides must be positive integers, got {self.strides}")
        if not 0.0 <= self.hot_frac <= 1.0:
            raise ValueError(f"hot_frac must be in [0, 1], got {self.hot_frac}")
        if not self.burst_length >= 1:
            raise ValueError(f"burst_length must be at least 1, got {self.burst_length}")
        if not _is_count(self.span):
            raise ValueError(f"span must be a positive integer, got {self.span}")
        if not 0.0 <= self.writable_fraction <= 1.0:
            raise ValueError(f"writable_fraction must be in [0,1], got {self.writable_fraction}")
        if not 0.0 <= self.write_prob <= 1.0:
            raise ValueError(f"write_prob must be in [0,1], got {self.write_prob}")
        if not 0.0 < self.reuse_recency <= 1.0:
            raise ValueError(f"reuse_recency must be in (0,1], got {self.reuse_recency}")
        if self.instr_per_access < 1.0:
            raise ValueError(f"instr_per_access must be >= 1, got {self.instr_per_access}")


def _is_count(value: object) -> bool:
    """Whether ``value`` is a positive integer (a bool is not)."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value > 0


#: the smallest double above INT64_MAX, where numpy clamps an inverted
#: geometric draw
_INT64_LIMIT = 9.223372036854776e18
_INT64_MAX = np.iinfo(np.int64).max


def _invert(z: np.ndarray, scale: float, out: np.ndarray) -> None:
    """``out[:] = ceil(z / scale)``: numpy's geometric inversion of exponential draws ``z``.

    ``scale`` is ``-log1p(-p)``.  ``z`` is overwritten with the quotient;
    ``out`` may be ``z`` itself viewed as int64.
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


#: numpy's ziggurat ``standard_exponential``: where its tail starts, how
#: near a tie a slow-path accept test may come before it is left to numpy,
#: and the half-width of the band around each guessed ``ke`` entry
_ZIGGURAT_R = 7.69711747013104972
_TIE = 1e-12
_KE_BAND = 32
#: the inverse mod 2**128 of PCG64's multiplier 0x2360ED051FC65DA44385DF649FCCF645
#: (its state steps ``s -> s * mult + inc``)
_PCG64_MULT_INVERSE = 0x07DDA22B9397986098ABC8B0716EAC8D


def _pcg64_state_before(word: int) -> dict:
    """A PCG64 state whose next 64-bit output is ``word``.

    PCG64 steps its state, then outputs ``rotr(hi ^ lo, hi >> 58)`` of the
    new one, so a state with ``hi == 0`` outputs ``lo``; one step back
    (``inc`` 1) is the state before it.
    """
    state = (word - 1) * _PCG64_MULT_INVERSE % (1 << 128)
    return {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": 1},
        "has_uint32": 0,
        "uinteger": 0,
    }


@cache
def _ziggurat() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(we, ke_lo, ke_hi, fe)``: numpy's ``standard_exponential`` ziggurat tables.

    numpy splits a word ``w`` into ``idx = (w >> 3) & 0xFF`` and
    ``ri = w >> 11`` and returns ``ri * we[idx]`` when ``ri < ke[idx]``.
    Each ``we[idx]`` is read off numpy with one probe, a state whose next
    word has ``ri = 1`` (``ke[1]`` is 0, and that slow path returns the
    same value).  ``ke`` is guessed from ``x = we * 2**53`` to within a
    few units: ``floor(2**53 * x[i-1] / x[i])``, ``r / x[0]`` for the base
    layer and 0 for the top one; ``[ke_lo, ke_hi)`` is a band around the
    guess that holds numpy's entry, where a draw is left to numpy.
    ``fe[i]`` is ``exp(-x[i])``, and ``fe[0]`` is 1.  Pinned in
    tests/traces/test_exponential_emulation.py.
    """
    bits = np.random.PCG64(0)
    draw = np.random.Generator(bits).standard_exponential
    we = np.empty(256)
    for i in range(256):
        bits.state = _pcg64_state_before(1 << 11 | i << 3)
        we[i] = draw()
    x = (we * 2.0**53).tolist()
    guess = [math.floor(2.0**53 * _ZIGGURAT_R / x[0]), 0]
    guess += [math.floor(2.0**53 * x[i - 1] / x[i]) for i in range(2, 256)]
    ke = np.array(guess, dtype=np.uint64)
    band = np.full(256, _KE_BAND, dtype=np.uint64)
    band[1] = 0  # the top layer is all slow path
    return we, ke - band, ke + band, np.array([1.0] + [math.exp(-v) for v in x[1:]])


def _exponentials(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(values, used)``: numpy's ``standard_exponential`` started at each of ``words``.

    ``used[i]`` counts the words the draw from word ``i`` takes, or is 0
    where it cannot be read exactly: it needs a word past the end, its
    ``ri`` is in a ``ke`` band, or its accept test is within ``_TIE`` of a
    tie (numpy's own ``exp`` may round the other way).  A word with
    ``ri`` below ``ke[idx]`` is its own draw (98.9%).  The rest take the
    slow path with the next word's double ``u``: the base layer returns
    ``r - log1p(-u)``; another layer returns ``ri * we[idx]`` if
    ``(fe[idx-1] - fe[idx]) * u + fe[idx]`` is below ``exp(-x)``, and
    otherwise draws afresh from the word after ``u``.
    """
    we, ke_lo, ke_hi, fe = _ziggurat()
    n = len(words)
    ri = words >> np.uint64(11)
    idx = ((words >> np.uint64(3)) & np.uint64(0xFF)).astype(np.intp)
    values = ri * we[idx]
    used = np.ones(n, dtype=np.int64)
    slow = np.flatnonzero(ri >= ke_lo[idx])
    k = idx[slow]
    u = ri[np.minimum(slow + 1, n - 1)] * 2.0**-53
    accept = (fe[k - 1] - fe[k]) * u + fe[k]
    bound = np.exp(-values[slow])
    tail = k == 0
    for i, x in zip(slow[tail].tolist(), u[tail].tolist()):  # libm's log1p, as numpy's
        values[i] = _ZIGGURAT_R - math.log1p(-x)
    taken = np.where(tail | (accept < bound), 2, -1)  # -1: rejected
    taken[(ri[slow] < ke_hi[k]) | (slow + 1 == n) | (~tail & (np.abs(accept - bound) <= _TIE))] = 0
    used[slow] = taken
    # A rejected draw is the next draw that is not, two words on per rejection.
    rejected = slow[taken < 0]
    to = rejected + 2
    while True:
        again = to < n
        again[again] = used[to[again]] < 0
        if not again.any():
            break
        to[again] += 2
    fine = to < n
    fine[fine] = used[to[fine]] > 0
    used[rejected] = 0
    rejected, to = rejected[fine], to[fine]
    values[rejected] = values[to]
    used[rejected] = to - rejected + used[to]
    return values, used


#: the page-aligned hot-set stride (8 KB in 64 B blocks)
_HOT_STRIDE = 128


def _lemire_threshold(n: int) -> int:
    """A 32-bit bounded draw below ``n`` rejects while its low word is below this."""
    return ((1 << 32) - n) % n


class _Bursts:
    """One profile's burst draws, read from numpy scalar calls or decoded from raw words.

    A burst draws its kind (one double, ``bisect_right`` of the kind cdf:
    sequential, strided, random or hot), then for a sequential or strided
    burst a geometric length ``1 + geometric(1 / burst_length)``, then
    for all but a hot burst a start ``integers(0, span)`` and for a
    strided one a stride ``strides[integers(0, len(strides))]``.  Bursts
    are columns of kind, start draw, step and length (capped at
    ``n_new + 1``).
    """

    def __init__(self, profile: BenchmarkProfile, cdf: list[float], n_new: int) -> None:
        self.cdf, self.n_new = cdf, n_new
        self.span, self.strides = int(profile.span), tuple(int(s) for s in profile.strides)
        self.p = 1.0 / profile.burst_length
        # numpy searches the geometric cdf with one double from p = 1/3 up
        self.sums = _search_sums(self.p) if self.p >= 1 / 3 else None
        # 32-bit draws per kind: a bound of 1 draws nothing
        span_draw, stride_draw = int(self.span > 1), int(len(self.strides) > 1)
        self.draws = np.array([span_draw, span_draw + stride_draw, span_draw, 0])
        # per kind and buffered bit b: 2 * (fresh words) + (buffered bit after)
        fresh = self.draws[:, None] > [0, 1]
        self.steps = 2 * fresh + ((self.draws[:, None] + [0, 1]) & 1)
        # words per block, for sizing the raw read (an exponential takes
        # about 1.03 words with its slow paths)
        seq, stride, rand, hot = np.diff(cdf, prepend=0.0).tolist()
        halves = (seq + stride + rand) * span_draw + stride * stride_draw
        words = 1 + (seq + stride) * 1.03 + halves / 2
        self.words_per_block = words / ((seq + stride) * (1 + profile.burst_length) + rand + hot)

    def draw(self, rng: np.random.Generator) -> np.ndarray:
        """One burst from numpy's own scalar draws."""
        kind = bisect_right(self.cdf, rng.random())
        start, step, length = 0, 0, 1
        if kind <= 1:
            length = 1 + min(int(rng.geometric(self.p)), self.n_new)
        if kind <= 2:
            start = int(rng.integers(0, self.span))
        if kind == 0:
            step = 1
        elif kind == 1:
            step = self.strides[int(rng.integers(0, len(self.strides)))]
        return np.array([[kind], [start], [step], [length]], dtype=np.int64)

    def decode(self, bits: np.random.PCG64, need: int) -> np.ndarray:
        """The bursts :meth:`draw` would make until ``need`` blocks, decoded from raw words.

        Reads a guess at the words they take with one ``random_raw``, reads
        every word as each draw it could start, and follows the chain of
        burst starts by pointer doubling.  A node is a word and whether a
        32-bit half is buffered (PCG64's ``has_uint32``): a bounded draw
        takes the buffered half, or a fresh word's low half and buffers
        its high half.  The chain stops before a burst it cannot read
        exactly (an exponential :func:`_exponentials` leaves to numpy, a
        geometric search past its table, a word past the read) and before
        a bounded draw that rejects.  ``bits`` is then moved past exactly
        the bursts returned, ``has_uint32`` and ``uinteger`` as the scalar
        draws leave them; the caller draws the next burst with numpy.
        """
        saved = bits.state
        buffered, uinteger = saved["has_uint32"], saved["uinteger"]
        guess = need * self.words_per_block
        m = math.ceil(guess + 4 * math.sqrt(guess)) + 32
        words = bits.random_raw(m)
        doubles = (words >> np.uint64(11)) * 2.0**-53
        kind = (doubles >= self.cdf[0]).view(np.int8)  # bisect_right(cdf, double)
        kind += doubles >= self.cdf[1]
        kind += doubles >= self.cdf[2]
        if self.sums is None:
            values, used = _exponentials(words)
        else:
            used = (doubles <= self.sums[-1]).astype(np.int64)

        # Node 2j + b: a burst from word j, b a buffered half, takes its
        # kind word, its length's words (an unreadable length lands past
        # the read) and c halves, a fresh word for each half not buffered.
        length_words = np.full(m, 2 * m)
        length_words[:-1] = np.where(used[1:] > 0, used[1:], 2 * m)
        q = np.arange(1, m + 1) + np.where(kind <= 1, length_words, 0)
        nodes = np.arange(2 * m + 2)  # a node that maps to itself is a stop
        nxt = (2 * q)[:, None] + np.take(self.steps, kind, axis=0)
        nxt = np.append(np.where(nxt <= 2 * m + 1, nxt, nodes[: 2 * m].reshape(m, 2)), nodes[-2:])
        path, jump = np.array([buffered]), nxt  # path[s:2s] = nxt^s(path[:s])
        while nxt[path[-1]] != path[-1]:
            path = np.concatenate([path, jump[path]])
            jump = jump[jump]
        n_bursts = int(np.argmax(nxt[path] == path))
        at, has = path[:n_bursts] >> 1, path[:n_bursts] & 1
        kinds = kind[at]

        lengths = np.ones(n_bursts, dtype=np.int64)
        long = kinds <= 1
        if self.sums is None:
            g = np.empty(np.count_nonzero(long), dtype=np.int64)
            _invert(values[at[long] + 1], -math.log1p(-self.p), g)
        else:
            g = np.searchsorted(self.sums, doubles[at[long] + 1]) + 1
        lengths[long] += np.minimum(g, self.n_new)
        cut = min(n_bursts, int(np.searchsorted(np.cumsum(lengths), need)) + 1)

        draws = self.draws[kinds]
        fresh_words = words[q[at[draws > has]]]
        halves = np.zeros(buffered + 2 * len(fresh_words) + 2, dtype=np.uint64)
        halves[0] = uinteger
        halves[buffered : -2 : 2] = fresh_words & np.uint64(0xFFFFFFFF)
        halves[buffered + 1 : -2 : 2] = fresh_words >> np.uint64(32)
        rank = np.cumsum(draws) - draws
        starts = halves[rank] * np.uint64(self.span)
        picks = halves[rank + self.draws[0]] * np.uint64(len(self.strides))
        low = np.uint64(0xFFFFFFFF)
        rejects = ((kinds <= 2) & ((starts & low) < _lemire_threshold(self.span))) | (
            (kinds == 1) & ((picks & low) < _lemire_threshold(len(self.strides)))
        )
        if rejects[:cut].any():
            cut = int(np.argmax(rejects))

        end = int(path[cut])
        bits.state = saved
        bits.advance(end >> 1)
        state = bits.state
        state["has_uint32"] = end & 1
        n_fresh = int(np.count_nonzero(draws[:cut] > has[:cut]))
        state["uinteger"] = int(fresh_words[n_fresh - 1] >> np.uint64(32)) if n_fresh else uinteger
        bits.state = state

        kinds = kinds[:cut]
        out = np.zeros((4, cut), dtype=np.int64)
        out[0] = kinds
        out[1] = np.where(kinds <= 2, starts[:cut] >> np.uint64(32), 0)
        out[2, kinds == 0] = 1
        strided = kinds == 1
        picked = (picks[:cut][strided] >> np.uint64(32)).astype(np.intp)
        out[2, strided] = np.array(self.strides)[picked]
        out[3] = lengths[:cut]
        return out


def _search_sums(p: float) -> np.ndarray:
    """The running sums numpy's geometric search compares its double with.

    They stop where the next term no longer changes the sum; a double
    above the last one, which numpy's loop would never pass, is left to
    numpy.
    """
    sums, total, term, q = [p], p, p, 1.0 - p
    while True:
        term *= q
        if total + term == total:
            return np.array(sums)
        total += term
        sums.append(total)


def _layout_new_blocks(
    profile: BenchmarkProfile, n_new: int, rng: np.random.Generator, base: int
) -> np.ndarray:
    """Lay out ``n_new`` distinct blocks as a burst sequence.

    Returns the blocks in allocation order.  A hot-set base is drawn
    first, then bursts until ``n_new`` blocks (the last one cut short);
    from a PCG64 generator and a span below ``2**32`` they are decoded
    from raw words (:meth:`_Bursts.decode`), one numpy-drawn burst at
    each place the decoder stops.  Uniqueness is enforced by remapping
    any repeated address to a fresh random one.
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
    cdf = fracs.cumsum()
    cdf /= cdf[-1]
    bursts = _Bursts(profile, cdf.tolist(), n_new)
    span = bursts.span
    hot_base = base + span + int(rng.integers(0, span))

    bits = rng.bit_generator
    decode = isinstance(bits, np.random.PCG64) and span < 1 << 32
    pieces, produced = [], 0
    while produced < n_new:
        if decode:
            pieces.append(bursts.decode(bits, n_new - produced))
            produced += int(pieces[-1][3].sum())
        if produced < n_new:
            pieces.append(bursts.draw(rng))
            produced += int(pieces[-1][3, 0])
    kind, starts, steps, lengths = np.concatenate(pieces, axis=1)
    lengths[-1] -= produced - n_new
    starts += base
    hot = np.flatnonzero(kind == 3)
    starts[hot] = hot_base + _HOT_STRIDE * np.arange(len(hot))
    # Burst i covers starts[i] + steps[i] * arange(lengths[i]).
    within = np.arange(n_new, dtype=np.int64) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    out = np.repeat(starts, lengths) + np.repeat(steps, lengths) * within

    # Enforce distinctness: collide-and-retry for the (rare) duplicates.
    laid, first_idx = np.unique(out, return_index=True)
    n_dup = n_new - len(laid)
    if n_dup:
        free = span - int(np.searchsorted(laid, base + span) - np.searchsorted(laid, base))
        if free < n_dup:
            raise ValueError(
                f"span {span} cannot hold {n_new} distinct new blocks: "
                f"{n_dup} duplicates need fresh addresses and {free} are left"
            )
        # One vector draw per round: each round draws only what it still needs,
        # so the draw count equals a scalar draw per candidate.
        fresh: dict[int, None] = {}  # insertion-ordered
        while len(fresh) < n_dup:
            candidates = base + rng.integers(0, span, size=n_dup - len(fresh))
            at = np.minimum(np.searchsorted(laid, candidates), len(laid) - 1)
            for candidate, taken in zip(candidates.tolist(), (laid[at] == candidates).tolist()):
                if not taken and candidate not in fresh:
                    fresh[candidate] = None
        dup_mask = np.ones(n_new, dtype=bool)
        dup_mask[first_idx] = False
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
    accesses among ``[0, done)``.  ``alloc_of`` is the draw buffer itself
    (viewed as int64 for the exponential doubles), so working out
    ``[done, hi)`` overwrites that part of ``offsets``.
    """

    new_blocks: np.ndarray
    writable: np.ndarray
    is_new: np.ndarray
    new_at: np.ndarray
    offsets: np.ndarray
    scale: float | None
    done: int = 0
    allocated: int = 0

    def __post_init__(self) -> None:
        self.alloc_of = self.offsets if self.scale is None else self.offsets.view(np.int64)

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
        if self.scale is not None:  # geometric integers are their own targets
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
    layout = _Layout(new_blocks, writable, is_new, new_at, offsets, scale)
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
    and instruction gaps are drawn as arrays; the new-block layout's
    bursts, about one per ``burst_length`` new blocks, are decoded from
    one raw read of a PCG64 stream as numpy's scalar draws would make
    them (the Figure 3 sweep replays hundreds of these traces).
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
    if n_accesses < 0:
        raise ValueError(f"n_accesses must be non-negative, got {n_accesses}")
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
    if not 0.0 <= write_fraction <= 1.0:
        raise ValueError(f"write_fraction must be in [0, 1], got {write_fraction}")
    if not _is_count(shared_blocks_span):
        raise ValueError(f"shared_blocks_span must be a positive integer, got {shared_blocks_span}")

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
