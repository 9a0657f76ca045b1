"""Fast trace-driven aliasing engine (Figure 2), byte-identical to the reference.

:func:`simulate_trace_aliasing_fast` is a drop-in replacement for
:func:`repro.sim.trace_driven.simulate_trace_aliasing`: it consumes the
same named RNG stream in the same order and returns a
:class:`~repro.sim.trace_driven.TraceAliasResult` whose every field is
exactly equal to the reference's (the differential suite in
``tests/sim/test_trace_fast.py`` asserts ``==``, not ``approx``). The
two engines differ only in speed; callers select one through
:mod:`repro.sim.engines`.

Why it is fast
--------------
A sample's window is fully determined by its start offset, and a stream
of length ``L`` has only ``L`` possible windows. The reference pays
several small-array ``np.unique`` passes plus a Python assembly loop per
(sample, stream); this engine instead precomputes a **window index** per
(stream, W, hash) for exactly the offsets the RNG drew:

1. All start offsets are drawn up front in the reference's order. A
   numpy ``Generator`` consumes its bit stream identically for a scalar
   ``integers(0, n)`` and for one element of ``integers(0, n, size=k)``
   (pinned by a test), so equal-length streams collapse into a single
   vectorized call; unequal lengths are read off one pass of raw PCG64
   output where no draw can reject, and drawn scalar otherwise.
2. Per distinct stream, the cutoff of every *unique* drawn offset (the
   position of its W-th distinct written block) is found on the write
   subsequence: reads never move a cutoff, so offsets share the cutoff
   of their next write, and one batched-doubling scan runs from those
   writes over the doubled written-block ids. It sorts each window
   row of packed ``id << shift | column`` int64 keys, keeps the head of
   each block's group (its first write) and takes the W-th smallest
   head column with ``np.partition``. A window never needs more than
   one cycle of writes, which holds every distinct written block.
3. The whole stream is hashed in one array call — every hash kind is
   elementwise — and each unique window is compacted to its sorted
   distinct table entries with write-dominated flags, stored as padded
   ``(U, width)`` matrices. One in-place sort of packed
   ``row << shift | entry << 1 | write`` keys per chunk does it: the
   last key of each (row, entry) group carries the write-dominated flag.
4. Every batch is then pure fancy-indexing into those matrices plus one
   batched :func:`~repro.sim.montecarlo.cross_thread_conflicts` call.

Why it is byte-identical
------------------------
``cross_thread_conflicts`` decides each sample by, per table entry:
"touched by two threads, at least one write". That verdict is invariant
to duplicate entries within a thread, to read entries shadowed by a
write of the same entry (write-dominance), and to padding — provided
pads can never conflict. The reference pads with distinct read-only
entries ``>= n_entries``; this engine pads with the single read-only
entry ``n_entries``, which is just as conflict-free (pad runs carry no
write). The alias outcomes, and therefore ``alias_probability`` and
``stderr``, match bit for bit; ``mean_window_accesses`` is an exact
integer sum divided by an integer count in both engines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.ownership.hashing import HashFunction
from repro.sim.montecarlo import collision_probability_estimate, cross_thread_conflicts
from repro.sim.trace_driven import TraceAliasConfig, TraceAliasResult
from repro.traces.events import ThreadedTrace
from repro.util.rng import stream_rng

__all__ = ["simulate_trace_aliasing_fast"]

# Scratch ceiling (in array elements) for the chunked vectorized scans;
# bounds peak memory at a few tens of MB regardless of trace length.
_SCRATCH_ELEMS = 1 << 22


@dataclass(frozen=True)
class _Footprints:
    """Every indexed window's sorted distinct labels, padded to the widest row.

    Pads hold the read-only label ``pad``, one past every real label, so
    they can never conflict.
    """

    labels: np.ndarray  # (U, width) sorted distinct labels per row
    writes: np.ndarray  # (U, width) write-dominance flags, False on pads
    counts: np.ndarray  # (U,) distinct labels per row


@dataclass(frozen=True)
class _WindowIndex:
    """The windows of one stream at the sorted unique start offsets drawn."""

    is_write: np.ndarray  # (L,) the stream's write flags
    offsets: np.ndarray  # (U,) sorted unique start offsets
    win_lens: np.ndarray  # (U,) raw window length (accesses) per offset

    def rows(self, starts: np.ndarray) -> np.ndarray:
        """Row of each drawn start offset."""
        return np.searchsorted(self.offsets, starts)

    def footprints(self, labels: np.ndarray, pad: int) -> _Footprints:
        """Footprints of every window over per-access ``labels`` (all < ``pad``).

        ``labels`` may be hashed table entries (what a tagless table
        sees) or an injective relabelling of the blocks such as dense ids
        (what a tagged table sees): conflict verdicts only compare labels
        for equality.
        """
        if pad.bit_length() + _SCRATCH_ELEMS.bit_length() > 62:
            # Too wide for the packed (row, label, write) key: compact
            # the labels' dense ranks and map the rows back.
            distinct, ranks = np.unique(labels, return_inverse=True)
            fp = self.footprints(ranks, len(distinct))
            return _Footprints(np.append(distinct, pad)[fp.labels], fp.writes, fp.counts)
        packed = (labels << 1) | self.is_write
        return _compact_footprints(
            np.concatenate([packed, packed]), self.offsets, self.win_lens, pad
        )


def _draw_starts(rng: np.random.Generator, lengths: list[int], samples: int) -> np.ndarray:
    """All (sample, stream) start offsets, consumed exactly like the reference."""
    c = len(lengths)
    if len(set(lengths)) == 1:
        return rng.integers(0, lengths[0], size=samples * c).reshape(samples, c)
    starts = _lemire_starts(rng.bit_generator, lengths, samples)
    if starts is not None:
        return starts
    starts = np.empty((samples, c), dtype=np.int64)
    draw = rng.integers
    for i in range(samples):
        for t in range(c):
            starts[i, t] = draw(0, lengths[t])
    return starts


def _lemire_starts(
    bits: np.random.BitGenerator, lengths: list[int], samples: int
) -> Optional[np.ndarray]:
    """The scalar loop's start draws from one read of raw PCG64 output, or None.

    For ``2 <= L < 2**32`` a scalar ``integers(0, L)`` is the high word of
    ``next_uint32() * L`` unless the low word is below ``(2**32 - L) % L``
    (Lemire's rejection).  PCG64's ``next_uint32`` is a raw word's low
    half, its high half buffered in the state (``has_uint32``/``uinteger``).
    Returns None, generator untouched, for another bit generator, a
    bound outside ``[2, 2**32)`` or a draw that rejects.
    """
    saved = bits.state
    if saved["bit_generator"] != "PCG64" or not all(2 <= n < 1 << 32 for n in lengths):
        return None
    k = samples * len(lengths)
    buffered = saved["has_uint32"]
    fresh = k - buffered
    raw = bits.random_raw((fresh + 1) // 2)
    halves = np.empty(2 * len(raw) + buffered, dtype=np.uint64)
    halves[:buffered] = saved["uinteger"]
    halves[buffered::2] = raw & 0xFFFFFFFF
    halves[buffered + 1 :: 2] = raw >> 32
    bounds = np.tile(np.array(lengths, dtype=np.uint64), samples)
    scaled = halves[:k] * bounds
    if ((scaled & 0xFFFFFFFF) < ((1 << 32) - bounds) % bounds).any():
        bits.state = saved
        return None
    state = bits.state
    state["has_uint32"] = fresh % 2
    state["uinteger"] = int(raw[-1]) >> 32 if len(raw) else saved["uinteger"]
    bits.state = state
    return (scaled >> 32).astype(np.int64).reshape(samples, len(lengths))


def _scan_span(keys: np.ndarray, shift: int, w: int) -> np.ndarray:
    """Cutoff column of each window row; ``>= span`` where it is not reached.

    ``keys`` is ``(rows, span)`` written-block ids shifted left by
    ``shift`` (``span < 1 << shift``); columns are or-ed in here.  Sorting
    each row puts every block's first write at the head of its group; the
    ``w``-th smallest head column is the cutoff.  Non-heads rank as
    ``(1 << shift) - 1``, and so does a group of int64-maximum keys (the
    reads of the test suite's whole-stream ``_window_lengths_sparse`` oracle).
    """
    mask = (1 << shift) - 1
    keys |= np.arange(keys.shape[1])
    keys.sort(axis=1)
    head = np.ones(keys.shape, dtype=bool)
    np.greater(keys[:, 1:] ^ keys[:, :-1], mask, out=head[:, 1:])
    first = np.where(head, keys & mask, mask)
    return np.partition(first, w - 1, axis=1)[:, w - 1]


def _write_cutoffs(ids: np.ndarray, starts: np.ndarray, w: int) -> np.ndarray:
    """Index of the write reaching ``w`` distinct ``ids`` from each start.

    ``ids`` is one cycle of written-block ids, packable with a column;
    ``starts`` are sorted write indices in ``[0, len(ids)]``; an index
    ``>= len(ids)`` lies in the next cycle.  Spans double up to one
    cycle, which holds every distinct id; the caller checks there are
    at least ``w``.
    """
    m = len(ids)
    ext = np.concatenate([ids, ids])
    out = np.empty(len(starts), dtype=np.int64)
    pending = np.arange(len(starts))
    span = min(2 * w, m)
    while True:
        shift = span.bit_length()
        windows = np.lib.stride_tricks.sliding_window_view(ext, span)
        rows_per = max(1, _SCRATCH_ELEMS // span)
        leftovers = []
        for lo in range(0, len(pending), rows_per):
            part = pending[lo : lo + rows_per]
            keys = windows[starts[part]]
            keys <<= shift
            cut = _scan_span(keys, shift, w)
            finished = cut < span
            out[part[finished]] = starts[part[finished]] + cut[finished]
            if not finished.all():
                leftovers.append(part[~finished])
        if not leftovers:
            return out
        if span == m:
            raise RuntimeError("window scan failed to converge")
        pending = np.concatenate(leftovers)
        span = min(span * 2, m)


def _compact_footprints(
    ext_packed: np.ndarray,
    offsets: np.ndarray,
    win_lens: np.ndarray,
    pad: int,
) -> _Footprints:
    """Distinct-entry footprint of every window as padded matrices.

    ``ext_packed`` holds each access of the doubled stream as
    ``entry << 1 | write``.  Row i holds window i's sorted distinct
    entries (all < ``pad``) with write-dominated flags, padded to the
    widest row with the read-only entry ``pad``, which can never
    conflict.

    Windows are flattened back-to-back into ragged arrays (no padding to
    the longest window, whose outliers would dominate) and deduplicated
    with one in-place sort of the packed ``row << shift | entry << 1 |
    write`` key per chunk: the last key of each (row, entry) group
    carries its write-dominated flag.  Rows never straddle a chunk.
    """
    u = len(offsets)
    counts = np.zeros(u, dtype=np.int64)
    pieces: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []
    ends = np.cumsum(win_lens)
    shift = pad.bit_length() + 1
    lo = 0
    while lo < u:
        hi = max(lo + 1, int(np.searchsorted(ends, (ends[lo - 1] if lo else 0) + _SCRATCH_ELEMS)))
        lens = win_lens[lo:hi]
        starts = np.cumsum(lens) - lens
        src = np.arange(int(lens.sum()), dtype=np.int64) + np.repeat(offsets[lo:hi] - starts, lens)
        key = ext_packed[src]
        key |= np.repeat(np.arange(hi - lo, dtype=np.int64) << shift, lens)
        key.sort()
        last = np.ones(len(key), dtype=bool)
        np.greater(key[1:] ^ key[:-1], 1, out=last[:-1])
        grp = np.compress(last, key)  # faster than a boolean-mask index
        grp_row = grp >> shift
        grp_counts = np.bincount(grp_row, minlength=hi - lo)
        counts[lo:hi] = grp_counts
        rank = np.arange(len(grp)) - (np.cumsum(grp_counts) - grp_counts)[grp_row]
        vals = (grp >> 1) & ((1 << (shift - 1)) - 1)
        pieces.append((lo + grp_row, rank, vals, (grp & 1).astype(bool)))
        lo = hi
    width = int(counts.max())
    entries = np.full((u, width), pad, dtype=np.int64)
    writes = np.zeros((u, width), dtype=bool)
    for rows_g, rank, vals, flags in pieces:
        entries[rows_g, rank] = vals
        writes[rows_g, rank] = flags
    return _Footprints(entries, writes, counts)


def _window_index(
    blocks: np.ndarray, is_write: np.ndarray, offsets: np.ndarray, w: int
) -> _WindowIndex:
    """Cut the window reaching ``w`` distinct writes at every drawn offset.

    Raises the reference's "cannot reach W" error for a stream with
    fewer than ``w`` distinct written blocks.  Each offset takes the
    cutoff of its first write at or after it (past the last write, the
    next cycle's first).  The scan runs on dense ids of the written
    blocks, whatever the block values.
    """
    written_at = np.flatnonzero(is_write)
    written, ids = np.unique(blocks[written_at], return_inverse=True)
    if len(written) < w:
        raise ValueError(
            f"stream has only {len(written)} distinct written blocks; cannot reach W={w}"
        )
    first = np.searchsorted(written_at, offsets)
    fresh = np.ones(len(first), dtype=bool)
    np.not_equal(first[1:], first[:-1], out=fresh[1:])
    cut = _write_cutoffs(ids.astype(np.int64, copy=False), first[fresh], w)
    # A cutoff index >= M lies in the next cycle, n accesses later.
    cut_at = np.concatenate([written_at, written_at + len(blocks)])[cut]
    win_lens = cut_at[np.cumsum(fresh) - 1] - offsets + 1
    return _WindowIndex(is_write, offsets, win_lens)


def _stack_footprints(
    footprints: Sequence[_Footprints], rows: Sequence[np.ndarray]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One batched kernel input from each thread's footprint rows.

    Thread ``t`` contributes ``footprints[t]`` at ``rows[t]``, cut to the
    batch's widest row; returns ``(entries, writes, thread_of)`` for
    :func:`~repro.sim.montecarlo.cross_thread_conflicts`.
    """
    entries, writes, thread_of = [], [], []
    for t, (fp, r) in enumerate(zip(footprints, rows)):
        wt = int(fp.counts[r].max())
        entries.append(fp.labels[r, :wt])
        writes.append(fp.writes[r, :wt])
        thread_of.append(np.full(wt, t, dtype=np.int64))
    return (
        np.concatenate(entries, axis=1),
        np.concatenate(writes, axis=1),
        np.concatenate(thread_of),
    )


def simulate_trace_aliasing_fast(
    trace: ThreadedTrace,
    cfg: TraceAliasConfig,
    *,
    hash_fn: Optional[HashFunction] = None,
    batch: int = 1000,
) -> TraceAliasResult:
    """Run one Figure 2 data point; byte-identical to the reference engine."""
    if trace.n_threads == 0:
        raise ValueError("threaded trace has no streams")
    if hash_fn is None:
        from repro.ownership.hashing import make_hash

        hash_fn = make_hash(cfg.hash_kind, cfg.n_entries)
    elif hash_fn.n_entries != cfg.n_entries:
        raise ValueError(
            f"hash_fn sized for {hash_fn.n_entries} entries, config says {cfg.n_entries}"
        )

    c = cfg.concurrency
    streams = [trace[i % trace.n_threads] for i in range(c)]
    rng = stream_rng(
        cfg.seed,
        "trace-alias",
        n=cfg.n_entries,
        c=c,
        w=cfg.write_footprint,
        hash=cfg.hash_kind,
    )
    starts = _draw_starts(rng, [len(s.blocks) for s in streams], cfg.samples)

    # One index per distinct underlying stream (round-robin assignment
    # reuses streams when C exceeds the trace's thread count), built over
    # the union of offsets drawn for every slot sharing that stream.
    slot_tid = [t % trace.n_threads for t in range(c)]
    index_by_tid: dict[int, tuple[_WindowIndex, _Footprints]] = {}
    for t in range(c):
        tid = slot_tid[t]
        if tid in index_by_tid:
            continue
        cols = [u for u in range(c) if slot_tid[u] == tid]
        stream = streams[t]
        ix = _window_index(
            stream.blocks, stream.is_write, np.unique(starts[:, cols]), cfg.write_footprint
        )
        hashed = np.asarray(hash_fn(stream.blocks), dtype=np.int64)
        index_by_tid[tid] = ix, ix.footprints(hashed, cfg.n_entries)
    slots = [index_by_tid[tid] for tid in slot_tid]

    outcomes = np.zeros(cfg.samples, dtype=bool)
    wlen_sum = 0
    done = 0
    while done < cfg.samples:
        todo = min(batch, cfg.samples - done)
        sb = starts[done : done + todo]
        rows = [ix.rows(sb[:, t]) for t, (ix, _) in enumerate(slots)]
        wlen_sum += sum(int(ix.win_lens[r].sum()) for (ix, _), r in zip(slots, rows))
        outcomes[done : done + todo] = cross_thread_conflicts(
            *_stack_footprints([fp for _, fp in slots], rows)
        )
        done += todo

    p, stderr = collision_probability_estimate(outcomes)
    return TraceAliasResult(
        config=cfg,
        alias_probability=p,
        stderr=stderr,
        mean_window_accesses=wlen_sum / (cfg.samples * c),
    )
