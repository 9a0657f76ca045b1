"""Differential suite: the write-subsequence window scan and footprint compaction.

:mod:`repro.sim.trace_fast` cuts every drawn window on the stream's
write subsequence with a row-wise sort of packed ``(block id, column)``
keys (``_scan_span``) and compacts each window to its distinct entries
with one in-place sort of packed ``(row, entry, write)`` keys
(``_compact_footprints``).  The kernels they replaced are kept here
verbatim as oracles: the ``lexsort``/``argsort`` span scan and
compaction, and the two window-length kernels that scanned the whole
access stream (the batched-doubling ``_window_lengths_sparse`` and the
two-pointer ``_window_lengths_dense``).  ``win_lens`` must equal all
three and the ``_Footprints`` matrices must be equal, for block ids near
2**62 and near the 62-bit packing limit of raw ids, for many offsets
between two writes, for windows that wrap, and for scratch sizes that
put chunk boundaries exactly between rows.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.sim import trace_fast
from repro.sim.trace_fast import _Footprints, _scan_span, _window_index

_SCRATCH_ELEMS = 1 << 22  # the oracles' own chunking; it never changes a result


def oracle_scan_span(
    ext_blocks: np.ndarray,
    ext_writes: np.ndarray,
    span_offsets: np.ndarray,
    span: int,
    w: int,
    out: np.ndarray,
    out_rows: np.ndarray,
) -> np.ndarray:
    """One vectorized span pass; returns which rows found their cutoff."""
    idx = span_offsets[:, None] + np.arange(span)
    blk = ext_blocks[idx]
    wrt = ext_writes[idx]
    rows, cols = np.nonzero(wrt)
    vals = blk[rows, cols]
    # Sort by (row, block, position): the head of each (row, block) group
    # is that block's first write in the window.
    order = np.lexsort((cols, vals, rows))
    r, v, c = rows[order], vals[order], cols[order]
    first = np.ones(len(r), dtype=bool)
    first[1:] = (r[1:] != r[:-1]) | (v[1:] != v[:-1])
    fr, fc = r[first], c[first]
    # Re-sort first-write positions by (row, position); the (w-1)-ranked
    # position per row is the cutoff.
    order = np.lexsort((fc, fr))
    fr, fc = fr[order], fc[order]
    row_start = np.ones(len(fr), dtype=bool)
    row_start[1:] = fr[1:] != fr[:-1]
    pos = np.arange(len(fr))
    rank = pos - pos[row_start][np.cumsum(row_start) - 1]
    hit = rank == w - 1
    out[out_rows[fr[hit]]] = fc[hit] + 1
    finished = np.zeros(len(span_offsets), dtype=bool)
    finished[fr[hit]] = True
    return finished


def oracle_window_lengths_sparse(
    ext_blocks: np.ndarray,
    ext_writes: np.ndarray,
    offsets: np.ndarray,
    w: int,
    n: int,
) -> np.ndarray:
    """Batched-doubling vectorized cutoff scan; cost ~ offsets x span."""
    out = np.empty(len(offsets), dtype=np.int64)
    pending = np.arange(len(offsets))
    span = min(max(64, 8 * w), n)
    while len(pending):
        rows_per = max(1, _SCRATCH_ELEMS // span)
        leftovers = []
        for lo in range(0, len(pending), rows_per):
            part = pending[lo : lo + rows_per]
            finished = oracle_scan_span(
                ext_blocks, ext_writes, offsets[part], span, w, out, part
            )
            if not finished.all():
                leftovers.append(part[~finished])
        if not leftovers:
            break
        if span >= n:
            # One full cycle visits every position; the caller's
            # reachability check guarantees w distinct writes exist.
            raise RuntimeError("window scan failed to converge")
        pending = np.concatenate(leftovers)
        span = min(span * 2, n)
    return out


def _window_lengths_dense(
    ids: np.ndarray, is_write: np.ndarray, offsets: np.ndarray, w: int
) -> np.ndarray:
    """Two-pointer sweep: window length of each offset in O(L) total.

    ``ids`` are dense written-block ids (read positions are ignored).
    The cutoff position is monotone non-decreasing in the start offset
    (dropping the first position can only move a block's first write
    later), so the end pointer never retreats while the start pointer
    advances over the sorted offsets.
    """
    n = len(ids)
    binv = ids.tolist()
    isw = is_write.tolist()
    cnt = [0] * (int(ids.max()) + 1)
    offs = offsets.tolist()
    out = np.empty(len(offs), dtype=np.int64)
    oi = 0
    distinct = 0
    e = offs[0]
    for o in range(offs[0], offs[-1] + 1):
        while distinct < w:
            i = e if e < n else e - n
            if isw[i]:
                b = binv[i]
                if cnt[b] == 0:
                    distinct += 1
                cnt[b] += 1
            e += 1
        if o == offs[oi]:
            out[oi] = e - o
            oi += 1
            if oi == len(offs):
                break
        if isw[o]:
            b = binv[o]
            cnt[b] -= 1
            if cnt[b] == 0:
                distinct -= 1
    return out


def _window_lengths_sparse(
    ext_ids: np.ndarray,
    ext_writes: np.ndarray,
    offsets: np.ndarray,
    w: int,
    n: int,
) -> np.ndarray:
    """Batched-doubling vectorized cutoff scan; cost ~ offsets x span."""
    out = np.empty(len(offsets), dtype=np.int64)
    pending = np.arange(len(offsets))
    span = min(max(64, 8 * w), n)
    while len(pending):
        shift = span.bit_length()
        keyed = np.where(ext_writes, ext_ids << shift, np.iinfo(np.int64).max)
        windows = np.lib.stride_tricks.sliding_window_view(keyed, span)
        rows_per = max(1, _SCRATCH_ELEMS // span)
        leftovers = []
        for lo in range(0, len(pending), rows_per):
            part = pending[lo : lo + rows_per]
            cut = _scan_span(windows[offsets[part]], shift, w)
            finished = cut < span
            out[part[finished]] = cut[finished] + 1
            if not finished.all():
                leftovers.append(part[~finished])
        if not leftovers:
            break
        if span >= n:
            # One full cycle visits every position; the caller's
            # reachability check guarantees w distinct writes exist.
            raise RuntimeError("window scan failed to converge")
        pending = np.concatenate(leftovers)
        span = min(span * 2, n)
    return out


def legacy_win_lens(blocks, is_write, offsets, w) -> tuple[np.ndarray, np.ndarray]:
    """Both whole-stream kernels, on the dense ids they were written for."""
    written_at = np.flatnonzero(is_write)
    ids = np.zeros(len(blocks), dtype=np.int64)
    ids[written_at] = np.unique(blocks[written_at], return_inverse=True)[1]
    sparse = _window_lengths_sparse(
        np.concatenate([ids, ids]),
        np.concatenate([is_write, is_write]),
        offsets,
        w,
        len(blocks),
    )
    return sparse, _window_lengths_dense(ids, is_write, offsets, w)


def oracle_compact_footprints(
    ext_entries: np.ndarray,
    ext_writes: np.ndarray,
    offsets: np.ndarray,
    win_lens: np.ndarray,
    pad: int,
) -> _Footprints:
    """Distinct-entry footprint of every window as padded matrices.

    Row i holds window i's sorted distinct entries (all < ``pad``) with
    write-dominated flags, padded to the widest row with the read-only
    entry ``pad``, which can never conflict.

    Windows are flattened back-to-back into ragged arrays (no padding to
    the longest window, whose outliers would dominate) and deduplicated
    with one argsort of the combined ``row * stride + entry`` key per
    chunk; rows never straddle a chunk.
    """
    u = len(offsets)
    counts = np.zeros(u, dtype=np.int64)
    pieces: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []
    ends = np.cumsum(win_lens)
    stride = pad + 1  # entries are < pad; headroom for safety
    lo = 0
    while lo < u:
        hi = max(lo + 1, int(np.searchsorted(ends, (ends[lo - 1] if lo else 0) + _SCRATCH_ELEMS)))
        lens = win_lens[lo:hi]
        total = int(lens.sum())
        row_id = np.repeat(np.arange(hi - lo, dtype=np.int64), lens)
        starts = np.concatenate([[0], np.cumsum(lens)[:-1]])
        within = np.arange(total, dtype=np.int64) - np.repeat(starts, lens)
        src = np.repeat(offsets[lo:hi], lens) + within
        key = row_id * stride + ext_entries[src]
        order = np.argsort(key)
        k_s = key[order]
        w_s = ext_writes[src][order]
        first = np.ones(total, dtype=bool)
        first[1:] = k_s[1:] != k_s[:-1]
        bounds = np.flatnonzero(first)
        grp_write = np.maximum.reduceat(w_s.astype(np.int8), bounds).astype(bool)
        grp_key = k_s[bounds]
        grp_row = grp_key // stride
        grp_val = grp_key - grp_row * stride
        counts[lo:hi] = np.bincount(grp_row, minlength=hi - lo)
        row_start = np.ones(len(grp_row), dtype=bool)
        row_start[1:] = grp_row[1:] != grp_row[:-1]
        pos = np.arange(len(grp_row))
        rank = pos - pos[row_start][np.cumsum(row_start) - 1]
        pieces.append((lo + grp_row, rank, grp_val, grp_write))
        lo = hi
    width = int(counts.max())
    entries = np.full((u, width), pad, dtype=np.int64)
    writes = np.zeros((u, width), dtype=bool)
    for rows_g, rank, vals, flags in pieces:
        entries[rows_g, rank] = vals
        writes[rows_g, rank] = flags
    return _Footprints(entries, writes, counts)


def oracle_win_lens(blocks, is_write, offsets, w) -> np.ndarray:
    """The oracle scan over the doubled stream, for any number of offsets."""
    return oracle_window_lengths_sparse(
        np.concatenate([blocks, blocks]),
        np.concatenate([is_write, is_write]),
        offsets,
        w,
        len(blocks),
    )


def oracle_footprints(labels, is_write, offsets, win_lens, pad) -> _Footprints:
    """The oracle compaction; one row at a time where its key would wrap.

    ``row * (pad + 1) + entry`` leaves int64 for rows past the first
    once ``pad`` nears 2**62, but row 0 alone is exact.
    """
    ext = np.concatenate([labels, labels]), np.concatenate([is_write, is_write])
    if (pad + 1) * len(offsets) < 2**62:
        return oracle_compact_footprints(*ext, offsets, win_lens, pad)
    rows = [
        oracle_compact_footprints(*ext, offsets[i : i + 1], win_lens[i : i + 1], pad)
        for i in range(len(offsets))
    ]
    width = max(int(r.counts[0]) for r in rows)
    entries = np.full((len(rows), width), pad, dtype=np.int64)
    writes = np.zeros((len(rows), width), dtype=bool)
    for i, r in enumerate(rows):
        entries[i, : r.counts[0]] = r.labels[0, : r.counts[0]]
        writes[i, : r.counts[0]] = r.writes[0, : r.counts[0]]
    return _Footprints(entries, writes, np.array([int(r.counts[0]) for r in rows]))


def assert_same_footprints(got: _Footprints, want: _Footprints) -> None:
    assert got.labels.dtype == np.int64 and got.writes.dtype == bool
    assert np.array_equal(got.counts, want.counts)
    assert np.array_equal(got.labels, want.labels)
    assert np.array_equal(got.writes, want.writes)


def check_stream(blocks, is_write, offsets, w, label_kinds=("hashed", "dense", "raw")):
    """Window lengths and every kind of footprint against the oracles."""
    ix = _window_index(blocks, is_write, offsets, w)
    want_lens = oracle_win_lens(blocks, is_write, offsets, w)
    assert np.array_equal(ix.win_lens, want_lens)
    for legacy in legacy_win_lens(blocks, is_write, offsets, w):
        assert np.array_equal(ix.win_lens, legacy)
    for kind in label_kinds:
        if kind == "hashed":  # what a tagless table of 7 entries sees
            labels, pad = blocks % 7, 7
        elif kind == "dense":  # what a tagged table sees
            distinct, labels = np.unique(blocks, return_inverse=True)
            pad = len(distinct)
        else:  # the raw block values, however wide
            labels, pad = blocks, int(blocks.max()) + 1
        assert_same_footprints(
            ix.footprints(labels, pad),
            oracle_footprints(labels, is_write, offsets, want_lens, pad),
        )
    return ix


@st.composite
def streams(draw, *, bases=st.sampled_from([0, 2**62 - 6, 2**62, 2**63 - 64])):
    """A stream, its sorted unique start offsets and a reachable ``w``."""
    length = draw(st.integers(1, 80))
    universe = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    blocks = draw(bases) + rng.integers(0, universe, size=length)
    is_write = rng.random(length) < draw(st.sampled_from([0.1, 0.5, 1.0]))
    distinct = len(np.unique(blocks[is_write]))
    assume(distinct >= 1)
    w = draw(st.integers(1, distinct))
    k = draw(st.sampled_from([1, 2, max(1, length // 8), length]))
    offsets = np.unique(rng.integers(0, length, size=k))
    return blocks.astype(np.int64), is_write, offsets, w


class TestAgainstOracles:
    @given(streams())
    @settings(max_examples=300, deadline=None)
    def test_random_streams(self, case):
        check_stream(*case)

    @given(streams(bases=st.just(0)))
    @settings(max_examples=100, deadline=None)
    def test_w_equals_one(self, case):
        blocks, is_write, offsets, _ = case
        ix = check_stream(blocks, is_write, offsets, 1)
        assert is_write[(ix.offsets + ix.win_lens - 1) % len(blocks)].all()

    @pytest.mark.parametrize("offsets", [[0], [5, 990, 1999], list(range(0, 2000, 3))])
    @pytest.mark.parametrize("base", [0, 2**62 - 1000])
    def test_sparse_and_dense_paths(self, offsets, base):
        # 3 offsets of a 2000-access stream took the old doubling scan and
        # 667 the old two-pointer sweep; both are oracles now.
        rng = np.random.default_rng(len(offsets))
        blocks = base + rng.integers(0, 300, size=2000)
        is_write = rng.random(2000) < 0.3
        check_stream(blocks, is_write, np.array(offsets), 40)


class TestWrapping:
    def test_windows_wrap_the_doubled_stream(self):
        # Every written block is needed for W = 4, so every window but the
        # one from offset 0 runs past the end of the stream and back.
        blocks = np.array([10, 11, 12, 13, 14, 15], dtype=np.int64)
        is_write = np.array([True, False, True, False, True, True])
        ix = check_stream(blocks, is_write, np.arange(6), 4)
        assert list(ix.win_lens) == [6, 6, 5, 6, 5, 6]

    def test_window_spans_the_whole_cycle(self):
        blocks = np.array([2**62 + 3, 7, 7, 2**62 + 3, 9], dtype=np.int64)
        is_write = np.array([False, True, False, True, True])
        ix = check_stream(blocks, is_write, np.array([0, 4]), 3)
        assert list(ix.win_lens) == [5, 5]


def scan_spy(monkeypatch) -> list[int]:
    """Record the span of every window scan."""
    spans: list[int] = []
    real_scan = trace_fast._scan_span

    def scan(keys, shift, w):
        spans.append(keys.shape[1])
        return real_scan(keys, shift, w)

    monkeypatch.setattr(trace_fast, "_scan_span", scan)
    return spans


class TestWriteSubsequence:
    """Windows are cut on the writes; reads never move a cutoff."""

    def test_many_offsets_between_two_writes(self):
        rng = np.random.default_rng(3)
        n = 3000
        blocks = rng.integers(0, 30, size=n)
        is_write = np.zeros(n, dtype=bool)
        is_write[5::97] = True
        offsets = np.arange(n)
        ix = check_stream(blocks, is_write, offsets, 5, ("hashed",))
        # Every offset in a run of reads shares its next write's cutoff.
        cut = offsets + ix.win_lens - 1
        gap = np.searchsorted(np.flatnonzero(is_write), offsets)
        for g in np.unique(gap):
            assert len(np.unique(cut[gap == g])) == 1

    def test_offsets_past_the_last_write_wrap(self):
        rng = np.random.default_rng(4)
        n = 500
        blocks = rng.integers(0, 40, size=n)
        is_write = rng.random(n) < 0.4
        is_write[300:] = False
        offsets = np.arange(250, n)
        ix = check_stream(blocks, is_write, offsets, 6)
        past = offsets > np.flatnonzero(is_write)[-1]
        assert past.any()
        assert (offsets + ix.win_lens > n)[past].all()

    @pytest.mark.parametrize("writes", [1, 2, 7, 15])
    def test_fewer_than_sixteen_writes(self, writes):
        rng = np.random.default_rng(writes)
        n = 120
        blocks = rng.integers(0, 9, size=n)
        is_write = np.zeros(n, dtype=bool)
        is_write[rng.choice(n, size=writes, replace=False)] = True
        distinct = len(np.unique(blocks[is_write]))
        for w in range(1, distinct + 1):
            check_stream(blocks, is_write, np.unique(rng.integers(0, n, size=40)), w)

    def test_w_equal_to_distinct_count_doubles_to_a_full_cycle(self, monkeypatch):
        # One block is written once, so the window from the write after it
        # needs every write of the cycle.
        rng = np.random.default_rng(5)
        n = 1600
        blocks = rng.integers(0, 24, size=n)
        is_write = rng.random(n) < 0.25
        blocks[np.flatnonzero(is_write)[100]] = 99
        m = int(is_write.sum())
        w = len(np.unique(blocks[is_write]))
        spans = scan_spy(monkeypatch)
        check_stream(blocks, is_write, np.arange(n), w, ("hashed",))
        assert 2 * w < m and max(spans) == m

    @pytest.mark.parametrize("above", [False, True])
    def test_raw_ids_near_the_packing_limit(self, above):
        # 200 writes: a scan of raw ids could pack ids below 2**(62 - 8)
        # with a column; the window scan relabels every id densely.
        rng = np.random.default_rng(6)
        n = 400
        is_write = np.zeros(n, dtype=bool)
        is_write[rng.choice(n, size=200, replace=False)] = True
        limit = 1 << (62 - (200).bit_length())
        blocks = limit - 20 + rng.integers(0, 20, size=n) + above
        blocks[np.flatnonzero(is_write)[7]] = limit - 1 + above
        check_stream(blocks, is_write, np.unique(rng.integers(0, n, size=50)), 12)


class TestChunkBoundaries:
    """A small scratch size splits rows into chunks; results must not move."""

    @pytest.mark.parametrize("seed", range(6))
    def test_scratch_exactly_between_rows(self, monkeypatch, seed):
        rng = np.random.default_rng(seed)
        blocks = rng.integers(0, 40, size=300)
        is_write = rng.random(300) < 0.4
        offsets = np.unique(rng.integers(0, 300, size=12))
        w = 5
        want = oracle_win_lens(blocks, is_write, offsets, w)
        span = min(max(64, 8 * w), len(blocks))
        cuts = np.cumsum(want)
        for scratch in (1, 2, span, 2 * span, int(cuts[0]), int(cuts[2]), int(cuts[-2])):
            monkeypatch.setattr(trace_fast, "_SCRATCH_ELEMS", scratch)
            check_stream(blocks, is_write, offsets, w, ("hashed", "dense"))

    def test_wide_labels_with_small_scratch(self, monkeypatch):
        rng = np.random.default_rng(11)
        blocks = 2**62 + rng.integers(0, 30, size=200)
        is_write = rng.random(200) < 0.5
        offsets = np.unique(rng.integers(0, 200, size=9))
        for scratch in (1, 17, 64):
            monkeypatch.setattr(trace_fast, "_SCRATCH_ELEMS", scratch)
            check_stream(blocks, is_write, offsets, 3)


def test_unreachable_w_keeps_the_reference_message():
    blocks = np.array([1, 2, 1, 2], dtype=np.int64)
    is_write = np.array([True, True, False, True])
    with pytest.raises(ValueError, match="only 2 distinct written blocks; cannot reach W=3"):
        _window_index(blocks, is_write, np.array([0]), 3)


@pytest.mark.parametrize(
    "blocks,is_write,w,count",
    [
        ([2**62, 2**62 + 1, 2**62, 5], [True, True, True, False], 3, 2),  # wide ids
        ([1, 2, 3], [False, False, False], 1, 0),  # no writes at all
        (list(range(40)) * 10, [True] * 400, 41, 40),  # a span would double thrice
    ],
)
def test_unreachable_w_on_every_path(blocks, is_write, w, count):
    with pytest.raises(ValueError, match=f"only {count} distinct written blocks; cannot reach W={w}"):
        _window_index(np.array(blocks, dtype=np.int64), np.array(is_write), np.array([0, 2]), w)
