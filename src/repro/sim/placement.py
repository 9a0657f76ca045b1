"""Placement-sensitivity and tagged-vs-tagless A/B simulation engines.

Two engines over one shared workload model, the Dice-style concurrent
heap: ``C`` threads allocate interleaved from one allocator (thread
``t`` owns objects ``t, t+C, t+2C, ...`` of a shared placed heap) and
then reference their own objects with Zipf skew.  The *placement* of the
heap — bump, slab, buddy, coloring — decides which block addresses the
threads present to the ownership table, before any hash is applied.

* :func:`simulate_placement_conflicts` (the ``placement`` sweep kind)
  samples per-thread transaction footprints and measures, batched
  through :func:`repro.sim.montecarlo.cross_thread_conflicts`, how often
  a tagless table of ``N`` entries reports a conflict — split into true
  block sharing (dense packing putting two threads' objects in one
  block) and hash-index aliasing (the false conflicts a tagged table
  would eliminate).
* :func:`simulate_table_ab` (the ``fig7`` sweep kind) replays identical
  footprint streams transactionally through a
  :class:`~repro.ownership.tagless.TaglessOwnershipTable` or a
  :class:`~repro.ownership.tagged.TaggedOwnershipTable` — the same
  windows, the same lock-step schedule, the table the only variable —
  and reports the §5 ledger: conflict classification counters, aborts,
  and the tagged table's chain/indirection costs.

Determinism contract: all randomness derives from
:func:`repro.util.rng.stream_rng` keyed by the config scalars, and the
A/B stream key deliberately excludes the table kind, so serial,
process-pool, cluster — and tagless-vs-tagged — runs see byte-identical
streams.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.alloc.spec import placement_preset
from repro.alloc.streams import draw_object_sizes, placed_heap
from repro.ownership.base import AccessMode
from repro.ownership.hashing import make_hash
from repro.ownership.tagged import TaggedOwnershipTable
from repro.ownership.tagless import TaglessOwnershipTable
from repro.sim.montecarlo import collision_probability_estimate, cross_thread_conflicts
from repro.sim.trace_fast import _draw_starts, _stack_footprints, _window_index, _WindowIndex
from repro.traces.synthetic import zipf_working_set
from repro.util.rng import stream_rng

__all__ = [
    "PlacementConflictConfig",
    "PlacementConflictResult",
    "TABLE_KINDS",
    "TableABConfig",
    "TableABResult",
    "simulate_placement_conflicts",
    "simulate_table_ab",
]

#: Ownership-table kinds the fig7 A/B can instantiate.
TABLE_KINDS = ("tagless", "tagged")

# How many deterministic stream-extension rounds to attempt before
# declaring the workload unable to reach W distinct written blocks.
_MAX_STREAM_GROWTH = 6


def _positive(name: str, value: int) -> None:
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")


def _validate_workload(
    placement: str,
    hash_kind: str,
    n_entries: int,
    concurrency: int,
    write_footprint: int,
    objects_per_thread: int,
    skew: float,
    write_fraction: float,
) -> None:
    placement_preset(placement)  # unknown names raise with the option list
    make_hash(hash_kind, n_entries)  # ... as do unknown kinds / non-po2 sizes
    if concurrency < 2:
        raise ValueError(f"concurrency must be >= 2, got {concurrency}")
    _positive("write_footprint", write_footprint)
    if objects_per_thread < 8 * write_footprint:
        raise ValueError(
            f"objects_per_thread={objects_per_thread} too small for "
            f"W={write_footprint}; need at least 8*W objects per thread"
        )
    if not 0.0 < skew <= 4.0:
        raise ValueError(f"skew must be in (0, 4], got {skew}")
    if not 0.0 < write_fraction <= 1.0:
        raise ValueError(f"write_fraction must be in (0, 1], got {write_fraction}")


@dataclass(frozen=True)
class PlacementConflictConfig:
    """One ``placement`` grid point: allocator × hash × table size."""

    n_entries: int
    placement: str = "slab"
    hash_kind: str = "mask"
    concurrency: int = 2
    write_footprint: int = 8
    samples: int = 400
    objects_per_thread: int = 512
    skew: float = 1.2
    write_fraction: float = 0.3
    seed: int = 0

    def __post_init__(self) -> None:
        _positive("n_entries", self.n_entries)
        _positive("samples", self.samples)
        _validate_workload(
            self.placement,
            self.hash_kind,
            self.n_entries,
            self.concurrency,
            self.write_footprint,
            self.objects_per_thread,
            self.skew,
            self.write_fraction,
        )


@dataclass(frozen=True)
class PlacementConflictResult:
    """Conflict decomposition for one placement grid point.

    ``conflict_probability`` is what a tagless table reports;
    ``block_conflict_probability`` is genuine block sharing (placement
    packing two threads' objects into one cache block), and
    ``false_conflict_probability`` is the remainder — pure hash-index
    aliasing, exactly the conflicts a tagged table eliminates.
    """

    config: PlacementConflictConfig
    conflict_probability: float
    block_conflict_probability: float
    false_conflict_probability: float
    stderr: float
    mean_window_accesses: float


@lru_cache(maxsize=16)
def _placed_thread_streams(
    placement: str,
    concurrency: int,
    objects_per_thread: int,
    skew: float,
    write_fraction: float,
    write_footprint: int,
    seed: int,
) -> tuple[np.ndarray, tuple[tuple[np.ndarray, np.ndarray], ...]]:
    """Per-thread (ids, is_write) streams over one shared placed heap.

    Rebuilt (and memoized) per process from scalars — cluster workers
    receive only these in the point kwargs, keeping the wire code- and
    array-free.  Thread ``t`` owns objects ``t, t+C, ...``: the heap is
    allocated interleaved, so dense placements genuinely pack different
    threads' objects into shared blocks.  Each stream is extended
    deterministically (drawing more from the same rng) until it holds at
    least ``write_footprint`` distinct written blocks, so every window
    draw can reach W writes.

    Returns ``(blocks, streams)``: the heap's sorted distinct blocks, and
    each thread's stream with blocks relabelled to dense ids into
    ``blocks``.  The relabelling is injective and order-preserving, so
    windows, conflict verdicts and sorted footprints over ids are those
    over blocks.
    """
    rng = stream_rng(
        seed,
        "alloc-streams",
        placement=placement,
        c=concurrency,
        objects=objects_per_thread,
        skew=skew,
        wf=write_fraction,
        w=write_footprint,
    )
    total = concurrency * objects_per_thread
    sizes = draw_object_sizes(rng, total)
    blocks, block_id = np.unique(placed_heap(placement, sizes), return_inverse=True)
    chunk = max(2048, 64 * write_footprint)
    streams = []
    for t in range(concurrency):
        owned = block_id[np.arange(objects_per_thread, dtype=np.int64) * concurrency + t]
        parts_i: list[np.ndarray] = []
        parts_w: list[np.ndarray] = []
        for _ in range(_MAX_STREAM_GROWTH):
            objects, writes = zipf_working_set(
                rng,
                chunk,
                working_set_blocks=objects_per_thread,
                skew=skew,
                base=0,
                write_fraction=write_fraction,
            )
            parts_i.append(owned[objects])
            parts_w.append(writes)
            ids = np.concatenate(parts_i)
            is_write = np.concatenate(parts_w)
            if len(np.unique(ids[is_write])) >= write_footprint:
                streams.append((ids, is_write))
                break
        else:
            raise ValueError(
                f"thread {t}'s stream cannot reach W={write_footprint} distinct "
                f"written blocks with {objects_per_thread} objects at "
                f"skew={skew}, write_fraction={write_fraction}"
            )
    return blocks, tuple(streams)


def _indexed_windows(
    streams: tuple[tuple[np.ndarray, np.ndarray], ...],
    rng: np.random.Generator,
    draws: int,
    w: int,
) -> tuple[list[_WindowIndex], list[np.ndarray]]:
    """Every transaction window a run opens, indexed per thread.

    Start offsets are drawn up front, one ``integers(0, len(stream))``
    per window, draw-major and thread-minor (every result depends on
    this order).  Each thread's windows are then cut once per distinct
    offset.  Returns each thread's window
    index and, per thread, the index row of each of its ``draws`` windows.
    """
    starts = _draw_starts(rng, [len(ids) for ids, _ in streams], draws)
    windows = [
        _window_index(ids, is_write, np.unique(starts[:, t]), w)
        for t, (ids, is_write) in enumerate(streams)
    ]
    return windows, [ix.rows(starts[:, t]) for t, ix in enumerate(windows)]


def simulate_placement_conflicts(
    cfg: PlacementConflictConfig, *, batch: int = 1000
) -> PlacementConflictResult:
    """Monte Carlo conflict decomposition for one placement point.

    Per sample, every thread opens a transaction at a random start of
    its stream and collects the distinct-block footprint reaching W
    writes (looked up in the window index of
    :mod:`repro.sim.trace_fast`).  The batched conflict kernel then runs
    twice per batch — once on hashed table entries (what a tagless table
    sees), once on raw blocks (what a tagged table would see) — and the
    difference is the placement-and-hash-induced false-conflict rate.
    """
    blocks, streams = _placed_thread_streams(
        cfg.placement,
        cfg.concurrency,
        cfg.objects_per_thread,
        cfg.skew,
        cfg.write_fraction,
        cfg.write_footprint,
        cfg.seed,
    )
    hash_fn = make_hash(cfg.hash_kind, cfg.n_entries)
    rng = stream_rng(
        cfg.seed,
        "alloc-placement",
        placement=cfg.placement,
        hash=cfg.hash_kind,
        n=cfg.n_entries,
        c=cfg.concurrency,
        w=cfg.write_footprint,
        objects=cfg.objects_per_thread,
        skew=cfg.skew,
        wf=cfg.write_fraction,
    )
    windows, rows = _indexed_windows(streams, rng, cfg.samples, cfg.write_footprint)
    hashed = np.asarray(hash_fn(blocks), dtype=np.int64)
    entry_fps, block_fps = [], []
    for ix, (ids, _) in zip(windows, streams):
        entry_fps.append(ix.footprints(hashed[ids], cfg.n_entries))
        block_fps.append(ix.footprints(ids, len(blocks)))

    conflict = np.zeros(cfg.samples, dtype=bool)
    shared_block = np.zeros(cfg.samples, dtype=bool)
    for lo in range(0, cfg.samples, batch):
        part = [r[lo : lo + batch] for r in rows]
        conflict[lo : lo + batch] = cross_thread_conflicts(*_stack_footprints(entry_fps, part))
        shared_block[lo : lo + batch] = cross_thread_conflicts(*_stack_footprints(block_fps, part))

    wlen_sum = sum(int(ix.win_lens[r].sum()) for ix, r in zip(windows, rows))
    false = conflict & ~shared_block
    p_false, stderr = collision_probability_estimate(false)
    return PlacementConflictResult(
        config=cfg,
        conflict_probability=float(conflict.mean()),
        block_conflict_probability=float(shared_block.mean()),
        false_conflict_probability=p_false,
        stderr=stderr,
        mean_window_accesses=wlen_sum / (cfg.samples * cfg.concurrency),
    )


@dataclass(frozen=True)
class TableABConfig:
    """One ``fig7`` grid point: an ownership-table kind under replay."""

    n_entries: int
    table: str = "tagless"
    placement: str = "slab"
    hash_kind: str = "mask"
    concurrency: int = 4
    write_footprint: int = 8
    rounds: int = 60
    objects_per_thread: int = 512
    skew: float = 1.2
    write_fraction: float = 0.3
    seed: int = 0

    def __post_init__(self) -> None:
        if self.table not in TABLE_KINDS:
            raise ValueError(
                f"unknown table kind {self.table!r}; options: {sorted(TABLE_KINDS)}"
            )
        _positive("n_entries", self.n_entries)
        _positive("rounds", self.rounds)
        _validate_workload(
            self.placement,
            self.hash_kind,
            self.n_entries,
            self.concurrency,
            self.write_footprint,
            self.objects_per_thread,
            self.skew,
            self.write_fraction,
        )


@dataclass(frozen=True)
class TableABResult:
    """Ledger of one transactional replay through an ownership table.

    The counter fields mirror :class:`repro.ownership.base.TableCounters`;
    ``indirection_rate``/``mean_fraction_simple``/``max_chain`` are the
    tagged table's §5 cost metrics (identically zero-cost for tagless:
    rate 0.0, fraction 1.0, chain ≤ 1).
    """

    config: TableABConfig
    acquires: int
    grants: int
    true_conflicts: int
    false_conflicts: int
    unclassified_conflicts: int
    upgrades: int
    aborts: int
    committed: int
    indirection_rate: float
    mean_fraction_simple: float
    max_chain: int

    @property
    def conflicts(self) -> int:
        """Total refused acquires across the replay."""
        return self.true_conflicts + self.false_conflicts + self.unclassified_conflicts


def simulate_table_ab(cfg: TableABConfig) -> TableABResult:
    """Replay one placed, skewed workload through an ownership table.

    Each round, every thread draws a transaction footprint (the distinct
    blocks of a W-write window of its stream) and the threads acquire
    lock-step round-robin, one block per turn.  A refused thread aborts:
    it releases everything and sits out the round (counted in
    ``aborts``); threads that finish their footprint commit.  The rng is
    keyed on everything *except* the table kind, so tagless and tagged
    replay byte-identical streams and schedules — the table is the only
    A/B variable.
    """
    blocks, streams = _placed_thread_streams(
        cfg.placement,
        cfg.concurrency,
        cfg.objects_per_thread,
        cfg.skew,
        cfg.write_fraction,
        cfg.write_footprint,
        cfg.seed,
    )
    hash_fn = make_hash(cfg.hash_kind, cfg.n_entries)
    if cfg.table == "tagged":
        table = TaggedOwnershipTable(cfg.n_entries, hash_fn)
    else:
        table = TaglessOwnershipTable(cfg.n_entries, hash_fn, track_addresses=True)
    rng = stream_rng(
        cfg.seed,
        "alloc-table-ab",
        placement=cfg.placement,
        hash=cfg.hash_kind,
        n=cfg.n_entries,
        c=cfg.concurrency,
        w=cfg.write_footprint,
        rounds=cfg.rounds,
        objects=cfg.objects_per_thread,
        skew=cfg.skew,
        wf=cfg.write_fraction,
    )

    windows, rows = _indexed_windows(streams, rng, cfg.rounds, cfg.write_footprint)
    # Each window's transaction: its distinct blocks as sorted Python
    # ints, each with its write flag; txns_by_thread[t][r] is round r's.
    block_list = blocks.tolist()
    txns_by_thread = []
    for ix, (ids, _), thread_rows in zip(windows, streams, rows):
        fp = ix.footprints(ids, len(blocks))
        labels, writes = fp.labels.tolist(), fp.writes.tolist()
        row_txns = [
            list(zip([block_list[b] for b in labels[r][:k]], writes[r][:k]))
            for r, k in enumerate(fp.counts.tolist())
        ]
        txns_by_thread.append([row_txns[r] for r in thread_rows.tolist()])

    c = cfg.concurrency
    aborts = 0
    committed = 0
    simple_sum = 0.0
    max_chain = 0
    for rnd in range(cfg.rounds):
        txns = [thread_txns[rnd] for thread_txns in txns_by_thread]
        alive = [True] * c
        idx = [0] * c
        remaining = c
        while remaining:
            remaining = 0
            for t in range(c):
                if not alive[t] or idx[t] >= len(txns[t]):
                    continue
                block, is_write = txns[t][idx[t]]
                mode = AccessMode.WRITE if is_write else AccessMode.READ
                if table.acquire(t, block, mode).granted:
                    idx[t] += 1
                    if idx[t] < len(txns[t]):
                        remaining += 1
                else:
                    alive[t] = False
                    table.release_all(t)
                    aborts += 1
        committed += sum(
            1 for t in range(c) if alive[t] and idx[t] == len(txns[t])
        )
        if isinstance(table, TaggedOwnershipTable):
            stats = table.chain_stats()
            simple_sum += stats.fraction_entries_simple
            max_chain = max(max_chain, stats.max_chain)
        else:
            simple_sum += 1.0
        for t in range(c):
            table.release_all(t)

    counters = table.counters
    indirection = (
        table.indirection_rate if isinstance(table, TaggedOwnershipTable) else 0.0
    )
    return TableABResult(
        config=cfg,
        acquires=counters.acquires,
        grants=counters.grants,
        true_conflicts=counters.true_conflicts,
        false_conflicts=counters.false_conflicts,
        unclassified_conflicts=counters.unclassified_conflicts,
        upgrades=counters.upgrades,
        aborts=aborts,
        committed=committed,
        indirection_rate=float(indirection),
        mean_fraction_simple=simple_sum / cfg.rounds,
        max_chain=max_chain,
    )
