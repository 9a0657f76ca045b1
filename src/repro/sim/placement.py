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
  footprint streams transactionally against a tagless or a tagged
  ownership table — the same windows, the same lock-step schedule, the
  table the only variable — and reports the §5 ledger: conflict
  classification counters, aborts, and the tagged table's
  chain/indirection costs.  The replay runs over all rounds at once in
  numpy; it counts what the :mod:`repro.ownership` tables would.

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
from repro.ownership.hashing import make_hash
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
    A/B variable.  The ledger is what a
    :class:`~repro.ownership.tagless.TaglessOwnershipTable` (tracking
    addresses) or a :class:`~repro.ownership.tagged.TaggedOwnershipTable`
    counts over this schedule; :func:`_replay_ledger` derives it from
    whole arrays instead of one ``acquire`` per access.
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
    # Thread t's round-r transaction is its footprint row rows[t][r]: the
    # window's distinct block ids in ascending order, one per step.
    footprints = [ix.footprints(ids, len(blocks)) for ix, (ids, _) in zip(windows, streams)]
    steps = max(fp.labels.shape[1] for fp in footprints)
    block = np.full((cfg.rounds, steps, cfg.concurrency), -1, dtype=np.int64)
    write = np.zeros(block.shape, dtype=bool)
    for t, (fp, r) in enumerate(zip(footprints, rows)):
        labels = fp.labels[r]
        width = labels.shape[1]
        block[:, :width, t] = np.where(labels < len(blocks), labels, -1)
        write[:, :width, t] = fp.writes[r]
    _, entry_of = np.unique(np.asarray(hash_fn(blocks)), return_inverse=True)
    ledger = _replay_ledger(block, write, entry_of, cfg.n_entries, tagged=cfg.table == "tagged")
    return TableABResult(config=cfg, **ledger)


# Abort point of a thread that commits.
_NEVER = np.iinfo(np.int64).max


def _runs(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start of each run of equal values in sorted ``keys``, and each value's run."""
    new = np.ones(len(keys), dtype=bool)
    new[1:] = keys[1:] != keys[:-1]
    return np.flatnonzero(new), np.cumsum(new) - 1


def _live_counts(
    key: np.ndarray,
    start: np.ndarray,
    end: np.ndarray,
    at_key: np.ndarray,
    at: np.ndarray,
    horizon: int,
) -> np.ndarray:
    """How many ``(start, end]`` intervals of its key contain each probe.

    The key's starts before ``at`` less its ends before ``at``; times
    are below ``horizon``, and keys are packed above them.
    """
    starts = np.sort(key * horizon + start)
    ends = np.sort(key * horizon + end)
    probes = at_key * horizon + at
    return np.searchsorted(starts, probes) - np.searchsorted(ends, probes)


def _replay_ledger(
    block: np.ndarray,
    write: np.ndarray,
    entry_of: np.ndarray,
    n_entries: int,
    *,
    tagged: bool,
) -> dict:
    """The :class:`TableABResult` counters of a lock-step replay.

    ``block[r, s, t]`` is the block id thread ``t`` acquires at step
    ``s`` of round ``r``, or ``-1`` once its transaction is done, and
    ``write`` flags the writes; a transaction names each block once.
    ``entry_of`` maps block ids to table entries, relabelled densely.
    Rounds are independent: every round ends with each thread releasing
    everything, so each starts on an empty table.

    Accesses are ordered by (round, step, thread).  An access is refused
    when a live other thread was granted the same key earlier (its entry
    for tagless, its block for tagged) and the access or that thread's
    hold there is a write; the refused thread aborts and releases.
    Each pass speculates that no abort is missing, checks every round
    at once, and fixes each round's first refusal — a real one, since
    nothing before it changed.  It stops when no refusal is left, after
    at most one pass more than any round's aborts.  One last pass reads
    the counters off the abort points.
    """
    rounds, steps, c = block.shape
    span = (steps + 1) * c  # orders per round; the spare last step commits
    horizon = rounds * span
    flat = np.flatnonzero(block.ravel() >= 0)
    o = flat + flat // (steps * c) * c
    b = block.ravel()[flat]
    w = write.ravel()[flat]
    t = o % c
    key = b if tagged else entry_of[b]

    # Sort into (round, key, thread) runs, each in order: a thread's
    # first access and first write on a key decide whom it refuses.
    group = (o // span * len(entry_of) + key) * c + t
    srt = np.argsort(group, kind="stable")
    o, w, t, b, group = o[srt], w[srt], t[srt], b[srt], group[srt]
    slot = o // span * c + t  # the (round, thread) of each access
    run_start, run = _runs(group)
    first = o[run_start]
    first_write = np.minimum.reduceat(np.where(w, o, _NEVER), run_start)
    run_thread = t[run_start]

    # Pair each access with the other threads' runs on its (round, key)
    # that could refuse it: an access's k-th pair is its key's k-th run.
    key_start, key_of_run = _runs(group[run_start] // c)
    runs_on_key = np.diff(np.r_[key_start, len(run_start)])[key_of_run[run]]
    shared = np.flatnonzero(runs_on_key > 1)
    reps = runs_on_key[shared]
    ev = np.repeat(shared, reps)
    other = np.arange(len(ev)) + np.repeat(
        key_start[key_of_run[run[shared]]] - np.cumsum(reps) + reps, reps
    )
    at = o[ev]
    refuses = (run_thread[other] != t[ev]) & np.where(
        w[ev], first[other] < at, first_write[other] < at
    )
    ev, other = ev[refuses], other[refuses]
    by_order = np.argsort(at[refuses], kind="stable")
    ev, other = ev[by_order], other[by_order]
    at, req = o[ev], slot[ev]
    holder = req - t[ev] + run_thread[other]

    abort_at = np.full(rounds * c, _NEVER, dtype=np.int64)
    while len(at):
        live = (abort_at[req] > at) & (abort_at[holder] > at)
        at, req, holder = at[live], req[live], holder[live]
        head, _ = _runs(at // span)
        abort_at[req[head]] = at[head]

    attempted = o <= abort_at[slot]
    granted = o < abort_at[slot]
    refused = attempted & ~granted
    aborted = abort_at != _NEVER
    aborts = int(aborted.sum())
    acquires = int(attempted.sum())
    upgrades = int((granted & w & (first[run] < o) & (first_write[run] == o)).sum())

    # Block records: a grant holds its block until its thread aborts or
    # commits; overlapping holds of one block are one record.
    commit = (np.arange(rounds * c) // c + 1) * span - 1
    release = np.where(aborted, abort_at, commit)[slot[granted]]
    held = np.argsort(b[granted] * horizon + o[granted])
    hb, hs = b[granted][held], o[granted][held]
    last = np.maximum.accumulate(hb * horizon + release[held])
    new = np.ones(len(hb) + 1, dtype=bool)  # where a record starts, or all have ended
    new[1:-1] = hb[1:] * horizon + hs[1:] > last[:-1]
    rec_b, rec_start = hb[new[:-1]], hs[new[:-1]]
    rec_end = last[new[1:]] - rec_b * horizon

    ledger = dict(
        acquires=acquires,
        grants=acquires - aborts,
        true_conflicts=aborts,
        false_conflicts=0,
        unclassified_conflicts=0,
        upgrades=upgrades,
        aborts=aborts,
        committed=rounds * c - aborts,
        indirection_rate=0.0,
        mean_fraction_simple=1.0,
        max_chain=0,
    )
    if not tagged:
        # True when a live other holder touched the very block refused.
        true = int((_live_counts(rec_b, rec_start, rec_end, b[refused], o[refused],
                                 horizon) > 0).sum())
        ledger.update(true_conflicts=true, false_conflicts=aborts - true)
        return ledger

    # A probe follows the chain pointer when its entry holds > 1 record.
    chains = _live_counts(
        entry_of[rec_b], rec_start, rec_end, entry_of[b[attempted]], o[attempted], horizon
    )
    # Chain lengths each round are taken from the records still held at
    # its commit, after aborted threads have released theirs.
    kept = rec_end % span == span - 1
    at_commit, lengths = np.unique(
        rec_end[kept] // span * len(entry_of) + entry_of[rec_b[kept]], return_counts=True
    )
    multi = np.bincount(at_commit[lengths > 1] // len(entry_of), minlength=rounds)
    simple_sum = 0.0
    for m in multi.tolist():  # left to right, as the rounds ran
        simple_sum += (n_entries - m) / n_entries
    ledger.update(
        indirection_rate=int((chains > 1).sum()) / acquires if acquires else 0.0,
        mean_fraction_simple=simple_sum / rounds,
        max_chain=int(lengths.max(initial=0)),
    )
    return ledger
