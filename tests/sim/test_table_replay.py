"""The vectorized fig7 replay against the per-access table loop.

:func:`repro.sim.placement.simulate_table_ab` derives its ledger from
whole arrays.  The oracle here is the loop it replaced: every access
goes through ``table.acquire`` of a real
:class:`~repro.ownership.tagless.TaglessOwnershipTable` (tracking
addresses) or :class:`~repro.ownership.tagged.TaggedOwnershipTable`,
lock-step round-robin, a refused thread aborting and releasing at once.

Two differentials compare whole ledgers with ``==``:

* over :class:`TableABConfig` points, the full
  :class:`TableABResult` of :func:`simulate_table_ab` against the oracle
  on the same windows;
* over hand-drawn rounds fed to ``_replay_ledger`` directly, which
  reaches what configs cannot: all-read rounds, empty transactions,
  tiny tables where every thread shares one entry, and any step order.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.ownership.base import AccessMode
from repro.ownership.hashing import make_hash
from repro.ownership.tagged import TaggedOwnershipTable
from repro.ownership.tagless import TaglessOwnershipTable
from repro.sim.placement import (
    TableABConfig,
    _indexed_windows,
    _placed_thread_streams,
    _replay_ledger,
    simulate_table_ab,
)
from repro.util.rng import stream_rng

def oracle_replay(table, txns_by_round, n_threads):
    """The per-access loop: ``txns_by_round[r][t]`` lists (block, is_write)."""
    aborts = 0
    committed = 0
    simple_sum = 0.0
    max_chain = 0
    for txns in txns_by_round:
        alive = [True] * n_threads
        idx = [0] * n_threads
        remaining = n_threads
        while remaining:
            remaining = 0
            for t in range(n_threads):
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
        committed += sum(1 for t in range(n_threads) if alive[t] and idx[t] == len(txns[t]))
        if isinstance(table, TaggedOwnershipTable):
            stats = table.chain_stats()
            simple_sum += stats.fraction_entries_simple
            max_chain = max(max_chain, stats.max_chain)
        else:
            simple_sum += 1.0
        for t in range(n_threads):
            table.release_all(t)

    counters = table.counters
    tagged = isinstance(table, TaggedOwnershipTable)
    return dict(
        acquires=counters.acquires,
        grants=counters.grants,
        true_conflicts=counters.true_conflicts,
        false_conflicts=counters.false_conflicts,
        unclassified_conflicts=counters.unclassified_conflicts,
        upgrades=counters.upgrades,
        aborts=aborts,
        committed=committed,
        indirection_rate=float(table.indirection_rate if tagged else 0.0),
        mean_fraction_simple=simple_sum / len(txns_by_round),
        max_chain=max_chain,
    )


def make_table(kind, n_entries, hash_fn):
    if kind == "tagged":
        return TaggedOwnershipTable(n_entries, hash_fn)
    return TaglessOwnershipTable(n_entries, hash_fn, track_addresses=True)


def oracle_table_ab(cfg):
    """``simulate_table_ab`` as the per-access loop over the same windows."""
    blocks, streams = _placed_thread_streams(
        cfg.placement, cfg.concurrency, cfg.objects_per_thread, cfg.skew,
        cfg.write_fraction, cfg.write_footprint, cfg.seed,
    )
    hash_fn = make_hash(cfg.hash_kind, cfg.n_entries)
    rng = stream_rng(
        cfg.seed, "alloc-table-ab", placement=cfg.placement, hash=cfg.hash_kind,
        n=cfg.n_entries, c=cfg.concurrency, w=cfg.write_footprint, rounds=cfg.rounds,
        objects=cfg.objects_per_thread, skew=cfg.skew, wf=cfg.write_fraction,
    )
    windows, rows = _indexed_windows(streams, rng, cfg.rounds, cfg.write_footprint)
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
    txns_by_round = [list(txns) for txns in zip(*txns_by_thread)]
    table = make_table(cfg.table, cfg.n_entries, hash_fn)
    return oracle_replay(table, txns_by_round, cfg.concurrency)


def vector_replay(kind, n_entries, hash_kind, txns_by_round, n_threads):
    """``_replay_ledger`` on rounds of (block address, is_write) lists."""
    addresses = sorted({blk for txns in txns_by_round for txn in txns for blk, _ in txn})
    dense = {a: i for i, a in enumerate(addresses)}
    steps = max([len(txn) for txns in txns_by_round for txn in txns] + [1])
    block = np.full((len(txns_by_round), steps, n_threads), -1, dtype=np.int64)
    write = np.zeros(block.shape, dtype=bool)
    for r, txns in enumerate(txns_by_round):
        for t, txn in enumerate(txns):
            for s, (blk, is_write) in enumerate(txn):
                block[r, s, t] = dense[blk]
                write[r, s, t] = is_write
    hashed = np.asarray(make_hash(hash_kind, n_entries)(np.array(addresses, dtype=np.int64)))
    _, entry_of = np.unique(hashed, return_inverse=True)
    return _replay_ledger(block, write, entry_of, n_entries, tagged=kind == "tagged")


def oracle_rounds(kind, n_entries, hash_kind, txns_by_round, n_threads):
    table = make_table(kind, n_entries, make_hash(hash_kind, n_entries))
    return oracle_replay(table, txns_by_round, n_threads)


def assert_same_ledger(kind, n_entries, hash_kind, txns_by_round, n_threads):
    want = oracle_rounds(kind, n_entries, hash_kind, txns_by_round, n_threads)
    got = vector_replay(kind, n_entries, hash_kind, txns_by_round, n_threads)
    assert got == want
    return got


# -- whole results over configs -----------------------------------------


def ledger(result):
    fields = dataclasses.asdict(result)
    fields.pop("config")
    return fields


config_strategy = st.builds(
    lambda table, n, c, w, rounds, placement, hash_kind, skew, wf, seed: TableABConfig(
        n_entries=n, table=table, placement=placement, hash_kind=hash_kind,
        concurrency=c, write_footprint=w, rounds=rounds, objects_per_thread=8 * w + 32,
        skew=skew, write_fraction=wf, seed=seed,
    ),
    table=st.sampled_from(["tagless", "tagged"]),
    n=st.sampled_from([1, 4, 16, 64, 256, 1024]),
    c=st.integers(2, 8),
    w=st.integers(1, 6),
    rounds=st.integers(1, 8),
    placement=st.sampled_from(["slab", "bump", "buddy", "bump-packed", "slab-colored"]),
    hash_kind=st.sampled_from(["mask", "multiplicative", "xorfold"]),
    skew=st.sampled_from([0.6, 1.2, 2.5]),
    wf=st.sampled_from([0.05, 0.3, 0.9]),
    seed=st.integers(0, 3),
)


class TestConfigDifferential:
    @settings(max_examples=60, deadline=None)
    @given(cfg=config_strategy)
    def test_result_matches_per_access_loop(self, cfg):
        assert ledger(simulate_table_ab(cfg)) == oracle_table_ab(cfg)

    @pytest.mark.parametrize("table", ["tagless", "tagged"])
    @pytest.mark.parametrize("c", range(2, 9))
    def test_every_concurrency(self, table, c):
        cfg = TableABConfig(n_entries=64, table=table, concurrency=c, write_footprint=4,
                            rounds=10, objects_per_thread=64, seed=3)
        r = simulate_table_ab(cfg)
        assert ledger(r) == oracle_table_ab(cfg)
        assert r.aborts > 0


# -- hand-drawn rounds --------------------------------------------------


@st.composite
def rounds_strategy(draw):
    c = draw(st.integers(1, 8))
    n_rounds = draw(st.integers(1, 4))
    n_blocks = draw(st.sampled_from([4, 16, 64]))
    write_p = draw(st.sampled_from([0.0, 0.3, 0.7, 1.0]))
    txn = st.lists(
        st.tuples(st.integers(0, n_blocks - 1), st.floats(0, 1)),
        max_size=6,
        unique_by=lambda a: a[0],
    ).map(lambda accs: [(blk, p < write_p) for blk, p in accs])
    return [[draw(txn) for _ in range(c)] for _ in range(n_rounds)], c


class TestRoundsDifferential:
    @settings(max_examples=200, deadline=None)
    @given(
        drawn=rounds_strategy(),
        kind=st.sampled_from(["tagless", "tagged"]),
        n_entries=st.sampled_from([1, 2, 4, 8]),
        hash_kind=st.sampled_from(["mask", "multiplicative", "xorfold"]),
    )
    # blocks 0 and 8 share entry 0 of an 8-entry mask table: a false conflict
    @example(drawn=([[[(0, False)], [(8, True)]]], 2), kind="tagless", n_entries=8,
             hash_kind="mask")
    def test_ledger_matches_per_access_loop(self, drawn, kind, n_entries, hash_kind):
        txns_by_round, c = drawn
        got = assert_same_ledger(kind, n_entries, hash_kind, txns_by_round, c)
        # The last live holder can never be refused, so a round always
        # commits at least one thread.
        assert got["committed"] >= len(txns_by_round)

    @pytest.mark.parametrize("kind", ["tagless", "tagged"])
    def test_all_read_rounds_never_conflict(self, kind):
        rounds = [[[(b, False) for b in range(t, t + 5)] for t in range(4)]] * 3
        got = assert_same_ledger(kind, 2, "mask", rounds, 4)
        assert got["aborts"] == 0 and got["committed"] == 12

    def test_tagless_upgrade_through_another_block(self):
        # Thread 0 reads block 0 then writes block 4: both are entry 0 of
        # a 4-entry mask table, so the write upgrades its own read hold.
        rounds = [[[(0, False), (4, True)], [(1, False)]]]
        got = assert_same_ledger("tagless", 4, "mask", rounds, 2)
        assert got["upgrades"] == 1 and got["aborts"] == 0

    def test_tagless_upgrade_refused_by_another_reader(self):
        # Thread 1 also reads entry 0 first, so thread 0's upgrade is
        # refused: a false conflict (thread 1 never touched block 4).
        rounds = [[[(0, False), (4, True)], [(8, False)]]]
        got = assert_same_ledger("tagless", 4, "mask", rounds, 2)
        assert (got["aborts"], got["false_conflicts"], got["upgrades"]) == (1, 1, 0)

    def test_tagged_same_entry_chain(self):
        # Blocks 0, 4, 8 share entry 0 under distinct tags: one chain of
        # three records, probed through the pointer once it is two long.
        rounds = [[[(0, True)], [(4, True)], [(8, False)]]]
        got = assert_same_ledger("tagged", 4, "mask", rounds, 3)
        assert got["max_chain"] == 3 and got["aborts"] == 0
        assert got["indirection_rate"] == 1 / 3
        assert got["mean_fraction_simple"] == 3 / 4

    @pytest.mark.parametrize("kind", ["tagless", "tagged"])
    def test_every_thread_but_one_aborts(self, kind):
        # All threads write block 0 first: thread 0 wins it, every other
        # thread is refused at step 0, and thread 0 alone commits.
        c = 8
        rounds = [[[(0, True), (100 + t, False)] for t in range(c)]] * 2
        got = assert_same_ledger(kind, 64, "mask", rounds, c)
        assert got["aborts"] == 2 * (c - 1) and got["committed"] == 2
        assert got["true_conflicts"] == 2 * (c - 1)

    def test_abort_releases_mid_round(self):
        # Thread 1 is refused at step 1 and releases block 1, so thread
        # 2's later write of block 1 is granted and the round has one abort.
        rounds = [[[(0, True), (5, False), (6, False)], [(1, True), (0, False)],
                   [(7, False), (8, False), (1, True)]]]
        got = assert_same_ledger("tagged", 64, "mask", rounds, 3)
        assert got["aborts"] == 1 and got["committed"] == 2
