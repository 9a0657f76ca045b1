"""Pinned outputs of the placement and table A/B engines.

Every field of :class:`PlacementConflictResult` and :class:`TableABResult`
for a spread of configurations, recorded from the per-sample
``_window_footprint`` implementation these engines started from.  Both
engines promise the same numbers however the windows are computed, so
these values are compared with ``==``: a change to how start offsets
are drawn, how windows are cut, or how footprints are hashed and
replayed fails here first.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.sim.placement import (
    PlacementConflictConfig,
    TableABConfig,
    simulate_placement_conflicts,
    simulate_table_ab,
)

# (config overrides) -> (conflict, block_conflict, false_conflict,
#                        stderr, mean_window_accesses)
PLACEMENT_GOLDEN = [
    (
        dict(n_entries=1024, placement="slab", hash_kind="mask", concurrency=2),
        (0.29, 0.035, 0.255, 0.02179306082219751, 33.72),
    ),
    (
        dict(n_entries=4096, placement="slab", hash_kind="multiplicative", concurrency=3),
        (0.1175, 0.04, 0.0775, 0.013369157602481915, 34.32666666666667),
    ),
    (
        dict(n_entries=1024, placement="bump", hash_kind="mask", concurrency=3),
        (0.7175, 0.1925, 0.525, 0.02496873044429772, 33.54833333333333),
    ),
    (
        dict(n_entries=16384, placement="bump", hash_kind="multiplicative", concurrency=2),
        (0.095, 0.095, 0.0, 0.0, 33.19),
    ),
    (
        # More samples than one batch: exercises the batch boundary.
        dict(n_entries=4096, placement="buddy", hash_kind="mask", concurrency=2,
             samples=1500),
        (0.044, 0.044, 0.0, 0.0, 34.62233333333333),
    ),
    (
        dict(n_entries=1024, placement="buddy", hash_kind="multiplicative",
             concurrency=3, write_footprint=16),
        (0.7425, 0.1475, 0.595, 0.024544602257930356, 83.77916666666667),
    ),
]

# (n_entries, W, table[, overrides]) -> (acquires, grants, true_conflicts,
#   false_conflicts, unclassified_conflicts, upgrades, aborts, committed,
#   indirection_rate, mean_fraction_simple, max_chain); normal-quality
# fig7 points (C=4, 80 rounds, 512 objects, slab/mask).
TABLE_AB_GOLDEN = {
    (256, 4, "tagless"): (3053, 2964, 1, 88, 0, 44, 89, 231, 0.0, 1.0, 0),
    (256, 4, "tagged"): (3332, 3331, 1, 0, 0, 0, 1, 319, 0.0063025210084033615,
                         0.985498046875, 3),
    (1024, 8, "tagless"): (5495, 5404, 6, 85, 0, 10, 91, 229, 0.0, 1.0, 0),
    (1024, 8, "tagged"): (6373, 6367, 6, 0, 0, 0, 6, 314, 0.0007845598619174643,
                          0.99674072265625, 3),
    (4096, 16, "tagless"): (7641, 7457, 55, 129, 0, 22, 184, 136, 0.0, 1.0, 0),
    (4096, 16, "tagged"): (10284, 10227, 57, 0, 0, 0, 57, 263, 0.006126021003500583,
                           0.998291015625, 3),
    (256, 16, "tagless"): (6673, 6434, 53, 186, 0, 90, 239, 81, 0.0, 1.0, 0),
    (256, 16, "tagged"): (10308, 10253, 55, 0, 0, 0, 55, 265, 0.051707411719053166,
                          0.907421875, 6),
    # The same 80-round slab/mask point with one more config field
    # overridden: other placements and hashes, C=2 and C=8, W=1, and a
    # single round.  Recorded from the per-access ``table.acquire`` replay.
    (256, 8, "tagless", (("hash_kind", "multiplicative"), ("placement", "bump"))): (
        4597, 4410, 21, 166, 0, 17, 187, 133, 0.0, 1.0, 0),
    (256, 8, "tagged", (("hash_kind", "multiplicative"), ("placement", "bump"))): (
        6210, 6181, 29, 0, 0, 0, 29, 291, 0.011111111111111112, 0.965478515625, 4),
    (256, 8, "tagless", (("hash_kind", "xorfold"), ("placement", "buddy"))): (
        4635, 4455, 3, 177, 0, 30, 180, 140, 0.0, 1.0, 0),
    (256, 8, "tagged", (("hash_kind", "xorfold"), ("placement", "buddy"))): (
        6309, 6304, 5, 0, 0, 0, 5, 315, 0.008559201141226819, 0.964111328125, 3),
    (512, 8, "tagless", (("concurrency", 2),)): (
        2915, 2888, 1, 26, 0, 14, 27, 133, 0.0, 1.0, 0),
    (512, 8, "tagged", (("concurrency", 2),)): (
        3128, 3127, 1, 0, 0, 0, 1, 159, 0.0009590792838874681, 0.99697265625, 3),
    (1024, 8, "tagless", (("concurrency", 8),)): (
        9749, 9402, 45, 302, 0, 7, 347, 293, 0.0, 1.0, 0),
    (1024, 8, "tagged", (("concurrency", 8),)): (
        11968, 11920, 48, 0, 0, 0, 48, 592, 0.0052640374331550804, 0.98909912109375, 4),
    (64, 1, "tagless", ()): (831, 795, 0, 36, 0, 5, 36, 284, 0.0, 1.0, 0),
    (64, 1, "tagged", ()): (879, 879, 0, 0, 0, 0, 0, 320, 0.015927189988623434,
                            0.981640625, 5),
    (256, 8, "tagless", (("rounds", 1),)): (61, 58, 0, 3, 0, 1, 3, 1, 0.0, 1.0, 0),
    (256, 8, "tagged", (("rounds", 1),)): (89, 89, 0, 0, 0, 0, 0, 4, 0.02247191011235955,
                                          0.9296875, 3),
}


@pytest.mark.parametrize("overrides,expected", PLACEMENT_GOLDEN)
def test_placement_result_pinned(overrides, expected):
    r = simulate_placement_conflicts(PlacementConflictConfig(seed=7, **overrides))
    got = (
        r.conflict_probability,
        r.block_conflict_probability,
        r.false_conflict_probability,
        r.stderr,
        r.mean_window_accesses,
    )
    assert got == expected


# Shorter keys sort first, so the original eight pins keep their test ids.
@pytest.mark.parametrize("key", sorted(TABLE_AB_GOLDEN, key=lambda k: (len(k), k)))
def test_table_ab_result_pinned(key):
    n, w, table, *rest = key
    cfg = dict(n_entries=n, write_footprint=w, table=table, rounds=80, seed=7)
    cfg.update(rest[0] if rest else ())
    r = simulate_table_ab(TableABConfig(**cfg))
    fields = dataclasses.asdict(r)
    fields.pop("config")
    assert tuple(fields.values()) == TABLE_AB_GOLDEN[key]
