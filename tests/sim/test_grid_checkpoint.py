"""``run_grid(cache=, chunk_size=)`` checkpoints a grid chunk by chunk.

A cached chunk is filled in without being evaluated, the missing ones
run on one executor (one process pool for the whole grid) and each is
stored once it settles, and a chunk with a failed point is never
stored.  The bytes never depend on which chunks came from the cache.
"""

from __future__ import annotations

import json

import pytest

import repro.sim.parallel as parallel
from repro.service.cache import ResultCache
from repro.sim.catalog import SWEEP_KINDS
from repro.sim.sweep import run_grid

FIG4A = {"n_values": [256, 1024], "w_values": [4, 8, 16], "samples": 40}


def _rows(sweep):
    return json.dumps([[p, o] for p, o in sweep], sort_keys=True)


@pytest.mark.parametrize("jobs", [None, 2])
def test_checkpointed_run_matches_plain_and_replays_from_cache(jobs):
    kind = SWEEP_KINDS["fig4a"]
    params = kind.validate(FIG4A)
    plain = kind.run(params, 3)
    cache = ResultCache()
    first = kind.run(params, 3, jobs=jobs, cache=cache, chunk_size=4)
    assert _rows(first) == _rows(plain)
    assert len(cache) == 2  # 6 points in chunks of 4
    assert cache.stats().hits == 0

    again = kind.run(params, 3, jobs=jobs, cache=cache, chunk_size=4)
    assert _rows(again) == _rows(plain)
    assert cache.stats().hits == 2 and len(cache) == 2


def test_frameless_grid_matches_the_frame_rows():
    kind = SWEEP_KINDS["fig4a"]
    params = kind.validate(FIG4A)
    sweep = run_grid(kind.bind(params, 3), kind.grid(params), cache=ResultCache(),
                     chunk_size=5)
    assert _rows(sweep) == _rows(kind.run(params, 3))


def test_failed_chunk_is_never_stored():
    kind = SWEEP_KINDS["fig2a"]
    params = kind.validate({"accesses": 100, "threads": 2, "w_values": [5, 100000]})
    cache = ResultCache()
    with pytest.raises(ValueError, match="^fig2a point "):
        kind.run(params, 0, jobs=2, cache=cache, chunk_size=2)
    assert len(cache) == 0


@pytest.fixture
def pools(monkeypatch):
    """Record every process pool built, with the grid indices it ran."""
    built = []

    class RecordingPool(parallel.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.indices = []
            built.append(self)

        def submit(self, fn, /, *args, **kwargs):
            self.indices.extend(index for index, _ in args[1])  # _run_chunk's chunk
            return super().submit(fn, *args, **kwargs)

    monkeypatch.setattr(parallel, "ProcessPoolExecutor", RecordingPool)
    return built


def test_one_pool_serves_every_missing_chunk(pools):
    kind = SWEEP_KINDS["fig4a"]
    params = kind.validate(FIG4A)
    sweep = kind.run(params, 3, jobs=2, cache=ResultCache(), chunk_size=2)
    assert len(pools) == 1  # 3 missing chunks, one pool
    assert sorted(pools[0].indices) == list(range(6))
    assert _rows(sweep) == _rows(kind.run(params, 3))


def test_only_missing_chunks_are_evaluated(pools):
    kind = SWEEP_KINDS["fig4a"]
    params = kind.validate(FIG4A)
    fn, grid = kind.bind(params, 3), kind.grid(params)
    cache = ResultCache()
    # Chunk keys depend on the chunk's points (and the kind's result
    # version) only, so checkpointing the first and last pairs on their
    # own pre-seeds chunks 0 and 2.
    version = kind.result_version
    run_grid(fn, grid[:2], cache=cache, chunk_size=2, result_version=version)
    run_grid(fn, grid[4:], cache=cache, chunk_size=2, result_version=version)
    assert len(cache) == 2 and not pools

    sweep = kind.run(params, 3, jobs=2, cache=cache, chunk_size=2)
    assert len(pools) == 1 and sorted(pools[0].indices) == [2, 3]
    assert cache.stats().hits == 2 and len(cache) == 3
    assert _rows(sweep) == _rows(kind.run(params, 3))
